//! The simulation engine: schedules per-core tasks min-clock-first and
//! provides warmup/measure windows.
//!
//! Scheduling policy: among cores that have a task, always run the one whose
//! local clock is furthest behind, one *turn* at a time (a turn is one
//! packet, or one batch for synthetic workloads). This keeps cross-core
//! clock skew bounded by a single turn's duration, so accesses from
//! different cores interleave in nearly timestamp order at the shared L3 and
//! memory controllers — the approximation ARCHITECTURE.md ("charging-model
//! invariants") documents.

use crate::counters::{CounterSnapshot, DerivedMetrics};
use crate::ctx::ExecCtx;
use crate::machine::Machine;
use crate::types::{CoreId, Cycles};
use std::rc::Rc;

/// Outcome of one task turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TurnResult {
    /// Work was done; the task advanced its core's clock itself.
    Progress,
    /// Nothing to do right now (e.g., empty upstream queue in pipeline
    /// mode). The engine advances the clock by a small polling penalty so
    /// idle cores do not spin at zero cost.
    Idle,
}

/// A unit of work bound to one core — typically a packet-processing flow.
pub trait CoreTask {
    /// Process one packet (or one synthetic batch). Must advance the core
    /// clock via the context; returning without advancing and claiming
    /// [`TurnResult::Progress`] would live-lock the engine (debug builds
    /// assert against it).
    fn run_turn(&mut self, ctx: &mut ExecCtx<'_>) -> TurnResult;

    /// Human-readable label for reports. Returns a borrowed string so the
    /// hot engine loop never clones per turn.
    fn label(&self) -> &str {
        "task"
    }

    /// Shared handle to the label for measurements. The engine calls this
    /// once per measured core per window; tasks that keep their label as an
    /// `Rc<str>` (all the standard flow/stage tasks do) hand out a
    /// refcount bump with no string allocation at all. The default copies
    /// [`label`](Self::label) once, which is still outside any hot loop.
    fn label_shared(&self) -> Rc<str> {
        Rc::from(self.label())
    }

    /// Called once by [`Engine::migrate_task`] after the task has been
    /// detached from its old core and before it is bound to the new one.
    /// Tasks with in-flight state (accrued pacing credit, queued work)
    /// drain it here through their counted drop paths so migration never
    /// loses a packet silently. Default: nothing to drain.
    fn on_migrate(&mut self) {}
}

/// Cycles charged to a core whose task reported [`TurnResult::Idle`]
/// (the cost of polling an empty queue).
pub const IDLE_POLL_COST: Cycles = 200;

/// Per-core measurement output for one window.
#[derive(Debug, Clone)]
pub struct CoreMeasurement {
    /// The core measured.
    pub core: CoreId,
    /// Task label (empty for idle cores). Shared with the task — building
    /// a measurement does not copy label strings.
    pub label: Rc<str>,
    /// Counter deltas over the window (totals and per-tag).
    pub counts: CounterSnapshot,
    /// Derived per-second / per-packet metrics.
    pub metrics: DerivedMetrics,
}

/// A complete measurement over one window.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Nominal window length in cycles.
    pub window_cycles: Cycles,
    /// Core frequency used for per-second metrics.
    pub freq_ghz: f64,
    /// One entry per core that had a task.
    pub cores: Vec<CoreMeasurement>,
}

impl Measurement {
    /// The measurement for one core, if it had a task.
    pub fn core(&self, core: CoreId) -> Option<&CoreMeasurement> {
        self.cores.iter().find(|c| c.core == core)
    }

    /// Sum of packets/sec across all measured cores.
    pub fn total_pps(&self) -> f64 {
        self.cores.iter().map(|c| c.metrics.pps).sum()
    }
}

/// The engine; owns the machine and the per-core tasks.
pub struct Engine {
    /// The simulated platform (public so experiments can inspect caches,
    /// controllers, and counters directly).
    pub machine: Machine,
    tasks: Vec<Option<Box<dyn CoreTask>>>,
    /// Shared empty label handed to idle cores in measurements, so
    /// building a [`Measurement`] allocates no strings at all (tasks hand
    /// out `Rc` clones of their own labels; see
    /// [`CoreTask::label_shared`]).
    empty_label: Rc<str>,
}

impl Engine {
    /// Wrap a machine. Tasks are attached with [`set_task`](Self::set_task).
    pub fn new(machine: Machine) -> Self {
        let n = machine.config().total_cores();
        let mut tasks = Vec::with_capacity(n);
        tasks.resize_with(n, || None);
        Engine { machine, tasks, empty_label: Rc::from("") }
    }

    /// Bind a task to a core (replacing any previous task).
    pub fn set_task(&mut self, core: CoreId, task: Box<dyn CoreTask>) {
        self.tasks[core.index()] = Some(task);
    }

    /// Remove and return the task on `core`.
    pub fn take_task(&mut self, core: CoreId) -> Option<Box<dyn CoreTask>> {
        self.tasks[core.index()].take()
    }

    /// Bind a task to a core that has been sitting idle: the core's clock
    /// is first advanced to the machine's current maximum — a flash-crowd
    /// competitor, a re-admitted tenant or a migrated task arrives *now*;
    /// it does not replay the simulated past on its new core.
    pub fn join_task(&mut self, core: CoreId, task: Box<dyn CoreTask>) {
        self.machine.core_mut(core).clock = self.machine.max_clock();
        self.set_task(core, task);
    }

    /// Move the task on `from` to the empty core `to`: the live
    /// re-placement primitive behind the supervisor's core failover.
    ///
    /// The task's [`CoreTask::on_migrate`] hook runs in between so
    /// in-flight state drains through counted drop paths, and the task
    /// [joins](Self::join_task) the destination at the machine's clock.
    /// Returns `false` (and moves nothing) if `from` has no task or `to`
    /// already has one.
    pub fn migrate_task(&mut self, from: CoreId, to: CoreId) -> bool {
        if from == to || self.tasks[to.index()].is_some() {
            return false;
        }
        let Some(mut task) = self.tasks[from.index()].take() else {
            return false;
        };
        task.on_migrate();
        self.join_task(to, task);
        true
    }

    /// Whether `core` currently has a task bound.
    pub fn has_task(&self, core: CoreId) -> bool {
        self.tasks[core.index()].is_some()
    }

    /// Cores that currently have tasks.
    pub fn active_cores(&self) -> Vec<CoreId> {
        (0..self.tasks.len())
            .filter(|&i| self.tasks[i].is_some())
            .map(|i| CoreId(i as u16))
            .collect()
    }

    /// Run all tasks until every active core's clock reaches `t_end`.
    pub fn run_until(&mut self, t_end: Cycles) {
        // The task set cannot change during the run, so resolve the active
        // cores once instead of filtering all slots every turn.
        let active: Vec<usize> =
            (0..self.tasks.len()).filter(|&i| self.tasks[i].is_some()).collect();
        loop {
            // Min-clock-first: pick the active core that is furthest behind.
            let mut best: Option<(usize, Cycles)> = None;
            for &i in &active {
                let clk = self.machine.core(CoreId(i as u16)).clock;
                if clk < t_end && best.map(|(_, b)| clk < b).unwrap_or(true) {
                    best = Some((i, clk));
                }
            }
            let Some((i, before)) = best else { break };
            let core = CoreId(i as u16);
            // Take the task out so it can borrow the machine via a context.
            let mut task = self.tasks[i].take().expect("task vanished");
            let result = {
                let mut ctx = self.machine.ctx(core);
                task.run_turn(&mut ctx)
            };
            match result {
                TurnResult::Progress => {
                    debug_assert!(
                        self.machine.core(core).clock > before,
                        "task {} reported progress without advancing the clock",
                        task.label()
                    );
                }
                TurnResult::Idle => {
                    self.machine.core_mut(core).clock += IDLE_POLL_COST;
                }
            }
            self.tasks[i] = Some(task);
        }
    }

    /// Run a warmup period then measure a window: returns counter deltas and
    /// derived metrics per active core.
    ///
    /// Warmup lets caches reach steady state so compulsory misses do not
    /// pollute the measurement — the paper's solo/contended profiles are
    /// steady-state numbers.
    pub fn measure(&mut self, warmup: Cycles, window: Cycles) -> Measurement {
        let start = self.machine.max_clock();
        self.run_until(start + warmup);
        let actives = self.active_cores();
        let before: Vec<CounterSnapshot> = actives
            .iter()
            .map(|&c| self.machine.core(c).counters.snapshot())
            .collect();
        let t0 = self.machine.max_clock();
        self.run_until(t0 + window);
        let freq = self.machine.config().freq_ghz;
        let cores = actives
            .iter()
            .zip(before)
            .map(|(&core, snap0)| {
                let snap1 = self.machine.core(core).counters.snapshot();
                let counts = snap1.delta(&snap0);
                let metrics = DerivedMetrics::from_counts(&counts.total, window, freq);
                let label = self.tasks[core.index()]
                    .as_ref()
                    .map(|t| t.label_shared())
                    .unwrap_or_else(|| self.empty_label.clone());
                CoreMeasurement { core, label, counts, metrics }
            })
            .collect();
        Measurement { window_cycles: window, freq_ghz: freq, cores }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::types::MemDomain;

    /// A task that reads a strided region and retires one "packet" per turn.
    struct Striding {
        base: u64,
        i: u64,
        stride: u64,
        span: u64,
    }

    impl CoreTask for Striding {
        fn run_turn(&mut self, ctx: &mut ExecCtx<'_>) -> TurnResult {
            let addr = self.base + (self.i * self.stride) % self.span;
            self.i += 1;
            ctx.read(addr);
            ctx.compute(50, 40);
            ctx.retire_packet();
            TurnResult::Progress
        }
        fn label(&self) -> &str {
            "striding"
        }
    }

    /// A task that never does anything.
    struct AlwaysIdle;
    impl CoreTask for AlwaysIdle {
        fn run_turn(&mut self, _ctx: &mut ExecCtx<'_>) -> TurnResult {
            TurnResult::Idle
        }
    }

    #[test]
    fn run_until_advances_all_active_cores() {
        let mut e = Engine::new(Machine::new(MachineConfig::westmere()));
        for i in 0..4u16 {
            e.set_task(
                CoreId(i),
                Box::new(Striding {
                    base: (MemDomain(0).base() + (i as u64)) << 30,
                    i: 0,
                    stride: 64,
                    span: 1 << 20,
                }),
            );
        }
        e.run_until(100_000);
        for i in 0..4u16 {
            assert!(e.machine.core(CoreId(i)).clock >= 100_000);
        }
        // Inactive cores do not advance.
        assert_eq!(e.machine.core(CoreId(5)).clock, 0);
    }

    #[test]
    fn min_clock_first_bounds_skew() {
        let mut e = Engine::new(Machine::new(MachineConfig::westmere()));
        // One slow task (big compute) and one fast task.
        struct Fixed(u64);
        impl CoreTask for Fixed {
            fn run_turn(&mut self, ctx: &mut ExecCtx<'_>) -> TurnResult {
                ctx.compute(self.0, 1);
                ctx.retire_packet();
                TurnResult::Progress
            }
        }
        e.set_task(CoreId(0), Box::new(Fixed(10_000)));
        e.set_task(CoreId(1), Box::new(Fixed(100)));
        e.run_until(1_000_000);
        let c0 = e.machine.core(CoreId(0)).clock;
        let c1 = e.machine.core(CoreId(1)).clock;
        // Skew at the end is bounded by one turn of the slow task.
        assert!(c0.abs_diff(c1) <= 10_000, "skew {} too large", c0.abs_diff(c1));
    }

    #[test]
    fn idle_tasks_advance_by_poll_cost() {
        let mut e = Engine::new(Machine::new(MachineConfig::westmere()));
        e.set_task(CoreId(0), Box::new(AlwaysIdle));
        e.run_until(10 * IDLE_POLL_COST);
        assert_eq!(e.machine.core(CoreId(0)).clock, 10 * IDLE_POLL_COST);
    }

    #[test]
    fn migrate_task_moves_work_and_aligns_the_clock() {
        let mut e = Engine::new(Machine::new(MachineConfig::westmere()));
        e.set_task(
            CoreId(0),
            Box::new(Striding { base: MemDomain(0).base(), i: 0, stride: 64, span: 1 << 16 }),
        );
        e.run_until(100_000);
        // Destination occupied → refused; missing source → refused.
        e.set_task(CoreId(2), Box::new(AlwaysIdle));
        assert!(!e.migrate_task(CoreId(0), CoreId(2)));
        assert!(!e.migrate_task(CoreId(5), CoreId(3)));
        assert!(!e.migrate_task(CoreId(0), CoreId(0)));
        // A legal migration vacates the source, joins at the fleet clock,
        // and keeps making progress on the new core.
        let fleet = e.machine.max_clock();
        assert!(e.migrate_task(CoreId(0), CoreId(3)));
        assert!(e.take_task(CoreId(0)).is_none(), "source vacated");
        assert!(e.machine.core(CoreId(3)).clock >= fleet, "no replay of the past");
        let pkts_before = e.machine.core(CoreId(3)).counters.total().packets;
        e.run_until(fleet + 100_000);
        assert!(e.machine.core(CoreId(3)).counters.total().packets > pkts_before);
    }

    #[test]
    fn join_task_is_the_two_line_idiom_and_migrate_joins_through_it() {
        let striding =
            || Box::new(Striding { base: MemDomain(0).base(), i: 0, stride: 64, span: 1 << 16 });
        let build = || {
            let mut e = Engine::new(Machine::new(MachineConfig::westmere()));
            e.set_task(CoreId(0), striding());
            e.run_until(100_000);
            e
        };
        let state = |e: &Engine| {
            let clocks: Vec<Cycles> =
                (0..12u16).map(|c| e.machine.core(CoreId(c)).clock).collect();
            (clocks, e.active_cores())
        };
        // Joining: what the drivers used to write by hand.
        let (mut by_hand, mut joined) = (build(), build());
        by_hand.machine.core_mut(CoreId(4)).clock = by_hand.machine.max_clock();
        by_hand.set_task(CoreId(4), striding());
        joined.join_task(CoreId(4), striding());
        assert_eq!(state(&joined), state(&by_hand));
        assert_eq!(joined.machine.core(CoreId(4)).clock, joined.machine.max_clock());
        // Migrating: take, drain, join — clock and slots as before.
        let (mut by_hand, mut migrated) = (build(), build());
        let mut task = by_hand.take_task(CoreId(0)).expect("source task");
        task.on_migrate();
        let now = by_hand.machine.max_clock();
        let dst = by_hand.machine.core_mut(CoreId(3));
        dst.clock = dst.clock.max(now);
        by_hand.set_task(CoreId(3), task);
        assert!(migrated.migrate_task(CoreId(0), CoreId(3)));
        assert_eq!(state(&migrated), state(&by_hand));
        assert_eq!(state(&migrated).1, vec![CoreId(3)]);
    }

    #[test]
    fn measure_reports_packets_per_second() {
        let mut e = Engine::new(Machine::new(MachineConfig::westmere()));
        e.set_task(
            CoreId(0),
            Box::new(Striding { base: MemDomain(0).base(), i: 0, stride: 64, span: 1 << 16 }),
        );
        // Warmup 1M cycles, measure 28M cycles = 10 ms at 2.8 GHz.
        let meas = e.measure(1_000_000, 28_000_000);
        let cm = meas.core(CoreId(0)).expect("core 0 measured");
        assert!(cm.metrics.pps > 0.0);
        assert_eq!(&*cm.label, "striding");
        // Each turn is ~54 cycles (L1-hit read + 50 compute), so pps should
        // be in the tens of millions.
        assert!(cm.metrics.pps > 10e6, "pps = {}", cm.metrics.pps);
        assert!(meas.total_pps() >= cm.metrics.pps);
    }

    #[test]
    fn measure_excludes_warmup_counts() {
        let mut e = Engine::new(Machine::new(MachineConfig::westmere()));
        e.set_task(
            CoreId(0),
            Box::new(Striding { base: MemDomain(0).base(), i: 0, stride: 64, span: 1 << 16 }),
        );
        let meas = e.measure(5_000_000, 1_000_000);
        let cm = meas.core(CoreId(0)).unwrap();
        let total = e.machine.core(CoreId(0)).counters.total().packets;
        assert!(
            cm.counts.total.packets < total,
            "window packets must exclude warmup"
        );
    }
}
