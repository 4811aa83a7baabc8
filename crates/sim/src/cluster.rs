//! A cluster of independent machines on a shared measurement-window axis,
//! plus the lossy control plane that connects them to a fleet controller.
//!
//! The paper's predictability contract is per-machine; a production fleet
//! adds two failure domains the single-machine chaos harness cannot
//! express: whole-machine faults (crash, socket-wide derate) and
//! control-plane faults (telemetry that arrives late, lossy, or not at
//! all). This module supplies the substrate for both:
//!
//! * [`Cluster`] — N independent [`Engine`]s stepped in lockstep, one
//!   measurement window at a time. Machines share the *window index*
//!   (the control plane's clock) but **not** a cycle clock: each engine
//!   advances its own machine's cores from wherever they are, and a down
//!   machine's clocks freeze until restart. There is no cross-machine
//!   cache, memory, or interconnect coupling — that independence is what
//!   makes machine-granular failure meaningful.
//! * [`TelemetryChannel`] — the explicitly unreliable pipe between a
//!   machine's per-window reports and the controller. Reports are
//!   timestamped at send; the channel can drop everything
//!   ([`TelemetryLoss`](crate::fault::FaultKind::TelemetryLoss)) or lag
//!   delivery by whole windows
//!   ([`TelemetryDelay`](crate::fault::FaultKind::TelemetryDelay)) while
//!   the datapath runs untouched. Sent/dropped/delivered counters make
//!   the control-plane loss itself auditable.
//!
//! Like the fault injector, the cluster is pure mechanism: it does not
//! decide anything. The fleet controller (pp-core `fleet`) consumes the
//! delivered telemetry and heartbeats; the cluster-chaos driver
//! (pp-bench) maps controller actions back onto `set_task`/`take_task`
//! on the member engines. An empty fault plan means every channel stays
//! lossless and every machine stays up, so a controller that emits no
//! actions leaves the member machines bit-for-bit identical to N bare
//! engines — the cluster twin of the empty-plan guarantee.

use std::collections::VecDeque;

use crate::config::MachineConfig;
use crate::engine::{Engine, Measurement};
use crate::machine::Machine;
use crate::types::Cycles;

/// Index of a machine within a [`Cluster`] (dense, assigned in
/// construction order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub usize);

impl MachineId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

struct ClusterNode {
    engine: Engine,
    up: bool,
}

/// N independent machines advanced on a shared measurement-window axis.
///
/// `measure_all` steps every *up* machine by one `warmup + window`
/// measurement; a down machine is skipped entirely, so its core clocks
/// freeze where the crash caught them and resume from there after
/// restart. The window index is the only thing machines share.
pub struct Cluster {
    nodes: Vec<ClusterNode>,
}

impl Cluster {
    /// Build `n` machines from the same configuration template.
    pub fn new_uniform(n: usize, cfg: &MachineConfig) -> Self {
        let nodes = (0..n)
            .map(|_| ClusterNode { engine: Engine::new(Machine::new(cfg.clone())), up: true })
            .collect();
        Cluster { nodes }
    }

    /// Number of member machines.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Shared access to a member engine.
    pub fn engine(&self, m: MachineId) -> &Engine {
        &self.nodes[m.index()].engine
    }

    /// Exclusive access to a member engine (placement, task churn). The
    /// engine of a *down* machine is still reachable — the chaos driver
    /// plays coroner, reading the corpse's counters to close the loss
    /// ledger — it just does not advance.
    pub fn engine_mut(&mut self, m: MachineId) -> &mut Engine {
        &mut self.nodes[m.index()].engine
    }

    /// Whether machine `m` is serving.
    pub fn is_up(&self, m: MachineId) -> bool {
        self.nodes[m.index()].up
    }

    /// Crash (`false`) or restart (`true`) machine `m`. Pure mechanism:
    /// no tasks are moved and no loss is counted here — the driver owns
    /// both (orphan draining is where `drained` loss is charged).
    pub fn set_up(&mut self, m: MachineId, up: bool) {
        self.nodes[m.index()].up = up;
    }

    /// Machine ids in index order.
    pub fn machine_ids(&self) -> impl Iterator<Item = MachineId> {
        (0..self.nodes.len()).map(MachineId)
    }

    /// Advance every up machine by one measurement window (its engine's
    /// `measure(warmup, window)` from its own current clock). Returns one
    /// entry per machine in index order; `None` marks a machine that was
    /// down and did not advance.
    pub fn measure_all(&mut self, warmup: Cycles, window: Cycles) -> Vec<Option<Measurement>> {
        self.nodes
            .iter_mut()
            .map(|n| if n.up { Some(n.engine.measure(warmup, window)) } else { None })
            .collect()
    }

    /// Run every up machine until its own clock reaches `t_end`
    /// (cluster-wide warmup before the windowed phase).
    pub fn run_all_until(&mut self, t_end: Cycles) {
        for n in self.nodes.iter_mut().filter(|n| n.up) {
            n.engine.run_until(t_end);
        }
    }
}

/// The unreliable pipe carrying one machine's telemetry to the
/// controller: an ordered queue of `(deliver_at, payload)` with two
/// scriptable impairments — drop-everything and delay-by-windows.
///
/// Timestamps are *window indices* on the cluster's shared axis. A
/// payload sent at window `w` with delay `d` becomes visible to
/// `recv(now)` once `now >= w + d`; with the default zero delay it is
/// visible from the send window onward (drivers that send after the
/// controller's read point get the natural one-window reporting lag).
/// Dropped payloads are counted, never silently lost — the control
/// plane's own loss ledger.
#[derive(Debug)]
pub struct TelemetryChannel<T> {
    queue: VecDeque<(u32, T)>,
    drop_all: bool,
    delay: u32,
    /// Payloads ever offered to the channel.
    pub sent: u64,
    /// Payloads dropped by an active loss impairment.
    pub dropped: u64,
    /// Payloads handed to `recv`.
    pub delivered: u64,
}

impl<T> Default for TelemetryChannel<T> {
    fn default() -> Self {
        TelemetryChannel {
            queue: VecDeque::new(),
            drop_all: false,
            delay: 0,
            sent: 0,
            dropped: 0,
            delivered: 0,
        }
    }
}

impl<T> TelemetryChannel<T> {
    /// A fresh lossless, zero-delay channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable (`true`) or clear (`false`) the drop-everything impairment.
    /// Loss applies at *send* time: payloads already queued before the
    /// blackout still deliver on schedule.
    pub fn set_loss(&mut self, on: bool) {
        self.drop_all = on;
    }

    /// Whether the drop-everything impairment is active.
    pub fn loss(&self) -> bool {
        self.drop_all
    }

    /// Set the delivery delay in windows (applies to subsequent sends).
    pub fn set_delay(&mut self, windows: u32) {
        self.delay = windows;
    }

    /// The current delivery delay in windows.
    pub fn delay(&self) -> u32 {
        self.delay
    }

    /// Offer a payload stamped at window `now`. Dropped (and counted) if
    /// the loss impairment is active, otherwise queued for delivery at
    /// `now + delay`.
    pub fn send(&mut self, now: u32, payload: T) {
        self.sent += 1;
        if self.drop_all {
            self.dropped += 1;
        } else {
            self.queue.push_back((now.saturating_add(self.delay), payload));
        }
    }

    /// Drain every payload due by window `now`, preserving send order.
    /// A delay that shrank mid-flight can make a later send due before
    /// an earlier one; delivery order still follows send order among the
    /// due payloads (the scan keeps not-yet-due payloads queued).
    pub fn recv(&mut self, now: u32) -> Vec<T> {
        let mut out = Vec::new();
        let mut keep = VecDeque::with_capacity(self.queue.len());
        for (due, payload) in self.queue.drain(..) {
            if due <= now {
                self.delivered += 1;
                out.push(payload);
            } else {
                keep.push_back((due, payload));
            }
        }
        self.queue = keep;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::ExecCtx;
    use crate::engine::{CoreTask, TurnResult};
    use crate::types::CoreId;

    fn small_cfg() -> MachineConfig {
        let mut cfg = MachineConfig::westmere();
        cfg.cores_per_socket = 2;
        cfg.sockets = 1;
        cfg
    }

    /// A task that burns fixed compute and retires one packet per turn —
    /// just enough to make core clocks move.
    struct Spinner;
    impl CoreTask for Spinner {
        fn run_turn(&mut self, ctx: &mut ExecCtx<'_>) -> TurnResult {
            ctx.compute(100, 1);
            ctx.retire_packet();
            TurnResult::Progress
        }
    }

    #[test]
    fn down_machines_freeze_and_skip_measurement() {
        let mut cl = Cluster::new_uniform(2, &small_cfg());
        assert_eq!(cl.len(), 2);
        assert!(cl.nodes.iter().all(|n| n.up));
        for m in [MachineId(0), MachineId(1)] {
            cl.engine_mut(m).set_task(CoreId(0), Box::new(Spinner));
        }
        let r = cl.measure_all(0, 10_000);
        assert!(r[0].is_some() && r[1].is_some());
        let frozen = cl.engine(MachineId(1)).machine.max_clock();

        cl.set_up(MachineId(1), false);
        assert!(cl.nodes[0].up && !cl.nodes[1].up);
        let r = cl.measure_all(0, 10_000);
        assert!(r[0].is_some());
        assert!(r[1].is_none(), "down machine yields no measurement");
        assert_eq!(
            cl.engine(MachineId(1)).machine.max_clock(),
            frozen,
            "a down machine's clock freezes where the crash caught it"
        );

        cl.set_up(MachineId(1), true);
        let r = cl.measure_all(0, 10_000);
        assert!(r[1].is_some(), "restart resumes from the frozen clock");
        assert!(cl.engine(MachineId(1)).machine.max_clock() > frozen);
        // Machines are independent: no cross-machine clock constraint.
        assert!(
            cl.engine(MachineId(0)).machine.max_clock()
                > cl.engine(MachineId(1)).machine.max_clock()
        );
        // Down or up, engines stay reachable for placement/coroner work.
        assert!(cl.engine(MachineId(0)).has_task(CoreId(0)));
        assert!(!cl.engine(MachineId(0)).has_task(CoreId(1)));
    }

    #[test]
    fn channel_delivers_in_order_with_delay() {
        let mut ch = TelemetryChannel::new();
        ch.send(0, "a");
        ch.set_delay(2);
        ch.send(1, "b");
        assert_eq!(ch.recv(0), vec!["a"]);
        assert!(ch.recv(1).is_empty(), "delayed payload not yet due");
        assert_eq!(ch.queue.len(), 1);
        assert_eq!(ch.recv(3), vec!["b"]);
        assert_eq!((ch.sent, ch.dropped, ch.delivered), (2, 0, 2));
    }

    #[test]
    fn channel_loss_drops_at_send_and_counts() {
        let mut ch = TelemetryChannel::new();
        ch.set_delay(3);
        ch.send(0, 1u32); // queued before the blackout: still delivers
        ch.set_loss(true);
        ch.send(1, 2u32);
        ch.send(2, 3u32);
        ch.set_loss(false);
        ch.send(4, 4u32);
        assert_eq!(ch.recv(10), vec![1, 4]);
        assert_eq!((ch.sent, ch.dropped, ch.delivered), (4, 2, 2));
    }

    #[test]
    fn delay_shrink_preserves_send_order_and_loses_nothing() {
        let mut ch = TelemetryChannel::new();
        ch.set_delay(5);
        ch.send(0, "slow");
        ch.set_delay(0);
        ch.send(1, "fast");
        // "fast" is due at 1, "slow" at 5 — both delivered by 5, and the
        // earlier send still comes out first among due payloads at 5.
        assert_eq!(ch.recv(1), vec!["fast"]);
        assert_eq!(ch.recv(5), vec!["slow"]);
        assert_eq!(ch.dropped, 0);
    }
}
