//! Containing hidden aggressiveness (§4, last part).
//!
//! A flow may behave tamely during offline profiling and turn aggressive in
//! production ("once it receives a specially crafted packet … it switches
//! mode and performs SYN_MAX processing"). The paper's countermeasure:
//! monitor each flow's memory-access rate with hardware counters and, when
//! it exceeds the profiled rate, configure a *control element* at the head
//! of its chain to slow it down.
//!
//! [`ThrottleController`] is that feedback loop; [`run_containment_demo`]
//! reproduces the paper's end-to-end scenario: a FW-like flow with a latent
//! SYN_MAX mode co-runs with a MON victim, turns aggressive mid-run, and is
//! clamped back to its profiled refs/sec.

use crate::experiment::ExpParams;
use crate::workload::{FlowType, Scale};
use pp_click::cost::CostModel;
use pp_click::elements::basic::{CheckIpHeader, DecIpTtl, ToDevice};
use pp_click::elements::control::{AggressorHandle, Control, ControlHandle, LatentAggressor};
use pp_click::elements::firewall::Firewall;
use pp_click::elements::netflow::NetFlow;
use pp_click::elements::radix::RadixIpLookup;
use pp_click::flow::FlowTask;
use pp_click::graph::ElementGraph;
use pp_click::pipelines::nic_queue;
use pp_net::gen::prefixes::generate_bgp_table;
use pp_net::gen::rules::generate_unmatchable_rules;
use pp_net::gen::traffic::{TrafficGen, TrafficSpec};
use pp_sim::config::MachineConfig;
use pp_sim::engine::Engine;
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, MemDomain};

/// Feedback controller that keeps a flow's L3 refs/sec at or below its
/// profiled value by tuning its control element.
#[derive(Debug, Clone)]
pub struct ThrottleController {
    /// The profiled (allowed) refs/sec.
    pub target_refs_per_sec: f64,
    /// Current control-element setting (ops per packet).
    pub ops: u64,
    /// Multiplicative-increase cap per adjustment.
    max_step: f64,
}

impl ThrottleController {
    /// A controller enforcing the profiled rate.
    pub fn new(profiled_refs_per_sec: f64) -> Self {
        ThrottleController {
            target_refs_per_sec: profiled_refs_per_sec,
            ops: 0,
            max_step: 4.0,
        }
    }

    /// Observe one monitoring window's refs/sec; returns the new
    /// control-element setting (also remembered).
    ///
    /// Control law: multiplicative increase proportional to the overshoot
    /// (the flow must be slowed by `observed/target`, and added compute
    /// scales service time roughly linearly), gentle multiplicative
    /// decrease when safely under the limit.
    pub fn observe(&mut self, observed_refs_per_sec: f64) -> u64 {
        let ratio = observed_refs_per_sec / self.target_refs_per_sec;
        if ratio > 1.02 {
            let grow = ratio.min(self.max_step);
            self.ops = ((self.ops.max(200) as f64) * grow).round() as u64;
        } else if ratio < 0.85 && self.ops > 0 {
            self.ops = ((self.ops as f64) * 0.90) as u64;
        }
        self.ops
    }
}

/// One monitoring window of the containment demo.
#[derive(Debug, Clone)]
pub struct ContainmentSample {
    /// Window index.
    pub window: usize,
    /// Whether the aggressor was armed during this window.
    pub armed: bool,
    /// Aggressor flow's measured L3 refs/sec.
    pub aggressor_refs_per_sec: f64,
    /// Controller setting applied *after* this window.
    pub control_ops: u64,
    /// Victim's throughput (packets/sec) in this window.
    pub victim_pps: f64,
}

/// Result of [`run_containment_demo`].
#[derive(Debug, Clone)]
pub struct ContainmentResult {
    /// Per-window samples.
    pub samples: Vec<ContainmentSample>,
    /// The profiled refs/sec used as the limit.
    pub profiled_refs_per_sec: f64,
}

impl ContainmentResult {
    /// Refs/sec in the final window (should be ≤ ~1.1× the profile).
    pub fn final_refs_per_sec(&self) -> f64 {
        self.samples.last().map(|s| s.aggressor_refs_per_sec).unwrap_or(0.0)
    }

    /// Peak refs/sec while armed (before containment bites).
    pub fn peak_refs_per_sec(&self) -> f64 {
        self.samples.iter().map(|s| s.aggressor_refs_per_sec).fold(0.0, f64::max)
    }
}

/// Build the FW-with-latent-aggressor flow by hand (it is not one of the
/// standard profiles — that is the point).
fn build_trojan_flow(
    machine: &mut Machine,
    domain: MemDomain,
    scale: Scale,
    seed: u64,
) -> (FlowTask, ControlHandle, AggressorHandle) {
    let cost = CostModel::default();
    let (n_prefixes, nf_log2, n_rules, region) = match scale {
        Scale::Paper => (128_000usize, 17u32, 1000usize, 12u64 << 20),
        Scale::Test => (8_000, 13, 1000, 2 << 20),
    };
    let nic = nic_queue(machine, domain);
    let control = ControlHandle::new();
    let trigger = AggressorHandle::new();
    let mut g = ElementGraph::new(cost);
    let mut ids = Vec::new();
    ids.push(g.add(Box::new(Control::new(control.clone(), cost))));
    ids.push(g.add(Box::new(CheckIpHeader::new(cost))));
    let prefixes = generate_bgp_table(n_prefixes, seed ^ 0x51);
    {
        let alloc = machine.allocator(domain);
        ids.push(g.add(Box::new(RadixIpLookup::new(alloc, &prefixes, cost))));
    }
    {
        let alloc = machine.allocator(domain);
        ids.push(g.add(Box::new(NetFlow::new(alloc, nf_log2, cost))));
    }
    {
        let rules = generate_unmatchable_rules(n_rules, seed ^ 0x52);
        let alloc = machine.allocator(domain);
        ids.push(g.add(Box::new(Firewall::new(alloc, &rules, cost))));
    }
    {
        let alloc = machine.allocator(domain);
        ids.push(g.add(Box::new(LatentAggressor::new(alloc, region, trigger.clone(), seed))));
    }
    ids.push(g.add(Box::new(DecIpTtl::new(cost))));
    ids.push(g.add(Box::new(ToDevice::new(nic.clone(), false))));
    g.chain(&ids);
    let pop = match scale {
        Scale::Paper => 100_000,
        Scale::Test => 6_000,
    };
    let gen = TrafficGen::new(TrafficSpec::flow_population(64, pop, seed ^ 0x53));
    (FlowTask::new("FW+latent", gen, nic, g, cost), control, trigger)
}

/// Run the end-to-end containment demo.
///
/// Timeline (windows of `window_ms`): profile the tame flow during the
/// first `profile_windows`, arm the aggressor at `arm_at`, and let the
/// controller clamp it. `enforce` toggles the controller (off = the paper's
/// "what if we don't contain it" baseline).
pub fn run_containment_demo(
    params: ExpParams,
    windows: usize,
    arm_at: usize,
    enforce: bool,
) -> ContainmentResult {
    let mut machine = Machine::new(MachineConfig::westmere());
    // Victim MON on core 0.
    let victim = FlowType::Mon.build(&mut machine, MemDomain(0), params.scale, params.seed);
    // Trojan on core 1, same socket, local data (Fig. 3c co-location).
    let (trojan, control, trigger) =
        build_trojan_flow(&mut machine, MemDomain(0), params.scale, params.seed ^ 0x99);

    let mut engine = Engine::new(machine);
    engine.set_task(CoreId(0), Box::new(victim.task));
    engine.set_task(CoreId(1), Box::new(trojan));

    let window = params.window_cycles(engine.machine.config());
    let warmup = params.warmup_cycles(engine.machine.config());
    engine.run_until(warmup);

    // Profile phase: measure the tame flow's refs/sec.
    let mut profiled = 0.0;
    let profile_windows = arm_at.max(1);
    let mut samples = Vec::new();
    let mut controller: Option<ThrottleController> = None;

    for w in 0..windows {
        let armed = w >= arm_at;
        if w == arm_at {
            trigger.set(64); // the crafted packet arrives: go SYN_MAX
            profiled /= profile_windows as f64;
            controller = Some(ThrottleController::new(profiled.max(1.0)));
        }
        let meas = engine.measure(0, window);
        let agg = meas.core(CoreId(1)).expect("aggressor measured");
        let vic = meas.core(CoreId(0)).expect("victim measured");
        let refs = agg.metrics.l3_refs_per_sec;
        if w < arm_at {
            profiled += refs;
        }
        let ops = if enforce {
            if let Some(c) = controller.as_mut() {
                let ops = c.observe(refs);
                control.set(ops);
                ops
            } else {
                0
            }
        } else {
            0
        };
        samples.push(ContainmentSample {
            window: w,
            armed,
            aggressor_refs_per_sec: refs,
            control_ops: ops,
            victim_pps: vic.metrics.pps,
        });
    }
    ContainmentResult {
        samples,
        profiled_refs_per_sec: profiled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_raises_ops_on_overshoot() {
        let mut c = ThrottleController::new(10e6);
        let ops1 = c.observe(40e6);
        assert!(ops1 > 0);
        let ops2 = c.observe(40e6);
        assert!(ops2 > ops1, "sustained overshoot must keep increasing");
    }

    #[test]
    fn controller_decays_when_under() {
        let mut c = ThrottleController::new(10e6);
        c.observe(40e6);
        c.observe(40e6);
        let high = c.ops;
        let low = c.observe(5e6);
        assert!(low < high);
    }

    #[test]
    fn controller_idles_at_target() {
        let mut c = ThrottleController::new(10e6);
        assert_eq!(c.observe(9.9e6), 0, "in-profile flow needs no throttle");
    }

    #[test]
    fn containment_clamps_aggressor() {
        let params = ExpParams { window_ms: 2.0, ..ExpParams::quick() };
        let r = run_containment_demo(params, 12, 3, true);
        assert_eq!(r.samples.len(), 12);
        let tame = r.samples[2].aggressor_refs_per_sec;
        let peak = r.peak_refs_per_sec();
        let fin = r.final_refs_per_sec();
        assert!(peak > tame * 2.0, "arming must spike refs: tame {tame:.2e} peak {peak:.2e}");
        assert!(
            fin < peak * 0.6,
            "controller must pull refs down: final {fin:.2e} peak {peak:.2e}"
        );
        assert!(fin < tame * 1.6, "final {fin:.2e} should approach profile {tame:.2e}");
    }

    #[test]
    fn without_enforcement_aggressor_stays_hot() {
        let params = ExpParams { window_ms: 2.0, ..ExpParams::quick() };
        let r = run_containment_demo(params, 8, 3, false);
        let tame = r.samples[2].aggressor_refs_per_sec;
        let fin = r.final_refs_per_sec();
        assert!(
            fin > tame * 2.0,
            "unenforced aggressor must stay aggressive: tame {tame:.2e} final {fin:.2e}"
        );
    }
}
