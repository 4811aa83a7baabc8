//! Build a packet-processing flow from a Click-style textual configuration
//! — the programmability interface the paper inherits from Click — and run
//! it on the simulated platform.
//!
//! Run with:
//! ```text
//! cargo run --release --example click_config
//! ```

use predictable_pp::prelude::*;

const CONFIG: &str = r#"
    // A firewalled monitoring pipeline with a run-time throttle.
    ctl :: Control(OPS 0);
    chk :: CheckIPHeader;
    rt  :: RadixIPLookup(PREFIXES 32000, SEED 42);
    nf  :: NetFlow(CAPACITY_LOG2 16);
    fw  :: Firewall(RULES 1000, SEED 42);
    ttl :: DecIPTTL;
    out :: ToDevice;

    ctl -> chk -> rt -> nf -> fw -> ttl -> out;
"#;

fn main() {
    use predictable_pp::sim::config::MachineConfig;
    use predictable_pp::sim::engine::Engine;
    use predictable_pp::sim::machine::Machine;
    use predictable_pp::sim::types::{CoreId, MemDomain};

    let mut machine = Machine::new(MachineConfig::westmere());

    println!("Parsing and building the Click config...\n{CONFIG}");
    let traffic = TrafficSpec::flow_population(64, 40_000, 7);
    let flow = build_config_flow(&mut machine, MemDomain(0), "config-flow", CONFIG, traffic)
        .expect("config is valid");
    let throttle = flow.controls["ctl"].clone();

    let mut engine = Engine::new(machine);
    engine.set_task(CoreId(0), Box::new(flow.task));

    // Run untouched, then throttled via the Control element's handle.
    let m1 = engine.measure(2_800_000, 14_000_000);
    let full = m1.core(CoreId(0)).unwrap().metrics.pps;
    println!("unthrottled: {:.3} Mpps", full / 1e6);

    throttle.set(20_000); // inject 20k cycles/packet
    let m2 = engine.measure(2_800_000, 14_000_000);
    let slowed = m2.core(CoreId(0)).unwrap().metrics.pps;
    println!("throttled (20k cycles/pkt via ctl): {:.3} Mpps", slowed / 1e6);
    println!(
        "\nThe same handle is what §4's containment controller drives to cap a \
         flow at its profiled refs/sec."
    );
}
