//! The tenant runtime's own tests: behaviour that was reachable only
//! through the ten-second chaos sweeps while each driver carried a copy.

use pp_core::prelude::*;
use pp_sim::config::MachineConfig;
use pp_sim::engine::Engine;
use pp_sim::fault::DropStats;
use pp_sim::latency::LatencyHistogram;
use pp_sim::machine::Machine;
use pp_sim::types::{CoreId, MemDomain};
use std::cell::RefCell;
use std::rc::Rc;

/// A knob-less tenant over fresh handles (no engine behind it).
fn bare_tenant() -> TenantRt {
    TenantRt::watching(
        CoreId(0),
        Rc::new(RefCell::new(LatencyHistogram::new())),
        Rc::new(RefCell::new(DropStats::default())),
    )
}

#[test]
fn ledger_closes_exactly_across_park_refusal_install_and_migrate() {
    const WINDOW: u64 = 400_000;
    let mut machine = Machine::new(MachineConfig::westmere());
    let target = FlowType::Ip.build(&mut machine, MemDomain(0), Scale::Test, 7);
    // A line-rate neighbour: its turn overshoot makes the paced tenant's
    // core lag the machine's max clock at every window boundary — the
    // case in which summing windows cannot close the ledger.
    let neighbour = FlowType::Mon.build(&mut machine, MemDomain(0), Scale::Test, 8);
    let mut rt = TenantRt::new(target.task);
    let mut engine = Engine::new(machine);
    engine.set_task(CoreId(1), Box::new(neighbour.task));
    rt.install(&mut engine, CoreId(0));
    assert!(!rt.is_parked() && engine.has_task(CoreId(0)));

    engine.run_until(200_000);
    rt.anchor(&engine);
    let m = engine.measure(0, WINDOW);
    rt.probe_capacity(&m, Some(0.75));
    assert!(rt.cpp > 1.0 && rt.offered_pace > rt.throttle_pace);
    for _ in 0..2 {
        let m = engine.measure(0, WINDOW);
        rt.calibrate(&m);
    }
    let envelope = rt.envelope(0.7);
    assert_eq!(envelope.min_pps, 0.7 * rt.calib_pps());
    assert_eq!(envelope.max_p99_us, (1.5 * rt.calib_p99_us).max(5.0));

    let m = engine.measure(0, WINDOW);
    let obs = rt.observe(&m);
    assert!(envelope.violation(&obs).is_none(), "a clean window is clean: {obs:?}");
    assert_eq!(rt.min_pps, obs.pps);

    rt.park(&mut engine);
    assert!(rt.is_parked() && !engine.has_task(CoreId(0)));
    // Whatever pacing credit was in flight has been forfeited as `drained`.
    let drained_by_park = rt.ledger().0.drained;
    for _ in 0..2 {
        rt.refuse_window(WINDOW);
        engine.measure(0, WINDOW);
    }
    assert_eq!(rt.ledger().0.drained, drained_by_park + 2 * (WINDOW / rt.offered_pace));

    rt.install(&mut engine, CoreId(2));
    assert_eq!(rt.core, CoreId(2));
    let m = engine.measure(0, WINDOW);
    assert_eq!(rt.observe(&m).loss_frac, 0.0, "chosen loss is not observed loss");
    rt.migrate(&mut engine, CoreId(3));
    assert!(engine.has_task(CoreId(3)) && !engine.has_task(CoreId(2)));
    let m = engine.measure(0, WINDOW);
    rt.observe(&m);

    rt.flush(&engine);
    let (drops, processed, slack) = rt.ledger();
    assert!(processed > 0);
    assert_eq!(slack, 0, "offered {} processed {processed} drops {drops:?}", drops.offered);
    assert_eq!(drops.offered, processed + drops.undelivered());
}

#[test]
fn ladder_truth_table() {
    use DegradeLevel::*;
    let mut rt = bare_tenant();
    (rt.batch, rt.shrink_batch, rt.throttle_pace) = (32, 8, 150);
    // (offered pace, level) → (pace, batch override, shed ‰)
    let table = [
        (100, Normal, (100, 32, 0)),
        (100, Reprobe, (100, 32, 0)),
        (100, ShrinkBatch, (100, 8, 0)),
        // Throttle restores the full batch: the rungs do not stack.
        (100, Throttle, (150, 32, 0)),
        (100, Shed, (150, 32, SHED_PER_MILLE)),
        // A burst shortens the offered pace; the throttle overrides it.
        (12, ShrinkBatch, (12, 8, 0)),
        (12, Throttle, (150, 32, 0)),
        // An offered pace already slower than the throttle stands.
        (400, Throttle, (400, 32, 0)),
        // Line rate.
        (0, Normal, (0, 32, 0)),
        (0, Shed, (150, 32, SHED_PER_MILLE)),
    ];
    for (offered, level, want) in table {
        rt.offered_pace = offered;
        rt.apply_ladder(level);
        let c = &rt.controls;
        let got = (c.pace_cycles.get(), c.batch_override.get(), c.shed_per_mille.get());
        assert_eq!(got, want, "offered pace {offered} at {level}");
    }
}

#[test]
fn observed_loss_counts_only_unchosen_drops() {
    let prev = DropStats { offered: 500, shed: 5, drained: 7, wire_overflow: 1, ..Default::default() };
    let chosen = DropStats { offered: 1500, shed: 55, drained: 37, ..prev };
    assert_eq!(observed_loss(&chosen, &prev), 0.0, "shed and drained are the controller's own");
    let unchosen = DropStats {
        wire_overflow: 21,
        element_dropped: 10,
        nic_rx_exhausted: 4,
        queue_full: 6,
        ..chosen
    };
    assert_eq!(observed_loss(&unchosen, &prev), 40.0 / 1000.0);
    assert_eq!(observed_loss(&prev, &prev), 0.0, "an empty window divides by one, not zero");
}

#[test]
fn a_parked_line_rate_tenant_refuses_its_capacity_not_one_packet_per_cycle() {
    let mut rt = bare_tenant();
    rt.cpp = 250.0;
    rt.offered_pace = 0;
    rt.refuse_window(1_000_000);
    let (drops, processed, slack) = rt.ledger();
    assert_eq!((drops.offered, drops.drained, processed, slack), (4_000, 4_000, 0, 0));
    rt.offered_pace = 500;
    rt.refuse_window(1_000_000);
    assert_eq!(rt.ledger().0.drained, 6_000);
}
