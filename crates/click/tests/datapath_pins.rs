//! Exact-output pins of the three task types' datapath ends: the receive,
//! the loss ledger and the buffer recycle of [`FlowTask`] and of the §2.2
//! pipeline's [`SourceStage`](pp_click::flow::SourceStage) /
//! [`SinkStage`](pp_click::flow::SinkStage). Each pin holds the core
//! clock(s), every field of the cores' total [`Counts`], every field of
//! the [`DropStats`] ledger and the processed count, so a refactor of
//! those ends that moves any simulated charge or any ledger write fails
//! here. The constants were captured from the code before the three task
//! types shared one receive and one completion; they are never edited.

use pp_click::cost::CostModel;
use pp_click::elements::basic::{CheckIpHeader, Counter, ToDevice};
use pp_click::flow::{FlowTask, FrameworkChurn};
use pp_click::graph::ElementGraph;
use pp_click::pipelines::{build_pipeline, ChainKind, FlowSpec, PipelineSpec, Scale};
use pp_click::prelude::SynParams;
use pp_net::gen::traffic::{TrafficGen, TrafficSpec};
use pp_sim::config::MachineConfig;
use pp_sim::counters::Counts;
use pp_sim::engine::{CoreTask, Engine, TurnResult, IDLE_POLL_COST};
use pp_sim::fault::DropStats;
use pp_sim::machine::Machine;
use pp_sim::nic::NicQueue;
use pp_sim::types::{CoreId, MemDomain};
use std::cell::RefCell;
use std::rc::Rc;

fn counts_row(c: &Counts) -> [u64; 12] {
    [
        c.instructions,
        c.compute_cycles,
        c.stall_cycles,
        c.l1_refs,
        c.l1_hits,
        c.l2_refs,
        c.l2_hits,
        c.l3_refs,
        c.l3_hits,
        c.l3_misses,
        c.remote_accesses,
        c.packets,
    ]
}

fn drops_row(d: &DropStats) -> [u64; 7] {
    [
        d.offered,
        d.nic_rx_exhausted,
        d.queue_full,
        d.element_dropped,
        d.wire_overflow,
        d.shed,
        d.drained,
    ]
}

/// Run `flow` on core 0 until its clock reaches `t_end`, charging an idle
/// turn the engine's poll cost, as [`Engine::run_until`] does.
fn run_flow_until(m: &mut Machine, flow: &mut FlowTask, t_end: u64) {
    while m.core(CoreId(0)).clock < t_end {
        if flow.run_turn(&mut m.ctx(CoreId(0))) == TurnResult::Idle {
            m.core_mut(CoreId(0)).clock += IDLE_POLL_COST;
        }
    }
}

/// One IP-style flow (CheckIPHeader → Counter → ToDevice, churn attached,
/// a 64-buffer NIC) at `batch`, driven through five phases with every
/// fault knob active: slow pacing (idle turns and shed-only turns), fast
/// pacing (full vectors and wire overflow), a pool seized down to 5 free
/// buffers (partial vectors), a pool seized empty (failed receives), and
/// a `batch_override` resize to 8.
fn flow_pin(batch: usize) -> (u64, [u64; 12], [u64; 7], u64) {
    let mut m = Machine::new(MachineConfig::westmere());
    let cost = CostModel::default();
    let nic = Rc::new(RefCell::new(NicQueue::new(m.allocator(MemDomain(0)), 256, 64, 2048)));
    let mut g = ElementGraph::new(cost);
    let a = g.add(Box::new(CheckIpHeader::new(cost)));
    let b = g.add(Box::new(Counter::default()));
    let c = g.add(Box::new(ToDevice::new(nic.clone(), false)));
    g.chain(&[a, b, c]);
    let churn = FrameworkChurn::new(m.allocator(MemDomain(0)), &cost);
    let traffic = TrafficGen::new(TrafficSpec::random_dst(64, 5));
    let mut flow = FlowTask::new("pin", traffic, nic.clone(), g, cost)
        .with_churn(churn)
        .with_batch_size(batch);
    let drops = flow.drop_handle();
    let controls = flow.controls_handle();
    controls.stall_cycles.set(50);
    controls.shed_per_mille.set(100);
    controls.corrupt_per_mille.set(70);
    controls.pace_cycles.set(3_000);
    run_flow_until(&mut m, &mut flow, 1_000_000);
    controls.pace_cycles.set(200);
    run_flow_until(&mut m, &mut flow, 2_000_000);
    let free = nic.borrow().free_buffers();
    nic.borrow_mut().seize_buffers(free.saturating_sub(5));
    run_flow_until(&mut m, &mut flow, 2_500_000);
    nic.borrow_mut().seize_buffers(usize::MAX);
    run_flow_until(&mut m, &mut flow, 2_600_000);
    nic.borrow_mut().release_seized();
    controls.batch_override.set(8);
    run_flow_until(&mut m, &mut flow, 3_500_000);
    assert_eq!(flow.batch_size(), 8);
    let core = m.core(CoreId(0));
    let d = *drops.borrow();
    (core.clock, counts_row(&core.counters.total()), drops_row(&d), flow.processed)
}

#[test]
fn flow_task_datapath_is_pinned_at_batch_1_and_32() {
    type Pin = (usize, (u64, [u64; 12], [u64; 7], u64));
    const PINS: [Pin; 2] = [
        (
            1,
            (
                3_501_215,
                [
                    3_127_844, 2_335_798, 790_017, 54_202, 14_147, 40_055, 34_130, 5_925, 3_748,
                    2_177, 0, 3_748,
                ],
                [12_581, 113, 0, 262, 8_291, 429, 0],
                3_748,
            ),
        ),
        (
            32,
            (
                3_502_170,
                [
                    3_657_706, 2_606_868, 511_302, 25_277, 7_366, 17_911, 10_647, 7_264, 5_087,
                    2_177, 0, 5_087,
                ],
                [12_585, 1_549, 0, 350, 5_212, 737, 0],
                5_087,
            ),
        ),
    ];
    for (batch, want) in PINS {
        let got = flow_pin(batch);
        assert_eq!(got, want, "batch {batch}: {got:?}");
        let (_, counts, d, processed) = got;
        assert_eq!(counts[11], processed, "batch {batch}: every processed packet retires");
        let undelivered = d[1] + d[2] + d[4] + d[5] + d[6];
        assert_eq!(d[0], processed + undelivered, "batch {batch}: conservation");
    }
}

/// A two-stage pipeline on cores 0 and 1 of socket 0, its queue in domain
/// 0, driven by the engine for 1.5 M cycles.
fn pipeline_pin(
    kind: ChainKind,
    burst: usize,
    cap: Option<usize>,
) -> ([u64; 2], [[u64; 12]; 2], [u64; 7]) {
    let mut m = Machine::new(MachineConfig::westmere());
    let spec = FlowSpec::new(kind, Scale::Test, 7);
    let pipe = PipelineSpec::new(MemDomain(0)).with_burst(burst);
    let (src, sink, queue) = build_pipeline(&mut m, MemDomain(0), MemDomain(0), &spec, &pipe);
    if let Some(cap) = cap {
        queue.borrow_mut().set_capacity_limit(cap);
    }
    let drops = src.drop_handle();
    let mut e = Engine::new(m);
    e.set_task(CoreId(0), Box::new(src));
    e.set_task(CoreId(1), Box::new(sink));
    e.run_until(1_500_000);
    let side = |c: u16| e.machine.core(CoreId(c));
    let d = *drops.borrow();
    (
        [side(0).clock, side(1).clock],
        [counts_row(&side(0).counters.total()), counts_row(&side(1).counters.total())],
        drops_row(&d),
    )
}

#[test]
fn pipeline_datapath_is_pinned_with_an_empty_front_and_a_capped_queue() {
    type Pin = ([u64; 2], [[u64; 12]; 2], [u64; 7]);
    // SYN: the front graph is empty, so the source stage forwards the
    // received vector untouched.
    let syn = pipeline_pin(ChainKind::Syn(SynParams::moderate(3)), 8, None);
    const SYN: Pin = (
        [1_501_140, 1_509_821],
        [
            [492_120, 330_000, 336_140, 3_120, 405, 2_715, 176, 2_539, 520, 2_019, 0, 0],
            [700_336, 671_216, 838_605, 30_056, 362, 29_694, 391, 29_303, 2_579, 26_724, 0, 832],
        ],
        [960, 0, 0, 0, 0, 0, 0],
    );
    assert_eq!(syn, SYN, "SYN burst 8: {syn:?}");
    // IP with the queue capped below the burst: every source turn is cut
    // to the free slots, and a full queue stalls the source.
    let ip = pipeline_pin(ChainKind::Ip, 16, Some(3));
    const IP: Pin = (
        [1_501_485, 1_501_130],
        [
            [1_362_480, 969_024, 532_461, 18_480, 2_184, 16_296, 9_144, 7_152, 5_005, 2_147, 0, 0],
            [
                388_516, 301_000, 1_092_330, 65_732, 35_219, 30_513, 11_624, 18_889, 10_025, 8_864,
                0, 2_016,
            ],
        ],
        [2_016, 0, 0, 0, 0, 0, 0],
    );
    assert_eq!(ip, IP, "IP burst 16, capacity 3: {ip:?}");
}
