//! Binding element graphs to simulated cores.
//!
//! [`FlowTask`] is the paper's *parallel* (run-to-completion) configuration:
//! one core receives packets from its own NIC queue, runs the whole element
//! chain, and transmits — "each core reads from its own receive queue(s) and
//! writes to its own transmit queue(s), which are not shared with other
//! cores".
//!
//! One engine turn processes one packet *vector* of
//! [`batch_size`](FlowTask::batch_size) packets: the NIC delivers it in one
//! `rx_batch`, the graph runs it via
//! [`run_batch_into`](crate::graph::ElementGraph::run_batch_into) (one
//! dispatch + one tag scope per element per batch), and [`FrameworkChurn`]
//! — the model of Click's instruction-stream and metadata footprint — is
//! touched **once per batch**, modelling the I-cache amortization that
//! batched dataplanes measure. The per-batch/per-packet charge split is
//! defined in [`CostModel`]. A one-packet vector — the default — *is* the
//! paper's per-packet platform: every charge is paid once per packet, and
//! there is no second path (ARCHITECTURE.md, invariant 4).
//!
//! [`SourceStage`] / [`SinkStage`] implement the §2.2 *pipeline*
//! configuration: the chain is split across cores connected by an
//! [`SpscQueue`], with all the cross-core costs that entails. The front
//! stage receives a vector in one `rx_batch`, runs it through the front
//! graph, and hands it off in one [`SpscQueue::push_burst`]; the back stage
//! drains it in one [`SpscQueue::pop_burst`], runs the back graph once per
//! burst, and transmits/recycles through one amortized shared NIC
//! transaction. The head/tail control-line ping-pong is paid once per burst
//! — at the default burst of 1, once per packet, as §2.2 describes.
//! [`pipeline_stages`] builds the pair.
//!
//! The three task types share their datapath ends: [`FlowTask`] and
//! [`SourceStage`] call one receive (generate, charge, `rx_batch`, ledger,
//! recycle the pool-starved tail), and all three call one completion
//! (ledger the graph's drops, recycle every returned or dropped buffer in
//! one NIC transaction, return every carcass to the pool). The
//! [`DropStats`] ledger is written only there and at the shed, pacing,
//! queue-full and migration decisions that precede or bypass them.
//!
//! Every task records per-packet ingress→egress **latency** (simulated
//! cycles, stamped at the receive path and read at completion) into a
//! [`LatencyHistogram`]; grab the shared handle with `latency_handle()`
//! before boxing the task into the engine. Recording is host-side and
//! charge-free, so it never perturbs the measured hierarchy.

use crate::cost::CostModel;
use crate::elements::queue::SpscQueue;
use crate::graph::{BatchOutcome, ElementGraph};
use pp_net::gen::traffic::TrafficGen;
use pp_net::packet::Packet;
use pp_net::pool::PacketPool;
use pp_sim::arena::DomainAllocator;
use pp_sim::counters::TagId;
use pp_sim::ctx::ExecCtx;
use pp_sim::engine::{CoreTask, TurnResult};
use pp_sim::fault::{DropStats, TaskControls};
use pp_sim::latency::LatencyHistogram;
use pp_sim::nic::NicQueue;
use pp_sim::types::{Addr, CACHE_LINE};
use std::cell::RefCell;
use std::rc::Rc;

/// Byte the corruption fault flips: Ethernet header (14 B) + the IPv4
/// header-checksum offset (10), i.e. the checksum's high byte. The flip
/// guarantees `verify_checksum` fails, driving the packet down
/// `CheckIpHeader`'s drop path. Applied *after* generation — the traffic
/// generator's frames stay pristine (it asserts against its builders).
const CORRUPT_BYTE: usize = 24;

/// Models the framework's own per-packet memory footprint: Click's
/// instruction stream, element objects, and packet annotations touch many
/// cache lines beyond the applications' data structures. Each packet reads
/// a window of lines that rotates through a region sized like the resident
/// code+metadata set, keeping L1 realistically busy.
#[derive(Debug, Clone)]
pub struct FrameworkChurn {
    region: Addr,
    lines: u64,
    cursor: u64,
    per_packet: u32,
    /// The `framework` tag, interned once (`TagId` protocol).
    tag: TagId,
}

impl FrameworkChurn {
    /// Allocate the churn region in `alloc`'s domain per the cost model.
    pub fn new(alloc: &mut DomainAllocator, cost: &CostModel) -> Self {
        let bytes = cost.framework_region_bytes.max(CACHE_LINE);
        FrameworkChurn {
            region: alloc.alloc_lines(bytes),
            lines: bytes / CACHE_LINE,
            cursor: 0,
            per_packet: cost.framework_lines_per_packet,
            tag: TagId::intern("framework"),
        }
    }

    /// Touch this packet's window of framework lines.
    #[inline]
    pub fn touch(&mut self, ctx: &mut ExecCtx<'_>) {
        ctx.scoped_id(self.tag, |ctx| {
            for _ in 0..self.per_packet {
                ctx.read(self.region + (self.cursor % self.lines) * CACHE_LINE);
                self.cursor += 1;
            }
        });
    }
}

/// A per-mille fault rate over its deterministic accumulator: it fires on
/// exactly `rate` of every 1 000 calls, and never at rate 0.
struct PerMille<'a> {
    rate: u32,
    acc: &'a mut u32,
}

impl PerMille<'_> {
    #[inline]
    fn fires(&mut self) -> bool {
        if self.rate == 0 {
            return false;
        }
        *self.acc += self.rate;
        if *self.acc < 1000 {
            return false;
        }
        *self.acc -= 1000;
        true
    }
}

/// The receive end [`FlowTask`] and [`SourceStage`] share, borrowed over
/// the task's own fields (it owns nothing, so neither task's layout or
/// allocations change).
struct Receive<'a> {
    gen: &'a mut TrafficGen,
    nic: &'a RefCell<NicQueue>,
    pool: &'a mut PacketPool,
    cost: &'a CostModel,
    churn: Option<&'a mut FrameworkChurn>,
    drops: &'a RefCell<DropStats>,
    pkts: &'a mut Vec<Packet>,
    lens: &'a mut Vec<u64>,
    bufs: &'a mut Vec<Addr>,
}

impl Receive<'_> {
    /// Receive one vector of up to `admitted` arrivals: generate them
    /// (host-side and charge-free, shedding and corrupting at the given
    /// rates), charge the batch, `rx_batch` it, ledger it, recycle the
    /// pool-starved tail, and stamp each delivered packet with its buffer
    /// and `ingress`. Returns `(generated, delivered)`; the delivered
    /// packets are left in `pkts`.
    #[inline]
    fn run(
        self,
        ctx: &mut ExecCtx<'_>,
        admitted: u64,
        mut shed: PerMille<'_>,
        mut corrupt: PerMille<'_>,
        ingress: u64,
    ) -> (usize, usize) {
        self.pkts.clear();
        self.lens.clear();
        let mut shed_count = 0u64;
        for _ in 0..admitted {
            if shed.fires() {
                shed_count += 1;
                continue;
            }
            // The wire always has a packet waiting (the paper's generators
            // run at line rate); generation refills a recycled carcass, so
            // it allocates nothing.
            let mut pkt = self.pool.take();
            self.gen.next_packet_into(&mut pkt);
            if corrupt.fires() {
                pkt.data[CORRUPT_BYTE] ^= 0xFF;
            }
            self.lens.push(pkt.len() as u64);
            self.pkts.push(pkt);
        }
        if shed_count > 0 {
            let mut d = self.drops.borrow_mut();
            d.offered += shed_count;
            d.shed += shed_count;
        }
        let generated = self.pkts.len();
        // Per-batch fixed overhead plus the per-packet residue; the split
        // sums to `per_packet_overhead`, which is what a one-packet vector
        // pays (see CostModel). A fully shed vector's drop decisions cost
        // the fixed overhead (and advance the clock).
        CostModel::charge(ctx, self.cost.batch_fixed_overhead);
        if generated == 0 {
            return (0, 0);
        }
        CostModel::charge_n(ctx, self.cost.batch_per_packet_overhead, generated as u64);
        if let Some(churn) = self.churn {
            // Once per batch: the framework's code + metadata footprint is
            // re-referenced across the vector (I-cache amortization).
            churn.touch(ctx);
        }
        self.bufs.clear();
        let delivered = self.nic.borrow_mut().rx_batch(ctx, self.lens, self.bufs);
        {
            let mut d = self.drops.borrow_mut();
            d.offered += generated as u64;
            d.nic_rx_exhausted += (generated - delivered) as u64;
        }
        // The pool-starved tail is lost (its carcasses recycle).
        for p in self.pkts.drain(delivered..).rev() {
            self.pool.put(p);
        }
        for (pkt, &buf) in self.pkts.iter_mut().zip(self.bufs.iter()) {
            pkt.buf_addr = buf;
            pkt.ingress_cycle = ingress;
        }
        (generated, delivered)
    }
}

/// One NIC recycle transaction: [`NicQueue::recycle_batch`], or
/// [`NicQueue::recycle_shared_batch`] for a cross-core recycle.
type Recycle = fn(&mut NicQueue, &mut ExecCtx<'_>, &[Addr]);

/// The completion end all three task types share, in order: ledger the
/// graph's drops, gather the NIC buffers of every returned and dropped
/// packet, hand them to `recycle` in one transaction, and return every
/// carcass to the pool.
#[inline]
fn complete(
    ctx: &mut ExecCtx<'_>,
    outcome: &mut BatchOutcome,
    nic: &RefCell<NicQueue>,
    recycle: Recycle,
    drops: &RefCell<DropStats>,
    pool: &mut PacketPool,
    bufs: &mut Vec<Addr>,
) {
    if !outcome.dropped.is_empty() {
        drops.borrow_mut().element_dropped += outcome.dropped.len() as u64;
    }
    bufs.clear();
    let ended = outcome.returned.iter().chain(&outcome.dropped);
    bufs.extend(ended.map(|p| p.buf_addr).filter(|&a| a != 0));
    if !bufs.is_empty() {
        recycle(&mut nic.borrow_mut(), ctx, bufs);
    }
    pool.put_all(&mut outcome.returned);
    pool.put_all(&mut outcome.dropped);
    pool.put_all(&mut outcome.carcasses);
}

/// A complete run-to-completion flow on one core. See the module docs.
pub struct FlowTask {
    label: Rc<str>,
    gen: TrafficGen,
    nic: Rc<RefCell<NicQueue>>,
    graph: ElementGraph,
    cost: CostModel,
    churn: Option<FrameworkChurn>,
    /// Packets per engine turn (≥ 1).
    batch_size: usize,
    /// Scratch frame lengths for the batched receive (reused every turn).
    lens: Vec<u64>,
    /// Scratch buffer addresses for the batched receive (reused).
    bufs: Vec<Addr>,
    /// Host-side packet-carcass pool: completed packets return their frame
    /// allocations here and the generator refills them in place, so the
    /// warmed-up flow performs zero per-packet heap allocation (PR 5).
    pool: PacketPool,
    /// Scratch packet vector for the batched turn (reused).
    pkts: Vec<Packet>,
    /// Reusable batch outcome (its vectors retain their allocations).
    outcome: BatchOutcome,
    /// Per-packet ingress→egress simulated cycles (shared handle; see
    /// [`latency_handle`](Self::latency_handle)).
    latency: Rc<RefCell<LatencyHistogram>>,
    /// Loss ledger (shared handle; see [`drop_handle`](Self::drop_handle)).
    /// Host-side and charge-free, like the latency histogram.
    drops: Rc<RefCell<DropStats>>,
    /// Live fault/degradation knobs (shared handle; see
    /// [`controls_handle`](Self::controls_handle)). All-zero = no-op.
    controls: Rc<TaskControls>,
    /// Pacing state: simulated time up to which arrival credit has been
    /// accrued (`u64::MAX` = pacing inactive, accrual restarts on enable).
    pace_last: u64,
    /// Pacing state: arrivals accrued but not yet admitted (capped at the
    /// NIC ring depth; the excess overflows at the wire).
    pace_credit: u64,
    /// Deterministic per-mille accumulator for the shed policy.
    shed_acc: u32,
    /// Deterministic per-mille accumulator for the corruption fault.
    corrupt_acc: u32,
    /// Packets fully processed (forwarded or consciously dropped).
    pub processed: u64,
    /// Packets lost to buffer-pool exhaustion (should stay zero in the
    /// parallel configuration). In batched mode a partial batch counts one
    /// failure per undelivered packet.
    pub rx_failures: u64,
}

impl FlowTask {
    /// Assemble a flow from its traffic source, NIC queue, and graph.
    pub fn new(
        label: impl Into<String>,
        gen: TrafficGen,
        nic: Rc<RefCell<NicQueue>>,
        graph: ElementGraph,
        cost: CostModel,
    ) -> Self {
        FlowTask {
            label: Rc::from(label.into()),
            gen,
            nic,
            graph,
            cost,
            churn: None,
            batch_size: 1,
            lens: Vec::new(),
            bufs: Vec::new(),
            pool: PacketPool::new(),
            pkts: Vec::new(),
            outcome: BatchOutcome::default(),
            latency: Rc::new(RefCell::new(LatencyHistogram::new())),
            drops: Rc::new(RefCell::new(DropStats::default())),
            controls: TaskControls::new_handle(),
            pace_last: u64::MAX,
            pace_credit: 0,
            shed_acc: 0,
            corrupt_acc: 0,
            processed: 0,
            rx_failures: 0,
        }
    }

    /// Shared handle to the per-packet latency histogram (clone it before
    /// boxing the task into the engine; reset it after warmup).
    pub fn latency_handle(&self) -> Rc<RefCell<LatencyHistogram>> {
        self.latency.clone()
    }

    /// Shared handle to the loss ledger (same protocol as
    /// [`latency_handle`](Self::latency_handle): clone before boxing,
    /// reset after warmup).
    pub fn drop_handle(&self) -> Rc<RefCell<DropStats>> {
        self.drops.clone()
    }

    /// Shared handle to the live fault/degradation knobs (clone before
    /// boxing; all knobs idle at zero, in which state the task is
    /// bit-for-bit identical to one without the handle).
    pub fn controls_handle(&self) -> Rc<TaskControls> {
        self.controls.clone()
    }

    /// Shared handle to the NIC queue (clone before boxing). Fault drivers
    /// use it to seize/release buffers
    /// ([`NicQueue::seize_buffers`](pp_sim::nic::NicQueue::seize_buffers))
    /// for pool-pressure scenarios.
    pub fn nic_handle(&self) -> Rc<RefCell<NicQueue>> {
        self.nic.clone()
    }

    /// Accrue offered-load pacing credit up to `now` and admit at most
    /// `want` arrivals. Credit beyond the NIC ring depth overflows at the
    /// wire and is counted ([`DropStats::wire_overflow`]). Host-side only.
    fn pace_admit(&mut self, now: u64, want: u64) -> u64 {
        let pace = self.controls.pace_cycles.get();
        if pace == 0 {
            self.pace_last = u64::MAX;
            self.pace_credit = 0;
            return want;
        }
        if self.pace_last == u64::MAX {
            // Pacing just engaged: start accrual here, with the packet
            // that is arriving now as the initial credit.
            self.pace_last = now;
            self.pace_credit = 1;
        } else {
            let elapsed = now.saturating_sub(self.pace_last);
            let accrued = elapsed / pace;
            self.pace_last += accrued * pace;
            self.pace_credit += accrued;
        }
        let depth = self.nic.borrow().ring_depth();
        if self.pace_credit > depth {
            let overflow = self.pace_credit - depth;
            self.pace_credit = depth;
            let mut d = self.drops.borrow_mut();
            d.offered += overflow;
            d.wire_overflow += overflow;
        }
        let admit = self.pace_credit.min(want);
        self.pace_credit -= admit;
        admit
    }

    /// Attach framework churn (see [`FrameworkChurn`]). The standard
    /// builders in [`crate::pipelines`] always do this; tests that want a
    /// minimal flow can skip it.
    pub fn with_churn(mut self, churn: FrameworkChurn) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Run `batch` packets per engine turn (0 is accepted and means 1).
    /// See the module docs for the batched cost model.
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.set_batch_size(batch);
        self
    }

    /// Re-size the batch at run time (0 means 1), as the `ShrinkBatch` rung
    /// does through the shared control block: no graph or table is rebuilt,
    /// the next engine turn simply receives a different-sized vector. Takes
    /// effect between turns — a turn in flight always completes at the size
    /// it started with.
    fn set_batch_size(&mut self, batch: usize) {
        self.batch_size = batch.max(1);
    }

    /// Packets per engine turn (≥ 1).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The element graph (for inspection / run-time reconfiguration).
    pub fn graph(&self) -> &ElementGraph {
        &self.graph
    }
}

impl CoreTask for FlowTask {
    /// One turn: receive a vector in one `rx_batch`, run the graph once
    /// per element per batch, recycle all returned buffers in one
    /// `recycle_batch`. The NIC is borrowed twice per *batch* (receive and
    /// recycle), and every host container — the packet vector, the
    /// outcome, and the packet carcasses themselves — is recycled across
    /// turns (zero steady-state allocation).
    fn run_turn(&mut self, ctx: &mut ExecCtx<'_>) -> TurnResult {
        // The ShrinkBatch rung of the degradation ladder re-sizes the live
        // task through the shared control block (the task is boxed inside
        // the engine, so `set_batch_size` is out of reach).
        let over = self.controls.batch_override.get();
        if over != 0 && over != self.batch_size {
            self.set_batch_size(over);
        }
        let n = self.batch_size;
        // Ingress = the start of the turn, when the wire had delivered the
        // whole vector: residence time covers the packets' own processing.
        let ingress = ctx.now();
        // Fault/degradation hooks: all host-side branches, dead when every
        // knob is zero (the default), so the unfaulted turn is bit-for-bit
        // what it was before the hooks existed.
        let mut admitted = n as u64;
        let mut corrupt_pm = 0u32;
        let mut shed_pm = 0u32;
        if self.controls.is_active() {
            admitted = self.pace_admit(ingress, n as u64);
            if admitted == 0 {
                // Paced wire is quiet: idle this turn (the engine charges
                // the poll cost, advancing time so credit accrues).
                return TurnResult::Idle;
            }
            let stall = self.controls.stall_cycles.get();
            if stall > 0 {
                // Frequency derate: the core loses this many cycles of
                // every turn to the (modeled) slower clock.
                ctx.compute(stall, 0);
            }
            shed_pm = u32::from(self.controls.shed_per_mille.get());
            corrupt_pm = u32::from(self.controls.corrupt_per_mille.get());
        } else if self.pace_last != u64::MAX {
            // Pacing just disengaged: forget stale accrual state.
            self.pace_last = u64::MAX;
            self.pace_credit = 0;
        }
        let (generated, delivered) = Receive {
            gen: &mut self.gen,
            nic: &self.nic,
            pool: &mut self.pool,
            cost: &self.cost,
            churn: self.churn.as_mut(),
            drops: &self.drops,
            pkts: &mut self.pkts,
            lens: &mut self.lens,
            bufs: &mut self.bufs,
        }
        .run(
            ctx,
            admitted,
            PerMille { rate: shed_pm, acc: &mut self.shed_acc },
            PerMille { rate: corrupt_pm, acc: &mut self.corrupt_acc },
            ingress,
        );
        self.rx_failures += (generated - delivered) as u64;
        if delivered == 0 {
            return TurnResult::Progress; // the receive advanced the clock
        }
        self.graph.run_batch_into(ctx, &mut self.pkts, &mut self.outcome);
        complete(
            ctx,
            &mut self.outcome,
            &self.nic,
            NicQueue::recycle_batch,
            &self.drops,
            &mut self.pool,
            &mut self.bufs,
        );
        self.processed += delivered as u64;
        ctx.retire_packets(delivered as u64);
        // Every packet of the burst was received together and completes
        // together: the whole vector shares one residence time — the
        // latency cost of batching that the histogram makes visible.
        let turn_latency = ctx.now() - ingress;
        let mut lat = self.latency.borrow_mut();
        for _ in 0..delivered {
            lat.record(turn_latency);
        }
        TurnResult::Progress
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn label_shared(&self) -> Rc<str> {
        self.label.clone()
    }

    /// Migration drain: pacing credit is arrivals the wire already
    /// presented but the task has not admitted — packets in flight at the
    /// old placement. They cannot travel (the NIC ring and its buffers
    /// stay with the old core's memory domain), so the supervisor's drain
    /// protocol forfeits them as counted `drained` loss and restarts
    /// accrual fresh on the new core. A line-rate (unpaced) task has no
    /// in-flight credit and drains nothing.
    fn on_migrate(&mut self) {
        if self.pace_credit > 0 {
            let mut d = self.drops.borrow_mut();
            d.offered += self.pace_credit;
            d.drained += self.pace_credit;
        }
        self.pace_credit = 0;
        self.pace_last = u64::MAX;
    }
}

/// What both pipeline stages hold. [`pipeline_stages`] gives the two one
/// carcass pool, one loss ledger and one handoff burst.
struct Stage {
    label: Rc<str>,
    /// The source core's NIC queue: the front stage receives from it, the
    /// back stage recycles into it cross-core.
    nic: Rc<RefCell<NicQueue>>,
    /// The handoff queue: the front stage pushes into it, the back pops.
    queue: Rc<RefCell<SpscQueue>>,
    /// This stage's part of the chain (the front's may be empty: a pure
    /// receive stage).
    graph: ElementGraph,
    churn: Option<FrameworkChurn>,
    /// Packets per engine turn (≥ 1).
    batch_size: usize,
    /// Scratch buffer addresses for the batched receive and recycle.
    bufs: Vec<Addr>,
    /// Host-side carcass pool: the sink returns completed packets' frame
    /// allocations here and the source's generator refills them,
    /// mirroring §2.2's cross-core buffer recycling on the host side.
    pool: Rc<RefCell<PacketPool>>,
    outcome: BatchOutcome,
    drops: Rc<RefCell<DropStats>>,
}

impl Stage {
    /// This stage's completion end (see [`complete`]).
    fn complete(&mut self, ctx: &mut ExecCtx<'_>, recycle: Recycle) {
        let pool = &mut self.pool.borrow_mut();
        complete(ctx, &mut self.outcome, &self.nic, recycle, &self.drops, pool, &mut self.bufs);
    }
}

/// Wire the §2.2 pipeline's two stages around `queue`, labelled
/// `{label}-front` and `{label}-back`. The front receives from `nic`,
/// runs the first graph and hands off into `queue`; the back drains it,
/// runs the second graph and recycles into `nic` cross-core. Each graph
/// comes with its stage's framework churn, if any. The stages share one
/// carcass pool, one loss ledger and one handoff burst of `burst` packets
/// per turn (0 means 1).
pub fn pipeline_stages(
    label: &str,
    gen: TrafficGen,
    nic: Rc<RefCell<NicQueue>>,
    queue: &Rc<RefCell<SpscQueue>>,
    [front, back]: [(ElementGraph, Option<FrameworkChurn>); 2],
    burst: usize,
    cost: CostModel,
) -> (SourceStage, SinkStage) {
    let pool = Rc::new(RefCell::new(PacketPool::new()));
    let drops = Rc::new(RefCell::new(DropStats::default()));
    let stage = |side: &str, (graph, churn)| Stage {
        label: Rc::from(format!("{label}-{side}")),
        nic: nic.clone(),
        queue: queue.clone(),
        graph,
        churn,
        batch_size: burst.max(1),
        bufs: Vec::new(),
        pool: pool.clone(),
        outcome: BatchOutcome::default(),
        drops: drops.clone(),
    };
    let src = SourceStage {
        stage: stage("front", front),
        gen,
        cost,
        lens: Vec::new(),
        pkts: Vec::new(),
        forwarded: 0,
        stalls: 0,
    };
    let sink = SinkStage {
        stage: stage("back", back),
        scratch: Vec::new(),
        ingress: Vec::new(),
        latency: Rc::new(RefCell::new(LatencyHistogram::new())),
        processed: 0,
    };
    (src, sink)
}

/// Pipeline stage 1: receive + the front of the chain, then enqueue.
pub struct SourceStage {
    stage: Stage,
    gen: TrafficGen,
    cost: CostModel,
    /// Scratch frame lengths for the batched receive (reused every turn).
    lens: Vec<u64>,
    /// Scratch packet vector for the burst turn (reused).
    pkts: Vec<Packet>,
    /// Packets handed to the next stage.
    pub forwarded: u64,
    /// Turns skipped because the queue was full.
    pub stalls: u64,
}

impl SourceStage {
    /// Shared handle to the pipeline's loss ledger (clone before boxing,
    /// reset after warmup); both stages write it.
    pub fn drop_handle(&self) -> Rc<RefCell<DropStats>> {
        self.stage.drops.clone()
    }
}

impl CoreTask for SourceStage {
    /// One turn: receive up to `batch_size` packets (backpressure: never
    /// more than the queue's free slots) in one `rx_batch`, run the front
    /// graph once per burst, hand the vector off in one `push_burst`.
    fn run_turn(&mut self, ctx: &mut ExecCtx<'_>) -> TurnResult {
        // Partial-burst backpressure: size the burst to the room downstream
        // (a host-side check; a full queue stalls the turn).
        let n = self.stage.queue.borrow().free_slots().min(self.stage.batch_size);
        if n == 0 {
            self.stalls += 1;
            return TurnResult::Idle;
        }
        // Ingress = the start of the turn. The engine's min-clock scheduler
        // guarantees this is ≤ every other core's clock, so the sink's
        // egress reading is always causally after it.
        let ingress = ctx.now();
        let s = &mut self.stage;
        let (_, delivered) = Receive {
            gen: &mut self.gen,
            nic: &s.nic,
            pool: &mut s.pool.borrow_mut(),
            cost: &self.cost,
            churn: s.churn.as_mut(),
            drops: &s.drops,
            pkts: &mut self.pkts,
            lens: &mut self.lens,
            bufs: &mut s.bufs,
        }
        .run(
            ctx,
            n as u64,
            PerMille { rate: 0, acc: &mut 0 },
            PerMille { rate: 0, acc: &mut 0 },
            ingress,
        );
        if delivered == 0 {
            return TurnResult::Progress; // time advanced by the failed rx
        }
        if s.graph.is_empty() {
            s.outcome.reset();
            s.outcome.returned.append(&mut self.pkts);
        } else {
            s.graph.run_batch_into(ctx, &mut self.pkts, &mut s.outcome);
        }
        let to_queue = &mut s.outcome.returned;
        let pushed = s.queue.borrow_mut().push_burst(ctx, to_queue);
        self.forwarded += pushed as u64;
        if !to_queue.is_empty() {
            // Queue filled under us (cannot happen with the room check
            // above, but handled for robustness): counted queue-full drops.
            s.drops.borrow_mut().queue_full += to_queue.len() as u64;
            self.stalls += 1;
        }
        // Recycle locally: front-chain drops plus any burst-rejected tail
        // (the forwarded packets come back via the sink).
        s.complete(ctx, NicQueue::recycle_batch);
        TurnResult::Progress
    }

    fn label(&self) -> &str {
        &self.stage.label
    }

    fn label_shared(&self) -> Rc<str> {
        self.stage.label.clone()
    }
}

/// Pipeline stage 2: dequeue, run the back of the chain, transmit (with
/// cross-core buffer recycling into the source stage's pool).
pub struct SinkStage {
    stage: Stage,
    /// Staging vector for the burst dequeue (reused every turn).
    scratch: Vec<Packet>,
    /// Scratch ingress stamps for latency recording (reused every turn).
    ingress: Vec<u64>,
    /// Per-packet ingress→egress simulated cycles across the whole
    /// pipeline (stamped by the source stage at receive).
    latency: Rc<RefCell<LatencyHistogram>>,
    /// Packets completed at this stage.
    pub processed: u64,
}

impl SinkStage {
    /// Shared handle to the pipeline's ingress→egress latency histogram
    /// (clone it before boxing the task into the engine; reset it after
    /// warmup).
    pub fn latency_handle(&self) -> Rc<RefCell<LatencyHistogram>> {
        self.latency.clone()
    }
}

impl CoreTask for SinkStage {
    /// One turn: poll, drain up to `batch_size` packets in one
    /// `pop_burst`, run the back graph once per burst, recycle the returned
    /// buffers in one cross-core batch transaction.
    fn run_turn(&mut self, ctx: &mut ExecCtx<'_>) -> TurnResult {
        {
            let mut q = self.stage.queue.borrow_mut();
            if !q.poll(ctx) {
                return TurnResult::Idle;
            }
            self.scratch.clear();
            q.pop_burst(ctx, self.stage.batch_size, &mut self.scratch);
        }
        if self.scratch.is_empty() {
            return TurnResult::Idle;
        }
        let s = &mut self.stage;
        if let Some(churn) = &mut s.churn {
            // Once per burst: I-cache/metadata amortization.
            churn.touch(ctx);
        }
        // Pull each packet's header line from the producing core (it wrote
        // or at least read it there; a modified line costs a transfer).
        // Header pulls stay per packet — each header line is distinct
        // cross-core payload, unlike the amortized control lines.
        for pkt in &self.scratch {
            if pkt.buf_addr != 0 {
                ctx.shared_read_struct(pkt.buf_addr, 64);
            }
        }
        self.ingress.clear();
        self.ingress.extend(self.scratch.iter().map(|p| p.ingress_cycle));
        let n = self.scratch.len() as u64;
        s.graph.run_batch_into(ctx, &mut self.scratch, &mut s.outcome);
        // Cross-core recycle into the source core's pool, one free-list
        // ping-pong per burst; the carcasses flow back to the source
        // stage's generator (the host-side mirror of that recycle).
        s.complete(ctx, NicQueue::recycle_shared_batch);
        self.processed += n;
        ctx.retire_packets(n);
        // Host-side and charge-free, like the stamps.
        let (now, mut lat) = (ctx.now(), self.latency.borrow_mut());
        for &t in self.ingress.iter().filter(|&&t| t != 0 && t <= now) {
            lat.record(now - t);
        }
        TurnResult::Progress
    }

    fn label(&self) -> &str {
        &self.stage.label
    }

    fn label_shared(&self) -> Rc<str> {
        self.stage.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::elements::basic::{CheckIpHeader, Counter, ToDevice};
    use pp_net::gen::traffic::{TrafficGen, TrafficSpec};
    use pp_sim::config::MachineConfig;
    use pp_sim::engine::Engine;
    use pp_sim::machine::Machine;
    use pp_sim::types::{CoreId, MemDomain};

    fn nic(m: &mut Machine, n_desc: u64, buffers: usize) -> Rc<RefCell<NicQueue>> {
        Rc::new(RefCell::new(NicQueue::new(m.allocator(MemDomain(0)), n_desc, buffers, 2048)))
    }

    fn queue(m: &mut Machine, slots: usize) -> Rc<RefCell<SpscQueue>> {
        let cost = CostModel::default();
        Rc::new(RefCell::new(SpscQueue::new(m.allocator(MemDomain(0)), slots, cost)))
    }

    /// Run `turns` turns of `task` on core 0.
    fn run_turns(m: &mut Machine, task: &mut impl CoreTask, turns: usize) {
        for _ in 0..turns {
            task.run_turn(&mut m.ctx(CoreId(0)));
        }
    }

    /// CheckIPHeader → Counter → ToDevice on a 64-buffer NIC, no churn.
    fn simple_flow(m: &mut Machine, core_seed: u64) -> FlowTask {
        let cost = CostModel::default();
        let nic = nic(m, 256, 64);
        let mut g = ElementGraph::new(cost);
        let a = g.add(Box::new(CheckIpHeader::new(cost)));
        let b = g.add(Box::new(Counter::default()));
        let c = g.add(Box::new(ToDevice::new(nic.clone(), false)));
        g.chain(&[a, b, c]);
        let traffic = TrafficGen::new(TrafficSpec::random_dst(64, core_seed));
        FlowTask::new("test-flow", traffic, nic, g, cost)
    }

    /// A source stage with an empty front graph, receiving from `nic` into
    /// `q` (its sink is dropped: nothing drains the queue).
    fn bare_source(
        nic: &Rc<RefCell<NicQueue>>,
        q: &Rc<RefCell<SpscQueue>>,
        burst: usize,
    ) -> SourceStage {
        let cost = CostModel::default();
        let traffic = TrafficGen::new(TrafficSpec::random_dst(64, 3));
        let graphs = [(ElementGraph::new(cost), None), (ElementGraph::new(cost), None)];
        pipeline_stages("p", traffic, nic.clone(), q, graphs, burst, cost).0
    }

    #[test]
    fn flow_processes_packets_end_to_end() {
        let mut m = Machine::new(MachineConfig::westmere());
        let flow = simple_flow(&mut m, 1); // no with_churn
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(flow));
        let meas = e.measure(100_000, 2_800_000); // 1 ms
        let cm = meas.core(CoreId(0)).unwrap();
        assert!(cm.metrics.pps > 100_000.0, "pps = {}", cm.metrics.pps);
        assert_eq!(&*cm.label, "test-flow");
        // No buffer leaks: pool cycles cleanly.
        assert!(cm.counts.total.packets > 0);
        assert!(cm.counts.tag("framework").is_none(), "a flow without churn touches none");
    }

    #[test]
    fn churn_rotates_through_its_region() {
        let mut m = Machine::new(MachineConfig::westmere());
        let cost = CostModel { framework_region_bytes: 4 * 64, framework_lines_per_packet: 3, ..CostModel::default() };
        let mut churn = FrameworkChurn::new(m.allocator(MemDomain(0)), &cost);
        let mut ctx = m.ctx(CoreId(0));
        // 4-line region, 3 lines/packet: after two packets the cursor has
        // wrapped and the region holds, so all reads hit a 4-line footprint.
        churn.touch(&mut ctx);
        churn.touch(&mut ctx);
        let c = m.core(CoreId(0)).counters.tag("framework").unwrap();
        assert_eq!(c.l1_refs, 6);
        // Only 4 distinct lines were ever touched: at most 4 L3 refs.
        assert!(c.l3_refs <= 4, "region should wrap, got {} L3 refs", c.l3_refs);
    }

    #[test]
    fn source_stage_stalls_when_nothing_drains() {
        // A source with a large queue but a tiny buffer pool: once every
        // buffer is parked in the queue, rx fails and forwarding stops.
        let mut m = Machine::new(MachineConfig::westmere());
        let nic = nic(&mut m, 64, 8); // only 8 buffers
        let q = queue(&mut m, 128);
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(bare_source(&nic, &q, 1)));
        e.run_until(2_000_000);
        let enqueued = q.borrow().enqueued;
        assert!(enqueued <= 8, "cannot park more packets than buffers: {enqueued}");
        assert_eq!(nic.borrow().free_buffers(), 0, "every buffer is in flight");
    }

    #[test]
    fn batched_flow_processes_the_same_packets_as_one_packet_vectors() {
        // Semantic equivalence across vector sizes: the same generated
        // packet sequence yields the same processed counts and graph
        // outcomes (cycle counts legitimately differ — that is the speedup).
        let run = |batch: usize, turns: usize| {
            let mut m = Machine::new(MachineConfig::westmere());
            let mut flow = simple_flow(&mut m, 7).with_batch_size(batch);
            run_turns(&mut m, &mut flow, turns);
            (flow.processed, flow.graph().drops, flow.graph().exits)
        };
        assert_eq!(run(1, 50 * 8), run(8, 50), "(processed, drops, exits) must agree");
    }

    #[test]
    fn batched_flow_is_cheaper_per_packet_than_one_packet_vectors() {
        let cycles_per_packet = |batch: usize| {
            let mut m = Machine::new(MachineConfig::westmere());
            let flow = simple_flow(&mut m, 5).with_batch_size(batch);
            let mut e = Engine::new(m);
            e.set_task(CoreId(0), Box::new(flow));
            let meas = e.measure(500_000, 2_800_000);
            let cm = meas.core(CoreId(0)).unwrap();
            cm.counts.total.cycles() as f64 / cm.counts.total.packets as f64
        };
        let per_packet = cycles_per_packet(1);
        let batched = cycles_per_packet(32);
        assert!(
            batched < per_packet * 0.95,
            "32-packet batches must amortize framework cost: batch 1 {per_packet:.0} vs batch 32 {batched:.0} cycles/packet"
        );
    }

    #[test]
    fn batch_resize_between_windows_takes_effect_and_amortizes() {
        // The adaptive controller's re-sizing path: run a window at batch 1,
        // call set_batch_size(32) on the *live* task between windows, and
        // verify the next window is measurably cheaper per packet — no
        // rebuild, same graph, same tables, same traffic stream.
        let mut m = Machine::new(MachineConfig::westmere());
        let mut flow = simple_flow(&mut m, 13).with_batch_size(1);
        let window_cpp = |m: &mut Machine, flow: &mut FlowTask, turns: usize| {
            let before = m.core(CoreId(0)).counters.snapshot();
            run_turns(m, flow, turns);
            let d = m.core(CoreId(0)).counters.snapshot().delta(&before);
            d.total.cycles() as f64 / d.total.packets.max(1) as f64
        };
        // Warm the caches, then measure a one-packet-vector window.
        let _ = window_cpp(&mut m, &mut flow, 500);
        let b1_cpp = window_cpp(&mut m, &mut flow, 512);
        // Re-size the live task and measure again (same packet budget).
        flow.set_batch_size(32);
        assert_eq!(flow.batch_size(), 32);
        let batched_cpp = window_cpp(&mut m, &mut flow, 16);
        assert!(
            batched_cpp < b1_cpp * 0.95,
            "re-sized batch must amortize: {b1_cpp:.0} -> {batched_cpp:.0} cyc/pkt"
        );
    }

    #[test]
    fn drop_stats_are_exact_under_forced_exhaustion() {
        // 4 buffers, 8-packet batches: every turn offers 8 and delivers a
        // partial batch of 4; buffers recycle cleanly, and the ledger must
        // account for every single packet.
        let mut m = Machine::new(MachineConfig::westmere());
        let cost = CostModel::default();
        let nic = nic(&mut m, 64, 4);
        let mut g = ElementGraph::new(cost);
        let a = g.add(Box::new(CheckIpHeader::new(cost)));
        let t = g.add(Box::new(ToDevice::new(nic.clone(), false)));
        g.chain(&[a, t]);
        let traffic = TrafficGen::new(TrafficSpec::random_dst(64, 3));
        let mut flow = FlowTask::new("exhaust", traffic, nic.clone(), g, cost).with_batch_size(8);
        let drops = flow.drop_handle();
        for _ in 0..10 {
            assert_eq!(flow.run_turn(&mut m.ctx(CoreId(0))), TurnResult::Progress);
        }
        assert_eq!(flow.processed, 40, "4 delivered per 8-packet batch");
        assert_eq!(flow.rx_failures, 40, "4 undelivered per batch");
        assert_eq!(nic.borrow().free_buffers(), 4, "no buffer leak");
        let d = *drops.borrow();
        assert_eq!(d.offered, 80, "every offered packet is ledgered");
        assert_eq!(d.nic_rx_exhausted, 40, "exactly the undelivered half");
        assert_eq!(d.total_dropped(), 40, "no other loss category fires");
        assert_eq!(
            d.offered,
            flow.processed + d.undelivered(),
            "conservation: offered == processed + undelivered drops"
        );
    }

    #[test]
    fn corruption_control_drives_the_check_ip_drop_path() {
        // 250 per mille: the deterministic accumulator corrupts exactly
        // every 4th packet, and CheckIpHeader must drop each one.
        let mut m = Machine::new(MachineConfig::westmere());
        let mut flow = simple_flow(&mut m, 11);
        let drops = flow.drop_handle();
        let controls = flow.controls_handle();
        controls.corrupt_per_mille.set(250);
        run_turns(&mut m, &mut flow, 40);
        let d = *drops.borrow();
        assert_eq!(flow.processed, 40, "corrupted packets still complete (as drops)");
        assert_eq!(d.element_dropped, 10, "every 4th packet fails the checksum");
        assert_eq!(flow.graph().drops, 10, "the graph agrees");
        // Turning the knob off stops the corruption.
        controls.corrupt_per_mille.set(0);
        run_turns(&mut m, &mut flow, 20);
        assert_eq!(drops.borrow().element_dropped, 10, "no further drops");
    }

    #[test]
    fn shed_control_drops_half_the_load_with_exact_accounting() {
        let mut m = Machine::new(MachineConfig::westmere());
        let mut flow = simple_flow(&mut m, 17);
        let drops = flow.drop_handle();
        flow.controls_handle().shed_per_mille.set(500);
        for _ in 0..30 {
            assert_eq!(flow.run_turn(&mut m.ctx(CoreId(0))), TurnResult::Progress);
        }
        let d = *drops.borrow();
        assert_eq!(d.shed, 15, "exactly every 2nd arrival shed");
        assert_eq!(flow.processed, 15);
        assert_eq!(d.offered, 30);
        assert_eq!(d.offered, flow.processed + d.undelivered(), "conservation");
    }

    /// Run a paced `simple_flow` in the engine until `t_end`; its ledger.
    fn paced(seed: u64, pace: u64, t_end: u64) -> DropStats {
        let mut m = Machine::new(MachineConfig::westmere());
        let flow = simple_flow(&mut m, seed);
        let drops = flow.drop_handle();
        flow.controls_handle().pace_cycles.set(pace);
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(flow));
        e.run_until(t_end);
        let d = *drops.borrow();
        d
    }

    #[test]
    fn pacing_throttles_throughput_without_loss() {
        // Pace far below the service rate: the flow idles between
        // arrivals, processes everything that arrives, and loses nothing.
        let d = paced(23, 20_000, 2_000_000); // one packet per 20k cycles: ~100 arrivals
        assert!(d.offered >= 90 && d.offered <= 110, "paced arrivals: {}", d.offered);
        assert_eq!(d.total_dropped(), 0, "throttling is lossless backpressure");
    }

    #[test]
    fn overdriven_pacing_overflows_at_the_wire_with_exact_accounting() {
        // Pace of 1 cycle/packet wildly exceeds the service rate: credit
        // accrues past the NIC ring depth and the excess is a *counted*
        // wire drop. Conservation must still hold exactly.
        let d = paced(29, 1, 1_000_000);
        assert!(d.wire_overflow > 0, "overload must surface as wire drops");
        assert_eq!(d.nic_rx_exhausted, 0, "pool never exhausts at batch 1");
        // offered = processed + overflow (+ nothing else): the ledger
        // accounts for every arrival the 1-cycle pace generated.
        assert_eq!(d.offered, (d.offered - d.total_dropped()) + d.wire_overflow);
    }

    #[test]
    fn batch_override_resizes_the_live_task() {
        let mut m = Machine::new(MachineConfig::westmere());
        let mut flow = simple_flow(&mut m, 31).with_batch_size(32);
        flow.controls_handle().batch_override.set(4);
        run_turns(&mut m, &mut flow, 1);
        assert_eq!(flow.batch_size(), 4, "override takes effect at the next turn");
        assert_eq!(flow.processed, 4, "the turn ran at the overridden size");
    }

    #[test]
    fn pipeline_queue_full_drops_are_counted_not_silent() {
        // Tiny queue, sink never drains: the source stage must count every
        // loss path — and with the stage's free-slot check, the packets
        // that cannot be parked simply stall (backpressure).
        let mut m = Machine::new(MachineConfig::westmere());
        let nic = nic(&mut m, 64, 32);
        let q = queue(&mut m, 4);
        let mut src = bare_source(&nic, &q, 1);
        let drops = src.drop_handle();
        run_turns(&mut m, &mut src, 50);
        let d = *drops.borrow();
        assert_eq!(src.forwarded, 4, "queue holds 4");
        assert_eq!(d.offered, 4, "the stalled turns offered nothing (backpressure)");
        assert_eq!(d.queue_full, 0, "the free-slot check stalls instead of dropping");
        assert!(src.stalls >= 46);
        // Burst mode: drain the queue, then an 8-packet burst is cut to the
        // 4 free slots instead of overflowing.
        let mut src = bare_source(&nic, &q, 8);
        let drops = src.drop_handle();
        q.borrow_mut().pop_burst(&mut m.ctx(CoreId(1)), 4, &mut Vec::new());
        run_turns(&mut m, &mut src, 1);
        let d = *drops.borrow();
        assert_eq!(d.offered, 4, "burst sized to the queue's 4 free slots");
        assert_eq!(d.queue_full, 0, "partial-burst backpressure, not drops");
    }

    #[test]
    fn pipeline_stages_hand_off_packets() {
        let mut m = Machine::new(MachineConfig::westmere());
        let cost = CostModel::default();
        let nic = nic(&mut m, 256, 256);
        let q = queue(&mut m, 128);
        let mut front = ElementGraph::new(cost);
        front.add(Box::new(CheckIpHeader::new(cost)));
        let mut back = ElementGraph::new(cost);
        let cnt = back.add(Box::new(Counter::default()));
        let tx = back.add(Box::new(ToDevice::new(nic.clone(), true)));
        back.chain(&[cnt, tx]);
        let traffic = TrafficGen::new(TrafficSpec::random_dst(64, 3));
        let graphs = [(front, None), (back, None)];
        let (src, sink) = pipeline_stages("p", traffic, nic.clone(), &q, graphs, 1, cost);
        let mut e = Engine::new(m);
        e.set_task(CoreId(0), Box::new(src));
        e.set_task(CoreId(1), Box::new(sink));
        let meas = e.measure(200_000, 2_800_000);
        let back_m = meas.core(CoreId(1)).unwrap();
        assert!(
            back_m.metrics.pps > 50_000.0,
            "pipeline should move packets, pps = {}",
            back_m.metrics.pps
        );
        // The queue really cycled.
        assert!(q.borrow().dequeued > 0);
        // No buffer leak: free buffers return to the pool over time.
        assert!(nic.borrow().free_buffers() > 0);
    }
}
