//! The element graph: elements wired port-to-port, executed as a work list.
//!
//! Graphs here are DAGs built programmatically (or from the Click-style
//! config language in [`crate::config`]). Execution is push-based: a packet
//! enters at the entry element and follows edges until an element drops or
//! consumes it, or it exits through an unconnected port (returned to the
//! caller, which owns buffer recycling).
//!
//! ## Batched execution and its cost model
//!
//! [`ElementGraph::run_batch_into`] carries a whole packet vector through
//! the chain: each element is visited **once per batch** — one `element_hop`
//! dispatch charge and one function-tag scope per element per batch,
//! instead of per packet — which is the framework-amortization effect that
//! batched dataplanes (VPP, batched Click) get from I-cache reuse and
//! devirtualized inner loops. On a branch, the batch is scattered into
//! per-output-port sub-batches (relative packet order preserved within
//! each sub-batch) which continue through the graph in FIFO order, port 0
//! first. A one-packet vector pays one hop and one scope per element per
//! packet — Click's per-packet dispatch — which anchors batch-size sweeps
//! to the paper's platform.

use crate::cost::CostModel;
use crate::element::{Action, Element};
use pp_net::packet::Packet;
use pp_sim::counters::TagId;
use pp_sim::ctx::ExecCtx;
use std::collections::VecDeque;

/// Identifies an element within its graph.
pub type ElementId = usize;

/// What happened to a batch pushed through the graph.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// Packets an element consumed (buffers already handled).
    pub consumed: u64,
    /// Packets that exited through an unconnected port, in exit order:
    /// the caller decides what happens next (transmit onward, hand off to
    /// the next pipeline stage, or recycle).
    pub returned: Vec<Packet>,
    /// Packets an element dropped (`Action::Drop`), in drop order: the
    /// caller must recycle their buffers (e.g. via
    /// `NicQueue::recycle_batch`) — dropped packets never continue
    /// downstream.
    pub dropped: Vec<Packet>,
    /// The consumed packets' host carcasses (simulated buffers already
    /// handled by the consuming element, e.g. `ToDevice`'s transmit):
    /// kept so the caller can return their frame allocations to a
    /// [`PacketPool`](pp_net::pool::PacketPool) instead of freeing one
    /// heap buffer per consumed packet. Same count as `consumed`.
    pub carcasses: Vec<Packet>,
}

impl BatchOutcome {
    /// Empty the outcome for reuse, retaining every vector's allocation.
    pub fn reset(&mut self) {
        self.consumed = 0;
        self.returned.clear();
        self.dropped.clear();
        self.carcasses.clear();
    }
}

/// A wired set of elements. See the module docs.
pub struct ElementGraph {
    elements: Vec<Box<dyn Element>>,
    /// Each element's function tag, interned once at [`add`](Self::add)
    /// time (the `TagId` protocol: scope entry on the per-packet hot path
    /// is an O(1) handle lookup, never a string search).
    tag_ids: Vec<TagId>,
    /// `edges[e][p]` = element receiving `e`'s output port `p`.
    edges: Vec<Vec<Option<ElementId>>>,
    entry: Option<ElementId>,
    cost: CostModel,
    /// Packets dropped by elements (Action::Drop).
    pub drops: u64,
    /// Packets that exited through an unconnected port.
    pub exits: u64,
    /// Reusable work list for batched execution (host-side; emptied at
    /// the end of every run).
    work: VecDeque<(ElementId, Vec<Packet>)>,
    /// Reusable per-port scatter scratch for batched execution.
    by_port: Vec<(u8, Vec<Packet>)>,
    /// Retired sub-batch vectors, recycled so steady-state batched runs
    /// allocate nothing.
    spare: Vec<Vec<Packet>>,
    /// Reusable per-visit action buffer.
    actions: Vec<Action>,
}

impl ElementGraph {
    /// An empty graph with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        ElementGraph {
            elements: Vec::new(),
            tag_ids: Vec::new(),
            edges: Vec::new(),
            entry: None,
            cost,
            drops: 0,
            exits: 0,
            work: VecDeque::new(),
            by_port: Vec::new(),
            spare: Vec::new(),
            actions: Vec::new(),
        }
    }

    /// Add an element; the first added element becomes the entry point
    /// unless [`set_entry`](Self::set_entry) overrides it. The element's
    /// function tag is resolved to a [`TagId`] here, once.
    pub fn add(&mut self, e: Box<dyn Element>) -> ElementId {
        self.tag_ids.push(TagId::intern(e.tag()));
        self.elements.push(e);
        self.edges.push(Vec::new());
        let id = self.elements.len() - 1;
        if self.entry.is_none() {
            self.entry = Some(id);
        }
        id
    }

    /// Wire `from`'s output port `port` to `to`'s input.
    pub fn connect(&mut self, from: ElementId, port: u8, to: ElementId) {
        assert!(from < self.elements.len() && to < self.elements.len());
        let ports = &mut self.edges[from];
        if ports.len() <= port as usize {
            ports.resize(port as usize + 1, None);
        }
        ports[port as usize] = Some(to);
    }

    /// Convenience: wire a linear chain `a -> b -> c -> ...` on port 0.
    pub fn chain(&mut self, ids: &[ElementId]) {
        for w in ids.windows(2) {
            self.connect(w[0], 0, w[1]);
        }
    }

    /// Set the entry element.
    pub fn set_entry(&mut self, id: ElementId) {
        assert!(id < self.elements.len());
        self.entry = Some(id);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the graph has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Immutable access to an element (diagnostics/tests).
    pub fn element(&self, id: ElementId) -> &dyn Element {
        self.elements[id].as_ref()
    }

    /// The element wired to the one port every action of the current visit
    /// (`self.actions`) left on, if there is such a port and it is wired.
    #[inline]
    fn sole_successor(&self, cur: ElementId) -> Option<ElementId> {
        let &first = self.actions.first()?;
        let Action::Out(port) = first else { return None };
        let next = self.edges[cur].get(port as usize).copied().flatten()?;
        self.actions.iter().all(|&a| a == first).then_some(next)
    }

    /// Push a batch through the graph starting at the entry element,
    /// draining `pkts` and writing results into `outcome` (reset at
    /// entry, allocations retained). The zero-allocation batched path:
    /// internal work-list and scatter vectors are recycled across calls,
    /// so a warmed-up graph runs whole batches without touching the heap.
    /// See the module docs for the batched cost model.
    pub fn run_batch_into(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkts: &mut Vec<Packet>,
        outcome: &mut BatchOutcome,
    ) {
        let entry = self.entry.expect("graph has no entry element");
        outcome.reset();
        if pkts.is_empty() {
            return;
        }
        // FIFO work list of (element, sub-batch). Branches scatter packets
        // into per-port sub-batches that keep their relative order. All
        // vectors involved are pooled in `self.spare` between runs.
        debug_assert!(self.work.is_empty());
        let mut entry_vec = self.spare.pop().unwrap_or_default();
        entry_vec.append(pkts);
        self.work.push_back((entry, entry_vec));
        while let Some((cur, mut batch)) = self.work.pop_front() {
            // Framework dispatch: once per element per batch (amortized).
            CostModel::charge(ctx, self.cost.element_hop);
            self.actions.clear();
            let el = &mut self.elements[cur];
            let tag = self.tag_ids[cur];
            let actions = &mut self.actions;
            ctx.scoped_id(tag, |ctx| el.process_batch(ctx, &mut batch, actions));
            // Hard assert (once per batch, so cheap): an element that emits
            // fewer actions than packets would silently leak NIC buffers in
            // release builds via the zip below.
            assert_eq!(
                self.actions.len(),
                batch.len(),
                "element {} must emit one action per packet",
                self.elements[cur].class_name()
            );
            // Every packet left on one connected port — every hop of every
            // linear chain: the vector itself moves on, unscattered. Same
            // visit order as the scatter below would produce (one sub-batch
            // joins the back of the work list).
            if let Some(next) = self.sole_successor(cur) {
                self.work.push_back((next, batch));
                continue;
            }
            // Scatter into per-port sub-batches, preserving packet order.
            debug_assert!(self.by_port.is_empty());
            for (pkt, action) in batch.drain(..).zip(self.actions.drain(..)) {
                match action {
                    Action::Consumed => {
                        outcome.consumed += 1;
                        outcome.carcasses.push(pkt);
                    }
                    Action::Drop => {
                        self.drops += 1;
                        outcome.dropped.push(pkt);
                    }
                    Action::Out(port) => {
                        match self.edges[cur].get(port as usize).copied().flatten() {
                            Some(_) => {
                                match self.by_port.iter_mut().find(|(p, _)| *p == port) {
                                    Some((_, v)) => v.push(pkt),
                                    None => {
                                        let mut v =
                                            self.spare.pop().unwrap_or_default();
                                        v.push(pkt);
                                        self.by_port.push((port, v));
                                    }
                                }
                            }
                            None => {
                                self.exits += 1;
                                outcome.returned.push(pkt);
                            }
                        }
                    }
                }
            }
            self.spare.push(batch); // drained: recycle its allocation
            self.by_port.sort_by_key(|(p, _)| *p);
            for (port, sub) in self.by_port.drain(..) {
                let next = self.edges[cur][port as usize].expect("checked above");
                self.work.push_back((next, sub));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::{machine, packet};
    use pp_sim::types::CoreId;

    /// Run `pkts` from the entry element into a fresh outcome.
    fn run(g: &mut ElementGraph, ctx: &mut ExecCtx<'_>, mut pkts: Vec<Packet>) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        g.run_batch_into(ctx, &mut pkts, &mut out);
        out
    }

    /// Emits on a fixed port, counting invocations.
    struct Emit {
        port: u8,
        seen: u64,
    }
    impl Element for Emit {
        fn class_name(&self) -> &'static str {
            "Emit"
        }
        fn tag(&self) -> &'static str {
            "emit"
        }
        fn process(&mut self, ctx: &mut ExecCtx<'_>, _pkt: &mut Packet) -> Action {
            self.seen += 1;
            ctx.compute(5, 5);
            Action::Out(self.port)
        }
    }

    struct Dropper;
    impl Element for Dropper {
        fn class_name(&self) -> &'static str {
            "Dropper"
        }
        fn tag(&self) -> &'static str {
            "dropper"
        }
        fn process(&mut self, ctx: &mut ExecCtx<'_>, _pkt: &mut Packet) -> Action {
            ctx.compute(1, 1);
            Action::Drop
        }
    }

    struct Sink;
    impl Element for Sink {
        fn class_name(&self) -> &'static str {
            "Sink"
        }
        fn tag(&self) -> &'static str {
            "sink"
        }
        fn process(&mut self, ctx: &mut ExecCtx<'_>, _pkt: &mut Packet) -> Action {
            ctx.compute(1, 1);
            Action::Consumed
        }
    }

    #[test]
    fn linear_chain_reaches_sink() {
        let mut g = ElementGraph::new(CostModel::default());
        let a = g.add(Box::new(Emit { port: 0, seen: 0 }));
        let b = g.add(Box::new(Emit { port: 0, seen: 0 }));
        let c = g.add(Box::new(Sink));
        g.chain(&[a, b, c]);
        let mut m = machine();
        let mut ctx = m.ctx(CoreId(0));
        let out = run(&mut g, &mut ctx, vec![packet()]);
        assert_eq!(out.consumed, 1);
        assert_eq!(out.carcasses.len(), 1, "the consumed packet's carcass is handed back");
    }

    #[test]
    fn drop_returns_packet() {
        let mut g = ElementGraph::new(CostModel::default());
        let a = g.add(Box::new(Emit { port: 0, seen: 0 }));
        let b = g.add(Box::new(Dropper));
        g.chain(&[a, b]);
        let mut m = machine();
        let mut ctx = m.ctx(CoreId(0));
        assert_eq!(run(&mut g, &mut ctx, vec![packet()]).dropped.len(), 1);
        assert_eq!(g.drops, 1);
    }

    #[test]
    fn unconnected_port_exits() {
        let mut g = ElementGraph::new(CostModel::default());
        let a = g.add(Box::new(Emit { port: 3, seen: 0 }));
        let b = g.add(Box::new(Sink));
        g.connect(a, 0, b); // port 3 left unwired
        let mut m = machine();
        let mut ctx = m.ctx(CoreId(0));
        assert_eq!(run(&mut g, &mut ctx, vec![packet()]).returned.len(), 1);
        assert_eq!(g.exits, 1);
    }

    #[test]
    fn branching_follows_ports() {
        let mut g = ElementGraph::new(CostModel::default());
        let a = g.add(Box::new(Emit { port: 1, seen: 0 }));
        let dropper = g.add(Box::new(Dropper));
        let sink = g.add(Box::new(Sink));
        g.connect(a, 0, dropper);
        g.connect(a, 1, sink);
        let mut m = machine();
        let mut ctx = m.ctx(CoreId(0));
        assert_eq!(run(&mut g, &mut ctx, vec![packet()]).consumed, 1);
        assert_eq!(g.drops, 0);
    }

    #[test]
    fn element_work_is_tagged() {
        let mut g = ElementGraph::new(CostModel::default());
        let a = g.add(Box::new(Emit { port: 0, seen: 0 }));
        let b = g.add(Box::new(Sink));
        g.chain(&[a, b]);
        let mut m = machine();
        {
            let mut ctx = m.ctx(CoreId(0));
            run(&mut g, &mut ctx, vec![packet()]);
        }
        let cc = &m.core(CoreId(0)).counters;
        assert_eq!(cc.tag("emit").unwrap().compute_cycles, 5);
        assert_eq!(cc.tag("sink").unwrap().compute_cycles, 1);
    }

    /// Routes packets by `dst_port % fanout` (order-preservation tests).
    struct PortScatter {
        fanout: u8,
    }
    impl Element for PortScatter {
        fn class_name(&self) -> &'static str {
            "PortScatter"
        }
        fn tag(&self) -> &'static str {
            "scatter"
        }
        fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
            ctx.compute(1, 1);
            let port = (pkt.flow_key().unwrap().src_port % self.fanout as u16) as u8;
            Action::Out(port)
        }
    }

    fn batch_of(ports: &[u16]) -> Vec<Packet> {
        use pp_net::packet::PacketBuilder;
        use std::net::Ipv4Addr;
        ports
            .iter()
            .map(|&p| {
                PacketBuilder::default().udp(
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    p,
                    9,
                    b"x",
                )
            })
            .collect()
    }

    #[test]
    fn run_batch_linear_chain_consumes_everything() {
        let mut g = ElementGraph::new(CostModel::default());
        let a = g.add(Box::new(Emit { port: 0, seen: 0 }));
        let b = g.add(Box::new(Sink));
        g.chain(&[a, b]);
        let mut m = machine();
        let mut ctx = m.ctx(CoreId(0));
        let out = run(&mut g, &mut ctx, batch_of(&[1, 2, 3, 4]));
        assert_eq!(out.consumed, 4);
        assert!(out.returned.is_empty());
    }

    #[test]
    fn run_batch_charges_hop_once_per_element_per_batch() {
        let cost = CostModel::default();
        let mut g = ElementGraph::new(cost);
        let a = g.add(Box::new(Emit { port: 0, seen: 0 }));
        let b = g.add(Box::new(Sink));
        g.chain(&[a, b]);
        let mut m = machine();
        {
            let mut ctx = m.ctx(CoreId(0));
            run(&mut g, &mut ctx, batch_of(&[1, 2, 3, 4]));
        }
        let total = m.core(CoreId(0)).counters.total().compute_cycles;
        // 2 hops per *batch* + per-packet element compute (5 + 1 each).
        assert_eq!(total, 2 * cost.element_hop.0 + 4 * (5 + 1));
    }

    #[test]
    fn run_batch_scatters_by_port_preserving_order() {
        // scatter -> (port 0: dropper, port 1: unconnected exit). Packets
        // with even src ports drop; odd ones exit. Relative order within
        // each class must survive, and the port-0 sub-batch runs first.
        let mut g = ElementGraph::new(CostModel::default());
        let s = g.add(Box::new(PortScatter { fanout: 2 }));
        let d = g.add(Box::new(Dropper));
        g.connect(s, 0, d); // port 1 left unwired: exits
        let mut m = machine();
        let mut ctx = m.ctx(CoreId(0));
        let out = run(&mut g, &mut ctx, batch_of(&[11, 2, 4, 7, 8, 3]));
        assert_eq!(g.exits, 3);
        assert_eq!(g.drops, 3);
        let ports = |pkts: &[pp_net::packet::Packet]| -> Vec<u16> {
            pkts.iter().map(|p| p.flow_key().unwrap().src_port).collect()
        };
        // Exits happen at the scatter element (odd ports, arrival order);
        // the port-0 sub-batch reaches the dropper (even ports, order).
        assert_eq!(ports(&out.returned), vec![11, 7, 3]);
        assert_eq!(ports(&out.dropped), vec![2, 4, 8]);
    }

    #[test]
    fn run_batch_rejoining_branches_keep_per_branch_order() {
        // Both scatter outputs feed the same two-element tail; sub-batches
        // arrive as two visits, each in order, port 0 first — and each
        // moves whole from `c` to `d` while the other waits in the work
        // list, without overtaking it.
        let mut g = ElementGraph::new(CostModel::default());
        let s = g.add(Box::new(PortScatter { fanout: 2 }));
        let c = g.add(Box::new(Emit { port: 7, seen: 0 }));
        let d = g.add(Box::new(Emit { port: 0, seen: 0 })); // port 0 unwired: exit
        g.connect(s, 0, c);
        g.connect(s, 1, c);
        g.connect(c, 7, d);
        let mut m = machine();
        let mut ctx = m.ctx(CoreId(0));
        let out = run(&mut g, &mut ctx, batch_of(&[1, 2, 3, 4, 5, 6]));
        let ports: Vec<u16> = out
            .returned
            .iter()
            .map(|p| p.flow_key().unwrap().src_port)
            .collect();
        assert_eq!(ports, vec![2, 4, 6, 1, 3, 5], "port-0 batch first, each in order");
        assert_eq!(g.exits, 6);
    }

    #[test]
    fn run_batch_empty_batch_is_a_no_op() {
        let mut g = ElementGraph::new(CostModel::default());
        g.add(Box::new(Sink));
        let mut m = machine();
        let mut ctx = m.ctx(CoreId(0));
        let out = run(&mut g, &mut ctx, Vec::new());
        assert_eq!(out.consumed, 0);
        assert!(out.returned.is_empty());
        assert!(out.dropped.is_empty());
        assert_eq!(m.core(CoreId(0)).clock, 0, "no charges for an empty batch");
    }

    #[test]
    fn hop_cost_charged_per_element() {
        let cost = CostModel::default();
        let mut g = ElementGraph::new(cost);
        let a = g.add(Box::new(Emit { port: 0, seen: 0 }));
        let b = g.add(Box::new(Sink));
        g.chain(&[a, b]);
        let mut m = machine();
        {
            let mut ctx = m.ctx(CoreId(0));
            run(&mut g, &mut ctx, vec![packet()]);
        }
        let total = m.core(CoreId(0)).counters.total().compute_cycles;
        assert_eq!(total, 2 * cost.element_hop.0 + 5 + 1);
    }
}
