//! Longest-prefix-match routing.
//!
//! One element, [`IpLookup`], over any [`LpmTable`] — the trait hides the
//! table algorithm. Three tables implement it and compute identical routes:
//!
//! * [`BinaryRadixTrie`] — a bit-at-a-time radix trie with best-match
//!   tracking, the shape of Click's `RadixTrie` that the paper's IP
//!   workload uses. Lookups under a BGP-shaped table walk a long chain of
//!   *dependent* node reads (~12–20 levels): the hot top levels live in
//!   L1/L2 ("hot spots", Fig. 7), the deep levels spread over megabytes and
//!   produce the L3 references that make IP sensitive to contention. Each
//!   node occupies a 24-byte simulated slot (Click's node footprint) and
//!   each route a 16-byte one; the host image keeps only the 12 and 4
//!   bytes a lookup reads. This is the table under [`RadixIpLookup`],
//!   which every standard chain runs.
//!
//! * [`MultibitTrie`] — a leaf-pushed stride-16/4 multibit trie, the
//!   modern alternative with 3–5 reads per lookup. Kept as an ablation
//!   ([`MultibitIpLookup`]): it shows how implementation choices change a
//!   flow's contention profile.
//!
//! * [`Dir248Table`](crate::elements::lpm::Dir248Table) — the DIR-24-8
//!   flat table, 1–2 reads per lookup, in its own module.
//!
//! Every node access is a dependent read, so each converted miss costs a
//! full δ — the paper's sensitivity mechanism.
//!
//! A table is its simulated placements plus one shared, read-only host
//! image ([`LpmTable::Image`]). Replicas of one BGP-shaped table stood up
//! through [`IpLookup::bgp`] while another is alive share that image and
//! keep private simulated ranges, so each replica is charged exactly as a
//! privately built one would be.

use crate::cost::CostModel;
use crate::element::{header_addrs, Action, Element, BATCH_MLP};
use pp_net::gen::prefixes::{generate_bgp_table, PrefixEntry};
use pp_net::packet::Packet;
use pp_sim::arena::{DomainAllocator, SimPlacement};
use pp_sim::ctx::ExecCtx;
use pp_sim::types::CACHE_LINE;
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::{Rc, Weak};

/// Append every cache line covering `[addr, addr + len)` to `out` — the
/// batched walks must charge exactly the lines the scalar
/// `SimVec::read` (via `read_struct`) touches.
#[inline]
pub(crate) fn push_covering_lines(out: &mut Vec<u64>, addr: u64, len: u64) {
    let mut line = addr & !(CACHE_LINE - 1);
    let end = addr + len.max(1);
    while line < end {
        out.push(line);
        line += CACHE_LINE;
    }
}

/// A longest-prefix-match table held in simulated memory — the algorithm
/// behind [`IpLookup`]. `lookup` and `lookup_batch_into` return
/// `(next_hop, steps)` per destination, `steps` being the dependent reads
/// the walk issued (the element charges `lookup_step` compute per step);
/// the batched form must visit the same entries and return the same pairs
/// as per-lane `lookup` calls — only the core-visible stall may shrink.
pub trait LpmTable: Sized + 'static {
    /// Click class name of the element over this table.
    const CLASS: &'static str;

    /// Reusable per-batch walk state (host-side only; the element holds one
    /// so steady-state batched lookups allocate nothing).
    type Scratch: Default;

    /// The table's host data: built once from a prefix table, read-only
    /// ever after, and shareable between replicas.
    type Image: 'static;

    /// Build the host image of a prefix table. Host-only and pure: nothing
    /// is allocated in simulated memory.
    fn image(prefixes: &[PrefixEntry]) -> Self::Image;

    /// Give `image` its own simulated range in `alloc`'s NUMA domain:
    /// exactly the bytes, alignments and order [`build`](Self::build)
    /// allocates, whoever else holds the image.
    fn place(alloc: &mut DomainAllocator, image: Rc<Self::Image>) -> Self;

    /// Build from a prefix table, allocating the structure in `alloc`'s
    /// NUMA domain. Host-side: construction costs no simulated time.
    fn build(alloc: &mut DomainAllocator, prefixes: &[PrefixEntry]) -> Self {
        Self::place(alloc, Rc::new(Self::image(prefixes)))
    }

    /// Longest-prefix match for one destination, charging its reads.
    fn lookup(&self, ctx: &mut ExecCtx<'_>, dst: u32) -> (Option<u32>, u32);

    /// Longest-prefix match for a vector of destinations, overlapping the
    /// lanes' independent reads through
    /// [`read_batch`](ExecCtx::read_batch) at parallelism `mlp`. Results
    /// replace the contents of `out`.
    fn lookup_batch_into(
        &self,
        ctx: &mut ExecCtx<'_>,
        dsts: &[u32],
        mlp: u32,
        scratch: &mut Self::Scratch,
        out: &mut Vec<(Option<u32>, u32)>,
    );
}

/// Packed trie entry.
///
/// * `0` — empty (no match below this point).
/// * bit 31 set — internal: low 31 bits are a node index.
/// * bit 30 set — leaf: bits 29..24 = prefix length, bits 23..0 = next hop.
type Entry = u32;

const INTERNAL: u32 = 1 << 31;
const LEAF: u32 = 1 << 30;

#[inline]
fn leaf(len: u8, hop: u32) -> Entry {
    debug_assert!(hop < (1 << 24), "next hop must fit 24 bits");
    LEAF | ((len as u32) << 24) | (hop & 0x00FF_FFFF)
}

#[inline]
fn leaf_len(e: Entry) -> u8 {
    ((e >> 24) & 0x3F) as u8
}

#[inline]
fn leaf_hop(e: Entry) -> u32 {
    e & 0x00FF_FFFF
}

/// One interior node: 16 children, one cache line.
type Node = [Entry; 16];

/// The trie. Built host-side from a prefix table, then placed in simulated
/// memory; lookups charge one dependent read per level.
pub struct MultibitTrie {
    image: Rc<MultibitImage>,
    root: SimPlacement<Entry>,
    nodes: SimPlacement<Node>,
}

/// [`MultibitTrie`]'s host data: the 2¹⁶-entry root array and the interior
/// nodes, built with plain vectors so construction costs nothing in
/// simulated time.
pub struct MultibitImage {
    root: Vec<Entry>,
    nodes: Vec<Node>,
    n_prefixes: usize,
}

impl MultibitImage {
    fn new_node(&mut self) -> usize {
        self.nodes.push([0; 16]);
        self.nodes.len() - 1
    }

    /// Overwrite `slot` with a leaf if the new prefix is at least as long as
    /// what is there; push into subtrees when the slot is internal.
    fn set_leaf(&mut self, slot_node: Option<usize>, slot: usize, len: u8, hop: u32) {
        let e = match slot_node {
            None => self.root[slot],
            Some(n) => self.nodes[n][slot],
        };
        if e & INTERNAL != 0 {
            // Leaf-push into every child of the subtree.
            let child = (e & !INTERNAL) as usize;
            for s in 0..16 {
                self.set_leaf(Some(child), s, len, hop);
            }
            return;
        }
        if e & LEAF != 0 && leaf_len(e) > len {
            return; // existing longer prefix wins
        }
        let new = leaf(len, hop);
        match slot_node {
            None => self.root[slot] = new,
            Some(n) => self.nodes[n][slot] = new,
        }
    }

    /// Ensure the slot holds an internal node, pushing any existing leaf
    /// down into it; returns the node index.
    fn ensure_internal(&mut self, slot_node: Option<usize>, slot: usize) -> usize {
        let e = match slot_node {
            None => self.root[slot],
            Some(n) => self.nodes[n][slot],
        };
        if e & INTERNAL != 0 {
            return (e & !INTERNAL) as usize;
        }
        let idx = self.new_node();
        if e & LEAF != 0 {
            self.nodes[idx] = [e; 16];
        }
        let packed = INTERNAL | idx as u32;
        match slot_node {
            None => self.root[slot] = packed,
            Some(n) => self.nodes[n][slot] = packed,
        }
        idx
    }

    fn insert(&mut self, p: &PrefixEntry) {
        assert!(p.len <= 32);
        if p.len <= 16 {
            // Expand over the covered root slots.
            let base = (p.addr >> 16) as usize;
            let count = 1usize << (16 - p.len);
            let start = base & !(count - 1);
            for slot in start..start + count {
                self.set_leaf(None, slot, p.len, p.next_hop);
            }
            return;
        }
        // Descend: root slot, then nibbles at bits 16, 20, 24, 28.
        let mut node = self.ensure_internal(None, (p.addr >> 16) as usize);
        let mut consumed = 16u8;
        loop {
            let nib = ((p.addr >> (32 - consumed - 4)) & 0xF) as usize;
            if p.len <= consumed + 4 {
                // Prefix ends within this node: expand over covered slots.
                let count = 1usize << (consumed + 4 - p.len);
                let start = nib & !(count - 1);
                for slot in start..start + count {
                    self.set_leaf(Some(node), slot, p.len, p.next_hop);
                }
                return;
            }
            node = self.ensure_internal(Some(node), nib);
            consumed += 4;
        }
    }
}

impl MultibitTrie {
    /// Number of prefixes inserted.
    pub fn prefix_count(&self) -> usize {
        self.image.n_prefixes
    }

    /// Total simulated footprint in bytes (root array + nodes).
    pub fn footprint(&self) -> u64 {
        self.root.footprint() + self.nodes.footprint()
    }

    /// Host-only lookup (no simulated cost): the oracle interface for tests
    /// and for host-side tools.
    pub fn lookup_host(&self, dst: u32) -> Option<u32> {
        let mut e = self.image.root[(dst >> 16) as usize];
        let mut consumed = 16u32;
        while e & INTERNAL != 0 {
            let node = &self.image.nodes[(e & !INTERNAL) as usize];
            e = node[((dst >> (32 - consumed - 4)) & 0xF) as usize];
            consumed += 4;
        }
        if e & LEAF != 0 {
            Some(leaf_hop(e))
        } else {
            None
        }
    }
}

impl LpmTable for MultibitTrie {
    const CLASS: &'static str = "MultibitIPLookup";
    type Scratch = MultibitScratch;
    type Image = MultibitImage;

    fn image(prefixes: &[PrefixEntry]) -> MultibitImage {
        let mut image =
            MultibitImage { root: vec![0; 1 << 16], nodes: Vec::new(), n_prefixes: prefixes.len() };
        for p in prefixes {
            image.insert(p);
        }
        image
    }

    fn place(alloc: &mut DomainAllocator, image: Rc<MultibitImage>) -> Self {
        let root = SimPlacement::new(alloc, image.root.len());
        let nodes = SimPlacement::new(alloc, image.nodes.len());
        MultibitTrie { image, root, nodes }
    }

    /// One read in the root array, then one dependent 64-byte node read
    /// per level; `steps` = levels visited.
    fn lookup(&self, ctx: &mut ExecCtx<'_>, dst: u32) -> (Option<u32>, u32) {
        let mut levels = 1;
        let mut e = self.root.read(ctx, &self.image.root, (dst >> 16) as usize);
        let mut consumed = 16u32;
        while e & INTERNAL != 0 {
            let node_idx = (e & !INTERNAL) as usize;
            let node = self.nodes.read(ctx, &self.image.nodes, node_idx);
            let nib = ((dst >> (32 - consumed - 4)) & 0xF) as usize;
            e = node[nib];
            consumed += 4;
            levels += 1;
        }
        if e & LEAF != 0 {
            (Some(leaf_hop(e)), levels)
        } else {
            (None, levels)
        }
    }

    /// Level-synchronous, like [`BinaryRadixTrie`]'s: each level's node
    /// reads are independent across lanes and issue as one overlapped
    /// [`read_batch`](ExecCtx::read_batch).
    fn lookup_batch_into(
        &self,
        ctx: &mut ExecCtx<'_>,
        dsts: &[u32],
        mlp: u32,
        scratch: &mut MultibitScratch,
        out: &mut Vec<(Option<u32>, u32)>,
    ) {
        let n = dsts.len();
        let MultibitScratch { entries, consumed, levels, alive, next_alive, addrs } = scratch;
        entries.clear();
        consumed.clear();
        consumed.resize(n, 16u32);
        levels.clear();
        levels.resize(n, 1u32);
        alive.clear();
        next_alive.clear();
        addrs.clear();
        // Level 1: the root-array reads, direct-indexed by the top 16 bits.
        for (l, &dst) in dsts.iter().enumerate() {
            let i = (dst >> 16) as usize;
            push_covering_lines(addrs, self.root.addr_of(i), self.root.stride());
            let e = self.image.root[i];
            entries.push(e);
            if e & INTERNAL != 0 {
                alive.push(l);
            }
        }
        ctx.read_batch(addrs, mlp);
        // Deeper levels: one stride-4 node read per alive lane per level.
        while !alive.is_empty() {
            addrs.clear();
            next_alive.clear();
            for &l in alive.iter() {
                let node_idx = (entries[l] & !INTERNAL) as usize;
                push_covering_lines(addrs, self.nodes.addr_of(node_idx), self.nodes.stride());
                let node = &self.image.nodes[node_idx];
                let e = node[((dsts[l] >> (32 - consumed[l] - 4)) & 0xF) as usize];
                entries[l] = e;
                consumed[l] += 4;
                levels[l] += 1;
                if e & INTERNAL != 0 {
                    next_alive.push(l);
                }
            }
            ctx.read_batch(addrs, mlp);
            std::mem::swap(alive, next_alive);
        }
        out.clear();
        out.extend(entries.iter().zip(levels.iter()).map(|(&e, &lv)| {
            if e & LEAF != 0 {
                (Some(leaf_hop(e)), lv)
            } else {
                (None, lv)
            }
        }));
    }
}

/// Reusable per-lane walk state for
/// [`MultibitTrie::lookup_batch_into`] (host-side only).
#[derive(Debug, Default)]
pub struct MultibitScratch {
    entries: Vec<u32>,
    consumed: Vec<u32>,
    levels: Vec<u32>,
    alive: Vec<usize>,
    next_alive: Vec<usize>,
    addrs: Vec<u64>,
}

/// A binary (bit-at-a-time) radix trie with best-match tracking — the
/// shape of Click's `RadixTrie`. See the module docs.
pub struct BinaryRadixTrie {
    image: Rc<BinaryRadixImage>,
    nodes: SimPlacement<RadixNode>,
    routes: SimPlacement<u32>,
}

/// A trie node's host record, `[left, right, best]`: `u32::MAX` = no
/// child, `best` 0 = no prefix ends at this node (otherwise a packed leaf
/// whose low bits index the routes).
type RadixNode = [u32; 3];

/// Simulated bytes per trie node: 24, the footprint of Click's
/// pointer-based C++ trie nodes (two child pointers plus prefix/route
/// metadata). Every node read charges this span.
const NODE_SLOT_BYTES: u64 = 24;

/// Simulated bytes per route entry: next hop, interface, MTU and flags, as
/// in Click where the matched trie leaf points at a route structure.
const ROUTE_SLOT_BYTES: u64 = 16;

/// [`BinaryRadixTrie`]'s host data: only the fields a lookup reads.
pub struct BinaryRadixImage {
    /// One 12-B record per node, each in a `NODE_SLOT_BYTES` simulated
    /// slot.
    nodes: Vec<RadixNode>,
    /// One next hop per prefix, each in a `ROUTE_SLOT_BYTES` simulated
    /// slot: the lookup's final dependent read.
    routes: Vec<u32>,
}

const NO_CHILD: u32 = u32::MAX;
const NEW_NODE: RadixNode = [NO_CHILD, NO_CHILD, 0];

impl BinaryRadixTrie {
    /// Number of prefixes inserted (one route entry each).
    pub fn prefix_count(&self) -> usize {
        self.routes.len()
    }

    /// Total simulated footprint in bytes (nodes + route entries).
    pub fn footprint(&self) -> u64 {
        self.nodes.footprint() + self.routes.footprint()
    }

    /// Host-only lookup (no simulated cost) — the test oracle interface.
    pub fn lookup_host(&self, dst: u32) -> Option<u32> {
        let mut cur = 0usize;
        let mut best: u32 = 0;
        for i in 0..=32u32 {
            let node = &self.image.nodes[cur];
            if node[2] != 0 {
                best = node[2];
            }
            if i == 32 {
                break;
            }
            let bit = ((dst >> (31 - i)) & 1) as usize;
            if node[bit] == NO_CHILD {
                break;
            }
            cur = node[bit] as usize;
        }
        if best != 0 {
            Some(self.image.routes[leaf_hop(best) as usize])
        } else {
            None
        }
    }
}

impl LpmTable for BinaryRadixTrie {
    const CLASS: &'static str = "RadixIPLookup";
    type Scratch = LookupScratch;
    type Image = BinaryRadixImage;

    fn image(prefixes: &[PrefixEntry]) -> BinaryRadixImage {
        let mut nodes = vec![NEW_NODE];
        let mut routes = Vec::with_capacity(prefixes.len());
        for (pi, p) in prefixes.iter().enumerate() {
            assert!(p.len <= 32);
            routes.push(p.next_hop);
            let mut cur = 0usize;
            for i in 0..p.len {
                let bit = ((p.addr >> (31 - i)) & 1) as usize;
                let child = nodes[cur][bit];
                cur = if child == NO_CHILD {
                    nodes.push(NEW_NODE);
                    let idx = (nodes.len() - 1) as u32;
                    nodes[cur][bit] = idx;
                    idx as usize
                } else {
                    child as usize
                };
            }
            let existing = nodes[cur][2];
            if existing == 0 || leaf_len(existing) <= p.len {
                nodes[cur][2] = leaf(p.len, pi as u32);
            }
        }
        BinaryRadixImage { nodes, routes }
    }

    fn place(alloc: &mut DomainAllocator, image: Rc<BinaryRadixImage>) -> Self {
        let nodes = SimPlacement::with_slot(alloc, image.nodes.len(), NODE_SLOT_BYTES);
        let routes = SimPlacement::with_slot(alloc, image.routes.len(), ROUTE_SLOT_BYTES);
        BinaryRadixTrie { image, nodes, routes }
    }

    /// One dependent node read per level, then the matched route entry;
    /// `steps` counts both.
    fn lookup(&self, ctx: &mut ExecCtx<'_>, dst: u32) -> (Option<u32>, u32) {
        let mut cur = 0usize;
        let mut best: u32 = 0;
        let mut levels = 0u32;
        for i in 0..=32u32 {
            let node = self.nodes.read(ctx, &self.image.nodes, cur);
            levels += 1;
            if node[2] != 0 {
                best = node[2];
            }
            if i == 32 {
                break;
            }
            let bit = ((dst >> (31 - i)) & 1) as usize;
            let child = node[bit];
            if child == NO_CHILD {
                break;
            }
            cur = child as usize;
        }
        if best != 0 {
            // Final dependent read: the matched route entry.
            let hop = self.routes.read(ctx, &self.image.routes, leaf_hop(best) as usize);
            (Some(hop), levels + 1)
        } else {
            (None, levels)
        }
    }

    /// Walks all lanes level-synchronously, issuing each level's node reads
    /// as one overlapped [`read_batch`](ExecCtx::read_batch) (the lanes'
    /// reads are independent of each other, dependent only within a lane —
    /// exactly the G-opt/"software lookahead" structure), then the matched
    /// route entries as one more.
    fn lookup_batch_into(
        &self,
        ctx: &mut ExecCtx<'_>,
        dsts: &[u32],
        mlp: u32,
        scratch: &mut LookupScratch,
        out: &mut Vec<(Option<u32>, u32)>,
    ) {
        let n = dsts.len();
        // Per-lane walk state (reused across calls).
        let LookupScratch { cur, best, levels, alive, next_alive, addrs } = scratch;
        cur.clear();
        cur.resize(n, 0usize);
        best.clear();
        best.resize(n, 0u32);
        levels.clear();
        levels.resize(n, 0u32);
        alive.clear();
        alive.extend(0..n);
        next_alive.clear();
        for depth in 0..=32u32 {
            if alive.is_empty() {
                break;
            }
            // One fused pass per level: gather the level's node lines and
            // advance each lane host-side. Host reads charge nothing, so
            // the charge sequence (this level's lines, in lane order) is
            // identical to charging first and advancing second.
            addrs.clear();
            next_alive.clear();
            for &l in alive.iter() {
                push_covering_lines(addrs, self.nodes.addr_of(cur[l]), self.nodes.stride());
                let node = &self.image.nodes[cur[l]];
                levels[l] += 1;
                if node[2] != 0 {
                    best[l] = node[2];
                }
                if depth == 32 {
                    continue;
                }
                let bit = ((dsts[l] >> (31 - depth)) & 1) as usize;
                let child = node[bit];
                if child != NO_CHILD {
                    cur[l] = child as usize;
                    next_alive.push(l);
                }
            }
            ctx.read_batch(addrs, mlp);
            std::mem::swap(alive, next_alive);
        }
        // Final dependent reads: the matched route entries, overlapped.
        addrs.clear();
        for &b in best.iter().filter(|&&b| b != 0) {
            push_covering_lines(
                addrs,
                self.routes.addr_of(leaf_hop(b) as usize),
                self.routes.stride(),
            );
        }
        ctx.read_batch(addrs, mlp);
        out.clear();
        out.extend((0..n).map(|l| {
            if best[l] != 0 {
                (Some(self.image.routes[leaf_hop(best[l]) as usize]), levels[l] + 1)
            } else {
                (None, levels[l])
            }
        }));
    }
}

/// Reusable per-lane walk state for
/// [`BinaryRadixTrie::lookup_batch_into`] (host-side only).
#[derive(Debug, Default)]
pub struct LookupScratch {
    cur: Vec<usize>,
    best: Vec<u32>,
    levels: Vec<u32>,
    alive: Vec<usize>,
    next_alive: Vec<usize>,
    addrs: Vec<u64>,
}

/// The IP-lookup element: full longest-prefix match per packet through
/// table `T`; packets with no route are dropped. All three classes share
/// Fig. 7's `radix_ip_lookup` function tag, so per-function cost splits
/// line up across the structures.
pub struct IpLookup<T: LpmTable> {
    table: T,
    cost: CostModel,
    /// Batched-walk scratch (reused every batch).
    scratch: T::Scratch,
    /// Scratch header addresses (reused every batch).
    hdrs: Vec<u64>,
    /// Scratch destinations / lane maps / results (reused every batch).
    dsts: Vec<u32>,
    lanes: Vec<usize>,
    results: Vec<(Option<u32>, u32)>,
    /// Successful lookups.
    pub found: u64,
    /// Lookups with no matching route (packet dropped).
    pub no_route: u64,
    /// Sum of the walks' steps (for average-depth diagnostics).
    pub steps_total: u64,
}

/// `RadixIPLookup`: the binary radix trie (the paper's IP workload core).
pub type RadixIpLookup = IpLookup<BinaryRadixTrie>;

/// `MultibitIPLookup`, the ablation: the same routes in 3–5 reads instead
/// of ~15. Routes identically; contends differently.
pub type MultibitIpLookup = IpLookup<MultibitTrie>;

/// Which BGP-shaped table an image is: table type, prefix count, seed.
type ImageKey = (TypeId, usize, u64);

thread_local! {
    /// The host images [`IpLookup::bgp`] has handed out. Entries are weak:
    /// an image lives exactly as long as some replica holds it, and dead
    /// entries are pruned on insert.
    static BGP_IMAGES: RefCell<HashMap<ImageKey, Weak<dyn Any>>> = RefCell::new(HashMap::new());
}

impl<T: LpmTable> IpLookup<T> {
    /// Build the element (and its table) in `alloc`'s domain.
    pub fn new(alloc: &mut DomainAllocator, prefixes: &[PrefixEntry], cost: CostModel) -> Self {
        Self::over(T::build(alloc, prefixes), cost)
    }

    /// The element over the BGP-shaped table of `n_prefixes` prefixes that
    /// structure seed `seed` generates — what every standard chain and
    /// config-built lookup runs — placed in `alloc`'s domain. While another
    /// replica of the same table is alive on this thread, the new one
    /// shares its host image and takes only its own simulated range.
    pub fn bgp(alloc: &mut DomainAllocator, n_prefixes: usize, seed: u64, cost: CostModel) -> Self {
        let key = (TypeId::of::<T>(), n_prefixes, seed);
        let live = BGP_IMAGES.with(|m| m.borrow().get(&key).and_then(Weak::upgrade));
        let image = match live {
            Some(image) => image.downcast().expect("images are keyed by table type"),
            None => {
                let image = Rc::new(T::image(&generate_bgp_table(n_prefixes, seed ^ 0x1111)));
                let erased: Rc<dyn Any> = image.clone();
                BGP_IMAGES.with(|m| {
                    let mut m = m.borrow_mut();
                    m.retain(|_, w| w.strong_count() > 0);
                    m.insert(key, Rc::downgrade(&erased));
                });
                image
            }
        };
        Self::over(T::place(alloc, image), cost)
    }

    fn over(table: T, cost: CostModel) -> Self {
        IpLookup {
            table,
            cost,
            scratch: T::Scratch::default(),
            hdrs: Vec::new(),
            dsts: Vec::new(),
            lanes: Vec::new(),
            results: Vec::new(),
            found: 0,
            no_route: 0,
            steps_total: 0,
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &T {
        &self.table
    }

    /// Average steps per lookup so far (diagnostics).
    pub fn avg_depth(&self) -> f64 {
        let n = self.found + self.no_route;
        if n == 0 {
            0.0
        } else {
            self.steps_total as f64 / n as f64
        }
    }

    /// Record and translate one lookup result.
    #[inline]
    fn verdict(&mut self, hop: Option<u32>) -> Action {
        if hop.is_some() {
            self.found += 1;
            Action::Out(0)
        } else {
            self.no_route += 1;
            Action::Drop
        }
    }
}

impl<T: LpmTable> Element for IpLookup<T> {
    fn class_name(&self) -> &'static str {
        T::CLASS
    }

    fn tag(&self) -> &'static str {
        "radix_ip_lookup"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        // Re-read the destination from the header line (L1 hit after
        // CheckIPHeader touched it).
        if pkt.buf_addr != 0 {
            ctx.read(pkt.buf_addr + pkt.l3_offset() as u64 + 16);
        }
        let Ok(ip) = pkt.ipv4() else { return Action::Drop };
        let (hop, steps) = self.table.lookup(ctx, u32::from(ip.dst));
        CostModel::charge(ctx, (self.cost.lookup_step.0 * steps as u64,
                                self.cost.lookup_step.1 * steps as u64));
        self.steps_total += steps as u64;
        self.verdict(hop)
    }

    fn process_vector(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        pkts: &mut [Packet],
        actions: &mut Vec<Action>,
    ) {
        // Header touches for the whole vector, overlapped.
        self.hdrs.clear();
        self.hdrs
            .extend(header_addrs(pkts, |p| p.l3_offset() as u64 + 16));
        ctx.read_batch(&self.hdrs, BATCH_MLP);
        // Parse destinations host-side; unparsable packets drop as in the
        // scalar path, the rest walk the table together.
        self.dsts.clear();
        self.lanes.clear();
        for (i, pkt) in pkts.iter().enumerate() {
            if let Ok(ip) = pkt.ipv4() {
                self.dsts.push(u32::from(ip.dst));
                self.lanes.push(i);
            }
        }
        self.table
            .lookup_batch_into(ctx, &self.dsts, BATCH_MLP, &mut self.scratch, &mut self.results);
        let mut total_steps = 0u64;
        let verdict_base = actions.len();
        actions.resize(verdict_base + pkts.len(), Action::Drop);
        for i in 0..self.lanes.len() {
            let (hop, steps) = self.results[i];
            total_steps += steps as u64;
            actions[verdict_base + self.lanes[i]] = self.verdict(hop);
        }
        self.steps_total += total_steps;
        CostModel::charge(ctx, (self.cost.lookup_step.0 * total_steps,
                                self.cost.lookup_step.1 * total_steps));
    }
}

/// The checks every [`LpmTable`] and the element over it must pass, generic
/// so each table's test module instantiates them, and the prefix table and
/// packet stream they share.
#[cfg(test)]
pub(crate) mod checks {
    use super::*;
    use crate::element::test_util::{machine, packet};
    use pp_net::packet::PacketBuilder;
    use pp_sim::counters::Counts;
    use pp_sim::machine::Machine;
    use pp_sim::types::{CoreId, Cycles, MemDomain};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::net::Ipv4Addr;

    /// A BGP-shaped table with extra /25–/32 prefixes layered under its
    /// /24s, so DIR-24-8's spill stage is exercised.
    pub fn bgp_with_long(n: usize, seed: u64) -> Vec<PrefixEntry> {
        let mut t = generate_bgp_table(n, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD128);
        let slashes24: Vec<u32> =
            t.iter().filter(|e| e.len == 24).map(|e| e.addr).take(64).collect();
        for (i, &base) in slashes24.iter().enumerate() {
            let len = 25 + (i % 8) as u8;
            let shift = 32 - len as u32;
            // Random low byte under the /24, canonicalized to `len` bits.
            let addr = ((base | (rng.random::<u32>() & 0xFF)) >> shift) << shift;
            t.push(PrefixEntry { addr, len, next_hop: rng.random_range(0..64) });
        }
        t
    }

    /// The LPM-element pin: build an element with `new` over
    /// `bgp_with_long(2000, 11)` (less 240/4's cover) on a fresh machine and push a fixed
    /// 256-packet stream through `process_batch` in vectors of `vector`.
    /// The stream has NIC-buffer addresses (so the header touch is
    /// charged), seeded random destinations with every eighth inside a /24
    /// that holds a longer prefix, and two frames that do not parse as
    /// IPv4. Returns the element, core 0's total `Counts` and its clock.
    pub fn lpm_pin_run<E: Element>(
        new: fn(&mut DomainAllocator, &[PrefixEntry], CostModel) -> E,
        vector: usize,
    ) -> (E, Counts, Cycles) {
        let mut table = bgp_with_long(2000, 11);
        // Un-route 240/4's covering /8s so some destinations have no route.
        table.retain(|e| !(e.len == 8 && e.addr >> 28 == 0xF));
        let long: Vec<u32> = table.iter().filter(|e| e.len > 24).map(|e| e.addr).collect();
        let mut m = machine();
        let mut el = new(m.allocator(MemDomain(0)), &table, CostModel::default());
        let bufs = m.allocator(MemDomain(0)).alloc_lines(256 * 2048);
        let mut rng = SmallRng::seed_from_u64(0x91);
        let mut pkts: Vec<Packet> = (0..256u64)
            .map(|i| {
                let dst = if i % 8 == 7 {
                    (long[(i / 8) as usize % long.len()] & !0xFF) | (rng.random::<u32>() & 0xFF)
                } else {
                    rng.random()
                };
                let mut p = PacketBuilder::default().udp(
                    Ipv4Addr::new(10, 1, 2, 3),
                    Ipv4Addr::from(dst),
                    40_000,
                    53,
                    &[0xAB; 10],
                );
                p.buf_addr = bufs + i * 2048;
                if i == 100 || i == 200 {
                    p.data[14] = 0x65; // IP version 6: `ipv4()` fails
                }
                p
            })
            .collect();
        let mut actions = Vec::new();
        {
            let mut ctx = m.ctx(CoreId(0));
            for chunk in pkts.chunks_mut(vector) {
                el.process_batch(&mut ctx, chunk, &mut actions);
            }
        }
        assert_eq!(actions.len(), 256);
        let core = m.core(CoreId(0));
        (el, core.counters.total(), core.clock)
    }

    fn element<T: LpmTable>(prefixes: &[PrefixEntry]) -> (Machine, IpLookup<T>) {
        let mut m = machine();
        let el = IpLookup::new(m.allocator(MemDomain(0)), prefixes, CostModel::default());
        (m, el)
    }

    pub fn batch_results_equal_scalar_results<T: LpmTable>() {
        let prefixes = bgp_with_long(2000, 5);
        let mut m = machine();
        let t = T::build(m.allocator(MemDomain(0)), &prefixes);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut dsts: Vec<u32> = (0..200).map(|_| rng.random()).collect();
        // Duplicate destinations must behave identically per lane.
        dsts.extend_from_slice(&dsts.clone()[..50]);
        let mut ctx = m.ctx(CoreId(0));
        let scalar: Vec<(Option<u32>, u32)> =
            dsts.iter().map(|&d| t.lookup(&mut ctx, d)).collect();
        let mut out = Vec::new();
        t.lookup_batch_into(&mut ctx, &dsts, BATCH_MLP, &mut T::Scratch::default(), &mut out);
        assert_eq!(scalar, out, "{}", T::CLASS);
    }

    pub fn batch_of_one_is_charge_identical_to_scalar<T: LpmTable>() {
        let prefixes = bgp_with_long(500, 13);
        let (mut ms, mut el_s) = element::<T>(&prefixes);
        let (mut mb, mut el_b) = element::<T>(&prefixes);
        let mut pkt = packet();
        let mut pkt2 = pkt.clone();
        let a = {
            let mut ctx = ms.ctx(CoreId(0));
            el_s.process(&mut ctx, &mut pkt)
        };
        let mut actions = Vec::new();
        {
            let mut ctx = mb.ctx(CoreId(0));
            el_b.process_batch(&mut ctx, std::slice::from_mut(&mut pkt2), &mut actions);
        }
        assert_eq!(vec![a], actions, "{}", T::CLASS);
        assert_eq!(ms.core(CoreId(0)).clock, mb.core(CoreId(0)).clock, "{}", T::CLASS);
        assert_eq!(
            ms.core(CoreId(0)).counters.total(),
            mb.core(CoreId(0)).counters.total(),
            "{}",
            T::CLASS
        );
    }

    /// The point of batching the walk: fewer dependent stalls.
    pub fn batched_element_charges_less_than_scalar<T: LpmTable>() {
        let prefixes = bgp_with_long(2000, 11);
        let (mut ms, mut el_s) = element::<T>(&prefixes);
        let (mut mb, mut el_b) = element::<T>(&prefixes);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut pkts: Vec<Packet> = (0..64)
            .map(|_| {
                PacketBuilder::default().udp(
                    Ipv4Addr::new(1, 2, 3, 4),
                    Ipv4Addr::from(rng.random::<u32>()),
                    1000,
                    53,
                    b"x",
                )
            })
            .collect();
        let mut pkts2 = pkts.clone();
        let mut scalar_actions = Vec::new();
        {
            let mut ctx = ms.ctx(CoreId(0));
            for p in pkts.iter_mut() {
                scalar_actions.push(el_s.process(&mut ctx, p));
            }
        }
        let mut batch_actions = Vec::new();
        {
            let mut ctx = mb.ctx(CoreId(0));
            el_b.process_batch(&mut ctx, &mut pkts2, &mut batch_actions);
        }
        assert_eq!(scalar_actions, batch_actions, "{}", T::CLASS);
        assert_eq!(
            (el_s.found, el_s.no_route, el_s.steps_total),
            (el_b.found, el_b.no_route, el_b.steps_total),
            "{}",
            T::CLASS
        );
        assert!(
            mb.core(CoreId(0)).clock < ms.core(CoreId(0)).clock,
            "batched {} walk must be cheaper: batch {} vs scalar {}",
            T::CLASS,
            mb.core(CoreId(0)).clock,
            ms.core(CoreId(0)).clock
        );
    }

    /// Routes under the one prefix, drops everything else; the walks stay
    /// within the table's `max_depth` steps.
    pub fn element_routes_and_drops<T: LpmTable>(max_depth: f64) {
        let table = vec![PrefixEntry { addr: 0x0a00_0000, len: 8, next_hop: 1 }];
        let (mut m, mut el) = element::<T>(&table);
        assert_eq!(el.class_name(), T::CLASS);
        let mut ctx = m.ctx(CoreId(0));
        // 93.184.216.34 is not under 10/8.
        let mut pkt = packet();
        assert_eq!(el.process(&mut ctx, &mut pkt), Action::Drop);
        assert_eq!(el.no_route, 1);
        // A 10/8 destination is found.
        let mut pkt = PacketBuilder::default().udp(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(10, 9, 9, 9),
            1,
            2,
            b"x",
        );
        assert_eq!(el.process(&mut ctx, &mut pkt), Action::Out(0));
        assert_eq!(el.found, 1);
        assert!((1.0..=max_depth).contains(&el.avg_depth()), "{}", el.avg_depth());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::checks::lpm_pin_run;
    use crate::element::test_util::machine;
    use pp_net::gen::prefixes::{generate_prefixes, linear_lpm};
    use pp_sim::machine::Machine;
    use pp_sim::types::{CoreId, MemDomain};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn build(prefixes: &[PrefixEntry]) -> (pp_sim::machine::Machine, MultibitTrie) {
        let mut m = machine();
        let trie = MultibitTrie::build(m.allocator(MemDomain(0)), prefixes);
        (m, trie)
    }

    #[test]
    fn exact_slots_and_lpm_ordering() {
        let table = vec![
            PrefixEntry { addr: 0x0a00_0000, len: 8, next_hop: 1 },
            PrefixEntry { addr: 0x0a01_0000, len: 16, next_hop: 2 },
            PrefixEntry { addr: 0x0a01_0200, len: 24, next_hop: 3 },
            PrefixEntry { addr: 0x0a01_0203, len: 32, next_hop: 4 },
        ];
        let (_m, trie) = build(&table);
        assert_eq!(trie.lookup_host(0x0a01_0203), Some(4));
        assert_eq!(trie.lookup_host(0x0a01_0204), Some(3));
        assert_eq!(trie.lookup_host(0x0a01_ff00), Some(2));
        assert_eq!(trie.lookup_host(0x0aff_0000), Some(1));
        assert_eq!(trie.lookup_host(0x0b00_0000), None);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut table = vec![
            PrefixEntry { addr: 0x0a01_0203, len: 32, next_hop: 4 },
            PrefixEntry { addr: 0x0a01_0200, len: 24, next_hop: 3 },
            PrefixEntry { addr: 0x0a00_0000, len: 8, next_hop: 1 },
            PrefixEntry { addr: 0x0a01_0000, len: 16, next_hop: 2 },
        ];
        let (_m, t1) = build(&table);
        table.reverse();
        let (_m2, t2) = build(&table);
        for ip in [0x0a01_0203u32, 0x0a01_0204, 0x0a01_ff00, 0x0aff_0000, 0x0b00_0000] {
            assert_eq!(t1.lookup_host(ip), t2.lookup_host(ip), "ip {ip:#x}");
        }
    }

    #[test]
    fn matches_linear_oracle_on_random_table() {
        let prefixes = generate_prefixes(2000, 77, true);
        let (_m, trie) = build(&prefixes);
        let mut rng = SmallRng::seed_from_u64(123);
        for _ in 0..3000 {
            let ip: u32 = rng.random();
            let want = linear_lpm(&prefixes, ip).map(|e| e.next_hop);
            assert_eq!(trie.lookup_host(ip), want, "mismatch for {ip:#x}");
        }
    }

    #[test]
    fn simulated_lookup_agrees_with_host_lookup() {
        let prefixes = generate_prefixes(500, 9, true);
        let (mut m, trie) = build(&prefixes);
        let mut ctx = m.ctx(CoreId(0));
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let ip: u32 = rng.random();
            let (hop, levels) = trie.lookup(&mut ctx, ip);
            assert_eq!(hop, trie.lookup_host(ip));
            assert!((1..=5).contains(&levels));
        }
        // Dependent reads were charged.
        assert!(m.core(CoreId(0)).counters.total().l1_refs >= 200);
    }

    #[test]
    fn footprint_is_cacheable_scale() {
        // The paper-scale table must produce a multi-MB but cacheable trie.
        let prefixes = generate_prefixes(128_000, 42, true);
        let (_m, trie) = build(&prefixes);
        let mb = trie.footprint() as f64 / (1024.0 * 1024.0);
        assert!(
            mb > 1.0 && mb < 12.0,
            "trie should be multi-MB but below L3 size, got {mb:.1} MB"
        );
    }

    fn build_binary(prefixes: &[PrefixEntry]) -> (pp_sim::machine::Machine, BinaryRadixTrie) {
        let mut m = machine();
        let trie = BinaryRadixTrie::build(m.allocator(MemDomain(0)), prefixes);
        (m, trie)
    }

    #[test]
    fn binary_trie_lpm_ordering() {
        let table = vec![
            PrefixEntry { addr: 0x0a00_0000, len: 8, next_hop: 1 },
            PrefixEntry { addr: 0x0a01_0000, len: 16, next_hop: 2 },
            PrefixEntry { addr: 0x0a01_0200, len: 24, next_hop: 3 },
            PrefixEntry { addr: 0x0a01_0203, len: 32, next_hop: 4 },
        ];
        let (_m, trie) = build_binary(&table);
        assert_eq!(trie.lookup_host(0x0a01_0203), Some(4));
        assert_eq!(trie.lookup_host(0x0a01_0204), Some(3));
        assert_eq!(trie.lookup_host(0x0a01_ff00), Some(2));
        assert_eq!(trie.lookup_host(0x0aff_0000), Some(1));
        assert_eq!(trie.lookup_host(0x0b00_0000), None);
    }

    #[test]
    fn binary_trie_matches_linear_oracle() {
        use pp_net::gen::prefixes::generate_bgp_table;
        let prefixes = generate_bgp_table(3000, 21);
        let (_m, trie) = build_binary(&prefixes);
        let mut rng = SmallRng::seed_from_u64(77);
        for _ in 0..2000 {
            let ip: u32 = rng.random();
            let want = linear_lpm(&prefixes, ip).map(|e| e.next_hop);
            assert_eq!(trie.lookup_host(ip), want, "mismatch for {ip:#x}");
        }
    }

    #[test]
    fn binary_and_multibit_agree() {
        use pp_net::gen::prefixes::generate_bgp_table;
        let prefixes = generate_bgp_table(2000, 5);
        let (_m1, bin) = build_binary(&prefixes);
        let (_m2, multi) = build(&prefixes);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..2000 {
            let ip: u32 = rng.random();
            assert_eq!(bin.lookup_host(ip), multi.lookup_host(ip), "ip {ip:#x}");
        }
    }

    #[test]
    fn binary_trie_walks_deep_under_bgp_table() {
        use pp_net::gen::prefixes::generate_bgp_table;
        let prefixes = generate_bgp_table(20_000, 9);
        let (mut m, trie) = build_binary(&prefixes);
        let mut ctx = m.ctx(CoreId(0));
        let mut rng = SmallRng::seed_from_u64(4);
        let mut total_levels = 0u64;
        for _ in 0..500 {
            let ip: u32 = rng.random();
            let (_, levels) = trie.lookup(&mut ctx, ip);
            total_levels += levels as u64;
        }
        let avg = total_levels as f64 / 500.0;
        assert!(
            avg > 9.0,
            "BGP-shaped tables must force deep walks, avg depth {avg:.1}"
        );
    }

    #[test]
    fn binary_trie_paper_scale_footprint() {
        use pp_net::gen::prefixes::generate_bgp_table;
        let prefixes = generate_bgp_table(128_000, 42);
        let (_m, trie) = build_binary(&prefixes);
        let mb = trie.footprint() as f64 / (1024.0 * 1024.0);
        assert!(
            mb > 8.0 && mb < 24.0,
            "trie should be in the paper's barely-cacheable range, got {mb:.1} MB"
        );
    }

    /// The host image holds 12-B nodes and 4-B next hops; the simulated
    /// slots stay 24 B and 16 B, laid out exactly as host records of the
    /// slot's width would be.
    #[test]
    fn binary_trie_host_records_are_narrower_than_their_slots() {
        use pp_net::gen::prefixes::generate_bgp_table;
        use std::mem::size_of_val;
        let (_m, trie) = build_binary(&generate_bgp_table(128_000, 42));
        assert_eq!((size_of_val(&trie.image.nodes[0]), trie.nodes.stride()), (12, 24));
        assert_eq!((size_of_val(&trie.image.routes[0]), trie.routes.stride()), (4, 16));
        assert_eq!(trie.footprint(), 18_729_992);
        // A record as wide as each slot, at the same alignment, placed with
        // `new` from the same unaligned allocator position.
        type WideNode = [RadixNode; 2];
        type WideRoute = [u32; 4];
        let (nn, nr) = (trie.nodes.len(), trie.routes.len());
        let mut wide = DomainAllocator::new(MemDomain(0));
        wide.alloc(5, 1);
        let mut narrow = wide.clone();
        let w = (
            SimPlacement::<WideNode>::new(&mut wide, nn),
            SimPlacement::<WideRoute>::new(&mut wide, nr),
        );
        let n = (
            SimPlacement::<RadixNode>::with_slot(&mut narrow, nn, NODE_SLOT_BYTES),
            SimPlacement::<u32>::with_slot(&mut narrow, nr, ROUTE_SLOT_BYTES),
        );
        assert_eq!(
            (w.0.base(), w.0.stride(), w.0.footprint(), w.0.addr_of(nn - 1)),
            (n.0.base(), n.0.stride(), n.0.footprint(), n.0.addr_of(nn - 1))
        );
        assert_eq!(
            (w.1.base(), w.1.stride(), w.1.footprint(), w.1.addr_of(nr - 1)),
            (n.1.base(), n.1.stride(), n.1.footprint(), n.1.addr_of(nr - 1))
        );
        assert_eq!(wide.used(), narrow.used());
    }

    /// The paper-scale routing table every standard chain builds, placed in
    /// a fresh machine: where its nodes and routes land and how much they
    /// span. The host image may shrink; the simulated layout may not.
    #[test]
    fn binary_trie_paper_scale_layout_is_pinned() {
        let mut m = machine();
        let el = RadixIpLookup::bgp(m.allocator(MemDomain(0)), 128_000, 1, CostModel::default());
        let t = el.table();
        assert_eq!(m.allocator(MemDomain(0)).used(), 18_700_464);
        let (nn, nr) = (t.nodes.len(), t.routes.len());
        assert_eq!((nn, nr), (693_850, 128_000));
        assert_eq!((t.nodes.base(), t.nodes.stride(), t.nodes.footprint()), (64, 24, 16_652_400));
        assert_eq!((t.nodes.addr_of(0), t.nodes.addr_of(nn - 1)), (64, 16_652_440));
        assert_eq!(
            (t.routes.base(), t.routes.stride(), t.routes.footprint()),
            (16_652_464, 16, 2_048_000)
        );
        assert_eq!((t.routes.addr_of(0), t.routes.addr_of(nr - 1)), (16_652_464, 18_700_448));
    }

    #[test]
    fn binary_simulated_matches_host() {
        use pp_net::gen::prefixes::generate_bgp_table;
        let prefixes = generate_bgp_table(1000, 2);
        let (mut m, trie) = build_binary(&prefixes);
        let mut ctx = m.ctx(CoreId(0));
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..300 {
            let ip: u32 = rng.random();
            let (hop, _) = trie.lookup(&mut ctx, ip);
            assert_eq!(hop, trie.lookup_host(ip));
        }
    }

    #[test]
    fn batch_results_equal_scalar_results() {
        checks::batch_results_equal_scalar_results::<BinaryRadixTrie>();
        checks::batch_results_equal_scalar_results::<MultibitTrie>();
    }

    #[test]
    fn batch_of_one_is_charge_identical_to_scalar() {
        checks::batch_of_one_is_charge_identical_to_scalar::<BinaryRadixTrie>();
        checks::batch_of_one_is_charge_identical_to_scalar::<MultibitTrie>();
        // Pin, taken from the per-table element before the three became one
        // `IpLookup<T>`: the fixed 256-packet stream in vectors of 1.
        let (el, counts, clock) = lpm_pin_run(MultibitIpLookup::new, 1);
        assert_eq!((el.found, el.no_route), (245, 9));
        assert_eq!(clock, 97_575);
        assert_eq!(
            counts,
            pp_sim::counters::Counts {
                instructions: 3433,
                compute_cycles: 2471,
                stall_cycles: 95_104,
                l1_refs: 609,
                l1_hits: 15,
                l2_refs: 594,
                l2_hits: 0,
                l3_refs: 594,
                l3_hits: 0,
                l3_misses: 594,
                remote_accesses: 0,
                packets: 0,
            }
        );
        // The same stream through the binary radix trie, the paper's table.
        let (el, counts, clock) = lpm_pin_run(RadixIpLookup::new, 1);
        assert_eq!((el.found, el.no_route), (245, 9));
        assert_eq!(clock, 219_814);
        assert_eq!(
            counts,
            pp_sim::counters::Counts {
                instructions: 33_569,
                compute_cycles: 25_228,
                stall_cycles: 194_586,
                l1_refs: 4737,
                l1_hits: 3524,
                l2_refs: 1213,
                l2_hits: 89,
                l3_refs: 1124,
                l3_hits: 2,
                l3_misses: 1122,
                remote_accesses: 0,
                packets: 0,
            }
        );
    }

    #[test]
    fn batched_element_charges_less_than_scalar() {
        checks::batched_element_charges_less_than_scalar::<BinaryRadixTrie>();
        checks::batched_element_charges_less_than_scalar::<MultibitTrie>();
        // Pin, taken from the per-table element before the three became one
        // `IpLookup<T>`: the fixed 256-packet stream in vectors of 64.
        let (el, counts, clock) = lpm_pin_run(MultibitIpLookup::new, 64);
        assert_eq!((el.found, el.no_route), (245, 9));
        assert_eq!(clock, 27_113);
        // Same accesses as the one-packet vectors; only the stall overlaps.
        let (_, scalar_counts, _) = lpm_pin_run(MultibitIpLookup::new, 1);
        assert_eq!(counts, pp_sim::counters::Counts { stall_cycles: 24_642, ..scalar_counts });
        let (el, counts, clock) = lpm_pin_run(RadixIpLookup::new, 64);
        assert_eq!((el.found, el.no_route), (245, 9));
        assert_eq!(clock, 74_777);
        // Same lines as the one-packet vectors; the batch's order also
        // turns nine L2 references into L1 hits.
        let (_, scalar_counts, _) = lpm_pin_run(RadixIpLookup::new, 1);
        assert_eq!(
            counts,
            pp_sim::counters::Counts {
                stall_cycles: 49_549,
                l1_hits: 3533,
                l2_refs: 1204,
                l2_hits: 80,
                ..scalar_counts
            }
        );
    }

    #[test]
    fn element_routes_and_drops() {
        checks::element_routes_and_drops::<BinaryRadixTrie>(34.0);
        checks::element_routes_and_drops::<MultibitTrie>(5.0);
    }

    /// `(live, dead)` entries in this thread's image map.
    fn image_entries() -> (usize, usize) {
        BGP_IMAGES.with(|m| {
            let m = m.borrow();
            let live = m.values().filter(|w| w.strong_count() > 0).count();
            (live, m.len() - live)
        })
    }

    /// Two `bgp` replicas in one machine share one host image, sit in
    /// disjoint simulated ranges, and charge exactly what a privately built
    /// table in the same range charges; any other table gets its own image,
    /// and an image dies with its last replica.
    #[test]
    fn bgp_replicas_share_the_host_image_and_keep_private_ranges() {
        let cost = CostModel::default();
        let (n, seed) = (4000, 9);
        let mut rng = SmallRng::seed_from_u64(12);
        let dsts: Vec<u32> = (0..300).map(|_| rng.random()).collect();
        let walk = |m: &mut Machine, t: &BinaryRadixTrie| {
            let mut ctx = m.ctx(CoreId(0));
            let routes: Vec<_> = dsts.iter().map(|&d| t.lookup(&mut ctx, d)).collect();
            (routes, m.core(CoreId(0)).counters.total())
        };
        let next_addr = |m: &mut Machine| MemDomain(0).base() + m.allocator(MemDomain(0)).used();

        let mut m = machine();
        let a = RadixIpLookup::bgp(m.allocator(MemDomain(0)), n, seed, cost);
        let after_a = next_addr(&mut m);
        let b = RadixIpLookup::bgp(m.allocator(MemDomain(0)), n, seed, cost);
        let (ta, tb) = (a.table(), b.table());
        assert!(Rc::ptr_eq(&ta.image, &tb.image));
        assert_eq!(tb.nodes.base(), after_a);
        assert!(ta.routes.base() + ta.routes.footprint() <= tb.nodes.base());
        assert_eq!((ta.footprint(), ta.prefix_count()), (tb.footprint(), tb.prefix_count()));
        let (routes, shared) = walk(&mut m, tb);

        let others = [
            RadixIpLookup::bgp(m.allocator(MemDomain(0)), n + 1, seed, cost).table.image,
            RadixIpLookup::bgp(m.allocator(MemDomain(0)), n, seed + 1, cost).table.image,
        ];
        assert!(others.iter().all(|o| !Rc::ptr_eq(o, &ta.image)));
        let multibit = MultibitIpLookup::bgp(m.allocator(MemDomain(0)), n, seed, cost);
        assert_eq!(image_entries(), (4, 0), "one image per table type, size and seed");

        let gone = Rc::downgrade(&ta.image);
        drop((a, b, others, multibit));
        assert_eq!(gone.strong_count(), 0, "the image dies with its last replica");
        // A fresh machine whose allocator stands where `b` was placed: the
        // next replica builds a fresh image and prunes the dead entries.
        let mut fresh = machine();
        let pad = after_a - next_addr(&mut fresh);
        fresh.allocator(MemDomain(0)).alloc(pad, 1);
        let c = RadixIpLookup::bgp(fresh.allocator(MemDomain(0)), n, seed, cost);
        assert!(!std::ptr::eq(gone.as_ptr(), Rc::as_ptr(&c.table().image)));
        assert_eq!(image_entries(), (1, 0));
        assert_eq!(c.table().nodes.base(), after_a);
        assert_eq!(walk(&mut fresh, c.table()), (routes, shared));
    }
}
