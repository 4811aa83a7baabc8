//! Simulated-memory allocation and typed views.
//!
//! Application data structures live in two parallel worlds: the *host* world
//! (real Rust values, so the trie really routes and the flow table really
//! counts) and the *simulated* world (an address range in some NUMA domain,
//! so every access has a cache/memory cost). [`SimVec`] and [`SimRing`] keep
//! the two in lockstep: element code can only reach the host data through
//! methods that charge the corresponding simulated access. A
//! [`SimPlacement`] is the simulated half alone, for host data that several
//! identical replicas share.
//!
//! Allocation is a simple per-domain bump allocator — the workloads allocate
//! at startup and never free, exactly like the paper's applications, which
//! pre-allocate their tables and buffer pools.

use crate::ctx::ExecCtx;
use crate::types::{Addr, MemDomain, CACHE_LINE};
use std::marker::PhantomData;

/// Bump allocator for one NUMA domain's simulated address range.
#[derive(Debug, Clone)]
pub struct DomainAllocator {
    domain: MemDomain,
    next: Addr,
}

impl DomainAllocator {
    /// Allocator starting at the domain's base (offset by one line so that
    /// address 0 is never handed out — it doubles as a debugging canary).
    pub fn new(domain: MemDomain) -> Self {
        DomainAllocator { domain, next: domain.base() + CACHE_LINE }
    }

    /// The domain this allocator serves.
    pub fn domain(&self) -> MemDomain {
        self.domain
    }

    /// Allocate `bytes` with the given alignment (power of two). Panics if
    /// the region would not end inside this allocator's domain: data homed
    /// on the wrong socket would silently change every charge to it.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Addr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.next + align - 1) & !(align - 1);
        let end = base.checked_add(bytes.max(1)).expect("domain overflow");
        assert_eq!(crate::types::domain_of(end - 1), self.domain, "domain overflow");
        self.next = end;
        base
    }

    /// Allocate a cache-line-aligned region.
    pub fn alloc_lines(&mut self, bytes: u64) -> Addr {
        self.alloc(bytes, CACHE_LINE)
    }

    /// Bytes handed out so far.
    pub fn used(&self) -> u64 {
        self.next - self.domain.base()
    }
}

/// Where a typed array of `len` elements sits in simulated memory: its first
/// address and its element stride (the simulated *slot*). A placement holds
/// no host data; its charging [`read`](Self::read) takes the host slice it
/// stands for. [`SimVec`] pairs one with an owned `Vec`; a read-only table
/// may pair several with one host image that identical replicas share, each
/// replica keeping its own range.
#[derive(Debug, Clone, Copy)]
pub struct SimPlacement<T> {
    base: Addr,
    stride: u64,
    len: usize,
    _elem: PhantomData<T>,
}

impl<T: Copy> SimPlacement<T> {
    /// Allocate room for `len` elements laid out contiguously at their
    /// natural size (so several small elements share a cache line, as a
    /// real array would).
    pub fn new(alloc: &mut DomainAllocator, len: usize) -> Self {
        Self::with_slot(alloc, len, std::mem::size_of::<T>() as u64)
    }

    /// Allocate `len` simulated slots of `slot_bytes` each, at `T`'s
    /// alignment. The slot is the simulated layout: every address, span and
    /// footprint uses it, so a host record narrower than its slot charges
    /// exactly what a record as wide as the slot would. Panics if `T` is
    /// wider than the slot, which would leave host bytes uncharged.
    pub fn with_slot(alloc: &mut DomainAllocator, len: usize, slot_bytes: u64) -> Self {
        assert!(
            slot_bytes >= std::mem::size_of::<T>() as u64,
            "a {}-byte record does not fit a {slot_bytes}-byte slot",
            std::mem::size_of::<T>()
        );
        let stride = slot_bytes.max(1);
        let align = (std::mem::align_of::<T>() as u64).max(1);
        let base = alloc.alloc(stride * len.max(1) as u64, align);
        SimPlacement { base, stride, len, _elem: PhantomData }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Simulated address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> Addr {
        debug_assert!(i < self.len);
        self.base + i as u64 * self.stride
    }

    /// Bytes per simulated slot (the span a [`read`](Self::read) charges).
    #[inline]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// First simulated address of the array.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Total simulated footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.stride * self.len as u64
    }

    /// Read element `i` of `data`, charging a dependent load for each line
    /// covered.
    #[inline]
    pub fn read(&self, ctx: &mut ExecCtx<'_>, data: &[T], i: usize) -> T {
        debug_assert_eq!(data.len(), self.len);
        ctx.read_struct(self.addr_of(i), self.stride);
        data[i]
    }
}

/// A typed array that exists in both worlds: a host `Vec<T>` plus its
/// [`SimPlacement`]. Reading or writing an element charges the simulated
/// memory accesses for every cache line the element's slot covers.
#[derive(Debug, Clone)]
pub struct SimVec<T> {
    data: Vec<T>,
    place: SimPlacement<T>,
}

impl<T: Copy> SimVec<T> {
    /// Materialize a host vector in simulated memory, laid out as
    /// [`SimPlacement::new`] lays it out.
    pub fn from_vec(alloc: &mut DomainAllocator, data: Vec<T>) -> Self {
        SimVec { place: SimPlacement::new(alloc, data.len()), data }
    }

    /// An array of `len` copies of `init`.
    pub fn new(alloc: &mut DomainAllocator, len: usize, init: T) -> Self {
        Self::with_slot(alloc, len, init, std::mem::size_of::<T>() as u64)
    }

    /// An array of `len` copies of `init`, each in a simulated slot of
    /// `slot_bytes` (see [`SimPlacement::with_slot`]).
    pub fn with_slot(alloc: &mut DomainAllocator, len: usize, init: T, slot_bytes: u64) -> Self {
        SimVec { place: SimPlacement::with_slot(alloc, len, slot_bytes), data: vec![init; len] }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Simulated address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> Addr {
        self.place.addr_of(i)
    }

    /// Bytes per simulated slot (the span a [`read`](Self::read) charges).
    #[inline]
    pub fn stride(&self) -> u64 {
        self.place.stride()
    }

    /// First simulated address of the array.
    pub fn base(&self) -> Addr {
        self.place.base()
    }

    /// Total simulated footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.place.footprint()
    }

    /// Read element `i`, charging a dependent load for each line covered.
    #[inline]
    pub fn read(&self, ctx: &mut ExecCtx<'_>, i: usize) -> T {
        self.place.read(ctx, &self.data, i)
    }

    /// Overwrite element `i`, charging stores for each line covered.
    #[inline]
    pub fn write(&mut self, ctx: &mut ExecCtx<'_>, i: usize, v: T) {
        ctx.write_struct(self.addr_of(i), self.stride());
        self.data[i] = v;
    }

    /// Read-modify-write element `i` in place: charges one load plus one
    /// store on the covering line(s), like `x.field += 1` on real hardware.
    #[inline]
    pub fn update<R>(&mut self, ctx: &mut ExecCtx<'_>, i: usize, f: impl FnOnce(&mut T) -> R) -> R {
        let addr = self.addr_of(i);
        ctx.read_struct(addr, self.stride());
        ctx.write_struct(addr, self.stride());
        f(&mut self.data[i])
    }

    /// Host-side view without simulated cost. For construction, assertions,
    /// and tests only — element fast paths must use [`read`](Self::read).
    pub fn peek(&self, i: usize) -> &T {
        &self.data[i]
    }
}

/// A byte ring in simulated memory — the shape of the paper's RE "packet
/// store" (a cache of recently observed content, far larger than the L3).
#[derive(Debug, Clone)]
pub struct SimRing {
    data: Vec<u8>,
    base: Addr,
    head: u64,
    wrapped: bool,
}

impl SimRing {
    /// A ring of `capacity` bytes (rounded up to whole cache lines).
    pub fn new(alloc: &mut DomainAllocator, capacity: u64) -> Self {
        let cap = capacity.div_ceil(CACHE_LINE) * CACHE_LINE;
        let base = alloc.alloc_lines(cap);
        SimRing { data: vec![0u8; cap as usize], base, head: 0, wrapped: false }
    }

    /// Ring capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// Total bytes ever appended (monotonic logical offset of the head).
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Whether a logical offset is still resident (not yet overwritten).
    pub fn contains(&self, offset: u64, len: u64) -> bool {
        let cap = self.capacity();
        offset + len <= self.head && self.head - offset <= cap
    }

    /// Append bytes at the head, charging stores for the covered lines.
    /// Returns the logical offset where the bytes were stored.
    pub fn append(&mut self, ctx: &mut ExecCtx<'_>, bytes: &[u8]) -> u64 {
        let cap = self.capacity();
        assert!(
            (bytes.len() as u64) <= cap,
            "append larger than ring capacity"
        );
        let offset = self.head;
        for (k, &b) in bytes.iter().enumerate() {
            let pos = (offset + k as u64) % cap;
            self.data[pos as usize] = b;
        }
        // Charge stores line-by-line (handling wraparound as two ranges).
        let start = offset % cap;
        let first = (bytes.len() as u64).min(cap - start);
        ctx.write_struct(self.base + start, first);
        if (bytes.len() as u64) > first {
            self.wrapped = true;
            ctx.write_struct(self.base, bytes.len() as u64 - first);
        }
        if start + (bytes.len() as u64) >= cap {
            self.wrapped = true;
        }
        self.head += bytes.len() as u64;
        offset
    }

    /// Read `out.len()` bytes at logical `offset`, charging loads. Returns
    /// `false` (reading nothing) if the range has been overwritten.
    pub fn read_at(&self, ctx: &mut ExecCtx<'_>, offset: u64, out: &mut [u8]) -> bool {
        if !self.contains(offset, out.len() as u64) {
            return false;
        }
        let cap = self.capacity();
        for (k, o) in out.iter_mut().enumerate() {
            let pos = (offset + k as u64) % cap;
            *o = self.data[pos as usize];
        }
        let start = offset % cap;
        let first = (out.len() as u64).min(cap - start);
        ctx.read_struct(self.base + start, first);
        if (out.len() as u64) > first {
            ctx.read_struct(self.base, out.len() as u64 - first);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::Machine;
    use crate::types::CoreId;

    fn test_machine() -> Machine {
        Machine::new(MachineConfig::tiny_test())
    }

    #[test]
    fn allocator_respects_alignment_and_domain() {
        let mut a = DomainAllocator::new(MemDomain(1));
        let p1 = a.alloc(10, 8);
        let p2 = a.alloc(100, 64);
        assert_eq!(p1 % 8, 0);
        assert_eq!(p2 % 64, 0);
        assert!(p2 >= p1 + 10);
        assert_eq!(crate::types::domain_of(p1), MemDomain(1));
        assert!(a.used() >= 110);
    }

    #[test]
    #[should_panic(expected = "domain overflow")]
    fn allocation_past_the_domain_end_panics() {
        let mut a = DomainAllocator::new(MemDomain(0));
        a.alloc(1 << crate::types::DOMAIN_SHIFT, 64);
    }

    #[test]
    fn simvec_roundtrip_and_addresses() {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        let mut v = SimVec::new(&mut a, 100, 0u64);
        assert_eq!(v.addr_of(1) - v.addr_of(0), 8);
        let mut ctx = m.ctx(CoreId(0));
        v.write(&mut ctx, 7, 42);
        assert_eq!(v.read(&mut ctx, 7), 42);
        assert_eq!(*v.peek(7), 42);
        // The access was charged: at least one L1 ref happened.
        assert!(m.core(CoreId(0)).counters.total().l1_refs >= 2);
    }

    #[test]
    fn simvec_update_charges_load_and_store() {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        let mut v = SimVec::new(&mut a, 4, 5u32);
        let mut ctx = m.ctx(CoreId(0));
        v.update(&mut ctx, 2, |x| *x += 1);
        assert_eq!(*v.peek(2), 6);
        let c = m.core(CoreId(0)).counters.total();
        assert!(c.l1_refs >= 2, "update must charge a load and a store");
    }

    /// Write, read and update through an array whose base is 8- but not
    /// 64-aligned, so every 64-byte slot straddles two lines.
    fn slot_charges<T: Copy + Default>(
        make: impl FnOnce(&mut DomainAllocator) -> SimVec<T>,
    ) -> (SimVec<T>, crate::counters::Counts, u64) {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        a.alloc(8, 8);
        let mut v = make(&mut a);
        let mut ctx = m.ctx(CoreId(0));
        v.write(&mut ctx, 3, T::default());
        v.read(&mut ctx, 3);
        v.read(&mut ctx, 7);
        v.update(&mut ctx, 5, |_| ());
        let clock = ctx.now();
        (v, m.core(CoreId(0)).counters.total(), clock)
    }

    #[test]
    fn narrow_record_in_a_wide_slot_charges_the_slot() {
        let (narrow, counts, clock) =
            slot_charges(|a| SimVec::with_slot(a, 16, [0u64; 4], 64));
        let (wide, wide_counts, wide_clock) = slot_charges(|a| SimVec::new(a, 16, [0u64; 8]));
        assert_eq!(narrow.base() % 64, 8);
        assert_eq!(narrow.addr_of(1) - narrow.addr_of(0), 64);
        assert_eq!(narrow.stride(), 64);
        assert_eq!(narrow.footprint(), 64 * 16);
        assert_eq!((narrow.base(), narrow.footprint()), (wide.base(), wide.footprint()));
        assert_eq!(counts, wide_counts);
        assert_eq!(clock, wide_clock);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn record_wider_than_its_slot_panics() {
        let mut a = DomainAllocator::new(MemDomain(0));
        SimVec::with_slot(&mut a, 4, [0u64; 4], 16);
    }

    #[test]
    fn new_is_with_slot_at_the_natural_size() {
        let mut a = DomainAllocator::new(MemDomain(0));
        a.alloc(4, 4);
        let mut b = a.clone();
        let v = SimVec::new(&mut a, 10, [0u32; 3]);
        let w = SimVec::with_slot(&mut b, 10, [0u32; 3], 12);
        assert_eq!((v.base(), v.stride(), v.footprint()), (w.base(), w.stride(), w.footprint()));
        assert_eq!(a.used(), b.used());
        let p = SimPlacement::<[u32; 3]>::new(&mut a, 10);
        let q = SimPlacement::<[u32; 3]>::with_slot(&mut b, 10, 12);
        assert_eq!((p.base(), p.stride(), p.footprint()), (q.base(), q.stride(), q.footprint()));
    }

    #[test]
    fn simring_append_read_roundtrip() {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        let mut r = SimRing::new(&mut a, 256);
        let mut ctx = m.ctx(CoreId(0));
        let off = r.append(&mut ctx, b"hello world");
        let mut buf = [0u8; 11];
        assert!(r.read_at(&mut ctx, off, &mut buf));
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn simring_overwrite_invalidates_old_offsets() {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        let mut r = SimRing::new(&mut a, 128);
        let mut ctx = m.ctx(CoreId(0));
        let off0 = r.append(&mut ctx, &[1u8; 100]);
        let _ = r.append(&mut ctx, &[2u8; 100]); // wraps, overwrites off0
        let mut buf = [0u8; 100];
        assert!(!r.read_at(&mut ctx, off0, &mut buf));
        // Newest data still readable.
        let off2 = r.head() - 100;
        assert!(r.read_at(&mut ctx, off2, &mut buf));
        assert_eq!(buf[0], 2);
    }

    #[test]
    fn simring_wraparound_preserves_bytes() {
        let mut m = test_machine();
        let mut a = DomainAllocator::new(MemDomain(0));
        let mut r = SimRing::new(&mut a, 64); // exactly one line
        let mut ctx = m.ctx(CoreId(0));
        let _ = r.append(&mut ctx, &[9u8; 40]);
        let off = r.append(&mut ctx, &[7u8; 40]); // wraps
        let mut buf = [0u8; 40];
        assert!(r.read_at(&mut ctx, off, &mut buf));
        assert_eq!(buf, [7u8; 40]);
    }
}
