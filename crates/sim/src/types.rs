//! Fundamental identifiers, units, and constants shared by the whole simulator.
//!
//! Everything in the simulator is measured in **cycles** of a fixed-frequency
//! clock (the paper's platform runs at 2.8 GHz). Simulated memory is addressed
//! by a flat 64-bit [`Addr`] space partitioned into NUMA *domains*: the domain
//! is encoded in the high bits of the address, so the home memory controller
//! of any address can be recovered without a lookup table.

/// A duration or point in simulated time, measured in CPU core cycles.
pub type Cycles = u64;

/// A simulated physical memory address.
///
/// Bits `[DOMAIN_SHIFT..]` encode the NUMA domain (socket) that homes the
/// address; the remainder is a flat offset within that domain.
pub type Addr = u64;

/// Size of a cache line in bytes. All caches and memory controllers in the
/// model operate at this granularity, matching the paper's platform.
pub const CACHE_LINE: u64 = 64;

/// log2([`CACHE_LINE`]), for shifting addresses to line numbers.
pub const CACHE_LINE_SHIFT: u32 = 6;

/// Bit position where the NUMA domain is encoded within an [`Addr`].
///
/// Each domain therefore spans 16 TiB of simulated address space, far more
/// than any workload allocates.
pub const DOMAIN_SHIFT: u32 = 44;

/// Identifies one hardware core (globally numbered across sockets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    /// Index usable for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifies one processor socket (package). Each socket has a shared L3
/// cache and an integrated memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub u8);

impl SocketId {
    /// Index usable for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SocketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "socket{}", self.0)
    }
}

/// Identifies a NUMA memory domain. On the modeled platform there is exactly
/// one domain per socket (the socket's integrated memory controller), so
/// `MemDomain(i)` is homed at `SocketId(i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemDomain(pub u8);

impl MemDomain {
    /// Index usable for array addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// First address belonging to this domain.
    #[inline]
    pub fn base(self) -> Addr {
        (self.0 as Addr) << DOMAIN_SHIFT
    }

    /// The socket whose memory controller homes this domain.
    #[inline]
    pub fn home_socket(self) -> SocketId {
        SocketId(self.0)
    }
}

impl std::fmt::Display for MemDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mem{}", self.0)
    }
}

/// Recover the NUMA domain encoded in an address.
#[inline]
pub fn domain_of(addr: Addr) -> MemDomain {
    MemDomain((addr >> DOMAIN_SHIFT) as u8)
}

/// The line-granular address (all offset-within-line bits cleared).
#[inline]
pub fn line_of(addr: Addr) -> Addr {
    addr & !(CACHE_LINE - 1)
}

/// Number of distinct cache lines covered by the byte range
/// `[addr, addr + len)`. Zero-length ranges cover zero lines.
#[inline]
pub fn lines_covered(addr: Addr, len: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    let first = addr >> CACHE_LINE_SHIFT;
    let last = (addr + len - 1) >> CACHE_LINE_SHIFT;
    last - first + 1
}

/// Whether a memory access is a load or a store. Stores are issued through a
/// store buffer and do not stall the core for the full memory latency.
///
/// `#[repr(u8)]` pins the discriminant so the `matches!` in the access path
/// compiles to a byte compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AccessKind {
    /// A load; the issuing core stalls for the returned latency (unless
    /// batched with other independent loads).
    Read,
    /// A store; the core pays only an issue cost, the hierarchy is still
    /// updated (write-allocate, write-back).
    Write,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_roundtrip() {
        for d in 0..4u8 {
            let dom = MemDomain(d);
            assert_eq!(domain_of(dom.base()), dom);
            assert_eq!(domain_of(dom.base() + 0xdead_beef), dom);
            assert_eq!(dom.home_socket(), SocketId(d));
        }
    }

    #[test]
    fn line_of_clears_offset() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(130), 128);
    }

    #[test]
    fn lines_covered_counts_straddles() {
        assert_eq!(lines_covered(0, 0), 0);
        assert_eq!(lines_covered(0, 1), 1);
        assert_eq!(lines_covered(0, 64), 1);
        assert_eq!(lines_covered(0, 65), 2);
        assert_eq!(lines_covered(60, 8), 2);
        assert_eq!(lines_covered(64, 128), 2);
        assert_eq!(lines_covered(63, 2), 2);
    }

    #[test]
    fn ids_format() {
        assert_eq!(CoreId(3).to_string(), "core3");
        assert_eq!(SocketId(1).to_string(), "socket1");
        assert_eq!(MemDomain(0).to_string(), "mem0");
    }
}
