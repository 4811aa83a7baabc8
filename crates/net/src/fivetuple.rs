//! The 5-tuple flow key and the hash used to index per-flow state.
//!
//! The paper's MON workload "applies a hash function to the IP and
//! transport-layer header of each packet \[and\] uses the outcome to index a
//! hash table with per-TCP/UDP-flow entries". We use FNV-1a over the packed
//! tuple: simple, deterministic across runs and platforms, and with good
//! enough dispersion for open-addressed tables.

use std::net::Ipv4Addr;

/// The classic 5-tuple identifying a transport flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// IP protocol number.
    pub protocol: u8,
    /// Transport source port.
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
}

impl FlowKey {
    /// Pack into 13 bytes (src, dst, proto, sport, dport), network order.
    fn to_bytes(self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src.octets());
        b[4..8].copy_from_slice(&self.dst.octets());
        b[8] = self.protocol;
        b[9..11].copy_from_slice(&self.src_port.to_be_bytes());
        b[11..13].copy_from_slice(&self.dst_port.to_be_bytes());
        b
    }

    /// FNV-1a hash of the packed tuple.
    pub fn hash(&self) -> u64 {
        fnv1a(&self.to_bytes())
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.src, self.src_port, self.dst, self.dst_port, self.protocol
        )
    }
}

/// FNV-1a 64-bit over arbitrary bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(a: u8, b: u8, sp: u16, dp: u16) -> FlowKey {
        FlowKey {
            src: Ipv4Addr::new(10, 0, 0, a),
            dst: Ipv4Addr::new(10, 0, 0, b),
            protocol: 17,
            src_port: sp,
            dst_port: dp,
        }
    }

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(key(1, 2, 3, 4).hash(), key(1, 2, 3, 4).hash());
    }

    #[test]
    fn hash_differs_on_any_field() {
        let base = key(1, 2, 3, 4);
        assert_ne!(base.hash(), key(9, 2, 3, 4).hash());
        assert_ne!(base.hash(), key(1, 9, 3, 4).hash());
        assert_ne!(base.hash(), key(1, 2, 9, 4).hash());
        assert_ne!(base.hash(), key(1, 2, 3, 9).hash());
        let mut tcp = base;
        tcp.protocol = 6;
        assert_ne!(base.hash(), tcp.hash());
    }

    #[test]
    fn fnv_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn dispersion_over_low_bits() {
        // Hashing 10k sequential flows should spread across 1024 buckets
        // with no bucket grossly overloaded.
        let mut buckets = [0u32; 1024];
        for i in 0..10_000u32 {
            let k = key((i % 251) as u8, (i / 251) as u8, i as u16, (i >> 4) as u16);
            buckets[(k.hash() % 1024) as usize] += 1;
        }
        let max = *buckets.iter().max().unwrap();
        assert!(max < 40, "worst bucket has {max} of 10000 entries");
    }
}
