//! The VPN element: AES-128-CTR encryption of the packet payload — the
//! paper's "representative form of CPU-intensive packet processing".
//!
//! The payload really is encrypted in place. Every T-table/S-box lookup the
//! cipher performs is charged to the simulated hierarchy at the tables'
//! simulated addresses (batched per round with MLP 4, since the four
//! lookups of one output word are independent — this is what gives VPN its
//! paper-measured CPI of ≈0.56 instead of a pointer-chase CPI). The tables
//! total 5 KB, so they live in L1/L2 and VPN's L3 traffic comes from the
//! packet payload and the upstream IP/MON stages, matching Table 1.

use crate::cost::CostModel;
use crate::element::{Action, Element};
use crate::elements::aes::{Aes128, TableRef};
use pp_net::packet::Packet;
use pp_sim::arena::DomainAllocator;
use pp_sim::ctx::ExecCtx;
use pp_sim::types::Addr;

/// MLP granted to the four independent lookups within a round.
const AES_MLP: u32 = 4;

/// Table lookups per block: 16 in each of the nine main rounds and the
/// final S-box round.
const LOOKUPS_PER_BLOCK: usize = 160;

/// The VPN encryption element. See the module docs.
pub struct VpnEncrypt {
    aes: Aes128,
    /// Simulated base addresses of T0..T3 (each 1 KB).
    t_base: [Addr; 4],
    /// Simulated base address of the S-box (256 B).
    sbox_base: Addr,
    nonce: u64,
    counter: u64,
    cost: CostModel,
    /// Packets encrypted.
    pub encrypted: u64,
    /// Payload bytes encrypted.
    pub bytes: u64,
}

impl VpnEncrypt {
    /// Build with a key; tables are materialized in `alloc`'s domain.
    pub fn new(alloc: &mut DomainAllocator, key: [u8; 16], nonce: u64, cost: CostModel) -> Self {
        let t_base = [
            alloc.alloc_lines(1024),
            alloc.alloc_lines(1024),
            alloc.alloc_lines(1024),
            alloc.alloc_lines(1024),
        ];
        let sbox_base = alloc.alloc_lines(256);
        VpnEncrypt {
            aes: Aes128::new(key),
            t_base,
            sbox_base,
            nonce,
            counter: 0,
            cost,
            encrypted: 0,
            bytes: 0,
        }
    }

    #[inline]
    fn lookup_addr(&self, t: TableRef, idx: u8) -> Addr {
        match t {
            TableRef::T(k) => self.t_base[k as usize] + (idx as Addr) * 4,
            TableRef::Sbox => self.sbox_base + idx as Addr,
        }
    }
}

impl Element for VpnEncrypt {
    fn class_name(&self) -> &'static str {
        "VPNEncrypt"
    }

    fn tag(&self) -> &'static str {
        "vpn_encrypt"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        let Ok(off) = pkt.payload_offset() else { return Action::Drop };
        let end = {
            let Ok(p) = pkt.payload() else { return Action::Drop };
            off + p.len()
        };
        let len = end - off;
        if len == 0 {
            return Action::Out(0);
        }

        // Read the payload lines (dependent loads), encrypt, write back.
        if pkt.buf_addr != 0 {
            ctx.read_struct(pkt.buf_addr + off as u64, len as u64);
        }

        // Per 16-byte block: generate its keystream, collecting the
        // simulated address of each of the 160 table lookups; charge them a
        // round at a time (16 independent loads, then the round's compute);
        // XOR the keystream into the real payload bytes.
        let n_blocks = len.div_ceil(16) as u64;
        let mut lookups = [0 as Addr; LOOKUPS_PER_BLOCK];
        for chunk in pkt.data[off..end].chunks_mut(16) {
            let mut n = 0;
            let ks = self.aes.ctr_block_traced(self.nonce, self.counter, &mut |t, idx| {
                lookups[n] = self.lookup_addr(t, idx);
                n += 1;
            });
            debug_assert_eq!(n, LOOKUPS_PER_BLOCK);
            self.counter = self.counter.wrapping_add(1);
            for round in lookups.chunks_exact(16) {
                ctx.read_batch(round, AES_MLP);
                CostModel::charge(ctx, self.cost.aes_round);
            }
            for (b, k) in chunk.iter_mut().zip(ks) {
                *b ^= k;
            }
        }
        CostModel::charge(
            ctx,
            (self.cost.aes_block_overhead.0 * n_blocks, self.cost.aes_block_overhead.1 * n_blocks),
        );
        if pkt.buf_addr != 0 {
            ctx.write_struct(pkt.buf_addr + off as u64, len as u64);
        }

        self.encrypted += 1;
        self.bytes += len as u64;
        Action::Out(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::{machine, packet_with_payload};
    use pp_sim::counters::Counts;
    use pp_sim::types::{CoreId, MemDomain, CACHE_LINE};

    /// Simulated cache lines the payload of `pkt` covers.
    fn payload_lines(pkt: &Packet, len: usize) -> u64 {
        let first = pkt.buf_addr + pkt.payload_offset().unwrap() as u64;
        (first + len as u64 - 1) / CACHE_LINE - first / CACHE_LINE + 1
    }

    fn vpn(m: &mut pp_sim::machine::Machine) -> VpnEncrypt {
        VpnEncrypt::new(m.allocator(MemDomain(0)), [3u8; 16], 42, CostModel::default())
    }

    #[test]
    fn payload_really_changes_and_is_recoverable() {
        let mut m = machine();
        let mut el = vpn(&mut m);
        let payload = [0x55u8; 64];
        let mut pkt = packet_with_payload(&payload);
        {
            let mut ctx = m.ctx(CoreId(0));
            assert_eq!(el.process(&mut ctx, &mut pkt), Action::Out(0));
        }
        let ct = pkt.payload().unwrap().to_vec();
        assert_ne!(ct, payload.to_vec());
        // Decrypt with the same keystream (counter 0, same nonce/key).
        let aes = Aes128::new([3u8; 16]);
        let ks = aes.ctr_keystream_traced(42, 0, 64, &mut |_, _| {});
        let pt: Vec<u8> = ct.iter().zip(&ks).map(|(c, k)| c ^ k).collect();
        assert_eq!(pt, payload.to_vec());
    }

    #[test]
    fn counter_advances_across_packets() {
        let mut m = machine();
        let mut el = vpn(&mut m);
        let mut p1 = packet_with_payload(&[0u8; 16]);
        let mut p2 = packet_with_payload(&[0u8; 16]);
        {
            let mut ctx = m.ctx(CoreId(0));
            el.process(&mut ctx, &mut p1);
            el.process(&mut ctx, &mut p2);
        }
        assert_ne!(
            p1.payload().unwrap(),
            p2.payload().unwrap(),
            "identical plaintexts must encrypt differently across packets"
        );
    }

    /// The exact charges of a cold packet and of the warm one after it
    /// (same buffer, next counter), pinned before `process` stopped
    /// buffering its lookups: 160 table lookups per block in ten
    /// `read_batch` rounds, the payload's lines read once and written once,
    /// per-round and per-block compute. The 214-byte payload ends in a
    /// partial block, which still costs a whole one.
    #[test]
    fn charges_160_lookups_per_block() {
        // (instructions, compute, stall, l1_refs, l1_hits, misses to DRAM);
        // nothing is L2- or L3-resident yet, so every L1 miss goes all the way.
        let counts = |[ins, comp, stall, refs, hits, dram]: [u64; 6]| Counts {
            instructions: ins,
            compute_cycles: comp,
            stall_cycles: stall,
            l1_refs: refs,
            l1_hits: hits,
            l2_refs: dram,
            l3_refs: dram,
            l3_misses: dram,
            ..Counts::default()
        };
        let pins = [
            (
                16usize,
                [
                    (counts([607, 300, 2650, 162, 102, 60]), 2950u64),
                    (counts([1214, 600, 3089, 324, 257, 67]), 3689),
                ],
            ),
            (
                214,
                [
                    (counts([8478, 4200, 5555, 2248, 2176, 72]), 9755),
                    (counts([16956, 8400, 7815, 4496, 4424, 72]), 16215),
                ],
            ),
        ];
        for (len, want) in pins {
            let mut m = machine();
            let mut el = vpn(&mut m);
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            let blocks = len.div_ceil(16);
            let ks = Aes128::new([3u8; 16])
                .ctr_keystream_traced(42, 0, 2 * 16 * blocks, &mut |_, _| {});
            for (n, (want_counts, want_clock)) in want.into_iter().enumerate() {
                let mut pkt = packet_with_payload(&payload);
                pkt.buf_addr = MemDomain(0).base() + 0x4_0000;
                assert_eq!(el.process(&mut m.ctx(CoreId(0)), &mut pkt), Action::Out(0));
                let got = m.core(CoreId(0)).counters.total();
                assert_eq!(got, want_counts, "{len} bytes, packet {n}");
                assert_eq!(m.core(CoreId(0)).clock, want_clock, "{len} bytes, packet {n}");
                let refs = (160 * blocks) as u64 + 2 * payload_lines(&pkt, len);
                assert_eq!(got.l1_refs, (n as u64 + 1) * refs);

                let expect: Vec<u8> = payload
                    .iter()
                    .zip(&ks[n * 16 * blocks..])
                    .map(|(p, k)| p ^ k)
                    .collect();
                assert_eq!(pkt.payload().unwrap(), &expect[..], "{len} bytes, packet {n}");
            }
        }
    }

    #[test]
    fn tables_stay_private_cache_resident() {
        let mut m = machine();
        let mut el = vpn(&mut m);
        // Warm up with several packets, then check that table lookups are
        // overwhelmingly L1/L2 hits (tables are 5 KB).
        {
            let mut ctx = m.ctx(CoreId(0));
            for _ in 0..10 {
                let mut pkt = packet_with_payload(&[7u8; 128]);
                el.process(&mut ctx, &mut pkt);
            }
        }
        let c = m.core(CoreId(0)).counters.total();
        let private_hits = c.l1_hits + c.l2_hits;
        assert!(
            (private_hits as f64) > 0.9 * c.l1_refs as f64,
            "tables should be private-cache resident: {} hits of {} refs",
            private_hits,
            c.l1_refs
        );
    }

    #[test]
    fn empty_payload_passes_through() {
        let mut m = machine();
        let mut el = vpn(&mut m);
        let mut pkt = packet_with_payload(b"");
        let mut ctx = m.ctx(CoreId(0));
        assert_eq!(el.process(&mut ctx, &mut pkt), Action::Out(0));
        assert_eq!(el.encrypted, 0);
    }
}
