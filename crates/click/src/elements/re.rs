//! Redundancy elimination (the paper's RE workload), after Spring &
//! Wetherall: maintain a *packet store* (ring of recently observed payload
//! bytes) and a *fingerprint table* (mapping content fingerprints to store
//! offsets). For each packet, compute Rabin-style rolling fingerprints over
//! the payload, select anchors by value sampling, look each anchor up in the
//! fingerprint table, and — on a verified match — elide the redundant region
//! from the transmitted representation.
//!
//! RE is "a representative form of memory-intensive packet processing that
//! does not significantly benefit from caching": the fingerprint table and
//! packet store total far more than the L3, so most accesses miss — which is
//! exactly why RE is the paper's most *aggressive* workload (Fig. 2) while
//! being only mildly sensitive.

use crate::cost::CostModel;
use crate::element::{Action, Element};
use pp_net::packet::Packet;
use pp_sim::arena::{DomainAllocator, SimRing, SimVec};
use pp_sim::ctx::ExecCtx;

/// Rolling-hash window in bytes.
pub const WINDOW: usize = 32;

/// A simple polynomial rolling hash (Rabin-style) with precomputed
/// remove-multiplier, processing one byte per step.
#[derive(Debug, Clone)]
pub struct RollingHash {
    base: u64,
    /// `base^(WINDOW-1)` for removing the outgoing byte.
    out_mul: u64,
    state: u64,
    filled: usize,
    window: [u8; WINDOW],
    pos: usize,
}

impl Default for RollingHash {
    fn default() -> Self {
        Self::new()
    }
}

impl RollingHash {
    /// Fresh hasher.
    pub fn new() -> Self {
        let base = 1_000_000_007u64;
        let mut out_mul = 1u64;
        for _ in 0..WINDOW - 1 {
            out_mul = out_mul.wrapping_mul(base);
        }
        RollingHash { base, out_mul, state: 0, filled: 0, window: [0; WINDOW], pos: 0 }
    }

    /// Feed one byte; returns the current hash once the window is full.
    #[inline]
    pub fn roll(&mut self, b: u8) -> Option<u64> {
        if self.filled == WINDOW {
            let old = self.window[self.pos];
            self.state = self.state.wrapping_sub((old as u64).wrapping_mul(self.out_mul));
        } else {
            self.filled += 1;
        }
        self.state = self.state.wrapping_mul(self.base).wrapping_add(b as u64);
        self.window[self.pos] = b;
        self.pos = (self.pos + 1) % WINDOW;
        if self.filled == WINDOW {
            Some(self.state)
        } else {
            None
        }
    }

    /// Reset for a new packet.
    pub fn reset(&mut self) {
        self.state = 0;
        self.filled = 0;
        self.pos = 0;
    }
}

/// One fingerprint-table slot: 16 bytes, 4 per cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C)]
struct FpEntry {
    fingerprint: u64,
    /// Logical packet-store offset + 1 (0 = empty).
    offset_plus1: u64,
}

/// Configuration for the RE element.
#[derive(Debug, Clone, Copy)]
pub struct ReConfig {
    /// log2 of the fingerprint-table slot count (paper: "more than 4
    /// million entries"; default 2^21 for a 32 MB table — see ARCHITECTURE.md on
    /// the scale-down, which keeps the table far beyond L3 either way).
    pub log2_fp_slots: u32,
    /// Packet-store capacity in bytes (paper: "1 second's worth of
    /// traffic"; default 32 MB).
    pub store_bytes: u64,
    /// Anchor value-sampling modulus: a window is an anchor when
    /// `hash % sample_mod == 0` (expected one anchor per `sample_mod`
    /// bytes).
    pub sample_mod: u64,
}

impl Default for ReConfig {
    fn default() -> Self {
        ReConfig { log2_fp_slots: 21, store_bytes: 32 << 20, sample_mod: 6 }
    }
}

/// The redundancy-elimination element. See the module docs.
pub struct RedundancyElim {
    fp_table: SimVec<FpEntry>,
    store: SimRing,
    mask: u64,
    hasher: RollingHash,
    cfg: ReConfig,
    cost: CostModel,
    /// Packets processed.
    pub packets: u64,
    /// Anchors selected.
    pub anchors: u64,
    /// Anchors whose fingerprint matched and verified against the store.
    pub matches: u64,
    /// Payload bytes elided from the encoded representation.
    pub bytes_saved: u64,
    /// Total payload bytes seen.
    pub bytes_in: u64,
}

impl RedundancyElim {
    /// Build with the given configuration in `alloc`'s domain.
    pub fn new(alloc: &mut DomainAllocator, cfg: ReConfig, cost: CostModel) -> Self {
        let slots = 1usize << cfg.log2_fp_slots;
        RedundancyElim {
            fp_table: SimVec::new(alloc, slots, FpEntry::default()),
            store: SimRing::new(alloc, cfg.store_bytes),
            mask: (slots - 1) as u64,
            hasher: RollingHash::new(),
            cfg,
            cost,
            packets: 0,
            anchors: 0,
            matches: 0,
            bytes_saved: 0,
            bytes_in: 0,
        }
    }

    /// Total simulated footprint (fingerprint table + packet store).
    pub fn footprint(&self) -> u64 {
        self.fp_table.footprint() + self.store.capacity()
    }
}

impl Element for RedundancyElim {
    fn class_name(&self) -> &'static str {
        "RedundancyElim"
    }

    fn tag(&self) -> &'static str {
        "redundancy_elim"
    }

    fn process(&mut self, ctx: &mut ExecCtx<'_>, pkt: &mut Packet) -> Action {
        let Ok(payload) = pkt.payload().map(|p| p.to_vec()) else { return Action::Drop };
        if payload.len() < WINDOW {
            self.packets += 1;
            return Action::Out(0);
        }
        let Ok(off) = pkt.payload_offset() else { return Action::Drop };

        // The payload is scanned byte-by-byte: charge the payload lines as
        // dependent reads, and the rolling hash as compute.
        if pkt.buf_addr != 0 {
            ctx.read_struct(pkt.buf_addr + off as u64, payload.len() as u64);
        }
        CostModel::charge(
            ctx,
            (
                self.cost.rabin_per_byte.0 * payload.len() as u64,
                self.cost.rabin_per_byte.1 * payload.len() as u64,
            ),
        );

        // Append the payload to the packet store (real bytes).
        let store_off = self.store.append(ctx, &payload);

        // Anchor selection + fingerprint probes.
        self.hasher.reset();
        let mut i = 0usize;
        while i < payload.len() {
            let h = self.hasher.roll(payload[i]);
            i += 1;
            let Some(h) = h else { continue };
            if h % self.cfg.sample_mod != 0 {
                continue;
            }
            self.anchors += 1;
            CostModel::charge(ctx, self.cost.re_per_anchor);
            let slot = (h ^ (h >> 23)) & self.mask;
            let anchor_start = i - WINDOW;
            let entry = self.fp_table.read(ctx, slot as usize);
            let mut matched = false;
            if entry.offset_plus1 != 0 && entry.fingerprint == h {
                // Verify against the store bytes (dependent reads into a
                // structure far larger than the cache).
                let mut old = [0u8; WINDOW];
                if self.store.read_at(ctx, entry.offset_plus1 - 1, &mut old)
                    && old == payload[anchor_start..anchor_start + WINDOW]
                {
                    matched = true;
                    self.matches += 1;
                    self.bytes_saved += WINDOW as u64;
                    // Skip ahead: the region is encoded as a (offset, len)
                    // reference instead of literal bytes.
                    i = anchor_start + WINDOW;
                    self.hasher.reset();
                }
            }
            if !matched {
                self.fp_table.write(
                    ctx,
                    slot as usize,
                    FpEntry {
                        fingerprint: h,
                        offset_plus1: store_off + anchor_start as u64 + 1,
                    },
                );
            }
        }

        self.packets += 1;
        self.bytes_in += payload.len() as u64;
        Action::Out(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::test_util::{machine, packet_with_payload};
    use pp_sim::types::{CoreId, MemDomain};

    fn small_re(m: &mut pp_sim::machine::Machine) -> RedundancyElim {
        let cfg = ReConfig { log2_fp_slots: 12, store_bytes: 1 << 16, sample_mod: 4 };
        RedundancyElim::new(m.allocator(MemDomain(0)), cfg, CostModel::default())
    }

    #[test]
    fn rolling_hash_is_shift_invariant() {
        // The hash of a window must not depend on preceding bytes.
        let mut h1 = RollingHash::new();
        let mut h2 = RollingHash::new();
        let window = [7u8; WINDOW];
        let mut last1 = None;
        for b in [1u8, 2, 3].iter().chain(window.iter()) {
            last1 = h1.roll(*b);
        }
        let mut last2 = None;
        for b in [9u8, 9, 9, 9, 9].iter().chain(window.iter()) {
            last2 = h2.roll(*b);
        }
        assert_eq!(last1.unwrap(), last2.unwrap());
    }

    #[test]
    fn rolling_hash_distinguishes_content() {
        let mut h1 = RollingHash::new();
        let mut h2 = RollingHash::new();
        let mut a = [5u8; WINDOW];
        let b = [5u8; WINDOW];
        a[13] = 6;
        let va = a.iter().map(|&x| h1.roll(x)).last().unwrap();
        let vb = b.iter().map(|&x| h2.roll(x)).last().unwrap();
        assert_ne!(va, vb);
    }

    #[test]
    fn duplicate_payload_is_detected() {
        let mut m = machine();
        let mut re = small_re(&mut m);
        let payload = {
            // A payload with enough structure to produce anchors.
            let mut p = vec![0u8; 256];
            for (i, b) in p.iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
            p
        };
        let mut ctx = m.ctx(CoreId(0));
        let mut p1 = packet_with_payload(&payload);
        re.process(&mut ctx, &mut p1);
        let after_first = re.matches;
        let mut p2 = packet_with_payload(&payload);
        re.process(&mut ctx, &mut p2);
        assert!(
            re.matches > after_first,
            "replayed payload must produce fingerprint matches"
        );
        assert!(re.bytes_saved > 0);
    }

    #[test]
    fn random_payloads_rarely_match() {
        use rand::rngs::SmallRng;
        use rand::{RngCore, SeedableRng};
        let mut m = machine();
        let mut re = small_re(&mut m);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ctx = m.ctx(CoreId(0));
        for _ in 0..30 {
            let mut payload = vec![0u8; 256];
            rng.fill_bytes(&mut payload);
            let mut p = packet_with_payload(&payload);
            re.process(&mut ctx, &mut p);
        }
        assert_eq!(re.matches, 0, "distinct random payloads should not match");
        assert!(re.anchors > 0, "sampling should still select anchors");
    }

    #[test]
    fn short_payloads_pass_through() {
        let mut m = machine();
        let mut re = small_re(&mut m);
        let mut ctx = m.ctx(CoreId(0));
        let mut p = packet_with_payload(&[1, 2, 3]);
        assert_eq!(re.process(&mut ctx, &mut p), Action::Out(0));
        assert_eq!(re.anchors, 0);
    }

    #[test]
    fn paper_scale_footprint_exceeds_l3() {
        let mut m = machine();
        let re = RedundancyElim::new(
            m.allocator(MemDomain(0)),
            ReConfig::default(),
            CostModel::default(),
        );
        assert!(
            re.footprint() > 4 * m.config().l3.size_bytes,
            "RE working set ({} B) must dwarf the L3",
            re.footprint()
        );
    }

    #[test]
    fn savings_ratio_bounded() {
        let mut m = machine();
        let mut re = small_re(&mut m);
        let payload = [9u8; 128];
        let mut ctx = m.ctx(CoreId(0));
        for _ in 0..5 {
            let mut p = packet_with_payload(&payload);
            re.process(&mut ctx, &mut p);
        }
        assert!(re.bytes_saved <= re.bytes_in);
    }
}
