//! Deterministic traffic generation.
//!
//! The paper crafts input traffic to maximize each workload's sensitivity to
//! contention: random destination addresses for IP (every lookup walks a
//! different trie path), random 5-tuples drawn from a fixed population for
//! MON (so the NetFlow table holds a known number of entries), and payloads
//! whose redundancy is controllable for RE. All generators are seeded and
//! fully deterministic.

use crate::fivetuple::FlowKey;
use crate::gen::signatures::MAX_SIG_LEN;
use crate::headers::ip_proto;
use crate::packet::{Packet, PacketBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// How payload bytes are produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PayloadKind {
    /// Uniform random bytes (minimal redundancy; the paper's default for
    /// stressing RE's fingerprint table).
    Random,
    /// With probability `ratio`, replay a previously emitted payload; this
    /// gives RE real redundancy to eliminate (functional tests).
    Redundant {
        /// Probability of replaying an earlier payload.
        ratio: f64,
    },
    /// All-zero payload (maximally redundant).
    Zeros,
    /// Payloads that *tease* a DPI signature set: fragments are prefixes of
    /// real signatures (drawn from [`generate_signatures`] with
    /// `corpus_seed`), so an Aho-Corasick automaton is driven into deep
    /// states without matching, and with probability
    /// `full_match_per_mille`/1000 a complete signature is embedded (a true
    /// positive). This is the DPI analogue of the paper's "never-matching
    /// rules" craft: it maximizes the workload's memory pressure.
    ///
    /// [`generate_signatures`]: crate::gen::signatures::generate_signatures
    SignatureTease {
        /// Size of the signature corpus to tease.
        n_signatures: u32,
        /// Seed the corpus is regenerated from (must match the DPI
        /// element's signature seed for teasing to hit the same automaton).
        corpus_seed: u64,
        /// Probability (per mille, per packet) of embedding one complete
        /// signature.
        full_match_per_mille: u16,
    },
}

/// Specification of a traffic stream.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Total Ethernet frame length in bytes (≥ 60).
    pub frame_len: usize,
    /// `Some(n)`: draw each packet's 5-tuple from a fixed population of `n`
    /// random flows (the paper's MON setup uses n = 100 000).
    /// `None`: a fresh random 5-tuple per packet (the paper's IP setup —
    /// "random destination addresses").
    pub n_flows: Option<u32>,
    /// Payload generation mode.
    pub payload: PayloadKind,
    /// RNG seed (same seed ⇒ identical stream).
    pub seed: u64,
}

impl TrafficSpec {
    /// Random-destination traffic at the given frame length (IP workload).
    pub fn random_dst(frame_len: usize, seed: u64) -> Self {
        TrafficSpec { frame_len, n_flows: None, payload: PayloadKind::Random, seed }
    }

    /// Traffic drawn from a fixed flow population (MON/FW/RE/VPN workloads).
    pub fn flow_population(frame_len: usize, n_flows: u32, seed: u64) -> Self {
        TrafficSpec { frame_len, n_flows: Some(n_flows), payload: PayloadKind::Random, seed }
    }

    /// Flow-population traffic whose payloads tease a DPI signature corpus
    /// (the DPI workload's crafted input).
    pub fn dpi_tease(
        frame_len: usize,
        n_flows: u32,
        n_signatures: u32,
        corpus_seed: u64,
        seed: u64,
    ) -> Self {
        TrafficSpec {
            frame_len,
            n_flows: Some(n_flows),
            payload: PayloadKind::SignatureTease {
                n_signatures,
                corpus_seed,
                full_match_per_mille: 2,
            },
            seed,
        }
    }

    /// UDP payload bytes available at this frame length.
    fn payload_len(&self) -> usize {
        self.frame_len.saturating_sub(14 + 20 + 8)
    }
}

/// Draw a routable unicast address: first octet in 1..=223, not 127.
fn random_unicast(rng: &mut SmallRng) -> Ipv4Addr {
    loop {
        let v: u32 = rng.random();
        let first = (v >> 24) as u8;
        if (1..=223).contains(&first) && first != 127 {
            return Ipv4Addr::from(v);
        }
    }
}

/// The generator. Construction is cheap for `n_flows = None` and O(n) for a
/// flow population.
#[derive(Debug, Clone)]
pub struct TrafficGen {
    spec: TrafficSpec,
    rng: SmallRng,
    flows: Vec<FlowKey>,
    builder: PacketBuilder,
    /// Reused payload buffer: `next_packet` copies it into the frame, so
    /// the per-packet temporary never needs a fresh allocation. The RNG
    /// call sequence is identical to the allocate-per-packet version, so
    /// generated streams are byte-for-byte unchanged.
    payload_scratch: Vec<u8>,
    /// Cached template frame (see [`next_packet`](Self::next_packet)).
    template: Option<Packet>,
    history: VecDeque<Vec<u8>>,
    /// Signature corpus for `PayloadKind::SignatureTease`.
    corpus: Vec<Vec<u8>>,
    /// Packets generated so far.
    pub generated: u64,
}

/// Maximum payloads remembered for `PayloadKind::Redundant`.
const HISTORY_CAP: usize = 64;

impl TrafficGen {
    /// Build a generator for a spec.
    pub fn new(spec: TrafficSpec) -> Self {
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let flows = match spec.n_flows {
            Some(n) => (0..n)
                .map(|_| FlowKey {
                    src: random_unicast(&mut rng),
                    dst: random_unicast(&mut rng),
                    protocol: ip_proto::UDP,
                    src_port: rng.random_range(1024..=u16::MAX),
                    dst_port: rng.random_range(1..1024),
                })
                .collect(),
            None => Vec::new(),
        };
        let corpus = match spec.payload {
            PayloadKind::SignatureTease { n_signatures, corpus_seed, .. } => {
                crate::gen::signatures::generate_signatures(n_signatures as usize, corpus_seed)
            }
            _ => Vec::new(),
        };
        TrafficGen {
            spec,
            rng,
            flows,
            builder: PacketBuilder::default(),
            payload_scratch: Vec::new(),
            template: None,
            history: VecDeque::new(),
            corpus,
            generated: 0,
        }
    }

    /// The spec this generator was built from.
    pub fn spec(&self) -> &TrafficSpec {
        &self.spec
    }

    /// The flow population (empty when fully random).
    pub fn flows(&self) -> &[FlowKey] {
        &self.flows
    }

    /// Fill `payload_scratch` with the next payload. Consumes exactly the
    /// RNG draws the historical allocate-per-packet version did, so
    /// streams are unchanged.
    fn next_payload(&mut self) {
        let len = self.spec.payload_len();
        let p = &mut self.payload_scratch;
        p.clear();
        match self.spec.payload {
            PayloadKind::Zeros => p.resize(len, 0),
            PayloadKind::Random => {
                p.resize(len, 0);
                self.rng.fill_bytes(p);
            }
            PayloadKind::Redundant { ratio } => {
                if !self.history.is_empty() && self.rng.random_bool(ratio.clamp(0.0, 1.0)) {
                    let i = self.rng.random_range(0..self.history.len());
                    p.extend_from_slice(&self.history[i]);
                } else {
                    p.resize(len, 0);
                    self.rng.fill_bytes(p);
                    if self.history.len() == HISTORY_CAP {
                        self.history.pop_front();
                    }
                    self.history.push_back(p.clone());
                }
            }
            PayloadKind::SignatureTease { full_match_per_mille, .. } => {
                let embed_full = self.rng.random_range(0..1000) < full_match_per_mille as u32;
                let mut embedded = false;
                while p.len() < len {
                    if embed_full && !embedded && p.len() + MAX_SIG_LEN < len {
                        // One complete signature, somewhere in the middle.
                        let sig = &self.corpus[self.rng.random_range(0..self.corpus.len())];
                        p.extend_from_slice(sig);
                        embedded = true;
                    } else if self.rng.random_bool(0.5) {
                        // A proper prefix of a signature: drives the
                        // automaton deep without producing a match by
                        // itself. A separator byte breaks any accidental
                        // continuation into the full signature.
                        let sig = &self.corpus[self.rng.random_range(0..self.corpus.len())];
                        let take = self.rng.random_range(2..sig.len());
                        p.extend_from_slice(&sig[..take]);
                        p.push(0x00);
                    } else {
                        // A short random run.
                        let run = self.rng.random_range(3..=9);
                        for _ in 0..run {
                            p.push(self.rng.random());
                        }
                    }
                }
                p.truncate(len);
            }
        }
    }

    /// Generate the next packet of the stream.
    ///
    /// Allocates a fresh frame; steady-state callers should prefer
    /// [`next_packet_into`](Self::next_packet_into) with a recycled
    /// carcass from a [`PacketPool`](crate::pool::PacketPool), which
    /// produces the identical stream with zero per-packet allocation.
    pub fn next_packet(&mut self) -> Packet {
        let mut pkt = Packet::from_bytes(bytes::BytesMut::new());
        self.next_packet_into(&mut pkt);
        pkt
    }

    /// Generate the next packet of the stream **into** `pkt`, reusing its
    /// frame allocation (the carcass-recycling fast path; see
    /// [`PacketPool`](crate::pool::PacketPool)).
    ///
    /// Frames are copied from a cached template (built by the ordinary
    /// [`PacketBuilder`] path on first use) and patched in place:
    /// addresses, ports, payload, and an RFC 1624 incremental IPv4
    /// checksum update for the four changed header words. The RNG draw
    /// sequence and the produced bytes are identical to the historical
    /// allocate-per-packet path — a debug assertion (and
    /// `template_matches_builder` in the tests) pins the patched frame
    /// byte-for-byte to what the builder would produce.
    pub fn next_packet_into(&mut self, pkt: &mut Packet) {
        let key = if self.flows.is_empty() {
            FlowKey {
                src: random_unicast(&mut self.rng),
                dst: random_unicast(&mut self.rng),
                protocol: ip_proto::UDP,
                src_port: self.rng.random_range(1024..=u16::MAX),
                dst_port: self.rng.random_range(1..1024),
            }
        } else {
            let i = self.rng.random_range(0..self.flows.len());
            self.flows[i]
        };
        self.next_payload();
        self.generated += 1;
        self.patch_from_template(&key, pkt);
        debug_assert_eq!(
            pkt.data,
            self.builder
                .udp(key.src, key.dst, key.src_port, key.dst_port, &self.payload_scratch)
                .data,
            "template patching must reproduce the builder's frame exactly"
        );
    }

    /// Copy the cached template frame into `pkt` (reusing its buffer) and
    /// patch key + payload into it.
    fn patch_from_template(&mut self, key: &FlowKey, pkt: &mut Packet) {
        const ETH: usize = 14; // EthernetHeader::LEN
        const IP: usize = 20; // Ipv4Header::LEN
        const UDP: usize = 8; // UdpHeader::LEN
        if self.template.is_none() {
            // Build once through the ordinary builder with a fixed key; all
            // patched fields are overwritten below on every packet.
            let t = self.builder.udp(
                Ipv4Addr::new(1, 0, 0, 1),
                Ipv4Addr::new(1, 0, 0, 2),
                1024,
                1,
                &self.payload_scratch,
            );
            self.template = Some(t);
        }
        let tmpl = self.template.as_ref().expect("just built");
        pkt.data.clear();
        pkt.data.extend_from_slice(&tmpl.data);
        pkt.buf_addr = 0;
        pkt.ingress_cycle = 0;
        let b = &mut pkt.data;
        // Patch the payload (its length is fixed per spec).
        let off = ETH + IP + UDP;
        b[off..off + self.payload_scratch.len()].copy_from_slice(&self.payload_scratch);
        // Patch addresses and ports.
        let old_src = [b[ETH + 12], b[ETH + 13], b[ETH + 14], b[ETH + 15]];
        let old_dst = [b[ETH + 16], b[ETH + 17], b[ETH + 18], b[ETH + 19]];
        b[ETH + 12..ETH + 16].copy_from_slice(&key.src.octets());
        b[ETH + 16..ETH + 20].copy_from_slice(&key.dst.octets());
        b[ETH + IP..ETH + IP + 2].copy_from_slice(&key.src_port.to_be_bytes());
        b[ETH + IP + 2..ETH + IP + 4].copy_from_slice(&key.dst_port.to_be_bytes());
        // Incrementally update the IPv4 header checksum for the four
        // changed 16-bit words (ports are not covered by it; the UDP
        // checksum stays 0 as the builder leaves it).
        let mut ck = u16::from_be_bytes([b[ETH + 10], b[ETH + 11]]);
        let news = key.src.octets();
        let newd = key.dst.octets();
        for (old, new) in [
            ([old_src[0], old_src[1]], [news[0], news[1]]),
            ([old_src[2], old_src[3]], [news[2], news[3]]),
            ([old_dst[0], old_dst[1]], [newd[0], newd[1]]),
            ([old_dst[2], old_dst[3]], [newd[2], newd[3]]),
        ] {
            ck = crate::checksum::update16(
                ck,
                u16::from_be_bytes(old),
                u16::from_be_bytes(new),
            );
        }
        b[ETH + 10..ETH + 12].copy_from_slice(&ck.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn template_matches_builder() {
        // The template-patching fast path must reproduce the builder's
        // frame byte for byte, for every traffic shape.
        for spec in [
            TrafficSpec::random_dst(64, 3),
            TrafficSpec::random_dst(256, 4),
            TrafficSpec::flow_population(128, 50, 5),
        ] {
            let mut patched = TrafficGen::new(spec.clone());
            let mut rebuilt = TrafficGen::new(spec);
            for _ in 0..200 {
                let p = patched.next_packet();
                // Rebuild through the builder with the same key/payload.
                let q = rebuilt.next_packet();
                let qb = rebuilt.builder.udp(
                    q.ipv4().unwrap().src,
                    q.ipv4().unwrap().dst,
                    q.flow_key().unwrap().src_port,
                    q.flow_key().unwrap().dst_port,
                    q.payload().unwrap(),
                );
                assert_eq!(p.data, qb.data);
            }
        }
    }

    #[test]
    fn refill_into_recycled_carcass_matches_fresh_stream() {
        // Refilling one carcass over and over (the PacketPool steady
        // state) must produce byte-for-byte the stream that fresh
        // allocation produces, including scrubbed metadata.
        for spec in [
            TrafficSpec::random_dst(64, 3),
            TrafficSpec::flow_population(128, 50, 5),
        ] {
            let mut fresh = TrafficGen::new(spec.clone());
            let mut reused = TrafficGen::new(spec);
            let mut carcass = Packet::from_bytes(bytes::BytesMut::new());
            for _ in 0..200 {
                carcass.buf_addr = 0xbeef; // poison: must be scrubbed
                carcass.ingress_cycle = 7;
                reused.next_packet_into(&mut carcass);
                let f = fresh.next_packet();
                assert_eq!(carcass.data, f.data);
                assert_eq!(carcass.buf_addr, 0);
                assert_eq!(carcass.ingress_cycle, 0);
            }
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = TrafficGen::new(TrafficSpec::random_dst(64, 7));
        let mut b = TrafficGen::new(TrafficSpec::random_dst(64, 7));
        for _ in 0..50 {
            assert_eq!(a.next_packet().data, b.next_packet().data);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TrafficGen::new(TrafficSpec::random_dst(64, 1));
        let mut b = TrafficGen::new(TrafficSpec::random_dst(64, 2));
        let same = (0..20).filter(|_| a.next_packet().data == b.next_packet().data).count();
        assert!(same < 3);
    }

    #[test]
    fn flow_population_bounds_distinct_tuples() {
        let mut g = TrafficGen::new(TrafficSpec::flow_population(128, 50, 3));
        let mut seen = HashSet::new();
        for _ in 0..2000 {
            let p = g.next_packet();
            seen.insert(p.flow_key().unwrap());
        }
        assert!(seen.len() <= 50);
        assert!(seen.len() > 40, "most of the population should appear");
    }

    #[test]
    fn random_dst_packets_are_valid_and_routable() {
        let mut g = TrafficGen::new(TrafficSpec::random_dst(64, 11));
        for _ in 0..200 {
            let p = g.next_packet();
            let ip = p.ipv4().unwrap();
            let first = ip.dst.octets()[0];
            assert!((1..=223).contains(&first) && first != 127, "dst {}", ip.dst);
            assert!(crate::headers::Ipv4Header::verify_checksum(
                &p.data[p.l3_offset()..]
            ));
        }
    }

    #[test]
    fn frame_length_respected() {
        for len in [60, 64, 128, 256, 1514] {
            let mut g = TrafficGen::new(TrafficSpec::random_dst(len, 5));
            assert_eq!(g.next_packet().len(), len);
        }
    }

    #[test]
    fn redundant_payloads_repeat() {
        let spec = TrafficSpec {
            frame_len: 256,
            n_flows: Some(10),
            payload: PayloadKind::Redundant { ratio: 0.8 },
            seed: 9,
        };
        let mut g = TrafficGen::new(spec);
        let payloads: Vec<Vec<u8>> =
            (0..200).map(|_| g.next_packet().payload().unwrap().to_vec()).collect();
        let distinct: HashSet<_> = payloads.iter().collect();
        assert!(
            distinct.len() < 100,
            "80% redundancy should repeat payloads (got {} distinct)",
            distinct.len()
        );
    }

    #[test]
    fn tease_payloads_contain_signature_fragments() {
        use crate::gen::signatures::generate_signatures;
        let spec = TrafficSpec::dpi_tease(512, 100, 200, 77, 13);
        let sigs = generate_signatures(200, 77);
        let mut g = TrafficGen::new(spec);
        // Count payload bytes that begin a ≥3-byte signature prefix: teased
        // traffic must have far more than random traffic would.
        let mut prefix_starts = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            let p = g.next_packet();
            let pay = p.payload().unwrap().to_vec();
            total += pay.len();
            for w in pay.windows(3) {
                if sigs.iter().any(|s| s.len() >= 3 && &s[..3] == w) {
                    prefix_starts += 1;
                }
            }
        }
        assert!(
            prefix_starts * 20 > total,
            "teased payloads should be dense in signature prefixes: \
             {prefix_starts} starts in {total} bytes"
        );
    }

    #[test]
    fn tease_embeds_full_signatures_at_requested_rate() {
        use crate::gen::signatures::generate_signatures;
        let spec = TrafficSpec {
            frame_len: 512,
            n_flows: Some(10),
            payload: PayloadKind::SignatureTease {
                n_signatures: 100,
                corpus_seed: 5,
                full_match_per_mille: 500, // 50% for a fast test
            },
            seed: 21,
        };
        let sigs = generate_signatures(100, 5);
        let mut g = TrafficGen::new(spec);
        let mut with_match = 0;
        const N: usize = 200;
        for _ in 0..N {
            let p = g.next_packet();
            let pay = p.payload().unwrap();
            if sigs.iter().any(|s| pay.windows(s.len()).any(|w| w == s.as_slice())) {
                with_match += 1;
            }
        }
        assert!(
            (60..=180).contains(&with_match),
            "≈50% of packets should contain a full signature, got {with_match}/{N}"
        );
    }

    #[test]
    fn zero_payload_mode() {
        let spec = TrafficSpec {
            frame_len: 128,
            n_flows: None,
            payload: PayloadKind::Zeros,
            seed: 1,
        };
        let mut g = TrafficGen::new(spec);
        let p = g.next_packet();
        assert!(p.payload().unwrap().iter().all(|&b| b == 0));
    }
}
