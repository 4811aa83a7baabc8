//! The compute-cost model: cycles and instructions charged for the
//! arithmetic work of each processing step.
//!
//! Memory time is *never* in this file — it comes from the simulated cache
//! hierarchy. These constants cover only straight-line compute (hashing,
//! comparisons, checksum math, AES rounds), and were calibrated **once**
//! against Table 1 of the paper (solo-run cycles/packet and CPI for each
//! workload); they are never tuned per experiment. `repro table1` prints
//! the calibration outcome next to the paper's values.

use pp_sim::types::Cycles;

/// Per-step compute costs `(cycles, instructions)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Framework dispatch per element hop.
    pub element_hop: (Cycles, u64),
    /// Per-packet source/driver overhead beyond the charged NIC accesses
    /// (IRQ amortization, prefetch setup, book-keeping arithmetic).
    pub per_packet_overhead: (Cycles, u64),
    /// The portion of [`per_packet_overhead`](Self::per_packet_overhead)
    /// that batching amortizes: interrupt handling, doorbell writes, poll
    /// scheduling. The batched datapath charges this **once per batch**.
    /// Invariant: `batch_fixed_overhead + batch_per_packet_overhead ==
    /// per_packet_overhead`, so a one-packet batch charges exactly the
    /// paper's per-packet overhead.
    pub batch_fixed_overhead: (Cycles, u64),
    /// The irreducibly per-packet portion of the source/driver overhead in
    /// batched mode (per-packet bookkeeping that no batching removes).
    pub batch_per_packet_overhead: (Cycles, u64),
    /// Header validation: version/length checks plus the 10-word IP
    /// checksum verification.
    pub check_ip_header: (Cycles, u64),
    /// Per trie-node step of the longest-prefix-match walk.
    pub lookup_step: (Cycles, u64),
    /// TTL decrement + incremental checksum patch.
    pub dec_ttl: (Cycles, u64),
    /// Flow-key extraction + FNV hash (MON's `flow_statistics` entry).
    pub netflow_hash: (Cycles, u64),
    /// Per-entry flow-table update arithmetic.
    pub netflow_update: (Cycles, u64),
    /// Per-rule evaluation in the sequential firewall scan.
    pub fw_rule: (Cycles, u64),
    /// Per-byte Rabin rolling-hash cost in RE.
    pub rabin_per_byte: (Cycles, u64),
    /// Per-anchor fingerprint handling in RE (beyond table accesses).
    pub re_per_anchor: (Cycles, u64),
    /// Per-AES-round arithmetic (shifts/xors around the T-table loads).
    pub aes_round: (Cycles, u64),
    /// AES per-block overhead (counter increment, XOR into payload).
    pub aes_block_overhead: (Cycles, u64),
    /// Per-payload-byte automaton step in DPI (index arithmetic around the
    /// state-table load).
    pub dpi_byte: (Cycles, u64),
    /// Per-match bookkeeping in DPI (alert record, beyond table accesses).
    pub dpi_match: (Cycles, u64),
    /// Per-binding NAT work (port allocation, header rewrite arithmetic,
    /// incremental checksum patches).
    pub nat_rewrite: (Cycles, u64),
    /// Per-tuple hash-and-probe arithmetic in tuple-space classification.
    pub class_tuple: (Cycles, u64),
    /// One synthetic "CPU operation" (the paper's counter increment).
    pub syn_op: (Cycles, u64),
    /// Queue enqueue/dequeue arithmetic (pipeline mode).
    pub queue_op: (Cycles, u64),
    /// Size of the per-flow "framework" region modelling Click's code +
    /// metadata footprint (instruction stream, element objects, packet
    /// annotations). Real Click touches far more lines per packet than the
    /// element data structures alone; without this pressure the simulated
    /// L1 would unrealistically pin the hot tops of the lookup structures.
    pub framework_region_bytes: u64,
    /// Framework lines touched per packet (rotating sequentially through
    /// the region).
    pub framework_lines_per_packet: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            element_hop: (12, 10),
            per_packet_overhead: (620, 900),
            batch_fixed_overhead: (320, 450),
            batch_per_packet_overhead: (300, 450),
            check_ip_header: (60, 55),
            lookup_step: (7, 8),
            dec_ttl: (12, 10),
            netflow_hash: (45, 40),
            netflow_update: (25, 20),
            fw_rule: (17, 14),
            rabin_per_byte: (5, 5),
            re_per_anchor: (90, 75),
            aes_round: (26, 40),
            aes_block_overhead: (40, 45),
            dpi_byte: (2, 3),
            dpi_match: (30, 25),
            nat_rewrite: (55, 50),
            class_tuple: (22, 20),
            syn_op: (1, 1),
            queue_op: (30, 25),
            framework_region_bytes: 128 * 1024,
            framework_lines_per_packet: 16,
        }
    }
}

impl CostModel {
    /// Charge one `(cycles, instructions)` pair to the context.
    #[inline]
    pub fn charge(ctx: &mut pp_sim::ctx::ExecCtx<'_>, cost: (Cycles, u64)) {
        ctx.compute(cost.0, cost.1);
    }

    /// Charge `cost` once per packet for an `n`-packet batch (one `compute`
    /// call; counter totals equal `n` scalar charges).
    #[inline]
    pub fn charge_n(ctx: &mut pp_sim::ctx::ExecCtx<'_>, cost: (Cycles, u64), n: u64) {
        ctx.compute(cost.0 * n, cost.1 * n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_are_sane() {
        let c = CostModel::default();
        // Every step costs something.
        for (cy, i) in [
            c.element_hop,
            c.per_packet_overhead,
            c.batch_fixed_overhead,
            c.batch_per_packet_overhead,
            c.check_ip_header,
            c.lookup_step,
            c.dec_ttl,
            c.netflow_hash,
            c.netflow_update,
            c.fw_rule,
            c.rabin_per_byte,
            c.re_per_anchor,
            c.aes_round,
            c.aes_block_overhead,
            c.dpi_byte,
            c.dpi_match,
            c.nat_rewrite,
            c.class_tuple,
            c.syn_op,
            c.queue_op,
        ] {
            assert!(cy >= 1 && i >= 1);
        }
        // The firewall's per-rule cost dominates its packet cost as in the
        // paper (≈14.7k instructions/packet for 1000 rules).
        assert!(c.fw_rule.1 * 1000 > 10_000);
    }

    #[test]
    fn batch_overhead_split_reconstructs_scalar_overhead() {
        // The bit-for-bit batch=1 guarantee depends on this invariant.
        let c = CostModel::default();
        assert_eq!(
            c.batch_fixed_overhead.0 + c.batch_per_packet_overhead.0,
            c.per_packet_overhead.0,
            "cycle split must sum to the scalar per-packet overhead"
        );
        assert_eq!(
            c.batch_fixed_overhead.1 + c.batch_per_packet_overhead.1,
            c.per_packet_overhead.1,
            "instruction split must sum to the scalar per-packet overhead"
        );
    }
}
