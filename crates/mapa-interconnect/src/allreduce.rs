//! All-reduce time models (ring and tree) with NCCL-style selection.
//!
//! *Ring all-reduce* of `s` bytes over `n` GPUs performs `2(n-1)` steps of
//! `s/n`-byte transfers; with `k` parallel rings the payload is striped so
//! each ring carries `s/k`. A ring's step rate is set by its bottleneck
//! link, so the completion time of the collective is the slowest ring's
//! time. *Tree all-reduce* does a reduce + broadcast along a tree —
//! 2·depth latency terms but only 2 data traversals — which wins for small
//! transfers, exactly why NCCL switches algorithms by size (the paper's
//! §3.1 notes NCCL "builds rings or trees and utilizes them depending on
//! the data transfer size").

use crate::rings::RingSet;

/// Fixed per-step launch latency inside a collective (seconds). A single
/// NCCL kernel step costs roughly a microsecond-scale sync plus the link
/// α; we fold both into the per-ring α below and this small constant.
const STEP_OVERHEAD_S: f64 = 2e-6;

/// Which collective algorithm a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Striped rings (bandwidth-optimal, latency-heavy).
    Ring,
    /// Reduce+broadcast tree (latency-optimal, bandwidth-suboptimal).
    Tree,
}

/// Time in seconds for a ring all-reduce of `bytes` over `rings`,
/// assuming payload striped across rings proportionally to their
/// bottleneck bandwidth.
///
/// Returns 0 when there is nothing to do (no rings or zero bytes) — a
/// 1-GPU "collective" is free.
#[must_use]
pub fn ring_allreduce_time(rings: &RingSet, n_gpus: usize, bytes: f64) -> f64 {
    if rings.rings.is_empty() || bytes <= 0.0 || n_gpus < 2 {
        return 0.0;
    }
    let total_bw: f64 = rings.total_bus_bandwidth_gbps();
    let steps = 2 * (n_gpus - 1);
    let mut worst = 0.0f64;
    for ring in &rings.rings {
        // Stripe proportionally to bottleneck bandwidth.
        let share = bytes * ring.bottleneck_gbps / total_bw;
        let chunk = share / n_gpus as f64;
        let alpha = if ring.all_nvlink { 20e-6 } else { 50e-6 };
        // Every step pays the full link latency — this is what makes rings
        // latency-heavy (2(n-1)·α) versus trees (2·log₂(n)·α).
        let step_time = STEP_OVERHEAD_S + alpha + chunk / (ring.bottleneck_gbps * 1e9);
        worst = worst.max(steps as f64 * step_time);
    }
    worst
}

/// Time in seconds for a binary-tree all-reduce of `bytes` over `n_gpus`
/// GPUs whose slowest usable link sustains `bottleneck_gbps`.
#[must_use]
pub fn tree_allreduce_time(n_gpus: usize, bottleneck_gbps: f64, bytes: f64) -> f64 {
    if n_gpus < 2 || bytes <= 0.0 {
        return 0.0;
    }
    let depth = (n_gpus as f64).log2().ceil().max(1.0);
    // Hop latency follows the link class: PCIe-bound trees bounce through
    // the host (keeps Fig. 2a's link ordering even at small sizes).
    let alpha = if bottleneck_gbps >= 20.0 {
        20e-6
    } else {
        50e-6
    };
    // Reduce up + broadcast down: 2·depth hops, full payload each hop.
    2.0 * depth * (STEP_OVERHEAD_S + alpha + bytes / (bottleneck_gbps * 1e9))
}

/// NCCL-style algorithm selection: run whichever of ring/tree is faster
/// for this size. Returns the time and the chosen algorithm.
#[must_use]
pub fn allreduce_time(rings: &RingSet, n_gpus: usize, bytes: f64) -> (f64, Algorithm) {
    if n_gpus < 2 || bytes <= 0.0 {
        return (0.0, Algorithm::Ring);
    }
    let ring_t = ring_allreduce_time(rings, n_gpus, bytes);
    let bottleneck = rings.rings.first().map_or(12.0, |r| r.bottleneck_gbps);
    let tree_t = tree_allreduce_time(n_gpus, bottleneck, bytes);
    if tree_t < ring_t {
        (tree_t, Algorithm::Tree)
    } else {
        (ring_t, Algorithm::Ring)
    }
}

/// Observed collective bus bandwidth in GB/s for an all-reduce of `bytes`.
#[must_use]
pub fn allreduce_bus_bandwidth_gbps(rings: &RingSet, n_gpus: usize, bytes: f64) -> f64 {
    if bytes <= 0.0 || n_gpus < 2 {
        return 0.0;
    }
    let (t, _) = allreduce_time(rings, n_gpus, bytes);
    if t <= 0.0 {
        return 0.0;
    }
    // NCCL busBw convention: algbw × 2(n-1)/n, so that the number is
    // comparable to link bandwidth regardless of n.
    let algbw = bytes / t / 1e9;
    algbw * 2.0 * (n_gpus as f64 - 1.0) / n_gpus as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rings::pack_rings;
    use mapa_topology::machines;

    #[test]
    fn two_gpu_bus_bandwidth_saturates_to_link_class() {
        let dgx = machines::dgx1_v100();
        let big = 512e6;
        let d = allreduce_bus_bandwidth_gbps(&pack_rings(&dgx, &[0, 3]), 2, big);
        let s = allreduce_bus_bandwidth_gbps(&pack_rings(&dgx, &[0, 1]), 2, big);
        let p = allreduce_bus_bandwidth_gbps(&pack_rings(&dgx, &[0, 5]), 2, big);
        assert!((d - 50.0).abs() < 2.5, "double ≈ 50, got {d}");
        assert!((s - 25.0).abs() < 1.5, "single ≈ 25, got {s}");
        assert!((p - 12.0).abs() < 1.0, "pcie ≈ 12, got {p}");
    }

    #[test]
    fn small_sizes_prefer_tree() {
        let dgx = machines::dgx1_v100();
        let rings = pack_rings(&dgx, &[0, 1, 2, 3]);
        let (_, alg_small) = allreduce_time(&rings, 4, 1e3);
        let (_, alg_big) = allreduce_time(&rings, 4, 1e9);
        assert_eq!(alg_small, Algorithm::Tree);
        assert_eq!(alg_big, Algorithm::Ring);
    }

    #[test]
    fn time_is_monotone_in_size() {
        let dgx = machines::dgx1_v100();
        let rings = pack_rings(&dgx, &[0, 1, 2]);
        let mut prev = 0.0;
        for exp in 3..10 {
            let (t, _) = allreduce_time(&rings, 3, 10f64.powi(exp));
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn fragmented_allocation_is_slower() {
        let dgx = machines::dgx1_v100();
        let good = pack_rings(&dgx, &[0, 2, 3]);
        let bad = pack_rings(&dgx, &[0, 1, 4]);
        let s = 256e6;
        let (tg, _) = allreduce_time(&good, 3, s);
        let (tb, _) = allreduce_time(&bad, 3, s);
        assert!(tb > 1.5 * tg, "fragmented {tb} vs ideal {tg}");
    }

    #[test]
    fn degenerate_cases_are_free() {
        let dgx = machines::dgx1_v100();
        let rings = pack_rings(&dgx, &[0]);
        assert_eq!(ring_allreduce_time(&rings, 1, 1e6), 0.0);
        assert_eq!(allreduce_bus_bandwidth_gbps(&rings, 1, 1e6), 0.0);
        let pair = pack_rings(&dgx, &[0, 1]);
        assert_eq!(ring_allreduce_time(&pair, 2, 0.0), 0.0);
        assert_eq!(tree_allreduce_time(1, 25.0, 1e6), 0.0);
    }

    #[test]
    fn more_gpus_at_same_link_class_cost_more_latency() {
        // Same per-link class; larger rings take more steps at small size.
        let s = machines::summit();
        let three = pack_rings(&s, &[0, 1, 2]);
        let small = 1e4;
        let (t3, _) = allreduce_time(&three, 3, small);
        let dgx2 = machines::dgx2();
        let six = pack_rings(&dgx2, &[0, 1, 2, 3, 4, 5]);
        let (t6, _) = allreduce_time(&six, 6, small);
        assert!(t6 > t3);
    }
}
