//! The effective-bandwidth "microbenchmark".
//!
//! §3.4.1 of the paper: "Effective Bandwidth (EffBW) \[is\] the peak
//! achievable bandwidth for a given allocation. This metric is measured by
//! running microbenchmarks … we use the NCCL All-reduce microbenchmark."
//! [`measure`] is our simulated equivalent: pack rings onto the allocation
//! and report the saturating all-reduce bus bandwidth; [`measure_at_size`]
//! at a sweep of sizes gives the Fig. 2a bandwidth-vs-size curves.

use crate::allreduce;
use crate::rings::{pack_rings, RingRate};
use mapa_topology::Topology;

/// Transfer size (bytes) at which the paper's microbenchmark operates —
/// large enough that every link class is saturated (Fig. 2a plateaus by
/// 10⁸–10⁹ bytes).
pub const SATURATING_BYTES: f64 = 256e6;

/// Measures the effective (saturating all-reduce bus) bandwidth of
/// allocating `gpus` on `topology`, in GB/s.
///
/// Single-GPU and empty allocations have no inter-GPU traffic and report
/// 0 GB/s; scoring layers treat them specially.
///
/// # Panics
/// Panics on duplicate/out-of-range GPUs or more than
/// [`MAX_RING_GPUS`](crate::rings::MAX_RING_GPUS) of them.
#[must_use]
pub fn measure(topology: &Topology, gpus: &[usize]) -> f64 {
    measure_at_size(topology, gpus, SATURATING_BYTES)
}

/// Like [`measure`] but at an explicit transfer size.
#[must_use]
pub fn measure_at_size(topology: &Topology, gpus: &[usize], bytes: f64) -> f64 {
    let rates = pack_rings(topology, gpus).rates();
    allreduce::allreduce_bus_bandwidth_gbps(&rates, gpus.len(), bytes)
}

/// Prices pre-packed ring rates — for callers that need several sizes of
/// one allocation (the simulator prices a placement at the workload's
/// message size and at [`SATURATING_BYTES`] from a single packing).
#[must_use]
pub fn measure_rings_at_size(rates: &[RingRate], n_gpus: usize, bytes: f64) -> f64 {
    allreduce::allreduce_bus_bandwidth_gbps(rates, n_gpus, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_topology::machines;

    #[test]
    fn paper_worked_example_ordering() {
        let dgx = machines::dgx1_v100();
        // Ideal {0,2,3} must beat fragmented {0,1,4} decisively.
        let ideal = measure(&dgx, &[0, 2, 3]);
        let frag = measure(&dgx, &[0, 1, 4]);
        assert!(ideal > 20.0, "ideal NVLink ring ≈ 25, got {ideal}");
        assert!(frag < 15.0, "fragmented PCIe ring ≈ 12, got {frag}");
    }

    #[test]
    fn effbw_is_nonlinear_in_aggregated_bandwidth() {
        // The paper's Fig. 11b point: AggBW does not predict EffBW.
        // {0,1,4} has AggBW 87 (25+50+12) but EffBW ~12;
        // {0,1,2} has AggBW 100 (25+25+50) and EffBW ~25.
        // Ratio of AggBW ≈ 1.15, ratio of EffBW ≈ 2 — wildly different.
        let dgx = machines::dgx1_v100();
        let agg_frag: f64 = 87.0;
        let agg_good: f64 = 100.0;
        let eff_frag = measure(&dgx, &[0, 1, 4]);
        let eff_good = measure(&dgx, &[0, 1, 2]);
        let agg_ratio = agg_good / agg_frag;
        let eff_ratio = eff_good / eff_frag;
        assert!(eff_ratio > 1.5 * agg_ratio, "{eff_ratio} vs {agg_ratio}");
    }

    #[test]
    fn curves_are_monotone_and_ordered_like_fig2a() {
        let dgx = machines::dgx1_v100();
        // 10⁴–10⁹ bytes, three geometric steps per decade.
        let sweep = |gpus: &[usize]| -> Vec<f64> {
            (12..30)
                .map(|step| measure_at_size(&dgx, gpus, 10f64.powf(f64::from(step) / 3.0)))
                .collect()
        };
        let double = sweep(&[0, 3]);
        let single = sweep(&[0, 1]);
        let pcie = sweep(&[0, 5]);
        for ((d, s), p) in double.iter().zip(&single).zip(&pcie) {
            assert!(d >= s);
            assert!(s >= p);
        }
        for c in [&double, &single, &pcie] {
            for w in c.windows(2) {
                assert!(w[1] >= w[0] - 1e-9);
            }
        }
        // Plateau values.
        assert!((double.last().unwrap() - 50.0).abs() < 3.0);
        assert!((pcie.last().unwrap() - 12.0).abs() < 1.0);
    }

    #[test]
    fn single_gpu_reports_zero() {
        let dgx = machines::dgx1_v100();
        assert_eq!(measure(&dgx, &[2]), 0.0);
        assert_eq!(measure(&dgx, &[]), 0.0);
    }

    #[test]
    fn five_gpu_allocations_span_a_range() {
        // Distinct 5-GPU allocations on DGX-1V produce a spread of EffBW —
        // the signal MAPA's scoring exploits.
        let dgx = machines::dgx1_v100();
        let a = measure(&dgx, &[0, 1, 2, 3, 4]);
        let b = measure(&dgx, &[0, 1, 4, 5, 6]);
        let c = measure(&dgx, &[0, 2, 4, 5, 7]);
        let lo = a.min(b).min(c);
        let hi = a.max(b).max(c);
        assert!(hi > lo, "allocations must differ: {a} {b} {c}");
        assert!(
            hi <= 80.0,
            "bus bandwidth stays in the paper's Fig. 16 range"
        );
    }

    #[test]
    fn dgx2_uniform_fabric_is_insensitive_to_placement() {
        let dgx2 = machines::dgx2();
        let a = measure(&dgx2, &[0, 1, 2, 3]);
        let b = measure(&dgx2, &[3, 7, 11, 15]);
        assert!(
            (a - b).abs() < 1e-9,
            "NVSwitch placement-independence: {a} vs {b}"
        );
    }
}
