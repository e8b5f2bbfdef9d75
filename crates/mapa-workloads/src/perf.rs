//! The execution-time model.
//!
//! `t_iter(allocation) = t_compute + bytes_per_iter / EffBW(allocation, avg_msg)`
//!
//! where EffBW comes from the simulated NCCL microbenchmark evaluated *at
//! the workload's own average message size* — this is what separates
//! bandwidth-sensitive from insensitive workloads: GoogleNet's ~2·10⁴-byte
//! messages sit on the latency-bound part of the Fig. 2a ramp where no link
//! class helps much, while VGG-16's ~10⁶-byte messages exploit the full
//! NVLink differential.

use crate::network::Workload;
use mapa_interconnect::{effbw, rings};
use mapa_topology::Topology;

/// Per-iteration time (seconds) for `workload` running on the physical
/// `gpus` of `topology`.
///
/// Single-GPU allocations pay no communication. Multi-GPU allocations pay
/// `bytes / EffBW(avg_msg)` with EffBW from ring-packing the allocation.
#[must_use]
pub fn iteration_time(workload: Workload, topology: &Topology, gpus: &[usize]) -> f64 {
    let m = workload.model();
    if gpus.len() < 2 {
        return m.compute_seconds;
    }
    let bw = effbw::measure_at_size(topology, gpus, m.avg_message_bytes);
    m.compute_seconds + comm_time(m.comm_bytes_per_iter, bw)
}

/// Per-iteration time given an already-measured effective bandwidth in
/// GB/s (at the workload's message size). Used by the simulator, which
/// scores allocations once and reuses the number.
#[must_use]
pub fn iteration_time_with_effbw(workload: Workload, n_gpus: usize, eff_bw_gbps: f64) -> f64 {
    let m = workload.model();
    if n_gpus < 2 {
        return m.compute_seconds;
    }
    m.compute_seconds + comm_time(m.comm_bytes_per_iter, eff_bw_gbps)
}

/// Total execution time (seconds) for a run of `iterations`.
#[must_use]
pub fn execution_time(
    workload: Workload,
    topology: &Topology,
    gpus: &[usize],
    iterations: u64,
) -> f64 {
    iteration_time(workload, topology, gpus) * iterations as f64
}

/// Effective bandwidth the workload experiences on an allocation — the
/// microbenchmark evaluated at the workload's average message size.
#[must_use]
pub fn workload_effbw(workload: Workload, topology: &Topology, gpus: &[usize]) -> f64 {
    if gpus.len() < 2 {
        return 0.0;
    }
    effbw::measure_at_size(topology, gpus, workload.model().avg_message_bytes)
}

/// Like [`workload_effbw`] but pricing pre-packed ring rates — the
/// simulator's path: it packs rings once per link pattern
/// ([`rings::RingMemo`]) and reads this and the saturating microbenchmark
/// figure off the same [`rings::RingRate`]s.
#[must_use]
pub fn workload_effbw_rings(workload: Workload, rates: &[rings::RingRate], n_gpus: usize) -> f64 {
    if n_gpus < 2 {
        return 0.0;
    }
    effbw::measure_rings_at_size(rates, n_gpus, workload.model().avg_message_bytes)
}

fn comm_time(bytes: f64, eff_bw_gbps: f64) -> f64 {
    if eff_bw_gbps <= 0.0 {
        // No usable fabric measurement — an allocation always has at least
        // the PCIe path, so this only happens for degenerate inputs.
        return f64::INFINITY;
    }
    bytes / (eff_bw_gbps * 1e9)
}

/// The double-NVLink-vs-PCIe speedup of a 2-GPU run — the paper's Fig. 2b
/// metric: `t(PCIe pair) / t(double-NVLink pair)`.
#[must_use]
pub fn fig2b_speedup(workload: Workload, topology: &Topology) -> Fig2bSpeedup {
    // The paper's pairs on DGX-1V (0-indexed): double (0,4), single (0,1),
    // pcie (0,5).
    let t_double = iteration_time(workload, topology, &[0, 4]);
    let t_single = iteration_time(workload, topology, &[0, 1]);
    let t_pcie = iteration_time(workload, topology, &[0, 5]);
    Fig2bSpeedup {
        double_vs_pcie: t_pcie / t_double,
        single_vs_pcie: t_pcie / t_single,
    }
}

/// Speedups of NVLink pairs over the PCIe pair (Fig. 2b normalization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2bSpeedup {
    /// `t(PCIe) / t(double NVLink)`.
    pub double_vs_pcie: f64,
    /// `t(PCIe) / t(single NVLink)`.
    pub single_vs_pcie: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_topology::machines;

    #[test]
    fn fig2b_speedups_match_calibration_targets() {
        let dgx = machines::dgx1_v100();
        let tol = 0.15;
        let cases = [
            (Workload::Vgg16, 3.0),
            (Workload::AlexNet, 2.3),
            (Workload::ResNet50, 1.5),
            (Workload::InceptionV3, 1.5),
            (Workload::GoogleNet, 1.1),
            (Workload::CaffeNet, 1.15),
        ];
        for (w, target) in cases {
            let s = fig2b_speedup(w, &dgx).double_vs_pcie;
            assert!(
                (s - target).abs() < tol,
                "{w}: speedup {s:.3}, target {target}"
            );
        }
    }

    #[test]
    fn speedup_ordering_double_ge_single_ge_one() {
        let dgx = machines::dgx1_v100();
        for w in Workload::all() {
            let s = fig2b_speedup(w, &dgx);
            assert!(s.double_vs_pcie >= s.single_vs_pcie - 1e-9, "{w}");
            assert!(s.single_vs_pcie >= 1.0 - 1e-9, "{w}");
        }
    }

    #[test]
    fn sensitive_workloads_gain_much_more_than_insensitive() {
        // The structural claim behind the Preserve policy.
        let dgx = machines::dgx1_v100();
        let vgg = fig2b_speedup(Workload::Vgg16, &dgx).double_vs_pcie;
        let goog = fig2b_speedup(Workload::GoogleNet, &dgx).double_vs_pcie;
        let jacobi = fig2b_speedup(Workload::Jacobi, &dgx).double_vs_pcie;
        assert!(vgg > 2.0 * goog.min(jacobi));
        // Jacobi: paper reports < 3% improvement.
        assert!(jacobi < 1.05, "jacobi speedup {jacobi}");
    }

    #[test]
    fn single_gpu_jobs_are_placement_independent() {
        let dgx = machines::dgx1_v100();
        for w in Workload::all() {
            let a = iteration_time(w, &dgx, &[0]);
            let b = iteration_time(w, &dgx, &[7]);
            assert_eq!(a, b, "{w}");
            assert_eq!(a, w.model().compute_seconds);
            assert_eq!(workload_effbw(w, &dgx, &[3]), 0.0);
        }
    }

    #[test]
    fn execution_time_is_linear_in_iterations() {
        // Fig. 6: execution time grows linearly with iterations on any
        // fixed allocation.
        let dgx = machines::dgx1_v100();
        let t1 = execution_time(Workload::Vgg16, &dgx, &[0, 1], 1000);
        let t2 = execution_time(Workload::Vgg16, &dgx, &[0, 1], 2000);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fragmented_allocation_slows_sensitive_jobs() {
        let dgx = machines::dgx1_v100();
        let ideal = iteration_time(Workload::Vgg16, &dgx, &[0, 2, 3]);
        let frag = iteration_time(Workload::Vgg16, &dgx, &[0, 1, 4]);
        assert!(frag > 1.5 * ideal, "frag {frag} vs ideal {ideal}");
        // Insensitive workload barely notices the same fragmentation.
        let g_ideal = iteration_time(Workload::GoogleNet, &dgx, &[0, 2, 3]);
        let g_frag = iteration_time(Workload::GoogleNet, &dgx, &[0, 1, 4]);
        assert!(g_frag < 1.15 * g_ideal, "{g_frag} vs {g_ideal}");
    }

    #[test]
    fn default_durations_land_in_papers_range() {
        // Fig. 13: execution times roughly 200–1100 s. Check the default
        // job durations on a good 2-GPU allocation.
        let dgx = machines::dgx1_v100();
        for w in Workload::all() {
            let m = w.model();
            let t = execution_time(w, &dgx, &[0, 3], m.default_iterations);
            assert!(
                (150.0..1200.0).contains(&t),
                "{w}: default duration {t:.0}s out of range"
            );
        }
    }

    #[test]
    fn iteration_time_with_effbw_matches_direct_path() {
        let dgx = machines::dgx1_v100();
        let gpus = [0, 1, 2];
        for w in [Workload::Vgg16, Workload::GoogleNet] {
            let direct = iteration_time(w, &dgx, &gpus);
            let bw = workload_effbw(w, &dgx, &gpus);
            let via = iteration_time_with_effbw(w, gpus.len(), bw);
            assert!((direct - via).abs() < 1e-12, "{w}");
        }
    }
}
