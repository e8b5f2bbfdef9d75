//! Fragmentation analysis (paper §2.2, Fig. 4).
//!
//! The paper quantifies allocation quality as
//! `BW_Allocated / BW_IdealAllocation`: the aggregate bandwidth of what a
//! job received versus the best possible same-size allocation on an idle
//! machine (the §2.2 example: {GPU0, GPU1, GPU4} aggregates 87 GB/s versus
//! the ideal 125 GB/s for 3 GPUs on DGX-1V).

use mapa_topology::Topology;

/// Aggregate bandwidth of an allocation: the sum over all GPU pairs inside
/// it (the complete matching pattern, as in the §2.2 worked example).
#[must_use]
pub fn aggregate_bandwidth(topology: &Topology, gpus: &[usize]) -> f64 {
    topology.bandwidth_among(gpus)
}

/// The best aggregate bandwidth achievable by any `k`-GPU allocation on an
/// idle machine — the denominator of the Fig. 4 quality ratio.
///
/// Returns 0 for `k < 2` (no links to aggregate) and for `k` above the
/// machine's GPU count (no such allocation).
///
/// Walks the `C(n, k)` subsets in lexicographic order without building
/// them: `within[d]` is the pair sum inside the first `d + 1` chosen GPUs,
/// so advancing the last position costs `k - 1` additions instead of
/// `k(k-1)/2`. Link bandwidths are whole GB/s, so a pair sum is exact in
/// whatever order it is added up.
#[must_use]
pub fn ideal_aggregate_bandwidth(topology: &Topology, k: usize) -> f64 {
    let n = topology.gpu_count();
    if k < 2 || k > n {
        return 0.0;
    }
    let mut chosen: Vec<usize> = (0..k).collect();
    let mut within = vec![0.0; k];
    // `chosen[from..]` changed: redo the running sums from there.
    let resum = |chosen: &[usize], within: &mut [f64], from: usize| {
        for d in from.max(1)..k {
            let into: f64 = chosen[..d]
                .iter()
                .map(|&g| topology.bandwidth(g, chosen[d]))
                .sum();
            within[d] = within[d - 1] + into;
        }
    };
    resum(&chosen, &mut within, 0);
    let mut ideal = 0.0f64;
    loop {
        ideal = ideal.max(within[k - 1]);
        // Rightmost position that can still move right.
        let Some(i) = (0..k).rfind(|&i| chosen[i] != i + n - k) else {
            return ideal;
        };
        chosen[i] += 1;
        for j in (i + 1)..k {
            chosen[j] = chosen[j - 1] + 1;
        }
        resum(&chosen, &mut within, i);
    }
}

/// The Fig. 4 quality metric `BW_Allocated / BW_IdealAllocation`.
///
/// Defined as 1.0 for 1-GPU allocations (no bandwidth at stake).
#[must_use]
pub fn allocation_quality(topology: &Topology, gpus: &[usize]) -> f64 {
    if gpus.len() < 2 {
        return 1.0;
    }
    aggregate_bandwidth(topology, gpus) / ideal_aggregate_bandwidth(topology, gpus.len())
}

/// [`ideal_aggregate_bandwidth`] of one machine, each job size worked out
/// the first time it is asked for. The ideal depends only on `(machine, k)`
/// while a simulation asks for it at every job start.
///
/// The table does not hold the machine: pass the same topology every time.
#[derive(Debug, Clone, Default)]
pub struct IdealBandwidthTable {
    by_size: Vec<Option<f64>>,
}

impl IdealBandwidthTable {
    /// [`ideal_aggregate_bandwidth`]`(topology, k)`, computed at most once.
    pub fn ideal(&mut self, topology: &Topology, k: usize) -> f64 {
        if self.by_size.len() <= k {
            self.by_size.resize(k + 1, None);
        }
        *self.by_size[k].get_or_insert_with(|| ideal_aggregate_bandwidth(topology, k))
    }

    /// [`allocation_quality`]`(topology, gpus)`, bit for bit, with the
    /// denominator taken from the table.
    pub fn allocation_quality(&mut self, topology: &Topology, gpus: &[usize]) -> f64 {
        if gpus.len() < 2 {
            return 1.0;
        }
        aggregate_bandwidth(topology, gpus) / self.ideal(topology, gpus.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_topology::machines;

    #[test]
    fn paper_worked_example() {
        let dgx = machines::dgx1_v100();
        assert_eq!(aggregate_bandwidth(&dgx, &[0, 1, 4]), 87.0);
        assert_eq!(ideal_aggregate_bandwidth(&dgx, 3), 125.0);
        assert!((allocation_quality(&dgx, &[0, 1, 4]) - 87.0 / 125.0).abs() < 1e-12);
        // The ideal allocation itself scores 1.0.
        assert!((allocation_quality(&dgx, &[0, 2, 3]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quality_is_bounded() {
        let dgx = machines::dgx1_v100();
        for k in 2..=5 {
            for combo in mapa_model::corpus::combinations(8, k) {
                let q = allocation_quality(&dgx, &combo);
                assert!(
                    (0.0..=1.0 + 1e-12).contains(&q),
                    "quality {q} out of range for {combo:?}"
                );
            }
        }
    }

    #[test]
    fn single_gpu_quality_is_one() {
        let dgx = machines::dgx1_v100();
        assert_eq!(allocation_quality(&dgx, &[5]), 1.0);
        assert_eq!(ideal_aggregate_bandwidth(&dgx, 1), 0.0);
        assert_eq!(ideal_aggregate_bandwidth(&dgx, 0), 0.0);
    }

    #[test]
    fn uniform_machine_has_no_fragmentation() {
        let dgx2 = machines::dgx2();
        for k in 2..=5 {
            // Every allocation on an NVSwitch machine is ideal.
            let q = allocation_quality(&dgx2, &(0..k).collect::<Vec<_>>());
            assert!((q - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ideal_grows_with_job_size() {
        let dgx = machines::dgx1_v100();
        let mut prev = 0.0;
        for k in 2..=6 {
            let ideal = ideal_aggregate_bandwidth(&dgx, k);
            assert!(ideal > prev);
            prev = ideal;
        }
    }

    #[test]
    fn in_place_walk_equals_the_materialized_enumeration() {
        for machine in machines::all_machines() {
            for k in 0..=machine.gpu_count() + 1 {
                let listed = mapa_model::corpus::combinations(machine.gpu_count(), k)
                    .into_iter()
                    .map(|combo| aggregate_bandwidth(&machine, &combo))
                    .fold(0.0, f64::max);
                let expected = if k < 2 { 0.0 } else { listed };
                assert_eq!(
                    ideal_aggregate_bandwidth(&machine, k).to_bits(),
                    expected.to_bits(),
                    "{} k={k}",
                    machine.name()
                );
            }
        }
    }

    #[test]
    fn table_equals_the_free_functions() {
        let cube = machines::cube_mesh();
        let mut table = IdealBandwidthTable::default();
        // Out of size order, and each size twice: filled lazily, then reused.
        for gpus in [
            vec![3, 9, 12, 1, 6],
            vec![4],
            vec![0, 15],
            vec![2, 5, 7, 8, 10, 11, 13, 14],
            vec![15, 0],
            vec![1, 3, 6, 9, 12],
        ] {
            assert_eq!(
                table.allocation_quality(&cube, &gpus).to_bits(),
                allocation_quality(&cube, &gpus).to_bits(),
                "{gpus:?}"
            );
            assert_eq!(
                table.ideal(&cube, gpus.len()),
                ideal_aggregate_bandwidth(&cube, gpus.len())
            );
        }
    }
}
