//! Fragmentation analysis (paper §2.2, Fig. 4).
//!
//! The paper quantifies allocation quality as
//! `BW_Allocated / BW_IdealAllocation`: the aggregate bandwidth of what a
//! job received versus the best possible same-size allocation on an idle
//! machine (the §2.2 example: {GPU0, GPU1, GPU4} aggregates 87 GB/s versus
//! the ideal 125 GB/s for 3 GPUs on DGX-1V).

use mapa_topology::Topology;

/// The Fig. 4 quality metric `BW_Allocated / BW_IdealAllocation`. The
/// numerator sums every GPU pair inside the allocation
/// ([`Topology::bandwidth_among`], the complete matching pattern of the
/// §2.2 worked example).
///
/// Defined as 1.0 for 1-GPU allocations (no bandwidth at stake). The
/// denominator is memoised on the machine
/// ([`Topology::ideal_aggregate_bandwidth`]).
#[must_use]
pub fn allocation_quality(topology: &Topology, gpus: &[usize]) -> f64 {
    if gpus.len() < 2 {
        return 1.0;
    }
    topology.bandwidth_among(gpus) / topology.ideal_aggregate_bandwidth(gpus.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_topology::machines;

    #[test]
    fn paper_worked_example() {
        let dgx = machines::dgx1_v100();
        assert_eq!(dgx.bandwidth_among(&[0, 1, 4]), 87.0);
        assert_eq!(dgx.ideal_aggregate_bandwidth(3), 125.0);
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
        assert_eq!(dgx.ideal_aggregate_bandwidth(1), 0.0);
        assert_eq!(dgx.ideal_aggregate_bandwidth(0), 0.0);
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
            let ideal = dgx.ideal_aggregate_bandwidth(k);
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
                    .map(|combo| machine.bandwidth_among(&combo))
                    .fold(0.0, f64::max);
                let expected = if k < 2 { 0.0 } else { listed };
                assert_eq!(
                    machine.ideal_aggregate_bandwidth(k).to_bits(),
                    expected.to_bits(),
                    "{} k={k}",
                    machine.name()
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The bounded search returns the exhaustive maximum, bit for bit,
        /// on random machines whose GPU pairs draw any of the four links.
        #[test]
        fn ideal_bandwidth_equals_the_exhaustive_maximum_on_random_machines(
            n in 2usize..12,
            draws in proptest::collection::vec(0usize..4, 55..56),
        ) {
            let mut links = mapa_graph::Graph::new(n);
            let pairs = (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b)));
            for ((a, b), &draw) in pairs.zip(&draws) {
                let link = mapa_topology::LinkType::all()[draw];
                if link != mapa_topology::LinkType::Pcie {
                    links.add_edge(a, b, link).unwrap();
                }
            }
            let machine = Topology::new("random", links, vec![0; n]);
            for k in 0..=n + 1 {
                let exhaustive = mapa_model::corpus::combinations(n, k)
                    .into_iter()
                    .map(|combo| machine.bandwidth_among(&combo))
                    .fold(0.0, f64::max);
                let expected = if k < 2 { 0.0 } else { exhaustive };
                proptest::prop_assert_eq!(
                    machine.ideal_aggregate_bandwidth(k).to_bits(),
                    expected.to_bits(),
                    "n={} k={} links={:?}",
                    n,
                    k,
                    &draws
                );
            }
        }
    }
}
