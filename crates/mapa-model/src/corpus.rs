//! Training-corpus construction — the paper's §3.4.3 protocol.
//!
//! "To obtain data to train the model, we generate a set of 2, 3, 4, and
//! 5-GPU allocations in a DGX-V machine … we use an exhaustive set of
//! allocations with unique (x, y, z) resulting in a total of 31 samples.
//! Next, we recorded the EffBW by running the NCCL microbenchmark."
//!
//! [`build_corpus`] does exactly that against the simulated microbenchmark:
//! enumerate every k-GPU combination for k in the requested range, compute
//! each allocation's link mix, keep the first allocation per unique
//! `(x, y, z)`, and measure its effective bandwidth.

use mapa_interconnect::effbw;
use mapa_topology::{LinkMix, Topology};
use std::collections::HashSet;

/// One training sample: a link mix and its measured effective bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The allocation's `(x, y, z)` link mix.
    pub mix: LinkMix,
    /// Simulated-microbenchmark effective bandwidth in GB/s.
    pub eff_bw_gbps: f64,
    /// A representative allocation producing this mix (physical GPU ids).
    pub gpus: Vec<usize>,
}

/// Enumerates all k-combinations of `0..n` in lexicographic order.
#[must_use]
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.clone());
        // Advance the combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
        }
        idx[i] += 1;
        for j in (i + 1)..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// The link mix of an allocation: every GPU pair inside it contributes one
/// link (the complete matching pattern — an upper bound on what any
/// application pattern can use).
#[must_use]
pub fn allocation_mix(topology: &Topology, gpus: &[usize]) -> LinkMix {
    let mut pairs = Vec::new();
    for i in 0..gpus.len() {
        for j in (i + 1)..gpus.len() {
            pairs.push((gpus[i], gpus[j]));
        }
    }
    topology.link_mix(&pairs)
}

/// Builds the unique-(x, y, z) corpus for `sizes`-GPU allocations.
#[must_use]
pub fn build_corpus(topology: &Topology, sizes: std::ops::RangeInclusive<usize>) -> Vec<Sample> {
    let n = topology.gpu_count();
    let mut seen: HashSet<(usize, usize, usize)> = HashSet::new();
    let mut out = Vec::new();
    for k in sizes {
        for combo in combinations(n, k) {
            let mix = allocation_mix(topology, &combo);
            let key = (mix.double_nvlink, mix.single_nvlink, mix.pcie);
            if seen.insert(key) {
                out.push(Sample {
                    mix,
                    eff_bw_gbps: effbw::measure(topology, &combo),
                    gpus: combo,
                });
            }
        }
    }
    out
}

/// Builds a corpus of *all* allocations (no (x, y, z) dedup) — used for
/// validation scatter plots where each allocation is a point.
#[must_use]
pub fn build_full_corpus(
    topology: &Topology,
    sizes: std::ops::RangeInclusive<usize>,
) -> Vec<Sample> {
    let n = topology.gpu_count();
    let mut out = Vec::new();
    for k in sizes {
        for combo in combinations(n, k) {
            out.push(Sample {
                mix: allocation_mix(topology, &combo),
                eff_bw_gbps: effbw::measure(topology, &combo),
                gpus: combo,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_topology::machines;

    #[test]
    fn combination_counts() {
        assert_eq!(combinations(8, 2).len(), 28);
        assert_eq!(combinations(8, 5).len(), 56);
        assert_eq!(combinations(4, 4).len(), 1);
        assert_eq!(combinations(3, 5).len(), 0);
        assert_eq!(combinations(5, 0).len(), 1); // the empty allocation
    }

    #[test]
    fn combinations_are_sorted_and_unique() {
        let combos = combinations(6, 3);
        for c in &combos {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
        let set: std::collections::HashSet<_> = combos.iter().collect();
        assert_eq!(set.len(), combos.len());
    }

    #[test]
    fn paper_fragmentation_example_mix() {
        let dgx = machines::dgx1_v100();
        // {0,1,4}: 1 single + 1 double + 1 PCIe (the 87 GB/s example).
        let mix = allocation_mix(&dgx, &[0, 1, 4]);
        assert_eq!((mix.double_nvlink, mix.single_nvlink, mix.pcie), (1, 1, 1));
    }

    #[test]
    fn dgx_corpus_size_matches_papers_protocol() {
        // The paper reports 31 unique (x, y, z) samples for 2–5-GPU
        // allocations on its DGX-1 V100; our reconstruction of the link
        // layout yields 26 (the `table2,corpus,unique_samples` row of
        // `mapa-sched reproduce`). The test pins the exact value so
        // topology changes are noticed.
        let dgx = machines::dgx1_v100();
        let corpus = build_corpus(&dgx, 2..=5);
        assert_eq!(corpus.len(), 26, "unique (x,y,z) mixes on DGX-1V");
        // All sampled EffBWs are positive and within the Fig. 12 range.
        assert!(corpus
            .iter()
            .all(|s| s.eff_bw_gbps > 0.0 && s.eff_bw_gbps <= 80.0));
    }

    #[test]
    fn corpus_mixes_are_unique() {
        let dgx = machines::dgx1_v100();
        let corpus = build_corpus(&dgx, 2..=5);
        let mut keys: Vec<_> = corpus
            .iter()
            .map(|s| (s.mix.double_nvlink, s.mix.single_nvlink, s.mix.pcie))
            .collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before);
    }

    #[test]
    fn full_corpus_counts_all_allocations() {
        let dgx = machines::dgx1_v100();
        let full = build_full_corpus(&dgx, 2..=3);
        assert_eq!(full.len(), 28 + 56); // C(8,2) + C(8,3)
    }

    #[test]
    fn mix_total_is_complete_pattern_size() {
        let dgx = machines::dgx1_v100();
        for k in 2..=5 {
            for combo in combinations(8, k).into_iter().take(6) {
                let mix = allocation_mix(&dgx, &combo);
                assert_eq!(mix.total(), k * (k - 1) / 2);
            }
        }
    }
}
