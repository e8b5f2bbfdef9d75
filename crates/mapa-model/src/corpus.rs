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
use mapa_topology::{LinkMix, LinkType, Topology};

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

/// Builds the unique-(x, y, z) corpus for `sizes`-GPU allocations: the
/// first allocation of each mix in the order of [`combinations`], measured
/// once. The allocations are walked in place: only a new mix copies its
/// GPUs out.
#[must_use]
pub fn build_corpus(topology: &Topology, sizes: std::ops::RangeInclusive<usize>) -> Vec<Sample> {
    // Every mix of one size has the same link total, so `(x, y)` index the
    // mixes seen at that total. Sizes come in ascending order and only
    // sizes 0 and 1 share a total, so a new total starts a new table.
    let mut seen = Vec::new();
    let mut side = 0;
    let mut out = Vec::new();
    walk_allocations(topology, sizes, |gpus, mix| {
        if mix.total() + 1 != side {
            side = mix.total() + 1;
            seen = vec![false; side * side];
        }
        let slot = &mut seen[mix.double_nvlink * side + mix.single_nvlink];
        if !*slot {
            *slot = true;
            out.push(Sample {
                mix,
                eff_bw_gbps: effbw::measure(topology, gpus),
                gpus: gpus.to_vec(),
            });
        }
    });
    out
}

/// Builds a corpus of *all* allocations (no (x, y, z) dedup) — used for
/// validation scatter plots where each allocation is a point.
#[must_use]
pub fn build_full_corpus(
    topology: &Topology,
    sizes: std::ops::RangeInclusive<usize>,
) -> Vec<Sample> {
    let mut out = Vec::new();
    walk_allocations(topology, sizes, |gpus, mix| {
        out.push(Sample {
            mix,
            eff_bw_gbps: effbw::measure(topology, gpus),
            gpus: gpus.to_vec(),
        });
    });
    out
}

/// Calls `visit` with every `k`-GPU allocation of `topology`, for each `k`
/// in `sizes`, in the order of [`combinations`], and with its
/// [`allocation_mix`]. Nothing is built per allocation: a prefix carries
/// its mix, and each GPU after it the mix of its links into the prefix, so
/// the last GPU of an allocation costs one addition.
fn walk_allocations(
    topology: &Topology,
    sizes: std::ops::RangeInclusive<usize>,
    mut visit: impl FnMut(&[usize], LinkMix),
) {
    let n = topology.gpu_count();
    for k in sizes.filter(|&k| k <= n) {
        let mut walk = Walk {
            pair_links: topology.pair_links(),
            n,
            chosen: vec![0; k],
            into: vec![LinkMix::default(); k * n],
        };
        walk.extend(0, 0, LinkMix::default(), &mut visit);
    }
}

/// The state of one size's [`walk_allocations`].
struct Walk<'a> {
    pair_links: &'a [LinkType],
    n: usize,
    /// The allocation being built; its first `d` entries at depth `d`.
    chosen: Vec<usize>,
    /// `into[d * n + c]`: the mix of GPU `c`'s links into `chosen[..d]`.
    into: Vec<LinkMix>,
}

impl Walk<'_> {
    /// Visits every completion of `chosen[..d]`, whose mix is `mix`, by
    /// GPUs from `next` on.
    fn extend(
        &mut self,
        d: usize,
        next: usize,
        mix: LinkMix,
        visit: &mut impl FnMut(&[usize], LinkMix),
    ) {
        let (n, k) = (self.n, self.chosen.len());
        if d == k {
            visit(&self.chosen, mix);
            return;
        }
        let row = d * n;
        for c in next..=n - (k - d) {
            self.chosen[d] = c;
            let with_c = mix + self.into[row + c];
            if d + 1 == k {
                visit(&self.chosen, with_c);
                continue;
            }
            for x in c + 1..n {
                let mut into = self.into[row + x];
                into.add(self.pair_links[c * n + x]);
                self.into[row + n + x] = into;
            }
            self.extend(d + 1, c + 1, with_c, visit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EffBwModel;
    use mapa_topology::machines;
    use std::collections::HashSet;

    /// [`build_corpus`] as every allocation built and counted on its own:
    /// the first allocation per mix wins.
    fn materialized_corpus(
        topology: &Topology,
        sizes: std::ops::RangeInclusive<usize>,
    ) -> Vec<Sample> {
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

    /// Every built-in machine, and a DGX-1 with two GPUs split into MIG
    /// slices.
    fn corpus_machines() -> Vec<Topology> {
        let mut all = machines::all_machines();
        let mig = mapa_topology::PartitionPlan::new()
            .split(0, 4)
            .split(5, 2)
            .apply(&machines::dgx1_v100());
        all.push(mig);
        all
    }

    fn assert_same_samples(walked: &[Sample], listed: &[Sample], context: &str) {
        assert_eq!(walked.len(), listed.len(), "{context}");
        for (i, (w, l)) in walked.iter().zip(listed).enumerate() {
            assert_eq!(w.gpus, l.gpus, "{context} sample {i}");
            assert_eq!(w.mix, l.mix, "{context} sample {i}");
            assert_eq!(
                w.eff_bw_gbps.to_bits(),
                l.eff_bw_gbps.to_bits(),
                "{context} sample {i}"
            );
        }
    }

    #[test]
    fn corpus_walk_equals_the_materialized_corpus_on_every_machine() {
        for machine in corpus_machines() {
            let walked = build_corpus(&machine, 2..=5);
            let listed = materialized_corpus(&machine, 2..=5);
            assert_same_samples(&walked, &listed, machine.name());
            // A machine with too few mixes to fit falls back to Table 2
            // either way.
            let fitted = EffBwModel::fit(&listed)
                .unwrap_or_else(|_| EffBwModel::from_coefficients(crate::paper_coefficients()));
            let theta = |model: &EffBwModel| model.coefficients().map(f64::to_bits);
            assert_eq!(
                theta(&EffBwModel::for_machine(&machine)),
                theta(&fitted),
                "{}",
                machine.name()
            );
        }
    }

    #[test]
    fn corpus_walk_keeps_the_edge_sizes_of_the_materialized_corpus() {
        // Sizes 0 and 1 share the empty mix; sizes past the machine have
        // no allocation.
        let dgx = machines::dgx1_v100();
        for sizes in [0..=0, 0..=2, 1..=3, 7..=9, 9..=12] {
            let context = format!("sizes {sizes:?}");
            let walked = build_corpus(&dgx, sizes.clone());
            assert_same_samples(&walked, &materialized_corpus(&dgx, sizes), &context);
        }
    }

    #[test]
    fn corpus_full_walk_lists_every_allocation_with_its_mix() {
        for machine in corpus_machines() {
            let full = build_full_corpus(&machine, 0..=4);
            let listed: Vec<Sample> = (0..=4)
                .flat_map(|k| combinations(machine.gpu_count(), k))
                .map(|combo| Sample {
                    mix: allocation_mix(&machine, &combo),
                    eff_bw_gbps: effbw::measure(&machine, &combo),
                    gpus: combo,
                })
                .collect();
            assert_same_samples(&full, &listed, machine.name());
        }
    }

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
