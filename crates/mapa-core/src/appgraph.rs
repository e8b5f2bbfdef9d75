//! Application pattern graphs (paper §3.1, Fig. 8).
//!
//! A job's inter-GPU communication pattern becomes an unweighted pattern
//! graph: NCCL collectives produce rings or trees (or their union when the
//! transfer-size mix uses both); unknown/implicit communication falls back
//! to all-to-all, the conservative choice §3.1 mentions for Unified-Memory
//! style workloads.

use mapa_workloads::AppTopology;

/// The edges of the pattern graph of `n` GPUs communicating with
/// `topology` semantics, each once, without building the graph: the ring
/// `i — i+1 (mod n)`, the tree `i — (i-1)/2`, their union less the tree
/// edges the ring has — `(1, 0)`, and at three vertices `(2, 0)` — or every
/// pair. Edge direction and order differ from
/// [`PatternGraph::edges`](mapa_graph::PatternGraph::edges).
pub fn pattern_edges(topology: AppTopology, n: usize) -> impl Iterator<Item = (usize, usize)> {
    use AppTopology::{AllToAll, Ring, RingTree, Tree};
    let ring = matches!(topology, Ring | RingTree);
    // Below three vertices a ring is one edge, or none.
    let ring_edges = match n {
        _ if !ring => 0,
        0..=2 => n / 2,
        _ => n,
    };
    let tree_from = match topology {
        Tree => 1,
        RingTree if n != 3 => 2,
        _ => n,
    };
    let all = if topology == AllToAll { n } else { 0 };
    (0..ring_edges)
        .map(move |i| (i, (i + 1) % n))
        .chain((tree_from..n).map(|i| (i, (i - 1) / 2)))
        .chain((0..all).flat_map(move |i| (i + 1..n).map(move |j| (i, j))))
}

/// The pattern graph for a job spec: the matcher-side oracles' input.
#[cfg(test)]
pub(crate) fn job_pattern(job: &mapa_workloads::JobSpec) -> mapa_graph::PatternGraph {
    build_pattern(job.topology, job.num_gpus())
}

/// Builds the application pattern graph for `n_gpus` communicating with
/// `topology` semantics: the definition [`pattern_edges`] is tested
/// against.
#[cfg(test)]
pub(crate) fn build_pattern(topology: AppTopology, n_gpus: usize) -> mapa_graph::PatternGraph {
    use mapa_graph::PatternGraph;
    match topology {
        AppTopology::Ring => PatternGraph::ring(n_gpus),
        AppTopology::Tree => PatternGraph::binary_tree(n_gpus),
        AppTopology::RingTree => PatternGraph::ring_tree(n_gpus),
        AppTopology::AllToAll => PatternGraph::all_to_all(n_gpus),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_workloads::network::Workload;

    #[test]
    fn pattern_shapes() {
        assert_eq!(build_pattern(AppTopology::Ring, 5).edge_count(), 5);
        assert_eq!(build_pattern(AppTopology::Tree, 5).edge_count(), 4);
        assert_eq!(build_pattern(AppTopology::AllToAll, 5).edge_count(), 10);
        let rt = build_pattern(AppTopology::RingTree, 5);
        assert!(rt.edge_count() >= 5);
    }

    #[test]
    fn degenerate_sizes() {
        for t in [
            AppTopology::Ring,
            AppTopology::Tree,
            AppTopology::RingTree,
            AppTopology::AllToAll,
        ] {
            assert_eq!(build_pattern(t, 1).vertex_count(), 1);
            assert_eq!(build_pattern(t, 1).edge_count(), 0);
            assert_eq!(build_pattern(t, 0).vertex_count(), 0);
            // 2-GPU jobs always communicate over one edge.
            assert_eq!(build_pattern(t, 2).edge_count(), 1);
        }
    }

    /// The edge walk lists the pattern graph's edges, each once.
    #[test]
    fn pattern_edges_equal_the_graph_edges() {
        for t in [
            AppTopology::Ring,
            AppTopology::Tree,
            AppTopology::RingTree,
            AppTopology::AllToAll,
        ] {
            for n in 0..=16 {
                let mut walked: Vec<(usize, usize)> = pattern_edges(t, n)
                    .map(|(p, q)| (p.min(q), p.max(q)))
                    .collect();
                walked.sort_unstable();
                let mut built: Vec<(usize, usize)> = build_pattern(t, n)
                    .edges()
                    .map(|(p, q, ())| (p.min(q), p.max(q)))
                    .collect();
                built.sort_unstable();
                let listed = walked.len();
                walked.dedup();
                assert_eq!(listed, walked.len(), "{t} n={n} lists an edge twice");
                assert_eq!(walked, built, "{t} n={n}");
            }
        }
    }

    #[test]
    fn job_pattern_uses_spec_fields() {
        let job =
            mapa_workloads::JobSpec::new(1, mapa_workloads::GpuDemand::Whole(4), Workload::Vgg16)
                .with_topology(AppTopology::AllToAll)
                .with_iterations(10);
        let p = job_pattern(&job);
        assert_eq!(p.vertex_count(), 4);
        assert_eq!(p.edge_count(), 6);
    }

    #[test]
    fn patterns_are_connected_for_multi_gpu() {
        for t in [
            AppTopology::Ring,
            AppTopology::Tree,
            AppTopology::RingTree,
            AppTopology::AllToAll,
        ] {
            for n in 2..=6 {
                let pattern = build_pattern(t, n);
                let mut reached = vec![0];
                let mut next = 0;
                while let Some(&u) = reached.get(next) {
                    for v in pattern.neighbors(u) {
                        if !reached.contains(&v) {
                            reached.push(v);
                        }
                    }
                    next += 1;
                }
                assert_eq!(reached.len(), n, "{t} n={n}");
            }
        }
    }
}
