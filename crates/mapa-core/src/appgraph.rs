//! Application pattern graphs (paper §3.1, Fig. 8).
//!
//! A job's inter-GPU communication pattern becomes an unweighted pattern
//! graph: NCCL collectives produce rings or trees (or their union when the
//! transfer-size mix uses both); unknown/implicit communication falls back
//! to all-to-all, the conservative choice §3.1 mentions for Unified-Memory
//! style workloads.

use mapa_graph::PatternGraph;
use mapa_workloads::{AppTopology, JobSpec};

/// Builds the application pattern graph for `n_gpus` communicating with
/// `topology` semantics.
#[must_use]
pub fn build_pattern(topology: AppTopology, n_gpus: usize) -> PatternGraph {
    match topology {
        AppTopology::Ring => PatternGraph::ring(n_gpus),
        AppTopology::Tree => PatternGraph::binary_tree(n_gpus),
        AppTopology::RingTree => PatternGraph::ring_tree(n_gpus),
        AppTopology::AllToAll => PatternGraph::all_to_all(n_gpus),
    }
}

/// The pattern graph for a job spec.
#[must_use]
pub fn job_pattern(job: &JobSpec) -> PatternGraph {
    build_pattern(job.topology, job.num_gpus())
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

    #[test]
    fn job_pattern_uses_spec_fields() {
        let job = JobSpec::new(1, mapa_workloads::GpuDemand::Whole(4), Workload::Vgg16)
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
