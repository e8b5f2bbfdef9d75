//! High-level matching façade.
//!
//! [`Matcher`] wraps the search ([`crate::vf2`]) and its brute-force
//! reference behind one configuration struct. One sequential enumeration —
//! [`Matcher::for_each_with_frozen`] — selects the backend, applies
//! symmetry-breaking deduplication and the frozen-vertex mask; collecting
//! ([`Matcher::find`]) is written on top of it.

use crate::symmetry::{self, Constraint};
use crate::vf2::Vf2Config;
use crate::{brute_force_embeddings, vf2, Embedding};
use mapa_graph::{BitSet, Graph};

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// VF2-style backtracking with bitset pruning (default; fastest).
    #[default]
    Vf2,
    /// Exhaustive injective assignment (reference; exponential).
    BruteForce,
}

/// How to treat automorphic duplicates of the same subgraph occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DedupMode {
    /// Return one canonical embedding per automorphism class (Peregrine
    /// behaviour; default). A 5-ring occurrence is reported once, not 10×.
    #[default]
    CanonicalOnly,
    /// Return every distinct vertex mapping.
    AllMappings,
}

/// Matching configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchOptions {
    /// Search backend.
    pub backend: Backend,
    /// Automorphic-duplicate handling.
    pub dedup: DedupMode,
}

/// A configured subgraph matcher: its options and nothing else — no graph
/// state, no threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Matcher {
    opts: MatchOptions,
}

impl Matcher {
    /// Creates a matcher with the given options.
    #[must_use]
    pub fn new(opts: MatchOptions) -> Self {
        Self { opts }
    }

    /// Finds embeddings of `pattern` in `data`. All data vertices are
    /// available.
    #[must_use]
    pub fn find<P: Copy, D: Copy>(&self, pattern: &Graph<P>, data: &Graph<D>) -> Vec<Embedding> {
        self.find_with_frozen(pattern, data, None)
    }

    /// Finds embeddings of `pattern` in `data`, excluding `frozen` data
    /// vertices (e.g. GPUs already allocated to other tenants).
    ///
    /// Results are sorted lexicographically by assignment vector, so output
    /// is the same across backends.
    #[must_use]
    pub fn find_with_frozen<P: Copy, D: Copy>(
        &self,
        pattern: &Graph<P>,
        data: &Graph<D>,
        frozen: Option<&BitSet>,
    ) -> Vec<Embedding> {
        let mut out = Vec::new();
        self.for_each_with_frozen(pattern, data, frozen, &mut |m| {
            out.push(Embedding::new(m.to_vec()));
            true
        });
        out.sort();
        out
    }

    /// Streams embeddings to `visit` without materialising them — the
    /// memory-safe path for large searches (a 9-vertex ring in a 16-vertex
    /// complete graph has hundreds of millions of mappings). Respects the
    /// configured dedup mode; returning `false` from the visitor stops
    /// early. Visit order is backend-dependent.
    pub fn for_each_with_frozen<P: Copy, D: Copy>(
        &self,
        pattern: &Graph<P>,
        data: &Graph<D>,
        frozen: Option<&BitSet>,
        visit: &mut dyn FnMut(&[usize]) -> bool,
    ) {
        let constraints: Vec<Constraint> = match self.opts.dedup {
            DedupMode::CanonicalOnly => symmetry::analyze(pattern).1,
            DedupMode::AllMappings => vec![],
        };
        match self.opts.backend {
            // VF2 prunes on the constraints inside the search; the
            // reference filters complete assignments.
            Backend::Vf2 => {
                vf2::enumerate(pattern, data, &Vf2Config { constraints }, frozen, visit)
            }
            Backend::BruteForce => {
                for e in brute_force_embeddings(pattern, data) {
                    let m = e.as_slice();
                    let free = frozen.is_none_or(|f| m.iter().all(|&d| !f.contains(d)));
                    if free && symmetry::satisfies(m, &constraints) && !visit(m) {
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_graph::PatternGraph;

    fn k(n: usize) -> PatternGraph {
        PatternGraph::all_to_all(n)
    }

    #[test]
    fn backends_agree_in_all_mappings_mode() {
        let pattern = PatternGraph::ring(4);
        let data = k(6);
        let mut results = Vec::new();
        for backend in [Backend::Vf2, Backend::BruteForce] {
            let m = Matcher::new(MatchOptions {
                backend,
                dedup: DedupMode::AllMappings,
            });
            results.push(m.find(&pattern, &data));
        }
        assert_eq!(results[0], results[1]);
        assert!(!results[0].is_empty());
    }

    #[test]
    fn backends_agree_in_canonical_mode() {
        let pattern = PatternGraph::ring(5);
        let data = k(6);
        let mut results = Vec::new();
        for backend in [Backend::Vf2, Backend::BruteForce] {
            let m = Matcher::new(MatchOptions {
                backend,
                ..MatchOptions::default()
            });
            results.push(m.find(&pattern, &data));
        }
        assert_eq!(results[0], results[1]);
        // C5 in K6: C(6,5) vertex sets × (5!/10) distinct cycles per set
        //   = 6 × 12 = 72 occurrences.
        assert_eq!(results[0].len(), 72);
    }

    #[test]
    fn canonical_mode_divides_by_automorphisms() {
        let pattern = PatternGraph::ring(4); // 8 automorphisms
        let data = k(5);
        let all = Matcher::new(MatchOptions {
            dedup: DedupMode::AllMappings,
            ..MatchOptions::default()
        })
        .find(&pattern, &data);
        let canon = Matcher::new(MatchOptions::default()).find(&pattern, &data);
        assert_eq!(all.len(), canon.len() * 8);
    }

    #[test]
    fn frozen_mask_respected_across_backends() {
        let pattern = PatternGraph::ring(3);
        let data = k(5);
        let frozen = mapa_graph::BitSet::from_indices(5, &[0, 1]);
        for backend in [Backend::Vf2, Backend::BruteForce] {
            let m = Matcher::new(MatchOptions {
                backend,
                ..MatchOptions::default()
            });
            let found = m.find_with_frozen(&pattern, &data, Some(&frozen));
            // Only {2,3,4} remains: exactly one triangle occurrence.
            assert_eq!(found.len(), 1, "{backend:?}");
            assert_eq!(found[0].vertex_set(), vec![2, 3, 4]);
        }
    }

    #[test]
    fn single_vertex_job_on_partially_allocated_server() {
        let pattern = PatternGraph::new(1);
        let data = k(8);
        let frozen = mapa_graph::BitSet::from_indices(8, &[0, 1, 2, 3, 4, 5, 6]);
        let found = Matcher::default().find_with_frozen(&pattern, &data, Some(&frozen));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].image(0), 7);
    }

    #[test]
    fn streaming_agrees_with_collecting() {
        let pattern = PatternGraph::ring(4);
        let data = k(7);
        for backend in [Backend::Vf2, Backend::BruteForce] {
            for dedup in [DedupMode::CanonicalOnly, DedupMode::AllMappings] {
                let m = Matcher::new(MatchOptions { backend, dedup });
                let collected = m.find(&pattern, &data);
                let mut streamed: Vec<Vec<usize>> = Vec::new();
                m.for_each_with_frozen(&pattern, &data, None, &mut |e| {
                    streamed.push(e.to_vec());
                    true
                });
                streamed.sort();
                let collected_raw: Vec<Vec<usize>> =
                    collected.iter().map(|e| e.as_slice().to_vec()).collect();
                assert_eq!(streamed, collected_raw, "{backend:?}/{dedup:?}");
                assert_eq!(streamed.len(), collected.len(), "visit count");
            }
        }
    }

    #[test]
    fn streaming_early_stop() {
        let pattern = PatternGraph::ring(2);
        let data = k(6);
        for backend in [Backend::Vf2, Backend::BruteForce] {
            let m = Matcher::new(MatchOptions {
                backend,
                ..MatchOptions::default()
            });
            let mut n = 0;
            m.for_each_with_frozen(&pattern, &data, None, &mut |_| {
                n += 1;
                n < 3
            });
            assert_eq!(n, 3, "{backend:?}");
        }
    }

    #[test]
    fn streaming_respects_frozen() {
        let pattern = PatternGraph::ring(3);
        let data = k(5);
        let frozen = mapa_graph::BitSet::from_indices(5, &[4]);
        let m = Matcher::default();
        let mut sets: Vec<Vec<usize>> = Vec::new();
        m.for_each_with_frozen(&pattern, &data, Some(&frozen), &mut |e| {
            sets.push(e.to_vec());
            true
        });
        assert!(!sets.is_empty());
        assert!(sets.iter().all(|s| !s.contains(&4)));
    }
}
