//! VF2-style backtracking subgraph matcher with bitset candidate pruning.
//!
//! The matcher assigns pattern vertices in [`SearchPlan`] order. For a
//! vertex with already-assigned neighbors, the candidate set is the bitwise
//! AND of the data-graph adjacency rows of those neighbors' images — one
//! word-wise intersection per back edge — minus already-used vertices.
//! Symmetry-breaking constraints are checked as soon as both endpoints are
//! assigned, pruning entire subtrees rather than filtering post-hoc.

use crate::symmetry::Constraint;
use crate::SearchPlan;
use mapa_graph::{BitSet, Graph};

/// Search configuration for a single [`enumerate`] call.
#[derive(Debug, Clone, Default)]
pub struct Vf2Config {
    /// Symmetry-breaking constraints over pattern vertices.
    pub constraints: Vec<Constraint>,
}

/// Enumerates embeddings of `pattern` into `data`, invoking `visit` with the
/// complete assignment (`visit[p]` = data vertex). Return `false` from the
/// visitor to stop enumeration early.
///
/// `frozen` marks data vertices that must not be used (e.g. already
/// allocated GPUs); pass an all-zero bitset (or `None`) to allow all.
pub fn enumerate<P: Copy, D: Copy>(
    pattern: &Graph<P>,
    data: &Graph<D>,
    config: &Vf2Config,
    frozen: Option<&BitSet>,
    visit: &mut dyn FnMut(&[usize]) -> bool,
) {
    let pn = pattern.vertex_count();
    let dn = data.vertex_count();
    if pn == 0 {
        visit(&[]);
        return;
    }
    let available = dn - frozen.map_or(0, BitSet::count);
    if pn > available {
        return;
    }

    let plan = SearchPlan::build(pattern);
    // Constraints indexed by the *position* at which they become checkable
    // (the later of the two endpoints in plan order).
    let pos_of: Vec<usize> = {
        let mut pos = vec![0usize; pn];
        for (i, &v) in plan.order.iter().enumerate() {
            pos[v] = i;
        }
        pos
    };
    let mut checks_at: Vec<Vec<Constraint>> = vec![Vec::new(); pn];
    for &c in &config.constraints {
        let at = pos_of[c.small].max(pos_of[c.large]);
        checks_at[at].push(c);
    }

    let mut state = State {
        data,
        plan: &plan,
        checks_at: &checks_at,
        map: vec![usize::MAX; pn],
        used: frozen.cloned().unwrap_or_else(|| BitSet::new(dn)),
        stopped: false,
    };
    state.recurse(0, visit);
}

struct State<'a, D: Copy> {
    data: &'a Graph<D>,
    plan: &'a SearchPlan,
    checks_at: &'a [Vec<Constraint>],
    map: Vec<usize>,
    used: BitSet,
    stopped: bool,
}

impl<D: Copy> State<'_, D> {
    fn recurse(&mut self, depth: usize, visit: &mut dyn FnMut(&[usize]) -> bool) {
        if self.stopped {
            return;
        }
        if depth == self.plan.len() {
            if !visit(&self.map) {
                self.stopped = true;
            }
            return;
        }
        let pv = self.plan.order[depth];
        let candidates = self.candidates(depth);
        for d in candidates.iter() {
            if self.stopped {
                return;
            }
            if !self.feasible(depth, pv, d) {
                continue;
            }
            self.map[pv] = d;
            self.used.insert(d);
            self.recurse(depth + 1, visit);
            self.used.remove(d);
            self.map[pv] = usize::MAX;
        }
    }

    /// Candidate data vertices for the pattern vertex at `depth`:
    /// intersection of mapped-neighbor adjacency rows, minus used vertices.
    fn candidates(&self, depth: usize) -> BitSet {
        let back = &self.plan.back_neighbors[depth];
        let dn = self.data.vertex_count();
        let mut cand = if back.is_empty() {
            BitSet::full(dn)
        } else {
            let first_img = self.map[self.plan.order[back[0]]];
            let mut c = self.data.adjacency_row(first_img).clone();
            for &j in &back[1..] {
                c.intersect_with(self.data.adjacency_row(self.map[self.plan.order[j]]));
            }
            c
        };
        cand.difference_with(&self.used);
        cand
    }

    /// Checks the symmetry constraints that become decidable when data
    /// vertex `d` is assigned to pattern vertex `pv` at position `depth`.
    fn feasible(&self, depth: usize, pv: usize, d: usize) -> bool {
        for c in &self.checks_at[depth] {
            let (s, l) = (self.image_or(c.small, pv, d), self.image_or(c.large, pv, d));
            if s >= l {
                return false;
            }
        }
        true
    }

    fn image_or(&self, pattern_vertex: usize, pv: usize, d: usize) -> usize {
        if pattern_vertex == pv {
            d
        } else {
            self.map[pattern_vertex]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force_embeddings;
    use crate::symmetry::analyze;
    use crate::Embedding;
    use mapa_graph::PatternGraph;
    use proptest::prelude::*;

    fn collect(pattern: &PatternGraph, data: &PatternGraph, config: &Vf2Config) -> Vec<Embedding> {
        let mut out = Vec::new();
        enumerate(pattern, data, config, None, &mut |m| {
            out.push(Embedding::new(m.to_vec()));
            true
        });
        out.sort();
        out
    }

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        let cases = [
            (PatternGraph::ring(3), PatternGraph::all_to_all(5)),
            (PatternGraph::chain(3), PatternGraph::ring(6)),
            (PatternGraph::ring(4), PatternGraph::ring(4)),
            (PatternGraph::star(4), PatternGraph::all_to_all(4)),
            (PatternGraph::binary_tree(5), PatternGraph::all_to_all(6)),
            (PatternGraph::ring(5), PatternGraph::ring(4)), // no match
        ];
        for (p, d) in cases {
            let got = collect(&p, &d, &Vf2Config::default());
            let mut expect = brute_force_embeddings(&p, &d);
            expect.sort();
            assert_eq!(got, expect, "pattern={p:?} data={d:?}");
        }
    }

    #[test]
    fn empty_pattern_has_single_empty_embedding() {
        let p = PatternGraph::new(0);
        let d = PatternGraph::ring(3);
        let out = collect(&p, &d, &Vf2Config::default());
        assert_eq!(out, vec![Embedding::new(vec![])]);
    }

    #[test]
    fn frozen_vertices_are_excluded() {
        let p = PatternGraph::new(1);
        let d = PatternGraph::all_to_all(4);
        let frozen = mapa_graph::BitSet::from_indices(4, &[0, 2]);
        let mut out = Vec::new();
        enumerate(&p, &d, &Vf2Config::default(), Some(&frozen), &mut |m| {
            out.push(m[0]);
            true
        });
        out.sort_unstable();
        assert_eq!(out, vec![1, 3]);
    }

    #[test]
    fn early_stop_respected() {
        let p = PatternGraph::ring(2);
        let d = PatternGraph::all_to_all(5);
        let mut seen = 0;
        enumerate(&p, &d, &Vf2Config::default(), None, &mut |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn symmetry_constraints_reduce_by_automorphism_factor() {
        for (pattern, data) in [
            (PatternGraph::ring(4), PatternGraph::all_to_all(6)),
            (PatternGraph::ring(5), PatternGraph::all_to_all(6)),
            (PatternGraph::star(4), PatternGraph::all_to_all(5)),
            (PatternGraph::chain(4), PatternGraph::all_to_all(5)),
        ] {
            let (autos, constraints) = analyze(&pattern);
            let all = collect(&pattern, &data, &Vf2Config::default());
            let canon = collect(&pattern, &data, &Vf2Config { constraints });
            assert_eq!(
                all.len(),
                canon.len() * autos.len(),
                "pattern {pattern:?}: {} != {} * {}",
                all.len(),
                canon.len(),
                autos.len()
            );
        }
    }

    #[test]
    fn disconnected_pattern_supported() {
        // Two isolated vertices into a 3-vertex graph: 3*2 = 6 embeddings.
        let p = PatternGraph::new(2);
        let d = PatternGraph::ring(3);
        assert_eq!(collect(&p, &d, &Vf2Config::default()).len(), 6);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn agrees_with_brute_force_on_random_graphs(
            pn in 1usize..5,
            dn in 1usize..7,
            pedges in proptest::collection::vec((0usize..5, 0usize..5), 0..8),
            dedges in proptest::collection::vec((0usize..7, 0usize..7), 0..16),
        ) {
            let mut p = PatternGraph::new(pn);
            for (u, v) in pedges {
                let (u, v) = (u % pn, v % pn);
                if u != v { let _ = p.add_edge(u, v, ()); }
            }
            let mut d = PatternGraph::new(dn);
            for (u, v) in dedges {
                let (u, v) = (u % dn, v % dn);
                if u != v { let _ = d.add_edge(u, v, ()); }
            }
            let got = collect(&p, &d, &Vf2Config::default());
            let mut expect = brute_force_embeddings(&p, &d);
            expect.sort();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn constrained_count_times_aut_equals_total(
            pn in 2usize..5,
            dn in 2usize..7,
            pedges in proptest::collection::vec((0usize..5, 0usize..5), 0..8),
            dedges in proptest::collection::vec((0usize..7, 0usize..7), 0..16),
        ) {
            let mut p = PatternGraph::new(pn);
            for (u, v) in pedges {
                let (u, v) = (u % pn, v % pn);
                if u != v { let _ = p.add_edge(u, v, ()); }
            }
            let mut d = PatternGraph::new(dn);
            for (u, v) in dedges {
                let (u, v) = (u % dn, v % dn);
                if u != v { let _ = d.add_edge(u, v, ()); }
            }
            let (autos, constraints) = analyze(&p);
            let all = collect(&p, &d, &Vf2Config::default());
            let canon = collect(&p, &d, &Vf2Config { constraints });
            prop_assert_eq!(all.len(), canon.len() * autos.len());
        }
    }
}
