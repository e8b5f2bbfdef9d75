//! Ullmann's bit-matrix subgraph isomorphism algorithm.
//!
//! The 1976 algorithm the paper cites: maintain a candidate matrix
//! `M[p][d]` (pattern vertex `p` may map to data vertex `d`), refine it by
//! the neighborhood condition — if `p` maps to `d`, every pattern neighbor
//! of `p` must have a candidate among data neighbors of `d` — and backtrack
//! row by row. Kept deliberately independent of the VF2 code so the two
//! backends cross-validate each other.

use mapa_graph::{BitSet, Graph};

/// Enumerates embeddings of `pattern` into `data` using Ullmann's
/// algorithm. `frozen` excludes data vertices from use.
pub fn enumerate<P: Copy, D: Copy>(
    pattern: &Graph<P>,
    data: &Graph<D>,
    frozen: Option<&BitSet>,
    visit: &mut dyn FnMut(&[usize]) -> bool,
) {
    let pn = pattern.vertex_count();
    let dn = data.vertex_count();
    if pn == 0 {
        visit(&[]);
        return;
    }

    // Initial candidate matrix: degree condition + frozen mask.
    let mut m: Vec<BitSet> = Vec::with_capacity(pn);
    for p in 0..pn {
        let mut row = BitSet::new(dn);
        for d in 0..dn {
            if frozen.is_some_and(|f| f.contains(d)) {
                continue;
            }
            if data.degree(d) >= pattern.degree(p) {
                row.insert(d);
            }
        }
        m.push(row);
    }

    if !refine(pattern, data, &mut m) {
        return;
    }

    let mut map = vec![usize::MAX; pn];
    let mut used = BitSet::new(dn);
    let mut stopped = false;
    backtrack(
        pattern,
        data,
        &m,
        0,
        &mut map,
        &mut used,
        &mut stopped,
        visit,
    );
}

/// Ullmann refinement to fixpoint. Returns `false` if any row empties
/// (no embedding can exist).
fn refine<P: Copy, D: Copy>(pattern: &Graph<P>, data: &Graph<D>, m: &mut [BitSet]) -> bool {
    let pn = pattern.vertex_count();
    loop {
        let mut changed = false;
        for p in 0..pn {
            let mut to_remove = Vec::new();
            for d in m[p].iter() {
                // Every pattern neighbor q of p needs a candidate adjacent to d.
                let ok = pattern.neighbors(p).all(|q| {
                    let mut inter = m[q].clone();
                    inter.intersect_with(data.adjacency_row(d));
                    !inter.is_empty()
                });
                if !ok {
                    to_remove.push(d);
                }
            }
            for d in to_remove {
                m[p].remove(d);
                changed = true;
            }
            if m[p].is_empty() {
                return false;
            }
        }
        if !changed {
            return true;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn backtrack<P: Copy, D: Copy>(
    pattern: &Graph<P>,
    data: &Graph<D>,
    m: &[BitSet],
    depth: usize,
    map: &mut Vec<usize>,
    used: &mut BitSet,
    stopped: &mut bool,
    visit: &mut dyn FnMut(&[usize]) -> bool,
) {
    if *stopped {
        return;
    }
    if depth == pattern.vertex_count() {
        if !visit(map) {
            *stopped = true;
        }
        return;
    }
    for d in m[depth].iter() {
        if *stopped {
            return;
        }
        if used.contains(d) {
            continue;
        }
        let ok = (0..depth).all(|p| !pattern.has_edge(depth, p) || data.has_edge(d, map[p]));
        if ok {
            map[depth] = d;
            used.insert(d);
            backtrack(pattern, data, m, depth + 1, map, used, stopped, visit);
            used.remove(d);
            map[depth] = usize::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{brute_force_embeddings, Embedding};
    use mapa_graph::PatternGraph;
    use proptest::prelude::*;

    /// All embeddings found by [`enumerate`], sorted.
    fn all_embeddings(pattern: &PatternGraph, data: &PatternGraph) -> Vec<Embedding> {
        let mut out = Vec::new();
        enumerate(pattern, data, None, &mut |map| {
            out.push(Embedding::new(map.to_vec()));
            true
        });
        out.sort();
        out
    }

    #[test]
    fn matches_brute_force_on_fixed_cases() {
        let cases = [
            (PatternGraph::ring(3), PatternGraph::all_to_all(5)),
            (PatternGraph::chain(4), PatternGraph::ring(6)),
            (PatternGraph::ring(4), PatternGraph::ring(4)),
            (PatternGraph::star(4), PatternGraph::all_to_all(4)),
        ];
        for (p, d) in cases {
            let got = all_embeddings(&p, &d);
            let mut expect = brute_force_embeddings(&p, &d);
            expect.sort();
            assert_eq!(got, expect, "pattern={p:?}");
        }
    }

    #[test]
    fn refinement_prunes_impossible_rows() {
        // Triangle into a star: no data vertex pair among leaves is
        // adjacent, refinement must detect emptiness quickly.
        let p = PatternGraph::all_to_all(3);
        let d = PatternGraph::star(6);
        assert!(all_embeddings(&p, &d).is_empty());
    }

    #[test]
    fn frozen_vertices_are_excluded() {
        let p = PatternGraph::ring(2);
        let d = PatternGraph::all_to_all(4);
        let frozen = BitSet::from_indices(4, &[3]);
        let mut out = Vec::new();
        enumerate(&p, &d, Some(&frozen), &mut |m| {
            out.push(m.to_vec());
            true
        });
        assert_eq!(out.len(), 6); // K3 ordered pairs
        assert!(out.iter().all(|m| !m.contains(&3)));
    }

    #[test]
    fn early_stop() {
        let p = PatternGraph::ring(2);
        let d = PatternGraph::all_to_all(6);
        let mut n = 0;
        enumerate(&p, &d, None, &mut |_| {
            n += 1;
            n < 5
        });
        assert_eq!(n, 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
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
            let got = all_embeddings(&p, &d);
            let mut expect = brute_force_embeddings(&p, &d);
            expect.sort();
            prop_assert_eq!(got, expect);
        }
    }
}
