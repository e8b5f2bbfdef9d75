//! Brute-force reference enumerator.
//!
//! Tries every injective assignment of pattern vertices to data vertices and
//! keeps the ones preserving pattern edges.
//! Exponential, but exact — the other backends are property-tested against
//! it on every build.

use crate::Embedding;
use mapa_graph::Graph;

/// Enumerates all monomorphic embeddings of `pattern` into `data` by
/// exhaustive search.
#[must_use]
pub fn brute_force_embeddings<P: Copy, D: Copy>(
    pattern: &Graph<P>,
    data: &Graph<D>,
) -> Vec<Embedding> {
    let pn = pattern.vertex_count();
    let dn = data.vertex_count();
    if pn > dn {
        return vec![];
    }
    let mut out = Vec::new();
    let mut map = vec![usize::MAX; pn];
    let mut used = vec![false; dn];
    rec(pattern, data, 0, &mut map, &mut used, &mut out);
    out
}

fn rec<P: Copy, D: Copy>(
    pattern: &Graph<P>,
    data: &Graph<D>,
    depth: usize,
    map: &mut Vec<usize>,
    used: &mut Vec<bool>,
    out: &mut Vec<Embedding>,
) {
    if depth == pattern.vertex_count() {
        out.push(Embedding::new(map.clone()));
        return;
    }
    for d in 0..data.vertex_count() {
        if used[d] {
            continue;
        }
        let ok = (0..depth).all(|p| !pattern.has_edge(depth, p) || data.has_edge(d, map[p]));
        if ok {
            map[depth] = d;
            used[d] = true;
            rec(pattern, data, depth + 1, map, used, out);
            used[d] = false;
            map[depth] = usize::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_graph::PatternGraph;

    #[test]
    fn single_vertex_pattern_matches_every_vertex() {
        let p = PatternGraph::new(1);
        let d = PatternGraph::ring(4);
        assert_eq!(brute_force_embeddings(&p, &d).len(), 4);
    }

    #[test]
    fn edge_into_complete_graph() {
        // One edge into K4: 4*3 = 12 ordered embeddings.
        let p = PatternGraph::ring(2);
        let d = PatternGraph::all_to_all(4);
        assert_eq!(brute_force_embeddings(&p, &d).len(), 12);
    }

    #[test]
    fn triangle_into_ring_has_no_match() {
        let p = PatternGraph::all_to_all(3);
        let d = PatternGraph::ring(5);
        assert!(brute_force_embeddings(&p, &d).is_empty());
    }

    #[test]
    fn pattern_larger_than_data() {
        let p = PatternGraph::ring(5);
        let d = PatternGraph::ring(4);
        assert!(brute_force_embeddings(&p, &d).is_empty());
    }

    #[test]
    fn all_results_are_valid() {
        let p = PatternGraph::ring(4);
        let d = PatternGraph::all_to_all(5);
        for e in brute_force_embeddings(&p, &d) {
            assert!(e.is_valid_monomorphism(&p, &d));
        }
    }

    #[test]
    fn c4_into_k4_count() {
        // C4 into K4: injections mapping cycle edges onto edges of K4 — all
        // 4! = 24 injective maps work since K4 is complete.
        let p = PatternGraph::ring(4);
        let d = PatternGraph::all_to_all(4);
        assert_eq!(brute_force_embeddings(&p, &d).len(), 24);
    }
}
