//! Pattern automorphisms and symmetry-breaking constraints.
//!
//! A pattern with a non-trivial automorphism group (a 5-ring has 10
//! automorphisms) yields every subgraph occurrence multiple times — once per
//! automorphism. Peregrine/GraphZero-style engines avoid the redundancy by
//! imposing *symmetry-breaking constraints*: a set of `map[a] < map[b]`
//! restrictions such that exactly one embedding per automorphism class
//! satisfies all of them. We implement the GraphZero construction: repeatedly
//! stabilise the smallest moved vertex, emitting one constraint per orbit
//! element.

use mapa_graph::Graph;

/// Enumerates all automorphisms of `pattern` as permutation vectors
/// (`a[v]` = image of vertex `v`). The identity is always present.
#[must_use]
pub fn automorphisms<W: Copy>(pattern: &Graph<W>) -> Vec<Vec<usize>> {
    let n = pattern.vertex_count();
    let mut result = Vec::new();
    let mut perm = vec![usize::MAX; n];
    let mut used = vec![false; n];
    search(pattern, &mut perm, &mut used, 0, &mut result);
    result
}

fn search<W: Copy>(
    g: &Graph<W>,
    perm: &mut Vec<usize>,
    used: &mut Vec<bool>,
    depth: usize,
    out: &mut Vec<Vec<usize>>,
) {
    let n = g.vertex_count();
    if depth == n {
        out.push(perm.clone());
        return;
    }
    for candidate in 0..n {
        if used[candidate] || g.degree(candidate) != g.degree(depth) {
            continue;
        }
        let consistent =
            (0..depth).all(|prev| g.has_edge(depth, prev) == g.has_edge(candidate, perm[prev]));
        if consistent {
            perm[depth] = candidate;
            used[candidate] = true;
            search(g, perm, used, depth + 1, out);
            used[candidate] = false;
            perm[depth] = usize::MAX;
        }
    }
}

/// A symmetry-breaking restriction: the data vertex assigned to pattern
/// vertex `small` must be numerically less than the one assigned to `large`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Constraint {
    /// Pattern vertex whose image must be smaller.
    pub small: usize,
    /// Pattern vertex whose image must be larger.
    pub large: usize,
}

/// Computes symmetry-breaking constraints for `pattern` from its
/// automorphism group (GraphZero, Mawhirter et al.):
///
/// 1. Let `A` = Aut(P).
/// 2. While `|A| > 1`: pick the smallest vertex `v` moved by some `a ∈ A`;
///    for every distinct image `a(v) ≠ v` emit `map[v] < map[a(v)]`; replace
///    `A` by the stabiliser of `v`.
///
/// An embedding class (orbit under Aut(P)) contains exactly one embedding
/// satisfying all emitted constraints — see the crate tests, which verify
/// `|all embeddings| = |constrained embeddings| × |Aut(P)|` exhaustively.
#[must_use]
pub fn symmetry_breaking_constraints(automorphisms: &[Vec<usize>]) -> Vec<Constraint> {
    let mut group: Vec<&Vec<usize>> = automorphisms.iter().collect();
    let mut constraints = Vec::new();
    let n = automorphisms.first().map_or(0, |a| a.len());

    while group.len() > 1 {
        // Smallest vertex moved by any remaining automorphism.
        let Some(v) = (0..n).find(|&v| group.iter().any(|a| a[v] != v)) else {
            break; // only identity-like elements remain
        };
        let mut images: Vec<usize> = group.iter().map(|a| a[v]).filter(|&i| i != v).collect();
        images.sort_unstable();
        images.dedup();
        for img in images {
            constraints.push(Constraint {
                small: v,
                large: img,
            });
        }
        group.retain(|a| a[v] == v);
    }
    constraints
}

/// Convenience: automorphisms + constraints for a pattern in one call.
#[must_use]
pub fn analyze<W: Copy>(pattern: &Graph<W>) -> (Vec<Vec<usize>>, Vec<Constraint>) {
    let autos = automorphisms(pattern);
    let constraints = symmetry_breaking_constraints(&autos);
    (autos, constraints)
}

/// Checks a complete assignment against all constraints.
#[must_use]
pub fn satisfies(map: &[usize], constraints: &[Constraint]) -> bool {
    constraints.iter().all(|c| map[c.small] < map[c.large])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_graph::PatternGraph;

    fn pattern(n: usize, edges: &[(usize, usize)]) -> PatternGraph {
        let mut g = PatternGraph::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v, ()).unwrap();
        }
        g
    }

    #[test]
    fn automorphism_group_sizes() {
        assert_eq!(automorphisms(&PatternGraph::ring(4)).len(), 8);
        assert_eq!(automorphisms(&PatternGraph::ring(5)).len(), 10);
        assert_eq!(automorphisms(&PatternGraph::chain(3)).len(), 2);
        assert_eq!(automorphisms(&PatternGraph::star(4)).len(), 6);
        assert_eq!(automorphisms(&PatternGraph::all_to_all(3)).len(), 6);
        // Asymmetric graph: a path with a pendant making degrees unique.
        let asym = pattern(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]);
        // deg: 0->1, 1->3, 2->2, 3->2; vertices 2,3 are swappable? 2-3 edge
        // exists, both adjacent to 1... swap(2,3) keeps edges: (1,2)->(1,3) ok,
        // (2,3)->(3,2) ok. So 2 automorphisms.
        assert_eq!(automorphisms(&asym).len(), 2);
    }

    #[test]
    fn identity_always_present() {
        let autos = automorphisms(&PatternGraph::binary_tree(5));
        let n = 5;
        assert!(autos.contains(&(0..n).collect::<Vec<_>>()));
    }

    #[test]
    fn automorphisms_preserve_edges() {
        let g = PatternGraph::ring_tree(5);
        for a in automorphisms(&g) {
            for (u, v, ()) in g.edges() {
                assert!(g.has_edge(a[u], a[v]), "{a:?} breaks edge ({u},{v})");
            }
        }
    }

    #[test]
    fn constraints_trivial_group_is_empty() {
        // Pattern with unique degrees has only the identity automorphism.
        let g = PatternGraph::chain(3);
        // P3: end-swap automorphism exists, so use a truly rigid graph —
        // a spider with legs of distinct lengths 1, 2, 3 from center 2.
        let rigid = pattern(7, &[(0, 1), (1, 2), (2, 3), (2, 4), (4, 5), (5, 6)]);
        assert_eq!(automorphisms(&rigid).len(), 1);
        assert!(symmetry_breaking_constraints(&automorphisms(&rigid)).is_empty());
        // P3 by contrast yields exactly one constraint (ends ordered).
        let (_, c) = analyze(&g);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0], Constraint { small: 0, large: 2 });
    }

    #[test]
    fn constraint_filtering_keeps_one_per_class_complete_graph() {
        // Pattern K3 embedded into data K3 (automorphism case): 6 injective
        // maps, exactly one should satisfy constraints.
        let (autos, constraints) = analyze(&PatternGraph::all_to_all(3));
        assert_eq!(autos.len(), 6);
        let mut kept = 0;
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for p in perms {
            if satisfies(&p, &constraints) {
                kept += 1;
            }
        }
        assert_eq!(kept, 1);
    }

    #[test]
    fn ring5_constraint_filtering() {
        let (autos, constraints) = analyze(&PatternGraph::ring(5));
        assert_eq!(autos.len(), 10);
        // Generate all 120 bijections of {0..5}; exactly 120/10 = 12 classes,
        // but a bijection is an embedding of C5 into K5 only if it maps ring
        // edges to edges — in K5 all are. Each automorphism class has 10
        // members; count satisfying assignments.
        let mut kept = 0;
        let mut total = 0;
        permute(&mut (0..5).collect::<Vec<_>>(), 0, &mut |p| {
            total += 1;
            if satisfies(p, &constraints) {
                kept += 1;
            }
        });
        assert_eq!(total, 120);
        assert_eq!(kept, 120 / 10);
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }
}
