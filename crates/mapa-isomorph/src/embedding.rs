//! Embeddings: injective maps from pattern vertices to data vertices.

use mapa_graph::Graph;

/// An embedding of a pattern graph into a data graph.
///
/// `map[p]` is the data vertex assigned to pattern vertex `p`. The map is
/// injective by construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Embedding {
    map: Vec<usize>,
}

impl Embedding {
    /// Wraps a complete assignment vector.
    ///
    /// # Panics
    /// Panics (in debug builds) if the map is not injective.
    #[must_use]
    pub fn new(map: Vec<usize>) -> Self {
        debug_assert!(
            {
                let mut sorted = map.clone();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "embedding must be injective: {map:?}"
        );
        Self { map }
    }

    /// Number of pattern vertices mapped.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True for the empty embedding (0-vertex pattern).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The data vertex that pattern vertex `p` maps to.
    ///
    /// # Panics
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn image(&self, p: usize) -> usize {
        self.map[p]
    }

    /// The full assignment slice (`[p] -> data vertex`).
    #[must_use]
    pub fn as_slice(&self) -> &[usize] {
        &self.map
    }

    /// The set of data vertices used, sorted ascending.
    #[must_use]
    pub fn vertex_set(&self) -> Vec<usize> {
        let mut v = self.map.clone();
        v.sort_unstable();
        v
    }

    /// Sum of data-graph weights over the *pattern's* edges — the paper's
    /// Aggregated Bandwidth (Eq. 1) when `data` is a hardware graph: only
    /// links the application actually uses are counted.
    ///
    /// Pattern edges whose images are not connected in `data` contribute 0
    /// (cannot happen for monomorphic embeddings, but the method is total).
    #[must_use]
    pub fn mapped_edge_weight<W: Copy>(&self, pattern: &Graph<W>, data: &Graph<f64>) -> f64 {
        pattern
            .edges()
            .filter_map(|(u, v, _)| data.weight(self.image(u), self.image(v)))
            .sum()
    }
}

#[cfg(test)]
impl Embedding {
    /// Verifies that this embedding is a valid monomorphism of `pattern`
    /// into `data`: injective, in-range, and edge-preserving.
    pub(crate) fn is_valid_monomorphism<P: Copy, D: Copy>(
        &self,
        pattern: &Graph<P>,
        data: &Graph<D>,
    ) -> bool {
        if self.map.len() != pattern.vertex_count() {
            return false;
        }
        if self.map.iter().any(|&d| d >= data.vertex_count()) {
            return false;
        }
        let mut sorted = self.map.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
        pattern
            .edges()
            .all(|(u, v, _)| data.has_edge(self.image(u), self.image(v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_graph::PatternGraph;

    #[test]
    fn accessors() {
        let e = Embedding::new(vec![3, 1, 2]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.image(0), 3);
        assert_eq!(e.vertex_set(), vec![1, 2, 3]);
        assert!(!e.is_empty());
        assert!(Embedding::new(vec![]).is_empty());
    }

    #[test]
    fn mapped_edge_weight_counts_only_pattern_edges() {
        // Pattern: chain 0-1-2. Data: triangle with distinct weights.
        let pattern = PatternGraph::chain(3);
        let mut data = Graph::new(3);
        for (u, v, w) in [(0, 1, 50.0), (1, 2, 25.0), (0, 2, 12.0)] {
            data.add_edge(u, v, w).unwrap();
        }
        let e = Embedding::new(vec![0, 1, 2]);
        // Chain uses edges (0,1) and (1,2) only; the 12.0 link is unused.
        assert!((e.mapped_edge_weight(&pattern, &data) - 75.0).abs() < 1e-12);
        // Different embedding of the same vertex set uses different links.
        let e2 = Embedding::new(vec![1, 0, 2]);
        assert!((e2.mapped_edge_weight(&pattern, &data) - 62.0).abs() < 1e-12);
    }

    #[test]
    fn validity_checks() {
        let pattern = PatternGraph::ring(3);
        let tri = PatternGraph::all_to_all(3);
        let path = PatternGraph::chain(3);
        assert!(Embedding::new(vec![0, 1, 2]).is_valid_monomorphism(&pattern, &tri));
        assert!(!Embedding::new(vec![0, 1, 2]).is_valid_monomorphism(&pattern, &path));
        // Wrong arity.
        assert!(!Embedding::new(vec![0, 1]).is_valid_monomorphism(&pattern, &tri));
        // Out of range.
        assert!(!Embedding::new(vec![0, 1, 5]).is_valid_monomorphism(&pattern, &tri));
    }
}
