//! Graphviz DOT export for graphs.
//!
//! Useful for eyeballing hardware topologies (the paper's Fig. 1 and
//! Fig. 17) and application patterns (Fig. 8). The output is deterministic:
//! vertices ascending, edges in upper-triangle order.

use crate::Graph;
use std::fmt::Write as _;

/// Options controlling DOT output.
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name in the `graph <name> { ... }` header.
    pub name: String,
    /// Optional vertex labels; falls back to the vertex index.
    pub vertex_labels: Vec<String>,
    /// When true, edge weights are rendered as `label=` attributes.
    pub show_weights: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        Self {
            name: "G".to_string(),
            vertex_labels: vec![],
            show_weights: true,
        }
    }
}

/// Renders `g` as an undirected Graphviz DOT document.
#[must_use]
pub fn to_dot<W: Copy + std::fmt::Display>(g: &Graph<W>, opts: &DotOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "graph {} {{", sanitize(&opts.name));
    for v in 0..g.vertex_count() {
        let label = opts
            .vertex_labels
            .get(v)
            .cloned()
            .unwrap_or_else(|| v.to_string());
        let _ = writeln!(out, "  n{v} [label=\"{}\"];", escape(&label));
    }
    for (u, v, w) in g.edges() {
        if opts.show_weights {
            let _ = writeln!(out, "  n{u} -- n{v} [label=\"{w}\"];");
        } else {
            let _ = writeln!(out, "  n{u} -- n{v};");
        }
    }
    out.push_str("}\n");
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "G".to_string()
    } else {
        cleaned
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, PatternGraph};

    #[test]
    fn dot_contains_all_vertices_and_edges() {
        let mut g: Graph<f64> = Graph::new(3);
        g.add_edge(0, 1, 50.0).unwrap();
        g.add_edge(1, 2, 12.0).unwrap();
        let dot = to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("graph G {"));
        assert!(dot.contains("n0 [label=\"0\"];"));
        assert!(dot.contains("n2 [label=\"2\"];"));
        assert!(dot.contains("n0 -- n1 [label=\"50\"];"));
        assert!(dot.contains("n1 -- n2 [label=\"12\"];"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn labels_and_weightless_mode() {
        let g = PatternGraph::ring(3).map_weights(|_, _, ()| 1.0);
        let opts = DotOptions {
            name: "dgx 1".into(),
            vertex_labels: vec!["GPU0".into(), "GPU1".into()],
            show_weights: false,
        };
        let dot = to_dot(&g, &opts);
        assert!(dot.starts_with("graph dgx_1 {"), "{dot}");
        assert!(dot.contains("label=\"GPU0\""));
        // Missing third label falls back to the index.
        assert!(dot.contains("n2 [label=\"2\"];"));
        assert!(dot.contains("n0 -- n1;"));
        assert!(!dot.contains("label=\"1\"];\n  n0 -- n1 [label"));
    }

    #[test]
    fn escaping_quotes() {
        let g: Graph<f64> = Graph::new(1);
        let opts = DotOptions {
            vertex_labels: vec!["a\"b".into()],
            ..DotOptions::default()
        };
        let dot = to_dot(&g, &opts);
        assert!(dot.contains("a\\\"b"));
    }

    #[test]
    fn empty_graph_renders() {
        let g: Graph<f64> = Graph::new(0);
        let dot = to_dot(&g, &DotOptions::default());
        assert_eq!(dot, "graph G {\n}\n");
    }
}
