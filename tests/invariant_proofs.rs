//! docs/SCHEDULING.md §13 maps every invariant to the tests that prove
//! it. This checks its Proof column against the tree: every cited path
//! exists (`{a,b}` expanded), and every backticked snake_case name or
//! `prefix_*` glob names a `fn` in one of that row's cited files. A row
//! that goes stale is fixed in the doc.

use std::path::Path;

const DOC: &str = include_str!("../docs/SCHEDULING.md");

/// The Proof cell of every row of §13's table.
fn proof_cells() -> Vec<&'static str> {
    let section = DOC
        .split("\n## ")
        .find(|s| s.starts_with("13. "))
        .expect("docs/SCHEDULING.md has a section 13");
    let rows: Vec<&str> = section
        .lines()
        .filter(|l| l.starts_with('|'))
        .skip(2) // the header and its separator
        .collect();
    assert!(!rows.is_empty(), "§13 has no table rows");
    rows.iter()
        .map(|row| {
            let cells: Vec<&str> = row.split('|').collect();
            assert_eq!(cells.len(), 4, "not an `| invariant | proof |` row: {row}");
            cells[2].trim()
        })
        .collect()
}

/// `a/{b,c}.rs` → `a/b.rs`, `a/c.rs`; a path without braces is itself.
fn expand(path: &str) -> Vec<String> {
    let Some((head, rest)) = path.split_once('{') else {
        return vec![path.to_string()];
    };
    let (alternatives, tail) = rest.split_once('}').expect("a closed brace");
    alternatives
        .split(',')
        .map(|a| format!("{head}{a}{tail}"))
        .collect()
}

/// A snake_case name, or a `prefix_*` glob over them.
fn is_name(span: &str) -> bool {
    let stem = span.strip_suffix('*').unwrap_or(span);
    stem.contains('_')
        && stem
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Whether `source` defines a `fn` that `name` names: the same name, or
/// any name the glob's prefix starts.
fn defines(source: &str, name: &str) -> bool {
    source.match_indices("fn ").any(|(at, _)| {
        let rest = &source[at + 3..];
        match name.strip_suffix('*') {
            Some(prefix) => rest.starts_with(prefix),
            None => {
                rest.starts_with(name)
                    && !rest[name.len()..].starts_with(|c: char| c == '_' || c.is_alphanumeric())
            }
        }
    })
}

#[test]
fn every_section_13_proof_names_an_existing_file_and_fn() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut problems = Vec::new();
    for cell in proof_cells() {
        let spans: Vec<&str> = cell.split('`').skip(1).step_by(2).collect();
        let mut sources = Vec::new();
        for span in spans.iter().filter(|s| s.contains('/')) {
            for path in expand(span) {
                let full = root.join(&path);
                if !full.exists() {
                    problems.push(format!("{path} does not exist"));
                } else if full.is_file() {
                    sources.push(std::fs::read_to_string(&full).unwrap());
                }
            }
        }
        for span in spans.iter().filter(|s| !s.contains('/')) {
            if !is_name(span) {
                problems.push(format!("`{span}` is neither a path nor a snake_case name"));
            } else if !sources.iter().any(|s| defines(s, span)) {
                problems.push(format!("no fn `{span}` in the files its row cites"));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "docs/SCHEDULING.md §13 is stale:\n{}",
        problems.join("\n")
    );
}
