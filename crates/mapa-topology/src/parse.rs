//! `nvidia-smi topo -m`-style matrix parsing and rendering.
//!
//! The paper (§3.2) extracts hardware graphs "from existing tools, such as
//! nvidia-smi". This module accepts the connectivity-matrix format that
//! tool prints (trailing affinity/NIC columns, NIC rows and the legend
//! block included), so a user on a real machine can feed MAPA the same way:
//!
//! ```text
//!        GPU0  GPU1  GPU2
//! GPU0    X    NV2   SYS
//! GPU1   NV2    X    NV1
//! GPU2   SYS   NV1    X
//! ```
//!
//! Cell legend (as in nvidia-smi): `X` self, `NV<k>` = k bonded NVLink
//! bricks, and any of `SYS`/`NODE`/`PHB`/`PXB`/`PIX` = a PCIe-class path.
//! `NV1` maps to single NVLink, `NV2`+ to double; the NVLink generation is
//! chosen by [`NvlinkGeneration`].

use crate::{LinkType, Topology};
use mapa_graph::Graph;
use std::fmt;

/// Which NVLink generation `NV<k>` cells denote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NvlinkGeneration {
    /// Pascal-era NVLink-v1 (20 GB/s per brick).
    V1,
    /// Volta-era NVLink-v2 (25 GB/s per brick; default).
    #[default]
    V2,
}

/// Errors from matrix parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The input had no data rows.
    Empty,
    /// A row had the wrong number of cells.
    RowLength {
        /// Zero-based row index.
        row: usize,
        /// Cells found.
        found: usize,
        /// Cells expected (the GPU count).
        expected: usize,
    },
    /// An unrecognized cell token.
    BadCell {
        /// Zero-based row index.
        row: usize,
        /// Zero-based column index.
        col: usize,
        /// The offending token.
        token: String,
    },
    /// The matrix was not symmetric.
    Asymmetric {
        /// Row of the mismatch.
        row: usize,
        /// Column of the mismatch.
        col: usize,
    },
    /// A diagonal cell was not `X`.
    BadDiagonal(usize),
    /// Data row `row` was not labelled `GPU{row}`.
    RowLabel {
        /// Zero-based row index.
        row: usize,
        /// The label found.
        label: String,
    },
    /// The header named a different number of GPUs than there were rows.
    HeaderCount {
        /// `GPU<n>` labels on the header line.
        header: usize,
        /// Data rows found.
        rows: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "no data rows found"),
            ParseError::RowLength {
                row,
                found,
                expected,
            } => {
                write!(f, "row {row}: found {found} cells, expected {expected}")
            }
            ParseError::BadCell { row, col, token } => {
                write!(f, "row {row} col {col}: unrecognized cell '{token}'")
            }
            ParseError::Asymmetric { row, col } => {
                write!(f, "matrix asymmetric at ({row}, {col})")
            }
            ParseError::BadDiagonal(row) => write!(f, "diagonal cell of row {row} must be X"),
            ParseError::RowLabel { row, label } => {
                write!(f, "row {row} is labelled '{label}', expected 'GPU{row}'")
            }
            ParseError::HeaderCount { header, rows } => {
                write!(f, "header lists {header} GPUs but {rows} GPU rows follow")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// The GPU-to-GPU corner of an `nvidia-smi topo -m` matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkMatrix {
    /// `bricks[i][j]`: bonded NVLink bricks between GPUs `i` and `j`
    /// (`0` = a PCIe-class path only). Symmetric, zero diagonal.
    pub bricks: Vec<Vec<u8>>,
    /// Inferred socket of each GPU: a GPU shares the socket of its lowest
    /// peer not separated from it by `SYS`. (For machines without `SYS`
    /// cells everything lands in socket 0.)
    pub sockets: Vec<usize>,
}

/// Parses the GPU-to-GPU corner of `nvidia-smi topo -m` output — the one
/// grammar for that format, shared by [`parse_topology_matrix`] and
/// `mapa-agent`'s `nvidia-smi` probe.
///
/// A data row is a `GPU<n>` label followed by a link cell, and row `i` is
/// labelled `GPU{i}`; once the rows have begun, every `GPU<n>` line is one.
/// A `GPU<n>` line before them that is not a data row is the header (its
/// labels, then `CPU Affinity` and the like): when present, its count of
/// GPU labels must equal the number of rows, so a truncated matrix is
/// refused rather than read as a smaller machine. NIC rows, the columns
/// after the GPU ones and the legend block are ignored.
///
/// # Errors
/// Returns a [`ParseError`] describing the first problem found.
pub fn parse_link_matrix(input: &str) -> Result<LinkMatrix, ParseError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Cell {
        Diagonal,
        NvLink(u8),
        PciLocal, // PHB / PXB / PIX / NODE: same PCIe root or NUMA node
        PciSys,   // SYS: across sockets
    }

    // `str::parse` also takes a leading `+`, which no tool prints.
    let digits = |n: &str| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit());
    let parse_cell = |token: &str| {
        let t = token.to_ascii_uppercase();
        let bricks = t.strip_prefix("NV").filter(|k| digits(k));
        match (t.as_str(), bricks) {
            ("X", _) => Some(Cell::Diagonal),
            (_, Some(k)) => k.parse().ok().map(Cell::NvLink),
            ("PHB" | "PXB" | "PIX" | "NODE", _) => Some(Cell::PciLocal),
            ("SYS" | "QPI", _) => Some(Cell::PciSys),
            _ => None,
        }
    };
    let is_label = |t: &str| t.strip_prefix("GPU").is_some_and(digits);
    let mut header = None;
    let mut rows: Vec<Vec<&str>> = Vec::new();
    for tokens in input
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
    {
        if !tokens.first().is_some_and(|t| is_label(t)) {
            continue;
        }
        let link_cell_follows = tokens.get(1).is_some_and(|t| parse_cell(t).is_some());
        if rows.is_empty() && !link_cell_follows {
            header = Some(tokens.iter().take_while(|t| is_label(t)).count());
            continue;
        }
        let row = rows.len();
        if tokens[0] != format!("GPU{row}") {
            return Err(ParseError::RowLabel {
                row,
                label: tokens[0].to_string(),
            });
        }
        rows.push(tokens);
    }
    let n = rows.len();
    if n == 0 {
        return Err(ParseError::Empty);
    }
    if let Some(header) = header.filter(|&h| h != n) {
        return Err(ParseError::HeaderCount { header, rows: n });
    }

    let mut grid = vec![vec![Cell::Diagonal; n]; n];
    for (i, row) in rows.iter().enumerate() {
        let cells = &row[1..];
        if cells.len() < n {
            return Err(ParseError::RowLength {
                row: i,
                found: cells.len(),
                expected: n,
            });
        }
        for (j, &tok) in cells[..n].iter().enumerate() {
            grid[i][j] = parse_cell(tok).ok_or_else(|| ParseError::BadCell {
                row: i,
                col: j,
                token: tok.to_string(),
            })?;
        }
    }

    for (i, row) in grid.iter().enumerate() {
        if row[i] != Cell::Diagonal {
            return Err(ParseError::BadDiagonal(i));
        }
        for (j, &cell) in row.iter().enumerate().skip(i + 1) {
            if cell != grid[j][i] {
                return Err(ParseError::Asymmetric { row: i, col: j });
            }
        }
    }

    let bricks = grid
        .iter()
        .map(|row| {
            row.iter()
                .map(|&cell| match cell {
                    Cell::NvLink(k) => k,
                    _ => 0,
                })
                .collect()
        })
        .collect();

    // Socket inference: union GPUs not separated by SYS.
    let mut sockets = vec![usize::MAX; n];
    let mut next = 0;
    for i in 0..n {
        if sockets[i] != usize::MAX {
            continue;
        }
        sockets[i] = next;
        for j in (i + 1)..n {
            if sockets[j] == usize::MAX && grid[i][j] != Cell::PciSys {
                sockets[j] = next;
            }
        }
        next += 1;
    }

    Ok(LinkMatrix { bricks, sockets })
}

/// Parses an `nvidia-smi topo -m`-style matrix into a [`Topology`]: the
/// link matrix of [`parse_link_matrix`], `NV1` as the single-NVLink class
/// of `generation` and `NV2`+ as the paper's "double" class.
///
/// # Errors
/// Returns a [`ParseError`] describing the first problem found.
pub fn parse_topology_matrix(
    input: &str,
    name: &str,
    generation: NvlinkGeneration,
) -> Result<Topology, ParseError> {
    let LinkMatrix { bricks, sockets } = parse_link_matrix(input)?;
    let mut links = Graph::new(bricks.len());
    for (i, row) in bricks.iter().enumerate() {
        for (j, &k) in row.iter().enumerate().skip(i + 1) {
            let link = match (k, generation) {
                (0, _) => continue,
                (1, NvlinkGeneration::V1) => LinkType::SingleNvLink1,
                (1, NvlinkGeneration::V2) => LinkType::SingleNvLink2,
                (_, _) => LinkType::DoubleNvLink2,
            };
            links.add_edge(i, j, link).expect("matrix edges valid");
        }
    }
    Ok(Topology::new(name, links, sockets))
}

/// Renders a topology back into the matrix format (round-trips with
/// [`parse_topology_matrix`]).
#[must_use]
pub fn to_topology_matrix(topology: &Topology) -> String {
    let n = topology.gpu_count();
    let mut out = String::new();
    out.push_str("     ");
    for j in 0..n {
        out.push_str(&format!("{:>6}", format!("GPU{j}")));
    }
    out.push('\n');
    for i in 0..n {
        out.push_str(&format!("{:<5}", format!("GPU{i}")));
        for j in 0..n {
            let cell = if i == j {
                "X".to_string()
            } else {
                match topology.link_type(i, j) {
                    LinkType::DoubleNvLink2 => "NV2".to_string(),
                    LinkType::SingleNvLink1 | LinkType::SingleNvLink2 => "NV1".to_string(),
                    LinkType::Pcie => {
                        if topology.socket_of(i) == topology.socket_of(j) {
                            "PHB".to_string()
                        } else {
                            "SYS".to_string()
                        }
                    }
                }
            };
            out.push_str(&format!("{cell:>6}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;

    const SAMPLE: &str = "\
       GPU0  GPU1  GPU2  GPU3
GPU0    X    NV2   NV1   SYS
GPU1   NV2    X    SYS   NV1
GPU2   NV1   SYS    X    NV2
GPU3   SYS   NV1   NV2    X
";

    #[test]
    fn parses_sample_matrix() {
        let t = parse_topology_matrix(SAMPLE, "sample", NvlinkGeneration::V2).unwrap();
        assert_eq!(t.gpu_count(), 4);
        assert_eq!(t.link_type(0, 1), LinkType::DoubleNvLink2);
        assert_eq!(t.link_type(0, 2), LinkType::SingleNvLink2);
        assert_eq!(t.link_type(0, 3), LinkType::Pcie);
        assert_eq!(t.link_type(2, 3), LinkType::DoubleNvLink2);
    }

    #[test]
    fn v1_generation_selects_nvlink_v1() {
        let t = parse_topology_matrix(SAMPLE, "sample", NvlinkGeneration::V1).unwrap();
        assert_eq!(t.link_type(0, 2), LinkType::SingleNvLink1);
        // Multi-brick still maps to the double class.
        assert_eq!(t.link_type(0, 1), LinkType::DoubleNvLink2);
    }

    #[test]
    fn socket_inference_from_sys() {
        let t = parse_topology_matrix(SAMPLE, "sample", NvlinkGeneration::V2).unwrap();
        // 0 and 3 are separated by SYS, 0 and 1/2 are not.
        assert_eq!(t.socket_of(0), t.socket_of(1));
        assert_eq!(t.socket_of(0), t.socket_of(2));
        assert_ne!(t.socket_of(0), t.socket_of(3));
    }

    #[test]
    fn roundtrip_through_matrix_format() {
        for machine in [
            machines::dgx1_v100(),
            machines::summit(),
            machines::torus_2d(),
        ] {
            let rendered = to_topology_matrix(&machine);
            let parsed =
                parse_topology_matrix(&rendered, machine.name(), NvlinkGeneration::V2).unwrap();
            assert_eq!(parsed.gpu_count(), machine.gpu_count());
            for a in 0..machine.gpu_count() {
                for b in 0..machine.gpu_count() {
                    if a == b {
                        continue;
                    }
                    // Bandwidth class must survive the roundtrip (NVLink
                    // generation is normalised to v2 by the renderer).
                    let orig = match machine.link_type(a, b) {
                        LinkType::SingleNvLink1 => LinkType::SingleNvLink2,
                        l => l,
                    };
                    assert_eq!(parsed.link_type(a, b), orig, "{} ({a},{b})", machine.name());
                }
            }
        }
    }

    #[test]
    fn error_reporting() {
        assert_eq!(
            parse_topology_matrix("", "x", NvlinkGeneration::V2),
            Err(ParseError::Empty)
        );
        let bad_cell = "GPU0  X  WAT\nGPU1  WAT  X\n";
        assert!(matches!(
            parse_topology_matrix(bad_cell, "x", NvlinkGeneration::V2),
            Err(ParseError::BadCell { token, .. }) if token == "WAT"
        ));
        let asym = "GPU0  X   NV1\nGPU1  SYS  X\n";
        assert!(matches!(
            parse_topology_matrix(asym, "x", NvlinkGeneration::V2),
            Err(ParseError::Asymmetric { .. })
        ));
        let short = "GPU0  X  NV1\nGPU1  NV1\n";
        assert!(matches!(
            parse_topology_matrix(short, "x", NvlinkGeneration::V2),
            Err(ParseError::RowLength { .. })
        ));
        let diag = "GPU0  NV1  NV1\nGPU1  NV1  X\n";
        assert!(matches!(
            parse_topology_matrix(diag, "x", NvlinkGeneration::V2),
            Err(ParseError::BadDiagonal(0))
        ));
    }

    /// Real tool output: tab-separated, affinity and NIC columns after the
    /// GPU ones, a NIC row, the legend block.
    const SMI_OUTPUT: &str = include_str!("../../../tests/fixtures/nvidia-smi-topo.txt");

    #[test]
    fn real_tool_output_parses() {
        let m = parse_link_matrix(SMI_OUTPUT).unwrap();
        assert_eq!(m.bricks, [[0, 2, 0], [2, 0, 1], [0, 1, 0]]);
        assert_eq!(m.sockets, [0, 0, 1]);
        let t = parse_topology_matrix(SMI_OUTPUT, "smi", NvlinkGeneration::V2).unwrap();
        assert_eq!(t.gpu_count(), 3);
        assert_eq!(t.link_type(0, 1), LinkType::DoubleNvLink2);
        assert_eq!(t.link_type(1, 2), LinkType::SingleNvLink2);
        assert_eq!(t.link_type(0, 2), LinkType::Pcie);
        assert_eq!(t.socket_count(), 2);
    }

    /// A single-GPU machine's header has one label, then `CPU Affinity`:
    /// it used to be read as a data row whose first cell was `CPU`.
    #[test]
    fn single_gpu_tool_output_parses() {
        let one = include_str!("../../../tests/fixtures/nvidia-smi-topo-1gpu.txt");
        let m = parse_link_matrix(one).unwrap();
        assert_eq!(m.bricks, [[0]]);
        assert_eq!(m.sockets, [0]);
    }

    /// A matrix whose last row is missing used to parse as a smaller
    /// machine, its last column dropped as if it were an affinity column.
    #[test]
    fn a_truncated_matrix_is_refused_by_its_header() {
        let truncated = include_str!("../../../tests/fixtures/nvidia-smi-topo-truncated.txt");
        assert_eq!(
            parse_link_matrix(truncated),
            Err(ParseError::HeaderCount { header: 4, rows: 3 })
        );
    }

    #[test]
    fn rows_out_of_order_are_refused() {
        let swapped = "GPU0  X   NV1  NV2\nGPU2  NV2 NV1  X\nGPU1  NV1 X    NV1\n";
        assert_eq!(
            parse_link_matrix(swapped),
            Err(ParseError::RowLabel {
                row: 1,
                label: "GPU2".to_string()
            })
        );
        let missing_middle = "GPU0  X   NV1\nGPU2  NV1  X\n";
        assert!(matches!(
            parse_link_matrix(missing_middle),
            Err(ParseError::RowLabel { row: 1, .. })
        ));
    }

    /// A brick count is digits only: `str::parse` would read `NV+4` as 4.
    #[test]
    fn a_signed_brick_count_is_a_bad_cell() {
        for token in ["NV+4", "nv+1"] {
            let m = format!("GPU0  X  {token}\nGPU1  {token}  X\n");
            assert_eq!(
                parse_link_matrix(&m),
                Err(ParseError::BadCell {
                    row: 0,
                    col: 1,
                    token: token.to_string()
                })
            );
        }
    }

    #[test]
    fn nv0_cells_ignored() {
        let m = "GPU0  X   NV0\nGPU1  NV0  X\n";
        let t = parse_topology_matrix(m, "x", NvlinkGeneration::V2).unwrap();
        assert_eq!(t.link_type(0, 1), LinkType::Pcie);
    }

    /// Pieces of `nvidia-smi topo -m` output, and of what it is not.
    const MATRIX_TOKENS: &[&str] = &[
        "GPU0",
        "GPU1",
        "GPU2",
        "GPU3",
        "GPU",
        "GPU01",
        "GPU99",
        "X",
        "x",
        "NV0",
        "NV1",
        "NV2",
        "nv4",
        "NV12",
        "NV300",
        "NV+4",
        "NV-1",
        "NV",
        "SYS",
        "PHB",
        "PXB",
        "PIX",
        "NODE",
        "QPI",
        "CPU Affinity",
        "NUMA Affinity",
        "0-19",
        "NIC0",
        "Legend:",
        " ",
        " ",
        "\t",
        "\n",
        "\n",
        "\r\n",
        "GPU\u{2160}",
        "\u{0413}\u{041f}\u{0423}0",
        "\u{2713}",
        "\u{feff}",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Soup of matrix tokens, alone or spliced into a valid matrix,
        /// never panics the parser: it returns a typed error, or a topology
        /// that reads back from its own rendering.
        #[test]
        fn matrix_parse_never_panics_on_token_soup(
            tokens in proptest::collection::vec(0usize..MATRIX_TOKENS.len(), 0..40),
            host in 0usize..3,
            at in 0usize..4096,
        ) {
            let mut input = match host {
                0 => String::new(),
                1 => SAMPLE.to_string(),
                _ => to_topology_matrix(&machines::dgx1_v100()),
            };
            let soup: String = tokens.iter().map(|&t| MATRIX_TOKENS[t]).collect();
            input.insert_str(at % (input.len() + 1), &soup);
            if let Ok(topology) = parse_topology_matrix(&input, "soup", NvlinkGeneration::V2) {
                proptest::prop_assert_eq!(
                    parse_topology_matrix(
                        &to_topology_matrix(&topology),
                        "soup",
                        NvlinkGeneration::V2
                    ),
                    Ok(topology),
                    "{:?}",
                    input
                );
            }
        }
    }
}
