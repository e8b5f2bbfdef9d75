//! Best-effort production probe: shells out to `nvidia-smi`.
//!
//! Three invocations build one [`ProbeSnapshot`]:
//!
//! ```text
//! nvidia-smi --query-gpu=index,uuid,name,memory.total,memory.used,utilization.gpu \
//!            --format=csv,noheader,nounits
//! nvidia-smi --query-compute-apps=gpu_uuid,pid,used_gpu_memory \
//!            --format=csv,noheader,nounits
//! nvidia-smi topo -m
//! ```
//!
//! All parsing is in pure functions unit-tested against canned outputs,
//! so the only untested surface on a GPU-less host is the `Command`
//! spawn itself. A missing binary degrades to
//! [`ProbeError::Unavailable`] with a hint to use the fake probe.

use crate::probe::{GpuInfo, GpuProbe, ProbeError, ProbeSnapshot, ProcessInfo};
use mapa_topology::parse::{parse_link_matrix, LinkMatrix};
use std::collections::HashMap;
use std::process::Command;

/// `nvidia-smi`-backed probe.
#[derive(Debug, Clone)]
pub struct SmiProbe {
    binary: String,
}

impl Default for SmiProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SmiProbe {
    /// A probe invoking `nvidia-smi` from `$PATH`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            binary: "nvidia-smi".to_string(),
        }
    }

    /// Overrides the binary path (tests point this at a stub script).
    #[must_use]
    pub fn with_binary(mut self, path: impl Into<String>) -> Self {
        self.binary = path.into();
        self
    }

    fn run(&self, args: &[&str]) -> Result<String, ProbeError> {
        let out = Command::new(&self.binary)
            .args(args)
            .output()
            .map_err(|e| {
                ProbeError::Unavailable(format!(
                    "could not run '{}': {e}; on a host without NVIDIA tooling use \
                 the fake probe (e.g. --probe fake:dgx-1-v100)",
                    self.binary
                ))
            })?;
        if !out.status.success() {
            return Err(ProbeError::Unavailable(format!(
                "'{} {}' exited with {}",
                self.binary,
                args.join(" "),
                out.status
            )));
        }
        String::from_utf8(out.stdout)
            .map_err(|_| ProbeError::Malformed("nvidia-smi emitted non-UTF-8 output".into()))
    }
}

impl GpuProbe for SmiProbe {
    fn source(&self) -> String {
        self.binary.clone()
    }

    fn snapshot(&mut self) -> Result<ProbeSnapshot, ProbeError> {
        let gpu_csv = self.run(&[
            "--query-gpu=index,uuid,name,memory.total,memory.used,utilization.gpu",
            "--format=csv,noheader,nounits",
        ])?;
        // Compute-apps can legitimately be empty; a failure here (some
        // driver/MIG combinations reject the query) degrades to "no
        // process details" rather than failing the probe.
        let apps_csv = self
            .run(&[
                "--query-compute-apps=gpu_uuid,pid,used_gpu_memory",
                "--format=csv,noheader,nounits",
            ])
            .unwrap_or_default();
        let topo = self.run(&["topo", "-m"])?;
        build_snapshot(hostname(), &gpu_csv, &apps_csv, &topo)
    }
}

fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .ok()
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .unwrap_or_else(|| "unknown-host".to_string())
}

/// Assembles a snapshot from the three raw `nvidia-smi` outputs.
///
/// # Errors
/// [`ProbeError::Malformed`] if any of the outputs cannot be parsed,
/// they disagree on the device count, or a GPU index is not below it.
pub fn build_snapshot(
    hostname: String,
    gpu_csv: &str,
    apps_csv: &str,
    topo_matrix: &str,
) -> Result<ProbeSnapshot, ProbeError> {
    let mut rows = parse_gpu_csv(gpu_csv)?;
    let apps = parse_apps_csv(apps_csv)?;
    let LinkMatrix { bricks, sockets } = parse_link_matrix(topo_matrix)
        .map_err(|e| ProbeError::Malformed(format!("'topo -m' output: {e}")))?;
    if bricks.len() != rows.len() {
        return Err(ProbeError::Malformed(format!(
            "query-gpu lists {} GPUs but 'topo -m' lists {}",
            rows.len(),
            bricks.len()
        )));
    }
    if let Some(r) = rows.iter().find(|r| r.index >= rows.len()) {
        return Err(ProbeError::Malformed(format!(
            "query-gpu reports GPU index {} but lists {} GPUs",
            r.index,
            rows.len()
        )));
    }
    let uuid_to_index: HashMap<String, usize> =
        rows.iter().map(|r| (r.uuid.clone(), r.index)).collect();
    let mut processes: Vec<Vec<ProcessInfo>> = vec![Vec::new(); rows.len()];
    for (uuid, pid, memory_mib) in apps {
        // Apps on devices we did not enumerate (e.g. MIG child devices)
        // are dropped rather than failing the probe.
        if let Some(&i) = uuid_to_index.get(&uuid) {
            processes[i].push(ProcessInfo { pid, memory_mib });
        }
    }
    rows.sort_by_key(|r| r.index);
    let gpus = rows
        .into_iter()
        .map(|r| GpuInfo {
            numa_node: sockets.get(r.index).copied(),
            processes: std::mem::take(&mut processes[r.index]),
            index: r.index,
            model: r.model,
            memory_total_mib: r.memory_total_mib,
            memory_used_mib: r.memory_used_mib,
            utilization_pct: r.utilization_pct,
        })
        .collect();
    let snap = ProbeSnapshot {
        hostname,
        gpus,
        nvlink_bricks: bricks,
    };
    snap.validate()?;
    Ok(snap)
}

struct GpuRow {
    index: usize,
    uuid: String,
    model: String,
    memory_total_mib: u64,
    memory_used_mib: u64,
    utilization_pct: u32,
}

fn field<'a>(parts: &[&'a str], i: usize, line: &str, what: &str) -> Result<&'a str, ProbeError> {
    parts.get(i).map(|s| s.trim()).ok_or_else(|| {
        ProbeError::Malformed(format!("query row '{line}' is missing the {what} field"))
    })
}

fn parse_num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, ProbeError> {
    // `nounits` leaves bare numbers; tolerate "[N/A]" for utilization-less
    // devices by mapping it to 0 upstream, not here.
    tok.trim()
        .parse()
        .map_err(|_| ProbeError::Malformed(format!("bad {what} '{tok}'")))
}

/// Parses `--query-gpu=index,uuid,name,memory.total,memory.used,utilization.gpu`.
fn parse_gpu_csv(input: &str) -> Result<Vec<GpuRow>, ProbeError> {
    let mut rows = Vec::new();
    for line in input.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let parts: Vec<&str> = line.split(',').collect();
        let util_tok = field(&parts, 5, line, "utilization")?;
        rows.push(GpuRow {
            index: parse_num(field(&parts, 0, line, "index")?, "GPU index")?,
            uuid: field(&parts, 1, line, "uuid")?.to_string(),
            model: field(&parts, 2, line, "name")?.to_string(),
            memory_total_mib: parse_num(field(&parts, 3, line, "memory.total")?, "total memory")?,
            memory_used_mib: parse_num(field(&parts, 4, line, "memory.used")?, "used memory")?,
            utilization_pct: if util_tok.contains("N/A") {
                0
            } else {
                parse_num(util_tok, "utilization")?
            },
        });
    }
    if rows.is_empty() {
        return Err(ProbeError::Malformed(
            "query-gpu output listed no devices".into(),
        ));
    }
    Ok(rows)
}

/// Parses `--query-compute-apps=gpu_uuid,pid,used_gpu_memory` into
/// `(uuid, pid, memory_mib)` triples.
fn parse_apps_csv(input: &str) -> Result<Vec<(String, u32, u64)>, ProbeError> {
    let mut apps = Vec::new();
    for line in input.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let parts: Vec<&str> = line.split(',').collect();
        apps.push((
            field(&parts, 0, line, "gpu_uuid")?.to_string(),
            parse_num(field(&parts, 1, line, "pid")?, "pid")?,
            parse_num(field(&parts, 2, line, "used_gpu_memory")?, "used memory")?,
        ));
    }
    Ok(apps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapa_topology::parse::{parse_topology_matrix, NvlinkGeneration};

    const GPU_CSV: &str = "\
0, GPU-aaaa, Tesla V100-SXM2-16GB, 16160, 0, 0
1, GPU-bbbb, Tesla V100-SXM2-16GB, 16160, 3270, 97
2, GPU-cccc, Tesla V100-SXM2-16GB, 16160, 510, [N/A]
";

    const APPS_CSV: &str = "\
GPU-bbbb, 31337, 3270
GPU-cccc, 4242, 510
GPU-zzzz, 7, 100
";

    /// Real tool output — the fixture `mapa-topology`'s parser tests and
    /// CI's `mapa-sched topo` smoke line read too.
    const TOPO: &str = include_str!("../../../tests/fixtures/nvidia-smi-topo.txt");
    const TOPO_1GPU: &str = include_str!("../../../tests/fixtures/nvidia-smi-topo-1gpu.txt");

    #[test]
    fn gpu_csv_parses_including_na_utilization() {
        let rows = parse_gpu_csv(GPU_CSV).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].uuid, "GPU-bbbb");
        assert_eq!(rows[1].memory_used_mib, 3270);
        assert_eq!(rows[1].utilization_pct, 97);
        assert_eq!(rows[2].utilization_pct, 0, "[N/A] maps to 0");
    }

    #[test]
    fn apps_csv_parses_and_snapshot_drops_unknown_uuids() {
        let snap = build_snapshot("h".into(), GPU_CSV, APPS_CSV, TOPO).unwrap();
        assert_eq!(
            snap.gpus[1].processes,
            vec![ProcessInfo {
                pid: 31337,
                memory_mib: 3270
            }]
        );
        assert_eq!(snap.gpus[2].processes.len(), 1);
        assert!(snap.gpus[0].processes.is_empty(), "GPU-zzzz row dropped");
    }

    #[test]
    fn topo_matrix_parses_bricks_and_sockets() {
        let snap = build_snapshot("h".into(), GPU_CSV, APPS_CSV, TOPO).unwrap();
        let bricks = &snap.nvlink_bricks;
        assert_eq!(bricks[0][1], 2);
        assert_eq!(bricks[1][2], 1);
        assert_eq!(bricks[0][2], 0);
        // GPU2 sits across SYS from GPU0 but shares NVLink with GPU1, so
        // the lowest-peer union puts all three in socket 0 except where
        // SYS separates the *seed*.
        let sockets: Vec<_> = snap.gpus.iter().map(|g| g.numa_node).collect();
        assert_eq!(sockets, vec![Some(0), Some(0), Some(1)]);
        // The machine the agent allocates on is the one `mapa-sched topo`
        // shows for the same text.
        let machine = crate::map::machine_from_snapshot(&snap).unwrap().topology;
        let parsed = parse_topology_matrix(TOPO, "h", NvlinkGeneration::V2).unwrap();
        assert!(crate::map::structurally_equal(&machine, &parsed));
    }

    #[test]
    fn malformed_outputs_are_rejected() {
        assert!(parse_gpu_csv("").is_err());
        assert!(parse_gpu_csv("0, uuid-only").is_err());
        assert!(parse_apps_csv("uuid, not-a-pid, 3").is_err());
        let with_topo = |topo| build_snapshot("h".into(), GPU_CSV, APPS_CSV, topo);
        assert!(matches!(
            with_topo("no gpu rows here"),
            Err(ProbeError::Malformed(m)) if m.contains("no data rows")
        ));
        let asym = "GPU0\tX\tNV2\nGPU1\tNV1\tX\n";
        assert!(matches!(
            with_topo(asym),
            Err(ProbeError::Malformed(m)) if m.contains("asymmetric")
        ));
        let counts_disagree = build_snapshot("h".into(), "0, GPU-aaaa, T, 1, 0, 0\n", "", TOPO);
        assert!(counts_disagree.is_err());
    }

    #[test]
    fn an_out_of_range_gpu_index_is_malformed() {
        let row = "5, GPU-x, Tesla V100, 16000, 0, 0\n";
        assert!(matches!(
            build_snapshot("h".into(), row, "GPU-x, 7, 100\n", TOPO_1GPU),
            Err(ProbeError::Malformed(m)) if m == "query-gpu reports GPU index 5 but lists 1 GPUs"
        ));
    }

    #[test]
    fn missing_binary_degrades_to_unavailable() {
        let mut probe = SmiProbe::new().with_binary("/nonexistent/nvidia-smi-stub");
        match probe.snapshot() {
            Err(ProbeError::Unavailable(msg)) => {
                assert!(msg.contains("fake:dgx-1-v100"), "hint present: {msg}");
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
    }

    /// Tokens of `--query-gpu` / `--query-compute-apps` CSV text, valid
    /// and not.
    const CSV_TOKENS: &[&str] = &[
        "0",
        "1",
        "2",
        "5",
        "-1",
        "+3",
        "18446744073709551616",
        "GPU-aaaa",
        "GPU-bbbb",
        "GPU-x",
        "Tesla V100",
        "16160",
        "[N/A]",
        ",",
        " ",
        "\n",
        "\t",
        "\u{e9}",
    ];

    /// Tokens of `nvidia-smi topo -m` text, valid and not.
    const TOPO_TOKENS: &[&str] = &[
        "GPU0", "GPU1", "GPU2", "GPU9", "X", "NV1", "NV2", "NV+4", "SYS", "PHB", "0-19", "NIC0",
        "Legend:", "\t", " ", "\n", "\n",
    ];

    /// `csv` with the comma-separated field at each edit's position (mod
    /// the field count) replaced by that edit's token soup.
    fn edit_fields(csv: &str, edits: &[(usize, Vec<usize>)]) -> String {
        let mut fields: Vec<String> = csv.split(',').map(str::to_string).collect();
        for (at, tokens) in edits {
            let n = fields.len();
            fields[at % n] = tokens.iter().map(|&t| CSV_TOKENS[t]).collect();
        }
        fields.join(",")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// CSV token soup, alone or in place of fields of a 1- or 3-GPU
        /// probe's outputs, against that probe's real `topo -m` text or
        /// a soup of topology tokens, never panics the snapshot builder:
        /// it refuses the text, or returns a snapshot that validates.
        #[test]
        fn build_snapshot_never_panics_on_token_soup(
            gpu_edits in proptest::collection::vec(
                (0usize..64, proptest::collection::vec(0usize..CSV_TOKENS.len(), 0..4)),
                0..4,
            ),
            apps_edits in proptest::collection::vec(
                (0usize..64, proptest::collection::vec(0usize..CSV_TOKENS.len(), 0..4)),
                0..4,
            ),
            topo_tokens in proptest::collection::vec(0usize..TOPO_TOKENS.len(), 0..40),
            host in 0usize..3,
            soup_topo in proptest::prelude::any::<bool>(),
        ) {
            let (gpu_csv, apps_csv, topo) = match host {
                0 => ("", "", TOPO_1GPU),
                1 => ("0, GPU-aaaa, Tesla V100, 16160, 0, 0\n", "GPU-aaaa, 7, 100\n", TOPO_1GPU),
                _ => (GPU_CSV, APPS_CSV, TOPO),
            };
            let topo = if soup_topo {
                topo_tokens.iter().map(|&t| TOPO_TOKENS[t]).collect()
            } else {
                topo.to_string()
            };
            let gpu_csv = edit_fields(gpu_csv, &gpu_edits);
            let apps_csv = edit_fields(apps_csv, &apps_edits);
            if let Ok(snap) = build_snapshot("h".into(), &gpu_csv, &apps_csv, &topo) {
                proptest::prop_assert!(snap.validate().is_ok());
            }
        }
    }
}
