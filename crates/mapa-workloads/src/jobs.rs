//! Job specifications and the paper's job-file format.
//!
//! Fig. 14 shows the simulator input: "Each row in a job file corresponds
//! to a job and is annotated with a job ID, number of GPUs, application
//! topology, and bandwidth sensitivity":
//!
//! ```text
//! ID, NumGPUs, Topology, BW Sensitive
//! 1, 3, Ring, True
//! 2, 4, Ring, True
//! 3, 5, Tree, False
//! ```
//!
//! We carry extra columns — workload name, iterations, an optional tenant
//! priority, an optional per-request latency SLO, and an optional tenant
//! id — so the execution-time model can run the job (the paper's job
//! files embed "execution times from real-world runs" the same way), the
//! preemption layer can tell tenant classes apart, inference tenants can
//! carry their deadline, and the federation tier can charge quotas to the
//! right tenant. The `NumGPUs` column accepts a `s` suffix for
//! fractional demands (`3s` = three MIG slices); the `SloMs` and
//! `Tenant` columns may be omitted or `-` (untagged). Files written by
//! [`write_job_file`] use the legacy 7-column format whenever no job
//! needs the new columns, so old files and old readers keep working.

use crate::network::Workload;
use std::fmt;

/// The application communication topology (paper Fig. 8): how the job's
/// GPUs talk to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AppTopology {
    /// NCCL ring (default for large transfers).
    #[default]
    Ring,
    /// NCCL tree (small transfers / latency bound).
    Tree,
    /// Ring and tree combined (the conservative union of Fig. 8 right).
    RingTree,
    /// Fully connected (e.g. unknown/implicit communication — the
    /// conservative fallback mentioned in §3.1).
    AllToAll,
}

impl AppTopology {
    /// Canonical name used in job files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AppTopology::Ring => "Ring",
            AppTopology::Tree => "Tree",
            AppTopology::RingTree => "RingTree",
            AppTopology::AllToAll => "AllToAll",
        }
    }

    /// Parses a job-file topology name (case-insensitive).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "ring" => Some(AppTopology::Ring),
            "tree" => Some(AppTopology::Tree),
            "ringtree" | "ring+tree" => Some(AppTopology::RingTree),
            "alltoall" | "all-to-all" => Some(AppTopology::AllToAll),
            _ => None,
        }
    }
}

impl fmt::Display for AppTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How many accelerator units a job wants, and of what granularity.
///
/// `Whole(n)` is the paper's demand model: `n` physical GPUs, and the job
/// never shares a die with anyone. `Slices(k)` is the MIG/fractional
/// demand: `k` slice-or-GPU vertices, which *may* land on slices that
/// co-reside on a physical GPU (and on an unpartitioned machine simply
/// land on whole GPUs). Both demands occupy one topology vertex per unit —
/// the difference is which vertices are eligible and how co-residency is
/// scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuDemand {
    /// `n` whole physical GPUs (never placed on MIG slices).
    Whole(usize),
    /// `k` fractional slices (placeable on slices or whole GPUs).
    Slices(usize),
}

impl GpuDemand {
    /// Number of topology vertices the demand occupies.
    #[must_use]
    pub fn units(self) -> usize {
        match self {
            GpuDemand::Whole(n) | GpuDemand::Slices(n) => n,
        }
    }

    /// Whether this is a fractional (slice) demand.
    #[must_use]
    pub fn is_fractional(self) -> bool {
        matches!(self, GpuDemand::Slices(_))
    }

    /// Parses the job-file spelling: `"3"` → `Whole(3)`, `"3s"` →
    /// `Slices(3)` (suffix case-insensitive).
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        let s = s.trim();
        if let Some(head) = s.strip_suffix(['s', 'S']) {
            head.parse::<u64>()
                .ok()
                .map(|n| GpuDemand::Slices(n as usize))
        } else {
            s.parse::<u64>().ok().map(|n| GpuDemand::Whole(n as usize))
        }
    }
}

impl fmt::Display for GpuDemand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuDemand::Whole(n) => write!(f, "{n}"),
            GpuDemand::Slices(n) => write!(f, "{n}s"),
        }
    }
}

/// One job in a job file.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`JobSpec::new`] and the `with_*` builders so new fields (like the
/// fractional demand and the SLO) can land without breaking downstream
/// code.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct JobSpec {
    /// Job identifier (unique within a job file).
    pub id: u64,
    /// Accelerator demand: whole GPUs (1–5 in the paper's mix) or MIG
    /// slices.
    pub demand: GpuDemand,
    /// Application communication topology.
    pub topology: AppTopology,
    /// Bandwidth-sensitivity annotation consumed by the Preserve policy.
    pub bandwidth_sensitive: bool,
    /// The workload driving the execution-time model.
    pub workload: Workload,
    /// Training iterations (or, for inference workloads, requests) to run.
    pub iterations: u64,
    /// Tenant priority: larger is more important, 0 (the default) is the
    /// lowest class. Priorities only matter to a scheduler running a
    /// non-`None` preemption policy — with preemption off they are inert
    /// annotations and schedules are identical to all-zero priorities.
    pub priority: u8,
    /// Per-request latency SLO in milliseconds (inference tenants).
    /// `None` (the default) means the job carries no deadline; the
    /// engine counts SLO attainment only for tagged jobs.
    pub slo_ms: Option<f64>,
    /// Tenant identity for federation quota accounting. `None` (the
    /// default) means the job belongs to no tenant: quotas never apply
    /// and per-tenant counters skip it.
    pub tenant: Option<u64>,
}

impl JobSpec {
    /// Builds a job with the workload's model defaults: `Ring` topology,
    /// the workload's bandwidth-sensitivity annotation, its default
    /// iteration count, priority 0, and no SLO.
    #[must_use]
    pub fn new(id: u64, demand: GpuDemand, workload: Workload) -> Self {
        let model = workload.model();
        JobSpec {
            id,
            demand,
            topology: AppTopology::Ring,
            bandwidth_sensitive: model.bandwidth_sensitive,
            workload,
            iterations: model.default_iterations,
            priority: 0,
            slo_ms: None,
            tenant: None,
        }
    }

    /// Number of topology vertices (GPUs or slices) the job occupies.
    #[must_use]
    pub fn num_gpus(&self) -> usize {
        self.demand.units()
    }

    /// Whether the job requests fractional slices rather than whole GPUs.
    #[must_use]
    pub fn is_fractional(&self) -> bool {
        self.demand.is_fractional()
    }

    /// Whether the job carries a latency SLO.
    #[must_use]
    pub fn has_slo(&self) -> bool {
        self.slo_ms.is_some()
    }

    /// Whether the job is tagged with a tenant identity.
    #[must_use]
    pub fn has_tenant(&self) -> bool {
        self.tenant.is_some()
    }

    /// Returns the job with its application topology replaced.
    #[must_use]
    pub fn with_topology(mut self, topology: AppTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Returns the job with its bandwidth-sensitivity annotation replaced.
    #[must_use]
    pub fn with_bandwidth_sensitive(mut self, sensitive: bool) -> Self {
        self.bandwidth_sensitive = sensitive;
        self
    }

    /// Returns the job with its iteration count replaced.
    #[must_use]
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        self.iterations = iterations;
        self
    }

    /// Returns the job with its priority replaced (builder style).
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Returns the job tagged with a per-request latency SLO.
    #[must_use]
    pub fn with_slo(mut self, target_ms: f64) -> Self {
        self.slo_ms = Some(target_ms);
        self
    }
}

/// Assigns round-robin tenant classes by job id: `priority = id % classes`
/// (so `classes = 1` leaves every job at priority 0). A quick way to turn
/// a flat job file into a multi-class tenant mix for preemption studies —
/// the CLI's `--priorities N` flag calls exactly this.
pub fn assign_priority_classes(jobs: &mut [JobSpec], classes: u8) {
    let classes = classes.max(1);
    for job in jobs {
        job.priority = (job.id % u64::from(classes)) as u8;
    }
}

/// Assigns round-robin tenant identities by job id: `tenant = id % tenants`.
/// With `tenants = 0` every job is untagged instead (quotas never apply).
/// The CLI's `--tenants N` flag calls exactly this.
pub fn assign_tenants(jobs: &mut [JobSpec], tenants: u64) {
    for job in jobs {
        job.tenant = if tenants == 0 {
            None
        } else {
            Some(job.id % tenants)
        };
    }
}

/// Errors from job-file parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFileError {
    /// Wrong number of fields on a line.
    FieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Field name.
        field: &'static str,
        /// Offending text.
        value: String,
    },
    /// Duplicate job id.
    DuplicateId(u64),
}

impl fmt::Display for JobFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFileError::FieldCount { line, found } => {
                write!(f, "line {line}: expected 6 to 9 fields, found {found}")
            }
            JobFileError::BadField { line, field, value } => {
                write!(f, "line {line}: bad {field}: '{value}'")
            }
            JobFileError::DuplicateId(id) => write!(f, "duplicate job id {id}"),
        }
    }
}

impl std::error::Error for JobFileError {}

/// Serializes jobs into the CSV job-file format (with header).
///
/// When every job requests whole GPUs and carries no SLO or tenant tag,
/// the legacy 7-column format is emitted byte-for-byte; otherwise an 8th
/// `SloMs` column is appended (`-` for untagged jobs), fractional demands
/// are written with the `s` suffix, and — only when some job carries a
/// tenant — a 9th `Tenant` column follows.
#[must_use]
pub fn write_job_file(jobs: &[JobSpec]) -> String {
    let tenanted = jobs.iter().any(JobSpec::has_tenant);
    let extended = tenanted || jobs.iter().any(|j| j.is_fractional() || j.has_slo());
    let mut out =
        String::from("ID, NumGPUs, Topology, BW Sensitive, Workload, Iterations, Priority");
    if extended {
        out.push_str(", SloMs");
    }
    if tenanted {
        out.push_str(", Tenant");
    }
    out.push('\n');
    for j in jobs {
        out.push_str(&format!(
            "{}, {}, {}, {}, {}, {}, {}",
            j.id,
            j.demand,
            j.topology,
            if j.bandwidth_sensitive {
                "True"
            } else {
                "False"
            },
            j.workload,
            j.iterations,
            j.priority
        ));
        if extended {
            match j.slo_ms {
                Some(ms) => out.push_str(&format!(", {ms}")),
                None => out.push_str(", -"),
            }
        }
        if tenanted {
            match j.tenant {
                Some(t) => out.push_str(&format!(", {t}")),
                None => out.push_str(", -"),
            }
        }
        out.push('\n');
    }
    out
}

/// Parses a CSV job file (header optional).
///
/// # Errors
/// Returns the first [`JobFileError`] encountered.
pub fn parse_job_file(input: &str) -> Result<Vec<JobSpec>, JobFileError> {
    let mut jobs = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        // Header detection: first field is not a number.
        if fields[0].parse::<u64>().is_err() && fields[0].eq_ignore_ascii_case("id") {
            continue;
        }
        if !(6..=9).contains(&fields.len()) {
            return Err(JobFileError::FieldCount {
                line,
                found: fields.len(),
            });
        }
        let parse_u64 = |field: &'static str, s: &str| {
            s.parse::<u64>().map_err(|_| JobFileError::BadField {
                line,
                field,
                value: s.to_string(),
            })
        };
        let id = parse_u64("ID", fields[0])?;
        if !seen.insert(id) {
            return Err(JobFileError::DuplicateId(id));
        }
        let demand = GpuDemand::from_name(fields[1]).ok_or_else(|| JobFileError::BadField {
            line,
            field: "NumGPUs",
            value: fields[1].to_string(),
        })?;
        let topology = AppTopology::from_name(fields[2]).ok_or_else(|| JobFileError::BadField {
            line,
            field: "Topology",
            value: fields[2].to_string(),
        })?;
        let bandwidth_sensitive = match fields[3].to_ascii_lowercase().as_str() {
            "true" | "yes" | "1" => true,
            "false" | "no" | "0" => false,
            other => {
                return Err(JobFileError::BadField {
                    line,
                    field: "BW Sensitive",
                    value: other.to_string(),
                })
            }
        };
        let workload = Workload::from_name(fields[4]).ok_or_else(|| JobFileError::BadField {
            line,
            field: "Workload",
            value: fields[4].to_string(),
        })?;
        let iterations = parse_u64("Iterations", fields[5])?;
        let priority = match fields.get(6) {
            Some(s) => s.parse::<u8>().map_err(|_| JobFileError::BadField {
                line,
                field: "Priority",
                value: (*s).to_string(),
            })?,
            None => 0,
        };
        let slo_ms = match fields.get(7) {
            None => None,
            Some(&"-") => None,
            Some(s) => {
                let ms = s.parse::<f64>().map_err(|_| JobFileError::BadField {
                    line,
                    field: "SloMs",
                    value: (*s).to_string(),
                })?;
                if !ms.is_finite() || ms <= 0.0 {
                    return Err(JobFileError::BadField {
                        line,
                        field: "SloMs",
                        value: (*s).to_string(),
                    });
                }
                Some(ms)
            }
        };
        let tenant = match fields.get(8) {
            None => None,
            Some(&"-") => None,
            Some(s) => Some(parse_u64("Tenant", s)?),
        };
        let mut job = JobSpec::new(id, demand, workload)
            .with_topology(topology)
            .with_bandwidth_sensitive(bandwidth_sensitive)
            .with_iterations(iterations)
            .with_priority(priority);
        job.slo_ms = slo_ms;
        job.tenant = tenant;
        jobs.push(job);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::new(1, GpuDemand::Whole(3), Workload::Vgg16),
            JobSpec::new(2, GpuDemand::Whole(5), Workload::GoogleNet)
                .with_topology(AppTopology::Tree)
                .with_priority(2),
        ]
    }

    #[test]
    fn builder_applies_workload_defaults() {
        let j = JobSpec::new(7, GpuDemand::Whole(3), Workload::Vgg16);
        assert_eq!(j.num_gpus(), 3);
        assert_eq!(j.topology, AppTopology::Ring);
        assert!(j.bandwidth_sensitive, "VGG-16 is sensitive");
        assert_eq!(j.iterations, Workload::Vgg16.model().default_iterations);
        assert_eq!(j.priority, 0);
        assert!(!j.is_fractional());
        assert!(!j.has_slo());
    }

    #[test]
    fn builder_overrides() {
        let j = JobSpec::new(1, GpuDemand::Slices(2), Workload::BertServing)
            .with_topology(AppTopology::Tree)
            .with_bandwidth_sensitive(true)
            .with_iterations(500)
            .with_priority(3)
            .with_slo(50.0);
        assert!(j.is_fractional());
        assert_eq!(j.num_gpus(), 2);
        assert_eq!(j.topology, AppTopology::Tree);
        assert!(j.bandwidth_sensitive);
        assert_eq!(j.iterations, 500);
        assert_eq!(j.priority, 3);
        assert_eq!(j.slo_ms, Some(50.0));
    }

    #[test]
    fn demand_spelling_roundtrip() {
        assert_eq!(GpuDemand::from_name("4"), Some(GpuDemand::Whole(4)));
        assert_eq!(GpuDemand::from_name("4s"), Some(GpuDemand::Slices(4)));
        assert_eq!(GpuDemand::from_name("4S"), Some(GpuDemand::Slices(4)));
        assert_eq!(GpuDemand::from_name("x"), None);
        assert_eq!(GpuDemand::from_name("s"), None);
        for d in [GpuDemand::Whole(3), GpuDemand::Slices(7)] {
            assert_eq!(GpuDemand::from_name(&d.to_string()), Some(d));
        }
    }

    #[test]
    fn roundtrip() {
        let jobs = sample_jobs();
        let text = write_job_file(&jobs);
        let parsed = parse_job_file(&text).unwrap();
        assert_eq!(parsed, jobs);
    }

    #[test]
    fn whole_gpu_files_keep_the_legacy_format() {
        let text = write_job_file(&sample_jobs());
        assert!(text
            .starts_with("ID, NumGPUs, Topology, BW Sensitive, Workload, Iterations, Priority\n"));
        assert!(!text.contains("SloMs"));
    }

    #[test]
    fn fractional_and_slo_jobs_roundtrip() {
        let jobs = vec![
            JobSpec::new(1, GpuDemand::Whole(2), Workload::Vgg16),
            JobSpec::new(2, GpuDemand::Slices(3), Workload::BertServing).with_slo(25.0),
        ];
        let text = write_job_file(&jobs);
        assert!(text.contains("SloMs"));
        assert!(text.contains("3s"));
        let parsed = parse_job_file(&text).unwrap();
        assert_eq!(parsed, jobs);
        // The untagged job writes `-` and parses back to no SLO.
        assert_eq!(parsed[0].slo_ms, None);
    }

    #[test]
    fn parses_paper_style_rows() {
        let text = "ID, NumGPUs, Topology, BW Sensitive, Workload, Iterations\n\
                    1, 3, Ring, True, vgg-16, 100\n\
                    # a comment line\n\
                    2, 4, RingTree, False, jacobi, 50\n";
        let jobs = parse_job_file(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].workload, Workload::Vgg16);
        assert_eq!(jobs[1].topology, AppTopology::RingTree);
        assert!(!jobs[1].bandwidth_sensitive);
        // Six-column files (the paper's format) default priority to 0.
        assert_eq!(jobs[0].priority, 0);
        assert_eq!(jobs[1].priority, 0);
    }

    #[test]
    fn priority_column_parses_and_defaults() {
        let text = "1, 2, Ring, True, vgg-16, 100, 3\n2, 2, Ring, True, vgg-16, 100\n";
        let jobs = parse_job_file(text).unwrap();
        assert_eq!(jobs[0].priority, 3);
        assert_eq!(jobs[1].priority, 0);
        assert!(matches!(
            parse_job_file("1, 2, Ring, True, vgg-16, 100, urgent"),
            Err(JobFileError::BadField {
                field: "Priority",
                ..
            })
        ));
    }

    #[test]
    fn slo_column_parses_and_validates() {
        let jobs = parse_job_file("1, 2s, Ring, False, bert-serving, 100, 0, 40\n").unwrap();
        assert_eq!(jobs[0].demand, GpuDemand::Slices(2));
        assert_eq!(jobs[0].slo_ms, Some(40.0));
        let jobs = parse_job_file("1, 2, Ring, True, vgg-16, 100, 0, -\n").unwrap();
        assert_eq!(jobs[0].slo_ms, None);
        for bad in ["nan", "-5", "0", "soon"] {
            assert!(
                matches!(
                    parse_job_file(&format!("1, 2, Ring, True, vgg-16, 100, 0, {bad}")),
                    Err(JobFileError::BadField { field: "SloMs", .. })
                ),
                "{bad}"
            );
        }
    }

    #[test]
    fn tenant_column_roundtrips_and_defaults() {
        let jobs = vec![
            JobSpec {
                tenant: Some(3),
                ..JobSpec::new(1, GpuDemand::Whole(2), Workload::Vgg16)
            },
            JobSpec::new(2, GpuDemand::Whole(1), Workload::GoogleNet),
        ];
        let text = write_job_file(&jobs);
        assert!(text.contains("Tenant"));
        let parsed = parse_job_file(&text).unwrap();
        assert_eq!(parsed, jobs);
        assert_eq!(parsed[0].tenant, Some(3));
        assert_eq!(parsed[1].tenant, None);
        // Files without the column parse to untagged jobs.
        let legacy = parse_job_file("1, 2, Ring, True, vgg-16, 100, 0, -\n").unwrap();
        assert_eq!(legacy[0].tenant, None);
    }

    #[test]
    fn tenant_assignment_follows_job_ids() {
        let mut jobs: Vec<JobSpec> = (1..=6)
            .map(|id| JobSpec::new(id, GpuDemand::Whole(1), Workload::Vgg16))
            .collect();
        assign_tenants(&mut jobs, 3);
        let tenants: Vec<Option<u64>> = jobs.iter().map(|j| j.tenant).collect();
        assert_eq!(
            tenants,
            vec![Some(1), Some(2), Some(0), Some(1), Some(2), Some(0)]
        );
        assign_tenants(&mut jobs, 0);
        assert!(jobs.iter().all(|j| j.tenant.is_none()));
    }

    #[test]
    fn priority_classes_follow_job_ids() {
        let mut jobs: Vec<JobSpec> = (1..=6)
            .map(|id| {
                let mut j = sample_jobs()[0].clone().with_priority(9);
                j.id = id;
                j
            })
            .collect();
        assign_priority_classes(&mut jobs, 3);
        let priorities: Vec<u8> = jobs.iter().map(|j| j.priority).collect();
        assert_eq!(priorities, vec![1, 2, 0, 1, 2, 0]);
        // One class flattens everything back to priority 0.
        assign_priority_classes(&mut jobs, 1);
        assert!(jobs.iter().all(|j| j.priority == 0));
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            parse_job_file("1, 2, Ring, True, vgg-16"),
            Err(JobFileError::FieldCount { line: 1, found: 5 })
        ));
        assert!(matches!(
            parse_job_file("1, 2, Ring, True, vgg-16, 5, 0, 50, 1, extra"),
            Err(JobFileError::FieldCount { line: 1, found: 10 })
        ));
        assert!(matches!(
            parse_job_file("1, 2, Ring, True, vgg-16, 5, 0, 50, acme"),
            Err(JobFileError::BadField {
                field: "Tenant",
                ..
            })
        ));
        assert!(matches!(
            parse_job_file("1, 2x, Ring, True, vgg-16, 5"),
            Err(JobFileError::BadField {
                field: "NumGPUs",
                ..
            })
        ));
        assert!(matches!(
            parse_job_file("1, 2, Mesh, True, vgg-16, 5"),
            Err(JobFileError::BadField {
                field: "Topology",
                ..
            })
        ));
        assert!(matches!(
            parse_job_file("1, 2, Ring, maybe, vgg-16, 5"),
            Err(JobFileError::BadField {
                field: "BW Sensitive",
                ..
            })
        ));
        assert!(matches!(
            parse_job_file("1, 2, Ring, True, bert, 5"),
            Err(JobFileError::BadField {
                field: "Workload",
                ..
            })
        ));
        assert!(matches!(
            parse_job_file("1, 2, Ring, True, vgg-16, 5\n1, 2, Ring, True, vgg-16, 5"),
            Err(JobFileError::DuplicateId(1))
        ));
        assert!(matches!(
            parse_job_file("x, 2, Ring, True, vgg-16, 5"),
            Err(JobFileError::BadField { field: "ID", .. })
        ));
    }

    #[test]
    fn topology_name_roundtrip() {
        for t in [
            AppTopology::Ring,
            AppTopology::Tree,
            AppTopology::RingTree,
            AppTopology::AllToAll,
        ] {
            assert_eq!(AppTopology::from_name(t.name()), Some(t));
        }
        assert_eq!(
            AppTopology::from_name("ring+tree"),
            Some(AppTopology::RingTree)
        );
        assert_eq!(AppTopology::from_name("mesh"), None);
    }

    #[test]
    fn empty_file_is_empty_jobs() {
        assert_eq!(parse_job_file("").unwrap(), vec![]);
        assert_eq!(parse_job_file("\n\n# only comments\n").unwrap(), vec![]);
    }

    /// Spellings per job-file column, accepted and refused: numbers at and
    /// past each field's width, every name form, the `-` placeholders.
    const COLUMNS: [&[&str]; 9] = [
        &[
            "1",
            "2",
            "18446744073709551615",
            "18446744073709551616",
            "-1",
            "ID",
            "#1",
            "",
        ],
        &["1", "3", "8s", "0s", "7S", "0", "s", "1.5"],
        &["Ring", "tree", "ring+tree", "all-to-all", "mesh"],
        &["True", "false", "yes", "0", "maybe"],
        &["vgg-16", "ResNet-50", "bert-serving", "gmm", "nope"],
        &["100", "0", "18446744073709551616", "1e3"],
        &["0", "255", "256", "-"],
        &["25", "-", "0.0", "-3", "nan", "inf", "1e308"],
        &["3", "-", "-1", "x"],
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Lines of 0–10 fields drawn per column, accepted spellings and
        /// refused ones mixed, never panic the parser: it returns a typed
        /// error that names what it refused, or jobs that round-trip
        /// through the file format.
        #[test]
        fn parser_never_panics_on_token_soup(
            lines in proptest::collection::vec(
                (0usize..11, proptest::collection::vec(0usize..64, 10)),
                0..6,
            ),
        ) {
            let input: String = lines
                .iter()
                .map(|(fields, picks)| {
                    let field = |(i, &pick): (usize, &usize)| {
                        let column = COLUMNS.get(i).copied().unwrap_or(&[",", " ", "é"]);
                        column[pick % column.len()]
                    };
                    let line: Vec<&str> = picks.iter().enumerate().take(*fields).map(field).collect();
                    line.join(", ") + "\n"
                })
                .collect();
            match parse_job_file(&input) {
                Ok(jobs) => proptest::prop_assert_eq!(
                    parse_job_file(&write_job_file(&jobs)),
                    Ok(jobs),
                    "{:?}",
                    input
                ),
                Err(error) => {
                    proptest::prop_assert!(!error.to_string().is_empty(), "{:?}", input);
                }
            }
        }
    }

    proptest::proptest! {
        /// Arbitrary text never panics the parser — it either parses or
        /// reports a structured error.
        #[test]
        fn parser_is_total(input in proptest::prelude::any::<String>()) {
            let _ = parse_job_file(&input);
        }

        /// Every generated job list round-trips through the file format.
        #[test]
        fn roundtrip_for_generated_jobs(
            count in 1usize..20,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let cfg = crate::generator::JobMixConfig {
                job_count: count,
                ..Default::default()
            };
            let jobs = crate::generator::generate_jobs(&cfg, seed);
            let text = write_job_file(&jobs);
            let parsed = parse_job_file(&text).expect("own output parses");
            proptest::prop_assert_eq!(parsed, jobs);
        }

        /// Inference mixes (fractional demands + SLO tags) round-trip too.
        #[test]
        fn roundtrip_for_inference_mixes(
            count in 1usize..20,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let cfg = crate::generator::JobMixConfig {
                job_count: count,
                inference_fraction: 0.5,
                ..Default::default()
            };
            let jobs = crate::generator::generate_jobs(&cfg, seed);
            let text = write_job_file(&jobs);
            let parsed = parse_job_file(&text).expect("own output parses");
            proptest::prop_assert_eq!(parsed, jobs);
        }
    }
}
