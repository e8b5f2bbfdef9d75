//! Cluster campaign grids: the façade layer between the generic
//! campaign runner ([`mapa_sim::campaign`]) and the fleet a cell runs
//! ([`RunSpec`]).
//!
//! A [`CampaignGrid`] names a cross-product of server policies ×
//! allocation policies × fleet sizes × load levels × dispatch modes ×
//! arrival intensities × partition plans;
//! [`CampaignGrid::run`] flattens it into cells, validates every cell's
//! [`RunSpec`] up front, pre-fits the effective-bandwidth model once per
//! machine type, and fans the cells out over one shared worker pool.
//! Every cell's replication `r` draws its job mix and arrival stream
//! from [`mapa_sim::campaign::crn_seed`]`(base_seed, r)` — common random
//! numbers, so cells differ only by their configuration and paired
//! comparisons subtract away the arrival noise.

use crate::report::{document, fields, Value};
use crate::runspec::{RunSpec, Shared};
use mapa_cluster::{DispatchMode, DEFAULT_SHARD_QUEUE_DEPTH};
pub use mapa_core::policy::allocation_policy_by_name;
use mapa_core::Capacity;
use mapa_interconnect::rings;
use mapa_isomorph::WorkerPool;
use mapa_sim::campaign::{run_campaign, CampaignSpec, CellSummary, MetricSummary};
use mapa_sim::{ArrivalProcess, SimConfig, SimReport, Submission};
use mapa_topology::{PartitionPlan, Topology};
use mapa_workloads::generator::{self, JobMixConfig};
use std::sync::Arc;

/// One flattened campaign cell: a fleet and the load it runs under.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The fleet: the grid's machine under the cell's partition plan, its
    /// shard count and policies, behind the grid's per-shard queues.
    pub spec: RunSpec,
    /// Jobs per replication (the load level).
    pub jobs: usize,
    /// Arrival-intensity axis value: `Some(gap)` runs Poisson arrivals
    /// with that mean inter-arrival gap (seconds), `None` submits all
    /// jobs at t=0 (batch).
    pub poisson_gap: Option<f64>,
}

impl GridCell {
    /// The cell's display label, used in summary tables and JSON. Axis
    /// segments for batch arrivals and unpartitioned machines are
    /// omitted, so pre-existing grids keep their historical labels.
    #[must_use]
    pub fn label(&self) -> String {
        let spec = &self.spec;
        let mut label = format!(
            "{}/{}/shards={}/jobs={}/{}",
            spec.server_policy.as_deref().unwrap_or_default(),
            spec.alloc_policy,
            spec.servers,
            self.jobs,
            spec.dispatch.as_deref().unwrap_or_default()
        );
        if let Some(gap) = self.poisson_gap {
            label.push_str(&format!("/gap={gap}"));
        }
        if let Some(plan) = &spec.partition {
            label.push_str(&format!("/mig={plan}"));
        }
        label
    }
}

/// A campaign over homogeneous [`mapa_cluster::Cluster`] fleets: the cross-product of
/// the axis vectors below, each cell replicated `replications` times
/// under common random numbers.
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    /// The machine every shard runs (homogeneous fleets).
    pub machine: Topology,
    /// Server-selection policy axis (names per
    /// [`mapa_cluster::server_policy_by_name`]).
    pub server_policies: Vec<String>,
    /// Allocation policy axis (names per [`allocation_policy_by_name`]).
    pub alloc_policies: Vec<String>,
    /// Fleet-size axis.
    pub shards: Vec<usize>,
    /// Load axis: jobs per replication.
    pub job_counts: Vec<usize>,
    /// Dispatch-mode axis.
    pub dispatch: Vec<DispatchMode>,
    /// Per-shard queue bound for the queued dispatch path.
    pub shard_queue_depth: usize,
    /// Arrival-intensity axis: each `Some(gap)` cell runs Poisson
    /// arrivals with that mean inter-arrival gap (seconds), seeded by
    /// the replication's CRN seed; a `None` cell submits all jobs at
    /// t=0. Default `vec![None]` (batch only).
    pub arrival_gaps: Vec<Option<f64>>,
    /// Partition-plan axis: each `Some(plan)` cell applies the MIG plan
    /// to every shard's machine; a `None` cell runs the whole-GPU
    /// machine. Default `vec![None]` (unpartitioned only).
    pub partitions: Vec<Option<PartitionPlan>>,
    /// The job-mix template every cell draws from. `job_count` is
    /// overridden per cell by the load axis; everything else (GPU-size
    /// range, workload pool, inference fraction, SLO) is shared so CRN
    /// pairing holds across cells.
    pub mix: JobMixConfig,
    /// Seeded replications per cell.
    pub replications: usize,
    /// CRN base seed (see [`mapa_sim::campaign::crn_seed`]).
    pub base_seed: u64,
}

impl CampaignGrid {
    /// A 1-cell grid with sensible defaults, ready for axis extension.
    #[must_use]
    pub fn new(machine: Topology) -> Self {
        Self {
            machine,
            server_policies: vec!["round-robin".into()],
            alloc_policies: vec!["preserve".into()],
            shards: vec![4],
            job_counts: vec![200],
            dispatch: vec![DispatchMode::Sequential],
            shard_queue_depth: DEFAULT_SHARD_QUEUE_DEPTH,
            arrival_gaps: vec![None],
            partitions: vec![None],
            mix: JobMixConfig::default(),
            replications: 5,
            base_seed: 42,
        }
    }

    /// Flattens the grid into cells, slowest axis first (server policy,
    /// then allocation policy, shards, jobs, dispatch, arrival gap,
    /// partition plan) — the output order of [`CampaignGrid::run`].
    #[must_use]
    pub fn cells(&self) -> Vec<GridCell> {
        let mut out = Vec::new();
        for sp in &self.server_policies {
            for ap in &self.alloc_policies {
                for &shards in &self.shards {
                    for &jobs in &self.job_counts {
                        for &dispatch in &self.dispatch {
                            for &gap in &self.arrival_gaps {
                                for partition in &self.partitions {
                                    let spec = RunSpec {
                                        partition: partition.clone(),
                                        server_policy: Some(sp.clone()),
                                        servers: shards,
                                        dispatch: Some(dispatch.name().to_string()),
                                        shard_queue_depth: Some(self.shard_queue_depth),
                                        ..RunSpec::new(self.machine.clone(), ap)
                                    };
                                    out.push(GridCell {
                                        spec,
                                        jobs,
                                        poisson_gap: gap,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Validates the grid without running it.
    ///
    /// # Errors
    /// Returns a message naming the first degenerate axis, or the first
    /// cell whose [`RunSpec`] is invalid or too small for the mix.
    pub fn validate(&self) -> Result<(), String> {
        let cells = self.cells();
        if cells.is_empty() {
            return Err("every grid axis needs at least one value".into());
        }
        if self.job_counts.contains(&0) {
            return Err("job counts must be at least 1".into());
        }
        let most_jobs = self.job_counts.iter().copied().max().unwrap_or(0);
        for &mean_gap in self.arrival_gaps.iter().flatten() {
            ArrivalProcess::Poisson { mean_gap, seed: 0 }.check(most_jobs)?;
        }
        let largest = self.mix.gpus_max;
        if largest > rings::MAX_RING_GPUS {
            return Err(format!(
                "the mix draws jobs up to {largest} GPUs, but the interconnect model packs \
                 rings onto at most {} GPUs per job",
                rings::MAX_RING_GPUS
            ));
        }
        for GridCell { spec, .. } in &cells {
            spec.validate()?;
            // Otherwise a replication dies on an unplaceable job.
            let machine = spec.topology();
            let whole = Capacity::of(&machine).whole;
            if largest > whole {
                let name = machine.name();
                return Err(format!(
                    "machine '{name}' offers {whole} whole GPUs, but the mix draws whole-GPU \
                     jobs up to {largest}"
                ));
            }
        }
        Ok(())
    }

    /// Runs the campaign on `pool`: one pool task per cell, replications
    /// sequential within a cell, results in [`CampaignGrid::cells`]
    /// order. The fitted effective-bandwidth model is computed once here
    /// and shared by every cell (context hoisting) — replications pay
    /// only job generation and simulation, never a model refit. Output
    /// tables are bit-identical for any pool size.
    ///
    /// # Errors
    /// Returns [`CampaignGrid::validate`]'s error without running
    /// anything when the grid is invalid.
    pub fn run(&self, pool: &Arc<WorkerPool>) -> Result<Vec<CellSummary>, String> {
        self.validate()?;
        let cells = self.cells();
        // One model per machine variant the partition axis produces.
        let mut shared = Shared::new(Arc::clone(pool));
        for partition in &self.partitions {
            let mut spec = cells[0].spec.clone();
            spec.partition.clone_from(partition);
            shared.model(&spec.topology());
        }
        let mix = self.mix.clone();
        let spec = CampaignSpec {
            cells,
            replications: self.replications,
            base_seed: self.base_seed,
        };
        Ok(run_campaign(
            spec,
            pool,
            GridCell::label,
            move |cell: &GridCell| CellContext {
                cell: cell.clone(),
                shared: shared.clone(),
                mix: JobMixConfig {
                    job_count: cell.jobs,
                    ..mix.clone()
                },
            },
            CellContext::run_replication,
        ))
    }
}

/// Per-cell context: everything immutable a replication needs, built
/// once per cell. Replications reset simulation state by building a
/// fresh fleet from the cell's spec, but reuse the fitted models and the
/// worker pool in `shared`.
struct CellContext {
    cell: GridCell,
    shared: Shared,
    mix: JobMixConfig,
}

impl CellContext {
    fn run_replication(&mut self, seed: u64) -> SimReport {
        // CRN: the job mix and the arrival process both draw from the
        // replication's seed — and from nothing cell-specific beyond the
        // load level, so paired comparisons subtract the arrival noise.
        let jobs = generator::generate_jobs(&self.mix, seed);
        let arrivals = match self.cell.poisson_gap {
            Some(mean_gap) => ArrivalProcess::Poisson { mean_gap, seed },
            None => ArrivalProcess::Batch,
        };
        let config = SimConfig {
            arrivals,
            ..SimConfig::default()
        };
        let submissions = jobs.into_iter().map(Submission::Job);
        let report = self.cell.spec.run(&mut self.shared, config, submissions);
        report.expect("the grid was validated before the run")
    }
}

/// Serializes campaign results to the CLI's `campaign --json` schema:
/// the grid parameters and one object per cell, in cell order. Schedule
/// digests are emitted as hex *strings* — the reader parses numbers as
/// `f64`, which cannot represent all 64-bit digests exactly. A cell's
/// `slo_attainment` is an object (mean/ci95 over the replications that
/// had SLO-tagged jobs, plus how many did) or `null` when no replication
/// had any — never a vacuous 1.0.
#[must_use]
pub fn campaign_to_json(summaries: &[CellSummary], replications: usize, base_seed: u64) -> String {
    use Value::Fixed;
    let mean_ci =
        |m: &MetricSummary| fields!["mean" => Fixed(m.mean, 6), "ci95" => Fixed(m.ci95, 6)];
    let campaign = fields!["replications" => replications, "base_seed" => base_seed,
        "cells" => summaries.len()];
    document(fields!["campaign" => campaign,
        "cells" => Value::Array(summaries.iter().map(|s| fields![
            "label" => &s.label, "replications" => s.replications, "jobs" => s.jobs,
            "makespan_seconds" => mean_ci(&s.makespan_seconds),
            "throughput_jobs_per_hour" => mean_ci(&s.throughput_jobs_per_hour),
            "queue_wait_mean_seconds" => mean_ci(&s.queue_wait_mean_seconds),
            "queue_wait_p50_seconds" => Fixed(s.queue_wait_p50_seconds, 6),
            "queue_wait_p95_seconds" => Fixed(s.queue_wait_p95_seconds, 6),
            "queue_wait_p99_seconds" => Fixed(s.queue_wait_p99_seconds, 6),
            "slo_attainment" => s.slo_attainment.as_ref().map(|a| fields![
                "mean" => Fixed(a.mean, 6), "ci95" => Fixed(a.ci95, 6),
                "replications" => s.slo_replications]),
            "schedule_digest" => format!("{:#018x}", s.schedule_digest)].into()).collect()),
        "schema" => 1_u32])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::parse_json;
    use mapa_topology::machines;

    fn tiny_grid() -> CampaignGrid {
        CampaignGrid {
            server_policies: vec!["round-robin".into(), "least-loaded".into()],
            alloc_policies: vec!["baseline".into()],
            shards: vec![2],
            job_counts: vec![30],
            dispatch: vec![DispatchMode::Sequential],
            replications: 2,
            base_seed: 7,
            ..CampaignGrid::new(machines::dgx1_v100())
        }
    }

    #[test]
    fn grid_flattens_in_axis_order() {
        let grid = tiny_grid();
        let cells = grid.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].spec.server_policy.as_deref(), Some("round-robin"));
        assert_eq!(cells[1].spec.server_policy.as_deref(), Some("least-loaded"));
        assert_eq!(
            cells[0].label(),
            "round-robin/baseline/shards=2/jobs=30/sequential"
        );
    }

    #[test]
    fn validate_rejects_unknown_policies_and_degenerate_axes() {
        let mut grid = tiny_grid();
        grid.alloc_policies = vec!["nope".into()];
        assert!(grid.validate().unwrap_err().contains("nope"));
        let mut grid = tiny_grid();
        grid.shards = vec![0];
        assert!(grid.validate().is_err());
        let mut grid = tiny_grid();
        grid.job_counts.clear();
        assert!(grid.validate().is_err());
        let mut grid = tiny_grid();
        grid.arrival_gaps = vec![Some(0.0)];
        assert!(grid.validate().is_err());
        let mut grid = tiny_grid();
        grid.arrival_gaps = vec![Some(1e308)];
        assert!(grid.validate().unwrap_err().contains("overflow"));
        let mut grid = tiny_grid();
        grid.partitions = vec![Some(PartitionPlan::new())];
        assert!(grid.validate().unwrap_err().contains("empty partition"));
        let mut grid = tiny_grid();
        grid.job_counts = vec![0];
        assert!(grid.validate().unwrap_err().contains("job counts"));
        let mut grid = tiny_grid();
        grid.partitions = vec![Some(PartitionPlan::new().split(9, 2))];
        assert!(grid.validate().unwrap_err().contains("only 8 GPUs"));
        // Splitting 4 of 8 GPUs leaves 4 whole < gpus_max = 5.
        let mut grid = tiny_grid();
        grid.partitions = vec![Some(
            PartitionPlan::new()
                .split(0, 2)
                .split(1, 2)
                .split(2, 2)
                .split(3, 2),
        )];
        assert!(grid.validate().unwrap_err().contains("whole GPUs"));
        // So does an unpartitioned 4-GPU machine under the default mix.
        let mut grid = tiny_grid();
        grid.machine = machines::fully_connected(4, mapa_topology::LinkType::SingleNvLink2);
        assert!(grid.validate().unwrap_err().contains("4 whole GPUs"));
        // And no machine can price a job above the ring-packing limit.
        let mut grid = tiny_grid();
        grid.machine = machines::dgx2();
        grid.mix.gpus_max = rings::MAX_RING_GPUS + 1;
        assert!(grid.validate().unwrap_err().contains("at most 10 GPUs"));
    }

    #[test]
    fn arrival_and_partition_axes_extend_the_grid() {
        let mut grid = tiny_grid();
        grid.server_policies = vec!["round-robin".into()];
        grid.arrival_gaps = vec![None, Some(12.0)];
        grid.partitions = vec![None, Some(PartitionPlan::new().split(0, 4))];
        grid.validate().unwrap();
        let cells = grid.cells();
        assert_eq!(cells.len(), 4);
        let labels: Vec<String> = cells.iter().map(GridCell::label).collect();
        assert_eq!(
            labels[0],
            "round-robin/baseline/shards=2/jobs=30/sequential"
        );
        assert_eq!(
            labels[1],
            "round-robin/baseline/shards=2/jobs=30/sequential/mig=0:4"
        );
        assert_eq!(
            labels[2],
            "round-robin/baseline/shards=2/jobs=30/sequential/gap=12"
        );
        assert_eq!(
            labels[3],
            "round-robin/baseline/shards=2/jobs=30/sequential/gap=12/mig=0:4"
        );
    }

    #[test]
    fn partitioned_cells_run_and_differ_from_whole_cells() {
        let pool = Arc::new(WorkerPool::new(2));
        let mut grid = tiny_grid();
        grid.server_policies = vec!["round-robin".into()];
        grid.alloc_policies = vec!["greedy".into()];
        grid.job_counts = vec![20];
        grid.partitions = vec![None, Some(PartitionPlan::new().split(0, 4))];
        grid.mix.inference_fraction = 0.3;
        let summaries = grid.run(&pool).unwrap();
        assert_eq!(summaries.len(), 2);
        // CRN: both cells ran the identical job mix, but on different
        // machines — the schedules must genuinely differ.
        assert_ne!(
            summaries[0].schedule_digest, summaries[1].schedule_digest,
            "partitioning must change the schedule"
        );
    }

    #[test]
    fn campaign_json_round_trips() {
        let pool = Arc::new(WorkerPool::new(2));
        let grid = tiny_grid();
        let summaries = grid.run(&pool).unwrap();
        assert_eq!(summaries.len(), 2);
        let doc = campaign_to_json(&summaries, grid.replications, grid.base_seed);
        let v = parse_json(&doc).unwrap();
        assert_eq!(
            v.get("campaign").unwrap().get("cells").unwrap().as_f64(),
            Some(2.0)
        );
        let cells = v.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 2);
        for (cell, summary) in cells.iter().zip(&summaries) {
            assert_eq!(
                cell.get("label").unwrap().as_str(),
                Some(summary.label.as_str())
            );
            assert_eq!(
                cell.get("schedule_digest").unwrap().as_str(),
                Some(format!("{:#018x}", summary.schedule_digest).as_str())
            );
            assert!(
                cell.get("makespan_seconds")
                    .unwrap()
                    .get("mean")
                    .unwrap()
                    .as_f64()
                    .unwrap()
                    > 0.0
            );
            // The default mix has no SLO-tagged jobs: attainment is null,
            // not a vacuous 1.0.
            assert_eq!(cell.get("slo_attainment"), Some(&crate::report::Json::Null));
        }
    }

    #[test]
    fn campaign_json_reports_attainment_when_cells_have_slo_jobs() {
        let pool = Arc::new(WorkerPool::new(2));
        let mut grid = tiny_grid();
        grid.server_policies = vec!["round-robin".into()];
        grid.mix.inference_fraction = 0.5;
        let summaries = grid.run(&pool).unwrap();
        let doc = campaign_to_json(&summaries, grid.replications, grid.base_seed);
        let v = parse_json(&doc).unwrap();
        let cell = &v.get("cells").unwrap().as_array().unwrap()[0];
        let slo = cell.get("slo_attainment").unwrap();
        let mean = slo.get("mean").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&mean), "attainment in [0,1]: {mean}");
        assert_eq!(
            slo.get("replications").unwrap().as_f64(),
            Some(grid.replications as f64),
            "every replication drew SLO jobs"
        );
    }
}
