//! Cluster campaign grids: the façade layer between the generic
//! campaign runner ([`mapa_sim::campaign`]) and the fleet backend
//! ([`mapa_cluster::Cluster`]).
//!
//! A [`CampaignGrid`] names a cross-product of server policies ×
//! allocation policies × fleet sizes × load levels × dispatch modes ×
//! arrival intensities × partition plans;
//! [`CampaignGrid::run`] flattens it into cells, validates every policy
//! name up front, pre-fits the effective-bandwidth model once per
//! machine type, and fans the cells out over one shared worker pool.
//! Every cell's replication `r` draws its job mix and arrival stream
//! from [`mapa_sim::campaign::crn_seed`]`(base_seed, r)` — common random
//! numbers, so cells differ only by their configuration and paired
//! comparisons subtract away the arrival noise.

use crate::report::json_escape;
use mapa_cluster::{server_policy_by_name, Cluster, DispatchMode, DEFAULT_SHARD_QUEUE_DEPTH};
pub use mapa_core::policy::allocation_policy_by_name;
use mapa_core::policy::BaselinePolicy;
use mapa_interconnect::rings;
use mapa_isomorph::WorkerPool;
use mapa_model::EffBwModel;
use mapa_sim::campaign::{run_campaign, CampaignSpec, CellSummary};
use mapa_sim::{ArrivalProcess, Engine, SimConfig, SimReport};
use mapa_topology::{PartitionPlan, Topology};
use mapa_workloads::generator::{self, JobMixConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// One flattened campaign cell: a complete cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Cluster-level server-selection policy name.
    pub server_policy: String,
    /// Per-shard allocation policy name.
    pub alloc_policy: String,
    /// Number of identical shards in the fleet.
    pub shards: usize,
    /// Jobs per replication (the load level).
    pub jobs: usize,
    /// Dispatch mode for the queued path.
    pub dispatch: DispatchMode,
    /// Arrival-intensity axis value: `Some(gap)` runs Poisson arrivals
    /// with that mean inter-arrival gap (seconds), `None` submits all
    /// jobs at t=0 (batch).
    pub poisson_gap: Option<f64>,
    /// Partition-plan axis value: `Some(plan)` runs every shard as the
    /// MIG-partitioned machine, `None` runs the whole-GPU machine.
    pub partition: Option<PartitionPlan>,
}

impl GridCell {
    /// The cell's display label, used in summary tables and JSON. Axis
    /// segments for batch arrivals and unpartitioned machines are
    /// omitted, so pre-existing grids keep their historical labels.
    #[must_use]
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/shards={}/jobs={}/{}",
            self.server_policy,
            self.alloc_policy,
            self.shards,
            self.jobs,
            self.dispatch.name()
        );
        if let Some(gap) = self.poisson_gap {
            label.push_str(&format!("/gap={gap}"));
        }
        if let Some(plan) = &self.partition {
            label.push_str(&format!("/mig={plan}"));
        }
        label
    }
}

/// A campaign over homogeneous [`Cluster`] fleets: the cross-product of
/// the axis vectors below, each cell replicated `replications` times
/// under common random numbers.
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    /// The machine every shard runs (homogeneous fleets).
    pub machine: Topology,
    /// Server-selection policy axis (names per
    /// [`server_policy_by_name`]).
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
                                    out.push(GridCell {
                                        server_policy: sp.clone(),
                                        alloc_policy: ap.clone(),
                                        shards,
                                        jobs,
                                        dispatch,
                                        poisson_gap: gap,
                                        partition: partition.clone(),
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
    /// Returns a message naming the first unknown policy name or
    /// degenerate axis.
    pub fn validate(&self) -> Result<(), String> {
        for sp in &self.server_policies {
            if server_policy_by_name(sp).is_none() {
                return Err(format!("unknown server policy '{sp}'"));
            }
        }
        for ap in &self.alloc_policies {
            if allocation_policy_by_name(ap).is_none() {
                return Err(format!("unknown allocation policy '{ap}'"));
            }
        }
        if self.shards.contains(&0) {
            return Err("shard counts must be at least 1".into());
        }
        if self.server_policies.is_empty()
            || self.alloc_policies.is_empty()
            || self.shards.is_empty()
            || self.job_counts.is_empty()
            || self.dispatch.is_empty()
            || self.arrival_gaps.is_empty()
            || self.partitions.is_empty()
        {
            return Err("every grid axis needs at least one value".into());
        }
        for &mean_gap in self.arrival_gaps.iter().flatten() {
            ArrivalProcess::Poisson { mean_gap, seed: 0 }.check()?;
        }
        let largest = self.mix.gpus_max;
        if largest > rings::MAX_RING_GPUS {
            return Err(format!(
                "the mix draws jobs up to {largest} GPUs, but the interconnect model packs \
                 rings onto at most {} GPUs per job",
                rings::MAX_RING_GPUS
            ));
        }
        let n = self.machine.gpu_count();
        let name = self.machine.name();
        for plan in &self.partitions {
            // An unpartitioned cell keeps every GPU whole.
            let mut whole = n;
            if let Some(plan) = plan {
                if plan.is_empty() {
                    return Err("an empty partition plan: spell the whole-GPU cell as None".into());
                }
                if let Some((gpu, _)) = plan.splits().find(|&(gpu, _)| gpu >= n) {
                    return Err(format!(
                        "partition plan '{plan}' splits GPU {gpu}, but '{name}' has only {n} GPUs"
                    ));
                }
                whole -= plan.splits().count();
            }
            // Whole-GPU training jobs never land on slices, so every cell
            // must offer enough unsplit GPUs for the largest whole demand
            // the mix can draw — otherwise a replication dies on an
            // unplaceable job.
            if whole < largest {
                let subject = plan.as_ref().map_or_else(
                    || format!("machine '{name}'"),
                    |plan| format!("partition plan '{plan}'"),
                );
                return Err(format!(
                    "{subject} offers {whole} whole GPUs, but the mix draws whole-GPU jobs up \
                     to {largest}"
                ));
            }
        }
        Ok(())
    }

    /// Runs the campaign on `pool`: one pool task per cell, replications
    /// sequential within a cell, results in [`CampaignGrid::cells`]
    /// order. The fitted effective-bandwidth model is computed once here
    /// and shared by every cell (context hoisting) — replications pay
    /// only job generation and simulation, never a model refit or a
    /// thread-pool spawn. Output tables are bit-identical for any pool
    /// size.
    ///
    /// # Errors
    /// Returns [`CampaignGrid::validate`]'s error without running
    /// anything when the grid is invalid.
    pub fn run(&self, pool: &Arc<WorkerPool>) -> Result<Vec<CellSummary>, String> {
        self.validate()?;
        // Pre-fit the model for every machine variant the partition axis
        // produces, so cells only ever hit the cache inside
        // `Cluster::with_shared_resources` (a partitioned machine's name
        // encodes its plan, so each variant keys its own model).
        let mut models: HashMap<String, EffBwModel> = HashMap::new();
        for partition in &self.partitions {
            let _ = Cluster::with_shared_resources(
                vec![machine_for(&self.machine, partition.as_ref())],
                || Box::new(BaselinePolicy),
                server_policy_by_name("round-robin").expect("built-in policy"),
                Arc::clone(pool),
                &mut models,
            );
        }
        let ctx_proto = CellContext {
            machine: self.machine.clone(),
            pool: Arc::clone(pool),
            models,
            queue_depth: self.shard_queue_depth,
            mix: self.mix.clone(),
            cell: None,
        };
        let spec = CampaignSpec {
            cells: self.cells(),
            replications: self.replications,
            base_seed: self.base_seed,
        };
        Ok(run_campaign(
            spec,
            pool,
            GridCell::label,
            move |cell: &GridCell| CellContext {
                cell: Some(cell.clone()),
                models: ctx_proto.models.clone(),
                machine: ctx_proto.machine.clone(),
                pool: Arc::clone(&ctx_proto.pool),
                queue_depth: ctx_proto.queue_depth,
                mix: ctx_proto.mix.clone(),
            },
            CellContext::run_replication,
        ))
    }
}

/// The machine a cell's shards run: the base machine, or the plan
/// applied to it.
fn machine_for(base: &Topology, partition: Option<&PartitionPlan>) -> Topology {
    match partition {
        Some(plan) => plan.apply(base).into_topology(),
        None => base.clone(),
    }
}

/// Per-cell context: everything immutable a replication needs, built
/// once per cell. Replications reset simulation state by constructing a
/// fresh [`Cluster`], but reuse the fitted model map and the worker
/// pool.
struct CellContext {
    machine: Topology,
    pool: Arc<WorkerPool>,
    models: HashMap<String, EffBwModel>,
    queue_depth: usize,
    mix: JobMixConfig,
    cell: Option<GridCell>,
}

impl CellContext {
    fn run_replication(&mut self, seed: u64) -> SimReport {
        let cell = self.cell.as_ref().expect("cell set by setup").clone();
        let machine = machine_for(&self.machine, cell.partition.as_ref());
        let cluster = Cluster::with_shared_resources(
            vec![machine; cell.shards],
            || allocation_policy_by_name(&cell.alloc_policy).expect("validated before the run"),
            server_policy_by_name(&cell.server_policy).expect("validated before the run"),
            Arc::clone(&self.pool),
            &mut self.models,
        )
        .with_dispatch(cell.dispatch)
        .with_shard_queues(self.queue_depth);
        let mix = JobMixConfig {
            job_count: cell.jobs,
            ..self.mix.clone()
        };
        // CRN: the job mix and the arrival process both draw from the
        // replication's seed — and from nothing cell-specific beyond the
        // load level, so paired comparisons subtract the arrival noise.
        let jobs = generator::generate_jobs(&mix, seed);
        let arrivals = match cell.poisson_gap {
            Some(mean_gap) => ArrivalProcess::Poisson { mean_gap, seed },
            None => ArrivalProcess::Batch,
        };
        Engine::over(cluster)
            .with_config(SimConfig {
                arrivals,
                ..SimConfig::default()
            })
            .run(&jobs)
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
    let cells: Vec<String> = summaries
        .iter()
        .map(|s| {
            let slo = s.slo_attainment.as_ref().map_or_else(
                || "null".to_string(),
                |a| {
                    format!(
                        "{{\"mean\": {:.6}, \"ci95\": {:.6}, \"replications\": {}}}",
                        a.mean, a.ci95, s.slo_replications
                    )
                },
            );
            format!(
                "    {{\"label\": \"{}\", \"replications\": {}, \"jobs\": {}, \
                 \"makespan_seconds\": {{\"mean\": {:.6}, \"ci95\": {:.6}}}, \
                 \"throughput_jobs_per_hour\": {{\"mean\": {:.6}, \"ci95\": {:.6}}}, \
                 \"queue_wait_mean_seconds\": {{\"mean\": {:.6}, \"ci95\": {:.6}}}, \
                 \"queue_wait_p50_seconds\": {:.6}, \"queue_wait_p95_seconds\": {:.6}, \
                 \"queue_wait_p99_seconds\": {:.6}, \"slo_attainment\": {slo}, \
                 \"schedule_digest\": \"{:#018x}\"}}",
                json_escape(&s.label),
                s.replications,
                s.jobs,
                s.makespan_seconds.mean,
                s.makespan_seconds.ci95,
                s.throughput_jobs_per_hour.mean,
                s.throughput_jobs_per_hour.ci95,
                s.queue_wait_mean_seconds.mean,
                s.queue_wait_mean_seconds.ci95,
                s.queue_wait_p50_seconds,
                s.queue_wait_p95_seconds,
                s.queue_wait_p99_seconds,
                s.schedule_digest
            )
        })
        .collect();
    format!(
        "{{\n  \"campaign\": {{\"replications\": {replications}, \"base_seed\": {base_seed}, \
         \"cells\": {}}},\n  \"cells\": [\n{}\n  ],\n  \"schema\": 1\n}}\n",
        summaries.len(),
        cells.join(",\n")
    )
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
        assert_eq!(cells[0].server_policy, "round-robin");
        assert_eq!(cells[1].server_policy, "least-loaded");
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
        grid.partitions = vec![Some(PartitionPlan::new())];
        assert!(grid.validate().unwrap_err().contains("empty partition"));
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
