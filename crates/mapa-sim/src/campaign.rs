//! Parallel experiment campaigns: grids of simulation configurations
//! ("cells"), each replicated N times under **common random numbers**
//! (CRN), fanned out across a worker pool and folded into summary
//! statistics.
//!
//! MAPA's claim is comparative — pattern-aware placement beats baseline
//! policies — so the interesting output is never one run but a *grid*:
//! policy × load × fleet shape, with enough seeded replications per cell
//! to put a confidence interval on each number. This module is that
//! instrument:
//!
//! * **Common random numbers.** Replication `r` of *every* cell draws its
//!   randomness from [`crn_seed`]`(base_seed, r)` — derived from the base
//!   seed and the replication index **only**, never from the cell's
//!   configuration. Paired cells therefore replay bit-identical arrival
//!   streams, so a policy A vs. policy B difference is pure policy signal
//!   and the paired-difference variance collapses (the classic CRN
//!   variance-reduction win — see `examples/design_space.rs`).
//! * **Deterministic fan-out.** Cells are scattered over a
//!   [`WorkerPool`]; results come back in cell submission order and each
//!   cell's replications run sequentially in index order, so the output
//!   table is bit-identical at any worker-thread count.
//! * **Per-cell aggregation.** Each replication's [`SimReport`] is
//!   folded into its cell's [`CellAccumulator`] (Welford moments + the
//!   pooled per-job queue waits, 8 bytes per job-run) and dropped; the
//!   accumulator itself lives only inside its cell's pool task, so what a
//!   campaign returns is O(cells).

use crate::digest::{schedule_digest, Fnv1a};
use crate::engine::SimReport;
use crate::stats;
use mapa_isomorph::WorkerPool;

/// Derives replication `replication`'s RNG seed from the campaign base
/// seed — and from **nothing else**. This is the CRN contract: the seed
/// must not depend on the cell's configuration, so every cell's
/// replication `r` observes the identical random stream. The mix is a
/// splitmix64 finalizer over a Weyl-sequence step, so nearby
/// `(base_seed, replication)` pairs land far apart.
#[must_use]
pub fn crn_seed(base_seed: u64, replication: u64) -> u64 {
    let mut z = base_seed.wrapping_add(replication.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streaming mean/variance accumulator (Welford's algorithm): one pass,
/// O(1) state, no catastrophic cancellation.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Observations so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0.0 before any observation).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (n−1 denominator; 0.0 below two
    /// observations).
    #[must_use]
    pub fn sample_std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Half-width of the 95% confidence interval on the mean under the
    /// normal approximation (`1.96·s/√n`; 0.0 below two observations).
    /// With the handful of replications campaigns typically run, the
    /// t-distribution correction would widen this somewhat — treat it as
    /// a dispersion indicator, not an exact coverage guarantee.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.sample_std() / (self.n as f64).sqrt()
        }
    }
}

/// Mean and 95% CI half-width of one metric across a cell's replications.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSummary {
    /// Mean across replications.
    pub mean: f64,
    /// 95% confidence-interval half-width (normal approximation).
    pub ci95: f64,
}

/// The aggregated result of one campaign cell: summary statistics over
/// its replications, with no per-replication report retained.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// The cell's display label (policy/load/fleet description).
    pub label: String,
    /// Replications folded in.
    pub replications: u64,
    /// Total jobs observed across replications.
    pub jobs: u64,
    /// Makespan across replications.
    pub makespan_seconds: MetricSummary,
    /// Throughput across replications.
    pub throughput_jobs_per_hour: MetricSummary,
    /// Per-replication mean job queue wait.
    pub queue_wait_mean_seconds: MetricSummary,
    /// Median per-job queue wait, pooled across replications.
    pub queue_wait_p50_seconds: f64,
    /// 95th-percentile per-job queue wait, pooled across replications.
    pub queue_wait_p95_seconds: f64,
    /// 99th-percentile per-job queue wait, pooled across replications.
    pub queue_wait_p99_seconds: f64,
    /// SLO attainment across the replications that had SLO-tagged jobs;
    /// `None` when no replication did. Replications without tagged jobs
    /// have no attainment and are skipped — not folded in as a vacuous
    /// 1.0, which used to inflate mixed campaign grids.
    pub slo_attainment: Option<MetricSummary>,
    /// Replications that carried at least one SLO-tagged job (the sample
    /// size behind `slo_attainment`).
    pub slo_replications: u64,
    /// FNV-1a chain over the per-replication schedule digests, in
    /// replication order — a fingerprint of every placement decision the
    /// cell made, used to prove bit-identical results across worker-pool
    /// thread counts.
    pub schedule_digest: u64,
}

/// Per-cell fold: accepts one [`SimReport`] per replication, keeps Welford
/// moments, a digest chain and the pooled queue waits (the quantiles are
/// exact at every size), and emits a [`CellSummary`]. The report is
/// dropped after [`CellAccumulator::observe`] returns.
#[derive(Debug, Clone, Default)]
pub struct CellAccumulator {
    replications: u64,
    jobs: u64,
    makespan: Welford,
    throughput: Welford,
    queue_wait_mean: Welford,
    queue_waits: Vec<f64>,
    slo_attainment: Welford,
    digest: Fnv1a,
}

impl CellAccumulator {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one replication's report in.
    pub fn observe(&mut self, report: &SimReport) {
        self.replications += 1;
        self.jobs += report.records.len() as u64;
        self.makespan.push(report.makespan_seconds);
        self.throughput.push(report.throughput_jobs_per_hour);
        let pooled = self.queue_waits.len();
        self.queue_waits
            .extend(report.records.iter().map(|r| r.queue_wait_seconds));
        let waits = &self.queue_waits[pooled..];
        if !waits.is_empty() {
            self.queue_wait_mean
                .push(waits.iter().sum::<f64>() / waits.len() as f64);
        }
        // Replications without SLO-tagged jobs have no attainment to
        // fold in — skipping them keeps mixed grids honest.
        if let Some(attainment) = report.slo.attainment() {
            self.slo_attainment.push(attainment);
        }
        self.digest.write_u64(schedule_digest(report));
    }

    /// Finishes the fold into a [`CellSummary`] labelled `label`.
    #[must_use]
    pub fn finish(mut self, label: String) -> CellSummary {
        let summary = |w: &Welford| MetricSummary {
            mean: w.mean(),
            ci95: w.ci95_half_width(),
        };
        self.queue_waits.sort_by(f64::total_cmp);
        let wait = |p| {
            if self.queue_waits.is_empty() {
                0.0 // no job ran
            } else {
                stats::percentile(&self.queue_waits, p)
            }
        };
        CellSummary {
            label,
            replications: self.replications,
            jobs: self.jobs,
            makespan_seconds: summary(&self.makespan),
            throughput_jobs_per_hour: summary(&self.throughput),
            queue_wait_mean_seconds: summary(&self.queue_wait_mean),
            queue_wait_p50_seconds: wait(50.0),
            queue_wait_p95_seconds: wait(95.0),
            queue_wait_p99_seconds: wait(99.0),
            slo_attainment: if self.slo_attainment.count() > 0 {
                Some(summary(&self.slo_attainment))
            } else {
                None
            },
            slo_replications: self.slo_attainment.count(),
            schedule_digest: self.digest.finish(),
        }
    }
}

/// A campaign: a list of cells (one simulation configuration each), a
/// replication count, and the CRN base seed. The cell type is anything
/// the caller likes — the runner never inspects it beyond handing it to
/// the caller's closures.
#[derive(Debug, Clone)]
pub struct CampaignSpec<C> {
    /// The grid, flattened — one entry per cell, in output order.
    pub cells: Vec<C>,
    /// Seeded replications per cell (clamped to at least 1 by
    /// [`run_campaign`]).
    pub replications: usize,
    /// CRN base seed: replication `r` of every cell runs with
    /// [`crn_seed`]`(base_seed, r)`.
    pub base_seed: u64,
}

/// Runs a campaign: every cell becomes one pool task that builds its
/// context once via `setup` (the expensive immutable state — fitted
/// models, topologies — is paid per *cell*, not per
/// replication), then runs `replications` simulations sequentially in
/// replication order, folding each report into a [`CellAccumulator`] and
/// dropping it. `label` names the cell in its summary row.
///
/// Results return in `spec.cells` order regardless of pool size or
/// scheduling, and every cell's replication `r` receives the CRN seed
/// [`crn_seed`]`(spec.base_seed, r)` — together these make the output
/// table bit-identical at any worker-thread count. Cells run on scoped
/// workers that borrow `label`, `setup` and `run`; a cell that scatters
/// again (e.g. parallel cluster dispatch) runs that batch inline on its
/// own worker.
pub fn run_campaign<C, Ctx, L, S, R>(
    spec: CampaignSpec<C>,
    pool: &WorkerPool,
    label: L,
    setup: S,
    run: R,
) -> Vec<CellSummary>
where
    C: Send,
    L: Fn(&C) -> String + Sync,
    S: Fn(&C) -> Ctx + Sync,
    R: Fn(&mut Ctx, u64) -> SimReport + Sync,
{
    let replications = spec.replications.max(1);
    let base_seed = spec.base_seed;
    let (label, setup, run) = (&label, &setup, &run);
    let tasks: Vec<_> = spec
        .cells
        .into_iter()
        .map(|cell| {
            move || {
                let name = label(&cell);
                let mut ctx = setup(&cell);
                let mut acc = CellAccumulator::new();
                for r in 0..replications {
                    let report = run(&mut ctx, crn_seed(base_seed, r as u64));
                    acc.observe(&report);
                }
                acc.finish(name)
            }
        })
        .collect();
    pool.scatter(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use mapa_core::policy::PreservePolicy;
    use mapa_topology::machines;
    use mapa_workloads::generator::{self, JobMixConfig};

    #[test]
    fn crn_seed_depends_only_on_base_and_replication() {
        assert_eq!(crn_seed(7, 3), crn_seed(7, 3));
        assert_ne!(crn_seed(7, 3), crn_seed(7, 4));
        assert_ne!(crn_seed(7, 3), crn_seed(8, 3));
        // Replication 0 is not the identity on the base seed.
        assert_ne!(crn_seed(7, 0), 7);
    }

    #[test]
    fn welford_matches_naive_mean_and_std() {
        let xs = [3.0, 1.5, -2.0, 8.25, 0.0, 4.5];
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.sample_std() - var.sqrt()).abs() < 1e-12);
        assert!((w.ci95_half_width() - 1.96 * var.sqrt() / (xs.len() as f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn attainment_aggregation_skips_untagged_replications() {
        use crate::engine::{SloStats, Submission};
        use mapa_workloads::{GpuDemand, JobSpec, Workload};
        // One tagged replication with a known attainment, one untagged.
        let tagged: Vec<Submission> = (0..4)
            .map(|id| {
                Submission::Job(
                    JobSpec::new(id, GpuDemand::Whole(1), Workload::BertServing)
                        .with_iterations(100)
                        // Half generous targets (met), half impossible.
                        .with_slo(if id % 2 == 0 { 1e9 } else { 1e-9 }),
                )
            })
            .collect();
        let tagged_report = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
            .run_submissions(tagged);
        assert_eq!(tagged_report.slo.attainment(), Some(0.5));
        let untagged_report = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
            .run(&generator::paper_job_mix(3)[..5]);
        assert_eq!(untagged_report.slo, SloStats::default());

        let mut acc = CellAccumulator::new();
        acc.observe(&tagged_report);
        acc.observe(&untagged_report);
        let cell = acc.finish("mixed".to_string());
        assert_eq!(cell.replications, 2);
        assert_eq!(cell.slo_replications, 1, "only the tagged replication");
        let attainment = cell.slo_attainment.expect("one tagged replication");
        // The old vacuous-1.0 fold would have reported (0.5 + 1.0)/2.
        assert!((attainment.mean - 0.5).abs() < 1e-12, "{}", attainment.mean);

        // An all-untagged cell reports no attainment at all.
        let mut acc = CellAccumulator::new();
        acc.observe(&untagged_report);
        let cell = acc.finish("untagged".to_string());
        assert_eq!(cell.slo_attainment, None);
        assert_eq!(cell.slo_replications, 0);
    }

    #[test]
    fn campaign_results_arrive_in_cell_order_with_context_reuse() {
        let pool = WorkerPool::new(3);
        let spec = CampaignSpec {
            cells: vec![40usize, 10, 25],
            replications: 2,
            base_seed: 99,
        };
        let summaries = run_campaign(
            spec,
            &pool,
            |&jobs: &usize| format!("jobs={jobs}"),
            // The context (a fitted-model-bearing simulation input) is
            // built once per cell.
            |&jobs: &usize| (machines::dgx1_v100(), jobs),
            |(machine, jobs), seed| {
                let mix = JobMixConfig {
                    job_count: *jobs,
                    ..JobMixConfig::default()
                };
                let jobs = generator::generate_jobs(&mix, seed);
                Simulation::new(machine.clone(), Box::new(PreservePolicy))
                    .with_config(SimConfig::default())
                    .run(&jobs)
            },
        );
        let labels: Vec<&str> = summaries.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["jobs=40", "jobs=10", "jobs=25"]);
        assert_eq!(summaries[0].replications, 2);
        assert_eq!(summaries[0].jobs, 80);
        assert_eq!(summaries[1].jobs, 20);
        for s in &summaries {
            assert!(s.makespan_seconds.mean > 0.0);
            assert!(s.throughput_jobs_per_hour.mean > 0.0);
        }
    }
}
