//! The five workloads: how each builds its inputs from the seed, what its
//! timed region is, and how one repetition turns into a [`RepResult`].
//!
//! Four workloads drive `Engine::run*` over different backends, one drives
//! a `MapaAllocator` directly. Sizes are fixed and small (one repetition
//! ≈ 0.4 s on the 2-core reference host, `cube16_server` and `alloc_churn`
//! ≈ 0.9 s): a run repeats repetitions, it never stretches one, and the
//! more repetitions it holds the more of them fall between the host's slow
//! spells.

use crate::procfs;
use crate::registry::{Workload, END_TO_END};
use crate::result::RepResult;
use crate::stats::percentile;
use crate::trace::{maybe_span, maybe_traced, Kind, TracedBackend, Tracer};
use crate::yardstick::{yardstick_ms, REFERENCE_MS};
use mapa::cluster::{
    BestScorePolicy, Cluster, DispatchMode, FedLeastLoadedPolicy, Federation, MigrationPolicy,
    RoundRobinPolicy, DEFAULT_SHARD_QUEUE_DEPTH,
};
use mapa::core::policy::{AllocationPolicy, BaselinePolicy, PreservePolicy};
use mapa::core::{AllocatorConfig, MapaAllocator, PreemptionPolicy};
use mapa::isomorph::{default_threads, WorkerPool};
use mapa::sim::digest::{schedule_digest, Fnv1a};
use mapa::sim::{
    ArrivalProcess, Engine, JobRecord, SchedulerBackend, SimConfig, SimReport, SingleServer,
    Submission,
};
use mapa::topology::machines;
use mapa::workloads::generator::{generate_jobs, JobMixConfig};
use mapa::workloads::{
    assign_priority_classes, assign_tenants, perf, AppTopology, GpuDemand, JobGroup, JobSpec,
    Workload as App,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

impl Workload {
    /// The workload's size at full scale: jobs for the engine workloads,
    /// `try_allocate` calls for `alloc_churn`.
    pub fn full_size(self) -> usize {
        match self {
            Workload::FleetWide => 80_000,
            Workload::PaperServer => 50_000,
            // 14 of each (GPU count, workload) pair of `stratified_jobs`.
            Workload::Cube16Server => 1_008,
            Workload::FederationTenants => 14_000,
            // 150 of each pair, and enough misses to make the cache evict.
            Workload::AllocChurn => 8_100,
        }
    }

    /// Size of one repetition; `quick` is one tenth, for smoke runs.
    pub fn size(self, quick: bool) -> usize {
        if quick {
            (self.full_size() / 10).max(1)
        } else {
            self.full_size()
        }
    }
}

/// `alloc_churn` keeps at most this many of the cube-mesh's 16 GPUs busy.
const CHURN_BUSY_CAP: usize = 13;
/// Every n-th churn placement of each (GPU count, workload) pair is priced
/// with the execution-time model.
const CHURN_EXEC_STRIDE: usize = 4;
/// Federation shape: clusters × shards of DGX-1 V100, four tenants whose
/// default quotas add up to the fleet.
const FED_CLUSTERS: usize = 4;
const FED_SHARDS: usize = 8;
const FED_TENANTS: u64 = 4;
const FED_QUOTA_GPUS: usize = 64;
/// Mean Poisson inter-arrival gap giving ≈85 % load on the 256-GPU fleet.
pub const FED_MEAN_GAP: f64 = 12.0;

/// What one repetition needs to know about itself.
pub struct RepCtx {
    pub workload: Workload,
    pub seed: u64,
    pub quick: bool,
    /// When the parent spawned this process; set-up time counts from here.
    pub spawned_at: SystemTime,
    pub tracer: Option<Arc<Tracer>>,
}

/// Wall, CPU, scheduling and memory readings of one timed region, as the
/// clocks gave them.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub runq_wait_pct: f64,
    pub peak_rss_mb: f64,
    /// Mean of the yardstick readings right before and right after the
    /// timed region.
    pub yardstick_ms: f64,
}

impl Timing {
    /// What a time measured around this timed region is worth at the
    /// reference host's speed.
    pub fn at_reference_speed(&self, time: f64) -> f64 {
        time * REFERENCE_MS / self.yardstick_ms
    }
}

/// Brackets the timed region: [`Stopwatch::start`] is the last statement
/// before it, [`Stopwatch::stop`] the first after.
pub struct Stopwatch {
    setup_s: f64,
    yardstick_ms: f64,
    cpu0: f64,
    runq0: u64,
    t0: Instant,
}

impl Stopwatch {
    pub fn start(spawned_at: SystemTime) -> Self {
        let setup_s = spawned_at.elapsed().map_or(0.0, |d| d.as_secs_f64());
        let yardstick_ms = yardstick_ms();
        Self {
            setup_s,
            yardstick_ms,
            cpu0: procfs::cpu_seconds(),
            runq0: procfs::runqueue_wait_ns(),
            t0: Instant::now(),
        }
    }

    pub fn stop(self) -> Timing {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_seconds() - self.cpu0;
        let runq_ns = procfs::runqueue_wait_ns().saturating_sub(self.runq0);
        // Read before the yardstick or any post-processing allocates.
        let peak_rss_mb = procfs::peak_rss_mb();
        Timing {
            setup_s: self.setup_s,
            wall_s,
            cpu_s,
            runq_wait_pct: runq_ns as f64 / 1e9 / wall_s * 100.0,
            peak_rss_mb,
            yardstick_ms: (self.yardstick_ms + yardstick_ms()) / 2.0,
        }
    }
}

/// What a repetition produced, before it becomes metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    /// Wall nanoseconds of every placement decision.
    pub decisions_ns: Vec<u64>,
    /// Simulated execution seconds of the jobs (see each workload).
    pub exec_s: Vec<f64>,
}

/// Runs one repetition of `ctx.workload` in this process.
pub fn run_rep(ctx: &RepCtx) -> RepResult {
    match ctx.workload {
        Workload::FleetWide
        | Workload::PaperServer
        | Workload::Cube16Server
        | Workload::FederationTenants => rep_engine(ctx),
        Workload::AllocChurn => rep_churn(ctx),
    }
}

/// Assembles the repetition's result: the end-to-end metrics of an
/// untraced repetition, `layer` (plus the two percentiles every workload
/// has) of a traced one.
fn finish(
    ctx: &RepCtx,
    timing: Timing,
    mut outcome: Outcome,
    layer: Option<BTreeMap<String, f64>>,
) -> RepResult {
    let jobs = (outcome.attempted - outcome.failed.min(outcome.attempted)).max(1) as f64;
    outcome.decisions_ns.sort_unstable();
    let metrics = if let Some(mut layer) = layer {
        // The paper's headline statistic; the end-to-end metric is the
        // mean, which also moves with the seed where p75 cannot.
        outcome.exec_s.sort_by(f64::total_cmp);
        layer.insert(
            "mapa-sim.report.exec_p75_s".to_string(),
            percentile(&outcome.exec_s, 75.0),
        );
        // Work-bound (≈ 1 ms) on the cube-mesh workloads, timer-bound
        // elsewhere; too seed-dependent at a few thousand decisions to
        // carry a regression bound.
        layer.insert(
            "mapa-core.allocator.decision_p99_us".to_string(),
            percentile(&outcome.decisions_ns, 99.0) as f64 / 1e3,
        );
        layer
    } else {
        // Host times are reported at the reference host's speed.
        let at_ref = |time: f64| timing.at_reference_speed(time);
        let value = |name: &str| match name {
            "jobs_per_sec" => jobs / at_ref(timing.wall_s),
            "cpu_us_per_job" => at_ref(timing.cpu_s) * 1e6 / jobs,
            "decision_p50_us" => at_ref(percentile(&outcome.decisions_ns, 50.0) as f64 / 1e3),
            "setup_s" => at_ref(timing.setup_s),
            "peak_rss_mb" => timing.peak_rss_mb,
            "sim_exec_mean_s" => outcome.exec_s.iter().sum::<f64>() / outcome.exec_s.len() as f64,
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), value(m.name)))
            .collect()
    };
    RepResult {
        workload: ctx.workload.name().to_string(),
        seed: ctx.seed,
        traced: ctx.tracer.is_some(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        digest: outcome.digest,
        wall_s: timing.wall_s,
        yardstick_ms: timing.yardstick_ms,
        samples: outcome.decisions_ns.len() as u64,
        runq_wait_pct: timing.runq_wait_pct,
        metrics,
    }
}

// ---------------------------------------------------------------- engine

/// The paper's job mix — uniform GPU counts `1..=gpus_max`, uniform over
/// the nine workloads, iterations jittered ±20 % — drawn without
/// replacement: every (GPU count, workload) pair appears equally often and
/// the seed decides the order and the jitter. `generator::generate_jobs`
/// draws with replacement, which at a few thousand jobs moves the share
/// of the expensive large jobs, and every host-time metric with it, by
/// several percent from seed to seed.
pub fn stratified_jobs(n: usize, gpus_max: usize, seed: u64) -> Vec<JobSpec> {
    const JITTER: f64 = 0.2;
    let mut rng = SplitMix64(seed);
    let apps = App::all();
    let mut picks: Vec<(usize, App)> = (0..n)
        .map(|i| (1 + i % gpus_max, apps[i / gpus_max % apps.len()]))
        .collect();
    for i in (1..picks.len()).rev() {
        picks.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    picks
        .into_iter()
        .enumerate()
        .map(|(i, (gpus, app))| {
            let unit = rng.next() as f64 / u64::MAX as f64;
            let scale = 1.0 + JITTER * (2.0 * unit - 1.0);
            let iterations = (app.model().default_iterations as f64 * scale)
                .round()
                .max(1.0);
            JobSpec::new(i as u64 + 1, GpuDemand::Whole(gpus), app)
                .with_iterations(iterations as u64)
        })
        .collect()
}

/// The `fleet_wide` stream: 1–2 GPU jobs of one workload with no
/// iteration jitter, so finish events arrive in large same-tick batches.
pub fn fleet_jobs(n: usize, seed: u64) -> Vec<JobSpec> {
    generate_jobs(
        &JobMixConfig {
            job_count: n,
            gpus_min: 1,
            gpus_max: 2,
            workloads: vec![App::Gmm],
            iteration_jitter: 0.0,
            ..JobMixConfig::default()
        },
        seed,
    )
}

/// A queued fleet of `shards` DGX-1 V100 under the cheapest real decision
/// (baseline allocation, round-robin routing).
pub fn fleet_cluster(shards: usize, queued: bool, tracer: Option<&Arc<Tracer>>) -> Cluster {
    let cluster = Cluster::homogeneous(
        machines::dgx1_v100(),
        shards,
        || maybe_traced(Box::new(BaselinePolicy), tracer),
        Box::new(RoundRobinPolicy),
    );
    if queued {
        cluster.with_shard_queues(DEFAULT_SHARD_QUEUE_DEPTH)
    } else {
        cluster
    }
}

/// The `federation_tenants` backend.
pub fn federation(dispatch: DispatchMode, tracer: Option<&Arc<Tracer>>) -> Federation {
    // One pool and one fitted model for all four clusters, and never more
    // threads than the host has cores.
    let pool = Arc::new(WorkerPool::new(default_threads()));
    let mut models = HashMap::new();
    let clusters = (0..FED_CLUSTERS)
        .map(|_| {
            Cluster::with_shared_resources(
                vec![machines::dgx1_v100(); FED_SHARDS],
                || maybe_traced(Box::new(PreservePolicy), tracer),
                Box::new(BestScorePolicy),
                Arc::clone(&pool),
                &mut models,
            )
            .with_shard_queues(DEFAULT_SHARD_QUEUE_DEPTH)
            .with_migration(MigrationPolicy::StealOnIdle)
            .with_dispatch(dispatch)
        })
        .collect();
    Federation::new(clusters, Box::new(FedLeastLoadedPolicy)).with_default_quota(FED_QUOTA_GPUS)
}

/// The `federation_tenants` submissions: the paper's mix tagged with four
/// tenants and three priority classes, every tenth pair a 2-member gang.
pub fn federation_submissions(n: usize, seed: u64) -> Vec<Submission> {
    let mut jobs = stratified_jobs(n, 5, seed);
    assign_tenants(&mut jobs, FED_TENANTS);
    assign_priority_classes(&mut jobs, 3);
    let mut subs = Vec::with_capacity(n);
    let mut gangs = 0;
    for (pair, members) in jobs.chunks(2).enumerate() {
        if pair % 10 == 0 && members.len() == 2 {
            gangs += 1;
            subs.push(Submission::Gang(JobGroup::new(gangs, members.to_vec())));
        } else {
            subs.extend(members.iter().cloned().map(Submission::Job));
        }
    }
    subs
}

pub fn federation_config(mean_gap: f64, seed: u64) -> SimConfig {
    SimConfig {
        arrivals: ArrivalProcess::Poisson { mean_gap, seed },
        preemption: PreemptionPolicy::PriorityEvict,
        ..SimConfig::default()
    }
}

fn submission_jobs(subs: &[Submission]) -> u64 {
    subs.iter()
        .map(|s| match s {
            Submission::Job(_) => 1,
            Submission::Gang(g) => g.len() as u64,
        })
        .sum()
}

/// Runs `subs` through `engine` as the timed region, under an
/// `engine.run` span when traced.
pub fn drive<B: SchedulerBackend>(
    engine: Engine<B>,
    subs: Vec<Submission>,
    spawned_at: SystemTime,
    tracer: Option<&Arc<Tracer>>,
) -> (SimReport, Timing) {
    let watch = Stopwatch::start(spawned_at);
    let report = maybe_span(
        tracer,
        Kind::EngineRun,
        None,
        || engine.run_submissions(subs),
        |r| r.records.len() as u64,
    );
    (report, watch.stop())
}

/// `drive`, wrapping the backend in a [`TracedBackend`] when traced.
pub fn drive_backend<B: SchedulerBackend>(
    backend: B,
    config: SimConfig,
    subs: Vec<Submission>,
    spawned_at: SystemTime,
    tracer: Option<&Arc<Tracer>>,
) -> (SimReport, Timing) {
    match tracer {
        Some(t) => drive(
            Engine::over(TracedBackend::new(backend, Arc::clone(t))).with_config(config),
            subs,
            spawned_at,
            tracer,
        ),
        None => drive(
            Engine::over(backend).with_config(config),
            subs,
            spawned_at,
            None,
        ),
    }
}

/// Jobs that broke `submitted_at ≤ started_at ≤ finished_at`.
pub fn causality_violations(records: &[JobRecord]) -> u64 {
    records
        .iter()
        .filter(|r| !(r.submitted_at <= r.started_at && r.started_at <= r.finished_at))
        .count() as u64
}

/// Checks a report against what was submitted and reduces it to an
/// [`Outcome`].
pub fn report_outcome(report: &SimReport, attempted: u64) -> Outcome {
    let completed = report.records.len() as u64;
    Outcome {
        attempted,
        failed: attempted.saturating_sub(completed) + causality_violations(&report.records),
        digest: schedule_digest(report),
        decisions_ns: report
            .records
            .iter()
            .map(|r| r.scheduling_overhead.as_nanos() as u64)
            .collect(),
        exec_s: report.records.iter().map(|r| r.execution_seconds).collect(),
    }
}

fn rep_engine(ctx: &RepCtx) -> RepResult {
    let n = ctx.workload.size(ctx.quick);
    let tracer = ctx.tracer.as_ref();
    let gen_start = Instant::now();
    let as_subs = |jobs: Vec<JobSpec>| jobs.into_iter().map(Submission::Job).collect::<Vec<_>>();
    let subs = match ctx.workload {
        Workload::FleetWide => as_subs(fleet_jobs(n, ctx.seed)),
        Workload::PaperServer => as_subs(stratified_jobs(n, 5, ctx.seed)),
        Workload::Cube16Server => as_subs(stratified_jobs(n, 8, ctx.seed)),
        _ => federation_submissions(n, ctx.seed),
    };
    let gen_s = gen_start.elapsed().as_secs_f64();
    let attempted = submission_jobs(&subs);
    // Every server of a workload is the same machine; the model replay
    // needs it after the engine has consumed the backend.
    let (machine, (report, timing)) = match ctx.workload {
        Workload::FleetWide => (
            machines::dgx1_v100(),
            drive_backend(
                fleet_cluster(64, true, tracer),
                SimConfig::default(),
                subs,
                ctx.spawned_at,
                tracer,
            ),
        ),
        Workload::PaperServer | Workload::Cube16Server => {
            let machine = if ctx.workload == Workload::PaperServer {
                machines::dgx1_v100()
            } else {
                machines::cube_mesh()
            };
            let run = drive_backend(
                SingleServer::new(
                    machine.clone(),
                    maybe_traced(Box::new(PreservePolicy), tracer),
                ),
                SimConfig::default(),
                subs,
                ctx.spawned_at,
                tracer,
            );
            (machine, run)
        }
        _ => (
            machines::dgx1_v100(),
            drive_backend(
                federation(DispatchMode::Sequential, tracer),
                federation_config(FED_MEAN_GAP, ctx.seed),
                subs,
                ctx.spawned_at,
                tracer,
            ),
        ),
    };
    let outcome = report_outcome(&report, attempted);
    let layer =
        tracer.map(|t| crate::layers::engine_layers(ctx, t, &report, &machine, &timing, gen_s));
    finish(ctx, timing, outcome, layer)
}

// ----------------------------------------------------------------- churn

/// Deterministic 64-bit generator (splitmix64) for the request attributes
/// the job generator does not draw.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The `alloc_churn` requests: 1–6 GPUs over the nine workloads, all four
/// application topologies and both sensitivities.
pub fn churn_requests(n: usize, seed: u64) -> Vec<JobSpec> {
    const SHAPES: [AppTopology; 4] = [
        AppTopology::Ring,
        AppTopology::Tree,
        AppTopology::RingTree,
        AppTopology::AllToAll,
    ];
    let mut rng = SplitMix64(!seed);
    stratified_jobs(n, 6, seed)
        .into_iter()
        .map(|job| {
            let draw = rng.next();
            job.with_topology(SHAPES[(draw % 4) as usize])
                .with_bandwidth_sensitive(draw & 4 != 0)
        })
        .collect()
}

/// A cached cube-mesh allocator under `policy`.
pub fn churn_allocator(policy: Box<dyn AllocationPolicy>) -> MapaAllocator {
    MapaAllocator::new(machines::cube_mesh(), policy).with_config(AllocatorConfig::cached())
}

/// What a churn loop observed.
pub struct ChurnLog {
    pub decisions_ns: Vec<u64>,
    /// `(request index, GPUs)` of every placement, in order.
    pub placements: Vec<(usize, Vec<usize>)>,
    pub refused: u64,
}

/// The closed loop with one client: release the oldest jobs until the
/// request fits under the busy cap, then time one `try_allocate`.
pub fn churn_loop(
    allocator: &mut MapaAllocator,
    requests: &[JobSpec],
    tracer: Option<&Arc<Tracer>>,
) -> ChurnLog {
    let mut log = ChurnLog {
        decisions_ns: Vec::with_capacity(requests.len()),
        placements: Vec::with_capacity(requests.len()),
        refused: 0,
    };
    let mut live: VecDeque<(u64, usize)> = VecDeque::new();
    let mut busy = 0;
    for (i, job) in requests.iter().enumerate() {
        while busy + job.num_gpus() > CHURN_BUSY_CAP {
            let (id, gpus) = live.pop_front().expect("busy GPUs belong to live jobs");
            maybe_span(
                tracer,
                Kind::AllocRelease,
                Some(id),
                || allocator.release(id).expect("live job is allocated"),
                |_| 1,
            );
            busy -= gpus;
        }
        let (placed, elapsed) = maybe_span(
            tracer,
            Kind::TryAllocate,
            Some(job.id),
            || {
                let started = Instant::now();
                let placed = allocator.try_allocate(job);
                (placed, started.elapsed())
            },
            |(placed, _)| u64::from(matches!(placed, Ok(Some(_)))),
        );
        log.decisions_ns.push(elapsed.as_nanos() as u64);
        match placed {
            Ok(Some(outcome)) => {
                busy += job.num_gpus();
                live.push_back((job.id, job.num_gpus()));
                log.placements.push((i, outcome.gpus));
            }
            _ => log.refused += 1,
        }
    }
    log
}

/// Digest of a churn run: every placement's job id and GPUs, in order.
pub fn churn_digest(requests: &[JobSpec], log: &ChurnLog) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(log.placements.len() as u64);
    for (i, gpus) in &log.placements {
        h.write_u64(requests[*i].id);
        h.write_u64(gpus.len() as u64);
        for &g in gpus {
            h.write_u64(g as u64);
        }
    }
    h.finish()
}

fn rep_churn(ctx: &RepCtx) -> RepResult {
    let n = ctx.workload.size(ctx.quick);
    let tracer = ctx.tracer.as_ref();
    let gen_start = Instant::now();
    let requests = churn_requests(n, ctx.seed);
    let gen_s = gen_start.elapsed().as_secs_f64();
    let mut allocator = churn_allocator(maybe_traced(Box::new(PreservePolicy), tracer));

    let watch = Stopwatch::start(ctx.spawned_at);
    let log = churn_loop(&mut allocator, &requests, tracer);
    let timing = watch.stop();

    // No engine, so no simulated clock: price a subsample of the
    // placements with the same execution-time model the engine uses, so a
    // change that places worse shows in `sim_exec_mean_s` here too. The
    // subsample keeps the requests' balance over (GPU count, workload)
    // pairs; a plain every-n-th one moves the mean by 10 % with the seed.
    let machine = machines::cube_mesh();
    let mut seen: HashMap<(usize, App), usize> = HashMap::new();
    let exec_s = log
        .placements
        .iter()
        .filter(|(i, _)| {
            let job = &requests[*i];
            let n = seen.entry((job.num_gpus(), job.workload)).or_insert(0);
            *n += 1;
            *n % CHURN_EXEC_STRIDE == 0
        })
        .map(|(i, gpus)| {
            let job = &requests[*i];
            perf::execution_time(job.workload, &machine, gpus, job.iterations)
        })
        .collect();
    let layer =
        tracer.map(|t| crate::layers::churn_layers(ctx, t, &allocator, &log, &timing, gen_s));
    let outcome = Outcome {
        attempted: n as u64,
        failed: log.refused,
        digest: churn_digest(&requests, &log),
        decisions_ns: log.decisions_ns,
        exec_s,
    };
    finish(ctx, timing, outcome, layer)
}
