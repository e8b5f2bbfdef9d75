//! The tracing wrappers must not change what the program does: a run
//! through `TracedBackend` + `TracedPolicy` makes bit-identical schedules.
//! A wrapper that forgot to forward a defaulted method — `manages_queues`,
//! `release_batch`, `try_place_gang`, the reports — fails here.

use crate::registry::Workload;
use crate::trace::{Kind, Tracer};
use crate::workloads::{
    causality_violations, churn_allocator, churn_digest, churn_loop, churn_requests, drive_backend,
    federation, federation_config, federation_submissions, fleet_cluster, fleet_jobs, FED_MEAN_GAP,
};
use mapa::cluster::DispatchMode;
use mapa::core::policy::PreservePolicy;
use mapa::sim::digest::schedule_digest;
use mapa::sim::{SchedulerBackend, SimConfig, SingleServer, Submission};
use mapa::topology::machines;
use mapa::workloads::generator::paper_job_mix;
use std::sync::Arc;
use std::time::SystemTime;

const JOBS: usize = 2_000;

/// Runs `build`'s backend untraced and traced over the same submissions
/// and asserts equal digests and reports; returns the tracer.
fn assert_transparent<B: SchedulerBackend>(
    build: impl Fn(Option<&Arc<Tracer>>) -> B,
    config: SimConfig,
    subs: Vec<Submission>,
) -> Arc<Tracer> {
    let tracer = Tracer::new();
    let now = SystemTime::now();
    let (plain, _) = drive_backend(build(None), config.clone(), subs.clone(), now, None);
    let (traced, _) = drive_backend(build(Some(&tracer)), config, subs, now, Some(&tracer));
    assert_eq!(plain.records.len(), traced.records.len());
    assert_eq!(schedule_digest(&plain), schedule_digest(&traced));
    assert_eq!(causality_violations(&traced.records), 0);
    assert_eq!(plain.topology_name, traced.topology_name);
    assert_eq!(plain.policy_name, traced.policy_name);
    assert_eq!(plain.cache, traced.cache);
    assert_eq!(plain.dispatch, traced.dispatch);
    assert_eq!(plain.federation, traced.federation);
    assert_eq!(tracer.counters(Kind::EngineRun).calls, 1);
    tracer
}

fn jobs_as_subs(jobs: Vec<mapa::workloads::JobSpec>) -> Vec<Submission> {
    jobs.into_iter().map(Submission::Job).collect()
}

#[test]
fn single_server_is_unchanged_by_tracing() {
    let jobs = paper_job_mix(11).into_iter().cycle().take(JOBS);
    let jobs = jobs
        .enumerate()
        .map(|(i, mut j)| {
            j.id = i as u64 + 1;
            j
        })
        .collect();
    let tracer = assert_transparent(
        |t| {
            SingleServer::new(
                machines::dgx1_v100(),
                crate::trace::maybe_traced(Box::new(PreservePolicy), t),
            )
        },
        SimConfig::default(),
        jobs_as_subs(jobs),
    );
    // The engine's own queue drove it: try_place, never admit/pump.
    assert!(tracer.counters(Kind::TryPlace).useful == JOBS as u64);
    assert_eq!(tracer.counters(Kind::Pump).calls, 0);
    assert!(tracer.counters(Kind::PolicySelect).calls > 0);
}

#[test]
fn queued_cluster_is_unchanged_by_tracing() {
    let tracer = assert_transparent(
        |t| fleet_cluster(8, true, t),
        SimConfig::default(),
        jobs_as_subs(fleet_jobs(JOBS, 11)),
    );
    // `manages_queues` was forwarded: admit/pump, never try_place.
    assert_eq!(tracer.counters(Kind::Admit).calls, JOBS as u64);
    assert_eq!(tracer.counters(Kind::Pump).useful, JOBS as u64);
    assert_eq!(tracer.counters(Kind::TryPlace).calls, 0);
}

#[test]
fn federation_is_unchanged_by_tracing() {
    let subs = federation_submissions(JOBS, 11);
    let tracer = assert_transparent(
        |t| federation(DispatchMode::Sequential, t),
        federation_config(FED_MEAN_GAP / 4.0, 11),
        subs,
    );
    assert!(tracer.counters(Kind::AdmitGang).calls > 0);
    assert!(tracer.counters(Kind::PreemptBlocked).calls > 0);
}

#[test]
fn churn_is_unchanged_by_tracing_and_never_refuses() {
    let requests = churn_requests(Workload::AllocChurn.size(true), 11);
    let tracer = Tracer::new();
    let mut plain = churn_allocator(Box::new(PreservePolicy));
    let mut traced = churn_allocator(crate::trace::maybe_traced(
        Box::new(PreservePolicy),
        Some(&tracer),
    ));
    let a = churn_loop(&mut plain, &requests, None);
    let b = churn_loop(&mut traced, &requests, Some(&tracer));
    assert_eq!(a.refused, 0);
    assert_eq!(churn_digest(&requests, &a), churn_digest(&requests, &b));
    assert_eq!(plain.cache_stats(), traced.cache_stats());
    assert_eq!(
        tracer.counters(Kind::TryAllocate).useful,
        requests.len() as u64
    );
    assert_ne!(
        churn_digest(&requests, &a),
        churn_digest(
            &churn_requests(requests.len(), 12),
            &churn_loop(
                &mut churn_allocator(Box::new(PreservePolicy)),
                &churn_requests(requests.len(), 12),
                None
            )
        ),
        "another seed makes other placements"
    );
}
