//! Campaign-runner invariants — the three properties the PR 7 campaign
//! instrument stands on:
//!
//! 1. **CRN pairing**: replication `r` of every cell observes a
//!    bit-identical arrival stream (same jobs, same submission times),
//!    no matter how the cells' configurations differ — and different
//!    replications observe different streams.
//! 2. **Thread-count invariance**: the campaign's summary table —
//!    including the chained schedule digests, the same FNV fingerprint
//!    the golden-digest harness pins — is bit-identical whichever
//!    worker-pool size runs it.
//! 3. **Aggregator exactness**: the streaming mean/CI matches the
//!    from-scratch computation, and a cell's pooled queue-wait quantiles
//!    equal `stats::percentile` over every wait it saw, at any size.

use mapa::prelude::*;
use mapa::sim::campaign::{crn_seed, run_campaign, CampaignSpec, Welford};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// FNV-1a digest of the arrival stream a report's records describe: job
/// identity, shape, and the exact submission-time bit patterns, in id
/// order (completion order varies across policies; arrival order does
/// not).
fn arrival_stream_digest(report: &SimReport) -> u64 {
    let mut records: Vec<_> = report.records.iter().collect();
    records.sort_by_key(|r| r.job.id);
    let mut h = mapa::sim::digest::Fnv1a::default();
    h.write_u64(records.len() as u64);
    for r in &records {
        h.write_u64(r.job.id);
        h.write_u64(r.job.num_gpus() as u64);
        h.write_u64(r.job.iterations);
        h.write_u64(u64::from(r.job.bandwidth_sensitive));
        h.write_f64(r.submitted_at);
    }
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Property 1: paired cells replay bit-identical arrival streams
    /// under CRN, for any base seed. The two cells here differ in
    /// allocation policy — a config difference that must not leak into
    /// the randomness.
    #[test]
    fn paired_cells_observe_identical_arrival_streams(base_seed in 0u64..1_000_000) {
        let pool = Arc::new(WorkerPool::new(2));
        let observed: Arc<Mutex<Vec<(String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&observed);
        let spec = CampaignSpec {
            cells: vec!["baseline".to_string(), "preserve".to_string()],
            replications: 3,
            base_seed,
        };
        run_campaign(
            spec,
            &pool,
            String::clone,
            String::clone,
            move |policy: &mut String, seed| {
                let mix = generator::JobMixConfig {
                    job_count: 25,
                    ..Default::default()
                };
                let jobs = generator::generate_jobs(&mix, seed);
                let report = Simulation::new(
                    machines::dgx1_v100(),
                    allocation_policy_by_name(policy).expect("built-in"),
                )
                .with_config(SimConfig {
                    arrivals: ArrivalProcess::Poisson { mean_gap: 60.0, seed },
                    ..SimConfig::default()
                })
                .run(&jobs);
                sink.lock()
                    .expect("no poisoned observers")
                    .push((policy.clone(), arrival_stream_digest(&report)));
                report
            },
        );
        let observed = observed.lock().expect("no poisoned observers");
        let streams = |cell: &str| -> Vec<u64> {
            observed
                .iter()
                .filter(|(c, _)| c == cell)
                .map(|(_, d)| *d)
                .collect()
        };
        let a = streams("baseline");
        let b = streams("preserve");
        prop_assert_eq!(a.len(), 3);
        // Replication r of both cells observed the same stream, bit for
        // bit…
        prop_assert_eq!(&a, &b);
        // …and distinct replications observed distinct streams (the CRN
        // seeds differ, so pairing is not vacuous).
        prop_assert!(a[0] != a[1]);
        prop_assert!(a[1] != a[2]);
    }
}

/// Property 2: the campaign table is bit-identical at any worker-pool
/// thread count — same floats, same chained schedule digests. This is
/// the campaign-level extension of the golden-digest determinism
/// harness (`tests/dispatch_equivalence.rs`).
#[test]
fn campaign_tables_are_bit_identical_across_thread_counts() {
    let grid = CampaignGrid {
        server_policies: vec!["round-robin".into(), "least-loaded".into()],
        alloc_policies: vec!["baseline".into()],
        shards: vec![2],
        job_counts: vec![30],
        replications: 2,
        base_seed: 1234,
        ..CampaignGrid::new(machines::dgx1_v100())
    };
    let run_with = |threads: usize| {
        let pool = Arc::new(WorkerPool::new(threads));
        grid.run(&pool).expect("valid grid")
    };
    let one = run_with(1);
    assert_eq!(one.len(), 2);
    for s in &one {
        assert_eq!(s.replications, 2);
        assert!(s.jobs > 0);
    }
    // CellSummary derives PartialEq over every field, digests included:
    // exact equality, not approximate.
    assert_eq!(one, run_with(2), "1-thread vs 2-thread tables differ");
    assert_eq!(one, run_with(5), "1-thread vs 5-thread tables differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property 3a: the streaming mean/std/CI matches the from-scratch
    /// two-pass computation.
    #[test]
    fn welford_matches_exact_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut w = Welford::default();
        for &x in &xs {
            w.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let scale = mean.abs().max(1.0);
        prop_assert!((w.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((w.sample_std() - var.sqrt()).abs() / var.sqrt().max(1.0) < 1e-6);
        prop_assert!(
            (w.ci95_half_width() - 1.96 * var.sqrt() / n.sqrt()).abs()
                / var.sqrt().max(1.0) < 1e-6
        );
    }
}

/// Property 3b: a cell's queue-wait quantiles are exact however many
/// waits it pools — 3 replications × 2 000 jobs here — bit for bit
/// `stats::percentile` over the concatenated, sorted waits.
#[test]
fn pooled_wait_quantiles_are_exact_at_any_size() {
    const BASE_SEED: u64 = 5;
    fn replicate(seed: u64) -> SimReport {
        let mix = generator::JobMixConfig {
            job_count: 2000,
            ..generator::JobMixConfig::default()
        };
        Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
            .run(&generator::generate_jobs(&mix, seed))
    }
    let spec = CampaignSpec {
        cells: vec![()],
        replications: 3,
        base_seed: BASE_SEED,
    };
    let pool = Arc::new(WorkerPool::new(1));
    let cells = run_campaign(
        spec,
        &pool,
        |()| "big".to_string(),
        |()| (),
        |(), seed| replicate(seed),
    );
    let mut waits: Vec<f64> = (0..3)
        .flat_map(|r| replicate(crn_seed(BASE_SEED, r)).records)
        .map(|record| record.queue_wait_seconds)
        .collect();
    assert_eq!(waits.len(), 6000);
    waits.sort_by(f64::total_cmp);
    for (got, p) in [
        (cells[0].queue_wait_p50_seconds, 50.0),
        (cells[0].queue_wait_p95_seconds, 95.0),
        (cells[0].queue_wait_p99_seconds, 99.0),
    ] {
        assert_eq!(
            got.to_bits(),
            stats::percentile(&waits, p).to_bits(),
            "p{p}"
        );
    }
}

/// The CRN derivation rule itself: seeds depend on `(base_seed,
/// replication)` only, and nearby pairs do not collide.
#[test]
fn crn_seeds_are_config_free_and_distinct() {
    let mut seen = std::collections::HashSet::new();
    for base in [0u64, 1, 42, u64::MAX] {
        for r in 0..64u64 {
            assert!(seen.insert(crn_seed(base, r)), "collision at ({base}, {r})");
            assert_eq!(crn_seed(base, r), crn_seed(base, r));
        }
    }
}
