//! Random job-mix generation — the paper's §4 configuration.
//!
//! "We randomly generated a job file of 300 jobs consisting of a uniform
//! mix of training jobs … these jobs are generated with a random number of
//! requested GPUs, from 1 to 5, which follows a uniform distribution"
//! (citing Philly's observation that multi-tenant GPU request sizes are
//! roughly uniform).
//!
//! Beyond the paper, [`JobMixConfig::inference_fraction`] mixes in
//! SLO-tagged inference tenants (fractional slice demands, short recurring
//! requests) for the MIG/spatial-sharing studies. The fraction defaults to
//! `0.0`, and a zero fraction consumes exactly the paper's RNG stream, so
//! default mixes — and every golden schedule built on them — are
//! bit-identical to earlier releases.

use crate::jobs::{GpuDemand, JobSpec};
use crate::network::Workload;
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

/// Configuration of a random job mix.
#[derive(Debug, Clone)]
pub struct JobMixConfig {
    /// Number of jobs to generate (paper: 300).
    pub job_count: usize,
    /// Inclusive range of requested GPUs (paper: 1–5).
    pub gpus_min: usize,
    /// See `gpus_min`.
    pub gpus_max: usize,
    /// Workload pool to draw from uniformly (paper: all nine).
    pub workloads: Vec<Workload>,
    /// Iteration jitter: each job's iterations are scaled by a uniform
    /// factor in `[1 - jitter, 1 + jitter]` so durations vary (paper jobs
    /// embed measured execution times with natural variance).
    pub iteration_jitter: f64,
    /// Fraction of jobs that are SLO-tagged inference tenants in `[0, 1]`
    /// (default `0.0` — the paper's pure-training mix). Inference jobs
    /// draw from [`Workload::inference`], request [`GpuDemand::Slices`],
    /// and carry a latency SLO.
    pub inference_fraction: f64,
    /// Inclusive upper bound on an inference tenant's slice demand
    /// (lower bound is 1).
    pub inference_slices_max: usize,
    /// Latency SLO stamped on inference jobs, in milliseconds. `None`
    /// (the default) derives a per-workload target from
    /// [`default_slo_ms`].
    pub inference_slo_ms: Option<f64>,
}

impl Default for JobMixConfig {
    fn default() -> Self {
        Self {
            job_count: 300,
            gpus_min: 1,
            gpus_max: 5,
            workloads: Workload::all().to_vec(),
            iteration_jitter: 0.2,
            inference_fraction: 0.0,
            inference_slices_max: 2,
            inference_slo_ms: None,
        }
    }
}

/// The default per-request latency SLO for an inference workload: its
/// healthy-allocation latency (compute + communication at a 40 GB/s
/// effective bandwidth) with 25% headroom. Tight enough that saturated
/// co-residency misses it, loose enough that a well-spread placement
/// meets it.
#[must_use]
pub fn default_slo_ms(workload: Workload) -> f64 {
    let m = workload.model();
    (m.compute_seconds + m.comm_bytes_per_iter / 40e9) * 1e3 * 1.25
}

/// Generates a reproducible random job mix.
///
/// Application topology defaults to [`crate::jobs::AppTopology::Ring`]
/// for multi-GPU CNN jobs (NCCL's large-transfer choice) and `Ring` for
/// HPC codes as well; 1-GPU jobs get `Ring` trivially (no edges).
///
/// Inference tenants are interleaved deterministically (an accumulator
/// over `inference_fraction`, not an RNG draw), so a zero fraction leaves
/// the paper's RNG stream untouched.
///
/// # Panics
/// Panics if the config is degenerate (`gpus_min > gpus_max`, zero
/// workloads, jitter outside `[0, 1)`, `inference_fraction` outside
/// `[0, 1]`, or a zero `inference_slices_max` with a positive fraction).
#[must_use]
pub fn generate_jobs(config: &JobMixConfig, seed: u64) -> Vec<JobSpec> {
    assert!(config.gpus_min >= 1 && config.gpus_min <= config.gpus_max);
    assert!(!config.workloads.is_empty(), "need at least one workload");
    assert!((0.0..1.0).contains(&config.iteration_jitter));
    assert!(
        (0.0..=1.0).contains(&config.inference_fraction),
        "inference fraction must be in [0, 1]"
    );
    assert!(
        config.inference_fraction == 0.0 || config.inference_slices_max >= 1,
        "inference jobs need at least one slice"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = 0.0f64;
    (0..config.job_count)
        .map(|i| {
            let id = i as u64 + 1;
            acc += config.inference_fraction;
            let inference = acc >= 1.0 - 1e-12;
            if inference {
                acc -= 1.0;
                let pool = Workload::inference();
                let workload = *pool.choose(&mut rng).expect("non-empty pool");
                let model = workload.model();
                let slices = rng.random_range(1..=config.inference_slices_max);
                let jitter = 1.0 + config.iteration_jitter * (rng.random_range(-1.0f64..=1.0));
                let iterations = ((model.default_iterations as f64) * jitter)
                    .round()
                    .max(1.0) as u64;
                let slo = config
                    .inference_slo_ms
                    .unwrap_or_else(|| default_slo_ms(workload));
                JobSpec::new(id, GpuDemand::Slices(slices), workload)
                    .with_iterations(iterations)
                    .with_slo(slo)
            } else {
                let workload = *config.workloads.choose(&mut rng).expect("non-empty pool");
                let model = workload.model();
                let num_gpus = rng.random_range(config.gpus_min..=config.gpus_max);
                let jitter = 1.0 + config.iteration_jitter * (rng.random_range(-1.0f64..=1.0));
                let iterations = ((model.default_iterations as f64) * jitter)
                    .round()
                    .max(1.0) as u64;
                JobSpec::new(id, GpuDemand::Whole(num_gpus), workload).with_iterations(iterations)
            }
        })
        .collect()
}

/// The paper's exact §4 mix: 300 jobs, 1–5 GPUs, all nine workloads.
#[must_use]
pub fn paper_job_mix(seed: u64) -> Vec<JobSpec> {
    generate_jobs(&JobMixConfig::default(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadClass;
    use std::collections::HashMap;

    fn is_inference(job: &JobSpec) -> bool {
        job.workload.model().class == WorkloadClass::Inference
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = paper_job_mix(42);
        let b = paper_job_mix(42);
        assert_eq!(a, b);
        let c = paper_job_mix(43);
        assert_ne!(a, c);
    }

    #[test]
    fn respects_configuration_bounds() {
        let jobs = paper_job_mix(7);
        assert_eq!(jobs.len(), 300);
        for j in &jobs {
            assert!((1..=5).contains(&j.num_gpus()));
            assert!(!j.is_fractional());
            assert!(!j.has_slo());
            assert!(j.iterations > 0);
            assert_eq!(j.bandwidth_sensitive, j.workload.is_bandwidth_sensitive());
        }
        // Unique, consecutive ids.
        let ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, (1..=300).collect::<Vec<u64>>());
    }

    #[test]
    fn gpu_sizes_are_roughly_uniform() {
        let jobs = paper_job_mix(123);
        let mut counts = HashMap::new();
        for j in &jobs {
            *counts.entry(j.num_gpus()).or_insert(0usize) += 1;
        }
        // 300 jobs over 5 sizes: expect 60 each; allow generous slack.
        for size in 1..=5 {
            let c = counts[&size];
            assert!((35..=85).contains(&c), "size {size}: count {c}");
        }
    }

    #[test]
    fn workload_mix_is_roughly_uniform() {
        let jobs = paper_job_mix(99);
        let mut counts = HashMap::new();
        for j in &jobs {
            *counts.entry(j.workload).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 9, "all workloads appear");
        for (w, c) in counts {
            assert!((15..=55).contains(&c), "{w}: count {c}");
        }
    }

    #[test]
    fn jitter_varies_iterations() {
        let jobs = paper_job_mix(5);
        let vggs: Vec<u64> = jobs
            .iter()
            .filter(|j| j.workload == Workload::Vgg16)
            .map(|j| j.iterations)
            .collect();
        assert!(vggs.len() > 5);
        let min = vggs.iter().min().unwrap();
        let max = vggs.iter().max().unwrap();
        assert!(max > min, "jitter must vary iteration counts");
        // Within the configured ±20%.
        let base = Workload::Vgg16.model().default_iterations as f64;
        assert!(*min as f64 >= base * 0.79);
        assert!(*max as f64 <= base * 1.21);
    }

    #[test]
    fn custom_config() {
        let cfg = JobMixConfig {
            job_count: 10,
            gpus_min: 2,
            gpus_max: 3,
            workloads: vec![Workload::Jacobi],
            iteration_jitter: 0.0,
            ..JobMixConfig::default()
        };
        let jobs = generate_jobs(&cfg, 1);
        assert_eq!(jobs.len(), 10);
        assert!(jobs.iter().all(|j| j.workload == Workload::Jacobi));
        assert!(jobs.iter().all(|j| (2..=3).contains(&j.num_gpus())));
        let iters = Workload::Jacobi.model().default_iterations;
        assert!(jobs.iter().all(|j| j.iterations == iters));
    }

    #[test]
    fn inference_fraction_mixes_slo_tenants() {
        let cfg = JobMixConfig {
            job_count: 100,
            inference_fraction: 0.25,
            ..JobMixConfig::default()
        };
        let jobs = generate_jobs(&cfg, 11);
        let inference: Vec<_> = jobs.iter().filter(|j| is_inference(j)).collect();
        // The accumulator interleaving is exact, not probabilistic.
        assert_eq!(inference.len(), 25);
        for j in &inference {
            assert!(j.is_fractional());
            assert!((1..=2).contains(&j.num_gpus()));
            assert_eq!(j.slo_ms, Some(default_slo_ms(j.workload)), "{}", j.id);
        }
        // Training jobs are untouched by the mix.
        for j in jobs.iter().filter(|j| !is_inference(j)) {
            assert!(!j.is_fractional());
            assert!(!j.has_slo());
        }
    }

    #[test]
    fn explicit_slo_overrides_the_derived_target() {
        let cfg = JobMixConfig {
            job_count: 10,
            inference_fraction: 1.0,
            inference_slo_ms: Some(33.0),
            ..JobMixConfig::default()
        };
        let jobs = generate_jobs(&cfg, 3);
        assert!(jobs.iter().all(|j| j.slo_ms == Some(33.0)));
        assert!(jobs.iter().all(is_inference));
    }

    #[test]
    fn zero_fraction_preserves_the_paper_stream() {
        // The inference gate must not consume RNG draws: a 0.0 fraction
        // yields the identical mix as the config that predates it.
        let jobs = generate_jobs(&JobMixConfig::default(), 42);
        assert_eq!(jobs, paper_job_mix(42));
        assert!(!jobs.iter().any(is_inference));
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_pool_panics() {
        let cfg = JobMixConfig {
            workloads: vec![],
            ..JobMixConfig::default()
        };
        let _ = generate_jobs(&cfg, 0);
    }

    #[test]
    #[should_panic(expected = "inference fraction")]
    fn out_of_range_fraction_panics() {
        let cfg = JobMixConfig {
            inference_fraction: 1.5,
            ..JobMixConfig::default()
        };
        let _ = generate_jobs(&cfg, 0);
    }
}
