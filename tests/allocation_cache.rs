//! Equivalence proof for the allocation fast path: under arbitrary job
//! streams with interleaved releases, a cache-enabled allocator must
//! produce *bit-identical* placements (and rejections) and scores to the
//! uncached reference path, for every built-in policy. This is the
//! property the simulator relies on when it turns the cache on by default.

use mapa::core::policy::{
    AllocationPolicy, BaselinePolicy, EffBwGreedyPolicy, GreedyPolicy, PreservePolicy,
    TopoAwarePolicy,
};
use mapa::prelude::*;
use mapa::topology::LinkMix;
use proptest::prelude::*;

fn policy_by_index(i: usize) -> Box<dyn AllocationPolicy> {
    match i % 5 {
        0 => Box::new(BaselinePolicy),
        1 => Box::new(TopoAwarePolicy),
        2 => Box::new(GreedyPolicy),
        3 => Box::new(PreservePolicy),
        _ => Box::new(EffBwGreedyPolicy),
    }
}

fn shape(i: usize) -> AppTopology {
    match i % 4 {
        0 => AppTopology::Ring,
        1 => AppTopology::Tree,
        2 => AppTopology::RingTree,
        _ => AppTopology::AllToAll,
    }
}

/// A machine and the largest job asked of it: DGX-1 V100, the same with
/// GPU 0 in four MIG slices and GPU 1 in two, and DGX-2.
fn machine_by_index(i: usize) -> (Topology, usize) {
    match i % 3 {
        0 => (machines::dgx1_v100(), 5),
        1 => {
            let mig = PartitionPlan::new().split(0, 4).split(1, 2);
            (mig.apply(&machines::dgx1_v100()), 5)
        }
        _ => (machines::dgx2(), 12),
    }
}

/// One step of a random stream: allocate (shape, size, sensitivity, MIG
/// slices rather than whole GPUs, SLO-tagged) or release a
/// previously-allocated job first.
type Step = (usize, usize, bool, bool, bool, bool);

/// A score as the bits `schedule_digest` hashes — `==` on the floats would
/// take a stored `0.0` for a fresh `-0.0`.
type ScoreBits = ([u64; 3], LinkMix);

/// One step's outcome: the GPUs chosen and their score, or a rejection.
type Decided = Option<(Vec<usize>, ScoreBits)>;

fn bits(score: &scoring::MatchScore) -> ScoreBits {
    let floats = [
        score.aggregated_bw,
        score.predicted_eff_bw,
        score.preserved_bw,
    ];
    (floats.map(f64::to_bits), score.link_mix)
}

/// Previews, then commits `job`. The previewed and the committed score
/// must both be `score_allocation` of the chosen set on the state it was
/// chosen in — on a cached allocator that compares a stored score (the
/// allocation always hits its own preview, the preview hits whenever the
/// state recurred) with a fresh one.
fn decide_checked(alloc: &mut MapaAllocator, job: &JobSpec) -> Decided {
    let peeked = alloc.peek(job).expect("sizes are valid");
    let fresh = peeked
        .as_ref()
        .map(|(gpus, _)| bits(&alloc.score_allocation(job, gpus)));
    let outcome = alloc.try_allocate(job).expect("sizes are valid");
    let decided = outcome.map(|o| (o.gpus, bits(&o.score)));
    assert_eq!(peeked.map(|(gpus, score)| (gpus, bits(&score))), decided);
    assert_eq!(decided.as_ref().map(|(_, score)| *score), fresh);
    decided
}

/// Runs `steps` on one allocator and returns every decision with its
/// score bits, plus the cache counters.
fn run_stream(
    machine_idx: usize,
    policy_idx: usize,
    steps: &[Step],
    cached: bool,
) -> (Vec<Decided>, Option<CacheStats>) {
    let config = if cached {
        AllocatorConfig::cached()
    } else {
        AllocatorConfig::default()
    };
    let (machine, max_size) = machine_by_index(machine_idx);
    let mut alloc = MapaAllocator::new(machine, policy_by_index(policy_idx)).with_config(config);
    let mut trace = Vec::new();
    let mut held: Vec<u64> = Vec::new();
    for (i, &(shape_idx, size, sensitive, release_first, slices, slo)) in steps.iter().enumerate() {
        if release_first && !held.is_empty() {
            let victim = held.remove(shape_idx % held.len());
            alloc.release(victim).expect("held job releases");
        }
        let size = 1 + size % max_size;
        let demand = if slices {
            GpuDemand::Slices(size)
        } else {
            GpuDemand::Whole(size)
        };
        let mut job = JobSpec::new(i as u64 + 1, demand, Workload::Vgg16)
            .with_topology(shape(shape_idx))
            .with_bandwidth_sensitive(sensitive)
            .with_iterations(1);
        if slo {
            job = job.with_slo(25.0);
        }
        let decided = decide_checked(&mut alloc, &job);
        if decided.is_some() {
            held.push(job.id);
        }
        trace.push(decided);
    }
    (trace, alloc.cache_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cached allocator's full decision trace — GPU sets and score
    /// bits — equals the uncached one's, and every memoised score equals a
    /// fresh `score_allocation` (checked inside `run_stream`), for every
    /// policy and machine, under random allocate/release
    /// streams that mix shapes, sizes, demand kinds and SLO tags. A stream
    /// asks for a few (shape, size) requests over and over, under every
    /// flag, so that a request meets an occupancy it — or its sibling
    /// under another flag — has met before, and lookups hit as well as miss.
    #[test]
    fn cached_allocator_is_bit_identical_to_uncached(
        machine_idx in 0usize..3,
        policy_idx in 0usize..5,
        requests in proptest::collection::vec((0usize..16, 0usize..12, any::<bool>()), 1..4),
        picks in proptest::collection::vec(
            (0usize..3, any::<bool>(), any::<bool>(), any::<bool>()),
            1..30,
        ),
    ) {
        let steps: Vec<Step> = picks
            .iter()
            .map(|&(pick, sensitive, slices, slo)| {
                let (shape_idx, size, release_first) = requests[pick % requests.len()];
                (shape_idx, size, sensitive, release_first, slices, slo)
            })
            .collect();
        let (cached_trace, _) = run_stream(machine_idx, policy_idx, &steps, true);
        let (plain_trace, _) = run_stream(machine_idx, policy_idx, &steps, false);
        prop_assert_eq!(cached_trace, plain_trace);
    }
}

#[test]
fn cached_scores_keep_the_sign_of_their_zeros() {
    // 1 GPU (no pattern edge: AggBW is the empty sum, -0.0), then 5, then
    // 2: the DGX-1 is full, no free pair is left (preserved BW 0.0). The
    // second round meets the first round's states, so its previews answer
    // from the cache and `decide_checked` compares stored with fresh bits.
    let mut alloc = MapaAllocator::new(machines::dgx1_v100(), Box::new(PreservePolicy))
        .with_config(AllocatorConfig::cached());
    for _ in 0..2 {
        let scores: Vec<ScoreBits> = [1usize, 5, 2]
            .iter()
            .map(|&n| {
                let job = JobSpec::new(n as u64, GpuDemand::Whole(n), Workload::Vgg16);
                decide_checked(&mut alloc, &job).expect("fits").1
            })
            .collect();
        assert_eq!(scores[0].0[0], (-0.0f64).to_bits(), "1-GPU AggBW");
        assert_eq!(
            scores[2].0[2],
            0.0f64.to_bits(),
            "full-machine preserved BW"
        );
        for id in [1, 5, 2] {
            alloc.release(id).expect("held job releases");
        }
    }
    // 1 + 5 + 2 fills the 8 GPUs exactly, so no ask is refused for room
    // (a refusal would not be a lookup): 2 rounds × 3 jobs × (preview +
    // allocation) = 12 lookups, the first round's 3 previews the misses.
    let stats = alloc.cache_stats().expect("cache enabled");
    assert_eq!((stats.hits, stats.misses), (9, 3));
}

#[test]
fn repeated_shapes_on_recurring_states_hit_the_cache() {
    // A deterministic stream where every 4th step releases everything
    // back to idle, so identical (shape, occupancy) pairs recur. Each
    // step looks up twice (preview, then the allocation, which hits its
    // own preview), so recurrence shows in the misses.
    let steps: Vec<Step> = (0..24)
        .map(|i| (0usize, 2usize, true, i % 4 == 3, false, false))
        .collect();
    let misses = |steps: &[Step]| run_stream(0, 3, steps, true).1.expect("cached").misses;
    assert_eq!(misses(&steps[..1]), 1, "a first decision cannot hit");
    assert!(
        misses(&steps) < steps.len() as u64,
        "recurring states must be answered from the cache"
    );
}

#[test]
fn cached_simulation_matches_uncached_on_the_paper_mix() {
    let jobs = generator::paper_job_mix(29);
    let cached = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs);
    let plain = Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
        .with_config(SimConfig {
            cached: false,
            ..SimConfig::default()
        })
        .run(&jobs);
    assert_eq!(cached.records.len(), plain.records.len());
    for (a, b) in cached.records.iter().zip(&plain.records) {
        assert_eq!(a.job.id, b.job.id);
        assert_eq!(a.gpus, b.gpus);
        assert_eq!(a.finished_at, b.finished_at);
    }
    let cache = cached.cache.expect("cached run reports counters");
    assert!(cache.hits > 0, "a day of traffic must reuse decisions");
    assert!(plain.cache.is_none());
}
