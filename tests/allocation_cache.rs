//! Equivalence proof for the allocation fast path: under arbitrary job
//! streams with interleaved releases, a cache-enabled allocator must
//! produce *bit-identical* placements (and rejections) to the uncached
//! reference path, for every built-in policy. This is the property the
//! simulator relies on when it turns the cache on by default.

use mapa::core::policy::{
    AllocationPolicy, BaselinePolicy, EffBwGreedyPolicy, GreedyPolicy, PreservePolicy,
    TopoAwarePolicy,
};
use mapa::prelude::*;
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
            (mig.apply(&machines::dgx1_v100()).into_topology(), 5)
        }
        _ => (machines::dgx2(), 12),
    }
}

/// One step of a random stream: allocate (shape, size, sensitivity, MIG
/// slices rather than whole GPUs, SLO-tagged) or release a
/// previously-allocated job first.
type Step = (usize, usize, bool, bool, bool, bool);

fn run_stream(
    machine_idx: usize,
    policy_idx: usize,
    steps: &[Step],
    cached: bool,
) -> (Vec<Option<Vec<usize>>>, u64) {
    let config = if cached {
        AllocatorConfig::cached()
    } else {
        AllocatorConfig::default()
    };
    let (machine, mut max_size) = machine_by_index(machine_idx);
    let mut alloc = MapaAllocator::new(machine, policy_by_index(policy_idx)).with_config(config);
    if alloc.policy_name() == "Greedy" {
        // Greedy streams embeddings, not vertex sets: it stops at 6 GPUs,
        // as `reproduce`'s fig19 does on 16-GPU machines.
        max_size = max_size.min(6);
    }
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
        let outcome = alloc.try_allocate(&job).expect("sizes are valid");
        if outcome.is_some() {
            held.push(job.id);
        }
        trace.push(outcome.map(|o| o.gpus));
    }
    let hits = alloc.cache_stats().map_or(0, |c| c.hits);
    (trace, hits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The cached allocator's full decision trace equals the uncached
    /// one's, for every policy and machine, under random allocate/release
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
fn repeated_shapes_on_recurring_states_hit_the_cache() {
    // A deterministic stream where every 4th step releases everything
    // back to idle, so identical (shape, occupancy) pairs recur.
    let steps: Vec<Step> = (0..24)
        .map(|i| (0usize, 2usize, true, i % 4 == 3, false, false))
        .collect();
    let (_, hits_without_recurrence) = run_stream(0, 3, &steps[..1], true);
    let (_, hits) = run_stream(0, 3, &steps, true);
    assert_eq!(hits_without_recurrence, 0, "single decision cannot hit");
    assert!(hits > 0, "recurring states must produce cache hits");
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
