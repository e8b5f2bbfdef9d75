//! A yardstick for the speed of the core under us at this moment: the CPU
//! time of a fixed piece of work that shares no code with the repo, taken
//! right before and right after every timed region. The host is a slice of
//! a shared machine — two hardware threads of one core — whose speed moves
//! by ±25 % for seconds to minutes at a stretch, whatever runs on it;
//! host-time metrics are reported at the speed of the reference host
//! (`time × REFERENCE_MS ÷ yardstick`), which takes that movement out and
//! leaves what the program itself costs. CPU time, not wall: the yardstick
//! gauges how fast the core runs, not how often a neighbour takes it.

use crate::procfs::cpu_seconds;
use crate::workloads::SplitMix64;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// CPU milliseconds the yardstick takes on the reference host at its usual
/// speed.
pub const REFERENCE_MS: f64 = 6.0;

/// One pass: hash-map and B-tree churn, small allocations, a sort and some
/// floating point over a few hundred kilobytes — the instruction mix of a
/// discrete-event simulator, none of its code.
fn pass_ms() -> f64 {
    const STEPS: usize = 60_000;
    let start = cpu_seconds();
    let mut rng = SplitMix64(0x5eed_0123_4567_89ab);
    // Fixed hash keys: every process does exactly the same work.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut tree: BTreeMap<u64, f64> = BTreeMap::new();
    let mut acc = 0.0f64;
    for i in 0..STEPS {
        let k = rng.next();
        *map.entry(k % 4096).or_insert(0) += k >> 60;
        tree.insert(k % 8192, acc);
        if i % 4 == 0 {
            if let Some((_, v)) = tree.pop_first() {
                acc += (v + k as f64).sqrt();
            }
        }
        let boxed = Box::new([k; 4]);
        acc += black_box(boxed)[(k % 4) as usize] as f64 * 1e-19;
    }
    let mut counts: Vec<u64> = map.values().copied().collect();
    counts.sort_unstable();
    black_box((acc, counts, tree.len()));
    (cpu_seconds() - start) * 1e3
}

/// CPU milliseconds the yardstick takes right now: the faster of two
/// passes, so that one cold start does not read as a slow host.
pub fn yardstick_ms() -> f64 {
    pass_ms().min(pass_ms())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yardstick_reads_a_plausible_time() {
        let ms = yardstick_ms();
        assert!(ms > 0.1 && ms < 1_000.0, "{ms} ms");
    }
}
