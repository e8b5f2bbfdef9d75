//! Concurrency safety of the agent's lock + ledger protocol, checked
//! with many fake agents hammering one state directory:
//!
//! * **mutual exclusion** — no GPU is ever held by two live leases at
//!   the same time (a shared holder map is asserted at every claim);
//! * **conservation** — every claimed GPU is released exactly once, and
//!   the machine ends with its full device set free and an empty ledger;
//! * **a holder that dies frees the lock** — the kernel lock goes with
//!   the holder's open file, so contenders are never left waiting on an
//!   agent that is gone, while a live holder blocks them until it lets go.
//!
//! All agents run in one process with synthetic pids and an injected
//! liveness registry (which prunes dead agents' leases), so the test
//! needs no real processes, GPUs, or drivers.

use mapa::agent::LivenessFn;
use mapa::prelude::*;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const AGENTS: usize = 8;
const GPUS: usize = 8;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mapa-agent-locking-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Registry-backed liveness: pid is alive iff the registry contains it.
fn registry_liveness(registry: &Arc<Mutex<HashSet<u32>>>) -> LivenessFn {
    let registry = Arc::clone(registry);
    Arc::new(move |pid| registry.lock().unwrap().contains(&pid))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// ≥8 concurrent agents on one state dir: claims never overlap, and
    /// claims + releases conserve the device set.
    #[test]
    fn concurrent_agents_never_double_book(seed in 0u64..1000) {
        let dir = tmpdir(&format!("prop-{seed}"));
        let registry = Arc::new(Mutex::new(
            (0..AGENTS as u32).map(|i| 5000 + i).collect::<HashSet<_>>(),
        ));
        // gpu -> lease currently holding it; the double-booking detector.
        let held: Arc<Mutex<HashMap<usize, u64>>> = Arc::new(Mutex::new(HashMap::new()));
        let claims = Arc::new(Mutex::new(Vec::<(u64, Vec<usize>)>::new()));
        let releases = Arc::new(Mutex::new(Vec::<(u64, Vec<usize>)>::new()));

        std::thread::scope(|scope| {
            for a in 0..AGENTS {
                let dir = dir.clone();
                let registry = Arc::clone(&registry);
                let held = Arc::clone(&held);
                let claims = Arc::clone(&claims);
                let releases = Arc::clone(&releases);
                scope.spawn(move || {
                    let pid = 5000 + a as u32;
                    let state = StateDir::new(&dir)
                        .unwrap()
                        .with_pid(pid)
                        .with_liveness(registry_liveness(&registry))
                        .with_lock_timeout(Duration::from_secs(30));
                    let mut agent = Agent::new(FakeProbe::dgx1_v100(), state);
                    for round in 0..6u64 {
                        // Deterministic per-(seed, agent, round) demand in 1..=3.
                        let want = 1 + ((seed + a as u64 * 7 + round * 13) % 3) as usize;
                        match agent.allocate(&AllocateRequest::new(want)) {
                            Ok(placement) => {
                                {
                                    let mut map = held.lock().unwrap();
                                    for &g in &placement.gpus {
                                        let prev = map.insert(g, placement.lease_id);
                                        assert!(
                                            prev.is_none(),
                                            "GPU {g} double-booked: lease {} and lease {} \
                                             hold it at once",
                                            prev.unwrap(),
                                            placement.lease_id
                                        );
                                    }
                                    claims
                                        .lock()
                                        .unwrap()
                                        .push((placement.lease_id, placement.gpus.clone()));
                                }
                                std::thread::yield_now();
                                {
                                    let mut map = held.lock().unwrap();
                                    let released = agent.release(placement.lease_id).unwrap();
                                    assert_eq!(released, placement.gpus);
                                    for &g in &released {
                                        assert_eq!(map.remove(&g), Some(placement.lease_id));
                                    }
                                    releases.lock().unwrap().push((placement.lease_id, released));
                                }
                            }
                            Err(AgentError::Unplaceable { .. }) => {
                                // Machine momentarily full — legitimate under
                                // contention; try again next round.
                                std::thread::yield_now();
                            }
                            Err(other) => panic!("agent {a} round {round}: {other}"),
                        }
                    }
                });
            }
        });

        // Conservation: every claim was released, nothing is held, and the
        // machine ends whole.
        let claims = claims.lock().unwrap();
        let releases = releases.lock().unwrap();
        prop_assert!(held.lock().unwrap().is_empty());
        let mut claimed: Vec<_> = claims.iter().cloned().collect();
        let mut released: Vec<_> = releases.iter().cloned().collect();
        claimed.sort();
        released.sort();
        prop_assert_eq!(claimed, released);

        let state = StateDir::new(&dir)
            .unwrap()
            .with_pid(4999)
            .with_liveness(registry_liveness(&registry));
        let mut checker = Agent::new(FakeProbe::dgx1_v100(), state);
        let status = checker.status().unwrap();
        prop_assert_eq!(status.free_gpus(), (0..GPUS).collect::<Vec<_>>());
        prop_assert!(status.leases.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A holder that dies — here a thread that panics while holding the
/// lock — frees it: every contender then locks.
#[test]
fn a_holder_that_dies_frees_the_lock() {
    let dir = tmpdir("dies");
    let dying = std::thread::spawn({
        let dir = dir.clone();
        move || {
            let state = StateDir::new(&dir).unwrap().with_pid(666);
            let _guard = state.lock().unwrap();
            panic!("the holder dies with the lock held");
        }
    });
    assert!(dying.join().is_err(), "the holder must have died");

    let states: Vec<StateDir> = (0..AGENTS)
        .map(|a| {
            StateDir::new(&dir)
                .unwrap()
                .with_pid(6000 + a as u32)
                .with_lock_timeout(Duration::from_secs(30))
        })
        .collect();
    std::thread::scope(|scope| {
        for state in &states {
            scope.spawn(move || {
                let guard = state.lock().expect("every contender eventually locks");
                std::thread::yield_now();
                drop(guard);
            });
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live holder blocks contenders, who time out naming it, until it
/// drops its guard.
#[test]
fn live_locks_block_until_released() {
    let dir = tmpdir("live");
    let holder = StateDir::new(&dir).unwrap().with_pid(7000);
    let contender = StateDir::new(&dir)
        .unwrap()
        .with_pid(7001)
        .with_lock_timeout(Duration::from_millis(50));
    let guard = holder.lock().unwrap();
    assert!(matches!(
        contender.lock(),
        Err(AgentError::LockTimeout {
            holder: Some(7000),
            ..
        })
    ));
    drop(guard);
    assert!(contender.lock().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}
