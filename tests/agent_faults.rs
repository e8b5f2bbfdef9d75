//! Fault-injection coverage for the agent, all offline through
//! [`FakeProbe`]:
//!
//! * **ghost processes** — a live pid holding GPU memory at 0%
//!   utilization keeps the device non-idle (and unallocatable), while a
//!   dead pid in the probe's process table is a stale accounting entry
//!   the agent disregards;
//! * **corrupt ledgers** — a truncated or bit-flipped ledger makes every
//!   operation fail closed with a clear error, no partial actuation,
//!   and the corrupt file left in place for forensics;
//! * **probe faults mid-allocate** — a probe error inside `allocate`
//!   rolls back completely: lock released, ledger untouched, the next
//!   operation proceeds normally.

use mapa::agent::{LivenessFn, ProbeError};
use mapa::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mapa-agent-faults-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Whether a fresh agent locks `dir` at once.
fn lock_is_free(dir: &Path) -> bool {
    StateDir::new(dir)
        .unwrap()
        .with_lock_timeout(Duration::ZERO)
        .lock()
        .is_ok()
}

/// Liveness that knows exactly one live pid besides the agent's own.
fn liveness(own: u32, other_live: u32) -> LivenessFn {
    Arc::new(move |pid| pid == own || pid == other_live)
}

#[test]
fn ghost_process_keeps_gpu_non_idle_stale_entry_does_not() {
    let dir = tmpdir("ghost");
    // GPU 0: ghost — live pid 4242 holds 2 GiB at 0% utilization.
    // GPU 1: stale — dead pid 666 "holds" 8 GiB per the probe's stale
    //        accounting; the memory is discounted and the GPU is idle.
    let probe = FakeProbe::dgx1_v100()
        .with_process(0, 4242, 2048)
        .with_process(1, 666, 8192);
    let state = StateDir::new(&dir)
        .unwrap()
        .with_pid(9001)
        .with_liveness(liveness(9001, 4242));
    let mut agent = Agent::new(probe, state);

    let status = agent.status().unwrap();
    assert_eq!(
        status.gpus[0].occupancy,
        Occupancy::GhostProcess {
            pid: 4242,
            memory_mib: 2048
        }
    );
    assert!(!status.gpus[0].is_free(), "ghost keeps GPU 0 occupied");
    assert!(
        status.gpus[1].occupancy.is_idle(),
        "stale dead-pid entry must not hold GPU 1: {:?}",
        status.gpus[1].occupancy
    );
    assert_eq!(status.free_gpus(), vec![1, 2, 3, 4, 5, 6, 7]);

    // The allocator sees it the same way: 8 never fits, 7 never touches
    // GPU 0.
    assert!(matches!(
        agent.allocate(&AllocateRequest::new(8)),
        Err(AgentError::Unplaceable {
            requested: 8,
            free: 7
        })
    ));
    let placement = agent.allocate(&AllocateRequest::new(7)).unwrap();
    assert!(!placement.gpus.contains(&0));
    assert!(placement.gpus.contains(&1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unattributed_memory_above_threshold_holds_the_gpu() {
    let dir = tmpdir("memory");
    // 300 MiB of unattributed memory exceeds the default 256 MiB idle
    // threshold; 100 MiB does not.
    let probe = FakeProbe::dgx1_v100()
        .with_memory_used(2, 300)
        .with_memory_used(3, 100);
    let state = StateDir::new(&dir).unwrap();
    let mut agent = Agent::new(probe, state);
    let status = agent.status().unwrap();
    assert_eq!(status.gpus[2].occupancy, Occupancy::MemoryHeld { mib: 300 });
    assert!(status.gpus[3].occupancy.is_idle());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_ledger_fails_closed_with_no_partial_actuation() {
    let dir = tmpdir("corrupt");
    // Build a valid one-lease ledger, then corrupt it in two ways.
    let state = StateDir::new(&dir).unwrap();
    let mut agent = Agent::new(FakeProbe::dgx1_v100(), state);
    agent.allocate(&AllocateRequest::new(2)).unwrap();
    let ledger_path = dir.join("agent.ledger");
    let good = std::fs::read_to_string(&ledger_path).unwrap();

    let cases: Vec<(&str, String)> = vec![
        ("truncated", good[..good.len() / 2].to_string()),
        ("bit-flipped", {
            let mut bytes = good.clone().into_bytes();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            String::from_utf8(bytes).unwrap()
        }),
        ("garbage", "not a ledger at all\n".to_string()),
    ];
    for (name, bad) in cases {
        std::fs::write(&ledger_path, &bad).unwrap();
        let state = StateDir::new(&dir).unwrap();
        let mut agent = Agent::new(FakeProbe::dgx1_v100(), state);

        // Every operation fails closed with a clear, actionable error...
        for (op, err) in [
            (
                "allocate",
                agent
                    .allocate(&AllocateRequest::new(1))
                    .map(|_| ())
                    .unwrap_err(),
            ),
            ("status", agent.status().map(|_| ()).unwrap_err()),
            ("release", agent.release(1).map(|_| ()).unwrap_err()),
        ] {
            assert!(
                matches!(err, AgentError::LedgerCorrupt { .. }),
                "{name}/{op}: expected LedgerCorrupt, got {err}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains("corrupt"),
                "{name}/{op}: unhelpful error '{msg}'"
            );
            assert!(
                msg.contains("agent.ledger"),
                "{name}/{op}: error must name the file: '{msg}'"
            );
        }
        // ...with no partial actuation: the corrupt file is untouched
        // (not "repaired" into silent lease loss) and the lock is free.
        assert_eq!(
            std::fs::read_to_string(&ledger_path).unwrap(),
            bad,
            "{name}"
        );
        assert!(lock_is_free(&dir), "{name}: lock leaked");
    }

    // Restoring the intact ledger restores service — nothing was lost.
    std::fs::write(&ledger_path, &good).unwrap();
    let state = StateDir::new(&dir).unwrap();
    let mut agent = Agent::new(FakeProbe::dgx1_v100(), state);
    let status = agent.status().unwrap();
    assert_eq!(status.leases.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn probe_fault_mid_allocate_rolls_back_the_lock() {
    let dir = tmpdir("probe-fault");
    // Call 1 (first allocate) succeeds, call 2 (second allocate) fails,
    // call 3 (status) succeeds.
    let probe = FakeProbe::dgx1_v100().fail_on_snapshot(2);
    let state = StateDir::new(&dir).unwrap();
    let mut agent = Agent::new(probe, state);

    let first = agent.allocate(&AllocateRequest::new(3)).unwrap();
    let before = std::fs::read_to_string(dir.join("agent.ledger")).unwrap();

    let err = agent.allocate(&AllocateRequest::new(1)).unwrap_err();
    assert!(
        matches!(err, AgentError::Probe(ProbeError::Injected(_))),
        "expected the injected probe fault, got {err}"
    );
    // Rollback: the lock is free and the ledger is byte-identical.
    assert!(
        lock_is_free(&dir),
        "probe fault must not leak the agent lock"
    );
    let after = std::fs::read_to_string(dir.join("agent.ledger")).unwrap();
    assert_eq!(before, after, "probe fault must not mutate the ledger");

    // The agent recovers on the next call without manual cleanup.
    let status = agent.status().unwrap();
    assert_eq!(status.leases.len(), 1);
    assert_eq!(status.leases[0].id, first.lease_id);
    let _ = std::fs::remove_dir_all(&dir);
}
