//! Stable schedule digests for golden-replay tests.
//!
//! A digest is a 64-bit FNV-1a hash over every *semantic* field of a
//! [`SimReport`]'s records — job ids, servers, GPU sets, the exact bit
//! patterns of submission/start/finish times, preemption and gang
//! ledgers — in completion order. Two runs produce the same digest if
//! and only if they produced the same schedule; wall-clock fields
//! (`scheduling_overhead`) are excluded because they legitimately vary
//! run to run.
//!
//! The replay harness (`tests/dispatch_equivalence.rs`,
//! `tests/preemption_invariants.rs`, `tests/gang_scheduling.rs`) checks
//! digests of fixed scenarios against golden values recorded **before**
//! the PR 6 event-core overhaul (`tests/golden/*.txt`), so "the new
//! engine replays the old engine bit-identically" is pinned forever,
//! not just argued. Regenerate goldens with `MAPA_BLESS=1` only when a
//! schedule change is *intended* and documented.

use crate::engine::SimReport;

/// The hasher behind every digest; it lives in `mapa-topology`, the one
/// crate the simulator and the agent's ledger both depend on.
pub use mapa_topology::Fnv1a;

/// Digest of a report's schedule: every semantic per-record field, in
/// completion order, plus the record count. Excludes wall-clock
/// scheduling overhead and cache counters (neither is part of the
/// schedule).
#[must_use]
pub fn schedule_digest(report: &SimReport) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(report.records.len() as u64);
    for r in &report.records {
        h.write_u64(r.job.id);
        h.write_u64(r.server as u64);
        h.write_u64(r.gpus.len() as u64);
        for &g in &r.gpus {
            h.write_u64(g as u64);
        }
        h.write_f64(r.submitted_at);
        h.write_f64(r.started_at);
        h.write_f64(r.finished_at);
        h.write_f64(r.execution_seconds);
        h.write_f64(r.queue_wait_seconds);
        h.write_u64(u64::from(r.preemptions));
        h.write_f64(r.preempted_seconds);
        h.write_u64(r.gang.map_or(u64::MAX, |g| g));
        h.write_f64(r.predicted_eff_bw);
        h.write_f64(r.measured_eff_bw);
        h.write_f64(r.workload_eff_bw);
        h.write_f64(r.aggregated_bw);
        h.write_f64(r.allocation_quality);
    }
    // The ledgers and queue accounting are part of the semantics too: a
    // refactor that keeps placements but drops a preemption or a
    // dispatch-block count must not slip through.
    h.write_f64(report.makespan_seconds);
    h.write_u64(report.preemption.jobs_preempted);
    h.write_f64(report.preemption.gpu_seconds_lost);
    h.write_f64(report.preemption.penalty_seconds_charged);
    h.write_u64(report.gangs.gangs_dispatched);
    h.write_u64(report.gangs.members_dispatched);
    h.write_f64(report.gangs.total_wait_seconds);
    h.write_f64(report.gangs.max_wait_seconds);
    h.write_u64(report.queue.max_depth as u64);
    h.write_f64(report.queue.mean_depth);
    h.write_u64(report.queue.dispatch_blocks);
    h.write_u64(report.queue.fragmentation_blocks);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        use mapa_core::policy::PreservePolicy;
        use mapa_topology::machines;
        use mapa_workloads::generator;

        let jobs = generator::paper_job_mix(3);
        let run = || {
            crate::Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy)).run(&jobs[..20])
        };
        let a = schedule_digest(&run());
        let b = schedule_digest(&run());
        assert_eq!(a, b, "same schedule, same digest");

        let fewer = crate::Simulation::new(machines::dgx1_v100(), Box::new(PreservePolicy))
            .run(&jobs[..19]);
        assert_ne!(a, schedule_digest(&fewer), "different schedule differs");
    }
}
