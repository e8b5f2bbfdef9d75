//! The parent side: spawns one child process per repetition, one after
//! another (the host has two vCPUs; nothing here runs concurrently),
//! reduces the repetitions to one value per metric and runs the
//! correctness checks.

use crate::registry::{units, Better, Reduce, Workload, END_TO_END};
use crate::result::{number, RepResult};
use crate::stats::{fast_quartile, median};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// A repetition whose main thread waited for a CPU longer than this share
/// of its wall time is marked noisy (reported, never discarded).
pub const NOISY_RUNQ_PCT: f64 = 2.0;
/// A time budget runs at least this many repetitions: a quartile of fewer
/// is a single sample.
const MIN_REPS: usize = 3;
/// The traced pass alternates at most this many untraced and traced
/// repetitions.
const MAX_TRACED_PAIRS: usize = 3;

/// How many repetitions to run.
#[derive(Debug, Clone, Copy)]
pub enum Reps {
    Count(usize),
    /// Repeat for this many seconds of wall time, set-up included.
    Seconds(f64),
}

/// Whether a budget of `seconds` that began at `started` has no room for
/// another child as long as the longest so far.
fn spent(started: Instant, seconds: f64, longest_child: Duration) -> bool {
    (started.elapsed() + longest_child).as_secs_f64() > seconds
}

/// Runs one repetition of `workload` in a child process.
pub fn spawn_rep(
    workload: Workload,
    seed: u64,
    quick: bool,
    traced: bool,
) -> Result<RepResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spawned_at = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_err(|e| format!("clock before 1970: {e}"))?
        .as_nanos();
    // `output` waits for the child and reaps it; stderr passes through.
    let out = Command::new(exe)
        .args(["child", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--quick", if quick { "1" } else { "0" }])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--spawned-at", &spawned_at.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {} exited with {}",
            workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| "child printed nothing".to_string())?;
    RepResult::from_json(line).map_err(|e| format!("child result: {e}"))
}

/// Runs the repetitions of one workload, sequentially.
pub fn measure(
    workload: Workload,
    seed: u64,
    quick: bool,
    reps: Reps,
) -> Result<Vec<RepResult>, String> {
    let started = Instant::now();
    let mut longest_child = Duration::ZERO;
    let mut out = Vec::new();
    loop {
        let done = match reps {
            Reps::Count(n) => out.len() >= n.max(1),
            Reps::Seconds(s) => out.len() >= MIN_REPS && spent(started, s, longest_child),
        };
        if done {
            return Ok(out);
        }
        let spawned = Instant::now();
        out.push(spawn_rep(workload, seed, quick, false)?);
        longest_child = longest_child.max(spawned.elapsed());
    }
}

/// The verdict on one workload's repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, one line each; empty when `correct`.
    pub problems: Vec<String>,
}

/// Checks the repetitions of one (workload, seed): nothing failed and
/// every repetition made the same placements. A digest mismatch fails the
/// whole workload — no number from a non-deterministic run means much.
pub fn verdict(reps: &[RepResult]) -> Verdict {
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reps.iter().map(|r| r.failed).sum();
    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }
    if let Some(first) = reps.first() {
        if reps.iter().any(|r| r.digest != first.digest) {
            let digests: Vec<String> = reps.iter().map(|r| format!("{:016x}", r.digest)).collect();
            problems.push(format!(
                "schedule digests differ between repetitions: {}",
                digests.join(" ")
            ));
            failed = attempted;
        }
    }
    Verdict {
        correct: problems.is_empty() && attempted > 0,
        attempted,
        failed,
        problems,
    }
}

/// The one value a set of repetitions reports for metric `name`: an
/// end-to-end metric as its [`Reduce`] says, anything else as the median.
pub fn reduce_values(name: &str, values: &[f64]) -> f64 {
    match END_TO_END.iter().find(|m| m.name == name) {
        Some(m) if m.reduce == Reduce::FastQuartile => {
            fast_quartile(values, m.better == Better::Higher)
        }
        _ => median(values),
    }
}

/// [`reduce_values`] of every metric the repetitions report.
pub fn reduce(reps: &[RepResult]) -> BTreeMap<String, f64> {
    let mut columns: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for (name, value) in &rep.metrics {
            columns.entry(name).or_default().push(*value);
        }
    }
    columns
        .into_iter()
        .map(|(name, values)| (name.to_string(), reduce_values(name, &values)))
        .collect()
}

/// Prints every metric by name with its unit, and the repetitions behind
/// each value.
pub fn print_table(workload: Workload, reps: &[RepResult], metrics: &BTreeMap<String, f64>) {
    let units = units();
    let first = &reps[0];
    println!(
        "== {} seed {} | {} repetition(s) | digest {:016x} | {} decision samples",
        workload.name(),
        first.seed,
        reps.len(),
        first.digest,
        first.samples
    );
    for (name, value) in metrics {
        let each: Vec<String> = reps
            .iter()
            .filter_map(|r| r.metrics.get(name))
            .map(|v| format!("{v:.6}"))
            .collect();
        let detail = if each.len() > 1 {
            format!("  [{}]", each.join(" "))
        } else {
            String::new()
        };
        println!(
            "{name:<48} {value:>16.6} {:<6}{detail}",
            units.get(name).copied().unwrap_or("")
        );
    }
    for (i, rep) in reps.iter().enumerate() {
        if rep.runq_wait_pct > NOISY_RUNQ_PCT {
            println!(
                "   repetition {i} noisy: main thread waited for a CPU {:.2}% of {:.2} s",
                rep.runq_wait_pct, rep.wall_s
            );
        }
    }
}

/// The one-line result object the benchmark contract asks for.
pub fn contract_line(verdict: &Verdict, metrics: &BTreeMap<String, f64>) -> String {
    let units = units();
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                number(*value),
                units.get(name).copied().unwrap_or("")
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct,
        verdict.attempted,
        verdict.failed,
        metrics.join(", ")
    )
}

/// What the traced pass of one workload ran and found.
pub struct TracedPass {
    /// Untraced and traced repetitions in turn, an untraced one first;
    /// all of them must make the same placements.
    pub reps: Vec<RepResult>,
    /// The traced repetitions as one: the median over them of every
    /// per-layer metric and of the clock readings, plus
    /// `trace_overhead_pct`: median traced wall over median untraced wall.
    pub traced: RepResult,
}

/// The traced pass: pairs of one untraced and one traced repetition, as
/// many as fit `seconds` (at least one, at most [`MAX_TRACED_PAIRS`]).
pub fn traced_pass(
    workload: Workload,
    seed: u64,
    quick: bool,
    seconds: f64,
) -> Result<TracedPass, String> {
    let started = Instant::now();
    let mut longest_pair = Duration::ZERO;
    let mut reps = Vec::new();
    while reps.is_empty()
        || (reps.len() < 2 * MAX_TRACED_PAIRS && !spent(started, seconds, longest_pair))
    {
        let spawned = Instant::now();
        reps.push(spawn_rep(workload, seed, quick, false)?);
        reps.push(spawn_rep(workload, seed, quick, true)?);
        longest_pair = longest_pair.max(spawned.elapsed());
    }
    let (traced, plain): (Vec<RepResult>, Vec<RepResult>) =
        reps.iter().cloned().partition(|r| r.traced);
    let median_of = |reps: &[RepResult], f: &dyn Fn(&RepResult) -> f64| {
        median(&reps.iter().map(f).collect::<Vec<_>>())
    };
    // Walls at the reference host's speed, like every reported host time.
    let wall_at_ref = |r: &RepResult| r.wall_s / r.yardstick_ms;
    let mut summary = traced.last().expect("at least one pair ran").clone();
    summary.wall_s = median_of(&traced, &|r| r.wall_s);
    summary.yardstick_ms = median_of(&traced, &|r| r.yardstick_ms);
    summary.runq_wait_pct = median_of(&traced, &|r| r.runq_wait_pct);
    summary.metrics = reduce(&traced);
    summary.metrics.insert(
        "trace_overhead_pct".to_string(),
        (median_of(&traced, &wall_at_ref) / median_of(&plain, &wall_at_ref) - 1.0) * 100.0,
    );
    Ok(TracedPass {
        reps,
        traced: summary,
    })
}

/// The benchmark contract's entry point: measures one workload for
/// `seconds`, prints the table and, last, the result line. Returns whether
/// the run was correct.
pub fn contract_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<bool, String> {
    let (reps, metrics) = if traced {
        let pass = traced_pass(workload, seed, quick, seconds)?;
        print_table(
            workload,
            std::slice::from_ref(&pass.traced),
            &pass.traced.metrics,
        );
        (pass.reps, pass.traced.metrics)
    } else {
        let reps = if quick {
            Reps::Count(1)
        } else {
            Reps::Seconds(seconds)
        };
        let reps = measure(workload, seed, quick, reps)?;
        let metrics = reduce(&reps);
        print_table(workload, &reps, &metrics);
        (reps, metrics)
    };
    let verdict = verdict(&reps);
    for problem in &verdict.problems {
        println!("FAILED: {problem}");
    }
    println!("{}", contract_line(&verdict, &metrics));
    Ok(verdict.correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(digest: u64, failed: u64, jobs_per_sec: f64) -> RepResult {
        RepResult {
            workload: "paper_server".into(),
            seed: 11,
            traced: false,
            attempted: 100,
            failed,
            digest,
            wall_s: 1.0,
            yardstick_ms: 6.0,
            samples: 100,
            runq_wait_pct: 0.0,
            metrics: [("jobs_per_sec".to_string(), jobs_per_sec)]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn verdict_counts_failures_and_fails_everything_on_a_digest_mismatch() {
        let ok = verdict(&[rep(7, 0, 1.0), rep(7, 0, 2.0)]);
        assert!(ok.correct);
        assert_eq!((ok.attempted, ok.failed), (200, 0));

        let lost = verdict(&[rep(7, 2, 1.0), rep(7, 0, 2.0)]);
        assert!(!lost.correct);
        assert_eq!(lost.failed, 2);

        let drift = verdict(&[rep(7, 0, 1.0), rep(8, 0, 2.0)]);
        assert!(!drift.correct);
        assert_eq!(drift.failed, drift.attempted);
        assert!(!verdict(&[]).correct);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_parses() {
        let reps = [rep(7, 0, 10.0), rep(7, 0, 30.0), rep(7, 0, 20.0)];
        let metrics = reduce(&reps);
        // The third quartile: higher is better.
        assert_eq!(metrics["jobs_per_sec"], 30.0);
        let line = contract_line(&verdict(&reps), &metrics);
        let doc = mapa::report::parse_json(&line).unwrap();
        let mapa::report::Json::Object(map) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("jobs_per_sec").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(30.0));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
    }
}
