//! `suite`: every workload, untraced repetitions plus the traced pass,
//! with the cross-run correctness checks, saved as one JSON document that
//! `compare` reads. `compare`: two such documents, cell by cell.

use crate::parent::{
    measure, print_table, reduce, reduce_values, spawn_rep, traced_pass, verdict, Reps,
};
use crate::registry::RUN_SECONDS;
use crate::registry::{Better, EndToEnd, Workload, END_TO_END};
use crate::result::RepResult;
use crate::stats::{quartiles, spread};
use mapa::report::{parse_json, Json};
use std::path::Path;

/// Runs the suite over `workloads`; returns whether every check passed.
pub fn run(
    workloads: &[Workload],
    seed: u64,
    reps: usize,
    quick: bool,
    out: &Path,
) -> Result<bool, String> {
    let mut all_ok = true;
    let mut blocks = Vec::new();
    for &workload in workloads {
        let untraced = measure(workload, seed, quick, Reps::Count(reps))?;
        print_table(workload, &untraced, &reduce(&untraced));
        let pass = traced_pass(workload, seed, quick, RUN_SECONDS as f64)?;
        let traced = pass.traced;
        print_table(workload, std::slice::from_ref(&traced), &traced.metrics);

        // Same seed: every repetition, traced or not, makes the same
        // placements. Another seed: different inputs, so different ones.
        let mut same_seed = untraced.clone();
        same_seed.extend(pass.reps);
        let mut v = verdict(&same_seed);
        let other = spawn_rep(workload, seed + 1, true, false)?;
        let this = if quick {
            untraced[0].clone()
        } else {
            spawn_rep(workload, seed, true, false)?
        };
        if other.digest == this.digest {
            v.problems.push(format!(
                "seeds {seed} and {} give the same digest {:016x}",
                seed + 1,
                this.digest
            ));
        }
        let overhead = traced.metrics["trace_overhead_pct"];
        if overhead > 30.0 {
            v.problems
                .push(format!("tracing overhead {overhead:.1}% exceeds 30%"));
        }
        let ok = v.problems.is_empty();
        println!(
            "-- {}: ops_attempted {} ops_failed {} {}",
            workload.name(),
            v.attempted,
            v.failed,
            if ok { "OK" } else { "FAILED" }
        );
        for problem in &v.problems {
            println!("   FAILED: {problem}");
        }
        all_ok &= ok;
        let reps_json: Vec<String> = untraced.iter().map(RepResult::to_json).collect();
        blocks.push(format!(
            "    \"{}\": {{\"ok\": {ok}, \"reps\": [\n      {}\n    ],\n    \"traced\": {}}}",
            workload.name(),
            reps_json.join(",\n      "),
            traced.to_json()
        ));
    }
    let doc = format!(
        "{{\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        blocks.join(",\n")
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results: {}", out.display());
    Ok(all_ok)
}

/// One workload's untraced repetitions out of a suite document.
fn reps_of(doc: &Json, workload: Workload) -> Result<Vec<RepResult>, String> {
    let Some(block) = doc.get("workloads").and_then(|w| w.get(workload.name())) else {
        return Ok(Vec::new());
    };
    block
        .get("reps")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no \"reps\" array", workload.name()))?
        .iter()
        .map(RepResult::from_value)
        .collect()
}

/// How one cell of the comparison came out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    Ok,
    /// The within-set spread exceeds the bound: the sets cannot tell.
    Unresolved,
    /// `b`'s value is worse than `a`'s by more than the bound.
    OutOfBound,
}

/// Compares one metric over two sets of repetitions, each reduced to the
/// value a run reports ([`reduce_values`]): `(a's value, b's value, how much
/// worse b's is as a share of a's, verdict)`.
pub fn compare_cell(a: &[f64], b: &[f64], m: &EndToEnd) -> (f64, f64, f64, Cell) {
    let (va, vb) = (reduce_values(m.name, a), reduce_values(m.name, b));
    let worse = match m.better {
        Better::Lower => (vb - va) / va.abs(),
        Better::Higher => (va - vb) / va.abs(),
    };
    let cell = if worse > m.bound {
        Cell::OutOfBound
    } else if spread(a) > m.bound || spread(b) > m.bound {
        Cell::Unresolved
    } else {
        Cell::Ok
    };
    (va, vb, worse, cell)
}

/// Compares two suite documents; returns whether no cell is out of bound
/// and the simulated results are identical.
pub fn compare(path_a: &Path, path_b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        parse_json(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut ok = true;
    println!(
        "{:<20} {:<16} {:>14} {:>22} {:>14} {:>22} {:>8} {:>6}  verdict",
        "workload", "metric", "value A", "quartiles A", "value B", "quartiles B", "worse", "bound"
    );
    for workload in Workload::ALL {
        let (ra, rb) = (reps_of(&a, workload)?, reps_of(&b, workload)?);
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        if ra[0].seed == rb[0].seed && ra[0].digest != rb[0].digest {
            ok = false;
            println!(
                "{:<20} schedule_digest differs: {:016x} vs {:016x}",
                workload.name(),
                ra[0].digest,
                rb[0].digest
            );
        }
        for m in END_TO_END {
            let column = |reps: &[RepResult]| -> Vec<f64> {
                reps.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (column(&ra), column(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (value_a, value_b, worse, cell) = compare_cell(&va, &vb, &m);
            let quart = |v: &[f64]| {
                quartiles(v).map_or("-".to_string(), |(q1, q3)| format!("{q1:.4}..{q3:.4}"))
            };
            println!(
                "{:<20} {:<16} {:>14.4} {:>22} {:>14.4} {:>22} {:>+7.1}% {:>5.0}%  {}",
                workload.name(),
                m.name,
                value_a,
                quart(&va),
                value_b,
                quart(&vb),
                worse * 100.0,
                m.bound * 100.0,
                match cell {
                    Cell::Ok => "ok",
                    Cell::Unresolved => "unresolved",
                    Cell::OutOfBound => "OUT OF BOUND",
                }
            );
            ok &= cell != Cell::OutOfBound;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_judged_by_direction_bound_and_spread() {
        let metric = |name: &str, bound: f64| EndToEnd {
            bound,
            ..*END_TO_END.iter().find(|m| m.name == name).unwrap()
        };
        let verdict = |a: &[f64], b: &[f64], m: EndToEnd| compare_cell(a, b, &m).3;
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        let slower = [112.0, 113.0, 111.0, 112.5, 112.0];
        // Lower is better: 12% worse is out of a 10% bound, fine in 25%.
        let lower = |bound| metric("peak_rss_mb", bound);
        assert_eq!(verdict(&steady, &slower, lower(0.10)), Cell::OutOfBound);
        assert_eq!(verdict(&steady, &slower, lower(0.25)), Cell::Ok);
        // Higher is better: the same move is an improvement, judged on the
        // third quartile (99.5..100.75 against 111.5..112.75).
        let (va, vb, worse, cell) = compare_cell(&steady, &slower, &metric("jobs_per_sec", 0.10));
        assert_eq!((va, vb), (100.75, 112.75));
        assert!(worse < 0.0);
        assert_eq!(cell, Cell::Ok);
        // A set that cannot resolve the bound says so.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(verdict(&noisy, &steady, lower(0.10)), Cell::Unresolved);
    }
}
