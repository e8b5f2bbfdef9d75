//! The repo's benchmark harness (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one workload, result line last
//! run.sh suite [--workload NAME] [--seed N] [--reps N] [--quick] [--out FILE]
//! run.sh compare A.json B.json
//! run.sh manifest                                           prints BENCHMARK.json
//! ```

mod layers;
mod parent;
mod procfs;
mod registry;
mod result;
mod stats;
mod suite;
mod trace;
mod workloads;
mod yardstick;

#[cfg(test)]
mod transparency;

use registry::{Workload, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, UNIX_EPOCH};

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 11;
/// Repetitions per workload `suite` runs when not told otherwise.
const DEFAULT_REPS: usize = 25;

/// `--key value` pairs, bare `--flag`s and positionals of a command line.
struct Args {
    options: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], flags: &[&str]) -> Self {
        let mut args = Args {
            options: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if flags.contains(&key) => args.options.push((key.to_string(), None)),
                Some(key) => args.options.push((key.to_string(), it.next().cloned())),
                None => args.positional.push(arg.clone()),
            }
        }
        args
    }

    fn flag(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    fn value<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.options.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, Some(v))) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot read '{v}'")),
            Some((_, None)) => Err(format!("--{key} needs a value")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.value::<String>("workload")? {
            None => Ok(None),
            Some(name) => Workload::from_name(&name).map(Some).ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (one of: {})", names.join(", "))
            }),
        }
    }
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The settings of a manifest's `[profile.release]` table, sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut settings: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    settings.sort();
    settings
}

/// The harness is its own workspace, so the root's release profile does
/// not reach it; refuse to measure anything but the shipped codegen.
fn check_release_profile() -> Result<(), String> {
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
    let root = release_profile(&read(bench_dir().join("../Cargo.toml"))?);
    let own = release_profile(&read(bench_dir().join("Cargo.toml"))?);
    if root == own {
        Ok(())
    } else {
        Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root's {root:?}"
        ))
    }
}

fn child(args: &Args) -> Result<bool, String> {
    let spawned_ns: u64 = args
        .value("spawned-at")?
        .ok_or("child needs --spawned-at")?;
    let traced = args.value::<u8>("trace")?.unwrap_or(0) == 1;
    let ctx = workloads::RepCtx {
        workload: args.workload()?.ok_or("child needs --workload")?,
        seed: args.value("seed")?.unwrap_or(DEFAULT_SEED),
        quick: args.value::<u8>("quick")?.unwrap_or(0) == 1,
        spawned_at: UNIX_EPOCH + Duration::from_nanos(spawned_ns),
        tracer: traced.then(trace::Tracer::new),
    };
    let result = workloads::run_rep(&ctx);
    if let Some(tracer) = &ctx.tracer {
        let path = bench_dir()
            .join("out")
            .join(format!("trace-{}.jsonl", ctx.workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.to_json());
    Ok(true)
}

fn run(raw: &[String]) -> Result<bool, String> {
    let command = raw.first().map(String::as_str);
    let rest = raw.get(1..).unwrap_or_default();
    match command {
        Some("child") => child(&Args::parse(rest, &[])),
        Some("manifest") => {
            print!("{}", registry::manifest());
            Ok(true)
        }
        Some("compare") => {
            let args = Args::parse(rest, &[]);
            let [a, b] = args.positional.as_slice() else {
                return Err("usage: compare A.json B.json".into());
            };
            suite::compare(Path::new(a), Path::new(b))
        }
        Some("suite") => {
            check_release_profile()?;
            let args = Args::parse(rest, &["quick"]);
            let seed = args.value("seed")?.unwrap_or(DEFAULT_SEED);
            let quick = args.flag("quick");
            let reps = if quick {
                1
            } else {
                args.value("reps")?.unwrap_or(DEFAULT_REPS)
            };
            let workloads = args.workload()?.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            let out = args
                .value::<PathBuf>("out")?
                .unwrap_or_else(|| bench_dir().join("out").join(format!("suite-{seed}.json")));
            suite::run(&workloads, seed, reps, quick, &out)
        }
        _ => {
            check_release_profile()?;
            let args = Args::parse(raw, &["quick"]);
            let workload = args.workload()?.ok_or(
                "usage: --workload NAME --seed N --seconds S --trace 0|1 \
                 | suite … | compare A B | manifest",
            )?;
            parent::contract_run(
                workload,
                args.value("seed")?.unwrap_or(DEFAULT_SEED),
                args.value("seconds")?.unwrap_or(RUN_SECONDS as f64),
                args.value::<u8>("trace")?.unwrap_or(0) == 1,
                args.flag("quick"),
            )
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_ignores_layout_but_not_settings() {
        let a = "[package]\nname = \"x\"\n\n[profile.release]\n# why\nlto = \"thin\"\n\n[profile.bench]\ndebug = false\n";
        let b = "[profile.release]\nlto=\"thin\"\n";
        let c = "[profile.release]\nlto = \"fat\"\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_ne!(release_profile(a), release_profile(c));
        assert!(release_profile("[package]\n").is_empty());
        check_release_profile().expect("the committed manifests agree");
    }

    #[test]
    fn args_split_options_flags_and_positionals() {
        let raw: Vec<String> = [
            "--seed",
            "12",
            "--quick",
            "a.json",
            "--workload",
            "alloc_churn",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = Args::parse(&raw, &["quick"]);
        assert_eq!(args.value::<u64>("seed").unwrap(), Some(12));
        assert!(args.flag("quick"));
        assert_eq!(args.positional, ["a.json"]);
        assert_eq!(args.workload().unwrap(), Some(Workload::AllocChurn));
        assert!(args.value::<u64>("workload").is_err());
        assert_eq!(args.value::<u64>("reps").unwrap(), None);
    }
}
