//! A command whose reader stops early (`mapa-sched machines | head -1`)
//! ends quietly: each binary, started with the read end of its standard
//! output already closed, exits 0 without a panic. `print!` panics on the
//! failed write instead, and the process exits 101.

use std::io::pipe;
use std::process::{Command, Output};

/// Runs `bin` with `args`, its standard output a pipe nobody reads.
fn run_unread(bin: &str, args: &[&str]) -> Output {
    let (reader, writer) = pipe().expect("a pipe");
    drop(reader);
    Command::new(bin)
        .args(args)
        .stdout(writer)
        .output()
        .expect("the binary starts")
}

fn assert_quiet(what: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert_ne!(out.status.code(), Some(101), "{what}: {stderr}");
    assert!(out.status.success(), "{what}: {:?} {stderr}", out.status);
}

#[test]
fn a_closed_stdout_ends_each_binary_quietly() {
    let sched = env!("CARGO_BIN_EXE_mapa-sched");
    assert_quiet("machines", &run_unread(sched, &["machines"]));
    assert_quiet("--help", &run_unread(sched, &["--help"]));
    assert_quiet(
        "generate",
        &run_unread(sched, &["generate", "--count", "20000"]),
    );

    let dir = std::env::temp_dir().join(format!("mapa-cli-closed-stdout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = dir.to_str().expect("a UTF-8 temp path");
    let agent = env!("CARGO_BIN_EXE_mapa-agent");
    let probe = ["probe", "--probe", "fake:dgx-1-v100", "--state-dir", state];
    assert_quiet("probe", &run_unread(agent, &probe));
    // The lease's artifact is written before the lines nobody reads.
    let artifact = dir.join("placement.json");
    let json = artifact.to_str().expect("a UTF-8 temp path");
    let allocate = [&["allocate", "--gpus", "2", "--json", json], &probe[1..]].concat();
    assert_quiet("allocate", &run_unread(agent, &allocate));
    assert!(artifact.exists(), "allocate wrote no --json artifact");
    let _ = std::fs::remove_dir_all(&dir);
}
