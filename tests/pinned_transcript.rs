//! A pinned `cqfd batch` transcript: the fixed job file
//! `tests/fixtures/pinned_batch.jobs` must reproduce
//! `tests/fixtures/pinned_batch.out` byte for byte at 1 and 4 enumeration
//! threads, modulo the fields that measure effort rather than answers
//! (`elapsed_ms=`, `homs=`, `explored=`).
//!
//! The pin covers verdicts, certificates, `stages=`, `triggers=`,
//! `peak_atoms=` and every certificate line of the Theorem 14 separation,
//! determinacy on the spider and general fragments, a rewriting and a
//! chase-model counter-example. A change to the chase that alters any of
//! them fails here. To re-pin after an intended change, run
//! `cqfd batch tests/fixtures/pinned_batch.jobs --workers 1` and strip the
//! three fields with the same rule as [`strip_effort`].

use std::path::Path;
use std::process::Command;

/// Drops ` elapsed_ms=…`, ` homs=…` and ` explored=…` from every line.
fn strip_effort(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let kept: Vec<&str> = line
            .split(' ')
            .filter(|f| {
                !["elapsed_ms=", "homs=", "explored="]
                    .iter()
                    .any(|k| f.starts_with(k))
            })
            .collect();
        out.push_str(&kept.join(" "));
        out.push('\n');
    }
    out
}

#[test]
fn batch_output_matches_the_pinned_transcript() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let jobs = fixtures.join("pinned_batch.jobs");
    let want = std::fs::read_to_string(fixtures.join("pinned_batch.out")).unwrap();
    for threads in ["1", "4"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cqfd"))
            .arg("batch")
            .arg(&jobs)
            .args(["--workers", "1", "--threads", threads])
            .output()
            .expect("run cqfd batch");
        assert!(out.status.success(), "threads={threads}: batch failed");
        let got = strip_effort(&String::from_utf8(out.stdout).unwrap());
        if got != want {
            let first = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or(got.lines().count().min(want.lines().count()));
            panic!(
                "threads={threads}: transcript differs from the pin at line {}:\n got: {:?}\nwant: {:?}",
                first + 1,
                got.lines().nth(first),
                want.lines().nth(first)
            );
        }
    }
}
