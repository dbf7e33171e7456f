//! Golden pins for the two observability views of a simulated run.
//!
//! Each case reruns a deterministic `pdatalog --sim` command and holds
//! its exports to fixtures under `tests/golden/`:
//!
//! * the `--profile-json` report must match byte for byte;
//! * the `--trace-out` Chrome export must carry the same events, in the
//!   same order, with the same names and timestamps. An event may gain
//!   `args` keys (appended after the pinned ones, DESIGN.md §9) but never
//!   lose or change one.
//!
//! A determinism test compares two runs of the same build; these compare
//! a run against a pinned output, so a fold or exporter that drifts fails
//! here even when it drifts the same way twice.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Run `pdatalog run <args>` with both exports enabled; return
/// `(profile json, chrome trace)`.
fn exports(tag: &str, args: &[&str]) -> (String, String) {
    let dir = std::env::temp_dir().join("pdatalog-golden-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let profile = dir.join(format!("{tag}.profile.json"));
    let trace = dir.join(format!("{tag}.trace.json"));
    let _ = std::fs::remove_file(&profile);
    let _ = std::fs::remove_file(&trace);
    let out = Command::new(env!("CARGO_BIN_EXE_pdatalog"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .arg("run")
        .args(args)
        .arg("--profile-json")
        .arg(&profile)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    (
        std::fs::read_to_string(&profile).unwrap(),
        std::fs::read_to_string(&trace).unwrap(),
    )
}

/// Split a Chrome export into `(event without args, args body)` pairs.
/// The exporter writes one flat `"args":{...}` object last in each event.
fn chrome_events(export: &str) -> Vec<(&str, &str)> {
    let body = export
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|s| s.strip_suffix("],\"displayTimeUnit\":\"ms\"}"))
        .expect("chrome export framing");
    body.split(",{\"name\":")
        .map(|event| {
            let (head, args) = event.split_once("\"args\":{").expect("every event has args");
            (head, args.strip_suffix("}}").expect("args close the event"))
        })
        .collect()
}

fn assert_chrome_matches(pinned: &str, actual: &str) {
    let pinned = chrome_events(pinned);
    let actual = chrome_events(actual);
    assert_eq!(pinned.len(), actual.len(), "event count changed");
    for (i, ((p_head, p_args), (a_head, a_args))) in pinned.iter().zip(&actual).enumerate() {
        assert_eq!(p_head, a_head, "event {i}: name, phase, ts or track changed");
        let extends = a_args == p_args
            || p_args.is_empty()
            || a_args.starts_with(&format!("{p_args},"));
        assert!(extends, "event {i}: args {{{a_args}}} do not extend pinned {{{p_args}}}");
    }
}

fn check(tag: &str, args: &[&str]) {
    let (profile, trace) = exports(tag, args);
    let pinned = std::fs::read_to_string(golden(&format!("{tag}.profile.json"))).unwrap();
    assert!(profile == pinned, "{tag}: --profile-json drifted from tests/golden");
    let pinned = std::fs::read_to_string(golden(&format!("{tag}.trace.json"))).unwrap();
    assert_chrome_matches(&pinned, &trace);
}

/// The CI profile-smoke run: skew-aware hash partition on a Zipf graph.
#[test]
fn zipf_ancestor_sim_matches_golden() {
    check(
        "zipf_ancestor",
        &[
            "examples/programs/zipf_ancestor.dl", "--workers", "4", "--scheme", "example3",
            "--skew-aware", "--sim", "--seed", "7",
        ],
    );
}

/// A crash and recovery: the profile carries replay time and the trace
/// carries the crash, restart and epoch repair.
#[test]
fn ancestor_crash_recovery_sim_matches_golden() {
    check(
        "ancestor_crash",
        &[
            "examples/programs/ancestor.dl", "--workers", "4", "--scheme", "example3", "--sim",
            "--seed", "7", "--faults", "jitter,crash=1@40,recover",
        ],
    );
}

#[test]
fn chrome_comparison_allows_only_appended_args() {
    let pinned = "{\"traceEvents\":[{\"name\":\"a\",\"ts\":1,\"args\":{\"x\":1}},\
                  {\"name\":\"b\",\"ts\":2,\"args\":{}}],\"displayTimeUnit\":\"ms\"}";
    let extended = pinned.replace("\"x\":1}", "\"x\":1,\"cost\":3}");
    assert_chrome_matches(pinned, &extended);
    let changed = pinned.replace("\"x\":1}", "\"x\":2}");
    assert!(std::panic::catch_unwind(|| assert_chrome_matches(pinned, &changed)).is_err());
    let moved = pinned.replace("\"ts\":2", "\"ts\":3");
    assert!(std::panic::catch_unwind(|| assert_chrome_matches(pinned, &moved)).is_err());
}
