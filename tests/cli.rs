//! End-to-end tests of the `pdatalog` binary.

use std::process::Command;

fn pdatalog() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pdatalog"))
}

fn write_program(name: &str, source: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pdatalog-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path
}

const ANCESTOR: &str = "anc(X,Y) :- par(X,Y).\n\
                        anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
                        par(1,2). par(2,3). par(3,4).";

#[test]
fn run_sequential_prints_the_closure() {
    let file = write_program("seq.dl", ANCESTOR);
    let out = pdatalog().args(["run"]).arg(&file).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("% anc/2: 6 tuples"), "{stdout}");
    assert!(stdout.contains("anc(1, 4)."));
    assert!(!stdout.contains("anc(4, 1)."));
}

#[test]
fn run_all_schemes_agree() {
    let file = write_program("schemes.dl", ANCESTOR);
    let mut outputs = Vec::new();
    for scheme in ["seq", "naive", "example1", "example2", "example3", "nocomm", "general"] {
        let out = pdatalog()
            .args(["run"])
            .arg(&file)
            .args(["--scheme", scheme, "--workers", "3"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "scheme {scheme}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push((scheme, String::from_utf8(out.stdout).unwrap()));
    }
    let reference = outputs[0].1.clone();
    for (scheme, stdout) in &outputs[1..] {
        assert_eq!(stdout, &reference, "scheme {scheme} output differs");
    }
}

#[test]
fn run_with_print_filter_and_stats() {
    let file = write_program("print.dl", ANCESTOR);
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--print", "anc/2", "--stats", "--scheme", "example3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("processing_firings="), "{stderr}");
}

#[test]
fn analyze_reports_sirup_and_theorem3() {
    let file = write_program("analyze.dl", ANCESTOR);
    let out = pdatalog().args(["analyze"]).arg(&file).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("linear sirup: yes"));
    assert!(stdout.contains("2 → 2"));
    assert!(stdout.contains("Theorem 3: communication-free"));
}

#[test]
fn analyze_flags_non_sirup() {
    let file = write_program(
        "nonlin.dl",
        "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), anc(Z,Y).\npar(1,2).",
    );
    let out = pdatalog().args(["analyze"]).arg(&file).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("linear sirup: no"));
}

#[test]
fn network_bits_and_linear() {
    let file = write_program(
        "net.dl",
        "p(X,Y) :- q(X,Y).\np(X,Y) :- p(Y,Z), r(X,Z).\nq(1,2).",
    );
    let out = pdatalog().args(["network"]).arg(&file).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(00) → (10)"), "{stdout}");

    let out = pdatalog()
        .args(["network"])
        .arg(&file)
        .args(["--linear", "1,-1"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("P = [-1, 0, 1]"), "{stdout}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = pdatalog().output().unwrap();
    assert!(!out.status.success());

    let out = pdatalog().args(["run", "/nonexistent/file.dl"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let file = write_program("bad.dl", ANCESTOR);
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "bogus"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scheme"));
}

#[test]
fn parse_errors_reported_with_location() {
    let file = write_program("syntax.dl", "anc(X,Y :- par(X,Y).");
    let out = pdatalog().args(["run"]).arg(&file).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn query_binds_variables() {
    let file = write_program("query.dl", ANCESTOR);
    let out = pdatalog()
        .args(["query"])
        .arg(&file)
        .arg("anc(1, X)")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("% X"));
    assert!(stdout.contains('2') && stdout.contains('4'));
}

#[test]
fn query_ground_goals_answer_true_false() {
    let file = write_program("query2.dl", ANCESTOR);
    let yes = pdatalog().args(["query"]).arg(&file).arg("anc(1, 4)").output().unwrap();
    assert_eq!(String::from_utf8_lossy(&yes.stdout).trim(), "true");
    let no = pdatalog().args(["query"]).arg(&file).arg("anc(4, 1)").output().unwrap();
    assert_eq!(String::from_utf8_lossy(&no.stdout).trim(), "false");
}

#[test]
fn query_repeated_variables_filter() {
    let file = write_program(
        "query3.dl",
        "t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\ne(1,2). e(2,1). e(2,3).",
    );
    let out = pdatalog().args(["query"]).arg(&file).arg("t(X, X)").output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    // Self-reachable nodes: 1 and 2 (via the 1↔2 cycle).
    assert!(stdout.contains('1') && stdout.contains('2'), "{stdout}");
    assert!(!stdout.contains('3'));
}

#[test]
fn query_unknown_predicate_fails() {
    let file = write_program("query4.dl", ANCESTOR);
    let out = pdatalog().args(["query"]).arg(&file).arg("zzz(X)").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn query_base_relation_directly() {
    let file = write_program("query5.dl", ANCESTOR);
    let out = pdatalog().args(["query"]).arg(&file).arg("par(2, X)").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains('3'));
}

#[test]
fn sample_programs_ship_and_run() {
    // The repo's examples/programs/*.dl files must stay valid.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (file, check) in [
        ("examples/programs/ancestor.dl", "anc("),
        ("examples/programs/chain_sirup.dl", "p("),
        ("examples/programs/org.dl", "chain("),
    ] {
        let out = pdatalog().args(["run"]).arg(root.join(file)).output().unwrap();
        assert!(
            out.status.success(),
            "{file}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(check),
            "{file} output missing {check}"
        );
    }
}

#[test]
fn sim_recoverable_crash_reports_restart_and_matches_sequential() {
    let file = write_program("recover.dl", ANCESTOR);
    let seq = pdatalog().args(["run"]).arg(&file).output().unwrap();
    assert!(seq.status.success());
    let reference = String::from_utf8(seq.stdout).unwrap();

    // A mid-run crash marked `recover`: the supervisor restarts the
    // worker, peers replay, and the pooled model must still match the
    // sequential closure bit-for-bit.
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args([
            "--scheme",
            "example3",
            "--workers",
            "3",
            "--sim",
            "--seed",
            "5",
            "--faults",
            "chaos,crash=1@40,recover",
            "--stats",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), reference, "recovered model differs");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("restarts=1"), "{stderr}");
    assert!(stderr.contains("faults=chaos,crash=1@40,recover"), "{stderr}");

    // Same crash with the restart budget zeroed out: fail fast (the
    // watchdog names the starved processor), never hang.
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args([
            "--scheme",
            "example3",
            "--workers",
            "3",
            "--sim",
            "--seed",
            "5",
            "--faults",
            "chaos,crash=1@40,recover",
            "--max-restarts",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "zero restart budget must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("idle"), "{stderr}");

    // `recover` is a crash modifier, not a standalone fault.
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "example3", "--sim", "--faults", "chaos,recover"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("recover without a crash"));
}

#[test]
fn threaded_trace_out_writes_chrome_json() {
    let file = write_program("traceout.dl", ANCESTOR);
    let trace = std::env::temp_dir()
        .join("pdatalog-cli-tests")
        .join("trace_threaded.json");
    let _ = std::fs::remove_file(&trace);
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "example3", "--workers", "4", "--trace-out"])
        .arg(&trace)
        .args(["--stats"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let body = std::fs::read_to_string(&trace).unwrap();
    assert!(body.starts_with("{\"traceEvents\":["), "{body}");
    assert!(body.contains("\"worker 0\""), "missing worker track: {body}");
    assert!(body.contains("\"ph\":\"B\"") && body.contains("\"ph\":\"E\""), "{body}");
    // The new --stats tables ride along on stderr.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("channel matrix"), "{stderr}");
    assert!(stderr.contains("per-round deltas"), "{stderr}");
}

#[test]
fn threaded_trace_prints_the_journal() {
    let file = write_program("tracejournal.dl", ANCESTOR);
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "example3", "--workers", "2", "--trace"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("round 0 begin"), "{stderr}");
    assert!(stderr.contains("end of journal"), "{stderr}");
}

#[test]
fn sim_flags_still_require_sim_but_trace_does_not() {
    let file = write_program("traceflags.dl", ANCESTOR);
    // --seed / --faults remain simulation-only...
    for args in [vec!["--seed", "3"], vec!["--faults", "jitter"]] {
        let out = pdatalog()
            .args(["run"])
            .arg(&file)
            .args(["--scheme", "example3"])
            .args(&args)
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("only make sense with --sim"),
            "{args:?}"
        );
    }
    // ...and tracing needs a parallel run to observe.
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "seq", "--trace"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parallel scheme"));
}

#[test]
fn sim_trace_is_deterministic_per_seed() {
    let file = write_program("tracesim.dl", ANCESTOR);
    let run = || {
        let out = pdatalog()
            .args(["run"])
            .arg(&file)
            .args([
                "--scheme", "example3", "--workers", "3", "--sim", "--seed", "11",
                "--faults", "jitter", "--trace",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stderr).unwrap()
    };
    let first = run();
    assert!(first.contains("ticks"), "sim journal should count virtual ticks: {first}");
    assert_eq!(first, run(), "same seed must print a bit-identical journal");
}

#[test]
fn profile_flags_write_all_three_exports() {
    let file = write_program("profile.dl", ANCESTOR);
    let dir = std::env::temp_dir().join("pdatalog-cli-tests");
    let json = dir.join("profile_threaded.json");
    let metrics = dir.join("profile_threaded.prom");
    let _ = std::fs::remove_file(&json);
    let _ = std::fs::remove_file(&metrics);
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "example3", "--workers", "4", "--profile", "--profile-json"])
        .arg(&json)
        .arg("--metrics-out")
        .arg(&metrics)
        .args(["--stats"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("% profile (us"), "{stderr}");
    assert!(stderr.contains("critical path"), "{stderr}");
    // The --stats footer gains the per-worker busy table and the
    // utilization figure on the summary line.
    assert!(stderr.contains("worker busy"), "{stderr}");
    assert!(stderr.contains("utilization="), "{stderr}");
    let body = std::fs::read_to_string(&json).unwrap();
    assert!(body.starts_with("{\"time_base\":\"wall_micros\""), "{body}");
    assert!(body.contains("\"hot_rules\""), "{body}");
    let prom = std::fs::read_to_string(&metrics).unwrap();
    assert!(prom.contains("pdatalog_phase_time_total{worker=\"0\",phase=\"compute\"}"), "{prom}");
    assert!(prom.contains("pdatalog_rule_time_total"), "{prom}");
}

#[test]
fn sim_profile_json_is_deterministic_per_seed() {
    let file = write_program("profilesim.dl", ANCESTOR);
    let dir = std::env::temp_dir().join("pdatalog-cli-tests");
    let run = |name: &str| {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let out = pdatalog()
            .args(["run"])
            .arg(&file)
            .args([
                "--scheme", "example3", "--workers", "3", "--sim", "--seed", "11",
                "--faults", "jitter", "--profile-json",
            ])
            .arg(&path)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(&path).unwrap()
    };
    let first = run("profile_sim_a.json");
    assert!(first.starts_with("{\"time_base\":\"virtual_ticks\""), "{first}");
    assert_eq!(
        first,
        run("profile_sim_b.json"),
        "same seed must export a bit-identical profile"
    );
}

#[test]
fn profile_requires_a_parallel_scheme() {
    let file = write_program("profileseq.dl", ANCESTOR);
    for flag in ["--profile", "--metrics-out"] {
        let mut cmd = pdatalog();
        cmd.args(["run"]).arg(&file).args(["--scheme", "seq", flag]);
        if flag == "--metrics-out" {
            cmd.arg("/tmp/unused.prom");
        }
        let out = cmd.output().unwrap();
        assert!(!out.status.success());
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("parallel scheme"),
            "{flag}"
        );
    }
}

#[test]
fn analyze_shows_advisor_recommendations() {
    let file = write_program("advise.dl", ANCESTOR);
    let out = pdatalog().args(["analyze"]).arg(&file).output().unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("advisor [minimize communication]: v(r) = ⟨Y⟩"),
        "{stdout}"
    );
    assert!(
        stdout.contains("advisor [minimize replication]: v(r) = ⟨Z⟩"),
        "{stdout}"
    );
}

/// `--updates`: a live incrementally maintained session over the general
/// scheme. After a stream of insert/delete batches (two explicit commits
/// plus an implicit trailing batch whose only delete is absent, a no-op)
/// the printed model must equal a from-scratch sequential run over the
/// updated fact base, and `--stats` must report every round.
#[test]
fn updates_stream_matches_recompute_and_reports_rounds() {
    let file = write_program("updates.dl", ANCESTOR);
    let ups = write_program(
        "updates.stream",
        "% grow the chain, then cut it and heal around the cut\n\
         +par(4,5).\n\
         commit.\n\
         -par(2,3).\n\
         +par(2,5).\n\
         commit.\n\
         -par(99,100).\n",
    );
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "general", "--workers", "3", "--stats", "--updates"])
        .arg(&ups)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();

    // The same final database, recomputed from scratch sequentially.
    let final_file = write_program(
        "updates_final.dl",
        "anc(X,Y) :- par(X,Y).\n\
         anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
         par(1,2). par(3,4). par(4,5). par(2,5).",
    );
    let seq = pdatalog().args(["run"]).arg(&final_file).output().unwrap();
    assert!(seq.status.success());
    let reference = String::from_utf8(seq.stdout).unwrap();
    assert_eq!(stdout, reference, "maintained view differs from the recompute");

    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("update_rounds=3"), "{stderr}");
    assert!(stderr.contains("% round 1:"), "{stderr}");
    assert!(stderr.contains("% round 3:"), "{stderr}");
    assert!(stderr.contains("retract_tuples_sent="), "{stderr}");
}

/// `--updates` composes with the deterministic simulation transport: the
/// maintained model is the same one the threaded transport computes.
#[test]
fn updates_under_simulation_match_threaded() {
    let file = write_program("updates_sim.dl", ANCESTOR);
    let ups = write_program("updates_sim.stream", "-par(2,3).\n+par(2,4).\ncommit.\n");
    let run = |extra: &[&str]| {
        let out = pdatalog()
            .args(["run"])
            .arg(&file)
            .args(["--scheme", "general", "--workers", "3", "--updates"])
            .arg(&ups)
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let threaded = run(&[]);
    let simulated = run(&["--sim", "--seed", "9", "--faults", "jitter"]);
    assert_eq!(threaded, simulated, "sim and threaded sessions disagree");
}

/// `--updates` misuse fails cleanly: sequential schemes have no workers
/// to maintain state in, and a malformed stream names its line.
#[test]
fn updates_usage_errors_are_clean() {
    let file = write_program("updates_bad.dl", ANCESTOR);
    let ups = write_program("updates_bad.stream", "+par(9,10).\n");
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "seq", "--updates"])
        .arg(&ups)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("parallel scheme"), "{stderr}");

    let garbled = write_program("updates_garbled.stream", "+par(1,2).\nfrobnicate!\n");
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "general", "--workers", "2", "--updates"])
        .arg(&garbled)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2"), "{stderr}");

    let nonground = write_program("updates_nonground.stream", "+par(X,2).\n");
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "general", "--workers", "2", "--updates"])
        .arg(&nonground)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("ground"), "{stderr}");
}

// ---------------------------------------------------------------------
// `--query`: demand-driven point queries via magic sets (DESIGN.md §15).
// ---------------------------------------------------------------------

/// `run --query` prints exactly the goal's answers, under the original
/// predicate name, on the sequential and the demand-partitioned
/// parallel paths alike (threaded and simulated).
#[test]
fn query_mode_prints_only_the_goals_answers() {
    let file = write_program("magic_query.dl", ANCESTOR);
    let runs: Vec<Vec<&str>> = vec![
        vec![],
        vec!["--scheme", "general", "--workers", "3"],
        vec!["--scheme", "general", "--workers", "3", "--sim", "--seed", "7", "--faults", "jitter"],
    ];
    for extra in runs {
        let out = pdatalog()
            .args(["run"])
            .arg(&file)
            .args(["--query", "anc(2, Y)"])
            .args(&extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("% anc/2: 2 tuples"), "{extra:?}: {stdout}");
        assert!(stdout.contains("anc(2, 3)."), "{extra:?}: {stdout}");
        assert!(stdout.contains("anc(2, 4)."), "{extra:?}: {stdout}");
        assert!(!stdout.contains("anc(1,"), "{extra:?}: leaked non-answers: {stdout}");
        assert!(!stdout.contains("m_anc"), "{extra:?}: leaked magic relations: {stdout}");
    }
}

/// A bare `--query` takes the goal from the file's `?- goal.` line.
#[test]
fn query_mode_uses_the_files_embedded_goal() {
    let file = write_program(
        "magic_embedded.dl",
        &format!("{ANCESTOR}\n?- anc(3, Y).\n"),
    );
    let out = pdatalog().args(["run"]).arg(&file).arg("--query").output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("% anc/2: 1 tuples"), "{stdout}");
    assert!(stdout.contains("anc(3, 4)."), "{stdout}");

    let bare = write_program("magic_no_goal.dl", ANCESTOR);
    let out = pdatalog().args(["run"]).arg(&bare).arg("--query").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("?- goal"), "needs a goal");

    // Several embedded goals: the bare form refuses to pick one...
    let two = write_program(
        "magic_two_goals.dl",
        &format!("{ANCESTOR}\n?- anc(3, Y).\n?- anc(1, Y).\n"),
    );
    let out = pdatalog().args(["run"]).arg(&two).arg("--query").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("has 2 `?- goal.` lines"), "{stderr}");
    assert!(stderr.contains("pass the goal explicitly"), "{stderr}");
    // ...while an explicit goal still runs against the same file.
    let out = pdatalog()
        .args(["run"])
        .arg(&two)
        .args(["--query", "anc(1, Y)"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8(out.stdout).unwrap().contains("% anc/2: 3 tuples"));
}

/// `--explain-rewrite` prints the adorned + magic program with
/// provenance comments instead of running it.
#[test]
fn explain_rewrite_prints_the_magic_program() {
    let file = write_program("magic_explain.dl", ANCESTOR);
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--query", "anc(1, Y)", "--explain-rewrite"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("anc_bf(X, Y) :- m_anc_bf(X), par(X, Y)."), "{stdout}");
    assert!(stdout.contains("m_anc_bf(Z) :- m_anc_bf(X), par(X, Z)."), "{stdout}");
    assert!(stdout.contains("% anc^bf [magic r1]"), "{stdout}");
    assert!(stdout.contains("% demand seed"), "{stdout}");
}

/// `--stats` in query mode reports the work avoided against a
/// full-closure run: a non-vacuous demand_ratio on both paths.
#[test]
fn query_stats_report_demand_ratio() {
    let file = write_program("magic_stats.dl", &chain_program(20));
    for extra in [vec![], vec!["--scheme", "general", "--workers", "3"]] {
        let out = pdatalog()
            .args(["run"])
            .arg(&file)
            .args(["--query", "anc(17, Y)", "--stats"])
            .args(&extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("demand_ratio=0."), "{extra:?}: {stderr}");
    }
}

/// `--profile` in query mode labels the magic/adorned rules in the
/// hot-rule table.
#[test]
fn query_profile_labels_magic_rules() {
    let file = write_program("magic_profile.dl", ANCESTOR);
    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args([
            "--query", "anc(1, Y)", "--scheme", "general", "--workers", "2",
            "--sim", "--seed", "3", "--profile",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("hot rules"), "{stderr}");
    assert!(stderr.contains("anc^bf ["), "{stderr}");
}

/// Query-mode misuse fails with a clear message.
#[test]
fn query_usage_errors_are_clean() {
    let file = write_program("magic_usage.dl", ANCESTOR);
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["--query", "anc(1, Y)", "--print", "anc/2"], "--print"),
        (vec!["--explain-rewrite"], "--query"),
        (vec!["--query", "anc(1, Y)", "--scheme", "example3"], "seq, naive, or general"),
        (vec!["--query", "anc(X, Y)"], "bound argument"),
        (vec!["--query", "par(1, Y)"], "derived"),
    ];
    for (args, want) in cases {
        let out = pdatalog().args(["run"]).arg(&file).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}

/// The shipped org chart example runs end-to-end in query mode.
#[test]
fn org_magic_example_answers_its_embedded_query() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = pdatalog()
        .args(["run"])
        .arg(root.join("examples/programs/org_magic.dl"))
        .args(["--query", "--scheme", "general", "--workers", "4", "--stats"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("% boss/2: 4 tuples"), "{stdout}");
    assert!(stdout.contains("boss(ivan, ceo)."), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("demand_ratio=0."), "{stderr}");
}

// ---------------------------------------------------------------------
// `--net`: one OS process per worker over loopback TCP (DESIGN.md §12).
// ---------------------------------------------------------------------

/// A chain long enough that every worker ships well over the fault/kill
/// byte thresholds used below (which must sit far under the minimum
/// traffic: token counts jitter run-to-run, so a threshold near the
/// total would fire only sometimes).
fn chain_program(n: i64) -> String {
    let mut src = String::from("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).\n");
    for i in 1..n {
        src.push_str(&format!("par({i},{}).\n", i + 1));
    }
    src
}

/// A deterministic pseudo-random digraph (LCG), denser than the chain.
fn random_program() -> String {
    let mut src = String::from("t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\n");
    let mut state = 0xC0FFEEu64;
    for _ in 0..60 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let a = (state >> 33) % 15;
        let b = (state >> 17) % 15;
        src.push_str(&format!("e({a},{}).\n", (b + 1) % 15));
    }
    src
}

fn run_sorted(file: &std::path::Path, extra: &[&str]) -> (bool, String, String) {
    let out = pdatalog().args(["run"]).arg(file).args(extra).output().unwrap();
    let mut lines: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    lines.sort_unstable();
    (
        out.status.success(),
        lines.join("\n"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The TCP multi-process transport computes the same least model as the
/// in-process threads, for both a chain and a random graph under two
/// rewriting schemes.
#[test]
fn net_transport_matches_threaded() {
    for (name, src, preds) in [
        ("chain", chain_program(30), "anc/2"),
        ("random", random_program(), "t/2"),
    ] {
        let file = write_program(&format!("net_{name}.dl"), &src);
        for scheme in ["example3", "general"] {
            let base = ["--scheme", scheme, "--workers", "4", "--print", preds];
            let (ok, threaded, err) = run_sorted(&file, &base);
            assert!(ok, "{name}/{scheme} threaded: {err}");
            let mut net_args = base.to_vec();
            net_args.push("--net");
            let (ok, net, err) = run_sorted(&file, &net_args);
            assert!(ok, "{name}/{scheme} net: {err}");
            assert_eq!(net, threaded, "{name}/{scheme}: --net must be bit-identical");
        }
    }
}

/// SIGKILL a live worker process mid-fixpoint (byte-counted, so it lands
/// while traffic is in flight): the supervisor restarts it, survivors
/// replay, and stdout is bit-identical to the undisturbed run.
#[test]
fn net_sigkill_mid_fixpoint_recovers_bit_exact() {
    for (name, src) in [("chain", chain_program(30)), ("random", random_program())] {
        let file = write_program(&format!("net_kill_{name}.dl"), &src);
        for scheme in ["example3", "general"] {
            let base = ["--scheme", scheme, "--workers", "4"];
            let (ok, reference, err) = run_sorted(&file, &base);
            assert!(ok, "{name}/{scheme}: {err}");
            let (ok, recovered, stderr) = run_sorted(
                &file,
                &["--scheme", scheme, "--workers", "4", "--net", "--net-kill", "1@300", "--stats"],
            );
            assert!(ok, "{name}/{scheme}: {stderr}");
            assert_eq!(
                recovered, reference,
                "{name}/{scheme}: recovery must converge to the least model"
            );
            assert!(stderr.contains("restarts=1"), "{name}/{scheme}: {stderr}");
            assert!(stderr.contains("reconnects=1"), "{name}/{scheme}: {stderr}");
        }
    }
}

/// SIGKILL during a live `--updates` session: the maintained view after
/// every batch matches the threaded run's, through the crash.
#[test]
fn net_sigkill_mid_updates_recovers_bit_exact() {
    let file = write_program("net_kill_upd.dl", &chain_program(30));
    let ups = write_program(
        "net_kill_upd.stream",
        "+par(30,31).\ncommit.\n-par(5,6).\ncommit.\n+par(5,6).\ncommit.\n",
    );
    let base = ["--scheme", "general", "--workers", "3", "--updates"];
    let out = pdatalog().args(["run"]).arg(&file).args(base).arg(&ups).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let reference = String::from_utf8(out.stdout).unwrap();

    let out = pdatalog()
        .args(["run"])
        .arg(&file)
        .args(["--scheme", "general", "--workers", "3", "--net", "--net-kill", "1@300", "--stats", "--updates"])
        .arg(&ups)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), reference);
    assert!(stderr.contains("restarts=1"), "{stderr}");
}

/// Socket-level faults on a worker's write path — clean disconnect,
/// truncated frame, garbage bytes — all recover to the exact least
/// model via restart + replay.
#[test]
fn net_socket_faults_recover_bit_exact() {
    let file = write_program("net_faults.dl", &chain_program(30));
    let (ok, reference, err) =
        run_sorted(&file, &["--scheme", "example3", "--workers", "4"]);
    assert!(ok, "{err}");
    for fault in ["1:disconnect@300", "1:truncate@300", "1:garbage@300"] {
        let (ok, recovered, stderr) = run_sorted(
            &file,
            &["--scheme", "example3", "--workers", "4", "--net", "--net-faults", fault, "--stats"],
        );
        assert!(ok, "{fault}: {stderr}");
        assert_eq!(recovered, reference, "{fault}: must match the clean run");
        assert!(stderr.contains("restarts=1"), "{fault}: {stderr}");
    }
}

/// A persistent fault (`!`) kills every incarnation: the restart budget
/// runs out and the run fails fast with the link-level cause — no hang.
/// The trip point must sit below the smallest write any incarnation can
/// make (handshake + RESULT frame): a replay-assisted restart sends very
/// little data-plane traffic, and a threshold it can duck under lets the
/// run legitimately recover instead of exhausting the budget.
#[test]
fn net_persistent_fault_fails_fast() {
    let file = write_program("net_persist.dl", &chain_program(30));
    let (ok, _, stderr) = run_sorted(
        &file,
        &["--scheme", "example3", "--workers", "4", "--net", "--net-faults", "1:disconnect@150!"],
    );
    assert!(!ok, "a persistent fault must exhaust the budget");
    assert!(
        stderr.contains("link") || stderr.contains("frame") || stderr.contains("EOF"),
        "{stderr}"
    );
}

/// `--net` misuse fails with a clear message instead of a broken fleet.
#[test]
fn net_usage_errors_are_clean() {
    let file = write_program("net_usage.dl", &chain_program(5));
    for (args, want) in [
        (vec!["--scheme", "example3", "--net", "--sim"], "exclusive"),
        (vec!["--scheme", "seq", "--net"], "parallel scheme"),
        (vec!["--scheme", "example3", "--net-kill", "1@100"], "--net"),
        (
            vec!["--scheme", "example3", "--workers", "2", "--net", "--net-kill", "5@100"],
            "nonexistent processor 5",
        ),
        (
            vec!["--scheme", "example3", "--workers", "2", "--net", "--net-faults", "7:disconnect@10!"],
            "nonexistent processor 7",
        ),
        (vec!["--scheme", "seq", "--watchdog-ms", "100"], "parallel scheme"),
    ] {
        let out = pdatalog().args(["run"]).arg(&file).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}

/// A fault-plan tick value past the simulator's bound is a clean error
/// naming the key, not an overflow panic (debug) or wrapped virtual time
/// (release).
#[test]
fn fault_plan_tick_overflow_is_a_clean_error() {
    let file = write_program("fault_ticks.dl", &chain_program(5));
    for key in ["max", "redeliver", "stall-ticks"] {
        let plan = format!("none,{key}={}", u64::MAX);
        let out = pdatalog()
            .args(["run"])
            .arg(&file)
            .args(["--scheme", "example3", "--workers", "3", "--sim", "--faults", &plan])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{plan}: {stderr}");
        assert!(stderr.contains(&format!("{key}={}", u64::MAX)), "{plan}: {stderr}");
    }
}
