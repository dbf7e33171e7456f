//! End-to-end: a traced run's Chrome export must satisfy the CI checker.
//!
//! This is the same path the trace-smoke CI job drives through the
//! binaries (`pdatalog --trace-out` → `trace_check`), exercised
//! in-process: execute a traced run on both transports, export the
//! journal, and hold the export to `check_chrome_trace`'s invariants.

use gst_bench::tracecheck::check_chrome_trace;
use gst_core::prelude::example3_hash_partition;
use gst_frontend::LinearSirup;
use gst_runtime::{FaultPlan, RuntimeConfig};
use gst_workloads::{linear_ancestor, random_digraph};

fn traced_config() -> RuntimeConfig {
    let mut config = RuntimeConfig::default();
    config.worker.profile = true;
    config
}

#[test]
fn threaded_export_passes_the_checker() {
    let fx = linear_ancestor();
    let db = fx.database(&random_digraph(80, 240, 13));
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let outcome = scheme.execute(&traced_config()).unwrap();
    let export = outcome.journal.chrome_trace();
    let summary = check_chrome_trace(&export, Some(4), true)
        .expect("threaded export must be checker-clean");
    assert_eq!(summary.workers, 4);
    assert!(summary.spans > 0, "at least one round span per run");
}

#[test]
fn sim_export_under_faults_passes_the_checker() {
    let fx = linear_ancestor();
    let db = fx.database(&random_digraph(80, 240, 13));
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let outcome = scheme
        .run_simulated_with(21, FaultPlan::chaos(), &traced_config())
        .unwrap();
    let export = outcome.journal.chrome_trace();
    check_chrome_trace(&export, Some(4), true)
        .expect("faulted sim export must still be checker-clean");
}
