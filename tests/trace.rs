//! Acceptance tests for the unified tracing layer (DESIGN.md §9).
//!
//! The journal is an *observation* of the run, so these tests pin the
//! two properties the exporters depend on: under the simulation
//! transport the journal is as deterministic as the run itself
//! (bit-identical for the same seed), and under both transports the
//! journal is structurally sound — globally monotone timestamps, every
//! round span closed, every worker terminating on record.

use parallel_datalog::prelude::*;
use parallel_datalog::runtime::{FaultPlan, ObsKind};
use parallel_datalog::workloads::{graphs, linear_ancestor};

fn traced_config() -> RuntimeConfig {
    let mut config = RuntimeConfig::default();
    config.worker.profile = true;
    config
}

fn fixture() -> (
    parallel_datalog::workloads::Fixture,
    parallel_datalog::storage::Database,
) {
    let fx = linear_ancestor();
    let edges = graphs::random_digraph(60, 180, 7);
    let db = fx.database(&edges);
    (fx, db)
}

#[test]
fn same_seed_same_journal() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let config = traced_config();
    for seed in [0u64, 3, 11] {
        let a = scheme
            .run_simulated_with(seed, FaultPlan::chaos(), &config)
            .unwrap();
        let b = scheme
            .run_simulated_with(seed, FaultPlan::chaos(), &config)
            .unwrap();
        assert!(!a.journal.is_empty(), "traced sim run produced no events");
        assert_eq!(
            a.journal, b.journal,
            "seed {seed}: same seed must replay a bit-identical journal"
        );
        assert_eq!(a.journal.chrome_trace(), b.journal.chrome_trace());
    }
}

#[test]
fn different_seeds_differ_somewhere() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let config = traced_config();
    let journals: Vec<_> = (0..4u64)
        .map(|seed| {
            scheme
                .run_simulated_with(seed, FaultPlan::chaos(), &config)
                .unwrap()
                .journal
        })
        .collect();
    assert!(
        journals.windows(2).any(|w| w[0] != w[1]),
        "chaos fault plans across four seeds should not all produce the same schedule"
    );
}

#[test]
fn sim_journal_validates_and_every_worker_terminates() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let outcome = scheme
        .run_simulated_with(5, FaultPlan::jitter(), &traced_config())
        .unwrap();
    outcome.journal.validate().expect("sim journal is sound");
    for w in 0..4 {
        assert!(
            outcome
                .journal
                .worker_events(w)
                .any(|e| e.kind == ObsKind::Terminated),
            "worker {w} never recorded termination"
        );
    }
}

#[test]
fn threaded_journal_validates_and_every_worker_terminates() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let outcome = scheme.execute(&traced_config()).unwrap();
    assert!(!outcome.journal.is_empty());
    outcome.journal.validate().expect("threaded journal is sound");
    for w in 0..4 {
        assert!(
            outcome
                .journal
                .worker_events(w)
                .any(|e| e.kind == ObsKind::Terminated),
            "worker {w} never recorded termination"
        );
    }
    // The hash partition communicates on this graph; the sends must be
    // on the record with their tuple counts.
    let sent: u64 = outcome
        .journal
        .events
        .iter()
        .filter_map(|e| match e.kind {
            ObsKind::BatchSent { tuples, .. } => Some(tuples),
            _ => None,
        })
        .sum();
    assert_eq!(
        sent,
        outcome.stats.total_tuples_sent(),
        "journal send events must account for every shipped tuple"
    );
}

#[test]
fn untraced_runs_produce_no_journal() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let outcome = scheme.execute(&RuntimeConfig::default()).unwrap();
    assert!(outcome.journal.is_empty(), "tracing must be opt-in");
    let sim = scheme.run_simulated(9, FaultPlan::jitter()).unwrap();
    assert!(sim.journal.is_empty());
}

#[test]
fn traced_recovery_records_the_repair() {
    let (fx, db) = fixture();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let scheme = example3_hash_partition(&sirup, 4, &db).unwrap();
    let seq = seminaive_eval(&fx.program, &db).unwrap();
    let plan = FaultPlan::with_recovering_crash(1, 40);
    let outcome = scheme
        .run_simulated_with(2, plan, &traced_config())
        .unwrap();
    assert!(outcome.stats.restarts >= 1, "the crash must trigger a restart");
    outcome.journal.validate().expect("recovery journal is sound");
    assert!(
        outcome
            .journal
            .events
            .iter()
            .any(|e| matches!(e.kind, ObsKind::Restarted { .. })),
        "journal must record the supervisor restart"
    );
    assert!(
        outcome
            .journal
            .events
            .iter()
            .any(|e| matches!(e.kind, ObsKind::EpochRepair { .. })),
        "journal must record the peers' epoch repair"
    );
    // Tracing must not perturb recovery semantics.
    let anc = fx.output_id();
    assert!(outcome.relation(anc).set_eq(&seq.relation(anc)));
}
