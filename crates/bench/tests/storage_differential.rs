//! Differential tests for the row-arena storage engine.
//!
//! The arena rewrite (insertion-ordered rows + row-id postings + range
//! deltas) must be observationally identical to the specification-level
//! semantics. These tests cross-check it against independent oracles over
//! the same seeded workload × scheme matrix the throughput harness times:
//!
//! 1. **Sequential**: semi-naive evaluation (arena deltas, shared
//!    full/Old/delta indexes) against naive evaluation (re-derives
//!    everything every round) — identical least models.
//! 2. **Parallel**: every §4 scheme × N pools exactly the sequential
//!    model, tuple for tuple.
//! 3. **Determinism**: repeated lockstep runs (the paper's phased loop on
//!    the simulator) are bit-identical — sorted models, firing counts,
//!    shipped-tuple totals, and the full per-link channel matrix — and the
//!    async runtime ships the same tuple totals as the phased mode.

use gst_core::prelude::{example1_wolfson, example2_valduriez, example3_hash_partition};
use gst_core::schemes::CompiledScheme;
use gst_eval::{naive_eval, seminaive_eval};
use gst_frontend::LinearSirup;
use gst_runtime::{RuntimeConfig, SimTransport, Transport};
use gst_storage::{round_robin_fragment, Relation};
use gst_workloads::{chain, grid, layered, linear_ancestor, random_digraph};

/// The seeded graph suite — smaller than the timing harness but the same
/// shapes, so a storage bug that is shape-dependent still surfaces.
fn workloads() -> Vec<(&'static str, Relation)> {
    vec![
        ("chain", chain(48)),
        ("grid", grid(8, 8)),
        ("random-7", random_digraph(60, 180, 7)),
        ("random-42", random_digraph(80, 200, 42)),
        ("layered", layered(4, 24, 3, 99)),
    ]
}

/// The three §4 schemes over `n` processors, exactly as the harness
/// builds them.
fn schemes(
    sirup: &LinearSirup,
    n: usize,
    data: &Relation,
    db: &gst_storage::Database,
) -> Vec<(&'static str, CompiledScheme)> {
    let frag = round_robin_fragment(data, n).unwrap();
    vec![
        ("ex1-zerocomm", example1_wolfson(sirup, n, db).unwrap()),
        ("qi-hash", example3_hash_partition(sirup, n, db).unwrap()),
        ("ex2-broadcast", example2_valduriez(sirup, frag, db).unwrap()),
    ]
}

/// Layer 1: the arena-backed semi-naive engine derives the same least
/// model as naive evaluation on every workload.
#[test]
fn seminaive_matches_naive_on_every_workload() {
    let fx = linear_ancestor();
    let anc = fx.output_id();
    for (name, data) in &workloads() {
        let db = fx.database(data);
        let semi = seminaive_eval(&fx.program, &db).unwrap();
        let naive = naive_eval(&fx.program, &db).unwrap();
        assert_eq!(
            semi.relation(anc).sorted(),
            naive.relation(anc).sorted(),
            "{name}: semi-naive and naive least models diverge"
        );
        assert!(!semi.relation(anc).is_empty(), "{name}: degenerate workload");
    }
}

/// Layer 2: every scheme × N pools a model bit-identical (as a sorted
/// tuple sequence) to the sequential oracle.
#[test]
fn every_scheme_pools_the_sequential_model() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let anc = fx.output_id();
    let config = RuntimeConfig::default();
    for (wname, data) in &workloads() {
        let db = fx.database(data);
        let oracle = seminaive_eval(&fx.program, &db).unwrap();
        let reference = oracle.relation(anc).sorted();
        for n in [1, 2, 4] {
            for (sname, scheme) in &schemes(&sirup, n, data, &db) {
                let outcome = scheme.execute(&config).unwrap();
                assert_eq!(
                    outcome.relation(anc).sorted(),
                    reference,
                    "{wname}/{sname}/N={n}: pooled model differs from the oracle"
                );
            }
        }
    }
}

/// Layer 3: the phased lockstep schedule is deterministic down to firing
/// counts and the per-link channel matrix, and the async runtime ships
/// the same tuple totals and computes the same model.
#[test]
fn synchronous_runs_are_bit_identical_and_agree_with_async() {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let anc = fx.output_id();
    let config = RuntimeConfig::default();
    let data = random_digraph(60, 180, 7);
    let db = fx.database(&data);
    for n in [2, 4] {
        for (sname, scheme) in &schemes(&sirup, n, &data, &db) {
            let lockstep = || SimTransport::lockstep().execute(scheme.workers.clone(), &config);
            let a = lockstep().unwrap();
            let b = lockstep().unwrap();
            assert_eq!(
                a.relation(anc).sorted(),
                b.relation(anc).sorted(),
                "{sname}/N={n}: synchronous model not reproducible"
            );
            assert_eq!(
                a.stats.total_firings(),
                b.stats.total_firings(),
                "{sname}/N={n}: firing counts not reproducible"
            );
            assert_eq!(
                a.stats.channel_matrix, b.stats.channel_matrix,
                "{sname}/N={n}: channel matrix not reproducible"
            );

            let async_ = scheme.execute(&config).unwrap();
            assert_eq!(
                async_.relation(anc).sorted(),
                a.relation(anc).sorted(),
                "{sname}/N={n}: async and synchronous models diverge"
            );
            assert_eq!(
                async_.stats.total_tuples_sent(),
                a.stats.total_tuples_sent(),
                "{sname}/N={n}: delta shipping totals diverge between modes"
            );
        }
    }
}
