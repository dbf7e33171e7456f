//! Channel traffic, computed from the specification.
//!
//! The runtime does not store channel relations: each worker's router
//! selects every round's fresh `t_out` rows and ships them. The rewritten
//! program is still the specification of what crosses each link, so this
//! suite evaluates it directly. The sender's final source relations are
//! pooled per worker, then the link's sending rules run through the
//! sequential engine over them. The size of each channel relation the
//! engine derives is what the link must have carried: every `t_out` row
//! is fresh exactly once, so it is shipped at most once per channel.
//!
//! No worker keeps a relation for a channel predicate: pooling one
//! returns nothing.
//!
//! Each scheme family runs at N ∈ {2, 4}, on threads and on the lockstep
//! schedule. Total firings, sending rules included, are pinned to the
//! counts the engine produced when it still planned the sending rules as
//! ordinary rules over stored channel relations: the router credits each
//! matching sending rule one firing, exactly as the planned rule fired.

use std::sync::Arc;

use parallel_datalog::prelude::*;
use parallel_datalog::frontend::magic::magic_rewrite;
use parallel_datalog::runtime::SimTransport;
use parallel_datalog::workloads::{linear_ancestor, nonlinear_ancestor, random_digraph, zipf_digraph};

fn var(p: &Program, name: &str) -> Variable {
    Variable(p.interner.get(name).unwrap())
}

/// Every scheme family at `n` processors, named.
fn schemes(n: usize) -> Vec<(&'static str, CompiledScheme)> {
    let fx = linear_ancestor();
    let sirup = LinearSirup::from_program(&fx.program).unwrap();
    let edges = random_digraph(30, 70, 5);
    let db = fx.database(&edges);
    let h: DiscriminatorRef = Arc::new(HashMod::new(n, 5));

    let generalized = GeneralizedConfig {
        v_r: vec![var(&fx.program, "Z")],
        v_e: vec![var(&fx.program, "X")],
        h_prime: h.clone(),
        h_locals: (0..n)
            .map(|i| -> DiscriminatorRef {
                if i == 0 {
                    Arc::new(Constant::new(n, 0))
                } else {
                    Arc::new(Mixed::new(i, h.clone(), 0.5, 9))
                }
            })
            .collect(),
    };

    let nl = nonlinear_ancestor();
    let nl_db = nl.database(&edges);
    let choices = vec![
        RuleChoice { v: vec![var(&nl.program, "Y")], h: h.clone() },
        RuleChoice { v: vec![var(&nl.program, "Z")], h: h.clone() },
    ];

    let zipf = fx.database(&zipf_digraph(40, 120, 30, 3));

    let anc = fx.output_id().0;
    let query = Atom::new(
        anc,
        vec![Term::Const(Value::Int(3)), Term::Var(Variable(fx.program.interner.intern("QY")))],
    );
    let demand = compile_demand(&magic_rewrite(&fx.program, &query).unwrap(), &db, n).unwrap();

    vec![
        ("example1", example1_wolfson(&sirup, n, &db).unwrap()),
        (
            "example2-broadcast",
            example2_valduriez(&sirup, round_robin_fragment(&edges, n).unwrap(), &db).unwrap(),
        ),
        ("example3", example3_hash_partition(&sirup, n, &db).unwrap()),
        ("generalized-s6", rewrite_generalized(&sirup, &generalized, &db).unwrap()),
        (
            "general-s7",
            rewrite_general(&nl.program, &choices, &nl_db, BaseDistribution::Shared).unwrap(),
        ),
        (
            "skew-aware",
            skew_aware_hash_partition(&sirup, n, &zipf, &SkewPolicy::default()).unwrap(),
        ),
        ("demand", demand),
    ]
}

/// The relations a worker's sending rules select from.
fn sources(pp: &ProcessorProgram) -> Vec<(parallel_datalog::common::SymbolId, usize)> {
    let channels: Vec<_> = pp.outgoing.iter().map(|c| c.channel).collect();
    let mut out = Vec::new();
    for rule in &pp.program.rules {
        if channels.contains(&(rule.head.predicate, rule.head.terms.len())) {
            let atom = rule.body_atoms().next().expect("a sending rule reads one atom");
            let id = (atom.predicate, atom.terms.len());
            if !out.contains(&id) {
                out.push(id);
            }
        }
    }
    out
}

/// `expected[i][j]`: tuples the spec sends from `i` to `j`, given each
/// sender's final source relations in `pooled`.
fn spec_traffic(workers: &[WorkerSpec], pooled: &ExecutionOutcome) -> Vec<Vec<u64>> {
    let n = workers.len();
    let mut expected = vec![vec![0u64; n]; n];
    for spec in workers {
        let pp = &spec.program;
        let interner = pp.program.interner.clone();
        let mut db = Database::new(interner.clone());
        for source in sources(pp) {
            db.put_relation(source, pooled.relation(source)).unwrap();
        }
        for j in (0..n).filter(|&j| j != pp.processor) {
            let link: Vec<_> = pp
                .outgoing
                .iter()
                .filter(|c| c.dest == j)
                .map(|c| c.channel)
                .collect();
            let rules: Vec<Rule> = pp
                .program
                .rules
                .iter()
                .filter(|r| link.contains(&(r.head.predicate, r.head.terms.len())))
                .cloned()
                .collect();
            let model = seminaive_eval(&Program::new(rules, interner.clone()), &db).unwrap();
            expected[pp.processor][j] = link.iter().map(|&c| model.relation(c).len() as u64).sum();
        }
    }
    expected
}

fn check(n: usize, firings: &[(&str, u64)]) {
    for (name, scheme) in schemes(n) {
        // Pool each worker's source relations under their own names: the
        // spec's traffic is a function of them. Ask for the channel
        // predicates too: a worker keeps no relation for them, so none
        // may come back.
        let mut workers = scheme.workers.clone();
        let mut channels = Vec::new();
        for spec in &mut workers {
            channels.extend(spec.program.outgoing.iter().map(|c| c.channel));
            spec.program.pooling = sources(&spec.program)
                .into_iter()
                .chain(spec.program.outgoing.iter().map(|c| c.channel))
                .map(|s| (s, s))
                .collect();
        }
        let transports: [(&str, Box<dyn Transport>); 2] = [
            ("threads", Box::new(ThreadedTransport)),
            ("lockstep", Box::new(SimTransport::lockstep())),
        ];
        let pinned = firings.iter().find(|(s, _)| *s == name).expect("pinned").1;
        for (transport_name, transport) in transports {
            let outcome = transport.execute(workers.clone(), &RuntimeConfig::default()).unwrap();
            let expected = spec_traffic(&workers, &outcome);
            assert_eq!(
                outcome.stats.channel_matrix, expected,
                "{name} N={n} on {transport_name}: shipped tuples per link"
            );
            assert!(
                channels.iter().all(|c| !outcome.relations.contains_key(c)),
                "{name} N={n} on {transport_name}: a channel predicate kept an arena"
            );
            let total: u64 = outcome.stats.workers.iter().map(|w| w.eval.firings).sum();
            assert_eq!(total, pinned, "{name} N={n} on {transport_name}: total firings");
        }
        if name != "example1" {
            assert!(
                scheme.run().unwrap().stats.total_tuples_sent() > 0,
                "{name} N={n}: the scheme must ship for the check to mean anything"
            );
        }
    }
}

#[test]
fn shipped_tuples_match_the_spec_at_two_processors() {
    check(
        2,
        &[
            ("example1", 2646),
            ("example2-broadcast", 4390),
            ("example3", 3073),
            ("generalized-s6", 3806),
            ("general-s7", 23590),
            ("skew-aware", 529),
            ("demand", 3332),
        ],
    );
}

#[test]
fn shipped_tuples_match_the_spec_at_four_processors() {
    check(
        4,
        &[
            ("example1", 2646),
            ("example2-broadcast", 8942),
            ("example3", 3459),
            ("generalized-s6", 6986),
            ("general-s7", 26726),
            ("skew-aware", 579),
            ("demand", 4821),
        ],
    );
}
