//! `view-updates`: DRed maintenance of transitive closure under the §7
//! general scheme. A seeded stream of balanced batches, each deleting
//! two live edges and inserting two fresh ones, keeps the graph's
//! density constant. The graph is sparse on purpose so deletion cones
//! stay local; a graph with one giant component, where a single delete
//! removes the whole closure, is a different workload. Average degree
//! 0.7 keeps it clear of the critical degree 1, where component sizes
//! become heavy-tailed and the cost per batch swings with the seed.

use std::sync::Arc;
use std::time::Instant;

use gst_common::{ituple, SmallRng, Tuple};
use gst_core::prelude::{
    rewrite_general, BaseDistribution, DiscriminatorRef, HashMod, RuleChoice, UpdateBatch,
    UpdateSession,
};
use gst_eval::plan::RelationId;
use gst_eval::seminaive_eval;
use gst_frontend::Variable;
use gst_runtime::{RuntimeConfig, ThreadedTransport};
use gst_workloads::{linear_ancestor, random_digraph};

use crate::{Ctx, Report, Scale, WORKERS};

/// Batches a run applies at least, so the p95 has ten samples beyond it.
const MIN_OPS: u64 = 200;

/// Every this many batches the maintained view is compared with a
/// from-scratch sequential recompute (and once more at the end).
const CHECK_EVERY: u64 = 4;

/// Hash seed of the discriminating functions.
const HASH_SEED: u64 = 0x9e37;

pub fn run(ctx: &mut Ctx) -> Report {
    let (nodes, edge_count) = match ctx.scale {
        Scale::Full => (1500, 1050),
        Scale::Smoke => (40, 32),
    };
    let edges = random_digraph(nodes, edge_count, ctx.seed);
    let fx = linear_ancestor();
    let (anc, edge) = (fx.output_id(), fx.input_id(0));
    let db = fx.database(&edges);
    let var = |name: &str| Variable(fx.program.interner.get(name).expect("rule variable"));
    let h: DiscriminatorRef = Arc::new(HashMod::new(WORKERS, HASH_SEED));
    let choices = vec![
        RuleChoice {
            v: vec![var("Y")],
            h: h.clone(),
        },
        RuleChoice {
            v: vec![var("Z")],
            h,
        },
    ];
    let transport = ThreadedTransport;
    let mut report = Report {
        tail_q: 0.95,
        ..Report::default()
    };

    let mut session = None;
    let setup_start = Instant::now();
    while ctx.more_setup(setup_start, report.setup_s.raw.len()) {
        let speed = ctx.speed();
        let setup = ctx.tracer.begin("setup", None);
        let (scheme, compile) = ctx.tracer.time("core.compile", Some(setup), || {
            rewrite_general(&fx.program, &choices, &db, BaseDistribution::Shared)
        });
        let scheme = scheme.expect("§7 general scheme compiles linear ancestor");
        let (made, new) = ctx.tracer.time("core.session_new", Some(setup), || {
            UpdateSession::new(&scheme, &fx.program, &db)
        });
        let mut made = made.expect("update session over the general scheme");
        let (init, _) = ctx.tracer.time("core.session_initialize", Some(setup), || {
            made.initialize(&transport, &RuntimeConfig::default())
                .map(|_| ())
        });
        init.expect("initial fixpoint");
        report
            .setup_s
            .push(ctx.tracer.end(setup).as_secs_f64(), speed.serial);
        report
            .layers
            .add("core.compile_ms", (compile + new).as_secs_f64() * 1e3);
        session = Some(made);
    }
    let mut session = session.expect("at least one set-up");

    let mut live: Vec<Tuple> = edges.iter().cloned().collect();
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0xba7c_04e5);
    let (mut overdeleted, mut seeds) = (0u64, 0u64);
    let start = Instant::now();
    let mut k = 0;
    while ctx.more(start, k, MIN_OPS) {
        let (config, profiled) = ctx.config(k);
        let speed = ctx.speed();
        k += 1;
        let batch = balanced_batch(&mut rng, &mut live, nodes, edge, |t| {
            session.edb().relation(edge).is_some_and(|r| r.contains(t))
        });

        let op = ctx.tracer.begin("op", None);
        let (applied, _) = ctx.tracer.time("core.apply", Some(op), || {
            session.apply(&batch, &transport, &config).map(|_| ())
        });
        let wall = ctx.tracer.end(op);
        let applied = applied.map(|()| session.reports().last().cloned().expect("round report"));
        let mut ok = applied.is_ok();

        if k % CHECK_EVERY == 0 || !ctx.more(start, k, MIN_OPS) {
            let (recomputed, seq_time) = ctx
                .tracer
                .time("seq", None, || seminaive_eval(&fx.program, session.edb()));
            report
                .seq_ms
                .push(seq_time.as_secs_f64() * 1e3, speed.serial);
            let (same, verify) = ctx.tracer.time("storage.verify", None, || {
                recomputed.is_ok_and(|r| {
                    r.idb
                        .get(&anc)
                        .is_some_and(|v| v.set_eq(&session.answer(anc)))
                })
            });
            ok &= same;
            if profiled {
                report
                    .layers
                    .add("storage.verify_ms", verify.as_secs_f64() * 1e3);
            }
        }
        report.op(ok);
        let Ok(round) = applied else { continue };
        overdeleted += round.overdeleted;
        seeds += round.rederive_seeds;
        let wall_ms = wall.as_secs_f64() * 1e3;
        if !profiled {
            report.op_ms.push(wall_ms, speed.serial);
            continue;
        }
        report.profiled_op_ms.push(wall_ms, speed.serial);
        let phases: Vec<_> = round.phase_a.iter().chain(&round.phase_b).collect();
        let parallel_ms: f64 = phases.iter().map(|p| p.wall_time.as_secs_f64() * 1e3).sum();
        let rounds = phases
            .iter()
            .flat_map(|p| &p.workers)
            .map(|w| w.eval.rounds)
            .max()
            .unwrap_or(0);
        let l = &mut report.layers;
        l.add("core.session_parallel_ms", parallel_ms);
        l.add("core.session_host_ms", wall_ms - parallel_ms);
        l.add("runtime.execute_ms", parallel_ms);
        l.add("eval.rounds_max", rounds as f64);
    }
    let l = &mut report.layers;
    l.set("core.overdeleted", overdeleted as f64 / k.max(1) as f64);
    l.set("core.rederive_seeds", seeds as f64 / k.max(1) as f64);
    l.set(
        "core.rederive_frac",
        if overdeleted > 0 {
            seeds as f64 / overdeleted as f64
        } else {
            0.0
        },
    );
    report.sizes = vec![
        ("nodes", nodes),
        ("edges", edges.len() as u64),
        ("closure_tuples", session.answer(anc).len() as u64),
        ("batches", k),
    ];
    report
}

/// Two live edges to delete and two absent ones to insert. `present`
/// says whether an edge is in the database now; `live` is kept in step.
fn balanced_batch(
    rng: &mut SmallRng,
    live: &mut Vec<Tuple>,
    nodes: u64,
    edge: RelationId,
    present: impl Fn(&Tuple) -> bool,
) -> UpdateBatch {
    let deletes: Vec<Tuple> = (0..2)
        .map(|_| live.swap_remove(rng.gen_below(live.len() as u64) as usize))
        .collect();
    let mut inserts: Vec<Tuple> = Vec::new();
    while inserts.len() < 2 {
        let (a, b) = (rng.gen_below(nodes) as i64, rng.gen_below(nodes) as i64);
        let t = ituple![a, b];
        if a != b && !present(&t) && !deletes.contains(&t) && !inserts.contains(&t) {
            inserts.push(t);
        }
    }
    live.extend(inserts.iter().cloned());
    UpdateBatch {
        deletes: deletes.into_iter().map(|t| (edge, t)).collect(),
        inserts: inserts.into_iter().map(|t| (edge, t)).collect(),
    }
}
