//! `point-queries`: one client sends a seeded stream of bound-first
//! queries `anc(c, Y)`, each after the previous answer arrived. Each
//! query is a magic-sets rewrite, a demand-partitioned compile and one
//! parallel evaluation over right-linear ancestor. The demand partition
//! co-locates demand with data, so nothing is shipped: fixed per-query
//! costs (rewrite, EDB redistribution, spawn, termination) dominate.

use std::time::Instant;

use gst_common::{FxHashMap, SmallRng, Value};
use gst_core::prelude::compile_demand;
use gst_eval::seminaive_eval;
use gst_frontend::magic::{magic_rewrite, MagicRewrite};
use gst_frontend::{Atom, Term, Variable};
use gst_storage::Relation;
use gst_workloads::{layered, right_linear_ancestor};

use crate::sys::process_cpu_time;
use crate::{Ctx, Report, Scale, WORKERS};

/// Queries a run makes at least.
const MIN_OPS: u64 = 1000;

/// The quantile `op_tail_ms` reports. The cost of a query barely varies
/// past p90 (queries from the first layer reach the whole graph); what
/// lies beyond p95 on a shared machine is scheduler hiccups, which moved
/// p99 by a third between runs of one seed.
const TAIL_Q: f64 = 0.95;

pub fn run(ctx: &mut Ctx) -> Report {
    // (layers, width, fanout) of the layered DAG.
    let (depth, width, fanout) = match ctx.scale {
        Scale::Full => (12, 300, 2),
        Scale::Smoke => (4, 12, 2),
    };
    let edges = layered(depth, width, fanout, ctx.seed);
    let fx = right_linear_ancestor();
    let anc = fx.output_id();
    let mut report = Report {
        tail_q: TAIL_Q,
        ..Report::default()
    };

    let mut db = None;
    let setup_start = Instant::now();
    while ctx.more_setup(setup_start, report.setup_s.raw.len()) {
        let speed = ctx.speed();
        let (built, took) = ctx.tracer.time("setup", None, || fx.database(&edges));
        report.setup_s.push(took.as_secs_f64(), speed.serial);
        db = Some(built);
    }
    let db = db.expect("at least one set-up");

    // The oracle closure, indexed once by its first column.
    let closure = seminaive_eval(&fx.program, &db)
        .expect("sequential oracle")
        .relation(anc);
    let mut by_source: FxHashMap<Value, Relation> = FxHashMap::default();
    for t in closure.iter() {
        by_source
            .entry(t.get(0))
            .or_insert_with(|| Relation::new(2))
            .insert_unchecked(t.clone());
    }
    let empty = Relation::new(2);

    let qy = Variable(fx.program.interner.intern("QY"));
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x5eed_9e37);
    let start = Instant::now();
    let mut k = 0;
    let mut shipped = 0u64;
    while ctx.more(start, k, MIN_OPS) {
        let (config, profiled) = ctx.config(k);
        let speed = ctx.speed();
        k += 1;
        let c = Value::Int(rng.gen_below(depth * width) as i64);
        let goal = Atom::new(anc.0, vec![Term::Const(c), Term::Var(qy)]);

        let cpu0 = process_cpu_time();
        let op = ctx.tracer.begin("op", None);
        let (rw, rewrite) = ctx.tracer.time("frontend.magic_rewrite", Some(op), || {
            magic_rewrite(&fx.program, &goal)
        });
        let Ok(rw) = rw else {
            ctx.tracer.end(op);
            report.op(false);
            continue;
        };
        let (scheme, demand) = ctx.tracer.time("core.compile_demand", Some(op), || {
            compile_demand(&rw, &db, WORKERS)
        });
        let (outcome, exec) = ctx.tracer.time("runtime.execute", Some(op), || {
            scheme.and_then(|s| s.execute(&config))
        });
        let (answer, _) = ctx.tracer.time("frontend.answer_filter", Some(op), || {
            outcome
                .as_ref()
                .ok()
                .map(|o| filter(&rw, o.relations.get(&(rw.answer.name, rw.answer.arity))))
        });
        let wall = ctx.tracer.end(op);
        let cpu = process_cpu_time() - cpu0;

        // The sequential engine answering the same rewritten query.
        let (seq_answer, seq_time) = ctx.tracer.time("seq", None, || {
            let mut seeded = db.clone();
            seeded.insert(
                (rw.seed_predicate.name, rw.seed_predicate.arity),
                rw.seed_fact.clone(),
            )?;
            seminaive_eval(&rw.program, &seeded)
                .map(|r| filter(&rw, r.idb.get(&(rw.answer.name, rw.answer.arity))))
        });
        report
            .seq_ms
            .push(seq_time.as_secs_f64() * 1e3, speed.serial);

        let expected = by_source.get(&c).unwrap_or(&empty);
        let (ok, verify) = ctx.tracer.time("storage.verify", None, || {
            answer.as_ref().is_some_and(|a| a.set_eq(expected))
                && seq_answer.as_ref().is_ok_and(|a| a.set_eq(expected))
        });
        report.op(ok);
        if let Ok(o) = &outcome {
            shipped += o.stats.total_bytes_sent();
        }
        let wall_ms = wall.as_secs_f64() * 1e3;
        if !profiled {
            report.op_ms.push(wall_ms, speed.serial);
            continue;
        }
        report.profiled_op_ms.push(wall_ms, speed.serial);
        let l = &mut report.layers;
        if let Ok(o) = &outcome {
            l.add_execution(&o.stats, exec, cpu);
        }
        l.add("frontend.magic_rewrite_us", rewrite.as_secs_f64() * 1e6);
        l.add("core.compile_demand_us", demand.as_secs_f64() * 1e6);
        l.add("runtime.execute_ms", exec.as_secs_f64() * 1e3);
        l.add("storage.verify_ms", verify.as_secs_f64() * 1e3);
    }
    report.sizes = vec![
        ("nodes", depth * width),
        ("edges", edges.len() as u64),
        ("closure_tuples", closure.len() as u64),
        ("queries", k),
        ("bytes_shipped", shipped),
    ];
    report
}

/// The query's own answers out of the adorned answer relation.
fn filter(rw: &MagicRewrite, adorned: Option<&Relation>) -> Relation {
    let mut out = Relation::new(rw.answer.arity);
    for t in adorned.into_iter().flat_map(Relation::iter) {
        if rw.answer_matches(t) {
            out.insert_unchecked(t.clone());
        }
    }
    out
}
