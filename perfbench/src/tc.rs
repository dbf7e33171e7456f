//! `tc-bulk` and `tc-tcp`: the paper's own query, linear ancestor under
//! the §3 Q_i hash partition (Example 3), evaluated whole, one
//! evaluation at a time. `tc-bulk` runs on worker threads; `tc-tcp` runs
//! the same scheme through the TCP coordinator over loopback sockets,
//! the only workload that exercises the framed wire protocol.

use std::sync::Arc;
use std::time::Instant;

use gst_core::prelude::{decode_constraint, example3_hash_partition};
use gst_eval::seminaive_eval;
use gst_frontend::LinearSirup;
use gst_runtime::{InProcessLauncher, NetConfig, NetCoordinator, ThreadedTransport, Transport};
use gst_workloads::{linear_ancestor, random_digraph};

use crate::sys::process_cpu_time;
use crate::{Ctx, Report, Scale, WORKERS};

/// Evaluations a run makes at least, whatever `--seconds` says.
const MIN_OPS: u64 = 40;

/// `(nodes, edges)` of the random digraph. At average out-degree 3 the
/// graph has one giant strongly connected component, so the closure
/// covers most node pairs and its size barely moves with the seed.
fn graph_size(scale: Scale, tcp: bool) -> (u64, u64) {
    match (scale, tcp) {
        (Scale::Full, false) => (500, 1500),
        (Scale::Full, true) => (400, 1200),
        (Scale::Smoke, _) => (60, 180),
    }
}

pub fn run(ctx: &mut Ctx, tcp: bool) -> Report {
    let (nodes, edge_count) = graph_size(ctx.scale, tcp);
    let edges = random_digraph(nodes, edge_count, ctx.seed);
    let fx = linear_ancestor();
    let anc = fx.output_id();
    let db = fx.database(&edges);
    let oracle = seminaive_eval(&fx.program, &db).expect("sequential oracle");
    let reference = oracle.relation(anc);
    let mut report = Report {
        // 10 samples beyond the quantile at the minimum op count.
        tail_q: 1.0 - 10.0 / MIN_OPS as f64,
        ..Report::default()
    };

    let mut scheme = None;
    let setup_start = Instant::now();
    while ctx.more_setup(setup_start, report.setup_s.raw.len()) {
        let speed = ctx.speed();
        let setup = ctx.tracer.begin("setup", None);
        let (compiled, compile) = ctx.tracer.time("core.compile", Some(setup), || {
            let sirup = LinearSirup::from_program(&fx.program)?;
            example3_hash_partition(&sirup, WORKERS, &db)
        });
        report
            .setup_s
            .push(ctx.tracer.end(setup).as_secs_f64(), speed.serial);
        report
            .layers
            .add("core.compile_ms", compile.as_secs_f64() * 1e3);
        scheme = Some(compiled.expect("Example 3 compiles linear ancestor"));
    }
    let scheme = scheme.expect("at least one set-up");
    let transport: Box<dyn Transport> = if tcp {
        Box::new(NetCoordinator::new(
            Arc::new(InProcessLauncher {
                decoder: Some(decode_constraint),
            }),
            NetConfig::default(),
        ))
    } else {
        Box::new(ThreadedTransport)
    };

    let start = Instant::now();
    let mut k = 0;
    while ctx.more(start, k, MIN_OPS) {
        let (config, profiled) = ctx.config(k);
        let speed = ctx.speed();
        k += 1;

        let (seq, seq_time) = ctx
            .tracer
            .time("seq", None, || seminaive_eval(&fx.program, &db));
        let seq_firings = seq.map(|r| r.stats.firings).unwrap_or(0);
        report
            .seq_ms
            .push(seq_time.as_secs_f64() * 1e3, speed.serial);

        let cpu0 = process_cpu_time();
        let op = ctx.tracer.begin("op", None);
        let (outcome, exec) = ctx.tracer.time("runtime.execute", Some(op), || {
            transport.execute(scheme.workers.clone(), &config)
        });
        let wall = ctx.tracer.end(op);
        let cpu = process_cpu_time() - cpu0;

        let (ok, verify) = ctx.tracer.time("storage.verify", None, || {
            seq_firings == oracle.stats.firings
                && outcome
                    .as_ref()
                    .is_ok_and(|o| o.relations.get(&anc).is_some_and(|r| r.set_eq(&reference)))
        });
        report.op(ok);
        let wall_ms = wall.as_secs_f64() * 1e3;
        if !profiled {
            report.op_ms.push(wall_ms, speed.parallel);
            continue;
        }
        report.profiled_op_ms.push(wall_ms, speed.parallel);
        let l = &mut report.layers;
        if let Ok(o) = &outcome {
            l.add_execution(&o.stats, exec, cpu);
        }
        l.add("runtime.execute_ms", exec.as_secs_f64() * 1e3);
        l.add("storage.verify_ms", verify.as_secs_f64() * 1e3);
        l.add(
            "eval.seq_ns_per_firing",
            seq_time.as_nanos() as f64 / seq_firings.max(1) as f64,
        );
    }
    report.sizes = vec![
        ("nodes", nodes),
        ("edges", edges.len() as u64),
        ("closure_tuples", reference.len() as u64),
        ("seq_firings", oracle.stats.firings),
        ("evaluations", k),
    ];
    report
}
