//! The repository benchmark: four closed-loop workloads over the
//! parallel Datalog runtime, each checked against the sequential
//! semi-naive oracle on every operation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tc-bulk --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, with every time normalised
//! to a nominal machine speed by a calibration kernel timed next to the
//! operations (see [`Ctx::speed`]); `--trace 1` turns on the
//! runtime's phase profiler, writes the span file to `perfbench/out/`
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object; the human-readable report goes to standard error.
//! `--scale smoke` shrinks every input to toy size for the smoke test.
//! See `perfbench/README.md` for the workloads and what each metric
//! should move.

mod point;
mod sys;
mod tc;
mod trace;
mod updates;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use gst_bench::json::{count, num, s, Json};
use gst_runtime::{ParallelStats, RuntimeConfig};

use crate::sys::{median, quantile};
use crate::trace::Tracer;

/// Workers of every parallel evaluation.
pub const WORKERS: usize = 2;

/// Set-up repeats at least this often and for at least `SETUP_TIME`
/// per run; `setup_s` is the median. Cheap set-ups thus get hundreds of
/// samples, and every set-up spans several calibrations, which their
/// millisecond timings need to be steady from run to run.
const SETUP_REPS: usize = 25;
const SETUP_TIME: Duration = Duration::from_millis(1500);

/// How often the calibration kernels run, and their times at which a
/// normalised time equals the raw one (their medians on the 2-vCPU
/// machine the baseline was taken on): on one thread, and on `WORKERS`
/// threads at once.
const CAL_EVERY: Duration = Duration::from_millis(500);
const CAL_NOMINAL_MS: [f64; 2] = [10.5, 13.5];

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("seq_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("frontend.magic_rewrite_us", "us"),
    ("core.compile_ms", "ms"),
    ("core.compile_demand_us", "us"),
    ("core.session_host_ms", "ms"),
    ("core.session_parallel_ms", "ms"),
    ("core.overdeleted", "count"),
    ("core.rederive_seeds", "count"),
    ("core.rederive_frac", "frac"),
    ("eval.firings", "count"),
    ("eval.ns_per_firing", "ns"),
    ("eval.seq_ns_per_firing", "ns"),
    ("eval.rounds_max", "count"),
    ("storage.dedup_ratio", "frac"),
    ("storage.verify_ms", "ms"),
    ("runtime.execute_ms", "ms"),
    ("runtime.bytes_shipped", "B"),
    ("runtime.comm_tuples", "count"),
    ("runtime.messages", "count"),
    ("runtime.bytes_per_tuple", "B/tuple"),
    ("runtime.compute_ms", "ms"),
    ("runtime.encode_ms", "ms"),
    ("runtime.decode_ms", "ms"),
    ("runtime.idle_ms", "ms"),
    ("runtime.busy_frac", "frac"),
    ("runtime.cpu_frac", "frac"),
    ("runtime.firing_skew", "ratio"),
    ("runtime.us_per_round", "us"),
    ("runtime.relay_bytes", "B"),
    ("runtime.frame_overhead", "frac"),
    ("bench.unattributed_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
];

pub const WORKLOADS: [&str; 4] = ["tc-bulk", "tc-tcp", "point-queries", "view-updates"];

/// Input sizes: full for measurement, toy for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub scale: Scale,
    pub tracer: Tracer,
    /// Every calibration kernel time, ms, on one and on `WORKERS`
    /// threads, and when the last pair ran.
    cal_ms: [Vec<f64>; 2],
    cal_at: Option<Instant>,
}

/// How fast the machine runs now relative to nominal, for work on one
/// thread and for work on `WORKERS` threads. Multiplying a time taken
/// now by the matching factor gives the time at nominal speed.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    pub serial: f64,
    pub parallel: f64,
}

impl Ctx {
    /// The runtime configuration of operation `k`. A traced run
    /// alternates unprofiled and profiled operations, so the profiler's
    /// cost is measured inside the same process; an untraced run never
    /// profiles.
    pub fn config(&self, k: u64) -> (RuntimeConfig, bool) {
        let profiled = self.trace && k % 2 == 1;
        let mut config = RuntimeConfig::default();
        config.worker.profile = profiled;
        (config, profiled)
    }

    /// The machine's current speed: nominal over the latest calibration
    /// kernel times, re-measured once they are older than `CAL_EVERY`.
    /// The machine is shared, and its speed steps by up to 2× for
    /// seconds to minutes at a time; raw run medians moved by a quarter.
    pub fn speed(&mut self) -> Speed {
        if self.cal_at.is_none_or(|at| at.elapsed() >= CAL_EVERY) {
            for (k, threads) in [1, WORKERS].into_iter().enumerate() {
                let (took, _) = self
                    .tracer
                    .time("calibrate", None, || sys::calibration_kernel(threads));
                self.cal_ms[k].push(took.as_secs_f64() * 1e3);
            }
            self.cal_at = Some(Instant::now());
        }
        let factor = |k: usize| CAL_NOMINAL_MS[k] / self.cal_ms[k].last().expect("calibrated");
        Speed {
            serial: factor(0),
            parallel: factor(1),
        }
    }

    /// True while set-up should repeat, `done` repetitions after `start`.
    pub fn more_setup(&self, start: Instant, done: usize) -> bool {
        done < SETUP_REPS || (self.scale == Scale::Full && start.elapsed() < SETUP_TIME)
    }

    /// True while the measured loop should continue: until `--seconds`
    /// have passed and at least `min_ops` operations ran (one at smoke
    /// scale, where no percentile is meaningful).
    pub fn more(&self, start: Instant, done: u64, min_ops: u64) -> bool {
        let floor = if self.scale == Scale::Full {
            min_ops
        } else {
            1
        };
        done < floor || start.elapsed() < self.seconds
    }
}

/// Per-layer samples; a metric's value is the median of its samples
/// unless a workload sets it outright.
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    fixed: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn check(name: &str) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        Self::check(name);
        self.samples.entry(name).or_default().push(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        Self::check(name);
        self.fixed.insert(name, v);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.fixed
            .get(name)
            .copied()
            .or_else(|| self.samples.get(name).map(|v| median(v)))
            .unwrap_or(0.0)
    }

    /// Counters and phase times of one profiled parallel evaluation that
    /// took `wall` and `cpu` (process CPU time) from the client's side.
    pub fn add_execution(&mut self, stats: &ParallelStats, wall: Duration, cpu: Duration) {
        let w = &stats.workers;
        let n = w.len().max(1) as f64;
        let bytes = stats.total_bytes_sent() as f64;
        let tuples = stats.total_tuples_sent() as f64;
        let firings: Vec<f64> = w.iter().map(|r| r.processing_firings as f64).collect();
        let total_firings: f64 = firings.iter().sum();
        let rounds = w.iter().map(|r| r.eval.rounds).max().unwrap_or(0) as f64;
        let derived: u64 = w.iter().map(|r| r.eval.derived).sum();
        let dups: u64 = w.iter().map(|r| r.eval.duplicates).sum();
        let mut phases = [0u64; 5];
        for p in w.iter().filter_map(|r| r.profile.as_ref()) {
            for (t, v) in phases.iter_mut().zip(p.phases.as_array()) {
                *t += v;
            }
        }
        let [compute_us, encode_us, decode_us, _replay_us, idle_us] = phases;
        let busy: f64 = w.iter().map(|r| r.busy.as_secs_f64()).sum();
        let wall_s = wall.as_secs_f64();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

        self.add("eval.firings", total_firings);
        self.add("eval.rounds_max", rounds);
        self.add(
            "eval.ns_per_firing",
            ratio(compute_us as f64 * 1e3, total_firings),
        );
        self.add(
            "storage.dedup_ratio",
            ratio(dups as f64, (derived + dups) as f64),
        );
        self.add("runtime.bytes_shipped", bytes);
        self.add("runtime.comm_tuples", tuples);
        self.add("runtime.messages", stats.total_messages() as f64);
        self.add("runtime.bytes_per_tuple", ratio(bytes, tuples));
        self.add("runtime.compute_ms", compute_us as f64 / 1e3);
        self.add("runtime.encode_ms", encode_us as f64 / 1e3);
        self.add("runtime.decode_ms", decode_us as f64 / 1e3);
        self.add("runtime.idle_ms", idle_us as f64 / 1e3);
        self.add("runtime.busy_frac", ratio(busy, n * wall_s));
        self.add(
            "runtime.cpu_frac",
            ratio(cpu.as_secs_f64(), wall_s * sys::nproc() as f64),
        );
        self.add(
            "runtime.firing_skew",
            ratio(
                firings.iter().copied().fold(0.0, f64::max),
                total_firings / n,
            ),
        );
        self.add("runtime.us_per_round", ratio(wall_s * 1e6, rounds));
        self.add("runtime.relay_bytes", stats.relay_bytes as f64);
        self.add(
            "runtime.frame_overhead",
            if stats.relay_bytes > 0 {
                ratio(stats.relay_bytes as f64, bytes) - 1.0
            } else {
                0.0
            },
        );
    }
}

/// Time samples as measured and normalised to nominal machine speed.
#[derive(Default)]
pub struct Timings {
    pub raw: Vec<f64>,
    pub norm: Vec<f64>,
}

impl Timings {
    /// Record `raw`, taken while the machine ran at `speed`.
    pub fn push(&mut self, raw: f64, speed: f64) {
        self.raw.push(raw);
        self.norm.push(raw * speed);
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and those that returned `Err` or a wrong
    /// answer.
    pub attempted: u64,
    pub failed: u64,
    /// One sample per set-up repetition, seconds.
    pub setup_s: Timings,
    /// Latency of every unprofiled operation, milliseconds.
    pub op_ms: Timings,
    /// Latency of every profiled operation (traced runs only).
    pub profiled_op_ms: Timings,
    /// The quantile `op_tail_ms` reports, chosen per workload.
    pub tail_q: f64,
    /// The sequential engine doing the same job, milliseconds.
    pub seq_ms: Timings,
    pub layers: Layers,
    /// Input and output sizes, for the machine block.
    pub sizes: Vec<(&'static str, u64)>,
    /// Peak resident memory once set-up and the first operation ran.
    /// Read then and not at the end: how far a run gets depends on its
    /// speed, and over a long loop of threaded runs the allocator's
    /// high-water mark wanders by a fifth between runs of one seed.
    pub peak_rss_mb: f64,
}

impl Report {
    /// Count one operation; `ok` false counts it as failed. The first
    /// one also fixes `peak_rss_mb`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if self.attempted == 1 {
            self.peak_rss_mb = sys::peak_rss_mb();
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(k) => argv
                .get(k + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let workload = value("--workload")?
        .ok_or("--workload is required")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag)?.map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {flag} {v}"))
        })
    };
    let trace = match value("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let scale = match value("--scale")?.unwrap_or("full") {
        "full" => Scale::Full,
        "smoke" => Scale::Smoke,
        other => return Err(format!("--scale must be full or smoke, not {other}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed", 1)?,
        seconds: num("--seconds", 10)?,
        trace,
        scale,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) && args.scale == Scale::Full {
        eprintln!("perfbench: warning: debug build, timings are not meaningful");
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        scale: args.scale,
        tracer: Tracer::new(),
        cal_ms: [Vec::new(), Vec::new()],
        cal_at: None,
    };
    let mut report = match args.workload.as_str() {
        "tc-bulk" => tc::run(&mut ctx, false),
        "tc-tcp" => tc::run(&mut ctx, true),
        "point-queries" => point::run(&mut ctx),
        "view-updates" => updates::run(&mut ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    let nesting = ctx.tracer.nesting_errors();
    for e in &nesting {
        eprintln!("perfbench: span nesting: {e}");
    }
    let plain_p50 = median(&report.op_ms.norm);
    if args.trace {
        let l = &mut report.layers;
        l.set(
            "bench.unattributed_frac",
            ctx.tracer.unattributed_frac("op"),
        );
        let profiled = median(&report.profiled_op_ms.norm);
        l.set(
            "bench.trace_overhead_frac",
            if plain_p50 > 0.0 {
                profiled / plain_p50 - 1.0
            } else {
                0.0
            },
        );
    }

    let e2e = [
        median(&report.setup_s.norm),
        plain_p50,
        quantile(&report.op_ms.norm, report.tail_q),
        median(&report.seq_ms.norm),
        report.peak_rss_mb,
    ];
    let machine = machine_block(&args, &report);
    eprintln!("{}", machine.render());
    for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
        eprintln!("  {name:<28} {v:>14.6} {unit}");
    }
    let samples = [
        ("op_ms", &report.op_ms.raw),
        ("op_ms.norm", &report.op_ms.norm),
        ("seq_ms", &report.seq_ms.raw),
        ("seq_ms.norm", &report.seq_ms.norm),
        ("setup_s", &report.setup_s.raw),
        ("setup_s.norm", &report.setup_s.norm),
        ("cal_ms.1", &ctx.cal_ms[0]),
        ("cal_ms.2", &ctx.cal_ms[1]),
    ];
    for (name, xs) in samples {
        let q = |p| quantile(xs, p);
        eprintln!(
            "  {name:<12} n={:<6} min {:.6}  p25 {:.6}  p50 {:.6}  p75 {:.6}  max {:.6}",
            xs.len(),
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        );
    }
    eprintln!(
        "  {:<28} {:>14.4}  (op_p50_ms / seq_p50_ms, not gated)",
        "op_over_seq",
        if e2e[3] > 0.0 { e2e[1] / e2e[3] } else { 0.0 }
    );
    eprintln!(
        "  {:<28} {:>14.4}  (VmHWM at the end, not gated)",
        "rss_end_mb",
        sys::peak_rss_mb()
    );
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    eprintln!(
        "  {:<28} {failed_frac:>14.4}  ({} of {})",
        "failed_ops_frac", report.failed, report.attempted
    );
    if args.trace {
        for (name, unit) in PER_LAYER {
            eprintln!("  {name:<28} {:>14.4} {unit}", report.layers.value(name));
        }
        write_trace(&args, &ctx.tracer, &report, machine);
    }

    let correct = report.failed == 0 && nesting.is_empty() && report.attempted > 0;
    let metrics: Vec<(&str, Json)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, metric(report.layers.value(name), unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((name, unit), v)| (*name, metric(v, unit)))
            .collect()
    };
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", count(report.attempted)),
        ("failed", count(report.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.render());
    if !correct {
        std::process::exit(1);
    }
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", num(value)), ("unit", s(unit))])
}

fn machine_block(args: &Args, report: &Report) -> Json {
    Json::obj(vec![
        ("workload", s(args.workload.clone())),
        ("seed", count(args.seed)),
        ("seconds", count(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("scale", s(format!("{:?}", args.scale).to_lowercase())),
        ("workers", count(WORKERS as u64)),
        ("nproc", count(sys::nproc() as u64)),
        ("git_rev", s(sys::git_rev())),
        ("rustc", s(sys::rustc_version())),
        (
            "sizes",
            Json::obj(report.sizes.iter().map(|(k, v)| (*k, count(*v))).collect()),
        ),
        ("ops", count(report.attempted)),
        ("failed", count(report.failed)),
    ])
}

/// Write the traced run's span file next to the benchmark.
fn write_trace(args: &Args, tracer: &Tracer, report: &Report, machine: Json) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, metric(report.layers.value(name), unit)))
        .collect();
    let doc = Json::obj(vec![
        ("machine", machine),
        ("per_layer", Json::obj(per_layer)),
        ("trace", tracer.export()),
    ]);
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.render()));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
