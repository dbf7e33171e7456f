//! The multi-process transport: one OS process per processor over TCP.
//!
//! The paper's architecture (§3) is agnostic about what a "processor" is;
//! [`crate::transport::ThreadedTransport`] realizes it as OS threads and
//! [`crate::sim::SimTransport`] as simulated interleavings. This module
//! cuts the same `WorkerCore` state machine at a *real
//! network boundary*: a [`NetCoordinator`] binds a TCP listener, launches
//! one worker per processor (a separate OS process under
//! [`ProcessLauncher`], or a thread speaking real loopback TCP under
//! [`InProcessLauncher`] for tests and benchmarks), ships each worker its
//! [`WorkerSpec`] over the framed wire protocol (the `wire` module), relays
//! worker-to-worker envelopes by destination, and pools the answer.
//!
//! ## Topology and protocol
//!
//! The fleet is a star: every worker holds exactly one TCP connection, to
//! the coordinator, which relays envelopes between workers without
//! re-encoding them: the destination leads the frame body, the relay
//! validates the envelope (corruption dies at the *sender's* link, never
//! inside an innocent receiver) and forwards the original bytes
//! verbatim. A (re)connecting
//! worker sends `Hello{index, incarnation}`; the coordinator answers with
//! the full `Job` (config, symbol table, program, EDB, session seed) so a
//! worker process is stateless across restarts — SIGKILL loses nothing
//! that the Job and the sender-side replay logs cannot rebuild.
//!
//! ## Crash recovery
//!
//! The supervisor protocol mirrors the threaded transport's exactly
//! (`DESIGN.md` §7): a worker death — process exit, socket EOF or reset,
//! corrupt frame, heartbeat timeout — is *recoverable*; within the restart
//! budget the coordinator bumps the recovery epoch, broadcasts `Recover`
//! to the survivors (who replay from their per-link replay logs), and
//! launches a fresh incarnation, which receives the Job again plus the
//! same `Recover` so it repairs into the current epoch. A typed
//! `wire::FRAME_ERROR` marked fatal (arity bugs, watchdog expiry)
//! aborts the fleet immediately.
//!
//! ## Fault injection
//!
//! [`NetFaultPlan`] arms deterministic *socket-level* faults on a worker's
//! write path — delay before connecting, abrupt disconnect after N bytes,
//! truncation mid-frame at byte N, garbage injection — so the recovery
//! machinery is testable in CI without flaky timing. [`KillSpec`] makes
//! the coordinator SIGKILL a live worker process after receiving N bytes
//! from it: a real `kill -9` mid-fixpoint, byte-counted for determinism.

use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use gst_common::{Error, FxHashMap, Interner, Result};
use gst_frontend::ast::ConstraintRef;

use crate::coordinator::RuntimeConfig;
use crate::message::{Envelope, Message};
use crate::obs::{ObsEvent, ObsKind, Probe, TimeBase};
use crate::spec::WorkerSpec;
use crate::stats::ExecutionOutcome;
use crate::transport::{assemble_outcome, validate_specs, Transport, WorkerResult};
use crate::wire;
use crate::worker::{finish_core, watchdog_error, Outbox, Step, WorkerCore};

/// A decoder for constraint literals that travel inside a job frame —
/// typically `gst_core::prelude::decode_constraint`. The runtime cannot
/// depend on `gst-core`, so whoever embeds a net worker injects it.
pub type ConstraintDecoderFn = fn(&[u8]) -> Result<ConstraintRef>;

/// Timing knobs for the TCP transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Address the coordinator binds its listener on. Port 0 picks a free
    /// ephemeral port. Default `127.0.0.1:0`.
    pub bind: SocketAddr,
    /// How often the coordinator pings every live link. Default 1s.
    pub heartbeat_interval: Duration,
    /// A link silent this long (no frames, no pongs) is declared dead;
    /// also the socket read/write timeout on both ends, so a wedged peer
    /// becomes an error instead of a hang. Default 20s.
    pub heartbeat_timeout: Duration,
    /// Total budget a worker spends trying to connect (and the
    /// coordinator spends waiting for a launched worker's Hello) before
    /// the attempt counts as a death. Default 10s.
    pub connect_timeout: Duration,
    /// Initial pause between a worker's connect attempts; doubles per
    /// failure. Default 50ms.
    pub connect_backoff: Duration,
    /// Cap on the exponential connect backoff. Default 2s.
    pub connect_backoff_cap: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            bind: SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0),
            heartbeat_interval: Duration::from_secs(1),
            heartbeat_timeout: Duration::from_secs(20),
            connect_timeout: Duration::from_secs(10),
            connect_backoff: Duration::from_millis(50),
            connect_backoff_cap: Duration::from_secs(2),
        }
    }
}

/// One deterministic socket-level fault, armed on a worker's write path.
///
/// Byte thresholds count the worker's cumulative bytes written on its
/// link (Hello included), so a fault fires at the same point in the
/// protocol on every run — no timing races.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// Sleep this many milliseconds before the first connect attempt.
    Delay(u64),
    /// Once this many bytes are written, abruptly close the socket
    /// between writes (the peer sees EOF, possibly mid-frame).
    Disconnect(u64),
    /// Write exactly this many bytes — cutting the current frame short —
    /// then close: the peer sees EOF *inside* a frame.
    Truncate(u64),
    /// At this many bytes, write garbage over the stream and close: the
    /// peer must reject the corruption cleanly, never panic or hang.
    Garbage(u64),
}

impl NetFault {
    /// Parse `kind@N` — e.g. `disconnect@2048`, `delay@500` (ms).
    pub fn parse(s: &str) -> Result<NetFault> {
        let (kind, at) = s
            .split_once('@')
            .ok_or_else(|| Error::Runtime(format!("fault `{s}` is not `kind@N`")))?;
        let at: u64 = at
            .parse()
            .map_err(|_| Error::Runtime(format!("fault `{s}`: `{at}` is not a number")))?;
        match kind {
            "delay" => Ok(NetFault::Delay(at)),
            "disconnect" => Ok(NetFault::Disconnect(at)),
            "truncate" => Ok(NetFault::Truncate(at)),
            "garbage" => Ok(NetFault::Garbage(at)),
            _ => Err(Error::Runtime(format!(
                "unknown fault kind `{kind}` (delay, disconnect, truncate, garbage)"
            ))),
        }
    }

    /// The `kind@N` form [`NetFault::parse`] accepts.
    pub fn render(&self) -> String {
        match self {
            NetFault::Delay(n) => format!("delay@{n}"),
            NetFault::Disconnect(n) => format!("disconnect@{n}"),
            NetFault::Truncate(n) => format!("truncate@{n}"),
            NetFault::Garbage(n) => format!("garbage@{n}"),
        }
    }
}

/// One worker's armed fault and whether it survives restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEntry {
    /// The worker whose link carries the fault.
    pub worker: usize,
    /// The fault itself.
    pub fault: NetFault,
    /// Persistent faults re-arm on every incarnation (driving the fleet
    /// into its restart budget); one-shot faults arm only the very first
    /// spawn of the worker, so the restarted incarnation runs clean.
    pub persistent: bool,
}

/// A deterministic socket-fault schedule for the fleet.
///
/// Grammar: comma-separated `W:kind@N` entries, `!` suffix for
/// persistent — e.g. `1:disconnect@2048,0:delay@500` or `1:garbage@150!`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    /// The armed faults, at most one consulted per worker (first match).
    pub faults: Vec<FaultEntry>,
}

impl NetFaultPlan {
    /// Parse the `W:kind@N[!],...` grammar. Empty input is an empty plan.
    pub fn parse(s: &str) -> Result<NetFaultPlan> {
        let mut faults = Vec::new();
        for part in s.split(',').filter(|p| !p.trim().is_empty()) {
            let part = part.trim();
            let (spec, persistent) = match part.strip_suffix('!') {
                Some(spec) => (spec, true),
                None => (part, false),
            };
            let (worker, fault) = spec
                .split_once(':')
                .ok_or_else(|| Error::Runtime(format!("fault `{part}` is not `W:kind@N`")))?;
            let worker: usize = worker
                .parse()
                .map_err(|_| Error::Runtime(format!("fault `{part}`: bad worker index")))?;
            faults.push(FaultEntry { worker, fault: NetFault::parse(fault)?, persistent });
        }
        Ok(NetFaultPlan { faults })
    }

    /// The fault to arm on `worker`'s next spawn, if any. One-shot faults
    /// apply only when this is the worker's first spawn ever (across
    /// every `execute` call of the coordinator's lifetime).
    pub fn fault_for(&self, worker: usize, first_spawn: bool) -> Option<NetFault> {
        self.faults
            .iter()
            .find(|e| e.worker == worker && (e.persistent || first_spawn))
            .map(|e| e.fault)
    }
}

/// Make the coordinator SIGKILL worker `worker`'s live process once it
/// has received `after_bytes` cumulative frame bytes from it — counted
/// across `execute` calls (so the kill can land mid-update-batch), firing
/// exactly once per coordinator. Grammar: `W@N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// The worker whose process gets killed.
    pub worker: usize,
    /// Cumulative received bytes that trigger the kill.
    pub after_bytes: u64,
}

impl KillSpec {
    /// Parse `W@N`, e.g. `1@4096`.
    pub fn parse(s: &str) -> Result<KillSpec> {
        let (worker, after) = s
            .split_once('@')
            .ok_or_else(|| Error::Runtime(format!("kill spec `{s}` is not `W@N`")))?;
        let worker = worker
            .parse()
            .map_err(|_| Error::Runtime(format!("kill spec `{s}`: bad worker index")))?;
        let after_bytes = after
            .parse()
            .map_err(|_| Error::Runtime(format!("kill spec `{s}`: bad byte count")))?;
        Ok(KillSpec { worker, after_bytes })
    }
}

/// Everything a worker needs to join a fleet, in both directions: the
/// coordinator renders it to a canonical argument vector for process
/// launchers, and a worker binary parses that vector back.
#[derive(Debug, Clone)]
pub struct NetWorkerArgs {
    /// Coordinator address to connect to, `host:port`.
    pub connect: String,
    /// Processor index this worker runs.
    pub index: usize,
    /// Incarnation number (0 for the first spawn; bumps per restart).
    pub incarnation: u64,
    /// Timing knobs (only the connect/heartbeat fields matter to a
    /// worker).
    pub net: NetConfig,
    /// Socket fault armed on this incarnation's write path.
    pub fault: Option<NetFault>,
}

impl NetWorkerArgs {
    /// Render the canonical `--flag value` vector [`NetWorkerArgs::parse`]
    /// accepts.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--connect".into(),
            self.connect.clone(),
            "--index".into(),
            self.index.to_string(),
            "--incarnation".into(),
            self.incarnation.to_string(),
            "--heartbeat-timeout-ms".into(),
            self.net.heartbeat_timeout.as_millis().to_string(),
            "--connect-timeout-ms".into(),
            self.net.connect_timeout.as_millis().to_string(),
            "--connect-backoff-ms".into(),
            self.net.connect_backoff.as_millis().to_string(),
            "--connect-backoff-cap-ms".into(),
            self.net.connect_backoff_cap.as_millis().to_string(),
        ];
        if let Some(fault) = &self.fault {
            args.push("--net-fault".into());
            args.push(fault.render());
        }
        args
    }

    /// Parse the vector [`NetWorkerArgs::to_args`] renders.
    pub fn parse(args: &[String]) -> Result<NetWorkerArgs> {
        let mut out = NetWorkerArgs {
            connect: String::new(),
            index: usize::MAX,
            incarnation: 0,
            net: NetConfig::default(),
            fault: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| Error::Runtime(format!("flag {flag} needs a value")))?;
            let ms = || -> Result<Duration> {
                value
                    .parse()
                    .map(Duration::from_millis)
                    .map_err(|_| Error::Runtime(format!("{flag}: `{value}` is not a number")))
            };
            match flag.as_str() {
                "--connect" => out.connect = value.clone(),
                "--index" => {
                    out.index = value.parse().map_err(|_| {
                        Error::Runtime(format!("--index: `{value}` is not a number"))
                    })?;
                }
                "--incarnation" => {
                    out.incarnation = value.parse().map_err(|_| {
                        Error::Runtime(format!("--incarnation: `{value}` is not a number"))
                    })?;
                }
                "--heartbeat-timeout-ms" => out.net.heartbeat_timeout = ms()?,
                "--connect-timeout-ms" => out.net.connect_timeout = ms()?,
                "--connect-backoff-ms" => out.net.connect_backoff = ms()?,
                "--connect-backoff-cap-ms" => out.net.connect_backoff_cap = ms()?,
                "--net-fault" => out.fault = Some(NetFault::parse(value)?),
                _ => return Err(Error::Runtime(format!("unknown worker flag {flag}"))),
            }
        }
        if out.connect.is_empty() {
            return Err(Error::Runtime("worker needs --connect".into()));
        }
        if out.index == usize::MAX {
            return Err(Error::Runtime("worker needs --index".into()));
        }
        Ok(out)
    }
}

/// A launched worker, as the coordinator holds it.
pub trait WorkerHandle: Send {
    /// Terminate the incarnation with prejudice (SIGKILL for processes;
    /// a no-op for in-process threads, whose sockets die with the
    /// coordinator). Must also reap, so no zombies outlive the run.
    fn kill(&mut self);
}

/// How worker incarnations come into being. The coordinator calls this
/// for every spawn — initial fleet and every restart.
pub trait Launcher: Send + Sync {
    /// Start one worker incarnation that will connect to
    /// `args.connect` and send `Hello{args.index, args.incarnation}`.
    fn spawn_worker(&self, args: &NetWorkerArgs) -> Result<Box<dyn WorkerHandle>>;
}

/// Spawn each worker as a separate OS process: `program prefix... args...`
/// with `args` in the canonical [`NetWorkerArgs::to_args`] grammar. The
/// binary is typically `std::env::current_exe()` re-executed with a
/// worker-mode prefix (the `pdatalog net-worker` subcommand).
#[derive(Debug, Clone)]
pub struct ProcessLauncher {
    /// The worker executable.
    pub program: std::path::PathBuf,
    /// Arguments placed before the generated worker args (mode selector).
    pub prefix: Vec<String>,
}

struct ChildHandle {
    child: Child,
}

impl WorkerHandle for ChildHandle {
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ChildHandle {
    fn drop(&mut self) {
        // Kill-and-reap on every path: no stray worker processes, no
        // zombies, even when the coordinator errors out.
        self.kill();
    }
}

impl Launcher for ProcessLauncher {
    fn spawn_worker(&self, args: &NetWorkerArgs) -> Result<Box<dyn WorkerHandle>> {
        let child = Command::new(&self.program)
            .args(&self.prefix)
            .args(args.to_args())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| {
                Error::Runtime(format!("spawning worker {}: {e}", args.index))
            })?;
        Ok(Box::new(ChildHandle { child }))
    }
}

struct ThreadHandle;

impl WorkerHandle for ThreadHandle {
    fn kill(&mut self) {}
}

/// Run each worker as a thread in this process — but over *real* TCP
/// loopback, exercising the full wire protocol, reconnect and fault
/// machinery without process-spawn cost. The test and benchmark launcher;
/// [`KillSpec`] needs real processes and is not supported here.
#[derive(Debug, Clone, Default)]
pub struct InProcessLauncher {
    /// Constraint decoder injected into the worker threads.
    pub decoder: Option<ConstraintDecoderFn>,
}

impl Launcher for InProcessLauncher {
    fn spawn_worker(&self, args: &NetWorkerArgs) -> Result<Box<dyn WorkerHandle>> {
        let args = args.clone();
        let decoder = self.decoder;
        std::thread::Builder::new()
            .name(format!("net-worker-{}", args.index))
            .spawn(move || {
                let _ = run_net_worker(&args, decoder);
            })
            .map_err(|e| Error::Runtime(format!("spawning worker thread: {e}")))?;
        Ok(Box::new(ThreadHandle))
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// The write half of a worker's link, with an optional armed fault.
/// Every byte the worker sends flows through here, so byte-counted
/// faults are deterministic with respect to the protocol.
struct FaultGate {
    stream: TcpStream,
    written: u64,
    fault: Option<NetFault>,
}

impl FaultGate {
    fn trip(&mut self, what: &str) -> std::io::Result<usize> {
        self.fault = None;
        let _ = self.stream.shutdown(Shutdown::Both);
        Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            format!("injected {what}"),
        ))
    }
}

impl std::io::Write for FaultGate {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let pass = |gate: &mut FaultGate, buf: &[u8]| {
            let n = gate.stream.write(buf)?;
            gate.written += n as u64;
            Ok(n)
        };
        match self.fault {
            None | Some(NetFault::Delay(_)) => pass(self, buf),
            Some(NetFault::Disconnect(at)) => {
                if self.written >= at {
                    self.trip("disconnect")
                } else {
                    pass(self, buf)
                }
            }
            Some(NetFault::Truncate(at)) => {
                let budget = at.saturating_sub(self.written) as usize;
                if budget == 0 {
                    self.trip("truncation")
                } else if buf.len() < budget {
                    pass(self, buf)
                } else {
                    // Cut the stream at exactly `at` bytes — mid-frame.
                    let _ = self.stream.write_all(&buf[..budget]);
                    self.written = at;
                    self.trip("truncation")
                }
            }
            Some(NetFault::Garbage(at)) => {
                let budget = at.saturating_sub(self.written) as usize;
                if budget == 0 {
                    let _ = self.stream.write_all(&[0xFF; 16]);
                    self.trip("garbage")
                } else if buf.len() < budget {
                    pass(self, buf)
                } else {
                    let _ = self.stream.write_all(&buf[..budget]);
                    self.written = at;
                    let _ = self.stream.write_all(&[0xFF; 16]);
                    self.trip("garbage")
                }
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

type SharedGate = Arc<Mutex<FaultGate>>;

fn lock_gate(gate: &SharedGate) -> MutexGuard<'_, FaultGate> {
    gate.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Worker outbox: every envelope becomes one framed write on the link,
/// destination first so the coordinator can relay without re-encoding.
struct NetOutbox {
    gate: SharedGate,
}

impl Outbox for NetOutbox {
    fn send(&mut self, to: usize, env: Envelope) -> Result<()> {
        let body = wire::encode_envelope(to, &env);
        wire::write_frame(&mut *lock_gate(&self.gate), wire::FRAME_ENVELOPE, &body)
    }
}

enum RxEv {
    Env(Envelope),
    Shutdown,
    Lost(Error),
}

/// Connect to the coordinator with capped exponential backoff.
fn connect_with_backoff(args: &NetWorkerArgs) -> Result<TcpStream> {
    let deadline = Instant::now() + args.net.connect_timeout;
    let mut backoff = args.net.connect_backoff;
    loop {
        match TcpStream::connect(&args.connect) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() + backoff > deadline {
                    return Err(Error::Runtime(format!(
                        "worker {}: could not reach coordinator at {} within {:?}: {e}",
                        args.index, args.connect, args.net.connect_timeout
                    )));
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(args.net.connect_backoff_cap);
            }
        }
    }
}

fn report_fatal(gate: &SharedGate, error: &Error) {
    // Best effort: if the link is already dead the coordinator will see
    // EOF and classify the death as recoverable instead.
    let body = wire::encode_error(true, &error.to_string());
    let _ = wire::write_frame(&mut *lock_gate(gate), wire::FRAME_ERROR, &body);
}

/// Run one worker incarnation to completion: connect (with backoff),
/// handshake, receive the job, run the fixpoint against the coordinator's
/// relay, send the result. `Ok` means a clean finish or an orderly
/// shutdown; `Err` means this incarnation died (the coordinator decides
/// whether that is recoverable).
pub fn run_net_worker(args: &NetWorkerArgs, decoder: Option<ConstraintDecoderFn>) -> Result<()> {
    if let Some(NetFault::Delay(ms)) = args.fault {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let stream = connect_with_backoff(args)?;
    let _ = stream.set_nodelay(true);
    let io_err = |e: std::io::Error| Error::Runtime(format!("worker link setup: {e}"));
    stream
        .set_read_timeout(Some(args.net.heartbeat_timeout))
        .map_err(io_err)?;
    stream
        .set_write_timeout(Some(args.net.heartbeat_timeout))
        .map_err(io_err)?;
    let mut reader = stream.try_clone().map_err(io_err)?;
    let gate: SharedGate = Arc::new(Mutex::new(FaultGate {
        stream,
        written: 0,
        fault: args.fault,
    }));

    let hello = wire::encode_hello(args.index, args.incarnation);
    wire::write_frame(&mut *lock_gate(&gate), wire::FRAME_HELLO, &hello)?;

    // The job arrives before anything else; answer heartbeats meanwhile.
    let mut stashed: Vec<Vec<u8>> = Vec::new();
    let job = loop {
        match wire::read_frame(&mut reader)? {
            Some((wire::FRAME_JOB, body)) => break body,
            Some((wire::FRAME_PING, body)) => {
                wire::write_frame(&mut *lock_gate(&gate), wire::FRAME_PONG, &body)?;
            }
            Some((wire::FRAME_ENVELOPE, body)) => stashed.push(body),
            Some((wire::FRAME_SHUTDOWN, _)) => return Ok(()),
            Some((kind, _)) => {
                return Err(Error::Runtime(format!(
                    "worker {}: unexpected frame kind {kind} before job",
                    args.index
                )))
            }
            None => {
                return Err(Error::Runtime(format!(
                    "worker {}: coordinator closed the link before sending a job",
                    args.index
                )))
            }
        }
    };
    let decode: wire::ConstraintDecode = match &decoder {
        Some(f) => Some(f as &(dyn Fn(&[u8]) -> Result<ConstraintRef> + Send + Sync)),
        None => None,
    };
    let job = wire::decode_job(&job, decode)?;
    let worker_cfg = job.worker.clone();
    let interner = job.spec.program.program.interner.clone();
    let mut core = match WorkerCore::with_epoch(job.spec, job.n, job.epoch) {
        Ok(core) => core,
        Err(e) => {
            report_fatal(&gate, &e);
            return Err(e);
        }
    };
    core.set_morsel_threads(worker_cfg.morsel_threads);
    if worker_cfg.profile {
        // Per-process wall clock: the worker folds its events into a
        // profile before shipping and the profile carries durations only,
        // so a worker-local origin is fine — the coordinator merges the
        // shipped profiles, never compares absolute stamps.
        core.set_probe(Probe::wall(core.id(), Instant::now()));
    }
    if let Some(recover) = job.recover {
        // Absorbed before any engine step (and before any stashed
        // traffic): the epoch repair must precede every send this
        // incarnation counts.
        core.enqueue(recover);
    }
    for body in stashed {
        let (_, env) = wire::decode_envelope(&body, &interner)?;
        core.enqueue(env);
    }

    // Reader thread: decode envelopes, answer pings immediately (even
    // while the main loop is deep in a fixpoint round), surface link
    // death as an event.
    let (tx, rx) = channel::<RxEv>();
    let pong_gate = gate.clone();
    let reader_interner = interner.clone();
    let reader_thread = std::thread::Builder::new()
        .name(format!("net-worker-{}-rx", args.index))
        .spawn(move || loop {
            match wire::read_frame(&mut reader) {
                Ok(Some((wire::FRAME_ENVELOPE, body))) => {
                    match wire::decode_envelope(&body, &reader_interner) {
                        Ok((_, env)) => {
                            if tx.send(RxEv::Env(env)).is_err() {
                                return;
                            }
                        }
                        Err(e) => {
                            let _ = tx.send(RxEv::Lost(e));
                            return;
                        }
                    }
                }
                Ok(Some((wire::FRAME_PING, body))) => {
                    if wire::write_frame(&mut *lock_gate(&pong_gate), wire::FRAME_PONG, &body)
                        .is_err()
                    {
                        let _ = tx.send(RxEv::Lost(Error::Runtime(
                            "link died answering a heartbeat".into(),
                        )));
                        return;
                    }
                }
                Ok(Some((wire::FRAME_SHUTDOWN, _))) => {
                    let _ = tx.send(RxEv::Shutdown);
                    return;
                }
                Ok(Some((kind, _))) => {
                    let _ = tx.send(RxEv::Lost(Error::Runtime(format!(
                        "unexpected frame kind {kind} from coordinator"
                    ))));
                    return;
                }
                Ok(None) => {
                    let _ = tx.send(RxEv::Lost(Error::Runtime(
                        "coordinator closed the link".into(),
                    )));
                    return;
                }
                Err(e) => {
                    let _ = tx.send(RxEv::Lost(e));
                    return;
                }
            }
        })
        .map_err(|e| Error::Runtime(format!("spawning reader thread: {e}")))?;
    // The reader owns its socket clone; it exits when the link dies.
    drop(reader_thread);

    let mut out = NetOutbox { gate: gate.clone() };
    let mut idle_since: Option<Instant> = None;
    loop {
        loop {
            match rx.try_recv() {
                Ok(RxEv::Env(env)) => core.enqueue(env),
                Ok(RxEv::Shutdown) => return Ok(()),
                Ok(RxEv::Lost(e)) => return Err(e),
                Err(_) => break,
            }
        }
        match core.step(&mut out) {
            Err(e) => {
                report_fatal(&gate, &e);
                return Err(e);
            }
            Ok(Step::Done) => break,
            Ok(Step::Worked) => idle_since = None,
            Ok(Step::Idle) => {
                let since = *idle_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= worker_cfg.idle_watchdog {
                    let e = watchdog_error(core.id(), since.elapsed());
                    report_fatal(&gate, &e);
                    return Err(e);
                }
                match rx.recv_timeout(worker_cfg.idle_poll) {
                    Ok(RxEv::Env(env)) => core.enqueue(env),
                    Ok(RxEv::Shutdown) => return Ok(()),
                    Ok(RxEv::Lost(e)) => return Err(e),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(Error::Runtime(format!(
                            "worker {}: reader thread gone",
                            args.index
                        )))
                    }
                }
            }
        }
    }
    let (report, pooled, _events) = finish_core(core, &worker_cfg);
    let body = wire::encode_result(&report, &pooled)?;
    let mut guard = lock_gate(&gate);
    wire::write_frame(&mut *guard, wire::FRAME_RESULT, &body)
}

// ---------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------

/// Byte counters and kill bookkeeping that outlive a single `execute`
/// call, so a [`KillSpec`] threshold can accumulate across the rounds of
/// an update session and still fire exactly once.
#[derive(Default)]
struct Persist {
    rx_bytes: FxHashMap<usize, u64>,
    spawns: FxHashMap<usize, u64>,
    kill_fired: bool,
}

/// The TCP transport: launches one worker per processor via its
/// [`Launcher`], distributes [`WorkerSpec`]s over the framed wire
/// protocol, relays worker-to-worker envelopes, supervises crashes with
/// restart + replay, and pools the answer.
pub struct NetCoordinator {
    launcher: Arc<dyn Launcher>,
    net: NetConfig,
    faults: NetFaultPlan,
    kill: Option<KillSpec>,
    persist: Mutex<Persist>,
}

impl NetCoordinator {
    /// A coordinator over `launcher` with the given timing knobs.
    pub fn new(launcher: Arc<dyn Launcher>, net: NetConfig) -> Self {
        NetCoordinator {
            launcher,
            net,
            faults: NetFaultPlan::default(),
            kill: None,
            persist: Mutex::new(Persist::default()),
        }
    }

    /// Arm a socket-fault schedule (worker-side write faults).
    pub fn with_faults(mut self, faults: NetFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Arm a byte-counted SIGKILL of one live worker process.
    pub fn with_kill(mut self, kill: KillSpec) -> Self {
        self.kill = Some(kill);
        self
    }
}

impl Transport for NetCoordinator {
    fn execute(&self, specs: Vec<WorkerSpec>, config: &RuntimeConfig) -> Result<ExecutionOutcome> {
        validate_specs(&specs)?;
        let named = self.faults.faults.iter().map(|e| ("net fault plan", e.worker));
        let kill = self.kill.map(|k| ("kill spec", k.worker));
        if let Some((what, w)) = named.chain(kill).find(|(_, w)| *w >= specs.len()) {
            return Err(Error::Runtime(format!("{what} names nonexistent processor {w}")));
        }
        let listener = TcpListener::bind(self.net.bind)
            .map_err(|e| Error::Runtime(format!("binding {}: {e}", self.net.bind)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::Runtime(format!("listener address: {e}")))?;

        let (ev_tx, ev_rx) = channel::<Ev>();
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let tx = ev_tx.clone();
            let stop = stop.clone();
            let hb_timeout = self.net.heartbeat_timeout;
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || accept_loop(listener, tx, stop, hb_timeout))
                .map_err(|e| Error::Runtime(format!("spawning accept thread: {e}")))?
        };

        let mut sup = Supervisor {
            specs: &specs,
            config,
            net: &self.net,
            launcher: self.launcher.as_ref(),
            faults: &self.faults,
            kill: self.kill,
            persist: &self.persist,
            addr,
            ev_rx,
            _ev_tx: ev_tx,
            interner: specs[0].program.program.interner.clone(),
            links: (0..specs.len()).map(|_| None).collect(),
            handles: (0..specs.len()).map(|_| None).collect(),
            incarnations: vec![0; specs.len()],
            awaiting: vec![None; specs.len()],
            finished: (0..specs.len()).map(|_| None).collect(),
            pending_recover: vec![None; specs.len()],
            parked: vec![Vec::new(); specs.len()],
            restarts_used: vec![0; specs.len()],
            total_restarts: 0,
            epoch: 0,
            aborting: None,
            transport_events: Vec::new(),
            started: Instant::now(),
            reconnects: 0,
            relay_bytes: 0,
            nonce: 0,
            last_ping: Instant::now(),
        };
        let outcome = sup.run();

        // Teardown: orderly shutdown for survivors, hard kill (and reap)
        // for the rest, and unblock the accept loop so it can exit.
        for link in sup.links.iter_mut().flatten() {
            let _ = wire::write_frame(&mut link.stream, wire::FRAME_SHUTDOWN, &[]);
        }
        sup.links.iter_mut().for_each(|l| *l = None);
        for handle in sup.handles.iter_mut().flatten() {
            handle.kill();
        }
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        let _ = accept_thread.join();

        let (results, wall, restarts, events, reconnects, relay_bytes) = outcome?;
        let mut outcome =
            assemble_outcome(results, wall, restarts, TimeBase::WallMicros, events)?;
        outcome.stats.reconnects = reconnects;
        outcome.stats.relay_bytes = relay_bytes;
        Ok(outcome)
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: Sender<Ev>,
    stop: Arc<AtomicBool>,
    hb_timeout: Duration,
) {
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let _ = stream.set_nodelay(true);
                if stream.set_read_timeout(Some(hb_timeout)).is_err()
                    || stream.set_write_timeout(Some(hb_timeout)).is_err()
                {
                    continue;
                }
                // Handshake here (bounded by the read timeout) so only
                // identified links reach the supervisor.
                if let Ok(Some((wire::FRAME_HELLO, body))) = wire::read_frame(&mut stream) {
                    if let Ok((index, incarnation)) = wire::decode_hello(&body) {
                        if tx.send(Ev::Conn { index, incarnation, stream }).is_err() {
                            return;
                        }
                    }
                }
            }
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

enum Ev {
    Conn { index: usize, incarnation: u64, stream: TcpStream },
    Frame { index: usize, incarnation: u64, kind: u8, body: Vec<u8> },
    Down { index: usize, incarnation: u64, error: Error },
}

struct Link {
    stream: TcpStream,
    incarnation: u64,
    last_heard: Instant,
}

type RunOutput = (
    Vec<WorkerResult>,
    Duration,
    u64,
    Vec<ObsEvent>,
    u64,
    u64,
);

struct Supervisor<'a> {
    specs: &'a [WorkerSpec],
    config: &'a RuntimeConfig,
    net: &'a NetConfig,
    launcher: &'a dyn Launcher,
    faults: &'a NetFaultPlan,
    kill: Option<KillSpec>,
    persist: &'a Mutex<Persist>,
    addr: SocketAddr,
    ev_rx: Receiver<Ev>,
    /// Keeps the event channel alive even if every reader thread and the
    /// accept loop are momentarily gone.
    _ev_tx: Sender<Ev>,
    interner: Interner,
    links: Vec<Option<Link>>,
    handles: Vec<Option<Box<dyn WorkerHandle>>>,
    incarnations: Vec<u64>,
    awaiting: Vec<Option<Instant>>,
    finished: Vec<Option<WorkerResult>>,
    pending_recover: Vec<Option<Envelope>>,
    /// Envelope frames relayed toward a worker that has no live link
    /// *right now* — not yet connected, or restarting. The threaded
    /// transport's queues outlive a crash; these buffers are their wire
    /// equivalent, flushed in order once the destination (re)connects.
    /// Pre-crash entries are dropped by the receiver's epoch filter, so
    /// parking never delivers stale state. Dropping them instead would
    /// desynchronize Safra's counts (a message counted as sent but never
    /// received keeps the termination token circulating forever).
    parked: Vec<Vec<Vec<u8>>>,
    restarts_used: Vec<u32>,
    total_restarts: u64,
    epoch: u64,
    aborting: Option<Error>,
    transport_events: Vec<ObsEvent>,
    started: Instant,
    reconnects: u64,
    relay_bytes: u64,
    nonce: u64,
    last_ping: Instant,
}

impl Supervisor<'_> {
    fn run(&mut self) -> Result<RunOutput> {
        for index in 0..self.specs.len() {
            if let Err(e) = self.spawn(index) {
                self.abort(0, e);
                break;
            }
        }
        let tick = self
            .net
            .heartbeat_interval
            .min(Duration::from_millis(100));
        while self.aborting.is_none() && self.finished.iter().any(Option::is_none) {
            match self.ev_rx.recv_timeout(tick) {
                Ok(Ev::Conn { index, incarnation, stream }) => {
                    self.on_conn(index, incarnation, stream);
                }
                Ok(Ev::Frame { index, incarnation, kind, body }) => {
                    self.on_frame(index, incarnation, kind, body);
                }
                Ok(Ev::Down { index, incarnation, error }) => {
                    if self.links[index]
                        .as_ref()
                        .is_some_and(|l| l.incarnation == incarnation)
                        && self.finished[index].is_none()
                    {
                        self.die(index, error);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => unreachable!("supervisor holds a sender"),
            }
            self.tick();
        }
        if let Some(e) = self.aborting.take() {
            return Err(e);
        }
        let results = std::mem::take(&mut self.finished)
            .into_iter()
            .map(|r| r.expect("loop exits only when every worker finished"))
            .collect();
        Ok((
            results,
            self.started.elapsed(),
            self.total_restarts,
            std::mem::take(&mut self.transport_events),
            self.reconnects,
            self.relay_bytes,
        ))
    }

    fn spawn(&mut self, index: usize) -> Result<()> {
        let first_spawn = {
            let mut persist = self
                .persist
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            let spawns = persist.spawns.entry(index).or_insert(0);
            let first = *spawns == 0;
            *spawns += 1;
            first
        };
        let args = NetWorkerArgs {
            connect: self.addr.to_string(),
            index,
            incarnation: self.incarnations[index],
            net: self.net.clone(),
            fault: self.faults.fault_for(index, first_spawn),
        };
        self.handles[index] = Some(self.launcher.spawn_worker(&args)?);
        self.awaiting[index] = Some(Instant::now());
        Ok(())
    }

    fn on_conn(&mut self, index: usize, incarnation: u64, stream: TcpStream) {
        if index >= self.specs.len()
            || incarnation != self.incarnations[index]
            || self.links[index].is_some()
            || self.finished[index].is_some()
            || self.aborting.is_some()
        {
            // Stale incarnation (a zombie reconnecting after its
            // replacement was spawned), duplicate hello, or a link for a
            // worker that no longer needs one: reject by dropping.
            return;
        }
        let mut link = Link { stream, incarnation, last_heard: Instant::now() };
        // The pending Recover travels inside the job frame: the
        // incarnation absorbs it before its first engine step, exactly
        // like the threaded supervisor's broadcast-before-spawn. A
        // separate envelope frame would race the reader thread against
        // the fixpoint loop, and a batch sent before the Recover is
        // absorbed has its Safra send-count erased by the epoch repair.
        let job = match wire::encode_job(
            self.epoch,
            self.specs.len(),
            &self.config.worker,
            &self.specs[index],
            self.pending_recover[index].take().as_ref(),
        ) {
            Ok(job) => job,
            Err(e) => {
                self.abort(index, e);
                return;
            }
        };
        if wire::write_frame(&mut link.stream, wire::FRAME_JOB, &job).is_err() {
            // Died during the handshake; the reader below was never
            // spawned, so classify the death here.
            self.die(index, Error::Runtime(format!("worker {index}: link died during job send")));
            return;
        }
        // Everything relayed here while the link was down, in arrival
        // order: survivors' replays (current epoch) and any pre-crash
        // leftovers (dropped by the worker's epoch filter).
        for body in std::mem::take(&mut self.parked[index]) {
            if wire::write_frame(&mut link.stream, wire::FRAME_ENVELOPE, &body).is_err() {
                self.die(index, Error::Runtime(format!("worker {index}: link died during parked flush")));
                return;
            }
        }
        let reader = match link.stream.try_clone() {
            Ok(reader) => reader,
            Err(e) => {
                self.die(index, Error::Runtime(format!("worker {index}: cloning link: {e}")));
                return;
            }
        };
        let tx = self._ev_tx.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("net-link-{index}"))
            .spawn(move || link_reader(index, incarnation, reader, tx));
        if let Err(e) = spawned {
            self.abort(index, Error::Runtime(format!("spawning link reader: {e}")));
            return;
        }
        if incarnation > 0 {
            self.reconnects += 1;
        }
        self.awaiting[index] = None;
        self.links[index] = Some(link);
    }

    fn on_frame(&mut self, index: usize, incarnation: u64, kind: u8, body: Vec<u8>) {
        let Some(link) = self.links[index].as_mut() else { return };
        if link.incarnation != incarnation {
            return; // A zombie incarnation's leftover traffic.
        }
        link.last_heard = Instant::now();
        if let Some(kill) = self.kill.filter(|k| k.worker == index) {
            let fire = {
                let mut persist = self
                    .persist
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                let seen = {
                    let seen = persist.rx_bytes.entry(index).or_insert(0);
                    *seen += body.len() as u64 + 5;
                    *seen
                };
                let fire = !persist.kill_fired && seen >= kill.after_bytes;
                if fire {
                    persist.kill_fired = true;
                }
                fire
            };
            if fire {
                // A real `kill -9`, mid-protocol, at a deterministic
                // byte offset. The EOF it causes drives the normal
                // death-and-restart path.
                if let Some(handle) = self.handles[index].as_mut() {
                    handle.kill();
                }
            }
        }
        match kind {
            // The relay is the fleet's trust boundary: a frame can be
            // structurally complete yet carry a corrupted body (the
            // garbage fault cuts exactly this shape), so the envelope is
            // fully validated *before* forwarding — corruption kills the
            // sender's link (recoverable), never an innocent receiver.
            // The validated frame is still relayed verbatim, no
            // re-encode.
            wire::FRAME_ENVELOPE => match wire::decode_envelope(&body, &self.interner) {
                Ok((dest, _)) if dest < self.specs.len() => {
                    self.relay_bytes += body.len() as u64 + 5;
                    let delivered = match self.links[dest].as_mut() {
                        None => {
                            // No live link right now: park until the
                            // destination (re)connects. Only a *finished*
                            // destination discards — it has already
                            // terminated and sent its result.
                            if self.finished[dest].is_none() {
                                self.parked[dest].push(body);
                            }
                            true
                        }
                        Some(link) => {
                            wire::write_frame(&mut link.stream, wire::FRAME_ENVELOPE, &body)
                                .is_ok()
                        }
                    };
                    if !delivered && self.finished[dest].is_none() {
                        self.die(
                            dest,
                            Error::Runtime(format!("worker {dest}: link died during relay write")),
                        );
                    }
                }
                _ => self.die(index, Error::Runtime(format!(
                    "worker {index}: corrupt envelope destination"
                ))),
            },
            wire::FRAME_RESULT => match wire::decode_result(&body, &self.interner) {
                Ok((report, pooled)) => {
                    self.finished[index] = Some((report, pooled, Vec::new()));
                }
                Err(e) => self.die(index, e),
            },
            wire::FRAME_ERROR => match wire::decode_error(&body) {
                Ok((true, message)) => self.abort(index, Error::Runtime(message)),
                Ok((false, message)) => self.die(index, Error::Runtime(message)),
                Err(e) => self.die(index, e),
            },
            wire::FRAME_PONG => {
                // last_heard is already refreshed; just insist the reply
                // is well-formed.
                if wire::decode_nonce(&body).is_err() {
                    self.die(index, Error::Runtime(format!("worker {index}: corrupt pong")));
                }
            }
            _ => self.die(index, Error::Runtime(format!(
                "worker {index}: unexpected frame kind {kind}"
            ))),
        }
    }

    /// Handle one worker death: hard-kill the incarnation, then either
    /// restart-with-replay (within budget, mirroring the threaded
    /// supervisor's conditions exactly) or abort the fleet.
    fn die(&mut self, index: usize, error: Error) {
        self.links[index] = None;
        if let Some(handle) = self.handles[index].as_mut() {
            handle.kill();
        }
        self.handles[index] = None;
        self.awaiting[index] = None;
        if self.aborting.is_some() {
            return;
        }
        let within_budget = self.restarts_used[index] < self.config.supervisor.max_restarts
            && self.finished.iter().all(Option::is_none);
        if !within_budget {
            // Budget exhausted, or a peer already terminated (finished
            // workers answer no AckSync, so replay cannot complete).
            self.abort(index, error);
            return;
        }
        self.restarts_used[index] += 1;
        self.total_restarts += 1;
        self.epoch += 1;
        if self.config.worker.profile {
            let now = self.started.elapsed().as_micros() as u64;
            self.transport_events.push(ObsEvent {
                time: now,
                worker: index,
                kind: ObsKind::Crashed,
            });
            self.transport_events.push(ObsEvent {
                time: now,
                worker: index,
                kind: ObsKind::Restarted { epoch: self.epoch },
            });
        }
        let recover = Envelope {
            from: index,
            seq: 0,
            epoch: self.epoch,
            ack: 0,
            message: Message::Recover { epoch: self.epoch, restarted: index },
        };
        // Survivors repair now; the replacement repairs right after its
        // job arrives (see `on_conn`).
        let mut failed = Vec::new();
        for (peer, slot) in self.links.iter_mut().enumerate() {
            if let Some(link) = slot {
                let body = wire::encode_envelope(peer, &recover);
                if wire::write_frame(&mut link.stream, wire::FRAME_ENVELOPE, &body).is_err() {
                    failed.push(peer);
                }
            }
        }
        self.pending_recover[index] = Some(recover);
        let backoff = self.config.supervisor.restart_backoff * self.restarts_used[index];
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        self.incarnations[index] += 1;
        if let Err(e) = self.spawn(index) {
            self.abort(index, e);
            return;
        }
        for peer in failed {
            self.die(peer, Error::Runtime(format!("worker {peer}: recover send failed")));
        }
    }

    fn abort(&mut self, from: usize, error: Error) {
        if self.aborting.is_some() {
            return;
        }
        // Tear the fleet down fast (workers error out on Abort) instead
        // of letting survivors idle into their watchdogs; the hard kill
        // in teardown handles whoever misses the message.
        let abort = Envelope {
            from,
            seq: 0,
            epoch: self.epoch,
            ack: 0,
            message: Message::Abort { reason: error.to_string() },
        };
        for (peer, slot) in self.links.iter_mut().enumerate() {
            if let Some(link) = slot {
                let body = wire::encode_envelope(peer, &abort);
                let _ = wire::write_frame(&mut link.stream, wire::FRAME_ENVELOPE, &body);
            }
        }
        self.aborting = Some(error);
    }

    /// Periodic duties: heartbeat pings, silence detection, and connect
    /// deadlines for launched-but-never-connected incarnations.
    fn tick(&mut self) {
        if self.aborting.is_some() {
            return;
        }
        let mut failed = Vec::new();
        if self.last_ping.elapsed() >= self.net.heartbeat_interval {
            self.last_ping = Instant::now();
            self.nonce += 1;
            let body = wire::encode_nonce(self.nonce);
            for (peer, slot) in self.links.iter_mut().enumerate() {
                if let Some(link) = slot {
                    if wire::write_frame(&mut link.stream, wire::FRAME_PING, &body).is_err() {
                        failed.push((peer, "heartbeat write failed"));
                    }
                }
            }
        }
        for (peer, slot) in self.links.iter().enumerate() {
            if let Some(link) = slot {
                if link.last_heard.elapsed() > self.net.heartbeat_timeout {
                    failed.push((peer, "heartbeat timeout"));
                }
            }
        }
        for (peer, error) in failed {
            if self.finished[peer].is_none() {
                self.die(peer, Error::Runtime(format!("worker {peer}: {error}")));
            } else {
                self.links[peer] = None;
            }
        }
        let deadline = self.net.connect_timeout;
        let overdue: Vec<usize> = self
            .awaiting
            .iter()
            .enumerate()
            .filter_map(|(peer, since)| {
                since
                    .filter(|s| s.elapsed() > deadline && self.links[peer].is_none())
                    .map(|_| peer)
            })
            .collect();
        for peer in overdue {
            self.die(
                peer,
                Error::Runtime(format!(
                    "worker {peer}: incarnation {} never connected within {deadline:?}",
                    self.incarnations[peer]
                )),
            );
        }
    }
}

fn link_reader(index: usize, incarnation: u64, mut stream: TcpStream, tx: Sender<Ev>) {
    loop {
        match wire::read_frame(&mut stream) {
            Ok(Some((kind, body))) => {
                if tx.send(Ev::Frame { index, incarnation, kind, body }).is_err() {
                    return;
                }
            }
            Ok(None) => {
                // Clean EOF. If the worker's Result already arrived this
                // is the normal end of a finished link; otherwise the
                // supervisor classifies it as a (recoverable) death.
                let _ = tx.send(Ev::Down {
                    index,
                    incarnation,
                    error: Error::Runtime(format!("worker {index}: link closed")),
                });
                return;
            }
            Err(error) => {
                let _ = tx.send(Ev::Down { index, incarnation, error });
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelOut, ProcessorProgram};
    use crate::transport::ThreadedTransport;
    use gst_common::{ituple, Interner};
    use gst_eval::plan::RelationId;
    use gst_storage::Database;

    fn coordinator(launcher: InProcessLauncher) -> NetCoordinator {
        // Short connect budget so failure paths stay fast in CI; the
        // heartbeat machinery keeps its defaults (it never fires on a
        // healthy loopback run).
        let net = NetConfig {
            connect_timeout: Duration::from_secs(5),
            ..NetConfig::default()
        };
        NetCoordinator::new(Arc::new(launcher), net)
    }

    /// Two workers computing transitive closure of a chain split across
    /// them — every derivation needs the other worker's frontier, so the
    /// link carries real traffic in both directions.
    fn chain_fleet(interner: &Interner, edges: i64) -> (Vec<WorkerSpec>, RelationId) {
        let unit0 = gst_frontend::parser::parse_program_with(
            "t0(X,Y) :- e0(X,Y).\n\
             t0(X,Y) :- e0(X,Z), in0(Z,Y).\n\
             ship0(Z,Y) :- t0(Z,Y).",
            interner,
        )
        .unwrap();
        let unit1 = gst_frontend::parser::parse_program_with(
            "t1(X,Y) :- e1(X,Y).\n\
             t1(X,Y) :- e1(X,Z), in1(Z,Y).\n\
             ship1(Z,Y) :- t1(Z,Y).",
            interner,
        )
        .unwrap();
        let e0 = (interner.get("e0").unwrap(), 2);
        let e1 = (interner.get("e1").unwrap(), 2);
        let t0 = (interner.get("t0").unwrap(), 2);
        let t1 = (interner.get("t1").unwrap(), 2);
        let in0 = (interner.intern("in0"), 2);
        let in1 = (interner.intern("in1"), 2);
        let ship0 = (interner.get("ship0").unwrap(), 2);
        let ship1 = (interner.get("ship1").unwrap(), 2);
        let answer = (interner.intern("t"), 2);
        let mut db0 = Database::new(interner.clone());
        let mut db1 = Database::new(interner.clone());
        for k in 0..edges {
            let id = if k % 2 == 0 { e0 } else { e1 };
            let db = if k % 2 == 0 { &mut db0 } else { &mut db1 };
            db.insert(id, ituple![k, k + 1]).unwrap();
        }
        let specs = vec![
            WorkerSpec {
                program: ProcessorProgram {
                    processor: 0,
                    program: unit0.program,
                    outgoing: vec![ChannelOut { channel: ship0, dest: 1, inbox: in1 }],
                    inboxes: vec![in0],
                    processing_rules: vec![0, 1],
                    pooling: vec![(t0, answer)],
                    local_idb: vec![],
                    retract_channels: vec![],
                },
                edb: Arc::new(db0),
                session: None,
            },
            WorkerSpec {
                program: ProcessorProgram {
                    processor: 1,
                    program: unit1.program,
                    outgoing: vec![ChannelOut { channel: ship1, dest: 0, inbox: in0 }],
                    inboxes: vec![in1],
                    processing_rules: vec![0, 1],
                    pooling: vec![(t1, answer)],
                    local_idb: vec![],
                    retract_channels: vec![],
                },
                edb: Arc::new(db1),
                session: None,
            },
        ];
        (specs, answer)
    }

    #[test]
    fn fault_and_kill_grammars_round_trip() {
        for spec in ["delay@500", "disconnect@2048", "truncate@77", "garbage@0"] {
            assert_eq!(NetFault::parse(spec).unwrap().render(), spec);
        }
        assert!(NetFault::parse("explode@3").is_err());
        assert!(NetFault::parse("disconnect@many").is_err());
        assert!(NetFault::parse("disconnect").is_err());

        let plan = NetFaultPlan::parse("1:disconnect@2048,0:delay@500!").unwrap();
        assert_eq!(
            plan.faults,
            vec![
                FaultEntry { worker: 1, fault: NetFault::Disconnect(2048), persistent: false },
                FaultEntry { worker: 0, fault: NetFault::Delay(500), persistent: true },
            ]
        );
        assert_eq!(plan.fault_for(1, true), Some(NetFault::Disconnect(2048)));
        assert_eq!(plan.fault_for(1, false), None, "one-shot: first spawn only");
        assert_eq!(plan.fault_for(0, false), Some(NetFault::Delay(500)), "persistent");
        assert_eq!(plan.fault_for(2, true), None);
        assert!(NetFaultPlan::parse("").unwrap().faults.is_empty());
        assert!(NetFaultPlan::parse("nope").is_err());

        let kill = KillSpec::parse("1@4096").unwrap();
        assert_eq!(kill, KillSpec { worker: 1, after_bytes: 4096 });
        assert!(KillSpec::parse("1").is_err());
        assert!(KillSpec::parse("x@9").is_err());
    }

    #[test]
    fn worker_args_round_trip_through_the_cli_grammar() {
        let args = NetWorkerArgs {
            connect: "127.0.0.1:4545".into(),
            index: 3,
            incarnation: 2,
            net: NetConfig {
                heartbeat_timeout: Duration::from_millis(1234),
                connect_timeout: Duration::from_millis(777),
                connect_backoff: Duration::from_millis(9),
                connect_backoff_cap: Duration::from_millis(99),
                ..NetConfig::default()
            },
            fault: Some(NetFault::Garbage(64)),
        };
        let parsed = NetWorkerArgs::parse(&args.to_args()).unwrap();
        assert_eq!(parsed.connect, args.connect);
        assert_eq!(parsed.index, 3);
        assert_eq!(parsed.incarnation, 2);
        assert_eq!(parsed.net.heartbeat_timeout, Duration::from_millis(1234));
        assert_eq!(parsed.net.connect_timeout, Duration::from_millis(777));
        assert_eq!(parsed.net.connect_backoff, Duration::from_millis(9));
        assert_eq!(parsed.net.connect_backoff_cap, Duration::from_millis(99));
        assert_eq!(parsed.fault, Some(NetFault::Garbage(64)));
        assert!(NetWorkerArgs::parse(&["--index".into(), "0".into()]).is_err());
        assert!(NetWorkerArgs::parse(&["--connect".into()]).is_err());
        assert!(NetWorkerArgs::parse(&["--bogus".into(), "1".into()]).is_err());
    }

    /// The TCP transport computes the same least model as the threaded
    /// one on a communicating fleet, and its relay actually carried the
    /// traffic (bytes on the wire, reconnect-free).
    #[test]
    fn tcp_loopback_matches_threaded_transport() {
        let interner = Interner::new();
        let (specs, answer) = chain_fleet(&interner, 12);
        let config = RuntimeConfig::default();
        let baseline = ThreadedTransport.execute(specs.clone(), &config).unwrap();
        let outcome = coordinator(InProcessLauncher::default())
            .execute(specs, &config)
            .unwrap();
        assert!(outcome.relation(answer).set_eq(&baseline.relation(answer)));
        assert_eq!(outcome.relation(answer).len(), (12 * 13 / 2) as usize);
        assert_eq!(outcome.stats.restarts, 0);
        assert_eq!(outcome.stats.reconnects, 0);
        assert!(outcome.stats.relay_bytes > 0, "envelopes crossed the relay");
        assert!(outcome.stats.total_tuples_sent() > 0);
        assert_eq!(outcome.stats.workers.len(), 2);
    }

    /// Every write-side fault kind — abrupt disconnect, mid-frame
    /// truncation, garbage injection — is detected as a recoverable link
    /// death; the restarted incarnation replays and the fleet still
    /// reaches the exact least model.
    #[test]
    fn socket_faults_recover_to_the_exact_least_model() {
        let interner = Interner::new();
        let (specs, answer) = chain_fleet(&interner, 12);
        let config = RuntimeConfig::default();
        let baseline = ThreadedTransport.execute(specs.clone(), &config).unwrap();
        for fault in ["1:disconnect@150", "1:truncate@150", "1:garbage@150"] {
            let coord = coordinator(InProcessLauncher::default())
                .with_faults(NetFaultPlan::parse(fault).unwrap());
            let outcome = coord.execute(specs.clone(), &config).unwrap();
            assert!(
                outcome.relation(answer).set_eq(&baseline.relation(answer)),
                "{fault}: recovery must reach the exact least model"
            );
            assert_eq!(outcome.stats.restarts, 1, "{fault}: exactly one restart");
            assert_eq!(outcome.stats.reconnects, 1, "{fault}: replacement reconnected");
            assert!(
                outcome.stats.total_replayed_batches() > 0,
                "{fault}: survivors replayed from their logs"
            );
        }
    }

    /// A persistent fault kills every incarnation: the restart budget
    /// runs out and the run fails fast with a typed error — no hang, no
    /// panic.
    #[test]
    fn persistent_fault_exhausts_the_budget_cleanly() {
        let interner = Interner::new();
        let (specs, _) = chain_fleet(&interner, 12);
        let mut config = RuntimeConfig::default();
        config.worker.idle_watchdog = Duration::from_secs(300);
        let coord = coordinator(InProcessLauncher::default())
            .with_faults(NetFaultPlan::parse("1:disconnect@150!").unwrap());
        let started = Instant::now();
        let err = coord.execute(specs, &config).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "budget exhaustion must fail fast, not hang"
        );
        let message = err.to_string();
        assert!(
            message.contains("link") || message.contains("frame") || message.contains("EOF"),
            "the link-level cause must surface: {message}"
        );
    }

    /// A connect-phase delay exercises the worker's retry/backoff loop
    /// (the coordinator keeps listening); the run converges with no
    /// restart at all.
    #[test]
    fn delayed_connect_is_absorbed_by_backoff() {
        let interner = Interner::new();
        let (specs, answer) = chain_fleet(&interner, 6);
        let config = RuntimeConfig::default();
        let coord = coordinator(InProcessLauncher::default())
            .with_faults(NetFaultPlan::parse("0:delay@150").unwrap());
        let outcome = coord.execute(specs, &config).unwrap();
        assert_eq!(outcome.stats.restarts, 0);
        assert_eq!(outcome.relation(answer).len(), 6 * 7 / 2);
    }

    /// Tracing a recovered run records the transport-level crash and
    /// restart lifecycle events.
    #[test]
    fn traced_recovery_journals_crash_and_restart() {
        let interner = Interner::new();
        let (specs, _) = chain_fleet(&interner, 12);
        let mut config = RuntimeConfig::default();
        config.worker.profile = true;
        let coord = coordinator(InProcessLauncher::default())
            .with_faults(NetFaultPlan::parse("1:disconnect@150").unwrap());
        let outcome = coord.execute(specs, &config).unwrap();
        let kinds: Vec<_> = outcome
            .journal
            .events
            .iter()
            .filter(|e| matches!(e.kind, ObsKind::Crashed | ObsKind::Restarted { .. }))
            .map(|e| (e.worker, e.kind.clone()))
            .collect();
        assert!(
            kinds.contains(&(1, ObsKind::Crashed)),
            "journal must record the crash: {kinds:?}"
        );
        assert!(
            kinds.iter().any(|(w, k)| *w == 1 && matches!(k, ObsKind::Restarted { .. })),
            "journal must record the restart: {kinds:?}"
        );
    }
}
