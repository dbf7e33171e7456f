//! The transport abstraction: how worker state machines get driven and
//! how their envelopes move.
//!
//! The paper's architecture assumes "a processor i in P may communicate
//! with every other processor j" over reliable channels, but deliberately
//! says nothing about *what* a processor is. This module keeps that
//! abstraction honest in code: a [`Transport`] executes a set of
//! [`WorkerSpec`]s to distributed termination and pools the answer, and
//! everything above it (schemes, CLI, experiments) is transport-agnostic.
//!
//! Two implementations exist:
//!
//! * [`ThreadedTransport`] — one OS thread per processor with blocking
//!   queues, supervised for crash recovery; real parallelism, schedule
//!   chosen by the OS;
//! * [`crate::sim::SimTransport`] — all processors interleaved on the
//!   calling thread under a virtual clock, schedule chosen by a seeded
//!   PRNG, with optional fault injection. Same `WorkerCore`,
//!   adversarial schedules, bit-for-bit reproducible.
//!
//! ## Supervision (crash recovery)
//!
//! The threaded transport runs a supervisor loop on the coordinating
//! thread (see `DESIGN.md` §7). Every worker thread reports its exit —
//! finished, *fatal* error (spec/arity bug, watchdog expiry: the program
//! itself is wrong, restarting cannot help) or *recoverable* death
//! (panic, injected fail-point: the computation is fine, the incarnation
//! died). A recoverable death within the restart budget is answered by
//! rebuilding the worker from its retained spec under a bumped recovery
//! epoch and broadcasting `Recover` so the fleet repairs the termination
//! ring and replays the dead worker's inbound traffic. Anything else
//! broadcasts `Abort`, which tears the fleet down in milliseconds instead
//! of leaving healthy peers to idle into their watchdogs.

use std::collections::hash_map::Entry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use gst_common::{Error, FxHashMap, Result};
use gst_eval::plan::RelationId;
use gst_storage::Relation;

use crate::coordinator::RuntimeConfig;
use crate::message::{Envelope, Message};
use crate::obs::{Journal, ObsEvent, ObsKind, Probe, TimeBase};
use crate::spec::WorkerSpec;
use crate::stats::{ExecutionOutcome, ParallelStats, WorkerReport};
use crate::worker::{finish_core, watchdog_error, Outbox, PooledRelations, Step, WorkerCore};

/// Something that can run a fleet of processor programs to distributed
/// termination and pool the global answer.
pub trait Transport {
    /// Execute one [`WorkerSpec`] per processor and pool the results.
    ///
    /// `specs[i].program.processor` must equal `i` — the termination ring
    /// and the channel matrix are indexed by position.
    fn execute(&self, specs: Vec<WorkerSpec>, config: &RuntimeConfig) -> Result<ExecutionOutcome>;
}

/// Shared spec validation: positions match processor ids, channel
/// destinations exist.
pub(crate) fn validate_specs(specs: &[WorkerSpec]) -> Result<()> {
    if specs.is_empty() {
        return Err(Error::Runtime("no processors to execute".into()));
    }
    for (i, spec) in specs.iter().enumerate() {
        if spec.program.processor != i {
            return Err(Error::Runtime(format!(
                "worker at position {i} claims processor {}",
                spec.program.processor
            )));
        }
        for out in &spec.program.outgoing {
            if out.dest >= specs.len() {
                return Err(Error::Runtime(format!(
                    "processor {i} has a channel to nonexistent processor {}",
                    out.dest
                )));
            }
        }
    }
    Ok(())
}

/// Union one worker's pooled relations into the global answer. The first
/// shard per predicate arrives by move (no per-tuple cost).
pub(crate) fn pool_into(
    relations: &mut FxHashMap<RelationId, Relation>,
    pooled: PooledRelations,
) -> Result<()> {
    for (global, rel) in pooled {
        match relations.entry(global) {
            Entry::Vacant(slot) => {
                slot.insert(rel);
            }
            Entry::Occupied(mut slot) => {
                slot.get_mut().absorb_owned(rel)?;
            }
        }
    }
    Ok(())
}

/// What a finished worker hands back: its report, its share of the
/// pooled answer, and its journal buffer.
pub(crate) type WorkerResult = (WorkerReport, PooledRelations, Vec<ObsEvent>);

/// Assemble the final outcome from per-worker results (shared by both
/// transports). Worker journal buffers travel with their reports and are
/// merged — in processor order, after the transport's own events — into
/// one time-sorted [`Journal`].
pub(crate) fn assemble_outcome(
    results: Vec<WorkerResult>,
    wall_time: std::time::Duration,
    restarts: u64,
    base: TimeBase,
    transport_events: Vec<ObsEvent>,
) -> Result<ExecutionOutcome> {
    let mut reports: Vec<WorkerReport> = Vec::with_capacity(results.len());
    let mut relations: FxHashMap<RelationId, Relation> = FxHashMap::default();
    let mut buffers: Vec<(usize, Vec<ObsEvent>)> = Vec::with_capacity(results.len());
    for (report, pooled, events) in results {
        pool_into(&mut relations, pooled)?;
        buffers.push((report.processor, events));
        reports.push(report);
    }
    reports.sort_by_key(|r| r.processor);
    // Deterministic tie-breaking for the stable time sort: worker buffers
    // concatenate in processor order.
    buffers.sort_by_key(|(processor, _)| *processor);
    let journal = Journal::assemble(
        base,
        transport_events,
        buffers.into_iter().map(|(_, events)| events).collect(),
    );
    let channel_matrix: Vec<Vec<u64>> = reports.iter().map(|r| r.sent_tuples_to.clone()).collect();
    Ok(ExecutionOutcome {
        relations,
        stats: ParallelStats {
            workers: reports,
            channel_matrix,
            restarts,
            reconnects: 0,
            relay_bytes: 0,
            wall_time,
        },
        journal,
    })
}

/// True when the compiled scheme's minimal network graph has no live
/// channel: every outgoing entry is a self-loopback (`t_ii`). Theorem 3's
/// zero-communication case, and trivially any single-worker run.
pub(crate) fn network_is_silent(specs: &[WorkerSpec]) -> bool {
    specs.iter().all(|s| {
        s.program
            .outgoing
            .iter()
            .all(|out| out.dest == s.program.processor)
    })
}

/// Run one spec's local fixpoint with none of the distributed machinery —
/// no queues, no codec, no replay logs, no termination ring. Sound exactly
/// when the network is silent: with nothing to receive and nothing to
/// ship, local quiescence *is* the paper's termination condition, observed
/// directly. Self-loopback channels are folded in between inner fixpoints.
fn run_local(spec: &WorkerSpec, n: usize, config: &RuntimeConfig) -> Result<WorkerResult> {
    let t0 = Instant::now();
    // The shared construction path applies any update-session seed, so
    // the N=1 fast path maintains exactly the state a distributed run
    // would.
    let mut engine = spec.build_engine()?;
    engine.set_morsels(gst_eval::MorselConfig::with_threads(config.worker.morsel_threads));
    engine.bootstrap()?;
    let mut ship_from = vec![0usize; spec.program.outgoing.len()];
    loop {
        while engine.advance() > 0 {
            engine.process_round();
        }
        // Local loopbacks (t_ii) re-activate the engine; repeat until the
        // backlog stays empty.
        let mut looped = false;
        for (k, out) in spec.program.outgoing.iter().enumerate() {
            debug_assert_eq!(out.dest, spec.program.processor, "network must be silent");
            let from_row = ship_from[k];
            let backlog = engine.rows_from(out.channel, from_row).len();
            if backlog > 0 {
                ship_from[k] = from_row + backlog;
                engine.loopback_from(out.channel, out.inbox, from_row)?;
                looped = true;
            }
        }
        if !looped {
            break;
        }
    }
    let pooled: PooledRelations = if config.worker.pool_results {
        spec.program
            .pooling
            .iter()
            .filter_map(|(local, global)| engine.take_relation(*local).map(|rel| (*global, rel)))
            .collect()
    } else {
        Vec::new()
    };
    let pooled_tuples = pooled.iter().map(|(_, r)| r.len() as u64).sum();
    let eval = engine.stats().clone();
    let processing_firings = eval.firings_for_rules(&spec.program.processing_rules);
    let report = WorkerReport {
        processor: spec.program.processor,
        eval,
        processing_firings,
        sent_tuples_to: vec![0; n],
        sent_bytes_to: vec![0; n],
        sent_messages: 0,
        received_tuples: 0,
        received_bytes: 0,
        encode_calls: 0,
        encoded_bytes: 0,
        encoded_raw_bytes: 0,
        duplicate_batches: 0,
        replayed_batches: 0,
        stale_dropped: 0,
        retract_tuples_sent: 0,
        retract_tuples_received: 0,
        pooled_tuples,
        busy: t0.elapsed(),
        sent_per_round: Vec::new(),
        profile: None,
    };
    Ok((report, pooled, Vec::new()))
}

/// The zero-communication fast path: every worker runs [`run_local`] —
/// inline for a single processor, on scoped threads otherwise.
fn execute_silent(specs: &[WorkerSpec], config: &RuntimeConfig) -> Result<ExecutionOutcome> {
    let n = specs.len();
    let started = Instant::now();
    let results: Vec<WorkerResult> = if n == 1 {
        vec![run_local(&specs[0], n, config)?]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| scope.spawn(move || run_local(spec, n, config)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|payload| {
                        Err(Error::Runtime(format!(
                            "worker panicked: {}",
                            panic_message(payload.as_ref())
                        )))
                    })
                })
                .collect::<Result<Vec<WorkerResult>>>()
        })?
    };
    assemble_outcome(
        results,
        started.elapsed(),
        0,
        TimeBase::WallMicros,
        Vec::new(),
    )
}

/// One OS thread per processor, unbounded queues, OS scheduling, a
/// supervisor for crash recovery — the deployment transport.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedTransport;

/// The hot-swappable channel registry: `registry[i]` is the sender for
/// worker `i`'s *current* incarnation. The supervisor replaces a slot
/// when it restarts a worker; everyone else picks up the new queue on
/// their next send.
type Registry = Arc<Vec<Mutex<Sender<Envelope>>>>;

fn lock(slot: &Mutex<Sender<Envelope>>) -> MutexGuard<'_, Sender<Envelope>> {
    // A sender is never poisoned mid-operation (send returns a Result);
    // recover the guard rather than propagate a panic from another thread.
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Enqueue `env` to every worker's current incarnation. Sends to a worker
/// that already exited fail silently — its receiver is gone, and so is
/// its interest.
fn broadcast(registry: &Registry, env: &Envelope) {
    for slot in registry.iter() {
        let _ = lock(slot).send(env.clone());
    }
}

/// How a worker thread ended, as reported to the supervisor.
enum WorkerExit {
    /// Reached distributed termination.
    Finished(Box<WorkerResult>),
    /// An error restarting cannot cure: the spec, the data, or the fleet
    /// is wrong (arity/codec errors, watchdog expiry, teardown races).
    Fatal(Error),
    /// The incarnation died but the computation is intact (panic or
    /// injected fail-point): a restart plus replay recovers it.
    Recoverable(Error),
}

/// Outbox over the hot-swappable registry.
struct ThreadOutbox {
    senders: Registry,
}

impl Outbox for ThreadOutbox {
    fn send(&mut self, to: usize, env: Envelope) -> Result<()> {
        // A send to a dead peer is black-holed rather than failing the
        // sender: if the peer is being restarted, the replay log
        // re-delivers this batch; if the run is aborting, delivery no
        // longer matters. The supervisor owns failure handling.
        let _ = lock(&self.senders[to]).send(env);
        Ok(())
    }
}

/// The per-thread driver: drain the queue, step the core, block (bounded)
/// when idle, watchdog a starving worker, honor the fail-point.
fn run_threaded(
    spec: WorkerSpec,
    senders: Registry,
    rx: Receiver<Envelope>,
    config: RuntimeConfig,
    epoch: u64,
    fail_after: Option<u64>,
    origin: Instant,
) -> WorkerExit {
    let n = senders.len();
    let mut core = match WorkerCore::with_epoch(spec, n, epoch) {
        Ok(core) => core,
        Err(e) => return WorkerExit::Fatal(e),
    };
    core.set_morsel_threads(config.worker.morsel_threads);
    if config.worker.profile {
        // All probes share the run's origin so the tracks line up.
        core.set_probe(Probe::wall(core.id(), origin));
    }
    let mut out = ThreadOutbox { senders };
    let mut idle_since: Option<Instant> = None;
    let mut steps = 0u64;
    loop {
        if fail_after == Some(steps) {
            return WorkerExit::Recoverable(Error::Runtime(format!(
                "injected fail-point crash at step {steps}"
            )));
        }
        steps += 1;
        while let Ok(env) = rx.try_recv() {
            core.enqueue(env);
        }
        match core.step(&mut out) {
            Err(e) => return WorkerExit::Fatal(e),
            Ok(Step::Done) => break,
            Ok(Step::Worked) => idle_since = None,
            Ok(Step::Idle) => {
                let since = *idle_since.get_or_insert_with(Instant::now);
                if since.elapsed() >= config.worker.idle_watchdog {
                    return WorkerExit::Fatal(watchdog_error(core.id(), since.elapsed()));
                }
                match rx.recv_timeout(config.worker.idle_poll) {
                    Ok(env) => core.enqueue(env),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        // The registry anchor is gone: the coordinator
                        // itself is unwinding. Distinct from the watchdog
                        // (which means a *peer* starved us).
                        return WorkerExit::Fatal(Error::Runtime(format!(
                            "processor {}: peer channels disconnected during teardown",
                            core.id()
                        )));
                    }
                }
            }
        }
    }
    WorkerExit::Finished(Box::new(finish_core(core, &config.worker)))
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

impl Transport for ThreadedTransport {
    fn execute(&self, specs: Vec<WorkerSpec>, config: &RuntimeConfig) -> Result<ExecutionOutcome> {
        validate_specs(&specs)?;
        // A silent network needs none of the machinery below. Keep the
        // full path when profiling (the journal and its phase fold live in
        // the worker state machine) or when a fail-point asks for
        // supervised crashes.
        if network_is_silent(&specs)
            && !config.worker.profile
            && config.supervisor.fail_point.is_none()
        {
            return execute_silent(&specs, config);
        }
        let n = specs.len();
        let mut slots = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Envelope>();
            slots.push(Mutex::new(tx));
            receivers.push(rx);
        }
        let registry: Registry = Arc::new(slots);
        // The registry doubles as the coordinator's sender anchor: a
        // worker blocked in recv_timeout sees Timeout (not Disconnected)
        // for as long as the supervisor lives.
        let (exit_tx, exit_rx) = channel::<(usize, WorkerExit)>();

        let started = Instant::now();
        let (results, total_restarts, first_error, transport_events) =
            std::thread::scope(|scope| {
            let spawn_worker =
                |id: usize, rx: Receiver<Envelope>, epoch: u64, fail_after: Option<u64>| {
                    let spec = specs[id].clone();
                    let registry = registry.clone();
                    let config = config.clone();
                    let exit_tx = exit_tx.clone();
                    scope.spawn(move || {
                        let exit = catch_unwind(AssertUnwindSafe(|| {
                            run_threaded(spec, registry, rx, config, epoch, fail_after, started)
                        }))
                        .unwrap_or_else(|payload| {
                            WorkerExit::Recoverable(Error::Runtime(format!(
                                "worker panicked: {}",
                                panic_message(payload.as_ref())
                            )))
                        });
                        let _ = exit_tx.send((id, exit));
                    });
                };

            for (id, rx) in receivers.into_iter().enumerate() {
                let fail_after = config
                    .supervisor
                    .fail_point
                    .filter(|f| f.worker == id)
                    .map(|f| f.after_steps);
                spawn_worker(id, rx, 0, fail_after);
            }

            // The supervisor loop: collect exits until every incarnation
            // is accounted for.
            let mut outstanding = n;
            let mut results: Vec<Option<Box<WorkerResult>>> = (0..n).map(|_| None).collect();
            // Transport-level journal entries (crash/restart): the thread
            // owning a crashed incarnation takes its buffer down with it,
            // so the supervisor records the lifecycle events itself.
            let mut transport_events: Vec<ObsEvent> = Vec::new();
            let mut restarts_used = vec![0u32; n];
            let mut total_restarts = 0u64;
            let mut epoch = 0u64;
            let mut aborting = false;
            let mut first_error: Option<Error> = None;
            while outstanding > 0 {
                let (id, exit) = exit_rx.recv().expect("supervisor retains an exit sender");
                outstanding -= 1;
                match exit {
                    WorkerExit::Finished(result) => {
                        results[id] = Some(result);
                    }
                    WorkerExit::Fatal(_) | WorkerExit::Recoverable(_) if aborting => {
                        // Teardown noise after the Abort broadcast; the
                        // first (causal) error is already recorded.
                    }
                    WorkerExit::Recoverable(_)
                        if restarts_used[id] < config.supervisor.max_restarts
                            && results.iter().all(Option::is_none) =>
                    {
                        restarts_used[id] += 1;
                        total_restarts += 1;
                        epoch += 1;
                        if config.worker.profile {
                            let now = started.elapsed().as_micros() as u64;
                            transport_events.push(ObsEvent {
                                time: now,
                                worker: id,
                                kind: ObsKind::Crashed,
                            });
                            transport_events.push(ObsEvent {
                                time: now,
                                worker: id,
                                kind: ObsKind::Restarted { epoch },
                            });
                        }
                        let backoff = config.supervisor.restart_backoff * restarts_used[id];
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                        let (tx, rx) = channel::<Envelope>();
                        *lock(&registry[id]) = tx;
                        // Broadcast *before* spawning: the Recover lands in
                        // every queue (including the fresh one) ahead of
                        // anything the new incarnation can send, so no
                        // worker sees epoch-`epoch` traffic before it has
                        // repaired into that epoch.
                        broadcast(
                            &registry,
                            &Envelope {
                                from: id,
                                seq: 0,
                                epoch,
                                ack: 0,
                                message: Message::Recover { epoch, restarted: id },
                            },
                        );
                        spawn_worker(id, rx, epoch, None);
                        outstanding += 1;
                    }
                    WorkerExit::Fatal(e) | WorkerExit::Recoverable(e) => {
                        // Fatal, restart budget exhausted, or a peer
                        // already terminated (replay is then impossible:
                        // finished workers answer no AckSync). Tear the
                        // fleet down fast instead of letting healthy
                        // workers idle into their watchdogs.
                        aborting = true;
                        broadcast(
                            &registry,
                            &Envelope {
                                from: id,
                                seq: 0,
                                epoch,
                                ack: 0,
                                message: Message::Abort { reason: e.to_string() },
                            },
                        );
                        first_error = Some(e);
                    }
                }
            }
            (results, total_restarts, first_error, transport_events)
        });
        let wall_time = started.elapsed();
        if let Some(err) = first_error {
            return Err(err);
        }
        let results: Vec<(WorkerReport, PooledRelations, Vec<ObsEvent>)> = results
            .into_iter()
            .map(|r| *r.expect("no error implies every worker finished"))
            .collect();
        assemble_outcome(
            results,
            wall_time,
            total_restarts,
            TimeBase::WallMicros,
            transport_events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelOut, ProcessorProgram};
    use gst_common::{ituple, Interner};
    use gst_storage::Database;

    /// A single worker with a self-loopback channel: transitive closure
    /// where the frontier feeds back through `t_00`.
    fn loopback_spec(interner: &Interner) -> WorkerSpec {
        let unit = gst_frontend::parser::parse_program_with(
            "t(X,Y) :- e(X,Y).\n\
             t(X,Y) :- e(X,Z), inbox(Z,Y).\n\
             ship(Z,Y) :- t(Z,Y).",
            interner,
        )
        .unwrap();
        let e = (interner.intern("e"), 2);
        let ship = (interner.get("ship").unwrap(), 2);
        let inbox = (interner.intern("inbox"), 2);
        let t = (interner.get("t").unwrap(), 2);
        let answer = (interner.intern("answer"), 2);
        let mut db = Database::new(interner.clone());
        for k in 0..5i64 {
            db.insert(e, ituple![k, k + 1]).unwrap();
        }
        WorkerSpec {
            program: ProcessorProgram {
                processor: 0,
                program: unit.program,
                outgoing: vec![ChannelOut { channel: ship, dest: 0, inbox }],
                inboxes: vec![inbox],
                processing_rules: vec![0, 1],
                pooling: vec![(t, answer)],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db),
            session: None,
        }
    }

    #[test]
    fn silence_detection_accepts_self_loopbacks_only() {
        let interner = Interner::new();
        let spec = loopback_spec(&interner);
        assert!(network_is_silent(std::slice::from_ref(&spec)));
        let mut live = spec.clone();
        live.program.outgoing.push(ChannelOut {
            channel: (interner.intern("c"), 2),
            dest: 1,
            inbox: (interner.intern("i"), 2),
        });
        assert!(!network_is_silent(&[live]));
    }

    /// The zero-communication fast path computes the same least model and
    /// the same stats shape as the full machinery (forced here via
    /// profiling), on the same silent spec.
    #[test]
    fn silent_fast_path_matches_full_machinery() {
        let interner = Interner::new();
        let answer = (interner.intern("answer"), 2);
        let spec = loopback_spec(&interner);

        let fast = ThreadedTransport
            .execute(vec![spec.clone()], &RuntimeConfig::default())
            .unwrap();
        let mut profiled_cfg = RuntimeConfig::default();
        profiled_cfg.worker.profile = true;
        let full = ThreadedTransport.execute(vec![spec], &profiled_cfg).unwrap();

        assert!(fast.relation(answer).set_eq(&full.relation(answer)));
        assert_eq!(fast.relation(answer).len(), 5 + 4 + 3 + 2 + 1);
        assert!(fast.stats.communication_free());
        assert!(full.stats.communication_free());
        assert_eq!(fast.stats.workers.len(), 1);
        assert_eq!(fast.stats.channel_matrix, full.stats.channel_matrix);
        assert_eq!(
            fast.stats.workers[0].pooled_tuples,
            full.stats.workers[0].pooled_tuples
        );
        assert_eq!(fast.stats.workers[0].encode_calls, 0, "nothing encoded");
        assert!(
            fast.journal.is_empty(),
            "the fast path records no journal; profiling keeps the full path"
        );
        assert!(!full.journal.is_empty());
    }
}
