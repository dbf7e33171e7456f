//! Deterministic simulation transport: all processors on one thread,
//! under a virtual clock, with seeded adversarial scheduling and fault
//! injection.
//!
//! The threaded transport leaves scheduling to the OS — every run explores
//! one uncontrollable interleaving. [`SimTransport`] turns the schedule
//! into an *input*: a discrete-event loop pops `(virtual time, tiebreak)`
//! ordered events off a heap, and every nondeterministic choice — which
//! worker steps next, how long a step takes, when a message arrives,
//! whether it is duplicated, delayed or dropped-and-redelivered
//! ([`FaultPlan`]) — is drawn from a [`SmallRng`] seeded by the caller.
//! Identical seed, specs and plan ⇒ identical event sequence, trace,
//! per-worker firing counts and final model, bit for bit. A failing seed
//! from a sweep ([`crate::explore`]) is therefore a complete, replayable
//! bug report.
//!
//! The same `WorkerCore` state machine runs here and in
//! the threaded transport; nothing is mocked above the wire. This is the
//! simulation-testing discipline FoundationDB popularized, applied to the
//! paper's architecture: the algorithmic claims (least-model correctness
//! under asynchrony, Safra termination, set-semantics idempotence under
//! duplication) are checked under schedules far nastier than an OS will
//! produce in a CI run.
//!
//! [`SimTransport::lockstep`] swaps the seeded schedule for the paper's
//! globally phased `repeat … until` loop (§3): every ready worker takes
//! one step per phase, and every envelope sent in phase k is in its
//! receiver's queue before any worker's phase k+1 step. It draws nothing
//! from the rng and runs no fault plan, so the same specs give the same
//! run; [`crate::simulate::RoundTrace::from_journal`] folds a profiled
//! lockstep run into per-phase records.
//!
//! Crashes come in two flavors. A plain [`crate::fault::CrashSpec`] kills a
//! worker for good and the run must surface the idle-watchdog error at a
//! healthy peer. With `recover: true` the event loop plays the supervisor:
//! after `RESTART_DELAY` ticks it rebuilds the worker from its retained
//! spec in a fresh recovery epoch and broadcasts `Recover` to the whole
//! fleet over a reliable path (bypassing the fault plan, like a
//! supervisor's control channel), whereupon peers replay their logged
//! traffic and the repaired ring re-runs termination detection — see
//! `DESIGN.md` §7. One modeling caveat: a worker that crashes *after* the
//! termination decision keeps its in-memory result for pooling (the crash
//! handler skips terminated cores), which is the abstraction boundary of a
//! single-process simulation, not a claim about durable storage.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use gst_common::{Result, SmallRng};

use crate::coordinator::RuntimeConfig;
use crate::fault::FaultPlan;
use crate::message::{Envelope, Message, MessageKind};
use crate::obs::{ObsEvent, ObsKind, Probe, TimeBase};
use crate::spec::WorkerSpec;
use crate::stats::ExecutionOutcome;
use crate::transport::{assemble_outcome, validate_specs, Transport};
use crate::worker::{finish_core, watchdog_error, Outbox, Step, WorkerCore};

/// Extra virtual ticks a step may cost beyond its base tick — the
/// scheduler's knob for letting workers race past each other.
const STEP_JITTER: u64 = 4;

/// Hard ceiling on processed events: a diverging simulation (which would
/// mean a liveness bug) fails loudly instead of spinning forever.
const MAX_EVENTS: u64 = 20_000_000;

/// Virtual ticks between a recoverable crash and the simulated
/// supervisor's restart of the worker — long enough for in-flight
/// pre-crash traffic to keep racing the recovery broadcast.
const RESTART_DELAY: u64 = 25;

/// Virtual ticks per lockstep phase: workers step at even ticks and every
/// envelope is delivered at the odd tick in between.
pub(crate) const PHASE_TICKS: u64 = 2;

/// What one simulated worker step reported (public mirror of the worker's
/// internal step result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Progress was made.
    Worked,
    /// Locally quiescent; the worker sleeps until a delivery.
    Idle,
    /// Globally terminated.
    Done,
}

/// One entry of the replayable schedule trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A worker executed one scheduling quantum.
    Step {
        /// Virtual time of the step.
        time: u64,
        /// Which worker stepped.
        worker: usize,
        /// What the step reported.
        outcome: StepOutcome,
    },
    /// An envelope reached a worker's queue.
    Deliver {
        /// Virtual delivery time.
        time: u64,
        /// Receiving worker.
        to: usize,
        /// Sending worker.
        from: usize,
        /// Per-link sequence number of the envelope.
        seq: u64,
        /// Kind of message delivered.
        kind: MessageKind,
        /// True for the fault injector's duplicate copy.
        duplicate: bool,
    },
    /// The fault plan stalled a worker.
    Stall {
        /// When the stall began.
        time: u64,
        /// Which worker stalled.
        worker: usize,
        /// When it resumes.
        until: u64,
    },
    /// The fault plan killed a worker.
    Crash {
        /// When it died.
        time: u64,
        /// Which worker died.
        worker: usize,
    },
    /// The simulated supervisor restarted a crashed worker into a fresh
    /// recovery epoch.
    Restart {
        /// When the fresh incarnation came up.
        time: u64,
        /// Which worker was restarted.
        worker: usize,
        /// The recovery epoch the whole fleet moves to.
        epoch: u64,
    },
}

/// The full schedule of one simulated run — deterministic in (specs,
/// seed, plan), so two runs are bit-for-bit comparable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimTrace {
    /// Events in execution order.
    pub events: Vec<TraceEvent>,
    /// Virtual time at which the run ended.
    pub virtual_time: u64,
}

impl SimTrace {
    /// Number of worker steps per processor (a compact schedule
    /// fingerprint used by reproducibility assertions).
    pub fn steps_per_worker(&self, n: usize) -> Vec<u64> {
        let mut counts = vec![0u64; n];
        for e in &self.events {
            if let TraceEvent::Step { worker, .. } = e {
                counts[*worker] += 1;
            }
        }
        counts
    }

    /// Number of duplicate deliveries the fault injector produced.
    pub fn duplicates(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Deliver { duplicate: true, .. }))
            .count() as u64
    }
}

impl std::fmt::Display for SimTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for e in &self.events {
            match e {
                TraceEvent::Step { time, worker, outcome } => {
                    writeln!(f, "[{time:>8}] step    w{worker} -> {outcome:?}")?
                }
                TraceEvent::Deliver { time, to, from, seq, kind, duplicate } => {
                    let marker = if *duplicate { " (dup)" } else { "" };
                    writeln!(f, "[{time:>8}] deliver w{from} -> w{to} {kind} #{seq}{marker}")?
                }
                TraceEvent::Stall { time, worker, until } => {
                    writeln!(f, "[{time:>8}] stall   w{worker} until {until}")?
                }
                TraceEvent::Crash { time, worker } => {
                    writeln!(f, "[{time:>8}] crash   w{worker}")?
                }
                TraceEvent::Restart { time, worker, epoch } => {
                    writeln!(f, "[{time:>8}] restart w{worker} epoch {epoch}")?
                }
            }
        }
        writeln!(f, "[{:>8}] end of simulation", self.virtual_time)
    }
}

enum EventKind {
    /// Give worker `w` one step.
    Ready(usize),
    /// Hand an envelope to worker `to`.
    Deliver {
        to: usize,
        env: Envelope,
        duplicate: bool,
    },
    /// Kill a worker.
    Crash(usize),
    /// Bring a crashed worker back (simulated supervisor restart).
    Restart(usize),
}

struct Event {
    time: u64,
    tiebreak: u64,
    kind: EventKind,
}

// BinaryHeap is a max-heap; invert the comparison for earliest-first.
// `tiebreak` is unique per event, giving a total (hence deterministic)
// order.
impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.tiebreak) == (other.time, other.tiebreak)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.tiebreak).cmp(&(self.time, self.tiebreak))
    }
}

/// Outbox that collects a step's sends for the event loop to route.
#[derive(Default)]
struct SimOutbox {
    sends: Vec<(usize, Envelope)>,
}

impl Outbox for SimOutbox {
    fn send(&mut self, to: usize, env: Envelope) -> Result<()> {
        self.sends.push((to, env));
        Ok(())
    }
}

/// Apply the run's worker knobs to a fresh incarnation, at the initial
/// start and on every restart. A profiled core gets a virtual-clock probe:
/// its journal then carries only virtual ticks and counters and its
/// profile only work proxies, so same-seed runs are bit-identical.
fn start_core(core: &mut WorkerCore, config: &RuntimeConfig) {
    core.set_morsel_threads(config.worker.morsel_threads);
    if config.worker.profile {
        core.set_probe(Probe::virtual_clock(core.id()));
    }
}

/// The single-threaded, virtual-clock transport.
#[derive(Debug, Clone)]
pub struct SimTransport {
    /// Seed for every scheduling and fault decision.
    pub seed: u64,
    /// The misbehavior distribution.
    pub faults: FaultPlan,
    /// Run the phased lockstep schedule instead of the seeded one.
    lockstep: bool,
}

impl SimTransport {
    /// A simulator with a perfect network.
    pub fn new(seed: u64) -> Self {
        SimTransport::with_faults(seed, FaultPlan::none())
    }

    /// A simulator drawing faults from `plan`.
    pub fn with_faults(seed: u64, plan: FaultPlan) -> Self {
        SimTransport { seed, faults: plan, lockstep: false }
    }

    /// The paper's globally phased loop: one step of every ready worker
    /// per phase, with every envelope of phase k delivered before phase
    /// k+1. No seed and no faults; a fault plan set on the result is
    /// rejected when the run starts.
    pub fn lockstep() -> Self {
        SimTransport { lockstep: true, ..SimTransport::new(0) }
    }

    /// Run the fleet, returning the outcome together with the replayable
    /// trace (also populated when the run fails).
    pub fn run_traced(
        &self,
        specs: Vec<WorkerSpec>,
        config: &RuntimeConfig,
    ) -> (Result<ExecutionOutcome>, SimTrace) {
        let mut trace = SimTrace::default();
        let result = self.run_inner(specs, config, &mut trace);
        (result, trace)
    }

    fn run_inner(
        &self,
        specs: Vec<WorkerSpec>,
        config: &RuntimeConfig,
        trace: &mut SimTrace,
    ) -> Result<ExecutionOutcome> {
        validate_specs(&specs)?;
        self.faults.validate()?;
        if self.lockstep && self.faults != FaultPlan::none() {
            return Err(gst_common::Error::Runtime(
                "the lockstep schedule takes no fault plan".into(),
            ));
        }
        if let Some(crash) = self.faults.crash {
            if crash.worker >= specs.len() {
                return Err(gst_common::Error::Runtime(format!(
                    "fault plan crashes nonexistent processor {}",
                    crash.worker
                )));
            }
        }
        let started = Instant::now();
        let n = specs.len();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // A recoverable crash rebuilds the dead worker from its spec, so
        // retain a copy (the cores consume the originals).
        let retained: Option<Vec<WorkerSpec>> = self
            .faults
            .crash
            .is_some_and(|c| c.recover)
            .then(|| specs.clone());
        let mut cores = specs
            .into_iter()
            .map(|spec| WorkerCore::new(spec, n))
            .collect::<Result<Vec<_>>>()?;
        for core in cores.iter_mut() {
            start_core(core, config);
        }
        // Journal buffers salvaged from crashed incarnations (the threaded
        // transport loses these with the thread; the simulator can do
        // better).
        let mut lost_events: Vec<ObsEvent> = Vec::new();

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut tiebreak = 0u64;
        let mut push = |heap: &mut BinaryHeap<Event>, time: u64, kind: EventKind| {
            heap.push(Event {
                time,
                tiebreak,
                kind,
            });
            tiebreak += 1;
        };

        let mut ready_pending = vec![false; n];
        let mut crashed = vec![false; n];
        // Random initial offsets: even the first step order is part of the
        // explored schedule space. Lockstep starts everyone in phase 0.
        for (w, pending) in ready_pending.iter_mut().enumerate() {
            let at = if self.lockstep { 0 } else { rng.gen_below(STEP_JITTER + 1) };
            *pending = true;
            push(&mut heap, at, EventKind::Ready(w));
        }
        if let Some(crash) = self.faults.crash {
            push(&mut heap, crash.at_time, EventKind::Crash(crash.worker));
        }

        let mut now = 0u64;
        let mut processed = 0u64;
        let mut epoch = 0u64;
        let mut restarts = 0u64;
        while let Some(event) = heap.pop() {
            debug_assert!(event.time >= now, "virtual time went backwards");
            now = event.time;
            processed += 1;
            if processed > MAX_EVENTS {
                return Err(gst_common::Error::Runtime(
                    "simulation exceeded its event budget (liveness bug?)".into(),
                ));
            }
            match event.kind {
                EventKind::Ready(w) => {
                    ready_pending[w] = false;
                    if crashed[w] || cores[w].terminated() {
                        continue;
                    }
                    cores[w].set_virtual_now(now);
                    let mut out = SimOutbox::default();
                    let step = cores[w].step(&mut out)?;
                    trace.events.push(TraceEvent::Step {
                        time: now,
                        worker: w,
                        outcome: match step {
                            Step::Worked => StepOutcome::Worked,
                            Step::Idle => StepOutcome::Idle,
                            Step::Done => StepOutcome::Done,
                        },
                    });
                    for (to, env) in out.sends {
                        self.route(&mut rng, &mut push, &mut heap, now, to, env);
                    }
                    if step == Step::Worked {
                        let mut at = if self.lockstep {
                            now + PHASE_TICKS
                        } else {
                            now + 1 + rng.gen_below(STEP_JITTER)
                        };
                        // A lockstep run has no fault plan, so never stalls.
                        if self.faults.stall_ticks > 0
                            && rng.gen_bool(self.faults.stall_prob)
                        {
                            at += self.faults.stall_ticks;
                            trace.events.push(TraceEvent::Stall {
                                time: now,
                                worker: w,
                                until: at,
                            });
                        }
                        ready_pending[w] = true;
                        push(&mut heap, at, EventKind::Ready(w));
                    }
                    // Idle: sleep until a delivery; Done: out of the game.
                }
                EventKind::Deliver { to, env, duplicate } => {
                    if crashed[to] {
                        continue; // a dead worker black-holes its queue
                    }
                    trace.events.push(TraceEvent::Deliver {
                        time: now,
                        to,
                        from: env.from,
                        seq: env.seq,
                        kind: env.message.kind(),
                        duplicate,
                    });
                    if cores[to].terminated() {
                        continue; // late duplicate after termination
                    }
                    cores[to].enqueue(env);
                    if !ready_pending[to] {
                        // Lockstep wakes the receiver at the next phase.
                        let at = if self.lockstep { now.next_multiple_of(PHASE_TICKS) } else { now };
                        ready_pending[to] = true;
                        push(&mut heap, at, EventKind::Ready(to));
                    }
                }
                EventKind::Crash(w) => {
                    if !cores[w].terminated() {
                        crashed[w] = true;
                        trace.events.push(TraceEvent::Crash { time: now, worker: w });
                        let recoverable = self.faults.crash.is_some_and(|c| c.recover);
                        if recoverable && config.supervisor.max_restarts >= 1 {
                            push(&mut heap, now + RESTART_DELAY, EventKind::Restart(w));
                        }
                    }
                }
                EventKind::Restart(w) => {
                    // Recovery is only sound while no worker has accepted a
                    // termination decision; the ring stalls through the dead
                    // worker, so in practice nobody can have terminated, but
                    // guard anyway (mirrors the threaded supervisor).
                    if cores.iter().any(|c| c.terminated()) || !crashed[w] {
                        continue;
                    }
                    let specs = retained.as_ref().expect("restart without retained specs");
                    epoch += 1;
                    restarts += 1;
                    // Salvage the dead incarnation's journal before the
                    // replacement drops it.
                    // The crashed incarnation's partial profile dies with it
                    // (as its stats do); the replacement accounts from its
                    // restart onward.
                    lost_events.extend(cores[w].take_events());
                    cores[w] = WorkerCore::with_epoch(specs[w].clone(), n, epoch)?;
                    start_core(&mut cores[w], config);
                    crashed[w] = false;
                    trace.events.push(TraceEvent::Restart { time: now, worker: w, epoch });
                    // Broadcast Recover ahead of any new-epoch traffic: the
                    // deliveries are pushed directly at `now` (bypassing the
                    // fault plan — a supervisor channel is reliable), while
                    // the fresh incarnation's own sends can only leave after
                    // its first Ready, at a strictly later tiebreak.
                    for to in 0..n {
                        push(
                            &mut heap,
                            now,
                            EventKind::Deliver {
                                to,
                                env: Envelope {
                                    from: w,
                                    seq: 0,
                                    epoch,
                                    ack: 0,
                                    message: Message::Recover { epoch, restarted: w },
                                },
                                duplicate: false,
                            },
                        );
                    }
                }
            }
            if cores.iter().enumerate().all(|(w, c)| c.terminated() || crashed[w])
                && cores.iter().any(|c| c.terminated())
            {
                // All survivors terminated; drain nothing further.
                break;
            }
        }
        trace.virtual_time = now;

        // The queue ran dry. If a healthy worker never terminated, the
        // fleet starved — exactly the condition the threaded transport's
        // idle watchdog reports (a crashed fleet must error, not hang).
        if let Some(w) = cores
            .iter()
            .position(|c| !c.terminated() && !crashed[c.id()])
        {
            return Err(watchdog_error(w, format!("virtual time {now}")));
        }
        if cores.iter().all(|c| !c.terminated()) {
            return Err(gst_common::Error::Runtime(
                "every worker crashed before termination".into(),
            ));
        }

        // The schedule trace is a producer into the unified journal:
        // deliveries, stalls, crashes and restarts become transport-level
        // events (worker steps stay trace-only — the journal records them
        // as rounds/idles from the worker's own probe).
        let transport_events = if config.worker.profile {
            let mut events: Vec<ObsEvent> = trace
                .events
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Step { .. } => None,
                    TraceEvent::Deliver { time, to, from, seq, kind, duplicate } => {
                        Some(ObsEvent {
                            time: *time,
                            worker: *to,
                            kind: ObsKind::Delivered {
                                from: *from,
                                kind: *kind,
                                seq: *seq,
                                duplicate: *duplicate,
                            },
                        })
                    }
                    TraceEvent::Stall { time, worker, until } => Some(ObsEvent {
                        time: *time,
                        worker: *worker,
                        kind: ObsKind::Stalled { until: *until },
                    }),
                    TraceEvent::Crash { time, worker } => Some(ObsEvent {
                        time: *time,
                        worker: *worker,
                        kind: ObsKind::Crashed,
                    }),
                    TraceEvent::Restart { time, worker, epoch } => Some(ObsEvent {
                        time: *time,
                        worker: *worker,
                        kind: ObsKind::Restarted { epoch: *epoch },
                    }),
                })
                .collect();
            events.extend(lost_events);
            events
        } else {
            Vec::new()
        };

        let results = cores
            .into_iter()
            .map(|core| finish_core(core, &config.worker))
            .collect();
        assemble_outcome(
            results,
            started.elapsed(),
            restarts,
            TimeBase::VirtualTicks,
            transport_events,
        )
    }

    /// Route one send through the fault plan, scheduling delivery events.
    fn route(
        &self,
        rng: &mut SmallRng,
        push: &mut impl FnMut(&mut BinaryHeap<Event>, u64, EventKind),
        heap: &mut BinaryHeap<Event>,
        now: u64,
        to: usize,
        env: Envelope,
    ) {
        if self.lockstep {
            // Mid-phase delivery: in the queue before the next phase.
            let kind = EventKind::Deliver { to, env, duplicate: false };
            return push(heap, now + PHASE_TICKS / 2, kind);
        }
        let plan = &self.faults;
        let mut delay = rng.gen_inclusive(plan.min_delay, plan.max_delay);
        // Control traffic (token, terminate) is exempt from duplication
        // and loss: Safra's invariant is one token in the ring, and a real
        // transport keeps control messages reliable via acks. Delay (and
        // therefore reordering against batches) still applies.
        if env.message.kind() == MessageKind::Batch {
            if rng.gen_bool(plan.drop_prob) {
                // Loss with guaranteed redelivery: the retransmit pays the
                // redelivery penalty on top of the original draw.
                delay += plan.drop_redeliver_after;
            }
            if rng.gen_bool(plan.dup_prob) {
                let dup_delay = rng.gen_inclusive(plan.min_delay, plan.max_delay);
                push(
                    heap,
                    now + dup_delay,
                    EventKind::Deliver {
                        to,
                        env: env.clone(),
                        duplicate: true,
                    },
                );
            }
        }
        push(
            heap,
            now + delay,
            EventKind::Deliver {
                to,
                env,
                duplicate: false,
            },
        );
    }
}

impl Transport for SimTransport {
    fn execute(&self, specs: Vec<WorkerSpec>, config: &RuntimeConfig) -> Result<ExecutionOutcome> {
        self.run_traced(specs, config).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelOut, ProcessorProgram};
    use gst_common::{ituple, Interner};
    use gst_storage::Database;
    use std::sync::Arc;

    /// A two-processor ping-pong: each side extends paths with its own
    /// half of a chain's edges and ships the frontier to the other side.
    fn ping_pong_specs() -> (Vec<WorkerSpec>, gst_eval::plan::RelationId) {
        let interner = Interner::new();
        let unit0 = gst_frontend::parser::parse_program_with(
            "t0(X,Y) :- e0(X,Y).\n\
             t0(X,Y) :- e0(X,Z), in0(Z,Y).\n\
             ship0(Z,Y) :- t0(Z,Y).",
            &interner,
        )
        .unwrap();
        let unit1 = gst_frontend::parser::parse_program_with(
            "t1(X,Y) :- e1(X,Z), in1(Z,Y).\n\
             ship1(Z,Y) :- t1(Z,Y).",
            &interner,
        )
        .unwrap();
        let rel = |name: &str| (interner.intern(name), 2);
        let answer = rel("t");
        // Worker 0 owns the even→odd edges of 0→1→…→6, worker 1 the
        // odd→even ones, so every extension crosses the boundary.
        let mut dbs = [Database::new(interner.clone()), Database::new(interner.clone())];
        for k in 0..6i64 {
            let w = (k % 2) as usize;
            dbs[w].insert(rel(&format!("e{w}")), ituple![k, k + 1]).unwrap();
        }
        let [db0, db1] = dbs;
        let spec = |processor, program, db, processing_rules| WorkerSpec {
            program: ProcessorProgram {
                processor,
                program,
                outgoing: vec![ChannelOut {
                    channel: rel(&format!("ship{processor}")),
                    dest: 1 - processor,
                    inbox: rel(&format!("in{}", 1 - processor)),
                }],
                inboxes: vec![rel(&format!("in{processor}"))],
                processing_rules,
                pooling: vec![(rel(&format!("t{processor}")), answer)],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db),
            session: None,
        };
        let specs = vec![
            spec(0, unit0.program, db0, vec![0, 1]),
            spec(1, unit1.program, db1, vec![0]),
        ];
        (specs, answer)
    }

    /// Seeded and lockstep schedules alike compute the threaded model.
    #[test]
    fn sim_matches_threaded_semantics() {
        let (specs, answer) = ping_pong_specs();
        let threaded =
            crate::coordinator::execute_processors(specs.clone(), &RuntimeConfig::default())
                .unwrap();
        for transport in [SimTransport::new(7), SimTransport::lockstep()] {
            let sim = transport
                .execute(specs.clone(), &RuntimeConfig::default())
                .unwrap();
            assert!(sim.relation(answer).set_eq(&threaded.relation(answer)));
            assert!(!sim.relation(answer).is_empty());
            assert_eq!(
                sim.stats.total_tuples_sent(),
                threaded.stats.total_tuples_sent(),
                "delta shipping sends each tuple once in both transports"
            );
        }
    }

    fn profiled() -> RuntimeConfig {
        let mut config = RuntimeConfig::default();
        config.worker.profile = true;
        config
    }

    #[test]
    fn lockstep_is_deterministic() {
        let (specs, _) = ping_pong_specs();
        let (a, ta) = SimTransport::lockstep().run_traced(specs.clone(), &profiled());
        let (b, tb) = SimTransport::lockstep().run_traced(specs, &profiled());
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(ta, tb, "identical trace, event for event");
        assert_eq!(a.stats.channel_matrix, b.stats.channel_matrix);
        for (wa, wb) in a.stats.workers.iter().zip(&b.stats.workers) {
            assert_eq!(wa.eval.firings, wb.eval.firings);
        }
        assert!(!a.journal.is_empty());
        assert_eq!(a.journal, b.journal);
    }

    #[test]
    fn lockstep_delivers_every_phase_before_the_next() {
        let (specs, _) = ping_pong_specs();
        let (outcome, trace) = SimTransport::lockstep().run_traced(specs, &profiled());
        let outcome = outcome.unwrap();
        for e in &trace.events {
            match e {
                TraceEvent::Step { time, .. } => assert_eq!(time % PHASE_TICKS, 0),
                TraceEvent::Deliver { time, .. } => assert_eq!(time % PHASE_TICKS, 1),
                other => panic!("lockstep runs no faults: {other:?}"),
            }
        }
        // Every byte sent is received by someone.
        let sent = outcome.stats.total_bytes_sent();
        let received: u64 = outcome.stats.workers.iter().map(|w| w.received_bytes).sum();
        assert_eq!(sent, received);
        assert!(sent > 0);
    }

    #[test]
    fn round_trace_folds_the_lockstep_journal() {
        let (specs, _) = ping_pong_specs();
        let outcome = SimTransport::lockstep().execute(specs, &profiled()).unwrap();
        let trace = crate::simulate::RoundTrace::from_journal(&outcome.journal, 2);
        assert_eq!(trace.total_firings(), outcome.stats.total_firings());
        assert_eq!(trace.total_tuples(), outcome.stats.total_tuples_sent());
        assert!(trace.total_tuples() > 0);
    }

    #[test]
    fn lockstep_rejects_a_fault_plan() {
        let (specs, _) = ping_pong_specs();
        let mut sim = SimTransport::lockstep();
        sim.faults = FaultPlan::jitter();
        let err = sim.execute(specs, &RuntimeConfig::default()).unwrap_err();
        assert!(err.to_string().contains("lockstep"), "{err}");
    }

    #[test]
    fn same_seed_is_bit_for_bit_reproducible() {
        let (specs, answer) = ping_pong_specs();
        let sim = SimTransport::with_faults(99, FaultPlan::chaos());
        let (a, ta) = sim.run_traced(specs.clone(), &RuntimeConfig::default());
        let (b, tb) = sim.run_traced(specs, &RuntimeConfig::default());
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(ta, tb, "identical trace, event for event");
        assert!(a.relation(answer).set_eq(&b.relation(answer)));
        for (wa, wb) in a.stats.workers.iter().zip(&b.stats.workers) {
            assert_eq!(wa.eval.firings, wb.eval.firings);
            assert_eq!(wa.sent_tuples_to, wb.sent_tuples_to);
            assert_eq!(wa.duplicate_batches, wb.duplicate_batches);
        }
    }

    #[test]
    fn different_seeds_explore_different_schedules() {
        let (specs, _) = ping_pong_specs();
        let sim_a = SimTransport::with_faults(1, FaultPlan::jitter());
        let sim_b = SimTransport::with_faults(2, FaultPlan::jitter());
        let (_, ta) = sim_a.run_traced(specs.clone(), &RuntimeConfig::default());
        let (_, tb) = sim_b.run_traced(specs, &RuntimeConfig::default());
        assert_ne!(ta.events, tb.events, "seeds should yield distinct schedules");
    }

    #[test]
    fn faults_do_not_change_the_least_model() {
        let (specs, answer) = ping_pong_specs();
        let clean = SimTransport::new(0)
            .execute(specs.clone(), &RuntimeConfig::default())
            .unwrap();
        for seed in 0..8 {
            let chaotic = SimTransport::with_faults(seed, FaultPlan::chaos())
                .execute(specs.clone(), &RuntimeConfig::default())
                .unwrap();
            assert!(
                chaotic.relation(answer).set_eq(&clean.relation(answer)),
                "seed {seed} diverged under faults"
            );
        }
    }

    #[test]
    fn duplicates_are_observed_and_absorbed() {
        let (specs, _) = ping_pong_specs();
        let plan = FaultPlan {
            dup_prob: 1.0,
            ..FaultPlan::jitter()
        };
        let (outcome, trace) =
            SimTransport::with_faults(5, plan).run_traced(specs, &RuntimeConfig::default());
        let outcome = outcome.unwrap();
        assert!(trace.duplicates() > 0, "every batch should be duplicated");
        let absorbed: u64 = outcome.stats.workers.iter().map(|w| w.duplicate_batches).sum();
        assert!(absorbed > 0, "workers must see (and dedup) duplicates");
    }

    #[test]
    fn crash_surfaces_watchdog_error_not_hang() {
        let (specs, _) = ping_pong_specs();
        // Kill worker 1 early, before the fixpoint can complete.
        let sim = SimTransport::with_faults(3, FaultPlan::with_crash(1, 2));
        let (result, trace) = sim.run_traced(specs, &RuntimeConfig::default());
        let err = result.unwrap_err().to_string();
        assert!(err.contains("idle"), "want the watchdog error, got: {err}");
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Crash { worker: 1, .. })));
    }

    #[test]
    fn recoverable_crash_reaches_the_same_least_model() {
        let (specs, answer) = ping_pong_specs();
        let clean = SimTransport::new(0)
            .execute(specs.clone(), &RuntimeConfig::default())
            .unwrap();
        // Crash mid-run (t=60): traffic has already flowed, so recovery
        // must actually replay, not just restart.
        let sim = SimTransport::with_faults(3, FaultPlan::with_recovering_crash(1, 60));
        let (result, trace) = sim.run_traced(specs, &RuntimeConfig::default());
        let outcome = result.expect("recovering crash must not fail the run");
        assert_eq!(outcome.stats.restarts, 1, "exactly one restart");
        assert!(
            trace.events.iter().any(|e| matches!(
                e,
                TraceEvent::Restart { worker: 1, epoch: 1, .. }
            )),
            "trace should record the restart"
        );
        assert!(outcome.relation(answer).set_eq(&clean.relation(answer)));
        assert!(!outcome.relation(answer).is_empty());
        assert!(
            outcome.stats.total_replayed_batches() > 0,
            "recovery must replay the lost traffic"
        );
    }

    #[test]
    fn recoverable_crash_without_budget_fails_fast() {
        let (specs, _) = ping_pong_specs();
        let mut config = RuntimeConfig::default();
        config.supervisor.max_restarts = 0;
        let sim = SimTransport::with_faults(3, FaultPlan::with_recovering_crash(1, 2));
        let (result, trace) = sim.run_traced(specs, &config);
        let err = result.unwrap_err().to_string();
        assert!(err.contains("idle"), "want the watchdog error, got: {err}");
        assert!(
            !trace.events.iter().any(|e| matches!(e, TraceEvent::Restart { .. })),
            "no budget, no restart"
        );
    }

    #[test]
    fn single_worker_fleet_terminates_in_sim() {
        let interner = Interner::new();
        let unit = gst_frontend::parser::parse_program_with(
            "t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).",
            &interner,
        )
        .unwrap();
        let e = (interner.intern("e"), 2);
        let t = (interner.get("t").unwrap(), 2);
        let answer = (interner.intern("answer"), 2);
        let mut db = Database::new(interner.clone());
        db.insert(e, ituple![1, 2]).unwrap();
        db.insert(e, ituple![2, 3]).unwrap();
        let spec = WorkerSpec {
            program: ProcessorProgram {
                processor: 0,
                program: unit.program,
                outgoing: vec![],
                inboxes: vec![],
                processing_rules: vec![0, 1],
                pooling: vec![(t, answer)],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db),
            session: None,
        };
        let outcome = SimTransport::new(11)
            .execute(vec![spec], &RuntimeConfig::default())
            .unwrap();
        assert_eq!(outcome.relation(answer).len(), 3);
    }
}
