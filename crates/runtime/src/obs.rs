//! Unified tracing and metrics: the per-worker event journal.
//!
//! The paper's claims are *dynamic* — Theorem 2's non-redundancy is a
//! property of every round, Example 1/Theorem 3's zero communication is a
//! property of every send that never happens, and the §6 trade-off is a
//! curve traced out round by round. End-of-run aggregates
//! ([`crate::stats::ParallelStats`]) can verify the totals; this module
//! records *when* things happened, so stragglers, skewed channels, replay
//! storms and idle gaps become visible.
//!
//! The design is one event stream with two producers and two folds:
//!
//! * **Producers** — every `WorkerCore` run with
//!   [`crate::worker::WorkerConfig::profile`] on owns a `Probe`: one
//!   event buffer and one clock — wall microseconds on the threaded and
//!   TCP transports, the virtual clock in the simulator. Each timed site
//!   emits one event carrying the round it is charged to and its cost.
//!   The transports add their own events — deliveries, stalls, crashes,
//!   restarts — so the [`crate::sim::TraceEvent`] schedule and the
//!   worker's view land in one [`Journal`].
//! * **Folds** — the journal itself, listed by `Display`, exported as
//!   Chrome trace-event JSON ([`Journal::chrome_trace`], loadable in
//!   Perfetto or `chrome://tracing`: one track per worker, rounds as
//!   spans, everything else as instants) and checked by
//!   [`Journal::validate`]; and the phase profile,
//!   [`crate::profile::WorkerProfile::fold`] over one incarnation's
//!   events.
//!
//! Determinism: a simulated journal contains only virtual times and
//! counters — two runs with the same seed, specs and fault plan produce
//! bit-identical journals, which `tests/trace.rs` asserts.

use std::time::Instant;

use crate::message::MessageKind;

/// What the timestamps of a [`Journal`] mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeBase {
    /// Microseconds since the run's shared wall-clock origin
    /// (threaded transport).
    #[default]
    WallMicros,
    /// Virtual ticks of the simulation clock (deterministic).
    VirtualTicks,
}

/// One journal entry: when, who, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Timestamp in the journal's [`TimeBase`].
    pub time: u64,
    /// The processor the event belongs to (the receiving side for
    /// deliveries).
    pub worker: usize,
    /// What happened.
    pub kind: ObsKind,
}

/// The span and event taxonomy (DESIGN.md §9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsKind {
    /// A semi-naive round produced fresh tuples and its processing step
    /// begins. Always paired with a [`ObsKind::RoundEnd`] of the same
    /// round on the same worker.
    RoundBegin {
        /// Engine round index (count of completed advances).
        round: u64,
    },
    /// The round's processing step finished.
    RoundEnd {
        /// Engine round index, matching the open [`ObsKind::RoundBegin`].
        round: u64,
        /// Fresh tuples the round's advance admitted (the delta size).
        fresh: u64,
        /// Rule firings the processing step performed.
        firings: u64,
        /// The step's compute cost (µs, or firings under virtual time).
        cost: u64,
    },
    /// The initialization rules ran (once per incarnation, before any
    /// round; charged to round 0).
    Bootstrapped {
        /// Rule firings the bootstrap performed.
        firings: u64,
        /// Its compute cost (µs, or firings under virtual time).
        cost: u64,
    },
    /// A channel relation's round delta was encoded for the wire — once
    /// per channel, however many destinations share the payload `Arc`
    /// (single-encode multicast).
    BatchEncoded {
        /// The channel relation's predicate symbol (raw interner id).
        channel: u32,
        /// Tuples in the batch.
        tuples: u64,
        /// Wire bytes of the columnar encoding.
        bytes: u64,
        /// Bytes the row-oriented format would have spent on the same
        /// batch — the reference of the compression ratio.
        raw_bytes: u64,
        /// The engine round the encode is charged to.
        round: u64,
        /// Encode cost (µs, or payload bytes under virtual time).
        cost: u64,
    },
    /// A batch of channel tuples left for another processor.
    BatchSent {
        /// Destination processor.
        to: usize,
        /// Tuples in the batch.
        tuples: u64,
        /// Wire bytes of the encoded batch.
        bytes: u64,
        /// Link sequence number.
        seq: u64,
    },
    /// A batch was decoded and injected into an inbox predicate.
    BatchReceived {
        /// Sending processor.
        from: usize,
        /// Tuples in the batch.
        tuples: u64,
        /// Wire bytes of the encoded batch.
        bytes: u64,
        /// Link sequence number.
        seq: u64,
        /// True when the link sequence number was already absorbed
        /// (transport duplicate; injected but not counted).
        duplicate: bool,
    },
    /// One coalesced decode-and-inject pass over every batch stashed
    /// since the previous step.
    Decoded {
        /// The engine round the pass is charged to.
        round: u64,
        /// Tuples decoded.
        tuples: u64,
        /// Decode cost (µs, or tuples under virtual time).
        cost: u64,
    },
    /// A compacted replay-log snapshot was absorbed during recovery.
    SnapshotReceived {
        /// Sending processor.
        from: usize,
        /// Per-inbox payloads in the snapshot.
        payloads: u64,
        /// Sequence watermark the snapshot stands in for.
        upto: u64,
    },
    /// A Safra termination token was forwarded around the ring.
    TokenSent {
        /// Next processor on the ring.
        to: usize,
        /// Accumulated message-count sum the token carries.
        count: i64,
        /// True if the token was black (termination cannot be concluded
        /// this probe).
        black: bool,
    },
    /// A stale (pre-recovery-epoch) token was discarded.
    TokenDropped,
    /// Replay-log retransmission toward a recovering peer.
    ReplaySent {
        /// The recovering processor.
        to: usize,
        /// Messages retransmitted (snapshot plus retained batches).
        messages: u64,
        /// The engine round the replay is charged to.
        round: u64,
        /// Replay cost (µs, or messages under virtual time).
        cost: u64,
    },
    /// The worker repaired into a new recovery epoch.
    EpochRepair {
        /// The epoch entered.
        epoch: u64,
    },
    /// The worker went passive with an empty queue (emitted once per
    /// transition, not per poll).
    IdleWait,
    /// A step began after an idle one; the wait is charged as idle time.
    /// Consecutive polls of one wait accumulate into one event.
    Woke {
        /// The engine round the wait is charged to.
        round: u64,
        /// Time spent waiting (µs, or virtual ticks).
        idle: u64,
    },
    /// The worker accepted the global termination decision.
    Terminated,
    /// Transport: an envelope reached the worker's queue.
    Delivered {
        /// Sending processor.
        from: usize,
        /// Message kind delivered.
        kind: MessageKind,
        /// Link sequence number.
        seq: u64,
        /// True for a fault-injected duplicate copy.
        duplicate: bool,
    },
    /// Transport: the fault plan stalled the worker.
    Stalled {
        /// Virtual time at which it resumes.
        until: u64,
    },
    /// Transport: the worker (incarnation) died.
    Crashed,
    /// Transport: the supervisor restarted the worker.
    Restarted {
        /// The recovery epoch the fleet moves to.
        epoch: u64,
    },
}

impl ObsKind {
    /// The Chrome trace-event name for this kind (also the stable label
    /// the CI checker greps for).
    fn name(&self) -> &'static str {
        match self {
            ObsKind::RoundBegin { .. } | ObsKind::RoundEnd { .. } => "round",
            ObsKind::Bootstrapped { .. } => "bootstrap",
            ObsKind::BatchEncoded { .. } => "encode",
            ObsKind::BatchSent { .. } => "send",
            ObsKind::BatchReceived { .. } => "recv",
            ObsKind::Decoded { .. } => "decode",
            ObsKind::SnapshotReceived { .. } => "snapshot-recv",
            ObsKind::TokenSent { .. } => "token",
            ObsKind::TokenDropped => "token-drop",
            ObsKind::ReplaySent { .. } => "replay",
            ObsKind::EpochRepair { .. } => "repair",
            ObsKind::IdleWait => "idle",
            ObsKind::Woke { .. } => "wake",
            ObsKind::Terminated => "terminated",
            ObsKind::Delivered { .. } => "deliver",
            ObsKind::Stalled { .. } => "stall",
            ObsKind::Crashed => "crash",
            ObsKind::Restarted { .. } => "restart",
        }
    }
}

/// The clock a probe stamps events and measures costs with.
#[derive(Debug, Clone, Copy)]
enum Clock {
    /// Microseconds elapsed since an origin.
    Wall(Instant),
    /// The simulation's virtual time, pushed in before every step.
    Virtual(u64),
}

/// A worker's instrumentation: one event buffer stamped by one clock.
///
/// A [`crate::worker::WorkerCore`] owns an `Option<Box<Probe>>`, present
/// only when [`crate::worker::WorkerConfig::profile`] is on, so an
/// unprofiled run pays one `Option` branch per instrumented site. The
/// buffer is the worker's share of the [`Journal`], and the incarnation's
/// [`crate::profile::WorkerProfile`] is a fold over it: every timed site
/// emits one event carrying the round it is charged to and its cost.
#[derive(Debug, Clone)]
pub(crate) struct Probe {
    worker: usize,
    clock: Clock,
    events: Vec<ObsEvent>,
    /// When the previous step ended, in clock units: the base of the next
    /// idle gap.
    step_end: u64,
}

impl Probe {
    /// A wall-clock probe stamping microseconds since `origin` (shared by
    /// a threaded fleet so tracks align).
    pub(crate) fn wall(worker: usize, origin: Instant) -> Self {
        Probe::new(worker, Clock::Wall(origin))
    }

    /// A virtual-clock probe: the simulator pushes the current tick in via
    /// [`Probe::set_now`] before each step, and costs are the sites'
    /// deterministic work proxies.
    pub(crate) fn virtual_clock(worker: usize) -> Self {
        Probe::new(worker, Clock::Virtual(0))
    }

    fn new(worker: usize, clock: Clock) -> Self {
        Probe {
            worker,
            clock,
            events: Vec::new(),
            step_end: 0,
        }
    }

    /// The engine's per-rule time accounting that matches this clock.
    pub(crate) fn time_mode(&self) -> gst_eval::TimeMode {
        match self.clock {
            Clock::Wall(_) => gst_eval::TimeMode::Wall,
            Clock::Virtual(_) => gst_eval::TimeMode::Ticks,
        }
    }

    /// Advance a virtual clock to `now` (no-op for a wall clock).
    pub(crate) fn set_now(&mut self, now: u64) {
        if let Clock::Virtual(t) = &mut self.clock {
            *t = now;
        }
    }

    /// The current time in clock units.
    pub(crate) fn now(&self) -> u64 {
        match self.clock {
            Clock::Wall(origin) => origin.elapsed().as_micros() as u64,
            Clock::Virtual(t) => t,
        }
    }

    /// The cost of a timed site that started at `t0`: elapsed microseconds
    /// on a wall clock, the site's deterministic work `proxy` on a virtual
    /// one.
    pub(crate) fn cost(&self, t0: u64, proxy: u64) -> u64 {
        match self.clock {
            Clock::Wall(_) => self.now().saturating_sub(t0),
            Clock::Virtual(_) => proxy,
        }
    }

    /// Record one event at the current time.
    pub(crate) fn emit(&mut self, kind: ObsKind) {
        let time = self.now();
        self.events.push(ObsEvent {
            time,
            worker: self.worker,
            kind,
        });
    }

    /// Stamp the end of a step (the base of a possible idle gap).
    pub(crate) fn step_end(&mut self) {
        self.step_end = self.now();
    }

    /// A step starts after an idle one: the gap since the previous step
    /// ended was spent waiting, charged to `round`. A threaded worker is
    /// re-polled every `idle_poll` while idle, so consecutive gaps of one
    /// wait fold into a single [`ObsKind::Woke`] event.
    pub(crate) fn wake(&mut self, round: u64) {
        let now = self.now();
        let gap = now.saturating_sub(self.step_end);
        if gap == 0 {
            return;
        }
        if let Some(ObsEvent {
            time,
            kind: ObsKind::Woke { round: r, idle },
            ..
        }) = self.events.last_mut()
        {
            if *r == round {
                *time = now;
                *idle += gap;
                return;
            }
        }
        self.emit(ObsKind::Woke { round, idle: gap });
    }

    /// Drain the recorded events.
    pub(crate) fn take_events(&mut self) -> Vec<ObsEvent> {
        std::mem::take(&mut self.events)
    }
}

/// The merged event journal of one run — every worker's probe plus the
/// transport's own events, in global time order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Journal {
    /// What the timestamps mean.
    pub base: TimeBase,
    /// Events sorted by time (stable: equal-time events keep producer
    /// order — transport first, then workers by processor index).
    pub events: Vec<ObsEvent>,
}

impl Journal {
    /// Merge the transport's events and each worker's buffer into one
    /// time-ordered journal. The concatenation order (transport, then
    /// buffers in the order given) breaks timestamp ties deterministically.
    pub fn assemble(
        base: TimeBase,
        transport_events: Vec<ObsEvent>,
        worker_buffers: Vec<Vec<ObsEvent>>,
    ) -> Journal {
        let mut events = transport_events;
        for buffer in worker_buffers {
            events.extend(buffer);
        }
        events.sort_by_key(|e| e.time);
        Journal { base, events }
    }

    /// True when nothing was recorded (profiling off).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events belonging to `worker`, in journal order.
    pub fn worker_events(&self, worker: usize) -> impl Iterator<Item = &ObsEvent> {
        self.events.iter().filter(move |e| e.worker == worker)
    }

    /// Well-formedness: timestamps globally non-decreasing, and on every
    /// worker each `RoundBegin` is closed by the matching `RoundEnd`
    /// before the next round opens, with none left open at the end.
    ///
    /// Crash-aware: a `Crashed` event force-closes whatever round its
    /// worker had open — the incarnation died mid-round and its buffered
    /// `RoundEnd` died with it, so the dangling span is the *expected*
    /// shape of a crash, not a malformed journal. The replacement
    /// incarnation restarts its round numbering, so the round after a
    /// `Restarted` may legally repeat an index the dead incarnation
    /// already used.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let mut last_time = 0u64;
        for e in &self.events {
            if e.time < last_time {
                return Err(format!(
                    "time went backwards: {} after {last_time} (w{})",
                    e.time, e.worker
                ));
            }
            last_time = e.time;
        }
        let workers: std::collections::BTreeSet<usize> =
            self.events.iter().map(|e| e.worker).collect();
        for w in workers {
            let mut open: Option<u64> = None;
            for e in self.worker_events(w) {
                match &e.kind {
                    ObsKind::RoundBegin { round } => {
                        if let Some(prev) = open {
                            return Err(format!(
                                "w{w}: round {round} opened while round {prev} is open"
                            ));
                        }
                        open = Some(*round);
                    }
                    ObsKind::RoundEnd { round, .. } => match open.take() {
                        Some(prev) if prev == *round => {}
                        Some(prev) => {
                            return Err(format!(
                                "w{w}: round {round} closed while round {prev} is open"
                            ));
                        }
                        None => {
                            return Err(format!("w{w}: round {round} closed but never opened"));
                        }
                    },
                    ObsKind::Crashed => {
                        // The crash tore the incarnation down mid-round;
                        // its span is implicitly closed here.
                        open = None;
                    }
                    _ => {}
                }
            }
            if let Some(round) = open {
                return Err(format!("w{w}: round {round} never closed"));
            }
        }
        Ok(())
    }

    /// Export as Chrome trace-event JSON (the `{"traceEvents": [...]}`
    /// format Perfetto and `chrome://tracing` load). One process, one
    /// thread (track) per worker; rounds become `B`/`E` spans, everything
    /// else thread-scoped `i` instants. Timestamps are exported as
    /// microseconds; a virtual-tick journal maps one tick to one
    /// microsecond.
    pub fn chrome_trace(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"pdatalog\"}}",
        );
        let workers: std::collections::BTreeSet<usize> =
            self.events.iter().map(|e| e.worker).collect();
        for w in &workers {
            let _ = write!(
                out,
                ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{w},\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            );
        }
        // Open round span per worker: a `Crashed` event must close its
        // worker's span (the incarnation's own `RoundEnd` died with it),
        // or the viewer misnests every later span on that track.
        let mut open_round: std::collections::BTreeMap<usize, u64> = Default::default();
        for e in &self.events {
            if matches!(e.kind, ObsKind::Crashed) {
                if let Some(round) = open_round.remove(&e.worker) {
                    let _ = write!(
                        out,
                        ",{{\"name\":\"round\",\"ph\":\"E\",\"ts\":{},\"pid\":0,\
                         \"tid\":{},\"args\":{{\"round\":{round},\"aborted\":true}}}}",
                        e.time, e.worker
                    );
                }
            }
            let name = e.kind.name();
            let (ph, args) = match &e.kind {
                ObsKind::RoundBegin { round } => {
                    open_round.insert(e.worker, *round);
                    ("B", format!("\"round\":{round}"))
                }
                ObsKind::RoundEnd { round, fresh, firings, cost } => {
                    open_round.remove(&e.worker);
                    (
                        "E",
                        format!(
                            "\"round\":{round},\"fresh\":{fresh},\"firings\":{firings},\
                             \"cost\":{cost}"
                        ),
                    )
                }
                // Profile-only events: the viewer already shows rounds,
                // encodes and replays; bootstrap, decode and wake costs
                // reach it through the profile report.
                ObsKind::Bootstrapped { .. } | ObsKind::Decoded { .. } | ObsKind::Woke { .. } => {
                    continue
                }
                ObsKind::BatchEncoded { channel, tuples, bytes, raw_bytes, cost, .. } => (
                    "i",
                    format!(
                        "\"channel\":{channel},\"tuples\":{tuples},\"bytes\":{bytes},\
                         \"raw_bytes\":{raw_bytes},\"cost\":{cost}"
                    ),
                ),
                ObsKind::BatchSent { to, tuples, bytes, seq } => (
                    "i",
                    format!("\"to\":{to},\"tuples\":{tuples},\"bytes\":{bytes},\"seq\":{seq}"),
                ),
                ObsKind::BatchReceived { from, tuples, bytes, seq, duplicate } => (
                    "i",
                    format!(
                        "\"from\":{from},\"tuples\":{tuples},\"bytes\":{bytes},\
                         \"seq\":{seq},\"duplicate\":{duplicate}"
                    ),
                ),
                ObsKind::SnapshotReceived { from, payloads, upto } => (
                    "i",
                    format!("\"from\":{from},\"payloads\":{payloads},\"upto\":{upto}"),
                ),
                ObsKind::TokenSent { to, count, black } => (
                    "i",
                    format!("\"to\":{to},\"count\":{count},\"black\":{black}"),
                ),
                ObsKind::TokenDropped => ("i", String::new()),
                ObsKind::ReplaySent { to, messages, cost, .. } => (
                    "i",
                    format!("\"to\":{to},\"messages\":{messages},\"cost\":{cost}"),
                ),
                ObsKind::EpochRepair { epoch } => ("i", format!("\"epoch\":{epoch}")),
                ObsKind::IdleWait => ("i", String::new()),
                ObsKind::Terminated => ("i", String::new()),
                ObsKind::Delivered { from, kind, seq, duplicate } => (
                    "i",
                    format!(
                        "\"from\":{from},\"kind\":\"{kind}\",\"seq\":{seq},\
                         \"duplicate\":{duplicate}"
                    ),
                ),
                ObsKind::Stalled { until } => ("i", format!("\"until\":{until}")),
                ObsKind::Crashed => ("i", String::new()),
                ObsKind::Restarted { epoch } => ("i", format!("\"epoch\":{epoch}")),
            };
            let scope = if ph == "i" { ",\"s\":\"t\"" } else { "" };
            let _ = write!(
                out,
                ",{{\"name\":\"{name}\",\"ph\":\"{ph}\"{scope},\"ts\":{},\"pid\":0,\
                 \"tid\":{},\"args\":{{{args}}}}}",
                e.time, e.worker
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

impl std::fmt::Display for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let unit = match self.base {
            TimeBase::WallMicros => "µs",
            TimeBase::VirtualTicks => "ticks",
        };
        for e in &self.events {
            write!(f, "[{:>8}] w{} ", e.time, e.worker)?;
            match &e.kind {
                ObsKind::RoundBegin { round } => writeln!(f, "round {round} begin"),
                ObsKind::RoundEnd { round, fresh, firings, cost } => writeln!(
                    f,
                    "round {round} end (+{fresh} fresh, {firings} firings, cost {cost})"
                ),
                ObsKind::Bootstrapped { firings, cost } => {
                    writeln!(f, "bootstrap ({firings} firings, cost {cost})")
                }
                ObsKind::BatchEncoded { channel, tuples, bytes, raw_bytes, cost, .. } => writeln!(
                    f,
                    "encode  ch{channel} {tuples} tuples {bytes} B (raw {raw_bytes} B, cost {cost})"
                ),
                ObsKind::BatchSent { to, tuples, bytes, seq } => {
                    writeln!(f, "send    -> w{to} {tuples} tuples {bytes} B #{seq}")
                }
                ObsKind::BatchReceived { from, tuples, bytes, seq, duplicate } => {
                    let marker = if *duplicate { " (dup)" } else { "" };
                    writeln!(f, "recv    <- w{from} {tuples} tuples {bytes} B #{seq}{marker}")
                }
                ObsKind::Decoded { tuples, cost, .. } => {
                    writeln!(f, "decode  {tuples} tuples (cost {cost})")
                }
                ObsKind::SnapshotReceived { from, payloads, upto } => {
                    writeln!(f, "snapshot <- w{from} {payloads} payloads upto #{upto}")
                }
                ObsKind::TokenSent { to, count, black } => {
                    let color = if *black { "black" } else { "white" };
                    writeln!(f, "token   -> w{to} ({color}, count {count})")
                }
                ObsKind::TokenDropped => writeln!(f, "token dropped (stale epoch)"),
                ObsKind::ReplaySent { to, messages, cost, .. } => {
                    writeln!(f, "replay  -> w{to} {messages} messages (cost {cost})")
                }
                ObsKind::EpochRepair { epoch } => writeln!(f, "repair into epoch {epoch}"),
                ObsKind::IdleWait => writeln!(f, "idle"),
                ObsKind::Woke { idle, .. } => writeln!(f, "woke after {idle} idle"),
                ObsKind::Terminated => writeln!(f, "terminated"),
                ObsKind::Delivered { from, kind, seq, duplicate } => {
                    let marker = if *duplicate { " (dup)" } else { "" };
                    writeln!(f, "deliver <- w{from} {kind} #{seq}{marker}")
                }
                ObsKind::Stalled { until } => writeln!(f, "stalled until {until}"),
                ObsKind::Crashed => writeln!(f, "crashed"),
                ObsKind::Restarted { epoch } => writeln!(f, "restarted (epoch {epoch})"),
            }?;
        }
        writeln!(f, "[{:>8}] end of journal ({} events, {unit})",
            self.events.last().map_or(0, |e| e.time),
            self.events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, worker: usize, kind: ObsKind) -> ObsEvent {
        ObsEvent { time, worker, kind }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        // Profiling off: the worker carries no probe, so it journals
        // nothing and reports no profile.
        use crate::worker::tests::{busy_core, Recorder};
        use crate::worker::Step;
        let (mut core, _interner) = busy_core();
        let mut out = Recorder::default();
        while core.step(&mut out).unwrap() == Step::Worked {}
        assert!(core.take_events().is_empty());
        let (report, events) = core.into_report(0);
        assert!(report.profile.is_none());
        assert!(events.is_empty());
    }

    #[test]
    fn virtual_sink_stamps_the_pushed_clock() {
        let mut probe = Probe::virtual_clock(3);
        probe.emit(ObsKind::RoundBegin { round: 1 });
        probe.set_now(42);
        assert_eq!(probe.cost(0, 7), 7, "virtual costs are the work proxy");
        probe.emit(ObsKind::RoundEnd { round: 1, fresh: 5, firings: 7, cost: 7 });
        let events = probe.take_events();
        assert_eq!(events[0].time, 0);
        assert_eq!(events[1].time, 42);
        assert!(events.iter().all(|e| e.worker == 3));
        assert!(probe.take_events().is_empty(), "take drains");
    }

    #[test]
    fn wake_charges_the_gap_and_folds_consecutive_polls() {
        let mut probe = Probe::virtual_clock(0);
        probe.set_now(10);
        probe.step_end();
        probe.wake(2); // no time passed: nothing to charge
        assert!(probe.take_events().is_empty());
        probe.set_now(15);
        probe.wake(2);
        probe.step_end();
        probe.set_now(19);
        probe.wake(2); // the same wait, polled again
        probe.emit(ObsKind::IdleWait);
        probe.set_now(20);
        probe.wake(2); // a new wait after another event
        let events = probe.take_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], ev(19, 0, ObsKind::Woke { round: 2, idle: 9 }));
        assert_eq!(events[2], ev(20, 0, ObsKind::Woke { round: 2, idle: 5 }));
    }

    #[test]
    fn assemble_merges_sorted_with_stable_ties() {
        let transport = vec![ev(5, 1, ObsKind::Crashed)];
        let w0 = vec![
            ev(1, 0, ObsKind::RoundBegin { round: 1 }),
            ev(5, 0, ObsKind::RoundEnd { round: 1, fresh: 1, firings: 1, cost: 1 }),
        ];
        let journal = Journal::assemble(TimeBase::VirtualTicks, transport, vec![w0]);
        assert_eq!(journal.events.len(), 3);
        assert_eq!(journal.events[0].time, 1);
        // Stable sort: the transport event precedes the equal-time worker
        // event because it was concatenated first.
        assert!(matches!(journal.events[1].kind, ObsKind::Crashed));
        journal.validate().expect("well-formed");
    }

    #[test]
    fn validate_rejects_unclosed_round() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![ev(1, 0, ObsKind::RoundBegin { round: 1 })],
        };
        let err = journal.validate().unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn validate_rejects_mismatched_round_pairing() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(1, 0, ObsKind::RoundBegin { round: 1 }),
                ev(2, 0, ObsKind::RoundEnd { round: 2, fresh: 0, firings: 0, cost: 0 }),
            ],
        };
        assert!(journal.validate().is_err());
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![ev(1, 0, ObsKind::RoundEnd { round: 1, fresh: 0, firings: 0, cost: 0 })],
        };
        let err = journal.validate().unwrap_err();
        assert!(err.contains("never opened"), "{err}");
    }

    #[test]
    fn validate_rejects_backward_time() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![ev(5, 0, ObsKind::IdleWait), ev(4, 1, ObsKind::IdleWait)],
        };
        let err = journal.validate().unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn round_pairing_is_per_worker() {
        // Worker 0's round may stay open across worker 1's whole round.
        let journal = Journal::assemble(
            TimeBase::VirtualTicks,
            Vec::new(),
            vec![
                vec![
                    ev(1, 0, ObsKind::RoundBegin { round: 1 }),
                    ev(9, 0, ObsKind::RoundEnd { round: 1, fresh: 2, firings: 2, cost: 2 }),
                ],
                vec![
                    ev(2, 1, ObsKind::RoundBegin { round: 1 }),
                    ev(3, 1, ObsKind::RoundEnd { round: 1, fresh: 1, firings: 1, cost: 1 }),
                ],
            ],
        );
        journal.validate().expect("interleaved per-worker rounds are fine");
    }

    #[test]
    fn validate_accepts_crash_mid_round() {
        // The incarnation died between RoundBegin and RoundEnd: its
        // buffered end event is gone, the supervisor's Crashed marker
        // stands in for it. The replacement restarts round numbering.
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(1, 0, ObsKind::RoundBegin { round: 3 }),
                ev(2, 0, ObsKind::Crashed),
                ev(2, 0, ObsKind::Restarted { epoch: 1 }),
                ev(4, 0, ObsKind::RoundBegin { round: 0 }),
                ev(5, 0, ObsKind::RoundEnd { round: 0, fresh: 1, firings: 1, cost: 1 }),
            ],
        };
        journal.validate().expect("crash closes the dangling span");
    }

    #[test]
    fn validate_still_rejects_dangling_round_without_crash() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(1, 0, ObsKind::RoundBegin { round: 3 }),
                ev(2, 0, ObsKind::Restarted { epoch: 1 }),
            ],
        };
        let err = journal.validate().unwrap_err();
        assert!(err.contains("never closed"), "{err}");
    }

    #[test]
    fn chrome_trace_closes_span_on_crash() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(1, 0, ObsKind::RoundBegin { round: 3 }),
                ev(2, 0, ObsKind::Crashed),
                ev(3, 0, ObsKind::RoundBegin { round: 0 }),
                ev(4, 0, ObsKind::RoundEnd { round: 0, fresh: 1, firings: 1, cost: 1 }),
            ],
        };
        let json = journal.chrome_trace();
        assert!(json.contains("\"aborted\":true"), "{json}");
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count(),
            "crash-closed span keeps B/E balanced"
        );
    }

    #[test]
    fn chrome_trace_has_tracks_spans_and_metadata() {
        let journal = Journal::assemble(
            TimeBase::WallMicros,
            Vec::new(),
            vec![vec![
                ev(1, 0, ObsKind::RoundBegin { round: 1 }),
                ev(4, 0, ObsKind::RoundEnd { round: 1, fresh: 3, firings: 3, cost: 3 }),
                ev(5, 0, ObsKind::BatchSent { to: 1, tuples: 3, bytes: 60, seq: 0 }),
                ev(6, 0, ObsKind::Terminated),
            ]],
        );
        let json = journal.chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"send\""));
        assert!(json.contains("\"name\":\"terminated\""));
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count(),
            "every span opened is closed"
        );
    }

    #[test]
    fn display_lists_every_event() {
        let journal = Journal {
            base: TimeBase::VirtualTicks,
            events: vec![
                ev(1, 0, ObsKind::RoundBegin { round: 1 }),
                ev(2, 0, ObsKind::RoundEnd { round: 1, fresh: 1, firings: 1, cost: 1 }),
                ev(3, 0, ObsKind::TokenSent { to: 1, count: -1, black: true }),
                ev(4, 0, ObsKind::Terminated),
            ],
        };
        let text = journal.to_string();
        assert!(text.contains("round 1 begin"));
        assert!(text.contains("token   -> w1 (black, count -1)"));
        assert!(text.contains("terminated"));
        assert!(text.contains("end of journal (4 events, ticks)"));
    }
}
