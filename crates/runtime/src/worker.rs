//! The per-processor worker, as a transport-agnostic state machine.
//!
//! Implements the paper's §3 execution skeleton:
//!
//! ```text
//! evaluate initialization rule
//! repeat
//!     evaluate processing rules
//!     evaluate sending rules
//!     evaluate receiving rules
//! until "termination"
//! ```
//!
//! Initialization/processing/sending rules run inside the local
//! [`FixpointEngine`]; the *receiving* rules are realized by injecting
//! arriving batches into the inbox predicates; and the asynchrony the
//! paper insists on ("processor i does not wait for data from processor
//! j") falls out of absorbing whatever has arrived before each engine
//! round, never blocking for more.
//!
//! The worker is deliberately **re-entrant**: it owns no channel handles
//! and no event loop. `WorkerCore::step` performs exactly one scheduling
//! quantum — absorb pending envelopes, then either run one engine round or
//! handle the termination token — and reports whether it worked, went
//! idle, or terminated. How steps are driven is the transport's business:
//! [`crate::transport::ThreadedTransport`] wraps the core in an OS thread
//! with a blocking queue, while [`crate::sim::SimTransport`] interleaves
//! many cores under a virtual clock, one `step` at a time, in whatever
//! adversarial order its seeded scheduler picks.

use std::collections::VecDeque;
use std::time::Duration;

use gst_common::{Error, FxHashMap, FxHashSet, Result, Tuple};
use gst_eval::plan::RelationId;
use gst_eval::FixpointEngine;

use crate::message::{Envelope, Message, Payload};
use crate::obs::{ObsEvent, ObsKind, Probe};
use crate::profile::WorkerProfile;
use crate::spec::WorkerSpec;
use crate::stats::WorkerReport;
use crate::termination::{Safra, TokenAction, TokenMsg};

/// Runtime knobs shared by all workers.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// How long a passive worker blocks on its queue per wait.
    pub idle_poll: Duration,
    /// Give up if passive this long with no token traffic (a peer died).
    pub idle_watchdog: Duration,
    /// Perform the final-pooling step. Disable to measure the recursive
    /// computation alone — the paper treats pooling as a separate cost
    /// ("might require communication from all processors to a single
    /// processor", §3 step 5).
    pub pool_results: bool,
    /// Intra-worker morsel parallelism: threads each worker's engine may
    /// fan a large semi-naive delta across. 1 (the default) keeps the
    /// engine strictly sequential.
    pub morsel_threads: usize,
    /// Observability: each worker records its event journal and folds it
    /// into a phase profile (compute/encode/decode/replay/idle and latency
    /// histograms). Off (the default) costs one `Option` branch per
    /// instrumented site.
    pub profile: bool,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            idle_poll: Duration::from_millis(1),
            idle_watchdog: Duration::from_secs(30),
            pool_results: true,
            morsel_threads: 1,
            profile: false,
        }
    }
}

/// Where a worker's outbound envelopes go. The only seam between a worker
/// and its transport: threads send over channels, the simulator schedules
/// deliveries on its virtual clock.
pub(crate) trait Outbox {
    /// Hand `env` to the transport for delivery to processor `to`.
    fn send(&mut self, to: usize, env: Envelope) -> Result<()>;
}

/// What one scheduling quantum accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Progress was made (engine round, token handling, or absorption);
    /// schedule another step.
    Worked,
    /// Locally quiescent with nothing pending: the worker needs no more
    /// steps until a message arrives.
    Idle,
    /// Globally terminated.
    Done,
}

/// Sender-side retention of one link's batch history, enabling crash
/// recovery by replay while keeping memory bounded.
///
/// The tail holds individual batches not yet acknowledged by the
/// receiver. When the receiver's piggybacked cumulative ack advances, the
/// acked prefix is *compacted*: its tuples are folded (set-union, per
/// inbox) into the snapshot and the batches are dropped. Memory is then
/// bounded by the receiver's unacked window plus the number of *distinct*
/// tuples ever shipped on the link — not by total traffic. Replay for a
/// receiver whose watermark predates the tail ships the snapshot (as one
/// logical message standing in for sequence numbers `< base`) followed by
/// the tail.
#[derive(Default)]
struct ReplayLog {
    /// Every batch with sequence number `< base` has been compacted into
    /// `snapshot`.
    base: u64,
    /// Set-union of the compacted prefix, per inbox predicate.
    snapshot: FxHashMap<RelationId, FxHashSet<Tuple>>,
    /// Cached wire encoding of `snapshot`, invalidated exactly when a
    /// compaction folds a batch in. Acks piggyback on every envelope;
    /// without the cache, every replay re-sorted and re-encoded an
    /// unchanged snapshot.
    encoded: Option<Vec<(RelationId, Payload)>>,
    /// Retained batches, contiguous sequence numbers starting at `base`,
    /// each tagged with the recovery epoch it was shipped in and the inbox
    /// it addresses (the payload itself is destination-independent).
    /// Replay retransmits only batches from *earlier* epochs: a batch
    /// shipped in the current epoch was counted post-recovery and is
    /// guaranteed deliverable, so retransmitting it would double-count the
    /// send while the receiver dedups the copy — a permanent +1 in Safra's
    /// sum.
    /// Each entry also keeps the batch's retract flag so a replayed
    /// envelope is bit-identical to the original send.
    tail: VecDeque<(u64, u64, RelationId, Payload, bool)>,
}

impl ReplayLog {
    /// Fold every batch with sequence number `< acked` into the snapshot.
    fn truncate_to(&mut self, acked: u64) -> Result<()> {
        if acked <= self.base {
            // Nothing newly acknowledged — the common case for the ack
            // piggybacked on every envelope. No decode, no invalidation.
            return Ok(());
        }
        while self.tail.front().is_some_and(|(seq, ..)| *seq < acked) {
            let (_, _, inbox, payload, _) = self.tail.pop_front().expect("front checked");
            let tuples = crate::codec::decode_batch(&payload)?;
            self.snapshot.entry(inbox).or_default().extend(tuples);
            // The snapshot changed, so its cached encoding is stale. The
            // fold itself is the invalidation point — no separate check.
            self.encoded = None;
        }
        self.base = acked;
        Ok(())
    }

    /// Encode the snapshot, one payload per inbox, in deterministic order.
    /// Cached between compactions: repeated replays clone the retained
    /// `Arc` payloads instead of re-sorting and re-encoding.
    fn snapshot_payloads(&mut self) -> Result<Vec<(RelationId, Payload)>> {
        if let Some(cached) = &self.encoded {
            return Ok(cached.clone());
        }
        let mut inboxes: Vec<&RelationId> = self.snapshot.keys().collect();
        inboxes.sort();
        let payloads = inboxes
            .into_iter()
            .map(|inbox| {
                let mut tuples: Vec<Tuple> = self.snapshot[inbox].iter().cloned().collect();
                tuples.sort();
                Ok((*inbox, crate::codec::encode_batch(inbox.1, &tuples)?))
            })
            .collect::<Result<Vec<(RelationId, Payload)>>>()?;
        self.encoded = Some(payloads.clone());
        Ok(payloads)
    }

    /// Retained batch count (diagnostics and the drain test).
    #[cfg(test)]
    fn tail_len(&self) -> usize {
        self.tail.len()
    }

    fn clear(&mut self) {
        self.snapshot.clear();
        self.encoded = None;
        self.tail.clear();
    }
}

/// The per-processor state machine: fixpoint engine, Safra state, pending
/// message queue, and traffic counters. Contains no I/O.
pub(crate) struct WorkerCore {
    id: usize,
    n: usize,
    engine: FixpointEngine,
    spec: WorkerSpec,
    safra: Safra,
    held_token: Option<TokenMsg>,
    terminated: bool,
    bootstrapped: bool,
    pending: VecDeque<Envelope>,
    /// Recovery epoch this incarnation runs in. Envelopes from earlier
    /// epochs are dropped uncounted; replay re-delivers their content.
    epoch: u64,
    /// True once this incarnation has processed the `Recover` broadcast
    /// of its own epoch (guards against processing it twice).
    recover_handled: bool,
    /// Next *batch* sequence number per destination link — a dense space,
    /// so the receiver can maintain a contiguous watermark.
    batch_seq: Vec<u64>,
    /// Next control-message sequence number per destination link (traces
    /// and diagnostics only).
    ctrl_seq: Vec<u64>,
    /// Per-source contiguous receive watermark: every batch sequence
    /// number `< recv_floor[p]` from `p` has been absorbed. Piggybacked on
    /// outgoing envelopes as the cumulative ack.
    recv_floor: Vec<u64>,
    /// Batch sequence numbers `≥ recv_floor[p]` already absorbed, per
    /// source — transport duplicates are recognized here so Safra's
    /// counter stays exact; entries below the floor are pruned as it
    /// advances, bounding memory by the reorder window.
    seen_above: Vec<FxHashSet<u64>>,
    /// Sender-side replay log per destination link.
    replay: Vec<ReplayLog>,
    /// Outgoing channels grouped by channel relation. Deltas accumulate
    /// across rounds and go out as one batch per channel at the local
    /// fixpoint — the arena's insertion order makes the backlog a
    /// borrowable suffix, and coarse batches keep the envelope count (and
    /// the scheduler churn it causes) proportional to fixpoints, not
    /// rounds. A channel feeding several destinations (the broadcast
    /// scheme) is encoded once and the payload `Arc` shared.
    ship_groups: Vec<ShipGroup>,
    /// Batches accepted since the last drain, grouped per inbox (same
    /// order as `spec.program.inboxes`): the decode-and-inject pass runs
    /// once per inbox per step however many batches arrived, so a worker
    /// that fell behind pays one index sync instead of one per batch.
    stash: Vec<Vec<Payload>>,
    /// Total payloads currently stashed (fast emptiness check).
    stash_count: usize,
    // statistics
    sent_tuples_to: Vec<u64>,
    sent_bytes_to: Vec<u64>,
    sent_messages: u64,
    received_tuples: u64,
    received_bytes: u64,
    /// Distinct `encode_batch` calls on the ship path.
    encode_calls: u64,
    /// Bytes those encodes produced (each multicast payload counted once,
    /// unlike `sent_bytes_to` which counts per link).
    encoded_bytes: u64,
    /// What the row-oriented wire format would have spent on the same
    /// batches — the reference of the journal's compression ratio.
    encoded_raw_bytes: u64,
    duplicate_batches: u64,
    replayed_batches: u64,
    stale_dropped: u64,
    /// Tuples shipped on delete-marked channels (DRed over-deletion).
    retract_tuples_sent: u64,
    /// Tuples received in delete-marked batches (first deliveries only).
    retract_tuples_received: u64,
    busy: Duration,
    /// Channel tuples shipped per engine round, `(round, tuples)` —
    /// sparse: rounds that shipped nothing have no entry.
    sent_per_round: Vec<(u64, u64)>,
    /// Event journal and clock; `None` (free) unless profiling is on.
    probe: Option<Box<Probe>>,
    /// True while the previous step reported `Idle` — the idle-wait event
    /// fires on the transition, not on every 1 ms poll.
    was_idle: bool,
}

/// One send group: a channel relation with every destination it feeds and
/// the arena watermark of rows already shipped (or looped back).
struct ShipGroup {
    channel: RelationId,
    /// Rows of the channel relation below this index are already out.
    from_row: usize,
    /// `(dest, inbox)` pairs in spec order.
    dests: Vec<(usize, RelationId)>,
}

impl WorkerCore {
    pub(crate) fn new(spec: WorkerSpec, n: usize) -> Result<Self> {
        WorkerCore::with_epoch(spec, n, 0)
    }

    /// A core (re)started in recovery epoch `epoch` — used by supervisors
    /// to rebuild a crashed processor from its retained spec.
    pub(crate) fn with_epoch(spec: WorkerSpec, n: usize, epoch: u64) -> Result<Self> {
        let id = spec.program.processor;
        let mut ship_groups: Vec<ShipGroup> = Vec::new();
        for ch in &spec.program.outgoing {
            match ship_groups.iter_mut().find(|g| g.channel == ch.channel) {
                Some(g) => g.dests.push((ch.dest, ch.inbox)),
                None => ship_groups.push(ShipGroup {
                    channel: ch.channel,
                    from_row: 0,
                    dests: vec![(ch.dest, ch.inbox)],
                }),
            }
        }
        let stash = vec![Vec::new(); spec.program.inboxes.len()];
        // One construction path for cold starts and crash restarts: the
        // spec (including any update-session seed) fully determines the
        // engine's starting state, which is what makes epoch recovery
        // mid-update-round exact.
        let engine = spec.build_engine()?;
        Ok(WorkerCore {
            id,
            n,
            engine,
            spec,
            safra: Safra::with_epoch(id, n, epoch),
            held_token: None,
            terminated: false,
            bootstrapped: false,
            pending: VecDeque::new(),
            epoch,
            recover_handled: false,
            batch_seq: vec![0; n],
            ctrl_seq: vec![0; n],
            recv_floor: vec![0; n],
            seen_above: vec![FxHashSet::default(); n],
            replay: (0..n).map(|_| ReplayLog::default()).collect(),
            ship_groups,
            stash,
            stash_count: 0,
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
            busy: Duration::ZERO,
            sent_per_round: Vec::new(),
            probe: None,
            was_idle: false,
        })
    }

    /// Apply the transport's [`WorkerConfig::morsel_threads`] knob to this
    /// core's engine. Chunk-order merging keeps firings and models
    /// bit-identical to the sequential path, so this is purely a
    /// wall-clock knob.
    pub(crate) fn set_morsel_threads(&mut self, threads: usize) {
        self.engine
            .set_morsels(gst_eval::MorselConfig::with_threads(threads));
    }

    /// Install a probe (profiling on). The transport decides the clock:
    /// wall time for threads and TCP, virtual ticks for the simulator. The
    /// engine's per-rule time accounting follows the same clock.
    pub(crate) fn set_probe(&mut self, probe: Probe) {
        self.engine.set_time_mode(probe.time_mode());
        self.probe = Some(Box::new(probe));
    }

    /// Push the simulator's virtual clock into the probe (no-op without a
    /// probe or on a wall clock).
    pub(crate) fn set_virtual_now(&mut self, now: u64) {
        if let Some(p) = self.probe.as_mut() {
            p.set_now(now);
        }
    }

    /// Drain this incarnation's journal buffer.
    pub(crate) fn take_events(&mut self) -> Vec<ObsEvent> {
        self.probe.as_mut().map(|p| p.take_events()).unwrap_or_default()
    }

    /// Journal an untimed event (no-op without a probe).
    fn emit(&mut self, kind: ObsKind) {
        if let Some(p) = self.probe.as_mut() {
            p.emit(kind);
        }
    }

    pub(crate) fn id(&self) -> usize {
        self.id
    }

    pub(crate) fn terminated(&self) -> bool {
        self.terminated
    }

    /// Queue a delivered envelope; it is absorbed on the next [`step`].
    ///
    /// [`step`]: WorkerCore::step
    pub(crate) fn enqueue(&mut self, env: Envelope) {
        self.pending.push_back(env);
    }

    /// One scheduling quantum: absorb everything pending, then do at most
    /// one unit of work (an engine round, or token handling when passive).
    pub(crate) fn step(&mut self, out: &mut dyn Outbox) -> Result<Step> {
        if let Some(p) = self.probe.as_mut().filter(|_| self.was_idle) {
            // The gap since the previous step's end was spent waiting for
            // messages or the termination probe: idle time.
            p.wake(self.engine.stats().rounds);
        }
        let t0 = std::time::Instant::now();
        let result = self.step_inner(out);
        self.busy += t0.elapsed();
        let idle = matches!(result, Ok(Step::Idle));
        if let Some(p) = self.probe.as_mut() {
            p.step_end();
            // Journal the *transition* into idleness: the threaded
            // transport re-polls an idle worker every `idle_poll`, and one
            // event per wait beats one per poll.
            if idle && !self.was_idle {
                p.emit(ObsKind::IdleWait);
            }
        }
        self.was_idle = idle;
        result
    }

    fn step_inner(&mut self, out: &mut dyn Outbox) -> Result<Step> {
        if self.terminated {
            return Ok(Step::Done);
        }
        if !self.bootstrapped {
            self.bootstrapped = true;
            let firings_before = self.engine.stats().firings;
            let t0 = self.probe.as_ref().map(|p| p.now());
            self.engine.bootstrap()?;
            if let (Some(p), Some(t0)) = (self.probe.as_mut(), t0) {
                let firings = self.engine.stats().firings - firings_before;
                let cost = p.cost(t0, firings);
                p.emit(ObsKind::Bootstrapped { firings, cost });
            }
        }

        // Receiving step: absorb what the transport delivered.
        let absorbed = !self.pending.is_empty();
        while let Some(env) = self.pending.pop_front() {
            self.absorb(env, out)?;
            if self.terminated {
                return Ok(Step::Done);
            }
        }

        // Coalesced receive: one decode-and-inject pass per inbox over
        // everything stashed since the last engine step.
        let t0 = self.probe.as_ref().filter(|_| self.stash_count > 0).map(|p| p.now());
        let tuples = self.drain_stash()?;
        if let (Some(p), Some(t0)) = (self.probe.as_mut(), t0) {
            let round = self.engine.stats().rounds;
            let cost = p.cost(t0, tuples);
            p.emit(ObsKind::Decoded { round, tuples, cost });
        }

        // Processing step: one engine round.
        let fresh = self.engine.advance();
        if fresh > 0 {
            // `advance` already closed the round in the stats, so the
            // round that is now processing is `rounds - 1`.
            let round = self.engine.stats().rounds - 1;
            let firings_before = self.engine.stats().firings;
            let t0 = self.probe.as_mut().map(|p| {
                p.emit(ObsKind::RoundBegin { round });
                p.now()
            });
            self.engine.process_round();
            if let (Some(p), Some(t0)) = (self.probe.as_mut(), t0) {
                let firings = self.engine.stats().firings - firings_before;
                let cost = p.cost(t0, firings);
                p.emit(ObsKind::RoundEnd { round, fresh, firings, cost });
            }
            return Ok(Step::Worked);
        }

        // Sending step, deferred to the local fixpoint: ship each
        // channel's accumulated backlog as a single batch. A loopback
        // re-activates the engine, so report `Worked` and let the next
        // step pick the fixpoint back up.
        if self.ship_channel_deltas(out)? {
            return Ok(Step::Worked);
        }
        debug_assert!(self.engine.quiescent());

        // Passive: a held token may now be handled (Safra forwards only
        // while passive), and the initiator may launch a probe.
        if let Some(token) = self.held_token.take() {
            self.handle_token(token, out)?;
            return Ok(if self.terminated { Step::Done } else { Step::Worked });
        }
        if self.id == 0 {
            if let Some(token) = self.safra.launch() {
                self.send_token(self.safra.next(), token, out)?;
                return Ok(Step::Worked);
            }
        }
        Ok(if absorbed { Step::Worked } else { Step::Idle })
    }

    /// Absorb one envelope: inject batches, hold tokens until passive,
    /// honor terminate, run the recovery handshakes.
    ///
    /// Epoch discipline: a `Recover` may *raise* our epoch; any other
    /// envelope from an earlier epoch is dropped uncounted — the sender's
    /// replay (triggered by our post-recovery `AckSync`) re-delivers its
    /// content inside the new epoch, keeping Safra's per-epoch accounting
    /// exact.
    fn absorb(&mut self, env: Envelope, out: &mut dyn Outbox) -> Result<()> {
        if let Message::Recover { epoch, restarted } = env.message {
            return self.on_recover(epoch, restarted, out);
        }
        if env.epoch < self.epoch {
            self.stale_dropped += 1;
            return Ok(());
        }
        debug_assert!(
            env.epoch == self.epoch,
            "recovery broadcasts its epoch before any traffic of that epoch"
        );
        // Piggybacked cumulative ack: compact the replay log for the link
        // *to* this sender.
        self.replay[env.from].truncate_to(env.ack)?;
        match env.message {
            Message::Batch { inbox, payload, retract } => {
                self.accept_batch(env.from, env.seq, inbox, payload, retract)
            }
            Message::Token(token) => {
                // One token circulates the ring; a second can only appear
                // if a transport duplicated it (faults must not).
                debug_assert!(self.held_token.is_none(), "two tokens in the ring");
                self.held_token = Some(token);
                Ok(())
            }
            Message::Terminate => {
                self.terminated = true;
                // Global termination: replay logs are no longer needed.
                self.replay.iter_mut().for_each(ReplayLog::clear);
                self.emit(ObsKind::Terminated);
                Ok(())
            }
            Message::AckSync { acked } => self.replay_link(env.from, acked, out),
            Message::Snapshot { payloads, upto } => {
                self.accept_snapshot(env.from, payloads, upto)
            }
            Message::Abort { reason } => Err(Error::Runtime(format!(
                "aborted: processor {} failed: {reason}",
                env.from
            ))),
            Message::Recover { .. } => unreachable!("handled above"),
        }
    }

    /// Ring repair (see DESIGN.md §7). Entering epoch `epoch`:
    /// pre-epoch accounting is void (counter zeroed, color blackened,
    /// probe abandoned, held token discarded), receive-state for the
    /// restarted link is forgotten (its new incarnation restarts at
    /// sequence 0), above-floor dedup state is cleared for every link
    /// (those batches will be replayed and must be re-counted), and an
    /// `AckSync` with our watermark goes to every peer to trigger replay.
    fn on_recover(&mut self, epoch: u64, restarted: usize, out: &mut dyn Outbox) -> Result<()> {
        if epoch < self.epoch || (epoch == self.epoch && self.recover_handled) {
            self.stale_dropped += 1;
            return Ok(());
        }
        self.epoch = epoch;
        self.recover_handled = true;
        self.emit(ObsKind::EpochRepair { epoch });
        self.safra.on_recover(epoch);
        if self.held_token.take().is_some() {
            self.stale_dropped += 1;
        }
        if restarted != self.id {
            // The restarted peer's new incarnation numbers its batches
            // from 0 again; stale receive-state would misclassify them as
            // duplicates.
            self.recv_floor[restarted] = 0;
            // Our own outgoing sequence space toward it continues — the
            // fresh incarnation's floor starts at 0 and our replay covers
            // the full history.
        }
        for seen in self.seen_above.iter_mut() {
            seen.clear();
        }
        for peer in 0..self.n {
            if peer != self.id {
                let ack = self.recv_floor[peer];
                self.send_ctrl(peer, Message::AckSync { acked: ack }, out)?;
            }
        }
        Ok(())
    }

    /// Recovery replay: peer `to` declared contiguous watermark `acked`
    /// for our link. Everything at or above it that was shipped *before*
    /// the current epoch is retransmitted — the compacted snapshot first
    /// if the watermark predates the tail, then the retained pre-epoch
    /// batches. Each replayed message is counted as a fresh basic message
    /// of the current epoch (the receiver's dedup state for this range was
    /// cleared by `Recover`, so it counts each exactly once too). Batches
    /// already shipped in the current epoch are skipped: their original
    /// send was counted post-recovery and the transport delivers it.
    fn replay_link(&mut self, to: usize, acked: u64, out: &mut dyn Outbox) -> Result<()> {
        let t0 = self.probe.as_ref().map(|p| p.now());
        self.replay[to].truncate_to(acked)?;
        let replayed_before = self.replayed_batches;
        let base = self.replay[to].base;
        if acked < base {
            let payloads = self.replay[to].snapshot_payloads()?;
            self.safra.on_send();
            self.replayed_batches += 1;
            let env = Envelope {
                from: self.id,
                seq: self.next_ctrl_seq(to),
                epoch: self.epoch,
                ack: self.recv_floor[to],
                message: Message::Snapshot { payloads, upto: base },
            };
            out.send(to, env)?;
        }
        let resend: Vec<(u64, RelationId, Payload, bool)> = self
            .replay[to]
            .tail
            .iter()
            .filter(|(_, shipped_in, ..)| *shipped_in < self.epoch)
            .map(|(seq, _, inbox, payload, retract)| {
                (*seq, *inbox, payload.clone(), *retract)
            })
            .collect();
        for (seq, inbox, payload, retract) in resend {
            self.safra.on_send();
            self.replayed_batches += 1;
            let env = Envelope {
                from: self.id,
                seq,
                epoch: self.epoch,
                ack: self.recv_floor[to],
                message: Message::Batch { inbox, payload, retract },
            };
            out.send(to, env)?;
        }
        let messages = self.replayed_batches - replayed_before;
        if let (Some(p), Some(t0)) = (self.probe.as_mut(), t0.filter(|_| messages > 0)) {
            let round = self.engine.stats().rounds;
            let cost = p.cost(t0, messages);
            p.emit(ObsKind::ReplaySent { to, messages, round, cost });
        }
        Ok(())
    }

    /// Absorb a compacted replay-log prefix: stash every payload for the
    /// coalesced inject pass and advance the watermark to `upto` (the
    /// sequence range the snapshot stands in for). One logical message for
    /// Safra's accounting.
    fn accept_snapshot(
        &mut self,
        from: usize,
        payloads: Vec<(RelationId, Payload)>,
        upto: u64,
    ) -> Result<()> {
        self.safra.on_basic_receive();
        self.emit(ObsKind::SnapshotReceived {
            from,
            payloads: payloads.len() as u64,
            upto,
        });
        for (inbox, payload) in payloads {
            let (_, count) = crate::codec::peek_batch(&payload)?;
            self.received_bytes += payload.len() as u64;
            self.received_tuples += count as u64;
            self.stash_payload(inbox, payload)?;
        }
        if upto > self.recv_floor[from] {
            self.recv_floor[from] = upto;
            self.seen_above[from].retain(|&seq| seq >= upto);
        }
        self.advance_floor(from);
        Ok(())
    }

    /// Accept an incoming batch (the receive step: the decoded tuples
    /// realize `t_in^i(W̄) :- t_ji(W̄)`). Only the header is read here —
    /// the payload is stashed and decoded in one coalesced inject pass per
    /// inbox on the next engine step, so a worker that fell behind pays
    /// one index sync however many batches queued up.
    ///
    /// A transport-level duplicate (same link sequence number) is *not*
    /// counted by the termination detector — Safra instruments logical
    /// messages, and a retransmission is the same logical message — but
    /// its payload is still stashed: under set semantics re-deriving a
    /// tuple is a no-op, which is exactly the idempotence the simulation
    /// tests exercise.
    fn accept_batch(
        &mut self,
        from: usize,
        seq: u64,
        inbox: RelationId,
        payload: Payload,
        retract: bool,
    ) -> Result<()> {
        let first_delivery =
            seq >= self.recv_floor[from] && self.seen_above[from].insert(seq);
        let (_, count) = crate::codec::peek_batch(&payload)?;
        self.emit(ObsKind::BatchReceived {
            from,
            tuples: count as u64,
            bytes: payload.len() as u64,
            seq,
            duplicate: !first_delivery,
        });
        if first_delivery {
            self.safra.on_basic_receive();
            self.received_bytes += payload.len() as u64;
            self.received_tuples += count as u64;
            if retract {
                self.retract_tuples_received += count as u64;
            }
            self.advance_floor(from);
        } else {
            self.duplicate_batches += 1;
        }
        self.stash_payload(inbox, payload)
    }

    /// Queue a payload for the next coalesced inject pass. An inbox
    /// predicate the spec does not declare falls through to a direct
    /// inject so the engine raises its typed error (misrouted envelope)
    /// at the receiving step, not one round later.
    fn stash_payload(&mut self, inbox: RelationId, payload: Payload) -> Result<()> {
        match self.spec.program.inboxes.iter().position(|p| *p == inbox) {
            Some(idx) => {
                self.stash[idx].push(payload);
                self.stash_count += 1;
                Ok(())
            }
            None => self
                .engine
                .inject_with(inbox, |out| crate::codec::decode_batch_into(&payload, out))
                .map(|_| ()),
        }
    }

    /// Coalesced receiving step: decode every stashed payload of an inbox
    /// inside a single `inject_with` — one index sync per inbox, however
    /// many batches arrived since the last drain. Returns the number of
    /// tuples decoded (the deterministic decode proxy).
    fn drain_stash(&mut self) -> Result<u64> {
        if self.stash_count == 0 {
            return Ok(0);
        }
        self.stash_count = 0;
        let mut decoded = 0u64;
        for idx in 0..self.stash.len() {
            if self.stash[idx].is_empty() {
                continue;
            }
            let batches = std::mem::take(&mut self.stash[idx]);
            let inbox = self.spec.program.inboxes[idx];
            decoded += self.engine.inject_with(inbox, |out| {
                let mut total = 0;
                for payload in &batches {
                    total += crate::codec::decode_batch_into(payload, out)?;
                }
                Ok(total)
            })? as u64;
        }
        Ok(decoded)
    }

    /// Slide the contiguous watermark for `from` over any absorbed
    /// sequence numbers, pruning them from the above-floor set.
    fn advance_floor(&mut self, from: usize) {
        while self.seen_above[from].remove(&self.recv_floor[from]) {
            self.recv_floor[from] += 1;
        }
    }

    /// Ship every channel predicate's fresh delta (paper: sending step).
    ///
    /// The delta is a borrowed arena suffix encoded straight onto the
    /// wire — no intermediate tuple vector; the only retained copy is the
    /// payload the replay log needs anyway. A channel feeding several
    /// remote destinations (the broadcast scheme's shared head predicate)
    /// is encoded exactly once and every destination's envelope clones
    /// the payload `Arc` — single-encode multicast.
    fn ship_channel_deltas(&mut self, out: &mut dyn Outbox) -> Result<bool> {
        let mut shipped = false;
        for k in 0..self.ship_groups.len() {
            let (channel, from_row) =
                (self.ship_groups[k].channel, self.ship_groups[k].from_row);
            let count = self.engine.rows_from(channel, from_row).len();
            if count == 0 {
                continue;
            }
            self.ship_groups[k].from_row = from_row + count;
            shipped = true;
            let payload = if self.ship_groups[k].dests.iter().any(|(d, _)| *d != self.id) {
                let t0 = self.probe.as_ref().map(|p| p.now());
                let payload = {
                    let tuples = self.engine.rows_from(channel, from_row);
                    crate::codec::encode_batch(channel.1, tuples)?
                };
                let raw_bytes = crate::codec::row_format_bytes(channel.1, count);
                self.encode_calls += 1;
                self.encoded_bytes += payload.len() as u64;
                self.encoded_raw_bytes += raw_bytes;
                if let (Some(p), Some(t0)) = (self.probe.as_mut(), t0) {
                    let bytes = payload.len() as u64;
                    let cost = p.cost(t0, bytes);
                    p.emit(ObsKind::BatchEncoded {
                        channel: channel.0 .0,
                        tuples: count as u64,
                        bytes,
                        raw_bytes,
                        round: self.engine.stats().rounds,
                        cost,
                    });
                }
                Some(payload)
            } else {
                None
            };
            // Delete-marked channel: the batch carries DRed retractions.
            // Routing, replay, and Safra accounting are identical — only
            // the envelope flag and traffic attribution differ.
            let retract = self.spec.program.retract_channels.contains(&channel);
            let dests = self.ship_groups[k].dests.clone();
            for (dest, inbox) in dests {
                if dest == self.id {
                    // Local loopback (t_ii): no network, no counters.
                    self.engine.loopback_from(channel, inbox, from_row)?;
                    continue;
                }
                let payload = payload.clone().expect("remote dest implies an encode");
                if retract {
                    self.retract_tuples_sent += count as u64;
                }
                self.sent_tuples_to[dest] += count as u64;
                self.sent_bytes_to[dest] += payload.len() as u64;
                self.sent_messages += 1;
                self.record_round_send(count as u64);
                self.safra.on_send();
                let seq = self.next_batch_seq(dest);
                self.emit(ObsKind::BatchSent {
                    to: dest,
                    tuples: count as u64,
                    bytes: payload.len() as u64,
                    seq,
                });
                // Retain for crash-recovery replay until the receiver acks
                // it (compaction) or the run terminates.
                self.replay[dest]
                    .tail
                    .push_back((seq, self.epoch, inbox, payload.clone(), retract));
                out.send(
                    dest,
                    Envelope {
                        from: self.id,
                        seq,
                        epoch: self.epoch,
                        ack: self.recv_floor[dest],
                        message: Message::Batch { inbox, payload, retract },
                    },
                )?;
            }
        }
        Ok(shipped)
    }

    /// Attribute `tuples` shipped tuples to the engine round that derived
    /// them (sparse per-round series; merged into the open entry when the
    /// round ships on several channels).
    fn record_round_send(&mut self, tuples: u64) {
        let round = self.engine.stats().rounds;
        match self.sent_per_round.last_mut() {
            Some((r, total)) if *r == round => *total += tuples,
            _ => self.sent_per_round.push((round, tuples)),
        }
    }

    fn handle_token(&mut self, token: TokenMsg, out: &mut dyn Outbox) -> Result<()> {
        match self.safra.on_token(token) {
            TokenAction::Forward(t) | TokenAction::Relaunch(t) => {
                self.send_token(self.safra.next(), t, out)
            }
            TokenAction::Drop => {
                // A pre-recovery token survived in our queue; the current
                // epoch's probe supersedes it.
                self.stale_dropped += 1;
                self.emit(ObsKind::TokenDropped);
                Ok(())
            }
            TokenAction::Terminate => {
                self.terminated = true;
                self.replay.iter_mut().for_each(ReplayLog::clear);
                self.emit(ObsKind::Terminated);
                for dest in 0..self.n {
                    if dest != self.id {
                        self.send_ctrl(dest, Message::Terminate, out)?;
                    }
                }
                Ok(())
            }
        }
    }

    fn send_token(&mut self, dest: usize, token: TokenMsg, out: &mut dyn Outbox) -> Result<()> {
        self.emit(ObsKind::TokenSent {
            to: dest,
            count: token.count,
            black: token.is_black(),
        });
        self.send_ctrl(dest, Message::Token(token), out)
    }

    /// Send a control message (token, terminate, recovery handshake) with
    /// the piggybacked cumulative ack for the destination's link.
    fn send_ctrl(&mut self, dest: usize, message: Message, out: &mut dyn Outbox) -> Result<()> {
        let seq = self.next_ctrl_seq(dest);
        out.send(
            dest,
            Envelope {
                from: self.id,
                seq,
                epoch: self.epoch,
                ack: self.recv_floor[dest],
                message,
            },
        )
    }

    fn next_batch_seq(&mut self, dest: usize) -> u64 {
        let seq = self.batch_seq[dest];
        self.batch_seq[dest] += 1;
        seq
    }

    fn next_ctrl_seq(&mut self, dest: usize) -> u64 {
        let seq = self.ctrl_seq[dest];
        self.ctrl_seq[dest] += 1;
        seq
    }

    /// Retained (unacked) replay-log batches toward `dest` — exercised by
    /// the log-drain test.
    #[cfg(test)]
    pub(crate) fn replay_tail_len(&self, dest: usize) -> usize {
        self.replay[dest].tail_len()
    }

    /// The incarnation's report and its journal buffer. The profile is
    /// the fold of that buffer, so the two views cannot disagree.
    pub(crate) fn into_report(mut self, pooled_tuples: u64) -> (WorkerReport, Vec<ObsEvent>) {
        let stats = self.engine.stats().clone();
        let processing_firings = stats.firings_for_rules(&self.spec.program.processing_rules);
        let events = self.take_events();
        let profile = self.probe.is_some().then(|| WorkerProfile::fold(&events));
        let report = WorkerReport {
            processor: self.id,
            eval: stats,
            processing_firings,
            sent_tuples_to: self.sent_tuples_to,
            sent_bytes_to: self.sent_bytes_to,
            sent_messages: self.sent_messages,
            received_tuples: self.received_tuples,
            received_bytes: self.received_bytes,
            encode_calls: self.encode_calls,
            encoded_bytes: self.encoded_bytes,
            encoded_raw_bytes: self.encoded_raw_bytes,
            duplicate_batches: self.duplicate_batches,
            replayed_batches: self.replayed_batches,
            stale_dropped: self.stale_dropped,
            retract_tuples_sent: self.retract_tuples_sent,
            retract_tuples_received: self.retract_tuples_received,
            pooled_tuples: 0,
            busy: self.busy,
            sent_per_round: self.sent_per_round,
            profile,
        }
        .with_pooled(pooled_tuples);
        (report, events)
    }

    /// Move the pooled relations out of the engine (final pooling, §3
    /// step 5) — a move, not a clone, so pooling cost is one union at the
    /// coordinator.
    pub(crate) fn take_pooled(&mut self) -> PooledRelations {
        let pairs = self.spec.program.pooling.clone();
        pairs
            .into_iter()
            .filter_map(|(local, global)| {
                self.engine.take_relation(local).map(|rel| (global, rel))
            })
            .collect()
    }

    pub(crate) fn pool_results(&self, config: &WorkerConfig) -> bool {
        config.pool_results
    }
}

/// `(global predicate, relation)` pairs a worker pools into the answer.
pub(crate) type PooledRelations = Vec<((gst_common::SymbolId, usize), gst_storage::Relation)>;

/// Finish a terminated core: pool (if configured), drain the journal
/// buffer, and build the report.
pub(crate) fn finish_core(
    mut core: WorkerCore,
    config: &WorkerConfig,
) -> (WorkerReport, PooledRelations, Vec<ObsEvent>) {
    let pooled = if core.pool_results(config) {
        core.take_pooled()
    } else {
        Vec::new()
    };
    let pooled_tuples = pooled.iter().map(|(_, r)| r.len() as u64).sum();
    let (report, events) = core.into_report(pooled_tuples);
    (report, pooled, events)
}

/// The watchdog error every transport reports when a worker starves while
/// others should still be running — a crashed or wedged peer.
pub(crate) fn watchdog_error(id: usize, idle_for: impl std::fmt::Debug) -> Error {
    Error::Runtime(format!(
        "processor {id} idle for {idle_for:?} without termination — a peer likely failed"
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::spec::ProcessorProgram;
    use crate::termination::Color;
    use gst_common::{ituple, Interner};
    use gst_storage::Database;
    use std::sync::Arc;

    /// Outbox that records sends for inspection.
    #[derive(Default)]
    pub(crate) struct Recorder {
        sent: Vec<(usize, Envelope)>,
    }

    impl Outbox for Recorder {
        fn send(&mut self, to: usize, env: Envelope) -> Result<()> {
            self.sent.push((to, env));
            Ok(())
        }
    }

    /// The snapshot encoding is cached: repeated replays after an
    /// unchanged compaction point return the same `Arc` payloads, and a
    /// no-op ack neither decodes nor invalidates anything.
    #[test]
    fn replay_snapshot_encoding_is_cached_until_compaction() {
        let interner = Interner::new();
        let inbox = (interner.intern("t@in"), 2);
        let mut log = ReplayLog::default();
        let p1 = crate::codec::encode_batch(inbox.1, &[ituple![1, 2]]).unwrap();
        let p2 = crate::codec::encode_batch(inbox.1, &[ituple![3, 4]]).unwrap();
        log.tail.push_back((0, 0, inbox, p1, false));
        log.tail.push_back((1, 0, inbox, p2, false));

        log.truncate_to(1).unwrap(); // folds seq 0
        let a = log.snapshot_payloads().unwrap();
        let b = log.snapshot_payloads().unwrap();
        assert!(
            Arc::ptr_eq(&a[0].1, &b[0].1),
            "second replay reuses the cached encoding"
        );

        log.truncate_to(1).unwrap(); // duplicate ack: no fold, no invalidation
        let c = log.snapshot_payloads().unwrap();
        assert!(Arc::ptr_eq(&a[0].1, &c[0].1));

        log.truncate_to(2).unwrap(); // folds seq 1: cache invalidated
        let d = log.snapshot_payloads().unwrap();
        assert!(!Arc::ptr_eq(&a[0].1, &d[0].1));
        assert_eq!(d[0].0, inbox, "snapshot payloads carry their inbox");
        let tuples = crate::codec::decode_batch(&d[0].1).unwrap();
        assert_eq!(tuples.len(), 2, "snapshot holds both folded batches");
    }

    /// A two-worker core pair: worker 0 derives from `e` and has real work
    /// to do; worker 1 just stores what it receives.
    pub(crate) fn busy_core() -> (WorkerCore, Interner) {
        let interner = Interner::new();
        let unit = gst_frontend::parser::parse_program_with(
            "t(X,Y) :- e(X,Y).\n\
             t(X,Y) :- e(X,Z), t(Z,Y).",
            &interner,
        )
        .unwrap();
        let e = (interner.intern("e"), 2);
        let mut db = Database::new(interner.clone());
        for k in 0..4i64 {
            db.insert(e, ituple![k, k + 1]).unwrap();
        }
        let spec = WorkerSpec {
            program: ProcessorProgram {
                processor: 1,
                program: unit.program,
                outgoing: vec![],
                inboxes: vec![],
                processing_rules: vec![0, 1],
                pooling: vec![],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db),
            session: None,
        };
        // Two processors so worker 1 is a non-initiator ring member.
        (WorkerCore::new(spec, 2).unwrap(), interner)
    }

    fn token() -> Envelope {
        Envelope {
            from: 0,
            seq: 0,
            epoch: 0,
            ack: 0,
            message: Message::Token(TokenMsg {
                color: Color::White,
                count: 0,
                epoch: 0,
            }),
        }
    }

    /// Safra's rule: an *active* process holds the token and forwards it
    /// only once passive. The core must keep stepping productive rounds
    /// with the token parked, and forward it exactly when the engine goes
    /// quiescent.
    #[test]
    fn token_is_held_while_active_and_forwarded_when_passive() {
        let (mut core, _interner) = busy_core();
        let mut out = Recorder::default();
        core.enqueue(token());
        // The chain of length 4 needs several rounds; the token must not
        // appear in the outbox while rounds still produce fresh tuples.
        let mut worked = 0;
        loop {
            match core.step(&mut out).unwrap() {
                Step::Worked => {
                    worked += 1;
                    assert!(worked < 100, "no quiescence");
                }
                Step::Idle => break,
                Step::Done => panic!("no terminate was sent"),
            }
        }
        assert!(worked > 2, "the chain workload takes multiple rounds");
        let forwarded: Vec<&(usize, Envelope)> = out
            .sent
            .iter()
            .filter(|(_, env)| matches!(env.message, Message::Token(_)))
            .collect();
        assert_eq!(forwarded.len(), 1, "token forwarded exactly once");
        let (dest, env) = forwarded[0];
        assert_eq!(*dest, 0, "ring of two: 1 forwards to 0");
        match env.message {
            // The worker never received a basic message, so it stayed
            // white and only accumulated its (zero) counter.
            Message::Token(t) => {
                assert_eq!(t, TokenMsg { color: Color::White, count: 0, epoch: 0 })
            }
            _ => unreachable!(),
        }
    }

    /// Two tokens can never legitimately coexist in Safra's ring; the
    /// debug assertion must catch a transport that duplicates one.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "two tokens in the ring")]
    fn duplicated_token_trips_the_ring_invariant() {
        let (mut core, _interner) = busy_core();
        let mut out = Recorder::default();
        core.enqueue(token());
        core.enqueue(token());
        // Both tokens are absorbed in one step while the engine is active:
        // the second must trip the debug assertion.
        let _ = core.step(&mut out);
    }

    /// A transport-duplicated batch (same link sequence number) is
    /// absorbed — set semantics make the re-injection a no-op — but not
    /// double-counted by the termination detector or the traffic stats.
    #[test]
    fn duplicate_batch_is_injected_but_not_double_counted() {
        let interner = Interner::new();
        let unit =
            gst_frontend::parser::parse_program_with("out(X) :- inbox(X).", &interner).unwrap();
        let inbox = (interner.intern("inbox"), 1);
        let out_pred = (interner.get("out").unwrap(), 1);
        let spec = WorkerSpec {
            program: ProcessorProgram {
                processor: 1,
                program: unit.program,
                outgoing: vec![],
                inboxes: vec![inbox],
                processing_rules: vec![0],
                pooling: vec![],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(Database::new(interner.clone())),
            session: None,
        };
        let mut core = WorkerCore::new(spec, 2).unwrap();
        let mut out = Recorder::default();

        let payload = crate::codec::encode_batch(inbox.1, &[ituple![7]]).unwrap();
        let env = Envelope {
            from: 0,
            seq: 0,
            epoch: 0,
            ack: 0,
            message: Message::Batch { inbox, payload, retract: false },
        };
        core.enqueue(env.clone());
        core.enqueue(env);
        while core.step(&mut out).unwrap() == Step::Worked {}

        assert_eq!(core.received_tuples, 1, "duplicate not counted");
        assert_eq!(core.duplicate_batches, 1);
        assert_eq!(
            core.engine.relation(out_pred).map(|r| r.len()),
            Some(1),
            "set semantics: the duplicate derives nothing new"
        );
        // Safra saw exactly one logical receive: counter −1, black.
        assert_eq!(core.safra.counter(), -1);
    }

    /// Replay-log memory stays bounded: a shipped batch is retained in
    /// the sender's tail only until *any* envelope from the receiver
    /// carries a piggybacked cumulative ack past it, at which point the
    /// acked prefix is compacted out (set-union into the snapshot) and
    /// the tail drains.
    #[test]
    fn piggybacked_acks_drain_the_replay_tail() {
        let interner = Interner::new();
        let unit =
            gst_frontend::parser::parse_program_with("send(X) :- src(X).", &interner).unwrap();
        let src = (interner.intern("src"), 1);
        let send = (interner.get("send").unwrap(), 1);
        let inbox = (interner.intern("inbox"), 1);
        let mut db = Database::new(interner.clone());
        for k in 0..3i64 {
            db.insert(src, ituple![k]).unwrap();
        }
        let spec = WorkerSpec {
            program: ProcessorProgram {
                processor: 0,
                program: unit.program,
                outgoing: vec![crate::spec::ChannelOut { channel: send, dest: 1, inbox }],
                inboxes: vec![],
                processing_rules: vec![0],
                pooling: vec![],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db),
            session: None,
        };
        let mut core = WorkerCore::new(spec, 2).unwrap();
        let mut out = Recorder::default();
        while core.step(&mut out).unwrap() == Step::Worked {}

        assert!(
            out.sent.iter().any(|(to, env)| *to == 1 && matches!(env.message, Message::Batch { .. })),
            "the rule must actually ship a batch for the test to mean anything"
        );
        assert_eq!(core.replay_tail_len(1), 1, "shipped batch is retained for replay");

        // The receiver absorbed seq 0, so its watermark for our link is 1;
        // any envelope it sends back piggybacks that as the cumulative ack.
        core.enqueue(Envelope {
            from: 1,
            seq: 0,
            epoch: 0,
            ack: 1,
            message: Message::Token(TokenMsg { color: Color::White, count: 0, epoch: 0 }),
        });
        core.step(&mut out).unwrap();
        assert_eq!(core.replay_tail_len(1), 0, "acked prefix is compacted out of the tail");
    }

    /// The link-level recovery contract behind the TCP transport's
    /// reconnect: acks that arrived *before* a crash compact the sender's
    /// replay log, and the compacted prefix is **not** re-replayed after
    /// the epoch bump — a surviving peer whose watermark already covers
    /// it receives nothing, while a fresh incarnation (watermark 0) gets
    /// the full pre-epoch history.
    #[test]
    fn acked_prefix_is_not_replayed_after_epoch_bump() {
        let interner = Interner::new();
        let unit =
            gst_frontend::parser::parse_program_with("send(X) :- src(X).", &interner).unwrap();
        let src = (interner.intern("src"), 1);
        let send = (interner.get("send").unwrap(), 1);
        let inbox = (interner.intern("inbox"), 1);
        let mut db = Database::new(interner.clone());
        for k in 0..3i64 {
            db.insert(src, ituple![k]).unwrap();
        }
        let spec = WorkerSpec {
            program: ProcessorProgram {
                processor: 0,
                program: unit.program,
                outgoing: vec![
                    crate::spec::ChannelOut { channel: send, dest: 1, inbox },
                    crate::spec::ChannelOut { channel: send, dest: 2, inbox },
                ],
                inboxes: vec![],
                processing_rules: vec![0],
                pooling: vec![],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db),
            session: None,
        };
        let mut core = WorkerCore::new(spec, 3).unwrap();
        let mut out = Recorder::default();
        while core.step(&mut out).unwrap() == Step::Worked {}
        assert_eq!(core.replay_tail_len(1), 1, "one batch retained per destination");
        assert_eq!(core.replay_tail_len(2), 1);

        // Peer 1 acks seq 0 before anything crashes: the prefix is folded
        // into the snapshot and the tail drains.
        core.enqueue(Envelope {
            from: 1,
            seq: 0,
            epoch: 0,
            ack: 1,
            message: Message::Token(TokenMsg { color: Color::White, count: 0, epoch: 0 }),
        });
        core.step(&mut out).unwrap();
        assert_eq!(core.replay_tail_len(1), 0, "pre-crash ack compacts the tail");

        // Peer 2 crashes; the supervisor bumps the epoch. The core must
        // answer with an `AckSync` to every peer so replay can begin.
        core.enqueue(Envelope {
            from: 2,
            seq: 0,
            epoch: 1,
            ack: 0,
            message: Message::Recover { epoch: 1, restarted: 2 },
        });
        core.step(&mut out).unwrap();
        let acksyncs = out
            .sent
            .iter()
            .filter(|(_, env)| matches!(env.message, Message::AckSync { .. }))
            .map(|(to, _)| *to)
            .collect::<Vec<_>>();
        assert_eq!(acksyncs, vec![1, 2], "recovery handshake reaches every peer");
        let mark = out.sent.len();

        // The surviving peer's watermark already covers the compacted
        // prefix: its `AckSync` must trigger no retransmission at all.
        core.enqueue(Envelope {
            from: 1,
            seq: 1,
            epoch: 1,
            ack: 1,
            message: Message::AckSync { acked: 1 },
        });
        core.step(&mut out).unwrap();
        assert_eq!(
            out.sent.len(),
            mark,
            "an acked prefix is never re-replayed after the epoch bump"
        );
        assert_eq!(core.replayed_batches, 0);

        // The crashed peer's fresh incarnation starts at watermark 0 and
        // gets exactly the retained pre-epoch batch back.
        core.enqueue(Envelope {
            from: 2,
            seq: 0,
            epoch: 1,
            ack: 0,
            message: Message::AckSync { acked: 0 },
        });
        core.step(&mut out).unwrap();
        let replayed = out.sent[mark..]
            .iter()
            .filter(|(to, env)| *to == 2 && matches!(env.message, Message::Batch { .. }))
            .count();
        assert_eq!(replayed, 1, "the fresh incarnation receives the full history");
        assert_eq!(core.replayed_batches, 1);
    }

    /// A channel feeding several destinations (the broadcast scheme's
    /// shared head predicate) is encoded exactly once per fixpoint: every
    /// destination's envelope shares the same payload `Arc`, and the
    /// journal records one `encode` event for the two `send`s.
    #[test]
    fn broadcast_channel_is_encoded_once_and_shared() {
        let interner = Interner::new();
        let unit =
            gst_frontend::parser::parse_program_with("send(X) :- src(X).", &interner).unwrap();
        let src = (interner.intern("src"), 1);
        let send = (interner.get("send").unwrap(), 1);
        let inbox = (interner.intern("inbox"), 1);
        let mut db = Database::new(interner.clone());
        for k in 0..3i64 {
            db.insert(src, ituple![k]).unwrap();
        }
        let spec = WorkerSpec {
            program: ProcessorProgram {
                processor: 0,
                program: unit.program,
                outgoing: vec![
                    crate::spec::ChannelOut { channel: send, dest: 1, inbox },
                    crate::spec::ChannelOut { channel: send, dest: 2, inbox },
                ],
                inboxes: vec![],
                processing_rules: vec![0],
                pooling: vec![],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db),
            session: None,
        };
        let mut core = WorkerCore::new(spec, 3).unwrap();
        core.set_probe(Probe::virtual_clock(0));
        let mut out = Recorder::default();
        while core.step(&mut out).unwrap() == Step::Worked {}

        let payloads: Vec<Payload> = out
            .sent
            .iter()
            .filter_map(|(_, env)| match &env.message {
                Message::Batch { payload, .. } => Some(payload.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(payloads.len(), 2, "one batch per destination");
        assert!(
            Arc::ptr_eq(&payloads[0], &payloads[1]),
            "both destinations share the single encoding"
        );
        let events = core.take_events();
        let encodes = events
            .iter()
            .filter(|e| matches!(e.kind, ObsKind::BatchEncoded { .. }))
            .count();
        let sends = events
            .iter()
            .filter(|e| matches!(e.kind, ObsKind::BatchSent { .. }))
            .count();
        assert_eq!(encodes, 1, "one encode per (fixpoint, channel relation)");
        assert_eq!(sends, 2, "but one send per destination");
    }

    /// Terminate wins over queued work: once absorbed, the core reports
    /// Done and stops stepping.
    #[test]
    fn terminate_short_circuits_pending_work() {
        let (mut core, _interner) = busy_core();
        let mut out = Recorder::default();
        core.enqueue(Envelope {
            from: 0,
            seq: 0,
            epoch: 0,
            ack: 0,
            message: Message::Terminate,
        });
        assert_eq!(core.step(&mut out).unwrap(), Step::Done);
        assert!(core.terminated());
        assert_eq!(core.step(&mut out).unwrap(), Step::Done, "Done is sticky");
    }
}
