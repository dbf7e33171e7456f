//! Predicting wall-clock on hypothetical architectures.
//!
//! The paper's closing argument (§8) is that the right scheme depends on
//! the machine: "computation cost as opposed to communication cost". One
//! machine cannot *be* a shared-nothing cluster, so we simulate one.
//!
//! A profiled run of [`crate::sim::SimTransport::lockstep`] — the paper's
//! phased loop on the real workers — folds into a deterministic per-phase
//! trace ([`RoundTrace::from_journal`]): firings per processor and
//! tuples/batches per channel. [`simulate_bsp`] replays it under a
//! parameterized [`MachineModel`]. The model is deliberately simple
//! (bulk-synchronous rounds, full-bisection network):
//!
//! ```text
//! round time = max_i (firings_i · firing_us)                 (compute phase)
//!            + max_i (Σ_j batches_ij · message_us
//!                     + Σ_j tuples_ij · tuple_us)            (comm phase)
//! total      = Σ_rounds round time
//! ```
//!
//! Absolute numbers are not the point — *crossovers* are: on which
//! architectures does Example 1 beat Example 3 beat Example 2, and at
//! what processor count does adding workers stop paying.

use crate::obs::{Journal, ObsKind};
use crate::sim::PHASE_TICKS;

/// Per-phase record of one lockstep execution.
#[derive(Debug, Clone, Default)]
pub struct RoundRecord {
    /// Rule firings per processor during this phase.
    pub firings: Vec<u64>,
    /// `sent_tuples[i][j]`: tuples shipped `i → j` this phase.
    pub sent_tuples: Vec<Vec<u64>>,
    /// `sent_batches[i][j]`: messages shipped `i → j` this phase.
    pub sent_batches: Vec<Vec<u64>>,
}

/// The full trace: one record per lockstep phase (the bootstrap falls in
/// phase 0).
#[derive(Debug, Clone, Default)]
pub struct RoundTrace {
    /// Number of processors.
    pub processors: usize,
    /// Phase records in execution order.
    pub rounds: Vec<RoundRecord>,
}

impl RoundTrace {
    /// Fold the journal of a profiled [`crate::sim::SimTransport::lockstep`]
    /// run into one record per phase, up to the phase of the journal's
    /// last event: firings from `Bootstrapped`/`RoundEnd`, tuples and
    /// batches from `BatchSent`.
    pub fn from_journal(journal: &Journal, processors: usize) -> RoundTrace {
        let phases = journal.events.last().map_or(0, |e| e.time / PHASE_TICKS + 1);
        let mut rounds: Vec<RoundRecord> = (0..phases)
            .map(|_| RoundRecord {
                firings: vec![0; processors],
                sent_tuples: vec![vec![0; processors]; processors],
                sent_batches: vec![vec![0; processors]; processors],
            })
            .collect();
        for e in &journal.events {
            let record = &mut rounds[(e.time / PHASE_TICKS) as usize];
            match e.kind {
                ObsKind::Bootstrapped { firings, .. } | ObsKind::RoundEnd { firings, .. } => {
                    record.firings[e.worker] += firings;
                }
                ObsKind::BatchSent { to, tuples, .. } => {
                    record.sent_tuples[e.worker][to] += tuples;
                    record.sent_batches[e.worker][to] += 1;
                }
                _ => {}
            }
        }
        RoundTrace { processors, rounds }
    }

    /// Total firings across all rounds and processors.
    pub fn total_firings(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.firings.iter().sum::<u64>())
            .sum()
    }

    /// Total tuples shipped between distinct processors.
    pub fn total_tuples(&self) -> u64 {
        self.rounds
            .iter()
            .flat_map(|r| r.sent_tuples.iter().enumerate())
            .flat_map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .filter(move |(j, _)| *j != i)
                    .map(|(_, &v)| v)
            })
            .sum()
    }
}

/// Cost parameters of a hypothetical parallel machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Microseconds per rule firing (compute).
    pub firing_us: f64,
    /// Microseconds per tuple on the wire (bandwidth term).
    pub tuple_us: f64,
    /// Microseconds per message (latency/overhead term).
    pub message_us: f64,
}

impl MachineModel {
    /// Shared-memory multiprocessor: passing a tuple is a pointer write.
    pub fn shared_memory() -> Self {
        MachineModel {
            firing_us: 1.0,
            tuple_us: 0.01,
            message_us: 0.1,
        }
    }

    /// A LAN cluster: communication costs real microseconds.
    pub fn lan_cluster() -> Self {
        MachineModel {
            firing_us: 1.0,
            tuple_us: 1.0,
            message_us: 50.0,
        }
    }

    /// A geo-distributed deployment: latency dominates everything.
    pub fn wan() -> Self {
        MachineModel {
            firing_us: 1.0,
            tuple_us: 2.0,
            message_us: 10_000.0,
        }
    }
}

/// Predicted wall time (µs) of replaying `trace` on `model` under the
/// bulk-synchronous schedule documented in the module header.
pub fn simulate_bsp(trace: &RoundTrace, model: &MachineModel) -> f64 {
    let mut total = 0.0f64;
    for round in &trace.rounds {
        let compute = round
            .firings
            .iter()
            .map(|&f| f as f64 * model.firing_us)
            .fold(0.0, f64::max);
        let comm = (0..trace.processors)
            .map(|i| {
                let tuples: u64 = round
                    .sent_tuples
                    .get(i)
                    .map(|row| {
                        row.iter()
                            .enumerate()
                            .filter(|(j, _)| *j != i)
                            .map(|(_, &v)| v)
                            .sum()
                    })
                    .unwrap_or(0);
                let batches: u64 = round
                    .sent_batches
                    .get(i)
                    .map(|row| {
                        row.iter()
                            .enumerate()
                            .filter(|(j, _)| *j != i)
                            .map(|(_, &v)| v)
                            .sum()
                    })
                    .unwrap_or(0);
                tuples as f64 * model.tuple_us + batches as f64 * model.message_us
            })
            .fold(0.0, f64::max);
        total += compute + comm;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_round_trace() -> RoundTrace {
        RoundTrace {
            processors: 2,
            rounds: vec![
                RoundRecord {
                    firings: vec![10, 30],
                    sent_tuples: vec![vec![0, 5], vec![0, 0]],
                    sent_batches: vec![vec![0, 1], vec![0, 0]],
                },
                RoundRecord {
                    firings: vec![20, 20],
                    sent_tuples: vec![vec![0, 0], vec![7, 0]],
                    sent_batches: vec![vec![0, 0], vec![1, 0]],
                },
            ],
        }
    }

    #[test]
    fn aggregates() {
        let t = two_round_trace();
        assert_eq!(t.total_firings(), 80);
        assert_eq!(t.total_tuples(), 12);
    }

    #[test]
    fn bsp_time_is_max_per_phase() {
        let t = two_round_trace();
        let m = MachineModel {
            firing_us: 1.0,
            tuple_us: 1.0,
            message_us: 10.0,
        };
        // round 0: compute max(10,30)=30; comm max(5+10, 0)=15 → 45
        // round 1: compute max(20,20)=20; comm max(0, 7+10)=17 → 37
        assert!((simulate_bsp(&t, &m) - 82.0).abs() < 1e-9);
    }

    #[test]
    fn free_communication_reduces_to_critical_path() {
        let t = two_round_trace();
        let m = MachineModel {
            firing_us: 1.0,
            tuple_us: 0.0,
            message_us: 0.0,
        };
        assert!((simulate_bsp(&t, &m) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn latency_dominated_machines_punish_messages() {
        let t = two_round_trace();
        let cheap = simulate_bsp(&t, &MachineModel::shared_memory());
        let wan = simulate_bsp(&t, &MachineModel::wan());
        assert!(wan > cheap * 10.0);
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let t = RoundTrace {
            processors: 3,
            rounds: vec![],
        };
        assert_eq!(simulate_bsp(&t, &MachineModel::lan_cluster()), 0.0);
    }
}
