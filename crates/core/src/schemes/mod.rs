//! The paper's parallelization schemes as program rewritings.
//!
//! | Module | Paper | Scheme |
//! |---|---|---|
//! | [`nonredundant`] | §3 | `Q_i`: shared `h`, provably non-redundant |
//! | [`nocomm`] | §6 / [Wolfson 88] | `t^i`: zero communication, redundant |
//! | [`generalized`] | §6 | `R_i`: per-processor `h_i`, the trade-off spectrum |
//! | [`general`] | §7 | `T_i`: arbitrary Datalog programs |
//! | [`presets`] | §4 | Examples 1–3 ready-made for transitive closure |
//!
//! Every rewriting produces a [`CompiledScheme`]: one
//! [`gst_runtime::WorkerSpec`] per processor plus the identity of the
//! global answer predicates. Executing it runs the real runtime — threads
//! by default, or any [`gst_runtime::Transport`], such as the simulator's
//! phased [`gst_runtime::SimTransport::lockstep`] schedule — and returns
//! pooled relations plus communication statistics.

pub mod common;
pub mod demand;
pub mod general;
pub mod generalized;
pub mod nocomm;
pub mod nonredundant;
pub mod presets;

use gst_common::Result;
use gst_eval::plan::RelationId;
use gst_runtime::{
    execute_processors, ExecutionOutcome, FaultPlan, RuntimeConfig, SimTransport, Transport,
    WorkerSpec,
};

pub use common::BaseDistribution;

/// A fully compiled parallel execution plan.
#[derive(Debug, Clone)]
pub struct CompiledScheme {
    /// One spec per processor, position-indexed.
    pub workers: Vec<WorkerSpec>,
    /// The global (source-program) predicates the answer pools into.
    pub answers: Vec<RelationId>,
    /// Which rewriting produced this (for reports).
    pub kind: &'static str,
    /// Keys the compile-time skew sampler split across processors — zero
    /// for every scheme except the skew-aware preset. Surfaced in
    /// `--stats` as `hot_keys_split`.
    pub hot_keys_split: usize,
}

impl CompiledScheme {
    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.workers.len()
    }

    /// Run the scheme on the runtime.
    pub fn execute(&self, config: &RuntimeConfig) -> Result<ExecutionOutcome> {
        execute_processors(self.workers.clone(), config)
    }

    /// Run with default runtime settings.
    pub fn run(&self) -> Result<ExecutionOutcome> {
        self.execute(&RuntimeConfig::default())
    }

    /// Run under the deterministic simulation transport: all processors
    /// interleaved on one thread under a virtual clock, with the schedule
    /// and every injected fault drawn from `seed` (see
    /// [`gst_runtime::SimTransport`]). Same seed, same plan ⇒ bit-for-bit
    /// the same run.
    pub fn run_simulated(&self, seed: u64, faults: FaultPlan) -> Result<ExecutionOutcome> {
        self.run_simulated_with(seed, faults, &RuntimeConfig::default())
    }

    /// [`run_simulated`](Self::run_simulated) with explicit runtime
    /// settings — in particular the supervisor's restart budget, which
    /// governs whether a `recover`-marked crash in the fault plan is
    /// survivable.
    pub fn run_simulated_with(
        &self,
        seed: u64,
        faults: FaultPlan,
        config: &RuntimeConfig,
    ) -> Result<ExecutionOutcome> {
        SimTransport::with_faults(seed, faults).execute(self.workers.clone(), config)
    }
}
