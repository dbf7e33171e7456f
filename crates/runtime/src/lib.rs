//! The parallel runtime: the paper's abstract architecture made concrete.
//!
//! Section 3 of the paper assumes a set `P` of processors where "a
//! processor i in P may communicate with every other processor j" through
//! reliable channels `ij`, with **asynchronous receives** ("processor i
//! does not wait for data from processor j") and termination when "all
//! processors are idle and all channels are empty", detected by "standard
//! algorithms of Distributed Computing" (the paper cites Dijkstra–Scholten
//! and Chandy–Misra).
//!
//! Here each processor is a transport-agnostic state machine
//! (`worker::WorkerCore`) running a [`gst_eval::FixpointEngine`] over its
//! rewritten program, with termination detected by Safra's colored-token
//! ring algorithm (the same diffusing-computation family the paper cites),
//! implemented as a pure, unit-testable state machine in [`termination`].
//! How the machines are driven is the [`transport::Transport`]'s choice:
//!
//! * [`transport::ThreadedTransport`] (the default behind
//!   [`execute_processors`]) — one OS thread per processor, blocking
//!   queues, real parallelism;
//! * [`sim::SimTransport`] — every processor interleaved on one thread
//!   under a virtual clock with a seeded scheduler and [`fault::FaultPlan`]
//!   injection: deterministic, replayable, adversarial. [`explore`] sweeps
//!   seed ranges and shrinks failures to minimal replayable traces.
//!   [`sim::SimTransport::lockstep`] instead runs the paper's globally
//!   phased loop, whose profiled journal [`simulate`] folds into per-phase
//!   records for the machine-model predictions.
//!
//! The runtime is scheme-agnostic: it executes any [`ProcessorProgram`] —
//! the rewriting schemes in `gst-core` produce them — and reports the
//! pooled result plus per-worker and per-channel statistics (tuples sent
//! on every channel `i→j`, firings split by rule class) that the
//! experiments use to verify the paper's communication and non-redundancy
//! claims.

#![warn(missing_docs)]

pub mod codec;
pub mod coordinator;
pub mod explore;
pub mod fault;
pub mod message;
pub mod net;
pub mod obs;
pub mod profile;
pub mod sim;
pub mod spec;
pub mod simulate;
pub mod stats;
pub mod termination;
pub mod transport;
pub(crate) mod wire;
pub mod worker;

pub use coordinator::{execute_processors, FailPoint, RuntimeConfig, SupervisorConfig};
pub use explore::{shrink_failure, sweep_seeds, ExpectedModel, Shrunk, SweepReport};
pub use fault::{CrashSpec, FaultPlan};
pub use net::{
    run_net_worker, ConstraintDecoderFn, InProcessLauncher, KillSpec, Launcher, NetConfig,
    NetCoordinator, NetFault, NetFaultPlan, NetWorkerArgs, ProcessLauncher,
};
pub use obs::{Journal, ObsEvent, ObsKind, TimeBase};
pub use profile::{
    HotRule, IdleGap, PhaseTotals, ProfileReport, RoundCost, WorkerProfile, PHASES,
};
pub use sim::{SimTrace, SimTransport, TraceEvent};
pub use simulate::{simulate_bsp, MachineModel, RoundTrace};
pub use spec::{ChannelOut, ProcessorProgram, SessionSeed, WorkerSpec};
pub use stats::{ExecutionOutcome, ParallelStats, WorkerReport};
pub use transport::{ThreadedTransport, Transport};
