//! Fault plans: what the simulated network is allowed to do to traffic.
//!
//! The paper assumes reliable FIFO-less channels ("a processor i ... may
//! communicate with every other processor j"); real clusters approximate
//! that with retransmitting transports whose *observable* misbehaviors are
//! delay, reordering, duplication and (transient) loss. A [`FaultPlan`]
//! describes a distribution over exactly those misbehaviors for
//! [`crate::sim::SimTransport`] to draw from — below the reliable-channel
//! abstraction the algorithm reasons about, so the least model and the
//! termination decision must come out identical under any plan.
//!
//! Two invariants keep the plans *faults*, not *bugs*:
//!
//! * duplication and loss apply to **data batches only**. Safra's argument
//!   needs the ring token neither duplicated (two tokens would race) nor
//!   lost (the probe would stall forever) — a real transport achieves this
//!   with acknowledgements; the simulator simply exempts control traffic.
//! * loss is modeled as **delayed redelivery** (`drop_redeliver_after`
//!   added to the latency draw), matching a retransmitting transport.
//!   Silent unbounded loss would falsify the paper's channel model and
//!   trivially hang any algorithm built on it.
//!
//! Worker-side faults: `stall_prob` freezes a worker between steps
//! (GC pause, noisy neighbor); [`CrashSpec`] kills one worker outright at
//! a virtual time — the run must then surface the idle-watchdog error at
//! some healthy peer rather than hang.

use gst_common::{Error, Result};

/// Largest tick value a plan may name. The simulator schedules each event
/// at most a few such values past the current time and stops after 2·10^7
/// events, so virtual time stays far below `u64::MAX`.
const MAX_TICKS: u64 = 1 << 32;

/// When (and whom) to crash. Without `recover` this is the only fault
/// that is *supposed* to make the run fail; with `recover` the simulated
/// supervisor restarts the worker and the run must still compute the
/// exact least model (see `DESIGN.md` §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Processor index to kill.
    pub worker: usize,
    /// Virtual time (ticks) at which it dies.
    pub at_time: u64,
    /// Restart the worker (crash-with-recovery) instead of leaving it
    /// dead. Recovery still requires a restart budget
    /// (`SupervisorConfig::max_restarts > 0`).
    pub recover: bool,
}

/// A distribution over transport and scheduling misbehaviors.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Minimum delivery latency in virtual ticks.
    pub min_delay: u64,
    /// Maximum delivery latency. A spread (`max > min`) makes deliveries
    /// race, i.e. **reorders** messages between and within links.
    pub max_delay: u64,
    /// Probability a batch is delivered twice (second copy at an
    /// independent latency draw).
    pub dup_prob: f64,
    /// Probability a batch's first transmission is lost. The retransmit
    /// arrives `drop_redeliver_after` ticks after the original draw.
    pub drop_prob: f64,
    /// Extra latency a dropped batch pays before its redelivery.
    pub drop_redeliver_after: u64,
    /// Probability a worker stalls after a step.
    pub stall_prob: f64,
    /// How long a stall lasts, in ticks.
    pub stall_ticks: u64,
    /// Optional hard crash of one worker.
    pub crash: Option<CrashSpec>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A perfect network: unit latency, no reordering, no duplication, no
    /// loss, no stalls.
    pub fn none() -> Self {
        FaultPlan {
            min_delay: 1,
            max_delay: 1,
            dup_prob: 0.0,
            drop_prob: 0.0,
            drop_redeliver_after: 0,
            stall_prob: 0.0,
            stall_ticks: 0,
            crash: None,
        }
    }

    /// Latency jitter only: deliveries race and reorder, nothing is
    /// duplicated or lost.
    pub fn jitter() -> Self {
        FaultPlan {
            min_delay: 1,
            max_delay: 40,
            ..FaultPlan::none()
        }
    }

    /// The kitchen sink (minus crashes): heavy jitter, duplication, drops
    /// with redelivery, and worker stalls.
    pub fn chaos() -> Self {
        FaultPlan {
            min_delay: 1,
            max_delay: 60,
            dup_prob: 0.25,
            drop_prob: 0.15,
            drop_redeliver_after: 80,
            stall_prob: 0.10,
            stall_ticks: 50,
            crash: None,
        }
    }

    /// `chaos` plus a fatal (non-recovering) crash of `worker` at tick
    /// `at_time`.
    pub fn with_crash(worker: usize, at_time: u64) -> Self {
        FaultPlan {
            crash: Some(CrashSpec { worker, at_time, recover: false }),
            ..FaultPlan::chaos()
        }
    }

    /// `chaos` plus a crash of `worker` at tick `at_time` that the
    /// simulated supervisor recovers from (restart + replay + ring
    /// repair).
    pub fn with_recovering_crash(worker: usize, at_time: u64) -> Self {
        FaultPlan {
            crash: Some(CrashSpec { worker, at_time, recover: true }),
            ..FaultPlan::chaos()
        }
    }

    /// True when the plan can never produce anything but fixed-latency
    /// delivery (the degenerate, deterministic-network case).
    pub fn is_benign(&self) -> bool {
        self.max_delay == self.min_delay
            && self.dup_prob == 0.0
            && self.drop_prob == 0.0
            && self.stall_prob == 0.0
            && self.crash.is_none()
    }

    /// Parse a CLI fault description.
    ///
    /// Accepts a preset name (`none`, `jitter`, `chaos`) or a preset
    /// refined by comma-separated `key=value` overrides, e.g.
    /// `chaos,dup=0.5,crash=1@200`. Keys: `min`, `max` (ticks), `dup`,
    /// `drop`, `stall` (probabilities), `redeliver`, `stall-ticks`
    /// (ticks), `crash=<worker>@<tick>`. The bare flag `recover` (no
    /// value) turns a configured crash into a recoverable one, e.g.
    /// `chaos,crash=1@200,recover`.
    pub fn parse(text: &str) -> Result<Self> {
        let bad = |what: &str| Error::Runtime(format!("bad fault plan: {what}"));
        let mut parts = text.split(',');
        let preset = parts.next().expect("split yields at least one part").trim();
        let mut plan = match preset {
            "none" | "" => FaultPlan::none(),
            "jitter" => FaultPlan::jitter(),
            "chaos" => FaultPlan::chaos(),
            other => return Err(bad(&format!(
                "unknown preset {other:?} (expected none, jitter or chaos)"
            ))),
        };
        let mut recover = false;
        for part in parts {
            if part.trim() == "recover" {
                recover = true;
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| bad(&format!("expected key=value, got {part:?}")))?;
            let key = key.trim();
            let value = value.trim();
            let ticks = || value.parse::<u64>().map_err(|_| bad(&format!("{key}={value}")));
            let prob = || value.parse::<f64>().map_err(|_| bad(&format!("{key}={value}")));
            match key {
                "min" => plan.min_delay = ticks()?,
                "max" => plan.max_delay = ticks()?,
                "redeliver" => plan.drop_redeliver_after = ticks()?,
                "stall-ticks" => plan.stall_ticks = ticks()?,
                "dup" => plan.dup_prob = prob()?,
                "drop" => plan.drop_prob = prob()?,
                "stall" => plan.stall_prob = prob()?,
                "crash" => {
                    let (worker, at) = value
                        .split_once('@')
                        .ok_or_else(|| bad("crash wants <worker>@<tick>"))?;
                    plan.crash = Some(CrashSpec {
                        worker: worker.parse().map_err(|_| bad("crash worker index"))?,
                        at_time: at.parse().map_err(|_| bad("crash tick"))?,
                        recover: false,
                    });
                }
                other => return Err(bad(&format!("unknown key {other:?}"))),
            }
        }
        if recover {
            match plan.crash.as_mut() {
                Some(crash) => crash.recover = true,
                None => return Err(bad("recover without a crash=<worker>@<tick>")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Check the plan is one the simulator can run: delays ordered and
    /// nonzero, probabilities in `[0, 1]`, and every tick value (`min`,
    /// `max`, `redeliver`, `stall-ticks`, the crash tick) within a bound
    /// that keeps virtual-time arithmetic from overflowing. The error
    /// names the offending key.
    pub fn validate(&self) -> Result<()> {
        let bad = |what: String| Error::Runtime(format!("bad fault plan: {what}"));
        let ticks = [
            ("min", self.min_delay),
            ("max", self.max_delay),
            ("redeliver", self.drop_redeliver_after),
            ("stall-ticks", self.stall_ticks),
            ("crash", self.crash.map_or(0, |c| c.at_time)),
        ];
        if let Some((key, value)) = ticks.into_iter().find(|(_, v)| *v > MAX_TICKS) {
            return Err(bad(format!("{key}={value} exceeds the {MAX_TICKS}-tick bound")));
        }
        let probs = [("dup", self.dup_prob), ("drop", self.drop_prob), ("stall", self.stall_prob)];
        if let Some((key, p)) = probs.into_iter().find(|(_, p)| !(0.0..=1.0).contains(p)) {
            return Err(bad(format!("{key}={p} (want probability in [0,1])")));
        }
        if self.max_delay < self.min_delay {
            return Err(bad("max delay below min delay".into()));
        }
        if self.min_delay == 0 {
            return Err(bad("zero latency would deliver into the sending step".into()));
        }
        Ok(())
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delay {}..={}, dup {}, drop {} (redeliver +{}), stall {} ({} ticks)",
            self.min_delay,
            self.max_delay,
            self.dup_prob,
            self.drop_prob,
            self.drop_redeliver_after,
            self.stall_prob,
            self.stall_ticks,
        )?;
        if let Some(c) = self.crash {
            write!(f, ", crash {}@{}", c.worker, c.at_time)?;
            if c.recover {
                write!(f, " (recover)")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse() {
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("jitter").unwrap(), FaultPlan::jitter());
        assert_eq!(FaultPlan::parse("chaos").unwrap(), FaultPlan::chaos());
        assert!(FaultPlan::none().is_benign());
        assert!(!FaultPlan::jitter().is_benign());
    }

    #[test]
    fn overrides_refine_presets() {
        let plan = FaultPlan::parse("jitter,dup=0.5,max=10,crash=2@300").unwrap();
        assert_eq!(plan.dup_prob, 0.5);
        assert_eq!(plan.max_delay, 10);
        assert_eq!(plan.min_delay, FaultPlan::jitter().min_delay);
        assert_eq!(
            plan.crash,
            Some(CrashSpec { worker: 2, at_time: 300, recover: false })
        );
    }

    #[test]
    fn recover_flag_marks_the_crash() {
        let plan = FaultPlan::parse("chaos,crash=1@200,recover").unwrap();
        assert_eq!(
            plan.crash,
            Some(CrashSpec { worker: 1, at_time: 200, recover: true })
        );
        assert!(plan.to_string().contains("crash 1@200 (recover)"));
        assert!(
            FaultPlan::parse("chaos,recover").is_err(),
            "recover without a crash is meaningless"
        );
    }

    #[test]
    fn bad_plans_are_rejected() {
        for text in [
            "warp",              // unknown preset
            "none,zap=1",        // unknown key
            "none,dup",          // missing value
            "none,dup=1.5",      // probability out of range
            "none,min=5,max=2",  // inverted delays
            "none,min=0",        // zero latency
            "none,crash=3",      // malformed crash
        ] {
            assert!(FaultPlan::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn tick_values_are_bounded_by_key() {
        let huge = u64::MAX;
        for key in ["min", "max", "redeliver", "stall-ticks"] {
            let err = FaultPlan::parse(&format!("none,max=5,{key}={huge}")).unwrap_err();
            assert!(err.to_string().contains(&format!("{key}={huge}")), "{err}");
        }
        let err = FaultPlan::parse(&format!("none,crash=1@{huge}")).unwrap_err();
        assert!(err.to_string().contains("crash="), "{err}");
        // The library path runs the same checks.
        let plan = FaultPlan { stall_ticks: huge, ..FaultPlan::chaos() };
        assert!(plan.validate().unwrap_err().to_string().contains("stall-ticks"));
        let plan = FaultPlan { dup_prob: f64::NAN, ..FaultPlan::none() };
        assert!(plan.validate().unwrap_err().to_string().contains("dup="));
        assert!(FaultPlan::chaos().validate().is_ok());
        assert!(FaultPlan::parse(&format!("none,max={MAX_TICKS}")).is_ok());
    }

    #[test]
    fn display_mentions_crash() {
        let plan = FaultPlan::with_crash(1, 50);
        let text = plan.to_string();
        assert!(text.contains("crash 1@50"));
    }
}
