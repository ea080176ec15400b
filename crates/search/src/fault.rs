//! Deterministic fault injection for chaos-testing the co-search stack.
//!
//! A [`FaultPlan`] decides — as a pure function of *(batch, session,
//! attempt)* — whether a mapping-search advance is sabotaged and how:
//!
//! * [`FaultKind::EvalError`] — the platform evaluation fails; the
//!   session makes no progress this attempt and is retried with backoff.
//! * [`FaultKind::WorkerPanic`] — the job panics *inside* an engine
//!   worker, exercising the [`MappingEngine`](crate::MappingEngine)
//!   containment path; the session is poisoned and scored infeasible.
//! * [`FaultKind::Stall`] — the job sleeps for
//!   [`RetryPolicy::stall_ms`]; if that exceeds
//!   [`RetryPolicy::deadline_ms`] the attempt is abandoned and retried,
//!   otherwise the stall is benign and the advance completes.
//!
//! Plans are either explicit (a list of planted faults, for matrix
//! tests) or seeded (a per-site Bernoulli draw from a hash of the site,
//! for randomized chaos runs). Both are deterministic: two runs with the
//! same plan inject the same faults at the same sites, which keeps
//! fault-injected runs replayable and their reports byte-comparable.
//!
//! Retry semantics live in [`crate::advance_with_engine`]:
//! a failed attempt (error or over-deadline stall) is retried up to
//! [`RetryPolicy::max_retries`] times with exponential backoff; a
//! session that still fails is *quarantined* — poisoned so it assesses
//! infeasible — and the round, batch and run all keep going.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What an injected fault does to the sabotaged advance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The platform evaluation returns an error: no progress, retried.
    EvalError,
    /// The job panics inside an engine worker: contained, poisoned.
    WorkerPanic,
    /// The job sleeps; past the deadline the attempt is abandoned.
    Stall,
}

/// One planted fault of an explicit plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Planted {
    /// Engine batch (SH-round advance) the fault fires in.
    batch: u64,
    /// Stable session index within the round's session slice.
    session: usize,
    kind: FaultKind,
    /// How many consecutive attempts the fault affects (`1` = first
    /// attempt fails, the retry succeeds; `> max_retries` = quarantine).
    fires: u32,
}

/// A deterministic fault schedule. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    planted: Vec<Planted>,
    seeded: Option<Seeded>,
}

#[derive(Debug, Clone, Copy)]
struct Seeded {
    seed: u64,
    rate: f64,
    max_fires: u32,
}

impl FaultPlan {
    /// An empty plan (injects nothing until faults are planted).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A seeded probabilistic plan: each *(batch, session)* site faults
    /// independently with probability `rate`, with kind and persistence
    /// (1–2 attempts) drawn from a hash of the site. Deterministic in
    /// `seed`.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        FaultPlan {
            planted: Vec::new(),
            seeded: Some(Seeded {
                seed,
                rate: rate.clamp(0.0, 1.0),
                max_fires: 2,
            }),
        }
    }

    /// Plants a fault at `(batch, session)` affecting the first attempt
    /// only (the retry succeeds).
    pub fn with_fault(self, batch: u64, session: usize, kind: FaultKind) -> Self {
        self.with_repeating_fault(batch, session, kind, 1)
    }

    /// Plants a fault affecting the first `fires` attempts; choosing
    /// `fires > max_retries` forces a quarantine.
    ///
    /// # Panics
    ///
    /// Panics if `fires == 0`.
    pub fn with_repeating_fault(
        mut self,
        batch: u64,
        session: usize,
        kind: FaultKind,
        fires: u32,
    ) -> Self {
        assert!(fires > 0, "a planted fault must fire at least once");
        self.planted.push(Planted {
            batch,
            session,
            kind,
            fires,
        });
        self
    }

    /// `true` when the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.planted.is_empty() && self.seeded.is_none()
    }

    /// The fault (if any) for attempt `attempt` of `(batch, session)`.
    /// Pure: the same site and attempt always answer the same.
    pub fn fault_at(&self, batch: u64, session: usize, attempt: u32) -> Option<FaultKind> {
        if let Some(p) = self
            .planted
            .iter()
            .find(|p| p.batch == batch && p.session == session)
        {
            return (attempt < p.fires).then_some(p.kind);
        }
        let s = self.seeded?;
        let mix = s
            .seed
            .wrapping_add(batch.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((session as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut rng = StdRng::seed_from_u64(mix);
        if !rng.gen_bool(s.rate) {
            return None;
        }
        let kind = match rng.gen_range(0u32..3) {
            0 => FaultKind::EvalError,
            1 => FaultKind::WorkerPanic,
            _ => FaultKind::Stall,
        };
        let fires = rng.gen_range(1..=s.max_fires.max(1));
        (attempt < fires).then_some(kind)
    }
}

/// Bounded-retry and deadline policy for fault-afflicted advances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt before quarantining.
    pub max_retries: u32,
    /// Base backoff between attempts, milliseconds (doubles per retry).
    pub backoff_ms: u64,
    /// Deadline an advance must beat, milliseconds.
    pub deadline_ms: u64,
    /// How long an injected stall sleeps, milliseconds. A stall at or
    /// under the deadline is benign; past it the attempt fails.
    pub stall_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_ms: 1,
            deadline_ms: 2,
            stall_ms: 5,
        }
    }
}

impl RetryPolicy {
    /// Whether an injected stall misses the deadline (decided from the
    /// configured durations, not wall clock, so runs stay deterministic
    /// on loaded machines).
    pub fn stall_misses_deadline(&self) -> bool {
        self.stall_ms > self.deadline_ms
    }
}

/// A live fault-injection context threaded through the engine advances:
/// the plan, the retry policy, and the global batch sequence the plan's
/// `batch` coordinates refer to.
#[derive(Debug, Default)]
pub struct FaultContext {
    plan: FaultPlan,
    policy: RetryPolicy,
    batch_seq: AtomicU64,
}

impl FaultContext {
    /// Creates a context over a plan with the given retry policy.
    pub fn new(plan: FaultPlan, policy: RetryPolicy) -> Self {
        FaultContext {
            plan,
            policy,
            batch_seq: AtomicU64::new(0),
        }
    }

    /// The plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The retry policy.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Claims the next engine-batch index (called once per advance).
    pub fn next_batch(&self) -> u64 {
        self.batch_seq.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_faults_fire_per_attempt() {
        let plan = FaultPlan::new()
            .with_fault(3, 1, FaultKind::EvalError)
            .with_repeating_fault(5, 0, FaultKind::Stall, 4);
        assert_eq!(plan.fault_at(3, 1, 0), Some(FaultKind::EvalError));
        assert_eq!(
            plan.fault_at(3, 1, 1),
            None,
            "single-fire fault retries clean"
        );
        assert_eq!(plan.fault_at(3, 0, 0), None);
        assert_eq!(plan.fault_at(5, 0, 3), Some(FaultKind::Stall));
        assert_eq!(plan.fault_at(5, 0, 4), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn seeded_plan_is_deterministic_and_rate_bounded() {
        let a = FaultPlan::seeded(9, 0.3);
        let b = FaultPlan::seeded(9, 0.3);
        let mut fired = 0usize;
        for batch in 0..40u64 {
            for session in 0..10usize {
                let fa = a.fault_at(batch, session, 0);
                assert_eq!(fa, b.fault_at(batch, session, 0), "same seed, same plan");
                fired += usize::from(fa.is_some());
            }
        }
        let rate = fired as f64 / 400.0;
        assert!((0.15..0.45).contains(&rate), "empirical rate {rate}");
        // Rate 0 and 1 clamp to never / always.
        assert!(FaultPlan::seeded(1, 0.0).fault_at(0, 0, 0).is_none());
        assert!(FaultPlan::seeded(1, 1.0).fault_at(0, 0, 0).is_some());
    }

    #[test]
    fn context_batch_sequence_and_policy() {
        let ctx = FaultContext::new(FaultPlan::new(), RetryPolicy::default());
        assert_eq!(ctx.next_batch(), 0);
        assert_eq!(ctx.next_batch(), 1);
        assert!(ctx.policy().stall_misses_deadline());
        let benign = RetryPolicy {
            stall_ms: 1,
            deadline_ms: 2,
            ..RetryPolicy::default()
        };
        assert!(!benign.stall_misses_deadline());
    }

    #[test]
    #[should_panic(expected = "at least once")]
    fn zero_fire_fault_rejected() {
        let _ = FaultPlan::new().with_repeating_fault(0, 0, FaultKind::EvalError, 0);
    }
}
