//! The persistent mapping-search execution engine.
//!
//! The paper's §3.5 master/slave execution model keeps a fixed set of
//! slave machines alive for the whole co-search and streams software
//! mapping jobs at them. [`MappingEngine`] is that pool: it spawns its
//! workers **once** (per `Unico::run` / co-search run), feeds them
//! through a job queue, and keeps them parked between batches, so no
//! thread churn sits on the successive-halving critical path.
//!
//! Properties:
//!
//! * **Spawn once.** [`EngineMetrics::threads_spawned`] stays at the
//!   pool width for the engine's whole lifetime, across any number of
//!   [`MappingEngine::execute`] batches.
//! * **Panic containment.** A panicking job is caught inside the
//!   worker; the batch completes, the panic is counted, and the caller
//!   can mark the offending session infeasible instead of aborting the
//!   whole run (see [`advance_with_engine`]).
//! * **One path.** [`advance_with_engine`] is how every co-optimizer
//!   (UNICO, MOBOHB, Hyperband, HASCO, NSGA-II) and design validation
//!   run mapping jobs; no other code in this crate creates threads.
//! * **Graceful shutdown.** Dropping the engine wakes all workers and
//!   joins them.
//!
//! # Safety
//!
//! [`MappingEngine::execute`] accepts jobs that borrow caller state
//! (hardware sessions live only as long as their environment). The
//! borrow is erased to `'static` so the boxed closures can cross into
//! the long-lived workers; this is sound because `execute` blocks until
//! every submitted job has finished running (or panicked and been
//! caught) — the canonical scoped-threadpool argument. The `unsafe` is
//! confined to one documented function below.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use unico_model::Platform;

use crate::env::HwSession;
use crate::fault::{FaultContext, FaultKind};
use crate::telemetry::{Counter, Telemetry};

/// A job with its borrow lifetime still attached.
pub type ScopedJob<'s> = Box<dyn FnOnce() + Send + 's>;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Completion latch shared by all jobs of one `execute` batch.
struct Batch {
    remaining: Mutex<usize>,
    done: Condvar,
    panics: AtomicU64,
}

/// State shared between the master handle and the workers.
struct Shared {
    queue: Mutex<VecDeque<(Job, Arc<Batch>)>>,
    ready: Condvar,
    shutdown: AtomicBool,
    jobs_executed: AtomicU64,
    panics_contained: AtomicU64,
    batches: AtomicU64,
}

/// Counter snapshot of a [`MappingEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Worker threads spawned over the engine's lifetime. Equals the
    /// pool width forever — the engine never respawns.
    pub threads_spawned: u64,
    /// Jobs executed (including ones that panicked).
    pub jobs_executed: u64,
    /// Panics caught inside workers.
    pub panics_contained: u64,
    /// `execute` batches processed.
    pub batches: u64,
}

/// A long-lived worker pool for software-mapping jobs.
pub struct MappingEngine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for MappingEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingEngine")
            .field("workers", &self.handles.len())
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl MappingEngine {
    /// Spawns `workers` threads that live until the engine is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "engine needs at least one worker");
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            jobs_executed: AtomicU64::new(0),
            panics_contained: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("unico-mapping-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn mapping worker")
            })
            .collect();
        MappingEngine { shared, handles }
    }

    /// Pool width.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            threads_spawned: self.handles.len() as u64,
            jobs_executed: self.shared.jobs_executed.load(Ordering::Relaxed),
            panics_contained: self.shared.panics_contained.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
        }
    }

    /// Runs a batch of jobs on the pool and blocks until every job has
    /// finished. Jobs may borrow caller state: the borrow outlives all
    /// uses because this method does not return before the last job
    /// completes. Returns the number of jobs that panicked (each panic
    /// is contained inside its worker).
    pub fn execute(&self, jobs: Vec<ScopedJob<'_>>) -> u64 {
        if jobs.is_empty() {
            return 0;
        }
        self.shared.batches.fetch_add(1, Ordering::Relaxed);
        let batch = Arc::new(Batch {
            remaining: Mutex::new(jobs.len()),
            done: Condvar::new(),
            panics: AtomicU64::new(0),
        });
        {
            let mut queue = self.shared.queue.lock().expect("engine queue lock");
            for job in jobs {
                queue.push_back((erase_job_lifetime(job), Arc::clone(&batch)));
            }
        }
        self.shared.ready.notify_all();
        let mut remaining = batch.remaining.lock().expect("batch latch lock");
        while *remaining > 0 {
            remaining = batch.done.wait(remaining).expect("batch latch wait");
        }
        batch.panics.load(Ordering::Relaxed)
    }
}

impl Drop for MappingEngine {
    fn drop(&mut self) {
        // Raise the flag under the queue lock: a worker reads it with the
        // lock held just before it waits, so without the lock the notify
        // below can land between that read and the wait and be lost,
        // leaving the join below blocked forever.
        {
            let _queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            // Workers contain job panics themselves; a join error would
            // mean a bug in the worker loop. Shutdown still proceeds.
            let _ = handle.join();
        }
    }
}

/// Advances the selected sessions to `budget` on `engine`, one queued
/// job per session, and returns the number of worker panics the engine
/// contained.
///
/// A job that panics poisons its session (see [`HwSession::poison`]) and
/// re-raises, so the engine contains and counts the panic exactly once
/// and the batch and the enclosing run keep going; the poisoned session
/// assesses infeasible.
///
/// With `faults`, each call is one fault batch: every *(batch, session,
/// attempt)* site consults the context's
/// [`FaultPlan`](crate::fault::FaultPlan), and a bounded
/// retry-with-backoff applies per injected [`FaultKind`]:
///
/// * `WorkerPanic` — the job poisons its session and panics inside the
///   worker, like a real panic. No retry: a panic is not transient.
/// * `EvalError` — the advance makes no progress this attempt and the
///   session is retried after backoff, up to
///   [`RetryPolicy::max_retries`](crate::fault::RetryPolicy) times; a
///   session still failing is quarantined (poisoned) and the round goes
///   on without it.
/// * `Stall` — the job sleeps `stall_ms`; when that exceeds
///   `deadline_ms` the attempt counts as failed (retry/quarantine like
///   an error), otherwise the advance completes normally after the nap.
///   Deadline misses are decided from the configured durations, never
///   from wall clock, so fault schedules replay deterministically.
///
/// Fault counters recorded into `telemetry`: `faults_injected`,
/// `fault_errors` / `fault_panics` / `fault_stalls`, `fault_retries`
/// (one per retried session per attempt) and `fault_quarantines`.
/// Without `faults` there is a single attempt and no batch is consumed.
///
/// # Panics
///
/// Panics if the mask length mismatches.
pub fn advance_with_engine<P: Platform>(
    engine: &MappingEngine,
    sessions: &mut [HwSession<'_, P>],
    select: &[bool],
    budget: u64,
    faults: Option<&FaultContext>,
    telemetry: &Telemetry,
) -> u64
where
    P::Hw: Send,
{
    assert_eq!(sessions.len(), select.len(), "selection mask length");
    // One fault batch per call, and only when faults are injected.
    let site = faults.map(|ctx| (ctx.plan(), ctx.next_batch()));
    let batch = site.map_or(0, |(_, b)| b);
    let policy = faults.map(FaultContext::policy).unwrap_or_default();
    let stall_fails = policy.stall_misses_deadline();
    // Selected sessions keep their stable index in `sessions` across
    // retry attempts — fault sites are addressed by that index.
    let mut pending: Vec<(usize, &mut HwSession<'_, P>)> = sessions
        .iter_mut()
        .zip(select)
        .enumerate()
        .filter(|(_, (_, &on))| on)
        .map(|(i, (s, _))| (i, s))
        .collect();
    let mut contained = 0u64;
    let mut attempt = 0u32;
    loop {
        let decisions: Vec<Option<FaultKind>> = pending
            .iter()
            .map(|(i, _)| site.and_then(|(plan, b)| plan.fault_at(b, *i, attempt)))
            .collect();
        for d in decisions.iter().flatten() {
            telemetry.add(Counter::FaultsInjected, 1);
            telemetry.add(
                match d {
                    FaultKind::EvalError => Counter::FaultErrors,
                    FaultKind::WorkerPanic => Counter::FaultPanics,
                    FaultKind::Stall => Counter::FaultStalls,
                },
                1,
            );
        }
        let jobs: Vec<ScopedJob<'_>> = pending
            .iter_mut()
            .zip(&decisions)
            .map(|(slot, &d)| {
                let idx = slot.0;
                let session: &mut HwSession<'_, P> = &mut *slot.1;
                Box::new(move || {
                    match d {
                        Some(FaultKind::WorkerPanic) => {
                            session.poison();
                            panic!(
                                "unico-fault: injected worker panic (batch {batch}, session {idx})"
                            );
                        }
                        // The platform evaluation errored: no progress.
                        Some(FaultKind::EvalError) => return,
                        Some(FaultKind::Stall) => {
                            std::thread::sleep(Duration::from_millis(policy.stall_ms));
                            if stall_fails {
                                return;
                            }
                        }
                        None => {}
                    }
                    if let Err(payload) =
                        catch_unwind(AssertUnwindSafe(|| session.advance_to(budget)))
                    {
                        session.poison();
                        resume_unwind(payload);
                    }
                }) as ScopedJob<'_>
            })
            .collect();
        contained += engine.execute(jobs);

        let failed: Vec<bool> = decisions
            .iter()
            .map(|d| {
                matches!(d, Some(FaultKind::EvalError))
                    || (matches!(d, Some(FaultKind::Stall)) && stall_fails)
            })
            .collect();
        if !failed.iter().any(|&f| f) {
            break;
        }
        if attempt >= policy.max_retries {
            for ((_, session), &f) in pending.iter_mut().zip(&failed) {
                if f {
                    session.poison();
                    telemetry.add(Counter::FaultQuarantines, 1);
                }
            }
            break;
        }
        pending = pending
            .into_iter()
            .zip(&failed)
            .filter_map(|(slot, &f)| f.then_some(slot))
            .collect();
        attempt += 1;
        telemetry.add(Counter::FaultRetries, pending.len() as u64);
        if policy.backoff_ms > 0 {
            // Exponential backoff, capped so chaos tests stay fast.
            let wait = policy.backoff_ms << (attempt - 1).min(6);
            std::thread::sleep(Duration::from_millis(wait));
        }
    }
    contained
}

/// Erases a job's borrow lifetime so it can enter the long-lived queue.
///
/// # Safety
///
/// Sound only because [`MappingEngine::execute`] blocks until the job
/// has run to completion (or panicked and been caught) before
/// returning, so the erased borrows strictly outlive every use. The
/// two trait-object types differ only in lifetime and share one layout.
#[allow(unsafe_code)]
fn erase_job_lifetime(job: ScopedJob<'_>) -> Job {
    unsafe { std::mem::transmute::<ScopedJob<'_>, Job>(job) }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock().expect("engine queue lock");
            loop {
                if let Some(task) = queue.pop_front() {
                    break Some(task);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.ready.wait(queue).expect("engine queue wait");
            }
        };
        let Some((job, batch)) = task else {
            return;
        };
        let outcome = catch_unwind(AssertUnwindSafe(job));
        shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
        if outcome.is_err() {
            shared.panics_contained.fetch_add(1, Ordering::Relaxed);
            batch.panics.fetch_add(1, Ordering::Relaxed);
        }
        let mut remaining = batch.remaining.lock().expect("batch latch lock");
        *remaining -= 1;
        if *remaining == 0 {
            batch.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{CoSearchEnv, EnvConfig};
    use rand::SeedableRng;
    use std::sync::atomic::AtomicUsize;
    use unico_model::SpatialPlatform;
    use unico_workloads::zoo;

    fn sessions<'e>(
        env: &'e CoSearchEnv<'e, SpatialPlatform>,
        n: usize,
    ) -> Vec<HwSession<'e, SpatialPlatform>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        (0..n)
            .map(|i| env.session(env.platform().sample_hw(&mut rng), i as u64))
            .collect()
    }

    fn env(p: &SpatialPlatform) -> CoSearchEnv<'_, SpatialPlatform> {
        CoSearchEnv::new(
            p,
            &[zoo::mobilenet_v1()],
            EnvConfig {
                max_layers_per_network: 2,
                power_cap_mw: None,
                area_cap_mm2: None,
            },
        )
    }

    fn assessment_bits(s: &HwSession<'_, SpatialPlatform>) -> Option<[u64; 3]> {
        s.assess().map(|a| {
            [
                a.latency_s.to_bits(),
                a.power_mw.to_bits(),
                a.area_mm2.to_bits(),
            ]
        })
    }

    /// Whatever the pool width, advancing on the engine leaves every
    /// session exactly where a plain serial `advance_to` loop does.
    #[test]
    fn engine_advance_matches_serial_at_every_width() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let select: Vec<bool> = (0..9).map(|i| i % 3 != 1).collect();
        let mut serial = sessions(&e, 9);
        for budget in [25u64, 40] {
            for (s, &on) in serial.iter_mut().zip(&select) {
                if on {
                    s.advance_to(budget);
                }
            }
        }
        for width in [1usize, 2, 7, 32] {
            let engine = MappingEngine::new(width);
            let telemetry = Telemetry::new();
            let mut ss = sessions(&e, 9);
            for budget in [25u64, 40] {
                let panics =
                    advance_with_engine(&engine, &mut ss, &select, budget, None, &telemetry);
                assert_eq!(panics, 0, "width={width}");
            }
            for (i, ((x, y), &on)) in ss.iter().zip(&serial).zip(&select).enumerate() {
                assert_eq!(
                    x.spent(),
                    if on { 40 } else { 0 },
                    "width={width} session {i}"
                );
                assert_eq!(x.spent(), y.spent(), "width={width} session {i}");
                assert!(!x.is_poisoned());
                assert_eq!(
                    assessment_bits(x),
                    assessment_bits(y),
                    "width={width} session {i}: engine and serial execution must agree bit for bit"
                );
            }
            let m = engine.metrics();
            assert_eq!(m.threads_spawned, width as u64, "workers spawned once");
            assert_eq!(m.batches, 2);
            assert_eq!(m.jobs_executed, 12);
            assert_eq!(telemetry.get(Counter::FaultsInjected), 0);
        }
    }

    #[test]
    fn empty_selection_is_noop() {
        let p = SpatialPlatform::edge();
        let e = env(&p);
        let mut ss = sessions(&e, 3);
        let engine = MappingEngine::new(2);
        let none = [false, false, false];
        advance_with_engine(&engine, &mut ss, &none, 10, None, &Telemetry::new());
        assert!(ss.iter().all(|s| s.spent() == 0));
        assert_eq!(engine.metrics().batches, 0);
    }

    #[test]
    fn executes_all_jobs_and_blocks_until_done() {
        let engine = MappingEngine::new(4);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<ScopedJob<'_>> = (0..64)
            .map(|_| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as ScopedJob<'_>
            })
            .collect();
        let panics = engine.execute(jobs);
        assert_eq!(panics, 0);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn threads_spawn_once_across_batches() {
        let engine = MappingEngine::new(3);
        for _ in 0..10 {
            let jobs: Vec<ScopedJob<'_>> =
                (0..7).map(|_| Box::new(|| ()) as ScopedJob<'_>).collect();
            engine.execute(jobs);
        }
        let m = engine.metrics();
        assert_eq!(m.threads_spawned, 3, "no per-batch respawn");
        assert_eq!(m.batches, 10);
        assert_eq!(m.jobs_executed, 70);
    }

    #[test]
    fn contains_panics_and_keeps_serving() {
        let engine = MappingEngine::new(2);
        let ok = AtomicUsize::new(0);
        let jobs: Vec<ScopedJob<'_>> = (0..8)
            .map(|i| {
                let ok = &ok;
                Box::new(move || {
                    if i % 2 == 0 {
                        panic!("job {i} exploded");
                    }
                    ok.fetch_add(1, Ordering::Relaxed);
                }) as ScopedJob<'_>
            })
            .collect();
        let panics = engine.execute(jobs);
        assert_eq!(panics, 4);
        assert_eq!(ok.load(Ordering::Relaxed), 4);
        // The pool still works after contained panics.
        let again: Vec<ScopedJob<'_>> = vec![Box::new(|| ())];
        assert_eq!(engine.execute(again), 0);
        let m = engine.metrics();
        assert_eq!(m.panics_contained, 4);
        assert_eq!(m.threads_spawned, 2);
    }

    #[test]
    fn borrowed_state_is_visible_after_execute() {
        let engine = MappingEngine::new(2);
        let mut values = vec![0u64; 16];
        let jobs: Vec<ScopedJob<'_>> = values
            .iter_mut()
            .enumerate()
            .map(|(i, v)| {
                Box::new(move || {
                    *v = i as u64 + 1;
                }) as ScopedJob<'_>
            })
            .collect();
        engine.execute(jobs);
        assert_eq!(values, (1..=16).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_batch_is_noop() {
        let engine = MappingEngine::new(1);
        assert_eq!(engine.execute(Vec::new()), 0);
        assert_eq!(engine.metrics().batches, 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = MappingEngine::new(0);
    }
}
