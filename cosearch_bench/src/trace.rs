//! Benchmark-side spans around the library's public layer boundaries.
//!
//! [`TracedPlatform`] wraps any [`Platform`] by delegation and times the
//! calls the co-search makes into it: PPA model evaluations (`bind` →
//! `MappingCost::assess` / `assess_batch`, and `Platform::evaluate_batch`),
//! mapping searches (`make_searcher` → `MappingSearcher::run_until`) and
//! hardware proposals (`sample_hw`, `perturb_hw`, `crossover_hw`). Every
//! other method forwards unchanged, so a traced run computes exactly what
//! an untraced one does. [`IterationSpans`] records one span per MOBO
//! iteration through the [`RunObserver`] hook.
//!
//! Spans are aggregated in memory (atomic totals, plus the raw
//! `run_until` intervals for the busy-time union) and summarised when
//! the run ends.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use rand::rngs::StdRng;
use unico_core::{IterationUpdate, RunObserver};
use unico_mapping::{
    GradientStats, Mapping, MappingCost, MappingOutcome, MappingSearcher, RelaxedGrad,
    RelaxedPoint, SearchHistory,
};
use unico_model::{EvalCache, FusionPricer, Platform};
use unico_workloads::LoopNest;

thread_local! {
    /// Model-evaluation nanoseconds spent on this thread, so a
    /// `run_until` span can subtract the model spans nested inside it.
    static MODEL_NS: Cell<u64> = const { Cell::new(0) };
}

/// In-memory span totals for one traced run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    /// Single-mapping `assess` calls.
    pub assess_calls: AtomicU64,
    /// Batched assessments (`assess_batch` or `Platform::evaluate_batch`).
    pub assess_batch_calls: AtomicU64,
    /// Mappings scored through batched assessments.
    pub batch_rows: AtomicU64,
    /// Nanoseconds inside model evaluations of either kind.
    pub model_ns: AtomicU64,
    /// `MappingSearcher::run_until` calls.
    pub run_until_calls: AtomicU64,
    /// Nanoseconds inside `run_until`, summed over threads.
    pub run_until_ns: AtomicU64,
    /// `run_until` nanoseconds not covered by nested model spans.
    pub mapping_self_ns: AtomicU64,
    /// Mapping-search budget steps consumed inside `run_until`.
    pub mapping_evals: AtomicU64,
    /// Hardware proposals (`sample_hw` + `perturb_hw` + `crossover_hw`).
    pub hw_proposals: AtomicU64,
    /// Nanoseconds inside hardware proposals.
    pub hw_propose_ns: AtomicU64,
    searches: Mutex<SearchSpans>,
}

#[derive(Debug, Default)]
struct SearchSpans {
    /// `(start, end)` of every `run_until`, in ns since the epoch.
    intervals: Vec<(u64, u64)>,
    threads: HashSet<ThreadId>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            assess_calls: AtomicU64::new(0),
            assess_batch_calls: AtomicU64::new(0),
            batch_rows: AtomicU64::new(0),
            model_ns: AtomicU64::new(0),
            run_until_calls: AtomicU64::new(0),
            run_until_ns: AtomicU64::new(0),
            mapping_self_ns: AtomicU64::new(0),
            mapping_evals: AtomicU64::new(0),
            hw_proposals: AtomicU64::new(0),
            hw_propose_ns: AtomicU64::new(0),
            searches: Mutex::new(SearchSpans::default()),
        }
    }
}

impl Spans {
    /// Fresh, empty span totals.
    pub fn new() -> Arc<Self> {
        Arc::new(Spans::default())
    }

    /// Seconds during which at least one thread was inside `run_until`
    /// (the union of the intervals, not their sum).
    pub fn mapping_busy_s(&self) -> f64 {
        let mut iv = self.lock().intervals.clone();
        iv.sort_unstable();
        let mut busy = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    busy += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            busy += ce - cs;
        }
        secs(busy)
    }

    /// Distinct OS threads that ran `run_until`.
    pub fn threads_seen(&self) -> usize {
        self.lock().threads.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SearchSpans> {
        self.searches
            .lock()
            .expect("span list lock: a traced thread panicked while recording")
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        nanos(t.duration_since(self.epoch))
    }

    fn model<T>(&self, rows: Option<usize>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = nanos(start.elapsed());
        self.model_ns.fetch_add(ns, Ordering::Relaxed);
        MODEL_NS.with(|c| c.set(c.get() + ns));
        match rows {
            None => self.assess_calls.fetch_add(1, Ordering::Relaxed),
            Some(n) => {
                self.batch_rows.fetch_add(n as u64, Ordering::Relaxed);
                self.assess_batch_calls.fetch_add(1, Ordering::Relaxed)
            }
        };
        out
    }

    fn propose<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.hw_propose_ns
            .fetch_add(nanos(start.elapsed()), Ordering::Relaxed);
        self.hw_proposals.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// Nanoseconds → seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A [`Platform`] that forwards every call to `inner` and records spans
/// around the model, mapping-search and hardware-proposal calls.
#[derive(Debug)]
pub struct TracedPlatform<P> {
    inner: P,
    spans: Arc<Spans>,
}

impl<P> TracedPlatform<P> {
    /// Wraps `inner`, recording into `spans`.
    pub fn new(inner: P, spans: Arc<Spans>) -> Self {
        TracedPlatform { inner, spans }
    }
}

impl<P: Platform> Platform for TracedPlatform<P> {
    type Hw = P::Hw;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }

    fn encode(&self, hw: &Self::Hw) -> Vec<f64> {
        self.inner.encode(hw)
    }

    fn sample_hw(&self, rng: &mut StdRng) -> Self::Hw {
        self.spans.propose(|| self.inner.sample_hw(rng))
    }

    fn perturb_hw(&self, rng: &mut StdRng, hw: &Self::Hw) -> Self::Hw {
        self.spans.propose(|| self.inner.perturb_hw(rng, hw))
    }

    fn crossover_hw(&self, rng: &mut StdRng, a: &Self::Hw, b: &Self::Hw) -> Self::Hw {
        self.spans.propose(|| self.inner.crossover_hw(rng, a, b))
    }

    fn area_mm2(&self, hw: &Self::Hw) -> f64 {
        self.inner.area_mm2(hw)
    }

    fn hw_space_size(&self) -> u64 {
        self.inner.hw_space_size()
    }

    fn bind<'a>(
        &'a self,
        hw: &Self::Hw,
        nest: &LoopNest,
    ) -> Box<dyn MappingCost + Send + Sync + 'a> {
        Box::new(TracedCost {
            inner: self.inner.bind(hw, nest),
            spans: &self.spans,
        })
    }

    fn evaluate_batch(
        &self,
        hw: &Self::Hw,
        nest: &LoopNest,
        mappings: &[Mapping],
    ) -> Vec<Option<MappingOutcome>> {
        self.spans.model(Some(mappings.len()), || {
            self.inner.evaluate_batch(hw, nest, mappings)
        })
    }

    fn make_searcher(
        &self,
        hw: &Self::Hw,
        nest: &LoopNest,
        seed: u64,
    ) -> Box<dyn MappingSearcher + Send> {
        Box::new(TracedSearcher {
            inner: self.inner.make_searcher(hw, nest, seed),
            spans: Arc::clone(&self.spans),
        })
    }

    fn eval_cost_seconds(&self) -> f64 {
        self.inner.eval_cost_seconds()
    }

    fn describe(&self, hw: &Self::Hw) -> String {
        self.inner.describe(hw)
    }

    fn eval_cache(&self) -> Option<&EvalCache> {
        self.inner.eval_cache()
    }

    fn hw_words(&self, hw: &Self::Hw) -> Option<Vec<u64>> {
        self.inner.hw_words(hw)
    }

    fn hw_from_words(&self, words: &[u64]) -> Option<Self::Hw> {
        self.inner.hw_from_words(words)
    }

    fn fusion_pricer<'a>(
        &'a self,
        hw: &Self::Hw,
        layers: Vec<Option<(LoopNest, Mapping, u32)>>,
    ) -> Option<Box<dyn FusionPricer + 'a>> {
        self.inner.fusion_pricer(hw, layers)
    }
}

struct TracedCost<'a> {
    inner: Box<dyn MappingCost + Send + Sync + 'a>,
    spans: &'a Spans,
}

impl MappingCost for TracedCost<'_> {
    fn assess(&self, mapping: &Mapping) -> Option<MappingOutcome> {
        self.spans.model(None, || self.inner.assess(mapping))
    }

    fn assess_batch(&self, mappings: &[Mapping]) -> Vec<Option<MappingOutcome>> {
        self.spans
            .model(Some(mappings.len()), || self.inner.assess_batch(mappings))
    }

    fn eval_cost_seconds(&self) -> f64 {
        self.inner.eval_cost_seconds()
    }

    fn assess_relaxed(&self, template: &Mapping, point: &RelaxedPoint) -> Option<RelaxedGrad> {
        self.inner.assess_relaxed(template, point)
    }
}

struct TracedSearcher {
    inner: Box<dyn MappingSearcher + Send>,
    spans: Arc<Spans>,
}

impl MappingSearcher for TracedSearcher {
    fn run_until(&mut self, cost: &dyn MappingCost, budget: u64) {
        let spans = &*self.spans;
        let spent_before = self.inner.history().spent();
        let nested_before = MODEL_NS.with(Cell::get);
        let start = Instant::now();
        self.inner.run_until(cost, budget);
        let end = Instant::now();
        let ns = nanos(end.duration_since(start));
        let nested = MODEL_NS.with(Cell::get) - nested_before;
        spans.run_until_calls.fetch_add(1, Ordering::Relaxed);
        spans.run_until_ns.fetch_add(ns, Ordering::Relaxed);
        spans
            .mapping_self_ns
            .fetch_add(ns.saturating_sub(nested), Ordering::Relaxed);
        spans.mapping_evals.fetch_add(
            self.inner.history().spent() - spent_before,
            Ordering::Relaxed,
        );
        let mut s = spans.lock();
        s.intervals
            .push((spans.since_epoch(start), spans.since_epoch(end)));
        s.threads.insert(std::thread::current().id());
    }

    fn history(&self) -> &SearchHistory {
        self.inner.history()
    }

    fn best(&self) -> Option<(&Mapping, MappingOutcome)> {
        self.inner.best()
    }

    fn gradient_stats(&self) -> Option<GradientStats> {
        self.inner.gradient_stats()
    }

    fn best_mapping_at(&self, budget: u64) -> Option<&Mapping> {
        self.inner.best_mapping_at(budget)
    }
}

/// One span per MOBO iteration, timed between consecutive
/// [`RunObserver::on_iteration`] calls (the first from construction,
/// which callers place right before the run starts).
#[derive(Debug)]
pub struct IterationSpans {
    last: Mutex<Instant>,
    durations: Mutex<Vec<f64>>,
}

impl IterationSpans {
    /// Starts the first iteration's span now.
    pub fn start() -> Self {
        IterationSpans {
            last: Mutex::new(Instant::now()),
            durations: Mutex::new(Vec::new()),
        }
    }

    /// Iteration durations in seconds, in order.
    pub fn durations(&self) -> Vec<f64> {
        self.durations
            .lock()
            .expect("iteration span lock: observer panicked")
            .clone()
    }
}

impl RunObserver for IterationSpans {
    fn on_iteration(&self, _update: &IterationUpdate<'_>) {
        let now = Instant::now();
        let mut last = self.last.lock().expect("iteration clock lock");
        self.durations
            .lock()
            .expect("iteration span lock")
            .push(now.duration_since(*last).as_secs_f64());
        *last = now;
    }
}
