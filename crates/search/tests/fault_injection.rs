//! Fault-injected successive halving at the engine level: a worker
//! panic injected into round 0 must be contained by the engine, poison
//! the afflicted sessions so they assess infeasible, and still let the
//! round — and the whole SH run — complete with healthy finalists.
//!
//! Real panics get the same treatment: a platform whose cost model
//! panics for some hardware must neither abort successive halving nor
//! the full-budget baselines (HASCO, NSGA-II), and each panic is
//! counted once by the engine.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico_mapping::{Mapping, MappingCost, MappingOutcome, MappingSearcher};
use unico_model::{Dataflow, EvalCache, HwConfig, Platform, SpatialPlatform};
use unico_search::sh::{self, ShConfig};
use unico_search::telemetry::{Counter, Telemetry};
use unico_search::{
    run_hasco, run_nsga2, CoSearchEnv, EnvConfig, FaultContext, FaultKind, FaultPlan, HascoConfig,
    HwSession, MappingEngine, Nsga2Config, RetryPolicy,
};
use unico_workloads::{zoo, LoopNest};

fn test_env(p: &SpatialPlatform) -> CoSearchEnv<'_, SpatialPlatform> {
    CoSearchEnv::new(
        p,
        &[zoo::mobilenet_v1()],
        EnvConfig {
            max_layers_per_network: 1,
            power_cap_mw: None,
            area_cap_mm2: None,
        },
    )
}

fn sessions<'e>(
    env: &'e CoSearchEnv<'e, SpatialPlatform>,
    n: usize,
) -> Vec<HwSession<'e, SpatialPlatform>> {
    let mut rng = StdRng::seed_from_u64(17);
    (0..n)
        .map(|i| env.session(env.platform().sample_hw(&mut rng), i as u64))
        .collect()
}

#[test]
fn worker_panic_poisons_session_and_round_completes() {
    let p = SpatialPlatform::edge();
    let env = test_env(&p);
    let mut ss = sessions(&env, 8);

    // Panic sessions 2 and 5 in round 0 (engine batch 0).
    let plan = FaultPlan::new()
        .with_fault(0, 2, FaultKind::WorkerPanic)
        .with_fault(0, 5, FaultKind::WorkerPanic);
    let ctx = FaultContext::new(plan, RetryPolicy::default());
    let engine = MappingEngine::new(4);
    let telemetry = Telemetry::new();

    let out = sh::run(
        &mut ss,
        &ShConfig::modified(64),
        &engine,
        &telemetry,
        Some(&ctx),
    );

    // The run completed every round despite the panics.
    assert_eq!(out.round_budgets.len(), 3);
    assert_eq!(*out.round_budgets.last().unwrap(), 64);
    assert_eq!(out.finalists.len(), 2);
    assert_eq!(out.contained_panics, 2);

    // The panicked sessions are poisoned and score infeasible; panics
    // never retry.
    for &i in &[2usize, 5] {
        assert!(ss[i].is_poisoned(), "session {i} must be poisoned");
        assert!(ss[i].assess().is_none(), "session {i} must be infeasible");
        assert_eq!(ss[i].terminal_value(), f64::INFINITY);
    }
    assert!(
        out.finalists.iter().all(|&i| i != 2 && i != 5),
        "poisoned sessions must not be promoted to finalists"
    );

    // The engine contained both panics without losing its workers, and
    // telemetry mirrors the containment.
    let m = engine.metrics();
    assert_eq!(m.panics_contained, 2);
    assert_eq!(m.threads_spawned, 4, "workers survive contained panics");
    // `engine_panics` in the run report is derived from this engine
    // metric by the outer loop; the pool itself records the fault
    // counters.
    assert_eq!(telemetry.get(Counter::FaultPanics), 2);
    assert_eq!(telemetry.get(Counter::FaultsInjected), 2);
    assert_eq!(telemetry.get(Counter::FaultRetries), 0);
    assert_eq!(telemetry.get(Counter::FaultQuarantines), 0);

    // Healthy sessions were unaffected: finalists ran to the full
    // budget and assess feasibly (no power/area caps in this env).
    for &i in &out.finalists {
        assert_eq!(ss[i].spent(), 64);
        assert!(ss[i].assess().is_some());
    }
}

#[test]
fn engine_survives_panics_across_consecutive_rounds() {
    let p = SpatialPlatform::edge();
    let env = test_env(&p);
    let mut ss = sessions(&env, 8);

    // One panic per round; the victim session index differs per round
    // (later rounds advance only survivors, so plant on all indices).
    let mut plan = FaultPlan::new();
    for batch in 0..3u64 {
        for session in 0..8usize {
            plan = plan.with_fault(batch, session, FaultKind::WorkerPanic);
        }
    }
    let ctx = FaultContext::new(plan, RetryPolicy::default());
    let engine = MappingEngine::new(4);
    let telemetry = Telemetry::new();

    let out = sh::run(
        &mut ss,
        &ShConfig::modified(64),
        &engine,
        &telemetry,
        Some(&ctx),
    );

    // Every selected session panicked in every round, yet SH still ran
    // all rounds to completion on the same engine.
    assert_eq!(out.round_budgets.len(), 3);
    assert!(out.contained_panics >= 8, "round 0 poisons all 8");
    let m = engine.metrics();
    assert_eq!(m.panics_contained, out.contained_panics);
    assert_eq!(telemetry.get(Counter::FaultPanics), out.contained_panics);
    assert_eq!(m.threads_spawned, 4);
    // With everything poisoned, promotion still fills its quota and the
    // finalists exist (infeasible, but the algorithm never wedges).
    assert_eq!(out.finalists.len(), 2);
    assert!(ss.iter().all(|s| s.is_poisoned()));
    assert!(ss.iter().all(|s| s.assess().is_none()));
}

/// Hardware whose mapping search panics on [`PanickyPlatform`]: a
/// deterministic predicate that holds for some, not all, samples.
fn doomed(hw: &HwConfig) -> bool {
    hw.dataflow() == Dataflow::OutputStationary && hw.pe_x() >= hw.pe_y()
}

/// The edge platform, except that every cost bound to [`doomed`]
/// hardware panics in [`MappingCost::assess`] — a stand-in for a bug in
/// a cost model or mapping tool.
struct PanickyPlatform {
    inner: SpatialPlatform,
    panics: AtomicU64,
}

impl PanickyPlatform {
    fn new() -> Self {
        PanickyPlatform {
            inner: SpatialPlatform::edge(),
            panics: AtomicU64::new(0),
        }
    }

    fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }
}

struct PanickingCost<'a> {
    panics: &'a AtomicU64,
}

impl MappingCost for PanickingCost<'_> {
    fn assess(&self, _mapping: &Mapping) -> Option<MappingOutcome> {
        self.panics.fetch_add(1, Ordering::Relaxed);
        panic!("cost model bug on doomed hardware");
    }
}

impl Platform for PanickyPlatform {
    type Hw = HwConfig;

    fn name(&self) -> &str {
        "panicky-edge"
    }
    fn feature_dim(&self) -> usize {
        self.inner.feature_dim()
    }
    fn encode(&self, hw: &HwConfig) -> Vec<f64> {
        self.inner.encode(hw)
    }
    fn sample_hw(&self, rng: &mut StdRng) -> HwConfig {
        self.inner.sample_hw(rng)
    }
    fn perturb_hw(&self, rng: &mut StdRng, hw: &HwConfig) -> HwConfig {
        self.inner.perturb_hw(rng, hw)
    }
    fn crossover_hw(&self, rng: &mut StdRng, a: &HwConfig, b: &HwConfig) -> HwConfig {
        self.inner.crossover_hw(rng, a, b)
    }
    fn area_mm2(&self, hw: &HwConfig) -> f64 {
        self.inner.area_mm2(hw)
    }
    fn hw_space_size(&self) -> u64 {
        self.inner.hw_space_size()
    }
    fn bind<'a>(
        &'a self,
        hw: &HwConfig,
        nest: &LoopNest,
    ) -> Box<dyn MappingCost + Send + Sync + 'a> {
        if doomed(hw) {
            Box::new(PanickingCost {
                panics: &self.panics,
            })
        } else {
            self.inner.bind(hw, nest)
        }
    }
    fn make_searcher(
        &self,
        hw: &HwConfig,
        nest: &LoopNest,
        seed: u64,
    ) -> Box<dyn MappingSearcher + Send> {
        self.inner.make_searcher(hw, nest, seed)
    }
    fn eval_cost_seconds(&self) -> f64 {
        self.inner.eval_cost_seconds()
    }
    fn describe(&self, hw: &HwConfig) -> String {
        self.inner.describe(hw)
    }
    fn eval_cache(&self) -> Option<&EvalCache> {
        self.inner.eval_cache()
    }
}

fn panicky_env(p: &PanickyPlatform) -> CoSearchEnv<'_, PanickyPlatform> {
    CoSearchEnv::new(
        p,
        &[zoo::mobilenet_v1()],
        EnvConfig {
            max_layers_per_network: 1,
            power_cap_mw: None,
            area_cap_mm2: None,
        },
    )
}

#[test]
fn real_worker_panics_poison_their_session_and_are_counted_once() {
    let p = PanickyPlatform::new();
    let env = panicky_env(&p);
    let mut rng = StdRng::seed_from_u64(23);
    let mut ss: Vec<HwSession<'_, PanickyPlatform>> = (0..8)
        .map(|i| env.session(p.sample_hw(&mut rng), i))
        .collect();
    let victims: Vec<usize> = (0..8).filter(|&i| doomed(ss[i].hw())).collect();
    assert!(
        !victims.is_empty() && victims.len() < 8,
        "the seed must mix doomed and healthy hardware: {victims:?}"
    );
    let engine = MappingEngine::new(4);
    let telemetry = Telemetry::new();

    let out = sh::run(&mut ss, &ShConfig::modified(64), &engine, &telemetry, None);

    // Every round ran; every panic was contained and counted exactly
    // once, by the engine and in the outcome alike.
    assert_eq!(out.round_budgets.len(), 3);
    assert!(p.panics() >= victims.len() as u64);
    assert_eq!(out.contained_panics, p.panics());
    assert_eq!(engine.metrics().panics_contained, p.panics());
    assert_eq!(engine.metrics().threads_spawned, 4);
    // Nothing was injected: these are real panics, not fault-plan ones.
    assert_eq!(telemetry.get(Counter::FaultPanics), 0);

    for (i, s) in ss.iter().enumerate() {
        let victim = victims.contains(&i);
        assert_eq!(s.is_poisoned(), victim, "session {i}");
        if victim {
            assert!(s.assess().is_none(), "session {i} must be infeasible");
            assert!(
                !out.finalists.contains(&i),
                "session {i} must not be promoted"
            );
        }
    }
}

#[test]
fn baselines_survive_a_panicking_candidate() {
    let p = PanickyPlatform::new();
    let env = panicky_env(&p);

    let hasco = run_hasco(
        &env,
        &HascoConfig {
            iterations: 8,
            inner_budget: 24,
            candidate_pool: 16,
            warmup: 4,
            seed: 5,
            workers: 2,
        },
    );
    assert_eq!(hasco.hw_evals, 8);
    let after_hasco = p.panics();
    assert!(after_hasco > 0, "HASCO must have drawn doomed hardware");

    let nsga = run_nsga2(
        &env,
        &Nsga2Config {
            population: 6,
            generations: 2,
            inner_budget: 24,
            seed: 5,
            workers: 2,
            ..Nsga2Config::default()
        },
    );
    assert_eq!(nsga.hw_evals, 18);
    assert!(
        p.panics() > after_hasco,
        "NSGA-II must have drawn doomed hardware"
    );

    for (name, res) in [("hasco", &hasco), ("nsga2", &nsga)] {
        assert!(!res.front.is_empty(), "{name}: healthy candidates remain");
        for (_, hw) in res.front.iter() {
            assert!(
                !doomed(hw),
                "{name}: a panicked candidate reached the front"
            );
        }
    }
}
