//! The three offline workloads: one seeded co-search each, with
//! everything built anew (networks, platform, fresh evaluation cache,
//! environment) so repeats in one process are independent and
//! comparable.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use unico_camodel::AscendPlatform;
use unico_core::experiments::table::Scenario;
use unico_core::{RunOptions, Unico, UnicoConfig, UnicoResult};
use unico_model::{EvalCache, Platform};
use unico_search::telemetry::Telemetry;
use unico_search::{run_hasco, run_nsga2, CoSearchEnv, EnvConfig, HascoConfig, Nsga2Config};
use unico_workloads::{zoo, Network};

use crate::stats::RefBox;
use crate::trace::{secs, IterationSpans, Spans, TracedPlatform};
use crate::WORKERS;

/// An offline (single-process, no service) workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offline {
    /// UNICO on the edge scenario at paper budgets.
    EdgePaper,
    /// HASCO then NSGA-II on the cloud scenario at full inner budget.
    BaselinesCloud,
    /// UNICO on the Ascend-like cycle-level platform (Fig. 11 settings).
    AscendPaper,
}

impl Offline {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Offline::EdgePaper => "edge_paper",
            Offline::BaselinesCloud => "baselines_cloud",
            Offline::AscendPaper => "ascend_paper",
        }
    }

    /// The fixed box `front_hv` and `knee_latency_ms` are measured in:
    /// `(latency s, power mW, area mm²)`, chosen once to enclose the
    /// fronts these workloads produce across seeds. It is a constant of
    /// the benchmark, never derived from the run being measured.
    pub fn ref_box(self) -> RefBox {
        match self {
            Offline::EdgePaper => RefBox {
                lo: [0.0, 0.0, 0.0],
                hi: [0.2, 2000.0, 8.0],
            },
            Offline::BaselinesCloud => RefBox {
                lo: [0.0, 0.0, 0.0],
                hi: [0.2, 20000.0, 16.0],
            },
            Offline::AscendPaper => RefBox {
                lo: [0.0, 0.0, 0.0],
                hi: [0.1, 10000.0, 200.0],
            },
        }
    }
}

/// Search budgets. [`Sizing::paper`] is what the benchmark measures;
/// [`Sizing::smoke`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// UNICO hardware batch (`N`).
    pub batch: usize,
    /// UNICO MOBO iterations (`MaxIter`).
    pub max_iter: usize,
    /// Per-job mapping budget (`b_max`, and the baselines' full budget).
    pub b_max: u64,
    /// Dominant layers kept per network.
    pub layers: usize,
    /// HASCO outer iterations.
    pub hasco_iterations: usize,
    /// NSGA-II population.
    pub nsga_population: usize,
    /// NSGA-II generations.
    pub nsga_generations: usize,
}

impl Sizing {
    /// The budgets the benchmark measures for workload `w`: the paper's
    /// (`N = 30`, `b_max = 300`, 4 layers per network, HASCO 120
    /// iterations, NSGA-II 30 × 12; Fig. 11's `N = 8`, `MaxIter = 30`,
    /// `b_max = 200` on the Ascend-like core), except that `edge_paper`
    /// runs `UnicoConfig::default()`'s 20 MOBO iterations rather than
    /// `Scale::paper()`'s 30: the last ten add full GP refits whose count
    /// varies by seed, doubling the search time and its seed-to-seed
    /// spread.
    pub fn paper(w: Offline) -> Self {
        let base = Sizing {
            batch: 30,
            max_iter: 20,
            b_max: 300,
            layers: 4,
            hasco_iterations: 120,
            nsga_population: 30,
            nsga_generations: 12,
        };
        match w {
            Offline::AscendPaper => Sizing {
                batch: 8,
                max_iter: 30,
                b_max: 200,
                ..base
            },
            _ => base,
        }
    }

    /// Seconds-scale budgets for tests.
    pub fn smoke() -> Self {
        Sizing {
            batch: 6,
            max_iter: 3,
            b_max: 24,
            layers: 1,
            hasco_iterations: 6,
            nsga_population: 6,
            nsga_generations: 2,
        }
    }
}

/// Span totals of one traced search.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Single-mapping model assessments.
    pub assess_calls: u64,
    /// Batched model assessments.
    pub assess_batch_calls: u64,
    /// Mappings scored in batches.
    pub batch_rows: u64,
    /// Seconds in model evaluation, summed over threads.
    pub eval_s: f64,
    /// `run_until` calls.
    pub run_until_calls: u64,
    /// Seconds in `run_until`, summed over threads.
    pub run_until_s: f64,
    /// `run_until` seconds outside nested model spans.
    pub mapping_self_s: f64,
    /// Mapping budget steps consumed inside `run_until`.
    pub mapping_evals: u64,
    /// Union of `run_until` intervals, seconds.
    pub mapping_busy_s: f64,
    /// Distinct threads that ran `run_until`.
    pub threads_seen: usize,
    /// Hardware proposals.
    pub hw_proposals: u64,
    /// Seconds in hardware proposals.
    pub hw_propose_s: f64,
    /// Per-iteration seconds (UNICO workloads only).
    pub iterations_s: Vec<f64>,
}

impl TraceSummary {
    fn collect(spans: &Spans, iterations: Option<&IterationSpans>) -> Self {
        use std::sync::atomic::Ordering::Relaxed;
        TraceSummary {
            assess_calls: spans.assess_calls.load(Relaxed),
            assess_batch_calls: spans.assess_batch_calls.load(Relaxed),
            batch_rows: spans.batch_rows.load(Relaxed),
            eval_s: secs(spans.model_ns.load(Relaxed)),
            run_until_calls: spans.run_until_calls.load(Relaxed),
            run_until_s: secs(spans.run_until_ns.load(Relaxed)),
            mapping_self_s: secs(spans.mapping_self_ns.load(Relaxed)),
            mapping_evals: spans.mapping_evals.load(Relaxed),
            mapping_busy_s: spans.mapping_busy_s(),
            threads_seen: spans.threads_seen(),
            hw_proposals: spans.hw_proposals.load(Relaxed),
            hw_propose_s: secs(spans.hw_propose_ns.load(Relaxed)),
            iterations_s: iterations
                .map(IterationSpans::durations)
                .unwrap_or_default(),
        }
    }
}

/// Work counters recorded with every search, by stable name.
pub const COUNTS: [&str; 13] = [
    "mapping_evals",
    "hw_evals",
    "cache_hits",
    "cache_misses",
    "cache_entries",
    "gp_fits",
    "gp_fits_incremental",
    "engine_jobs",
    "engine_threads_spawned",
    "cache_batch_lookups",
    "sh_rounds",
    "fusion_groups_tried",
    "fusion_groups_accepted",
];

/// One measured search.
#[derive(Debug, Clone)]
pub struct SearchRun {
    /// Seconds to build networks, platform, cache and environment.
    pub setup_s: f64,
    /// Host seconds of the search itself.
    pub wall_s: f64,
    /// Final `(latency, power, area)` front of each optimizer run.
    pub fronts: Vec<Vec<Vec<f64>>>,
    /// Exact work counts ([`COUNTS`]).
    pub counts: BTreeMap<String, u64>,
    /// Phase seconds the program itself reports (UNICO run report).
    pub phases_s: BTreeMap<String, f64>,
    /// Span totals, for traced searches.
    pub trace: Option<TraceSummary>,
}

impl SearchRun {
    fn setup_only(setup_s: f64) -> Self {
        SearchRun {
            setup_s,
            wall_s: 0.0,
            fronts: Vec::new(),
            counts: BTreeMap::new(),
            phases_s: BTreeMap::new(),
            trace: None,
        }
    }

    /// Mean normalised hypervolume over the optimizer fronts.
    pub fn front_hv(&self, b: &RefBox) -> f64 {
        mean(self.fronts.iter().map(|f| b.hypervolume(f)))
    }

    /// Mean latency (ms) of each front's knee, or `None` if a front is
    /// empty.
    pub fn knee_latency_ms(&self, b: &RefBox) -> Option<f64> {
        let knees: Option<Vec<f64>> = self
            .fronts
            .iter()
            .map(|f| b.knee(f).map(|y| y[0] * 1e3))
            .collect();
        knees.map(|k| mean(k.into_iter()))
    }

    /// Everything the seed determines: front bit patterns and work
    /// counts. Two searches with one seed must agree on it exactly.
    pub fn deterministic_key(&self) -> String {
        let fronts: Vec<String> = self
            .fronts
            .iter()
            .map(|f| {
                let rows: Vec<String> = f
                    .iter()
                    .map(|y| {
                        let bits: Vec<String> =
                            y.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
                        bits.join(",")
                    })
                    .collect();
                rows.join(";")
            })
            .collect();
        let counts: Vec<String> = self
            .counts
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("fronts[{}] counts[{}]", fronts.join("|"), counts.join(","))
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// What [`run_once`] does after building the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Stop after set-up (times `setup_s` alone; no search).
    SetupOnly,
    /// Run the search on the plain platform.
    Plain,
    /// Run the search on a [`TracedPlatform`], observing every iteration.
    Traced,
}

/// Runs workload `w` once with `seed` in `mode`.
pub fn run_once(w: Offline, sz: &Sizing, seed: u64, mode: Mode) -> SearchRun {
    let t0 = Instant::now();
    match w {
        Offline::EdgePaper => {
            let search = UnicoSearch {
                nets: zoo::edge_suite(),
                env_cfg: env_config(sz, Some(Scenario::Edge.power_cap_mw()), None),
                cfg: unico_config(sz.batch, sz.max_iter, sz.b_max, seed),
                t0,
            };
            dispatch(Scenario::Edge.platform(), mode, search)
        }
        Offline::AscendPaper => {
            let search = UnicoSearch {
                nets: zoo::ascend_suite(),
                env_cfg: env_config(sz, None, Some(200.0)),
                cfg: unico_config(sz.batch, sz.max_iter, sz.b_max, seed),
                t0,
            };
            let platform = AscendPlatform::new().with_eval_cache(Arc::new(EvalCache::new()));
            dispatch(platform, mode, search)
        }
        Offline::BaselinesCloud => {
            let search = BaselineSearch {
                nets: zoo::edge_suite(),
                env_cfg: env_config(sz, Some(Scenario::Cloud.power_cap_mw()), None),
                hasco: HascoConfig {
                    iterations: sz.hasco_iterations,
                    inner_budget: sz.b_max,
                    seed,
                    workers: WORKERS,
                    ..HascoConfig::default()
                },
                nsga: Nsga2Config {
                    population: sz.nsga_population,
                    generations: sz.nsga_generations,
                    inner_budget: sz.b_max,
                    seed,
                    workers: WORKERS,
                    ..Nsga2Config::default()
                },
                t0,
            };
            dispatch(Scenario::Cloud.platform(), mode, search)
        }
    }
}

/// A search that can run on any platform type — the plain one or its
/// traced wrapper.
trait Search {
    /// Builds the environment on `platform` and, unless `setup_only`,
    /// runs the search.
    fn run<Q: Platform>(self, platform: &Q, spans: Option<&Spans>, setup_only: bool) -> SearchRun
    where
        Q::Hw: Send;
}

fn dispatch<P: Platform, S: Search>(platform: P, mode: Mode, search: S) -> SearchRun
where
    P::Hw: Send,
{
    match mode {
        Mode::Traced => {
            let spans = Spans::new();
            let p = TracedPlatform::new(platform, Arc::clone(&spans));
            search.run(&p, Some(&spans), false)
        }
        Mode::Plain => search.run(&platform, None, false),
        Mode::SetupOnly => search.run(&platform, None, true),
    }
}

struct UnicoSearch {
    nets: Vec<Network>,
    env_cfg: EnvConfig,
    cfg: UnicoConfig,
    t0: Instant,
}

impl Search for UnicoSearch {
    fn run<Q: Platform>(self, platform: &Q, spans: Option<&Spans>, setup_only: bool) -> SearchRun
    where
        Q::Hw: Send,
    {
        let env = CoSearchEnv::new(platform, &self.nets, self.env_cfg);
        let setup_s = self.t0.elapsed().as_secs_f64();
        if setup_only {
            return SearchRun::setup_only(setup_s);
        }
        let iterations = spans.map(|_| IterationSpans::start());
        let opts = RunOptions {
            observer: iterations
                .as_ref()
                .map(|o| o as &dyn unico_core::RunObserver),
            ..RunOptions::default()
        };
        let start = Instant::now();
        let result: UnicoResult<Q::Hw> = Unico::new(self.cfg).run_with_options(&env, &opts);
        let wall_s = start.elapsed().as_secs_f64();
        let mut counts = BTreeMap::new();
        for name in COUNTS {
            counts.insert(
                name.to_string(),
                result.report.counters.get(name).copied().unwrap_or(0),
            );
        }
        finish(
            platform,
            setup_s,
            wall_s,
            vec![result.front.objectives()],
            counts,
            result.report.phases_s,
            spans.map(|s| TraceSummary::collect(s, iterations.as_ref())),
        )
    }
}

struct BaselineSearch {
    nets: Vec<Network>,
    env_cfg: EnvConfig,
    hasco: HascoConfig,
    nsga: Nsga2Config,
    t0: Instant,
}

impl Search for BaselineSearch {
    fn run<Q: Platform>(self, platform: &Q, spans: Option<&Spans>, setup_only: bool) -> SearchRun
    where
        Q::Hw: Send,
    {
        let env = CoSearchEnv::new(platform, &self.nets, self.env_cfg);
        let setup_s = self.t0.elapsed().as_secs_f64();
        if setup_only {
            return SearchRun::setup_only(setup_s);
        }
        // The baselines return no run report; their counters land in the
        // process-wide telemetry, read here as a delta.
        let before = Telemetry::global().snapshot();
        let start = Instant::now();
        let hasco = run_hasco(&env, &self.hasco);
        let nsga = run_nsga2(&env, &self.nsga);
        let wall_s = start.elapsed().as_secs_f64();
        let delta = Telemetry::global().snapshot().delta_since(&before);
        let counts = COUNTS
            .iter()
            .map(|&name| {
                let v = delta.counters.get(name).copied().unwrap_or(0);
                (name.to_string(), v)
            })
            .collect();
        finish(
            platform,
            setup_s,
            wall_s,
            vec![hasco.front.objectives(), nsga.front.objectives()],
            counts,
            delta.phases_s,
            spans.map(|s| TraceSummary::collect(s, None)),
        )
    }
}

/// Completes a [`SearchRun`], taking the cache counts from the
/// platform's own (fresh, per-search) evaluation cache.
fn finish<Q: Platform>(
    platform: &Q,
    setup_s: f64,
    wall_s: f64,
    fronts: Vec<Vec<Vec<f64>>>,
    mut counts: BTreeMap<String, u64>,
    phases_s: BTreeMap<String, f64>,
    trace: Option<TraceSummary>,
) -> SearchRun {
    if let Some(cache) = platform.eval_cache() {
        let st = cache.stats();
        counts.insert("cache_hits".to_string(), st.hits);
        counts.insert("cache_misses".to_string(), st.misses);
        counts.insert("cache_entries".to_string(), cache.len() as u64);
        counts.insert(
            "cache_batch_lookups".to_string(),
            cache.batch_stats().lookups,
        );
    }
    SearchRun {
        setup_s,
        wall_s,
        fronts,
        counts,
        phases_s,
        trace,
    }
}

fn env_config(sz: &Sizing, power_cap_mw: Option<f64>, area_cap_mm2: Option<f64>) -> EnvConfig {
    EnvConfig {
        max_layers_per_network: sz.layers,
        power_cap_mw,
        area_cap_mm2,
    }
}

fn unico_config(batch: usize, max_iter: usize, b_max: u64, seed: u64) -> UnicoConfig {
    UnicoConfig {
        max_iter,
        batch,
        b_max,
        seed,
        workers: WORKERS,
        ..UnicoConfig::default()
    }
}
