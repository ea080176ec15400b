//! Measurement loops: how long each workload runs, which seeds it uses,
//! how repeats are checked against each other, and which values it
//! reports.

use std::convert::Infallible;
use std::path::Path;
use std::time::Instant;

use crate::metrics::{number_list, Values};
use crate::offline::{self, Mode, Offline, SearchRun, Sizing};
use crate::served::{self, MixConfig, MixRun};
use crate::stats::{checked_percentile, mean, median, sample_means, tail_percentile};

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "edge_paper",
    "baselines_cloud",
    "ascend_paper",
    "served_mix",
];

/// `setup_s` is the median of this many samples...
pub const SETUP_SAMPLES: usize = 15;

/// ...each the mean of this many offline set-ups (tens of microseconds
/// each), so that a sample spans milliseconds (`served_mix` averages
/// [`served::BOOTS_PER_SAMPLE`] daemon boots instead).
pub const SETUPS_PER_SAMPLE: usize = 100;

/// Hard cap on `--seconds`, for every workload.
pub const MAX_RUN_S: f64 = 120.0;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One of the offline co-searches.
    Offline(Offline),
    /// The served job mix.
    ServedMix,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "edge_paper" => Workload::Offline(Offline::EdgePaper),
            "baselines_cloud" => Workload::Offline(Offline::BaselinesCloud),
            "ascend_paper" => Workload::Offline(Offline::AscendPaper),
            "served_mix" => Workload::ServedMix,
            _ => return None,
        })
    }
}

/// What one benchmark run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (searches, or submitted jobs).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values for the result line.
    pub values: Values,
    /// Extra facts for the log, as `(key, JSON value)`.
    pub detail: Vec<(String, String)>,
    /// Failure messages.
    pub errors: Vec<String>,
}

/// Distinct search seeds an offline workload cycles through. The work a
/// search does differs from seed to seed (how many samples feed the GP,
/// how many mappings hit the cache), so a run averages over several.
fn seed_pool(o: Offline) -> usize {
    match o {
        Offline::EdgePaper => 4,
        Offline::BaselinesCloud => 3,
        Offline::AscendPaper => 5,
    }
}

/// The search seeds a benchmark seed expands to (the seed itself first).
pub fn search_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|k| {
            if k == 0 {
                seed
            } else {
                served::pool_seed(seed, k)
            }
        })
        .collect()
}

/// Runs workload `w` for about `seconds`.
pub fn run(w: Workload, seed: u64, seconds: f64, trace: bool, state_root: &Path) -> Outcome {
    match w {
        Workload::Offline(o) => run_offline(o, &Sizing::paper(o), seed, seconds, trace),
        Workload::ServedMix => run_served(seed, seconds, trace, state_root),
    }
}

/// The offline loop at the given sizing: time the set-up alone (see
/// [`sample_means`]), then run whole cycles over the seed pool, starting
/// another cycle only if the run then ends nearer to `seconds` than it
/// would by stopping (at least one cycle runs). Untraced, a cycle is one
/// search per seed, and the first seed is searched once more if no seed
/// was repeated; traced, a cycle is an untraced/traced pair per seed.
pub fn run_offline(o: Offline, sz: &Sizing, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let seeds = search_seeds(seed, seed_pool(o));
    let budget_s = seconds.min(MAX_RUN_S);
    let Ok(setups) = sample_means(SETUP_SAMPLES, SETUPS_PER_SAMPLE, || {
        Ok::<_, Infallible>(offline::run_once(o, sz, seed, Mode::SetupOnly).setup_s)
    });
    let modes: &[Mode] = if trace {
        &[Mode::Plain, Mode::Traced]
    } else {
        &[Mode::Plain]
    };
    // runs[k] holds every search made with seeds[k], in order.
    let mut runs: Vec<Vec<SearchRun>> = vec![Vec::new(); seeds.len()];
    // Peak memory of a fresh process running one search; later searches
    // add allocator fragmentation that varies from run to run.
    let mut first_peak_mb = None;
    let start = Instant::now();
    loop {
        let cycle = Instant::now();
        for (k, &s) in seeds.iter().enumerate() {
            for &mode in modes {
                runs[k].push(offline::run_once(o, sz, s, mode));
                first_peak_mb.get_or_insert_with(crate::host::peak_rss_mb);
            }
        }
        // Another cycle brings the end nearer to the budget only while
        // the budget is more than half a cycle away.
        let projected = start.elapsed() + cycle.elapsed() / 2;
        if projected.as_secs_f64() > budget_s {
            break;
        }
    }
    if runs[0].len() < 2 {
        runs[0].push(offline::run_once(o, sz, seeds[0], Mode::Plain));
    }

    let b = o.ref_box();
    let mut out = Outcome::default();
    for (k, rs) in runs.iter().enumerate() {
        let key = rs[0].deterministic_key();
        for r in rs {
            out.attempted += 1;
            if r.deterministic_key() != key {
                out.failed += 1;
                out.errors.push(format!(
                    "seed {}: a repeat (traced: {}) differs from the first search",
                    seeds[k],
                    r.trace.is_some()
                ));
            } else if r.fronts.iter().any(Vec::is_empty) {
                out.failed += 1;
                out.errors.push(format!(
                    "seed {}: a search returned an empty front",
                    seeds[k]
                ));
            }
        }
    }
    out.correct = out.failed == 0;

    let plain = |k: usize| runs[k].iter().filter(|r| r.trace.is_none());
    let traced = || runs.iter().flatten().filter(|r| r.trace.is_some());
    // Per seed: the median of its repeats; then the mean over seeds.
    let wall_s = mean(
        &(0..seeds.len())
            .map(|k| median(&plain(k).map(|r| r.wall_s).collect::<Vec<_>>()))
            .collect::<Vec<_>>(),
    );
    let plain_total: f64 = (0..seeds.len()).flat_map(plain).map(|r| r.wall_s).sum();
    let plain_n = (0..seeds.len()).flat_map(plain).count();
    let firsts: Vec<&SearchRun> = runs.iter().map(|rs| &rs[0]).collect();
    let front_hv = mean(&firsts.iter().map(|r| r.front_hv(&b)).collect::<Vec<_>>());
    let knee = mean(
        &firsts
            .iter()
            .filter_map(|r| r.knee_latency_ms(&b))
            .collect::<Vec<_>>(),
    );
    let setup_s = median(&setups);

    if trace {
        let traced_runs: Vec<&SearchRun> = traced().collect();
        let traced_total: f64 = traced_runs.iter().map(|r| r.wall_s).sum();
        let per_run: Vec<Values> = traced_runs.iter().map(|r| layer_values(o, r)).collect();
        out.values = mean_values(&per_run);
        out.values.insert("workloads.setup_s", setup_s);
        out.values
            .insert("bench.trace_overhead_ratio", traced_total / plain_total);
    } else {
        out.values.insert("setup_s", setup_s);
        out.values.insert("wall_s", wall_s);
        out.values.insert("ops_per_s", plain_n as f64 / plain_total);
        out.values
            .insert("peak_rss_mb", first_peak_mb.unwrap_or_default());
        out.values.insert("front_hv", front_hv);
    }

    out.detail
        .push(("search_seeds".into(), format!("{seeds:?}")));
    out.detail
        .push(("searches".into(), out.attempted.to_string()));
    out.detail
        .push(("setup_sample_means".into(), number_list(&setups)));
    out.detail.push((
        "wall_s_samples".into(),
        number_list(
            &(0..seeds.len())
                .flat_map(plain)
                .map(|r| r.wall_s)
                .collect::<Vec<_>>(),
        ),
    ));
    out.detail
        .push(("knee_latency_ms".into(), crate::metrics::number(knee)));
    out.detail.push((
        "ref_box".into(),
        format!("{{\"lo\":{:?},\"hi\":{:?}}}", b.lo, b.hi),
    ));
    for (k, r) in firsts.iter().enumerate() {
        let counts: Vec<String> = r
            .counts
            .iter()
            .map(|(n, v)| format!("\"{n}\":{v}"))
            .collect();
        out.detail.push((
            format!("counts_seed_{}", seeds[k]),
            format!("{{{}}}", counts.join(",")),
        ));
    }
    out
}

/// Per-layer values of one traced search.
fn layer_values(o: Offline, r: &SearchRun) -> Values {
    let t = r.trace.clone().unwrap_or_default();
    let count = |name: &str| r.counts.get(name).copied().unwrap_or(0) as f64;
    let phase = |name: &str| r.phases_s.get(name).copied().unwrap_or(0.0);
    let mut v = Values::new();
    v.insert("core.iteration_s.p50", median(&t.iterations_s));
    v.insert(
        "core.iteration_s.tail",
        tail_percentile(t.iterations_s.len())
            .map_or(0.0, |p| crate::stats::percentile(&t.iterations_s, p)),
    );
    v.insert("core.sampling_s", phase("sampling"));
    v.insert("surrogate.gp_fit_s", phase("gp_fit"));
    v.insert("surrogate.acquisition_s", phase("acquisition"));
    v.insert("surrogate.gp_fits", count("gp_fits"));
    v.insert(
        "surrogate.gp_fits_incremental",
        count("gp_fits_incremental"),
    );
    v.insert("search.mapping_search_s", t.mapping_busy_s);
    v.insert("search.mapping_busy_ratio", t.mapping_busy_s / r.wall_s);
    v.insert("search.threads_seen", t.threads_seen as f64);
    v.insert("search.hw_evals", count("hw_evals"));
    v.insert("search.hw_proposals", t.hw_proposals as f64);
    v.insert("search.hw_propose_s", t.hw_propose_s);
    v.insert("search.sh_rounds", count("sh_rounds"));
    v.insert("search.engine_jobs", count("engine_jobs"));
    v.insert(
        "search.engine_threads_spawned",
        count("engine_threads_spawned"),
    );
    v.insert("mapping.run_until_calls", t.run_until_calls as f64);
    v.insert("mapping.run_until_s", t.run_until_s);
    v.insert("mapping.self_s", t.mapping_self_s);
    v.insert("mapping.evals", t.mapping_evals as f64);
    v.insert("fusion.groups_tried", count("fusion_groups_tried"));
    v.insert("fusion.groups_accepted", count("fusion_groups_accepted"));
    let candidates = (t.assess_calls + t.batch_rows) as f64;
    let ns_per = if candidates > 0.0 {
        t.eval_s * 1e9 / candidates
    } else {
        0.0
    };
    let (hits, misses) = (count("cache_hits"), count("cache_misses"));
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    if o == Offline::AscendPaper {
        v.insert("camodel.assess_calls", candidates);
        v.insert("camodel.eval_s", t.eval_s);
        v.insert("camodel.eval_ns_per_candidate", ns_per);
        v.insert("camodel.cache_hit_ratio", hit_ratio);
    } else {
        v.insert("model.assess_calls", t.assess_calls as f64);
        v.insert("model.assess_batch_calls", t.assess_batch_calls as f64);
        v.insert("model.batch_rows", t.batch_rows as f64);
        v.insert("model.eval_s", t.eval_s);
        v.insert("model.eval_ns_per_candidate", ns_per);
        v.insert("model.cache_hits", hits);
        v.insert("model.cache_misses", misses);
        v.insert("model.cache_hit_ratio", hit_ratio);
        v.insert("model.cache_entries", count("cache_entries"));
        v.insert("model.cache_batch_lookups", count("cache_batch_lookups"));
    }
    v
}

/// Key-wise mean over several value sets.
fn mean_values(sets: &[Values]) -> Values {
    let mut out = Values::new();
    for set in sets {
        for (k, v) in set {
            *out.entry(k).or_insert(0.0) += v / sets.len() as f64;
        }
    }
    out
}

/// The served loop: one closed-loop measurement on a fresh daemon. Its
/// spans are client-side and always recorded, so the traced run measures
/// the same loop and only reports different metrics;
/// `bench.trace_overhead_ratio` is 1 by construction. Each measurement
/// completes at least 200 jobs, so `p95` leaves ten beyond it.
pub fn run_served(seed: u64, seconds: f64, trace: bool, state_root: &Path) -> Outcome {
    let mut out = Outcome::default();
    let cfg = MixConfig {
        min_seconds: seconds.min(MAX_RUN_S),
        min_jobs: 200,
        max_seconds: MAX_RUN_S,
    };
    let run = match served::run_mix(seed, &cfg, state_root) {
        Ok(r) => r,
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.errors.push(e);
            return out;
        }
    };
    out.attempted = run.attempted;
    out.failed = run.failed + u64::from(!run.exposition_ok);
    out.errors.extend(run.first_error.clone());
    out.correct = out.failed == 0;
    let latencies: Vec<f64> = run.jobs.iter().map(|j| j.latency_s).collect();
    let job_p50 = median(&latencies);
    if trace {
        out.values = served_layer_values(&run);
        out.values.insert("bench.trace_overhead_ratio", 1.0);
    } else {
        out.values.insert("setup_s", run.setup_s);
        out.values.insert("wall_s", job_p50);
        out.values
            .insert("ops_per_s", run.jobs.len() as f64 / run.measured_s);
        out.values.insert("peak_rss_mb", crate::host::peak_rss_mb());
        out.values.insert("front_hv", run.front_hv);
    }
    let p95 = checked_percentile(&latencies, 95);
    out.detail.push((
        "setup_sample_means".into(),
        number_list(&run.setup_sample_means),
    ));
    out.detail
        .push(("jobs_completed".into(), run.jobs.len().to_string()));
    out.detail.push((
        "jobs_per_s".into(),
        crate::metrics::number(run.jobs.len() as f64 / run.measured_s),
    ));
    out.detail
        .push(("job_p50_s".into(), crate::metrics::number(job_p50)));
    out.detail.push((
        "job_p95_s".into(),
        p95.map_or("null".to_string(), crate::metrics::number),
    ));
    out.detail.push(("refused".into(), run.refused.to_string()));
    out.detail.push((
        "knee_latency_ms".into(),
        crate::metrics::number(run.knee_latency_ms),
    ));
    out.detail.push((
        "seed_pool".into(),
        format!(
            "{:?}",
            (0..served::SEED_POOL)
                .map(|k| served::pool_seed(seed, k))
                .collect::<Vec<_>>()
        ),
    ));
    out.detail.push((
        "cache".into(),
        format!(
            "{{\"hits\":{},\"misses\":{}}}",
            run.cache_hits, run.cache_misses
        ),
    ));
    let counters: Vec<String> = run
        .search_counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    out.detail.push((
        "search_counters".into(),
        format!("{{{}}}", counters.join(",")),
    ));
    out
}

fn served_layer_values(r: &MixRun) -> Values {
    let col = |f: &dyn Fn(&served::JobSample) -> Option<f64>| -> Vec<f64> {
        r.jobs.iter().filter_map(f).collect()
    };
    let latency = col(&|j| Some(j.latency_s));
    let submit = col(&|j| Some(j.submit_rtt_s));
    let counter = |k: &str| r.search_counters.get(k).copied().unwrap_or(0) as f64;
    let lookups = (r.cache_hits + r.cache_misses) as f64;
    let mut v = Values::new();
    v.insert("workloads.setup_s", r.setup_s);
    v.insert("serve.jobs", r.jobs.len() as f64);
    v.insert(
        "serve.job_s.p95",
        checked_percentile(&latency, 95).unwrap_or(0.0),
    );
    v.insert("serve.submit_rtt_s.p50", median(&submit));
    v.insert(
        "serve.submit_rtt_s.p95",
        checked_percentile(&submit, 95).unwrap_or(0.0),
    );
    v.insert(
        "serve.status_rtt_s.p50",
        median(&col(&|j| Some(j.status_rtt_s))),
    );
    v.insert(
        "serve.first_event_s.p50",
        median(&col(&|j| j.first_event_s)),
    );
    v.insert(
        "serve.in_job_search_s.p50",
        median(&col(&|j| Some(j.in_job_search_s))),
    );
    v.insert(
        "serve.outside_search_s.p50",
        median(&col(&|j| Some(j.latency_s - j.in_job_search_s))),
    );
    v.insert("serve.checkpoints_written", counter("checkpoints_written"));
    v.insert("serve.refused", r.refused as f64);
    v.insert(
        "serve.cache_hit_ratio",
        if lookups > 0.0 {
            r.cache_hits as f64 / lookups
        } else {
            0.0
        },
    );
    v.insert("fusion.groups_tried", counter("fusion_groups_tried"));
    v.insert("fusion.groups_accepted", counter("fusion_groups_accepted"));
    v
}
