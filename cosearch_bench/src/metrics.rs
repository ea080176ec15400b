//! Metric names, units, and the result line the benchmark prints last.
//!
//! Every workload reports every metric of the set its mode prints
//! (end-to-end with tracing off, per-layer with it on); a per-layer
//! metric of a layer the workload does not run reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("front_hv", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("workloads.setup_s", "s"),
    ("core.iteration_s.p50", "s"),
    ("core.iteration_s.tail", "s"),
    ("core.sampling_s", "s"),
    ("surrogate.gp_fit_s", "s"),
    ("surrogate.acquisition_s", "s"),
    ("surrogate.gp_fits", "count"),
    ("surrogate.gp_fits_incremental", "count"),
    ("search.mapping_search_s", "s"),
    ("search.mapping_busy_ratio", "ratio"),
    ("search.threads_seen", "count"),
    ("search.hw_evals", "count"),
    ("search.hw_proposals", "count"),
    ("search.hw_propose_s", "s"),
    ("search.sh_rounds", "count"),
    ("search.engine_jobs", "count"),
    ("search.engine_threads_spawned", "count"),
    ("mapping.run_until_calls", "count"),
    ("mapping.run_until_s", "s"),
    ("mapping.self_s", "s"),
    ("mapping.evals", "count"),
    ("model.assess_calls", "count"),
    ("model.assess_batch_calls", "count"),
    ("model.batch_rows", "count"),
    ("model.eval_s", "s"),
    ("model.eval_ns_per_candidate", "ns"),
    ("model.cache_hits", "count"),
    ("model.cache_misses", "count"),
    ("model.cache_hit_ratio", "ratio"),
    ("model.cache_entries", "count"),
    ("model.cache_batch_lookups", "count"),
    ("camodel.assess_calls", "count"),
    ("camodel.eval_s", "s"),
    ("camodel.eval_ns_per_candidate", "ns"),
    ("camodel.cache_hit_ratio", "ratio"),
    ("serve.jobs", "count"),
    ("serve.job_s.p95", "s"),
    ("serve.submit_rtt_s.p50", "s"),
    ("serve.submit_rtt_s.p95", "s"),
    ("serve.status_rtt_s.p50", "s"),
    ("serve.first_event_s.p50", "s"),
    ("serve.in_job_search_s.p50", "s"),
    ("serve.outside_search_s.p50", "s"),
    ("serve.checkpoints_written", "count"),
    ("serve.refused", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("fusion.groups_tried", "count"),
    ("fusion.groups_accepted", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the final result line over `table`, reading each metric from
/// `values` (absent ones read 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&'static str, &'static str)],
    values: &Values,
) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}", number(v))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted,
        fields.join(",")
    )
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, print as 0).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// A JSON array of [`number`]s.
pub fn number_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
    format!("[{}]", items.join(","))
}
