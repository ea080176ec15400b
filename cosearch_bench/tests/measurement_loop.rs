//! The offline measurement loop: repeats are checked against the first
//! search of their seed, and every end-to-end or per-layer metric is
//! reported. (Kept apart from the baselines' identity test, whose
//! process-wide telemetry deltas other searches would disturb.)

use unico_cosearch_bench::offline::{Offline, Sizing};
use unico_cosearch_bench::runner::run_offline;

#[test]
fn the_measurement_loop_checks_repeats_and_reports_every_metric() {
    let sz = Sizing::smoke();
    let out = run_offline(Offline::EdgePaper, &sz, 5, 0.0, false);
    assert!(out.correct, "{:?}", out.errors);
    assert_eq!(
        out.attempted, 5,
        "one search per pool seed, plus one repeat"
    );
    for (name, _) in unico_cosearch_bench::metrics::END_TO_END {
        let v = out.values.get(name).copied().unwrap_or(0.0);
        assert!(v > 0.0, "{name} = {v}");
    }
    let traced = run_offline(Offline::AscendPaper, &sz, 5, 0.0, true);
    assert!(traced.correct, "{:?}", traced.errors);
    assert!(traced.values["bench.trace_overhead_ratio"] > 0.0);
    assert!(traced.values["camodel.assess_calls"] > 0.0);
}
