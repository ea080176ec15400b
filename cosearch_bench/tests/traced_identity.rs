//! The traced platform changes nothing: at smoke budgets, a traced
//! search reproduces the untraced one bit for bit (fronts and every work
//! count), and the spans it records are populated.
//!
//! One test runs the workloads in sequence: the baselines read their
//! counters from the process-wide telemetry, which parallel tests would
//! share.

use unico_cosearch_bench::offline::{run_once, Mode, Offline, Sizing};

#[test]
fn traced_searches_are_bit_identical_to_untraced_ones() {
    let sz = Sizing::smoke();
    for w in [
        Offline::EdgePaper,
        Offline::AscendPaper,
        Offline::BaselinesCloud,
    ] {
        let plain = run_once(w, &sz, 11, Mode::Plain);
        let traced = run_once(w, &sz, 11, Mode::Traced);
        assert!(plain.trace.is_none());
        assert_eq!(
            plain.deterministic_key(),
            traced.deterministic_key(),
            "{}: tracing changed the search",
            w.name()
        );
        assert!(!plain.fronts.iter().any(Vec::is_empty), "{}", w.name());
        let t = traced.trace.expect("traced search records spans");
        assert!(t.run_until_calls > 0, "{}", w.name());
        assert!(t.assess_calls + t.batch_rows > 0, "{}", w.name());
        assert!(t.threads_seen >= 1, "{}", w.name());
        assert!(t.mapping_self_s <= t.run_until_s, "{}", w.name());
        assert!(t.mapping_busy_s <= traced.wall_s, "{}", w.name());
        if w != Offline::BaselinesCloud {
            assert_eq!(t.iterations_s.len(), sz.max_iter, "{}", w.name());
        }
        assert_eq!(
            plain.counts.get("mapping_evals"),
            Some(&t.mapping_evals),
            "{}: span-side and program-side mapping eval counts disagree",
            w.name()
        );
    }
}
