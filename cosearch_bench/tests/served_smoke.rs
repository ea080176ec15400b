//! A handful of closed-loop jobs against an in-process daemon complete
//! with zero failures, repeat identically, and leave a valid `/metrics`.

use std::path::Path;

use unico_cosearch_bench::served::{run_mix, MixConfig, KINDS, SEED_POOL};

#[test]
fn a_tiny_served_mix_completes_without_failures() {
    let cfg = MixConfig {
        min_seconds: 0.0,
        min_jobs: 2 * KINDS.len() * SEED_POOL,
        max_seconds: 120.0,
    };
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("served-smoke");
    let run = run_mix(3, &cfg, &root).expect("daemon boots");
    assert_eq!(run.failed, 0, "{:?}", run.first_error);
    assert_eq!(run.refused, 0);
    assert_eq!(run.nondeterministic, 0);
    assert!(run.exposition_ok, "{:?}", run.first_error);
    assert!(run.jobs.len() >= cfg.min_jobs);
    assert!(run.front_hv > 0.0);
    assert!(run.setup_s > 0.0);
    assert!(run.jobs.iter().all(|j| j.first_event_s.is_some()));
    assert!(
        run.search_counters
            .get("checkpoints_written")
            .copied()
            .unwrap_or(0)
            > 0
    );
    assert!(
        run.search_counters
            .get("frontend_ops_lowered")
            .copied()
            .unwrap_or(0)
            > 0
    );
}
