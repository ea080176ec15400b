//! End-to-end co-search benchmark for the UNICO workspace.
//!
//! Four workloads, each run in its own process by the `cosearch-bench`
//! binary: three offline co-searches ([`offline`]) and a closed-loop job
//! mix against an in-process `unico-served` daemon ([`served`]). Every
//! span is recorded from benchmark code around calls into the crates'
//! public APIs ([`trace`]); nothing inside the library is instrumented
//! for the benchmark. See `README.md` in this directory for the
//! workloads, metrics and how to run them.

pub mod host;
pub mod metrics;
pub mod offline;
pub mod runner;
pub mod served;
pub mod stats;
pub mod trace;

/// Worker threads every workload uses: the UNICO mapping engine width,
/// the baselines' cost-accounting width, and the daemon's job workers.
pub const WORKERS: u32 = 2;
