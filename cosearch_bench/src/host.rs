//! Run environment: the `UNICO_*` guard, the host fingerprint and the
//! process's peak resident memory.

use std::path::Path;
use std::process::Command;

/// Fails when any `UNICO_*` variable is set. The library reads several
/// (`UNICO_RESUME`, `UNICO_CHECKPOINT*`, `UNICO_BATCH_EVAL`,
/// `UNICO_SERVE_*`, `UNICO_CLUSTER_*`), and any of them would make the
/// benchmark silently measure a different code path.
pub fn guard_env() -> Result<(), String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("UNICO_"))
        .collect();
    if set.is_empty() {
        return Ok(());
    }
    set.sort();
    Err(format!(
        "refusing to run with {} set: it changes the code path being measured; unset it",
        set.join(", ")
    ))
}

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD` of the source tree, when it is a git checkout.
    pub git_rev: String,
}

impl Fingerprint {
    /// Probes the current host.
    pub fn probe() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let git_rev = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
            git_rev,
        }
    }

    /// Renders the fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        use unico_serve::json::escape;
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"git_rev\":{}}}",
            self.nproc,
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.git_rev)
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
