//! `cosearch-bench`: runs one benchmark workload (or all of them, each
//! in its own process) and prints its metrics.
//!
//! ```text
//! cosearch-bench --workload <edge_paper|baselines_cloud|ascend_paper|served_mix|all>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The exit code is 0 when every correctness check passed, 1 when one
//! failed (the result line is still printed), and 2 on bad arguments or
//! a refused environment.

use std::path::Path;
use std::process::{Command, ExitCode};

use unico_cosearch_bench::host::{guard_env, Fingerprint};
use unico_cosearch_bench::metrics::{result_line, END_TO_END, PER_LAYER};
use unico_cosearch_bench::runner::{self, Workload, WORKLOADS};
use unico_cosearch_bench::WORKERS;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not an integer: {value}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("--seconds: not a positive integer: {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!(
            "--workload: unknown {:?} (expected one of {} or all)",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cosearch-bench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = guard_env() {
        eprintln!("cosearch-bench: {e}");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let w = Workload::parse(&args.workload).expect("workload validated by parse_args");
    let state_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("state");
    println!(
        "cosearch-bench: workload={} seed={} seconds={} trace={} workers={WORKERS}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", Fingerprint::probe().to_json());
    let out = runner::run(w, args.seed, args.seconds as f64, args.trace, &state_root);
    println!(
        "note: front quality is simulated by the repository's cost models, which are not validated against hardware; no error figure is given"
    );
    let detail: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("detail: {{{}}}", detail.join(","));
    for e in &out.errors {
        println!("error: {e}");
    }
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!(
        "{}",
        result_line(out.correct, out.attempted, out.failed, table, &out.values)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cosearch-bench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("cosearch-bench: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("cosearch-bench: {w} did not start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
