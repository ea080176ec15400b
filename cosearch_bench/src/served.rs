//! The `served_mix` workload: an in-process `unico-served` daemon on
//! loopback, driven by closed-loop clients over its HTTP API.
//!
//! Each client submits a job, follows its NDJSON event stream to the
//! `done` line, confirms the status document says `completed`, and only
//! then submits the next job. Jobs rotate through three small specs and
//! draw seeds from a small pool, so identical jobs recur and share the
//! daemon's evaluation cache.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use unico_model::EvalCache;
use unico_serve::json::{self, Json};
use unico_serve::{client, metrics, Scheduler, ServeConfig, Server};

use crate::stats::{sample_means, RefBox};

/// The inline graph the third spec submits (frontend + fusion path).
pub const TINY_CNN_GRAPH: &str = include_str!("../../tests/fixtures/tiny_cnn.graph.json");

/// The three job specs the clients rotate through.
pub const KINDS: [&str; 3] = ["edge_mobilenet", "ascend_unet", "edge_tiny_cnn_graph"];

/// Distinct seeds per spec kind.
pub const SEED_POOL: usize = 4;

/// Closed-loop clients (one thread and one connection at a time each).
pub const CLIENTS: usize = 2;

/// Read/write timeout on every client socket.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Daemon boots averaged into one `setup_s` sample (about 0.1 ms each,
/// so a sample spans milliseconds).
pub const BOOTS_PER_SAMPLE: usize = 40;

/// How long one closed-loop measurement runs.
#[derive(Debug, Clone, Copy)]
pub struct MixConfig {
    /// Measure at least this long...
    pub min_seconds: f64,
    /// ...and until at least this many jobs completed...
    pub min_jobs: usize,
    /// ...but never longer than this.
    pub max_seconds: f64,
}

/// One job's client-side timings.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// Spec kind (index into [`KINDS`]).
    pub kind: usize,
    /// Seed the job ran with.
    pub seed: u64,
    /// Job id the daemon assigned.
    pub id: String,
    /// Submit sent → `done` event read, seconds.
    pub latency_s: f64,
    /// `POST /v1/jobs` round trip.
    pub submit_rtt_s: f64,
    /// `GET /v1/jobs/{id}` round trip.
    pub status_rtt_s: f64,
    /// Submit sent → first `iteration` event read.
    pub first_event_s: Option<f64>,
    /// Search seconds the job's iteration events report (`sampling` +
    /// `mapping_search` phase deltas).
    pub in_job_search_s: f64,
}

/// Everything one closed-loop measurement produced.
#[derive(Debug, Clone, Default)]
pub struct MixRun {
    /// Daemon boot seconds (state scan, scheduler, listener): the median
    /// of `setup_sample_means`.
    pub setup_s: f64,
    /// Mean boot seconds of each batch of boots, in order.
    pub setup_sample_means: Vec<f64>,
    /// Seconds from the first submit to the last `done`.
    pub measured_s: f64,
    /// Jobs that completed and passed every check.
    pub jobs: Vec<JobSample>,
    /// Submits attempted.
    pub attempted: u64,
    /// Failed operations: refused submits, jobs not `completed`,
    /// transport errors, outcome mismatches.
    pub failed: u64,
    /// Non-2xx submits (429 included).
    pub refused: u64,
    /// Repeated identical jobs whose deterministic outcomes differed.
    pub nondeterministic: u64,
    /// Whether the final `/metrics` scrape validated.
    pub exposition_ok: bool,
    /// Search counters from the final `/metrics` scrape.
    pub search_counters: BTreeMap<String, u64>,
    /// Shared cache hits / misses from the final scrape.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// Mean normalised front hypervolume over distinct jobs.
    pub front_hv: f64,
    /// Mean knee latency (ms) over distinct jobs.
    pub knee_latency_ms: f64,
    /// First failure message, for the log.
    pub first_error: Option<String>,
}

/// The `k`th pool seed for a benchmark seed (SplitMix64 finaliser, so
/// nearby benchmark seeds give unrelated pools).
pub fn pool_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % 1_000_000
}

/// The spec body for job kind `kind` with `seed`.
pub fn spec_json(kind: usize, seed: u64) -> String {
    let common = format!(
        "\"max_iter\":4,\"batch\":8,\"b_max\":64,\"engine_workers\":{},\"seed\":{seed}",
        crate::WORKERS
    );
    match kind {
        0 => format!(
            "{{\"platform\":\"spatial-edge\",\"workloads\":[\"mobilenet\"],\"power_cap_mw\":2000,{common}}}"
        ),
        1 => format!(
            "{{\"platform\":\"ascend-like\",\"workloads\":[\"unet\"],\"area_cap_mm2\":200,{common}}}"
        ),
        _ => format!(
            "{{\"platform\":\"spatial-edge\",\"graph\":{},\"max_layers_per_network\":4,\"power_cap_mw\":2000,{common}}}",
            json::escape(TINY_CNN_GRAPH)
        ),
    }
}

/// The box a kind's fronts are normalised in (`latency s, power mW,
/// area mm²`); fixed constants of the benchmark.
pub fn ref_box(kind: usize) -> RefBox {
    match kind {
        1 => RefBox {
            lo: [0.0, 0.0, 0.0],
            hi: [0.05, 20000.0, 200.0],
        },
        _ => RefBox {
            lo: [0.0, 0.0, 0.0],
            hi: [0.01, 2000.0, 4.0],
        },
    }
}

/// A daemon booted in-process.
struct Daemon {
    server: Server,
    sched: Arc<Scheduler>,
    addr: SocketAddr,
    state_dir: PathBuf,
}

impl Daemon {
    /// Boots over `state_dir` as it is (created when missing).
    fn boot(state_dir: PathBuf) -> std::io::Result<Self> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: crate::WORKERS as usize,
            state_dir: state_dir.clone(),
            ..ServeConfig::default()
        };
        let sched = Scheduler::start(&cfg, Arc::new(EvalCache::new()))?;
        let server = Server::serve(&cfg, Arc::clone(&sched))?;
        let addr = server.addr();
        Ok(Daemon {
            server,
            sched,
            addr,
            state_dir,
        })
    }

    /// Stops the daemon and removes its state directory.
    fn shutdown(self) {
        std::fs::remove_dir_all(self.stop()).ok();
    }

    /// Stops the daemon, keeping its state directory (returned).
    fn stop(self) -> PathBuf {
        self.server.shutdown();
        self.sched.shutdown();
        self.state_dir
    }
}

/// Times the daemon boot (see [`sample_means`]), then runs the closed
/// loop with `seed` under `cfg` on a fresh daemon, using `state_root`
/// for daemon state (removed afterwards).
///
/// Every timed boot reuses one empty state directory, so the timing
/// covers the daemon's own start-up (state scan, scheduler, workers,
/// listener) rather than the latency of creating and deleting a
/// directory on the host's disk, which swings several-fold with other
/// disk traffic.
///
/// # Errors
///
/// A daemon that fails to boot.
pub fn run_mix(seed: u64, cfg: &MixConfig, state_root: &Path) -> Result<MixRun, String> {
    let dir = |tag: &str| {
        let d = state_root.join(format!("served-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    };
    let boot = |d: PathBuf| Daemon::boot(d).map_err(|e| format!("daemon boot: {e}"));
    let boot_dir = dir("boot");
    let setup_sample_means = sample_means(
        crate::runner::SETUP_SAMPLES,
        BOOTS_PER_SAMPLE,
        || -> Result<f64, String> {
            let t = Instant::now();
            let d = boot(boot_dir.clone())?;
            let s = t.elapsed().as_secs_f64();
            d.stop();
            Ok(s)
        },
    );
    std::fs::remove_dir_all(&boot_dir).ok();
    let setup_sample_means = setup_sample_means?;
    let daemon = boot(dir("mix"))?;
    let mut run = drive(seed, cfg, &daemon);
    run.setup_s = crate::stats::median(&setup_sample_means);
    run.setup_sample_means = setup_sample_means;
    check_outcomes(&daemon, &mut run);
    scrape_metrics(daemon.addr, &mut run);
    daemon.shutdown();
    // Only succeeds when empty, i.e. when no other run is using it.
    std::fs::remove_dir(state_root).ok();
    Ok(run)
}

#[derive(Default)]
struct Shared {
    samples: Vec<JobSample>,
    failed: u64,
    refused: u64,
    first_error: Option<String>,
}

fn drive(seed: u64, cfg: &MixConfig, daemon: &Daemon) -> MixRun {
    let next = AtomicUsize::new(0);
    let attempted = AtomicU64::new(0);
    let completed = AtomicUsize::new(0);
    let shared = Mutex::new(Shared::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let el = start.elapsed().as_secs_f64();
                let enough =
                    el >= cfg.min_seconds && completed.load(Ordering::SeqCst) >= cfg.min_jobs;
                if enough || el >= cfg.max_seconds {
                    return;
                }
                let i = next.fetch_add(1, Ordering::SeqCst);
                let kind = i % KINDS.len();
                let job_seed = pool_seed(seed, (i / KINDS.len()) % SEED_POOL);
                attempted.fetch_add(1, Ordering::SeqCst);
                let res = one_job(daemon.addr, kind, job_seed);
                let mut sh = shared.lock().expect("sample list lock");
                match res {
                    Ok(sample) => {
                        sh.samples.push(sample);
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(JobError { refused, msg }) => {
                        sh.failed += 1;
                        sh.refused += u64::from(refused);
                        sh.first_error.get_or_insert(msg);
                    }
                }
            });
        }
    });
    let measured_s = start.elapsed().as_secs_f64();
    let sh = shared.into_inner().expect("sample list lock");
    MixRun {
        measured_s,
        jobs: sh.samples,
        attempted: attempted.load(Ordering::SeqCst),
        failed: sh.failed,
        refused: sh.refused,
        first_error: sh.first_error,
        ..MixRun::default()
    }
}

struct JobError {
    refused: bool,
    msg: String,
}

fn err(msg: impl Into<String>) -> JobError {
    JobError {
        refused: false,
        msg: msg.into(),
    }
}

fn one_job(addr: SocketAddr, kind: usize, seed: u64) -> Result<JobSample, JobError> {
    let body = spec_json(kind, seed);
    let t0 = Instant::now();
    let (status, resp) = client::post(&addr.to_string(), "/v1/jobs", &body, IO_TIMEOUT)
        .map_err(|e| err(format!("submit: {e}")))?;
    let submit_rtt_s = t0.elapsed().as_secs_f64();
    if !(200..300).contains(&status) {
        return Err(JobError {
            refused: true,
            msg: format!("submit refused with {status}: {resp}"),
        });
    }
    let id = json::parse(&resp)
        .ok()
        .and_then(|v| {
            v.get("id")
                .and_then(|j| j.as_str("id").ok().map(str::to_string))
        })
        .ok_or_else(|| err(format!("submit response without id: {resp}")))?;

    let mut first_event_s = None;
    let mut in_job_search_s = 0.0;
    let mut done_state = None;
    follow_events(addr, &id, |line| {
        let Ok(ev) = json::parse(line) else {
            return false;
        };
        match ev.get("event").and_then(|e| e.as_str("event").ok()) {
            Some("iteration") => {
                first_event_s.get_or_insert(t0.elapsed().as_secs_f64());
                in_job_search_s += search_phase_s(&ev);
                false
            }
            Some("done") => {
                done_state = ev
                    .get("state")
                    .and_then(|s| s.as_str("state").ok().map(str::to_string));
                true
            }
            _ => false,
        }
    })
    .map_err(|e| err(format!("events of {id}: {e}")))?;
    let latency_s = t0.elapsed().as_secs_f64();
    if done_state.as_deref() != Some("completed") {
        return Err(err(format!("job {id} ended {done_state:?}")));
    }

    let t1 = Instant::now();
    let (status, resp) = client::get(&addr.to_string(), &format!("/v1/jobs/{id}"), IO_TIMEOUT)
        .map_err(|e| err(format!("status of {id}: {e}")))?;
    let status_rtt_s = t1.elapsed().as_secs_f64();
    let state = json::parse(&resp).ok().and_then(|v| {
        v.get("state")
            .and_then(|s| s.as_str("state").ok().map(str::to_string))
    });
    if status != 200 || state.as_deref() != Some("completed") {
        return Err(err(format!("status of {id}: {status} state {state:?}")));
    }
    Ok(JobSample {
        kind,
        seed,
        id,
        latency_s,
        submit_rtt_s,
        status_rtt_s,
        first_event_s,
        in_job_search_s,
    })
}

/// `sampling` + `mapping_search` seconds in an iteration event's delta
/// (the run's two top-level phases; `gp_fit` and `acquisition` are
/// nested inside `sampling`).
fn search_phase_s(ev: &Json) -> f64 {
    let Some(phases) = ev.get("delta").and_then(|d| d.get("phases_s")) else {
        return 0.0;
    };
    ["sampling", "mapping_search"]
        .iter()
        .filter_map(|k| phases.get(k).and_then(|v| v.as_f64(k).ok()))
        .sum()
}

/// Streams `GET /v1/jobs/{id}/events`, de-chunking the NDJSON body and
/// handing each line to `on_line` as it arrives, until `on_line` returns
/// `true` or the stream ends. (`client::get` reads to the end first,
/// which would hide when each event arrived.)
fn follow_events(
    addr: SocketAddr,
    id: &str,
    mut on_line: impl FnMut(&str) -> bool,
) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head =
        format!("GET /v1/jobs/{id}/events HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    let mut r = BufReader::new(stream);
    let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    let mut line = String::new();
    r.read_line(&mut line)?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(bad(format!("events: {}", line.trim())));
    }
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("events: head truncated".into()));
        }
        if line == "\r\n" {
            break;
        }
    }
    let mut pending = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(());
        }
        let size_hex = line.trim().split(';').next().unwrap_or("");
        let size = usize::from_str_radix(size_hex, 16)
            .map_err(|_| bad(format!("events: bad chunk size {size_hex:?}")))?;
        if size == 0 {
            return Ok(());
        }
        let mut chunk = vec![0u8; size + 2];
        r.read_exact(&mut chunk)?;
        chunk.truncate(size);
        pending.push_str(&String::from_utf8_lossy(&chunk));
        while let Some(nl) = pending.find('\n') {
            let ev: String = pending.drain(..=nl).collect();
            if on_line(ev.trim_end()) {
                return Ok(());
            }
        }
    }
}

/// Checks that repeated identical jobs produced identical deterministic
/// outcomes, and measures each distinct job's front.
///
/// The comparison covers the front bit patterns and the run report's
/// counters except the `cache_*` ones: jobs share the daemon's cache, so
/// a repeat of a job finds its evaluations already cached, and
/// concurrently running jobs hit each other's entries.
fn check_outcomes(daemon: &Daemon, run: &mut MixRun) {
    let mut first: BTreeMap<(usize, u64), String> = BTreeMap::new();
    let mut hv = Vec::new();
    let mut knee = Vec::new();
    let mut bad = Vec::new();
    for (i, job) in run.jobs.iter().enumerate() {
        let Some(outcome) = daemon.sched.get(&job.id).and_then(|j| j.outcome()) else {
            bad.push((i, format!("job {} has no outcome", job.id)));
            continue;
        };
        let key = deterministic_key(&outcome);
        match first.get(&(job.kind, job.seed)) {
            Some(k) if *k != key => {
                bad.push((
                    i,
                    format!("job {} differs from an identical earlier job", job.id),
                ));
            }
            Some(_) => {}
            None => {
                let front: Vec<Vec<f64>> = outcome
                    .front_bits
                    .iter()
                    .map(|row| row.iter().map(|b| f64::from_bits(*b)).collect())
                    .collect();
                let b = ref_box(job.kind);
                hv.push(b.hypervolume(&front));
                match b.knee(&front) {
                    Some(y) => knee.push(y[0] * 1e3),
                    None => bad.push((i, format!("job {} has an empty front", job.id))),
                }
                first.insert((job.kind, job.seed), key);
            }
        }
    }
    run.nondeterministic = bad.len() as u64;
    run.failed += bad.len() as u64;
    if let Some((_, msg)) = bad.first() {
        run.first_error.get_or_insert(msg.clone());
    }
    for (i, _) in bad.into_iter().rev() {
        run.jobs.remove(i);
    }
    run.front_hv = crate::stats::mean(&hv);
    run.knee_latency_ms = crate::stats::mean(&knee);
}

fn deterministic_key(outcome: &unico_serve::JobOutcome) -> String {
    let counters = json::parse(&outcome.deterministic_report_json)
        .ok()
        .and_then(|r| {
            r.get("counters").and_then(|c| {
                c.as_obj("counters").ok().map(|fields| {
                    fields
                        .iter()
                        .filter(|(k, _)| !k.starts_with("cache_"))
                        .map(|(k, v)| format!("{k}={}", v.as_u64(k).unwrap_or(u64::MAX)))
                        .collect::<Vec<_>>()
                        .join(",")
                })
            })
        })
        .unwrap_or_default();
    format!("{:?} {counters}", outcome.front_bits)
}

fn scrape_metrics(addr: SocketAddr, run: &mut MixRun) {
    let text = match client::get(&addr.to_string(), "/metrics", IO_TIMEOUT) {
        Ok((200, text)) => text,
        Ok((status, _)) => {
            run.first_error
                .get_or_insert(format!("/metrics answered {status}"));
            return;
        }
        Err(e) => {
            run.first_error.get_or_insert(format!("/metrics: {e}"));
            return;
        }
    };
    match metrics::validate_exposition(&text) {
        Ok(_) => run.exposition_ok = true,
        Err(e) => {
            run.first_error
                .get_or_insert(format!("/metrics exposition: {e}"));
        }
    }
    for l in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = l.rsplit_once(' ') else {
            continue;
        };
        let Ok(v) = value.parse::<f64>() else {
            continue;
        };
        if let Some(counter) = name
            .strip_prefix("unico_serve_search_counter_total{counter=\"")
            .and_then(|c| c.strip_suffix("\"}"))
        {
            run.search_counters.insert(counter.to_string(), v as u64);
        } else if name == "unico_serve_cache_hits_total" {
            run.cache_hits = v as u64;
        } else if name == "unico_serve_cache_misses_total" {
            run.cache_misses = v as u64;
        }
    }
}
