//! `serve_overlap`: closed-loop sweep traffic against an in-process
//! `CampaignServer` (2 workers, disk cache on).
//!
//! Set-up starts the daemon on a fresh data directory and warms a
//! universe of 120 cells: the memory suite × {ooo, rar} × four seeds drawn
//! from the run seed, at 2000 + 300 instructions. Two clients then submit
//! jobs of 2 workloads × {ooo, rar} × 1 seed, each waiting through
//! `ServeClient::wait_for_job` (the `submit --wait` path) and fetching the
//! job's results. Every 10th job of each client uses a fresh seed both
//! clients share, which exercises cache misses, cache writes and
//! single-flight dedup. Every result must be byte-identical to a direct
//! `SweepSession` run of the same cell.

use crate::common::{
    derive_seed, median, peak_rss_mb, percentile, prom_value, timed_setup, write_chrome_trace, Ctx,
    Report, Tracer,
};
use crate::layers;
use rar_core::Technique;
use rar_serve::jobs::{field, u64_field};
use rar_serve::{CampaignServer, ServeClient, ServeOptions, SweepJob};
use rar_sim::{json, DiskCache, SimConfig, SimResult, SweepSession};
use rar_telemetry::SpanId;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const INSTRUCTIONS: u64 = 2_000;
const WARMUP: u64 = 300;
const UNIVERSE_SEEDS: usize = 4;
const CLIENTS: usize = 2;
/// Jobs per client in the traced run (≥200 jobs in all).
const TRACED_JOBS: usize = 100;
const WAIT: Duration = Duration::from_secs(120);

/// A running daemon, stopped when dropped.
struct Daemon {
    server: Option<CampaignServer>,
    addr: String,
    data_dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.stop();
        }
    }
}

fn sweep(workloads: &[&str], seeds: &[u64]) -> SweepJob {
    SweepJob {
        workloads: workloads.iter().map(|&w| w.to_owned()).collect(),
        techniques: vec![Technique::Ooo, Technique::Rar],
        seeds: seeds.to_vec(),
        instructions: INSTRUCTIONS,
        warmup: WARMUP,
    }
}

fn spec_json(job: &SweepJob) -> String {
    rar_serve::JobSpec {
        priority: 0,
        kind: rar_serve::JobKind::Sweep(job.clone()),
    }
    .to_json()
}

fn universe(seed: u64) -> Vec<u64> {
    (0..UNIVERSE_SEEDS)
        .map(|i| derive_seed(seed, &format!("serve_overlap/universe{i}")))
        .collect()
}

/// Submits `job` and waits for it the way `submit --wait` does; returns
/// the job id once it completed.
fn submit_and_wait(client: &ServeClient, job: &SweepJob) -> Result<u64, String> {
    let resp = client
        .request("POST", "/v1/jobs", &spec_json(job))
        .map_err(|e| format!("submit: {e}"))?;
    if !resp.ok() {
        return Err(format!("submit: HTTP {}", resp.status));
    }
    let id = u64_field(&resp.body, "id")?.ok_or("submit: no id")?;
    let status = client
        .wait_for_job(id, WAIT)
        .map_err(|e| format!("wait: {e}"))?;
    match field(&status.body, "status") {
        Some("completed") => Ok(id),
        other => Err(format!("job {id} ended {other:?}")),
    }
}

/// Daemon start plus universe warm-up.
fn start(ctx: &Ctx, n: usize) -> Daemon {
    let data_dir = ctx.fresh_dir(&format!("daemon{n}"));
    let server = CampaignServer::start(ServeOptions {
        data_dir: data_dir.clone(),
        workers: 2,
        cache: true,
        ..ServeOptions::default()
    })
    .expect("daemon starts");
    let addr = server.addr().to_string();
    let daemon = Daemon {
        server: Some(server),
        addr,
        data_dir,
    };
    let warm = sweep(rar_workloads::memory_intensive(), &universe(ctx.seed));
    submit_and_wait(&ServeClient::new(daemon.addr.clone()), &warm).expect("universe warms");
    daemon
}

/// The `j`-th job of client `c` in pass `pass`.
fn pick(seed: u64, universe: &[u64], pass: usize, c: usize, j: usize) -> SweepJob {
    let suite = rar_workloads::memory_intensive();
    let n = suite.len() as u64;
    let (r, cell_seed) = if j % 10 == 9 {
        let f = derive_seed(seed, &format!("serve_overlap/pass{pass}/fresh{}", j / 10));
        (f, f)
    } else {
        let r = derive_seed(seed, &format!("serve_overlap/pass{pass}/client{c}/job{j}"));
        (r, universe[((r >> 40) % universe.len() as u64) as usize])
    };
    let a = r % n;
    let b = (a + 1 + (r >> 8) % (n - 1)) % n;
    sweep(&[suite[a as usize], suite[b as usize]], &[cell_seed])
}

/// Everything the clients observed.
#[derive(Default)]
struct Traffic {
    latencies_ms: Vec<f64>,
    /// `(cfg, document)` for every fetched result.
    docs: Vec<(SimConfig, String)>,
    jobs: u64,
    failed: u64,
    notify_lag_ms: Vec<f64>,
    status_ms: Vec<f64>,
}

/// The daemon's own submit-to-terminal time for a job, in ms: the
/// duration of the `request` span in the job's Chrome trace (the span
/// opens when the submission is accepted and closes as the job turns
/// terminal).
fn daemon_span_ms(trace: &str) -> Option<f64> {
    let at = trace.find("\"name\":\"request\"")?;
    let rest = &trace[at..];
    let dur = &rest[rest.find("\"dur\":")? + 6..];
    let end = dur.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    dur[..end].parse::<f64>().ok().map(|us| us / 1e3)
}

/// One client's closed loop: jobs until `deadline` or `limit` jobs.
///
/// In the traced run, after each job (outside its latency) the client
/// times one status request and reads the job's trace from the daemon;
/// the notify lag is the client-seen latency minus the daemon's own
/// submit-to-terminal span. A concurrent fast status poll would shift
/// the very race it is meant to observe, so the lag is read afterwards.
fn client_loop(
    ctx: &Ctx,
    daemon: &Daemon,
    pass: usize,
    c: usize,
    deadline: Option<Instant>,
    limit: usize,
    tracer: &Tracer,
) -> Traffic {
    let client = ServeClient::new(daemon.addr.clone());
    let universe = universe(ctx.seed);
    let mut out = Traffic::default();
    for j in 0..limit {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let job = pick(ctx.seed, &universe, pass, c, j);
        out.jobs += 1;
        let root = tracer.start("serve.job", SpanId::NONE);
        let t0 = Instant::now();
        let fetched = (|| {
            let resp = tracer.span("serve.submit", root, |_| {
                client.request("POST", "/v1/jobs", &spec_json(&job))
            });
            let id = match resp {
                Ok(r) if r.ok() => u64_field(&r.body, "id")?.ok_or("submit: no id")?,
                Ok(r) => return Err(format!("submit: HTTP {}", r.status)),
                Err(e) => return Err(format!("submit: {e}")),
            };
            let status = tracer.span("serve.wait", root, |_| client.wait_for_job(id, WAIT));
            let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            match status.map(|r| field(&r.body, "status").map(str::to_owned)) {
                Ok(Some(s)) if s == "completed" => {}
                other => return Err(format!("job {id} ended {other:?}")),
            }
            out.latencies_ms.push(latency_ms);
            let mut docs = Vec::new();
            for (i, cfg) in job.configs().into_iter().enumerate() {
                let path = format!("/v1/jobs/{id}/results/{i}");
                let resp = tracer.span("serve.result", root, |_| client.request("GET", &path, ""));
                match resp {
                    Ok(r) if r.ok() => docs.push((cfg, r.body)),
                    Ok(r) => return Err(format!("result {i} of job {id}: HTTP {}", r.status)),
                    Err(e) => return Err(format!("result {i} of job {id}: {e}")),
                }
            }
            if tracer.log.is_some() {
                let t = Instant::now();
                let path = format!("/v1/jobs/{id}");
                let _ = tracer.span("serve.status", root, |_| client.request("GET", &path, ""));
                out.status_ms.push(t.elapsed().as_secs_f64() * 1e3);
                let trace = tracer.span("serve.trace", root, |_| {
                    client.request("GET", &format!("/v1/jobs/{id}/trace"), "")
                });
                match trace.ok().and_then(|r| daemon_span_ms(&r.body)) {
                    Some(daemon_ms) => out.notify_lag_ms.push(latency_ms - daemon_ms),
                    None => return Err(format!("job {id}: no request span in its trace")),
                }
            }
            Ok(docs)
        })();
        tracer.finish(root);
        match fetched {
            Ok(docs) => out.docs.extend(docs),
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: {e}");
            }
        }
    }
    out
}

/// Both clients concurrently.
fn traffic(
    ctx: &Ctx,
    daemon: &Daemon,
    pass: usize,
    deadline: Option<Instant>,
    limit: usize,
    tracer: &Tracer,
) -> Traffic {
    let all = Mutex::new(Traffic::default());
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let all = &all;
            s.spawn(move || {
                let t = client_loop(ctx, daemon, pass, c, deadline, limit, tracer);
                let mut a = all.lock().expect("traffic lock");
                a.latencies_ms.extend(t.latencies_ms);
                a.docs.extend(t.docs);
                a.jobs += t.jobs;
                a.failed += t.failed;
                a.notify_lag_ms.extend(t.notify_lag_ms);
                a.status_ms.extend(t.status_ms);
            });
        }
    });
    all.into_inner().expect("traffic lock")
}

/// Runs every distinct served cell directly (one `SweepSession::run`
/// each, in a `sweep.cell` span) and checks each served document against
/// it byte for byte. Returns the direct results by fingerprint.
fn oracle(
    traffic: &[&Traffic],
    tracer: &Tracer,
    report: &mut Report,
) -> HashMap<String, SimResult> {
    let session = SweepSession::new().threads(1);
    let mut direct: HashMap<String, (String, SimResult)> = HashMap::new();
    let mut mismatched = 0u64;
    for (cfg, doc) in traffic.iter().flat_map(|t| &t.docs) {
        let key = cfg.fingerprint();
        if !direct.contains_key(&key) {
            match tracer.span("sweep.cell", SpanId::NONE, |_| session.run(cfg)) {
                Ok(r) => {
                    direct.insert(key.clone(), (json::to_json_for(cfg, &r), r));
                }
                Err(e) => {
                    report.check(false, || {
                        format!("direct run of {}/{}: {e}", cfg.workload, cfg.technique)
                    });
                    continue;
                }
            }
        }
        if direct[&key].0 != *doc {
            mismatched += 1;
        }
    }
    report.failed += mismatched;
    report.check(mismatched == 0, || {
        format!("{mismatched} served results differ from direct runs")
    });
    eprintln!(
        "perfbench: serve_overlap: {} jobs, {} results, {} distinct cells checked against direct runs",
        traffic.iter().map(|t| t.jobs).sum::<u64>(),
        traffic.iter().map(|t| t.docs.len()).sum::<usize>(),
        direct.len()
    );
    direct.into_iter().map(|(k, (_, r))| (k, r)).collect()
}

/// Kilo-instructions committed in a result document, warm-up included.
fn kinst(doc: &str) -> f64 {
    let committed = doc
        .split("\"committed\": ")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    (committed + WARMUP) as f64 / 1e3
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mut n = 0;
    let (setup_s, daemon) = timed_setup(3, || {
        n += 1;
        start(ctx, n)
    });
    if ctx.trace {
        return traced(ctx, &daemon, report);
    }
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let t = traffic(
        ctx,
        &daemon,
        0,
        Some(deadline),
        usize::MAX,
        &Tracer::new(false),
    );
    let elapsed = start.elapsed().as_secs_f64();
    // The workload's peak, before the checks below grow the process.
    let rss = peak_rss_mb();
    drop(daemon);
    report.attempted = t.jobs;
    report.failed = t.failed;
    oracle(&[&t], &Tracer::new(false), &mut report);
    report.metric("setup_s", setup_s, "s");
    report.metric(
        "sim_kips",
        t.docs.iter().map(|(_, d)| kinst(d)).sum::<f64>() / elapsed,
        "kinst/s",
    );
    report.metric("ops_per_s", t.latencies_ms.len() as f64 / elapsed, "1/s");
    report.metric("peak_rss_mb", rss, "MiB");
    report
}

fn scrape(daemon: &Daemon) -> String {
    ServeClient::new(daemon.addr.clone())
        .request("GET", "/metrics", "")
        .map(|r| r.body)
        .unwrap_or_default()
}

/// A fixed number of jobs untraced, as many traced (each followed by a
/// timed status request and a read of its daemon-side trace), then the
/// cache and layer probes.
fn traced(ctx: &Ctx, daemon: &Daemon, mut report: Report) -> Report {
    let t0 = Instant::now();
    let plain = traffic(ctx, daemon, 1, None, TRACED_JOBS, &Tracer::new(false));
    let plain_s = t0.elapsed().as_secs_f64();
    let before = scrape(daemon);
    let tracer = Tracer::new(true);
    let t0 = Instant::now();
    let t = traffic(ctx, daemon, 2, None, TRACED_JOBS, &tracer);
    let traced_s = t0.elapsed().as_secs_f64();
    let after = scrape(daemon);
    report.attempted = plain.jobs + t.jobs;
    report.failed = plain.failed + t.failed;
    let expected = oracle(&[&plain, &t], &tracer, &mut report);

    let spans = tracer.spans();
    let span_ms = |name: &str| median(&crate::common::durations_ms(&spans, name));
    report.metric("serve.submit_ms", span_ms("serve.submit"), "ms");
    report.metric("serve.status_ms", median(&t.status_ms), "ms");
    report.metric("serve.result_ms", span_ms("serve.result"), "ms");
    let delta = |name: &str| prom_value(&after, name) - prom_value(&before, name);
    report.metric(
        "serve.dedup_waits",
        delta("rar_sweep_inflight_waits_total"),
        "count",
    );
    // Job latency is bimodal (a job that turns terminal before the
    // client's first poll returns at once, any other waits out the 50 ms
    // poll), so the lag's share is taken over summed time, not medians.
    let lag = median(&t.notify_lag_ms);
    let share = t.notify_lag_ms.iter().sum::<f64>() / t.latencies_ms.iter().sum::<f64>();
    report.metric("serve.notify_lag_ms", lag, "ms");
    report.metric("serve.notify_lag_share", share, "ratio");
    report.metric("serve.job_p50_ms", median(&plain.latencies_ms), "ms");
    report.metric(
        "serve.job_p95_ms",
        percentile(&plain.latencies_ms, 95.0),
        "ms",
    );
    let hits = delta("rar_sweep_cache_hits_total");
    let simulated = delta("rar_sweep_cells_simulated_total");
    report.metric(
        "cache.hit_rate",
        hits / (hits + simulated).max(1.0),
        "ratio",
    );
    let cells = crate::common::durations_ms(&spans, "sweep.cell");
    report.metric("sweep.cell_p50_ms", median(&cells), "ms");
    report.metric("sweep.cell_p85_ms", percentile(&cells, 85.0), "ms");
    report.metric("sweep.cell_max_ms", percentile(&cells, 100.0), "ms");
    report.metric("bench.trace_overhead", traced_s / plain_s - 1.0, "ratio");
    report.metric("bench.traced_ops", t.jobs as f64, "count");
    eprintln!(
        "perfbench: job p50 {:.3} ms untraced, {:.3} ms traced; notify lag p50 {lag:.3} ms",
        median(&plain.latencies_ms),
        median(&t.latencies_ms)
    );

    let mut cfgs: Vec<SimConfig> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (cfg, _) in &t.docs {
        if seen.insert(cfg.fingerprint()) {
            cfgs.push(cfg.clone());
        }
    }
    cache_probe(ctx, daemon, &cfgs, &mut report);
    layers::probe(&mut report, &tracer, &cfgs, &expected);
    write_chrome_trace(ctx, &tracer.spans());
    report
}

/// `DiskCache::try_load` over the daemon's cache for every served cell,
/// and `DiskCache::store` of each loaded result into a fresh cache.
fn cache_probe(ctx: &Ctx, daemon: &Daemon, cfgs: &[SimConfig], report: &mut Report) {
    let live = DiskCache::new(daemon.data_dir.join("cache"));
    let fresh = DiskCache::new(ctx.fresh_dir("cache-probe"));
    let (mut load_us, mut store_us) = (Vec::new(), Vec::new());
    for cfg in cfgs {
        let t = Instant::now();
        let loaded = live.try_load(cfg);
        load_us.push(t.elapsed().as_secs_f64() * 1e6);
        let Ok(Some(r)) = loaded else {
            report.check(false, || {
                format!(
                    "served cell {}/{} is not cached",
                    cfg.workload, cfg.technique
                )
            });
            continue;
        };
        let t = Instant::now();
        let stored = fresh.store(cfg, &r);
        store_us.push(t.elapsed().as_secs_f64() * 1e6);
        report.check(stored.is_ok(), || "cache store failed".to_owned());
    }
    report.metric("cache.load_us", median(&load_us), "us");
    report.metric("cache.store_us", median(&store_us), "us");
}
