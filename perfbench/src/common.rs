//! Shared plumbing: seeds, statistics, digests, spans, scratch space and
//! the result record every workload fills in.

use rar_telemetry::{Span, SpanId, SpanLog, SpanRecorder};
use rar_trace::chrome::{spans_to_chrome_json, SpanSlice};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Private scratch directory inside the checkout, removed at exit.
    pub scratch: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory under the scratch root.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }
}

/// Outcome of one run: operation counts, failed checks and metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold (each is also logged to stderr).
    pub check_failures: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a check; a failed one is logged and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    /// The single JSON line the run ends with.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_failures == 0 && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Deterministic sub-seed for `label` under the run seed (splitmix64 over
/// the seed mixed with an FNV-1a hash of the label), so every workload and
/// every pass draws an independent, reproducible stream from one argument.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut z = seed ^ fnv1a(label.as_bytes());
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Linear-interpolated percentile `p` (0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `n` times and returns the median duration in seconds plus
/// the last product (earlier products are dropped as they are replaced).
pub fn timed_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        let v = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Span recording from the benchmark's side of each public call. When
/// disabled, [`Tracer::span`] just calls the closure.
#[derive(Debug)]
pub struct Tracer {
    pub log: Option<Arc<SpanLog>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            log: on.then(|| Arc::new(SpanLog::new())),
        }
    }

    pub fn start(&self, name: &str, parent: SpanId) -> SpanId {
        self.log
            .as_ref()
            .map_or(SpanId::NONE, |l| l.start(name, parent))
    }

    pub fn finish(&self, span: SpanId) {
        if let Some(l) = &self.log {
            l.finish(span);
        }
    }

    pub fn span<T>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> T) -> T {
        let id = self.start(name, parent);
        let out = f(id);
        self.finish(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.log.as_ref().map(|l| l.snapshot()).unwrap_or_default()
    }
}

/// The layer (crate) a span belongs to: the prefix before the first dot,
/// with the sweep engine's own phase leaves mapped to their crates.
pub fn layer_of(name: &str) -> &str {
    match name {
        "trace_gen" => "workloads",
        "liveness" => "verify",
        "core_sim" => "core",
        "cache_probe" | "cache_store" => "cache",
        "serialize" => "sweep",
        other => other.split('.').next().unwrap_or(other),
    }
}

/// Self time per layer (seconds) over the subtrees rooted at spans named
/// `root`, and the summed duration of those roots. A span's self time is
/// its duration minus its children's.
pub fn self_times(spans: &[Span], root: &str) -> (HashMap<String, f64>, f64) {
    let mut child_sum: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_sum.entry(s.parent).or_default() += s.dur_nanos.unwrap_or(0);
        }
    }
    let mut in_tree = vec![false; spans.len() + 1];
    let mut out: HashMap<String, f64> = HashMap::new();
    let mut total = 0u64;
    for s in spans {
        let idx = s.id as usize;
        let rooted = s.name == root && s.parent == 0;
        if !(rooted || (s.parent != 0 && in_tree[s.parent as usize])) {
            continue;
        }
        in_tree[idx] = true;
        let dur = s.dur_nanos.unwrap_or(0);
        if rooted {
            total += dur;
        }
        let own = dur.saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0));
        *out.entry(layer_of(&s.name).to_owned()).or_default() += own as f64 / 1e9;
    }
    (out, total as f64 / 1e9)
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter_map(|s| s.dur_nanos)
        .map(|d| d as f64 / 1e6)
        .collect()
}

/// Writes the spans as a Chrome trace under `.bench_out/` (the only file
/// the benchmark leaves behind; it is written at exit).
pub fn write_chrome_trace(ctx: &Ctx, spans: &[Span]) {
    let slices: Vec<SpanSlice> = spans
        .iter()
        .map(|s| SpanSlice {
            id: s.id,
            parent: s.parent,
            name: s.name.clone(),
            start_nanos: s.start_nanos,
            dur_nanos: s.dur_nanos.unwrap_or(0),
        })
        .collect();
    let dir = Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.trace.json", ctx.workload, ctx.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans_to_chrome_json(&slices)));
    match written {
        Ok(()) => eprintln!(
            "perfbench: wrote {} ({} spans)",
            path.display(),
            spans.len()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Adds the per-layer self-time shares of the traced pass as
/// `<layer>.self_share` metrics, for each layer in `layers`.
pub fn report_shares(report: &mut Report, spans: &[Span], root: &str, layers: &[&str]) {
    let (selfs, total) = self_times(spans, root);
    for layer in layers {
        let own = selfs.get(*layer).copied().unwrap_or(0.0);
        let share = if total > 0.0 { own / total } else { 0.0 };
        report.metric(&format!("{layer}.self_share"), share, "ratio");
    }
}

/// Parses a counter's value out of Prometheus text.
pub fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let rest = l.strip_prefix(name)?;
            rest.strip_prefix(' ')?.trim().parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}
