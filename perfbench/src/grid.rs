//! The cold paper grids: `fig1_cold` (15 memory-intensive workloads) and
//! `compute_cold` (8 compute-intensive workloads), each × the five
//! techniques at the default scale, one sweep thread, no disk cache.
//!
//! The timed section runs whole grid passes until the time is up (a
//! started pass finishes), so every run averages complete grids. Pass `p`
//! draws fresh workload seeds from the run seed, so every pass is cold;
//! the seeds change the simulated work a lot (astar's CPI ranges over
//! 2.8–6.0), which is why a run spans several passes. Each cell's
//! `to_json_for` document is hashed; for seeds with a committed digest
//! file the hashes must match it, and for every seed each cell must keep
//! the AVF ordering bit_refined ≤ refined ≤ unrefined.

use crate::common::{
    derive_seed, fnv1a, median, peak_rss_mb, percentile, report_shares, timed_setup,
    write_chrome_trace, Ctx, Report, Tracer,
};
use crate::layers;
use rar_core::Technique;
use rar_sim::{json, SimConfig, SimResult, SweepSession};
use rar_telemetry::{SpanId, SpanProfiler, ThreadParentGuard};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// One grid workload.
pub struct Grid {
    pub name: &'static str,
    pub memory: bool,
    /// Workload seeds per pass (the compute grid needs two for ≥67 cells).
    pub seeds_per_pass: usize,
    /// Grid passes the committed digest files cover (a timed run of the
    /// benchmark's length usually finishes no more).
    pub digest_passes: usize,
}

pub const FIG1: Grid = Grid {
    name: "fig1_cold",
    memory: true,
    seeds_per_pass: 1,
    digest_passes: 2,
};

pub const COMPUTE: Grid = Grid {
    name: "compute_cold",
    memory: false,
    seeds_per_pass: 2,
    digest_passes: 4,
};

const TECHNIQUES: [Technique; 5] = [
    Technique::Ooo,
    Technique::Flush,
    Technique::Tr,
    Technique::Pre,
    Technique::Rar,
];

/// Default-scale budget of the paper figures.
const INSTRUCTIONS: u64 = 60_000;
const WARMUP: u64 = 25_000;

impl Grid {
    fn benchmarks(&self) -> &'static [&'static str] {
        if self.memory {
            rar_workloads::memory_intensive()
        } else {
            rar_workloads::compute_intensive()
        }
    }

    /// The cells of pass `pass`, in grid order (seed, workload, technique).
    pub fn cells(&self, seed: u64, pass: usize) -> Vec<SimConfig> {
        let mut out = Vec::new();
        for k in 0..self.seeds_per_pass {
            let s = derive_seed(seed, &format!("{}/pass{pass}/seed{k}", self.name));
            for b in self.benchmarks() {
                for t in TECHNIQUES {
                    out.push(
                        SimConfig::builder()
                            .workload(b)
                            .technique(t)
                            .instructions(INSTRUCTIONS)
                            .warmup(WARMUP)
                            .seed(s)
                            .build(),
                    );
                }
            }
        }
        out
    }

    fn digest_path(&self, seed: u64) -> PathBuf {
        PathBuf::from(format!("perfbench/digests/{}-seed{seed}.txt", self.name))
    }

    /// Committed per-cell digests for `seed`, in grid order, if any.
    fn committed_digests(&self, seed: u64) -> Option<Vec<u64>> {
        let text = std::fs::read_to_string(self.digest_path(seed)).ok()?;
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| u64::from_str_radix(l.split_whitespace().last()?, 16).ok())
            .collect()
    }
}

/// Hash of a cell's JSON export.
fn digest(cfg: &SimConfig, r: &SimResult) -> u64 {
    fnv1a(json::to_json_for(cfg, r).as_bytes())
}

/// One finished cell.
struct Cell {
    cfg: SimConfig,
    result: SimResult,
    /// Host time of `SweepSession::run`.
    ms: f64,
}

/// Runs whole grid passes, one session per pass: at least one, at most
/// `max_passes`, and no new pass once `deadline` has passed. `tracer`
/// wraps each `SweepSession::run` in a span and feeds the
/// session's phase leaves into the same log.
fn run_passes(
    grid: &Grid,
    seed: u64,
    deadline: Option<Instant>,
    max_passes: usize,
    tracer: &Tracer,
    report: &mut Report,
) -> Vec<Cell> {
    let mut done = Vec::new();
    for pass in 0..max_passes {
        if pass > 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let traced = tracer
            .log
            .as_ref()
            .map(|log| SweepSession::with_profiler(SpanProfiler::new(log.clone())).threads(1));
        let plain = traced.is_none().then(|| SweepSession::new().threads(1));
        for cfg in grid.cells(seed, pass) {
            report.attempted += 1;
            let t = Instant::now();
            let outcome = tracer.span("sweep.cell", SpanId::NONE, |id| {
                let _parent = ThreadParentGuard::enter(id);
                match (&traced, &plain) {
                    (Some(s), _) => s.run(&cfg),
                    (_, Some(s)) => s.run(&cfg),
                    _ => unreachable!("one session per pass"),
                }
            });
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok(result) => done.push(Cell { cfg, result, ms }),
                Err(e) => {
                    report.failed += 1;
                    eprintln!(
                        "perfbench: cell {}/{} failed: {e}",
                        cfg.workload, cfg.technique
                    );
                }
            }
        }
    }
    done
}

/// Checks the finished cells against the committed digests (when the
/// seed has them) and the AVF ordering; returns the cells' digests.
fn check_cells(grid: &Grid, seed: u64, cells: &[Cell], report: &mut Report) -> Vec<u64> {
    let digests: Vec<u64> = cells.iter().map(|c| digest(&c.cfg, &c.result)).collect();
    let committed = grid.committed_digests(seed);
    for (i, c) in cells.iter().enumerate() {
        let rel = &c.result.reliability;
        let ordered = rel.bit_refined_avf() <= rel.refined_avf() && rel.refined_avf() <= rel.avf();
        let matches = committed
            .as_ref()
            .and_then(|d| d.get(i))
            .is_none_or(|&want| want == digests[i]);
        if !(ordered && matches) {
            report.failed += 1;
        }
        report.check(ordered, || {
            format!(
                "AVF ordering broken on {}/{}",
                c.cfg.workload, c.cfg.technique
            )
        });
        report.check(matches, || {
            format!(
                "digest mismatch on cell {i} ({}/{})",
                c.cfg.workload, c.cfg.technique
            )
        });
    }
    let checked = committed.map_or(0, |d| d.len().min(cells.len()));
    eprintln!(
        "perfbench: {}: {} cells, {checked} checked against committed digests, grid digest {:016x}",
        grid.name,
        cells.len(),
        fnv1a(
            &digests
                .iter()
                .flat_map(|d| d.to_le_bytes())
                .collect::<Vec<u8>>()
        )
    );
    digests
}

/// Kilo-instructions a cell committed, warm-up included.
fn kinst(c: &Cell) -> f64 {
    (c.result.stats.committed + c.cfg.warmup) as f64 / 1e3
}

/// Session creation plus one small warm-up cell (not part of the grid).
/// The cell's workload seed is fixed: its cost varies with the seed as
/// much as the grid's do, and set-up should do the same work every run.
fn setup(grid: &Grid) -> SweepSession {
    let session = SweepSession::new().threads(1);
    let warm = SimConfig::builder()
        .workload(grid.benchmarks()[0])
        .instructions(10_000)
        .warmup(2_000)
        .build();
    session.run(&warm).expect("warm-up cell runs");
    session
}

pub fn run(ctx: &Ctx, grid: &Grid) -> Report {
    let mut report = Report::default();
    let (setup_s, session) = timed_setup(9, || setup(grid));
    drop(session);
    if ctx.trace {
        return traced(ctx, grid, report);
    }
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(ctx.seconds);
    let cells = run_passes(
        grid,
        ctx.seed,
        Some(deadline),
        usize::MAX,
        &Tracer::new(false),
        &mut report,
    );
    let elapsed = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    check_cells(grid, ctx.seed, &cells, &mut report);

    report.metric("setup_s", setup_s, "s");
    report.metric(
        "sim_kips",
        cells.iter().map(kinst).sum::<f64>() / elapsed,
        "kinst/s",
    );
    report.metric("ops_per_s", cells.len() as f64 / elapsed, "1/s");
    report.metric("peak_rss_mb", rss, "MiB");
    report
}

/// One grid pass untraced, the same pass traced, then the layer probes
/// over that pass.
fn traced(ctx: &Ctx, grid: &Grid, mut report: Report) -> Report {
    let t = Instant::now();
    let plain = run_passes(grid, ctx.seed, None, 1, &Tracer::new(false), &mut report);
    let plain_s = t.elapsed().as_secs_f64();
    let tracer = Tracer::new(true);
    let t = Instant::now();
    let cells = run_passes(grid, ctx.seed, None, 1, &tracer, &mut report);
    let traced_s = t.elapsed().as_secs_f64();
    let digests = check_cells(grid, ctx.seed, &cells, &mut report);
    let plain_digests: Vec<u64> = plain.iter().map(|c| digest(&c.cfg, &c.result)).collect();
    report.check(digests == plain_digests, || {
        "traced pass changed a result".to_owned()
    });

    let spans = tracer.spans();
    let ms: Vec<f64> = cells.iter().map(|c| c.ms).collect();
    report.metric("sweep.cell_p50_ms", median(&ms), "ms");
    report.metric("sweep.cell_p85_ms", percentile(&ms, 85.0), "ms");
    report.metric("sweep.cell_max_ms", percentile(&ms, 100.0), "ms");
    report_shares(
        &mut report,
        &spans,
        "sweep.cell",
        &["core", "workloads", "verify", "sweep"],
    );
    report.metric("bench.trace_overhead", traced_s / plain_s - 1.0, "ratio");
    report.metric("bench.traced_ops", cells.len() as f64, "count");

    let cfgs: Vec<SimConfig> = cells.iter().map(|c| c.cfg.clone()).collect();
    let expected: HashMap<String, SimResult> = cells
        .iter()
        .map(|c| (c.cfg.fingerprint(), c.result.clone()))
        .collect();
    drop(cells);
    drop(plain);
    layers::probe(&mut report, &tracer, &cfgs, &expected);
    write_chrome_trace(ctx, &tracer.spans());
    report
}

/// Regenerates the committed digest file for `ctx.seed` (the first
/// `digest_passes` passes of the grid), for grid workloads.
pub fn write_digests(ctx: &Ctx) -> bool {
    let grid = match ctx.workload.as_str() {
        "fig1_cold" => &FIG1,
        "compute_cold" => &COMPUTE,
        other => {
            eprintln!("perfbench: {other} has no digest file (it checks against goldens)");
            return false;
        }
    };
    let mut report = Report::default();
    let n = grid.cells(ctx.seed, 0).len() * grid.digest_passes;
    let cells = run_passes(
        grid,
        ctx.seed,
        None,
        grid.digest_passes,
        &Tracer::new(false),
        &mut report,
    );
    if report.failed > 0 || cells.len() != n {
        eprintln!(
            "perfbench: {} cells failed; digests not written",
            report.failed
        );
        return false;
    }
    let mut text = format!(
        "# {} seed {}: fnv1a64 of rar_sim::json::to_json_for per cell, grid order\n",
        grid.name, ctx.seed
    );
    for (i, c) in cells.iter().enumerate() {
        text.push_str(&format!(
            "{i} {} {} {:016x}\n",
            c.cfg.workload,
            c.cfg.technique.to_string().to_ascii_lowercase(),
            digest(&c.cfg, &c.result)
        ));
    }
    let path = grid.digest_path(ctx.seed);
    match std::fs::write(&path, text) {
        Ok(()) => {
            eprintln!("perfbench: wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            false
        }
    }
}
