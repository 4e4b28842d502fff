//! `inject_campaign`: the paired OoO/RAR fault-injection campaign on mcf
//! at 2000 + 300 instructions, one thread, journaled to a scratch
//! directory.
//!
//! Set-up is the two golden runs (`InjectionHarness::prepare`). The timed
//! section first runs the paired campaign on inject seed 7, 200 samples
//! per technique, whose tally must equal `results/inject_golden.json`
//! byte for byte; it doubles as the warm-up and is not in the rates. Then
//! it runs paired units until the time is up: one OoO and one RAR
//! campaign of 50 samples each on an inject seed drawn from the run seed.
//! The rates are medians over the units, so a host stall in one unit does
//! not move them. Every campaign must complete all samples, and its
//! journal must replay to the same tally.

use crate::common::{
    derive_seed, median, peak_rss_mb, report_shares, timed_setup, write_chrome_trace, Ctx, Report,
    Tracer,
};
use crate::layers;
use rar_core::{FaultTarget, Technique};
use rar_inject::{load_journal, run_campaign, CampaignSpec, JournalWriter, Tally};
use rar_sim::{InjectionHarness, SimConfig};
use rar_telemetry::SpanId;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Samples per technique in the golden campaign.
const SAMPLES: u64 = 200;
/// Samples per technique in each timed unit.
const UNIT_SAMPLES: u64 = 50;
const GOLDEN_SEED: u64 = 7;
const GOLDEN: &str = "results/inject_golden.json";
const INSTRUCTIONS: u64 = 2_000;
const WARMUP: u64 = 300;

fn configs() -> [SimConfig; 2] {
    [Technique::Ooo, Technique::Rar].map(|t| {
        SimConfig::builder()
            .workload("mcf")
            .technique(t)
            .instructions(INSTRUCTIONS)
            .warmup(WARMUP)
            .build()
    })
}

/// The two golden runs, each timed.
fn prepare() -> (Vec<InjectionHarness>, Vec<f64>) {
    configs()
        .iter()
        .map(|cfg| {
            let t = Instant::now();
            let h = InjectionHarness::prepare(cfg).expect("inject config is valid");
            (h, t.elapsed().as_secs_f64() * 1e3)
        })
        .unzip()
}

/// What one campaign run produced, one tally and journal per technique.
struct Campaign {
    tallies: Vec<Tally>,
    journals: Vec<PathBuf>,
    /// Per-injection host time, ms.
    ms: Vec<f64>,
    completed: u64,
    failed: u64,
    /// Kilo-instructions committed by injected runs that completed.
    kinst: f64,
}

/// Runs one campaign per harness.
fn campaign(
    harnesses: &[InjectionHarness],
    samples: u64,
    inject_seed: u64,
    dir: &Path,
    tracer: &Tracer,
) -> std::io::Result<Campaign> {
    let mut out = Campaign {
        tallies: Vec::new(),
        journals: Vec::new(),
        ms: Vec::new(),
        completed: 0,
        failed: 0,
        kinst: 0.0,
    };
    for h in harnesses {
        let technique = h.config().technique.to_string().to_ascii_lowercase();
        let journal = dir.join(format!("seed{inject_seed}.{technique}.jsonl"));
        let spec = CampaignSpec {
            samples,
            threads: 1,
            journal: Some(journal.clone()),
            ..CampaignSpec::default()
        };
        let sampler = h.sampler(inject_seed);
        let ms = Mutex::new(Vec::with_capacity(samples as usize));
        let result = tracer.span("inject.campaign", SpanId::NONE, |id| {
            run_campaign(
                &spec,
                &sampler,
                |_k, fault| {
                    let t = Instant::now();
                    let o = tracer.span("sim.execute", id, |_| h.execute(fault, None));
                    ms.lock()
                        .expect("latency lock")
                        .push(t.elapsed().as_secs_f64() * 1e3);
                    Ok(o)
                },
                None,
            )
        })?;
        let budget = (h.config().instructions + h.config().warmup) as f64 / 1e3;
        let hangs: u64 = FaultTarget::ALL
            .iter()
            .map(|&t| result.tally.get(t).due_hang)
            .sum();
        out.kinst += (result.completed - hangs) as f64 * budget;
        out.completed += result.completed;
        out.failed += result.failed + (samples - result.completed.min(samples));
        out.tallies.push(result.tally);
        out.journals.push(journal);
        out.ms.extend(ms.into_inner().expect("latency lock"));
    }
    Ok(out)
}

/// The tally document the `inject` CLI writes with `--tally-out` for a
/// paired (OoO, RAR) campaign.
fn tally_json(tallies: &[Tally], inject_seed: u64) -> String {
    format!(
        "{{\"schema\":\"rar-inject-tally-v1\",\"workload\":\"mcf\",\
         \"inject_seed\":{inject_seed},\"ooo\":{},\"rar\":{}}}\n",
        tallies[0].to_json(),
        tallies[1].to_json()
    )
}

/// Output checks: golden tally for the golden campaign, completeness and
/// journal replay for every campaign.
fn check(c: &Campaign, samples: u64, inject_seed: u64, report: &mut Report) {
    let paired = c.tallies.len() == 2;
    report.check(c.failed == 0, || {
        format!("campaign {inject_seed}: {} injections failed", c.failed)
    });
    if paired && inject_seed == GOLDEN_SEED {
        let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
        let ok = golden == tally_json(&c.tallies, inject_seed);
        if !ok {
            report.failed += 1;
        }
        report.check(ok, || format!("campaign tally differs from {GOLDEN}"));
    }
    for (tally, path) in c.tallies.iter().zip(&c.journals) {
        let mut replayed = Tally::new();
        let records = load_journal(path).unwrap_or_default();
        for r in &records {
            replayed.record(r.fault.target, r.outcome);
        }
        report.check(
            records.len() as u64 == samples && replayed.to_json() == tally.to_json(),
            || format!("journal {} does not replay to the tally", path.display()),
        );
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let (setup_s, (harnesses, golden_ms)) = timed_setup(5, prepare);
    if ctx.trace {
        return traced(ctx, &harnesses, &golden_ms, report);
    }
    let dir = ctx.fresh_dir("journals");
    let mut done = Vec::new();
    // Per-unit (kinst/s, injections/s).
    let (mut kips, mut ips) = (Vec::new(), Vec::new());
    let mut run_unit = |samples: u64, inject_seed: u64, report: &mut Report| {
        report.attempted += samples * harnesses.len() as u64;
        let t = Instant::now();
        match campaign(&harnesses, samples, inject_seed, &dir, &Tracer::new(false)) {
            Ok(c) => {
                let s = t.elapsed().as_secs_f64();
                report.failed += c.failed;
                let rates = (c.kinst / s, c.completed as f64 / s);
                done.push((samples, inject_seed, c));
                Some(rates)
            }
            Err(e) => {
                report.failed += samples * harnesses.len() as u64;
                eprintln!("perfbench: campaign {inject_seed} failed: {e}");
                None
            }
        }
    };
    run_unit(SAMPLES, GOLDEN_SEED, &mut report);
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(ctx.seconds);
    let mut units = 0usize;
    while units == 0 || Instant::now() < deadline {
        let seed = derive_seed(ctx.seed, &format!("inject_campaign/{units}"));
        if let Some((k, i)) = run_unit(UNIT_SAMPLES, seed, &mut report) {
            kips.push(k);
            ips.push(i);
        }
        units += 1;
    }
    let rss = peak_rss_mb();
    for (samples, seed, c) in &done {
        check(c, *samples, *seed, &mut report);
    }
    eprintln!(
        "perfbench: inject_campaign: golden pair + {units} units of {UNIT_SAMPLES} x 2 injections"
    );
    report.metric("setup_s", setup_s, "s");
    report.metric("sim_kips", median(&kips), "kinst/s");
    report.metric("ops_per_s", median(&ips), "1/s");
    report.metric("peak_rss_mb", rss, "MiB");
    report
}

/// The golden campaign untraced, then traced, then the layer probes.
fn traced(
    ctx: &Ctx,
    harnesses: &[InjectionHarness],
    golden_ms: &[f64],
    mut report: Report,
) -> Report {
    let t = Instant::now();
    let plain = campaign(
        harnesses,
        SAMPLES,
        GOLDEN_SEED,
        &ctx.fresh_dir("plain"),
        &Tracer::new(false),
    );
    let plain_s = t.elapsed().as_secs_f64();
    let tracer = Tracer::new(true);
    let t = Instant::now();
    let traced = campaign(
        harnesses,
        SAMPLES,
        GOLDEN_SEED,
        &ctx.fresh_dir("traced"),
        &tracer,
    );
    let traced_s = t.elapsed().as_secs_f64();
    let (Ok(plain), Ok(c)) = (plain, traced) else {
        report.failed += 1;
        report.check(false, || "campaign journal could not be opened".to_owned());
        return report;
    };
    report.attempted = SAMPLES * 4;
    report.failed += plain.failed;
    check(&c, SAMPLES, GOLDEN_SEED, &mut report);
    report.check(
        tally_json(&plain.tallies, GOLDEN_SEED) == tally_json(&c.tallies, GOLDEN_SEED),
        || "traced campaign changed the tally".to_owned(),
    );

    let spans = tracer.spans();
    report.metric("inject.golden_ms", median(golden_ms), "ms");
    report.metric("inject.execute_ms", median(&c.ms), "ms");
    let (mut vacant, mut total) = (0u64, 0u64);
    for tally in &c.tallies {
        for (_, tt) in tally.targets() {
            vacant += tt.vacant;
            total += tt.attempts();
        }
    }
    report.metric(
        "inject.vacant_frac",
        vacant as f64 / total.max(1) as f64,
        "ratio",
    );
    report.metric("inject.journal_append_us", journal_append_us(ctx, &c), "us");
    report_shares(&mut report, &spans, "inject.campaign", &["inject"]);
    report.metric("bench.trace_overhead", traced_s / plain_s - 1.0, "ratio");
    report.metric("bench.traced_ops", c.completed as f64, "count");

    let cfgs: Vec<SimConfig> = harnesses.iter().map(|h| h.config().clone()).collect();
    let expected: HashMap<String, rar_sim::SimResult> = cfgs
        .iter()
        .filter_map(|c| Some((c.fingerprint(), rar_sim::Simulation::try_run(c).ok()?)))
        .collect();
    layers::probe(&mut report, &tracer, &cfgs, &expected);
    write_chrome_trace(ctx, &tracer.spans());
    report
}

/// `JournalWriter::append` re-journaling the campaign's own records into
/// a fresh journal (default batch fsync), µs per append.
fn journal_append_us(ctx: &Ctx, c: &Campaign) -> f64 {
    let dir = ctx.fresh_dir("append");
    let mut us = Vec::new();
    for (i, path) in c.journals.iter().enumerate() {
        let records = load_journal(path).unwrap_or_default();
        let Ok(mut w) = JournalWriter::open(&dir.join(format!("{i}.jsonl")), 64) else {
            continue;
        };
        for r in &records {
            let t = Instant::now();
            let _ = w.append(r);
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let _ = w.sync();
    }
    median(&us)
}
