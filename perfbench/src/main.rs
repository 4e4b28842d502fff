//! Host-speed benchmark of the RAR simulator workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig1_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one workload in this process, checks its outputs, and prints one
//! JSON line: `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics from a separate traced pass (see `README.md`).
//! `--write-digests` regenerates the committed grid digests for the seed.

mod common;
mod grid;
mod inject;
mod layers;
mod serve;

use common::{Ctx, Report};
use std::process::ExitCode;

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("sim_kips", "kinst/s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1`. A layer
/// the workload does not exercise reports 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("core.ns_per_cycle", "ns"),
    ("core.cycles", "count"),
    ("core.quiescent_frac", "ratio"),
    ("core.runahead_frac", "ratio"),
    ("core.self_share", "ratio"),
    ("mem.access_ns", "ns"),
    ("mem.llc_miss_rate", "ratio"),
    ("frontend.predict_update_ns", "ns"),
    ("frontend.mispredict_rate", "ratio"),
    ("ace.record_ns", "ns"),
    ("workloads.trace_gen_ns_per_uop", "ns"),
    ("workloads.self_share", "ratio"),
    ("verify.analyze_ns_per_uop", "ns"),
    ("verify.self_share", "ratio"),
    ("sweep.cell_p50_ms", "ms"),
    ("sweep.cell_p85_ms", "ms"),
    ("sweep.cell_max_ms", "ms"),
    ("sweep.self_share", "ratio"),
    ("cache.load_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hit_rate", "ratio"),
    ("inject.golden_ms", "ms"),
    ("inject.execute_ms", "ms"),
    ("inject.vacant_frac", "ratio"),
    ("inject.journal_append_us", "us"),
    ("inject.self_share", "ratio"),
    ("serve.submit_ms", "ms"),
    ("serve.status_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.dedup_waits", "count"),
    ("serve.notify_lag_ms", "ms"),
    ("serve.notify_lag_share", "ratio"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p95_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.traced_ops", "count"),
];

const WORKLOADS: [&str; 4] = [
    "fig1_cold",
    "compute_cold",
    "inject_campaign",
    "serve_overlap",
];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--write-digests]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut write_digests = false;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--write-digests" {
            write_digests = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("missing value for {}", args[i]));
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload}"));
    }
    let scratch = std::path::Path::new(".bench_tmp").join(format!(
        "{workload}-{}-{}",
        std::process::id(),
        seed
    ));
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace,
        scratch,
    };
    if write_digests {
        let written = grid::write_digests(&ctx);
        let _ = std::fs::remove_dir_all(&ctx.scratch);
        return if written {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let report = match ctx.workload.as_str() {
        "fig1_cold" => grid::run(&ctx, &grid::FIG1),
        "compute_cold" => grid::run(&ctx, &grid::COMPUTE),
        "inject_campaign" => inject::run(&ctx),
        _ => serve::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    finish(&ctx, report)
}

/// Orders the metrics by the declared list, fills layers the workload did
/// not exercise with 0, and prints the result line.
fn finish(ctx: &Ctx, mut report: Report) -> ExitCode {
    let declared: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::new();
    for &(name, unit) in declared {
        match report.metrics.iter().find(|(n, _, _)| n == name) {
            Some((_, value, _)) => ordered.push((name.to_owned(), *value, unit)),
            None if ctx.trace => ordered.push((name.to_owned(), 0.0, unit)),
            None => report.check(false, || format!("metric {name} was not measured")),
        }
    }
    for (name, value, unit) in &ordered {
        eprintln!("perfbench: {:<32} {value:>16.6} {unit}", name);
    }
    report.metrics = ordered;
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
