//! Per-crate probes for the traced run: each replays the workload's own
//! inputs through one crate's public API, inside a span, so the crate's
//! cost is measured from outside without touching the program.

use crate::common::{Report, Tracer};
use rar_ace::{AceCounter, Structure};
use rar_core::{Core, NullSink, StallBucket};
use rar_frontend::BranchPredictor;
use rar_isa::{TraceWindow, Uop};
use rar_mem::{AccessKind, MemConfig, MemoryHierarchy};
use rar_sim::{SimConfig, SimResult, Simulation};
use rar_telemetry::SpanId;
use rar_workloads::TracePrefix;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Uops a cell's trace must hold: warm-up, measured budget and the
/// commit-width slack the sweep engine adds.
fn horizon(cfg: &SimConfig) -> usize {
    usize::try_from(cfg.warmup + cfg.instructions).expect("budget fits usize") + 4 * cfg.core.width
}

/// Probes every substrate crate over `cells` (each distinct trace once)
/// and drives the core directly over every cell, checking it against the
/// results the workload produced for the same cells (`expected`, by
/// fingerprint).
pub fn probe(
    report: &mut Report,
    tracer: &Tracer,
    cells: &[SimConfig],
    expected: &HashMap<String, SimResult>,
) {
    let root = tracer.start("probe", SpanId::NONE);
    let mut traces: HashMap<(String, u64, usize), Arc<TracePrefix>> = HashMap::new();
    let (mut gen_ns, mut gen_uops, mut ana_ns) = (0f64, 0usize, 0f64);
    for cfg in cells {
        let key = (cfg.workload.clone(), cfg.seed, horizon(cfg));
        if traces.contains_key(&key) {
            continue;
        }
        let spec = rar_workloads::workload(&cfg.workload).expect("known workload");
        let t = Instant::now();
        let prefix = tracer.span("workloads.generate", root, |_| {
            TracePrefix::generate(&spec, cfg.seed, key.2)
        });
        gen_ns += t.elapsed().as_nanos() as f64;
        gen_uops += prefix.len();
        let t = Instant::now();
        let refinement = tracer.span("verify.analyze", root, |_| {
            rar_verify::analyze(prefix.uops())
        });
        ana_ns += t.elapsed().as_nanos() as f64;
        std::hint::black_box(&refinement);
        traces.insert(key, Arc::new(prefix));
    }
    report.metric(
        "workloads.trace_gen_ns_per_uop",
        gen_ns / gen_uops.max(1) as f64,
        "ns",
    );
    report.metric(
        "verify.analyze_ns_per_uop",
        ana_ns / gen_uops.max(1) as f64,
        "ns",
    );

    let mut ordered: Vec<_> = traces.iter().collect();
    ordered.sort_by(|a, b| a.0.cmp(b.0));
    let uops: Vec<&[Uop]> = ordered.iter().map(|(_, p)| p.uops()).collect();
    mem_probe(report, tracer, root, &uops);
    frontend_probe(report, tracer, root, &uops);
    ace_probe(report, tracer, root, &uops);
    core_probe(report, tracer, root, cells, &traces, expected);
    tracer.finish(root);
}

/// `MemoryHierarchy::access` over each trace's loads and stores, one
/// micro-op per cycle; an MSHR-full load retries on later cycles.
fn mem_probe(report: &mut Report, tracer: &Tracer, root: SpanId, traces: &[&[Uop]]) {
    let (mut ns, mut calls, mut demand, mut misses) = (0f64, 0u64, 0u64, 0u64);
    for uops in traces {
        let mut mem = MemoryHierarchy::new(MemConfig::baseline());
        let t = Instant::now();
        tracer.span("mem.replay", root, |_| {
            for (i, u) in uops.iter().enumerate() {
                let Some(m) = u.mem() else { continue };
                let kind = if u.is_load() {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                };
                let mut now = i as u64;
                loop {
                    calls += 1;
                    match mem.access(kind, m.addr, u.pc(), now) {
                        Ok(out) => {
                            std::hint::black_box(out);
                            break;
                        }
                        Err(_) => now += 1,
                    }
                }
            }
        });
        ns += t.elapsed().as_nanos() as f64;
        let s = mem.stats();
        demand += s.l1d_hits + s.l2_hits + s.l3_hits + s.llc_misses;
        misses += s.llc_misses;
    }
    report.metric("mem.access_ns", ns / calls.max(1) as f64, "ns");
    report.metric(
        "mem.llc_miss_rate",
        misses as f64 / demand.max(1) as f64,
        "ratio",
    );
}

/// `BranchPredictor::predict` + `update` over each trace's branches.
fn frontend_probe(report: &mut Report, tracer: &Tracer, root: SpanId, traces: &[&[Uop]]) {
    let (mut ns, mut branches, mut predictions, mut mispredictions) = (0f64, 0u64, 0u64, 0u64);
    for uops in traces {
        let mut bp = BranchPredictor::tage_sc_l_8kb();
        let t = Instant::now();
        tracer.span("frontend.replay", root, |_| {
            for u in *uops {
                let Some(b) = u.branch_info() else { continue };
                branches += 1;
                std::hint::black_box(bp.predict(u.pc()));
                std::hint::black_box(bp.update(u.pc(), b.taken, b.target));
            }
        });
        ns += t.elapsed().as_nanos() as f64;
        let s = bp.stats();
        predictions += s.predictions;
        mispredictions += s.mispredictions;
    }
    report.metric(
        "frontend.predict_update_ns",
        ns / branches.max(1) as f64,
        "ns",
    );
    report.metric(
        "frontend.mispredict_rate",
        mispredictions as f64 / predictions.max(1) as f64,
        "ratio",
    );
}

/// `AceCounter::record_committed` + `record_dead_bits`: one ROB-resident
/// interval per micro-op, as long as the distance to the next load, with
/// a quarter of its bits dead.
fn ace_probe(report: &mut Report, tracer: &Tracer, root: SpanId, traces: &[&[Uop]]) {
    let (mut ns, mut calls) = (0f64, 0u64);
    for uops in traces {
        let mut ace = AceCounter::new();
        let t = Instant::now();
        tracer.span("ace.replay", root, |_| {
            let mut next_load = uops.len() as u64;
            for (i, u) in uops.iter().enumerate().rev() {
                let start = i as u64;
                let end = next_load.max(start + 1);
                ace.record_committed(Structure::Rob, 64, start, end);
                ace.record_dead_bits(Structure::Rob, 16, start, end);
                calls += 2;
                if u.is_load() {
                    next_load = start;
                }
            }
        });
        ns += t.elapsed().as_nanos() as f64;
        std::hint::black_box(ace.total_abc());
    }
    report.metric("ace.record_ns", ns / calls.max(1) as f64, "ns");
}

/// Drives `Core::run_until_committed` exactly as the sweep engine does,
/// then `Simulation::try_run_stalled` for the cycle taxonomy. Checks that
/// the direct core matches the workload's result, that the stall
/// profile accounts for every measured cycle, and that profiling left
/// every other statistic unchanged.
fn core_probe(
    report: &mut Report,
    tracer: &Tracer,
    root: SpanId,
    cells: &[SimConfig],
    traces: &HashMap<(String, u64, usize), Arc<TracePrefix>>,
    expected: &HashMap<String, SimResult>,
) {
    let (mut ns, mut cycles) = (0f64, 0u64);
    let (mut quiescent, mut profiled, mut runahead, mut measured) = (0u64, 0u64, 0u64, 0u64);
    for cfg in cells {
        let prefix = &traces[&(cfg.workload.clone(), cfg.seed, horizon(cfg))];
        let refinement = rar_verify::analyze(prefix.uops());
        let mut core = Core::with_sink(
            cfg.core.clone(),
            cfg.mem.clone(),
            cfg.technique,
            TraceWindow::new(TracePrefix::resume(prefix)),
            NullSink,
        );
        core.set_ace_refinement(refinement);
        let t = Instant::now();
        tracer.span("core.run", root, |_| {
            if cfg.warmup > 0 {
                core.run_until_committed(cfg.warmup);
                core.reset_measurement();
            }
            core.run_until_committed(cfg.instructions);
        });
        ns += t.elapsed().as_nanos() as f64;
        cycles += core.now();
        let want = expected.get(&cfg.fingerprint());
        if let Some(want) = want {
            report.check(
                core.stats().cycles == want.stats.cycles
                    && core.stats().committed == want.stats.committed,
                || {
                    format!(
                        "direct core disagrees with the session on {}/{}",
                        cfg.workload, cfg.technique
                    )
                },
            );
        }
        let stalled = tracer.span("core.stalled", root, |_| Simulation::try_run_stalled(cfg));
        let Ok(mut stalled) = stalled else {
            report.check(false, || {
                format!("stalled run of {}/{} failed", cfg.workload, cfg.technique)
            });
            continue;
        };
        let Some(profile) = stalled.stalls.take() else {
            report.check(false, || "stalled run carried no stall profile".to_owned());
            continue;
        };
        report.check(profile.total() == stalled.stats.cycles, || {
            format!(
                "stall cycles {} != measured cycles {} on {}/{}",
                profile.total(),
                stalled.stats.cycles,
                cfg.workload,
                cfg.technique
            )
        });
        if let Some(want) = want {
            report.check(&stalled == want, || {
                format!("stall profiling changed {}/{}", cfg.workload, cfg.technique)
            });
        }
        quiescent += profile.count(StallBucket::Quiescent);
        profiled += profile.total();
        runahead += stalled.stats.runahead_cycles;
        measured += stalled.stats.cycles;
    }
    report.metric("core.ns_per_cycle", ns / cycles.max(1) as f64, "ns");
    report.metric("core.cycles", cycles as f64, "count");
    report.metric(
        "core.quiescent_frac",
        quiescent as f64 / profiled.max(1) as f64,
        "ratio",
    );
    report.metric(
        "core.runahead_frac",
        runahead as f64 / measured.max(1) as f64,
        "ratio",
    );
}
