//! Differential gate for the run loops' fast-forward over quiescent
//! cycles: `run_until_committed` / `run_budgeted` must end in exactly the
//! state that calling `Core::cycle` one cycle at a time reaches — same
//! clock, statistics, reliability report, stall profile, memory
//! statistics and commit digest — on every workload under every
//! technique, with an armed fault landing inside a quiescent stretch, and
//! with a cycle budget that runs out inside one.

use rar_core::{
    Core, CoreConfig, FaultLanding, FaultTarget, PlannedFault, RunVerdict, StallBucket, Technique,
};
use rar_isa::{TraceWindow, UopSource};
use rar_mem::MemConfig;
use rar_workloads::TraceGenerator;

const TECHNIQUES: [Technique; 7] = [
    Technique::Ooo,
    Technique::Flush,
    Technique::Tr,
    Technique::Pre,
    Technique::Rar,
    Technique::Cre,
    Technique::Throttle,
];

type WorkloadCore = Core<TraceWindow<TraceGenerator>>;

fn core(workload: &str, technique: Technique) -> WorkloadCore {
    core_with(CoreConfig::baseline(), workload, technique)
}

fn core_with(cfg: CoreConfig, workload: &str, technique: Technique) -> WorkloadCore {
    let spec = rar_workloads::workload(workload).expect("known workload");
    let mut core = Core::new(
        cfg,
        MemConfig::baseline(),
        technique,
        TraceWindow::new(spec.trace(3)),
    );
    core.enable_stall_profiling();
    core
}

/// The one-step reference of `run_until_committed`.
fn step_until_committed<S: UopSource>(core: &mut Core<S>, n: u64) {
    while core.stats().committed < n {
        core.cycle();
    }
}

/// The one-step reference of `run_budgeted` (without a deadline).
fn step_budgeted<S: UopSource>(core: &mut Core<S>, n: u64, max_cycles: u64) -> RunVerdict {
    let start = core.stats().cycles;
    while core.stats().committed < n {
        core.cycle();
        if core.stats().cycles - start >= max_cycles {
            return RunVerdict::CycleBudget;
        }
    }
    RunVerdict::Completed
}

fn assert_same<S: UopSource>(reference: &Core<S>, fast: &Core<S>, what: &str) {
    assert_eq!(reference.now(), fast.now(), "{what}: clock");
    assert_eq!(reference.stats(), fast.stats(), "{what}: core statistics");
    assert_eq!(
        reference.reliability_report(),
        fast.reliability_report(),
        "{what}: reliability report"
    );
    assert_eq!(
        reference.stall_profile(),
        fast.stall_profile(),
        "{what}: stall profile"
    );
    assert_eq!(
        reference.mem_stats(),
        fast.mem_stats(),
        "{what}: memory statistics"
    );
    assert_eq!(
        reference.commit_digest(),
        fast.commit_digest(),
        "{what}: commit digest"
    );
    assert_eq!(
        reference.fault_report(),
        fast.fault_report(),
        "{what}: fault report"
    );
}

fn assert_runs_match(cfg: &CoreConfig, workload: &str, technique: Technique, what: &str) {
    let mut reference = core_with(cfg.clone(), workload, technique);
    step_until_committed(&mut reference, 500);
    reference.reset_measurement();
    step_until_committed(&mut reference, 1_500);

    let mut fast = core_with(cfg.clone(), workload, technique);
    fast.run_until_committed(500);
    fast.reset_measurement();
    fast.run_until_committed(1_500);
    assert_same(&reference, &fast, what);
}

#[test]
fn fast_forward_matches_the_one_step_loop_everywhere() {
    let cfg = CoreConfig::baseline();
    for workload in rar_workloads::all_benchmarks() {
        for technique in TECHNIQUES {
            assert_runs_match(
                &cfg,
                workload,
                technique,
                &format!("{workload}/{technique:?}"),
            );
        }
    }
}

#[test]
fn fast_forward_matches_with_wrong_path_execution() {
    // Wrong-path episodes stay open across runahead entry, so their
    // resolution bounds the skip in both modes.
    let cfg = CoreConfig {
        model_wrong_path: true,
        ..CoreConfig::baseline()
    };
    for workload in rar_workloads::memory_intensive() {
        for technique in TECHNIQUES {
            let what = format!("{workload}/{technique:?} with wrong-path execution");
            assert_runs_match(&cfg, workload, technique, &what);
        }
    }
}

/// Absolute cycles in the middle of the first `count` stretches of at
/// least 24 consecutive quiescent cycles of the one-step reference run,
/// once `after` instructions have committed (the back-end is populated).
fn quiescent_midpoints(workload: &str, technique: Technique, after: u64, count: usize) -> Vec<u64> {
    let mut core = core(workload, technique);
    step_until_committed(&mut core, after);
    let mut found = Vec::new();
    let mut run_start = None;
    while found.len() < count {
        let quiescent = core
            .stall_profile()
            .expect("profiling")
            .count(StallBucket::Quiescent);
        core.cycle();
        let now_quiescent = core
            .stall_profile()
            .expect("profiling")
            .count(StallBucket::Quiescent)
            > quiescent;
        match (now_quiescent, run_start) {
            (true, None) => run_start = Some(core.now()),
            (false, Some(start)) => {
                if core.now() - start >= 24 {
                    found.push(start + (core.now() - start) / 2);
                }
                run_start = None;
            }
            _ => {}
        }
    }
    assert_eq!(
        found.len(),
        count,
        "{workload}/{technique:?}: too few quiet stretches"
    );
    found
}

#[test]
fn a_fault_landing_mid_skip_matches_the_one_step_loop() {
    // (structure, entry, bit): completion-time and mispredict flips at
    // the ROB head, lost scheduler valid bits (the wedge a DUE budget
    // catches), register, address, FU, MSHR and SST strikes.
    let targets = [
        (FaultTarget::Rob, 0, 3),
        (FaultTarget::Rob, 0, 7),
        (FaultTarget::Rob, 1, 0),
        (FaultTarget::Rob, 3, 1),
        (FaultTarget::Iq, 0, 0),
        (FaultTarget::Iq, 1, 40),
        (FaultTarget::RfInt, 5, 3),
        (FaultTarget::Lq, 0, 5),
        (FaultTarget::Fu, 0, 2),
        (FaultTarget::Mshr, 0, 1),
        (FaultTarget::Mshr, 1, 40),
        (FaultTarget::Sst, 0, 4),
    ];
    let mut verdicts = Vec::new();
    for technique in [Technique::Ooo, Technique::Rar, Technique::Pre] {
        for cycle in quiescent_midpoints("mcf", technique, 1_000, 2) {
            for (target, entry, bit) in targets {
                let fault = PlannedFault {
                    cycle,
                    target,
                    entry,
                    bit,
                };
                let what = format!("mcf/{technique:?} {fault:?}");
                let budget = 120_000;
                let mut reference = core("mcf", technique);
                reference.arm_fault(fault);
                let expected = step_budgeted(&mut reference, 2_000, budget);
                let mut fast = core("mcf", technique);
                fast.arm_fault(fault);
                let verdict = fast.run_budgeted(2_000, budget, None);
                assert_eq!(expected, verdict, "{what}: verdict");
                assert!(
                    reference.fault_report().landing.is_some(),
                    "{what}: the strike must land"
                );
                assert_same(&reference, &fast, &what);
                verdicts.push((verdict, reference.fault_report().landing));
            }
        }
    }
    // The cases cover hangs that exhaust the budget and strikes that land
    // on live state.
    assert!(verdicts.iter().any(|(v, _)| *v == RunVerdict::CycleBudget));
    assert!(verdicts
        .iter()
        .any(|(_, l)| matches!(l, Some(FaultLanding::Payload | FaultLanding::Control))));
}

#[test]
fn a_cycle_budget_expiring_mid_skip_matches_the_one_step_loop() {
    for technique in [Technique::Ooo, Technique::Flush, Technique::Rar] {
        for cycle in quiescent_midpoints("mcf", technique, 1_000, 3) {
            let what = format!("mcf/{technique:?} budget {cycle}");
            let mut reference = core("mcf", technique);
            let expected = step_budgeted(&mut reference, 2_000, cycle);
            assert_eq!(expected, RunVerdict::CycleBudget, "{what}");
            let mut fast = core("mcf", technique);
            let verdict = fast.run_budgeted(2_000, cycle, None);
            assert_eq!(expected, verdict, "{what}: verdict");
            assert_same(&reference, &fast, &what);
        }
    }
}
