//! Integration tests for the memoizing sweep engine and its disk cache:
//! warm-rerun bit-identity, thread-count independence, and cache-defect
//! recovery, exercised through the public `rar_sim` API exactly as the
//! binaries use it.

use rar_core::Technique;
use rar_sim::{SimConfig, Simulation, SweepSession, CACHE_VERSION};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rar-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn grid() -> Vec<SimConfig> {
    let mut v = Vec::new();
    for w in ["mcf", "libquantum", "milc"] {
        for t in [Technique::Ooo, Technique::Flush, Technique::Rar] {
            v.push(
                SimConfig::builder()
                    .workload(w)
                    .technique(t)
                    .warmup(300)
                    .instructions(1_500)
                    .build(),
            );
        }
    }
    v
}

#[test]
fn warm_cache_rerun_is_bit_identical() {
    let dir = tmp_dir("warm");
    let grid = grid();

    let cold = SweepSession::with_disk_cache(&dir);
    let first = cold.run_all(&grid);
    let cs = cold.stats();
    assert_eq!(cs.simulated as usize, grid.len());
    assert_eq!(cs.cache_hits, 0);

    // A brand-new session over the same directory must replay every cell
    // from disk, bit for bit — including the derived floating-point
    // figures and the exported JSON.
    let warm = SweepSession::with_disk_cache(&dir);
    let second = warm.run_all(&grid);
    let ws = warm.stats();
    assert_eq!(ws.simulated, 0, "warm rerun must not simulate");
    assert_eq!(ws.cache_hits as usize, grid.len());
    assert_eq!(ws.cache_hit_rate(), 1.0);
    for ((cfg, a), b) in grid.iter().zip(&first).zip(&second) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(a, b, "{}", cfg.fingerprint());
        assert_eq!(
            rar_sim::json::to_json_for(cfg, a),
            rar_sim::json::to_json_for(cfg, b)
        );
        assert_eq!(a.ipc().to_bits(), b.ipc().to_bits());
        assert_eq!(
            a.reliability.refined_avf().to_bits(),
            b.reliability.refined_avf().to_bits()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn results_are_independent_of_thread_count() {
    let grid = grid();
    let serial = SweepSession::new().threads(1).run_all(&grid);
    let parallel = SweepSession::new().threads(8).run_all(&grid);
    assert_eq!(serial.len(), parallel.len());
    for ((cfg, s), p) in grid.iter().zip(&serial).zip(&parallel) {
        assert_eq!(
            s.as_ref().unwrap(),
            p.as_ref().unwrap(),
            "{}",
            cfg.fingerprint()
        );
    }
}

#[test]
fn sweep_cells_match_standalone_runs() {
    // Memoized artifacts and work stealing must be invisible in the
    // results: each cell equals a from-scratch Simulation::run.
    let grid = grid();
    let swept = SweepSession::new().run_all(&grid);
    for (cfg, r) in grid.iter().zip(&swept) {
        assert_eq!(
            r.as_ref().unwrap(),
            &Simulation::run(cfg),
            "{}",
            cfg.fingerprint()
        );
    }
}

#[test]
fn corrupted_and_stale_entries_are_resimulated() {
    let dir = tmp_dir("defects");
    let grid = &grid()[..3];

    let first = SweepSession::with_disk_cache(&dir);
    let baseline = first.run_all(grid);

    // Corrupt one entry, version-strand another, leave the third intact.
    let cache = first.cache().unwrap();
    std::fs::write(cache.entry_path(&grid[0]), "{ truncated garbage").unwrap();
    let stale_path = cache.entry_path(&grid[1]);
    let stale = std::fs::read_to_string(&stale_path).unwrap().replace(
        &format!("\"rar_cache_version\": {CACHE_VERSION}"),
        &format!("\"rar_cache_version\": {}", CACHE_VERSION + 1),
    );
    std::fs::write(&stale_path, stale).unwrap();

    let second = SweepSession::with_disk_cache(&dir);
    let replayed = second.run_all(grid);
    let s = second.stats();
    assert_eq!(s.simulated, 2, "both defective entries must re-simulate");
    assert_eq!(s.cache_hits, 1, "the intact entry must replay");
    for (a, b) in baseline.iter().zip(&replayed) {
        assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
    }

    // Re-simulation repaired the defective entries on disk.
    let third = SweepSession::with_disk_cache(&dir);
    let _ = third.run_all(grid);
    assert_eq!(third.stats().cache_hits, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiment_options_share_one_session_across_matrices() {
    // Two figure-style matrices over one session: the second reuses the
    // memoized traces of the first (same workload/seed/horizon keys).
    let opts = rar_sim::ExperimentOptions {
        instructions: 1_000,
        warmup: 200,
        ..rar_sim::ExperimentOptions::default()
    };
    let cfg = |t: Technique| {
        SimConfig::builder()
            .workload("mcf")
            .technique(t)
            .instructions(opts.instructions)
            .warmup(opts.warmup)
            .build()
    };
    let session = Arc::clone(&opts.session);
    let _ = session.run_all(&[cfg(Technique::Ooo)]);
    let _ = session.run_all(&[cfg(Technique::Rar), cfg(Technique::Flush)]);
    let s = session.stats();
    assert_eq!(s.trace_memo_misses, 1, "one workload key, one generation");
    assert_eq!(s.trace_memo_hits, 2);
    assert_eq!(s.refinement_memo_misses, 1);
    assert_eq!(s.refinement_memo_hits, 2);
}

/// A four-workload grid at a small budget under four techniques.
fn small_grid(instructions: u64) -> Vec<SimConfig> {
    let mut grid = Vec::new();
    for w in ["mcf", "libquantum", "milc", "lbm"] {
        for t in [
            Technique::Ooo,
            Technique::Flush,
            Technique::Pre,
            Technique::Rar,
        ] {
            grid.push(
                SimConfig::builder()
                    .workload(w)
                    .technique(t)
                    .warmup(instructions / 4)
                    .instructions(instructions)
                    .build(),
            );
        }
    }
    grid
}

#[test]
fn quick_run_runs() {
    let r = Simulation::run(
        &SimConfig::builder()
            .workload("milc")
            .technique(Technique::Rar)
            .warmup(1_500 / 4)
            .instructions(1_500)
            .build(),
    );
    assert!(r.ipc() > 0.0);
}

#[test]
fn sweep_grid_runs_and_memoizes() {
    let session = SweepSession::new();
    let results = session.run_all(&small_grid(800));
    assert!(
        results.iter().all(Option::is_some),
        "every cell must succeed"
    );
    let stats = session.stats();
    assert_eq!(stats.simulated, 16);
    // Four workloads, one seed: four generations, twelve reuses.
    assert_eq!(stats.trace_memo_misses, 4);
    assert_eq!(stats.trace_memo_hits, 12);
}
