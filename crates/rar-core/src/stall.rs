//! Top-down cycle accounting: where every simulated cycle went.
//!
//! The six-phase host profiler in `rar-telemetry` says how long `core_sim`
//! takes; it cannot say *why*. This module holds the guest-side answer: a
//! per-cycle classifier (driven from `Core::cycle` when stall profiling is
//! enabled) attributes every measured cycle to exactly one
//! [`StallBucket`], so the buckets sum to total cycles by construction —
//! the conservation invariant CI checks on every export. The
//! [`StallBucket::Quiescent`] fraction is the headline number: cycles
//! where the whole pipeline did nothing (commit, dispatch, issue and the
//! runahead engine all idle), i.e. the upper bound on what an event-driven
//! fast-forward of the cycle loop could skip (ROADMAP open item 2).
//!
//! Alongside the taxonomy, [`StallProfile`] keeps log2 occupancy
//! histograms of the back-end structures (ROB/IQ/LQ/SQ/MSHR) sampled once
//! per cycle — the shape data for sizing sweeps without rerunning them.
//!
//! Classification priority (first match wins, evaluated at end of cycle):
//! retiring (committed something) → quiescent (nothing moved) → runahead
//! mode → DRAM wait (blocking head miss) → ROB full → IQ full → LQ/SQ
//! full → frontend (fetch stall / unresolved branch / wrong path) →
//! exec (back-end busy but nothing retired).

use rar_telemetry::MetricsRegistry;

/// One cause per cycle, first match wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallBucket {
    /// At least one correct-path instruction committed this cycle.
    Retiring,
    /// Nothing moved: no commit, no dispatch, no issue, no runahead work.
    /// The event-driven fast-forward opportunity.
    Quiescent,
    /// The core was in runahead mode (and doing runahead work).
    Runahead,
    /// Commit blocked at the ROB head by an outstanding LLC miss.
    DramWait,
    /// Dispatch blocked by a full ROB.
    RobFull,
    /// Dispatch blocked by a full issue queue.
    IqFull,
    /// Dispatch blocked by a full load or store queue.
    LsqFull,
    /// Front-end bound: fetch stall, unresolved mispredicted branch, or a
    /// wrong-path episode.
    Frontend,
    /// Back-end busy (issued or dispatched) without retiring.
    Exec,
}

impl StallBucket {
    /// Number of buckets.
    pub const COUNT: usize = 9;

    /// Every bucket, in classification-priority order.
    pub const ALL: [StallBucket; StallBucket::COUNT] = [
        StallBucket::Retiring,
        StallBucket::Quiescent,
        StallBucket::Runahead,
        StallBucket::DramWait,
        StallBucket::RobFull,
        StallBucket::IqFull,
        StallBucket::LsqFull,
        StallBucket::Frontend,
        StallBucket::Exec,
    ];

    /// Stable snake_case name used in JSON exports, metric names, and the
    /// dashboard.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StallBucket::Retiring => "retiring",
            StallBucket::Quiescent => "quiescent",
            StallBucket::Runahead => "runahead",
            StallBucket::DramWait => "dram_wait",
            StallBucket::RobFull => "rob_full",
            StallBucket::IqFull => "iq_full",
            StallBucket::LsqFull => "lsq_full",
            StallBucket::Frontend => "frontend",
            StallBucket::Exec => "exec",
        }
    }

    /// Position in [`StallBucket::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Occupancy histogram buckets: bucket 0 is "empty", bucket `j >= 1`
/// covers occupancies in `[2^(j-1), 2^j)`, the last bucket is open-ended.
pub const OCC_BUCKETS: usize = 12;

/// Structures whose occupancy is sampled once per profiled cycle, in
/// [`StallProfile::occupancy`] row order. `mshr` counts outstanding LLC
/// misses (the MLP set), the closest observable proxy for MSHR pressure.
pub const OCC_STRUCTURES: [&str; 5] = ["rob", "iq", "lq", "sq", "mshr"];

/// Log2 occupancy bucket for a sampled occupancy.
#[must_use]
pub fn occ_bucket(occ: usize) -> usize {
    if occ == 0 {
        0
    } else {
        ((usize::BITS - occ.leading_zeros()) as usize).min(OCC_BUCKETS - 1)
    }
}

/// Per-run cycle accounting: one tally per cycle (conservation: the tally
/// sum equals total measured cycles) plus per-structure occupancy shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallProfile {
    /// Cycles attributed to each bucket, indexed by [`StallBucket::index`].
    pub buckets: [u64; StallBucket::COUNT],
    /// Log2 occupancy histograms, row per [`OCC_STRUCTURES`] entry.
    pub occupancy: [[u64; OCC_BUCKETS]; OCC_STRUCTURES.len()],
}

impl Default for StallProfile {
    fn default() -> Self {
        StallProfile {
            buckets: [0; StallBucket::COUNT],
            occupancy: [[0; OCC_BUCKETS]; OCC_STRUCTURES.len()],
        }
    }
}

impl StallProfile {
    /// Records `cycles` cycles attributed to `bucket` with the given
    /// back-end occupancies ([`OCC_STRUCTURES`] order) in every one.
    pub fn record(
        &mut self,
        bucket: StallBucket,
        occupancies: [usize; OCC_STRUCTURES.len()],
        cycles: u64,
    ) {
        self.buckets[bucket.index()] += cycles;
        for (row, occ) in occupancies.into_iter().enumerate() {
            self.occupancy[row][occ_bucket(occ)] += cycles;
        }
    }

    /// Cycles attributed to `bucket`.
    #[must_use]
    pub fn count(&self, bucket: StallBucket) -> u64 {
        self.buckets[bucket.index()]
    }

    /// Total attributed cycles — equals the run's measured cycle count by
    /// construction (exactly one tally per cycle).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fraction of cycles classified [`StallBucket::Quiescent`]
    /// (0 when nothing was profiled).
    #[must_use]
    pub fn quiescent_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.count(StallBucket::Quiescent) as f64 / total as f64
    }

    /// Accumulates every stall bucket into `registry` under
    /// `rar_stall_<bucket>_cycles_total` (and occupancy rows under
    /// `rar_occ_<structure>_b<j>_cycles_total`), so a sweep session can
    /// aggregate cycle accounting across its cells. Must stay exhaustive
    /// over [`StallBucket::ALL`] — `cargo xtask lint` checks that every
    /// bucket reaches both exporters.
    pub fn record_into(&self, registry: &MetricsRegistry) {
        for bucket in StallBucket::ALL {
            registry
                .counter(&format!("rar_stall_{}_cycles_total", bucket.name()))
                .add(self.count(bucket));
        }
        for (row, structure) in OCC_STRUCTURES.iter().enumerate() {
            for (j, &n) in self.occupancy[row].iter().enumerate() {
                if n > 0 {
                    registry
                        .counter(&format!("rar_occ_{structure}_b{j}_cycles_total"))
                        .add(n);
                }
            }
        }
    }

    /// Merges another profile into this one (sweep-level aggregation).
    pub fn merge(&mut self, other: &StallProfile) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        for (ra, rb) in self.occupancy.iter_mut().zip(other.occupancy.iter()) {
            for (a, b) in ra.iter_mut().zip(rb.iter()) {
                *a += b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_names_are_unique_snake_case() {
        let mut names: Vec<&str> = StallBucket::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), StallBucket::COUNT);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), StallBucket::COUNT, "duplicate bucket name");
        for name in names {
            assert!(name.chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn indices_match_all_order() {
        for (i, b) in StallBucket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }

    #[test]
    fn occ_bucket_is_log2_with_open_tail() {
        assert_eq!(occ_bucket(0), 0);
        assert_eq!(occ_bucket(1), 1);
        assert_eq!(occ_bucket(2), 2);
        assert_eq!(occ_bucket(3), 2);
        assert_eq!(occ_bucket(4), 3);
        assert_eq!(occ_bucket(192), 8);
        assert_eq!(occ_bucket(1 << 30), OCC_BUCKETS - 1);
    }

    #[test]
    fn tally_conserves_and_fraction_follows() {
        let mut p = StallProfile::default();
        p.record(StallBucket::Retiring, [0; 5], 3);
        p.record(StallBucket::Quiescent, [0; 5], 1);
        assert_eq!(p.total(), 4);
        assert_eq!(p.occupancy[0][0], 4, "one sample per cycle");
        assert!((p.quiescent_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(StallProfile::default().quiescent_fraction(), 0.0);
    }

    #[test]
    fn record_into_covers_every_bucket() {
        let reg = MetricsRegistry::new();
        let mut p = StallProfile::default();
        for (i, b) in StallBucket::ALL.into_iter().enumerate() {
            let rob = if i == 0 { 100 } else { 0 };
            p.record(b, [rob, 0, 0, 0, 0], 1);
        }
        p.record_into(&reg);
        p.record_into(&reg);
        for b in StallBucket::ALL {
            let name = format!("rar_stall_{}_cycles_total", b.name());
            assert_eq!(reg.counter(&name).get(), 2, "{name}");
        }
        assert_eq!(reg.counter("rar_occ_rob_b7_cycles_total").get(), 2);
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = StallProfile::default();
        let mut b = StallProfile::default();
        a.record(StallBucket::Exec, [0; 5], 1);
        b.record(StallBucket::Exec, [0; 5], 1);
        b.record(StallBucket::DramWait, [0, 0, 0, 0, 2], 1);
        a.merge(&b);
        assert_eq!(a.count(StallBucket::Exec), 2);
        assert_eq!(a.count(StallBucket::DramWait), 1);
        assert_eq!(a.occupancy[4][2], 1);
        assert_eq!(a.total(), 3);
    }
}
