//! Per-run core statistics: performance (IPC), memory-level parallelism,
//! runahead telemetry.

/// Counters accumulated over one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreStats {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Useful (correct-path) instructions committed.
    pub committed: u64,
    /// Branch mispredictions observed at dispatch.
    pub branch_mispredicts: u64,
    /// Sum over cycles of outstanding LLC misses (for average MLP).
    pub mlp_sum: u64,
    /// Cycles with at least one outstanding LLC miss.
    pub mlp_cycles: u64,
    /// Runahead intervals entered.
    pub runahead_intervals: u64,
    /// Cycles spent in runahead mode.
    pub runahead_cycles: u64,
    /// Future-stream micro-ops processed by the runahead engine.
    pub runahead_uops: u64,
    /// Prefetches issued from runahead mode (loads sent to memory).
    pub runahead_prefetches: u64,
    /// Runahead loads skipped because their address was invalid (INV).
    pub runahead_inv_loads: u64,
    /// Full pipeline flushes (runahead exits with flush, or FLUSH events).
    pub flushes: u64,
    /// In-flight instructions squashed by flushes.
    pub squashed: u64,
    /// Cycles dispatch was blocked by a full ROB.
    pub rob_full_cycles: u64,
    /// Cycles dispatch was blocked by a full issue queue.
    pub iq_full_cycles: u64,
    /// Cycles commit was blocked at the ROB head by an LLC miss.
    pub head_blocked_cycles: u64,
    /// Micro-ops dispatched into the back-end (correct and wrong path).
    pub dispatched: u64,
    /// Micro-ops issued to functional units in normal mode.
    pub issued: u64,
}

impl CoreStats {
    /// Useful instructions committed per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.committed as f64 / self.cycles as f64
    }

    /// Average memory-level parallelism: mean number of outstanding LLC
    /// misses over the cycles that had at least one (the paper's MLP
    /// metric in Figure 8b).
    #[must_use]
    pub fn mlp(&self) -> f64 {
        if self.mlp_cycles == 0 {
            return 0.0;
        }
        self.mlp_sum as f64 / self.mlp_cycles as f64
    }

    /// Adds `k` more times each counter's movement since `before`: a
    /// fast-forward credits the cycles it skips with the deltas of the
    /// stepped cycle they repeat.
    pub(crate) fn credit_repeats(&mut self, before: &CoreStats, k: u64) {
        // Exhaustive on purpose: a new counter must be credited too.
        let CoreStats {
            cycles,
            committed,
            branch_mispredicts,
            mlp_sum,
            mlp_cycles,
            runahead_intervals,
            runahead_cycles,
            runahead_uops,
            runahead_prefetches,
            runahead_inv_loads,
            flushes,
            squashed,
            rob_full_cycles,
            iq_full_cycles,
            head_blocked_cycles,
            dispatched,
            issued,
        } = self;
        for (now, then) in [
            (cycles, before.cycles),
            (committed, before.committed),
            (branch_mispredicts, before.branch_mispredicts),
            (mlp_sum, before.mlp_sum),
            (mlp_cycles, before.mlp_cycles),
            (runahead_intervals, before.runahead_intervals),
            (runahead_cycles, before.runahead_cycles),
            (runahead_uops, before.runahead_uops),
            (runahead_prefetches, before.runahead_prefetches),
            (runahead_inv_loads, before.runahead_inv_loads),
            (flushes, before.flushes),
            (squashed, before.squashed),
            (rob_full_cycles, before.rob_full_cycles),
            (iq_full_cycles, before.iq_full_cycles),
            (head_blocked_cycles, before.head_blocked_cycles),
            (dispatched, before.dispatched),
            (issued, before.issued),
        ] {
            *now += (*now - then) * k;
        }
    }

    /// Mean runahead interval length in cycles.
    #[must_use]
    pub fn mean_runahead_interval(&self) -> f64 {
        if self.runahead_intervals == 0 {
            return 0.0;
        }
        self.runahead_cycles as f64 / self.runahead_intervals as f64
    }

    /// Accumulates every counter into `registry` under
    /// `rar_core_<field>_total`, so a sweep session can aggregate guest
    /// work (cycles, commits, runahead activity) across its cells. The
    /// field list here must stay exhaustive — `cargo xtask lint` checks
    /// that each `CoreStats` field is recorded.
    pub fn record_into(&self, registry: &rar_telemetry::MetricsRegistry) {
        for (name, value) in [
            ("cycles", self.cycles),
            ("committed", self.committed),
            ("branch_mispredicts", self.branch_mispredicts),
            ("mlp_sum", self.mlp_sum),
            ("mlp_cycles", self.mlp_cycles),
            ("runahead_intervals", self.runahead_intervals),
            ("runahead_cycles", self.runahead_cycles),
            ("runahead_uops", self.runahead_uops),
            ("runahead_prefetches", self.runahead_prefetches),
            ("runahead_inv_loads", self.runahead_inv_loads),
            ("flushes", self.flushes),
            ("squashed", self.squashed),
            ("rob_full_cycles", self.rob_full_cycles),
            ("iq_full_cycles", self.iq_full_cycles),
            ("head_blocked_cycles", self.head_blocked_cycles),
            ("dispatched", self.dispatched),
            ("issued", self.issued),
        ] {
            registry
                .counter(&format!("rar_core_{name}_total"))
                .add(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_definition() {
        let s = CoreStats {
            cycles: 200,
            committed: 100,
            ..CoreStats::default()
        };
        assert!((s.ipc() - 0.5).abs() < 1e-12);
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn mlp_definition() {
        let s = CoreStats {
            mlp_sum: 60,
            mlp_cycles: 20,
            ..CoreStats::default()
        };
        assert!((s.mlp() - 3.0).abs() < 1e-12);
        assert_eq!(CoreStats::default().mlp(), 0.0);
    }

    #[test]
    fn record_into_covers_every_field_and_accumulates() {
        let reg = rar_telemetry::MetricsRegistry::new();
        let s = CoreStats {
            cycles: 10,
            committed: 7,
            ..CoreStats::default()
        };
        s.record_into(&reg);
        s.record_into(&reg);
        assert_eq!(reg.counter("rar_core_cycles_total").get(), 20);
        assert_eq!(reg.counter("rar_core_committed_total").get(), 7 * 2);
        // One counter per CoreStats field.
        assert_eq!(reg.len(), 17);
    }

    #[test]
    fn mean_interval() {
        let s = CoreStats {
            runahead_intervals: 4,
            runahead_cycles: 800,
            ..CoreStats::default()
        };
        assert!((s.mean_runahead_interval() - 200.0).abs() < 1e-12);
    }
}
