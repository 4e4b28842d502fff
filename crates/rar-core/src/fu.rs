//! Functional-unit pool with per-cycle issue-port and busy tracking.
//!
//! Adders and multipliers are pipelined (one issue per unit per cycle);
//! dividers are unpipelined (busy for their full latency). Loads, stores
//! and branches issue through the integer adders / memory ports.

use crate::config::{exec_latency, FuConfig};
use rar_isa::UopKind;

#[derive(Debug, Clone)]
struct UnitGroup {
    /// Per-unit cycle until which the unit is busy.
    busy_until: Vec<u64>,
    /// Issue slots consumed in the current cycle (pipelined units still
    /// accept at most one issue per cycle each).
    issued_this_cycle: usize,
    cycle: u64,
    pipelined: bool,
}

impl UnitGroup {
    fn new(count: usize, pipelined: bool) -> Self {
        UnitGroup {
            busy_until: vec![0; count],
            issued_this_cycle: 0,
            cycle: u64::MAX,
            pipelined,
        }
    }

    fn try_issue(&mut self, now: u64, latency: u64) -> bool {
        if self.cycle != now {
            self.cycle = now;
            self.issued_this_cycle = 0;
        }
        if self.issued_this_cycle >= self.busy_until.len() {
            return false;
        }
        // Find a unit that is free (for unpipelined) / exists (pipelined).
        let slot = self.busy_until.iter_mut().find(|b| **b <= now);
        match slot {
            Some(b) => {
                if !self.pipelined {
                    *b = now + latency;
                }
                self.issued_this_cycle += 1;
                true
            }
            None => false,
        }
    }
}

/// The complete execution pool of Table II.
#[derive(Debug, Clone)]
pub struct FuPool {
    int_add: UnitGroup,
    int_mul: UnitGroup,
    int_div: UnitGroup,
    fp_add: UnitGroup,
    fp_mul: UnitGroup,
    fp_div: UnitGroup,
    mem_ports: UnitGroup,
}

impl FuPool {
    /// Builds the pool from a configuration.
    #[must_use]
    pub fn new(config: &FuConfig) -> Self {
        FuPool {
            int_add: UnitGroup::new(config.int_add, true),
            int_mul: UnitGroup::new(config.int_mul, true),
            int_div: UnitGroup::new(config.int_div, false),
            fp_add: UnitGroup::new(config.fp_add, true),
            fp_mul: UnitGroup::new(config.fp_mul, true),
            fp_div: UnitGroup::new(config.fp_div, false),
            mem_ports: UnitGroup::new(config.mem_ports, true),
        }
    }

    /// Tries to claim an issue slot for `kind` at `now`. Returns `false`
    /// when every suitable unit is busy or its port was already used this
    /// cycle.
    pub fn try_issue(&mut self, kind: UopKind, now: u64) -> bool {
        let lat = exec_latency(kind);
        match kind {
            UopKind::IntAlu | UopKind::Branch | UopKind::Nop => self.int_add.try_issue(now, lat),
            UopKind::IntMul => self.int_mul.try_issue(now, lat),
            UopKind::IntDiv => self.int_div.try_issue(now, lat),
            UopKind::FpAdd => self.fp_add.try_issue(now, lat),
            UopKind::FpMul => self.fp_mul.try_issue(now, lat),
            UopKind::FpDiv => self.fp_div.try_issue(now, lat),
            UopKind::Load | UopKind::Store => self.mem_ports.try_issue(now, lat),
        }
    }

    /// The earliest cycle after `now` at which a busy unpipelined unit
    /// frees up, if any is busy.
    #[must_use]
    pub(crate) fn next_release(&self, now: u64) -> Option<u64> {
        [
            &self.int_add,
            &self.int_mul,
            &self.int_div,
            &self.fp_add,
            &self.fp_mul,
            &self.fp_div,
            &self.mem_ports,
        ]
        .into_iter()
        .flat_map(|g| g.busy_until.iter().copied())
        .filter(|&b| b > now)
        .min()
    }

    /// Clears all busy state (pipeline flush).
    pub fn reset(&mut self) {
        for g in [
            &mut self.int_add,
            &mut self.int_mul,
            &mut self.int_div,
            &mut self.fp_add,
            &mut self.fp_mul,
            &mut self.fp_div,
            &mut self.mem_ports,
        ] {
            for b in &mut g.busy_until {
                *b = 0;
            }
            g.cycle = u64::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> FuPool {
        FuPool::new(&FuConfig::baseline())
    }

    #[test]
    fn three_int_adds_per_cycle() {
        let mut p = pool();
        assert!(p.try_issue(UopKind::IntAlu, 10));
        assert!(p.try_issue(UopKind::IntAlu, 10));
        assert!(p.try_issue(UopKind::IntAlu, 10));
        assert!(!p.try_issue(UopKind::IntAlu, 10), "only 3 int adders");
        assert!(p.try_issue(UopKind::IntAlu, 11), "fresh cycle, fresh ports");
    }

    #[test]
    fn multiplier_is_pipelined() {
        let mut p = pool();
        assert!(p.try_issue(UopKind::IntMul, 10));
        assert!(!p.try_issue(UopKind::IntMul, 10), "one port per cycle");
        assert!(p.try_issue(UopKind::IntMul, 11), "pipelined: next cycle ok");
    }

    #[test]
    fn divider_is_unpipelined() {
        let mut p = pool();
        assert!(p.try_issue(UopKind::IntDiv, 10));
        assert!(!p.try_issue(UopKind::IntDiv, 11), "busy for 18 cycles");
        assert!(!p.try_issue(UopKind::IntDiv, 27));
        assert!(p.try_issue(UopKind::IntDiv, 28));
    }

    #[test]
    fn branches_share_int_adders() {
        let mut p = pool();
        assert!(p.try_issue(UopKind::Branch, 5));
        assert!(p.try_issue(UopKind::IntAlu, 5));
        assert!(p.try_issue(UopKind::IntAlu, 5));
        assert!(!p.try_issue(UopKind::Branch, 5));
    }

    #[test]
    fn two_memory_ports() {
        let mut p = pool();
        assert!(p.try_issue(UopKind::Load, 3));
        assert!(p.try_issue(UopKind::Store, 3));
        assert!(!p.try_issue(UopKind::Load, 3));
    }

    #[test]
    fn reset_clears_busy() {
        let mut p = pool();
        assert!(p.try_issue(UopKind::FpDiv, 10));
        assert!(!p.try_issue(UopKind::FpDiv, 12));
        p.reset();
        assert!(p.try_issue(UopKind::FpDiv, 12));
    }
}
