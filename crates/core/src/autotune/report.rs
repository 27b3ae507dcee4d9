//! Tuning-run accounting: how much work the search did, and how much
//! the cost model saved over an exhaustive grid.

/// Counters of one [`crate::autotune::autotune`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneReport {
    /// Size of the exhaustive search grid.
    pub grid_size: usize,
    /// Grid points the static analyzer proved illegal and discarded
    /// before any model or simulator work (see
    /// `crate::analyze::screen_candidate`).
    pub static_pruned: usize,
    /// ω evaluations (= `grid_size` minus the statically pruned points).
    pub model_evals: usize,
    /// Full simulations run: the short-list after sim-key dedup,
    /// including the rule-based anchor.
    pub sims_run: usize,
    /// Wall time of the confirmation stage (the short-list simulations),
    /// in nanoseconds. The one non-deterministic field: compare the
    /// counters, report the wall time.
    pub sim_wall_ns: u64,
}

impl TuneReport {
    /// How many times fewer simulations the guided search ran than an
    /// exhaustive sweep of the grid would have (the acceptance metric of
    /// the tuning subsystem: ≥ 4 on every shipped workload).
    pub fn sim_savings(&self) -> f64 {
        self.grid_size as f64 / self.sims_run.max(1) as f64
    }
}

impl std::fmt::Display for TuneReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "grid {} | static pruned {} | model evals {} | sims {} ({:.1} ms) | {:.1}x fewer sims than exhaustive",
            self.grid_size,
            self.static_pruned,
            self.model_evals,
            self.sims_run,
            self.sim_wall_ns as f64 / 1e6,
            self.sim_savings()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_ratio_is_grid_over_sims() {
        let r = TuneReport { grid_size: 120, sims_run: 10, ..Default::default() };
        assert_eq!(r.sim_savings(), 12.0);
        // No sims at all must not divide by zero.
        let r0 = TuneReport { grid_size: 8, sims_run: 0, ..Default::default() };
        assert_eq!(r0.sim_savings(), 8.0);
    }

    #[test]
    fn display_mentions_the_headline_numbers() {
        let r = TuneReport {
            grid_size: 120,
            static_pruned: 12,
            model_evals: 108,
            sims_run: 9,
            sim_wall_ns: 1_500_000,
        };
        let s = r.to_string();
        assert!(s.contains("grid 120") && s.contains("sims 9"));
    }
}
