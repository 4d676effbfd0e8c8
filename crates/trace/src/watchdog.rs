//! The hang watchdog: progress-signature freeze detection plus the
//! diagnostic snapshot types the run loops assemble when it fires.

/// Detects frozen progress. The owning run loop feeds [`Watchdog::observe`]
/// a *progress signature* every cycle — any monotone sum of
/// retirement-ish counters (instructions retired, FP issues, DMA beats,
/// barriers released, lines refilled). If the signature does not change
/// for `limit` consecutive cycles while harts are unfinished, the
/// machine is wedged: nothing that could ever unblock it can happen
/// without moving one of those counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    limit: u64,
    last_sig: u64,
    last_change: u64,
    primed: bool,
}

impl Watchdog {
    /// A watchdog firing after `limit` progress-free cycles.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero (every cycle would "hang").
    #[must_use]
    pub fn new(limit: u64) -> Self {
        assert!(limit > 0, "a zero-cycle watchdog would always fire");
        Watchdog {
            limit,
            last_sig: 0,
            last_change: 0,
            primed: false,
        }
    }

    /// The configured limit.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Whether observing `signature` restarts the progress-free count:
    /// the first observation, or a signature that moved since the last
    /// one. An owner re-takes the baseline its hang reports measure
    /// stalled-window deltas against exactly then.
    #[must_use]
    pub fn progressed(&self, signature: u64) -> bool {
        !self.primed || signature != self.last_sig
    }

    /// Feeds one cycle's signature; returns `Some(stuck_for)` when the
    /// signature has been frozen for at least the limit.
    pub fn observe(&mut self, cycle: u64, signature: u64) -> Option<u64> {
        if self.progressed(signature) {
            self.primed = true;
            self.last_sig = signature;
            self.last_change = cycle;
            return None;
        }
        let stuck_for = cycle.saturating_sub(self.last_change);
        (stuck_for >= self.limit).then_some(stuck_for)
    }

    /// The largest idle window an event-driven run loop may fast-forward
    /// from `now` without overshooting this watchdog's next possible
    /// deadline: a skipped window counts as its true cycle span, and the
    /// run loop observes once after the skip, so capping the skip at
    /// `last_change + limit` reproduces the dense loop's firing cycle
    /// and `stuck_for` exactly. An unprimed watchdog (no observation
    /// yet) allows only a single cycle — a dense loop would prime it at
    /// the next observation.
    #[must_use]
    pub fn skip_cap(&self, now: u64) -> u64 {
        if !self.primed {
            return now + 1;
        }
        (self.last_change + self.limit).max(now + 1)
    }
}

/// One resource's state in a [`HangReport`] — a FIFO, a barrier, an MSHR
/// file, a DMA doorbell...
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceState {
    /// Hierarchical name, e.g. `"cluster0.core1.fp.chain.f4"`.
    pub path: String,
    /// Human-readable state, e.g. `"full (valid, 2 producers held)"`.
    pub state: String,
    /// Whether this resource is (part of) what blocks progress.
    pub blocked: bool,
}

impl ResourceState {
    /// A non-blocking informational entry.
    #[must_use]
    pub fn info(path: impl Into<String>, state: impl Into<String>) -> Self {
        ResourceState {
            path: path.into(),
            state: state.into(),
            blocked: false,
        }
    }

    /// A blocking entry.
    #[must_use]
    pub fn blocked(path: impl Into<String>, state: impl Into<String>) -> Self {
        ResourceState {
            path: path.into(),
            state: state.into(),
            blocked: true,
        }
    }
}

/// The diagnostic snapshot a fired watchdog produces instead of letting
/// the run spin to its cycle budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// Cycles the progress signature had been frozen.
    pub stuck_for: u64,
    /// Every inspected resource, blocked ones first.
    pub resources: Vec<ResourceState>,
}

impl HangReport {
    /// Assembles a report, sorting blocked resources to the front
    /// (stable within each group).
    #[must_use]
    pub fn new(cycle: u64, stuck_for: u64, mut resources: Vec<ResourceState>) -> Self {
        resources.sort_by_key(|r| !r.blocked);
        HangReport {
            cycle,
            stuck_for,
            resources,
        }
    }

    /// The blocked resources only.
    pub fn blocked(&self) -> impl Iterator<Item = &ResourceState> {
        self.resources.iter().filter(|r| r.blocked)
    }

    /// Whether any resource path or state mentions `needle` (test/triage
    /// convenience).
    #[must_use]
    pub fn mentions(&self, needle: &str) -> bool {
        self.resources
            .iter()
            .any(|r| r.path.contains(needle) || r.state.contains(needle))
    }
}

impl std::fmt::Display for HangReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "hang detected at cycle {}: no architectural progress for {} cycles",
            self.cycle, self.stuck_for
        )?;
        for r in &self.resources {
            writeln!(
                f,
                "  [{}] {}: {}",
                if r.blocked { "BLOCKED" } else { "  ok   " },
                r.path,
                r.state
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_fires_only_after_a_frozen_limit() {
        let mut w = Watchdog::new(10);
        // Progress every cycle: never fires.
        for c in 0..100u64 {
            assert_eq!(w.observe(c, c), None);
        }
        // Freeze: the last change was at cycle 99, so the 10-cycle
        // limit is reached at cycle 109.
        for c in 100..109u64 {
            assert_eq!(w.observe(c, 99), None, "cycle {c}");
        }
        assert_eq!(w.observe(109, 99), Some(10));
        // Progress resets it.
        assert_eq!(w.observe(110, 100), None);
        assert_eq!(w.observe(111, 100), None);
    }

    #[test]
    fn skip_cap_reproduces_the_dense_firing_cycle() {
        let mut w = Watchdog::new(10);
        // Unprimed: only one cycle may be skipped (the dense loop would
        // prime at its very next observation).
        assert_eq!(w.skip_cap(0), 1);
        assert_eq!(w.observe(99, 5), None);
        // Frozen since cycle 99: the deadline is cycle 109, however far
        // the idle window could otherwise stretch.
        assert_eq!(w.skip_cap(100), 109);
        assert_eq!(w.skip_cap(108), 109);
        // Skipping to the cap and observing fires with the same
        // stuck_for the dense loop reports.
        for c in 100..109u64 {
            assert_eq!(w.observe(c, 5), None);
        }
        assert_eq!(w.skip_cap(109), 110, "never caps below now + 1");
        assert_eq!(w.observe(109, 5), Some(10));
    }

    #[test]
    fn report_sorts_blocked_first_and_finds_needles() {
        let report = HangReport::new(
            500,
            100,
            vec![
                ResourceState::info("cluster0.core0", "halted"),
                ResourceState::blocked("cluster0.core1.fp.chain.f4", "full"),
            ],
        );
        assert!(report.resources[0].blocked);
        assert_eq!(report.blocked().count(), 1);
        assert!(report.mentions("chain.f4"));
        assert!(!report.mentions("mshr"));
        let text = report.to_string();
        assert!(text.contains("BLOCKED"));
        assert!(text.contains("no architectural progress for 100 cycles"));
    }

    #[test]
    #[should_panic(expected = "zero-cycle")]
    fn zero_limit_is_rejected() {
        let _ = Watchdog::new(0);
    }
}
