//! Thread-package statistics, used by the paper's overhead analyses
//! (Table I and Figure 11 count context switches on the send path).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Internal atomic counters shared between a package and its scheduler.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub ctx_switches: AtomicU64,
    pub yields: AtomicU64,
    pub blocks: AtomicU64,
    pub spawns: AtomicU64,
    /// Entries in the scheduler's timer queue (a gauge, not in
    /// [`PackageStats`]): at most one per blocked green thread.
    pub timers: AtomicU64,
}

impl Counters {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub(crate) fn snapshot(&self) -> PackageStats {
        PackageStats {
            context_switches: self.ctx_switches.load(Ordering::Relaxed),
            yields: self.yields.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
            spawns: self.spawns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of a thread package's activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackageStats {
    /// Scheduler activations of a green thread (user-level package) or 0
    /// (kernel package: switches are invisible to user space).
    pub context_switches: u64,
    /// Voluntary yields.
    pub yields: u64,
    /// Blocking waits entered through the package-aware primitives.
    pub blocks: u64,
    /// Threads spawned.
    pub spawns: u64,
}

impl PackageStats {
    /// Difference between two snapshots (`self` being the later one).
    ///
    /// Saturates at zero if counters regressed (they cannot, but the API
    /// promises no panics).
    pub fn since(&self, earlier: &PackageStats) -> PackageStats {
        PackageStats {
            context_switches: self
                .context_switches
                .saturating_sub(earlier.context_switches),
            yields: self.yields.saturating_sub(earlier.yields),
            blocks: self.blocks.saturating_sub(earlier.blocks),
            spawns: self.spawns.saturating_sub(earlier.spawns),
        }
    }
}

impl std::fmt::Display for PackageStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "switches={} yields={} blocks={} spawns={}",
            self.context_switches, self.yields, self.blocks, self.spawns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let c = Counters::new();
        c.ctx_switches.store(5, Ordering::Relaxed);
        c.spawns.store(2, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.context_switches, 5);
        assert_eq!(s.spawns, 2);
        assert_eq!(s.yields, 0);
    }

    #[test]
    fn since_subtracts_and_saturates() {
        let a = PackageStats {
            context_switches: 10,
            yields: 1,
            blocks: 0,
            spawns: 3,
        };
        let b = PackageStats {
            context_switches: 4,
            yields: 2,
            blocks: 0,
            spawns: 1,
        };
        let d = a.since(&b);
        assert_eq!(d.context_switches, 6);
        assert_eq!(d.yields, 0); // saturated
        assert_eq!(d.spawns, 2);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!PackageStats::default().to_string().is_empty());
    }
}
