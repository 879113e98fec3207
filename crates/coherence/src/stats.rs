//! Per-thread access statistics.
//!
//! The directory updates these thread-local counters on every access, so a
//! harness can attribute coherence traffic to the thread (and therefore the
//! critical section) that caused it without any shared-counter contention —
//! the same discipline the perf-book guide recommends for hot paths.

use std::cell::Cell;

/// Counters accumulated by the calling thread since the last
/// [`take_thread_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Total simulated-memory accesses.
    pub accesses: u64,
    /// Accesses that required a cross-cluster transfer (the paper's "L2
    /// coherence misses").
    pub remote_misses: u64,
    /// Cold (first-touch) misses.
    pub cold_misses: u64,
    /// Virtual nanoseconds charged by the directory.
    pub charged_ns: u64,
}

thread_local! {
    static STATS: Cell<ThreadStats> = const {
        Cell::new(ThreadStats { accesses: 0, remote_misses: 0, cold_misses: 0, charged_ns: 0 })
    };
}

#[inline]
pub(crate) fn record(remote_miss: bool, cold_miss: bool, ns: u64) {
    STATS.with(|s| {
        let mut v = s.get();
        v.accesses += 1;
        v.remote_misses += remote_miss as u64;
        v.cold_misses += cold_miss as u64;
        v.charged_ns += ns;
        s.set(v);
    });
}

/// Returns the calling thread's counters without resetting them.
pub fn thread_stats() -> ThreadStats {
    STATS.with(|s| s.get())
}

/// Returns and resets the calling thread's counters.
pub fn take_thread_stats() -> ThreadStats {
    STATS.with(|s| s.replace(ThreadStats::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_and_take_resets() {
        take_thread_stats();
        record(true, false, 80);
        record(false, false, 20);
        record(false, true, 60);
        let s = take_thread_stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.remote_misses, 1);
        assert_eq!(s.cold_misses, 1);
        assert_eq!(s.charged_ns, 160);
        assert_eq!(thread_stats(), ThreadStats::default());
    }
}
