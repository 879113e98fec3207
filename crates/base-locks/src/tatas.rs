//! The test-and-test-and-set lock, one word under four waiting schedules.
//!
//! The paper calls the exponential-backoff variant the **BO lock** [3] and
//! uses it pervasively: as the global lock of C-BO-BO, C-BO-MCS, A-C-BO-BO
//! and A-C-BO-CLH (where, being lightly contended, it runs without
//! backoff), and — augmented with a `successor_exists` flag in the cohort
//! crate — as a local lock. The Fibonacci variant appears as "Fib-BO" in
//! the memcached evaluation (Table 1).
//!
//! The variants differ only in what a waiter does between probes, so they
//! are one type, [`TasLock<W>`], over a [`Wait`] schedule, and the paper's
//! names are aliases. Every variant is **thread-oblivious** (any thread
//! may call `unlock`; the lock word carries no owner identity) and
//! **abortable by design** (a waiter simply stops probing), the two
//! properties §3 of the paper relies on.

use crate::backoff::{Backoff, FibBackoff, SpinWait, Wait, YieldEvery64};
use crate::raw::{Patience, RawAbortableLock, RawLock};
use crossbeam_utils::CachePadded;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};

/// A test-and-test-and-set lock whose waiters follow schedule `W` between
/// probes.
#[derive(Debug, Default)]
pub struct TasLock<W> {
    state: CachePadded<AtomicBool>,
    schedule: PhantomData<fn() -> W>,
}

/// Plain test-and-test-and-set, kept mostly as a baseline: under
/// contention every release invalidates the lock word in every waiter's
/// cache, which is exactly the behaviour NUMA-aware locks exist to avoid.
pub type TatasLock = TasLock<YieldEvery64>;

/// TATAS with bounded **exponential backoff** — the paper's BO lock
/// (Agarwal & Cherian '89).
pub type BackoffLock = TasLock<Backoff>;

/// TATAS with **Fibonacci backoff** — "Fib-BO" in Table 1 of the paper.
/// The gentler growth curve probes more often than doubling, trading some
/// coherence traffic for lower handover latency.
pub type FibBackoffLock = TasLock<FibBackoff>;

/// The paper's **global BO lock**: a TATAS lock that never backs off.
///
/// §4.1.1: "in our implementation, threads contending at the global BO
/// lock continuously spin on it and never backoff, much like the 'bare
/// bones' test-and-test-and-set lock" — the global lock of a cohort lock
/// is only ever contended by one thread per cluster, so backoff would just
/// add handoff latency.
pub type GlobalBoLock = TasLock<SpinWait>;

impl<W: Wait> TasLock<W> {
    /// Creates an unlocked instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if currently held (racy snapshot; for monitoring only).
    pub fn is_locked(&self) -> bool {
        self.state.load(Ordering::Relaxed)
    }

    /// One probe: test on a (cached) read, set only if it saw the word
    /// free.
    #[inline]
    fn try_acquire(&self) -> bool {
        !self.state.load(Ordering::Relaxed)
            && self
                .state
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }
}

// SAFETY: the CAS that sets the word is the only way in, and `unlock`'s
// Release store pairs with the next winner's Acquire CAS.
unsafe impl<W: Wait> RawLock for TasLock<W> {
    type Token = ();

    fn lock(&self) {
        let mut wait = W::default();
        while !self.try_acquire() {
            wait.snooze();
        }
    }

    fn try_lock(&self) -> Option<()> {
        self.try_acquire().then_some(())
    }

    unsafe fn unlock(&self, _t: ()) {
        self.state.store(false, Ordering::Release);
    }
}

// SAFETY: an aborting waiter never wrote the word.
unsafe impl<W: Wait> RawAbortableLock for TasLock<W> {
    fn lock_with_patience(&self, patience_ns: u64) -> Option<()> {
        let mut wait = W::default();
        let mut p = Patience::new(patience_ns);
        loop {
            if self.try_acquire() {
                return Some(());
            }
            if p.expired() {
                return None;
            }
            wait.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mutual_exclusion_stress;
    use std::sync::Arc;

    #[test]
    fn tatas_mutual_exclusion() {
        mutual_exclusion_stress(Arc::new(TatasLock::new()), 4, 2_000);
    }

    #[test]
    fn bo_mutual_exclusion() {
        mutual_exclusion_stress(Arc::new(BackoffLock::new()), 4, 2_000);
    }

    #[test]
    fn fib_bo_mutual_exclusion() {
        mutual_exclusion_stress(Arc::new(FibBackoffLock::new()), 4, 2_000);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let l = BackoffLock::new();
        let t: () = l.try_lock().unwrap();
        assert!(l.try_lock().is_none());
        unsafe { l.unlock(t) };
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn abort_returns_none_while_held_and_lock_stays_usable() {
        let l = Arc::new(BackoffLock::new());
        let t: () = l.lock();
        assert!(l.lock_with_patience(100_000).is_none()); // 100 µs
        unsafe { l.unlock(t) };
        // After the abort the lock must still work.
        let t: () = l.lock_with_patience(1_000_000_000).expect("now free");
        unsafe { l.unlock(t) };
    }

    #[test]
    fn thread_oblivious_release() {
        // BO locks are thread-oblivious: hand the token to another thread.
        let l = Arc::new(TatasLock::new());
        let t: () = l.lock();
        let l2 = Arc::clone(&l);
        std::thread::spawn(move || unsafe { l2.unlock(t) })
            .join()
            .unwrap();
        assert!(!l.is_locked());
    }
}
