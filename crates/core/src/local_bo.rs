//! Cohort-detecting BO (test-and-test-and-set backoff) local lock — §3.1.
//!
//! A plain BO lock cannot tell its releaser whether anyone is waiting, so
//! the paper adds a `successor-exists` flag: set by a thread immediately
//! before each CAS attempt, cleared by the CAS winner, and refreshed by
//! spinning threads whenever they observe it cleared. `alone?` is the
//! flag's complement. The flag admits *incorrect-false* readings (a waiter
//! whose set was overwritten by the winner's reset) — the paper shows this
//! only costs an unnecessary global release, never correctness — and, for
//! the non-abortable lock here, a `true` reading is always backed by a
//! waiter that cannot disappear.

use base_locks::{Backoff, LocalCohortLock, Release, Wait};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Lock-word states (§3.6.1 footnote 4 lists the same three for the BO
/// lock): free-with-global-release is the default.
pub(crate) const GLOBAL_RELEASE: u32 = 0;
pub(crate) const BUSY: u32 = 1;
pub(crate) const LOCAL_RELEASE: u32 = 2;

/// The local BO lock of C-BO-BO (and, with the abort extensions in
/// [`LocalAboLock`](crate::local_abo::LocalAboLock), of A-C-BO-BO).
#[derive(Debug)]
pub struct LocalBoLock {
    state: CachePadded<AtomicU32>,
    successor_exists: CachePadded<AtomicBool>,
}

impl LocalBoLock {
    /// Creates a free lock (global-release state); waiters back off
    /// exponentially ([`Backoff`]).
    pub fn new() -> Self {
        LocalBoLock {
            state: CachePadded::new(AtomicU32::new(GLOBAL_RELEASE)),
            successor_exists: CachePadded::new(AtomicBool::new(false)),
        }
    }

    #[inline]
    fn decode(state: u32) -> Release {
        if state == LOCAL_RELEASE {
            Release::Local
        } else {
            Release::Global
        }
    }
}

impl Default for LocalBoLock {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: CAS on `state` arbitrates ownership; `alone?` is the complement
// of a flag that — absent aborts — only spinning (hence persistent)
// waiters set, so a `false` answer implies a waiter that will complete.
unsafe impl LocalCohortLock for LocalBoLock {
    type Token = ();

    fn lock_local(&self) -> ((), Release) {
        let mut bo = Backoff::default();
        loop {
            let s = self.state.load(Ordering::Relaxed);
            if s != BUSY {
                // Announce ourselves *before* competing (§3.1), so a
                // concurrent releaser sees us.
                self.successor_exists.store(true, Ordering::Relaxed);
                if self
                    .state
                    .compare_exchange(s, BUSY, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    // Winner resets the flag; losers re-set it below.
                    self.successor_exists.store(false, Ordering::Relaxed);
                    return ((), Self::decode(s));
                }
            } else if !self.successor_exists.load(Ordering::Relaxed) {
                // Keep the releaser informed while we spin: re-set the
                // flag the current owner reset. Intra-cluster traffic only.
                self.successor_exists.store(true, Ordering::Relaxed);
            }
            bo.snooze();
        }
    }

    fn try_lock_local(&self) -> Option<((), Release)> {
        let s = self.state.load(Ordering::Relaxed);
        if s == BUSY {
            return None;
        }
        self.state
            .compare_exchange(s, BUSY, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| ((), Self::decode(s)))
    }

    fn alone(&self, _t: &()) -> bool {
        !self.successor_exists.load(Ordering::Relaxed)
    }

    unsafe fn unlock_local(&self, _t: (), pass_local: bool, release_global: impl FnOnce()) {
        if pass_local && !self.alone(&()) {
            self.state.store(LOCAL_RELEASE, Ordering::Release);
        } else {
            // §2.1 ordering: global release first, then publish the local
            // lock in global-release state.
            release_global();
            self.state.store(GLOBAL_RELEASE, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_acquire_sees_global_release() {
        let l = LocalBoLock::new();
        let ((), r) = l.lock_local();
        assert_eq!(r, Release::Global);
        unsafe { l.unlock_local((), false, || {}) };
    }

    #[test]
    fn local_handoff_state_roundtrip() {
        let l = LocalBoLock::new();
        let ((), _) = l.lock_local();
        // Pretend a waiter exists so the handoff commits locally.
        l.successor_exists.store(true, Ordering::Relaxed);
        let mut released_global = false;
        unsafe { l.unlock_local((), true, || released_global = true) };
        assert!(!released_global, "local handoff must keep the global lock");
        let ((), r) = l.lock_local();
        assert_eq!(r, Release::Local);
        unsafe { l.unlock_local((), false, || {}) };
    }

    #[test]
    fn alone_when_no_waiter_forces_global_release() {
        let l = LocalBoLock::new();
        let (t, _) = l.lock_local();
        assert!(l.alone(&t));
        let mut released = false;
        unsafe { l.unlock_local(t, true, || released = true) };
        assert!(released, "alone? true must release the global lock");
    }

    #[test]
    fn try_lock_local_fails_when_busy() {
        let l = LocalBoLock::new();
        let (_t, _) = l.lock_local();
        assert!(l.try_lock_local().is_none());
    }
}
