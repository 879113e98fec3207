//! Abortable cohort BO local lock — §3.6.1 (the local lock of A-C-BO-BO).
//!
//! Extends [`LocalBoLock`](crate::local_bo::LocalBoLock)'s protocol with
//! abort handling. Three parties interact with the `successor-exists`
//! flag:
//!
//! * spinners set it (and refresh it when they see it cleared);
//! * the CAS winner clears it;
//! * **aborting threads clear it** so the releaser learns a waiter left.
//!
//! The releaser's double-check (paper): after publishing
//! `release-local`, re-read the flag; if it went false, CAS the state
//! `release-local → release-global` and, if that CAS wins, release the
//! global lock too.
//!
//! One further arbitration is needed that the paper leaves implicit: a
//! waiter that aborts *after* the releaser's double-check has passed could
//! still be the only waiter, stranding the global lock. Our aborter
//! therefore re-reads the lock state after clearing the flag; if it finds
//! `release-local` (a committed handoff possibly aimed at nobody else), it
//! CASes itself to owner — the [`LocalAbortResult::Rescued`] outcome — and
//! the cohort layer immediately releases the global lock on its behalf.
//! Both CASes target the same word, so exactly one of
//! {releaser-revoke, rescuer, legitimate acquirer} wins.

use crate::local_bo::{BUSY, GLOBAL_RELEASE, LOCAL_RELEASE};
use base_locks::{
    AbortableLocalCohortLock, Backoff, LocalAbortResult, LocalCohortLock, Release, Wait,
};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// The abortable local BO lock of A-C-BO-BO.
#[derive(Debug)]
pub struct LocalAboLock {
    state: CachePadded<AtomicU32>,
    successor_exists: CachePadded<AtomicBool>,
}

impl LocalAboLock {
    /// Creates a free lock (global-release state).
    pub fn new() -> Self {
        LocalAboLock {
            state: CachePadded::new(AtomicU32::new(GLOBAL_RELEASE)),
            successor_exists: CachePadded::new(AtomicBool::new(false)),
        }
    }

    #[inline]
    fn decode(s: u32) -> Release {
        if s == LOCAL_RELEASE {
            Release::Local
        } else {
            Release::Global
        }
    }

    /// Acquire loop shared by the blocking and abortable paths.
    fn acquire(&self, deadline: Option<Instant>) -> LocalAbortResult<()> {
        let mut bo = Backoff::default();
        loop {
            // Relaxed: pure pre-CAS snapshot — every decision taken from
            // `s` is re-validated by the CAS below (a stale value just
            // fails it), so no ordering is needed here.
            let s = self.state.load(Ordering::Relaxed);
            if s != BUSY {
                // Release (was SeqCst): the flag only *advertises* a
                // waiter. A releaser that misses a delayed store takes
                // the conservative global-release path (always safe);
                // the strict Dekker pair is exclusively between the
                // *aborter's* clear and the releaser's double-check,
                // both of which stay SeqCst.
                self.successor_exists.store(true, Ordering::Release);
                if self
                    .state
                    .compare_exchange(s, BUSY, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // Release (was SeqCst): same-location coherence
                    // orders this after our own store-true above; a
                    // releaser reading a stale `true` merely takes the
                    // double-checked handoff path, a spinner reading the
                    // fresh `false` merely refreshes the flag.
                    self.successor_exists.store(false, Ordering::Release);
                    return LocalAbortResult::Acquired((), Self::decode(s));
                }
            } else if !self.successor_exists.load(Ordering::Relaxed) {
                // Relaxed load: refresh hint only — a stale read costs at
                // most one redundant store (or one skipped refresh,
                // retried next round). The store it guards advertises as
                // above.
                self.successor_exists.store(true, Ordering::Release);
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return self.abort();
                }
            }
            bo.snooze();
        }
    }

    /// Abort protocol (see module docs): clear the flag, then make sure we
    /// are not abandoning a committed local handoff.
    fn abort(&self) -> LocalAbortResult<()> {
        self.successor_exists.store(false, Ordering::SeqCst);
        loop {
            match self.state.load(Ordering::SeqCst) {
                s if s == BUSY || s == GLOBAL_RELEASE => {
                    // BUSY: the owner's release-side double-check will see
                    // our cleared flag (or another waiter's refresh — in
                    // which case that waiter is the viable successor).
                    // GLOBAL_RELEASE: the lock is free without any global
                    // obligation; nobody depends on us.
                    return LocalAbortResult::TimedOut;
                }
                _local => {
                    // release-local: the global lock is attached to this
                    // handoff. Claim it so it cannot be stranded.
                    if self
                        .state
                        .compare_exchange(LOCAL_RELEASE, BUSY, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        self.successor_exists.store(false, Ordering::SeqCst);
                        return LocalAbortResult::Rescued(());
                    }
                    // Someone else took it (owner revoked or waiter won);
                    // re-examine.
                }
            }
        }
    }
}

impl Default for LocalAboLock {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: same CAS arbitration as LocalBoLock; see module docs for the
// abort-vs-release races. The two store/load pairs that genuinely form a
// Dekker protocol keep SeqCst: the releaser's LOCAL_RELEASE publish +
// flag double-check, and the aborter's flag clear + state re-read —
// these four operations must not be mutually reordered, or a committed
// local handoff could be stranded. Every other site is weakened with a
// site-local justification: stale reads there only ever steer toward
// the conservative global-release path or a redundant retry.
unsafe impl LocalCohortLock for LocalAboLock {
    type Token = ();

    fn lock_local(&self) -> ((), Release) {
        match self.acquire(None) {
            LocalAbortResult::Acquired((), r) => ((), r),
            _ => unreachable!("blocking acquire cannot time out"),
        }
    }

    fn try_lock_local(&self) -> Option<((), Release)> {
        // Relaxed: pre-CAS snapshot, re-validated by the CAS below.
        let s = self.state.load(Ordering::Relaxed);
        if s == BUSY {
            return None;
        }
        self.state
            .compare_exchange(s, BUSY, Ordering::SeqCst, Ordering::SeqCst)
            .ok()
            .map(|_| ((), Self::decode(s)))
    }

    fn alone(&self, _t: &()) -> bool {
        !self.successor_exists.load(Ordering::SeqCst)
    }

    unsafe fn unlock_local(&self, _t: (), pass_local: bool, release_global: impl FnOnce()) {
        // Relaxed (was SeqCst): decision hint only — a stale `false`
        // costs a conservative global release; a stale `true` is
        // arbitrated by the SeqCst publish + double-check below.
        if pass_local && self.successor_exists.load(Ordering::Relaxed) {
            self.state.store(LOCAL_RELEASE, Ordering::SeqCst);
            // §3.6.1 double-check: did a waiter abort while we released?
            if !self.successor_exists.load(Ordering::SeqCst) {
                // Conservatively revoke the local handoff. If the CAS
                // fails, someone (waiter or rescuer) owns the lock and has
                // inherited the global lock — nothing more to do.
                if self
                    .state
                    .compare_exchange(
                        LOCAL_RELEASE,
                        GLOBAL_RELEASE,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    release_global();
                }
            }
            return;
        }
        release_global();
        // Release (was SeqCst): publishes the critical section to the
        // next CAS winner (whose SeqCst RMW includes acquire). A global
        // release carries no handoff obligation, so it sits outside the
        // releaser/aborter Dekker pair — that pair is exclusively about
        // LOCAL_RELEASE, which stays SeqCst above.
        self.state.store(GLOBAL_RELEASE, Ordering::Release);
    }
}

// SAFETY: the Rescued outcome (module docs) guarantees a committed local
// handoff is never abandoned: an aborter either leaves while the lock is
// BUSY/GLOBAL_RELEASE (no obligation) or takes ownership.
unsafe impl AbortableLocalCohortLock for LocalAboLock {
    fn lock_local_abortable(&self, patience_ns: u64) -> LocalAbortResult<()> {
        let deadline = Instant::now() + Duration::from_nanos(patience_ns);
        self.acquire(Some(deadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn abort_on_held_lock_times_out() {
        let l = LocalAboLock::new();
        let ((), _) = l.lock_local();
        match l.lock_local_abortable(200_000) {
            LocalAbortResult::TimedOut => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        unsafe { l.unlock_local((), false, || {}) };
    }

    #[test]
    fn releaser_revokes_handoff_after_abort() {
        // Owner holds; a waiter spins then aborts; when the owner releases
        // with pass_local=true the double-check (or the rescuer) must
        // ensure the global lock is released exactly once.
        let l = Arc::new(LocalAboLock::new());
        let ((), _) = l.lock_local();
        let l2 = Arc::clone(&l);
        let aborter = std::thread::spawn(move || {
            matches!(
                l2.lock_local_abortable(5_000_000),
                LocalAbortResult::TimedOut
            )
        });
        aborter.join().unwrap();
        // Waiter is gone; flag is false.
        let mut released = false;
        unsafe { l.unlock_local((), true, || released = true) };
        assert!(released, "no surviving waiter: global must be released");
        // Lock must be acquirable in GLOBAL state.
        let ((), r) = l.lock_local();
        assert_eq!(r, Release::Global);
        unsafe { l.unlock_local((), false, || {}) };
    }

    #[test]
    fn rescue_or_inherit_under_races() {
        // Stress the three-way race: releaser hands off locally while
        // waiters keep aborting. Invariant: every release_global happens
        // exactly once per global tenure — tracked by a balance counter
        // that a double-release or a stranded lock would corrupt.
        use std::sync::atomic::AtomicI64;
        let l = Arc::new(LocalAboLock::new());
        let global_held = Arc::new(AtomicI64::new(0));

        let mut handles = Vec::new();
        for i in 0..4 {
            let l = Arc::clone(&l);
            let held = Arc::clone(&global_held);
            handles.push(std::thread::spawn(move || {
                for _ in 0..300 {
                    let res = if i % 2 == 0 {
                        l.lock_local_abortable(20_000)
                    } else {
                        let ((), r) = l.lock_local();
                        LocalAbortResult::Acquired((), r)
                    };
                    match res {
                        LocalAbortResult::Acquired((), r) => {
                            if r == Release::Global {
                                // "Acquire the global lock": wait until the
                                // previous tenure's release lands, exactly
                                // like the real cohort layer blocks on G.
                                while held
                                    .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                                    .is_err()
                                {
                                    std::hint::spin_loop();
                                }
                            } else {
                                assert_eq!(held.load(Ordering::SeqCst), 1);
                            }
                            unsafe {
                                l.unlock_local((), true, || {
                                    assert_eq!(held.fetch_sub(1, Ordering::SeqCst), 1);
                                })
                            };
                        }
                        LocalAbortResult::Rescued(()) => {
                            // We own lock + inherited global: release both.
                            assert_eq!(held.load(Ordering::SeqCst), 1);
                            unsafe {
                                l.unlock_local((), false, || {
                                    assert_eq!(held.fetch_sub(1, Ordering::SeqCst), 1);
                                })
                            };
                        }
                        LocalAbortResult::TimedOut => {}
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(global_held.load(Ordering::SeqCst), 0);
    }
}
