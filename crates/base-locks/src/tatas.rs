//! The test-and-test-and-set lock, one word under four waiting schedules.
//!
//! The paper calls the exponential-backoff variant the **BO lock** [3] and
//! uses it pervasively: as the global lock of C-BO-BO, C-BO-MCS, A-C-BO-BO
//! and A-C-BO-CLH (where, being lightly contended, it runs without
//! backoff), and — augmented with a `successor-exists` flag, as
//! [`LocalBoLock`] below — as the local lock of C-BO-BO and A-C-BO-BO.
//! The Fibonacci variant appears as "Fib-BO" in the memcached evaluation
//! (Table 1).
//!
//! The variants differ only in what a waiter does between probes, so they
//! are one type, [`TasLock<W>`], over a [`Wait`] schedule, and the paper's
//! names are aliases. Every variant is **thread-oblivious** (any thread
//! may call `unlock`; the lock word carries no owner identity) and
//! **abortable by design** (a waiter simply stops probing), the two
//! properties §3 of the paper relies on.
//!
//! [`LocalBoLock`] is its own type, not a `TasLock`: its word has three
//! states instead of two and a flag line beside it, which every TATAS
//! acquire and release would otherwise pay for.

use crate::backoff::{Backoff, FibBackoff, SpinWait, Wait, YieldEvery64};
use crate::raw::{
    AbortableLocalCohortLock, LocalAbortResult, LocalCohortLock, Patience, RawAbortableLock,
    RawLock, Release,
};
use crossbeam_utils::CachePadded;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

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

/// [`LocalBoLock`] word states (§3.6.1 footnote 4 lists the same three):
/// free with the global lock released — the start state — held, and free
/// with the global lock handed on to the next owner.
const GLOBAL_RELEASE: u32 = 0;
const BUSY: u32 = 1;
const LOCAL_RELEASE: u32 = 2;

/// The cohort-detecting BO lock, §3.1, abortable as §3.6.1 extends it: the
/// local lock of C-BO-BO and of A-C-BO-BO, one type for both.
///
/// A plain BO lock cannot tell its releaser whether anyone waits, so the
/// paper adds a `successor-exists` flag: a waiter sets it before each CAS
/// and again whenever it sees it cleared while the word is held, the CAS
/// winner clears it, and `alone?` is its complement. A waiter whose set
/// the winner overwrote makes `alone?` wrongly true, which only costs a
/// global release.
///
/// An aborting waiter clears the flag too, so the releaser learns it left.
/// The releaser's §3.6.1 double-check: after publishing `LOCAL_RELEASE`,
/// re-read the flag; if it is clear, CAS the word back to `GLOBAL_RELEASE`
/// and, if that CAS wins, release the global lock. The aborter in turn
/// re-reads the word after its clear; if it finds `LOCAL_RELEASE` (a
/// handoff that may be aimed at nobody else) it claims the lock — the
/// [`LocalAbortResult::Rescued`] outcome — and the cohort layer releases
/// the global lock for it. The paper leaves that second half implicit;
/// without it a waiter that aborts after the double-check passed strands
/// the global lock. The revoke, the rescue and every acquirer CAS the one
/// word, so exactly one of them takes a `LOCAL_RELEASE`.
///
/// A lock whose waiters all block never needs the double-check and pays
/// it anyway: one locked store and one load on a release that passes
/// locally.
#[derive(Debug)]
pub struct LocalBoLock {
    state: CachePadded<AtomicU32>,
    /// The `successor-exists` flag (crate-visible so a test can fake a
    /// waiter).
    pub(crate) successor_exists: CachePadded<AtomicBool>,
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

    /// CASes the free word `s` to `BUSY`: the only way to own the lock.
    #[inline]
    fn claim(&self, s: u32) -> bool {
        // Acquire: pairs with the store (or revoke CAS) that freed the
        // word, so the previous critical section is visible.
        self.state
            .compare_exchange(s, BUSY, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[inline]
    fn decode(s: u32) -> Release {
        if s == LOCAL_RELEASE {
            Release::Local
        } else {
            Release::Global
        }
    }

    /// The wait loop of every blocking entry point: probe, announce, CAS,
    /// back off, until the lock is ours or `patience` runs out (`None`
    /// waits forever).
    ///
    /// Every flag write here is Relaxed: the flag only advertises a
    /// waiter. A releaser that misses a write takes the global release,
    /// which is always safe; the ordering that matters is the Dekker pair
    /// between `abort` and `unlock_local`.
    fn acquire(&self, mut patience: Option<Patience>) -> LocalAbortResult<()> {
        let mut bo = Backoff::default();
        loop {
            // Relaxed: a snapshot the CAS re-validates.
            let s = self.state.load(Ordering::Relaxed);
            if s != BUSY {
                // Announce ourselves *before* competing (§3.1), so a
                // concurrent releaser sees us.
                self.successor_exists.store(true, Ordering::Relaxed);
                if self.claim(s) {
                    // The winner resets the flag; losers re-set it below.
                    self.successor_exists.store(false, Ordering::Relaxed);
                    return LocalAbortResult::Acquired((), Self::decode(s));
                }
            } else if !self.successor_exists.load(Ordering::Relaxed) {
                // Keep the releaser informed while we spin: re-set the
                // flag the owner reset.
                self.successor_exists.store(true, Ordering::Relaxed);
            }
            if patience.as_mut().is_some_and(Patience::expired) {
                return self.abort();
            }
            bo.snooze();
        }
    }

    /// §3.6.1's abort: clear the flag, then make sure no committed local
    /// handoff is left behind (crate-visible so a test can strand one).
    pub(crate) fn abort(&self) -> LocalAbortResult<()> {
        // SeqCst, with the re-read below: the aborter's half of the Dekker
        // pair with `unlock_local`'s publish and double-check. Either the
        // releaser sees the clear and revokes, or we see its
        // `LOCAL_RELEASE` and rescue.
        self.successor_exists.store(false, Ordering::SeqCst);
        loop {
            match self.state.load(Ordering::SeqCst) {
                LOCAL_RELEASE if self.claim(LOCAL_RELEASE) => {
                    // We own the lock and the global lock it carries. The
                    // flag reset is the winner's, Relaxed as above.
                    self.successor_exists.store(false, Ordering::Relaxed);
                    return LocalAbortResult::Rescued(());
                }
                // The releaser revoked, or a waiter won: look again.
                LOCAL_RELEASE => {}
                // Held, or free with no global obligation: nobody
                // depends on us. A holder's double-check sees our clear,
                // or another waiter's re-set, and that waiter is the
                // successor.
                _ => return LocalAbortResult::TimedOut,
            }
        }
    }
}

impl Default for LocalBoLock {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: the CAS in `claim` is the only way in, and every write that
// frees the word publishes the critical section to it. `alone?` reads
// false only after a waiter set the flag; that waiter either completes
// its acquisition or aborts, and an abort meets the double-check or the
// rescue, so no `LOCAL_RELEASE` is left with nobody to take it.
unsafe impl LocalCohortLock for LocalBoLock {
    type Token = ();

    fn lock_local(&self) -> ((), Release) {
        match self.acquire(None) {
            LocalAbortResult::Acquired((), r) => ((), r),
            _ => unreachable!("infinite patience cannot abort"),
        }
    }

    fn try_lock_local(&self) -> Option<((), Release)> {
        // Relaxed: a snapshot the CAS re-validates.
        let s = self.state.load(Ordering::Relaxed);
        (s != BUSY && self.claim(s)).then(|| ((), Self::decode(s)))
    }

    fn alone(&self, _t: &()) -> bool {
        // Relaxed: a hint. A stale `false` costs a global release, and a
        // stale `true` is caught by the double-check in `unlock_local`.
        !self.successor_exists.load(Ordering::Relaxed)
    }

    unsafe fn unlock_local(&self, _t: (), pass_local: bool, release_global: impl FnOnce()) {
        if pass_local && !self.alone(&()) {
            // SeqCst, with the re-read below: the releaser's half of the
            // Dekker pair with `abort`'s flag clear and state re-read.
            self.state.store(LOCAL_RELEASE, Ordering::SeqCst);
            // §3.6.1 double-check: did our successor abort meanwhile?
            if self.successor_exists.load(Ordering::SeqCst) {
                return;
            }
            // AcqRel: the revoke may take back a `LOCAL_RELEASE` that a
            // later holder published (a waiter took ours and passed it
            // on), and the global release below must carry that holder's
            // critical section; the word it writes publishes to the next
            // winner. A failed CAS means someone owns the lock, and the
            // global lock with it.
            if self
                .state
                .compare_exchange(
                    LOCAL_RELEASE,
                    GLOBAL_RELEASE,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                release_global();
            }
            return;
        }
        // §2.1 ordering: global release first, then publish the word in
        // global-release state.
        release_global();
        self.state.store(GLOBAL_RELEASE, Ordering::Release);
    }
}

// SAFETY: an aborter either leaves while the word is BUSY or
// GLOBAL_RELEASE, where no handoff waits on it, or takes a LOCAL_RELEASE
// word itself (Rescued); the Dekker pair above means a committed handoff
// always meets one of the revoke or the rescue.
unsafe impl AbortableLocalCohortLock for LocalBoLock {
    fn lock_local_abortable(&self, patience_ns: u64) -> LocalAbortResult<()> {
        self.acquire(Some(Patience::new(patience_ns)))
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
