//! The exclusive implementor of [`BenchRwLock`].
//!
//! The evaluation sweeps 28 lock algorithms with heterogeneous token
//! types, every one of them a [`RawLock`]. [`RawAdapter`] erases the token
//! by stashing it in a slot that only the current holder touches (the
//! same holder-private-state argument the cohort lock itself uses for its
//! global token), implements the write side of [`BenchRwLock`], and
//! inherits the read side from the trait's defaults — a read *is* a write
//! here. Abortability is chosen at construction ([`RawAdapter::abortable`]).
//! Cohort statistics and the policy label reach the trait through
//! [`cohort::Introspect`], which plain locks answer with `None`.

use crate::bench_rwlock::BenchRwLock;
use base_locks::{RawAbortableLock, RawLock};
use cohort::{CohortStats, Introspect};
use parking_lot::lock_api::RawMutex as _;
use std::cell::UnsafeCell;

/// A lock's timed acquire ([`RawAbortableLock::lock_with_patience`]).
type Timed<L> = fn(&L, u64) -> Option<<L as RawLock>::Token>;

/// Adapts any [`RawLock`] to [`BenchRwLock`].
pub struct RawAdapter<L: RawLock + Introspect> {
    lock: L,
    /// Set by [`RawAdapter::abortable`]; `None` makes
    /// `acquire_write_with_patience` block.
    timed: Option<Timed<L>>,
    /// Token of the in-flight acquisition. Only the holder reads/writes
    /// it, bracketed by the lock's own acquire/release fences.
    slot: UnsafeCell<Option<L::Token>>,
}

// SAFETY: the slot is holder-private (see field docs); `lock` is Sync by
// the RawLock bound and `timed` is a plain function pointer.
unsafe impl<L: RawLock + Introspect> Send for RawAdapter<L> {}
unsafe impl<L: RawLock + Introspect> Sync for RawAdapter<L> {}

impl<L: RawLock + Introspect> RawAdapter<L> {
    /// Wraps `lock`; timed acquisitions block like plain ones.
    pub fn new(lock: L) -> Self {
        RawAdapter {
            lock,
            timed: None,
            slot: UnsafeCell::new(None),
        }
    }

    /// Stores the token of an acquisition this thread just made.
    fn hold(&self, token: L::Token) {
        // SAFETY: we hold the lock; the slot is ours.
        unsafe { *self.slot.get() = Some(token) };
    }
}

impl<L: RawAbortableLock + Introspect> RawAdapter<L> {
    /// Wraps an abortable `lock`: timed acquisitions can time out.
    pub fn abortable(lock: L) -> Self {
        RawAdapter {
            timed: Some(L::lock_with_patience),
            ..Self::new(lock)
        }
    }
}

impl<L: RawLock + Introspect> BenchRwLock for RawAdapter<L> {
    fn acquire_write(&self) {
        self.hold(self.lock.lock());
    }

    fn release_write(&self) {
        // SAFETY: holder-private slot; token present by protocol.
        let token = unsafe { (*self.slot.get()).take() }.expect("release without acquire");
        // SAFETY: token from our own lock().
        unsafe { self.lock.unlock(token) };
    }

    fn acquire_write_with_patience(&self, patience_ns: u64) -> bool {
        let Some(timed) = self.timed else {
            self.acquire_write();
            return true;
        };
        match timed(&self.lock, patience_ns) {
            Some(token) => {
                self.hold(token);
                true
            }
            None => false,
        }
    }

    fn is_abortable(&self) -> bool {
        self.timed.is_some()
    }

    fn cohort_stats(&self) -> Option<CohortStats> {
        self.lock.tenure_stats()
    }

    fn policy_label(&self) -> Option<String> {
        self.lock.policy_label()
    }
}

/// The "pthread lock" of the evaluation: a blocking OS mutex
/// (parking_lot's futex-based `RawMutex`, standing in for Solaris
/// `pthread_mutex_t` — both park waiters in the kernel instead of
/// spinning, and both are NUMA-oblivious).
pub struct PthreadLock {
    raw: parking_lot::RawMutex,
}

impl Default for PthreadLock {
    fn default() -> Self {
        Self::new()
    }
}

impl PthreadLock {
    /// Creates an unlocked instance.
    pub fn new() -> Self {
        PthreadLock {
            raw: parking_lot::RawMutex::INIT,
        }
    }
}

// SAFETY: the OS mutex provides mutual exclusion with acquire/release
// semantics; its guard-free raw interface carries no token.
unsafe impl RawLock for PthreadLock {
    type Token = ();

    fn lock(&self) {
        self.raw.lock();
    }

    fn try_lock(&self) -> Option<()> {
        self.raw.try_lock().then_some(())
    }

    unsafe fn unlock(&self, _t: ()) {
        // SAFETY: the caller holds the lock (RawLock::unlock contract).
        unsafe { self.raw.unlock() };
    }
}

impl Introspect for PthreadLock {}

#[cfg(test)]
mod tests {
    use super::*;
    use base_locks::{BackoffLock, McsLock};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn hammer(lock: Arc<dyn BenchRwLock>, threads: usize, iters: u64) -> u64 {
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        lock.acquire_write();
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        lock.release_write();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn raw_adapter_over_mcs() {
        let n = hammer(Arc::new(RawAdapter::new(McsLock::new())), 4, 1_000);
        assert_eq!(n, 4_000);
    }

    #[test]
    fn pthread_lock_works() {
        let n = hammer(Arc::new(RawAdapter::new(PthreadLock::new())), 4, 1_000);
        assert_eq!(n, 4_000);
    }

    #[test]
    fn abortable_adapter_times_out() {
        let a = Arc::new(RawAdapter::abortable(BackoffLock::new()));
        a.acquire_write();
        assert!(!a.acquire_write_with_patience(100_000));
        a.release_write();
        assert!(a.acquire_write_with_patience(1_000_000_000));
        a.release_write();
        assert!(a.is_abortable());
    }

    #[test]
    fn non_abortable_default_blocks_and_succeeds() {
        let a = RawAdapter::new(McsLock::new());
        assert!(!a.is_abortable());
        assert!(a.acquire_write_with_patience(1));
        a.release_write();
    }
}
