//! The exclusive implementors of [`BenchRwLock`].
//!
//! The evaluation sweeps 28 lock algorithms with heterogeneous token
//! types. An adapter erases the token by stashing it in a slot that only
//! the current holder touches (the same holder-private-state argument the
//! cohort lock itself uses for its global token), implements the write
//! side of [`BenchRwLock`], and inherits the read side from the trait's
//! defaults — a read *is* a write here. Cohort statistics and the policy
//! label reach the trait through [`cohort::Introspect`], which plain
//! locks answer with `None`.

use crate::bench_rwlock::BenchRwLock;
use base_locks::{RawAbortableLock, RawLock};
use cohort::{CohortStats, Introspect};
use std::cell::UnsafeCell;

/// Adapts any [`RawLock`] to [`BenchRwLock`].
pub struct RawAdapter<L: RawLock + Introspect> {
    lock: L,
    /// Token of the in-flight acquisition. Only the holder reads/writes
    /// it, bracketed by the lock's own acquire/release fences.
    slot: UnsafeCell<Option<L::Token>>,
}

// SAFETY: the slot is holder-private (see field docs).
unsafe impl<L: RawLock + Introspect> Send for RawAdapter<L> {}
unsafe impl<L: RawLock + Introspect> Sync for RawAdapter<L> {}

impl<L: RawLock + Introspect> RawAdapter<L> {
    /// Wraps `lock`.
    pub fn new(lock: L) -> Self {
        RawAdapter {
            lock,
            slot: UnsafeCell::new(None),
        }
    }
}

impl<L: RawLock + Introspect> BenchRwLock for RawAdapter<L> {
    fn acquire_write(&self) {
        let token = self.lock.lock();
        // SAFETY: we hold the lock; the slot is ours.
        unsafe { *self.slot.get() = Some(token) };
    }

    fn release_write(&self) {
        // SAFETY: holder-private slot; token present by protocol.
        let token = unsafe { (*self.slot.get()).take() }.expect("release without acquire");
        // SAFETY: token from our own lock().
        unsafe { self.lock.unlock(token) };
    }

    fn cohort_stats(&self) -> Option<CohortStats> {
        self.lock.tenure_stats()
    }

    fn policy_label(&self) -> Option<String> {
        self.lock.policy_label()
    }
}

/// Adapts any [`RawAbortableLock`] to an abortable [`BenchRwLock`].
pub struct AbortableAdapter<L: RawAbortableLock + Introspect> {
    lock: L,
    slot: UnsafeCell<Option<L::Token>>,
}

// SAFETY: as RawAdapter.
unsafe impl<L: RawAbortableLock + Introspect> Send for AbortableAdapter<L> {}
unsafe impl<L: RawAbortableLock + Introspect> Sync for AbortableAdapter<L> {}

impl<L: RawAbortableLock + Introspect> AbortableAdapter<L> {
    /// Wraps `lock`.
    pub fn new(lock: L) -> Self {
        AbortableAdapter {
            lock,
            slot: UnsafeCell::new(None),
        }
    }
}

impl<L: RawAbortableLock + Introspect> BenchRwLock for AbortableAdapter<L> {
    fn acquire_write(&self) {
        let token = self.lock.lock();
        // SAFETY: holder-private slot.
        unsafe { *self.slot.get() = Some(token) };
    }

    fn release_write(&self) {
        // SAFETY: holder-private slot.
        let token = unsafe { (*self.slot.get()).take() }.expect("release without acquire");
        // SAFETY: token from our own lock.
        unsafe { self.lock.unlock(token) };
    }

    fn acquire_write_with_patience(&self, patience_ns: u64) -> bool {
        match self.lock.lock_with_patience(patience_ns) {
            Some(token) => {
                // SAFETY: holder-private slot.
                unsafe { *self.slot.get() = Some(token) };
                true
            }
            None => false,
        }
    }

    fn is_abortable(&self) -> bool {
        true
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
        use parking_lot::lock_api::RawMutex as _;
        PthreadLock {
            raw: parking_lot::RawMutex::INIT,
        }
    }
}

impl BenchRwLock for PthreadLock {
    fn acquire_write(&self) {
        use parking_lot::lock_api::RawMutex as _;
        self.raw.lock();
    }

    fn release_write(&self) {
        use parking_lot::lock_api::RawMutex as _;
        // SAFETY: harness protocol — release only by the holder.
        unsafe { self.raw.unlock() };
    }
}

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
        let n = hammer(Arc::new(PthreadLock::new()), 4, 1_000);
        assert_eq!(n, 4_000);
    }

    #[test]
    fn abortable_adapter_times_out() {
        let a = Arc::new(AbortableAdapter::new(BackoffLock::new()));
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
