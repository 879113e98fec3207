//! The one object-safe lock interface of the benchmark harness.
//!
//! Every lock of the evaluation — mutual-exclusion or reader-writer,
//! abortable or not — is driven through [`BenchRwLock`]. An exclusive
//! lock implements the write side only and inherits a read side that
//! *is* the write side; the two genuinely shared implementations live
//! here:
//!
//! * [`CohortRwAdapter`] — any [`cohort::CohortRwLock`] composition;
//! * [`StdRwAdapter`] — `std::sync::RwLock`, the NUMA-oblivious OS-level
//!   baseline.
//!
//! The exclusive adapters ([`RawAdapter`](crate::RawAdapter),
//! [`AbortableAdapter`](crate::AbortableAdapter),
//! [`PthreadLock`](crate::PthreadLock)) are in `bench_lock.rs`.

use cohort::{CohortRwLock, CohortStats, GlobalLock, LocalCohortLock, RwWriteToken};
use numa_topology::current_cluster_in;
use std::cell::{RefCell, UnsafeCell};
use std::sync::Arc;

/// A lock as the benchmark harness sees it.
///
/// Protocol (the holder-private contract every adapter's token slot
/// relies on): each `acquire_*` is matched by the corresponding
/// `release_*` **on the same thread**, and a thread holds at most one
/// acquisition of one harness lock at a time.
pub trait BenchRwLock: Send + Sync {
    /// Acquires the exclusive (write) side.
    fn acquire_write(&self);

    /// Releases the exclusive side (same thread as the acquire).
    fn release_write(&self);

    /// Acquires the shared (read) side. A lock without one takes the
    /// exclusive side.
    fn acquire_read(&self) {
        self.acquire_write();
    }

    /// Releases the shared side (same thread as the acquire).
    fn release_read(&self) {
        self.release_write();
    }

    /// Whether `acquire_read` is the exclusive side in disguise. Runners
    /// use this to charge reader serialization through the handoff
    /// channel, which genuinely shared read paths skip.
    fn read_is_exclusive(&self) -> bool {
        true
    }

    /// Tries the exclusive side with a timeout; `true` on success. Locks
    /// without abort support simply block (and return `true`).
    fn acquire_write_with_patience(&self, patience_ns: u64) -> bool {
        let _ = patience_ns;
        self.acquire_write();
        true
    }

    /// Whether `acquire_write_with_patience` can actually time out.
    fn is_abortable(&self) -> bool {
        false
    }

    /// Tenure statistics, for policy-driven locks (`None` otherwise);
    /// see [`cohort::CohortStats`].
    fn cohort_stats(&self) -> Option<CohortStats> {
        None
    }

    /// Label of the handoff policy actually installed (`None` for locks
    /// without one) — e.g. `"count(64)"`.
    fn policy_label(&self) -> Option<String> {
        None
    }
}

/// Adapts any [`cohort::CohortRwLock`] to [`BenchRwLock`].
pub struct CohortRwAdapter<G: GlobalLock, L: LocalCohortLock> {
    lock: CohortRwLock<G, L>,
    /// Token of the in-flight *write* acquisition; holder-private (the
    /// same argument as [`crate::RawAdapter`]). Read tokens carry no
    /// state beyond the acquiring cluster, which is re-derived at release
    /// from the thread's sticky cluster assignment.
    write_slot: UnsafeCell<Option<RwWriteToken<L::Token>>>,
}

// SAFETY: the write slot is holder-private (see field docs); the lock
// itself is Sync.
unsafe impl<G: GlobalLock, L: LocalCohortLock> Send for CohortRwAdapter<G, L> {}
unsafe impl<G: GlobalLock, L: LocalCohortLock> Sync for CohortRwAdapter<G, L> {}

impl<G: GlobalLock, L: LocalCohortLock> CohortRwAdapter<G, L> {
    /// Wraps `lock`.
    pub fn new(lock: CohortRwLock<G, L>) -> Self {
        CohortRwAdapter {
            lock,
            write_slot: UnsafeCell::new(None),
        }
    }
}

impl<G: GlobalLock, L: LocalCohortLock> BenchRwLock for CohortRwAdapter<G, L> {
    fn acquire_read(&self) {
        // The token only records the acquiring cluster; that assignment
        // is sticky per thread, so release_read re-derives it and the
        // token itself (plain data, no Drop) can be discarded.
        let _token = self.lock.lock_read();
    }

    fn release_read(&self) {
        let cluster = current_cluster_in(self.lock.topology());
        // SAFETY: harness protocol — this thread holds a read acquisition
        // taken on this thread, hence counted on `cluster`.
        unsafe { self.lock.unlock_read_on(cluster) };
    }

    fn read_is_exclusive(&self) -> bool {
        false
    }

    fn acquire_write(&self) {
        let token = self.lock.lock_write();
        // SAFETY: we hold the write lock; the slot is ours.
        unsafe { *self.write_slot.get() = Some(token) };
    }

    fn release_write(&self) {
        // SAFETY: holder-private slot; token present by protocol.
        let token =
            unsafe { (*self.write_slot.get()).take() }.expect("release_write without acquire");
        // SAFETY: token from our own lock_write, this thread.
        unsafe { self.lock.unlock_write(token) };
    }

    fn cohort_stats(&self) -> Option<CohortStats> {
        Some(self.lock.cohort_stats())
    }

    fn policy_label(&self) -> Option<String> {
        Some(self.lock.policy().label())
    }
}

thread_local! {
    /// Read guards of in-flight [`StdRwAdapter`] acquisitions, stacked in
    /// acquisition order. Guards never leave their thread (std read
    /// guards are `!Send`), and the harness protocol (one lock at a time,
    /// LIFO bracketing) keeps pops matched to their lock.
    static STD_READ_GUARDS: RefCell<Vec<std::sync::RwLockReadGuard<'static, ()>>> =
        const { RefCell::new(Vec::new()) };
}

/// `std::sync::RwLock` behind the [`BenchRwLock`] interface — the
/// NUMA-oblivious baseline (readers genuinely share; writers park on the
/// OS primitive).
pub struct StdRwAdapter {
    lock: Arc<std::sync::RwLock<()>>,
    write_slot: UnsafeCell<Option<std::sync::RwLockWriteGuard<'static, ()>>>,
}

// SAFETY: the write slot is holder-private; write guards are released on
// the acquiring thread per the harness protocol.
unsafe impl Send for StdRwAdapter {}
unsafe impl Sync for StdRwAdapter {}

impl Default for StdRwAdapter {
    fn default() -> Self {
        Self::new()
    }
}

impl StdRwAdapter {
    /// Creates an unlocked instance.
    pub fn new() -> Self {
        StdRwAdapter {
            lock: Arc::new(std::sync::RwLock::new(())),
            write_slot: UnsafeCell::new(None),
        }
    }
}

impl BenchRwLock for StdRwAdapter {
    fn acquire_read(&self) {
        let guard = self.lock.read().expect("std rwlock poisoned");
        // SAFETY: lifetime erasure only. The guard borrows the RwLock
        // behind `self.lock`'s Arc, which outlives the guard: the harness
        // protocol releases every acquisition (popping and dropping the
        // guard) before the adapter can be dropped.
        let guard: std::sync::RwLockReadGuard<'static, ()> = unsafe { std::mem::transmute(guard) };
        STD_READ_GUARDS.with(|g| g.borrow_mut().push(guard));
    }

    fn release_read(&self) {
        let guard = STD_READ_GUARDS
            .with(|g| g.borrow_mut().pop())
            .expect("release_read without acquire_read");
        drop(guard);
    }

    fn read_is_exclusive(&self) -> bool {
        false
    }

    fn acquire_write(&self) {
        let guard = self.lock.write().expect("std rwlock poisoned");
        // SAFETY: as acquire_read (write guards additionally stay on the
        // acquiring thread, per protocol).
        let guard: std::sync::RwLockWriteGuard<'static, ()> = unsafe { std::mem::transmute(guard) };
        // SAFETY: we hold the write lock; the slot is ours.
        unsafe { *self.write_slot.get() = Some(guard) };
    }

    fn release_write(&self) {
        // SAFETY: holder-private slot.
        let guard =
            unsafe { (*self.write_slot.get()).take() }.expect("release_write without acquire");
        drop(guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::LockKind;
    use cohort::{CRwBoMcs, RwFairness};
    use numa_topology::Topology;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Readers assert no writer is inside; writers assert exclusivity.
    fn hammer(lock: Arc<dyn BenchRwLock>, threads: usize, iters: u64) {
        let writers_in = Arc::new(AtomicU64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let writers_in = Arc::clone(&writers_in);
                let violations = Arc::clone(&violations);
                std::thread::spawn(move || {
                    for n in 0..iters {
                        if (n + i as u64).is_multiple_of(4) {
                            lock.acquire_write();
                            if writers_in.fetch_add(1, Ordering::SeqCst) != 0 {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                            writers_in.fetch_sub(1, Ordering::SeqCst);
                            lock.release_write();
                        } else {
                            lock.acquire_read();
                            if writers_in.load(Ordering::SeqCst) != 0 {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                            lock.release_read();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn cohort_rw_adapter_excludes() {
        let topo = Arc::new(Topology::new(4));
        let adapter = CohortRwAdapter::new(CRwBoMcs::new(topo));
        let lock: Arc<dyn BenchRwLock> = Arc::new(adapter);
        hammer(Arc::clone(&lock), 4, 1_000);
        assert!(!lock.read_is_exclusive());
        assert!(lock.cohort_stats().is_some());
        assert_eq!(lock.policy_label().as_deref(), Some("count(64)"));
    }

    #[test]
    fn cohort_rw_adapter_neutral_flavor() {
        let topo = Arc::new(Topology::new(4));
        let lock: Arc<dyn BenchRwLock> = Arc::new(CohortRwAdapter::new(CRwBoMcs::with_fairness(
            topo,
            RwFairness::Neutral,
        )));
        hammer(lock, 4, 800);
    }

    #[test]
    fn std_rw_adapter_excludes() {
        let lock: Arc<dyn BenchRwLock> = Arc::new(StdRwAdapter::new());
        hammer(Arc::clone(&lock), 4, 1_000);
        assert!(!lock.read_is_exclusive());
        assert!(lock.cohort_stats().is_none());
    }

    #[test]
    fn std_rw_adapter_nested_reads_release_in_lifo_order() {
        let lock = StdRwAdapter::new();
        lock.acquire_read();
        lock.acquire_read();
        lock.release_read();
        lock.release_read();
        lock.acquire_write();
        lock.release_write();
    }

    #[test]
    fn exclusive_kind_read_side_is_the_write_side() {
        // The default-method path: an exclusive kind never overrides the
        // read side, so a counter that only the lock protects — plain
        // load, add, store — must stay exact when every thread takes the
        // "read" side.
        let topo = Arc::new(Topology::new(4));
        let lock = LockKind::CBoMcs.make(&topo);
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        lock.acquire_read();
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        lock.release_read();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4_000);
        assert!(lock.read_is_exclusive());
        let stats = lock.cohort_stats().expect("stats reach the trait");
        assert_eq!(stats.tenures() + stats.local_handoffs(), 4_000);
    }
}
