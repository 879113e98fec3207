//! Cohort-detecting MCS local lock — §3.3 and Figure 1.
//!
//! The classic MCS lock already detects cohorts by design: a releaser's
//! queue node has a non-null `next` pointer iff a cluster-mate is waiting.
//! The paper's only modification is the wait flag: instead of
//! busy/released, a node's state is **busy / release-local /
//! release-global**, so the lock handoff itself carries the "do you need
//! the global lock?" bit. A thread whose `swap` on the tail returns null
//! is first in the queue and — as Figure 1 shows — must go acquire the
//! global lock.

use crate::traits::{LocalCohortLock, Release};
use base_locks::{pool, SpinWait};
use crossbeam_utils::CachePadded;
use std::ptr;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU32, Ordering};

const BUSY: u32 = 0;
const RELEASE_LOCAL: u32 = 1;
const RELEASE_GLOBAL: u32 = 2;

/// Queue node with the tri-state wait flag.
#[derive(Debug)]
pub struct CohortMcsNode {
    next: AtomicPtr<CohortMcsNode>,
    state: AtomicU32,
}

impl CohortMcsNode {
    fn new() -> Self {
        CohortMcsNode {
            next: AtomicPtr::new(ptr::null_mut()),
            state: AtomicU32::new(BUSY),
        }
    }
}

base_locks::pooled_node!(CohortMcsNode, CohortMcsNode::new);

/// Acquisition token: the thread's queue node.
#[derive(Debug)]
pub struct CohortMcsToken(NonNull<CohortMcsNode>);

/// The local MCS lock of C-BO-MCS, C-TKT-MCS and C-MCS-MCS.
pub struct LocalMcsLock {
    tail: CachePadded<AtomicPtr<CohortMcsNode>>,
}

impl LocalMcsLock {
    /// Creates a free lock (empty queue).
    pub fn new() -> Self {
        LocalMcsLock {
            tail: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
        }
    }
}

impl Default for LocalMcsLock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LocalMcsLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalMcsLock").finish_non_exhaustive()
    }
}

// SAFETY: standard MCS exclusion; `alone?` (null `next`) cannot
// incorrectly claim company — a non-null `next` is installed only by a
// waiter that, being non-abortable, will stay until served.
unsafe impl LocalCohortLock for LocalMcsLock {
    type Token = CohortMcsToken;

    fn lock_local(&self) -> (CohortMcsToken, Release) {
        let node = pool::acquire::<CohortMcsNode>();
        // SAFETY: fresh/recycled node, unpublished.
        unsafe {
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
            node.as_ref().state.store(BUSY, Ordering::Relaxed);
        }
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if pred.is_null() {
            // First in queue: Figure 1's "sees tail is null" case — the
            // acquirer must take the global lock.
            return (CohortMcsToken(node), Release::Global);
        }
        // SAFETY: pred is valid until its owner hands off to us.
        unsafe { (*pred).next.store(node.as_ptr(), Ordering::Release) };
        let mut wait = SpinWait::new();
        loop {
            // SAFETY: our own node; spinning on our private flag.
            let s = unsafe { node.as_ref().state.load(Ordering::Acquire) };
            if s != BUSY {
                let rel = if s == RELEASE_LOCAL {
                    Release::Local
                } else {
                    Release::Global
                };
                return (CohortMcsToken(node), rel);
            }
            wait.snooze();
        }
    }

    fn try_lock_local(&self) -> Option<(CohortMcsToken, Release)> {
        // Look before taking: a visibly non-empty queue costs one shared
        // read — no node, no read-for-ownership of the tail line.
        if !self.tail.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let node = pool::acquire::<CohortMcsNode>();
        // SAFETY: fresh/recycled node, unpublished.
        unsafe {
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
            node.as_ref().state.store(BUSY, Ordering::Relaxed);
        }
        match self.tail.compare_exchange(
            ptr::null_mut(),
            node.as_ptr(),
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => Some((CohortMcsToken(node), Release::Global)),
            Err(_) => {
                // SAFETY: never published.
                unsafe { pool::release(node) };
                None
            }
        }
    }

    fn alone(&self, token: &CohortMcsToken) -> bool {
        // SAFETY: we hold the lock; our node is valid.
        unsafe { token.0.as_ref().next.load(Ordering::Acquire).is_null() }
    }

    unsafe fn unlock_local(
        &self,
        token: CohortMcsToken,
        pass_local: bool,
        release_global: impl FnOnce(),
    ) {
        let node = token.0;
        let next = node.as_ref().next.load(Ordering::Acquire);

        if pass_local && !next.is_null() {
            // Intra-cluster handoff: successor inherits the global lock.
            (*next).state.store(RELEASE_LOCAL, Ordering::Release);
            pool::release(node);
            return;
        }

        // Ending the cohort's tenure: global release first (§2.1), then
        // dispose of the queue position.
        release_global();
        if next.is_null() {
            if self
                .tail
                .compare_exchange(
                    node.as_ptr(),
                    ptr::null_mut(),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                // Queue empty: the next arriver will see a null tail and
                // go claim the global lock itself.
                pool::release(node);
                return;
            }
            // A late successor is linking; wait for the pointer, yielding
            // once the spin budget is spent — on a shared CPU the
            // successor was preempted between its swap and its link.
            let mut wait = SpinWait::new();
            let mut n;
            loop {
                n = node.as_ref().next.load(Ordering::Acquire);
                if !n.is_null() {
                    break;
                }
                wait.snooze();
            }
            (*n).state.store(RELEASE_GLOBAL, Ordering::Release);
            pool::release(node);
            return;
        }
        (*next).state.store(RELEASE_GLOBAL, Ordering::Release);
        pool::release(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn first_in_queue_is_global() {
        let l = LocalMcsLock::new();
        let (t, r) = l.lock_local();
        assert_eq!(r, Release::Global);
        assert!(l.alone(&t));
        let mut released = false;
        unsafe { l.unlock_local(t, true, || released = true) };
        assert!(released, "no successor: must release global");
    }

    #[test]
    fn successor_inherits_on_local_pass() {
        let l = Arc::new(LocalMcsLock::new());
        let (t, r) = l.lock_local();
        assert_eq!(r, Release::Global);

        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let (t2, r2) = l2.lock_local();
            assert_eq!(r2, Release::Local);
            let mut released = false;
            unsafe { l2.unlock_local(t2, true, || released = true) };
            assert!(released, "queue empty behind waiter");
        });
        // Wait until the waiter is linked.
        while l.alone(&t) {
            std::hint::spin_loop();
        }
        let mut released = false;
        unsafe { l.unlock_local(t, true, || released = true) };
        assert!(!released, "handoff keeps global lock");
        waiter.join().unwrap();
    }

    #[test]
    fn forced_global_release_propagates_state() {
        let l = Arc::new(LocalMcsLock::new());
        let (t, _) = l.lock_local();
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let (t2, r2) = l2.lock_local();
            assert_eq!(r2, Release::Global, "pass_local=false → global state");
            unsafe { l2.unlock_local(t2, false, || {}) };
        });
        while l.alone(&t) {
            std::hint::spin_loop();
        }
        // Policy says stop passing (e.g. streak hit the bound).
        let mut released = false;
        unsafe { l.unlock_local(t, false, || released = true) };
        assert!(released);
        waiter.join().unwrap();
    }

    #[test]
    fn try_lock_local_only_on_empty_queue() {
        let l = LocalMcsLock::new();
        let (t, _) = l.try_lock_local().expect("empty queue");
        assert!(l.try_lock_local().is_none());
        unsafe { l.unlock_local(t, false, || {}) };
        let (t, _) = l.try_lock_local().expect("free again");
        unsafe { l.unlock_local(t, false, || {}) };
    }

    #[test]
    fn node_pool_stays_bounded() {
        let l = Arc::new(LocalMcsLock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        let (t, _) = l.lock_local();
                        unsafe { l.unlock_local(t, true, || {}) };
                    }
                    pool::fresh_allocations::<CohortMcsNode>()
                })
            })
            .collect();
        for h in handles {
            // A holder releases the node it enqueued: balanced.
            assert!(h.join().unwrap() <= 1, "one node per thread");
        }
    }

    #[test]
    fn failing_try_lock_local_touches_no_node() {
        let l = Arc::new(LocalMcsLock::new());
        let (t, _) = l.lock_local();
        let l2 = Arc::clone(&l);
        // A new thread starts with an empty cache: had try_lock_local
        // taken a node it would have allocated one or refilled from the
        // overflow list, and put it back into the cache afterwards.
        std::thread::spawn(move || {
            for _ in 0..100 {
                assert!(l2.try_lock_local().is_none());
            }
            assert_eq!(pool::fresh_allocations::<CohortMcsNode>(), 0);
            assert_eq!(pool::cached::<CohortMcsNode>(), 0);
        })
        .join()
        .unwrap();
        unsafe { l.unlock_local(t, false, || {}) };
    }
}
