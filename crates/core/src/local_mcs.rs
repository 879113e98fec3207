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
#![deny(unsafe_op_in_unsafe_fn)]

use crate::traits::{LocalCohortLock, Release};
use base_locks::link::Link;
use base_locks::{pool, SpinWait, Wait};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU32, Ordering};

const BUSY: u32 = 0;
const RELEASE_LOCAL: u32 = 1;
const RELEASE_GLOBAL: u32 = 2;

/// Queue node with the tri-state wait flag.
#[derive(Debug)]
pub struct CohortMcsNode {
    next: Link<CohortMcsNode>,
    state: AtomicU32,
}

impl CohortMcsNode {
    fn new() -> Self {
        CohortMcsNode {
            next: Link::new(None),
            state: AtomicU32::new(BUSY),
        }
    }
}

base_locks::pooled_node!(CohortMcsNode, CohortMcsNode::new);

/// Acquisition token: the thread's queue node.
#[derive(Debug)]
pub struct CohortMcsToken(&'static CohortMcsNode);

/// The local MCS lock of C-BO-MCS, C-TKT-MCS and C-MCS-MCS.
pub struct LocalMcsLock {
    tail: CachePadded<Link<CohortMcsNode>>,
}

impl LocalMcsLock {
    /// Creates a free lock (empty queue).
    pub fn new() -> Self {
        LocalMcsLock {
            tail: CachePadded::new(Link::new(None)),
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
        node.next.store(None, Ordering::Relaxed);
        node.state.store(BUSY, Ordering::Relaxed);
        let Some(pred) = self.tail.swap(Some(node), Ordering::AcqRel) else {
            // First in queue: Figure 1's "sees tail is null" case — the
            // acquirer must take the global lock.
            return (CohortMcsToken(node), Release::Global);
        };
        // pred is not recycled before its owner hands off to us.
        pred.next.store(Some(node), Ordering::Release);
        let mut wait = SpinWait::new();
        loop {
            // Our own node; spinning on our private flag.
            let s = node.state.load(Ordering::Acquire);
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
        if self.tail.load(Ordering::Relaxed).is_some() {
            return None;
        }
        let node = pool::acquire::<CohortMcsNode>();
        node.next.store(None, Ordering::Relaxed);
        node.state.store(BUSY, Ordering::Relaxed);
        match self
            .tail
            .compare_exchange(None, Some(node), Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => Some((CohortMcsToken(node), Release::Global)),
            Err(_) => {
                // SAFETY: never published.
                unsafe { pool::release(node) };
                None
            }
        }
    }

    fn alone(&self, token: &CohortMcsToken) -> bool {
        token.0.next.load(Ordering::Acquire).is_none()
    }

    unsafe fn unlock_local(
        &self,
        token: CohortMcsToken,
        pass_local: bool,
        release_global: impl FnOnce(),
    ) {
        let node = token.0;
        match node.next.load(Ordering::Acquire) {
            // Intra-cluster handoff: successor inherits the global lock.
            Some(next) if pass_local => next.state.store(RELEASE_LOCAL, Ordering::Release),
            next => {
                // Ending the cohort's tenure: global release first (§2.1),
                // then dispose of the queue position.
                release_global();
                // No successor: swing the tail back to empty (the next
                // arriver sees a null tail and claims the global lock
                // itself), or wait for a late successor's link, yielding
                // once the spin budget is spent — on a shared CPU it was
                // preempted between its swap and its link.
                let next = next.or_else(|| {
                    match self.tail.compare_exchange(
                        Some(node),
                        None,
                        Ordering::AcqRel,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => None,
                        Err(_) => Some(node.next.wait_for_node(Ordering::Acquire)),
                    }
                });
                if let Some(next) = next {
                    next.state.store(RELEASE_GLOBAL, Ordering::Release);
                }
            }
        }
        // SAFETY: the token is this lock's holder's (the `unlock_local`
        // contract), and its node is quiescent: the queue no longer ends at
        // it, and a successor linked to it already and spins on its own
        // node from here on.
        unsafe { pool::release(node) };
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
