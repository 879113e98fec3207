//! The MCS queue lock (Mellor-Crummey & Scott '91).
//!
//! Waiters form an explicit linked queue; each spins only on a flag in its
//! **own** node ("local spinning"), so a release touches exactly one remote
//! cache line. The paper uses MCS in three roles, and this one type plays
//! all of them:
//!
//! * baseline NUMA-oblivious lock in every experiment ([`RawLock`]);
//! * **local** cohort lock of C-BO-MCS, C-TKT-MCS and C-MCS-MCS
//!   ([`LocalCohortLock`], §3.3 and Figure 1). MCS detects cohorts by
//!   design: a releaser's node has a `next` iff a cluster-mate is waiting.
//!   The paper's only change is the wait flag: instead of busy/released, a
//!   node's state is **busy / release-local / release-global**, so the
//!   handoff itself carries the "do you need the global lock?" bit. A
//!   thread whose `swap` on the tail returns null is first in the queue
//!   and must go acquire the global lock. The plain `unlock` is the local
//!   release that never passes locally and has no global lock to release;
//! * **global** lock of C-MCS-MCS, which requires thread-obliviousness:
//!   the node a thread enqueues must be releasable by a *different* thread.
//!   §3.4 solves this by circulating nodes through thread-local pools, and
//!   so does this implementation: `lock` takes a node from the calling
//!   thread's [`pool`](crate::pool) cache and `unlock` returns it to the
//!   cache of whichever thread releases, so the token (and therefore the
//!   release capability) can cross threads. Nodes are immortal `&'static`
//!   references, so a waiter's `pred` and a releaser's `next` never
//!   dangle. The global and local roles share one node pool.
#![deny(unsafe_op_in_unsafe_fn)]

use crate::backoff::{SpinWait, Wait};
use crate::link::Link;
use crate::pool;
use crate::raw::{LocalCohortLock, RawLock, Release};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU32, Ordering};

const BUSY: u32 = 0;
const RELEASE_LOCAL: u32 = 1;
const RELEASE_GLOBAL: u32 = 2;

/// One queue entry with the tri-state wait flag. Pool-owned; never on a
/// thread's stack.
#[derive(Debug)]
pub struct McsNode {
    next: Link<McsNode>,
    state: AtomicU32,
}

crate::pooled_node!(McsNode, McsNode::new);

impl McsNode {
    fn new() -> Self {
        McsNode {
            next: Link::new(None),
            state: AtomicU32::new(BUSY),
        }
    }
}

/// Acquisition token: the queue node enqueued by `lock`.
///
/// `Send` so the matching `unlock` may run on another thread — the
/// thread-obliviousness the global lock of C-MCS-MCS needs.
#[derive(Debug)]
pub struct McsToken(&'static McsNode);

/// MCS queue lock.
pub struct McsLock {
    tail: CachePadded<Link<McsNode>>,
}

impl McsLock {
    /// Creates an unlocked instance.
    pub fn new() -> Self {
        McsLock {
            tail: CachePadded::new(Link::new(None)),
        }
    }

    /// True if held or contended (racy snapshot; for monitoring only).
    pub fn has_waiters_or_holder(&self) -> bool {
        self.tail.load(Ordering::Relaxed).is_some()
    }
}

impl Default for McsLock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for McsLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McsLock")
            .field("busy", &self.has_waiters_or_holder())
            .finish()
    }
}

// SAFETY: a thread enters only by swapping into an empty tail or once
// its predecessor moves its node off BUSY, which each holder does for one
// successor, once, in `unlock_local` (`Release`, read with `Acquire`).
unsafe impl RawLock for McsLock {
    type Token = McsToken;

    fn lock(&self) -> McsToken {
        self.lock_local().0
    }

    fn try_lock(&self) -> Option<McsToken> {
        self.try_lock_local().map(|(token, _)| token)
    }

    unsafe fn unlock(&self, token: McsToken) {
        // SAFETY: the `unlock` contract is `unlock_local`'s, and this
        // lock's plain role has no global lock to release.
        unsafe { self.unlock_local(token, false, || {}) }
    }
}

// SAFETY: standard MCS exclusion; `alone?` (null `next`) cannot
// incorrectly claim company — a non-null `next` is installed only by a
// waiter that, being non-abortable, will stay until served.
unsafe impl LocalCohortLock for McsLock {
    type Token = McsToken;

    fn lock_local(&self) -> (McsToken, Release) {
        let node = pool::acquire::<McsNode>();
        node.next.store(None, Ordering::Relaxed);
        node.state.store(BUSY, Ordering::Relaxed);
        let Some(pred) = self.tail.swap(Some(node), Ordering::AcqRel) else {
            // First in queue: Figure 1's "sees tail is null" case — the
            // acquirer must take the global lock.
            return (McsToken(node), Release::Global);
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
                return (McsToken(node), rel);
            }
            wait.snooze();
        }
    }

    fn try_lock_local(&self) -> Option<(McsToken, Release)> {
        // Look before taking: a visibly non-empty queue costs one shared
        // read — no node, no read-for-ownership of the tail line.
        if self.tail.load(Ordering::Relaxed).is_some() {
            return None;
        }
        let node = pool::acquire::<McsNode>();
        node.next.store(None, Ordering::Relaxed);
        node.state.store(BUSY, Ordering::Relaxed);
        match self
            .tail
            .compare_exchange(None, Some(node), Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => Some((McsToken(node), Release::Global)),
            Err(_) => {
                // SAFETY: never published.
                unsafe { pool::release(node) };
                None
            }
        }
    }

    fn alone(&self, token: &McsToken) -> bool {
        token.0.next.load(Ordering::Acquire).is_none()
    }

    unsafe fn unlock_local(
        &self,
        token: McsToken,
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
    use crate::test_util::mutual_exclusion_stress;
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion() {
        mutual_exclusion_stress(Arc::new(McsLock::new()), 4, 2_000);
    }

    #[test]
    fn uncontended_lock_unlock_recycles_node() {
        let l = McsLock::new();
        for _ in 0..1_000 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
        assert!(
            pool::fresh_allocations::<McsNode>() <= 1,
            "single thread needs one node"
        );
    }

    #[test]
    fn try_lock_fails_under_holder_and_releases_node() {
        let l = McsLock::new();
        let t = l.lock();
        assert!(l.try_lock().is_none());
        unsafe { l.unlock(t) };
        let cached = pool::cached::<McsNode>();
        let t2 = l.try_lock().expect("free after unlock");
        unsafe { l.unlock(t2) };
        // Neither try_lock leaked its node.
        assert_eq!(pool::cached::<McsNode>(), cached);
    }

    #[test]
    fn failing_try_lock_touches_no_node() {
        let l = Arc::new(McsLock::new());
        let t = l.lock();
        let l2 = Arc::clone(&l);
        // A new thread starts with an empty cache: had try_lock taken a
        // node it would have allocated one or refilled from the overflow
        // list, and put it back into the cache afterwards.
        std::thread::spawn(move || {
            for _ in 0..100 {
                assert!(l2.try_lock().is_none());
            }
            assert_eq!(pool::fresh_allocations::<McsNode>(), 0);
            assert_eq!(pool::cached::<McsNode>(), 0);
        })
        .join()
        .unwrap();
        unsafe { l.unlock(t) };
    }

    #[test]
    fn thread_oblivious_release_with_token_transfer() {
        // This is the C-MCS-MCS global-lock usage: release from another
        // thread while a third thread is queued behind the holder.
        let l = Arc::new(McsLock::new());
        let t = l.lock();
        let l_waiter = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let t = l_waiter.lock();
            unsafe { l_waiter.unlock(t) };
        });
        // Give the waiter a moment to enqueue.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let l_releaser = Arc::clone(&l);
        std::thread::spawn(move || unsafe { l_releaser.unlock(t) })
            .join()
            .unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn release_only_thread_keeps_allocations_bounded() {
        // The global lock of C-MCS-MCS at its most lopsided: every token
        // is taken on this thread and released on another, which never
        // takes one. Its cache must spill to the overflow list and this
        // thread's refills must find the nodes there.
        const ROUNDS: usize = 100_000;
        let l = Arc::new(McsLock::new());
        let (tx, rx) = std::sync::mpsc::sync_channel::<McsToken>(1);
        let l2 = Arc::clone(&l);
        let releaser = std::thread::spawn(move || {
            for t in rx {
                unsafe { l2.unlock(t) };
            }
            pool::fresh_allocations::<McsNode>()
        });
        for _ in 0..ROUNDS {
            tx.send(l.lock()).unwrap();
        }
        drop(tx);
        assert_eq!(releaser.join().unwrap(), 0, "the releaser never acquires");
        // Alone: one cache-full plus what is in flight. Other tests of
        // this binary share the overflow list, and each of their threads
        // may take one batch from it.
        let fresh = pool::fresh_allocations::<McsNode>();
        assert!(
            fresh <= 4 * pool::CACHE_CAP,
            "{fresh} fresh nodes for {ROUNDS} rounds"
        );
    }

    #[test]
    fn pool_stays_bounded_under_stress() {
        let l = Arc::new(McsLock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        let t = l.lock();
                        unsafe { l.unlock(t) };
                    }
                    pool::fresh_allocations::<McsNode>()
                })
            })
            .collect();
        for h in handles {
            // An MCS holder releases the node it enqueued: balanced.
            assert!(h.join().unwrap() <= 1, "one node per thread");
        }
    }
}
