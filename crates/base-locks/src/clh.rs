//! The CLH queue lock (Craig '93; Magnussen, Landin, Hagersten '94).
//!
//! Like MCS, waiters queue; unlike MCS, each waiter spins on its
//! **predecessor's** node (the queue is implicit — no `next` pointers).
//! Release is a single store into the releaser's own node. CLH is the
//! foundation of the HCLH baseline (Luchangco et al. '06) and, in Scott's
//! abortable variant, of the paper's novel A-C-BO-CLH cohort lock.
//!
//! Node recycling follows the classic discipline: after acquiring, a
//! thread takes *its predecessor's* node as its spare (here: puts it in its
//! per-thread [`pool`](crate::pool) cache, where its next `lock` finds
//! it), and its own node is recycled by whichever thread next observes it
//! released. The node resident at the tail of an idle lock goes back to
//! the pool when the lock is dropped.

use crate::backoff::{SpinWait, Wait};
use crate::pool;
use crate::raw::RawLock;
use crossbeam_utils::CachePadded;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

/// One CLH queue entry: just the "I hold or want the lock" flag.
#[derive(Debug)]
pub struct ClhNode {
    pending: AtomicBool,
}

impl ClhNode {
    fn new() -> Self {
        ClhNode {
            pending: AtomicBool::new(false),
        }
    }
}

crate::pooled_node!(ClhNode, ClhNode::new);

/// Acquisition token: the node this thread published to the queue.
#[derive(Debug)]
pub struct ClhToken(NonNull<ClhNode>);

/// CLH queue lock.
pub struct ClhLock {
    tail: CachePadded<AtomicPtr<ClhNode>>,
}

impl ClhLock {
    /// Creates an unlocked instance (the queue starts with one released
    /// dummy node, per the classic construction).
    pub fn new() -> Self {
        let dummy = pool::acquire::<ClhNode>();
        // SAFETY: fresh node, unpublished.
        unsafe { dummy.as_ref().pending.store(false, Ordering::Relaxed) };
        ClhLock {
            tail: CachePadded::new(AtomicPtr::new(dummy.as_ptr())),
        }
    }
}

impl Drop for ClhLock {
    /// Hands the resident tail node back: nodes are immortal, so a lock
    /// that kept its node would leak one per lock ever constructed.
    fn drop(&mut self) {
        if let Some(tail) = NonNull::new(*self.tail.get_mut()) {
            // SAFETY: `&mut self` — no queue, no waiter; the last holder
            // released through this node and nobody else can reach it.
            unsafe { pool::release(tail) };
        }
    }
}

impl Default for ClhLock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ClhLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClhLock").finish_non_exhaustive()
    }
}

unsafe impl RawLock for ClhLock {
    type Token = ClhToken;

    fn lock(&self) -> ClhToken {
        let node = pool::acquire::<ClhNode>();
        // SAFETY: node is ours until published by the swap below.
        unsafe { node.as_ref().pending.store(true, Ordering::Relaxed) };
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        debug_assert!(!pred.is_null(), "CLH tail always points at a node");
        let mut wait = SpinWait::new();
        // SAFETY: pred remains valid until we recycle it — only the direct
        // successor (us) may do that.
        while unsafe { (*pred).pending.load(Ordering::Acquire) } {
            wait.snooze();
        }
        // Predecessor released and nobody else references its node: it
        // becomes our spare.
        unsafe { pool::release(NonNull::new_unchecked(pred)) };
        ClhToken(node)
    }

    fn try_lock(&self) -> Option<ClhToken> {
        let t = self.tail.load(Ordering::Acquire);
        // SAFETY: nodes are never deallocated and never change type, so
        // the read below finds a live `ClhNode` even if `t` was recycled
        // (into this queue or another lock's) since the load above.
        if unsafe { (*t).pending.load(Ordering::Acquire) } {
            return None;
        }
        let node = pool::acquire::<ClhNode>();
        // SAFETY: ours until the CAS below publishes it.
        unsafe { node.as_ref().pending.store(true, Ordering::Relaxed) };
        match self
            .tail
            .compare_exchange(t, node.as_ptr(), Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => {
                // We are now `t`'s unique successor. In the common case we
                // observed `t` released above and own the lock outright.
                // In the (pathological) ABA case — `t` was granted,
                // recycled, and re-enqueued between our load and the CAS —
                // we hold a *valid* queue position behind a live holder; a
                // CLH position cannot be abandoned without abort support,
                // so wait it out. The window requires a full
                // grant/recycle/re-enqueue cycle inside two instructions,
                // and correctness (not latency) is preserved either way.
                while unsafe { (*t).pending.load(Ordering::Acquire) } {
                    std::thread::yield_now();
                }
                unsafe { pool::release(NonNull::new_unchecked(t)) };
                Some(ClhToken(node))
            }
            Err(_) => {
                // SAFETY: never published.
                unsafe { pool::release(node) };
                None
            }
        }
    }

    unsafe fn unlock(&self, token: ClhToken) {
        // Our node is recycled later by our successor (or a try_lock).
        token.0.as_ref().pending.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mutual_exclusion_stress;
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion() {
        mutual_exclusion_stress(Arc::new(ClhLock::new()), 4, 2_000);
    }

    #[test]
    fn single_thread_reuses_two_nodes() {
        let l = ClhLock::new();
        for _ in 0..1_000 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
        // Steady state: my node + dummy circulating.
        let fresh = pool::fresh_allocations::<ClhNode>();
        assert!(fresh <= 2, "allocated {fresh}");
    }

    #[test]
    fn dropped_locks_hand_their_node_back() {
        for _ in 0..10_000 {
            let l = ClhLock::new();
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
        let fresh = pool::fresh_allocations::<ClhNode>();
        assert!(fresh <= 2, "10 000 locks allocated {fresh} nodes");
    }

    #[test]
    fn try_lock_semantics() {
        let l = ClhLock::new();
        let t = l.try_lock().expect("free lock");
        assert!(l.try_lock().is_none());
        unsafe { l.unlock(t) };
        let t = l.try_lock().expect("released");
        unsafe { l.unlock(t) };
    }

    #[test]
    fn pool_bounded_under_stress() {
        let l = Arc::new(ClhLock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        let t = l.lock();
                        unsafe { l.unlock(t) };
                    }
                    pool::fresh_allocations::<ClhNode>()
                })
            })
            .collect();
        for h in handles {
            // Every acquisition takes one node and recycles one (the
            // predecessor's): balanced, whoever's node it was.
            assert!(h.join().unwrap() <= 1, "one node per thread");
        }
    }
}
