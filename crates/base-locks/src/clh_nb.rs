//! Scott's abortable CLH lock ("CLH-NB try", PODC '02).
//!
//! The baseline abortable queue lock the paper compares its A-C-BO-CLH
//! against (Figure 6, series "A-CLH"). The idea: a CLH waiter spins on its
//! predecessor's node; to *abort*, it makes its implicit predecessor
//! explicit by writing the predecessor's address into its own node's
//! `prev` word. The successor notices, bypasses the aborted node (and
//! recycles it), and continues spinning on the bypassed-to predecessor.
//!
//! The `prev` word of a node is therefore a tri-state:
//!
//! * [`WAITING`] — owner of this node holds or still wants the lock;
//! * [`AVAILABLE`] — owner released the lock through this node;
//! * any other value — owner aborted; the value is the address of its
//!   predecessor at abort time.
//!
//! Node reclamation invariant: a node is recycled by **exactly one**
//! thread — its direct successor at the moment it becomes `AVAILABLE` or
//! aborted (or a later `lock` arrival when it sat at the tail).

use crate::backoff::{SpinWait, Wait};
use crate::pool;
use crate::raw::{Patience, RawAbortableLock, RawLock};
use crossbeam_utils::CachePadded;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// `prev` value: still waiting / holding.
const WAITING: usize = 0;
/// `prev` value: lock released through this node.
const AVAILABLE: usize = 1;

/// One queue entry of the abortable CLH lock.
#[derive(Debug)]
pub struct ClhNbNode {
    /// Tri-state described at module level. Pointers are ≥8-aligned so the
    /// sentinels 0/1 never collide with a real address.
    prev: AtomicUsize,
}

impl ClhNbNode {
    fn new() -> Self {
        ClhNbNode {
            prev: AtomicUsize::new(WAITING),
        }
    }
}

crate::pooled_node!(ClhNbNode, ClhNbNode::new);

/// Acquisition token: the node this thread published.
#[derive(Debug)]
pub struct ClhNbToken(NonNull<ClhNbNode>);

/// Scott's abortable (non-blocking-timeout) CLH lock.
pub struct AbortableClhLock {
    tail: CachePadded<AtomicPtr<ClhNbNode>>,
}

impl AbortableClhLock {
    /// Creates an unlocked instance.
    pub fn new() -> Self {
        let dummy = pool::acquire::<ClhNbNode>();
        // SAFETY: fresh, unpublished.
        unsafe { dummy.as_ref().prev.store(AVAILABLE, Ordering::Relaxed) };
        AbortableClhLock {
            tail: CachePadded::new(AtomicPtr::new(dummy.as_ptr())),
        }
    }

    /// Core wait loop: walk the (possibly aborted) predecessor chain until
    /// an `AVAILABLE` node grants us the lock, or patience runs out.
    fn wait(&self, node: NonNull<ClhNbNode>, mut patience: Option<Patience>) -> Option<ClhNbToken> {
        let mut pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        debug_assert!(!pred.is_null());
        let mut spin = SpinWait::new();
        loop {
            // SAFETY: `pred` is only recycled by its direct successor;
            // until we either take the lock or abort, that successor is us.
            let s = unsafe { (*pred).prev.load(Ordering::Acquire) };
            match s {
                AVAILABLE => {
                    // Lock granted: predecessor's node becomes our spare.
                    unsafe { pool::release(NonNull::new_unchecked(pred)) };
                    return Some(ClhNbToken(node));
                }
                WAITING => {
                    if let Some(p) = patience.as_mut() {
                        if p.expired() {
                            // Abort: make our predecessor explicit, then
                            // never touch `node` again — our successor (or
                            // a later arriver) recycles it.
                            unsafe { node.as_ref().prev.store(pred as usize, Ordering::Release) };
                            return None;
                        }
                    }
                    spin.snooze();
                }
                abandoned => {
                    // Predecessor aborted; bypass it and adopt its
                    // predecessor. We are its unique successor → recycle.
                    let pp = abandoned as *mut ClhNbNode;
                    unsafe { pool::release(NonNull::new_unchecked(pred)) };
                    pred = pp;
                }
            }
        }
    }
}

impl Drop for AbortableClhLock {
    /// Hands the nodes still reachable from the tail back to the pool: the
    /// node the last holder released through, preceded by the nodes of
    /// waiters that aborted behind it and that no successor ever bypassed.
    fn drop(&mut self) {
        let mut node = *self.tail.get_mut();
        while let Some(n) = NonNull::new(node) {
            // SAFETY: `&mut self` — no holder, no waiter: every node still
            // reachable from the tail is quiescent, and each is reachable
            // through exactly one `prev` link, so it is released once.
            node = match unsafe { n.as_ref().prev.load(Ordering::Relaxed) } {
                WAITING | AVAILABLE => std::ptr::null_mut(),
                pred => pred as *mut ClhNbNode,
            };
            unsafe { pool::release(n) };
        }
    }
}

impl Default for AbortableClhLock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AbortableClhLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbortableClhLock").finish_non_exhaustive()
    }
}

unsafe impl RawLock for AbortableClhLock {
    type Token = ClhNbToken;

    fn lock(&self) -> ClhNbToken {
        let node = pool::acquire::<ClhNbNode>();
        unsafe { node.as_ref().prev.store(WAITING, Ordering::Relaxed) };
        self.wait(node, None)
            .expect("infinite patience cannot abort")
    }

    fn try_lock(&self) -> Option<ClhNbToken> {
        // A zero-patience acquisition: enqueue, check the predecessor, and
        // abort through the normal protocol if it is not already released.
        // (An optimistic CAS on the raw tail would be exposed to ABA on
        // recycled nodes; the abort path makes "try" sound here.)
        self.lock_with_patience(0)
    }

    unsafe fn unlock(&self, token: ClhNbToken) {
        token.0.as_ref().prev.store(AVAILABLE, Ordering::Release);
    }
}

unsafe impl RawAbortableLock for AbortableClhLock {
    fn lock_with_patience(&self, patience_ns: u64) -> Option<ClhNbToken> {
        let node = pool::acquire::<ClhNbNode>();
        unsafe { node.as_ref().prev.store(WAITING, Ordering::Relaxed) };
        self.wait(node, Some(Patience::new(patience_ns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mutual_exclusion_stress;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion() {
        mutual_exclusion_stress(Arc::new(AbortableClhLock::new()), 4, 2_000);
    }

    #[test]
    fn abort_while_held_then_recover() {
        let l = Arc::new(AbortableClhLock::new());
        let t = l.lock();
        for _ in 0..3 {
            assert!(l.lock_with_patience(50_000).is_none());
        }
        unsafe { l.unlock(t) };
        // The aborted nodes must not wedge the queue.
        let t = l.lock();
        unsafe { l.unlock(t) };
    }

    #[test]
    fn waiter_bypasses_aborted_predecessor() {
        let l = Arc::new(AbortableClhLock::new());
        let t = l.lock();

        // A second thread aborts while queued; a third waits patiently.
        let l2 = Arc::clone(&l);
        let aborter =
            std::thread::spawn(move || assert!(l2.lock_with_patience(20_000_000).is_none()));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let l3 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let t = l3.lock();
            unsafe { l3.unlock(t) };
        });
        aborter.join().unwrap();
        unsafe { l.unlock(t) };
        waiter.join().unwrap();
    }

    #[test]
    fn mixed_abort_stress() {
        // Half the threads time out aggressively, half insist; the counter
        // must reflect exactly the successful acquisitions.
        let l = Arc::new(AbortableClhLock::new());
        let count = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..4 {
            let l = Arc::clone(&l);
            let count = Arc::clone(&count);
            handles.push(std::thread::spawn(move || {
                let mut acquired = 0u64;
                for _ in 0..500 {
                    let tok = if i % 2 == 0 {
                        l.lock_with_patience(5_000)
                    } else {
                        Some(l.lock())
                    };
                    if let Some(t) = tok {
                        count.fetch_add(1, Ordering::Relaxed);
                        acquired += 1;
                        unsafe { l.unlock(t) };
                    }
                }
                acquired
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, count.load(Ordering::Relaxed));
    }

    #[test]
    fn try_lock_on_contended_lock_fails() {
        let l = AbortableClhLock::new();
        let t = l.lock();
        assert!(l.try_lock().is_none());
        unsafe { l.unlock(t) };
        assert!(l.try_lock().is_some());
    }
}
