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
//! * a node — owner aborted; the node is its predecessor at abort time.
//!
//! Node reclamation invariant: a node is recycled by **exactly one**
//! thread — its direct successor at the moment it becomes `AVAILABLE` or
//! aborted (or a later `lock` arrival when it sat at the tail).
#![deny(unsafe_op_in_unsafe_fn)]

use crate::backoff::{SpinWait, Wait};
use crate::link::{Link, Word};
use crate::pool;
use crate::raw::{Patience, RawAbortableLock, RawLock};
use crossbeam_utils::CachePadded;
use std::sync::atomic::Ordering;

/// `prev` value: still waiting / holding.
const WAITING: usize = 0;
/// `prev` value: lock released through this node.
const AVAILABLE: usize = 1;

/// One queue entry of the abortable CLH lock.
#[derive(Debug)]
pub struct ClhNbNode {
    /// Tri-state described at module level: a tag below the node
    /// alignment, or the aborter's predecessor.
    prev: Link<ClhNbNode>,
}

impl ClhNbNode {
    fn new() -> Self {
        ClhNbNode {
            prev: Link::new(None),
        }
    }
}

crate::pooled_node!(ClhNbNode, ClhNbNode::new);

/// Acquisition token: the node this thread published.
#[derive(Debug)]
pub struct ClhNbToken(&'static ClhNbNode);

/// Scott's abortable (non-blocking-timeout) CLH lock.
pub struct AbortableClhLock {
    tail: CachePadded<Link<ClhNbNode>>,
}

impl AbortableClhLock {
    /// Creates an unlocked instance.
    pub fn new() -> Self {
        let dummy = pool::acquire::<ClhNbNode>();
        dummy
            .prev
            .store_word(Word::Tag(AVAILABLE), Ordering::Relaxed);
        AbortableClhLock {
            tail: CachePadded::new(Link::new(Some(dummy))),
        }
    }

    /// Core wait loop: walk the (possibly aborted) predecessor chain until
    /// an `AVAILABLE` node grants us the lock, or patience runs out.
    fn wait(&self, mut patience: Option<Patience>) -> Option<ClhNbToken> {
        let node = pool::acquire::<ClhNbNode>();
        node.prev.store_word(Word::Tag(WAITING), Ordering::Relaxed);
        let mut pred = self
            .tail
            .swap(Some(node), Ordering::AcqRel)
            .expect("CLH-NB tail always points at a node");
        let mut spin = SpinWait::new();
        loop {
            // `pred` is only recycled by its direct successor; until we
            // either take the lock or abort, that successor is us.
            let s = pred.prev.load_word(Ordering::Acquire);
            if let Word::Tag(WAITING) = s {
                if patience.as_mut().is_some_and(Patience::expired) {
                    // Abort: make our predecessor explicit, then never
                    // touch `node` again — our successor (or a later
                    // arriver) recycles it.
                    node.prev.store_word(Word::Node(pred), Ordering::Release);
                    return None;
                }
                spin.snooze();
                continue;
            }
            // SAFETY: pred is released or aborted, and we are its unique
            // successor: nobody else reads it again.
            unsafe { pool::release(pred) };
            match s {
                // Predecessor aborted: adopt its predecessor.
                Word::Node(pp) => pred = pp,
                // AVAILABLE: the lock is ours.
                Word::Tag(_) => return Some(ClhNbToken(node)),
            }
        }
    }
}

impl Drop for AbortableClhLock {
    /// Hands the nodes still reachable from the tail back to the pool: the
    /// node the last holder released through, preceded by the nodes of
    /// waiters that aborted behind it and that no successor ever bypassed.
    fn drop(&mut self) {
        let mut node = self.tail.get_mut();
        while let Some(n) = node {
            node = n.prev.load(Ordering::Relaxed);
            // SAFETY: `&mut self` — no holder, no waiter: every node still
            // reachable from the tail is quiescent, and each is reachable
            // through exactly one `prev` link, so it is released once.
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

// SAFETY: a thread enters only once its (possibly bypassed-to)
// predecessor reads AVAILABLE, which each holder writes once, in
// `unlock` (`Release`, read with `Acquire`); an aborted node is never
// AVAILABLE, so its successor walks past it to the real holder.
unsafe impl RawLock for AbortableClhLock {
    type Token = ClhNbToken;

    fn lock(&self) -> ClhNbToken {
        self.wait(None).expect("infinite patience cannot abort")
    }

    fn try_lock(&self) -> Option<ClhNbToken> {
        // A zero-patience acquisition: enqueue, check the predecessor, and
        // abort through the normal protocol if it is not already released.
        // (An optimistic CAS on the raw tail would be exposed to ABA on
        // recycled nodes; the abort path makes "try" sound here.)
        self.lock_with_patience(0)
    }

    unsafe fn unlock(&self, token: ClhNbToken) {
        token
            .0
            .prev
            .store_word(Word::Tag(AVAILABLE), Ordering::Release);
    }
}

// SAFETY: an abort publishes the aborter's predecessor in its own node
// and leaves the queue walkable, so it never strands the lock.
unsafe impl RawAbortableLock for AbortableClhLock {
    fn lock_with_patience(&self, patience_ns: u64) -> Option<ClhNbToken> {
        self.wait(Some(Patience::new(patience_ns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mutual_exclusion_stress;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn prev_word_decodes_its_sentinels_as_tags_and_a_node_as_itself() {
        let (node, pred) = (pool::acquire::<ClhNbNode>(), pool::acquire::<ClhNbNode>());
        for tag in [WAITING, AVAILABLE] {
            node.prev.store_word(Word::Tag(tag), Ordering::Relaxed);
            assert!(matches!(node.prev.load_word(Ordering::Relaxed), Word::Tag(t) if t == tag));
        }
        node.prev.store_word(Word::Node(pred), Ordering::Relaxed);
        let seen = node.prev.load(Ordering::Relaxed);
        assert!(seen.is_some_and(|n| std::ptr::eq(n, pred)));
        // SAFETY: neither node was published to a lock.
        unsafe {
            pool::release(node);
            pool::release(pred);
        }
    }

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
