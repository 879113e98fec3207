//! The MCS queue lock (Mellor-Crummey & Scott '91).
//!
//! Waiters form an explicit linked queue; each spins only on a flag in its
//! **own** node ("local spinning"), so a release touches exactly one remote
//! cache line. The paper uses MCS in three roles:
//!
//! * baseline NUMA-oblivious lock in every experiment;
//! * local cohort lock (C-BO-MCS, C-TKT-MCS, C-MCS-MCS) — that variant,
//!   with the tri-state release field, lives in the `cohort` crate;
//! * **global** lock of C-MCS-MCS, which requires thread-obliviousness:
//!   the node a thread enqueues must be releasable by a *different* thread.
//!   §3.4 solves this by circulating nodes through thread-local pools, and
//!   so does this implementation: `lock` takes a node from the calling
//!   thread's [`pool`](crate::pool) cache and `unlock` returns it to the
//!   cache of whichever thread releases, so the token (and therefore the
//!   release capability) can cross threads. Nodes are immortal, so a
//!   waiter's `pred` and a releaser's `next` never dangle.

use crate::backoff::SpinWait;
use crate::pool;
use crate::raw::RawLock;
use crossbeam_utils::CachePadded;
use std::ptr;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

/// One queue entry. Pool-owned; never on a thread's stack.
#[derive(Debug)]
pub struct McsNode {
    next: AtomicPtr<McsNode>,
    locked: AtomicBool,
}

crate::pooled_node!(McsNode, McsNode::new);

impl McsNode {
    fn new() -> Self {
        McsNode {
            next: AtomicPtr::new(ptr::null_mut()),
            locked: AtomicBool::new(false),
        }
    }
}

/// Acquisition token: the queue node enqueued by `lock`.
///
/// `Send` so the matching `unlock` may run on another thread — the
/// thread-obliviousness the global lock of C-MCS-MCS needs.
#[derive(Debug)]
pub struct McsToken(NonNull<McsNode>);

// SAFETY: the node is pool-owned and only manipulated through atomics;
// the token is a unique capability to release it.
unsafe impl Send for McsToken {}

/// MCS queue lock.
pub struct McsLock {
    tail: CachePadded<AtomicPtr<McsNode>>,
}

impl McsLock {
    /// Creates an unlocked instance.
    pub fn new() -> Self {
        McsLock {
            tail: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
        }
    }

    /// True if held or contended (racy snapshot; for monitoring only).
    pub fn has_waiters_or_holder(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
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

unsafe impl RawLock for McsLock {
    type Token = McsToken;

    fn lock(&self) -> McsToken {
        let node = pool::acquire::<McsNode>();
        // SAFETY: freshly acquired node, not yet published.
        unsafe {
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
            node.as_ref().locked.store(true, Ordering::Relaxed);
        }
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if !pred.is_null() {
            // SAFETY: pred stays valid until *we* are granted the lock —
            // its owner cannot complete `unlock` before writing our flag.
            unsafe { (*pred).next.store(node.as_ptr(), Ordering::Release) };
            let mut wait = SpinWait::new();
            while unsafe { node.as_ref().locked.load(Ordering::Acquire) } {
                wait.snooze();
            }
        }
        McsToken(node)
    }

    fn try_lock(&self) -> Option<McsToken> {
        // Look before taking: a visibly non-empty queue costs one shared
        // read — no node, no read-for-ownership of the tail line.
        if !self.tail.load(Ordering::Relaxed).is_null() {
            return None;
        }
        let node = pool::acquire::<McsNode>();
        // SAFETY: freshly acquired node, not yet published.
        unsafe {
            node.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
            node.as_ref().locked.store(true, Ordering::Relaxed);
        }
        match self.tail.compare_exchange(
            ptr::null_mut(),
            node.as_ptr(),
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => Some(McsToken(node)),
            Err(_) => {
                // SAFETY: never published.
                unsafe { pool::release(node) };
                None
            }
        }
    }

    unsafe fn unlock(&self, token: McsToken) {
        let node = token.0;
        let mut next = node.as_ref().next.load(Ordering::Acquire);
        if next.is_null() {
            // No known successor: try to swing tail back to empty.
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
                pool::release(node);
                return;
            }
            // A successor swapped tail but has not linked yet: wait for
            // it, yielding once the spin budget is spent — on a shared CPU
            // the successor was preempted between its swap and its link.
            let mut wait = SpinWait::new();
            loop {
                next = node.as_ref().next.load(Ordering::Acquire);
                if !next.is_null() {
                    break;
                }
                wait.snooze();
            }
        }
        (*next).locked.store(false, Ordering::Release);
        // Our node is quiescent: the successor linked to it already and
        // spins on its own node from here on.
        pool::release(node);
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
