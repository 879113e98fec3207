//! Abortable cohort CLH local lock — §3.6.2 (the local lock of A-C-BO-CLH).
//!
//! Builds on Scott's abortable CLH lock (PODC '02): a waiter spins on its
//! *implicit* predecessor; an aborting thread makes the predecessor
//! explicit by writing its address into the aborter's own node, and the
//! successor bypasses (and recycles) the aborted node.
//!
//! The cohort extension packs **two facts into one atomic word** per node
//! (the paper: "We colocate the successor-aborted flag with the prev field
//! of each node so as to ensure that both are read and modified
//! atomically"):
//!
//! * the node's release state — `WAITING`, `AVAIL_LOCAL` (release-local),
//!   `AVAIL_GLOBAL` (release-global), or the address of the aborter's
//!   predecessor;
//! * bit 0: the `successor-aborted` flag, set (with CAS) by an aborting
//!   successor.
//!
//! The releaser hands off locally with a single CAS of
//! `WAITING+flag-clear → AVAIL_LOCAL`; an aborting successor sets the flag
//! with a CAS on the same word. Exactly one wins, which is the whole
//! point: a local handoff can never be committed to a successor that is
//! simultaneously aborting. When the flag is found set, the releaser
//! conservatively releases the global lock first and only then publishes
//! `AVAIL_GLOBAL` (the §3.6.2 ordering).
#![deny(unsafe_op_in_unsafe_fn)]

use crate::traits::{AbortableLocalCohortLock, LocalAbortResult, LocalCohortLock, Release};
use base_locks::link::{Link, Word};
use base_locks::{pool, SpinWait, Wait};
use crossbeam_utils::CachePadded;
use std::ptr;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Word tags, all below the node alignment, so a node is never one
/// (bit 0 is the successor-aborted flag).
const WAITING: usize = 0;
const AVAIL_LOCAL: usize = 2;
const AVAIL_GLOBAL: usize = 4;
const SA_BIT: usize = 1;

#[inline]
fn base_of(tag: usize) -> usize {
    tag & !SA_BIT
}

/// Queue node: one packed word (see module docs).
#[derive(Debug)]
pub struct AClhNode {
    word: Link<AClhNode>,
}

impl AClhNode {
    fn new() -> Self {
        AClhNode {
            word: Link::new(None),
        }
    }
}

base_locks::pooled_node!(AClhNode, AClhNode::new);

/// Acquisition token: the thread's queue node.
#[derive(Debug)]
pub struct AClhToken(&'static AClhNode);

/// The abortable local CLH lock of A-C-BO-CLH.
pub struct LocalAClhLock {
    tail: CachePadded<Link<AClhNode>>,
}

impl LocalAClhLock {
    /// Creates a free lock. The queue starts with a dummy node in
    /// `AVAIL_GLOBAL` state: the first acquirer must take the global lock.
    pub fn new() -> Self {
        let dummy = pool::acquire::<AClhNode>();
        dummy
            .word
            .store_word(Word::Tag(AVAIL_GLOBAL), Ordering::Relaxed);
        LocalAClhLock {
            tail: CachePadded::new(Link::new(Some(dummy))),
        }
    }

    /// Shared wait loop. `deadline == None` blocks forever.
    fn acquire(&self, deadline: Option<Instant>) -> LocalAbortResult<AClhToken> {
        let node = pool::acquire::<AClhNode>();
        // Recycled nodes may carry stale words; reset before publishing
        // (fresh WAITING, successor-aborted clear).
        node.word.store_word(Word::Tag(WAITING), Ordering::Relaxed);
        let mut pred = self
            .tail
            .swap(Some(node), Ordering::AcqRel)
            .expect("A-CLH tail always points at a node");
        let mut wait = SpinWait::new();
        loop {
            // A node is recycled only by its unique direct successor;
            // until we acquire or abort, that is us.
            let w = pred.word.load_word(Ordering::Acquire);
            if let Word::Tag(tag) = w {
                if base_of(tag) == WAITING {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        // Abort: first tell the predecessor (CAS so we
                        // cannot race its release), then make it explicit
                        // for our successor.
                        let flagged = Word::Tag(tag | SA_BIT);
                        if pred
                            .word
                            .compare_exchange_word(w, flagged, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                        {
                            node.word.store_word(Word::Node(pred), Ordering::Release);
                            return LocalAbortResult::TimedOut;
                        }
                        // Predecessor changed under us (it released or
                        // aborted): re-examine — we may be obliged to
                        // acquire.
                        continue;
                    }
                    wait.snooze();
                    continue;
                }
            }
            // SAFETY: pred released or aborted, and we are its only
            // reader from here on.
            unsafe { pool::release(pred) };
            match w {
                // Predecessor aborted: adopt *its* predecessor.
                Word::Node(pp) => pred = pp,
                Word::Tag(tag) => {
                    let rel = if base_of(tag) == AVAIL_LOCAL {
                        Release::Local
                    } else {
                        Release::Global
                    };
                    return LocalAbortResult::Acquired(AClhToken(node), rel);
                }
            }
        }
    }
}

impl Drop for LocalAClhLock {
    /// Hands the nodes still reachable from the tail back to the pool: the
    /// node the last holder released through, preceded by the nodes of
    /// waiters that aborted behind it and that no successor ever bypassed.
    fn drop(&mut self) {
        let mut node = self.tail.get_mut();
        while let Some(n) = node {
            node = n.word.load(Ordering::Relaxed);
            // SAFETY: `&mut self` — no holder, no waiter: every node still
            // reachable from the tail is quiescent, and each is reachable
            // through exactly one predecessor link, so it is released once.
            unsafe { pool::release(n) };
        }
    }
}

impl Default for LocalAClhLock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LocalAClhLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalAClhLock").finish_non_exhaustive()
    }
}

// SAFETY: CLH exclusion (one AVAIL_* grant per release, consumed by the
// unique successor); the colocated-word CAS makes local handoff and
// successor abort mutually exclusive, which is the §3.6 strengthened
// cohort-detection requirement.
unsafe impl LocalCohortLock for LocalAClhLock {
    type Token = AClhToken;

    fn lock_local(&self) -> (AClhToken, Release) {
        match self.acquire(None) {
            LocalAbortResult::Acquired(t, r) => (t, r),
            _ => unreachable!("blocking acquire cannot time out"),
        }
    }

    fn try_lock_local(&self) -> Option<(AClhToken, Release)> {
        // Zero-patience acquisition through the abort protocol — sound
        // against node-recycling ABA, unlike an optimistic CAS on the raw
        // tail pointer.
        match self.acquire(Some(Instant::now())) {
            LocalAbortResult::Acquired(t, r) => Some((t, r)),
            LocalAbortResult::TimedOut => None,
            LocalAbortResult::Rescued(_) => unreachable!("CLH aborts never rescue"),
        }
    }

    fn alone(&self, token: &AClhToken) -> bool {
        // Waiters exist if someone enqueued after us *and* our direct
        // successor has not flagged an abort. (The flag makes this
        // conservative — exactly the paper's design.)
        //
        // Both loads are Relaxed (were Acquire): `alone` is only a
        // *hint* — the handoff CAS in `unlock_local` arbitrates
        // authoritatively on the same word. A stale tail read can only
        // show our own swap (same-thread coherence), i.e. claim we are
        // alone — which forces the conservative global release; a stale
        // word read missing the SA bit lets us *attempt* the handoff
        // CAS, which then fails against the committed abort (same-word
        // RMW ordering) and falls back to the global release. Neither
        // stale direction can commit a handoff to a missing successor.
        let w = token.0.word.load_word(Ordering::Relaxed);
        self.tail
            .load(Ordering::Relaxed)
            .is_some_and(|tail| ptr::eq(tail, token.0))
            || matches!(w, Word::Tag(tag) if tag & SA_BIT != 0)
    }

    unsafe fn unlock_local(
        &self,
        token: AClhToken,
        pass_local: bool,
        release_global: impl FnOnce(),
    ) {
        let node = token.0;
        if pass_local && !self.alone(&token) {
            // Single-CAS local handoff: commits only if no abort raced us.
            if node
                .word
                .compare_exchange_word(
                    Word::Tag(WAITING),
                    Word::Tag(AVAIL_LOCAL),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // Successor recycles our node.
                return;
            }
            // Successor aborted at the last moment: fall through to the
            // conservative global release.
        }
        // §3.6.2 ordering: release the global lock, then publish
        // release-global (overwriting any successor-aborted bit — the
        // obligation it signalled is discharged by releasing globally).
        release_global();
        node.word
            .store_word(Word::Tag(AVAIL_GLOBAL), Ordering::Release);
    }
}

// SAFETY: see the colocated-word argument above; aborts either commit by
// CAS on the predecessor (never abandoning a granted AVAIL_LOCAL) or
// convert into an acquisition on retry.
unsafe impl AbortableLocalCohortLock for LocalAClhLock {
    fn lock_local_abortable(&self, patience_ns: u64) -> LocalAbortResult<AClhToken> {
        let deadline = Instant::now() + Duration::from_nanos(patience_ns);
        self.acquire(Some(deadline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn word_decodes_its_sentinels_and_the_sa_bit_as_tags_and_a_node_as_itself() {
        let (node, pred) = (pool::acquire::<AClhNode>(), pool::acquire::<AClhNode>());
        for tag in [WAITING, AVAIL_LOCAL, AVAIL_GLOBAL] {
            for flagged in [tag, tag | SA_BIT] {
                node.word.store_word(Word::Tag(flagged), Ordering::Relaxed);
                let seen = node.word.load_word(Ordering::Relaxed);
                assert!(matches!(seen, Word::Tag(t) if t == flagged && base_of(t) == tag));
            }
        }
        node.word.store_word(Word::Node(pred), Ordering::Relaxed);
        let seen = node.word.load(Ordering::Relaxed);
        assert!(seen.is_some_and(|n| ptr::eq(n, pred)));
        // SAFETY: neither node was published to a lock.
        unsafe {
            pool::release(node);
            pool::release(pred);
        }
    }

    #[test]
    fn first_acquire_is_global() {
        let l = LocalAClhLock::new();
        let (t, r) = l.lock_local();
        assert_eq!(r, Release::Global);
        assert!(l.alone(&t));
        unsafe { l.unlock_local(t, false, || {}) };
    }

    #[test]
    fn local_handoff_via_cas() {
        let l = Arc::new(LocalAClhLock::new());
        let (t, _) = l.lock_local();
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let (t2, r2) = l2.lock_local();
            assert_eq!(r2, Release::Local);
            unsafe { l2.unlock_local(t2, false, || {}) };
        });
        while l.alone(&t) {
            std::hint::spin_loop();
        }
        let mut released = false;
        unsafe { l.unlock_local(t, true, || released = true) };
        assert!(!released);
        waiter.join().unwrap();
    }

    #[test]
    fn aborted_successor_forces_global_release() {
        let l = Arc::new(LocalAClhLock::new());
        let (t, _) = l.lock_local();
        // Successor aborts while we hold.
        let l2 = Arc::clone(&l);
        std::thread::spawn(move || {
            matches!(
                l2.lock_local_abortable(2_000_000),
                LocalAbortResult::TimedOut
            )
        })
        .join()
        .unwrap();
        // Our node's successor-aborted bit is set → alone? is true-ish
        // (conservative) → handoff must go global.
        let mut released = false;
        unsafe { l.unlock_local(t, true, || released = true) };
        assert!(released, "aborted successor ⇒ global release");
        // Next acquirer must see release-global.
        let (t, r) = l.lock_local();
        assert_eq!(r, Release::Global);
        unsafe { l.unlock_local(t, false, || {}) };
    }

    #[test]
    fn waiter_bypasses_aborted_node() {
        let l = Arc::new(LocalAClhLock::new());
        let (t, _) = l.lock_local();
        let l2 = Arc::clone(&l);
        let aborter = std::thread::spawn(move || {
            matches!(
                l2.lock_local_abortable(10_000_000),
                LocalAbortResult::TimedOut
            )
        });
        std::thread::sleep(std::time::Duration::from_millis(3));
        let l3 = Arc::clone(&l);
        let patient = std::thread::spawn(move || {
            let (t3, r3) = l3.lock_local();
            unsafe { l3.unlock_local(t3, false, || {}) };
            r3
        });
        aborter.join().unwrap();
        unsafe { l.unlock_local(t, false, || {}) };
        // The patient thread must get through (bypassing the aborted node)
        // and see release-global (we released with pass_local=false).
        assert_eq!(patient.join().unwrap(), Release::Global);
    }

    #[test]
    fn abort_storm_never_wedges() {
        use std::sync::atomic::{AtomicI64, Ordering as O};
        let l = Arc::new(LocalAClhLock::new());
        let held = Arc::new(AtomicI64::new(0));
        let mut handles = Vec::new();
        for i in 0..4 {
            let l = Arc::clone(&l);
            let held = Arc::clone(&held);
            handles.push(std::thread::spawn(move || {
                for _ in 0..300 {
                    let res = if i % 2 == 0 {
                        l.lock_local_abortable(10_000)
                    } else {
                        let (t, r) = l.lock_local();
                        LocalAbortResult::Acquired(t, r)
                    };
                    match res {
                        LocalAbortResult::Acquired(t, r) => {
                            if r == Release::Global {
                                while held.compare_exchange(0, 1, O::SeqCst, O::SeqCst).is_err() {
                                    std::hint::spin_loop();
                                }
                            } else {
                                assert_eq!(held.load(O::SeqCst), 1);
                            }
                            unsafe {
                                l.unlock_local(t, true, || {
                                    assert_eq!(held.fetch_sub(1, O::SeqCst), 1);
                                })
                            };
                        }
                        LocalAbortResult::Rescued(_) => unreachable!("CLH never rescues"),
                        LocalAbortResult::TimedOut => {}
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(held.load(std::sync::atomic::Ordering::SeqCst), 0);
        // And the lock still works.
        let (t, _) = l.lock_local();
        unsafe { l.unlock_local(t, false, || {}) };
    }
}
