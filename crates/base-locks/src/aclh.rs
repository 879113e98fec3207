//! Scott's abortable CLH lock ("CLH-NB try", PODC '02) and its cohort
//! form, §3.6.2 of the paper — one type for both.
//!
//! A CLH waiter spins on its *implicit* predecessor's node; to *abort*, it
//! makes the predecessor explicit by writing the predecessor's address
//! into its own node's word. The successor notices, bypasses the aborted
//! node (and recycles it), and continues spinning on the bypassed-to
//! predecessor. As a plain lock this is Figure 6's "A-CLH" baseline
//! ([`RawAbortableLock`]); as a local lock it is the cohort lock of
//! A-C-BO-CLH ([`AbortableLocalCohortLock`]).
//!
//! The cohort form packs **two facts into one atomic word** per node (the
//! paper: "We colocate the successor-aborted flag with the prev field of
//! each node so as to ensure that both are read and modified
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
//! `AVAIL_GLOBAL` (the §3.6.2 ordering). The plain `unlock` is that
//! release with no local pass and no global lock: it publishes
//! `AVAIL_GLOBAL`, and the flag asks nothing of it.
//!
//! Node reclamation invariant: a node is recycled by **exactly one**
//! thread — its direct successor at the moment it becomes available or
//! aborted (or the lock's `Drop` when it sat at the tail).
#![deny(unsafe_op_in_unsafe_fn)]

use crate::backoff::{SpinWait, Wait};
use crate::link::{Link, Word};
use crate::pool;
use crate::raw::{
    AbortableLocalCohortLock, LocalAbortResult, LocalCohortLock, Patience, RawAbortableLock,
    RawLock, Release,
};
use crossbeam_utils::CachePadded;
use std::ptr;
use std::sync::atomic::Ordering;

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
pub struct AbortableClhNode {
    word: Link<AbortableClhNode>,
}

impl AbortableClhNode {
    fn new() -> Self {
        AbortableClhNode {
            word: Link::new(None),
        }
    }
}

crate::pooled_node!(AbortableClhNode, AbortableClhNode::new);

/// Acquisition token: the node this thread published.
#[derive(Debug)]
pub struct AbortableClhToken(&'static AbortableClhNode);

/// Scott's abortable (non-blocking-timeout) CLH lock, with the colocated
/// successor-aborted flag of §3.6.2.
pub struct AbortableClhLock {
    tail: CachePadded<Link<AbortableClhNode>>,
}

impl AbortableClhLock {
    /// Creates a free lock. The queue starts with a dummy node in
    /// `AVAIL_GLOBAL` state: the first acquirer must take the global lock.
    pub fn new() -> Self {
        let dummy = pool::acquire::<AbortableClhNode>();
        dummy
            .word
            .store_word(Word::Tag(AVAIL_GLOBAL), Ordering::Relaxed);
        AbortableClhLock {
            tail: CachePadded::new(Link::new(Some(dummy))),
        }
    }

    /// The wait loop of every entry point: walk the (possibly aborted)
    /// predecessor chain until an available node grants us the lock, or
    /// `patience` runs out (`None` waits forever).
    fn acquire(&self, mut patience: Option<Patience>) -> Option<(AbortableClhToken, Release)> {
        let node = pool::acquire::<AbortableClhNode>();
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
                    if patience.as_mut().is_some_and(Patience::expired) {
                        // Abort: first tell the predecessor (CAS so we
                        // cannot race its release), then make it explicit
                        // for our successor, and never touch `node` again —
                        // our successor (or `Drop`) recycles it.
                        let flagged = Word::Tag(tag | SA_BIT);
                        if pred
                            .word
                            .compare_exchange_word(w, flagged, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                        {
                            node.word.store_word(Word::Node(pred), Ordering::Release);
                            return None;
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
                    return Some((AbortableClhToken(node), rel));
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
// predecessor reads AVAIL_*, which each holder writes once, in
// `unlock_local` (`Release`, read with `Acquire`); an aborted node is
// never available, so its successor walks past it to the real holder.
unsafe impl RawLock for AbortableClhLock {
    type Token = AbortableClhToken;

    fn lock(&self) -> AbortableClhToken {
        self.lock_local().0
    }

    fn try_lock(&self) -> Option<AbortableClhToken> {
        self.try_lock_local().map(|(token, _)| token)
    }

    unsafe fn unlock(&self, token: AbortableClhToken) {
        // SAFETY: the `unlock` contract is `unlock_local`'s, and this
        // lock's plain role has no global lock to release.
        unsafe { self.unlock_local(token, false, || {}) }
    }
}

// SAFETY: an abort publishes the aborter's predecessor in its own node
// and leaves the queue walkable, so it never strands the lock.
unsafe impl RawAbortableLock for AbortableClhLock {
    fn lock_with_patience(&self, patience_ns: u64) -> Option<AbortableClhToken> {
        self.acquire(Some(Patience::new(patience_ns)))
            .map(|(token, _)| token)
    }
}

// SAFETY: CLH exclusion (one AVAIL_* grant per release, consumed by the
// unique successor); the colocated-word CAS makes local handoff and
// successor abort mutually exclusive, which is the §3.6 strengthened
// cohort-detection requirement.
unsafe impl LocalCohortLock for AbortableClhLock {
    type Token = AbortableClhToken;

    fn lock_local(&self) -> (AbortableClhToken, Release) {
        self.acquire(None).expect("infinite patience cannot abort")
    }

    fn try_lock_local(&self) -> Option<(AbortableClhToken, Release)> {
        // A zero-patience acquisition: enqueue, check the predecessor, and
        // abort through the normal protocol if it is not already released.
        // (An optimistic CAS on the raw tail would be exposed to ABA on
        // recycled nodes; the abort path makes "try" sound here.)
        self.acquire(Some(Patience::new(0)))
    }

    fn alone(&self, token: &AbortableClhToken) -> bool {
        // Waiters exist if someone enqueued after us *and* our direct
        // successor has not flagged an abort. (The flag makes this
        // conservative — exactly the paper's design.)
        //
        // Both loads are Relaxed: `alone` is only a *hint* — the handoff
        // CAS in `unlock_local` arbitrates authoritatively on the same
        // word. A stale tail read can only show our own swap (same-thread
        // coherence), i.e. claim we are alone — which forces the
        // conservative global release; a stale word read missing the SA
        // bit lets us *attempt* the handoff CAS, which then fails against
        // the committed abort (same-word RMW ordering) and falls back to
        // the global release. Neither stale direction can commit a
        // handoff to a missing successor.
        let w = token.0.word.load_word(Ordering::Relaxed);
        self.tail
            .load(Ordering::Relaxed)
            .is_some_and(|tail| ptr::eq(tail, token.0))
            || matches!(w, Word::Tag(tag) if tag & SA_BIT != 0)
    }

    unsafe fn unlock_local(
        &self,
        token: AbortableClhToken,
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
unsafe impl AbortableLocalCohortLock for AbortableClhLock {
    fn lock_local_abortable(&self, patience_ns: u64) -> LocalAbortResult<AbortableClhToken> {
        match self.acquire(Some(Patience::new(patience_ns))) {
            Some((token, rel)) => LocalAbortResult::Acquired(token, rel),
            None => LocalAbortResult::TimedOut,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mutual_exclusion_stress;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn word_decodes_its_sentinels_and_the_sa_bit_as_tags_and_a_node_as_itself() {
        let (node, pred) = (
            pool::acquire::<AbortableClhNode>(),
            pool::acquire::<AbortableClhNode>(),
        );
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
    fn aborted_successor_is_bypassed_after_a_plain_unlock() {
        let l = Arc::new(AbortableClhLock::new());
        let t = l.lock();
        // A successor aborts behind the holder: it flags the holder's
        // node and is left at the tail.
        let l2 = Arc::clone(&l);
        let timed_out = std::thread::spawn(move || l2.lock_with_patience(1_000_000).is_none());
        assert!(timed_out.join().unwrap());
        assert!(
            matches!(t.0.word.load_word(Ordering::Relaxed), Word::Tag(tag) if tag & SA_BIT != 0)
        );
        let aborted = l.tail.load(Ordering::Relaxed).expect("a node");
        // The next waiter is the bypassed node's only recycler: it takes
        // it into its own cache, where it must show up exactly once.
        let l3 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let t = l3.lock();
            unsafe { l3.unlock(t) };
            let cached: Vec<_> = (0..pool::cached::<AbortableClhNode>())
                .map(|_| pool::acquire::<AbortableClhNode>())
                .collect();
            let copies = cached.iter().filter(|&&n| ptr::eq(n, aborted)).count();
            for n in cached {
                // SAFETY: taken from the cache just now, never published.
                unsafe { pool::release(n) };
            }
            copies
        });
        while l
            .tail
            .load(Ordering::Relaxed)
            .is_some_and(|n| ptr::eq(n, aborted))
        {
            std::thread::yield_now();
        }
        // A plain unlock ignores the flag and still admits the waiter.
        unsafe { l.unlock(t) };
        assert_eq!(waiter.join().unwrap(), 1, "bypassed node recycled once");
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
