//! The ticket lock (Mellor-Crummey & Scott '91).
//!
//! Two counters: a thread takes a *request* number with one atomic
//! increment and waits until the *grant* counter reaches it; release
//! increments grant. FIFO-fair and — crucially for cohorting — trivially
//! **thread-oblivious**: any thread can increment grant (§3.2 of the
//! paper), so this lock serves as the global lock of C-TKT-TKT and
//! C-TKT-MCS.
//!
//! It is the local lock of C-TKT-TKT too ([`LocalCohortLock`], §3.2):
//! cohort detection comes free — while holding ticket `t` (so
//! `grant == t`), cluster-mates are waiting iff `request > t + 1`. Local
//! handoff uses the paper's `top-granted` field: the releaser sets it
//! before incrementing `grant`; the next owner finds it set, learns it
//! inherited the global lock, and resets it (footnote 3). Only
//! `lock_local` reads it, so the plain `lock` keeps the classic loads.

use crate::raw::{LocalCohortLock, RawLock, Release};
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// FIFO ticket lock.
#[derive(Debug, Default)]
pub struct TicketLock {
    request: CachePadded<AtomicU64>,
    grant: CachePadded<AtomicU64>,
    pub(crate) top_granted: CachePadded<AtomicBool>,
}

impl TicketLock {
    /// Creates an unlocked instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of threads waiting or holding (racy snapshot).
    pub fn queue_len(&self) -> u64 {
        self.request
            .load(Ordering::Relaxed)
            .saturating_sub(self.grant.load(Ordering::Relaxed))
    }

    #[inline]
    fn consume_top_granted(&self) -> Release {
        // The new owner checks whether the previous one passed the global
        // lock along, and resets the marker (it is per-handoff).
        if self.top_granted.load(Ordering::Relaxed) {
            self.top_granted.store(false, Ordering::Relaxed);
            Release::Local
        } else {
            Release::Global
        }
    }
}

// SAFETY: tickets are unique (`fetch_add`), and only the holder of
// ticket `grant` runs; `unlock` advances `grant` (`Release`, read with
// `Acquire`) once per ticket.
unsafe impl RawLock for TicketLock {
    /// The ticket number; needed by `unlock` to advance `grant`.
    type Token = u64;

    fn lock(&self) -> u64 {
        let me = self.request.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0u32;
        loop {
            let cur = self.grant.load(Ordering::Acquire);
            if cur == me {
                return me;
            }
            // Proportional backoff: the further back in line, the longer
            // the wait before re-probing (classic ticket-lock refinement).
            // Yield frequently: on an oversubscribed host the queue only
            // advances while the grant holder is scheduled.
            let ahead = me.wrapping_sub(cur).min(64) as u32;
            crate::backoff::spin_cycles(ahead * 8);
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(4) {
                std::thread::yield_now();
            }
        }
    }

    fn try_lock(&self) -> Option<u64> {
        let g = self.grant.load(Ordering::Acquire);
        // Only take a ticket if it would be served immediately.
        self.request
            .compare_exchange(g, g + 1, Ordering::Acquire, Ordering::Relaxed)
            .ok()
    }

    unsafe fn unlock(&self, token: u64) {
        // SAFETY: the `unlock` contract is `unlock_local`'s, and this
        // lock's plain role has no global lock to release.
        unsafe { self.unlock_local(token, false, || {}) }
    }
}

// SAFETY: a ticket lock admits exactly one holder per grant value; the
// `alone?` predicate (`request != t + 1`) can only claim company when a
// request counter increment — made by a thread that, being non-abortable,
// will wait for its turn — has happened.
unsafe impl LocalCohortLock for TicketLock {
    /// The ticket number (needed to advance `grant` on release).
    type Token = u64;

    fn lock_local(&self) -> (u64, Release) {
        (self.lock(), self.consume_top_granted())
    }

    fn try_lock_local(&self) -> Option<(u64, Release)> {
        self.try_lock().map(|me| (me, self.consume_top_granted()))
    }

    fn alone(&self, me: &u64) -> bool {
        // While we hold ticket `me`, waiters exist iff further requests
        // were issued (§3.2: "determine if the request and grant counters
        // match").
        self.request.load(Ordering::Relaxed) == me + 1
    }

    unsafe fn unlock_local(&self, me: u64, pass_local: bool, release_global: impl FnOnce()) {
        debug_assert_eq!(self.grant.load(Ordering::Relaxed), me);
        if pass_local && !self.alone(&me) {
            // Inform the next-in-line that it inherits the global lock,
            // *then* open the gate.
            self.top_granted.store(true, Ordering::Relaxed);
        } else {
            release_global();
        }
        self.grant.store(me + 1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mutual_exclusion_stress;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion() {
        mutual_exclusion_stress(Arc::new(TicketLock::new()), 4, 2_000);
    }

    #[test]
    fn tickets_are_fifo() {
        // Single-threaded: tokens must be sequential.
        let l = TicketLock::new();
        for expect in 0..5 {
            let t = l.lock();
            assert_eq!(t, expect);
            unsafe { l.unlock(t) };
        }
    }

    #[test]
    fn fifo_order_across_threads() {
        // Threads record the order they entered; with a ticket lock the
        // sequence of tokens they observe must be strictly increasing in
        // admission order.
        let l = Arc::new(TicketLock::new());
        let order = Arc::new(StdAtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&l);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let t = l.lock();
                    // Admission index must equal the ticket number.
                    let seen = order.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(seen, t);
                    unsafe { l.unlock(t) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn try_lock_respects_waiters() {
        let l = TicketLock::new();
        let t = l.try_lock().unwrap();
        assert!(l.try_lock().is_none());
        unsafe { l.unlock(t) };
        assert_eq!(l.queue_len(), 0);
    }

    #[test]
    fn thread_oblivious_release() {
        let l = Arc::new(TicketLock::new());
        let t = l.lock();
        let l2 = Arc::clone(&l);
        std::thread::spawn(move || unsafe { l2.unlock(t) })
            .join()
            .unwrap();
        assert!(l.try_lock().is_some());
    }
}
