//! The ticket lock (Mellor-Crummey & Scott '91).
//!
//! Two counters: a thread takes a *request* number with one atomic
//! increment and waits until the *grant* counter reaches it; release
//! increments grant. FIFO-fair and — crucially for cohorting — trivially
//! **thread-oblivious**: any thread can increment grant (§3.2 of the
//! paper), so this lock serves as the global lock of C-TKT-TKT and
//! C-TKT-MCS.
//!
//! The token returned by `lock` is the ticket number; it also gives the
//! paper's *cohort detection* for free (`request != grant+1` while
//! holding means someone is waiting) — the cohort crate builds on exactly
//! that observation with its own local-ticket variant.

use crate::raw::RawLock;
use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// FIFO ticket lock.
#[derive(Debug, Default)]
pub struct TicketLock {
    request: CachePadded<AtomicU64>,
    grant: CachePadded<AtomicU64>,
}

impl TicketLock {
    /// Creates an unlocked instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current request counter (monitoring/tests).
    pub fn request_count(&self) -> u64 {
        self.request.load(Ordering::Relaxed)
    }

    /// Current grant counter (monitoring/tests).
    pub fn grant_count(&self) -> u64 {
        self.grant.load(Ordering::Relaxed)
    }

    /// Number of threads waiting or holding (racy snapshot).
    pub fn queue_len(&self) -> u64 {
        self.request
            .load(Ordering::Relaxed)
            .saturating_sub(self.grant.load(Ordering::Relaxed))
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
        debug_assert_eq!(self.grant.load(Ordering::Relaxed), token);
        self.grant.store(token + 1, Ordering::Release);
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
