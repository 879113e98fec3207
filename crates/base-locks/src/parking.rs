//! A blocking (spin-then-park) lock — the paper's §2.1 aside made real.
//!
//! "We describe lock cohorting in the context of spin-locks, although it
//! could be as easily applied to blocking-locks." This lock demonstrates
//! that: waiters spin briefly, then **park** their thread; a releaser
//! wakes one waiter. Crucially it is *thread-oblivious* — the lock word
//! carries no owner identity and any thread may release — so it slots
//! straight into the global position of a cohort lock, yielding a
//! spin-then-block NUMA-aware lock (see the `cohort` crate's tests).
//!
//! The parking protocol is deliberately simple and obviously sound:
//! waiters always use a bounded park, so a lost wakeup costs one bounded
//! latency blip instead of a deadlock (a common production pattern; the
//! unbounded-park variants need sequence-number handshakes that add
//! nothing to this repository's subject).

use crate::backoff::{Backoff, Wait};
use crate::raw::{RawAbortableLock, RawLock};
use crossbeam_utils::CachePadded;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::Duration;

/// Spin-then-park mutual-exclusion lock.
pub struct ParkingLock {
    held: CachePadded<AtomicBool>,
    /// Parked waiters, FIFO. The Mutex is uncontended relative to the
    /// lock's own hold times (touched once per park/unpark).
    waiters: Mutex<VecDeque<Thread>>,
}

impl ParkingLock {
    /// Spins this many backoff rounds before parking.
    const SPIN_ROUNDS: u32 = 8;
    /// Bounded park: an unlucky lost wakeup costs at most this.
    const PARK_CAP: Duration = Duration::from_micros(200);

    /// Creates an unlocked instance.
    pub fn new() -> Self {
        ParkingLock {
            held: CachePadded::new(AtomicBool::new(false)),
            waiters: Mutex::new(VecDeque::new()),
        }
    }

    #[inline]
    fn try_acquire(&self) -> bool {
        !self.held.load(Ordering::Relaxed)
            && self
                .held
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// True if currently held (racy snapshot; monitoring only).
    pub fn is_locked(&self) -> bool {
        self.held.load(Ordering::Relaxed)
    }

    /// Parked waiters right now (racy; monitoring only).
    pub fn parked(&self) -> usize {
        self.waiters.lock().unwrap().len()
    }

    fn wait_until(&self, deadline: Option<std::time::Instant>) -> bool {
        let mut bo = Backoff::default();
        loop {
            for _ in 0..Self::SPIN_ROUNDS {
                if self.try_acquire() {
                    return true;
                }
                bo.snooze();
            }
            if let Some(d) = deadline {
                if std::time::Instant::now() >= d {
                    return false;
                }
            }
            // Park: register first, then re-check (the releaser wakes
            // registered waiters *after* releasing, so a release between
            // our re-check and the park shows up as an unpark token or a
            // free lock on the next bounded wakeup).
            self.waiters
                .lock()
                .unwrap()
                .push_back(std::thread::current());
            if self.try_acquire() {
                // Got it after all; our stale registration may eat one
                // unpark, which the bounded park absorbs.
                self.unregister();
                return true;
            }
            std::thread::park_timeout(Self::PARK_CAP);
            self.unregister();
        }
    }

    fn unregister(&self) {
        let me = std::thread::current().id();
        self.waiters.lock().unwrap().retain(|t| t.id() != me);
    }
}

impl Default for ParkingLock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ParkingLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParkingLock")
            .field("held", &self.is_locked())
            .field("parked", &self.parked())
            .finish()
    }
}

// SAFETY: exclusion by CAS on `held`; release store pairs with acquire
// CAS. Thread-oblivious: `unlock` only stores and unparks.
unsafe impl RawLock for ParkingLock {
    type Token = ();

    fn lock(&self) {
        let ok = self.wait_until(None);
        debug_assert!(ok);
    }

    fn try_lock(&self) -> Option<()> {
        self.try_acquire().then_some(())
    }

    unsafe fn unlock(&self, _t: ()) {
        self.held.store(false, Ordering::Release);
        // Wake one waiter (FIFO-ish). Missing one here is benign thanks
        // to bounded parks.
        if let Some(t) = self.waiters.lock().unwrap().pop_front() {
            t.unpark();
        }
    }
}

// SAFETY: giving up leaves no trace beyond a stale queue entry, which the
// waiter removes itself.
unsafe impl RawAbortableLock for ParkingLock {
    fn lock_with_patience(&self, patience_ns: u64) -> Option<()> {
        let deadline = std::time::Instant::now() + std::time::Duration::from_nanos(patience_ns);
        self.wait_until(Some(deadline)).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::mutual_exclusion_stress;
    use std::sync::Arc;

    #[test]
    fn mutual_exclusion() {
        mutual_exclusion_stress(Arc::new(ParkingLock::new()), 4, 2_000);
    }

    #[test]
    fn waiters_park_and_wake() {
        let l = Arc::new(ParkingLock::new());
        l.lock();
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || {
            l2.lock();
            unsafe { l2.unlock(()) };
        });
        // Give the waiter time to park at least once.
        std::thread::sleep(Duration::from_millis(5));
        unsafe { l.unlock(()) };
        h.join().unwrap();
        assert_eq!(l.parked(), 0, "queue drained");
    }

    #[test]
    fn thread_oblivious_release() {
        let l = Arc::new(ParkingLock::new());
        l.lock();
        let l2 = Arc::clone(&l);
        std::thread::spawn(move || unsafe { l2.unlock(()) })
            .join()
            .unwrap();
        assert!(!l.is_locked());
    }

    #[test]
    fn abort_while_held() {
        let l = ParkingLock::new();
        l.lock();
        assert!(l.lock_with_patience(300_000).is_none());
        unsafe { l.unlock(()) };
        assert!(l.lock_with_patience(1_000_000_000).is_some());
        unsafe { l.unlock(()) };
    }
}
