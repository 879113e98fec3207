//! Classic spin locks used as the building blocks of cohort locks.
//!
//! The lock cohorting paper (Dice, Marathe, Shavit, PPoPP 2012) composes
//! NUMA-aware locks out of ordinary spin locks. This crate provides those
//! ordinary locks, faithful to the originals the paper cites:
//!
//! | Type | Origin | Notes |
//! |---|---|---|
//! | [`TatasLock`] = `TasLock<YieldEvery64>` | test-and-test-and-set | spin, yield every 64th probe |
//! | [`BackoffLock`] = `TasLock<Backoff>` | Agarwal & Cherian '89 | exponential backoff ("BO" in the paper) |
//! | [`FibBackoffLock`] = `TasLock<FibBackoff>` | Table 1's "Fib-BO" | Fibonacci backoff |
//! | [`GlobalBoLock`] = `TasLock<SpinWait>` | §4.1.1's global BO lock | no backoff: 64 spins, then yield |
//! | [`TicketLock`] | Mellor-Crummey & Scott '91 | FIFO, request/grant counters |
//! | [`McsLock`] | Mellor-Crummey & Scott '91 | FIFO queue lock, local spinning |
//! | [`ClhLock`] | Craig '93; Magnussen et al. | implicit-predecessor queue lock |
//! | [`AbortableClhLock`] | Scott PODC '02 ("CLH-NB try") | timeout-capable CLH |
//! | [`ReciprocatingLock`] | Dice & Kogan, arXiv:2501.02380 | palindromic admission, constant-coherence handover |
//!
//! The four TATAS rows are one type, [`TasLock<W>`], under a [`Wait`]
//! schedule from [`backoff`]. Every lock implements [`RawLock`];
//! timeout-capable ones also implement [`RawAbortableLock`]. The
//! [`SpinMutex`] wrapper turns any `RawLock` into an RAII mutex protecting
//! a value.
//!
//! Two design points worth knowing about:
//!
//! * **Oversubscription-safe spinning.** Every waiting schedule escalates
//!   from `spin_loop` hints to `thread::yield_now`. The paper ran
//!   on 256 hardware threads; this repository's test environment has one
//!   CPU, where a non-yielding spin lock would live-lock the suite.
//! * **Queue-node memory.** MCS/CLH family locks take their queue nodes
//!   from per-thread caches ([`pool`]), one per node type, as §3.4 of the
//!   paper does for its thread-oblivious global MCS lock: an acquire pops
//!   the calling thread's cache, a release pushes onto the releasing
//!   thread's, and neither executes an atomic instruction. Nodes are
//!   immortal, type-stable and alone in a 128-byte block; a lock owns no
//!   node memory, and one that keeps a resident dummy node (the CLH
//!   family) hands it back when dropped. A cold per-type overflow list
//!   balances threads that release more than they acquire.

#![warn(missing_docs)]

pub mod backoff;
mod clh;
mod clh_nb;
mod mcs;
mod mutex;
pub mod pool;
mod raw;
mod recip;
mod tatas;
mod ticket;

pub use backoff::{Backoff, SpinWait, Wait};
pub use clh::ClhLock;
pub use clh_nb::AbortableClhLock;
pub use mcs::McsLock;
pub use mutex::{SpinMutex, SpinMutexGuard};
pub use raw::{RawAbortableLock, RawLock};
pub use recip::{RecipToken, ReciprocatingLock};
pub use tatas::{BackoffLock, FibBackoffLock, GlobalBoLock, TasLock, TatasLock};
pub use ticket::TicketLock;

#[cfg(test)]
pub(crate) mod test_util {
    //! Shared stress-test machinery for lock implementations.
    use crate::raw::RawLock;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Hammers `lock` with `threads × iters` increments of an unsynchronized
    /// counter cell; panics unless the final value proves mutual exclusion.
    pub fn mutual_exclusion_stress<L>(lock: Arc<L>, threads: usize, iters: u64)
    where
        L: RawLock + 'static,
    {
        struct Shared {
            // Two counters that must always be observed equal inside the
            // critical section: a torn interleaving makes them differ.
            a: AtomicU64,
            b: AtomicU64,
        }
        let shared = Arc::new(Shared {
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        });
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        let tok = lock.lock();
                        let a = shared.a.load(Ordering::Relaxed);
                        let b = shared.b.load(Ordering::Relaxed);
                        assert_eq!(a, b, "critical section raced");
                        shared.a.store(a + 1, Ordering::Relaxed);
                        std::hint::spin_loop();
                        shared.b.store(b + 1, Ordering::Relaxed);
                        unsafe { lock.unlock(tok) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.a.load(Ordering::Relaxed), threads as u64 * iters);
        assert_eq!(shared.b.load(Ordering::Relaxed), threads as u64 * iters);
    }
}
