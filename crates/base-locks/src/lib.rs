//! Classic spin locks used as the building blocks of cohort locks.
//!
//! The lock cohorting paper (Dice, Marathe, Shavit, PPoPP 2012) composes
//! NUMA-aware locks out of ordinary spin locks. This crate provides those
//! ordinary locks, faithful to the originals the paper cites:
//!
//! | Type | Origin | Notes | Roles |
//! |---|---|---|---|
//! | [`TatasLock`] = `TasLock<YieldEvery64>` | test-and-test-and-set | spin, yield every 64th probe | plain, global |
//! | [`BackoffLock`] = `TasLock<Backoff>` | Agarwal & Cherian '89 | exponential backoff ("BO" in the paper) | plain, global |
//! | [`FibBackoffLock`] = `TasLock<FibBackoff>` | Table 1's "Fib-BO" | Fibonacci backoff | plain, global |
//! | [`GlobalBoLock`] = `TasLock<SpinWait>` | §4.1.1's global BO lock | no backoff: 64 spins, then yield | plain, global |
//! | [`LocalBoLock`] | §3.1, §3.6.1 | three-state TATAS word, `successor-exists` flag, abort rescue | local, abortable local |
//! | [`TicketLock`] | Mellor-Crummey & Scott '91 | FIFO, request/grant counters, `top-granted` | plain, global, local |
//! | [`McsLock`] | Mellor-Crummey & Scott '91 | FIFO queue lock, local spinning, tri-state flag | plain, global, local |
//! | [`ClhLock`] | Craig '93; Magnussen et al. | implicit-predecessor queue lock | plain |
//! | [`AbortableClhLock`] | Scott PODC '02 ("CLH-NB try") | timeout-capable CLH, successor-aborted bit | plain, abortable local |
//! | [`ReciprocatingLock`] | Dice & Kogan, arXiv:2501.02380 | palindromic admission, constant-coherence handover | plain, global |
//!
//! The four TATAS rows are one type, [`TasLock<W>`], under a [`Wait`]
//! schedule from [`backoff`]. Every lock but [`LocalBoLock`] implements
//! [`RawLock`]; timeout-capable ones also implement [`RawAbortableLock`]. The
//! [`SpinMutex`] wrapper turns any `RawLock` into an RAII mutex protecting
//! a value.
//!
//! A *global* lock is a cohort lock's shared lock: a `RawLock` whose
//! release is sound from any thread (the `cohort` crate marks it
//! `ThreadOblivious`). A *local* lock is one cluster's lock with cohort
//! detection, [`LocalCohortLock`] (abortable: [`AbortableLocalCohortLock`]);
//! the MCS, ticket and abortable CLH locks implement it on the same type,
//! queue and acquire loop as their plain role, which is the cohort release
//! that never passes locally and has no global lock to release.
//! [`LocalBoLock`] has only the local roles, blocking and abortable, on one
//! acquire loop and one release.
//!
//! Two design points worth knowing about:
//!
//! * **Oversubscription-safe spinning.** Every waiting schedule escalates
//!   from `spin_loop` hints to `thread::yield_now`. The paper ran
//!   on 256 hardware threads; this repository's test environment has one
//!   CPU, where a non-yielding spin lock would live-lock the suite.
//! * **Queue-node memory.** MCS/CLH family locks take their queue nodes
//!   from per-thread caches ([`pool`]), one per node type, as §3.4 of the
//!   paper does for its thread-oblivious global MCS lock. Nodes are
//!   immortal, so a node is a `&'static` reference, and nodes point at
//!   one another through [`link::Link`]: a lock dereferences no raw
//!   pointer, and its `unsafe` is its trait impl, its `unlock` and its
//!   [`pool::release`] calls.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

mod aclh;
pub mod backoff;
mod clh;
pub mod link;
mod mcs;
mod mutex;
pub mod pool;
mod raw;
mod recip;
mod tatas;
mod ticket;

pub use aclh::AbortableClhLock;
pub use backoff::{Backoff, SpinWait, Wait};
pub use clh::ClhLock;
pub use mcs::{McsLock, McsNode};
pub use mutex::{SpinMutex, SpinMutexGuard};
pub use raw::{
    AbortableLocalCohortLock, LocalAbortResult, LocalCohortLock, RawAbortableLock, RawLock, Release,
};
pub use recip::{RecipToken, ReciprocatingLock};
pub use tatas::{BackoffLock, FibBackoffLock, GlobalBoLock, LocalBoLock, TasLock, TatasLock};
pub use ticket::TicketLock;

// Each lock's module tests its plain and global roles; these test its
// cohort-local role.
#[cfg(test)]
mod local_aclh;
#[cfg(test)]
mod local_bo;
#[cfg(test)]
mod local_mcs;
#[cfg(test)]
mod local_ticket;

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
