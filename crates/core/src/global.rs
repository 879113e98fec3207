//! The base locks the paper uses in the global position, each marked
//! [`ThreadOblivious`] with the reason it is.
//!
//! * **TATAS family** (BO, global BO, TATAS, Fib-BO) — used by C-BO-BO,
//!   C-BO-MCS, A-C-BO-BO, A-C-BO-CLH.
//! * **Ticket** — used by C-TKT-TKT and C-TKT-MCS.
//! * **MCS** — used by C-MCS-MCS.
//! * **Reciprocating** — used by C-Recip-MCS.

use crate::traits::ThreadOblivious;
use base_locks::{McsLock, ReciprocatingLock, TasLock, TicketLock, Wait};

// SAFETY: the lock word is one flag carrying no owner identity, and
// `unlock` is a plain store.
unsafe impl<W: Wait> ThreadOblivious for TasLock<W> {}

// SAFETY: any thread may increment `grant` (§3.2).
unsafe impl ThreadOblivious for TicketLock {}

// SAFETY: queue nodes circulate through per-thread pools (§3.4), so the
// node in a token may be retired by whichever thread releases.
unsafe impl ThreadOblivious for McsLock {}

// SAFETY: the token is two plain words (successor pointer, era budget)
// and the release path never consults thread identity.
unsafe impl ThreadOblivious for ReciprocatingLock {}

#[cfg(test)]
mod tests {
    use super::*;
    use base_locks::{BackoffLock, FibBackoffLock, GlobalBoLock, RawAbortableLock, TatasLock};
    use std::sync::Arc;

    fn exercise<G: ThreadOblivious>(g: &G) {
        let t = g.lock();
        assert!(g.try_lock().is_none());
        unsafe { g.unlock(t) };
        let t = g.try_lock().expect("free");
        unsafe { g.unlock(t) };
    }

    #[test]
    fn all_global_impls_behave() {
        exercise(&GlobalBoLock::new());
        exercise(&TatasLock::new());
        exercise(&BackoffLock::new());
        exercise(&FibBackoffLock::new());
        exercise(&TicketLock::new());
        exercise(&McsLock::new());
        exercise(&ReciprocatingLock::new());
    }

    #[test]
    fn global_token_crosses_threads() {
        // The defining property: lock here, unlock over there.
        fn cross<G: ThreadOblivious + 'static>(g: Arc<G>) {
            let t = g.lock();
            let g2 = Arc::clone(&g);
            std::thread::spawn(move || unsafe { g2.unlock(t) })
                .join()
                .unwrap();
            let t = g.try_lock().expect("released remotely");
            unsafe { g.unlock(t) };
        }
        cross(Arc::new(GlobalBoLock::new()));
        cross(Arc::new(BackoffLock::new()));
        cross(Arc::new(TicketLock::new()));
        cross(Arc::new(McsLock::new()));
        cross(Arc::new(ReciprocatingLock::new()));
    }

    #[test]
    fn abortable_global_times_out() {
        fn times_out<G: ThreadOblivious + RawAbortableLock>(g: &G) {
            let t = g.lock();
            assert!(g.lock_with_patience(50_000).is_none());
            unsafe { g.unlock(t) };
        }
        times_out(&GlobalBoLock::new());
        times_out(&BackoffLock::new());
    }
}
