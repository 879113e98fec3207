//! Abortable cohort acquisition — §3.6.
//!
//! Abortability composes: when both component locks can time out, so can
//! the cohort lock. The global side is easy (the paper's global BO lock is
//! "trivially abortable": any [`RawAbortableLock`] will do); the local
//! side carries the strengthened
//! cohort-detection obligation encoded in
//! [`AbortableLocalCohortLock`].
//!
//! This module adds [`CohortLock::lock_with_patience`] for such
//! compositions, and wires it into `base_locks`'
//! [`RawAbortableLock`](base_locks::RawAbortableLock) so abortable cohort
//! locks slot into [`SpinMutex::lock_with_patience`](base_locks::SpinMutex)
//! like any other timeout-capable lock.

use crate::lock::{CohortLock, CohortToken};
use crate::ThreadOblivious;
use base_locks::{AbortableLocalCohortLock, LocalAbortResult, RawAbortableLock, Release};
use numa_topology::current_cluster_in;
use std::time::Instant;

impl<G, L> CohortLock<G, L>
where
    G: ThreadOblivious + RawAbortableLock,
    L: AbortableLocalCohortLock,
{
    /// Tries to acquire the cohort lock, giving up after roughly
    /// `patience_ns` wall-clock nanoseconds in total (shared between the
    /// local and, if needed, the global acquisition).
    ///
    /// A timed-out attempt leaves no obligations behind: local queue
    /// positions are withdrawn through the local lock's abort protocol,
    /// and a timeout while waiting for the global lock releases the local
    /// lock in [`Release::Global`] state so cluster-mates re-acquire the
    /// global lock themselves.
    pub fn lock_with_patience(&self, patience_ns: u64) -> Option<CohortToken<L::Token>> {
        let start = Instant::now();
        let cluster = current_cluster_in(self.topology());
        let local = self.local_of(cluster);

        match local.lock_local_abortable(patience_ns) {
            LocalAbortResult::Acquired(ltok, Release::Local) => {
                // Cohort already owns the global lock.
                // SAFETY: we hold the local lock.
                unsafe { self.note_local_inheritance(cluster) };
                Some(self.assemble_token(cluster, ltok))
            }
            LocalAbortResult::Acquired(ltok, Release::Global) => {
                let elapsed = start.elapsed().as_nanos() as u64;
                let remaining = patience_ns.saturating_sub(elapsed);
                match self.global_ref().lock_with_patience(remaining.max(1)) {
                    Some(g) => {
                        // SAFETY: we hold the local lock.
                        unsafe { self.stash_global(cluster, g) };
                        Some(self.assemble_token(cluster, ltok))
                    }
                    None => {
                        // Timed out at the global lock: withdraw. The
                        // global lock was never ours, so the release
                        // closure must not run — pass_local=false with an
                        // unreachable closure guard.
                        // SAFETY: ltok is ours, used once.
                        unsafe {
                            local.unlock_local(ltok, false, || {});
                        }
                        None
                    }
                }
            }
            LocalAbortResult::TimedOut => None,
            LocalAbortResult::Rescued(ltok) => {
                // The abort raced a committed local handoff and we became
                // the owner of record (local lock + inherited global).
                // Record the inheritance (streak bump — the streak is what
                // counts the handoff, once, when this tenure ends), then
                // discharge both locks and report the timeout.
                // SAFETY: we hold the cohort lock; release it wholesale.
                unsafe {
                    self.note_local_inheritance(cluster);
                    self.release(self.assemble_token(cluster, ltok));
                }
                None
            }
        }
    }
}

// SAFETY: delegates to the cohort protocol above; a `None` return provably
// leaves both component locks acquirable (see the per-arm comments).
unsafe impl<G, L> RawAbortableLock for CohortLock<G, L>
where
    G: ThreadOblivious + RawAbortableLock,
    L: AbortableLocalCohortLock,
{
    fn lock_with_patience(&self, patience_ns: u64) -> Option<Self::Token> {
        CohortLock::lock_with_patience(self, patience_ns)
    }
}
