//! Cohort **reader-writer** locks (C-RW) — NUMA-aware RW locks built on
//! the cohorting transformation.
//!
//! The paper's conclusion frames cohorting as a *transformation*, and its
//! best-known follow-on applies that transformation to reader-writer
//! locks: *NUMA-Aware Reader-Writer Locks* (Calciu, Dice, Lev, Luchangco,
//! Marathe, Shavit; PPoPP 2013) builds C-RW locks directly on cohort
//! locks. The recipe, reproduced here:
//!
//! * **writers** synchronize among themselves through an ordinary
//!   [`CohortLock<G, L>`], so consecutive writers from one cluster pass
//!   the write lock at local cost and writer *tenures* are bounded by the
//!   same [`PolicySpec`] as every other cohort lock;
//! * **readers** never touch the write lock: each cluster owns a
//!   cache-padded reader counter, so concurrent readers on different
//!   clusters induce no coherence traffic at all, and readers on the same
//!   cluster contend only on their own line;
//! * a writer becomes visible to readers through a *writer barrier*, then
//!   waits for every cluster's reader count to drain before entering.
//!
//! Two fairness flavors are provided (the [`RwFairness`] knob):
//!
//! * [`RwFairness::WriterPreference`] — the C-RW-WP shape: readers are
//!   held back while *any* writer is pending, so writer cohorts run
//!   back-to-back without reader interference. Best when writes are rare
//!   but must not starve (the read-mostly kv-store mixes).
//! * [`RwFairness::Neutral`] — readers are held back only while a writer
//!   is *active*: between writer critical sections (and between writer
//!   tenures) reader batches are admitted, trading writer latency for
//!   reader throughput.
//!
//! Mutual exclusion between a writer and the readers is the classic
//! Dekker-style protocol: a reader *increments its counter, then* checks
//! the barrier; a writer *raises the barrier, then* scans the counters.
//! With sequentially consistent operations on both sides, at least one of
//! the two always observes the other. Only those four sites (reader
//! announce + barrier check, writer barrier-raise + drain scan) need
//! SeqCst; the exit-side stores and the advisory writer-pending counter
//! are weakened with site-local justifications (see the ordering audit
//! table in `docs/ARCHITECTURE.md`). Readers additionally take an
//! **uncontended fast path**: announce first and re-check once, skipping
//! the pre-announcement gate probe entirely when no writer is around.

use crate::lock::{CohortLock, CohortToken};
use crate::policy::{CohortStats, PolicySpec, Tenures};
use crate::traits::{LocalCohortLock, ThreadOblivious};
use base_locks::{RawLock, SpinWait, Wait};
use crossbeam_utils::CachePadded;
use numa_topology::{current_cluster_in, ClusterId, Topology};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How a [`CohortRwLock`] arbitrates between readers and writers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RwFairness {
    /// Readers are blocked while **any writer is pending or active**
    /// (C-RW-WP): writer cohorts drain completely before readers are
    /// readmitted. Readers can starve under a sustained write stream —
    /// the price of minimal writer latency.
    WriterPreference,
    /// Readers are blocked only while a writer is **active**: between
    /// consecutive writer critical sections, and between writer tenures,
    /// waiting reader batches slip in. Writers pay a reader-drain wait
    /// more often; neither side starves under mixed load.
    Neutral,
}

/// Per-acquisition token of the read side of a [`CohortRwLock`].
///
/// Carries the cluster whose reader counter was incremented; it must be
/// returned to [`CohortRwLock::unlock_read`] exactly once.
#[derive(Debug)]
pub struct RwReadToken {
    cluster: ClusterId,
}

impl RwReadToken {
    /// The cluster this read acquisition was counted on.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }
}

/// Per-acquisition token of the write side of a [`CohortRwLock`] — wraps
/// the underlying cohort-lock token.
pub struct RwWriteToken<LT> {
    inner: CohortToken<LT>,
}

impl<LT> RwWriteToken<LT> {
    /// The cluster the write acquisition ran on.
    pub fn cluster(&self) -> ClusterId {
        self.inner.cluster()
    }
}

/// A NUMA-aware reader-writer lock built on the cohorting transformation:
/// writers go through a [`CohortLock<G, L>`], readers through
/// cache-padded per-cluster counters.
///
/// The policy bounds **writer tenures** exactly as it bounds tenures of a
/// plain cohort lock — [`cohort_stats`](Self::cohort_stats) reports the
/// same per-cluster tenure counters, and e.g. `PolicySpec::Count` with
/// bound 64 guarantees no cluster's writer streak exceeds 64 consecutive
/// local handoffs.
///
/// Ready-made compositions: [`CRwBoMcs`](crate::CRwBoMcs) and
/// [`CRwTktMcs`](crate::CRwTktMcs).
///
/// ```
/// use cohort::{CRwBoMcs, RwFairness};
/// use numa_topology::Topology;
/// use std::sync::Arc;
///
/// let topo = Arc::new(Topology::new(4));
/// let rw = CRwBoMcs::new(Arc::clone(&topo)); // writer-preference default
/// assert_eq!(rw.fairness(), RwFairness::WriterPreference);
///
/// // Any number of readers share the lock...
/// let r1 = rw.read();
/// let r2 = rw.read();
/// assert!(rw.try_write().is_none(), "readers exclude writers");
/// drop((r1, r2));
///
/// // ...while a writer is exclusive.
/// let w = rw.write();
/// assert!(rw.try_read().is_none(), "writers exclude readers");
/// drop(w);
///
/// // Writer tenures feed the usual cohort statistics. (The rolled-back
/// // `try_write` above counts too: it briefly held the writer lock.)
/// assert_eq!(rw.cohort_stats().tenures(), 2);
/// ```
pub struct CohortRwLock<G: ThreadOblivious, L: LocalCohortLock> {
    /// Writer-side mutual exclusion (and the tenure/fairness machinery).
    writer: CohortLock<G, L>,
    /// Active readers per cluster; a reader only ever touches its own
    /// cluster's line.
    readers: Box<[CachePadded<AtomicU64>]>,
    /// Raised by the writer that holds `writer`, between its acquisition
    /// and release — the barrier new readers check.
    write_active: AtomicBool,
    /// Writers that have announced themselves (incremented before taking
    /// `writer`, decremented after releasing it). Only consulted by
    /// readers under [`RwFairness::WriterPreference`].
    write_pending: AtomicU64,
    fairness: RwFairness,
}

impl<G, L> CohortRwLock<G, L>
where
    G: ThreadOblivious + Default,
    L: LocalCohortLock + Default,
{
    /// Creates a writer-preference C-RW lock over `topo` under the
    /// paper's handoff policy.
    pub fn new(topo: Arc<Topology>) -> Self {
        Self::with_fairness(topo, RwFairness::WriterPreference)
    }

    /// Creates a C-RW lock with an explicit fairness flavor under the
    /// paper's handoff policy.
    pub fn with_fairness(topo: Arc<Topology>, fairness: RwFairness) -> Self {
        Self::with_policy_and_fairness(topo, PolicySpec::paper_default(), fairness)
    }

    /// Creates a writer-preference C-RW lock with an explicit handoff
    /// policy bounding writer tenures.
    pub fn with_policy(topo: Arc<Topology>, spec: PolicySpec) -> Self {
        Self::with_policy_and_fairness(topo, spec, RwFairness::WriterPreference)
    }

    /// Creates a C-RW lock with both knobs explicit.
    pub fn with_policy_and_fairness(
        topo: Arc<Topology>,
        spec: PolicySpec,
        fairness: RwFairness,
    ) -> Self {
        let clusters = topo.clusters();
        CohortRwLock {
            writer: CohortLock::with_policy(topo, spec),
            readers: (0..clusters)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            write_active: AtomicBool::new(false),
            write_pending: AtomicU64::new(0),
            fairness,
        }
    }
}

impl<G: ThreadOblivious, L: LocalCohortLock> CohortRwLock<G, L> {
    /// The fairness flavor in effect.
    pub fn fairness(&self) -> RwFairness {
        self.fairness
    }

    /// The topology this lock partitions threads by.
    pub fn topology(&self) -> &Arc<Topology> {
        self.writer.topology()
    }

    /// The writer side's tenure book (policy and counters).
    pub fn policy(&self) -> &Tenures {
        self.writer.policy()
    }

    /// Writer-tenure statistics (tenures, local handoffs, streaks — per
    /// cluster), from the tenure book's cache-padded slots.
    pub fn cohort_stats(&self) -> CohortStats {
        self.writer.cohort_stats()
    }

    /// Snapshot of the per-cluster active-reader counters (diagnostics;
    /// all zeros at quiescence).
    pub fn reader_counts(&self) -> Vec<u64> {
        self.readers
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect()
    }

    /// Whether new readers must hold back right now.
    ///
    /// The `write_active` load must stay SeqCst: it is the reader's half
    /// of the Dekker protocol with the writer's barrier-raise + counter
    /// scan (store-buffer reordering on either side would let a reader
    /// and a writer both enter). The `write_pending` load is Relaxed:
    /// writer preference is *advisory* — a reader that misses a pending
    /// writer merely slips in one more read batch; exclusion rests
    /// solely on the `write_active`/counter pair, and the single-word
    /// RMW counter is eventually visible to the re-checking spin loops.
    #[inline]
    fn readers_blocked(&self) -> bool {
        self.write_active.load(Ordering::SeqCst)
            || (self.fairness == RwFairness::WriterPreference
                && self.write_pending.load(Ordering::Relaxed) > 0)
    }

    /// Spins until every cluster's reader count has drained to zero.
    ///
    /// Called only by the writer holding `self.writer` *after* raising
    /// `write_active`, so no new reader can push a count back up for
    /// good: late readers observe the barrier and retreat. The wait is a
    /// shared [`SpinWait`]: a bounded spin budget, then a scheduler yield
    /// on **every** round — on an oversubscribed host the readers being
    /// drained must actually get the CPU to finish, and the old
    /// yield-every-64th-spin pattern could keep them off it indefinitely.
    fn wait_for_readers(&self) {
        let mut wait = SpinWait::new();
        for slot in self.readers.iter() {
            // SeqCst deliberately: these scans are the writer's half of
            // the Dekker protocol with the reader's announce/re-check.
            // An acquire load could be hoisted above the (program-order
            // earlier) barrier-raising store — the classic store-buffer
            // interleaving — letting a reader and the writer both enter.
            while slot.load(Ordering::SeqCst) != 0 {
                wait.snooze();
            }
        }
    }

    /// Acquires the read side (blocking while a writer is active — or,
    /// under writer preference, pending).
    pub fn lock_read(&self) -> RwReadToken {
        let cluster = current_cluster_in(self.topology());
        let slot = &self.readers[cluster.as_usize()];
        // Uncontended fast path: announce optimistically and re-check
        // once, skipping the pre-announcement writer-gate probe — when
        // the per-cluster counter is uncontended (no writer around),
        // that probe is pure overhead and the announce/re-check pair
        // below is the actual Dekker arbitration. The *post*-increment
        // re-check can never be skipped: a writer may raise the barrier
        // between our increment and its counter scan, and at least one
        // side must observe the other (both sides SeqCst).
        slot.fetch_add(1, Ordering::SeqCst);
        if !self.readers_blocked() {
            return RwReadToken { cluster };
        }
        // Release (was SeqCst): the retreat decrement only needs to
        // publish — the writer's drain scan loads are SeqCst (⊇
        // acquire) and a reader that has not yet entered has nothing to
        // order; the entry Dekker is carried by the fetch_add above.
        slot.fetch_sub(1, Ordering::Release);
        // Contended slow path. Shared spin-then-yield budget across
        // barrier re-checks: once exhausted, every probe yields so the
        // writer being waited out can actually run (and finish) on
        // oversubscribed hosts.
        let mut wait = SpinWait::new();
        loop {
            while self.readers_blocked() {
                wait.snooze();
            }
            // Dekker step 1: announce, *then* re-check the barrier.
            slot.fetch_add(1, Ordering::SeqCst);
            if !self.readers_blocked() {
                return RwReadToken { cluster };
            }
            // A writer got between our two checks: retreat so its drain
            // scan can complete, then wait it out. (Release: as above.)
            slot.fetch_sub(1, Ordering::Release);
        }
    }

    /// Acquires the read side only if no writer stands in the way right
    /// now.
    pub fn try_lock_read(&self) -> Option<RwReadToken> {
        if self.readers_blocked() {
            return None;
        }
        let cluster = current_cluster_in(self.topology());
        let slot = &self.readers[cluster.as_usize()];
        slot.fetch_add(1, Ordering::SeqCst);
        if self.readers_blocked() {
            // Release: retreat decrement, as in `lock_read`.
            slot.fetch_sub(1, Ordering::Release);
            return None;
        }
        Some(RwReadToken { cluster })
    }

    /// Releases a read acquisition.
    ///
    /// # Safety
    ///
    /// `token` must stem from `lock_read`/`try_lock_read` on **this**
    /// lock and be used at most once (a foreign or replayed token
    /// corrupts the reader counts the writer drain relies on).
    pub unsafe fn unlock_read(&self, token: RwReadToken) {
        self.unlock_read_on(token.cluster);
    }

    /// Releases the read acquisition counted on `cluster` — the tokenless
    /// form for adapters that cannot carry the token across calls (the
    /// releasing thread's cluster assignment is sticky, so re-deriving it
    /// via [`current_cluster_in`] yields the acquiring cluster).
    ///
    /// # Safety
    ///
    /// As [`unlock_read`](Self::unlock_read): the caller must currently
    /// hold a read acquisition counted on `cluster`.
    pub unsafe fn unlock_read_on(&self, cluster: ClusterId) {
        // Release (was SeqCst): the exit side is not part of the Dekker
        // protocol — it only has to publish the reader's critical
        // section *before* the drain-scanning writer (whose SeqCst loads
        // include acquire) observes the count at zero. Release provides
        // exactly that edge.
        self.readers[cluster.as_usize()].fetch_sub(1, Ordering::Release);
    }

    /// Acquires the write side: announce (writer preference), take the
    /// writer cohort lock, raise the barrier, drain the readers.
    pub fn lock_write(&self) -> RwWriteToken<L::Token> {
        if self.fairness == RwFairness::WriterPreference {
            // Relaxed (was SeqCst): advisory — see `readers_blocked`.
            self.write_pending.fetch_add(1, Ordering::Relaxed);
        }
        let inner = self.writer.lock();
        // Dekker step 2 (writer side): raise the barrier, then scan.
        self.write_active.store(true, Ordering::SeqCst);
        self.wait_for_readers();
        RwWriteToken { inner }
    }

    /// Acquires the write side only if both the writer lock is free *and*
    /// no reader is active.
    pub fn try_lock_write(&self) -> Option<RwWriteToken<L::Token>> {
        // Announce like lock_write does: unlock_write decrements
        // unconditionally, so a successful try must have incremented too.
        // (Relaxed pending ops: advisory — see `readers_blocked`.)
        let wp = self.fairness == RwFairness::WriterPreference;
        if wp {
            self.write_pending.fetch_add(1, Ordering::Relaxed);
        }
        let inner = match self.writer.try_lock() {
            Some(inner) => inner,
            None => {
                if wp {
                    self.write_pending.fetch_sub(1, Ordering::Relaxed);
                }
                return None;
            }
        };
        self.write_active.store(true, Ordering::SeqCst);
        if self.readers.iter().any(|s| s.load(Ordering::SeqCst) != 0) {
            // Readers in flight: undo. (Any reader that retreated because
            // of our transient barrier simply retries. The lowering
            // store is Release — see `unlock_write`.)
            self.write_active.store(false, Ordering::Release);
            // SAFETY: `inner` is ours, used once, on this thread.
            unsafe { self.writer.unlock(inner) };
            if wp {
                self.write_pending.fetch_sub(1, Ordering::Relaxed);
            }
            return None;
        }
        Some(RwWriteToken { inner })
    }

    /// Releases a write acquisition.
    ///
    /// # Safety
    ///
    /// `token` must stem from `lock_write`/`try_lock_write` on this lock,
    /// used at most once, on the acquiring thread (the underlying local
    /// cohort lock requires same-thread release).
    pub unsafe fn unlock_write(&self, token: RwWriteToken<L::Token>) {
        // Release (was SeqCst): *lowering* the barrier is not part of
        // the Dekker protocol (that protects raising it); it only has to
        // publish the writer's critical section to readers admitted by
        // observing `false` — their SeqCst barrier load includes
        // acquire, so Release/load forms the needed edge.
        self.write_active.store(false, Ordering::Release);
        self.writer.unlock(token.inner);
        if self.fairness == RwFairness::WriterPreference {
            // Relaxed: advisory — see `readers_blocked`.
            self.write_pending.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// RAII read acquisition.
    pub fn read(&self) -> RwReadGuard<'_, G, L> {
        RwReadGuard {
            lock: self,
            token: Some(self.lock_read()),
        }
    }

    /// RAII read acquisition, if immediately admissible.
    pub fn try_read(&self) -> Option<RwReadGuard<'_, G, L>> {
        self.try_lock_read().map(|t| RwReadGuard {
            lock: self,
            token: Some(t),
        })
    }

    /// RAII write acquisition.
    pub fn write(&self) -> RwWriteGuard<'_, G, L> {
        RwWriteGuard {
            lock: self,
            token: Some(self.lock_write()),
        }
    }

    /// RAII write acquisition, if immediately available.
    pub fn try_write(&self) -> Option<RwWriteGuard<'_, G, L>> {
        self.try_lock_write().map(|t| RwWriteGuard {
            lock: self,
            token: Some(t),
        })
    }
}

impl<G: ThreadOblivious, L: LocalCohortLock> std::fmt::Debug for CohortRwLock<G, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CohortRwLock")
            .field("clusters", &self.readers.len())
            .field("fairness", &self.fairness)
            .field("policy", self.writer.policy())
            .finish_non_exhaustive()
    }
}

/// RAII guard of a shared (read) acquisition; released on drop.
pub struct RwReadGuard<'a, G: ThreadOblivious, L: LocalCohortLock> {
    lock: &'a CohortRwLock<G, L>,
    token: Option<RwReadToken>,
}

impl<G: ThreadOblivious, L: LocalCohortLock> Drop for RwReadGuard<'_, G, L> {
    fn drop(&mut self) {
        if let Some(t) = self.token.take() {
            // SAFETY: the token came from this lock's acquire path and is
            // consumed exactly once here.
            unsafe { self.lock.unlock_read(t) };
        }
    }
}

/// RAII guard of an exclusive (write) acquisition; released on drop.
pub struct RwWriteGuard<'a, G: ThreadOblivious, L: LocalCohortLock> {
    lock: &'a CohortRwLock<G, L>,
    token: Option<RwWriteToken<L::Token>>,
}

impl<G: ThreadOblivious, L: LocalCohortLock> Drop for RwWriteGuard<'_, G, L> {
    fn drop(&mut self) {
        if let Some(t) = self.token.take() {
            // SAFETY: token from this lock, used once, on the acquiring
            // thread (guards are !Send because L::Token is not Send).
            unsafe { self.lock.unlock_write(t) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_mcs::LocalMcsLock;
    use crate::GlobalBoLock;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    type Rw = CohortRwLock<GlobalBoLock, LocalMcsLock>;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::new(4))
    }

    /// Readers verify no writer is active; writers verify they are alone.
    fn stress(rw: Arc<Rw>, threads: usize, iters: u64, read_mod: u64) -> (u64, u64) {
        let writers_in = Arc::new(AtomicU64::new(0));
        let readers_in = Arc::new(AtomicU64::new(0));
        let violations = Arc::new(AtomicU64::new(0));
        let write_ops = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let rw = Arc::clone(&rw);
                let writers_in = Arc::clone(&writers_in);
                let readers_in = Arc::clone(&readers_in);
                let violations = Arc::clone(&violations);
                let write_ops = Arc::clone(&write_ops);
                std::thread::spawn(move || {
                    for n in 0..iters {
                        // read_mod 0 = reads only; otherwise every
                        // read_mod-th slot is a write.
                        if read_mod == 0 || !(n + i as u64).is_multiple_of(read_mod) {
                            let t = rw.lock_read();
                            readers_in.fetch_add(1, Ordering::SeqCst);
                            if writers_in.load(Ordering::SeqCst) != 0 {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                            std::hint::spin_loop();
                            readers_in.fetch_sub(1, Ordering::SeqCst);
                            unsafe { rw.unlock_read(t) };
                        } else {
                            let t = rw.lock_write();
                            if writers_in.fetch_add(1, Ordering::SeqCst) != 0
                                || readers_in.load(Ordering::SeqCst) != 0
                            {
                                violations.fetch_add(1, Ordering::SeqCst);
                            }
                            std::hint::spin_loop();
                            writers_in.fetch_sub(1, Ordering::SeqCst);
                            write_ops.fetch_add(1, Ordering::SeqCst);
                            unsafe { rw.unlock_write(t) };
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        (
            violations.load(Ordering::SeqCst),
            write_ops.load(Ordering::SeqCst),
        )
    }

    #[test]
    fn writer_preference_exclusion_holds() {
        let rw = Arc::new(Rw::new(topo()));
        let (violations, writes) = stress(Arc::clone(&rw), 4, 800, 4);
        assert_eq!(violations, 0);
        assert!(writes > 0);
        assert!(rw.reader_counts().iter().all(|&c| c == 0), "counts drain");
        let s = rw.cohort_stats();
        assert_eq!(s.tenures() + s.local_handoffs(), writes);
    }

    #[test]
    fn neutral_exclusion_holds() {
        let rw = Arc::new(Rw::with_fairness(topo(), RwFairness::Neutral));
        let (violations, writes) = stress(Arc::clone(&rw), 4, 800, 3);
        assert_eq!(violations, 0);
        assert!(writes > 0);
        assert!(rw.reader_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn read_only_load_never_blocks() {
        let rw = Arc::new(Rw::new(topo()));
        let (violations, writes) = stress(Arc::clone(&rw), 4, 500, 0);
        assert_eq!(violations, 0);
        assert_eq!(writes, 0);
        assert_eq!(rw.cohort_stats().tenures(), 0, "no writer ever entered");
    }

    #[test]
    fn write_only_load_behaves_like_cohort_lock() {
        let rw = Arc::new(Rw::new(topo()));
        let (violations, writes) = stress(Arc::clone(&rw), 4, 500, 1);
        assert_eq!(violations, 0);
        assert_eq!(writes, 4 * 500);
        assert!(rw.cohort_stats().max_streak() <= PolicySpec::PAPER_BOUND);
    }

    #[test]
    fn policy_bounds_writer_streak() {
        let rw = Arc::new(Rw::with_policy(topo(), PolicySpec::Count { bound: 3 }));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rw = Arc::clone(&rw);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let t = rw.lock_write();
                        unsafe { rw.unlock_write(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            rw.cohort_stats().max_streak() <= 3,
            "streak {} exceeds bound",
            rw.cohort_stats().max_streak()
        );
    }

    #[test]
    fn try_paths_respect_holders() {
        let rw = Rw::new(topo());
        let r = rw.lock_read();
        assert!(rw.try_lock_read().is_some_and(|t| {
            unsafe { rw.unlock_read(t) };
            true
        }));
        assert!(rw.try_lock_write().is_none(), "reader blocks try_write");
        unsafe { rw.unlock_read(r) };

        let w = rw.lock_write();
        assert!(rw.try_lock_read().is_none(), "writer blocks try_read");
        assert!(rw.try_lock_write().is_none(), "writer blocks try_write");
        unsafe { rw.unlock_write(w) };

        let t = rw.try_lock_write().expect("free again");
        unsafe { rw.unlock_write(t) };
        assert!(rw.reader_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn try_write_roundtrip_leaves_readers_admissible() {
        // Regression: under writer preference, a successful try_lock_write
        // must balance the write_pending counter its release decrements —
        // otherwise the counter underflows and readers block forever.
        let rw = Rw::new(topo());
        for _ in 0..3 {
            let t = rw.try_lock_write().expect("uncontended");
            unsafe { rw.unlock_write(t) };
        }
        let r = rw
            .try_lock_read()
            .expect("readers admissible after try_write");
        unsafe { rw.unlock_read(r) };
        let r = rw.lock_read(); // must not spin forever
        unsafe { rw.unlock_read(r) };

        // The failed-try paths must balance the counter too.
        let held = rw.lock_write();
        assert!(rw.try_lock_write().is_none(), "writer-held try fails");
        unsafe { rw.unlock_write(held) };
        let held = rw.lock_read();
        assert!(rw.try_lock_write().is_none(), "reader-held try fails");
        unsafe { rw.unlock_read(held) };
        let r = rw.try_lock_read().expect("still admissible");
        unsafe { rw.unlock_read(r) };
    }

    #[test]
    fn guards_release_on_drop() {
        let rw = Rw::new(topo());
        {
            let _r1 = rw.read();
            let _r2 = rw.read();
            assert!(rw.try_write().is_none());
        }
        {
            let _w = rw.write();
            assert!(rw.try_read().is_none());
        }
        // Both sides free again.
        drop(rw.write());
        drop(rw.read());
        assert!(rw.reader_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn tokenless_release_matches_cluster() {
        let rw = Rw::new(topo());
        let t = rw.lock_read();
        let cluster = t.cluster();
        // Discard the token (plain data, no Drop): the acquisition stays
        // counted until the tokenless release below.
        let _ = t;
        assert_eq!(cluster, current_cluster_in(rw.topology()));
        assert_eq!(rw.reader_counts()[cluster.as_usize()], 1);
        // SAFETY: releasing the acquisition discarded above.
        unsafe { rw.unlock_read_on(cluster) };
        assert!(rw.reader_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn oversubscribed_drain_cannot_livelock() {
        // Regression for the spin-loop escalation: run far more threads
        // than the host has CPUs, under writer preference and a frequent
        // write mix, so writer drains constantly wait on readers that
        // need the CPU (and vice versa). With the old
        // yield-every-64th-spin loops this configuration could stall
        // nearly indefinitely on a small host; with the shared SpinWait
        // every waiter cedes the CPU once its budget is spent and the run
        // must complete promptly.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (4 * cpus).clamp(8, 32);
        let rw = Arc::new(Rw::new(topo()));
        let (violations, writes) = stress(Arc::clone(&rw), threads, 300, 2);
        assert_eq!(violations, 0);
        assert!(writes > 0);
        assert!(rw.reader_counts().iter().all(|&c| c == 0), "counts drain");
    }

    #[test]
    fn single_cluster_topology_works() {
        let rw = Arc::new(CohortRwLock::<GlobalBoLock, LocalMcsLock>::new(Arc::new(
            Topology::new(1),
        )));
        let (violations, writes) = stress(rw, 4, 400, 2);
        assert_eq!(violations, 0);
        assert!(writes > 0);
    }

    #[test]
    fn debug_formats() {
        let rw = Rw::with_fairness(topo(), RwFairness::Neutral);
        let s = format!("{rw:?}");
        assert!(s.contains("Neutral"), "{s}");
    }
}
