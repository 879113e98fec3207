//! The **GCR admission layer**: Generic Concurrency Restriction over any
//! inner lock, after *Avoiding Scalability Collapse by Restricting
//! Concurrency* (Dice & Kogan, arXiv:1905.10818).
//!
//! Every other lock in this repository lets *all* arriving threads
//! compete. Once threads outnumber cores that is exactly wrong: each
//! competing waiter costs scheduler churn and lock-word traffic, and a
//! queue lock hands the lock to successors that may not even be running.
//! [`GcrLock<K>`] wraps any [`RawLock`] `K` and lets only a few threads
//! compete for it at once. The protocol:
//!
//! * **entry** — one cache-padded `active` count (threads admitted and
//!   not yet released) gates the inner lock. An arrival from cluster `c`
//!   enters when `active == 0`, or when `active <` [`ACTIVE_CAP`] and `c`
//!   is the `preferred` cluster. Concentrating the active set on one
//!   cluster is GCR-NUMA: an inner cohort lock then finds same-cluster
//!   waiters to hand over to.
//! * **passive queues** — every other arrival joins its cluster's passive
//!   queue, a plain [`McsLock`]. The queue's holder is the *head*: it
//!   alone watches the entry rule, spinning with [`SpinWait`], and on
//!   admission releases the queue, which makes its successor the head.
//!   The other passive threads wait on their own MCS node.
//! * **rotation** — every [`ROTATE_EVERY`]-th counted release, still under
//!   the inner lock, moves `preferred` to the next cluster with a waiting
//!   head and promotes that head past the cap. That is the long-term
//!   fairness step: a head waits at most one round of rotations. The lock
//!   reads no clock.
//!
//! Mutual exclusion is carried **entirely by the inner lock**; the
//! admission layer only decides when a thread may call into it. That is
//! what makes the wrapper generic: `GcrLock<McsLock>` restricts a plain
//! queue lock, `GcrLock<CBoMcs>` a cohort lock, `GcrLock<FisBoMcs>` a
//! fissile lock (aliases [`GcrMcs`](crate::GcrMcs),
//! [`GcrCBoMcs`](crate::GcrCBoMcs), [`GcrFisBoMcs`](crate::GcrFisBoMcs)).
//! A release needs only its token, so any thread may perform it.
//!
//! Park/promotion accounting is surfaced through the ordinary
//! [`CohortStats`] snapshot (`passive_parks` / `promotions`); the inner
//! lock's own counters pass through via [`Introspect`].

use crate::policy::{CohortStats, Introspect};
use base_locks::{McsLock, RawLock, SpinWait, Wait};
use crossbeam_utils::CachePadded;
use numa_topology::{current_cluster_in, Topology};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Threads of the preferred cluster admitted at once (the holder
/// included). Two keeps one waiter queued behind the holder on the inner
/// lock, so a handover never waits for an arrival.
pub const ACTIVE_CAP: u32 = 2;

/// Counted releases between two rotations of the preferred cluster.
pub const ROTATE_EVERY: u64 = 256;

/// One cluster's passive side.
struct Passive {
    /// Arrivals the entry rule turned away; the holder is the head.
    queue: McsLock,
    /// Set by a rotation: the head enters past the cap. Relaxed, like
    /// every admission atomic: none publishes data to its reader.
    promoted: CachePadded<AtomicBool>,
}

/// Per-acquisition token of a [`GcrLock`]: the inner lock's token, and
/// whether the acquisition went through admission (a `try_lock` did not,
/// so its release neither counts toward rotation nor leaves `active`).
pub struct GcrToken<T> {
    inner: T,
    counted: bool,
}

/// Generic Concurrency Restriction over any inner [`RawLock`], after
/// Dice & Kogan (arXiv:1905.10818). See the module docs for the
/// protocol: one active count, per-cluster MCS passive queues, rotation
/// of the preferred cluster by release count.
///
/// Ready-made compositions: [`GcrMcs`](crate::GcrMcs) (over a plain MCS
/// queue), [`GcrCBoMcs`](crate::GcrCBoMcs) (over the paper's best cohort
/// lock), [`GcrFisBoMcs`](crate::GcrFisBoMcs) (over the fissile
/// fast-path lock).
///
/// ```
/// use cohort::gcr::GcrLock;
/// use base_locks::{McsLock, RawLock};
/// use numa_topology::Topology;
/// use std::sync::Arc;
///
/// let lock = GcrLock::over(Arc::new(Topology::new(4)), McsLock::new());
/// let t = lock.lock();                    // uncontended: admitted at once
/// assert_eq!(lock.active(), 1);
/// assert!(lock.try_lock().is_none(), "held: mutual exclusion is the inner lock's");
/// // SAFETY: token from this lock's own `lock()`.
/// unsafe { lock.unlock(t) };
/// assert_eq!(lock.active(), 0);
/// assert_eq!(lock.passive_parks(), 0);
/// ```
pub struct GcrLock<K> {
    /// The wrapped lock — the sole exclusion point.
    inner: K,
    topo: Arc<Topology>,
    /// Admitted threads that have not released yet.
    active: CachePadded<AtomicU32>,
    /// The cluster whose arrivals may fill the active set to the cap.
    preferred: CachePadded<AtomicUsize>,
    /// Counted releases; read and written only under the inner lock.
    releases: CachePadded<AtomicU64>,
    /// One passive queue per cluster.
    passive: Box<[Passive]>,
    /// Arrivals sent to a passive queue (relaxed: statistics only).
    parks: CachePadded<AtomicU64>,
    /// Heads a rotation admitted past the cap (relaxed: statistics only).
    promotions: CachePadded<AtomicU64>,
}

impl<K: RawLock> GcrLock<K> {
    /// Wraps `inner` with the admission layer, one passive queue per
    /// cluster of `topo`.
    pub fn over(topo: Arc<Topology>, inner: K) -> Self {
        let passive = (0..topo.clusters())
            .map(|_| Passive {
                queue: McsLock::new(),
                promoted: CachePadded::new(AtomicBool::new(false)),
            })
            .collect();
        GcrLock {
            inner,
            topo,
            active: CachePadded::new(AtomicU32::new(0)),
            preferred: CachePadded::new(AtomicUsize::new(0)),
            releases: CachePadded::new(AtomicU64::new(0)),
            passive,
            parks: CachePadded::new(AtomicU64::new(0)),
            promotions: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Arrivals sent to a passive queue so far.
    pub fn passive_parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Heads a rotation admitted past the cap so far.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Admitted threads that have not released yet (racy snapshot; once
    /// every acquisition has been released it is 0).
    pub fn active(&self) -> u32 {
        self.active.load(Ordering::Relaxed)
    }

    /// The entry rule: joins the active set if it is empty, or if it has
    /// room and `cluster` is the preferred one. Relaxed: the count only
    /// throttles, exclusion is the inner lock's.
    fn try_enter(&self, cluster: usize) -> bool {
        let mut cur = self.active.load(Ordering::Relaxed);
        while cur == 0 || (cur < ACTIVE_CAP && self.preferred.load(Ordering::Relaxed) == cluster) {
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }

    /// The passive path: queue behind `cluster`'s head, then, as head,
    /// wait for the entry rule or a promotion.
    fn wait_passive(&self, cluster: usize) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        let p = &self.passive[cluster];
        let head = p.queue.lock();
        let mut wait = SpinWait::new();
        loop {
            if p.promoted.load(Ordering::Relaxed) && p.promoted.swap(false, Ordering::Relaxed) {
                self.active.fetch_add(1, Ordering::Relaxed);
                self.promotions.fetch_add(1, Ordering::Relaxed);
                break;
            }
            if self.try_enter(cluster) {
                break;
            }
            wait.snooze();
        }
        // SAFETY: the token of the `lock()` above, released once.
        unsafe { p.queue.unlock(head) };
    }

    /// Rotation, run under the inner lock (so the plain load and store
    /// of `preferred` cannot race another rotation): the next cluster
    /// with a waiting head becomes preferred, and its head is promoted.
    fn rotate(&self) {
        let n = self.passive.len();
        let from = self.preferred.load(Ordering::Relaxed);
        let next = (1..=n)
            .map(|d| (from + d) % n)
            .find(|&c| self.passive[c].queue.has_waiters_or_holder());
        if let Some(c) = next {
            self.preferred.store(c, Ordering::Relaxed);
            self.passive[c].promoted.store(true, Ordering::Relaxed);
        }
    }
}

impl<K: RawLock + Introspect> GcrLock<K> {
    /// The inner lock's statistics snapshot (empty for a plain inner
    /// lock) with the admission layer's park/promotion counters folded
    /// in.
    pub fn cohort_stats(&self) -> CohortStats {
        let mut stats = self.inner.tenure_stats().unwrap_or_default();
        stats.passive_parks = self.passive_parks();
        stats.promotions = self.promotions();
        stats
    }
}

/// The wrapper always has counters of its own to report, and labels a
/// policy-less inner lock `"-"`.
impl<K: RawLock + Introspect> Introspect for GcrLock<K> {
    fn tenure_stats(&self) -> Option<CohortStats> {
        Some(self.cohort_stats())
    }

    fn policy_label(&self) -> Option<String> {
        Some(self.inner.policy_label().unwrap_or_else(|| "-".into()))
    }
}

// SAFETY: mutual exclusion is the inner lock's — every token wraps a
// token from `inner.lock()`/`inner.try_lock()`, and `unlock` forwards it
// to `inner.unlock` exactly once. The admission layer only decides
// *when* a thread calls into the inner lock. Liveness: a waiting thread
// is either an MCS waiter behind its cluster's head (served when the
// head leaves, by MCS) or a head. A head waits only while `active > 0`;
// each admitted thread takes the inner lock (deadlock-free by its own
// contract) and releases, so counted releases keep happening; every
// `ROTATE_EVERY` of them a rotation promotes the next waiting head in
// cluster order, so each head is admitted within one round of
// rotations; and the moment `active` reaches 0 every head may enter.
unsafe impl<K: RawLock> RawLock for GcrLock<K> {
    type Token = GcrToken<K::Token>;

    fn lock(&self) -> Self::Token {
        let cluster = current_cluster_in(&self.topo).as_usize();
        if !self.try_enter(cluster) {
            self.wait_passive(cluster);
        }
        GcrToken {
            inner: self.inner.lock(),
            counted: true,
        }
    }

    fn try_lock(&self) -> Option<Self::Token> {
        // A try is never worth queueing for: probe the inner lock
        // directly (exactness is the inner lock's).
        self.inner.try_lock().map(|inner| GcrToken {
            inner,
            counted: false,
        })
    }

    unsafe fn unlock(&self, token: Self::Token) {
        if token.counted {
            // Still under the inner lock: the count is ours alone.
            let n = self.releases.load(Ordering::Relaxed) + 1;
            self.releases.store(n, Ordering::Relaxed);
            if n.is_multiple_of(ROTATE_EVERY) {
                self.rotate();
            }
        }
        // SAFETY: forwarded from this lock's own lock()/try_lock().
        unsafe { self.inner.unlock(token.inner) };
        if token.counted {
            self.active.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl<K> std::fmt::Debug for GcrLock<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcrLock")
            .field("active", &self.active.load(Ordering::Relaxed))
            .field("preferred", &self.preferred.load(Ordering::Relaxed))
            .field("passive_parks", &self.parks.load(Ordering::Relaxed))
            .field("promotions", &self.promotions.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;
    use crate::{CBoMcs, FisBoMcs};
    use numa_topology::{bind_current_thread, ClusterId};
    use std::sync::mpsc;
    use std::sync::Barrier;
    use std::time::Duration;

    type Gcr = GcrLock<McsLock>;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::new(4))
    }

    /// Runs `body(i)` on `n` threads and joins them once all report done
    /// within 60 s; a stall (or a panicking worker) panics with the
    /// lock's state instead of timing the suite out.
    fn run_workers<F>(n: usize, lock: &Arc<Gcr>, body: F)
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let body = Arc::new(body);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (tx, body) = (tx.clone(), Arc::clone(&body));
                std::thread::spawn(move || {
                    body(i);
                    let _ = tx.send(());
                })
            })
            .collect();
        drop(tx);
        for _ in 0..n {
            if let Err(e) = rx.recv_timeout(Duration::from_secs(60)) {
                panic!("GCR workers did not finish ({e}): {lock:?}");
            }
        }
        for h in handles {
            h.join().expect("worker reported done");
        }
    }

    #[test]
    fn uncontended_stays_disengaged() {
        // Uncontended never parks, and `active()` returns to 0.
        let l = Gcr::over(topo(), McsLock::new());
        for _ in 0..100 {
            let t = l.lock();
            assert_eq!(l.active(), 1);
            unsafe { l.unlock(t) };
            assert_eq!(l.active(), 0);
        }
        assert_eq!(l.passive_parks(), 0);
        assert_eq!(l.promotions(), 0);
        let s = l.cohort_stats();
        assert_eq!(s.passive_parks, 0);
        assert_eq!(s.promotions, 0);
    }

    #[test]
    fn try_lock_probes_the_inner_lock_exactly() {
        let l = Gcr::over(topo(), McsLock::new());
        let t = l.try_lock().expect("free");
        assert!(l.try_lock().is_none(), "held inner lock reports busy");
        assert_eq!(l.active(), 0, "a try is not admitted");
        unsafe { l.unlock(t) };
        let t = l.try_lock().expect("free again");
        unsafe { l.unlock(t) };
        assert_eq!(l.active(), 0);
    }

    #[test]
    fn surplus_arrivals_park_and_all_complete() {
        // One cluster, two more threads than the cap: some arrivals must
        // queue passively, and the run completing at the right count is
        // the no-lost-waiter evidence.
        let threads = ACTIVE_CAP as usize + 2;
        let l = Arc::new(Gcr::over(Arc::new(Topology::new(1)), McsLock::new()));
        let count = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(threads));
        let (lw, cw) = (Arc::clone(&l), Arc::clone(&count));
        run_workers(threads, &l, move |_| {
            barrier.wait();
            for _ in 0..300 {
                let t = lw.lock();
                cw.fetch_add(1, Ordering::Relaxed);
                std::thread::yield_now();
                unsafe { lw.unlock(t) };
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 300 * threads as u64);
        assert!(l.passive_parks() > 0, "the cap must have parked someone");
        assert_eq!(l.active(), 0, "every admission was released");
    }

    #[test]
    fn rotation_promotes_parked_threads() {
        // Release-count rotation: with more threads than the cap on one
        // cluster, every ROTATE_EVERY-th release promotes a waiting head,
        // so promotions accrue without any clock.
        let threads = ACTIVE_CAP as usize + 2;
        let l = Arc::new(Gcr::over(Arc::new(Topology::new(1)), McsLock::new()));
        let barrier = Arc::new(Barrier::new(threads));
        let lw = Arc::clone(&l);
        run_workers(threads, &l, move |_| {
            barrier.wait();
            for _ in 0..50 * ROTATE_EVERY {
                if lw.promotions() >= 3 {
                    break;
                }
                let t = lw.lock();
                // Deschedule while holding so arrivals actually collide.
                std::thread::yield_now();
                unsafe { lw.unlock(t) };
            }
        });
        assert!(l.promotions() >= 3, "rotation stopped promoting: {l:?}");
        assert!(l.promotions() <= l.passive_parks(), "{l:?}");
        let s = l.cohort_stats();
        assert_eq!(s.promotions, l.promotions());
        assert_eq!(s.passive_parks, l.passive_parks());
        assert_eq!(l.active(), 0);
    }

    #[test]
    fn off_thread_release_admits_a_parked_waiter() {
        // A locks, B unlocks A's token while C waits passively: the
        // token alone carries the release, so C gets in and the active
        // count drains.
        let topo = Arc::new(Topology::new(2));
        let l = Arc::new(Gcr::over(Arc::clone(&topo), McsLock::new()));
        let t = l.lock();
        assert_eq!(l.active(), 1);
        let (lc, tc) = (Arc::clone(&l), Arc::clone(&topo));
        let (tx, rx) = mpsc::channel();
        let c = std::thread::spawn(move || {
            // Cluster 1 is not preferred and the set is busy: C parks.
            bind_current_thread(&tc, ClusterId::new(1));
            let t = lc.lock();
            unsafe { lc.unlock(t) };
            let _ = tx.send(());
        });
        while l.passive_parks() == 0 {
            std::thread::yield_now();
        }
        let lb = Arc::clone(&l);
        std::thread::spawn(move || unsafe { lb.unlock(t) })
            .join()
            .unwrap();
        if let Err(e) = rx.recv_timeout(Duration::from_secs(60)) {
            panic!("parked waiter never admitted ({e}): {l:?}");
        }
        c.join().unwrap();
        assert_eq!(l.active(), 0, "{l:?}");
        assert_eq!(l.passive_parks(), 1);
    }

    #[test]
    fn mutual_exclusion_through_the_wrapper() {
        let l = Arc::new(Gcr::over(topo(), McsLock::new()));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let (lw, aw, bw) = (Arc::clone(&l), Arc::clone(&a), Arc::clone(&b));
        run_workers(4, &l, move |_| {
            for _ in 0..1_000 {
                let t = lw.lock();
                let va = aw.load(Ordering::Relaxed);
                let vb = bw.load(Ordering::Relaxed);
                assert_eq!(va, vb, "mutual exclusion violated");
                aw.store(va + 1, Ordering::Relaxed);
                std::hint::spin_loop();
                bw.store(vb + 1, Ordering::Relaxed);
                unsafe { lw.unlock(t) };
            }
        });
        assert_eq!(a.load(Ordering::Relaxed), 4_000);
        assert_eq!(l.active(), 0);
    }

    #[test]
    fn stats_pass_through_cohort_and_fissile_inners() {
        let topo = topo();
        let l = GcrLock::over(Arc::clone(&topo), CBoMcs::new(Arc::clone(&topo)));
        let t = l.lock();
        unsafe { l.unlock(t) };
        let s = l.cohort_stats();
        assert_eq!(s.tenures(), 1, "inner cohort counters pass through");
        assert_eq!(l.policy_label().as_deref(), Some("count(64)"));

        let l = GcrLock::over(Arc::clone(&topo), FisBoMcs::new(Arc::clone(&topo)));
        let t = l.lock();
        unsafe { l.unlock(t) };
        let s = l.cohort_stats();
        assert_eq!(s.fast_acquisitions, 1, "inner fissile split passes through");
    }

    #[test]
    fn policy_label_of_dyn_policy_inner() {
        let topo = topo();
        let inner = CBoMcs::with_policy(Arc::clone(&topo), PolicySpec::Count { bound: 3 });
        let l = GcrLock::over(Arc::clone(&topo), inner);
        assert_eq!(Introspect::policy_label(&l).as_deref(), Some("count(3)"));
        // The one answer for a policy-less inner lock, concrete type or not.
        let l = Gcr::over(topo, McsLock::new());
        assert_eq!(Introspect::policy_label(&l).as_deref(), Some("-"));
        assert_eq!(l.policy_label().as_deref(), Some("-"));
    }

    #[test]
    fn debug_formats() {
        let l = Gcr::over(topo(), McsLock::new());
        let s = format!("{l:?}");
        for field in [
            "GcrLock",
            "active",
            "preferred",
            "passive_parks",
            "promotions",
        ] {
            assert!(s.contains(field), "{s}");
        }
    }
}
