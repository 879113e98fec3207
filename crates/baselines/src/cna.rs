//! The Compact NUMA-Aware (CNA) lock (Dice & Kogan, EuroSys 2019).
//!
//! CNA is the strongest *single-word* competitor to lock cohorting: where
//! a cohort lock layers a local lock per cluster under one global lock,
//! CNA keeps the plain MCS shape — one tail word, one queue node per
//! waiter — and achieves the same intra-cluster handoff batching in its
//! **release path**:
//!
//! 1. the releaser scans a bounded prefix of the main queue for a waiter
//!    on its own cluster;
//! 2. waiters from *other* clusters skipped by that scan are spliced onto
//!    a **secondary queue** that travels with the lock (the current
//!    holder's node points at it);
//! 3. if a same-cluster waiter was found, the lock is handed to it
//!    locally, with the secondary queue passed along;
//! 4. once a fairness threshold of consecutive local handoffs is reached
//!    — or no local waiter exists — the secondary queue is spliced back
//!    in front of the remaining main queue and the lock moves on.
//!
//! Dice & Kogan flip a pseudo-random coin (≈1/256) to end a local streak;
//! this implementation instead drives the decision through the same
//! [`PolicySpec`] / [`Tenures`] pair as [`cohort::CohortLock`] — so a
//! `CnaLock` with threshold 64 is knob-for-knob comparable to the
//! paper's cohort locks, and every policy family (count, time, adaptive,
//! unbounded, never-pass) applies unchanged. "Tenure" maps to a maximal
//! run of deliberate local handoffs: a streak ends when the secondary
//! queue is re-spliced, the queue drains, or no local successor is found.
//!
//! Like the cohort locks, `Unbounded` is deeply unfair here: a sustained
//! local stream can starve the secondary queue indefinitely. Every
//! bounded policy re-splices it after finitely many local handoffs.

use base_locks::{pool, RawLock, SpinWait};
use cohort::{CohortStats, Introspect, PolicySpec, Tenures};
use crossbeam_utils::CachePadded;
use numa_topology::{current_cluster_in, ClusterId, Topology};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// `spin` value of a waiter still spinning.
const SPIN_WAIT: usize = 0;
/// `spin` value of a holder with an **empty** secondary queue. Any other
/// value is the (aligned, hence never 0 or 1) pointer to the secondary
/// queue's head node.
const SPIN_GRANTED: usize = 1;

/// One CNA queue entry. Pool-owned; never on a thread's stack.
#[derive(Debug)]
pub struct CnaNode {
    next: AtomicPtr<CnaNode>,
    /// [`SPIN_WAIT`] while queued; [`SPIN_GRANTED`] or a secondary-queue
    /// head pointer once the lock is granted. The grant store (`Release`)
    /// publishes `streak` and the secondary-queue fields to the new
    /// holder's `Acquire` load.
    spin: AtomicUsize,
    /// NUMA cluster of the enqueuing thread, written before the node is
    /// published via the tail swap.
    cluster: AtomicU32,
    /// Tail of the secondary queue; meaningful only while this node is a
    /// secondary-queue head.
    sec_tail: AtomicPtr<CnaNode>,
    /// Consecutive deliberate local handoffs inherited with the grant
    /// (0 on a fresh tenure).
    streak: AtomicU64,
}

impl CnaNode {
    fn new() -> Self {
        CnaNode {
            next: AtomicPtr::new(ptr::null_mut()),
            spin: AtomicUsize::new(SPIN_WAIT),
            cluster: AtomicU32::new(0),
            sec_tail: AtomicPtr::new(ptr::null_mut()),
            streak: AtomicU64::new(0),
        }
    }
}

base_locks::pooled_node!(CnaNode, CnaNode::new);

/// Acquisition token of a [`CnaLock`]: the queue node enqueued by `lock`.
///
/// `Send` because the release path consults only node state (the
/// acquirer's cluster travels in the node), making the lock
/// thread-oblivious like the global locks of the cohort family.
#[derive(Debug)]
pub struct CnaToken(NonNull<CnaNode>);

// SAFETY: the node is pool-owned and only manipulated through atomics;
// the token is a unique capability to release it.
unsafe impl Send for CnaToken {}

/// The Compact NUMA-Aware lock: an MCS-shaped queue lock whose release
/// path splices remote-cluster waiters onto a secondary queue so the lock
/// stays inside one cluster for up to a policy-bounded streak of handoffs.
///
/// A [`PolicySpec`] decides when a local streak must end, exactly as it
/// bounds cohort tenures — the default is the paper-comparable
/// `Count { bound: 64 }`.
///
/// ```
/// use numa_baselines::CnaLock;
/// use base_locks::RawLock;
/// use cohort::PolicySpec;
/// use numa_topology::Topology;
/// use std::sync::Arc;
///
/// let lock = CnaLock::with_threshold(Arc::new(Topology::new(4)), 8);
/// let t = lock.lock();
/// assert!(lock.try_lock().is_none(), "held: mutual exclusion");
/// // SAFETY: token from this lock's own `lock()`.
/// unsafe { lock.unlock(t) };
/// assert_eq!(lock.cohort_stats().tenures(), 1);
/// assert_eq!(lock.policy().spec(), PolicySpec::Count { bound: 8 });
/// ```
pub struct CnaLock {
    tail: CachePadded<AtomicPtr<CnaNode>>,
    topo: Arc<Topology>,
    policy: Tenures,
    /// How many main-queue waiters a release may inspect while looking
    /// for a same-cluster successor (bounds release latency; waiters past
    /// the prefix are simply not spliced this round).
    scan_limit: usize,
}

impl CnaLock {
    /// The scan-prefix bound used unless overridden — generous enough to
    /// cover the paper's 256-thread queues while keeping the release path
    /// O(1) in pathological queue lengths.
    pub const DEFAULT_SCAN_LIMIT: usize = 256;

    /// A CNA lock over `topo` with the paper-comparable fairness
    /// threshold ([`PolicySpec::PAPER_BOUND`] consecutive local handoffs).
    pub fn new(topo: Arc<Topology>) -> Self {
        Self::with_policy(topo, PolicySpec::paper_default())
    }

    /// A CNA lock allowing up to `threshold` consecutive local handoffs
    /// before the secondary queue is re-spliced.
    pub fn with_threshold(topo: Arc<Topology>, threshold: u64) -> Self {
        Self::with_policy(topo, PolicySpec::Count { bound: threshold })
    }

    /// A CNA lock whose local-streak decisions are driven by an explicit
    /// handoff policy (the same value bounding cohort-lock tenures).
    pub fn with_policy(topo: Arc<Topology>, spec: PolicySpec) -> Self {
        let policy = Tenures::new(spec, topo.clusters());
        CnaLock {
            tail: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            topo,
            policy,
            scan_limit: CnaLock::DEFAULT_SCAN_LIMIT,
        }
    }

    /// Overrides the bounded main-queue scan prefix (≥ 1).
    pub fn with_scan_limit(mut self, scan_limit: usize) -> Self {
        assert!(
            scan_limit >= 1,
            "scan limit must admit the direct successor"
        );
        self.scan_limit = scan_limit;
        self
    }

    /// The configured scan-prefix bound.
    pub fn scan_limit(&self) -> usize {
        self.scan_limit
    }

    /// The topology threads are tagged by.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The tenure book bounding local-handoff streaks.
    pub fn policy(&self) -> &Tenures {
        &self.policy
    }

    /// Streak statistics from the tenure book's per-cluster slots, in the
    /// cohort vocabulary: a *tenure* is a maximal run of deliberate local
    /// handoffs, a *local handoff* one same-cluster pass within it.
    pub fn cohort_stats(&self) -> CohortStats {
        self.policy.snapshot()
    }

    /// True if held or contended (racy snapshot; for monitoring only).
    pub fn has_waiters_or_holder(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
    }

    /// Scans up to `scan_limit` main-queue waiters starting at `next`
    /// (the releaser's non-null successor) for one on `cluster`. On a hit,
    /// the skipped remote prefix is appended to the secondary queue
    /// (`sec`, updated in place) and the local waiter returned; on a miss
    /// nothing is changed.
    ///
    /// # Safety
    ///
    /// Caller must hold the lock via the node preceding `next`.
    unsafe fn find_local_successor(
        &self,
        cluster: u32,
        next: *mut CnaNode,
        sec: &mut usize,
    ) -> Option<*mut CnaNode> {
        if (*next).cluster.load(Ordering::Relaxed) == cluster {
            return Some(next);
        }
        // Walk the queue, remembering the skipped remote run [next..=prev].
        let mut prev = next;
        let mut cur = (*next).next.load(Ordering::Acquire);
        let mut scanned = 1usize;
        while !cur.is_null() && scanned < self.scan_limit {
            if (*cur).cluster.load(Ordering::Relaxed) == cluster {
                // Commit: detach the remote prefix from the main queue and
                // append it to the secondary queue. `prev` is interior
                // (cur follows it), so no enqueuer writes its `next` again.
                (*prev).next.store(ptr::null_mut(), Ordering::Relaxed);
                if *sec == SPIN_GRANTED {
                    (*next).sec_tail.store(prev, Ordering::Relaxed);
                    *sec = next as usize;
                } else {
                    let head = *sec as *mut CnaNode;
                    let old_tail = (*head).sec_tail.load(Ordering::Relaxed);
                    (*old_tail).next.store(next, Ordering::Relaxed);
                    (*head).sec_tail.store(prev, Ordering::Relaxed);
                }
                return Some(cur);
            }
            prev = cur;
            cur = (*cur).next.load(Ordering::Acquire);
            scanned += 1;
        }
        None
    }

    /// Grants the lock to `succ` with secondary-queue state `sec` and an
    /// inherited `streak`.
    ///
    /// # Safety
    ///
    /// Caller must hold the lock and `succ` must be a queued waiter.
    unsafe fn grant(&self, succ: *mut CnaNode, sec: usize, streak: u64) {
        (*succ).streak.store(streak, Ordering::Relaxed);
        (*succ).spin.store(sec, Ordering::Release);
    }
}

// CNA drives its local-handoff threshold through the cohort policy layer,
// so it reports the same per-cluster streak statistics.
impl Introspect for CnaLock {
    fn tenure_stats(&self) -> Option<CohortStats> {
        Some(self.cohort_stats())
    }

    fn policy_label(&self) -> Option<String> {
        Some(self.policy.label())
    }
}

impl std::fmt::Debug for CnaLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CnaLock")
            .field("busy", &self.has_waiters_or_holder())
            .field("policy", &self.policy)
            .field("scan_limit", &self.scan_limit)
            .finish()
    }
}

// SAFETY: mutual exclusion is the MCS argument — a thread enters its
// critical section only after winning the tail CAS/swap uncontended or
// after its predecessor's single grant store flips its private spin flag;
// the secondary queue is touched only by the current holder. The grant
// store is `Release` and the spin load `Acquire`, publishing the critical
// section (and the queue state carried in the node) to the next holder.
unsafe impl RawLock for CnaLock {
    type Token = CnaToken;

    fn lock(&self) -> CnaToken {
        let cluster = current_cluster_in(&self.topo);
        let node = pool::acquire::<CnaNode>();
        // SAFETY: freshly acquired node, not yet published.
        unsafe {
            let n = node.as_ref();
            n.next.store(ptr::null_mut(), Ordering::Relaxed);
            n.spin.store(SPIN_WAIT, Ordering::Relaxed);
            n.cluster.store(cluster.as_u32(), Ordering::Relaxed);
            n.sec_tail.store(ptr::null_mut(), Ordering::Relaxed);
            n.streak.store(0, Ordering::Relaxed);
        }
        let pred = self.tail.swap(node.as_ptr(), Ordering::AcqRel);
        if pred.is_null() {
            // Uncontended: granted immediately, empty secondary queue.
            // SAFETY: the node is ours and unpublished to predecessors.
            unsafe { node.as_ref().spin.store(SPIN_GRANTED, Ordering::Relaxed) };
            self.policy.began(cluster);
            return CnaToken(node);
        }
        // SAFETY: pred stays valid until *we* are granted the lock — its
        // owner cannot finish `unlock` before our grant store.
        unsafe { (*pred).next.store(node.as_ptr(), Ordering::Release) };
        let mut wait = SpinWait::new();
        // SAFETY: our own node; spinning on our private flag.
        while unsafe { node.as_ref().spin.load(Ordering::Acquire) } == SPIN_WAIT {
            wait.snooze();
        }
        // SAFETY: granted; streak was published by the releaser's grant.
        if unsafe { node.as_ref().streak.load(Ordering::Relaxed) } == 0 {
            self.policy.began(cluster);
        }
        CnaToken(node)
    }

    fn try_lock(&self) -> Option<CnaToken> {
        let cluster = current_cluster_in(&self.topo);
        let node = pool::acquire::<CnaNode>();
        // SAFETY: freshly acquired node, not yet published.
        unsafe {
            let n = node.as_ref();
            n.next.store(ptr::null_mut(), Ordering::Relaxed);
            n.spin.store(SPIN_GRANTED, Ordering::Relaxed);
            n.cluster.store(cluster.as_u32(), Ordering::Relaxed);
            n.sec_tail.store(ptr::null_mut(), Ordering::Relaxed);
            n.streak.store(0, Ordering::Relaxed);
        }
        match self.tail.compare_exchange(
            ptr::null_mut(),
            node.as_ptr(),
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => {
                self.policy.began(cluster);
                Some(CnaToken(node))
            }
            Err(_) => {
                // SAFETY: never published.
                unsafe { pool::release(node) };
                None
            }
        }
    }

    unsafe fn unlock(&self, token: CnaToken) {
        let me = token.0.as_ptr();
        let cluster = ClusterId::new((*me).cluster.load(Ordering::Relaxed));
        let streak = (*me).streak.load(Ordering::Relaxed);
        let mut sec = (*me).spin.load(Ordering::Relaxed);
        debug_assert_ne!(sec, SPIN_WAIT, "unlock by a non-holder");

        let mut next = (*me).next.load(Ordering::Acquire);
        if next.is_null() {
            // No known main-queue successor.
            if sec == SPIN_GRANTED {
                // …and no secondary queue: try to leave the lock free.
                if self
                    .tail
                    .compare_exchange(me, ptr::null_mut(), Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.policy.ended(cluster, streak);
                    pool::release(NonNull::new_unchecked(me));
                    return;
                }
            } else {
                // The secondary queue must not be stranded: promote it to
                // the main queue (its tail becomes the lock tail — the
                // chain already ends in a null `next`).
                let sec_head = sec as *mut CnaNode;
                let sec_tail = (*sec_head).sec_tail.load(Ordering::Relaxed);
                if self
                    .tail
                    .compare_exchange(me, sec_tail, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    self.policy.ended(cluster, streak);
                    self.grant(sec_head, SPIN_GRANTED, 0);
                    pool::release(NonNull::new_unchecked(me));
                    return;
                }
            }
            // An enqueuer swapped the tail after us but has not linked
            // yet: wait for the link, then take the normal path.
            let mut wait = SpinWait::new();
            loop {
                next = (*me).next.load(Ordering::Acquire);
                if !next.is_null() {
                    break;
                }
                wait.snooze();
            }
        }

        // A main-queue successor exists. Try a deliberate local handoff
        // while the policy allows the streak to continue.
        if self.policy.may_pass_local(cluster, streak) {
            if let Some(local) = self.find_local_successor(cluster.as_u32(), next, &mut sec) {
                self.policy.handed_off(cluster, streak);
                self.grant(local, sec, streak + 1);
                pool::release(NonNull::new_unchecked(me));
                return;
            }
        }

        // Streak over (threshold hit, or no local waiter in the scanned
        // prefix): re-splice the secondary queue ahead of the remaining
        // main queue and reset the streak.
        self.policy.ended(cluster, streak);
        let succ = if sec != SPIN_GRANTED {
            let sec_head = sec as *mut CnaNode;
            let sec_tail = (*sec_head).sec_tail.load(Ordering::Relaxed);
            (*sec_tail).next.store(next, Ordering::Relaxed);
            sec_head
        } else {
            next
        };
        self.grant(succ, SPIN_GRANTED, 0);
        pool::release(NonNull::new_unchecked(me));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::{bind_current_thread, reset_thread_binding};
    use std::sync::atomic::AtomicU64 as Counter;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::new(4))
    }

    fn hammer(lock: Arc<CnaLock>, threads: usize, iters: u64) {
        let a = Arc::new(Counter::new(0));
        let b = Arc::new(Counter::new(0));
        // Start together and yield while holding: on a single-CPU host the
        // queue would otherwise never form (each thread would finish its
        // whole loop uncontended within one scheduling quantum).
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..iters {
                        let t = lock.lock();
                        let va = a.load(Ordering::Relaxed);
                        let vb = b.load(Ordering::Relaxed);
                        assert_eq!(va, vb, "critical section raced");
                        a.store(va + 1, Ordering::Relaxed);
                        std::thread::yield_now();
                        b.store(vb + 1, Ordering::Relaxed);
                        unsafe { lock.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::Relaxed), threads as u64 * iters);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let lock = Arc::new(CnaLock::new(topo()));
        hammer(Arc::clone(&lock), 8, 1_000);
        let s = lock.cohort_stats();
        assert_eq!(s.tenures(), s.global_releases(), "every streak ends");
        assert_eq!(
            s.tenures() + s.local_handoffs(),
            8_000,
            "every acquisition is a streak start or a local inheritance"
        );
        assert!(s.max_streak() <= PolicySpec::PAPER_BOUND);
    }

    #[test]
    fn uncontended_roundtrip_recycles_node_and_counts_one_tenure() {
        let l = CnaLock::new(topo());
        for _ in 0..1_000 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
        assert!(
            pool::fresh_allocations::<CnaNode>() <= 1,
            "single thread needs one node"
        );
        let s = l.cohort_stats();
        assert_eq!(s.tenures(), 1_000);
        assert_eq!(s.local_handoffs(), 0);
    }

    #[test]
    fn try_lock_fails_under_holder_and_releases_node() {
        let l = CnaLock::new(topo());
        let t = l.lock();
        assert!(l.try_lock().is_none());
        unsafe { l.unlock(t) };
        let cached = pool::cached::<CnaNode>();
        let t2 = l.try_lock().expect("free after unlock");
        unsafe { l.unlock(t2) };
        assert_eq!(pool::cached::<CnaNode>(), cached, "no node leaked");
    }

    #[test]
    fn threshold_bounds_local_streak() {
        for bound in [1u64, 2, 5] {
            let lock = Arc::new(CnaLock::with_threshold(topo(), bound));
            hammer(Arc::clone(&lock), 8, 600);
            let s = lock.cohort_stats();
            assert!(
                s.max_streak() <= bound,
                "bound {bound} violated: streak {}",
                s.max_streak()
            );
        }
    }

    #[test]
    fn never_pass_forbids_local_handoffs() {
        let lock = Arc::new(CnaLock::with_policy(topo(), PolicySpec::NeverPass));
        hammer(Arc::clone(&lock), 4, 500);
        let s = lock.cohort_stats();
        assert_eq!(s.local_handoffs(), 0);
        assert_eq!(s.tenures(), 4 * 500);
    }

    #[test]
    fn unbounded_policy_keeps_counters_balanced() {
        let lock = Arc::new(CnaLock::with_policy(topo(), PolicySpec::Unbounded));
        hammer(Arc::clone(&lock), 4, 500);
        let s = lock.cohort_stats();
        assert_eq!(s.tenures() + s.local_handoffs(), 4 * 500);
        assert_eq!(s.tenures(), s.global_releases());
    }

    #[test]
    fn dyn_policy_composes() {
        let lock = Arc::new(CnaLock::with_policy(topo(), PolicySpec::Count { bound: 3 }));
        hammer(Arc::clone(&lock), 4, 400);
        assert!(lock.cohort_stats().max_streak() <= 3);
        assert_eq!(lock.policy().label(), "count(3)");
    }

    #[test]
    fn tight_scan_limit_still_excludes_and_terminates() {
        // A scan limit of 1 degenerates the scan to "direct successor
        // local?" — correctness (and termination) must be unaffected.
        let lock = Arc::new(CnaLock::with_threshold(topo(), 64).with_scan_limit(1));
        hammer(Arc::clone(&lock), 8, 600);
        let s = lock.cohort_stats();
        assert_eq!(s.tenures() + s.local_handoffs(), 8 * 600);
    }

    #[test]
    fn secondary_queue_waiters_are_never_lost() {
        // Pin threads so clusters interleave deterministically in the
        // queue: cluster 0's releaser will splice cluster 1's waiters to
        // the secondary queue; they must all still complete.
        let topo = topo();
        let lock = Arc::new(CnaLock::with_threshold(Arc::clone(&topo), 4));
        let done = Arc::new(Counter::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let topo = Arc::clone(&topo);
                let lock = Arc::clone(&lock);
                let done = Arc::clone(&done);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    bind_current_thread(&topo, ClusterId::new((i % 2) as u32));
                    barrier.wait();
                    for _ in 0..500 {
                        let t = lock.lock();
                        std::thread::yield_now(); // let the queue deepen
                        unsafe { lock.unlock(t) };
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    reset_thread_binding();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::Relaxed), 8 * 500, "a waiter was lost");
        let s = lock.cohort_stats();
        assert!(s.local_handoffs() > 0, "same-cluster batching happened");
        assert!(s.max_streak() <= 4);
    }

    #[test]
    fn token_release_may_cross_threads() {
        // Thread-obliviousness: unlock from another thread while a third
        // contends (mirrors the MCS global-lock usage).
        let l = Arc::new(CnaLock::new(topo()));
        let t = l.lock();
        let l_waiter = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let t = l_waiter.lock();
            unsafe { l_waiter.unlock(t) };
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        let l_releaser = Arc::clone(&l);
        std::thread::spawn(move || unsafe { l_releaser.unlock(t) })
            .join()
            .unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn debug_formats() {
        let l = CnaLock::with_threshold(topo(), 7);
        let s = format!("{l:?}");
        assert!(s.contains("count(7)"), "{s}");
    }
}
