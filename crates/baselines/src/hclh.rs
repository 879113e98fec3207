//! The hierarchical CLH lock — HCLH (Luchangco, Nussbaum, Shavit,
//! Euro-Par '06).
//!
//! Waiters enqueue into a **per-cluster CLH queue**; the thread at the
//! head of a local queue (the *cluster master*) splices the entire local
//! segment into a single **global CLH queue**, so the global lock order is
//! a sequence of per-cluster batches. The paper's critique (§1): forming
//! the local queue takes an atomic SWAP on a shared local tail, and the
//! master must either wait long or splice an "unacceptably short" queue —
//! cohort locks get longer batches for less coordination.
//!
//! Node state is one packed word — `(successor_must_wait, tail_when_
//! spliced, cluster)` — read and written atomically:
//!
//! * a waiter whose predecessor has `cluster == mine`, `spliced == false`,
//!   `must_wait == false` takes the lock (intra-batch grant);
//! * a waiter whose predecessor has `spliced == true` is the head of a new
//!   local batch and becomes the next master;
//! * a master detaches the local queue (swap tail to null), flags the
//!   detached tail `tail_when_spliced`, swaps it into the global queue,
//!   and waits on the old global tail for `must_wait == false`.
//!
//! Reclamation follows CLH custom: every node is recycled by the unique
//! thread that consumed its grant (intra-batch successor, or the master
//! spinning on it from the global queue).

use base_locks::{pool, RawLock, SpinWait, Wait};
use crossbeam_utils::CachePadded;
use numa_topology::{current_cluster_in, Topology};
use std::ptr;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

const MUST_WAIT: u64 = 1 << 32;
const SPLICED: u64 = 1 << 33;

#[inline]
fn pack(must_wait: bool, spliced: bool, cluster: u32) -> u64 {
    (cluster as u64) | if must_wait { MUST_WAIT } else { 0 } | if spliced { SPLICED } else { 0 }
}

/// One HCLH queue node (pool-owned, recycled by its grant's consumer).
#[derive(Debug)]
pub struct HclhNode {
    state: AtomicU64,
}

impl HclhNode {
    fn new() -> Self {
        HclhNode {
            state: AtomicU64::new(0),
        }
    }
}

base_locks::pooled_node!(HclhNode, HclhNode::new);

/// Acquisition token: the thread's node, released through `unlock`.
#[derive(Debug)]
pub struct HclhToken(NonNull<HclhNode>);

/// The hierarchical CLH lock.
pub struct HclhLock {
    local_tails: Box<[CachePadded<AtomicPtr<HclhNode>>]>,
    global_tail: CachePadded<AtomicPtr<HclhNode>>,
    topo: Arc<Topology>,
    /// Spin budget the master spends letting the local queue grow before
    /// splicing (the original's "combining delay").
    combine_spins: u32,
}

impl HclhLock {
    /// Creates an HCLH lock over `topo`.
    pub fn new(topo: Arc<Topology>) -> Self {
        // Global queue starts with one released dummy.
        let dummy = pool::acquire::<HclhNode>();
        // SAFETY: fresh node, unpublished.
        unsafe {
            dummy
                .as_ref()
                .state
                .store(pack(false, false, u32::MAX), Ordering::Relaxed)
        };
        let local_tails = (0..topo.clusters())
            .map(|_| CachePadded::new(AtomicPtr::new(ptr::null_mut())))
            .collect();
        HclhLock {
            local_tails,
            global_tail: CachePadded::new(AtomicPtr::new(dummy.as_ptr())),
            topo,
            combine_spins: 0,
        }
    }

    /// Master path: detach the local segment, splice it globally, wait for
    /// the old global tail's grant.
    ///
    /// SAFETY: `node` is our published node, currently head of an
    /// undetached local segment.
    unsafe fn master_splice(&self, node: NonNull<HclhNode>, cluster: usize) -> HclhToken {
        // Let cluster-mates pile in briefly (the combining window). The
        // window is measured in scheduler rounds so it works on an
        // oversubscribed host too: each yield lets runnable cluster-mates
        // reach their enqueue.
        let mut budget = self.combine_spins;
        while budget > 0 && self.local_tails[cluster].load(Ordering::Relaxed) == node.as_ptr() {
            std::thread::yield_now();
            budget -= 1;
        }
        // Detach the local queue. Everything from our node to the returned
        // tail forms this batch.
        let batch_tail = self.local_tails[cluster].swap(ptr::null_mut(), Ordering::AcqRel);
        debug_assert!(!batch_tail.is_null(), "our node is in that queue");
        // Flag the batch tail BEFORE it becomes globally reachable: its
        // local successor must take the master path, and until the flag is
        // set it is protected by the tail owner's must_wait bit.
        (*batch_tail).state.fetch_or(SPLICED, Ordering::AcqRel);
        // Splice into the global queue and wait for our global
        // predecessor to pass the lock.
        let gpred = self.global_tail.swap(batch_tail, Ordering::AcqRel);
        debug_assert!(!gpred.is_null());
        let mut wait = SpinWait::new();
        while (*gpred).state.load(Ordering::Acquire) & MUST_WAIT != 0 {
            wait.snooze();
        }
        // We consumed gpred's grant: recycle it.
        pool::release(NonNull::new_unchecked(gpred));
        HclhToken(node)
    }
}

impl Drop for HclhLock {
    /// Hands the node resident at the global tail back to the pool (the
    /// local tails of an idle lock are null: every master detaches its
    /// batch).
    fn drop(&mut self) {
        if let Some(tail) = NonNull::new(*self.global_tail.get_mut()) {
            // SAFETY: `&mut self` — no holder, no waiter; the last holder
            // released through this node and nobody else can reach it.
            unsafe { pool::release(tail) };
        }
    }
}

impl std::fmt::Debug for HclhLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HclhLock")
            .field("clusters", &self.local_tails.len())
            .finish_non_exhaustive()
    }
}

impl cohort::Introspect for HclhLock {}

// SAFETY: the global CLH queue admits one holder at a time; intra-batch
// grants only occur for nodes already ordered within the global queue
// (they were spliced as a contiguous segment).
unsafe impl RawLock for HclhLock {
    type Token = HclhToken;

    fn lock(&self) -> HclhToken {
        let cluster = current_cluster_in(&self.topo).as_usize();
        let node = pool::acquire::<HclhNode>();
        // SAFETY: ours until published.
        unsafe {
            node.as_ref()
                .state
                .store(pack(true, false, cluster as u32), Ordering::Relaxed)
        };
        let pred = self.local_tails[cluster].swap(node.as_ptr(), Ordering::AcqRel);
        if pred.is_null() {
            // Head of a fresh local queue: we are the master.
            // SAFETY: node is published as that queue's head.
            return unsafe { self.master_splice(node, cluster) };
        }
        let mut wait = SpinWait::new();
        loop {
            // SAFETY: pred is recycled only by the unique consumer of its
            // grant, which (while we spin on it) can only be us.
            let s = unsafe { (*pred).state.load(Ordering::Acquire) };
            if s & SPLICED != 0 {
                // Predecessor was spliced as a batch tail: we head the
                // next batch. pred's grant will be consumed by a master
                // spinning on it from the global queue — not by us, so we
                // must NOT recycle it.
                // SAFETY: our node heads the remaining local segment.
                return unsafe { self.master_splice(node, cluster) };
            }
            if s & MUST_WAIT == 0 && (s as u32) as usize == cluster {
                // Intra-batch grant from a cluster-mate.
                // SAFETY: we are pred's unique grant consumer.
                unsafe { pool::release(NonNull::new_unchecked(pred)) };
                return HclhToken(node);
            }
            wait.snooze();
        }
    }

    fn try_lock(&self) -> Option<HclhToken> {
        // HCLH has no abort path, and an optimistic tail CAS would be
        // exposed to recycled-node ABA (see base ClhLock::try_lock): a
        // conservative None keeps the API total without compromising
        // soundness. The benchmarks only use lock/unlock.
        None
    }

    unsafe fn unlock(&self, token: HclhToken) {
        // Clear must_wait, preserving cluster and spliced bits — the
        // successor's checks depend on them. fetch_and keeps the update
        // atomic against a master concurrently setting SPLICED.
        token
            .0
            .as_ref()
            .state
            .fetch_and(!MUST_WAIT, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::new(4))
    }

    #[test]
    fn single_thread_roundtrip() {
        let l = HclhLock::new(topo());
        for _ in 0..50 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
    }

    #[test]
    fn mutual_exclusion() {
        let l = Arc::new(HclhLock::new(topo()));
        let a = Arc::new(Counter::new(0));
        let b = Arc::new(Counter::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..1_500 {
                        let t = l.lock();
                        let va = a.load(Ordering::Relaxed);
                        let vb = b.load(Ordering::Relaxed);
                        assert_eq!(va, vb);
                        a.store(va + 1, Ordering::Relaxed);
                        std::hint::spin_loop();
                        b.store(vb + 1, Ordering::Relaxed);
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::Relaxed), 6_000);
    }

    #[test]
    fn single_cluster_topology() {
        let l = Arc::new(HclhLock::new(Arc::new(Topology::new(1))));
        let c = Arc::new(Counter::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let l = Arc::clone(&l);
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        let t = l.lock();
                        c.fetch_add(1, Ordering::Relaxed);
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load(Ordering::Relaxed), 3_000);
    }

    #[test]
    fn pool_stays_bounded() {
        let l = Arc::new(HclhLock::new(topo()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        let t = l.lock();
                        unsafe { l.unlock(t) };
                    }
                    pool::fresh_allocations::<HclhNode>()
                })
            })
            .collect();
        for h in handles {
            // Every acquisition takes one node and recycles one (the local
            // or the global predecessor's): balanced.
            assert!(h.join().unwrap() <= 1, "one node per thread");
        }
    }

    #[test]
    fn dropped_locks_hand_their_node_back() {
        let topo = topo();
        for _ in 0..10_000 {
            let l = HclhLock::new(Arc::clone(&topo));
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
        let fresh = pool::fresh_allocations::<HclhNode>();
        assert!(fresh <= 2, "10 000 locks allocated {fresh} nodes");
    }
}
