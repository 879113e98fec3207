//! The flat-combining MCS lock — FC-MCS (Dice, Marathe, Shavit, SPAA '11).
//!
//! The strongest prior NUMA-aware lock in the paper's evaluation. Each
//! cluster keeps a flat-combining **publication list**: threads publish
//! acquisition requests into per-thread slots instead of swapping a shared
//! tail. A *combiner* (any thread that wins the cluster's combiner lock)
//! collects pending slots, strings their MCS queue nodes into a chain, and
//! splices the chain into one **global MCS queue** with a single swap.
//! Threads then spin locally on their own MCS node, and release with the
//! ordinary MCS protocol.
//!
//! The paper's critique (§1): FC-MCS outperforms HBO/HCLH but "uses
//! significantly more memory and is relatively complicated" — visible
//! below as the slot registry, combiner election, and chain splicing that
//! a cohort lock simply does not need.

use base_locks::{RawLock, TatasLock};
use crossbeam_utils::CachePadded;
use numa_topology::{current_cluster_in, Topology};
use std::cell::Cell;
use std::ptr;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// Request slot states.
const EMPTY: u32 = 0;
const PENDING: u32 = 1;
const ENQUEUED: u32 = 2;

/// A per-thread publication slot with an embedded MCS queue node.
#[derive(Debug)]
struct Slot {
    state: AtomicU32,
    /// MCS node: granted flag + chain pointer.
    locked: AtomicBool,
    next: AtomicPtr<Slot>,
    /// Registry linkage (per-cluster publication list).
    reg_next: AtomicPtr<Slot>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            state: AtomicU32::new(EMPTY),
            locked: AtomicBool::new(false),
            next: AtomicPtr::new(ptr::null_mut()),
            reg_next: AtomicPtr::new(ptr::null_mut()),
        }
    }
}

/// Per-cluster flat-combining structure.
#[derive(Debug)]
struct ClusterFc {
    /// Head of the append-only publication list.
    slots: AtomicPtr<Slot>,
    /// Combiner election.
    combiner: TatasLock,
}

/// Acquisition token: the slot whose MCS node sits in the global queue.
#[derive(Debug)]
pub struct FcMcsToken(NonNull<Slot>);

/// The flat-combining MCS lock.
pub struct FcMcsLock {
    clusters: Box<[CachePadded<ClusterFc>]>,
    global_tail: CachePadded<AtomicPtr<Slot>>,
    topo: Arc<Topology>,
    /// Owns every slot ever registered (freed on drop).
    arena: Mutex<Vec<NonNull<Slot>>>,
    /// Monotonically growing id used to key the thread-local slot cache.
    id: usize,
}

// SAFETY: slots are shared through atomics only; the arena Mutex guards
// registration.
unsafe impl Send for FcMcsLock {}
unsafe impl Sync for FcMcsLock {}

static LOCK_IDS: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// (lock id, cluster, slot) cache: one slot per thread per lock.
    static MY_SLOT: Cell<(usize, usize, *mut Slot)> = const { Cell::new((0, 0, ptr::null_mut())) };
}

impl FcMcsLock {
    /// Creates an FC-MCS lock over `topo`.
    pub fn new(topo: Arc<Topology>) -> Self {
        let clusters = (0..topo.clusters())
            .map(|_| {
                CachePadded::new(ClusterFc {
                    slots: AtomicPtr::new(ptr::null_mut()),
                    combiner: TatasLock::new(),
                })
            })
            .collect();
        FcMcsLock {
            clusters,
            global_tail: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            topo,
            arena: Mutex::new(Vec::new()),
            id: LOCK_IDS.fetch_add(1, Ordering::Relaxed) as usize,
        }
    }

    /// Returns the calling thread's slot for this lock, registering one in
    /// the cluster's publication list on first use.
    fn my_slot(&self, cluster: usize) -> NonNull<Slot> {
        let cached = MY_SLOT.with(|c| c.get());
        if cached.0 == self.id && cached.1 == cluster {
            // SAFETY: cached slots outlive the lock's arena.
            return unsafe { NonNull::new_unchecked(cached.2) };
        }
        let slot = NonNull::from(Box::leak(Box::new(Slot::new())));
        self.arena.lock().unwrap().push(slot);
        // Push onto the cluster's registry (append-only Treiber push; no
        // pops ever happen, so no ABA).
        let head = &self.clusters[cluster].slots;
        let mut cur = head.load(Ordering::Relaxed);
        loop {
            unsafe { slot.as_ref().reg_next.store(cur, Ordering::Relaxed) };
            match head.compare_exchange_weak(
                cur,
                slot.as_ptr(),
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        MY_SLOT.with(|c| c.set((self.id, cluster, slot.as_ptr())));
        slot
    }

    /// Combiner duty: collect pending slots of `cluster` into an MCS chain
    /// and splice it into the global queue.
    ///
    /// One scan pass: the batch is a *static snapshot* of the requests
    /// published by collection time. This is the structural difference
    /// §4.1.2 of the paper draws between FC-MCS and cohort locks — a
    /// cohort batch keeps growing while it executes (threads re-join the
    /// live batch), an FC-MCS batch is fixed when spliced — and it is why
    /// cohort locks out-batch FC-MCS under equal contention.
    fn combine(&self, cluster: usize) {
        let mut head: *mut Slot = ptr::null_mut();
        let mut tail: *mut Slot = ptr::null_mut();
        let mut cur = self.clusters[cluster].slots.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: registry slots live until lock drop.
            let slot = unsafe { &*cur };
            if slot.state.load(Ordering::Acquire) == PENDING {
                slot.state.store(ENQUEUED, Ordering::Relaxed);
                // Append to the chain.
                if head.is_null() {
                    head = cur;
                } else {
                    // SAFETY: tail is a chain member we just linked.
                    unsafe { (*tail).next.store(cur, Ordering::Relaxed) };
                }
                tail = cur;
            }
            cur = slot.reg_next.load(Ordering::Acquire);
        }
        if head.is_null() {
            return;
        }
        // Splice the chain [head..tail] into the global MCS queue.
        // SAFETY: chain members are ours (ENQUEUED) until granted.
        unsafe {
            (*tail).next.store(ptr::null_mut(), Ordering::Relaxed);
            let pred = self.global_tail.swap(tail, Ordering::AcqRel);
            if pred.is_null() {
                (*head).locked.store(false, Ordering::Release);
            } else {
                (*pred).next.store(head, Ordering::Release);
            }
        }
    }
}

impl Drop for FcMcsLock {
    fn drop(&mut self) {
        for p in self.arena.lock().unwrap().drain(..) {
            // SAFETY: registered via Box::leak; the lock is going away and
            // guards cannot outlive it.
            drop(unsafe { Box::from_raw(p.as_ptr()) });
        }
    }
}

impl std::fmt::Debug for FcMcsLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FcMcsLock")
            .field("clusters", &self.clusters.len())
            .finish_non_exhaustive()
    }
}

impl cohort::Introspect for FcMcsLock {}

// SAFETY: the global queue is a standard MCS queue (one grant in flight);
// combiners only move *pending* requests into it, each exactly once
// (PENDING→ENQUEUED under the per-cluster combiner lock).
unsafe impl RawLock for FcMcsLock {
    type Token = FcMcsToken;

    fn lock(&self) -> FcMcsToken {
        let cluster = current_cluster_in(&self.topo).as_usize();
        let slot = self.my_slot(cluster);
        // SAFETY: the slot is ours (one per thread per lock).
        unsafe {
            slot.as_ref().next.store(ptr::null_mut(), Ordering::Relaxed);
            slot.as_ref().locked.store(true, Ordering::Relaxed);
            slot.as_ref().state.store(PENDING, Ordering::Release);
        }
        let mut rounds = 0u32;
        loop {
            // Granted?
            if !unsafe { slot.as_ref().locked.load(Ordering::Acquire) } {
                return FcMcsToken(slot);
            }
            // Still unpublished after a grace period? Become the combiner.
            // The grace period (a few scheduler rounds) is what lets other
            // publishers accumulate so a combine pass collects a real
            // batch instead of just ourselves.
            if rounds >= 2 && unsafe { slot.as_ref().state.load(Ordering::Relaxed) } == PENDING {
                if let Some(t) = self.clusters[cluster].combiner.try_lock() {
                    self.combine(cluster);
                    // SAFETY: token from the try_lock above.
                    unsafe { self.clusters[cluster].combiner.unlock(t) };
                }
            }
            std::thread::yield_now();
            rounds = rounds.wrapping_add(1);
        }
    }

    fn try_lock(&self) -> Option<FcMcsToken> {
        // Conservative: FC-MCS requests cannot be withdrawn once
        // published, so an honest non-blocking try is not expressible.
        None
    }

    unsafe fn unlock(&self, token: FcMcsToken) {
        let slot = token.0;
        // Standard MCS release on the slot's embedded node.
        let mut next = slot.as_ref().next.load(Ordering::Acquire);
        if next.is_null() {
            if self
                .global_tail
                .compare_exchange(
                    slot.as_ptr(),
                    ptr::null_mut(),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                slot.as_ref().state.store(EMPTY, Ordering::Release);
                return;
            }
            loop {
                next = slot.as_ref().next.load(Ordering::Acquire);
                if !next.is_null() {
                    break;
                }
                std::hint::spin_loop();
            }
        }
        // Mark our slot reusable *before* granting: once granted, the
        // successor's combiner may need to see our slot EMPTY to re-chain
        // us in a later round.
        slot.as_ref().state.store(EMPTY, Ordering::Release);
        (*next).locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::new(4))
    }

    #[test]
    fn single_thread_roundtrip() {
        let l = FcMcsLock::new(topo());
        for _ in 0..100 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
    }

    #[test]
    fn mutual_exclusion() {
        let l = Arc::new(FcMcsLock::new(topo()));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
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
    fn slots_are_reused_across_acquisitions() {
        let l = FcMcsLock::new(topo());
        let t1 = l.lock();
        let p1 = t1.0;
        unsafe { l.unlock(t1) };
        let t2 = l.lock();
        assert_eq!(p1, t2.0, "same thread reuses its slot");
        unsafe { l.unlock(t2) };
        assert_eq!(l.arena.lock().unwrap().len(), 1);
    }

    #[test]
    fn distinct_locks_use_distinct_slots() {
        let l1 = FcMcsLock::new(topo());
        let l2 = FcMcsLock::new(topo());
        let t1 = l1.lock();
        let t2 = l2.lock();
        assert_ne!(t1.0, t2.0);
        unsafe {
            l1.unlock(t1);
            l2.unlock(t2);
        }
    }
}
