//! Queue-node memory for the MCS/CLH-family locks: per-thread caches of
//! immortal nodes.
//!
//! Queue locks thread a linked list of *nodes* through their waiters, and
//! a node regularly outlives the call that enqueued it: a CLH node is
//! recycled by the *successor* thread, and the thread-oblivious global MCS
//! lock of a cohort lock (§3.4 of the paper) is released by a different
//! thread than the one that enqueued. Stack allocation is therefore out.
//! Like the paper, nodes circulate through **thread-local** free lists —
//! one per node type, shared by every lock of that type:
//!
//! * [`acquire`] pops the calling thread's cache and [`release`] pushes
//!   onto it: one TLS access and a few plain loads and stores, no atomic
//!   instruction, no line another thread writes. A lock/unlock pair on a thread takes
//!   out and puts back the same node.
//! * Nodes are **immortal and type-stable**: allocated once, never
//!   returned to the allocator, never reused as another type. A stale
//!   pointer to a recycled node (`ClhLock::try_lock` reads one) always
//!   points at a live node of the same type.
//! * Each node sits alone in a 128-byte-aligned block (an adjacent cache
//!   line pair), so one waiter's spin flag never shares a line — or a
//!   prefetched neighbour line — with another thread's node.
//! * A cache holds at most [`CACHE_CAP`] nodes. The cold per-type
//!   [`Overflow`] list behind it takes the surplus of a thread that
//!   releases more than it acquires, feeds a thread that acquires more
//!   than it releases, receives a thread's whole cache from its TLS
//!   destructor, and serves [`acquire`]/[`release`] directly once that
//!   destructor has run. Both directions move half a cache at a time, so
//!   even a thread that only ever releases takes the overflow mutex once
//!   per `CACHE_CAP / 2` operations.
//!
//! A node type opts in with [`pooled_node!`](crate::pooled_node), which
//! declares the type's `thread_local!` cache and its overflow list; the
//! generic functions here reach them through [`PoolNode`], resolved at
//! compile time.

use std::cell::Cell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::LocalKey;

/// Most nodes a thread keeps cached per node type.
pub const CACHE_CAP: usize = 16;

/// Nodes moved per overflow visit: half a cache, so a refill or a spill
/// leaves room for `BATCH` operations in either direction before the next.
const BATCH: usize = CACHE_CAP / 2;

/// A node alone in its adjacent-line pair. `repr(C)` puts the node at
/// offset 0, so a `*mut T` handed out is also the block's address.
#[repr(C, align(128))]
struct Block<T>(T);

/// A queue-node type with a per-thread cache; implement it with
/// [`pooled_node!`](crate::pooled_node).
///
/// `Send + Sync` because nodes are handed from thread to thread and
/// shared between a waiter and its neighbours in the queue.
pub trait PoolNode: Sized + Send + Sync + 'static {
    /// A new node. Recycled nodes keep their last field values, so users
    /// re-initialize every node before publishing it regardless.
    fn fresh() -> Self;
    /// This type's per-thread cache.
    #[doc(hidden)]
    fn cache() -> &'static LocalKey<NodeCache<Self>>;
    /// This type's process-wide overflow list.
    #[doc(hidden)]
    fn overflow() -> &'static Overflow<Self>;
}

/// Gives a node type its per-thread cache: `pooled_node!(Node, Node::new)`.
#[macro_export]
macro_rules! pooled_node {
    ($node:ty, $fresh:expr) => {
        impl $crate::pool::PoolNode for $node {
            fn fresh() -> Self {
                $fresh()
            }
            #[inline]
            fn cache() -> &'static ::std::thread::LocalKey<$crate::pool::NodeCache<Self>> {
                ::std::thread_local! {
                    static CACHE: $crate::pool::NodeCache<$node> =
                        const { $crate::pool::NodeCache::new() };
                }
                &CACHE
            }
            #[inline]
            fn overflow() -> &'static $crate::pool::Overflow<Self> {
                static OVERFLOW: $crate::pool::Overflow<$node> = $crate::pool::Overflow::new();
                &OVERFLOW
            }
        }
    };
}

/// One thread's free nodes of one type: a fixed-capacity stack.
pub struct NodeCache<T: PoolNode> {
    /// `slots[..len]` are `Some`.
    slots: [Cell<Option<NonNull<T>>>; CACHE_CAP],
    len: Cell<usize>,
    /// Nodes this thread had to allocate (see [`fresh_allocations`]).
    fresh: Cell<usize>,
}

impl<T: PoolNode> NodeCache<T> {
    /// An empty cache; allocates nothing.
    #[doc(hidden)]
    pub const fn new() -> Self {
        NodeCache {
            slots: [const { Cell::new(None) }; CACHE_CAP],
            len: Cell::new(0),
            fresh: Cell::new(0),
        }
    }

    #[inline]
    fn take(&self) -> NonNull<T> {
        let n = self.len.get();
        match n.checked_sub(1).and_then(|top| self.slots[top].get()) {
            Some(node) => {
                self.len.set(n - 1);
                node
            }
            None => self.refill(),
        }
    }

    #[inline]
    fn put(&self, node: NonNull<T>) {
        let mut n = self.len.get();
        if n == CACHE_CAP {
            n = self.spill();
        }
        self.slots[n].set(Some(node));
        self.len.set(n + 1);
    }

    /// The cache is empty: take up to `BATCH` nodes from the overflow
    /// list (one to return, the rest cached), or allocate a single node.
    #[cold]
    fn refill(&self) -> NonNull<T> {
        let mut spare = T::overflow().list();
        let Some(node) = spare.pop() else {
            drop(spare);
            self.fresh.set(self.fresh.get() + 1);
            return T::overflow().allocate();
        };
        let extra = spare.len().min(BATCH - 1);
        for slot in &self.slots[..extra] {
            slot.set(spare.pop());
        }
        self.len.set(extra);
        node
    }

    /// The cache is full: move the `BATCH` newest nodes to the overflow
    /// list and return the new length.
    #[cold]
    fn spill(&self) -> usize {
        let keep = CACHE_CAP - BATCH;
        T::overflow()
            .list()
            .extend(self.slots[keep..].iter().filter_map(Cell::take));
        self.len.set(keep);
        keep
    }
}

impl<T: PoolNode> Drop for NodeCache<T> {
    /// Thread exit: everything cached goes to the overflow list, where the
    /// next thread's first `acquire` finds it.
    fn drop(&mut self) {
        let cached = &self.slots[..self.len.get()];
        if !cached.is_empty() {
            T::overflow()
                .list()
                .extend(cached.iter().filter_map(Cell::take));
        }
    }
}

/// The process-wide list behind the per-thread caches of one node type.
/// Cold: see the module docs for the four occasions it is visited on.
pub struct Overflow<T> {
    spare: Mutex<Vec<NonNull<T>>>,
    /// Nodes of this type ever allocated (see [`allocated`]).
    allocated: AtomicUsize,
}

// SAFETY: `spare` holds pointers to quiescent nodes (the `release`
// contract) that whichever thread pops them then owns exclusively; with
// `T: Send + Sync` moving that ownership between threads is sound.
// `allocated` is an atomic.
unsafe impl<T: Send + Sync> Sync for Overflow<T> {}

impl<T: PoolNode> Overflow<T> {
    /// An empty list; allocates nothing.
    #[doc(hidden)]
    pub const fn new() -> Self {
        Overflow {
            spare: Mutex::new(Vec::new()),
            allocated: AtomicUsize::new(0),
        }
    }

    /// A panic cannot leave the `Vec` half-updated (only `push`, `pop` and
    /// `extend` run under the guard), so a poisoned list is still valid —
    /// and `NodeCache::drop` must not panic.
    fn list(&self) -> MutexGuard<'_, Vec<NonNull<T>>> {
        self.spare.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The only place a node is created; it is never freed.
    fn allocate(&self) -> NonNull<T> {
        self.allocated.fetch_add(1, Ordering::Relaxed);
        NonNull::from(Box::leak(Box::new(Block(T::fresh())))).cast()
    }
}

/// Takes a node of type `T`: from the calling thread's cache, else from
/// the overflow list, else freshly allocated.
///
/// The node may hold stale field values; re-initialize it before
/// publishing.
#[inline]
pub fn acquire<T: PoolNode>() -> NonNull<T> {
    T::cache().try_with(NodeCache::take).unwrap_or_else(|_| {
        // This thread's cache is already destroyed (we are running inside
        // a later TLS destructor): go to the shared list directly.
        let spare = T::overflow().list().pop();
        spare.unwrap_or_else(|| T::overflow().allocate())
    })
}

/// Returns `node` for reuse by any lock of its type, on any thread.
///
/// # Safety
///
/// `node` must come from [`acquire`], must not be released twice, and
/// must be *quiescent*: no other thread may still dereference it — except
/// for reads that tolerate finding a recycled node of the same type.
#[inline]
pub unsafe fn release<T: PoolNode>(node: NonNull<T>) {
    if T::cache().try_with(|cache| cache.put(node)).is_err() {
        T::overflow().list().push(node);
    }
}

/// Nodes of type `T` the calling thread has had to allocate so far (0 once
/// its cache is destroyed). Unlike [`allocated`] no other thread can move
/// it, so concurrently running tests of one node type can each assert on
/// their own threads.
pub fn fresh_allocations<T: PoolNode>() -> usize {
    T::cache().try_with(|c| c.fresh.get()).unwrap_or(0)
}

/// Nodes of type `T` sitting in the calling thread's cache right now.
pub fn cached<T: PoolNode>() -> usize {
    T::cache().try_with(|c| c.len.get()).unwrap_or(0)
}

/// Nodes of type `T` ever allocated, process-wide.
pub fn allocated<T: PoolNode>() -> usize {
    T::overflow().allocated.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    /// Each test declares its own node type, so its cache, overflow list
    /// and process-wide counter are private to it even though the test
    /// harness runs tests on parallel threads.
    macro_rules! test_node {
        ($name:ident) => {
            #[allow(dead_code)]
            struct $name(AtomicU64);
            crate::pooled_node!($name, || $name(AtomicU64::new(0)));
        };
    }

    /// Runs `f` on a new thread and returns its result.
    fn on_new_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::spawn(f).join().unwrap()
    }

    #[test]
    fn acquire_release_recycles() {
        test_node!(N);
        let a = acquire::<N>();
        assert_eq!((fresh_allocations::<N>(), allocated::<N>()), (1, 1));
        unsafe { release(a) };
        assert_eq!(cached::<N>(), 1);
        let b = acquire::<N>();
        assert_eq!(a, b, "free node should be recycled");
        unsafe { release(b) };
        for _ in 0..1_000 {
            unsafe { release(acquire::<N>()) };
        }
        assert_eq!((fresh_allocations::<N>(), allocated::<N>()), (1, 1));
    }

    #[test]
    fn distinct_outstanding_nodes() {
        test_node!(N);
        let a = acquire::<N>();
        let b = acquire::<N>();
        assert_ne!(a, b);
        assert_eq!(allocated::<N>(), 2);
        unsafe {
            release(a);
            release(b);
        }
        assert_eq!(cached::<N>(), 2);
    }

    #[test]
    fn nodes_never_share_a_line_pair() {
        test_node!(N);
        assert_eq!(std::mem::size_of::<Block<N>>(), 128);
        // One node handed to this thread, one to another.
        let mine = acquire::<N>().as_ptr() as usize;
        let theirs = on_new_thread(|| acquire::<N>().as_ptr() as usize);
        for p in [mine, theirs] {
            assert_eq!(p % 128, 0, "node at {p:#x} is not block-aligned");
        }
        assert_ne!(mine / 128, theirs / 128);
    }

    #[test]
    fn cache_is_capped_and_surplus_overflows() {
        test_node!(N);
        let out: Vec<_> = (0..CACHE_CAP + 3).map(|_| acquire::<N>()).collect();
        for n in out {
            unsafe { release(n) };
        }
        // The 17th release found the cache full and spilled half of it.
        assert_eq!(cached::<N>(), CACHE_CAP - BATCH + 3);
        assert_eq!(N::overflow().list().len(), BATCH);
        assert_eq!(allocated::<N>(), CACHE_CAP + 3);
    }

    #[test]
    fn release_only_thread_recirculates_through_overflow() {
        // The thread-oblivious global MCS pattern: every node is acquired
        // on one thread and released on another, which never acquires.
        test_node!(N);
        const ROUNDS: usize = 100_000;
        let (tx, rx) = mpsc::sync_channel::<usize>(2);
        let releaser = std::thread::spawn(move || {
            for p in rx {
                unsafe { release(NonNull::new(p as *mut N).unwrap()) };
            }
            fresh_allocations::<N>()
        });
        for _ in 0..ROUNDS {
            tx.send(acquire::<N>().as_ptr() as usize).unwrap();
        }
        drop(tx);
        assert_eq!(releaser.join().unwrap(), 0);
        // The releaser's cache fills once, then every spill feeds a
        // refill; the channel holds at most 3 more in flight.
        let bound = CACHE_CAP + BATCH + 3;
        assert!(
            allocated::<N>() <= bound,
            "{} nodes allocated for {ROUNDS} rounds, bound {bound}",
            allocated::<N>()
        );
    }

    #[test]
    fn thread_exit_hands_cache_to_next_thread() {
        test_node!(N);
        let first = on_new_thread(|| {
            let held: Vec<_> = (0..3).map(|_| acquire::<N>()).collect();
            let addrs: Vec<_> = held.iter().map(|n| n.as_ptr() as usize).collect();
            for n in held {
                unsafe { release(n) };
            }
            assert_eq!(cached::<N>(), 3);
            addrs
        });
        assert_eq!(N::overflow().list().len(), 3, "TLS destructor flushed");
        on_new_thread(move || {
            let n = acquire::<N>();
            assert!(first.contains(&(n.as_ptr() as usize)), "reused a node");
            assert_eq!(fresh_allocations::<N>(), 0);
            assert_eq!(cached::<N>(), 2, "refill took the rest of the batch");
        });
        assert_eq!(allocated::<N>(), 3);
    }

    #[test]
    fn usable_from_another_tls_destructor() {
        test_node!(N);
        struct UsesPoolOnExit;
        impl Drop for UsesPoolOnExit {
            fn drop(&mut self) {
                // Whether N's cache is still alive, not yet created or
                // already destroyed here depends on destructor order; all
                // three must work.
                let a = acquire::<N>();
                let b = acquire::<N>();
                unsafe {
                    release(a);
                    release(b);
                }
            }
        }
        thread_local! {
            static BEFORE: UsesPoolOnExit = const { UsesPoolOnExit };
            static AFTER: UsesPoolOnExit = const { UsesPoolOnExit };
        }
        for _ in 0..50 {
            on_new_thread(|| {
                // Registration order decides destruction order: put one
                // user on each side of the cache.
                BEFORE.with(|_| {});
                unsafe { release(acquire::<N>()) };
                AFTER.with(|_| {});
            });
        }
        // No leak: every thread found the two nodes the first one left.
        assert_eq!(allocated::<N>(), 2);
        assert_eq!(N::overflow().list().len(), 2);
    }

    #[test]
    fn concurrent_acquire_release() {
        test_node!(N);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1_000 {
                        let n = acquire::<N>();
                        unsafe { n.as_ref().0.fetch_add(1, Ordering::Relaxed) };
                        unsafe { release(n) };
                    }
                    fresh_allocations::<N>()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() <= 1, "a balanced thread needs one node");
        }
        assert!(allocated::<N>() <= 4);
    }
}
