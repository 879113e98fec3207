//! Integration: cross-crate lock semantics that unit tests cannot cover —
//! tokens crossing threads, guards over cohort locks (including a panic
//! inside one), registry coverage, threads far beyond the CPUs.

use base_locks::{
    AbortableClhLock, ClhLock, McsLock, RawAbortableLock, RawLock, SpinMutex, TicketLock,
};
use cohort::{
    AbortableLocalCohortLock, CBoMcs, CTktTkt, FisBoMcs, GcrCBoMcs, Introspect, LocalCohortLock,
    ThreadOblivious,
};
use lbench::{AnyLockKind, LockKind};
use numa_baselines::{CnaLock, CnaToken, HclhLock, HclhToken};
use numa_topology::Topology;
use std::cell::UnsafeCell;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// The five queue locks on pool nodes hold their nodes as `&'static`
/// references, so they and their tokens are `Send`/`Sync` with no
/// `unsafe impl`. Checked when this file compiles: a raw-pointer node
/// field in a token or a lock fails the build here.
#[test]
fn pool_node_locks_and_tokens_are_send_and_sync_without_manual_impls() {
    fn send<T: Send>() {}
    fn send_sync<T: Send + Sync>() {}
    send::<<McsLock as RawLock>::Token>();
    send::<<ClhLock as RawLock>::Token>();
    send::<<AbortableClhLock as RawLock>::Token>();
    send::<CnaToken>();
    send::<HclhToken>();
    send_sync::<McsLock>();
    send_sync::<ClhLock>();
    send_sync::<AbortableClhLock>();
    send_sync::<CnaLock>();
    send_sync::<HclhLock>();
    // And the two wrappers over them, `Send` with no manual impl either.
    send::<CBoMcs>();
    send::<SpinMutex<u64, McsLock>>();
}

/// MCS, ticket and abortable CLH are each one type in every role the
/// paper gives them: plain, global and cohort-local. Checked when this
/// file compiles.
#[test]
fn one_lock_per_algorithm_serves_every_role() {
    fn plain_global_and_local<L: RawLock + ThreadOblivious + LocalCohortLock>() {}
    fn abortable_plain_and_local<L: RawAbortableLock + AbortableLocalCohortLock>() {}
    plain_global_and_local::<McsLock>();
    plain_global_and_local::<TicketLock>();
    abortable_plain_and_local::<AbortableClhLock>();
}

#[test]
fn spin_mutex_over_cohort_lock_guards_properly() {
    let topo = Arc::new(Topology::new(4));
    let m: Arc<SpinMutex<Vec<u64>, CBoMcs>> =
        Arc::new(SpinMutex::with_lock(CBoMcs::new(topo), Vec::new()));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for i in 0..250 {
                    m.lock().push(t * 1000 + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let v = m.lock();
    assert_eq!(v.len(), 1000);
    // Per-thread subsequences must appear in order (lock-serialized pushes).
    for t in 0..4u64 {
        let mine: Vec<u64> = v.iter().copied().filter(|x| x / 1000 == t).collect();
        assert!(mine.windows(2).all(|w| w[0] < w[1]));
    }
}

/// A global token taken by one thread and released by another, while a
/// third contends — what a cohort asks of its global lock.
fn global_token_transfers<G: ThreadOblivious + 'static>(lock: G) {
    let lock = Arc::new(lock);
    for _ in 0..50 {
        let t = lock.lock();
        let contender = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let t = lock.lock();
                // SAFETY: our own token.
                unsafe { lock.unlock(t) };
            })
        };
        let releaser = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                // SAFETY: token handed over; thread-obliviousness.
                unsafe { lock.unlock(t) };
            })
        };
        releaser.join().unwrap();
        contender.join().unwrap();
    }
}

#[test]
fn mcs_global_token_transfers_between_cohort_threads() {
    // The C-MCS-MCS scenario distilled: the node in the token changes
    // hands through the pools.
    global_token_transfers(base_locks::McsLock::new());
}

#[test]
fn recip_global_token_transfers_between_cohort_threads() {
    // The C-Recip-MCS scenario distilled: the token is two plain words,
    // so thread-obliviousness needs no node-ownership transfer at all.
    global_token_transfers(base_locks::ReciprocatingLock::new());
}

#[test]
fn every_registry_lock_supports_nested_distinct_instances() {
    // Two instances of the same kind must be independent.
    let topo = Arc::new(Topology::new(4));
    for kind in [
        LockKind::Mcs,
        LockKind::Hclh,
        LockKind::FcMcs,
        LockKind::Cna,
        LockKind::CnaTight,
        LockKind::CBoBo,
        LockKind::CMcsMcs,
        LockKind::FisBoMcs,
        LockKind::FisTktMcs,
        LockKind::ACBoClh,
        LockKind::GcrMcs,
        LockKind::GcrCBoMcs,
        LockKind::GcrFisBoMcs,
        LockKind::Recip,
        LockKind::CRecipMcs,
    ] {
        let a = kind.make(&topo);
        let b = kind.make(&topo);
        a.acquire_write();
        b.acquire_write(); // must not deadlock on a's being held
        b.release_write();
        a.release_write();
    }
}

#[test]
fn fissile_mutex_guard_and_try_lock_semantics() {
    // The fissile lock behind the same RAII guard as every other
    // composition, plus its word-exact try_lock: a held word (either
    // path) reports busy, a free one is taken through the fast path.
    let topo = Arc::new(Topology::new(4));
    let m: Arc<SpinMutex<u64, FisBoMcs>> =
        Arc::new(SpinMutex::with_lock(FisBoMcs::new(Arc::clone(&topo)), 0));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for _ in 0..500 {
                    *m.lock() += 1;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*m.lock(), 2_000);
    let s = m.raw().cohort_stats();
    assert_eq!(s.fast_acquisitions + s.slow_acquisitions, 2_001);

    let l = FisBoMcs::new(topo);
    let t = l.try_lock().expect("free word");
    assert!(l.try_lock().is_none(), "held word reports busy");
    unsafe { l.unlock(t) };
}

#[test]
fn gcr_mutex_guard_and_try_lock_semantics() {
    // The admission wrapper behind the same RAII guard as every other
    // composition: passive queues and promotions stay invisible to the
    // guard user, and try_lock is exactly the inner lock's probe (never
    // parks, never counts as admitted).
    let topo = Arc::new(Topology::new(4));
    let m: Arc<SpinMutex<u64, GcrCBoMcs>> = Arc::new(SpinMutex::with_lock(
        GcrCBoMcs::over(Arc::clone(&topo), CBoMcs::new(Arc::clone(&topo))),
        0,
    ));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for _ in 0..500 {
                    *m.lock() += 1;
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*m.lock(), 2_000);
    // The inner cohort lock's counters pass through the wrapper and
    // conserve: every acquisition started a tenure or inherited one.
    let s = m.raw().cohort_stats();
    assert_eq!(s.tenures() + s.local_handoffs(), 2_001);

    let l = GcrCBoMcs::over(Arc::clone(&topo), CBoMcs::new(topo));
    let t = l.try_lock().expect("free lock");
    assert!(l.try_lock().is_none(), "held inner lock reports busy");
    unsafe { l.unlock(t) };
}

/// A thread panics while its guard holds `lock`: unwinding drops the
/// guard, which must release every layer (local, global, fissile word)
/// and book the acquisition exactly once.
fn panic_in_critical_section_releases<L>(lock: L)
where
    L: RawLock + Introspect + Send + Sync + 'static,
{
    let m = Arc::new(SpinMutex::with_lock(lock, 0u64));
    let panicker = {
        let m = Arc::clone(&m);
        std::thread::spawn(move || {
            let mut guard = m.lock();
            *guard = 7;
            panic!("inside the critical section");
        })
    };
    assert!(panicker.join().is_err(), "the critical section panicked");
    let m2 = Arc::clone(&m);
    let seen = std::thread::spawn(move || *m2.try_lock().expect("released by the unwind"))
        .join()
        .unwrap();
    assert_eq!(seen, 7, "the panicking holder's write is visible");
    let s = m.raw().tenure_stats().expect("a policy-driven lock");
    assert_eq!(
        s.tenures() + s.local_handoffs() + s.fast_acquisitions,
        2,
        "each acquisition booked once: {s}"
    );
}

#[test]
fn panic_inside_a_guarded_critical_section_releases_the_lock() {
    let topo = Arc::new(Topology::new(4));
    panic_in_critical_section_releases(CBoMcs::new(Arc::clone(&topo)));
    panic_in_critical_section_releases(CnaLock::new(Arc::clone(&topo)));
    panic_in_critical_section_releases(FisBoMcs::new(topo));
}

#[test]
fn cohort_try_lock_under_contention_never_wedges() {
    let topo = Arc::new(Topology::new(4));
    let lock = Arc::new(CTktTkt::new(topo));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let mut acquired = 0u32;
                for _ in 0..2_000 {
                    if let Some(t) = lock.try_lock() {
                        acquired += 1;
                        unsafe { lock.unlock(t) };
                    } else {
                        std::thread::yield_now();
                    }
                }
                acquired
            })
        })
        .collect();
    let total: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "someone must have succeeded");
    // And blocking acquisition still works afterwards.
    let t = lock.lock();
    unsafe { lock.unlock(t) };
}

/// A counter only a lock guards: the increments below race unless every
/// kind really excludes.
struct Unguarded(UnsafeCell<u64>);

// SAFETY: every access below happens while holding the lock under test.
unsafe impl Sync for Unguarded {}

#[test]
fn sixteen_threads_per_cpu_complete_on_every_kind() {
    let kinds = LockKind::ALL.into_iter();
    sixteen_threads_per_cpu_complete(kinds.filter(|&k| k != LockKind::Pthread));
}

/// Its own test, so that ThreadSanitizer can skip exactly this cell: the
/// parking_lot shim's lock is std's uninstrumented `Mutex`, so TSan sees
/// no order between the critical sections it guards.
#[test]
fn sixteen_threads_per_cpu_complete_on_pthread() {
    sixteen_threads_per_cpu_complete([LockKind::Pthread]);
}

/// 16 × CPUs threads each complete their acquisitions on every kind of
/// `kinds`, under a 60 s watchdog per kind.
fn sixteen_threads_per_cpu_complete(kinds: impl IntoIterator<Item = LockKind>) {
    // Acquisitions per thread: the whole sweep stays within seconds on
    // one CPU.
    const PER_THREAD: u64 = 1_000;
    let threads = 16 * std::thread::available_parallelism().map_or(1, |n| n.get());
    let topo = Arc::new(Topology::new(4));
    for kind in kinds {
        let lock = AnyLockKind::Excl(kind).make(&topo, None);
        let counter = Arc::new(Unguarded(UnsafeCell::new(0)));
        let start = Arc::new(Barrier::new(threads));
        let (tx, rx) = mpsc::channel();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (lock, counter) = (Arc::clone(&lock), Arc::clone(&counter));
                let (start, tx) = (Arc::clone(&start), tx.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..PER_THREAD {
                        lock.acquire_write();
                        // SAFETY: the lock is held.
                        unsafe { *counter.0.get() += 1 };
                        lock.release_write();
                    }
                    let _ = tx.send(());
                })
            })
            .collect();
        drop(tx);
        for _ in &handles {
            rx.recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("{kind}: {threads} workers did not finish ({e})"));
        }
        for h in handles {
            h.join().expect("worker reported done");
        }
        // SAFETY: every worker has joined.
        let total = unsafe { *counter.0.get() };
        assert_eq!(total, threads as u64 * PER_THREAD, "{kind}");
    }
}
