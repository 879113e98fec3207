//! Integration: cross-crate lock semantics that unit tests cannot cover —
//! tokens crossing threads, guards over cohort locks, registry coverage.

use base_locks::{RawLock, SpinMutex};
use cohort::{CBoMcs, CTktTkt, FisBoMcs, GcrCBoMcs, GlobalLock};
use lbench::LockKind;
use numa_topology::Topology;
use std::sync::Arc;

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

#[test]
fn mcs_global_token_transfers_between_cohort_threads() {
    // The C-MCS-MCS scenario distilled: a global MCS token taken by one
    // thread and released by another, while a third contends.
    let lock = Arc::new(base_locks::McsLock::new());
    for _ in 0..50 {
        let t = GlobalLock::lock(&*lock);
        let contender = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let t = GlobalLock::lock(&*lock);
                // SAFETY: our own token.
                unsafe { GlobalLock::unlock(&*lock, t) };
            })
        };
        let releaser = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                // SAFETY: token handed over; thread-obliviousness.
                unsafe { GlobalLock::unlock(&*lock, t) };
            })
        };
        releaser.join().unwrap();
        contender.join().unwrap();
    }
}

#[test]
fn recip_global_token_transfers_between_cohort_threads() {
    // The C-Recip-MCS scenario distilled: a reciprocating token taken by
    // one thread and released by another, while a third contends — the
    // token is two plain words, so thread-obliviousness needs no
    // node-ownership transfer at all.
    let lock = Arc::new(base_locks::ReciprocatingLock::new());
    for _ in 0..50 {
        let t = GlobalLock::lock(&*lock);
        let contender = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                let t = GlobalLock::lock(&*lock);
                // SAFETY: our own token.
                unsafe { GlobalLock::unlock(&*lock, t) };
            })
        };
        let releaser = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                // SAFETY: token handed over; thread-obliviousness.
                unsafe { GlobalLock::unlock(&*lock, t) };
            })
        };
        releaser.join().unwrap();
        contender.join().unwrap();
    }
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
    // composition: sticky grants, promotions, and self-deactivation all
    // stay invisible to the guard user, and try_lock is exactly the
    // inner lock's probe (never parks, never takes a grant).
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
