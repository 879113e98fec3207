//! Property tests for the GCR admission layer: randomized thread
//! counts, cluster counts, run lengths and critical-section shapes, each
//! case checking the GCR invariants:
//!
//! 1. **mutual exclusion through the wrapper** — the torn-counter
//!    detector never observes a raced critical section, whichever mix
//!    of direct entries, passive-queue waits and rotation promotions the
//!    schedule produces (exclusion must be carried entirely by the inner
//!    lock);
//! 2. **no lost waiters** — every acquisition completes, so the run
//!    *finishing* at the exact op count is itself the evidence (a stall
//!    fails after 60 s with the lock's state, not as a suite timeout);
//!    the accounting must balance — promotions never exceed park
//!    events, and once every worker is done the active count is 0;
//! 3. **rotation promotes parked threads** — with more threads than
//!    [`ACTIVE_CAP`] on one cluster, waiting heads are brought in through
//!    release-count promotions (bounded wait), not merely through luck
//!    with a freed slot.

use lock_cohorting::base_locks::{McsLock, RawLock};
use lock_cohorting::cohort::gcr::{GcrLock, ACTIVE_CAP, ROTATE_EVERY};
use lock_cohorting::numa_topology::{
    bind_current_thread, reset_thread_binding, ClusterId, Topology,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

type Gcr = GcrLock<McsLock>;

/// Runs `body(i)` on `n` threads and returns their results, joining them
/// once all report done within 60 s; a stall (or a panicking worker)
/// panics with the lock's state instead of timing CI out.
fn run_workers<F>(n: usize, lock: &Arc<Gcr>, body: F) -> Vec<u64>
where
    F: Fn(usize) -> u64 + Send + Sync + 'static,
{
    let (tx, rx) = mpsc::channel();
    let body = Arc::new(body);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let (tx, body) = (tx.clone(), Arc::clone(&body));
            std::thread::spawn(move || {
                let _ = tx.send(body(i));
            })
        })
        .collect();
    drop(tx);
    let results = (0..n)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("GCR workers did not finish ({e}): {lock:?}"))
        })
        .collect();
    for h in handles {
        h.join().expect("worker reported done");
    }
    results
}

/// Outcome of one randomized run, aggregated across its worker threads.
struct RunOutcome {
    /// Torn critical sections observed (must be 0).
    violations: u64,
    /// Acquisitions completed (must equal `threads * iters`).
    ops: u64,
}

fn run_contended(
    lock: &Arc<Gcr>,
    topo: &Arc<Topology>,
    threads: usize,
    iters: u64,
    cs_yield: bool,
) -> RunOutcome {
    let a = Arc::new(AtomicU64::new(0));
    let b = Arc::new(AtomicU64::new(0));
    let violations = Arc::new(AtomicU64::new(0));
    // Start together so arrivals actually collide and the passive
    // queues fill.
    let barrier = Arc::new(Barrier::new(threads));
    let (lock_w, topo, viol) = (Arc::clone(lock), Arc::clone(topo), Arc::clone(&violations));
    let ops = run_workers(threads, lock, move |i| {
        bind_current_thread(&topo, ClusterId::new((i % topo.clusters()) as u32));
        barrier.wait();
        for _ in 0..iters {
            let t = lock_w.lock();
            let va = a.load(Ordering::Relaxed);
            let vb = b.load(Ordering::Relaxed);
            if va != vb {
                viol.fetch_add(1, Ordering::Relaxed);
            }
            a.store(va + 1, Ordering::Relaxed);
            // Descheduling while holding stretches the critical section
            // (single-core hosts timeslice whole loops otherwise).
            if cs_yield {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
            b.store(vb + 1, Ordering::Relaxed);
            // SAFETY: token from this lock's own `lock()`.
            unsafe { lock_w.unlock(t) };
        }
        reset_thread_binding();
        iters
    });
    RunOutcome {
        violations: violations.load(Ordering::Relaxed),
        ops: ops.iter().sum(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gcr_invariants_hold_under_random_configurations(
        threads in 2usize..9,
        clusters in 1usize..5,
        iters in 40u64..600,
        cs_yield in any::<bool>(),
    ) {
        let topo = Arc::new(Topology::new(clusters));
        let lock: Arc<Gcr> = Arc::new(GcrLock::over(Arc::clone(&topo), McsLock::new()));
        let out = run_contended(&lock, &topo, threads, iters, cs_yield);

        // 1: mutual exclusion is carried by the inner lock, whatever
        // the admission layer decided.
        prop_assert_eq!(out.violations, 0, "critical section raced");

        // 2: no lost waiters — a head stuck forever would have stalled
        // the run before this point; the ledger must balance.
        prop_assert_eq!(out.ops, threads as u64 * iters);
        prop_assert!(
            lock.promotions() <= lock.passive_parks(),
            "{} promotions exceed {} park events (a head admitted twice?)",
            lock.promotions(),
            lock.passive_parks()
        );
        let stats = lock.cohort_stats();
        prop_assert_eq!(stats.passive_parks, lock.passive_parks());
        prop_assert_eq!(stats.promotions, lock.promotions());
        prop_assert_eq!(lock.active(), 0, "admissions outlived their releases: {:?}", lock);
    }
}

/// Deterministic companion: `ACTIVE_CAP + 2` threads on one cluster keep
/// a head waiting, so release-count rotations must promote it within a
/// bounded number of lock/unlock cycles — the "rotation eventually
/// promotes every waiting head" property in its simplest shape.
#[test]
fn rotation_promotes_within_bounded_cycles() {
    let threads = ACTIVE_CAP as usize + 2;
    let lock: Arc<Gcr> = Arc::new(GcrLock::over(Arc::new(Topology::new(1)), McsLock::new()));
    let barrier = Arc::new(Barrier::new(threads));
    let lock_w = Arc::clone(&lock);
    run_workers(threads, &lock, move |_| {
        barrier.wait();
        // Loop until the lock has witnessed a healthy number of
        // promotions; the iteration cap bounds the wait (a rotation that
        // stopped promoting fails the assert below rather than hanging).
        for _ in 0..200 * ROTATE_EVERY {
            if lock_w.promotions() >= 5 {
                break;
            }
            let t = lock_w.lock();
            std::thread::yield_now();
            // SAFETY: our own token.
            unsafe { lock_w.unlock(t) };
        }
        0
    });
    assert!(
        lock.promotions() >= 5,
        "rotation stopped promoting: {lock:?}"
    );
    assert_eq!(lock.active(), 0, "every admission was released");
}
