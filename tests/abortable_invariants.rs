//! Integration: abortable cohort locks under abort storms — the §3.6
//! deadlock scenarios must be impossible — and the engine's own way out
//! of a run whose acquisitions all time out.

use base_locks::{RawAbortableLock, RawLock};
use cohort::{AcBoBo, AcBoClh};
use lbench::{run_scenario_on, AnyLockKind, LBenchConfig, LockKind, Scenario};
use numa_topology::Topology;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn storm<L>(lock: Arc<L>)
where
    L: RawLock + RawAbortableLock + 'static,
{
    let acquired = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let lock = Arc::clone(&lock);
            let acquired = Arc::clone(&acquired);
            std::thread::spawn(move || {
                for round in 0..400u64 {
                    // Mixed patience: from hopeless (always aborts under
                    // contention) to infinite.
                    let tok = match (i + round as usize) % 3 {
                        0 => lock.lock_with_patience(1_000),
                        1 => lock.lock_with_patience(500_000),
                        _ => Some(lock.lock()),
                    };
                    if let Some(t) = tok {
                        acquired.fetch_add(1, Ordering::Relaxed);
                        unsafe { lock.unlock(t) };
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // The lock must still be perfectly usable.
    let t = lock.lock();
    unsafe { lock.unlock(t) };
    let t = lock.lock_with_patience(u64::MAX / 4).expect("free lock");
    unsafe { lock.unlock(t) };
    assert!(acquired.load(Ordering::Relaxed) > 0);
}

#[test]
fn a_c_bo_bo_survives_abort_storm() {
    storm(Arc::new(AcBoBo::new(Arc::new(Topology::new(4)))));
}

#[test]
fn a_c_bo_clh_survives_abort_storm() {
    storm(Arc::new(AcBoClh::new(Arc::new(Topology::new(4)))));
}

#[test]
fn aborts_never_strand_the_global_lock() {
    // One holder, many aborting waiters, then release: the next acquirer
    // must get through promptly — if an abort stranded the global lock
    // this would hang (caught by the test harness timeout).
    for _ in 0..20 {
        let lock = Arc::new(AcBoClh::new(Arc::new(Topology::new(4))));
        let t = lock.lock();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    let _ = lock.lock_with_patience(50_000);
                })
            })
            .collect();
        for w in waiters {
            w.join().unwrap();
        }
        unsafe { lock.unlock(t) };
        let t = lock.lock();
        unsafe { lock.unlock(t) };
    }
}

#[test]
fn zero_patience_on_a_held_lock_stops_at_max_wall() {
    // The lock is held from outside for the whole run and patience is
    // zero: every acquisition times out at once, no virtual time ever
    // passes, and only the engine's wall-clock net can end the run — at
    // its first reading, with no wall time allowed.
    let topo = Arc::new(Topology::new(4));
    let kind = AnyLockKind::Excl(LockKind::ACBoClh);
    let lock = kind.make(&topo, None);
    lock.acquire_write();
    let cfg = LBenchConfig {
        threads: 1,
        max_wall: std::time::Duration::ZERO,
        ..Default::default()
    };
    let scenario = Scenario::steady().with_patience(0);
    let r = run_scenario_on(kind, Arc::clone(&lock), topo, &scenario, &cfg);
    lock.release_write();
    assert_eq!(r.total_ops, 0, "the lock was never free");
    assert_eq!(r.aborts, 512, "the net is read every 512th iteration");
}
