//! Scenario: apply the cohorting *transformation* to your own lock.
//!
//! The paper's §2 point is that cohorting is a recipe, not a fixed lock:
//! any thread-oblivious global lock plus any cohort-detecting local lock
//! compose into a NUMA-aware lock. This example builds a brand-new
//! composition that does not appear in the paper — a **ticket** global
//! lock over **local BO** locks ("C-TKT-BO") — purely from the public
//! traits, and verifies it behaves.
//!
//! Run with: `cargo run --release --example custom_cohort`

use lock_cohorting::base_locks::{RawLock, TicketLock};
use lock_cohorting::cohort::{CohortLock, LocalBoLock, PolicySpec};
use lock_cohorting::numa_topology::Topology;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A composition of existing parts: fair FIFO admission between clusters
/// (ticket), cheap unfair racing within a cluster (BO).
type CTktBo = CohortLock<TicketLock, LocalBoLock>;

fn main() {
    let topo = Arc::new(Topology::new(4));
    let lock = Arc::new(CTktBo::with_policy(
        Arc::clone(&topo),
        PolicySpec::Count { bound: 32 },
    ));

    let counter = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                for _ in 0..50_000 {
                    let token = lock.lock();
                    // Non-atomic read-modify-write made safe by the lock.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    // SAFETY: token from this lock's acquire.
                    unsafe { lock.unlock(token) };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.load(Ordering::Relaxed), 400_000);
    println!("C-TKT-BO (a composition the paper never built) works: 400000 ops");
    println!("policy = {}", lock.policy().spec());
}
