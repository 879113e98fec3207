//! Quickstart: protect shared state with a NUMA-aware cohort lock.
//!
//! Run with: `cargo run --release --example quickstart`

use lock_cohorting::cohort::{CBoMcs, CohortMutex};
use lock_cohorting::numa_topology::Topology;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Describe the machine: 4 NUMA clusters (the paper's machine, and
    // `Topology::default()`; `Topology::measured` takes a probed CPU map).
    let topo = Arc::new(Topology::new(4));

    // A C-BO-MCS cohort lock (the paper's best performer): global
    // test-and-set lock, per-cluster MCS queues. Any of the seven
    // compositions drops in here.
    let lock = CBoMcs::new(Arc::clone(&topo));
    println!("lock: {lock:?}");

    // CohortMutex is an RAII wrapper: guards release on drop.
    let counter: Arc<CohortMutex<u64, CBoMcs>> = Arc::new(CohortMutex::with_lock(lock, 0));

    let t0 = Instant::now();
    let threads = 8;
    let iters = 100_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || {
                for _ in 0..iters {
                    // Threads of the same cluster hand the lock to each
                    // other at local cost; the global lock is released
                    // only when the cluster runs dry or after 64
                    // consecutive local handoffs (`PolicySpec::Count`).
                    *counter.lock() += 1;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total = *counter.lock();
    assert_eq!(total, threads * iters);
    println!(
        "{} increments by {} threads across {} clusters in {:?}",
        total,
        threads,
        topo.clusters(),
        t0.elapsed()
    );

    // Every cohort lock reports its tenure behaviour — how often the
    // global lock changed hands vs. how often it was passed within a
    // cluster. The fairness policy is a value (PolicySpec): count(64)
    // here, or Time (wall nanoseconds) / Adaptive / Unbounded / NeverPass
    // via CohortLock::with_policy.
    let lock = counter.raw();
    let stats = lock.cohort_stats();
    println!(
        "fairness policy: {} — {} tenures, {} local handoffs, mean streak {:.1}, max streak {}",
        lock.policy().spec(),
        stats.tenures(),
        stats.local_handoffs(),
        stats.mean_streak(),
        stats.max_streak()
    );
}
