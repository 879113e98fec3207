//! Property tests for the cohort reader-writer lock: randomized thread
//! counts, mix ratios, fairness flavors, and writer-tenure bounds, each
//! case checking the four C-RW invariants:
//!
//! 1. **reader/writer exclusion** — no reader ever observes a writer
//!    inside the critical section;
//! 2. **writer exclusivity** — at most one writer inside at a time, and
//!    never concurrently with a counted reader;
//! 3. **reader-count conservation** — per-cluster reader counters return
//!    to zero at quiescence (every increment has its decrement);
//! 4. **bounded writer streaks** — no writer tenure exceeds the
//!    configured handoff-policy bound.

use lock_cohorting::base_locks::McsLock;
use lock_cohorting::cohort::{CohortRwLock, GlobalBoLock, PolicySpec, RwFairness};
use lock_cohorting::numa_topology::Topology;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type Rw = CohortRwLock<GlobalBoLock, McsLock>;

/// Outcome of one randomized run, aggregated across its worker threads.
struct RunOutcome {
    /// Readers that saw a writer in the critical section.
    reader_violations: u64,
    /// Writers that found company (another writer, or a counted reader).
    writer_violations: u64,
    /// Write acquisitions completed.
    write_ops: u64,
    /// Read acquisitions completed.
    read_ops: u64,
}

fn run_mix(rw: &Arc<Rw>, threads: usize, iters: u64, write_every: u64) -> RunOutcome {
    let writers_in = Arc::new(AtomicU64::new(0));
    let readers_in = Arc::new(AtomicU64::new(0));
    let reader_violations = Arc::new(AtomicU64::new(0));
    let writer_violations = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let rw = Arc::clone(rw);
            let writers_in = Arc::clone(&writers_in);
            let readers_in = Arc::clone(&readers_in);
            let reader_violations = Arc::clone(&reader_violations);
            let writer_violations = Arc::clone(&writer_violations);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                let mut writes = 0u64;
                for n in 0..iters {
                    // Deterministic interleaving of roles per thread;
                    // write_every == 0 means reads only.
                    let is_write = write_every != 0 && (n + i as u64).is_multiple_of(write_every);
                    if is_write {
                        let t = rw.lock_write();
                        if writers_in.fetch_add(1, Ordering::SeqCst) != 0
                            || readers_in.load(Ordering::SeqCst) != 0
                        {
                            writer_violations.fetch_add(1, Ordering::SeqCst);
                        }
                        std::hint::spin_loop();
                        writers_in.fetch_sub(1, Ordering::SeqCst);
                        writes += 1;
                        unsafe { rw.unlock_write(t) };
                    } else {
                        let t = rw.lock_read();
                        readers_in.fetch_add(1, Ordering::SeqCst);
                        if writers_in.load(Ordering::SeqCst) != 0 {
                            reader_violations.fetch_add(1, Ordering::SeqCst);
                        }
                        std::hint::spin_loop();
                        readers_in.fetch_sub(1, Ordering::SeqCst);
                        reads += 1;
                        unsafe { rw.unlock_read(t) };
                    }
                }
                (reads, writes)
            })
        })
        .collect();
    let mut read_ops = 0u64;
    let mut write_ops = 0u64;
    for h in handles {
        let (r, w) = h.join().expect("rw worker panicked");
        read_ops += r;
        write_ops += w;
    }
    RunOutcome {
        reader_violations: reader_violations.load(Ordering::SeqCst),
        writer_violations: writer_violations.load(Ordering::SeqCst),
        write_ops,
        read_ops,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn crw_invariants_hold_under_random_mixes(
        threads in 2usize..5,
        clusters in 1usize..5,
        iters in 40u64..120,
        write_every in 0u64..6,
        bound in 1u64..6,
        wp in any::<bool>(),
    ) {
        let fairness = if wp {
            RwFairness::WriterPreference
        } else {
            RwFairness::Neutral
        };
        let rw: Arc<Rw> = Arc::new(CohortRwLock::with_policy_and_fairness(
            Arc::new(Topology::new(clusters)),
            PolicySpec::Count { bound },
            fairness,
        ));
        let out = run_mix(&rw, threads, iters, write_every);

        // 1 + 2: exclusion.
        prop_assert_eq!(out.reader_violations, 0, "readers saw a writer");
        prop_assert_eq!(out.writer_violations, 0, "writer found company");
        prop_assert_eq!(out.read_ops + out.write_ops, threads as u64 * iters);

        // 3: per-cluster reader counts conserved.
        let counts = rw.reader_counts();
        prop_assert_eq!(counts.len(), clusters);
        prop_assert!(
            counts.iter().all(|&c| c == 0),
            "reader counts not conserved: {:?}",
            counts
        );

        // 4: writer streaks bounded by the policy; tenure accounting
        // balances against the write-op count.
        let stats = rw.cohort_stats();
        prop_assert!(
            stats.max_streak() <= bound,
            "streak {} exceeds bound {}",
            stats.max_streak(),
            bound
        );
        prop_assert_eq!(stats.tenures() + stats.local_handoffs(), out.write_ops);
    }
}
