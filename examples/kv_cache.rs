//! Scenario: a memcached-style cache service picks its cache lock.
//!
//! The paper's memcached experiment swaps the lock under an unmodified
//! binary; here the swap is a constructor argument. This example runs the
//! same write-heavy workload under a NUMA-oblivious MCS lock and under
//! C-TKT-MCS, and prints the throughput and lock-migration comparison.
//!
//! Run with: `cargo run --release --example kv_cache`

use lock_cohorting::cohort_kvstore::workload::KvWorkload;
use lock_cohorting::lbench::LockKind;

fn main() {
    let base = KvWorkload {
        get_pct: 10, // write-heavy: where NUMA-awareness pays (Table 1c)
        threads: 16,
        window_ns: 5_000_000,
        ..Default::default()
    };

    println!(
        "write-heavy key-value workload, {} threads:\n",
        base.threads
    );
    let mut baseline = None;
    for kind in [LockKind::Pthread, LockKind::Mcs, LockKind::CTktMcs] {
        let r = base.run(kind);
        let migration_pct = 100.0 * r.migrations as f64 / r.acquisitions.max(1) as f64;
        let speedup = baseline.map(|b: f64| r.throughput / b);
        println!(
            "  {:>10}: {:>9.0} ops/s  ({:>5.1}% of handoffs migrate clusters){}",
            kind.name(),
            r.throughput,
            migration_pct,
            match speedup {
                Some(s) => format!("  → {s:.2}x vs pthread"),
                None => String::new(),
            }
        );
        if kind == LockKind::Pthread {
            baseline = Some(r.throughput);
        }
    }
    println!("\nThe cohort lock keeps the hash table's hot lines (LRU head,");
    println!("bucket heads) inside one cluster for 64 operations at a time,");
    println!("which is exactly the effect Table 1 of the paper measures.");
}
