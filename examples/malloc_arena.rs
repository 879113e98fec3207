//! Scenario: a single-lock allocator under allocation-heavy threads.
//!
//! Reproduces the paper's §4.3 observation in miniature: with a cohort
//! lock, the splay tree's hot nodes and the recycled 64-byte blocks stay
//! inside one NUMA cluster, so both the allocator metadata and the
//! application's freshly-allocated memory are cache-local.
//!
//! Run with: `cargo run --release --example malloc_arena`

use lock_cohorting::cohort_alloc::workload::MmicroWorkload;
use lock_cohorting::lbench::LockKind;

fn main() {
    let w = MmicroWorkload {
        threads: 16,
        window_ns: 5_000_000,
        ..Default::default()
    };
    println!(
        "mmicro (64-byte malloc/free pairs), {} threads:\n",
        w.threads
    );
    for kind in [
        LockKind::Pthread,
        LockKind::Mcs,
        LockKind::FcMcs,
        LockKind::CBoMcs,
    ] {
        let r = w.run(kind);
        println!(
            "  {:>10}: {:>7.0} pairs/ms   ({} migrations over {} acquisitions)",
            kind.name(),
            // The engine's throughput channel is pairs per *second*.
            r.throughput / 1e3,
            r.migrations,
            r.acquisitions,
        );
    }
    println!("\nTable 2 of the paper shows the same ordering: cohort locks");
    println!("reach 5-6x the single-thread rate while every other lock");
    println!("saturates around 2x.");
}
