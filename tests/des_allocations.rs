//! Integration: a modelled DES cell allocates nothing per logical thread.
//!
//! The simulator keeps its buffers (thread table, event heap, lane,
//! waiting queues, reciprocating segment, latency log) in a per-OS-thread
//! scratch between cells, so a steady-state cell's requests to the
//! allocator are the handful `run_scenario` makes around the simulation
//! (the lock object, the directory, the result's `per_thread_ops`) — a
//! number that must not depend on the logical-thread count, or the cell's
//! host cost depends on the allocator's trim/mmap thresholds again.
//!
//! One test in a binary of its own: the counting allocator is
//! process-wide, and nothing else may allocate while it counts.

use coherence_sim::CostModel;
use lbench::{run_scenario, AnyLockKind, LBenchConfig, LockKind, Scenario};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, counting every block requested (a `realloc` is one request
/// for its new size) and the bytes asked for.
struct Counting;

static BLOCKS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    BLOCKS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One cell of the benchmark's `des_4096` shape at `threads` logical
/// threads; returns its acquisitions.
fn cell(kind: LockKind, threads: usize) -> u64 {
    let cfg = LBenchConfig {
        threads,
        clusters: 4,
        window_ns: 1_000_000,
        noncs_max_ns: 0,
        ..Default::default()
    };
    let scenario = Scenario::steady().modelled(CostModel::disaggregated());
    run_scenario(AnyLockKind::Excl(kind), &scenario, &cfg).acquisitions
}

/// The largest `(blocks, bytes)` any of 20 cells requested, after three
/// warm ones.
fn worst_of_20(kind: LockKind, threads: usize) -> (u64, u64) {
    for _ in 0..3 {
        assert!(cell(kind, threads) > 0);
    }
    let mut worst = (0, 0);
    for _ in 0..20 {
        let before = (
            BLOCKS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        assert!(cell(kind, threads) > 0);
        let blocks = BLOCKS.load(Ordering::Relaxed) - before.0;
        let bytes = BYTES.load(Ordering::Relaxed) - before.1;
        worst = (worst.0.max(blocks), worst.1.max(bytes));
    }
    worst
}

#[test]
fn a_warm_des_cell_allocates_nothing_per_logical_thread() {
    // C-BO-MCS is the benchmark's cell; Mcs exercises the FIFO class,
    // Recip the segment buffer.
    for kind in [LockKind::CBoMcs, LockKind::Mcs, LockKind::Recip] {
        let (small_blocks, _) = worst_of_20(kind, 64);
        let (blocks, bytes) = worst_of_20(kind, 4096);
        assert!(
            blocks <= 64 && bytes <= 256 * 1024,
            "{kind:?}: a warm 4096-thread cell made {blocks} allocations \
             requesting {bytes} bytes (budget: 64 and 256 KiB)"
        );
        assert!(
            blocks < small_blocks + 16,
            "{kind:?}: {blocks} allocations at 4096 threads against \
             {small_blocks} at 64 — something allocates per logical thread"
        );
    }
}
