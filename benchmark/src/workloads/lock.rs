//! `lock_uncontended` and `lock_handover`: one C-BO-MCS lock, built the
//! way every exhibit builds it, and the paper's §4.1 critical section.
//!
//! The same body runs every per-kind cell of the traced run, so a
//! layer cell and its end-to-end workload measure the same loop.

use super::run_threaded;
use crate::driver::{Body, Padded, Segment};
use crate::spec::Emitter;
use crate::trace::Recorder;
use crate::{Args, Verdict};
use lbench::{AnyLockKind, BenchRwLock, CohortStats, LockKind, PolicySpec};
use numa_topology::{bind_current_thread, ClusterId, Topology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual clusters of every lock the benchmark builds: the paper's
/// four-socket geometry.
pub const CLUSTERS: usize = 4;

/// Operations per timing sample: 1024 × ~95 ns uncontended and
/// 128 × ~1 µs contended are both ~0.1 ms, so the clock read is a
/// thousandth of a batch and a 15 s run keeps ~150 k samples per worker.
pub const BATCH_UNCONTENDED: u32 = 1024;
pub const BATCH_CONTENDED: u32 = 128;

/// The critical section of the paper's LBench (§4.1): write two distinct
/// shared cache lines. The first carries a counter that only the lock
/// protects — plain load, add, store — so a lost update shows as a
/// shortfall; the second the last owner, so ownership changes (lock
/// handovers between threads) are counted.
///
/// Relaxed atomic loads and stores compile to the plain moves a
/// non-atomic counter would, without the undefined behaviour a broken
/// lock would otherwise cause.
#[derive(Default)]
pub struct CriticalSection {
    counter: Padded<AtomicU64>,
    owner: Padded<[AtomicU64; 2]>,
}

impl CriticalSection {
    /// The exclusive side: both lines written.
    #[inline]
    pub fn write(&self, me: u64) {
        let c = &self.counter.0;
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        let [last, changes] = &self.owner.0;
        if last.load(Ordering::Relaxed) != me {
            changes.store(changes.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
        last.store(me, Ordering::Relaxed);
    }

    /// The shared side: both lines read.
    #[inline]
    pub fn read(&self) -> u64 {
        self.counter.0.load(Ordering::Relaxed) + self.owner.0[0].load(Ordering::Relaxed)
    }

    /// Critical sections that took effect.
    pub fn count(&self) -> u64 {
        self.counter.0.load(Ordering::Relaxed)
    }

    /// Critical sections entered by another thread than the previous one.
    pub fn owner_changes(&self) -> u64 {
        self.owner.0[1].load(Ordering::Relaxed)
    }
}

/// Workers that take the write side of one registry-built lock around
/// the [`CriticalSection`].
pub struct WriteLock {
    lock: Arc<dyn BenchRwLock>,
    cs: CriticalSection,
    topo: Arc<Topology>,
    /// Virtual cluster of each worker.
    clusters: Vec<u32>,
}

impl WriteLock {
    /// Builds `kind` over a fresh four-cluster topology through
    /// `AnyLockKind::make` — the `Arc<dyn BenchRwLock>` every exhibit
    /// drives. Worker `i` binds to virtual cluster `clusters[i]`.
    pub fn new(kind: AnyLockKind, policy: Option<PolicySpec>, clusters: &[u32]) -> WriteLock {
        let topo = Arc::new(Topology::new(CLUSTERS));
        WriteLock {
            lock: kind.make(&topo, policy),
            cs: CriticalSection::default(),
            topo,
            clusters: clusters.to_vec(),
        }
    }

    /// Every operation must have taken effect exactly once: the counter
    /// only the lock protects equals the operations run.
    pub fn verdict(&self, ops: u64, pinned: bool) -> Verdict {
        Verdict {
            attempted: ops,
            failed: ops.abs_diff(self.cs.count()),
            pinned,
        }
    }

    /// Share of operations that took the lock over from the other thread.
    pub fn handover_share(&self) -> f64 {
        self.cs.owner_changes() as f64 / self.cs.count().max(1) as f64
    }

    pub fn cohort_stats(&self) -> Option<CohortStats> {
        self.lock.cohort_stats()
    }
}

/// Binds the calling worker to its virtual cluster and returns its owner
/// id (never 0, the critical section's "no owner yet").
pub fn bind_worker(topo: &Topology, clusters: &[u32], tid: usize) -> u64 {
    bind_current_thread(topo, ClusterId::new(clusters[tid]));
    tid as u64 + 1
}

impl Body for WriteLock {
    type Local = u64;

    fn local(&self, tid: usize) -> u64 {
        bind_worker(&self.topo, &self.clusters, tid)
    }

    #[inline]
    fn op(&self, me: &mut u64) {
        self.lock.acquire_write();
        self.cs.write(*me);
        self.lock.release_write();
    }

    fn op_traced(&self, me: &mut u64, rec: &mut Recorder) {
        rec.op("bench.lock_op", |op| {
            op.span("lbench.acquire_write", || self.lock.acquire_write());
            op.span("bench.critical_section", || self.cs.write(*me));
            op.span("lbench.release_write", || self.lock.release_write());
        })
    }

    /// Releases that handed the lock to a waiter of the same cluster.
    fn gauge(&self) -> u64 {
        self.cohort_stats().map_or(0, |s| s.local_handoffs())
    }
}

/// Below this share of releases that found a waiter, a segment of
/// `lock_handover` did not measure handover. Two threads with no work
/// between critical sections can fall into step so that each finds the
/// lock just released: ownership still alternates (share 0.97) and
/// throughput is four times higher (~8 M ops/s), but nobody waits and
/// nothing is handed over — `local_handoffs` is under 0.1 of the
/// operations, against 0.3–0.7 when the releaser passes the lock on.
/// The two regimes alternate within a run, seconds at a time.
const MIN_HANDOFF_SHARE: f64 = 0.25;

/// Runs `lock_uncontended` (`threads == 1`) or `lock_handover` (2, both
/// on virtual cluster 0, so every handover takes the cohort-local path).
pub fn run(args: &Args, em: &mut Emitter, threads: usize) -> Result<Verdict, String> {
    let clusters = vec![0; threads];
    let batch = if threads == 1 {
        BATCH_UNCONTENDED
    } else {
        BATCH_CONTENDED
    };
    let hands_over = |seg: &Segment| {
        threads == 1 || args.smoke || seg.gauge as f64 >= MIN_HANDOFF_SHARE * seg.ops as f64
    };
    let (body, ops, pinned) = run_threaded(
        args,
        em,
        threads,
        batch,
        101,
        || WriteLock::new(AnyLockKind::Excl(LockKind::CBoMcs), None, &clusters),
        hands_over,
    )?;
    println!(
        "handover share: {:.4} (ownership changes / operations, whole run)",
        body.handover_share()
    );
    Ok(body.verdict(ops, pinned))
}
