//! Lock-handoff timing, migration counting, and batch statistics.

use crate::model::CostModel;
use numa_topology::{vclock, ClusterId};
use std::sync::atomic::{AtomicU64, Ordering};

const CLUSTER_NONE: u64 = 0xFF;
// Packed: bits 0..56 release timestamp (ns), bits 56..64 releasing cluster.
const TS_MASK: u64 = (1 << 56) - 1;

/// `counter += 1` by its only writer. Every counter in this file is
/// written by the current lock holder alone (the [`HandoffChannel`]
/// protocol), and the lock's own release/acquire edge carries the value to
/// the next holder, so a plain load and store replace the locked
/// read-modify-write.
#[inline]
fn bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Histogram of cohort *batch lengths*: how many consecutive acquisitions a
/// lock served from the same cluster before migrating.
///
/// Buckets are powers of two: bucket `i` counts batches of length in
/// `[2^i, 2^(i+1))`; the last bucket is open-ended. Section 4.1.2 of the
/// paper attributes cohort locks' low miss rates to these batches growing
/// dynamically under contention.
///
/// Single-writer like the rest of the channel: only the lock holder
/// records into it.
#[derive(Debug)]
#[repr(transparent)]
pub struct BatchHistogram {
    buckets: [AtomicU64; Self::BUCKETS],
}

impl BatchHistogram {
    /// Number of power-of-two buckets (lengths up to 2^19 and beyond).
    pub const BUCKETS: usize = 20;

    fn new() -> Self {
        BatchHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, len: u64) {
        let b = (63 - len.max(1).leading_zeros() as usize).min(Self::BUCKETS - 1);
        bump(&self.buckets[b]);
    }

    /// Snapshot of bucket counts.
    pub fn snapshot(&self) -> [u64; Self::BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Mean batch length implied by the histogram (bucket midpoints).
    pub fn mean(&self) -> f64 {
        let snap = self.snapshot();
        let (mut n, mut sum) = (0u64, 0f64);
        for (i, &c) in snap.iter().enumerate() {
            n += c;
            sum += c as f64 * 1.5 * (1u64 << i) as f64;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// What [`HandoffChannel::on_acquire`] learned about this acquisition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AcquireInfo {
    /// True if the previous holder ran on a different cluster (a **lock
    /// migration** in the paper's terminology).
    pub migrated: bool,
    /// True if this is the first acquisition since the channel was reset.
    pub first: bool,
    /// The acquirer's virtual time after the handoff charge.
    pub now_ns: u64,
}

/// Virtual-time channel through which a lock "hands off" time and locality
/// information from releaser to acquirer.
///
/// Usage protocol (enforced by the harness, not the type): the owner calls
/// [`on_acquire`](Self::on_acquire) right after acquiring the underlying
/// lock and [`on_release`](Self::on_release) right before releasing it.
/// Because both calls happen while holding the lock, nothing in the
/// channel is ever written concurrently: the packed word, the counters and
/// the histogram all have the holder as their single writer and are
/// updated with plain loads and stores — the channel issues no locked
/// instruction. `Acquire`/`Release` orderings on the packed word make the
/// timestamp transfer well-defined across the real lock's own fences.
///
/// Layout: everything an acquisition writes — the packed word, the three
/// counters and the histogram buckets for batches shorter than 16 — sits
/// on the first 64 bytes of a 128-byte-aligned block, so a handoff moves
/// one line of channel state between clusters; the read-only model comes
/// last.
///
/// The channel is deliberately **algorithm-agnostic**: it wraps any lock
/// without touching its internals, so every lock in the suite — ours, the
/// baselines, and `std::sync::Mutex` — is costed identically.
#[derive(Debug)]
#[repr(C, align(128))]
pub struct HandoffChannel {
    state: AtomicU64,
    acquisitions: AtomicU64,
    migrations: AtomicU64,
    /// Length of the current same-cluster run.
    run: AtomicU64,
    batches: BatchHistogram,
    model: CostModel,
}

impl HandoffChannel {
    /// Creates a channel with the given latency model.
    pub fn new(model: CostModel) -> Self {
        HandoffChannel {
            state: AtomicU64::new(CLUSTER_NONE << 56),
            acquisitions: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            run: AtomicU64::new(0),
            batches: BatchHistogram::new(),
            model,
        }
    }

    /// Records an acquisition by `cluster`: charges the handoff latency
    /// (local or remote) on top of the releaser's published timestamp and
    /// updates migration/batch statistics.
    pub fn on_acquire(&self, cluster: ClusterId) -> AcquireInfo {
        let packed = self.state.load(Ordering::Acquire);
        let prev_cluster = packed >> 56;
        let prev_ts = packed & TS_MASK;
        bump(&self.acquisitions);

        let first = prev_cluster == CLUSTER_NONE;
        let migrated = !first && prev_cluster != cluster.as_u32() as u64;
        let now_ns = if first {
            vclock::now()
        } else {
            let handoff = if migrated {
                self.model.remote_handoff_ns
            } else {
                self.model.local_handoff_ns
            };
            vclock::set_at_least(prev_ts + handoff)
        };

        if migrated {
            bump(&self.migrations);
            let run = self.run.load(Ordering::Relaxed);
            self.run.store(1, Ordering::Relaxed);
            if run > 0 {
                self.batches.record(run);
            }
        } else {
            bump(&self.run);
        }

        AcquireInfo {
            migrated,
            first,
            now_ns,
        }
    }

    /// Publishes the releaser's current virtual time and cluster. Must be
    /// called while still holding the lock.
    pub fn on_release(&self, cluster: ClusterId) {
        let ts = vclock::now() & TS_MASK;
        self.state
            .store(((cluster.as_u32() as u64) << 56) | ts, Ordering::Release);
    }

    /// Total acquisitions recorded.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Total lock migrations (cross-cluster handoffs) recorded.
    pub fn migrations(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// The batch-length histogram.
    pub fn batches(&self) -> &BatchHistogram {
        &self.batches
    }

    /// Resets timestamps and statistics (between benchmark runs).
    pub fn reset(&self) {
        self.state.store(CLUSTER_NONE << 56, Ordering::Relaxed);
        self.acquisitions.store(0, Ordering::Relaxed);
        self.migrations.store(0, Ordering::Relaxed);
        self.run.store(0, Ordering::Relaxed);
        for b in &self.batches.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const C0: ClusterId = ClusterId::new(0);
    const C1: ClusterId = ClusterId::new(1);

    fn ch() -> HandoffChannel {
        HandoffChannel::new(CostModel::t5440())
    }

    #[test]
    fn first_acquire_has_no_predecessor() {
        let c = ch();
        vclock::reset();
        let info = c.on_acquire(C0);
        assert!(info.first);
        assert!(!info.migrated);
        assert_eq!(c.migrations(), 0);
    }

    #[test]
    fn same_cluster_handoff_is_local() {
        let c = ch();
        vclock::reset();
        c.on_acquire(C0);
        vclock::set(100);
        c.on_release(C0);
        vclock::set(0);
        let info = c.on_acquire(C0);
        assert!(!info.migrated);
        // Raised to release ts + local handoff.
        assert_eq!(info.now_ns, 100 + CostModel::t5440().local_handoff_ns);
        vclock::reset();
    }

    #[test]
    fn cross_cluster_handoff_migrates_and_costs_more() {
        let c = ch();
        vclock::reset();
        c.on_acquire(C0);
        vclock::set(100);
        c.on_release(C0);
        vclock::set(0);
        let info = c.on_acquire(C1);
        assert!(info.migrated);
        assert_eq!(info.now_ns, 100 + CostModel::t5440().remote_handoff_ns);
        assert_eq!(c.migrations(), 1);
        vclock::reset();
    }

    #[test]
    fn acquirer_ahead_of_releaser_keeps_its_clock() {
        let c = ch();
        vclock::reset();
        c.on_acquire(C0);
        vclock::set(100);
        c.on_release(C0);
        vclock::set(10_000);
        let info = c.on_acquire(C0);
        assert_eq!(info.now_ns, 10_000);
        vclock::reset();
    }

    #[test]
    fn batches_recorded_on_migration() {
        let c = ch();
        vclock::reset();
        for _ in 0..5 {
            c.on_acquire(C0);
            c.on_release(C0);
        }
        c.on_acquire(C1); // ends a batch of length 5
        c.on_release(C1);
        let snap = c.batches().snapshot();
        // Length 5 falls in bucket [4,8) = index 2.
        assert_eq!(snap[2], 1);
        assert_eq!(c.acquisitions(), 6);
        vclock::reset();
    }

    #[test]
    fn an_acquisition_writes_one_line() {
        use std::mem::{align_of, offset_of};
        assert_eq!(align_of::<HandoffChannel>(), 128);
        assert!(offset_of!(HandoffChannel, state) < 64);
        assert!(offset_of!(HandoffChannel, acquisitions) < 64);
        assert!(offset_of!(HandoffChannel, migrations) < 64);
        assert!(offset_of!(HandoffChannel, run) < 64);
        // Buckets 0..4 (batches shorter than 16) share that line; the
        // read-only model is past everything that is written.
        assert_eq!(offset_of!(HandoffChannel, batches), 32);
        assert!(offset_of!(HandoffChannel, model) >= 32 + 8 * BatchHistogram::BUCKETS);
    }

    #[test]
    fn histogram_mean_sane() {
        let h = BatchHistogram::new();
        for _ in 0..10 {
            h.record(4);
        }
        let m = h.mean();
        assert!((4.0..=8.0).contains(&m), "mean {m}");
    }
}
