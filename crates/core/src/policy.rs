//! The pluggable `may-pass-local` fairness layer (§2.1, §3.7).
//!
//! A cohort lock trades fairness for locality: the longer one cluster
//! keeps the global lock, the fewer lock migrations, but the longer remote
//! clusters starve. The paper bounds consecutive local handoffs by a
//! constant — **64** in all of its experiments — and reports (§4.1.1) that
//! unbounded handoff buys only ~10% throughput while allowing batches of
//! hundreds of thousands.
//!
//! The paper's constant is one point in a policy space. This module makes
//! the policy itself the pluggable part, in the spirit of the tunable
//! intra-socket threshold of *Compact NUMA-Aware Locks* (Dice & Kogan,
//! EuroSys '19) and the admission adaptation of *Avoiding Scalability
//! Collapse by Restricting Concurrency* (Dice & Kogan, Euro-Par '19):
//!
//! * [`HandoffPolicy`] — the trait: per-tenure lifecycle hooks
//!   ([`on_global_acquire`](HandoffPolicy::on_global_acquire),
//!   [`may_pass_local`](HandoffPolicy::may_pass_local),
//!   [`on_local_handoff`](HandoffPolicy::on_local_handoff),
//!   [`on_global_release`](HandoffPolicy::on_global_release)) plus a
//!   [`CohortStats`] snapshot fed by cache-padded per-cluster counters.
//! * [`CountBound`] — the paper's policy: at most `bound` consecutive
//!   local handoffs per tenure (64 by default).
//! * [`TimeBound`] — tenure capped by clock nanoseconds instead of handoff
//!   count, so fairness degrades gracefully under variable-length critical
//!   sections.
//! * [`AdaptiveBound`] — grows the bound while cut-off tenures show local
//!   demand, shrinks it when clusters run dry early; stays in `[min, max]`.
//! * [`Unbounded`] / [`NeverPass`] — the two degenerate corners (§3.7's
//!   "deeply unfair" variant, and every-release-goes-global).

use crossbeam_utils::CachePadded;
use numa_topology::{vclock, ClusterId};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Statistics

/// Per-cluster tenure counters of one cohort lock — a plain-value snapshot
/// of the cache-padded atomics each policy maintains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Tenures started (global-lock acquisitions by this cluster).
    pub tenures: u64,
    /// Intra-cluster lock handoffs committed.
    pub local_handoffs: u64,
    /// Tenures ended (global-lock releases by this cluster).
    pub global_releases: u64,
    /// Longest observed streak of consecutive local handoffs in one tenure.
    pub max_streak: u64,
    /// Sum of per-tenure streak lengths at release (for mean-streak math).
    pub sum_streak: u64,
}

/// Snapshot of a cohort lock's handoff behaviour, taken via
/// [`HandoffPolicy::snapshot`] (or `CohortLock::cohort_stats`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CohortStats {
    /// One entry per NUMA cluster.
    pub per_cluster: Vec<ClusterStats>,
    /// Acquisitions that took a fast-path wrapper's top-level word
    /// directly (see `cohort::fast_path`); 0 for plain cohort locks.
    /// Fast-path acquisitions never touch the policy layer, so they are
    /// *not* part of the per-cluster tenure counters.
    pub fast_acquisitions: u64,
    /// Acquisitions that fell into a fast-path wrapper's cohort slow
    /// path; 0 for plain cohort locks (whose every acquisition is
    /// already accounted in `per_cluster`).
    pub slow_acquisitions: u64,
    /// Arrivals a GCR admission layer diverted to a passive list (see
    /// `cohort::gcr`); 0 for unwrapped locks.
    pub passive_parks: u64,
    /// Parked threads a GCR admission layer's rotation promoted into the
    /// active set; 0 for unwrapped locks.
    pub promotions: u64,
}

impl CohortStats {
    /// Total tenures (global-lock acquisitions) across clusters.
    pub fn tenures(&self) -> u64 {
        self.per_cluster.iter().map(|c| c.tenures).sum()
    }

    /// Total intra-cluster handoffs across clusters.
    pub fn local_handoffs(&self) -> u64 {
        self.per_cluster.iter().map(|c| c.local_handoffs).sum()
    }

    /// Total global releases across clusters.
    pub fn global_releases(&self) -> u64 {
        self.per_cluster.iter().map(|c| c.global_releases).sum()
    }

    /// Longest local-handoff streak observed on any cluster.
    pub fn max_streak(&self) -> u64 {
        self.per_cluster
            .iter()
            .map(|c| c.max_streak)
            .max()
            .unwrap_or(0)
    }

    /// Mean local-handoff streak length per completed tenure.
    pub fn mean_streak(&self) -> f64 {
        let releases = self.global_releases();
        if releases == 0 {
            0.0
        } else {
            self.per_cluster.iter().map(|c| c.sum_streak).sum::<u64>() as f64 / releases as f64
        }
    }

    /// Folds `other` into `self`: per-cluster counters add pairwise
    /// (`max_streak` takes the max; a length mismatch keeps the longer
    /// vector's tail as-is), and the scalar counters — fast/slow splits
    /// and the GCR passive-park/promotion counters — add. Used to
    /// aggregate snapshots across sharded or per-instance locks.
    pub fn merge(&mut self, other: &CohortStats) {
        if self.per_cluster.len() < other.per_cluster.len() {
            self.per_cluster
                .resize(other.per_cluster.len(), ClusterStats::default());
        }
        for (mine, theirs) in self.per_cluster.iter_mut().zip(&other.per_cluster) {
            mine.tenures += theirs.tenures;
            mine.local_handoffs += theirs.local_handoffs;
            mine.global_releases += theirs.global_releases;
            mine.max_streak = mine.max_streak.max(theirs.max_streak);
            mine.sum_streak += theirs.sum_streak;
        }
        self.fast_acquisitions += other.fast_acquisitions;
        self.slow_acquisitions += other.slow_acquisitions;
        self.passive_parks += other.passive_parks;
        self.promotions += other.promotions;
    }
}

impl fmt::Display for CohortStats {
    /// One-line human summary, all layers included: tenure/handoff
    /// aggregates, the fissile fast/slow split, and the GCR
    /// park/promotion counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tenures {} local {} (mean streak {:.1}, max {}) fast {} slow {} parks {} promotions {}",
            self.tenures(),
            self.local_handoffs(),
            self.mean_streak(),
            self.max_streak(),
            self.fast_acquisitions,
            self.slow_acquisitions,
            self.passive_parks,
            self.promotions,
        )
    }
}

/// What a lock can say about its own handoff behaviour: the one
/// introspection surface harnesses and wrappers read, whatever the lock
/// type. Plain locks take the defaults (`impl Introspect for L {}`);
/// policy-driven locks report their [`CohortStats`] snapshot and the
/// installed policy's label, and wrappers ([`GcrLock`](crate::GcrLock))
/// fold their own counters into whatever the wrapped lock reports.
pub trait Introspect {
    /// Tenure statistics (`None` for locks without a tenure notion).
    fn tenure_stats(&self) -> Option<CohortStats> {
        None
    }

    /// Label of the installed handoff policy, e.g. `"count(64)"` (`None`
    /// for locks without one).
    fn policy_label(&self) -> Option<String> {
        None
    }
}

impl Introspect for base_locks::TatasLock {}
impl Introspect for base_locks::BackoffLock {}
impl Introspect for base_locks::FibBackoffLock {}
impl Introspect for base_locks::TicketLock {}
impl Introspect for base_locks::McsLock {}
impl Introspect for base_locks::ClhLock {}
impl Introspect for base_locks::AbortableClhLock {}
impl Introspect for base_locks::ReciprocatingLock {}

/// The cache-padded per-cluster counters behind [`CohortStats`]. Policies
/// embed one tracker and forward their lifecycle hooks to it.
///
/// Counters are only ever written by the thread currently holding the
/// cohort lock on that cluster, so the atomics are contention-free; they
/// are atomic (relaxed) only so concurrent [`snapshot`](Self::snapshot)
/// readers are race-free.
#[derive(Debug, Default)]
pub struct HandoffTracker {
    slots: Box<[CachePadded<TrackerSlot>]>,
}

#[derive(Debug, Default)]
struct TrackerSlot {
    tenures: AtomicU64,
    local_handoffs: AtomicU64,
    global_releases: AtomicU64,
    max_streak: AtomicU64,
    sum_streak: AtomicU64,
}

impl HandoffTracker {
    /// Sizes the tracker for `clusters` clusters (called from
    /// [`HandoffPolicy::bind`]).
    pub fn bind(&mut self, clusters: usize) {
        self.slots = (0..clusters).map(|_| CachePadded::default()).collect();
    }

    #[inline]
    fn slot(&self, cluster: ClusterId) -> Option<&TrackerSlot> {
        self.slots.get(cluster.as_usize()).map(|s| &**s)
    }

    /// Records a tenure start.
    #[inline]
    pub fn on_global_acquire(&self, cluster: ClusterId) {
        if let Some(s) = self.slot(cluster) {
            s.tenures.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a committed local handoff; `streak` is the releaser's count
    /// of handoffs already performed this tenure (so the new streak is
    /// `streak + 1`).
    #[inline]
    pub fn on_local_handoff(&self, cluster: ClusterId, streak: u64) {
        if let Some(s) = self.slot(cluster) {
            s.local_handoffs.fetch_add(1, Ordering::Relaxed);
            s.max_streak.fetch_max(streak + 1, Ordering::Relaxed);
        }
    }

    /// Records a tenure end after `streak` local handoffs.
    #[inline]
    pub fn on_global_release(&self, cluster: ClusterId, streak: u64) {
        if let Some(s) = self.slot(cluster) {
            s.global_releases.fetch_add(1, Ordering::Relaxed);
            s.sum_streak.fetch_add(streak, Ordering::Relaxed);
            s.max_streak.fetch_max(streak, Ordering::Relaxed);
        }
    }

    /// Plain-value snapshot of all counters.
    pub fn snapshot(&self) -> CohortStats {
        CohortStats {
            per_cluster: self
                .slots
                .iter()
                .map(|s| ClusterStats {
                    tenures: s.tenures.load(Ordering::Relaxed),
                    local_handoffs: s.local_handoffs.load(Ordering::Relaxed),
                    global_releases: s.global_releases.load(Ordering::Relaxed),
                    max_streak: s.max_streak.load(Ordering::Relaxed),
                    sum_streak: s.sum_streak.load(Ordering::Relaxed),
                })
                .collect(),
            ..CohortStats::default()
        }
    }
}

// ---------------------------------------------------------------------------
// The trait

/// A stateful fairness policy deciding when a cohort's tenure on the
/// global lock ends.
///
/// `CohortLock` invokes the lifecycle hooks from well-defined protocol
/// points, always on the thread currently holding the lock:
///
/// * [`on_global_acquire`](Self::on_global_acquire) — the cluster just
///   acquired the global lock; a tenure begins.
/// * [`may_pass_local`](Self::may_pass_local) — the holder is releasing
///   after `streak` consecutive local handoffs this tenure; may it hand
///   off to a cluster-mate (if one is waiting)?
/// * [`on_local_handoff`](Self::on_local_handoff) — a local handoff
///   *committed* (a successor existed and inherited the global lock).
/// * [`on_global_release`](Self::on_global_release) — the tenure ended
///   with a global release after `streak` local handoffs.
///
/// Concurrency contract: [`on_global_acquire`](Self::on_global_acquire)
/// and [`on_global_release`](Self::on_global_release) both run while the
/// global lock is held (release fires *before* the global unlock), so
/// they are totally ordered — across all clusters, not just within one.
/// [`may_pass_local`](Self::may_pass_local) and
/// [`on_local_handoff`](Self::on_local_handoff), however, run on holders
/// whose predecessor may still be finishing its own post-handoff hook, so
/// they can overlap same-cluster hook calls: any state they touch must be
/// atomic. Embedding a [`HandoffTracker`] (all-atomic) and forwarding the
/// hooks to it is the intended pattern, and keeps
/// [`snapshot`](Self::snapshot) race-free too.
pub trait HandoffPolicy: Send + Sync + fmt::Debug {
    /// Sizes per-cluster state; called once by the lock constructor,
    /// before the lock can be shared.
    fn bind(&mut self, clusters: usize);

    /// A tenure starts on `cluster`.
    fn on_global_acquire(&self, cluster: ClusterId);

    /// May the holder on `cluster` hand off locally after `streak`
    /// consecutive local handoffs in the current tenure?
    fn may_pass_local(&self, cluster: ClusterId, streak: u64) -> bool;

    /// A local handoff committed on `cluster` (the releaser had performed
    /// `streak` handoffs this tenure before this one).
    fn on_local_handoff(&self, cluster: ClusterId, streak: u64);

    /// The tenure on `cluster` ended with a global release after `streak`
    /// local handoffs.
    fn on_global_release(&self, cluster: ClusterId, streak: u64);

    /// Snapshot of the per-cluster tenure counters.
    fn snapshot(&self) -> CohortStats;

    /// Short policy name for benchmark reports (e.g. `"count"`).
    fn name(&self) -> &'static str;

    /// Parameterized label for benchmark reports (e.g. `"count(64)"`),
    /// matching [`PolicySpec`]'s display syntax where applicable.
    fn label(&self) -> String {
        self.name().to_string()
    }
}

/// A boxed, dynamically chosen policy. `CohortLock<G, L, DynPolicy>` is
/// how the benchmark registry parameterizes one lock type over policies
/// picked at runtime.
pub type DynPolicy = Box<dyn HandoffPolicy>;

impl HandoffPolicy for DynPolicy {
    fn bind(&mut self, clusters: usize) {
        (**self).bind(clusters)
    }

    fn on_global_acquire(&self, cluster: ClusterId) {
        (**self).on_global_acquire(cluster)
    }

    fn may_pass_local(&self, cluster: ClusterId, streak: u64) -> bool {
        (**self).may_pass_local(cluster, streak)
    }

    fn on_local_handoff(&self, cluster: ClusterId, streak: u64) {
        (**self).on_local_handoff(cluster, streak)
    }

    fn on_global_release(&self, cluster: ClusterId, streak: u64) {
        (**self).on_global_release(cluster, streak)
    }

    fn snapshot(&self) -> CohortStats {
        (**self).snapshot()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn label(&self) -> String {
        (**self).label()
    }
}

// ---------------------------------------------------------------------------
// CountBound — the paper's policy

/// At most `bound` consecutive local handoffs per tenure — the paper's
/// policy, with `bound = 64` (§3.7).
pub struct CountBound {
    bound: u64,
    tracker: HandoffTracker,
}

impl CountBound {
    /// The bound used in all of the paper's experiments.
    pub const PAPER_BOUND: u64 = 64;

    /// A policy allowing up to `bound` consecutive local handoffs.
    pub fn new(bound: u64) -> Self {
        CountBound {
            bound,
            tracker: HandoffTracker::default(),
        }
    }

    /// The configured bound.
    pub fn bound(&self) -> u64 {
        self.bound
    }
}

impl Default for CountBound {
    /// The paper's configuration (64).
    fn default() -> Self {
        Self::new(Self::PAPER_BOUND)
    }
}

impl fmt::Debug for CountBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CountBound({})", self.bound)
    }
}

impl HandoffPolicy for CountBound {
    fn bind(&mut self, clusters: usize) {
        self.tracker.bind(clusters);
    }

    fn on_global_acquire(&self, cluster: ClusterId) {
        self.tracker.on_global_acquire(cluster);
    }

    #[inline]
    fn may_pass_local(&self, _cluster: ClusterId, streak: u64) -> bool {
        streak < self.bound
    }

    fn on_local_handoff(&self, cluster: ClusterId, streak: u64) {
        self.tracker.on_local_handoff(cluster, streak);
    }

    fn on_global_release(&self, cluster: ClusterId, streak: u64) {
        self.tracker.on_global_release(cluster, streak);
    }

    fn snapshot(&self) -> CohortStats {
        self.tracker.snapshot()
    }

    fn name(&self) -> &'static str {
        "count"
    }

    fn label(&self) -> String {
        format!("count({})", self.bound)
    }
}

// ---------------------------------------------------------------------------
// TimeBound — tenure capped by clock nanoseconds

/// Which clock a [`TimeBound`] tenure budget is measured against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenureClock {
    /// The per-thread [virtual clock](numa_topology::vclock) — the right
    /// choice under this repository's virtual-time harness, where handoff
    /// channels keep successive holders' clocks causally monotone.
    Virtual,
    /// Monotonic wall time — the right choice on real hardware.
    Wall,
}

/// Tenure capped by elapsed nanoseconds rather than handoff count.
///
/// A count bound makes tenure *duration* proportional to critical-section
/// length; under mixed workloads (some holders do 100 ns, some 100 µs) a
/// time bound keeps the starvation window of remote clusters constant
/// instead. Outside the lock's own hooks the policy never reads clocks,
/// so the uncontended path stays clock-free.
pub struct TimeBound {
    budget_ns: u64,
    clock: TenureClock,
    tracker: HandoffTracker,
    /// Tenure start timestamps, one padded slot per cluster; written only
    /// by the holder at `on_global_acquire`.
    starts: Box<[CachePadded<AtomicU64>]>,
}

/// Process epoch for [`TenureClock::Wall`] (monotonic nanoseconds).
fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl TimeBound {
    /// Default tenure budget: 50 µs, roughly what 64 handoffs of the
    /// paper's ~700 ns critical sections add up to.
    pub const DEFAULT_BUDGET_NS: u64 = 50_000;

    /// A tenure budget of `budget_ns` virtual nanoseconds.
    pub fn virtual_ns(budget_ns: u64) -> Self {
        Self::with_clock(budget_ns, TenureClock::Virtual)
    }

    /// A tenure budget of `budget_ns` wall-clock nanoseconds.
    pub fn wall_ns(budget_ns: u64) -> Self {
        Self::with_clock(budget_ns, TenureClock::Wall)
    }

    /// A tenure budget against an explicit clock source.
    pub fn with_clock(budget_ns: u64, clock: TenureClock) -> Self {
        TimeBound {
            budget_ns,
            clock,
            tracker: HandoffTracker::default(),
            starts: Box::new([]),
        }
    }

    /// The configured budget in nanoseconds.
    pub fn budget_ns(&self) -> u64 {
        self.budget_ns
    }

    /// The clock the budget is measured against.
    pub fn clock(&self) -> TenureClock {
        self.clock
    }

    #[inline]
    fn now(&self) -> u64 {
        match self.clock {
            TenureClock::Virtual => vclock::now(),
            TenureClock::Wall => wall_ns(),
        }
    }
}

impl Default for TimeBound {
    /// 50 µs of virtual time.
    fn default() -> Self {
        Self::virtual_ns(Self::DEFAULT_BUDGET_NS)
    }
}

impl fmt::Debug for TimeBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimeBound({}ns, {:?})", self.budget_ns, self.clock)
    }
}

impl HandoffPolicy for TimeBound {
    fn bind(&mut self, clusters: usize) {
        self.tracker.bind(clusters);
        self.starts = (0..clusters)
            .map(|_| CachePadded::new(AtomicU64::new(0)))
            .collect();
    }

    fn on_global_acquire(&self, cluster: ClusterId) {
        if let Some(s) = self.starts.get(cluster.as_usize()) {
            s.store(self.now(), Ordering::Relaxed);
        }
        self.tracker.on_global_acquire(cluster);
    }

    #[inline]
    fn may_pass_local(&self, cluster: ClusterId, _streak: u64) -> bool {
        match self.starts.get(cluster.as_usize()) {
            // The holder's clock is causally at or past the tenure start
            // (virtual mode: the handoff channel publishes the releaser's
            // timestamp; wall mode: monotonic).
            Some(s) => self.now().saturating_sub(s.load(Ordering::Relaxed)) < self.budget_ns,
            None => true,
        }
    }

    fn on_local_handoff(&self, cluster: ClusterId, streak: u64) {
        self.tracker.on_local_handoff(cluster, streak);
    }

    fn on_global_release(&self, cluster: ClusterId, streak: u64) {
        self.tracker.on_global_release(cluster, streak);
    }

    fn snapshot(&self) -> CohortStats {
        self.tracker.snapshot()
    }

    fn name(&self) -> &'static str {
        "time"
    }

    fn label(&self) -> String {
        match self.clock {
            TenureClock::Virtual => format!("time({}ns)", self.budget_ns),
            TenureClock::Wall => format!("wall-time({}ns)", self.budget_ns),
        }
    }
}

// ---------------------------------------------------------------------------
// AdaptiveBound — AIMD on the handoff bound

/// A per-cluster handoff bound that adapts to observed demand, in the
/// spirit of CNA's tunable threshold and concurrency-restriction's
/// feedback loop (Dice & Kogan).
///
/// Each cluster carries its own current bound in `[min, max]`, adjusted at
/// every tenure end:
///
/// * the tenure was **cut off by the bound** (`streak >= bound`) — local
///   demand outlived the tenure, so locality is being left on the table:
///   the bound doubles (up to `max`);
/// * the cluster **ran dry early** (`streak * 4 < bound`) and re-acquiring
///   the global lock has been cheap (the previous inter-tenure gap did not
///   dwarf the tenure itself) — the large bound buys nothing: the bound
///   halves (down to `min`). A long observed global-lock wait suppresses
///   the shrink, so a cluster that pays dearly to reacquire keeps a bound
///   large enough to amortize that wait;
/// * otherwise the bound holds.
///
/// Inter-tenure gap and tenure length are measured on the monotonic wall
/// clock — once per tenure, never per handoff.
pub struct AdaptiveBound {
    min: u64,
    max: u64,
    initial: u64,
    tracker: HandoffTracker,
    state: Box<[CachePadded<AdaptiveSlot>]>,
}

#[derive(Debug)]
struct AdaptiveSlot {
    bound: AtomicU64,
    /// Wall timestamp of this cluster's last global release.
    last_release_ns: AtomicU64,
    /// Wall timestamp of the current tenure's start.
    acquired_ns: AtomicU64,
    /// Gap between last release and the current acquire (the re-acquisition
    /// cost signal).
    wait_ns: AtomicU64,
}

impl AdaptiveBound {
    /// Default adaptation window floor.
    pub const DEFAULT_MIN: u64 = 8;
    /// Default adaptation window ceiling.
    pub const DEFAULT_MAX: u64 = 1024;

    /// Default adaptation window: bounds in
    /// `[DEFAULT_MIN, DEFAULT_MAX]`, starting at the paper's 64.
    pub fn new() -> Self {
        Self::with_range(Self::DEFAULT_MIN, Self::DEFAULT_MAX)
    }

    /// Bounds confined to `[min, max]`, starting at the paper default
    /// clamped into that range.
    pub fn with_range(min: u64, max: u64) -> Self {
        assert!(min >= 1 && min <= max, "need 1 <= min <= max");
        AdaptiveBound {
            min,
            max,
            initial: CountBound::PAPER_BOUND.clamp(min, max),
            tracker: HandoffTracker::default(),
            state: Box::new([]),
        }
    }

    /// The configured floor.
    pub fn min_bound(&self) -> u64 {
        self.min
    }

    /// The configured ceiling.
    pub fn max_bound(&self) -> u64 {
        self.max
    }

    /// The current per-cluster bounds (diagnostics; used by the invariant
    /// tests).
    pub fn current_bounds(&self) -> Vec<u64> {
        self.state
            .iter()
            .map(|s| s.bound.load(Ordering::Relaxed))
            .collect()
    }
}

impl Default for AdaptiveBound {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for AdaptiveBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AdaptiveBound({}..{}, now {:?})",
            self.min,
            self.max,
            self.current_bounds()
        )
    }
}

impl HandoffPolicy for AdaptiveBound {
    fn bind(&mut self, clusters: usize) {
        self.tracker.bind(clusters);
        self.state = (0..clusters)
            .map(|_| {
                CachePadded::new(AdaptiveSlot {
                    bound: AtomicU64::new(self.initial),
                    last_release_ns: AtomicU64::new(0),
                    acquired_ns: AtomicU64::new(0),
                    wait_ns: AtomicU64::new(0),
                })
            })
            .collect();
    }

    fn on_global_acquire(&self, cluster: ClusterId) {
        if let Some(s) = self.state.get(cluster.as_usize()) {
            let now = wall_ns();
            let last = s.last_release_ns.load(Ordering::Relaxed);
            s.wait_ns.store(
                if last == 0 {
                    0
                } else {
                    now.saturating_sub(last)
                },
                Ordering::Relaxed,
            );
            s.acquired_ns.store(now, Ordering::Relaxed);
        }
        self.tracker.on_global_acquire(cluster);
    }

    #[inline]
    fn may_pass_local(&self, cluster: ClusterId, streak: u64) -> bool {
        match self.state.get(cluster.as_usize()) {
            Some(s) => streak < s.bound.load(Ordering::Relaxed),
            None => streak < self.initial,
        }
    }

    fn on_local_handoff(&self, cluster: ClusterId, streak: u64) {
        self.tracker.on_local_handoff(cluster, streak);
    }

    fn on_global_release(&self, cluster: ClusterId, streak: u64) {
        if let Some(s) = self.state.get(cluster.as_usize()) {
            let now = wall_ns();
            let tenure_ns = now.saturating_sub(s.acquired_ns.load(Ordering::Relaxed));
            let bound = s.bound.load(Ordering::Relaxed);
            if streak >= bound {
                s.bound
                    .store(bound.saturating_mul(2).min(self.max), Ordering::Relaxed);
            } else if streak.saturating_mul(4) < bound
                // 10 µs of grace keeps uncontended back-to-back tenures
                // (wait ≈ tenure ≈ noise) on the shrink path.
                && s.wait_ns.load(Ordering::Relaxed) <= tenure_ns.saturating_add(10_000)
            {
                s.bound.store((bound / 2).max(self.min), Ordering::Relaxed);
            }
            s.last_release_ns.store(now, Ordering::Relaxed);
        }
        self.tracker.on_global_release(cluster, streak);
    }

    fn snapshot(&self) -> CohortStats {
        self.tracker.snapshot()
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn label(&self) -> String {
        format!("adaptive({}..{})", self.min, self.max)
    }
}

// ---------------------------------------------------------------------------
// Degenerate corners

/// Never bound the cohort — §3.7's "deeply unfair" variant (used by the
/// handoff ablation as the locality ceiling).
#[derive(Default)]
pub struct Unbounded {
    tracker: HandoffTracker,
}

impl fmt::Debug for Unbounded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Unbounded")
    }
}

impl HandoffPolicy for Unbounded {
    fn bind(&mut self, clusters: usize) {
        self.tracker.bind(clusters);
    }

    fn on_global_acquire(&self, cluster: ClusterId) {
        self.tracker.on_global_acquire(cluster);
    }

    #[inline]
    fn may_pass_local(&self, _cluster: ClusterId, _streak: u64) -> bool {
        true
    }

    fn on_local_handoff(&self, cluster: ClusterId, streak: u64) {
        self.tracker.on_local_handoff(cluster, streak);
    }

    fn on_global_release(&self, cluster: ClusterId, streak: u64) {
        self.tracker.on_global_release(cluster, streak);
    }

    fn snapshot(&self) -> CohortStats {
        self.tracker.snapshot()
    }

    fn name(&self) -> &'static str {
        "unbounded"
    }
}

/// Never pass locally: every release is a global release, degenerating the
/// cohort lock into its global lock plus overhead (the fairness ceiling /
/// locality floor; useful as a sanity baseline).
#[derive(Default)]
pub struct NeverPass {
    tracker: HandoffTracker,
}

impl fmt::Debug for NeverPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("NeverPass")
    }
}

impl HandoffPolicy for NeverPass {
    fn bind(&mut self, clusters: usize) {
        self.tracker.bind(clusters);
    }

    fn on_global_acquire(&self, cluster: ClusterId) {
        self.tracker.on_global_acquire(cluster);
    }

    #[inline]
    fn may_pass_local(&self, _cluster: ClusterId, _streak: u64) -> bool {
        false
    }

    fn on_local_handoff(&self, cluster: ClusterId, streak: u64) {
        self.tracker.on_local_handoff(cluster, streak);
    }

    fn on_global_release(&self, cluster: ClusterId, streak: u64) {
        self.tracker.on_global_release(cluster, streak);
    }

    fn snapshot(&self) -> CohortStats {
        self.tracker.snapshot()
    }

    fn name(&self) -> &'static str {
        "never-pass"
    }
}

// ---------------------------------------------------------------------------
// PolicySpec — runtime policy selection

/// A value-level description of a policy, for layers that pick policies at
/// runtime (benchmark registries, env knobs). [`build`](Self::build) turns
/// it into a boxed [`HandoffPolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicySpec {
    /// [`CountBound`] with the given bound.
    Count {
        /// Maximum consecutive local handoffs per tenure.
        bound: u64,
    },
    /// [`TimeBound`] over the virtual clock with the given budget.
    Time {
        /// Tenure budget in virtual nanoseconds.
        budget_ns: u64,
    },
    /// [`TimeBound`] over the monotonic wall clock — for real hardware,
    /// where virtual clocks do not advance.
    WallTime {
        /// Tenure budget in wall nanoseconds.
        budget_ns: u64,
    },
    /// [`AdaptiveBound`] confined to `[min, max]`.
    Adaptive {
        /// Bound floor.
        min: u64,
        /// Bound ceiling.
        max: u64,
    },
    /// [`Unbounded`].
    Unbounded,
    /// [`NeverPass`].
    NeverPass,
}

impl PolicySpec {
    /// The paper's configuration: `Count { bound: 64 }`.
    pub const fn paper_default() -> Self {
        PolicySpec::Count {
            bound: CountBound::PAPER_BOUND,
        }
    }

    /// Builds the described policy.
    pub fn build(self) -> DynPolicy {
        match self {
            PolicySpec::Count { bound } => Box::new(CountBound::new(bound)),
            PolicySpec::Time { budget_ns } => Box::new(TimeBound::virtual_ns(budget_ns)),
            PolicySpec::WallTime { budget_ns } => Box::new(TimeBound::wall_ns(budget_ns)),
            PolicySpec::Adaptive { min, max } => Box::new(AdaptiveBound::with_range(min, max)),
            PolicySpec::Unbounded => Box::new(Unbounded::default()),
            PolicySpec::NeverPass => Box::new(NeverPass::default()),
        }
    }

    /// Parses the spec syntax used by env knobs and CLI flags:
    /// `count:<bound>`, `time:<budget_ns>` (virtual clock),
    /// `walltime:<budget_ns>` (monotonic wall clock), `adaptive`,
    /// `adaptive:<min>:<max>`, `unbounded`, `never` / `neverpass`.
    ///
    /// Errors name the offending field and the accepted syntax, so an env
    /// knob typo surfaces as an actionable message:
    ///
    /// ```
    /// use cohort::PolicySpec;
    ///
    /// assert_eq!(
    ///     PolicySpec::parse("count:16"),
    ///     Ok(PolicySpec::Count { bound: 16 })
    /// );
    /// let err = PolicySpec::parse("count:many").unwrap_err();
    /// assert_eq!(
    ///     err.to_string(),
    ///     "policy \"count\": <bound> must be an unsigned integer, \
    ///      got \"many\" (accepted syntax: count:<bound>)"
    /// );
    /// assert!(PolicySpec::parse("bogus").unwrap_err().to_string().contains("unknown policy"));
    /// ```
    pub fn parse(s: &str) -> Result<Self, PolicyParseError> {
        fn number(
            policy: &'static str,
            field: &'static str,
            syntax: &'static str,
            value: Option<&str>,
        ) -> Result<u64, PolicyParseError> {
            let value = value.ok_or(PolicyParseError::MissingField {
                policy,
                field,
                syntax,
            })?;
            value.parse().map_err(|_| PolicyParseError::BadNumber {
                policy,
                field,
                value: value.to_string(),
                syntax,
            })
        }
        let mut parts = s.trim().split(':');
        let head = parts
            .next()
            .unwrap_or_default() // split always yields ≥1 item; belt and braces
            .to_ascii_lowercase();
        let (spec, syntax): (_, &'static str) = match head.as_str() {
            "count" => (
                PolicySpec::Count {
                    bound: number("count", "bound", "count:<bound>", parts.next())?,
                },
                "count:<bound>",
            ),
            "time" => (
                PolicySpec::Time {
                    budget_ns: number("time", "budget_ns", "time:<budget_ns>", parts.next())?,
                },
                "time:<budget_ns>",
            ),
            "walltime" | "wall-time" => (
                PolicySpec::WallTime {
                    budget_ns: number(
                        "walltime",
                        "budget_ns",
                        "walltime:<budget_ns>",
                        parts.next(),
                    )?,
                },
                "walltime:<budget_ns>",
            ),
            "adaptive" => (
                match parts.next() {
                    None => PolicySpec::Adaptive {
                        min: AdaptiveBound::DEFAULT_MIN,
                        max: AdaptiveBound::DEFAULT_MAX,
                    },
                    Some(min_str) => {
                        let syntax = "adaptive[:<min>:<max>]";
                        let min = min_str.parse().map_err(|_| PolicyParseError::BadNumber {
                            policy: "adaptive",
                            field: "min",
                            value: min_str.to_string(),
                            syntax,
                        })?;
                        let max = number("adaptive", "max", syntax, parts.next())?;
                        // Reject here what AdaptiveBound::with_range would
                        // assert on — env input must not abort the process.
                        if min < 1 || min > max {
                            return Err(PolicyParseError::InvalidRange { min, max });
                        }
                        PolicySpec::Adaptive { min, max }
                    }
                },
                "adaptive[:<min>:<max>]",
            ),
            "unbounded" => (PolicySpec::Unbounded, "unbounded"),
            "never" | "neverpass" | "never-pass" => (PolicySpec::NeverPass, "never"),
            _ => {
                return Err(PolicyParseError::UnknownPolicy {
                    head: head.to_string(),
                })
            }
        };
        if let Some(extra) = parts.next() {
            return Err(PolicyParseError::TrailingInput {
                policy: spec.to_string(),
                extra: extra.to_string(),
                syntax,
            });
        }
        Ok(spec)
    }
}

/// Why a [`PolicySpec::parse`] call failed — each variant names the
/// offending field and the accepted syntax in its [`Display`](fmt::Display)
/// output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicyParseError {
    /// The leading policy name matched none of the known families.
    UnknownPolicy {
        /// What stood where a policy name was expected.
        head: String,
    },
    /// A required `:`-separated parameter was absent.
    MissingField {
        /// Policy family being parsed.
        policy: &'static str,
        /// Name of the absent parameter.
        field: &'static str,
        /// The accepted syntax for this family.
        syntax: &'static str,
    },
    /// A parameter was present but not an unsigned integer.
    BadNumber {
        /// Policy family being parsed.
        policy: &'static str,
        /// Name of the malformed parameter.
        field: &'static str,
        /// The rejected input.
        value: String,
        /// The accepted syntax for this family.
        syntax: &'static str,
    },
    /// An `adaptive` range violating `1 <= min <= max`.
    InvalidRange {
        /// Parsed floor.
        min: u64,
        /// Parsed ceiling.
        max: u64,
    },
    /// The spec parsed but was followed by extra `:` segments.
    TrailingInput {
        /// The successfully parsed prefix (display form).
        policy: String,
        /// The first unexpected segment.
        extra: String,
        /// The accepted syntax for this family.
        syntax: &'static str,
    },
}

impl fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyParseError::UnknownPolicy { head } => write!(
                f,
                "unknown policy {head:?}; expected one of count:<bound>, time:<budget_ns>, \
                 walltime:<budget_ns>, adaptive[:<min>:<max>], unbounded, never"
            ),
            PolicyParseError::MissingField {
                policy,
                field,
                syntax,
            } => write!(
                f,
                "policy {policy:?} is missing its <{field}> parameter \
                 (accepted syntax: {syntax})"
            ),
            PolicyParseError::BadNumber {
                policy,
                field,
                value,
                syntax,
            } => write!(
                f,
                "policy {policy:?}: <{field}> must be an unsigned integer, got {value:?} \
                 (accepted syntax: {syntax})"
            ),
            PolicyParseError::InvalidRange { min, max } => write!(
                f,
                "adaptive range needs 1 <= min <= max, got {min}..{max} \
                 (accepted syntax: adaptive:<min>:<max>)"
            ),
            PolicyParseError::TrailingInput {
                policy,
                extra,
                syntax,
            } => write!(
                f,
                "unexpected trailing segment {extra:?} after {policy} \
                 (accepted syntax: {syntax})"
            ),
        }
    }
}

impl std::error::Error for PolicyParseError {}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Count { bound } => write!(f, "count({bound})"),
            PolicySpec::Time { budget_ns } => write!(f, "time({budget_ns}ns)"),
            PolicySpec::WallTime { budget_ns } => write!(f, "wall-time({budget_ns}ns)"),
            PolicySpec::Adaptive { min, max } => write!(f, "adaptive({min}..{max})"),
            PolicySpec::Unbounded => f.write_str("unbounded"),
            PolicySpec::NeverPass => f.write_str("never-pass"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(id: u32) -> ClusterId {
        ClusterId::new(id)
    }

    #[test]
    fn count_policy_bounds_streak() {
        let p = CountBound::new(3);
        assert!(p.may_pass_local(c(0), 0));
        assert!(p.may_pass_local(c(0), 2));
        assert!(!p.may_pass_local(c(0), 3));
        assert!(!p.may_pass_local(c(0), 100));
    }

    #[test]
    fn default_is_paper_bound() {
        assert_eq!(CountBound::default().bound(), 64);
        assert!(CountBound::default().may_pass_local(c(0), 63));
        assert!(!CountBound::default().may_pass_local(c(0), 64));
    }

    #[test]
    fn degenerate_policies() {
        assert!(Unbounded::default().may_pass_local(c(0), u64::MAX));
        assert!(!NeverPass::default().may_pass_local(c(0), 0));
    }

    #[test]
    fn tracker_counts_and_snapshots() {
        let mut t = HandoffTracker::default();
        t.bind(2);
        t.on_global_acquire(c(0));
        t.on_local_handoff(c(0), 0);
        t.on_local_handoff(c(0), 1);
        t.on_global_release(c(0), 2);
        t.on_global_acquire(c(1));
        t.on_global_release(c(1), 0);
        let s = t.snapshot();
        assert_eq!(s.tenures(), 2);
        assert_eq!(s.local_handoffs(), 2);
        assert_eq!(s.global_releases(), 2);
        assert_eq!(s.max_streak(), 2);
        assert_eq!(s.mean_streak(), 1.0);
        assert_eq!(s.per_cluster[1].local_handoffs, 0);
    }

    #[test]
    fn stats_merge_folds_every_layer() {
        let mut a = CohortStats {
            per_cluster: vec![ClusterStats {
                tenures: 2,
                local_handoffs: 5,
                global_releases: 2,
                max_streak: 3,
                sum_streak: 5,
            }],
            fast_acquisitions: 10,
            slow_acquisitions: 7,
            passive_parks: 4,
            promotions: 1,
        };
        let b = CohortStats {
            per_cluster: vec![
                ClusterStats {
                    tenures: 1,
                    local_handoffs: 9,
                    global_releases: 1,
                    max_streak: 9,
                    sum_streak: 9,
                },
                ClusterStats {
                    tenures: 3,
                    ..ClusterStats::default()
                },
            ],
            fast_acquisitions: 1,
            slow_acquisitions: 2,
            passive_parks: 6,
            promotions: 5,
        };
        a.merge(&b);
        assert_eq!(a.per_cluster.len(), 2, "grows to the longer snapshot");
        assert_eq!(a.per_cluster[0].tenures, 3);
        assert_eq!(a.per_cluster[0].local_handoffs, 14);
        assert_eq!(a.per_cluster[0].max_streak, 9, "max, not sum");
        assert_eq!(a.per_cluster[1].tenures, 3, "tail adopted as-is");
        assert_eq!(a.fast_acquisitions, 11);
        assert_eq!(a.slow_acquisitions, 9);
        assert_eq!(a.passive_parks, 10);
        assert_eq!(a.promotions, 6);
    }

    #[test]
    fn stats_display_includes_gcr_counters() {
        let s = CohortStats {
            per_cluster: vec![ClusterStats {
                tenures: 2,
                local_handoffs: 6,
                global_releases: 2,
                max_streak: 4,
                sum_streak: 6,
            }],
            fast_acquisitions: 3,
            slow_acquisitions: 8,
            passive_parks: 5,
            promotions: 2,
        };
        assert_eq!(
            s.to_string(),
            "tenures 2 local 6 (mean streak 3.0, max 4) fast 3 slow 8 parks 5 promotions 2"
        );
    }

    #[test]
    fn tracker_unbound_hooks_are_noops() {
        let t = HandoffTracker::default();
        t.on_global_acquire(c(3)); // must not panic
        assert_eq!(t.snapshot().per_cluster.len(), 0);
    }

    #[test]
    fn time_bound_expires_on_virtual_clock() {
        vclock::reset();
        let mut p = TimeBound::virtual_ns(1_000);
        p.bind(1);
        vclock::set(5_000);
        p.on_global_acquire(c(0));
        assert!(p.may_pass_local(c(0), 0), "fresh tenure has budget");
        vclock::advance(999);
        assert!(p.may_pass_local(c(0), 10_000), "streak is irrelevant");
        vclock::advance(2);
        assert!(!p.may_pass_local(c(0), 0), "budget exhausted");
        p.on_global_release(c(0), 3);
        assert_eq!(p.snapshot().global_releases(), 1);
        vclock::reset();
    }

    #[test]
    fn time_bound_wall_clock_mode() {
        let mut p = TimeBound::wall_ns(u64::MAX / 2);
        p.bind(1);
        p.on_global_acquire(c(0));
        assert!(p.may_pass_local(c(0), 0), "huge wall budget never expires");
        assert_eq!(p.clock(), TenureClock::Wall);
    }

    #[test]
    fn adaptive_bound_grows_on_cutoff_and_shrinks_when_dry() {
        let mut p = AdaptiveBound::with_range(4, 64);
        p.bind(1);
        assert_eq!(p.current_bounds(), vec![64], "initial clamps into range");

        // Cut off at the bound twice: stays at max (64 is already max).
        p.on_global_acquire(c(0));
        p.on_global_release(c(0), 64);
        assert_eq!(p.current_bounds(), vec![64]);

        // Run dry early repeatedly: halves down to min, never below.
        for _ in 0..10 {
            p.on_global_acquire(c(0));
            p.on_global_release(c(0), 0);
        }
        assert_eq!(p.current_bounds(), vec![4]);

        // Demand returns: doubles back up, never past max.
        for _ in 0..10 {
            p.on_global_acquire(c(0));
            let b = p.current_bounds()[0];
            p.on_global_release(c(0), b);
        }
        assert_eq!(p.current_bounds(), vec![64]);
    }

    #[test]
    fn policy_spec_builds_and_prints() {
        assert_eq!(PolicySpec::paper_default(), PolicySpec::Count { bound: 64 });
        let mut p = PolicySpec::Count { bound: 5 }.build();
        p.bind(2);
        assert!(p.may_pass_local(c(0), 4));
        assert!(!p.may_pass_local(c(0), 5));
        assert_eq!(p.name(), "count");
        assert_eq!(PolicySpec::NeverPass.build().name(), "never-pass");
        assert_eq!(
            format!("{}", PolicySpec::Adaptive { min: 8, max: 1024 }),
            "adaptive(8..1024)"
        );
    }

    #[test]
    fn policy_spec_parses_env_syntax() {
        assert_eq!(
            PolicySpec::parse("count:64"),
            Ok(PolicySpec::Count { bound: 64 })
        );
        assert_eq!(
            PolicySpec::parse("time:50000"),
            Ok(PolicySpec::Time { budget_ns: 50_000 })
        );
        assert_eq!(
            PolicySpec::parse("walltime:9"),
            Ok(PolicySpec::WallTime { budget_ns: 9 })
        );
        assert_eq!(
            PolicySpec::parse("adaptive"),
            Ok(PolicySpec::Adaptive { min: 8, max: 1024 })
        );
        assert_eq!(
            PolicySpec::parse("adaptive:16:256"),
            Ok(PolicySpec::Adaptive { min: 16, max: 256 })
        );
        assert_eq!(PolicySpec::parse("unbounded"), Ok(PolicySpec::Unbounded));
        assert_eq!(PolicySpec::parse("never"), Ok(PolicySpec::NeverPass));
        assert_eq!(PolicySpec::parse("NEVERPASS"), Ok(PolicySpec::NeverPass));
    }

    #[test]
    fn parse_error_unknown_policy_lists_alternatives() {
        let e = PolicySpec::parse("bogus").unwrap_err();
        assert_eq!(
            e,
            PolicyParseError::UnknownPolicy {
                head: "bogus".into()
            }
        );
        let msg = e.to_string();
        assert!(msg.contains("\"bogus\""), "{msg}");
        assert!(msg.contains("count:<bound>"), "{msg}");
        assert!(msg.contains("adaptive[:<min>:<max>]"), "{msg}");
    }

    #[test]
    fn parse_error_missing_field_names_it() {
        let e = PolicySpec::parse("count").unwrap_err();
        assert_eq!(
            e,
            PolicyParseError::MissingField {
                policy: "count",
                field: "bound",
                syntax: "count:<bound>"
            }
        );
        let msg = e.to_string();
        assert!(msg.contains("<bound>"), "{msg}");
        assert!(msg.contains("count:<bound>"), "{msg}");
        // The two-parameter family reports the *second* field when only
        // the first is present.
        let e = PolicySpec::parse("adaptive:4").unwrap_err();
        assert!(
            matches!(&e, PolicyParseError::MissingField { field: "max", .. }),
            "{e:?}"
        );
    }

    #[test]
    fn parse_error_bad_number_quotes_the_input() {
        let e = PolicySpec::parse("time:soon").unwrap_err();
        assert_eq!(
            e,
            PolicyParseError::BadNumber {
                policy: "time",
                field: "budget_ns",
                value: "soon".into(),
                syntax: "time:<budget_ns>"
            }
        );
        let msg = e.to_string();
        assert!(msg.contains("\"soon\""), "{msg}");
        assert!(msg.contains("unsigned integer"), "{msg}");
        assert!(
            matches!(
                PolicySpec::parse("adaptive:x:8").unwrap_err(),
                PolicyParseError::BadNumber { field: "min", .. }
            ),
            "adaptive min arm"
        );
    }

    #[test]
    fn parse_error_invalid_range_reports_bounds() {
        // Ranges with_range would panic on are rejected at parse time.
        assert_eq!(
            PolicySpec::parse("adaptive:16:4").unwrap_err(),
            PolicyParseError::InvalidRange { min: 16, max: 4 }
        );
        let e = PolicySpec::parse("adaptive:0:8").unwrap_err();
        assert_eq!(e, PolicyParseError::InvalidRange { min: 0, max: 8 });
        assert!(e.to_string().contains("1 <= min <= max"), "{e}");
    }

    #[test]
    fn parse_error_trailing_input_is_flagged() {
        let e = PolicySpec::parse("count:64:9").unwrap_err();
        assert_eq!(
            e,
            PolicyParseError::TrailingInput {
                policy: "count(64)".into(),
                extra: "9".into(),
                syntax: "count:<bound>"
            }
        );
        assert!(e.to_string().contains("\"9\""), "{e}");
        assert!(
            PolicySpec::parse("unbounded:1").is_err(),
            "parameterless families reject parameters"
        );
    }
}
