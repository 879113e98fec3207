//! The `may-pass-local` fairness layer (§2.1, §3.7).
//!
//! A cohort lock trades fairness for locality: the longer one cluster
//! keeps the global lock, the fewer lock migrations, but the longer remote
//! clusters starve. The paper bounds consecutive local handoffs by a
//! constant — **64** in all of its experiments — and reports (§4.1.1) that
//! unbounded handoff buys only ~10% throughput while allowing batches of
//! hundreds of thousands.
//!
//! The paper's constant is one point in a policy space, in the spirit of
//! the tunable intra-socket threshold of *Compact NUMA-Aware Locks* (Dice
//! & Kogan, EuroSys '19) and the admission adaptation of *Avoiding
//! Scalability Collapse by Restricting Concurrency* (Dice & Kogan,
//! Euro-Par '19). Here the policy is a value and the value is the
//! mechanism:
//!
//! * [`PolicySpec`] — which rule ends a tenure: `Count` (the paper's, 64
//!   by default), `Time` (tenure capped in clock nanoseconds, so fairness
//!   degrades gracefully under variable-length critical sections),
//!   `Adaptive` (a per-cluster bound that grows while cut-off
//!   tenures show local demand and shrinks when clusters run dry early),
//!   and the two degenerate corners `Unbounded` (§3.7's "deeply unfair"
//!   variant) and `NeverPass` (every release goes global).
//! * [`Tenures`] — the one tenure book every policy-driven lock owns: a
//!   spec, the clock it reads, and one cache-padded slot per cluster,
//!   driven through three hooks ([`began`](Tenures::began),
//!   [`may_pass_local`](Tenures::may_pass_local), [`ended`](Tenures::ended))
//!   and read back as a [`CohortStats`] snapshot. Every lock and the
//!   modelled substrate run this one book; they differ only in the clock
//!   they hand it.

use crossbeam_utils::CachePadded;
use numa_topology::ClusterId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Statistics

/// Per-cluster tenure counters of one cohort lock — a plain-value snapshot
/// of one [`Tenures`] slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Tenures ended (global-lock releases by this cluster), written by
    /// [`Tenures::ended`] alone: an open tenure is not counted yet.
    pub tenures: u64,
    /// Intra-cluster lock handoffs committed, counted at tenure end: each
    /// ended tenure adds its streak, so an open tenure's handoffs appear
    /// when it ends (at most the bound under `Count`).
    pub local_handoffs: u64,
    /// Longest streak of consecutive local handoffs in one ended tenure.
    pub max_streak: u64,
}

/// Snapshot of a cohort lock's handoff behaviour, taken via
/// [`Tenures::snapshot`] (or `CohortLock::cohort_stats`).
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
    /// Total ended tenures (global-lock releases) across clusters.
    pub fn tenures(&self) -> u64 {
        self.per_cluster.iter().map(|c| c.tenures).sum()
    }

    /// Total intra-cluster handoffs across clusters.
    pub fn local_handoffs(&self) -> u64 {
        self.per_cluster.iter().map(|c| c.local_handoffs).sum()
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
        let tenures = self.tenures();
        if tenures == 0 {
            0.0
        } else {
            self.local_handoffs() as f64 / tenures as f64
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
            mine.max_streak = mine.max_streak.max(theirs.max_streak);
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

impl<W: base_locks::Wait> Introspect for base_locks::TasLock<W> {}
impl Introspect for base_locks::TicketLock {}
impl Introspect for base_locks::McsLock {}
impl Introspect for base_locks::ClhLock {}
impl Introspect for base_locks::AbortableClhLock {}
impl Introspect for base_locks::ReciprocatingLock {}

// ---------------------------------------------------------------------------
// Tenures — the one tenure book

/// The tenure book of one policy-driven lock: the [`PolicySpec`] in force,
/// the clock its rule reads, and one cache-padded slot per cluster holding
/// that cluster's counters and whatever per-tenure state the rule keeps.
///
/// The lock invokes the three hooks from well-defined protocol points,
/// always on the thread currently holding it:
///
/// * [`began`](Self::began) — the cluster just acquired the global lock; a
///   tenure begins. Writes no counter: only the clock stamps of `Time` and
///   `Adaptive`.
/// * [`may_pass_local`](Self::may_pass_local) — the holder is releasing
///   after `streak` consecutive local handoffs this tenure; may it hand
///   off to a cluster-mate (if one is waiting)? A pure read.
/// * [`ended`](Self::ended) — the tenure ended with a global release after
///   `streak` local handoffs. Books the whole tenure: `tenures`, and
///   `local_handoffs` / `max_streak` when the streak changes them.
///
/// Concurrency contract: a tenure is booked once, when it ends, so a
/// snapshot counts ended tenures only. A committed local handoff writes
/// nothing here: its count travels in the holder's streak, so the handoff
/// path touches no shared statistics line. Every hook runs while the lock
/// is held — `CohortLock` calls [`ended`](Self::ended) *before* its global
/// unlock, CNA before any tail CAS that can leave the lock free — so a
/// slot has one writer at a time, and the lock's own release→acquire edge
/// carries its values to the next holder. Hence every counter write is a
/// relaxed load + store, no locked RMW; the words stay atomic only so
/// that [`snapshot`](Self::snapshot) may read them from any thread.
///
/// The clock is fixed at construction ([`new`](Self::new)) and read only
/// inside the hooks, only by the specs that need one (`Time`: per release;
/// `Adaptive`: once at each tenure's start and end, never per handoff), so
/// a `Count` lock's uncontended path stays clock-free.
pub struct Tenures {
    spec: PolicySpec,
    clock: fn() -> u64,
    slots: Box<[CachePadded<Slot>]>,
}

#[derive(Debug, Default)]
struct Slot {
    tenures: AtomicU64,
    local_handoffs: AtomicU64,
    max_streak: AtomicU64,
    /// Stamp of the current tenure's start on the book's clock (`Time`,
    /// `Adaptive`). Written by `began` only.
    started_ns: AtomicU64,
    /// `Adaptive`: this cluster's current bound, in `[min, max]`.
    bound: AtomicU64,
    /// `Adaptive`: clock stamp of this cluster's last global release.
    last_release_ns: AtomicU64,
    /// `Adaptive`: gap between the last release and the current tenure's
    /// start — the re-acquisition cost signal.
    wait_ns: AtomicU64,
}

/// `word += by` by its only writer, the lock holder (see [`Tenures`]): a
/// plain load and store, no locked read-modify-write.
#[inline]
pub(crate) fn add_held(word: &AtomicU64, by: u64) {
    word.store(word.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// Monotonic wall nanoseconds since a process epoch: the clock every
/// lock's [`Tenures`] book reads.
pub fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl Tenures {
    /// A tenure book for `clusters` clusters under `spec`, on `clock`
    /// (nanoseconds; never read under `Count`, `Unbounded` or `NeverPass`).
    /// A lock passes [`wall_ns`]; the modelled substrate passes its
    /// simulation clock, set to the event's time before each hook. A
    /// reading behind the tenure's start stamp counts as no time elapsed.
    ///
    /// # Panics
    ///
    /// On an `Adaptive` range violating `1 <= min <= max`.
    pub fn new(spec: PolicySpec, clusters: usize, clock: fn() -> u64) -> Self {
        let initial_bound = match spec {
            PolicySpec::Adaptive { min, max } => {
                assert!(min >= 1 && min <= max, "{spec} needs 1 <= min <= max");
                PolicySpec::PAPER_BOUND.clamp(min, max)
            }
            _ => 0,
        };
        Tenures {
            spec,
            clock,
            slots: (0..clusters)
                .map(|_| {
                    CachePadded::new(Slot {
                        bound: AtomicU64::new(initial_bound),
                        ..Slot::default()
                    })
                })
                .collect(),
        }
    }

    /// The spec in force.
    pub fn spec(&self) -> PolicySpec {
        self.spec
    }

    /// Label for benchmark reports, e.g. `"count(64)"`: the spec's
    /// [`Display`](fmt::Display) form.
    pub fn label(&self) -> String {
        self.spec.to_string()
    }

    #[inline]
    fn slot(&self, cluster: ClusterId) -> &Slot {
        &self.slots[cluster.as_usize()]
    }

    /// A tenure starts on `cluster`; only the clocked specs stamp it.
    #[inline]
    pub fn began(&self, cluster: ClusterId) {
        let s = self.slot(cluster);
        match self.spec {
            PolicySpec::Time { .. } => s.started_ns.store((self.clock)(), Ordering::Relaxed),
            PolicySpec::Adaptive { .. } => {
                let now = (self.clock)();
                let last = s.last_release_ns.load(Ordering::Relaxed);
                s.wait_ns.store(
                    if last == 0 {
                        0
                    } else {
                        now.saturating_sub(last)
                    },
                    Ordering::Relaxed,
                );
                s.started_ns.store(now, Ordering::Relaxed);
            }
            PolicySpec::Count { .. } | PolicySpec::Unbounded | PolicySpec::NeverPass => {}
        }
    }

    /// May the holder on `cluster` hand off locally after `streak`
    /// consecutive local handoffs in the current tenure?
    #[inline]
    pub fn may_pass_local(&self, cluster: ClusterId, streak: u64) -> bool {
        match self.spec {
            PolicySpec::Count { bound } => streak < bound,
            PolicySpec::Time { budget_ns } => {
                let started = self.slot(cluster).started_ns.load(Ordering::Relaxed);
                (self.clock)().saturating_sub(started) < budget_ns
            }
            PolicySpec::Adaptive { .. } => {
                streak < self.slot(cluster).bound.load(Ordering::Relaxed)
            }
            PolicySpec::Unbounded => true,
            PolicySpec::NeverPass => false,
        }
    }

    /// The tenure on `cluster` ended with a global release after `streak`
    /// local handoffs; the tenure and its handoffs are counted here and
    /// nowhere else, by the holder alone (see the type docs). Only
    /// `tenures` is always written: a zero streak adds nothing, and
    /// `max_streak` is stored only when `streak` beats it.
    ///
    /// Under `Adaptive` this is where the cluster's bound moves: a tenure
    /// **cut off by the bound** (`streak >= bound`) means local demand
    /// outlived it, so the bound doubles (up to `max`); a cluster that
    /// **ran dry early** (`streak * 4 < bound`) while re-acquiring the
    /// global lock has been cheap (the previous inter-tenure gap did not
    /// dwarf the tenure itself) halves it (down to `min`) — a long
    /// observed global-lock wait suppresses the shrink, so a cluster that
    /// pays dearly to reacquire keeps a bound large enough to amortize
    /// that wait; otherwise the bound holds.
    #[inline]
    pub fn ended(&self, cluster: ClusterId, streak: u64) {
        let s = self.slot(cluster);
        if let PolicySpec::Adaptive { min, max } = self.spec {
            let now = (self.clock)();
            let tenure_ns = now.saturating_sub(s.started_ns.load(Ordering::Relaxed));
            let bound = s.bound.load(Ordering::Relaxed);
            if streak >= bound {
                s.bound
                    .store(bound.saturating_mul(2).min(max), Ordering::Relaxed);
            } else if streak.saturating_mul(4) < bound
                // 10 µs of grace keeps uncontended back-to-back tenures
                // (wait ≈ tenure ≈ noise) on the shrink path.
                && s.wait_ns.load(Ordering::Relaxed) <= tenure_ns.saturating_add(10_000)
            {
                s.bound.store((bound / 2).max(min), Ordering::Relaxed);
            }
            s.last_release_ns.store(now, Ordering::Relaxed);
        }
        add_held(&s.tenures, 1);
        if streak > 0 {
            add_held(&s.local_handoffs, streak);
            if streak > s.max_streak.load(Ordering::Relaxed) {
                s.max_streak.store(streak, Ordering::Relaxed);
            }
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
                    max_streak: s.max_streak.load(Ordering::Relaxed),
                })
                .collect(),
            ..CohortStats::default()
        }
    }
}

impl fmt::Debug for Tenures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tenures({})", self.spec)
    }
}

// ---------------------------------------------------------------------------
// PolicySpec — runtime policy selection

/// A handoff policy as a value: which rule ends a cohort's tenure on the
/// global lock. Locks take one at construction (`with_policy`) and hand
/// it to their [`Tenures`] book, whose hooks `match` on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicySpec {
    /// At most `bound` consecutive local handoffs per tenure — the paper's
    /// policy, with `bound = 64` (§3.7).
    Count {
        /// Maximum consecutive local handoffs per tenure.
        bound: u64,
    },
    /// Tenure capped by elapsed nanoseconds on the book's clock rather
    /// than handoff count: wall nanoseconds in a lock, simulated
    /// nanoseconds in the modelled substrate.
    ///
    /// A count bound makes tenure *duration* proportional to
    /// critical-section length; under mixed workloads (some holders do
    /// 100 ns, some 100 µs) a time bound keeps the starvation window of
    /// remote clusters constant instead.
    Time {
        /// Tenure budget in nanoseconds.
        budget_ns: u64,
    },
    /// A per-cluster handoff bound confined to `[min, max]` that adapts
    /// to observed demand, in the spirit of CNA's tunable threshold and
    /// concurrency-restriction's feedback loop (Dice & Kogan): it starts
    /// at the paper's 64 clamped into the range and moves at every tenure
    /// end (see [`Tenures::ended`]).
    Adaptive {
        /// Bound floor (at least 1).
        min: u64,
        /// Bound ceiling (at least `min`).
        max: u64,
    },
    /// Never bound the cohort — §3.7's "deeply unfair" variant (used by
    /// the handoff ablation as the locality ceiling).
    Unbounded,
    /// Never pass locally: every release is a global release,
    /// degenerating the cohort lock into its global lock plus overhead
    /// (the fairness ceiling / locality floor; a sanity baseline).
    NeverPass,
}

impl PolicySpec {
    /// The bound used in all of the paper's experiments.
    pub const PAPER_BOUND: u64 = 64;

    /// The paper's configuration: `Count { bound: 64 }`.
    pub const fn paper_default() -> Self {
        PolicySpec::Count {
            bound: Self::PAPER_BOUND,
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicySpec::Count { bound } => write!(f, "count({bound})"),
            PolicySpec::Time { budget_ns } => write!(f, "time({budget_ns}ns)"),
            PolicySpec::Adaptive { min, max } => write!(f, "adaptive({min}..{max})"),
            PolicySpec::Unbounded => f.write_str("unbounded"),
            PolicySpec::NeverPass => f.write_str("never-pass"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::vclock;
    use std::cell::Cell;

    thread_local! {
        /// The scripted clock: a test thread's own nanoseconds, moved only
        /// by the test.
        static NOW: Cell<u64> = const { Cell::new(0) };
    }

    fn now() -> u64 {
        NOW.get()
    }

    fn c(id: u32) -> ClusterId {
        ClusterId::new(id)
    }

    /// A one-cluster book under `spec`, on the scripted clock.
    fn one(spec: PolicySpec) -> Tenures {
        Tenures::new(spec, 1, now)
    }

    /// The first streak cluster 0's holder would be refused at.
    fn bound_of(p: &Tenures) -> u64 {
        (0..)
            .find(|&streak| !p.may_pass_local(c(0), streak))
            .unwrap()
    }

    #[test]
    fn count_policy_bounds_streak() {
        let p = one(PolicySpec::Count { bound: 3 });
        assert!(p.may_pass_local(c(0), 0));
        assert!(p.may_pass_local(c(0), 2));
        assert!(!p.may_pass_local(c(0), 3));
        assert!(!p.may_pass_local(c(0), 100));
    }

    #[test]
    fn default_is_paper_bound() {
        assert_eq!(PolicySpec::PAPER_BOUND, 64);
        assert!(one(PolicySpec::paper_default()).may_pass_local(c(0), 63));
        assert!(!one(PolicySpec::paper_default()).may_pass_local(c(0), 64));
    }

    #[test]
    fn degenerate_policies() {
        assert!(one(PolicySpec::Unbounded).may_pass_local(c(0), u64::MAX));
        assert!(!one(PolicySpec::NeverPass).may_pass_local(c(0), 0));
    }

    #[test]
    fn tracker_counts_and_snapshots() {
        let t = Tenures::new(PolicySpec::paper_default(), 2, now);
        t.began(c(0));
        t.ended(c(0), 2);
        t.began(c(1));
        t.ended(c(1), 0);
        let s = t.snapshot();
        assert_eq!(s.tenures(), 2);
        assert_eq!(s.local_handoffs(), 2);
        assert_eq!(s.max_streak(), 2);
        assert_eq!(s.mean_streak(), 1.0);
        assert_eq!(s.per_cluster[1].local_handoffs, 0);

        // A tenure is booked when it ends, all at once: a snapshot taken
        // mid-tenure counts neither the open tenure nor its handoffs.
        t.began(c(0));
        let open = t.snapshot().per_cluster[0];
        assert_eq!(open.tenures, 1, "open tenure not counted yet");
        assert_eq!(open.local_handoffs, 2, "none of its handoffs either");
        t.ended(c(0), 7);
        let closed = t.snapshot().per_cluster[0];
        assert_eq!(closed.tenures, 2);
        assert_eq!(closed.local_handoffs, 2 + 7, "ended adds exactly 7");
        assert_eq!(closed.max_streak, 7);

        // A zero streak books exactly one tenure and nothing else.
        t.began(c(0));
        t.ended(c(0), 0);
        let dry = t.snapshot().per_cluster[0];
        assert_eq!(dry.tenures, 3);
        assert_eq!(dry.local_handoffs, 2 + 7);
        assert_eq!(dry.max_streak, 7);
        // A shorter streak adds its handoffs and leaves the max alone.
        t.began(c(0));
        t.ended(c(0), 3);
        let short = t.snapshot().per_cluster[0];
        assert_eq!(short.local_handoffs, 2 + 7 + 3);
        assert_eq!(short.max_streak, 7);
    }

    #[test]
    fn count_began_writes_no_counter() {
        let t = Tenures::new(PolicySpec::Count { bound: 4 }, 2, now);
        t.began(c(1));
        t.ended(c(1), 3);
        let before = t.snapshot();
        t.began(c(1));
        assert_eq!(t.snapshot(), before);
    }

    #[test]
    fn stats_merge_folds_every_layer() {
        let mut a = CohortStats {
            per_cluster: vec![ClusterStats {
                tenures: 2,
                local_handoffs: 5,
                max_streak: 3,
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
                    max_streak: 9,
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
                max_streak: 4,
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
    fn time_bound_expires_on_virtual_clock() {
        // The modelled substrate hands its book the simulation clock.
        vclock::reset();
        let p = Tenures::new(PolicySpec::Time { budget_ns: 1_000 }, 1, vclock::now);
        vclock::set(5_000);
        p.began(c(0));
        assert!(p.may_pass_local(c(0), 0), "fresh tenure has budget");
        vclock::advance(999);
        assert!(p.may_pass_local(c(0), 10_000), "streak is irrelevant");
        vclock::advance(2);
        assert!(!p.may_pass_local(c(0), 0), "budget exhausted");
        p.ended(c(0), 3);
        assert_eq!(p.snapshot().tenures(), 1);
        assert_eq!(p.label(), "time(1000ns)");
        vclock::reset();
    }

    #[test]
    fn time_bound_wall_clock_mode() {
        // Every lock hands its book the monotonic wall clock.
        let wall = Tenures::new(
            PolicySpec::Time {
                budget_ns: u64::MAX / 2,
            },
            1,
            wall_ns,
        );
        wall.began(c(0));
        assert!(wall.may_pass_local(c(0), 0), "huge budget never expires");
        let spent = Tenures::new(PolicySpec::Time { budget_ns: 0 }, 1, wall_ns);
        spent.began(c(0));
        assert!(!spent.may_pass_local(c(0), 0), "zero budget never passes");
    }

    #[test]
    fn adaptive_bound_grows_on_cutoff_and_shrinks_when_dry() {
        let p = one(PolicySpec::Adaptive { min: 4, max: 64 });
        assert_eq!(bound_of(&p), 64, "initial clamps into range");

        // Cut off at the bound twice: stays at max (64 is already max).
        p.began(c(0));
        p.ended(c(0), 64);
        assert_eq!(bound_of(&p), 64);

        // Run dry early repeatedly: halves down to min, never below.
        for _ in 0..10 {
            p.began(c(0));
            p.ended(c(0), 0);
        }
        assert_eq!(bound_of(&p), 4);

        // Demand returns: doubles back up, never past max.
        for _ in 0..10 {
            p.began(c(0));
            let b = bound_of(&p);
            p.ended(c(0), b);
        }
        assert_eq!(bound_of(&p), 64);
    }

    #[test]
    #[should_panic(expected = "adaptive(0..4)")]
    fn adaptive_range_is_validated_where_the_book_is_built() {
        one(PolicySpec::Adaptive { min: 0, max: 4 });
    }

    #[test]
    #[should_panic(expected = "adaptive(9..4)")]
    fn adaptive_floor_above_ceiling_is_refused() {
        one(PolicySpec::Adaptive { min: 9, max: 4 });
    }

    #[test]
    fn policy_spec_builds_and_prints() {
        assert_eq!(PolicySpec::paper_default(), PolicySpec::Count { bound: 64 });
        let p = Tenures::new(PolicySpec::Count { bound: 5 }, 2, now);
        assert!(p.may_pass_local(c(0), 4));
        assert!(!p.may_pass_local(c(0), 5));
        assert_eq!(p.spec(), PolicySpec::Count { bound: 5 });
        assert_eq!(p.label(), "count(5)");
        assert_eq!(one(PolicySpec::NeverPass).label(), "never-pass");
        assert_eq!(
            format!("{}", PolicySpec::Adaptive { min: 8, max: 1024 }),
            "adaptive(8..1024)"
        );
    }
}
