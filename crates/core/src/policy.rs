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
//!   by default), `Time` / `WallTime` (tenure capped in clock nanoseconds,
//!   so fairness degrades gracefully under variable-length critical
//!   sections), `Adaptive` (a per-cluster bound that grows while cut-off
//!   tenures show local demand and shrinks when clusters run dry early),
//!   and the two degenerate corners `Unbounded` (§3.7's "deeply unfair"
//!   variant) and `NeverPass` (every release goes global).
//! * [`Tenures`] — the one tenure book every policy-driven lock owns: a
//!   spec plus one cache-padded slot per cluster, driven through four
//!   hooks ([`began`](Tenures::began),
//!   [`may_pass_local`](Tenures::may_pass_local),
//!   [`handed_off`](Tenures::handed_off), [`ended`](Tenures::ended)) and
//!   read back as a [`CohortStats`] snapshot.

use crossbeam_utils::CachePadded;
use numa_topology::{vclock, ClusterId};
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

// ---------------------------------------------------------------------------
// Tenures — the one tenure book

/// The tenure book of one policy-driven lock: the [`PolicySpec`] in force
/// plus one cache-padded slot per cluster holding that cluster's counters
/// and whatever per-tenure state the spec's rule reads.
///
/// The lock invokes the four hooks from well-defined protocol points,
/// always on the thread currently holding it:
///
/// * [`began`](Self::began) — the cluster just acquired the global lock; a
///   tenure begins.
/// * [`may_pass_local`](Self::may_pass_local) — the holder is releasing
///   after `streak` consecutive local handoffs this tenure; may it hand
///   off to a cluster-mate (if one is waiting)?
/// * [`handed_off`](Self::handed_off) — a local handoff *committed* (a
///   successor existed and inherited the global lock).
/// * [`ended`](Self::ended) — the tenure ended with a global release after
///   `streak` local handoffs.
///
/// Concurrency contract: in `CohortLock`, [`began`](Self::began) and
/// [`ended`](Self::ended) both run while the global lock is held (`ended`
/// fires *before* the global unlock), so they are totally ordered —
/// across all clusters, not just within one. CNA calls them after its
/// tail CAS, where an uncontended `ended` can already overlap the next
/// holder's `began`. [`may_pass_local`](Self::may_pass_local) and
/// [`handed_off`](Self::handed_off) run on holders whose predecessor may
/// still be finishing its own post-handoff hook, so in either lock they
/// can overlap same-cluster hook calls. Hence every word of a slot is
/// atomic (relaxed), which keeps [`snapshot`](Self::snapshot) race-free
/// too.
///
/// Clocks are read only inside the hooks and only by the specs that need
/// one (`Time`: the per-thread [virtual clock](numa_topology::vclock),
/// where handoff channels keep successive holders' clocks causally
/// monotone; `WallTime`: monotonic wall time, per release; `Adaptive`:
/// monotonic wall time, once per tenure end, never per handoff), so a
/// `Count` lock's uncontended path stays clock-free.
pub struct Tenures {
    spec: PolicySpec,
    slots: Box<[CachePadded<Slot>]>,
}

#[derive(Debug, Default)]
struct Slot {
    tenures: AtomicU64,
    local_handoffs: AtomicU64,
    global_releases: AtomicU64,
    max_streak: AtomicU64,
    sum_streak: AtomicU64,
    /// Stamp of the current tenure's start on the spec's clock (`Time`:
    /// virtual; `WallTime`, `Adaptive`: wall). Written by `began` only.
    started_ns: AtomicU64,
    /// `Adaptive`: this cluster's current bound, in `[min, max]`.
    bound: AtomicU64,
    /// `Adaptive`: wall stamp of this cluster's last global release.
    last_release_ns: AtomicU64,
    /// `Adaptive`: gap between the last release and the current tenure's
    /// start — the re-acquisition cost signal.
    wait_ns: AtomicU64,
}

/// Monotonic nanoseconds since a process epoch.
fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

impl Tenures {
    /// A tenure book for `clusters` clusters under `spec`.
    ///
    /// # Panics
    ///
    /// On an `Adaptive` range violating `1 <= min <= max` (which
    /// [`PolicySpec::parse`] never returns).
    pub fn new(spec: PolicySpec, clusters: usize) -> Self {
        let initial_bound = match spec {
            PolicySpec::Adaptive { min, max } => {
                assert!(min >= 1 && min <= max, "{spec} needs 1 <= min <= max");
                PolicySpec::PAPER_BOUND.clamp(min, max)
            }
            _ => 0,
        };
        Tenures {
            spec,
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

    /// A tenure starts on `cluster`.
    #[inline]
    pub fn began(&self, cluster: ClusterId) {
        let s = self.slot(cluster);
        match self.spec {
            PolicySpec::Time { .. } => s.started_ns.store(vclock::now(), Ordering::Relaxed),
            PolicySpec::WallTime { .. } => s.started_ns.store(wall_ns(), Ordering::Relaxed),
            PolicySpec::Adaptive { .. } => {
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
                s.started_ns.store(now, Ordering::Relaxed);
            }
            PolicySpec::Count { .. } | PolicySpec::Unbounded | PolicySpec::NeverPass => {}
        }
        s.tenures.fetch_add(1, Ordering::Relaxed);
    }

    /// May the holder on `cluster` hand off locally after `streak`
    /// consecutive local handoffs in the current tenure?
    #[inline]
    pub fn may_pass_local(&self, cluster: ClusterId, streak: u64) -> bool {
        // Time rules: the holder's clock is causally at or past the tenure
        // start (virtual: the handoff channel publishes the releaser's
        // timestamp; wall: monotonic).
        let elapsed =
            |now: u64| now.saturating_sub(self.slot(cluster).started_ns.load(Ordering::Relaxed));
        match self.spec {
            PolicySpec::Count { bound } => streak < bound,
            PolicySpec::Time { budget_ns } => elapsed(vclock::now()) < budget_ns,
            PolicySpec::WallTime { budget_ns } => elapsed(wall_ns()) < budget_ns,
            PolicySpec::Adaptive { .. } => {
                streak < self.slot(cluster).bound.load(Ordering::Relaxed)
            }
            PolicySpec::Unbounded => true,
            PolicySpec::NeverPass => false,
        }
    }

    /// A local handoff committed on `cluster`; `streak` is the releaser's
    /// count of handoffs already performed this tenure (so the new streak
    /// is `streak + 1`).
    #[inline]
    pub fn handed_off(&self, cluster: ClusterId, streak: u64) {
        let s = self.slot(cluster);
        s.local_handoffs.fetch_add(1, Ordering::Relaxed);
        s.max_streak.fetch_max(streak + 1, Ordering::Relaxed);
    }

    /// The tenure on `cluster` ended with a global release after `streak`
    /// local handoffs.
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
            let now = wall_ns();
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
        s.global_releases.fetch_add(1, Ordering::Relaxed);
        s.sum_streak.fetch_add(streak, Ordering::Relaxed);
        s.max_streak.fetch_max(streak, Ordering::Relaxed);
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

impl fmt::Debug for Tenures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tenures({})", self.spec)
    }
}

// ---------------------------------------------------------------------------
// PolicySpec — runtime policy selection

/// A handoff policy as a value: which rule ends a cohort's tenure on the
/// global lock. Locks take one at construction (`with_policy`) and hand
/// it to their [`Tenures`] book, whose hooks `match` on it; env knobs and
/// CLI flags reach it through [`parse`](Self::parse).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicySpec {
    /// At most `bound` consecutive local handoffs per tenure — the paper's
    /// policy, with `bound = 64` (§3.7).
    Count {
        /// Maximum consecutive local handoffs per tenure.
        bound: u64,
    },
    /// Tenure capped by elapsed nanoseconds on the per-thread
    /// [virtual clock](numa_topology::vclock) rather than handoff count.
    ///
    /// A count bound makes tenure *duration* proportional to
    /// critical-section length; under mixed workloads (some holders do
    /// 100 ns, some 100 µs) a time bound keeps the starvation window of
    /// remote clusters constant instead.
    Time {
        /// Tenure budget in virtual nanoseconds.
        budget_ns: u64,
    },
    /// [`Time`](Self::Time) over the monotonic wall clock — for real
    /// hardware, where virtual clocks do not advance.
    WallTime {
        /// Tenure budget in wall nanoseconds.
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
                    // The default adaptation window.
                    None => PolicySpec::Adaptive { min: 8, max: 1024 },
                    Some(min_str) => {
                        let syntax = "adaptive[:<min>:<max>]";
                        let min = min_str.parse().map_err(|_| PolicyParseError::BadNumber {
                            policy: "adaptive",
                            field: "min",
                            value: min_str.to_string(),
                            syntax,
                        })?;
                        let max = number("adaptive", "max", syntax, parts.next())?;
                        // Reject here what Tenures::new would assert on —
                        // env input must not abort the process.
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

    /// A one-cluster book under `spec`.
    fn one(spec: PolicySpec) -> Tenures {
        Tenures::new(spec, 1)
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
        let t = Tenures::new(PolicySpec::paper_default(), 2);
        t.began(c(0));
        t.handed_off(c(0), 0);
        t.handed_off(c(0), 1);
        t.ended(c(0), 2);
        t.began(c(1));
        t.ended(c(1), 0);
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
    fn time_bound_expires_on_virtual_clock() {
        vclock::reset();
        let p = one(PolicySpec::Time { budget_ns: 1_000 });
        vclock::set(5_000);
        p.began(c(0));
        assert!(p.may_pass_local(c(0), 0), "fresh tenure has budget");
        vclock::advance(999);
        assert!(p.may_pass_local(c(0), 10_000), "streak is irrelevant");
        vclock::advance(2);
        assert!(!p.may_pass_local(c(0), 0), "budget exhausted");
        p.ended(c(0), 3);
        assert_eq!(p.snapshot().global_releases(), 1);
        vclock::reset();
    }

    #[test]
    fn time_bound_wall_clock_mode() {
        let p = one(PolicySpec::WallTime {
            budget_ns: u64::MAX / 2,
        });
        p.began(c(0));
        assert!(p.may_pass_local(c(0), 0), "huge wall budget never expires");
        assert_eq!(p.label(), format!("wall-time({}ns)", u64::MAX / 2));
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
        Tenures::new(PolicySpec::Adaptive { min: 0, max: 4 }, 1);
    }

    #[test]
    #[should_panic(expected = "adaptive(9..4)")]
    fn adaptive_floor_above_ceiling_is_refused() {
        Tenures::new(PolicySpec::Adaptive { min: 9, max: 4 }, 1);
    }

    #[test]
    fn policy_spec_builds_and_prints() {
        assert_eq!(PolicySpec::paper_default(), PolicySpec::Count { bound: 64 });
        let p = Tenures::new(PolicySpec::Count { bound: 5 }, 2);
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
        // Ranges Tenures::new would panic on are rejected at parse time.
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
