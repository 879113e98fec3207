//! The lock registry: every algorithm of the evaluation behind one name,
//! **one row per kind**.
//!
//! A kind's [`Row`] holds everything the harness knows about it — the
//! name the exhibits print, the admission class (with its default bound)
//! the modelled substrate simulates for it, and its constructor — and
//! `name()`, `has_policy_knob()`, `cna_threshold()`,
//! `modelled_admission()` and `make` all read that row. The tables are
//! `match`es, so the compiler rejects a variant without a row; see
//! docs/ARCHITECTURE.md, "One row per kind", for how a kind is added.

use crate::bench_lock::{PthreadLock, RawAdapter};
use crate::bench_rwlock::{BenchRwLock, CohortRwAdapter, StdRwAdapter};
use base_locks::{
    AbortableClhLock, ClhLock, FibBackoffLock, GlobalBoLock, McsLock, RawAbortableLock, RawLock,
    ReciprocatingLock, TatasLock, TicketLock,
};
use cohort::{
    AbortableLocalCohortLock, CBoMcs, CohortLock, CohortRwLock, FisBoMcs, FissileLock, GcrLock,
    Introspect, LocalBoLock, LocalCohortLock, PolicySpec, RwFairness, ThreadOblivious,
};
use numa_baselines::{CnaLock, FcMcsLock, HboLock, HboParams, HclhLock};
use numa_topology::Topology;
use std::sync::Arc;

/// Builds a kind's lock over a topology: `None` installs the kind's
/// default handoff policy, `Some(spec)` the described one (ignored by
/// kinds without a policy knob).
type Ctor = fn(&Arc<Topology>, Option<PolicySpec>) -> Arc<dyn BenchRwLock>;

/// Everything the harness knows about one kind.
struct Row {
    /// The name used in the paper's figures and tables.
    name: &'static str,
    /// Admission order the modelled substrate simulates, carrying the
    /// kind's **default** tenure bound where it batches. A kind has the
    /// handoff-policy knob exactly when this is `ClusterBatched`: the
    /// constructor honors a [`PolicySpec`] for the same kinds the model
    /// runs one for.
    admission: ModelledAdmission,
    make: Ctor,
}

impl Row {
    fn new(name: &'static str, admission: ModelledAdmission, make: Ctor) -> Row {
        Row {
            name,
            admission,
            make,
        }
    }
}

/// Batched admission at a default bound of `bound` local handoffs.
const fn batched(bound: u64) -> ModelledAdmission {
    ModelledAdmission::ClusterBatched(PolicySpec::Count { bound })
}

/// Batched admission at the paper's bound, the cohort family's default.
const PAPER: ModelledAdmission = batched(PolicySpec::PAPER_BOUND);

// ---------------------------------------------------------------------------
// Constructor helpers, named after what they compose

/// Erases a mutual-exclusion lock.
fn erase<L: RawLock + Introspect + 'static>(lock: L) -> Arc<dyn BenchRwLock> {
    Arc::new(RawAdapter::new(lock))
}

/// Erases an abortable mutual-exclusion lock.
fn erase_abortable<L: RawAbortableLock + Introspect + 'static>(lock: L) -> Arc<dyn BenchRwLock> {
    Arc::new(RawAdapter::abortable(lock))
}

/// A topology-oblivious lock `L`, as it comes.
fn raw<L>(_: &Arc<Topology>, _: Option<PolicySpec>) -> Arc<dyn BenchRwLock>
where
    L: RawLock + Introspect + Default + 'static,
{
    erase(L::default())
}

/// The policy a cohort-family row installs: the knob's, else the paper's.
fn or_paper(policy: Option<PolicySpec>) -> PolicySpec {
    policy.unwrap_or(PolicySpec::paper_default())
}

/// C-G-L: global lock `G` over per-cluster local locks `L`.
fn cohort<G, L>(topo: &Arc<Topology>, policy: Option<PolicySpec>) -> Arc<dyn BenchRwLock>
where
    G: ThreadOblivious + Default + 'static,
    L: LocalCohortLock + Default + 'static,
{
    erase(CohortLock::<G, L>::with_policy(
        Arc::clone(topo),
        or_paper(policy),
    ))
}

/// A-C-G-L: the abortable cohort compositions.
fn abortable<G, L>(topo: &Arc<Topology>, policy: Option<PolicySpec>) -> Arc<dyn BenchRwLock>
where
    G: ThreadOblivious + RawAbortableLock + Default + 'static,
    L: AbortableLocalCohortLock + Default + 'static,
{
    erase_abortable(CohortLock::<G, L>::with_policy(
        Arc::clone(topo),
        or_paper(policy),
    ))
}

/// Fis-G-L: a TATAS word tried first, C-G-L underneath.
fn fissile<G, L>(topo: &Arc<Topology>, policy: Option<PolicySpec>) -> Arc<dyn BenchRwLock>
where
    G: ThreadOblivious + Default + 'static,
    L: LocalCohortLock + Default + 'static,
{
    erase(FissileLock::<G, L>::with_policy(
        Arc::clone(topo),
        or_paper(policy),
    ))
}

/// GCR over `inner`.
fn gcr_over<K: RawLock + Introspect + 'static>(
    topo: &Arc<Topology>,
    inner: K,
) -> Arc<dyn BenchRwLock> {
    erase(GcrLock::over(Arc::clone(topo), inner))
}

/// GCR-C-BO-MCS.
fn gcr_c_bo_mcs(topo: &Arc<Topology>, policy: Option<PolicySpec>) -> Arc<dyn BenchRwLock> {
    gcr_over(
        topo,
        CBoMcs::with_policy(Arc::clone(topo), or_paper(policy)),
    )
}

/// GCR-Fis-BO-MCS.
fn gcr_fis_bo_mcs(topo: &Arc<Topology>, policy: Option<PolicySpec>) -> Arc<dyn BenchRwLock> {
    gcr_over(
        topo,
        FisBoMcs::with_policy(Arc::clone(topo), or_paper(policy)),
    )
}

/// CNA with `threshold` consecutive local handoffs by default.
fn cna(topo: &Arc<Topology>, policy: Option<PolicySpec>, threshold: u64) -> Arc<dyn BenchRwLock> {
    let spec = policy.unwrap_or(PolicySpec::Count { bound: threshold });
    erase(CnaLock::with_policy(Arc::clone(topo), spec))
}

/// HBO (also A-HBO's lock) with the microbenchmark tuning.
fn hbo(topo: &Arc<Topology>) -> HboLock {
    HboLock::with_params(Arc::clone(topo), HboParams::microbench_tuned())
}

/// C-RW-G-L at the given fairness: writers through C-G-L, readers
/// through per-cluster counters.
fn cohort_rw_at<G, L>(
    topo: &Arc<Topology>,
    policy: Option<PolicySpec>,
    fairness: RwFairness,
) -> Arc<dyn BenchRwLock>
where
    G: ThreadOblivious + Default + 'static,
    L: LocalCohortLock + Default + 'static,
{
    Arc::new(CohortRwAdapter::new(
        CohortRwLock::<G, L>::with_policy_and_fairness(
            Arc::clone(topo),
            or_paper(policy),
            fairness,
        ),
    ))
}

/// C-RW-WP-G-L: [`cohort_rw_at`] under writer preference.
fn cohort_rw<G, L>(topo: &Arc<Topology>, policy: Option<PolicySpec>) -> Arc<dyn BenchRwLock>
where
    G: ThreadOblivious + Default + 'static,
    L: LocalCohortLock + Default + 'static,
{
    cohort_rw_at::<G, L>(topo, policy, RwFairness::WriterPreference)
}

// ---------------------------------------------------------------------------
// The exclusive kinds

/// Declares [`LockKind`] together with [`LockKind::ALL`], so the sweep
/// set lists every variant by construction.
macro_rules! lock_kinds {
    ($($variant:ident),* $(,)?) => {
        /// Every lock algorithm the paper's evaluation mentions, by its
        /// name there.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[allow(missing_docs)]
        pub enum LockKind {
            $($variant),*
        }

        impl LockKind {
            /// Every registered kind, in registry order — the sweep set
            /// of the benchmark's per-kind layer cells (uncontended
            /// overhead is measured per lock, so a kind missing here
            /// would escape regression tracking).
            pub const ALL: [LockKind; [$(LockKind::$variant),*].len()] =
                [$(LockKind::$variant),*];
        }
    };
}

lock_kinds! {
    // NUMA-oblivious baselines.
    Pthread,
    Tatas,
    FibBo,
    Ticket,
    Mcs,
    Clh,
    // Prior NUMA-aware locks.
    Hbo,
    HboTuned,
    Hclh,
    FcMcs,
    // The modern single-word competitor (Dice & Kogan, EuroSys '19):
    // paper-comparable threshold (64) and a tight-threshold variant.
    Cna,
    CnaTight,
    // Cohort locks (the paper's contribution).
    CBoBo,
    CTktTkt,
    CBoMcs,
    CTktMcs,
    CMcsMcs,
    // Fissile fast-path cohort locks (Dice & Kogan, arXiv:2003.05025):
    // a TATAS word tried first, the cohort composition underneath.
    FisBoMcs,
    FisTktMcs,
    // GCR admission wrappers (Dice & Kogan, arXiv:1905.10818): a
    // concurrency-restriction layer over a plain queue lock, the paper's
    // best cohort lock, and the fissile fast-path lock.
    GcrMcs,
    GcrCBoMcs,
    GcrFisBoMcs,
    // Reciprocating locks (Dice & Kogan, arXiv:2501.02380): a one-word
    // arrivals stack admitted in reversed (palindromic) segments, so
    // every handover costs a constant number of coherence transitions —
    // plain, and cohortized as the global lock over local MCS queues.
    Recip,
    CRecipMcs,
    // Abortable locks (Figure 6).
    AClh,
    AHbo,
    ACBoBo,
    ACBoClh,
}

impl LockKind {
    /// Fairness threshold of the [`LockKind::CnaTight`] variant (also
    /// baked into its `"CNA (t=4)"` display name — keep the two in sync).
    pub const CNA_TIGHT_THRESHOLD: u64 = 4;

    /// The table: one row per kind.
    ///
    /// What the admission column claims: queue and backoff baselines,
    /// and also the *prior* NUMA-aware locks (HBO/HCLH/FC-MCS, whose
    /// locality preference is emergent rather than policy-bounded), book
    /// as `Fifo`; so does GCR over a plain queue lock. The cohort family,
    /// CNA (whose secondary queue is cluster batching by another name),
    /// the fissile wrappers (slow path is a cohort lock) and GCR over
    /// those book as `ClusterBatched` at their default bound. The plain
    /// Reciprocating lock has no policy knob yet is anything but FIFO.
    fn row(self) -> Row {
        use ModelledAdmission::{Fifo, ReciprocatingStack};
        type Bo = GlobalBoLock;
        type Tkt = TicketLock;
        type Mcs = McsLock;
        const TIGHT: u64 = LockKind::CNA_TIGHT_THRESHOLD;
        match self {
            LockKind::Pthread => Row::new("pthread", Fifo, raw::<PthreadLock>),
            LockKind::Tatas => Row::new("TATAS", Fifo, raw::<TatasLock>),
            LockKind::FibBo => Row::new("Fib-BO", Fifo, raw::<FibBackoffLock>),
            LockKind::Ticket => Row::new("Ticket", Fifo, raw::<TicketLock>),
            LockKind::Mcs => Row::new("MCS", Fifo, raw::<McsLock>),
            LockKind::Clh => Row::new("CLH", Fifo, raw::<ClhLock>),
            LockKind::Hbo => Row::new("HBO", Fifo, |t, _| erase(hbo(t))),
            LockKind::HboTuned => Row::new("HBO (tuned)", Fifo, |t, _| {
                erase(HboLock::with_params(
                    Arc::clone(t),
                    HboParams::kvstore_tuned(),
                ))
            }),
            LockKind::Hclh => Row::new("HCLH", Fifo, |t, _| erase(HclhLock::new(Arc::clone(t)))),
            LockKind::FcMcs => {
                Row::new("FC-MCS", Fifo, |t, _| erase(FcMcsLock::new(Arc::clone(t))))
            }
            LockKind::Cna => Row::new("CNA", PAPER, |t, p| cna(t, p, PolicySpec::PAPER_BOUND)),
            LockKind::CnaTight => Row::new("CNA (t=4)", batched(TIGHT), |t, p| cna(t, p, TIGHT)),
            LockKind::CBoBo => Row::new("C-BO-BO", PAPER, cohort::<Bo, LocalBoLock>),
            LockKind::CTktTkt => Row::new("C-TKT-TKT", PAPER, cohort::<Tkt, Tkt>),
            LockKind::CBoMcs => Row::new("C-BO-MCS", PAPER, cohort::<Bo, Mcs>),
            LockKind::CTktMcs => Row::new("C-TKT-MCS", PAPER, cohort::<Tkt, Mcs>),
            LockKind::CMcsMcs => Row::new("C-MCS-MCS", PAPER, cohort::<Mcs, Mcs>),
            LockKind::FisBoMcs => Row::new("Fis-BO-MCS", PAPER, fissile::<Bo, Mcs>),
            LockKind::FisTktMcs => Row::new("Fis-TKT-MCS", PAPER, fissile::<Tkt, Mcs>),
            LockKind::GcrMcs => Row::new("GCR-MCS", Fifo, |t, _| gcr_over(t, McsLock::new())),
            LockKind::GcrCBoMcs => Row::new("GCR-C-BO-MCS", PAPER, gcr_c_bo_mcs),
            LockKind::GcrFisBoMcs => Row::new("GCR-Fis-BO-MCS", PAPER, gcr_fis_bo_mcs),
            LockKind::Recip => Row::new("Recip", ReciprocatingStack, raw::<ReciprocatingLock>),
            LockKind::CRecipMcs => Row::new("C-Recip-MCS", PAPER, cohort::<ReciprocatingLock, Mcs>),
            LockKind::AClh => Row::new("A-CLH", Fifo, |_, _| {
                erase_abortable(AbortableClhLock::new())
            }),
            LockKind::AHbo => Row::new("A-HBO", Fifo, |t, _| erase_abortable(hbo(t))),
            LockKind::ACBoBo => Row::new("A-C-BO-BO", PAPER, abortable::<Bo, LocalBoLock>),
            LockKind::ACBoClh => Row::new("A-C-BO-CLH", PAPER, abortable::<Bo, AbortableClhLock>),
        }
    }

    /// The name used in the paper's figures and tables.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The CNA fairness threshold this kind is registered with (`None`
    /// for non-CNA kinds) — the single source the `fig_compare` self-check
    /// asserts streaks against.
    pub fn cna_threshold(self) -> Option<u64> {
        match (self, self.row().admission) {
            (
                LockKind::Cna | LockKind::CnaTight,
                ModelledAdmission::ClusterBatched(PolicySpec::Count { bound }),
            ) => Some(bound),
            _ => None,
        }
    }

    /// Instantiates the lock over `topo` with the kind's default policy.
    pub fn make(self, topo: &Arc<Topology>) -> Arc<dyn BenchRwLock> {
        (self.row().make)(topo, None)
    }

    /// The nine locks of Figures 2–5.
    pub const FIG2: [LockKind; 9] = [
        LockKind::Mcs,
        LockKind::Hbo,
        LockKind::Hclh,
        LockKind::FcMcs,
        LockKind::CBoBo,
        LockKind::CTktTkt,
        LockKind::CBoMcs,
        LockKind::CTktMcs,
        LockKind::CMcsMcs,
    ];

    /// The four abortable locks of Figure 6.
    pub const FIG6: [LockKind; 4] = [
        LockKind::AClh,
        LockKind::AHbo,
        LockKind::ACBoBo,
        LockKind::ACBoClh,
    ];

    /// The locks of the `fig_compare` exhibit: the union of the three
    /// sets below, in an order that keeps each one's own order.
    pub const FIG_COMPARE: [LockKind; 8] = [
        LockKind::Tatas,
        LockKind::Mcs,
        LockKind::CBoMcs,
        LockKind::Cna,
        LockKind::CnaTight,
        LockKind::FisBoMcs,
        LockKind::Recip,
        LockKind::CRecipMcs,
    ];

    /// The rows of `fig_cna.csv`: cohorting (C-BO-MCS) vs. compaction
    /// (CNA at the paper-comparable threshold and a tight one) vs. the
    /// NUMA-oblivious MCS both build on.
    pub const FIG_CNA: [LockKind; 4] = [
        LockKind::Mcs,
        LockKind::CBoMcs,
        LockKind::Cna,
        LockKind::CnaTight,
    ];

    /// The rows of `fig_fissile.csv`: the raw fast path (TATAS), the raw
    /// queue baseline (MCS), the two-level slow path (C-BO-MCS), and the
    /// graft of both (Fis-BO-MCS).
    pub const FIG_FISSILE: [LockKind; 4] = [
        LockKind::Tatas,
        LockKind::Mcs,
        LockKind::CBoMcs,
        LockKind::FisBoMcs,
    ];

    /// The comparison set of the `fig_gcr` exhibit: each GCR wrapper
    /// next to its bare inner lock, so the oversubscription sweep shows
    /// what admission restriction buys (and what it costs uncontended).
    pub const FIG_GCR: [LockKind; 6] = [
        LockKind::Mcs,
        LockKind::GcrMcs,
        LockKind::CBoMcs,
        LockKind::GcrCBoMcs,
        LockKind::FisBoMcs,
        LockKind::GcrFisBoMcs,
    ];

    /// The rows of `fig_recip.csv`: the reciprocating lock and its
    /// cohortized form next to the queue baseline (MCS), the compaction
    /// competitor (CNA), the fissile fast-path graft, and the
    /// centralized-word floor (TATAS) the saturation check uses.
    pub const FIG_RECIP: [LockKind; 6] = [
        LockKind::Tatas,
        LockKind::Mcs,
        LockKind::Cna,
        LockKind::FisBoMcs,
        LockKind::Recip,
        LockKind::CRecipMcs,
    ];

    /// The eleven lock columns of Tables 1 and 2.
    pub const TABLES: [LockKind; 11] = [
        LockKind::Pthread,
        LockKind::FibBo,
        LockKind::Mcs,
        LockKind::Hbo,
        LockKind::HboTuned,
        LockKind::FcMcs,
        LockKind::CBoBo,
        LockKind::CTktTkt,
        LockKind::CBoMcs,
        LockKind::CTktMcs,
        LockKind::CMcsMcs,
    ];
}

// ---------------------------------------------------------------------------
// The reader-writer kinds

/// The reader-writer locks of the `fig_rw` exhibit, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RwLockKind {
    /// `std::sync::RwLock` — NUMA-oblivious OS baseline.
    StdRw,
    /// C-RW-BO-MCS under writer preference.
    CRwWpBoMcs,
    /// C-RW-BO-MCS under neutral fairness.
    CRwNeutralBoMcs,
    /// C-RW-TKT-MCS under writer preference.
    CRwWpTktMcs,
    /// The single-writer baseline: C-BO-MCS with *reads taken
    /// exclusively* (what the pre-RW workloads did).
    MutexCBoMcs,
}

impl RwLockKind {
    /// The table: one row per kind. A policy bounds the cohort RW locks'
    /// writer tenures, and reaches the single-writer baseline's C-BO-MCS
    /// like any cohort kind (its `fig_rw.csv` rows carry the label).
    fn row(self) -> Row {
        type Bo = GlobalBoLock;
        type Tkt = TicketLock;
        type Mcs = McsLock;
        match self {
            RwLockKind::StdRw => Row::new("std-RwLock", ModelledAdmission::Fifo, |_, _| {
                Arc::new(StdRwAdapter::new())
            }),
            RwLockKind::CRwWpBoMcs => Row::new("C-RW-WP-BO-MCS", PAPER, cohort_rw::<Bo, Mcs>),
            RwLockKind::CRwNeutralBoMcs => Row::new("C-RW-N-BO-MCS", PAPER, |t, p| {
                cohort_rw_at::<Bo, Mcs>(t, p, RwFairness::Neutral)
            }),
            RwLockKind::CRwWpTktMcs => Row::new("C-RW-WP-TKT-MCS", PAPER, cohort_rw::<Tkt, Mcs>),
            RwLockKind::MutexCBoMcs => Row::new("C-BO-MCS (excl)", PAPER, cohort::<Bo, Mcs>),
        }
    }

    /// The name used in the `fig_rw` exhibit.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// Instantiates the lock over `topo`, honoring `policy` (writer-tenure
    /// bound) where it applies.
    pub fn make(self, topo: &Arc<Topology>, policy: Option<PolicySpec>) -> Arc<dyn BenchRwLock> {
        (self.row().make)(topo, policy)
    }

    /// The comparison set of the `fig_rw` exhibit.
    pub const FIG_RW: [RwLockKind; 5] = [
        RwLockKind::StdRw,
        RwLockKind::MutexCBoMcs,
        RwLockKind::CRwWpBoMcs,
        RwLockKind::CRwNeutralBoMcs,
        RwLockKind::CRwWpTktMcs,
    ];
}

impl std::fmt::Display for RwLockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Both, behind one surface

/// Every lock in the repository — exclusive and reader-writer — behind
/// **one** registry surface, the one the scenario engine
/// ([`run_scenario`](crate::run_scenario)) consumes.
///
/// Either way the product is an `Arc<dyn BenchRwLock>` — the single
/// erased interface every exhibit drives. An exclusive kind's read side
/// is its write side, which the engine detects via
/// [`BenchRwLock::read_is_exclusive`] and charges through the handoff
/// channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AnyLockKind {
    /// A mutual-exclusion lock from [`LockKind`].
    Excl(LockKind),
    /// A reader-writer lock from [`RwLockKind`].
    Rw(RwLockKind),
}

impl AnyLockKind {
    fn row(self) -> Row {
        match self {
            AnyLockKind::Excl(k) => k.row(),
            AnyLockKind::Rw(k) => k.row(),
        }
    }

    /// The name used in the exhibits.
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// A list of exclusive kinds (a figure's lock set, say) as the
    /// engine and the exhibits take it.
    pub fn excl(kinds: &[LockKind]) -> Vec<AnyLockKind> {
        kinds.iter().copied().map(AnyLockKind::Excl).collect()
    }

    /// Instantiates the lock over `topo`, honoring `policy` where it
    /// applies — the one constructor behind every scenario run.
    pub fn make(self, topo: &Arc<Topology>, policy: Option<PolicySpec>) -> Arc<dyn BenchRwLock> {
        (self.row().make)(topo, policy)
    }

    /// Whether a [`PolicySpec`] applies to this kind — the cohort locks
    /// (exclusive and RW, and the single-writer baseline's C-BO-MCS),
    /// the CNA family, the fissile wrappers (whose slow path is a cohort
    /// lock), and the GCR wrappers over policy-driven inner locks share
    /// the handoff-policy knob.
    pub fn has_policy_knob(self) -> bool {
        matches!(self.row().admission, ModelledAdmission::ClusterBatched(_))
    }

    /// The admission order the modelled runner simulates for this kind,
    /// honoring `policy` exactly where the real constructor would
    /// ([`AnyLockKind::make`] ignores the knob for non-policy kinds).
    pub fn modelled_admission(self, policy: Option<PolicySpec>) -> ModelledAdmission {
        match (self.row().admission, policy) {
            (ModelledAdmission::ClusterBatched(_), Some(spec)) => {
                ModelledAdmission::ClusterBatched(spec)
            }
            (class, _) => class,
        }
    }
}

/// How the modelled-coherence runner (`CostMode::Modelled`) orders
/// waiters for a kind — the *mechanism* abstraction behind the
/// deterministic simulation: what distinguishes lock families in the
/// model is only whether they prefer same-cluster waiters, exactly the
/// property the paper's analysis (§4.1.2) reduces them to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelledAdmission {
    /// Strict arrival order. Queue and backoff baselines, and also the
    /// *prior* NUMA-aware locks (HBO/HCLH/FC-MCS): their locality
    /// preference is emergent rather than policy-bounded, so the model
    /// conservatively books them as FIFO — they appear as baselines, not
    /// as cohort-equivalents, in modelled exhibits.
    Fifo,
    /// Prefer a same-cluster waiter while the policy lets the tenure
    /// continue, then hand off to the earliest waiter overall — the cohort
    /// family, CNA (whose secondary queue is cluster batching by another
    /// name), the fissile wrappers (slow path is a cohort lock), and the
    /// GCR wrappers over policy-driven inner locks. The simulator runs the
    /// spec through the locks' own `cohort::Tenures` book on simulated
    /// time, so `Time` budgets simulated nanoseconds and `Adaptive` adapts
    /// to simulated waits.
    ClusterBatched(PolicySpec),
    /// The Reciprocating lock's palindromic schedule: the waiting set is
    /// frozen into a *segment* at detach time and admitted newest-first;
    /// threads arriving later wait for the next segment (bounded bypass
    /// — nobody is overtaken twice in one era). Each handover touches a
    /// constant number of lines, which the succession census books as
    /// such.
    ReciprocatingStack,
}

impl From<LockKind> for AnyLockKind {
    fn from(kind: LockKind) -> Self {
        AnyLockKind::Excl(kind)
    }
}

impl From<RwLockKind> for AnyLockKind {
    fn from(kind: RwLockKind) -> Self {
        AnyLockKind::Rw(kind)
    }
}

impl std::fmt::Display for AnyLockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::fmt::Display for LockKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knob(kind: LockKind) -> bool {
        AnyLockKind::Excl(kind).has_policy_knob()
    }

    #[test]
    fn every_kind_constructs_and_locks() {
        let topo = Arc::new(Topology::new(4));
        for kind in LockKind::ALL {
            let lock = kind.make(&topo);
            lock.acquire_write();
            lock.release_write();
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn all_is_exhaustive_and_duplicate_free() {
        // `lock_kinds!` lists every variant in `ALL` by construction;
        // what is left to check is that the list is the declaration
        // order and that no two rows — of either table — share a name.
        let mut names = std::collections::HashSet::new();
        for (i, kind) in LockKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind} out of declaration order in ALL");
            assert!(names.insert(kind.name()), "{kind}: name used twice");
        }
        for kind in RwLockKind::FIG_RW {
            assert!(names.insert(kind.name()), "{kind}: name used twice");
        }
    }

    #[test]
    fn fig6_locks_are_abortable() {
        let topo = Arc::new(Topology::new(4));
        for kind in LockKind::FIG6 {
            assert!(kind.make(&topo).is_abortable(), "{kind} must abort");
        }
        // ...and nothing else does: the DES reads the same answer.
        for kind in LockKind::ALL
            .into_iter()
            .filter(|k| !LockKind::FIG6.contains(k))
        {
            assert!(!kind.make(&topo).is_abortable(), "{kind} must not abort");
        }
        for kind in RwLockKind::FIG_RW {
            assert!(
                !kind.make(&topo, None).is_abortable(),
                "{kind} must not abort"
            );
        }
    }

    #[test]
    fn cohort_classification() {
        assert!(knob(LockKind::CnaTight));
        assert!(knob(LockKind::CBoMcs));
        assert!(!knob(LockKind::Mcs));
        // Fissile wrappers are policy-driven through their slow path.
        assert!(knob(LockKind::FisTktMcs));
        // GCR wrappers are their own family: the policy knob applies
        // only where the wrapped lock is policy-driven.
        assert!(!knob(LockKind::GcrMcs));
        assert!(knob(LockKind::GcrCBoMcs));
        assert!(knob(LockKind::GcrFisBoMcs));
        // The reciprocating family: the plain lock has no policy knob
        // (its admission order is structural, not tunable), while the
        // cohortized form is a full cohort composition.
        assert!(!knob(LockKind::Recip));
        assert!(knob(LockKind::CRecipMcs));
        assert_eq!(LockKind::Cna.cna_threshold(), Some(64));
        assert_eq!(
            LockKind::CnaTight.cna_threshold(),
            Some(LockKind::CNA_TIGHT_THRESHOLD)
        );
        assert_eq!(LockKind::Mcs.cna_threshold(), None);
        assert_eq!(LockKind::CBoMcs.cna_threshold(), None);
    }

    #[test]
    fn cohort_kinds_report_stats_and_others_do_not() {
        let topo = Arc::new(Topology::new(4));
        for kind in [
            LockKind::CBoBo,
            LockKind::CTktMcs,
            LockKind::CRecipMcs,
            LockKind::ACBoClh,
            LockKind::Cna,
            LockKind::CnaTight,
        ] {
            let lock = kind.make(&topo);
            lock.acquire_write();
            lock.release_write();
            let stats = lock
                .cohort_stats()
                .expect("policy-driven locks expose stats");
            assert_eq!(stats.tenures(), 1, "{kind}");
        }
        assert!(LockKind::Mcs.make(&topo).cohort_stats().is_none());
        assert!(LockKind::Recip.make(&topo).cohort_stats().is_none());
        assert!(LockKind::Pthread.make(&topo).cohort_stats().is_none());
    }

    #[test]
    fn fissile_kinds_report_fast_slow_accounting() {
        let topo = Arc::new(Topology::new(4));
        for kind in [LockKind::FisBoMcs, LockKind::FisTktMcs] {
            let lock = kind.make(&topo);
            lock.acquire_write();
            lock.release_write();
            let stats = lock.cohort_stats().expect("fissile locks expose stats");
            assert_eq!(stats.fast_acquisitions, 1, "{kind}: uncontended = fast");
            assert_eq!(stats.slow_acquisitions, 0, "{kind}");
            assert_eq!(stats.tenures(), 0, "{kind}: fast path skips the cohort");
            assert_eq!(lock.policy_label().as_deref(), Some("count(64)"), "{kind}");
        }
        // The policy knob reaches the fissile slow path like any cohort kind.
        let lock = AnyLockKind::Excl(LockKind::FisBoMcs)
            .make(&topo, Some(PolicySpec::Time { budget_ns: 7 }));
        assert_eq!(lock.policy_label().as_deref(), Some("time(7ns)"));
    }

    #[test]
    fn gcr_kinds_report_admission_accounting() {
        let topo = Arc::new(Topology::new(4));
        for kind in [LockKind::GcrMcs, LockKind::GcrCBoMcs, LockKind::GcrFisBoMcs] {
            let lock = kind.make(&topo);
            lock.acquire_write();
            lock.release_write();
            let stats = lock.cohort_stats().expect("GCR kinds expose stats");
            assert_eq!(stats.passive_parks, 0, "{kind}: uncontended never parks");
            assert_eq!(stats.promotions, 0, "{kind}");
        }
        // The inner lock's own accounting passes through the wrapper.
        let lock = LockKind::GcrCBoMcs.make(&topo);
        lock.acquire_write();
        lock.release_write();
        let stats = lock.cohort_stats().unwrap();
        assert_eq!(stats.tenures(), 1, "inner cohort tenure visible");
        assert_eq!(lock.policy_label().as_deref(), Some("count(64)"));
        // A plain inner lock has no policy: the adapter reports "-".
        assert_eq!(
            LockKind::GcrMcs.make(&topo).policy_label().as_deref(),
            Some("-")
        );
        // The policy knob reaches the wrapped lock like any cohort kind.
        let lock = AnyLockKind::Excl(LockKind::GcrFisBoMcs)
            .make(&topo, Some(PolicySpec::Time { budget_ns: 5 }));
        assert_eq!(lock.policy_label().as_deref(), Some("time(5ns)"));
    }

    #[test]
    fn cna_threshold_variants_report_their_labels() {
        let topo = Arc::new(Topology::new(4));
        assert_eq!(
            LockKind::Cna.make(&topo).policy_label().as_deref(),
            Some("count(64)"),
            "paper-comparable threshold"
        );
        assert_eq!(
            LockKind::CnaTight.make(&topo).policy_label().as_deref(),
            Some("count(4)")
        );
        // The policy knob reaches CNA exactly as it reaches cohort kinds.
        let lock =
            AnyLockKind::Excl(LockKind::Cna).make(&topo, Some(PolicySpec::Time { budget_ns: 9 }));
        assert_eq!(lock.policy_label().as_deref(), Some("time(9ns)"));
    }

    #[test]
    fn every_rw_kind_constructs_and_locks() {
        let topo = Arc::new(Topology::new(4));
        for kind in RwLockKind::FIG_RW {
            for policy in [None, Some(PolicySpec::Count { bound: 4 })] {
                let lock = kind.make(&topo, policy);
                lock.acquire_read();
                lock.release_read();
                lock.acquire_write();
                lock.release_write();
                assert!(!kind.name().is_empty());
                if kind != RwLockKind::StdRw {
                    let stats = lock.cohort_stats().expect("cohort kinds expose stats");
                    assert!(stats.tenures() >= 1, "{kind}: write acquisitions counted");
                    if policy.is_some() {
                        assert_eq!(lock.policy_label().as_deref(), Some("count(4)"), "{kind}");
                    }
                }
            }
        }
        assert!(RwLockKind::StdRw.make(&topo, None).cohort_stats().is_none());
        assert!(RwLockKind::MutexCBoMcs
            .make(&topo, None)
            .read_is_exclusive());
    }

    #[test]
    fn any_kind_unifies_both_registries() {
        let topo = Arc::new(Topology::new(4));
        // Exclusive kinds: reads are exclusive, and stats and
        // abortability reach the one trait.
        let excl = AnyLockKind::Excl(LockKind::CBoMcs).make(&topo, None);
        assert!(excl.read_is_exclusive());
        assert!(!excl.is_abortable());
        excl.acquire_write();
        excl.release_write();
        excl.acquire_read();
        excl.release_read();
        assert!(excl.cohort_stats().is_some());
        assert_eq!(excl.policy_label().as_deref(), Some("count(64)"));

        let abortable = AnyLockKind::Excl(LockKind::ACBoClh).make(&topo, None);
        assert!(abortable.is_abortable());
        assert!(abortable.acquire_write_with_patience(1_000_000_000));
        abortable.release_write();

        // RW kinds construct as themselves: genuinely shared reads.
        let rw = AnyLockKind::Rw(RwLockKind::CRwWpBoMcs).make(&topo, None);
        assert!(!rw.read_is_exclusive());
        assert!(!rw.is_abortable());
        rw.acquire_read();
        rw.release_read();

        // One name/policy surface over both.
        assert_eq!(AnyLockKind::Excl(LockKind::Mcs).name(), "MCS");
        assert_eq!(AnyLockKind::Rw(RwLockKind::StdRw).name(), "std-RwLock");
        assert!(AnyLockKind::Excl(LockKind::Cna).has_policy_knob());
        assert!(AnyLockKind::Rw(RwLockKind::CRwWpBoMcs).has_policy_knob());
        assert!(
            AnyLockKind::Rw(RwLockKind::MutexCBoMcs).has_policy_knob(),
            "the single-writer baseline's wrapped cohort lock honors the knob"
        );
        assert!(!AnyLockKind::Rw(RwLockKind::StdRw).has_policy_knob());
        let bounded =
            AnyLockKind::Excl(LockKind::CTktMcs).make(&topo, Some(PolicySpec::Count { bound: 2 }));
        assert_eq!(bounded.policy_label().as_deref(), Some("count(2)"));
    }

    #[test]
    fn modelled_admission_mirrors_the_policy_knob() {
        use ModelledAdmission::*;
        const PAPER_COUNT: PolicySpec = PolicySpec::paper_default();
        // FIFO: queue/backoff baselines and the prior NUMA locks.
        for k in [
            LockKind::Mcs,
            LockKind::Tatas,
            LockKind::Hbo,
            LockKind::Hclh,
            LockKind::FcMcs,
            LockKind::GcrMcs,
        ] {
            assert_eq!(AnyLockKind::Excl(k).modelled_admission(None), Fifo, "{k}");
        }
        assert_eq!(
            AnyLockKind::Rw(RwLockKind::StdRw).modelled_admission(None),
            Fifo
        );
        // Batched: cohort family at the paper bound, CNA at its own.
        for k in [LockKind::CBoMcs, LockKind::FisBoMcs, LockKind::GcrCBoMcs] {
            assert_eq!(
                AnyLockKind::Excl(k).modelled_admission(None),
                ClusterBatched(PAPER_COUNT),
                "{k}"
            );
        }
        assert_eq!(
            AnyLockKind::Excl(LockKind::CnaTight).modelled_admission(None),
            ClusterBatched(PolicySpec::Count {
                bound: LockKind::CNA_TIGHT_THRESHOLD
            })
        );
        assert_eq!(
            AnyLockKind::Rw(RwLockKind::CRwWpBoMcs).modelled_admission(None),
            ClusterBatched(PAPER_COUNT)
        );
        // The policy knob reaches the model exactly where the constructor
        // honors it.
        assert_eq!(
            AnyLockKind::Excl(LockKind::CBoMcs)
                .modelled_admission(Some(PolicySpec::Time { budget_ns: 9 })),
            ClusterBatched(PolicySpec::Time { budget_ns: 9 })
        );
        assert_eq!(
            AnyLockKind::Excl(LockKind::CBoMcs)
                .modelled_admission(Some(PolicySpec::Adaptive { min: 2, max: 8 })),
            ClusterBatched(PolicySpec::Adaptive { min: 2, max: 8 })
        );
        assert_eq!(
            AnyLockKind::Excl(LockKind::CBoMcs).modelled_admission(Some(PolicySpec::NeverPass)),
            ClusterBatched(PolicySpec::NeverPass)
        );
        // ...and is ignored where it would be ignored.
        assert_eq!(
            AnyLockKind::Excl(LockKind::Mcs)
                .modelled_admission(Some(PolicySpec::Count { bound: 2 })),
            Fifo
        );
        // The reciprocating family: plain Recip has no policy knob yet
        // is NOT FIFO — its structural admission order wins even when a
        // (ignored) policy is passed; the cohortized form books like any
        // cohort kind.
        assert_eq!(
            AnyLockKind::Excl(LockKind::Recip).modelled_admission(None),
            ReciprocatingStack
        );
        assert_eq!(
            AnyLockKind::Excl(LockKind::Recip)
                .modelled_admission(Some(PolicySpec::Count { bound: 2 })),
            ReciprocatingStack
        );
        assert_eq!(
            AnyLockKind::Excl(LockKind::CRecipMcs).modelled_admission(None),
            ClusterBatched(PAPER_COUNT)
        );
    }

    #[test]
    fn every_kind_reports_its_default_label_and_honors_the_knob() {
        // The merged constructor's two arms, for all 28 rows: `None`
        // installs the kind's default policy, `Some` reaches exactly the
        // kinds whose row says they have the knob.
        let topo = Arc::new(Topology::new(4));
        let bound3 = Some(PolicySpec::Count { bound: 3 });
        for kind in LockKind::ALL {
            let default_label = match kind {
                LockKind::CnaTight => Some("count(4)"),
                LockKind::GcrMcs => Some("-"),
                k if knob(k) => Some("count(64)"),
                _ => None,
            };
            let lock = kind.make(&topo);
            assert_eq!(lock.policy_label().as_deref(), default_label, "{kind}");
            let lock = AnyLockKind::Excl(kind).make(&topo, bound3);
            if knob(kind) {
                assert_eq!(lock.policy_label().as_deref(), Some("count(3)"), "{kind}");
                lock.acquire_write();
                lock.release_write();
                assert!(lock.cohort_stats().is_some(), "{kind}");
            } else {
                assert_eq!(lock.policy_label().as_deref(), default_label, "{kind}");
            }
        }
    }

    #[test]
    fn none_and_the_rows_default_spec_are_the_same_lock() {
        // One lock type per kind: the knob's `None` is nothing but the
        // row's default spec spelled out.
        let topo = Arc::new(Topology::new(4));
        let kinds = AnyLockKind::excl(&LockKind::ALL)
            .into_iter()
            .chain(RwLockKind::FIG_RW.map(AnyLockKind::Rw))
            .filter(|kind| kind.has_policy_knob());
        for kind in kinds {
            let ModelledAdmission::ClusterBatched(PolicySpec::Count { bound }) =
                kind.modelled_admission(None)
            else {
                panic!("{kind}: a policy-driven row defaults to a count bound");
            };
            let by_default = kind.make(&topo, None);
            let spelled_out = kind.make(&topo, Some(PolicySpec::Count { bound }));
            assert_eq!(
                by_default.policy_label(),
                spelled_out.policy_label(),
                "{kind}"
            );
            for lock in [&by_default, &spelled_out] {
                for _ in 0..1_000 {
                    lock.acquire_write();
                    lock.release_write();
                }
            }
            let stats = by_default.cohort_stats();
            assert!(stats.is_some(), "{kind}");
            assert_eq!(stats, spelled_out.cohort_stats(), "{kind}");
        }
    }

    #[test]
    fn every_policy_spec_builds_every_policy_driven_kind() {
        let topo = Arc::new(Topology::new(4));
        for kind in LockKind::ALL.into_iter().filter(|&k| knob(k)) {
            for policy in [
                PolicySpec::Time { budget_ns: 10_000 },
                PolicySpec::Adaptive { min: 2, max: 8 },
                PolicySpec::Unbounded,
                PolicySpec::NeverPass,
            ] {
                let lock = AnyLockKind::Excl(kind).make(&topo, Some(policy));
                lock.acquire_write();
                lock.release_write();
                assert!(lock.cohort_stats().is_some(), "{kind} under {policy}");
            }
        }
        // Kinds without the knob ignore it.
        let mcs = AnyLockKind::Excl(LockKind::Mcs).make(&topo, Some(PolicySpec::NeverPass));
        mcs.acquire_write();
        mcs.release_write();
        assert!(mcs.cohort_stats().is_none());
    }
}
