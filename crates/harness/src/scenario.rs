//! The scenario engine: ONE measurement loop behind every exhibit.
//!
//! The paper's LBench (§4.1) is a fixed grid of steady-state workloads:
//! each thread loops acquire → write the shared cache lines (two, in the
//! paper) → release → idle for a random non-critical period (up to
//! 4 µs), and the run ends when any thread's clock crosses the
//! measurement window. This repository's exhibits kept growing past it
//! (read/write mixes, abortable acquisition, policy sweeps, load shapes),
//! so the loop is written once: a [`Scenario`] *describes* the per-thread
//! op mix (exclusive / shared-read / abortable-with-patience) and its
//! [`LoadShape`] over time (steady, bursty on/off, phased read-ratio
//! schedule, thread-asymmetric idling), an [`LBenchConfig`] the grid
//! cell it runs at (threads, clusters, window, cost model),
//! and [`run_scenario`] is the single driver that executes any of them
//! over any [`AnyLockKind`].
//!
//! Time accounting (virtual mode — see docs/ARCHITECTURE.md, "Virtual
//! time, in one paragraph"): critical-section data accesses are charged
//! through the coherence [`Directory`], the lock handoff through the
//! [`HandoffChannel`], and the non-critical section as a plain clock
//! advance. The lock algorithms themselves run for real on real threads;
//! only *time* is modelled, which is what lets a 1-CPU CI container
//! reproduce a 256-thread NUMA machine's throughput *shapes*. In wall
//! mode the same loop runs with real time everywhere (for use on actual
//! multi-socket hardware). The engine additionally samples **acquisition
//! latency** in modelled nanoseconds: the virtual time from starting an
//! exclusive acquisition to clearing the handoff channel's queue-wait
//! catch-up, reported as p50/p99 per run. Shared read acquisitions
//! serialize on nothing and are not sampled.
//!
//! The per-thread program itself — what a thread draws, in what order,
//! and what an op's body is — lives in the `program` module; this file
//! holds the description types, the LBench critical section (one of the
//! program's two bodies), the real-thread executor [`run_workers`], and
//! [`assemble`], the one place a [`ScenarioResult`] is built.

use crate::bench_rwlock::BenchRwLock;
use crate::keyed::{KeyedOp, KeyedService};
use crate::modelled::simulate;
use crate::pace::spin_wall;
use crate::program::{charge_cs, step, Body, Client, Exec, Program};
use crate::registry::AnyLockKind;
use coherence_sim::{take_thread_stats, CostModel, Directory, HandoffChannel};
use cohort::{CohortStats, PolicySpec};
use numa_topology::{bind_current_thread, vclock, Topology};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Whether time is modelled (virtual) or measured (wall).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeMode {
    /// Virtual clocks + coherence cost model (default; hardware-independent).
    Virtual,
    /// Real time; requires actually-parallel hardware to be meaningful.
    Wall,
}

/// The grid cell a scenario runs at. Defaults reproduce the paper's
/// setup: 2 cache lines written per critical section, ≤4 µs non-critical
/// work, 4 clusters.
#[derive(Clone, Debug)]
pub struct LBenchConfig {
    /// Worker threads.
    pub threads: usize,
    /// NUMA clusters (virtual).
    pub clusters: usize,
    /// Measurement window in (virtual or wall) nanoseconds.
    pub window_ns: u64,
    /// Shared cache lines written inside the critical section.
    pub cs_lines: usize,
    /// Extra modelled compute inside the critical section (the 8 counter
    /// increments of the paper, beyond the line transfers themselves).
    pub cs_extra_ns: u64,
    /// Upper bound of the uniformly-random non-critical section.
    pub noncs_max_ns: u64,
    /// Wall-pacing (virtual mode only, default on): every virtual delay —
    /// the critical section and the non-critical section — is also waited
    /// out for the same number of *wall* nanoseconds (yielding while
    /// waiting). This keeps the real execution's arrival order consistent
    /// with virtual ready times, which matters twice on an oversubscribed
    /// host: (a) FIFO queue locks otherwise admit threads whose virtual
    /// non-critical section has not elapsed yet, stalling the virtual
    /// handoff chain on order inversions, and (b) a TATAS releaser
    /// otherwise instantly re-wins the acquisition race and degenerates
    /// into single-thread lock hogging. With pacing, contention (queue
    /// depth, batch composition) forms in real time exactly when the
    /// modelled load would form it. Every paced duration, critical and
    /// non-critical sections alike, is scaled by κ =
    /// [`kappa_for`](crate::pace::kappa_for)`(threads)`, which preserves
    /// the ratio that determines queue depth.
    pub pace_wall: bool,
    /// Memory-system latency model.
    pub cost: CostModel,
    /// Handoff policy for cohort locks (`None` = each lock's default,
    /// i.e. the paper's `count(64)`). Ignored by non-cohort locks.
    pub policy: Option<PolicySpec>,
    /// Wall-clock safety net: the run is cut off after this much real time
    /// regardless of virtual progress.
    pub max_wall: Duration,
    /// Virtual or wall time.
    pub mode: TimeMode,
}

impl Default for LBenchConfig {
    fn default() -> Self {
        LBenchConfig {
            threads: 4,
            clusters: 4,
            window_ns: 20_000_000, // 20 ms virtual
            cs_lines: 2,
            cs_extra_ns: 16,
            noncs_max_ns: 4_000,
            pace_wall: true,
            cost: CostModel::t5440(),
            policy: None,
            max_wall: Duration::from_secs(20),
            mode: TimeMode::Virtual,
        }
    }
}

/// How a scenario's *costs* are accounted: against real threads racing
/// in real time (with virtual-clock charging), or against the
/// deterministic coherence simulator.
///
/// `RealTime` runs the real lock algorithms on real threads, and the
/// cost model only *prices* their decisions: multi-thread results are
/// statistically stable but never bit-reproducible (the stop flag races
/// real scheduling). `Modelled` runs every scenario, keyed or not, as a
/// single-threaded discrete-event simulation that admits each lock's or
/// shard's waiters in the order of the kind's *mechanism* and never reads
/// the wall clock, so two runs of one cell produce **bit-identical**
/// [`ScenarioResult`]s. See `docs/ARCHITECTURE.md`, "Modelled coherence
/// mode", for the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostMode {
    /// Real threads, real lock algorithms, modelled prices (default).
    RealTime,
    /// Deterministic discrete-event simulation under the given latency
    /// model (e.g. [`CostModel::disaggregated`]).
    Modelled(CostModel),
}

/// One segment of a phased read-ratio schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Phase {
    /// Segment length in virtual nanoseconds.
    pub dur_ns: u64,
    /// Read percentage (0–100) in force during the segment.
    pub read_pct: u32,
}

/// How the offered load varies over (virtual) time.
///
/// Shapes are evaluated against each thread's virtual clock; clocks are
/// loosely synchronized through the handoff channel's causality catch-up,
/// so on/off windows and phase boundaries line up across threads to
/// within a queue-wait. In wall mode shapes degenerate to [`Steady`]
/// (the wall runner targets real NUMA hosts, where load shaping belongs
/// to the load generator).
///
/// [`Steady`]: LoadShape::Steady
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadShape {
    /// The paper's shape: every thread offers load for the whole window.
    Steady,
    /// Bursty arrival: `on_ns` of load, then `off_ns` of silence,
    /// repeating. During an off-window threads idle (clock advances to
    /// the next on-window) instead of contending.
    Bursty {
        /// Length of each load burst, virtual nanoseconds.
        on_ns: u64,
        /// Length of each silent gap, virtual nanoseconds.
        off_ns: u64,
    },
    /// A repeating read-ratio schedule: the scenario's base `read_pct`
    /// is overridden by the phase the thread's clock currently falls in.
    Phased {
        /// The schedule, cycled for the whole run.
        phases: Vec<Phase>,
    },
}

impl LoadShape {
    /// Virtual nanoseconds from `now` to the next on-window, or `None`
    /// when load is admitted at `now`.
    pub(crate) fn off_gap(&self, now: u64) -> Option<u64> {
        match *self {
            LoadShape::Bursty { on_ns, off_ns } if off_ns > 0 => {
                let period = on_ns + off_ns;
                let pos = now % period;
                if pos >= on_ns {
                    Some(period - pos)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// The read percentage in force at virtual time `now` (`base` unless
    /// a phase schedule overrides it).
    pub(crate) fn read_pct_at(&self, now: u64, base: u32) -> u32 {
        match self {
            LoadShape::Phased { phases } if !phases.is_empty() => {
                let total: u64 = phases.iter().map(|p| p.dur_ns).sum();
                if total == 0 {
                    return base;
                }
                let mut pos = now % total;
                for p in phases {
                    if pos < p.dur_ns {
                        return p.read_pct;
                    }
                    pos -= p.dur_ns;
                }
                base
            }
            _ => base,
        }
    }

    /// Short label for CSV rows (`steady` / `bursty` / `phased`).
    pub fn label(&self) -> &'static str {
        match self {
            LoadShape::Steady => "steady",
            LoadShape::Bursty { .. } => "bursty",
            LoadShape::Phased { .. } => "phased",
        }
    }
}

/// What each thread *does* per iteration: the op mix and its shape over
/// time. Consumed by [`run_scenario`]; grid-level knobs (thread count,
/// clusters, window, cost model) stay in [`LBenchConfig`].
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Base percentage of operations taking the shared-read side (0–100;
    /// a [`LoadShape::Phased`] schedule overrides it per phase). Against
    /// an exclusive kind, "reads" still serialize — the engine detects
    /// that via [`BenchRwLock::read_is_exclusive`] and charges them
    /// through the handoff channel.
    pub read_pct: u32,
    /// `Some(patience)` makes **write** acquisitions abortable with the
    /// given virtual-nanosecond patience (Figure 6's mode). Locks without
    /// abort support simply block.
    pub patience_ns: Option<u64>,
    /// Load shape over time.
    pub shape: LoadShape,
    /// Thread-asymmetry knob: thread `i`'s non-critical idle bound is
    /// scaled by `1 + asymmetry · i/(threads-1)`. `0.0` (the default) is
    /// the paper's symmetric load; large values thin the offered load
    /// down to a few hot threads — the light-contention regime where
    /// simple locks (TATAS) historically beat NUMA-aware ones.
    pub asymmetry: f64,
    /// Whether costs are accounted in real time (default) or through the
    /// deterministic coherence simulator (see [`CostMode`]).
    pub cost_mode: CostMode,
    /// The keyed-op dimension: `Some` turns the run into a *service*
    /// scenario — clients draw keys from a [`KeyDist`](crate::KeyDist)
    /// and the ops execute against the service a
    /// [`KeyedServiceFactory`](crate::KeyedServiceFactory) builds (an
    /// N-shard KV store, an allocator arena) instead of the engine's
    /// synthetic critical section. See the `keyed` module docs.
    pub keyed: Option<crate::keyed::KeyedSpec>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            read_pct: 0,
            patience_ns: None,
            shape: LoadShape::Steady,
            asymmetry: 0.0,
            cost_mode: CostMode::RealTime,
            keyed: None,
        }
    }
}

impl Scenario {
    /// The paper's scenario: steady, symmetric, exclusive-only.
    pub fn steady() -> Self {
        Scenario::default()
    }

    /// Steady scenario with a bursty on/off arrival shape (panics on an
    /// empty on-window, which would admit no load at all).
    pub fn bursty(on_ns: u64, off_ns: u64) -> Self {
        assert!(on_ns > 0, "bursty scenarios need a non-empty on-window");
        Scenario {
            shape: LoadShape::Bursty { on_ns, off_ns },
            ..Scenario::default()
        }
    }

    /// Scenario cycling through a phased read-ratio schedule (panics if
    /// any phase's read percentage exceeds 100).
    pub fn phased(phases: Vec<Phase>) -> Self {
        assert!(
            phases.iter().all(|p| p.read_pct <= 100),
            "phase read_pct is a percentage"
        );
        Scenario {
            shape: LoadShape::Phased { phases },
            ..Scenario::default()
        }
    }

    /// Sets the base read percentage (panics if over 100).
    pub fn with_read_pct(mut self, read_pct: u32) -> Self {
        assert!(read_pct <= 100, "read_pct is a percentage");
        self.read_pct = read_pct;
        self
    }

    /// Makes write acquisitions abortable with `patience_ns` of patience.
    pub fn with_patience(mut self, patience_ns: u64) -> Self {
        self.patience_ns = Some(patience_ns);
        self
    }

    /// Sets the thread-asymmetry knob (see [`Scenario::asymmetry`]).
    pub fn with_asymmetry(mut self, asymmetry: f64) -> Self {
        assert!(asymmetry >= 0.0, "asymmetry scales idle time up");
        self.asymmetry = asymmetry;
        self
    }

    /// Sets the cost mode (see [`CostMode`]).
    pub fn with_cost_mode(mut self, mode: CostMode) -> Self {
        self.cost_mode = mode;
        self
    }

    /// Shorthand: switches the scenario to deterministic modelled
    /// accounting under `model`.
    pub fn modelled(self, model: CostModel) -> Self {
        self.with_cost_mode(CostMode::Modelled(model))
    }

    /// Attaches the keyed-op dimension (see [`Scenario::keyed`]).
    pub fn with_keyed(mut self, keyed: crate::keyed::KeyedSpec) -> Self {
        self.keyed = Some(keyed);
        self
    }

    /// Panics on a scenario or cell no run can honour. The constructors
    /// validate too; this guards hand-built values — an over-100 phase
    /// would silently become all-reads, an empty on-window a zero-op run.
    /// A keyed scenario takes neither patience nor asymmetry: no service
    /// aborts an op, and a keyed body draws no idle to scale.
    fn validate(&self, cfg: &LBenchConfig) {
        assert!(cfg.threads >= 1);
        assert!(self.read_pct <= 100, "read_pct is a percentage");
        if self.keyed.is_some() {
            assert!(
                self.patience_ns.is_none(),
                "a keyed scenario cannot abort on patience"
            );
            assert!(
                self.asymmetry == 0.0,
                "a keyed scenario draws no idle to skew"
            );
        }
        match &self.shape {
            LoadShape::Phased { phases } => assert!(
                phases.iter().all(|p| p.read_pct <= 100),
                "phase read_pct is a percentage"
            ),
            LoadShape::Bursty { on_ns, .. } => {
                assert!(*on_ns > 0, "bursty scenarios need a non-empty on-window")
            }
            LoadShape::Steady => {}
        }
    }

    /// Whether any part of the scenario can produce a read op.
    fn uses_reads(&self) -> bool {
        self.read_pct > 0
            || matches!(&self.shape, LoadShape::Phased { phases }
                if phases.iter().any(|p| p.read_pct > 0))
    }

    /// Whether the worker draws the per-op read/write coin. RW kinds
    /// always draw, even at `read_pct = 0`; exclusive kinds draw only
    /// when the scenario can actually produce reads. The rule fixes each
    /// thread's RNG program and is therefore baked into every committed
    /// modelled number (`results/fig_model.csv` pins it).
    pub(crate) fn draws_coin(&self, kind: AnyLockKind) -> bool {
        matches!(kind, AnyLockKind::Rw(_)) || self.uses_reads()
    }

    /// Thread `i`'s non-critical idle bound under the asymmetry knob.
    pub(crate) fn noncs_max_for(&self, i: usize, threads: usize, base_ns: u64) -> u64 {
        if self.asymmetry == 0.0 || threads <= 1 {
            return base_ns;
        }
        let frac = i as f64 / (threads - 1) as f64;
        (base_ns as f64 * (1.0 + self.asymmetry * frac)) as u64
    }
}

/// Everything one scenario run measures, exclusive and reader-writer
/// alike, plus modelled acquisition-latency percentiles. Built in one
/// place: `assemble`.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Lock under test.
    pub kind: AnyLockKind,
    /// Thread count of the run.
    pub threads: usize,
    /// Base read percentage the scenario was configured with.
    pub read_pct: u32,
    /// Critical sections completed, per thread (fairness data).
    pub per_thread_ops: Vec<u64>,
    /// Read-side critical sections completed.
    pub read_ops: u64,
    /// Write-side critical sections completed.
    pub write_ops: u64,
    /// All critical sections completed.
    pub total_ops: u64,
    /// Critical+non-critical pairs per second of modelled time.
    pub throughput: f64,
    /// Exclusive acquisitions observed by the handoff channel (writes,
    /// plus reads when the lock's read side is exclusive).
    pub acquisitions: u64,
    /// Cross-cluster migrations of the exclusive lock.
    pub migrations: u64,
    /// Raw coherence-miss count over the whole run (cross-cluster data
    /// transfers charged by the directory, summed over threads) — the
    /// numerator the modelled-mode self-checks assert exactly;
    /// [`misses_per_cs`](Self::misses_per_cs) is the derived ratio.
    pub remote_misses: u64,
    /// Coherence misses per critical section — data lines plus the lock
    /// handoff itself.
    pub misses_per_cs: f64,
    /// Mean same-cluster batch length (§4.1.2's dynamic batching).
    pub mean_batch: f64,
    /// Timed-out acquisitions (abortable scenarios).
    pub aborts: u64,
    /// aborts / attempts (the paper keeps this below 1%).
    pub abort_rate: f64,
    /// Standard deviation of per-thread throughput as % of mean.
    pub stddev_pct: f64,
    /// Handoff-policy label of the run (`None` for non-policy locks).
    pub policy: Option<String>,
    /// Cohort tenures — 0 for non-cohort locks.
    pub tenures: u64,
    /// Intra-cluster handoffs — 0 for non-cohort locks.
    pub local_handoffs: u64,
    /// Mean local-handoff streak per tenure.
    pub mean_streak: f64,
    /// Longest local-handoff streak of any tenure.
    pub max_streak: u64,
    /// Cross-cluster migrations per cohort tenure (0 when no tenures).
    pub migrations_per_tenure: f64,
    /// Fast-path (top-word) acquisitions of a fissile lock — 0 for every
    /// other kind.
    pub fast_acquisitions: u64,
    /// Slow-path (cohort) acquisitions of a fissile lock — 0 for every
    /// other kind.
    pub slow_acquisitions: u64,
    /// Arrivals a GCR admission layer parked on a passive list — 0 for
    /// unwrapped kinds.
    pub passive_parks: u64,
    /// Parked threads a GCR rotation promoted into the active set — 0
    /// for unwrapped kinds.
    pub promotions: u64,
    /// Modelled **succession census**: coherence transitions the
    /// release-side admission decisions fanned out to, summed over
    /// serialized grants — `1 + waiting set` per grant for
    /// FIFO/centralized mechanisms, `1 + same-cluster waiters` for
    /// cluster-batched kinds, at most `2` for the reciprocating
    /// schedule. Booked only by the modelled runner (see the
    /// `modelled` module docs); 0 in real-time results.
    pub succ_transitions: u64,
    /// Power-of-two histogram of same-cluster batch lengths.
    pub batch_hist: Vec<u64>,
    /// Median modelled acquisition latency (exclusive acquisitions, ns).
    pub lat_p50_ns: u64,
    /// 99th-percentile modelled acquisition latency (ns).
    pub lat_p99_ns: u64,
    /// Real time the run took (diagnostics only).
    pub wall: Duration,
}

/// One deterministic value of a [`ScenarioResult`], borrowed from it;
/// it prints (`{:?}`) as the field itself would.
#[derive(Clone, Copy, PartialEq)]
pub enum Field<'a> {
    /// The lock under test.
    Kind(AnyLockKind),
    /// A counter, a count or a nanosecond figure.
    Int(u64),
    /// A rate or ratio.
    Float(f64),
    /// The handoff-policy label (`None` for non-policy locks).
    Label(Option<&'a str>),
    /// A per-thread or per-bucket list.
    List(&'a [u64]),
}

impl std::fmt::Debug for Field<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Field::Kind(v) => v.fmt(f),
            Field::Int(v) => v.fmt(f),
            Field::Float(v) => v.fmt(f),
            Field::Label(v) => v.fmt(f),
            Field::List(v) => v.fmt(f),
        }
    }
}

/// Writes [`ScenarioResult::fields`] from one `field => value` list. The
/// pattern binds every field of the struct, so one added later does not
/// compile until it is listed here (or ignored, as only `wall` is).
macro_rules! enumerate_fields {
    ($($name:ident => $value:expr,)*) => {
        /// Every deterministic field as `(name, value)`, in declaration
        /// order and without allocating: what `first_divergence` compares
        /// and a CSV column reads. `wall`, real time, is the one left out.
        pub fn fields(&self) -> [(&'static str, Field<'_>); [$(stringify!($name)),*].len()] {
            let ScenarioResult { $($name,)* wall: _ } = self;
            [$((stringify!($name), $value)),*]
        }
    };
}

impl ScenarioResult {
    enumerate_fields! {
        kind => Field::Kind(*kind),
        threads => Field::Int(*threads as u64),
        read_pct => Field::Int(u64::from(*read_pct)),
        per_thread_ops => Field::List(per_thread_ops),
        read_ops => Field::Int(*read_ops),
        write_ops => Field::Int(*write_ops),
        total_ops => Field::Int(*total_ops),
        throughput => Field::Float(*throughput),
        acquisitions => Field::Int(*acquisitions),
        migrations => Field::Int(*migrations),
        remote_misses => Field::Int(*remote_misses),
        misses_per_cs => Field::Float(*misses_per_cs),
        mean_batch => Field::Float(*mean_batch),
        aborts => Field::Int(*aborts),
        abort_rate => Field::Float(*abort_rate),
        stddev_pct => Field::Float(*stddev_pct),
        policy => Field::Label(policy.as_deref()),
        tenures => Field::Int(*tenures),
        local_handoffs => Field::Int(*local_handoffs),
        mean_streak => Field::Float(*mean_streak),
        max_streak => Field::Int(*max_streak),
        migrations_per_tenure => Field::Float(*migrations_per_tenure),
        fast_acquisitions => Field::Int(*fast_acquisitions),
        slow_acquisitions => Field::Int(*slow_acquisitions),
        passive_parks => Field::Int(*passive_parks),
        promotions => Field::Int(*promotions),
        succ_transitions => Field::Int(*succ_transitions),
        batch_hist => Field::List(batch_hist),
        lat_p50_ns => Field::Int(*lat_p50_ns),
        lat_p99_ns => Field::Int(*lat_p99_ns),
    }

    /// Compares every **deterministic** field against `other`, returning
    /// the first diverging field as `"name: self vs other"` (floats are
    /// compared bit-for-bit). `wall` is real time and therefore excluded
    /// — it is the one field the modelled-mode determinism contract does
    /// not cover. `None` means the two results are bit-identical twins.
    pub fn first_divergence(&self, other: &ScenarioResult) -> Option<String> {
        let mut pairs = self.fields().into_iter().zip(other.fields());
        pairs.find_map(|((name, a), (_, b))| {
            let same = match (a, b) {
                (Field::Float(a), Field::Float(b)) => a.to_bits() == b.to_bits(),
                _ => a == b,
            };
            (!same).then(|| format!("{name}: {a:?} vs {b:?}"))
        })
    }

    /// Lower bound of the **median batch length** implied by the
    /// power-of-two [`batch_hist`](Self::batch_hist): `2^i` of the bucket
    /// the median closed batch falls in (0 when no batch ever closed).
    /// The modelled-mode self-checks assert this against the handoff
    /// policy's bound — an *exact* statement, since modelled batch
    /// lengths are deterministic.
    pub fn batch_p50_floor(&self) -> u64 {
        let total: u64 = self.batch_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let mut seen = 0u64;
        for (i, &c) in self.batch_hist.iter().enumerate() {
            seen += c;
            if 2 * seen >= total {
                return 1 << i;
            }
        }
        0
    }
}

/// Per-thread cap on retained latency samples. Long measurement windows
/// used to grow the sample `Vec` without bound mid-measurement: every
/// doubling realloc is a pause charged to whatever acquisition happens
/// to be in flight (polluting exactly the p99 the samples exist to
/// measure), and a pathological window could OOM. Beyond the cap the
/// sampler *decimates*: it drops every other retained sample and doubles
/// its sampling stride, so memory stays bounded at
/// `LAT_RESERVOIR × 8 B` per thread while the retained set remains a
/// uniform (every `stride`-th acquisition) subsample — nearest-rank
/// percentiles over a uniform subsample are unbiased.
const LAT_RESERVOIR: usize = 32 * 1024;

/// Reservoir-capped latency sampler (see [`LAT_RESERVOIR`]): records
/// every `stride`-th sample, decimating once full. The real-time engine
/// pre-sizes the `Vec` from the scenario's op budget
/// ([`for_config`](Self::for_config)) so steady-state measurement never
/// reallocates; the DES keeps one log for all its threads
/// ([`from_log`](Self::from_log)).
pub(crate) struct LatReservoir {
    samples: Vec<u64>,
    stride: u64,
    ticks: u64,
}

impl LatReservoir {
    /// Sizes the reservoir for a run of `cfg.window_ns` virtual
    /// nanoseconds: the op budget is bounded below by the modelled
    /// per-op floor (critical-section compute + mean non-critical idle),
    /// so reserving `min(budget, cap)` up front removes measurement-time
    /// allocation entirely for every realistic window.
    pub(crate) fn for_config(cfg: &LBenchConfig) -> Self {
        let per_op_floor_ns = (cfg.cs_extra_ns + cfg.noncs_max_ns / 2).max(1);
        let budget = (cfg.window_ns / per_op_floor_ns) as usize;
        LatReservoir {
            samples: Vec::with_capacity(budget.clamp(1, LAT_RESERVOIR)),
            stride: 1,
            ticks: 0,
        }
    }

    /// The stride — a power of two — a reservoir is at once offered its
    /// sample number `tick` (from 0), in closed form: [`record`](Self::record)
    /// retains that sample iff `tick` is a multiple of it.
    #[inline]
    pub(crate) fn stride_at(tick: u64) -> u64 {
        match tick / LAT_RESERVOIR as u64 {
            0 => 1,
            fills => 2 << fills.ilog2(),
        }
    }

    /// What [`merge_lat_reservoirs`] builds from one reservoir per thread,
    /// from one `log` of every thread's `(sample, tick)` instead, where
    /// `most_offers` is the most samples any thread offered: a sample
    /// survives its thread's decimations and the merge's alignment iff
    /// its tick is a multiple of the largest final stride.
    pub(crate) fn from_log(log: &[(u64, u64)], most_offers: u64) -> Self {
        let stride = most_offers.checked_sub(1).map_or(1, Self::stride_at);
        let mut samples = Vec::with_capacity(log.len());
        if stride == 1 {
            // No thread decimated: every logged sample survives.
            samples.extend(log.iter().map(|e| e.0));
        } else {
            samples.extend(log.iter().filter(|e| e.1 & (stride - 1) == 0).map(|e| e.0));
        }
        LatReservoir {
            samples,
            stride,
            ticks: most_offers,
        }
    }

    /// Offers one sample; retained iff the tick lands on the stride.
    #[inline]
    pub(crate) fn record(&mut self, sample: u64) {
        if self.ticks.is_multiple_of(self.stride) {
            if self.samples.len() >= LAT_RESERVOIR {
                // Decimate: keep every other retained sample (indices
                // 0, 2, 4, …) and double the stride — the retained set
                // stays a uniform subsample of the acquisition stream.
                let mut keep = false;
                self.samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
            if self.ticks.is_multiple_of(self.stride) {
                self.samples.push(sample);
            }
        }
        self.ticks += 1;
    }

    /// The retained samples plus the stride they were taken at (needed
    /// to merge reservoirs from threads that decimated unequally).
    pub(crate) fn into_parts(self) -> (Vec<u64>, u64) {
        (self.samples, self.stride)
    }
}

/// Merges per-thread reservoirs into one sample set at a **common
/// stride**. Threads decimate independently, so a hot thread may retain
/// every 4th acquisition while an idle-bound one kept them all; pooling
/// those unweighted would over-weight the un-decimated threads'
/// distribution in the run percentiles. Aligning every thread to the
/// maximum stride first (strides are powers of two, so each set is
/// re-decimated by an integer step) keeps the pool a uniform subsample
/// of the whole run's acquisition stream. A simulated run's single part
/// is its own merge and is moved, not copied.
fn merge_lat_reservoirs(mut parts: Vec<(Vec<u64>, u64)>) -> Vec<u64> {
    if parts.len() == 1 {
        return parts.pop().expect("one part").0;
    }
    let max_stride = parts.iter().map(|(_, s)| *s).max().unwrap_or(1);
    let step_of = |stride: u64| (max_stride / stride.max(1)).max(1) as usize;
    let total = parts
        .iter()
        .map(|(samples, stride)| samples.len().div_ceil(step_of(*stride)))
        .sum();
    let mut merged = Vec::with_capacity(total);
    for (samples, stride) in parts {
        merged.extend(samples.into_iter().step_by(step_of(stride)));
    }
    merged
}

/// The nearest-rank p50 and p99 of a sample set in any order (0 for an
/// empty set), by selection: a result reads two order statistics, which
/// is not worth a sort. The p99 is selected inside the upper partition
/// the p50 selection leaves, where its rank lies. Reorders `samples`.
fn select_p50_p99(samples: &mut [u64]) -> (u64, u64) {
    let len = samples.len();
    if len == 0 {
        return (0, 0);
    }
    let index = |pct: f64| {
        let rank = ((pct / 100.0) * len as f64).ceil() as usize;
        rank.saturating_sub(1).min(len - 1)
    };
    let (at50, at99) = (index(50.0), index(99.0));
    let (_, &mut p50, upper) = samples.select_nth_unstable(at50);
    let p99 = match at99 - at50 {
        0 => p50,
        above => *upper.select_nth_unstable(above - 1).1,
    };
    (p50, p99)
}

/// What the threads of a run counted — real workers or the simulators'
/// logical threads — before any formula is applied. Executors fill it a
/// thread at a time, so a 4096-thread table is never copied.
#[derive(Default)]
pub(crate) struct Counts {
    /// Ops completed per thread, and their read/write split over all.
    per_thread_ops: Vec<u64>,
    read_ops: u64,
    write_ops: u64,
    /// Timed-out acquisitions, summed over threads by the executor.
    pub(crate) aborts: u64,
    /// Cross-cluster data transfers the directory charged, summed over
    /// threads.
    pub(crate) remote_misses: u64,
    /// Latency reservoirs with the strides they were sampled at (see
    /// [`merge_lat_reservoirs`]).
    lat_parts: Vec<(Vec<u64>, u64)>,
}

impl Counts {
    /// Empty counts with room for `threads` threads' op counts.
    pub(crate) fn new(threads: usize, remote_misses: u64) -> Self {
        Counts {
            per_thread_ops: Vec::with_capacity(threads),
            remote_misses,
            ..Counts::default()
        }
    }

    /// Books the next logical thread, in thread order.
    pub(crate) fn client(&mut self, c: &Client) {
        self.per_thread_ops.push(c.reads + c.writes);
        self.read_ops += c.reads;
        self.write_ops += c.writes;
    }

    /// Adds a reservoir an executor filled: one per thread, or one for a
    /// whole simulated run.
    pub(crate) fn lat(&mut self, lat: LatReservoir) {
        self.lat_parts.push(lat.into_parts());
    }
}

/// What the lock side of a run reports: the handoff channel's census and
/// the lock's own introspection. A [`KeyedService`](crate::KeyedService)
/// returns one for all its locks ([`merge`](Self::merge) folds shards).
#[derive(Clone, Debug)]
pub struct LockReport {
    /// Exclusive acquisitions the handoff channel observed.
    pub acquisitions: u64,
    /// Cross-cluster migrations of the exclusive lock.
    pub migrations: u64,
    /// Power-of-two histogram of same-cluster batch lengths.
    pub batch_hist: Vec<u64>,
    /// Handoff-policy label (`None` for non-policy locks).
    pub policy: Option<String>,
    /// Tenure statistics (`None` for locks without a tenure notion).
    pub cohort: Option<CohortStats>,
    /// See [`ScenarioResult::succ_transitions`].
    pub succ_transitions: u64,
}

impl LockReport {
    /// The report of a run that charged one channel for one lock, with
    /// no succession census.
    pub fn of(handoff: &HandoffChannel, lock: &dyn BenchRwLock) -> Self {
        LockReport {
            acquisitions: handoff.acquisitions(),
            migrations: handoff.migrations(),
            batch_hist: handoff.batches().snapshot().to_vec(),
            policy: lock.policy_label(),
            cohort: lock.cohort_stats(),
            succ_transitions: 0,
        }
    }

    /// Folds `other` — another lock of the same service — into `self`:
    /// counters and histogram buckets add, tenure statistics go through
    /// [`CohortStats::merge`], and the first policy label speaks for all
    /// (a service builds every shard lock from one kind).
    pub fn merge(mut self, other: LockReport) -> LockReport {
        self.acquisitions += other.acquisitions;
        self.migrations += other.migrations;
        self.succ_transitions += other.succ_transitions;
        for (mine, theirs) in self.batch_hist.iter_mut().zip(&other.batch_hist) {
            *mine += theirs;
        }
        self.policy = self.policy.or(other.policy);
        self.cohort = match (self.cohort, other.cohort) {
            (Some(mut mine), Some(theirs)) => {
                mine.merge(&theirs);
                Some(mine)
            }
            (mine, theirs) => mine.or(theirs),
        };
        self
    }
}

/// Builds the [`ScenarioResult`] of a run from what its threads counted
/// and what its lock side reports — every substrate ends here, so every
/// derived field has one formula.
pub(crate) fn assemble(
    kind: AnyLockKind,
    scenario: &Scenario,
    cfg: &LBenchConfig,
    counts: Counts,
    lock: LockReport,
    started: Instant,
) -> ScenarioResult {
    let (per_thread_ops, read_ops, write_ops) =
        (counts.per_thread_ops, counts.read_ops, counts.write_ops);
    let total_ops = read_ops + write_ops;
    let mut lat = merge_lat_reservoirs(counts.lat_parts);
    let (lat_p50_ns, lat_p99_ns) = select_p50_p99(&mut lat);
    let (acquisitions, migrations) = (lock.acquisitions, lock.migrations);
    let (aborts, remote_misses) = (counts.aborts, counts.remote_misses);
    let window_s = cfg.window_ns as f64 / 1e9;
    let (_, stddev_pct) = crate::stats::mean_stddev_pct(&per_thread_ops);
    // Zeros for locks without a tenure notion.
    let cstats = lock.cohort.unwrap_or_default();
    let tenures = cstats.tenures();
    let ratio_or_zero = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    ScenarioResult {
        kind,
        threads: cfg.threads,
        read_pct: scenario.read_pct,
        read_ops,
        write_ops,
        total_ops,
        throughput: total_ops as f64 / window_s,
        acquisitions,
        migrations,
        remote_misses,
        // Data-line misses plus the lock-word transfer on each migration.
        misses_per_cs: ratio_or_zero(remote_misses + migrations, acquisitions),
        mean_batch: if migrations > 0 {
            acquisitions as f64 / migrations as f64
        } else {
            acquisitions as f64
        },
        aborts,
        abort_rate: ratio_or_zero(aborts, total_ops + aborts),
        stddev_pct,
        policy: lock.policy,
        tenures,
        local_handoffs: cstats.local_handoffs(),
        mean_streak: cstats.mean_streak(),
        max_streak: cstats.max_streak(),
        migrations_per_tenure: ratio_or_zero(migrations, tenures),
        fast_acquisitions: cstats.fast_acquisitions,
        slow_acquisitions: cstats.slow_acquisitions,
        passive_parks: cstats.passive_parks,
        promotions: cstats.promotions,
        succ_transitions: lock.succ_transitions,
        batch_hist: lock.batch_hist,
        lat_p50_ns,
        lat_p99_ns,
        per_thread_ops,
        wall: started.elapsed(),
    }
}

/// The real-thread executor: spawns `cfg.threads` workers, binds each to
/// its cluster, zeroes its virtual clock and coherence counters, releases
/// all of them through one barrier, has each run [`step`] for its own
/// [`Client`] until the stop flag is raised, and merges what they
/// counted. The body raises the flag
/// when a clock crosses the window; the loop itself only keeps the
/// wall-clock safety net, once per iteration on every path: every 512th
/// iteration reads the clock and stops the run past `cfg.max_wall`,
/// whatever virtual progress it made.
pub(crate) fn run_workers<B: Body + ?Sized>(topo: &Topology, p: &Program<'_>, body: &B) -> Counts {
    let cfg = p.cfg;
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(cfg.threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = p
            .clients()
            .map(|mut client| {
                let cluster = client.cluster;
                let (stop, barrier) = (&stop, &barrier);
                s.spawn(move || {
                    bind_current_thread(topo, cluster);
                    vclock::reset();
                    take_thread_stats();
                    let lat = LatReservoir::for_config(cfg);
                    barrier.wait();
                    let mut x = Exec {
                        stop,
                        wall_start: Instant::now(),
                        lat,
                        aborts: 0,
                    };
                    let mut iters = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        step(&mut client, body, p, &mut x);
                        iters = iters.wrapping_add(1);
                        if iters.is_multiple_of(512) && x.wall_start.elapsed() > cfg.max_wall {
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    (client, x.lat, x.aborts, take_thread_stats().remote_misses)
                })
            })
            .collect();
        let mut counts = Counts::new(cfg.threads, 0);
        counts.lat_parts.reserve(cfg.threads); // the one executor with a part per thread
        for h in handles {
            let (client, lat, aborts, misses) = h.join().expect("scenario worker panicked");
            counts.client(&client);
            counts.lat(lat);
            counts.aborts += aborts;
            counts.remote_misses += misses;
        }
        counts
    })
}

/// The LBench critical section (§4.1) — one of the program's two bodies:
/// acquire `lock` (abortably, under a patience), charge the shared lines
/// through `dir` and the handoff through `handoff`, release, idle.
struct CriticalSection<'a> {
    lock: &'a dyn BenchRwLock,
    dir: Directory,
    handoff: HandoffChannel,
    /// Whether the lock's read side excludes like its write side.
    serial_reads: bool,
}

impl Body for CriticalSection<'_> {
    fn run(&self, op: &KeyedOp, c: &mut Client, p: &Program<'_>, x: &mut Exec<'_>) {
        let (cfg, lock, is_read, stop) = (p.cfg, self.lock, op.is_read, x.stop);
        let virtual_time = cfg.mode == TimeMode::Virtual;
        let stop_past_window = || {
            if virtual_time && vclock::now() >= cfg.window_ns {
                stop.store(true, Ordering::Relaxed);
            }
        };

        // ----- acquire (possibly abortable) -----
        let lat_from = vclock::now();
        if is_read {
            lock.acquire_read();
        } else if let Some(patience) = p.scenario.patience_ns {
            // Patience is virtual; scale it into the paced wall-clock
            // frame waiters live in.
            if !lock.acquire_write_with_patience(patience * p.pace.max(1)) {
                x.aborts += 1;
                if virtual_time {
                    // The wait consumed the patience.
                    vclock::advance(patience);
                }
                stop_past_window();
                return;
            }
        } else {
            lock.acquire_write();
        }

        // ----- critical section -----
        // Serialization is modelled through the handoff channel only
        // where the lock actually serializes.
        let charge_handoff = !is_read || self.serial_reads;
        if charge_handoff {
            self.handoff.on_acquire(c.cluster);
            if virtual_time {
                // Queue wait + handoff transfer, in modelled ns: the
                // acquisition latency.
                x.lat.record(vclock::now().saturating_sub(lat_from));
            }
        }
        // In wall mode the charges only touch real shared state, so the
        // hardware does the coherence work; nothing reads the clock they
        // advance.
        let cs_start = vclock::now();
        charge_cs(&self.dir, cfg, is_read, c.cluster);
        // Hold the lock for κ× the modelled CS duration of wall time,
        // yielding while holding: the window in which peers run, observe
        // the held lock, and enqueue. Only the critical-section work is
        // measured, not the catch-up `on_acquire` applied.
        let charged = vclock::now().saturating_sub(cs_start);
        spin_wall((charged * p.pace).min(50_000), true);
        stop_past_window();
        if charge_handoff {
            self.handoff.on_release(c.cluster);
        }
        if is_read {
            lock.release_read();
        } else {
            lock.release_write();
        }
        c.complete(is_read);

        // ----- non-critical section -----
        let idle = c.idle();
        if virtual_time {
            vclock::advance(idle);
            // Stay away from the lock for the paced duration (yield so
            // peers run meanwhile).
            spin_wall(idle * p.pace, true);
        } else {
            spin_wall(idle, false);
            if x.wall_start.elapsed().as_nanos() >= cfg.window_ns as u128 {
                stop.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// What a run measures: one lock under the LBench critical section, or a
/// keyed service that owns its locks.
pub(crate) enum Subject {
    Lock(Arc<dyn BenchRwLock>),
    Service(Arc<dyn KeyedService>),
}

/// Runs `scenario` for `kind` under `cfg` — the single sweep engine.
pub fn run_scenario(kind: AnyLockKind, scenario: &Scenario, cfg: &LBenchConfig) -> ScenarioResult {
    scenario.validate(cfg);
    let topo = Arc::new(Topology::new(cfg.clusters));
    // Keyed scenarios own their lock construction: the factory builds
    // one lock per shard.
    let subject = match &scenario.keyed {
        Some(spec) => Subject::Service(spec.factory.build(kind, &topo, scenario, cfg)),
        None => Subject::Lock(kind.make(&topo, cfg.policy)),
    };
    measure(kind, subject, &topo, scenario, cfg)
}

/// Runs `scenario` against an already-constructed lock (used by
/// ablations that build locks with bespoke compositions).
pub fn run_scenario_on(
    kind: AnyLockKind,
    lock: Arc<dyn BenchRwLock>,
    topo: Arc<Topology>,
    scenario: &Scenario,
    cfg: &LBenchConfig,
) -> ScenarioResult {
    assert!(
        scenario.keyed.is_none(),
        "keyed scenarios go through run_scenario (the factory owns lock construction)"
    );
    scenario.validate(cfg);
    measure(kind, Subject::Lock(lock), &topo, scenario, cfg)
}

/// Picks the executor for `subject` under the scenario's cost mode, runs
/// the program on it and assembles the result.
fn measure(
    kind: AnyLockKind,
    subject: Subject,
    topo: &Arc<Topology>,
    scenario: &Scenario,
    cfg: &LBenchConfig,
) -> ScenarioResult {
    let program = Program::new(kind, scenario, cfg);
    let started = Instant::now();
    let (counts, report) = match (&subject, scenario.cost_mode) {
        // Modelled mode swaps the execution substrate entirely: no
        // threads, no stop-flag race, no wall clock.
        (subject, CostMode::Modelled(model)) => simulate(kind, subject, topo, &program, model),
        (Subject::Lock(lock), CostMode::RealTime) => {
            let body = CriticalSection {
                lock: &**lock,
                dir: Directory::new(cfg.cs_lines.max(1), cfg.cost),
                handoff: HandoffChannel::new(cfg.cost),
                serial_reads: lock.read_is_exclusive(),
            };
            let counts = run_workers(topo, &program, &body);
            (counts, LockReport::of(&body.handoff, body.lock))
        }
        (Subject::Service(service), CostMode::RealTime) => {
            (run_workers(topo, &program, &**service), service.report())
        }
    };
    assemble(kind, scenario, cfg, counts, report, started)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{LockKind, RwLockKind};

    fn quick_cfg(threads: usize) -> LBenchConfig {
        LBenchConfig {
            threads,
            window_ns: 2_000_000, // 2 ms virtual: fast tests
            max_wall: Duration::from_secs(30),
            ..Default::default()
        }
    }

    #[test]
    fn shapes_gate_and_schedule() {
        let bursty = LoadShape::Bursty {
            on_ns: 100,
            off_ns: 50,
        };
        assert_eq!(bursty.off_gap(0), None);
        assert_eq!(bursty.off_gap(99), None);
        assert_eq!(bursty.off_gap(100), Some(50));
        assert_eq!(bursty.off_gap(149), Some(1));
        assert_eq!(bursty.off_gap(150), None); // next period
        assert_eq!(LoadShape::Steady.off_gap(123), None);

        let phased = LoadShape::Phased {
            phases: vec![
                Phase {
                    dur_ns: 100,
                    read_pct: 90,
                },
                Phase {
                    dur_ns: 50,
                    read_pct: 10,
                },
            ],
        };
        assert_eq!(phased.read_pct_at(0, 0), 90);
        assert_eq!(phased.read_pct_at(99, 0), 90);
        assert_eq!(phased.read_pct_at(100, 0), 10);
        assert_eq!(phased.read_pct_at(150, 0), 90); // cycles
        assert_eq!(LoadShape::Steady.read_pct_at(5, 42), 42);
        assert_eq!(phased.off_gap(123), None, "phases never gate load");
    }

    #[test]
    fn asymmetry_scales_idle_bounds() {
        let s = Scenario::steady().with_asymmetry(3.0);
        assert_eq!(s.noncs_max_for(0, 4, 4000), 4000, "thread 0 unscaled");
        assert_eq!(s.noncs_max_for(3, 4, 4000), 16000, "last thread 4x");
        assert_eq!(s.noncs_max_for(0, 1, 4000), 4000, "t=1 degenerate");
        let sym = Scenario::steady();
        assert_eq!(sym.noncs_max_for(3, 4, 4000), 4000);
    }

    #[test]
    fn lat_reservoir_caps_and_decimates_uniformly() {
        let mut r = LatReservoir::for_config(&LBenchConfig::default());
        let n = (LAT_RESERVOIR as u64) * 4 + 7;
        for i in 0..n {
            r.record(i);
        }
        let (s, stride) = r.into_parts();
        assert!(s.len() <= LAT_RESERVOIR, "cap respected: {}", s.len());
        assert!(stride >= 4, "stride doubled per decimation");
        assert!(
            s.len() >= LAT_RESERVOIR / 2,
            "decimation halves, not empties"
        );
        // The retained set must stay a uniform subsample: consecutive
        // retained ticks differ by one constant stride.
        let stride = s[1] - s[0];
        assert!(stride >= 4, "three decimations over 4x the cap");
        assert!(
            s.windows(2).all(|w| w[1] - w[0] == stride),
            "non-uniform retention"
        );
    }

    #[test]
    fn lat_reservoir_is_exact_below_the_cap() {
        // Small runs must be untouched: every sample retained in order.
        let mut r = LatReservoir::for_config(&LBenchConfig::default());
        for i in 0..1_000u64 {
            r.record(i * 3);
        }
        let (s, stride) = r.into_parts();
        assert_eq!(s.len(), 1_000);
        assert_eq!(stride, 1);
        assert!(s.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn merging_reservoirs_aligns_unequal_strides() {
        // Thread A decimated to stride 4 (kept ticks 0,4,8,…); thread B
        // kept everything (stride 1). The merge must re-decimate B by 4
        // so neither thread's distribution is over-weighted.
        let a: Vec<u64> = (0..8).map(|i| i * 4).collect();
        let b: Vec<u64> = (100..132).collect();
        let merged = merge_lat_reservoirs(vec![(a.clone(), 4), (b, 1)]);
        assert_eq!(&merged[..8], &a[..], "aligned sets pass through");
        assert_eq!(merged.len(), 8 + 8, "B re-decimated from 32 to 8");
        assert_eq!(&merged[8..], &[100, 104, 108, 112, 116, 120, 124, 128]);
        // Degenerate cases.
        assert!(merge_lat_reservoirs(Vec::new()).is_empty());
        assert_eq!(merge_lat_reservoirs(vec![(vec![7], 1)]), vec![7]);
    }

    /// Nearest-rank percentile of an ascending-sorted sample set (0 for
    /// an empty set): what `assemble` read after a full sort, and the
    /// reference [`select_p50_p99`] is held to.
    fn percentile(sorted: &[u64], pct: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 99.0), 4);
    }

    /// A reservoir that starts empty and grows on demand.
    fn empty_reservoir() -> LatReservoir {
        LatReservoir {
            samples: Vec::new(),
            stride: 1,
            ticks: 0,
        }
    }

    #[test]
    fn stride_at_is_the_stride_record_is_in() {
        let mut r = empty_reservoir();
        for tick in 0..5 * LAT_RESERVOIR as u64 + 3 {
            r.record(tick);
            assert_eq!(LatReservoir::stride_at(tick), r.stride, "tick {tick}");
        }
    }

    /// The DES's run-wide log against what it replaced: one reservoir per
    /// thread, merged. Threads offer interleaved in random order, with
    /// offer counts on both sides of the first three decimations, so the
    /// merge re-decimates some threads and not others.
    #[test]
    fn the_run_wide_log_rebuilds_the_per_thread_merge() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const OFFERS: [u64; 8] = [0, 1, 7, 32_767, 32_768, 32_769, 70_000, 140_001];
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        // Two wrong logs, to show that the cases can tell: one that keeps
        // whatever was logged, one that filters on each thread's own
        // final stride instead of the largest.
        let (mut unfiltered_differs, mut own_stride_differs) = (0u32, 0u32);
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let threads = rng.gen_range(1usize..=9);
            let mut left: Vec<u64> = (0..threads)
                .map(|_| OFFERS[rng.gen_range(0..OFFERS.len())])
                .collect();
            let offers = left.clone();
            let mut reservoirs: Vec<_> = (0..threads).map(|_| empty_reservoir()).collect();
            let mut log = Vec::new();
            let mut log_tids = Vec::new();
            let mut live: Vec<usize> = (0..threads).filter(|&t| left[t] > 0).collect();
            while !live.is_empty() {
                let at = rng.gen_range(0..live.len());
                let t = live[at];
                // A burst of one thread's offers, then another's.
                for _ in 0..rng.gen_range(1u64..=4096).min(left[t]) {
                    let tick = offers[t] - left[t];
                    // Distinct per (thread, tick), in no order.
                    let sample = (tick << 4 | t as u64).wrapping_mul(0x9E37_79B9) % 1_000_003;
                    reservoirs[t].record(sample);
                    // What `modelled::Sim::grant` does.
                    if tick & (LatReservoir::stride_at(tick) - 1) == 0 {
                        log.push((sample, tick));
                        log_tids.push(t);
                    }
                    left[t] -= 1;
                }
                if left[t] == 0 {
                    live.swap_remove(at);
                }
            }
            let most = offers.iter().copied().max().unwrap_or(0);
            let (mut from_log, stride) = LatReservoir::from_log(&log, most).into_parts();
            let strides: Vec<u64> = reservoirs.iter().map(|r| r.stride).collect();
            assert_eq!(Some(&stride), strides.iter().max(), "seed {seed}");
            let parts = reservoirs.into_iter().map(LatReservoir::into_parts);
            let mut merged = merge_lat_reservoirs(parts.collect());
            let ctx = format!("seed {seed}, offers {offers:?}");
            assert_eq!(
                select_p50_p99(&mut from_log),
                select_p50_p99(&mut merged),
                "p50, p99: {ctx}"
            );
            let merged = sorted(merged);
            assert_eq!(sorted(from_log), merged, "{ctx}");

            // The wrong logs keep too much; counting is enough to see it.
            unfiltered_differs += u32::from(log.len() != merged.len());
            let own_stride = log.iter().zip(&log_tids);
            let own_stride = own_stride.filter(|((_, tick), &t)| tick.is_multiple_of(strides[t]));
            own_stride_differs += u32::from(own_stride.count() != merged.len());
        }
        assert!(
            unfiltered_differs > 8 && own_stride_differs > 8,
            "the seeds never mixed strides: {unfiltered_differs}, {own_stride_differs}"
        );
    }

    #[test]
    fn selection_reads_the_percentiles_a_sort_does() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5E1EC7);
        let mut random = |len| (0..len).map(|_| rng.gen_range(0u64..5_000)).collect();
        let (big, small): (Vec<u64>, Vec<u64>) = (random(10_000), random(101));
        // Lengths where p99 shares p50's index (1), sits right above it
        // (2, 3) or far above it, and a set of ties.
        for set in [
            vec![],
            vec![7],
            vec![9, 2],
            vec![5, 1, 3],
            vec![3; 100],
            small,
            big,
        ] {
            let mut sorted = set.clone();
            sorted.sort_unstable();
            assert_eq!(
                select_p50_p99(&mut set.clone()),
                (percentile(&sorted, 50.0), percentile(&sorted, 99.0)),
                "{} samples",
                set.len()
            );
        }
    }

    #[test]
    fn bursty_run_loses_throughput_to_the_gaps() {
        // A 50% duty cycle admits load half the time; throughput must
        // drop visibly against steady load (not exactly 2x — bursts
        // synchronize arrivals and deepen queues).
        let cfg = quick_cfg(4);
        let steady = run_scenario(
            AnyLockKind::Excl(LockKind::CBoMcs),
            &Scenario::steady(),
            &cfg,
        );
        let bursty = run_scenario(
            AnyLockKind::Excl(LockKind::CBoMcs),
            &Scenario::bursty(100_000, 100_000),
            &cfg,
        );
        assert!(bursty.total_ops > 0);
        assert!(
            bursty.throughput < 0.8 * steady.throughput,
            "bursty {:.0} should trail steady {:.0}",
            bursty.throughput,
            steady.throughput
        );
    }

    #[test]
    fn phased_run_mixes_both_sides() {
        let cfg = quick_cfg(4);
        let r = run_scenario(
            AnyLockKind::Rw(RwLockKind::CRwWpBoMcs),
            &Scenario::phased(vec![
                Phase {
                    dur_ns: 200_000,
                    read_pct: 100,
                },
                Phase {
                    dur_ns: 200_000,
                    read_pct: 0,
                },
            ]),
            &cfg,
        );
        assert!(r.read_ops > 0, "read phases produce reads");
        assert!(r.write_ops > 0, "write phases produce writes");
        assert_eq!(r.total_ops, r.read_ops + r.write_ops);
    }

    #[test]
    fn asymmetric_run_skews_per_thread_ops() {
        let mut cfg = quick_cfg(4);
        cfg.noncs_max_ns = 8_000;
        // Modelled, so the claim is about the idle bounds the clients
        // draw (the DES applies the same `noncs_max_for`), not about how
        // the host schedules four real threads.
        let r = run_scenario(
            AnyLockKind::Excl(LockKind::Ticket),
            &Scenario::steady()
                .with_asymmetry(16.0)
                .modelled(CostModel::t5440()),
            &cfg,
        );
        // Thread 0 keeps the paper's idle bound; the last thread idles up
        // to 17x longer, so it must complete visibly fewer ops.
        assert!(
            r.per_thread_ops[0] > 2 * r.per_thread_ops[3],
            "asymmetry should skew ops: {:?}",
            r.per_thread_ops
        );
    }

    #[test]
    fn abortable_scenario_counts_aborts() {
        let cfg = quick_cfg(4);
        let r = run_scenario(
            AnyLockKind::Excl(LockKind::ACBoClh),
            &Scenario::steady().with_patience(50_000),
            &cfg,
        );
        assert!(r.total_ops > 0);
        assert!(r.abort_rate >= 0.0 && r.abort_rate <= 1.0);
    }

    #[test]
    fn latency_percentiles_are_sane() {
        let r = run_scenario(
            AnyLockKind::Excl(LockKind::Mcs),
            &Scenario::steady(),
            &quick_cfg(4),
        );
        assert!(r.lat_p50_ns > 0, "contended acquisitions have latency");
        assert!(r.lat_p99_ns >= r.lat_p50_ns);

        // Shared reads serialize on nothing and are not sampled: a
        // read-only RW run reports zero acquisition latency.
        let ro = run_scenario(
            AnyLockKind::Rw(RwLockKind::CRwNeutralBoMcs),
            &Scenario::steady().with_read_pct(100),
            &quick_cfg(2),
        );
        assert_eq!(ro.acquisitions, 0);
        assert_eq!(ro.lat_p50_ns, 0);
        assert_eq!(ro.lat_p99_ns, 0);
    }

    /// The reference for [`ScenarioResult::first_divergence`]: one
    /// mutation per deterministic field, written out by hand so the list
    /// does not share a source with the code it checks.
    #[test]
    fn first_divergence_names_every_field() {
        fn flip(v: &mut f64) {
            *v = f64::from_bits(v.to_bits() ^ 1);
        }
        type Mutation = (&'static str, fn(&mut ScenarioResult));
        let mutations: [Mutation; 30] = [
            ("kind", |r| r.kind = AnyLockKind::Excl(LockKind::Tatas)),
            ("threads", |r| r.threads += 1),
            ("read_pct", |r| r.read_pct += 1),
            ("per_thread_ops", |r| r.per_thread_ops[0] += 1),
            ("read_ops", |r| r.read_ops += 1),
            ("write_ops", |r| r.write_ops += 1),
            ("total_ops", |r| r.total_ops += 1),
            ("throughput", |r| flip(&mut r.throughput)),
            ("acquisitions", |r| r.acquisitions += 1),
            ("migrations", |r| r.migrations += 1),
            ("remote_misses", |r| r.remote_misses += 1),
            ("misses_per_cs", |r| flip(&mut r.misses_per_cs)),
            ("mean_batch", |r| flip(&mut r.mean_batch)),
            ("aborts", |r| r.aborts += 1),
            ("abort_rate", |r| flip(&mut r.abort_rate)),
            ("stddev_pct", |r| flip(&mut r.stddev_pct)),
            ("policy", |r| r.policy = None),
            ("tenures", |r| r.tenures += 1),
            ("local_handoffs", |r| r.local_handoffs += 1),
            ("mean_streak", |r| flip(&mut r.mean_streak)),
            ("max_streak", |r| r.max_streak += 1),
            ("migrations_per_tenure", |r| {
                flip(&mut r.migrations_per_tenure)
            }),
            ("fast_acquisitions", |r| r.fast_acquisitions += 1),
            ("slow_acquisitions", |r| r.slow_acquisitions += 1),
            ("passive_parks", |r| r.passive_parks += 1),
            ("promotions", |r| r.promotions += 1),
            ("succ_transitions", |r| r.succ_transitions += 1),
            ("batch_hist", |r| r.batch_hist.push(1)),
            ("lat_p50_ns", |r| r.lat_p50_ns += 1),
            ("lat_p99_ns", |r| r.lat_p99_ns += 1),
        ];
        let base = run_scenario(
            AnyLockKind::Excl(LockKind::CBoMcs),
            &Scenario::steady().modelled(CostModel::disaggregated()),
            &quick_cfg(4),
        );
        assert_eq!(base.policy.as_deref(), Some("count(64)"));
        assert_eq!(base.first_divergence(&base.clone()), None);
        // No derived entry in `fields()`: every one is a struct field.
        assert_eq!(mutations.len(), base.fields().len());
        for (name, mutate) in mutations {
            let mut other = base.clone();
            mutate(&mut other);
            let diff = base.first_divergence(&other);
            assert!(
                diff.as_deref()
                    .is_some_and(|d| d.starts_with(&format!("{name}: "))),
                "mutating {name} reported {diff:?}"
            );
        }
        let mut other = base.clone();
        other.wall += Duration::from_secs(1);
        assert_eq!(base.first_divergence(&other), None, "wall is real time");
    }
}
