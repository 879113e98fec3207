//! # LBench — the microbenchmark harness of the evaluation
//!
//! Reimplements the paper's LBench (§4.1): N threads hammer one central
//! lock, each critical section writes two shared cache lines, each
//! non-critical section idles up to 4 µs, and the run reports aggregate
//! throughput, per-thread fairness, lock migrations, coherence misses per
//! critical section, and (in abortable mode) abort rates — i.e. every
//! metric behind Figures 2–6.
//!
//! Three pieces:
//!
//! * [`BenchLock`] + adapters — all ~19 lock algorithms behind one
//!   object-safe interface (including `pthread` as a parking-lot futex
//!   mutex);
//! * [`LockKind`] — the registry mapping the paper's lock names to
//!   constructors, with the exact lock sets of each figure/table; cohort
//!   kinds can also be built with any [`PolicySpec`]-described handoff
//!   policy ([`LockKind::make_with_policy`]);
//! * [`run_lbench`] — the measurement loop, in virtual-time mode
//!   (hardware-independent, see docs/ARCHITECTURE.md, "Virtual time, in
//!   one paragraph") or wall mode (for real
//!   NUMA boxes). Cohort runs additionally report per-tenure handoff
//!   statistics (tenures, migrations per tenure, mean/max streak) from
//!   the policy's counters.
//!
//! The reader-writer extension mirrors all three: [`BenchRwLock`] +
//! adapters erase the C-RW locks (plus the `std::sync::RwLock` and
//! exclusive-read baselines), [`RwLockKind`] names them, and
//! [`run_rw_lbench`] drives a `read_pct`-weighted mix through them for
//! the `fig_rw` exhibit.
//!
//! Underneath both sits the **scenario engine** (the `scenario` module):
//! a [`Scenario`] describes the per-thread op mix (exclusive /
//! shared-read / abortable-with-patience) and its [`LoadShape`] over time
//! (steady, bursty on/off, phased read-ratio schedule, thread-asymmetric
//! idling); [`run_scenario`] is the ONE measurement loop, driving any
//! [`AnyLockKind`] — the unified registry over [`LockKind`] and
//! [`RwLockKind`] — through the single erased [`BenchRwLock`] interface
//! ([`MutexAsRw`] subsumes every [`BenchLock`]). `run_lbench` and
//! `run_rw_lbench` are thin compatibility wrappers over it.
//!
//! A scenario's [`CostMode`] selects the execution substrate: `RealTime`
//! (real threads, modelled prices — the historical behaviour) or
//! `Modelled` (a single-threaded discrete-event simulation over the same
//! coherence cost model, bit-reproducible run to run — see the
//! `modelled` module docs and ARCHITECTURE.md's "Modelled coherence
//! mode"). The admission order a kind gets in modelled mode is published
//! as [`AnyLockKind::modelled_admission`] ([`ModelledAdmission`],
//! [`TenureLimit`]).

#![deny(missing_docs)]

mod bench_lock;
mod bench_rwlock;
pub mod env;
mod keyed;
mod modelled;
pub mod pace;
pub mod phys;
mod registry;
mod runner;
mod scenario;
pub mod stats;

pub use bench_lock::{
    AbortableAdapter, BenchLock, CohortAbortableAdapter, CohortAdapter, HasCohortStats,
    PthreadLock, RawAdapter,
};
pub use bench_rwlock::{BenchRwLock, CohortRwAdapter, MutexAsRw, StdRwAdapter};
pub use cohort::{CohortStats, PolicySpec};
pub use env::EnvKnobError;
pub use keyed::{KeyDist, KeyedCtx, KeyedOp, KeyedService, KeyedServiceFactory, KeyedSpec};
pub use phys::TopologyMode;
pub use registry::{AnyLockKind, LockKind, ModelledAdmission, RwLockKind, TenureLimit};
pub use runner::{
    run_lbench, run_lbench_on, run_rw_lbench, LBenchConfig, LBenchResult, Placement, RwBenchResult,
    TimeMode,
};
pub use scenario::{
    run_scenario, run_scenario_on, CostMode, LoadShape, Phase, Scenario, ScenarioResult,
};
