//! # LBench — the microbenchmark harness of the evaluation
//!
//! Reimplements the paper's LBench (§4.1): N threads hammer one central
//! lock, each critical section writes two shared cache lines, each
//! non-critical section idles up to 4 µs, and the run reports aggregate
//! throughput, per-thread fairness, lock migrations, coherence misses per
//! critical section, and (in abortable mode) abort rates — i.e. every
//! metric behind Figures 2–6.
//!
//! Three pieces, each said once:
//!
//! * [`BenchRwLock`] — the one object-safe interface all 28 lock
//!   algorithms (including `pthread` as a parking-lot futex mutex) and
//!   the reader-writer locks are driven through. An exclusive lock
//!   implements the write side and inherits a read side that *is* the
//!   write side; five types implement the trait ([`RawAdapter`],
//!   [`AbortableAdapter`], [`PthreadLock`], [`CohortRwAdapter`],
//!   [`StdRwAdapter`]).
//! * [`AnyLockKind`] — the registry over [`LockKind`] (the paper's lock
//!   names, with the exact lock sets of each figure/table) and
//!   [`RwLockKind`] (the `fig_rw` set): one row per kind holding its
//!   name, family, modelled admission class and constructor.
//!   [`AnyLockKind::make`] builds any kind with its default handoff
//!   policy or any [`PolicySpec`]-described one.
//! * [`run_scenario`] — the one engine (the `scenario` module). A
//!   [`Scenario`] describes the per-thread op mix (exclusive /
//!   shared-read / abortable-with-patience) and its [`LoadShape`] over
//!   time (steady, bursty on/off, phased read-ratio schedule,
//!   thread-asymmetric idling); an [`LBenchConfig`] the grid cell, in
//!   virtual-time mode (hardware-independent, see docs/ARCHITECTURE.md,
//!   "Virtual time, in one paragraph") or wall mode (for real NUMA
//!   boxes). Cohort runs additionally report per-tenure handoff
//!   statistics (tenures, migrations per tenure, mean/max streak) from
//!   the policy's counters.
//!
//! Underneath, every run is one per-thread **program** (the `program`
//! module: draw the next op, run its body, repeat) with one of two
//! **bodies** — the LBench critical section, or a [`KeyedService`] when a
//! [`KeyedSpec`] on the scenario turns the run into a service workload
//! (sharded KV store, allocator) — on one of three **executors**, picked
//! by the scenario's [`CostMode`]: `RealTime` runs the program on real
//! threads with modelled prices; `Modelled` runs it on one OS thread,
//! bit-reproducibly — keyed bodies in clock order, the LBench body as a
//! discrete-event simulation over the same coherence cost model (see the
//! `modelled` module docs and ARCHITECTURE.md's "Modelled coherence
//! mode"). The admission order a kind gets there is published as
//! [`AnyLockKind::modelled_admission`] ([`ModelledAdmission`],
//! [`TenureLimit`]).

#![deny(missing_docs)]

mod bench_lock;
mod bench_rwlock;
pub mod env;
mod keyed;
mod modelled;
pub mod pace;
pub mod phys;
mod program;
mod registry;
#[cfg(test)]
mod runner;
mod scenario;
pub mod stats;

pub use bench_lock::{AbortableAdapter, PthreadLock, RawAdapter};
pub use bench_rwlock::{BenchRwLock, CohortRwAdapter, StdRwAdapter};
pub use cohort::{CohortStats, PolicySpec};
pub use env::EnvKnobError;
pub use keyed::{KeyDist, KeyedCtx, KeyedOp, KeyedService, KeyedServiceFactory, KeyedSpec};
pub use phys::TopologyMode;
pub use registry::{AnyLockKind, LockKind, ModelledAdmission, RwLockKind, TenureLimit};
pub use scenario::{
    run_scenario, run_scenario_on, CostMode, Field, LBenchConfig, LoadShape, LockReport, Phase,
    Placement, Scenario, ScenarioResult, TimeMode,
};
