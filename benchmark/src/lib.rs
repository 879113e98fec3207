//! Wall-clock benchmark of the lock-cohorting workspace.
//!
//! Four workloads, each run in one process by one command, measured from
//! outside: the benchmark only times calls into the crates' public
//! functions. `BENCHMARK.json` at the repository root lists the
//! workloads and metrics; `README.md` here defines them.
//!
//! * [`driver`] — the closed loop of pinned workers, batches and
//!   segments;
//! * [`workloads`] — `lock_uncontended`, `lock_handover`,
//!   `kv_zipf_get90`, `des_4096`;
//! * [`layers`] — the per-crate cells of the traced run;
//! * [`trace`] — the span recorder;
//! * [`compare`] — result sets and `--compare`.

pub mod compare;
pub mod driver;
pub mod host;
pub mod json;
pub mod layers;
pub mod spec;
pub mod trace;
pub mod workloads;

use std::time::Duration;

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds of an untraced run; the traced run spends about
    /// as long, split between the workload and the layer cells.
    pub seconds: f64,
    pub traced: bool,
    /// A crash-and-schema check: every phase shrunk, validity gates that
    /// need a quiet machine skipped.
    pub smoke: bool,
}

impl Args {
    /// Discarded warm-up before the measured segments.
    pub fn warm(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 5.0).min(1.0))
    }

    /// The measured phase of the workload itself.
    pub fn measure(&self) -> Duration {
        // The traced run measures the workload twice (spans off, spans
        // on) and leaves the rest of its time to the layer cells.
        let share = if self.traced { 0.1 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }

    /// How many times a workload sets itself up; `setup_s` is the lower
    /// decile.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke || self.traced {
            1
        } else {
            full
        }
    }
}

/// What a run's correctness checks counted.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Operations whose effect was checked.
    pub attempted: u64,
    /// Operations whose effect was missing or wrong.
    pub failed: u64,
    /// Whether every worker ran on the CPU it asked for. A run continues
    /// unpinned, but says so in its fingerprint, and `--compare` refuses
    /// to set it beside a pinned one.
    pub pinned: bool,
}

impl Verdict {
    pub fn add(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.pinned &= other.pinned;
    }
}
