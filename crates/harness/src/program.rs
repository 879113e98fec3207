//! The per-thread op program, written once.
//!
//! The paper's LBench loop (§4.1) and every workload grown from it is
//! one program per logical thread: **draw** what comes next — the gap to
//! the next load burst, or an op (key, read/write coin) — run the op's
//! **body**, repeat.
//!
//! * [`Client`] is one logical thread. [`Client::draw`] is the RNG
//!   program every committed modelled number pins — shape gate, then
//!   key, then coin — and [`Client::idle`] the one non-critical draw.
//! * [`Body`] is what an op does between two draws, with two
//!   implementors: the LBench critical section (`scenario.rs`) and any
//!   [`KeyedService`](crate::KeyedService) (`keyed.rs`). Window checks
//!   belong to the body, because the two differ there.
//! * [`step`] is one iteration, [`charge_cs`] the price of one LBench
//!   critical section.
//!
//! Three **executors** run it. Real threads call [`step`] until the stop
//! flag (`scenario::run_workers`); the keyed modelled run calls the same
//! [`step`] on one OS thread in `(clock, tid)` order
//! (`keyed::run_in_clock_order`); the discrete-event simulation
//! (`modelled.rs`) simulates admission instead of blocking, so it cannot
//! call a body: it keeps its event handlers and takes its threads, draws
//! and charges from here. One behaviour differs between them: a real
//! thread never checks the window before starting an op, a modelled one
//! retires on `clock >= window`, so a real-thread run completes one more
//! op per thread — the *boundary op* (`tests/modelled_determinism.rs`
//! holds single-thread runs of both to each other).

use crate::keyed::{KeyDist, KeyedOp};
use crate::pace::{kappa_for, spin_wall};
use crate::registry::AnyLockKind;
use crate::scenario::{
    cluster_for, CostMode, LBenchConfig, LatReservoir, LoadShape, Scenario, TimeMode,
};
use coherence_sim::Directory;
use numa_topology::{vclock, ClusterId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The per-run plan every [`Client`] of a run draws against: the scenario
/// and grid cell, plus what is resolved from them once so no draw
/// re-derives it.
pub(crate) struct Program<'a> {
    pub(crate) scenario: &'a Scenario,
    pub(crate) cfg: &'a LBenchConfig,
    shape: &'a LoadShape,
    draws_coin: bool,
    /// `(distribution, keyspace)`; `None` for keyless programs (LBench,
    /// the allocator), which draw no key.
    keys: Option<(&'a KeyDist, u64)>,
    /// Thread `i` seeds `seed ^ i`.
    seed: u64,
    /// Out-of-lock work after each keyed op (0 for LBench).
    pub(crate) parse_ns: u64,
    /// κ, the wall nanoseconds waited out per virtual nanosecond (see
    /// `LBenchConfig::pace_wall`); 0 where nothing is paced.
    pub(crate) pace: u64,
}

impl<'a> Program<'a> {
    pub(crate) fn new(kind: AnyLockKind, scenario: &'a Scenario, cfg: &'a LBenchConfig) -> Self {
        let spec = scenario.keyed.as_ref();
        Program {
            scenario,
            cfg,
            shape: match (cfg.mode, spec, scenario.cost_mode) {
                // Only the real-thread LBench body has a wall mode, and
                // there shapes degenerate to steady load (see `LoadShape`).
                (TimeMode::Wall, None, CostMode::RealTime) => &LoadShape::Steady,
                _ => &scenario.shape,
            },
            draws_coin: scenario.draws_coin(kind),
            keys: spec
                .filter(|s| s.keyspace > 0)
                .map(|s| (&s.dist, s.keyspace)),
            seed: spec.map_or(0x5EED, |s| s.seed),
            parse_ns: spec.map_or(0, |s| s.parse_ns),
            pace: match (scenario.cost_mode, spec) {
                // Nothing modelled reads the wall clock.
                (CostMode::Modelled(_), _) => 0,
                // The retired kvstore/allocator drivers paced
                // unconditionally, never consulting `pace_wall`; parity
                // keeps that.
                (CostMode::RealTime, Some(_)) => kappa_for(cfg.threads),
                (CostMode::RealTime, None) if cfg.pace_wall && cfg.mode == TimeMode::Virtual => {
                    kappa_for(cfg.threads)
                }
                (CostMode::RealTime, None) => 0,
            },
        }
    }
}

/// What a [`Client`] does next.
pub(crate) enum Draw {
    /// Load is gated off: idle this many virtual nanoseconds.
    Gap(u64),
    /// Run this op.
    Op(KeyedOp),
}

/// One logical thread of a run — a real worker or a row of a simulator's
/// thread table.
pub(crate) struct Client {
    pub(crate) cluster: ClusterId,
    /// Seeded `seed ^ i`. Only [`draw`](Self::draw), [`idle`](Self::idle)
    /// and a service drawing inside its op (the allocator's delays)
    /// consume it.
    pub(crate) rng: StdRng,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) aborts: u64,
    /// Upper bound of [`idle`](Self::idle), under the asymmetry knob.
    noncs_max: u64,
}

impl Client {
    /// Thread `i` of a run of `p`.
    pub(crate) fn new(p: &Program<'_>, i: usize) -> Self {
        Client {
            cluster: cluster_for(i, p.cfg),
            rng: StdRng::seed_from_u64(p.seed ^ i as u64),
            reads: 0,
            writes: 0,
            aborts: 0,
            noncs_max: p
                .scenario
                .noncs_max_for(i, p.cfg.threads, p.cfg.noncs_max_ns),
        }
    }

    /// The next thing this thread does at virtual time `now`. The draw
    /// order — shape gate (no draw), key, coin — fixes each thread's RNG
    /// program; a keyless program draws no key, and the coin is drawn
    /// only when [`Scenario::draws_coin`] says so.
    #[inline]
    pub(crate) fn draw(&mut self, p: &Program<'_>, now: u64) -> Draw {
        if let Some(gap) = p.shape.off_gap(now) {
            return Draw::Gap(gap);
        }
        let key = match p.keys {
            Some((dist, keyspace)) => dist.sample(&mut self.rng, keyspace),
            None => 0,
        };
        let pct = p.shape.read_pct_at(now, p.scenario.read_pct);
        let is_read = p.draws_coin && self.rng.gen_range(0u32..100) < pct;
        Draw::Op(KeyedOp {
            key,
            is_read,
            stamp: self.reads + self.writes,
        })
    }

    /// Draws the non-critical section that follows a completed LBench op
    /// (an aborted acquisition draws none).
    #[inline]
    pub(crate) fn idle(&mut self) -> u64 {
        self.rng.gen_range(0..=self.noncs_max)
    }

    /// Books one completed op.
    #[inline]
    pub(crate) fn complete(&mut self, is_read: bool) {
        if is_read {
            self.reads += 1;
        } else {
            self.writes += 1;
        }
    }
}

/// Charges one LBench critical section to the calling thread's virtual
/// clock: `cs_lines` directory accesses from `cluster` (loads for a read
/// op, stores for a write) plus `cs_extra_ns` of compute.
#[inline]
pub(crate) fn charge_cs(dir: &Directory, cfg: &LBenchConfig, is_read: bool, cluster: ClusterId) {
    for line in 0..cfg.cs_lines {
        if is_read {
            dir.read(line, cluster);
        } else {
            dir.write(line, cluster);
        }
    }
    vclock::advance(cfg.cs_extra_ns);
}

/// What the OS thread executing [`step`]s owns: one per real worker, one
/// for a whole sequential modelled run.
pub(crate) struct Exec<'a> {
    /// The run's shared stop flag, raised by whoever crosses the window.
    pub(crate) stop: &'a AtomicBool,
    /// When this thread's measurement began.
    pub(crate) wall_start: Instant,
    /// Latency samples of the ops this thread executed, in execution
    /// order.
    pub(crate) lat: LatReservoir,
}

/// What one op does between two draws: acquire, critical section,
/// release and whatever the thread does outside the lock, booking the
/// outcome on the client and the latency sample on the executor.
pub(crate) trait Body: Sync {
    /// Runs `op` for client `c`.
    fn run(&self, op: &KeyedOp, c: &mut Client, p: &Program<'_>, x: &mut Exec<'_>);
}

/// One iteration of the program for client `c` on the calling thread's
/// virtual clock: idle through a load gap, or run the next op's body.
pub(crate) fn step<B: Body + ?Sized>(c: &mut Client, body: &B, p: &Program<'_>, x: &mut Exec<'_>) {
    match c.draw(p, vclock::now()) {
        Draw::Gap(gap) => {
            vclock::advance(gap);
            // Stay silent for the paced gap (capped: exact pacing
            // matters less while not interacting with the lock).
            spin_wall((gap * p.pace).min(200_000), true);
            if vclock::now() >= p.cfg.window_ns {
                x.stop.store(true, Ordering::Relaxed);
            }
        }
        Draw::Op(op) => body.run(&op, c, p, x),
    }
}
