//! Keyed-op scenarios: the scenario engine driving *service* workloads.
//!
//! A [`KeyedSpec`] on a [`Scenario`] adds the *keyed-op dimension* — a
//! key-distribution ([`KeyDist`]: uniform, Zipfian skew, hot-set flash
//! crowds, composable with [`LoadShape::Bursty`](crate::LoadShape)) and
//! a [`KeyedServiceFactory`] that builds the service under test (an
//! N-shard KV store, the allocator arena). A [`KeyedService`] is one of
//! the op program's two bodies (see the `program` module, which also
//! owns the draw order — `Client::draw`): the engine draws the op, the
//! service executes it end to end, and the run reports the full
//! [`ScenarioResult`](crate::ScenarioResult) surface including per-op
//! latency percentiles.
//!
//! **Parity contract.** The program replicates the retired hand-rolled
//! kvstore/allocator drivers' per-thread programs exactly — same draws,
//! same unconditional `kappa_for(threads)` pacing, same out-of-lock parse
//! advance — so their historical single-thread numbers reproduce to the
//! bit (pinned by `tests/kv_scenario_parity.rs`). One consequence worth
//! naming: the engine performs **no window stop-checks of its own**
//! outside a burst gap — the service checks the window inside its
//! critical sections exactly where the old drivers did (a driver that
//! crossed the window during its out-of-lock delay still started one
//! more op).
//!
//! **Modelled mode.** With [`CostMode::Modelled`](crate::CostMode), the
//! run becomes a deterministic sequential simulation
//! (`run_in_clock_order`): logical threads' ops execute one at a time
//! in (virtual-clock, thread-id) order, each against the real service,
//! and per-shard serialization emerges from the service's own
//! [`HandoffChannel`](coherence_sim::HandoffChannel) catch-up — the
//! channel raises the caller's clock past the previous holder's release,
//! which is arrival-order FIFO admission per shard. Cohort *reordering*
//! within a shard's queue is not modelled here (the service's real lock
//! is called, but sequential execution keeps it uncontended); the mode
//! exists for bit-reproducible tail-latency and shard-scaling statements
//! at client counts far beyond what real threads can offer, not for
//! admission-policy separations (those live in `modelled.rs`). Because
//! costs are charged through the service's *own* directory and handoff
//! channels, the scenario's modelled [`CostModel`](coherence_sim::CostModel)
//! prices nothing on this path — the factory decides the model.

use crate::modelled::TimeQueue;
use crate::pace::spin_wall;
use crate::program::{step, Body, Client, Exec, Program};
use crate::registry::AnyLockKind;
use crate::scenario::{Counts, LBenchConfig, LatReservoir, LockReport, Scenario};
use coherence_sim::take_thread_stats;
use numa_topology::{vclock, ClusterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// How clients pick keys — the "internet-shaped traffic" axis.
#[derive(Clone, Debug, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely (the retired kvstore driver's behaviour;
    /// exactly one RNG draw per sample, which the parity contract depends
    /// on).
    Uniform,
    /// Zipf-like rank skew via the continuous inverse-CDF approximation
    /// `key = ⌊N · v^(1/(1-θ))⌋` over one uniform draw — O(1) per sample,
    /// no per-keyspace tables. The *cumulative* mass of the `k` lowest
    /// keys is `(k/N)^(1-θ)`, so key 0 alone receives `N^-(1-θ)`: at
    /// `θ = 0.99` over 10⁶ keys that is 0.871 — one key takes 87 % of the
    /// draws. `θ = 0` degenerates to uniform; `θ → 1` concentrates
    /// everything on key 0. Requires `0 ≤ θ < 1`.
    Zipfian {
        /// Skew parameter, in `[0, 1)`.
        theta: f64,
    },
    /// A flash crowd: `pct`% of samples land uniformly in the `keys`
    /// lowest keys (the hot set), the rest uniformly in the cold
    /// remainder. Compose with [`LoadShape::Bursty`](crate::LoadShape)
    /// for hot-key bursts. Always two RNG draws per sample.
    HotSet {
        /// Size of the hot set (clamped to the keyspace).
        keys: u64,
        /// Percentage of samples (0–100) routed to the hot set.
        pct: u32,
    },
}

impl KeyDist {
    /// Draws one key in `[0, keyspace)`.
    pub fn sample(&self, rng: &mut StdRng, keyspace: u64) -> u64 {
        assert!(keyspace > 0, "keyed sampling needs a non-empty keyspace");
        match *self {
            KeyDist::Uniform => rng.gen_range(0..keyspace),
            KeyDist::Zipfian { theta } => {
                assert!((0.0..1.0).contains(&theta), "zipf theta must be in [0, 1)");
                // 53-bit uniform in [0, 1) from one draw; v = 1-u ∈ (0, 1]
                // avoids 0^e, and the result is clamped below keyspace.
                let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let e = 1.0 / (1.0 - theta);
                let key = (keyspace as f64 * (1.0 - u).powf(e)) as u64;
                key.min(keyspace - 1)
            }
            KeyDist::HotSet { keys, pct } => {
                assert!(pct <= 100, "hot-set pct is a percentage");
                let hot = keys.clamp(1, keyspace);
                let is_hot = rng.gen_range(0u32..100) < pct;
                if is_hot || hot == keyspace {
                    // The cold draw still happens below when !is_hot and
                    // the hot set covers everything — both branches cost
                    // exactly two draws, keeping replays aligned.
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(hot..keyspace)
                }
            }
        }
    }

    /// CSV-safe label (`uniform`, `zipf:0.9`, `hot:64:90` — no commas).
    pub fn label(&self) -> String {
        match *self {
            KeyDist::Uniform => "uniform".to_string(),
            KeyDist::Zipfian { theta } => format!("zipf:{theta}"),
            KeyDist::HotSet { keys, pct } => format!("hot:{keys}:{pct}"),
        }
    }
}

/// One operation the engine asks a [`KeyedService`] to perform.
#[derive(Clone, Copy, Debug)]
pub struct KeyedOp {
    /// The key, drawn from the scenario's [`KeyDist`] (0 when the spec's
    /// keyspace is 0 — keyless services like the allocator).
    pub key: u64,
    /// Whether the scenario's read/write coin came up read.
    pub is_read: bool,
    /// Ops this thread completed so far (the legacy drivers' value
    /// stamp for writes).
    pub stamp: u64,
}

/// Per-thread context a [`KeyedService`] operates under.
pub struct KeyedCtx<'a> {
    /// The calling thread's NUMA cluster.
    pub cluster: ClusterId,
    /// Wall-pacing multiplier (κ); 0 in modelled mode, where no wall
    /// pacing happens at all.
    pub kappa: u64,
    /// The virtual measurement window: the service checks it inside its
    /// critical sections (where the legacy drivers did) and raises
    /// `stop` when crossed.
    pub window_ns: u64,
    /// The run's shared stop flag.
    pub stop: &'a AtomicBool,
}

/// A service the keyed engine can drive: executes one op end to end
/// (acquiring its own locks, charging its own directory/handoff costs,
/// pacing, and window-checking), and reports its lock side.
pub trait KeyedService: Send + Sync {
    /// Executes one operation. Returns `false` when the op must not be
    /// counted (e.g. an allocator retry after arena exhaustion); the
    /// engine then skips the latency sample, the op count, and the
    /// out-of-lock parse advance.
    fn op(&self, op: &KeyedOp, ctx: &KeyedCtx<'_>, rng: &mut StdRng) -> bool;

    /// What the service's locks and handoff channels saw, folded over
    /// its shards ([`LockReport::merge`]).
    fn report(&self) -> LockReport;
}

/// Any service is a body of the op program: the op's latency is the
/// whole service call (queueing *plus* service), and `parse_ns` of
/// out-of-lock request handling follows every counted op.
impl Body for dyn KeyedService + '_ {
    fn run(&self, op: &KeyedOp, c: &mut Client, p: &Program<'_>, x: &mut Exec<'_>) {
        let ctx = KeyedCtx {
            cluster: c.cluster,
            kappa: p.pace,
            window_ns: p.cfg.window_ns,
            stop: x.stop,
        };
        let lat_from = vclock::now();
        if self.op(op, &ctx, &mut c.rng) {
            x.lat.record(vclock::now().saturating_sub(lat_from));
            c.complete(op.is_read);
            vclock::advance(p.parse_ns);
            spin_wall(p.parse_ns * p.pace, true);
        }
    }
}

/// Builds the [`KeyedService`] for one run. The factory — not the
/// engine — constructs the service's locks from `kind` (one per shard,
/// through the [`AnyLockKind`]/[`PolicySpec`](crate::PolicySpec)
/// registry) and performs any warm phase; warm-up must bypass the
/// op-accounting path (the legacy drivers' warm populate was invisible
/// to the handoff channel).
pub trait KeyedServiceFactory: Send + Sync {
    /// Builds the service for `kind` under `cfg`.
    fn build(
        &self,
        kind: AnyLockKind,
        topo: &Arc<Topology>,
        scenario: &Scenario,
        cfg: &LBenchConfig,
    ) -> Arc<dyn KeyedService>;
}

/// The keyed-op dimension of a [`Scenario`]: what keys look like, the
/// out-of-lock work per op, the RNG seed base, and the service factory.
#[derive(Clone)]
pub struct KeyedSpec {
    /// Distinct keys clients draw from (0 = keyless service: no key
    /// draw happens, preserving keyless drivers' RNG sequences).
    pub keyspace: u64,
    /// The key distribution.
    pub dist: KeyDist,
    /// Out-of-lock per-op work in virtual ns (the parallel fraction —
    /// request parsing, socket handling).
    pub parse_ns: u64,
    /// Per-thread RNG seed base (thread `i` seeds `seed ^ i`); the
    /// legacy drivers' bases keep their historical streams.
    pub seed: u64,
    /// Builds the service under test.
    pub factory: Arc<dyn KeyedServiceFactory>,
}

impl fmt::Debug for KeyedSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyedSpec")
            .field("keyspace", &self.keyspace)
            .field("dist", &self.dist)
            .field("parse_ns", &self.parse_ns)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// The deterministic executor of keyed runs (see the module docs): the
/// clients' [`step`]s execute sequentially on this OS thread in (clock,
/// thread-id) order off a min-heap — O(log clients) per op — against the
/// real service, into ONE run-wide latency reservoir in execution order.
/// Both choices are pinned by `results/fig_shards.csv`: the DES breaks
/// clock ties by push order and decimates per logical thread, which is
/// why this is a driver of its own rather than a branch inside it.
pub(crate) fn run_in_clock_order(p: &Program<'_>, body: &dyn KeyedService) -> Counts {
    let cfg = p.cfg;
    // The run drives the caller's thread-local clock; save and restore
    // it, and discard the factory's warm-phase coherence charges.
    let saved_clock = vclock::now();
    take_thread_stats();
    // Present for the ctx contract; threads retire by clock instead.
    let stop = AtomicBool::new(false);
    let mut x = Exec {
        stop: &stop,
        wall_start: Instant::now(),
        lat: LatReservoir::lazy(),
    };
    let mut clients: Vec<Client> = (0..cfg.threads).map(|i| Client::new(p, i)).collect();
    // Each live logical thread has exactly one entry, keyed by its clock;
    // a thread popped at or past the window is retired by not going back.
    let mut ready = TimeQueue::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        ready.push(0, t);
    }
    // Livelock guard: a service op that charges zero virtual time would
    // otherwise spin here forever.
    let stall_cap = cfg.threads as u64 * 64 + 1024;
    let mut stalls = 0u64;
    while let Some((clock, t)) = ready.pop() {
        if clock >= cfg.window_ns {
            continue;
        }
        vclock::set(clock);
        step(&mut clients[t], body, p, &mut x);
        let now = vclock::now();
        stalls = if now == clock { stalls + 1 } else { 0 };
        assert!(
            stalls < stall_cap,
            "keyed modelled simulation stalled: the service charged \
             zero virtual time for {stalls} consecutive ops"
        );
        ready.push(now, t);
    }
    let mut counts = Counts::new(cfg.threads, take_thread_stats().remote_misses);
    vclock::set(saved_clock);
    for c in &clients {
        counts.client(c);
    }
    counts.lat(x.lat);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD157)
    }

    #[test]
    fn uniform_is_exactly_one_legacy_draw() {
        // The parity contract: Uniform must consume exactly the draw the
        // legacy drivers made (`gen_range(0..keyspace)`), nothing else.
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(KeyDist::Uniform.sample(&mut a, 512), b.gen_range(0..512));
        }
    }

    #[test]
    fn zipfian_concentrates_and_stays_in_range() {
        let mut r = rng();
        let d = KeyDist::Zipfian { theta: 0.9 };
        let n = 10_000;
        let keyspace = 1024u64;
        let mut low = 0u64;
        for _ in 0..n {
            let k = d.sample(&mut r, keyspace);
            assert!(k < keyspace);
            if k < keyspace / 8 {
                low += 1;
            }
        }
        // Uniform would put 12.5% in the lowest eighth; heavy skew puts
        // the vast majority there.
        assert!(low > n / 2, "low-rank mass {low}/{n}");
    }

    #[test]
    fn zipf_theta_zero_is_uniformish() {
        let mut r = rng();
        let d = KeyDist::Zipfian { theta: 0.0 };
        let n = 20_000;
        let mut low = 0u64;
        for _ in 0..n {
            if d.sample(&mut r, 1000) < 125 {
                low += 1;
            }
        }
        let frac = low as f64 / n as f64;
        assert!((0.10..0.15).contains(&frac), "theta=0 frac {frac}");
    }

    #[test]
    fn hot_set_routes_the_configured_fraction() {
        let mut r = rng();
        let d = KeyDist::HotSet { keys: 16, pct: 90 };
        let n = 20_000;
        let mut hot = 0u64;
        for _ in 0..n {
            let k = d.sample(&mut r, 4096);
            assert!(k < 4096);
            if k < 16 {
                hot += 1;
            }
        }
        let frac = hot as f64 / n as f64;
        assert!((0.88..0.92).contains(&frac), "hot frac {frac}");
    }

    #[test]
    fn hot_set_clamps_to_the_keyspace() {
        let mut r = rng();
        let d = KeyDist::HotSet {
            keys: 1 << 40,
            pct: 10,
        };
        for _ in 0..100 {
            assert!(d.sample(&mut r, 64) < 64);
        }
    }
}
