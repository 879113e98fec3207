//! Keyed-op scenarios: the scenario engine driving *service* workloads.
//!
//! The kvstore and allocator case studies used to bypass the engine with
//! hand-rolled measurement loops (`run_kv`, `run_mmicro`) — the last
//! `Measure::Custom` holdouts after PR 4 unified everything else on
//! [`run_scenario`](crate::run_scenario). This module retires them: a
//! [`KeyedSpec`] on a [`Scenario`] adds the *keyed-op dimension* — a
//! key-distribution ([`KeyDist`]: uniform, Zipfian skew, hot-set flash
//! crowds, composable with [`LoadShape::Bursty`](crate::LoadShape)) and
//! a [`KeyedServiceFactory`] that builds the service under test (an
//! N-shard KV store, the allocator arena) — and [`run_keyed`] is the one
//! driver that measures it, reporting the full [`ScenarioResult`]
//! surface including per-op latency percentiles from the PR-5 reservoir.
//!
//! **Parity contract.** The engine's realtime loop replicates the legacy
//! drivers' per-thread programs exactly — same RNG draw order (key, then
//! the read/write coin), same unconditional `kappa_for(threads)` pacing,
//! same out-of-lock parse advance — so the thin `run_kv`/`run_mmicro`
//! wrappers reproduce their historical single-thread numbers to the bit
//! (pinned by `tests/kv_scenario_parity.rs`). Two consequences worth
//! naming: the engine performs **no window stop-checks of its own** —
//! the service checks the window inside its critical sections exactly
//! where the old drivers did (a driver that crossed the window during
//! its out-of-lock delay still started one more op) — and the read/write
//! coin is only drawn when [`Scenario::draws_coin`] says so (for
//! exclusive kinds: when the scenario can produce reads at all), which
//! matches every mix the legacy drivers ever ran.
//!
//! **Modelled mode.** With [`CostMode::Modelled`], the run becomes a
//! deterministic sequential simulation: logical threads' ops execute one
//! at a time in (virtual-clock, thread-id) order, each against the real
//! service, and per-shard serialization emerges from the service's own
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
use crate::pace::{kappa_for, spin_wall};
use crate::registry::AnyLockKind;
use crate::scenario::{
    assemble, cluster_for, run_workers, CostMode, Counts, LBenchConfig, LatReservoir, LockReport,
    Scenario, ScenarioResult,
};
use coherence_sim::take_thread_stats;
use cohort::CohortStats;
use numa_topology::{vclock, ClusterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How clients pick keys — the "internet-shaped traffic" axis.
#[derive(Clone, Debug, PartialEq)]
pub enum KeyDist {
    /// Every key equally likely (the legacy `run_kv` behaviour; exactly
    /// one RNG draw per sample, which the parity contract depends on).
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
    /// The accepted knob spellings, for strict env-parse errors.
    pub const SYNTAX: &'static [&'static str] = &["uniform", "zipf:<theta<1>", "hot:<keys>:<pct>"];

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

    /// Parses a [`label`](Self::label)-style spec: `uniform`,
    /// `zipf:<theta>` with `0 ≤ theta < 1`, or `hot:<keys>:<pct>` with
    /// `keys ≥ 1` and `pct ≤ 100`. Case-insensitive; `None` on anything
    /// else.
    pub fn parse(s: &str) -> Option<KeyDist> {
        let s = s.trim().to_ascii_lowercase();
        if s == "uniform" {
            return Some(KeyDist::Uniform);
        }
        if let Some(rest) = s.strip_prefix("zipf:") {
            let theta: f64 = rest.trim().parse().ok()?;
            return ((0.0..1.0).contains(&theta)).then_some(KeyDist::Zipfian { theta });
        }
        if let Some(rest) = s.strip_prefix("hot:") {
            let (keys, pct) = rest.split_once(':')?;
            let keys: u64 = keys.trim().parse().ok()?;
            let pct: u32 = pct.trim().parse().ok()?;
            return (keys >= 1 && pct <= 100).then_some(KeyDist::HotSet { keys, pct });
        }
        None
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
/// pacing, and window-checking), and exposes the counters the
/// [`ScenarioResult`] surface needs.
pub trait KeyedService: Send + Sync {
    /// Executes one operation. Returns `false` when the op must not be
    /// counted (e.g. an allocator retry after arena exhaustion); the
    /// engine then skips the latency sample, the op count, and the
    /// out-of-lock parse advance.
    fn op(&self, op: &KeyedOp, ctx: &KeyedCtx<'_>, rng: &mut StdRng) -> bool;

    /// Exclusive acquisitions observed by the service's handoff
    /// channel(s), summed across shards.
    fn acquisitions(&self) -> u64;

    /// Cross-cluster migrations, summed across shards.
    fn migrations(&self) -> u64;

    /// Power-of-two batch-length histogram, summed elementwise across
    /// shards.
    fn batch_hist(&self) -> Vec<u64>;

    /// Cohort tenure statistics merged across shards (`None` when no
    /// shard lock has a tenure notion).
    fn cohort_stats(&self) -> Option<CohortStats>;

    /// Handoff-policy label (`None` for non-policy locks).
    fn policy_label(&self) -> Option<String>;
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

/// Runs a keyed scenario — the service-workload twin of
/// [`run_scenario_on`](crate::run_scenario_on). Dispatched automatically
/// by [`run_scenario`](crate::run_scenario) when `scenario.keyed` is
/// set.
pub(crate) fn run_keyed(
    kind: AnyLockKind,
    spec: &KeyedSpec,
    scenario: &Scenario,
    cfg: &LBenchConfig,
) -> ScenarioResult {
    assert!(cfg.threads >= 1);
    assert!(scenario.read_pct <= 100, "read_pct is a percentage");
    // Same topology resolution as `run_scenario`: measured mode swaps in
    // the probed cluster map (with physical pinning), falling back to
    // virtual clusters with one warning per run.
    let (topo, clusters) = crate::phys::resolve_topology(cfg);
    let cfg = &LBenchConfig {
        clusters,
        ..cfg.clone()
    };
    let service = spec.factory.build(kind, &topo, scenario, cfg);
    if matches!(scenario.cost_mode, CostMode::Modelled(_)) {
        return run_keyed_modelled(kind, spec, scenario, cfg, &*service);
    }

    let started = Instant::now();
    // The legacy drivers paced unconditionally at kappa_for(threads)
    // (never consulting pace_wall/pace_scale); parity keeps that.
    let kappa = kappa_for(cfg.threads);
    let draws_coin = scenario.draws_coin(kind);

    let counts = run_workers(&topo, cfg, spec.seed, |w| {
        let stop = w.stop;
        let mut reads = 0u64;
        let mut writes = 0u64;
        let ctx = KeyedCtx {
            cluster: w.cluster,
            kappa,
            window_ns: cfg.window_ns,
            stop,
        };
        while !stop.load(Ordering::Relaxed) {
            // Load-shape gating (hot-key flash crowds compose a skewed
            // KeyDist with Bursty); a no-op under Steady, so legacy RNG
            // sequences are untouched.
            if let Some(gap) = scenario.shape.off_gap(vclock::now()) {
                vclock::advance(gap);
                spin_wall((gap * kappa).min(200_000), true);
                if vclock::now() >= cfg.window_ns {
                    stop.store(true, Ordering::Relaxed);
                }
                w.check_wall_net();
                continue;
            }

            // Legacy draw order: key first, then the coin.
            let key = if spec.keyspace > 0 {
                spec.dist.sample(&mut w.rng, spec.keyspace)
            } else {
                0
            };
            let cur_pct = scenario.shape.read_pct_at(vclock::now(), scenario.read_pct);
            let is_read = draws_coin && w.rng.gen_range(0u32..100) < cur_pct;
            let op = KeyedOp {
                key,
                is_read,
                stamp: reads + writes,
            };
            let lat_from = vclock::now();
            if service.op(&op, &ctx, &mut w.rng) {
                w.lat.record(vclock::now().saturating_sub(lat_from));
                if is_read {
                    reads += 1;
                } else {
                    writes += 1;
                }
                // Out-of-lock request handling (parallel fraction).
                vclock::advance(spec.parse_ns);
                spin_wall(spec.parse_ns * kappa, true);
            }
            w.check_wall_net();
        }
        (reads, writes, 0)
    });
    assemble(
        kind,
        scenario,
        cfg,
        counts,
        service_report(&*service),
        started,
    )
}

/// The lock side of a keyed run, as the service's shards report it.
fn service_report(service: &dyn KeyedService) -> LockReport {
    LockReport {
        acquisitions: service.acquisitions(),
        migrations: service.migrations(),
        batch_hist: service.batch_hist(),
        policy: service.policy_label(),
        cohort: service.cohort_stats(),
        succ_transitions: 0,
    }
}

/// The deterministic substrate (see the module docs): logical threads'
/// ops execute sequentially in (clock, thread-id) order against the real
/// service; per-shard FIFO queueing emerges from the service's handoff
/// channels. Bit-reproducible run to run. The order comes from a
/// `(clock, tid)` min-heap — O(log clients) per op, never a pass over
/// the thread table.
fn run_keyed_modelled(
    kind: AnyLockKind,
    spec: &KeyedSpec,
    scenario: &Scenario,
    cfg: &LBenchConfig,
    service: &dyn KeyedService,
) -> ScenarioResult {
    struct Th {
        cluster: ClusterId,
        rng: StdRng,
        reads: u64,
        writes: u64,
    }
    let started = Instant::now();
    // The sim drives the caller's thread-local clock; save and restore
    // it, and discard the factory's warm-phase coherence charges.
    let saved_clock = vclock::now();
    take_thread_stats();
    let draws_coin = scenario.draws_coin(kind);
    // Present for the ctx contract; the sim retires threads by clock
    // instead of reading it.
    let stop = AtomicBool::new(false);
    let mut ths: Vec<Th> = (0..cfg.threads)
        .map(|i| Th {
            cluster: cluster_for(i, cfg),
            rng: StdRng::seed_from_u64(spec.seed ^ i as u64),
            reads: 0,
            writes: 0,
        })
        .collect();
    // Each live logical thread has exactly one entry, keyed by its clock;
    // a thread popped at or past the window is retired by not going back.
    let mut ready = TimeQueue::with_capacity(cfg.threads);
    for t in 0..cfg.threads {
        ready.push(0, t);
    }
    let mut lat = LatReservoir::for_config(cfg);
    // Livelock guard: a service op that charges zero virtual time would
    // otherwise spin here forever.
    let stall_cap = cfg.threads as u64 * 64 + 1024;
    let mut stalls = 0u64;
    while let Some((clock, t)) = ready.pop() {
        if clock >= cfg.window_ns {
            continue;
        }
        if let Some(gap) = scenario.shape.off_gap(clock) {
            ready.push(clock + gap, t);
            continue;
        }
        let th = &mut ths[t];
        vclock::set(clock);
        let key = if spec.keyspace > 0 {
            spec.dist.sample(&mut th.rng, spec.keyspace)
        } else {
            0
        };
        let cur_pct = scenario.shape.read_pct_at(clock, scenario.read_pct);
        let is_read = draws_coin && th.rng.gen_range(0u32..100) < cur_pct;
        let op = KeyedOp {
            key,
            is_read,
            stamp: th.reads + th.writes,
        };
        let ctx = KeyedCtx {
            cluster: th.cluster,
            kappa: 0,
            window_ns: cfg.window_ns,
            stop: &stop,
        };
        let lat_from = vclock::now();
        if service.op(&op, &ctx, &mut th.rng) {
            lat.record(vclock::now().saturating_sub(lat_from));
            if is_read {
                th.reads += 1;
            } else {
                th.writes += 1;
            }
            vclock::advance(spec.parse_ns);
        }
        let now = vclock::now();
        if now == clock {
            stalls += 1;
            assert!(
                stalls < stall_cap,
                "keyed modelled simulation stalled: the service charged \
                 zero virtual time for {stalls} consecutive ops"
            );
        } else {
            stalls = 0;
        }
        ready.push(now, t);
    }
    let stats = take_thread_stats();
    vclock::set(saved_clock);

    let counts = Counts {
        per_thread: ths.iter().map(|t| (t.reads, t.writes)).collect(),
        aborts: 0,
        remote_misses: stats.remote_misses,
        lat_parts: vec![lat.into_parts()],
    };
    assemble(
        kind,
        scenario,
        cfg,
        counts,
        service_report(service),
        started,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn parse_round_trips_labels() {
        for d in [
            KeyDist::Uniform,
            KeyDist::Zipfian { theta: 0.5 },
            KeyDist::HotSet { keys: 64, pct: 90 },
        ] {
            assert_eq!(KeyDist::parse(&d.label()), Some(d));
        }
        assert_eq!(KeyDist::parse(" UNIFORM "), Some(KeyDist::Uniform));
        assert_eq!(
            KeyDist::parse("zipf:0.99"),
            Some(KeyDist::Zipfian { theta: 0.99 })
        );
        // Any case, like every `env_choice` knob.
        assert_eq!(
            KeyDist::parse("zIPF:0.9"),
            Some(KeyDist::Zipfian { theta: 0.9 })
        );
        assert_eq!(
            KeyDist::parse("hOt:8:50"),
            Some(KeyDist::HotSet { keys: 8, pct: 50 })
        );
        for bad in [
            "",
            "zipf",
            "zipf:1.0",
            "zipf:-0.1",
            "zipf:x",
            "hot:0:50",
            "hot:8:101",
            "hot:8",
            "pareto:1",
        ] {
            assert_eq!(KeyDist::parse(bad), None, "{bad:?}");
        }
    }
}
