//! Exhibit Shards: the sharded KV service under production-shaped load.
//!
//! The paper stops at one cache lock (memcached's architecture); real
//! deployments shard the table so each shard gets its own cache lock, and
//! the interesting questions become *how many shards*, *how skewed the
//! keys*, and *what the tail looks like at saturation*. This exhibit
//! sweeps shards × closed-loop clients (into the thousands) × key
//! distribution over the [`ShardedKvStore`](cohort_kvstore::ShardedKvStore),
//! for the paper's headline
//! cohort lock and its C-RW reader-writer composition, all through the
//! scenario engine's keyed-op dimension.
//!
//! The sweep runs on the **modelled substrate** (a sequential
//! discrete-event run over virtual clocks): thousands of closed-loop
//! clients are ordinary per-thread state there, and every number —
//! including the per-op latency percentiles — is bit-reproducible, so
//! the CSV carries no wall column and the committed copy regenerates
//! byte-identically on any machine.
//!
//! The key distributions are fixed (`DISTS`: `uniform`, `zipf:0.4`,
//! `hot:64:90`). Environment (strict `lbench::env` parsing, like every
//! knob):
//!
//! * `LBENCH_SHARDS` — comma-separated shard counts (default `1,2,4,8`);
//! * `LBENCH_SHARD_CLIENTS` — comma-separated closed-loop client counts
//!   (default `64,512,2048`);
//! * plus the usual `LBENCH_*` knobs and `RESULTS_DIR`.
//!
//! The exhibit **self-checks** two acceptance shapes: a tail SLO — at the saturation cell (max shards, max
//! clients, uniform keys) the p99 op latency stays under a
//! queue-theoretic bound of 4 µs per queued client per shard; and the
//! sharding speedup — at the Zipf-light saturated cell, the widest
//! sharding (≥ 8× the narrowest) buys at least 2× the narrowest's
//! throughput.

use crate::{
    clusters, find, knob_or_die, long_table, no_cell_columns, run_exhibit, schema,
    throughput_table, verdict, window_ns, Cell, Check, Exhibit, Measurement, TableSpec,
};
use cohort_kvstore::workload::KvWorkload;
use lbench::env::env_positive_usize_list;
use lbench::{AnyLockKind, KeyDist, LockKind, RwLockKind};
use std::time::Duration;

/// One grid cell: a shard count × closed-loop client count × key
/// distribution.
#[derive(Clone, PartialEq)]
struct ShardCell {
    shards: usize,
    clients: usize,
    dist: KeyDist,
}

impl std::fmt::Display for ShardCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}sh/{}cl/{}",
            self.shards,
            self.clients,
            self.dist.label()
        )
    }
}

fn usize_list(knob: &str, default: &[usize]) -> Vec<usize> {
    knob_or_die(env_positive_usize_list(knob)).unwrap_or_else(|| default.to_vec())
}

/// The Zipf-light distribution of the sharding-speedup check.
const ZIPF_LIGHT: KeyDist = KeyDist::Zipfian { theta: 0.4 };

/// The key distributions swept: uniform keys, Zipf-light skew and a
/// flash crowd on 64 hot keys.
const DISTS: [KeyDist; 3] = [
    KeyDist::Uniform,
    ZIPF_LIGHT,
    KeyDist::HotSet { keys: 64, pct: 90 },
];

/// The workload behind one cell. Read-heavy (90% gets — the mix where
/// the C-RW column's shared read path matters), modelled substrate.
fn workload(cell: &ShardCell) -> KvWorkload {
    KvWorkload {
        threads: cell.clients,
        clusters: clusters(),
        shards: cell.shards,
        dist: cell.dist.clone(),
        window_ns: window_ns(),
        max_wall: Duration::from_secs(60),
        ..Default::default()
    }
}

fn cells() -> Vec<ShardCell> {
    let mut v = Vec::new();
    for &shards in &usize_list("LBENCH_SHARDS", &[1, 2, 4, 8]) {
        for &clients in &usize_list("LBENCH_SHARD_CLIENTS", &[64, 512, 2048]) {
            for dist in DISTS {
                v.push(ShardCell {
                    shards,
                    clients,
                    dist,
                });
            }
        }
    }
    v
}

/// Self-check 1: the tail SLO at the saturation cell. With `C` closed-loop
/// clients spread uniformly over `S` shards, each op queues behind at
/// most ~`C/S` others on its shard's cache lock; one queued op costs a
/// store operation plus a (possibly remote) lock handoff — comfortably
/// under 4 µs of modelled time. The bound is that queue-theoretic
/// per-client cost times the queue depth, plus 100 µs of slack for the
/// store's cold-miss transient.
fn tail_slo_check(shards_max: usize, clients_max: usize) -> Check<ShardCell> {
    Box::new(move |ms: &[Measurement<ShardCell>]| {
        let saturated = ShardCell {
            shards: shards_max,
            clients: clients_max,
            dist: KeyDist::Uniform,
        };
        let m = find(ms, saturated, LockKind::CBoMcs);
        let slo_ns = (clients_max as u64 / shards_max as u64 + 1) * 4_000 + 100_000;
        let msg = format!(
            "tail SLO at {}sh/{}cl/uniform: p99 {} ns vs bound {} ns (p50 {} ns)",
            shards_max, clients_max, m.lat_p99_ns, slo_ns, m.lat_p50_ns
        );
        verdict(m.lat_p99_ns <= slo_ns, msg)
    })
}

/// Self-check 2: sharding pays at the Zipf-light saturated cell — the
/// widest sharding in the grid buys ≥ 2× the narrowest's throughput
/// (only asserted when the grid spans ≥ 8×, so a narrowed
/// `LBENCH_SHARDS` run skips rather than fails).
fn sharding_speedup_check(
    shards_min: usize,
    shards_max: usize,
    clients_max: usize,
) -> Check<ShardCell> {
    Box::new(move |ms: &[Measurement<ShardCell>]| {
        if shards_max < 8 * shards_min {
            return Ok(format!(
                "sharding speedup skipped (grid spans only {shards_min}..{shards_max} shards)"
            ));
        }
        let at = |shards| ShardCell {
            shards,
            clients: clients_max,
            dist: ZIPF_LIGHT,
        };
        let wide = find(ms, at(shards_max), LockKind::CBoMcs);
        let narrow = find(ms, at(shards_min), LockKind::CBoMcs);
        let ratio = wide.throughput / narrow.throughput.max(1.0);
        let msg = format!(
            "sharding speedup at {}cl/{}: {} shards vs {}: {ratio:.2}x \
             ({:.0} vs {:.0} ops/s)",
            clients_max,
            ZIPF_LIGHT.label(),
            shards_max,
            shards_min,
            wide.throughput,
            narrow.throughput
        );
        verdict(ratio >= 2.0, msg)
    })
}

pub fn run() -> bool {
    let grid = cells();
    let shards = usize_list("LBENCH_SHARDS", &[1, 2, 4, 8]);
    let clients = usize_list("LBENCH_SHARD_CLIENTS", &[64, 512, 2048]);
    let shards_min = shards.iter().copied().min().expect("non-empty knob list");
    let shards_max = shards.iter().copied().max().expect("non-empty knob list");
    let clients_max = clients.iter().copied().max().expect("non-empty knob list");
    run_exhibit(&Exhibit {
        banner: format!(
            "fig_shards: {} cells ({:?} shards x {:?} clients x {} dists), modelled",
            grid.len(),
            shards,
            clients,
            DISTS.len()
        ),
        locks: vec![
            AnyLockKind::Excl(LockKind::CBoMcs),
            AnyLockKind::Rw(RwLockKind::CRwWpBoMcs),
        ],
        grid,
        measure: Box::new(|cell: &ShardCell| {
            let w = workload(cell);
            let cost = w.cost;
            (w.scenario().modelled(cost), w.lbench_config())
        }),
        unit: "ops/s",
        tables: vec![
            throughput_table("Exhibit Shards: throughput (ops/s) by shards x clients x key dist"),
            TableSpec {
                csv: Some("fig_shards".into()),
                text: false,
                build: long_table(
                    schema::FIG_SHARDS_HEADER,
                    |m: &Measurement<ShardCell>, column| match column {
                        "shards" => Cell::Int(m.cell.shards as u64),
                        "clients" => Cell::Int(m.cell.clients as u64),
                        "dist" => Cell::text(m.cell.dist.label()),
                        "clusters" => Cell::Int(clusters() as u64),
                        _ => no_cell_columns(m, column),
                    },
                ),
            },
        ],
        checks: vec![
            tail_slo_check(shards_max, clients_max),
            sharding_speedup_check(shards_min, shards_max, clients_max),
        ],
        epilogue: None,
    })
}
