//! Table 1: memcached-style key-value store scalability — speedup over
//! the 1-thread pthread run, for read-heavy (90% get), mixed (50%) and
//! write-heavy (10% get) mixes.
//!
//! Paper shape: read-heavy — every decent lock plateaus around the same
//! Amdahl ceiling; write-heavy — NUMA-aware locks out-scale the oblivious
//! ones by ≥20%, with untuned HBO and C-BO-BO lagging everywhere.
//!
//! One [`Exhibit`] per mix: the [`KvWorkload`] translates into a keyed
//! scenario (the kvstore service factory behind the engine's one
//! measurement loop), so this binary shares every line of measurement
//! machinery with the synthetic exhibits. The `kv_scenario_parity` test
//! pins that these cells reproduce the retired hand-rolled driver's
//! numbers exactly.

use cohort_bench::{
    clusters, knob_or_die, measure_cell, metric_table, run_exhibit, thread_grid, window_ns,
    Exhibit, TableSpec,
};
use cohort_kvstore::workload::KvWorkload;
use lbench::env::{env_bool, env_policy};
use lbench::{AnyLockKind, LockKind, PolicySpec};
use std::time::Duration;

fn workload(get_pct: u32, threads: usize, policy: Option<PolicySpec>, rw: bool) -> KvWorkload {
    KvWorkload {
        get_pct,
        threads,
        clusters: clusters(),
        window_ns: window_ns(),
        max_wall: Duration::from_secs(30),
        policy,
        rw,
        ..Default::default()
    }
}

fn main() {
    let grid: Vec<usize> = thread_grid().into_iter().filter(|&t| t <= 128).collect();
    // KV_POLICY selects the cache lock's handoff policy for the cohort
    // columns (PolicySpec::parse syntax, e.g. "count:16", "time:50000",
    // "adaptive"); unset = the paper's count(64). A malformed value
    // aborts with an error naming the knob.
    let policy = knob_or_die(env_policy("KV_POLICY"));
    if let Some(p) = policy {
        eprintln!("table1: cache-lock policy {p}");
    }
    // KV_RW=1 runs the cache lock in reader-writer mode: cohort columns
    // become their C-RW equivalents (gets on the shared side, via the
    // LRU-free peek), pthread becomes std::sync::RwLock, and the
    // remaining columns keep exclusive reads. `KV_RW=yes` (or any other
    // unrecognized spelling) aborts instead of being silently ignored.
    let rw = knob_or_die(env_bool("KV_RW"));
    if rw {
        eprintln!("table1: KV_RW=1 — gets routed through the shared read path");
    }
    for &(get_pct, label) in &[
        (90u32, "90% gets / 10% sets"),
        (50, "50/50"),
        (10, "10% gets / 90% sets"),
    ] {
        // Baseline: pthread at 1 thread.
        let w = workload(get_pct, 1, policy, rw);
        let base = measure_cell(LockKind::Pthread.into(), (w.scenario(), w.lbench_config()));
        let base_thr = base.throughput.max(1.0);
        let policy_note = policy
            .map(|p| format!(", cohort policy {p}"))
            .unwrap_or_default();
        let rw_note = if rw { ", RW cache lock" } else { "" };
        let suffix = if rw { "_rw" } else { "" };
        let ok = run_exhibit(&Exhibit {
            name: "table1",
            banner: format!("table1: mix {label}"),
            locks: AnyLockKind::excl(&LockKind::TABLES),
            grid: grid.clone(),
            measure: Box::new(move |&threads| {
                let w = workload(get_pct, threads, policy, rw);
                (w.scenario(), w.lbench_config())
            }),
            unit: "ops/s",
            tables: vec![TableSpec {
                csv: Some(format!("table1_get{get_pct}{suffix}")),
                text: true,
                build: metric_table(
                    format!(
                        "Table 1 ({label}{policy_note}{rw_note}): speedup over 1-thread pthread"
                    ),
                    "threads",
                    2,
                    move |r| r.throughput / base_thr,
                ),
            }],
            checks: vec![],
            epilogue: None,
        });
        assert!(ok, "table1 declares no checks");
    }
}
