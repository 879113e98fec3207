//! The per-layer cells of the traced run: one small measurement per
//! public entry point, named `<crate>.<thing>.<metric>`, so a change in
//! an end-to-end number can be traced to the crate that moved it.
//!
//! `README.md` lists, for every cell, which end-to-end metric on which
//! workload it should move. Cells run one after another on the same
//! pinned CPUs as the workloads; every lock cell also checks the
//! counter its lock protects.

use crate::driver::{with_pool, Body, FnBody, Outcome, Plan};
use crate::spec::Emitter;
use crate::trace;
use crate::workloads::des::cell_config;
use crate::workloads::kv::{self, KvBody};
use crate::workloads::lock::{
    bind_worker, CriticalSection, WriteLock, BATCH_CONTENDED, BATCH_UNCONTENDED, CLUSTERS,
};
use crate::workloads::require_cpus;
use crate::{host, Args, Verdict};
use base_locks::{McsLock, RawLock};
use coherence_sim::{CostModel, Directory, HandoffChannel};
use cohort_alloc::{MiniAlloc, MiniAllocConfig};
use cohort_kvstore::workload::KvWorkload;
use cohort_kvstore::{KvConfig, KvStore, ShardLockSpec, SharedKvStore};
use lbench::{
    run_scenario, AnyLockKind, KeyDist, LBenchConfig, LockKind, PolicySpec, RwLockKind, Scenario,
    TimeMode,
};
use numa_topology::probe::{probe_pair, ProbeConfig};
use numa_topology::{current_cluster, ClusterId, Topology};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const C0: ClusterId = ClusterId::new(0);
const C1: ClusterId = ClusterId::new(1);

/// Kinds whose two-thread cell also reports its handover share: the
/// queue locks hand over on nearly every release, a hogging lock
/// (TATAS) rarely does, and `sat2_ns` reads as a handover cost only
/// where the share is high.
const HANDOVER_KINDS: [LockKind; 6] = [
    LockKind::Mcs,
    LockKind::Recip,
    LockKind::Tatas,
    LockKind::CBoMcs,
    LockKind::CRecipMcs,
    LockKind::FisBoMcs,
];

/// The crate a registry kind's algorithm lives in — the layer its cells
/// are booked under.
pub fn crate_of(kind: LockKind) -> &'static str {
    use LockKind::*;
    match kind {
        Pthread => "lbench",
        Tatas | FibBo | Ticket | Mcs | Clh | Recip | AClh => "base_locks",
        Hbo | HboTuned | Hclh | FcMcs | Cna | CnaTight | AHbo => "numa_baselines",
        CBoBo | CTktTkt | CBoMcs | CTktMcs | CMcsMcs | FisBoMcs | FisTktMcs | GcrMcs
        | GcrCBoMcs | GcrFisBoMcs | CRecipMcs | ACBoBo | ACBoClh => "cohort",
    }
}

/// A registry name as a metric-name segment: `HBO (tuned)` → `HBO-tuned`,
/// `CNA (t=4)` → `CNA-t4`.
pub fn slug(name: &str) -> String {
    name.chars()
        .filter_map(|c| match c {
            c if c.is_ascii_alphanumeric() || "_.-".contains(c) => Some(c),
            ' ' => Some('-'),
            _ => None,
        })
        .collect()
}

struct Cells<'a> {
    em: &'a mut Emitter,
    /// Measured time of a one-unit cell.
    unit: Duration,
    seed: u64,
    verdict: Verdict,
}

impl Cells<'_> {
    fn plan(&self, units: f64, batch: u32, traced: bool) -> Plan {
        Plan {
            warm: self.unit.mul_f64(units / 4.0),
            measure: self.unit.mul_f64(units),
            segments: 1,
            batch,
            traced,
        }
    }

    /// Runs `body` on `threads` pinned workers for `units` cell units.
    fn cell<B: Body>(&mut self, body: &B, threads: usize, units: f64, batch: u32) -> Outcome {
        let plan = self.plan(units, batch, false);
        with_pool(body, threads, |pool| {
            self.verdict.pinned &= pool.pinned();
            pool.run(plan)
        })
    }

    /// A cell of two closures: per-worker state, and one operation.
    fn fn_cell<L>(
        &mut self,
        threads: usize,
        units: f64,
        batch: u32,
        init: impl Fn(usize) -> L + Sync,
        op: impl Fn(&mut L) + Sync,
    ) -> Outcome {
        self.cell(&FnBody { init, op }, threads, units, batch)
    }

    /// A write-lock cell on `kind`, worker `i` on virtual cluster
    /// `clusters[i]`; the counter the lock protects is checked.
    fn lock_cell(
        &mut self,
        kind: AnyLockKind,
        policy: Option<PolicySpec>,
        clusters: &[u32],
        units: f64,
    ) -> (Outcome, WriteLock) {
        let body = WriteLock::new(kind, policy, clusters);
        let batch = if clusters.len() == 1 {
            BATCH_UNCONTENDED
        } else {
            BATCH_CONTENDED
        };
        let out = self.cell(&body, clusters.len(), units, batch);
        self.verdict.add(body.verdict(out.ops, true));
        (out, body)
    }
}

/// Runs every per-layer cell and emits its metrics. About `0.8 ×
/// args.seconds` in total.
pub fn run_all(args: &Args, em: &mut Emitter) -> Result<Verdict, String> {
    require_cpus("the traced run's two-thread cells", 2)?;
    // ~130 cell units (warm-ups included) plus ~2 s of fixed-size cells
    // (simulations, store builds, the probe).
    let budget = (args.seconds * 0.8 - 2.0).max(args.seconds * 0.2);
    let mut cx = Cells {
        em,
        unit: Duration::from_secs_f64(budget / 130.0),
        seed: args.seed,
        verdict: Verdict {
            attempted: 0,
            failed: 0,
            pinned: true,
        },
    };
    println!("layer cells: unit {:?}", cx.unit);
    topology_cells(&mut cx, if args.smoke { 4 } else { 32 })?;
    let (dyn_cbomcs, dyn_mcs) = registry_cells(&mut cx);
    cohort_cells(&mut cx, dyn_cbomcs, dyn_mcs);
    engine_cells(&mut cx);
    modelled_cells(&mut cx);
    coherence_cells(&mut cx);
    kvstore_cells(&mut cx);
    alloc_cell(&mut cx);
    let clock = cx.fn_cell(
        1,
        1.0,
        1024,
        |_| (),
        |_| {
            black_box(Instant::now());
            black_box(Instant::now());
        },
    );
    cx.em.emit("bench.clock_pair_ns", clock.percentile(50.0));
    Ok(cx.verdict)
}

/// The hardware floor: one-way cache-line transfer between the two
/// worker CPUs, and the thread-local cluster lookup every cohort acquire
/// starts with.
fn topology_cells(cx: &mut Cells<'_>, samples: usize) -> Result<(), String> {
    let cpus = host::worker_cpus(2);
    let cfg = ProbeConfig {
        samples: 1,
        ..Default::default()
    };
    let mut oneway = (0..samples)
        .map(|_| probe_pair(cpus[0], cpus[1], &cfg).map(|ns| ns as f64))
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| format!("numa_topology.probe: {e}"))?;
    oneway.sort_by(f64::total_cmp);
    cx.em.emit("numa_topology.probe.oneway_min_ns", oneway[0]);
    cx.em.emit(
        "numa_topology.probe.oneway_p50_ns",
        host::percentile(&oneway, 50.0),
    );

    let topo = Topology::new(CLUSTERS);
    let lookup = cx.fn_cell(
        1,
        1.0,
        1024,
        |tid| bind_worker(&topo, &[2], tid),
        |_| {
            black_box(current_cluster(black_box(&topo)));
        },
    );
    cx.em
        .emit("numa_topology.current_cluster_ns", lookup.percentile(50.0));
    Ok(())
}

/// Every kind of the registry through the `dyn` path, alone and with two
/// threads of one cluster. Returns the uncontended p50 of C-BO-MCS and
/// MCS for the adapter-tax cells.
fn registry_cells(cx: &mut Cells<'_>) -> (f64, f64) {
    let mut dyn_p50 = (f64::NAN, f64::NAN);
    for kind in LockKind::ALL {
        let name = format!("{}.{}", crate_of(kind), slug(kind.name()));
        let any = AnyLockKind::Excl(kind);
        let (alone, _) = cx.lock_cell(any, None, &[0], 1.0);
        let p50 = alone.percentile(50.0);
        cx.em.emit(&format!("{name}.uncontended_ns"), p50);
        match kind {
            LockKind::CBoMcs => dyn_p50.0 = p50,
            LockKind::Mcs => dyn_p50.1 = p50,
            _ => {}
        }

        let (pair, body) = cx.lock_cell(any, None, &[0, 0], 1.5);
        cx.em
            .emit(&format!("{name}.sat2_ns"), pair.percentile(50.0));
        if HANDOVER_KINDS.contains(&kind) {
            cx.em
                .emit(&format!("{name}.handover_share"), body.handover_share());
        }
        if kind == LockKind::CBoMcs {
            let stats = body.cohort_stats().expect("C-BO-MCS is a cohort lock");
            cx.em
                .emit("cohort.C-BO-MCS.mean_streak", stats.mean_streak());
            cx.em.emit(
                "cohort.C-BO-MCS.tenures_per_kop",
                stats.tenures() as f64 / (pair.ops as f64 / 1000.0),
            );
        }
    }
    dyn_p50
}

/// The same two locks called directly (generic, no `dyn`), the cohort
/// lock's other paths, the span-timed sides of an operation, and the
/// reader-writer and abortable entry points.
fn cohort_cells(cx: &mut Cells<'_>, dyn_cbomcs: f64, dyn_mcs: f64) {
    fn direct<L: RawLock>(cx: &mut Cells<'_>, lock: L, topo: &Topology) -> f64 {
        let cs = CriticalSection::default();
        let out = cx.fn_cell(
            1,
            1.0,
            BATCH_UNCONTENDED,
            |tid| bind_worker(topo, &[0], tid),
            |me| {
                let token = lock.lock();
                cs.write(*me);
                // SAFETY: `token` is from the `lock` call just above, on
                // this lock, and has not been unlocked.
                unsafe { lock.unlock(token) };
            },
        );
        cx.verdict.attempted += out.ops;
        cx.verdict.failed += out.ops.abs_diff(cs.count());
        out.percentile(50.0)
    }
    let topo = Arc::new(Topology::new(CLUSTERS));
    let cbomcs = direct(cx, cohort::CBoMcs::new(Arc::clone(&topo)), &topo);
    cx.em.emit("cohort.C-BO-MCS.direct_uncontended_ns", cbomcs);
    let mcs = direct(cx, McsLock::new(), &topo);
    cx.em.emit("base_locks.MCS.direct_uncontended_ns", mcs);
    cx.em.emit("lbench.adapter_tax_ns", dyn_cbomcs - cbomcs);
    cx.em.emit("lbench.adapter_tax_mcs_ns", dyn_mcs - mcs);

    let cbomcs = AnyLockKind::Excl(LockKind::CBoMcs);
    let (remote, _) = cx.lock_cell(cbomcs, None, &[0, 1], 1.5);
    cx.em
        .emit("cohort.C-BO-MCS.sat2_remote_ns", remote.percentile(50.0));
    let paper_bound = Some(PolicySpec::Count { bound: 64 });
    let (dynpolicy, _) = cx.lock_cell(cbomcs, paper_bound, &[0, 0], 1.5);
    cx.em.emit(
        "cohort.C-BO-MCS.dynpolicy_sat2_ns",
        dynpolicy.percentile(50.0),
    );

    for (cell, clusters, units) in [("uncontended", &[0][..], 1.0), ("sat2", &[0, 0][..], 1.5)] {
        let body = WriteLock::new(cbomcs, None, clusters);
        let plan = cx.plan(units, BATCH_CONTENDED, true);
        let out = with_pool(&body, clusters.len(), |pool| pool.run(plan));
        cx.verdict.add(body.verdict(out.ops, true));
        let acquire = trace::durations(&out.spans, "lbench.acquire_write");
        let hold = trace::durations(&out.spans, "bench.critical_section");
        let release = trace::durations(&out.spans, "lbench.release_write");
        let prefix = format!("cohort.C-BO-MCS.{cell}");
        for (name, spans, pct) in [
            ("acquire_p50_ns", &acquire, 50.0),
            ("acquire_p99_ns", &acquire, 99.0),
            ("hold_p50_ns", &hold, 50.0),
            ("release_p50_ns", &release, 50.0),
        ] {
            cx.em
                .emit(&format!("{prefix}.{name}"), host::percentile(spans, pct));
        }
    }

    let rw_kind = AnyLockKind::Rw(RwLockKind::CRwWpBoMcs);
    let rw = rw_kind.make(&topo, None);
    let cs = CriticalSection::default();
    for (name, threads) in [("read_uncontended_ns", 1), ("read_sat2_ns", 2)] {
        let out = cx.fn_cell(
            threads,
            1.0,
            BATCH_UNCONTENDED,
            |tid| bind_worker(&topo, &[0, 0], tid),
            |_| {
                rw.acquire_read();
                black_box(cs.read());
                rw.release_read();
            },
        );
        cx.em.emit(
            &format!("cohort.C-RW-WP-BO-MCS.{name}"),
            out.percentile(50.0),
        );
    }
    let (write, _) = cx.lock_cell(rw_kind, None, &[0], 1.0);
    cx.em.emit(
        "cohort.C-RW-WP-BO-MCS.write_uncontended_ns",
        write.percentile(50.0),
    );

    let abortable = AnyLockKind::Excl(LockKind::ACBoClh).make(&topo, None);
    let (cs, timeouts) = (CriticalSection::default(), AtomicU64::new(0));
    let out = cx.fn_cell(
        1,
        1.0,
        BATCH_UNCONTENDED,
        |tid| bind_worker(&topo, &[0], tid),
        |me| {
            if abortable.acquire_write_with_patience(1_000_000) {
                cs.write(*me);
                abortable.release_write();
            } else {
                timeouts.fetch_add(1, Ordering::Relaxed);
            }
        },
    );
    cx.verdict.attempted += out.ops;
    cx.verdict.failed += out.ops.abs_diff(cs.count()) + timeouts.load(Ordering::Relaxed);
    cx.em.emit(
        "cohort.A-C-BO-CLH.patience_uncontended_ns",
        out.percentile(50.0),
    );
}

/// The scenario engine around a lock: host ns per engine iteration in
/// virtual time without pacing, and a two-thread wall-clock cell.
fn engine_cells(cx: &mut Cells<'_>) {
    let kind = AnyLockKind::Excl(LockKind::CBoMcs);
    let virtual_cfg = |window_ns| LBenchConfig {
        threads: 1,
        pace_wall: false,
        window_ns,
        ..Default::default()
    };
    // The window is virtual time; size it from a short run so the cell
    // takes about one unit of host time.
    let pilot = run_scenario(kind, &Scenario::steady(), &virtual_cfg(2_000_000));
    let scale = cx.unit.as_secs_f64() / pilot.wall.as_secs_f64().max(1e-6);
    let window_ns = (2_000_000.0 * scale.max(1.0)) as u64;
    let r = run_scenario(kind, &Scenario::steady(), &virtual_cfg(window_ns));
    cx.em.emit(
        "lbench.scenario.iter_ns",
        r.wall.as_nanos() as f64 / r.total_ops.max(1) as f64,
    );

    let wall = run_scenario(
        kind,
        &Scenario::steady(),
        &LBenchConfig {
            threads: 2,
            clusters: 1,
            noncs_max_ns: 0,
            window_ns: cx.unit.mul_f64(3.0).as_nanos() as u64,
            mode: TimeMode::Wall,
            ..Default::default()
        },
    );
    cx.em.emit(
        "lbench.scenario.wall_cell_ops_per_s",
        wall.total_ops as f64 / wall.wall.as_secs_f64(),
    );
}

/// The modelled substrate: simulated acquisitions per host second for
/// each admission class at 64 and 4096 logical threads, the per-waiter
/// slope between them, and one keyed (sharded KV) cell.
fn modelled_cells(cx: &mut Cells<'_>) {
    let mut cbomcs_ns_per_acq = [0.0; 2];
    for (kind, class) in [
        (LockKind::Mcs, "Fifo"),
        (LockKind::CBoMcs, "ClusterBatched"),
        (LockKind::Recip, "RecipStack"),
    ] {
        for (i, (threads, window_ns)) in [(64, 10_000_000), (4096, 1_000_000)]
            .into_iter()
            .enumerate()
        {
            let (scenario, cfg) = cell_config(threads, window_ns);
            let t0 = Instant::now();
            let r = run_scenario(AnyLockKind::Excl(kind), &scenario, &cfg);
            let host_s = t0.elapsed().as_secs_f64();
            cx.em.emit(
                &format!("lbench.modelled.acq_per_s.{class}.t{threads}"),
                r.acquisitions as f64 / host_s,
            );
            if kind == LockKind::CBoMcs {
                cbomcs_ns_per_acq[i] = host_s * 1e9 / r.acquisitions as f64;
                if threads == 4096 {
                    cx.em.emit(
                        "lbench.modelled.succ_per_acq",
                        r.succ_transitions as f64 / r.acquisitions as f64,
                    );
                }
            }
        }
    }
    cx.em.emit(
        "lbench.modelled.scan_ns_per_waiter",
        (cbomcs_ns_per_acq[1] - cbomcs_ns_per_acq[0]) / (4096.0 - 64.0),
    );

    let keyed = KvWorkload {
        threads: 512,
        shards: 8,
        dist: KeyDist::Zipfian { theta: 0.4 },
        window_ns: 2_000_000,
        ..Default::default()
    };
    let scenario = keyed.scenario().modelled(CostModel::t5440());
    let t0 = Instant::now();
    let r = run_scenario(
        AnyLockKind::Excl(LockKind::CBoMcs),
        &scenario,
        &keyed.lbench_config(),
    );
    cx.em.emit(
        "lbench.keyed.modelled_ops_per_s",
        r.total_ops as f64 / t0.elapsed().as_secs_f64(),
    );
}

/// Bare calls into the coherence model: a line written from alternating
/// clusters (the invalidation path), read from alternating clusters (the
/// shared-hit path), and one acquire/release pair of the handoff channel.
fn coherence_cells(cx: &mut Cells<'_>) {
    let dir = Directory::new(1024, CostModel::t5440());
    let flip = |odd: &mut bool| {
        *odd = !*odd;
        if *odd {
            C1
        } else {
            C0
        }
    };
    let write = cx.fn_cell(
        1,
        1.0,
        1024,
        |_| false,
        |odd| {
            black_box(dir.write(1, flip(odd)));
        },
    );
    cx.em
        .emit("coherence_sim.directory.write_ns", write.percentile(50.0));
    let read = cx.fn_cell(
        1,
        1.0,
        1024,
        |_| false,
        |odd| {
            black_box(dir.read(2, flip(odd)));
        },
    );
    cx.em
        .emit("coherence_sim.directory.read_ns", read.percentile(50.0));
    let handoff = HandoffChannel::new(CostModel::t5440());
    let pair = cx.fn_cell(
        1,
        1.0,
        1024,
        |_| (),
        |_| {
            black_box(handoff.on_acquire(C0));
            handoff.on_release(C0);
        },
    );
    cx.em
        .emit("coherence_sim.handoff.pair_ns", pair.percentile(50.0));
}

/// The KV store from the inside out: the bare table, the table under
/// one lock, and the sharded service of `kv_zipf_get90` — alone, with a
/// write-heavy mix, with a second worker, and under a reader-writer
/// lock.
fn kvstore_cells(cx: &mut Cells<'_>) {
    const KEYS: u64 = 4096;
    let small_store = || {
        let cfg = KvConfig::default();
        let dir = Arc::new(Directory::new(
            KvStore::lines_needed(&cfg),
            CostModel::t5440(),
        ));
        let mut store = KvStore::new(cfg, dir);
        for k in 0..KEYS {
            store.set(k, k, C0);
        }
        store
    };
    let get = cx.fn_cell(
        1,
        1.0,
        256,
        |_| (small_store(), 0u64),
        |(store, k)| {
            *k = (*k + 1) % KEYS;
            black_box(store.get(*k, C0));
        },
    );
    cx.em
        .emit("cohort_kvstore.store.get_hit_ns", get.percentile(50.0));
    let set = cx.fn_cell(
        1,
        1.0,
        256,
        |_| (small_store(), 0u64),
        |(store, k)| {
            *k = (*k + 1) % KEYS;
            store.set(*k, *k, C0);
        },
    );
    cx.em
        .emit("cohort_kvstore.store.set_update_ns", set.percentile(50.0));

    let topo = Arc::new(Topology::new(CLUSTERS));
    let shared = SharedKvStore::new(LockKind::CBoMcs.make(&topo), small_store());
    let shared_get = cx.fn_cell(
        1,
        1.0,
        256,
        |tid| bind_worker(&topo, &[0], tid),
        |k| {
            *k = (*k + 1) % KEYS;
            black_box(shared.get(*k, C0));
        },
    );
    cx.em
        .emit("cohort_kvstore.shared.get_ns", shared_get.percentile(50.0));

    let seed = cx.seed;
    let tapes = |get_pct| -> Arc<Vec<Vec<u32>>> {
        Arc::new((0..2).map(|tid| kv::tape(seed, tid, get_pct)).collect())
    };
    let (get90, get10, get100) = (tapes(90), tapes(10), tapes(100));

    let t0 = Instant::now();
    let built = kv::build_store(ShardLockSpec::Excl(LockKind::CBoMcs));
    let build_s = t0.elapsed().as_secs_f64();
    built.1.warm(kv::KEYSPACE);
    let warm_s = t0.elapsed().as_secs_f64() - build_s;
    cx.em.emit("cohort_kvstore.sharded.build_s", build_s);
    cx.em.emit("cohort_kvstore.sharded.warm_s", warm_s);
    let mut by_shard = vec![0u64; built.1.shard_count()];
    for &word in get90.iter().flatten() {
        by_shard[built.1.shard_of(kv::key_of(word))] += 1;
    }
    cx.em.emit(
        "cohort_kvstore.sharded.hot_shard_share",
        *by_shard.iter().max().expect("at least one shard") as f64
            / by_shard.iter().sum::<u64>() as f64,
    );

    let body = KvBody::new(built, Arc::clone(&get90), &[0, 1]);
    let alone = cx.cell(&body, 1, 1.0, kv::BATCH).percentile(50.0);
    cx.em.emit("cohort_kvstore.sharded.op_1t_ns", alone);
    let pair = cx.cell(&body, 2, 1.5, kv::BATCH).percentile(50.0);
    cx.em
        .emit("cohort_kvstore.sharded.contention_ns", pair - alone);
    cx.verdict.add(body.verdict(true));
    let body = KvBody::new(body.into_store(), get10, &[0]);
    let write_heavy = cx.cell(&body, 1, 1.0, kv::BATCH);
    cx.em.emit(
        "cohort_kvstore.sharded.op_get10_ns",
        write_heavy.percentile(50.0),
    );
    cx.verdict.add(body.verdict(true));
    drop(body);

    let built = kv::build_store(ShardLockSpec::Rw(RwLockKind::CRwWpBoMcs));
    built.1.warm(kv::KEYSPACE);
    let body = KvBody::new(built, get100, &[0]);
    let rw_get = cx.cell(&body, 1, 1.0, kv::BATCH);
    cx.em
        .emit("cohort_kvstore.rw.get_ns", rw_get.percentile(50.0));
    cx.verdict.add(body.verdict(true));
}

/// One malloc/free pair of the bare allocator; its free lists and splay
/// tree must still be consistent when the worker is done.
fn alloc_cell(cx: &mut Cells<'_>) {
    struct Checked<'a>(MiniAlloc, &'a AtomicU64);
    impl Drop for Checked<'_> {
        fn drop(&mut self) {
            if let Err(why) = self.0.check_integrity() {
                eprintln!("cohort_alloc: {why}");
                self.1.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    let broken = AtomicU64::new(0);
    let out = cx.fn_cell(
        1,
        1.0,
        256,
        |_| {
            let cfg = MiniAllocConfig::default();
            let dir = Arc::new(Directory::new(
                MiniAlloc::lines_needed(&cfg),
                CostModel::t5440(),
            ));
            Checked(MiniAlloc::new(cfg, dir), &broken)
        },
        |alloc| match alloc.0.malloc(64, C0) {
            Some(block) => alloc.0.free(block, C0),
            None => {
                alloc.1.fetch_add(1, Ordering::Relaxed);
            }
        },
    );
    cx.verdict.attempted += out.ops;
    cx.verdict.failed += broken.load(Ordering::Relaxed);
    cx.em
        .emit("cohort_alloc.malloc_free_ns", out.percentile(50.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_are_metric_name_segments_and_unique() {
        assert_eq!(slug("HBO (tuned)"), "HBO-tuned");
        assert_eq!(slug("CNA (t=4)"), "CNA-t4");
        let mut names: Vec<String> = LockKind::ALL
            .iter()
            .map(|k| format!("{}.{}", crate_of(*k), slug(k.name())))
            .collect();
        assert!(names.iter().all(|n| n
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), LockKind::ALL.len());
    }
}
