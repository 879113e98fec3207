//! The mmicro benchmark (Dice & Garthwaite '02), §4.3 / Table 2.
//!
//! Per thread: `malloc(64)` → initialize the first 4 words → ~4 µs delay →
//! `free` → ~4 µs delay, all against the single-lock allocator. Reported
//! metric: aggregate malloc-free pairs per millisecond.
//!
//! Note where the coherence charges land: allocator *metadata* (splay
//! nodes, list heads) is charged inside the critical sections, while the
//! application's *block initialization* is charged outside the lock — the
//! paper's §4.3 point is that cohort locks improve locality for **both**,
//! because block recycling follows the lock's admission order.
//!
//! Like the kvstore driver, this module is now a **thin wrapper over the
//! scenario engine**: the whole malloc→init→delay→free→delay pair is a
//! [`KeyedService`] op (keyspace 0 — the allocator is keyless, so the
//! engine draws no key and no read/write coin, preserving the legacy
//! driver's RNG stream of exactly two delay draws per pair), and
//! [`MmicroWorkload::run`] is one `run_scenario` call. The
//! `kv_scenario_parity` integration test pins that the engine reproduces
//! the legacy numbers.

use crate::allocator::{MiniAlloc, MiniAllocConfig};
use coherence_sim::{CostModel, Directory, HandoffChannel};
use lbench::pace::spin_wall;
use lbench::{
    run_scenario, AnyLockKind, BenchRwLock, KeyDist, KeyedCtx, KeyedOp, KeyedService,
    KeyedServiceFactory, KeyedSpec, LBenchConfig, LockKind, LockReport, Scenario, ScenarioResult,
};
use numa_topology::{vclock, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::UnsafeCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The legacy driver's per-thread RNG seed base (`0x6D6D` — "mm").
const MM_SEED: u64 = 0x6D6D;

/// mmicro parameters.
#[derive(Clone, Debug)]
pub struct MmicroWorkload {
    /// Worker threads (the paper sweeps 1–255).
    pub threads: usize,
    /// NUMA clusters.
    pub clusters: usize,
    /// Allocation size (the paper uses 64 bytes, which bypasses the small
    /// lists and exercises the splay tree).
    ///
    /// Keep it a multiple of 64: blocks are then whole cache lines, and
    /// the thread initialising a block outside the lock is the only one
    /// touching its line, which the plain-store [`Directory::write`]
    /// relies on. At any other size a block's first line is also a
    /// neighbour's, the allocator may write it under the lock at the same
    /// moment, and one of the two transitions is lost from the cost books
    /// (nothing worse).
    pub alloc_size: u64,
    /// Words written into each fresh block (the paper writes 4).
    pub init_words: usize,
    /// Upper bound of the uniform random delay after malloc and after
    /// free (the paper: "about 4 microseconds").
    pub delay_max_ns: u64,
    /// Virtual measurement window.
    pub window_ns: u64,
    /// Allocator geometry.
    pub alloc: MiniAllocConfig,
    /// Latency model.
    pub cost: CostModel,
    /// Wall-clock safety net.
    pub max_wall: Duration,
}

impl Default for MmicroWorkload {
    fn default() -> Self {
        MmicroWorkload {
            threads: 4,
            clusters: 4,
            alloc_size: 64,
            init_words: 4,
            delay_max_ns: 4_000,
            window_ns: 10_000_000,
            alloc: MiniAllocConfig::default(),
            cost: CostModel::t5440(),
            max_wall: Duration::from_secs(60),
        }
    }
}

impl MmicroWorkload {
    /// The keyed [`Scenario`] this workload describes: keyless
    /// (keyspace 0), write-only (`read_pct` 0 — no coin draw), no
    /// engine-side parse advance (the pair's delays live inside the op).
    pub fn scenario(&self) -> Scenario {
        Scenario::steady().with_keyed(KeyedSpec {
            keyspace: 0,
            dist: KeyDist::Uniform,
            parse_ns: 0,
            seed: MM_SEED,
            factory: Arc::new(MmicroServiceFactory {
                alloc_size: self.alloc_size,
                init_words: self.init_words,
                delay_max_ns: self.delay_max_ns,
                alloc: self.alloc,
                cost: self.cost,
            }),
        })
    }

    /// The engine config this workload describes.
    pub fn lbench_config(&self) -> LBenchConfig {
        LBenchConfig {
            threads: self.threads,
            clusters: self.clusters,
            window_ns: self.window_ns,
            max_wall: self.max_wall,
            cost: self.cost,
            ..Default::default()
        }
    }

    /// Runs mmicro with `kind` guarding the allocator; `total_ops` is
    /// the malloc-free pairs completed (Table 2's metric is pairs per
    /// millisecond of the window).
    pub fn run(&self, kind: LockKind) -> ScenarioResult {
        run_scenario(
            AnyLockKind::Excl(kind),
            &self.scenario(),
            &self.lbench_config(),
        )
    }
}

struct SharedAlloc {
    lock: Arc<dyn BenchRwLock>,
    inner: UnsafeCell<MiniAlloc>,
}

// SAFETY: inner only accessed under `lock`.
unsafe impl Send for SharedAlloc {}
unsafe impl Sync for SharedAlloc {}

impl SharedAlloc {
    fn with_lock<R>(&self, f: impl FnOnce(&mut MiniAlloc) -> R) -> R {
        self.lock.acquire_write();
        // SAFETY: serialized by the allocator lock.
        let r = f(unsafe { &mut *self.inner.get() });
        self.lock.release_write();
        r
    }
}

/// Builds the [`MmicroService`] — the allocator behind the lock kind the
/// engine sweeps, at the config's policy. mmicro has no shared-read
/// notion: every operation takes the write side.
#[derive(Clone, Debug)]
struct MmicroServiceFactory {
    alloc_size: u64,
    init_words: usize,
    delay_max_ns: u64,
    alloc: MiniAllocConfig,
    cost: CostModel,
}

impl KeyedServiceFactory for MmicroServiceFactory {
    fn build(
        &self,
        kind: AnyLockKind,
        topo: &Arc<Topology>,
        _scenario: &Scenario,
        cfg: &LBenchConfig,
    ) -> Arc<dyn KeyedService> {
        let dir = Arc::new(Directory::new(
            MiniAlloc::lines_needed(&self.alloc),
            self.cost,
        ));
        Arc::new(MmicroService {
            shared: SharedAlloc {
                lock: kind.make(topo, cfg.policy),
                inner: UnsafeCell::new(MiniAlloc::new(self.alloc, Arc::clone(&dir))),
            },
            dir,
            handoff: HandoffChannel::new(self.cost),
            alloc_size: self.alloc_size,
            init_words: self.init_words,
            delay_max_ns: self.delay_max_ns,
        })
    }
}

/// One [`KeyedService`] op = one full malloc→init→delay→free→delay pair,
/// replicating the legacy driver's program exactly: no window check in
/// the malloc critical section (only the free side checks), an
/// arena-exhausted malloc yields and returns `false` (uncounted, no
/// delay draws), and both delays pace uncapped.
struct MmicroService {
    shared: SharedAlloc,
    dir: Arc<Directory>,
    handoff: HandoffChannel,
    alloc_size: u64,
    init_words: usize,
    delay_max_ns: u64,
}

impl KeyedService for MmicroService {
    fn op(&self, _op: &KeyedOp, ctx: &KeyedCtx<'_>, rng: &mut StdRng) -> bool {
        // --- malloc (critical section) ---
        let addr = self.shared.with_lock(|a| {
            self.handoff.on_acquire(ctx.cluster);
            let cs0 = vclock::now();
            let p = a.malloc(self.alloc_size, ctx.cluster);
            let charged = vclock::now().saturating_sub(cs0);
            spin_wall((charged * ctx.kappa).min(100_000), true);
            self.handoff.on_release(ctx.cluster);
            p
        });
        let Some(addr) = addr else {
            // Arena exhausted (should not happen at mmicro sizes): back
            // off and retry.
            std::thread::yield_now();
            return false;
        };

        // --- initialize the block (application, outside the lock): the
        // paper writes the first 4 words. One 64-B block = one line;
        // charge it once per word batch. A plain store in the directory:
        // nobody else touches this line while `alloc_size` is a multiple
        // of 64 (see `MmicroWorkload::alloc_size`).
        self.dir.write((addr / 64) as usize, ctx.cluster);
        vclock::advance(self.init_words as u64 * 2);

        // --- delay after malloc ---
        let d1 = rng.gen_range(0..=self.delay_max_ns);
        vclock::advance(d1);
        spin_wall(d1 * ctx.kappa, true);

        // --- free (critical section) ---
        self.shared.with_lock(|a| {
            self.handoff.on_acquire(ctx.cluster);
            let cs0 = vclock::now();
            a.free(addr, ctx.cluster);
            let charged = vclock::now().saturating_sub(cs0);
            spin_wall((charged * ctx.kappa).min(100_000), true);
            if vclock::now() >= ctx.window_ns {
                ctx.stop.store(true, Ordering::Relaxed);
            }
            self.handoff.on_release(ctx.cluster);
        });

        // --- delay after free ---
        let d2 = rng.gen_range(0..=self.delay_max_ns);
        vclock::advance(d2);
        spin_wall(d2 * ctx.kappa, true);
        true
    }

    fn report(&self) -> LockReport {
        LockReport::of(&self.handoff, &*self.shared.lock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(threads: usize) -> MmicroWorkload {
        MmicroWorkload {
            threads,
            window_ns: 1_500_000,
            ..Default::default()
        }
    }

    #[test]
    fn single_thread_mmicro() {
        let r = quick(1).run(LockKind::Pthread);
        assert!(r.total_ops > 20, "pairs {}", r.total_ops);
        assert_eq!(r.migrations, 0);
    }

    #[test]
    fn multithreaded_mmicro_no_leaks_or_corruption() {
        // The allocator asserts on double-free internally; completing the
        // run already proves serialization worked.
        let r = quick(4).run(LockKind::CMcsMcs);
        assert!(r.total_ops > 50);
        assert!(r.acquisitions >= 2 * r.total_ops - 1);
    }

    #[test]
    fn cohort_lock_keeps_allocator_metadata_local() {
        let mcs = quick(8).run(LockKind::Mcs);
        let cohort = quick(8).run(LockKind::CBoMcs);
        let mcs_rate = mcs.migrations as f64 / mcs.acquisitions.max(1) as f64;
        let cohort_rate = cohort.migrations as f64 / cohort.acquisitions.max(1) as f64;
        assert!(
            cohort_rate < mcs_rate,
            "cohort {cohort_rate:.3} vs mcs {mcs_rate:.3}"
        );
    }
}
