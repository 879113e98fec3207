//! `kv_zipf_get90`: the sharded KV store under a skewed 90/10 get/set
//! mix from two clusters — the application the paper interposes on.

use super::lock::{bind_worker, CLUSTERS};
use super::run_threaded;
use crate::driver::{Body, Padded};
use crate::spec::Emitter;
use crate::trace::Recorder;
use crate::{Args, Verdict};
use coherence_sim::CostModel;
use cohort_kvstore::{KvConfig, KvStats, ShardLockSpec, ShardedKvStore};
use lbench::{KeyDist, LockKind};
use numa_topology::{ClusterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub const SHARDS: usize = 4;
pub const KEYSPACE: u64 = 1_000_000;
/// Per shard; at least the keyspace, so nothing is ever evicted and
/// every get must hit.
pub const STORE: KvConfig = KvConfig {
    buckets: 1 << 20,
    capacity: 1 << 20,
    value_lines: 2,
    op_compute_ns: 120,
};
pub const ZIPF_THETA: f64 = 0.99;
/// Operations per timing sample (~0.1 ms per worker, as in the lock
/// workloads).
pub const BATCH: u32 = 128;

/// Operations per worker tape. The tape is replayed from its start when
/// it runs out (about once a second), which repeats inputs, not state:
/// the store keeps what earlier sets wrote.
const TAPE_LEN: usize = 1 << 20;
const SET_BIT: u32 = 1 << 31;

/// The key of a tape word.
pub fn key_of(word: u32) -> u64 {
    u64::from(word & !SET_BIT)
}

/// One worker's pre-drawn operations: key in the low bits, [`SET_BIT`]
/// for a set. Drawn before anything is timed, so the store receives
/// only the generated inputs and the measured loop holds no sampler.
pub fn tape(seed: u64, tid: usize, get_pct: u32) -> Vec<u32> {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let dist = KeyDist::Zipfian { theta: ZIPF_THETA };
    (0..TAPE_LEN)
        .map(|_| {
            let key = dist.sample(&mut rng, KEYSPACE) as u32;
            if rng.gen_range(0u32..100) < get_pct {
                key
            } else {
                key | SET_BIT
            }
        })
        .collect()
}

/// Builds the store of this workload, with `lock` on each shard, over a
/// fresh four-cluster topology. Not yet preloaded.
pub fn build_store(lock: ShardLockSpec) -> (Arc<Topology>, ShardedKvStore) {
    let topo = Arc::new(Topology::new(CLUSTERS));
    let store = ShardedKvStore::build(SHARDS, lock, &topo, None, STORE, CostModel::t5440());
    (topo, store)
}

/// Workers replaying their tapes against one store.
pub struct KvBody {
    store: ShardedKvStore,
    /// The topology the shard locks look their caller's cluster up in.
    topo: Arc<Topology>,
    tapes: Arc<Vec<Vec<u32>>>,
    clusters: Vec<u32>,
    /// The store's counters after the preload, before any measured op.
    before: KvStats,
    /// `[gets, sets]` issued by each worker.
    issued: Vec<Padded<[AtomicU64; 2]>>,
    never_stop: AtomicBool,
}

pub struct KvLocal {
    tid: usize,
    cluster: ClusterId,
    cursor: usize,
}

impl KvBody {
    /// Workers `0..clusters.len()` replaying `tapes` against a preloaded
    /// store from [`build_store`].
    pub fn new(
        (topo, store): (Arc<Topology>, ShardedKvStore),
        tapes: Arc<Vec<Vec<u32>>>,
        clusters: &[u32],
    ) -> KvBody {
        KvBody {
            before: store.stats(),
            store,
            topo,
            issued: tapes.iter().map(|_| Padded::default()).collect(),
            tapes,
            clusters: clusters.to_vec(),
            never_stop: AtomicBool::new(false),
        }
    }

    /// Gives the store back, for another set of tapes.
    pub fn into_store(self) -> (Arc<Topology>, ShardedKvStore) {
        (self.topo, self.store)
    }

    #[inline]
    fn next(&self, l: &mut KvLocal) -> (u64, bool, u64) {
        let tape = &self.tapes[l.tid];
        let word = tape[l.cursor % tape.len()];
        l.cursor += 1;
        let is_get = word & SET_BIT == 0;
        let n = &self.issued[l.tid].0[usize::from(!is_get)];
        n.store(n.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        (key_of(word), is_get, l.cursor as u64)
    }

    #[inline]
    fn call(&self, (key, is_get, stamp): (u64, bool, u64), cluster: ClusterId) {
        // No pacing (kappa 0) and no virtual window: the wall clock is
        // the only clock this workload reports.
        self.store
            .op(key, is_get, stamp, cluster, 0, u64::MAX, &self.never_stop);
    }

    /// Every get issued is a hit or a miss, every set an update or an
    /// insert, and — capacity covering the keyspace — a miss is a
    /// failure.
    pub fn verdict(&self, pinned: bool) -> Verdict {
        let after = self.store.stats();
        let sum = |i: usize| -> u64 {
            self.issued
                .iter()
                .map(|n| n.0[i].load(Ordering::Relaxed))
                .sum()
        };
        let (gets, sets) = (sum(0), sum(1));
        let misses = after.misses - self.before.misses;
        let answered = after.hits - self.before.hits + misses;
        let stored = after.updates - self.before.updates + after.inserts - self.before.inserts;
        println!(
            "kv check: gets {gets} answered {answered} (misses {misses}), sets {sets} stored {stored}"
        );
        Verdict {
            attempted: gets + sets,
            failed: misses + gets.abs_diff(answered) + sets.abs_diff(stored),
            pinned,
        }
    }
}

impl Body for KvBody {
    type Local = KvLocal;

    fn local(&self, tid: usize) -> KvLocal {
        // The binding picks the cohort each shard lock queues this
        // worker on; the cluster passed to `op` is what the directory
        // charges. Both are the worker's one virtual cluster.
        bind_worker(&self.topo, &self.clusters, tid);
        KvLocal {
            tid,
            cluster: ClusterId::new(self.clusters[tid]),
            cursor: 0,
        }
    }

    #[inline]
    fn op(&self, l: &mut KvLocal) {
        let next = self.next(l);
        self.call(next, l.cluster);
    }

    fn op_traced(&self, l: &mut KvLocal, rec: &mut Recorder) {
        let next = self.next(l);
        rec.op("bench.kv_op", |op| {
            op.span("cohort_kvstore.ShardedKvStore.op", || {
                self.call(next, l.cluster)
            })
        })
    }
}

/// Runs `kv_zipf_get90`: two workers on virtual clusters 0 and 1.
pub fn run(args: &Args, em: &mut Emitter) -> Result<Verdict, String> {
    let clusters = [0, 1];
    let tapes = Arc::new(
        (0..clusters.len())
            .map(|tid| tape(args.seed, tid, 90))
            .collect::<Vec<_>>(),
    );
    let setup = || {
        let built = build_store(ShardLockSpec::Excl(LockKind::CBoMcs));
        built.1.warm(KEYSPACE);
        KvBody::new(built, Arc::clone(&tapes), &clusters)
    };
    let (body, _, pinned) = run_threaded(args, em, clusters.len(), BATCH, 5, setup, |_| true)?;
    Ok(body.verdict(pinned))
}
