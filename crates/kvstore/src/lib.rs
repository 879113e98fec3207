//! A memcached-style key-value store with a single **cache lock** —
//! the substrate behind Table 1 of the paper.
//!
//! The paper evaluates lock cohorting inside memcached 1.4: every
//! operation on the central hash table (and its LRU list) runs under one
//! global `cache_lock`, which is the well-known scalability bottleneck
//! the authors target by interposing their locks under the pthread API.
//!
//! This crate rebuilds that architecture:
//!
//! * [`KvStore`] — chained hash table + intrusive global LRU + eviction,
//!   structured exactly like memcached's `assoc`/`items` pair. The store
//!   itself is single-threaded-by-contract (it must be called under the
//!   cache lock) and charges every metadata touch to the
//!   [`coherence-sim`](coherence_sim) directory, so the NUMA cost of each
//!   operation depends on *which cluster touched the structures last* —
//!   the effect cohort locks exploit.
//! * [`SharedKvStore`] — the store behind an injected
//!   [`BenchRwLock`](lbench::BenchRwLock), mirroring the paper's
//!   interpose library (the application code is oblivious to which lock
//!   it runs under).
//! * [`ShardedKvStore`] — the production-scale layer: N independent
//!   [`SharedKvStore`] shards behind a key hash, each with its own cache
//!   lock, directory, and handoff channel; [`KvServiceFactory`] plugs
//!   the whole thing into the scenario engine's keyed-op dimension.
//! * [`workload`] — a memaslap-style driver: configurable get/set mix
//!   and key distribution over the keyspace, now a thin wrapper that
//!   builds a keyed [`Scenario`](lbench::Scenario) and calls
//!   [`run_scenario`](lbench::run_scenario); the Table 1 binary
//!   normalizes its numbers into speedups.

#![warn(missing_docs)]

mod sharded;
mod shared;
mod store;
pub mod workload;

pub use sharded::{KvServiceFactory, ShardLockSpec, ShardedKvStore};
pub use shared::SharedKvStore;
pub use store::{KvConfig, KvStats, KvStore};
