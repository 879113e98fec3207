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
//!   cache lock) and reports every metadata line it touches to its
//!   pricing sink, a type parameter
//!   ([`coherence_sim::Pricing`]). Priced by the coherence directory, the
//!   NUMA cost of each operation depends on *which cluster touched the
//!   structures last* — the effect cohort locks exploit; on the free
//!   sink the store is the data structure alone.
//! * [`SharedKvStore`] — the store behind an injected
//!   [`BenchRwLock`](lbench::BenchRwLock), mirroring the paper's
//!   interpose library (the application code is oblivious to which lock
//!   it runs under).
//! * [`ShardedKvStore`] — the production-scale layer: N independent
//!   [`SharedKvStore`] shards behind a key hash, each with its own cache
//!   lock. [`KvServiceFactory`] plugs a priced one (a directory and a
//!   handoff channel per shard) into the scenario engine's keyed-op
//!   dimension, so engine runs charge the model; the default instance
//!   is free, and is what a thread on the wall clock runs.
//!
//! One body serves both prices: nothing in `get`/`set`/`delete`, the LRU,
//! `op` or `warm` is written twice.
//! * [`workload`] — a memaslap-style driver: configurable get/set mix
//!   and key distribution over the keyspace, now a thin wrapper that
//!   builds a keyed [`Scenario`](lbench::Scenario) and calls
//!   [`run_scenario`](lbench::run_scenario); the Table 1 exhibit
//!   normalizes its numbers into speedups.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

mod sharded;
mod shared;
mod store;
pub mod workload;

pub use sharded::{KvServiceFactory, ShardLockSpec, ShardedKvStore};
pub use shared::SharedKvStore;
pub use store::{KvConfig, KvStats, KvStore};
