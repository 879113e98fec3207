//! A cache-coherence *cost model* standing in for NUMA hardware.
//!
//! The paper's evaluation ran on an Oracle T5440: 4 sockets, one shared L2
//! per socket, where a remote-L2 access is roughly **4× slower** than a
//! local-L2 access (paper §4.1.2). Every throughput and miss-rate result in
//! the paper is a consequence of how often a lock's admission order forces
//! cache lines — the lock words and the data written inside the critical
//! section — to move between sockets.
//!
//! This crate reproduces that mechanism in software:
//!
//! * A [`Directory`] tracks, per simulated cache line, a MESI-flavoured
//!   state: which cluster holds the line modified, or which set of clusters
//!   share it. Each access charges the calling thread's
//!   [virtual clock](numa_topology::vclock) a local or remote latency and
//!   counts coherence misses — the exact quantity Figure 3 of the paper
//!   plots ("local L2 misses fulfilled by a remote L2").
//! * A [`HandoffChannel`] models the lock-word transfer at lock handoff:
//!   the releaser publishes its virtual timestamp and cluster while still
//!   holding the lock; the next acquirer raises its clock to
//!   `max(own, release_ts + handoff_latency)`, with the latency chosen by
//!   whether the lock **migrated** between clusters. It also keeps the
//!   migration count and the distribution of *batch lengths* (consecutive
//!   same-cluster acquisitions) that §4.1.2 discusses.
//! * [`Pricing`] makes that charging a type parameter of the data
//!   structures built on it (the KV store): `Arc<Directory>` prices every
//!   line, compute step and lock round as above, while the zero-sized
//!   [`Free`] prices nothing, so a structure run on the wall clock carries
//!   no simulator at all.
//!
//! Why this substitution is faithful: lock algorithms run unmodified (real
//! atomics, real interleavings); only the *cost* of their decisions is
//! modelled. A NUMA-oblivious lock interleaves clusters and pays remote
//! charges nearly every handoff; a cohort lock forms long local batches and
//! pays mostly local charges — the same causal chain the paper measures.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

mod directory;
mod handoff;
mod model;
mod pricing;
mod stats;

pub use directory::{Directory, LineState, MAX_DIR_CLUSTERS};
pub use handoff::{AcquireInfo, BatchHistogram, HandoffChannel};
pub use model::CostModel;
pub use pricing::{Free, Pricing};
pub use stats::{take_thread_stats, thread_stats, ThreadStats};
