//! NUMA topology abstraction for the lock-cohorting suite.
//!
//! The lock cohorting transformation (Dice, Marathe, Shavit, PPoPP 2012)
//! needs exactly one piece of platform information: *which NUMA cluster is
//! the current thread running on?* On the paper's Oracle T5440 testbed a
//! cluster is one Niagara T2+ socket (4 sockets, 64 hardware threads each).
//!
//! This crate provides that information in three ways:
//!
//! 1. **Virtual clusters** (the default in this repository): threads are
//!    assigned round-robin to `n` virtual clusters when they first ask for
//!    their cluster id. This reproduces the paper's 4-cluster geometry on
//!    any machine, including single-CPU CI containers. The accompanying
//!    `coherence-sim` crate charges local/remote latencies according to
//!    these virtual clusters.
//! 2. **Explicit placement**: a benchmark harness can call
//!    [`bind_current_thread`] to place threads deterministically (e.g.
//!    blocked placement: threads 0..63 on cluster 0, like taskset on the
//!    real machine).
//! 3. **Measured topology** (Linux): the [`probe`] module bounces a
//!    `CachePadded` cache line between every pair of CPUs (CAS ping-pong
//!    or read/write flag cells, threads pinned via
//!    [`affinity::pin_to_cpus`]) to measure the core-to-core latency
//!    matrix, and [`measured`] clusters the matrix at its largest latency
//!    gap into a per-cluster CPU map ([`MeasuredTopology`]) that workers
//!    can pin to. Affinity syscalls use a single `extern "C"`
//!    declaration instead of a `libc` dependency (see the `shims/` row
//!    of docs/ARCHITECTURE.md's "Crate map").
//!
//! The crate also hosts the **virtual clock** ([`vclock`]) used by the
//! benchmark harness to measure time in a hardware-independent way.

#![warn(missing_docs)]

pub mod affinity;
mod cluster;
pub mod detect;
pub mod measured;
pub mod probe;
pub mod vclock;

pub use affinity::AffinityError;
pub use cluster::{
    bind_current_thread, current_cluster, current_cluster_in, global_topology,
    reset_thread_binding, ClusterId, Topology,
};
pub use measured::MeasuredTopology;
pub use probe::{LatencyMatrix, ProbeConfig, ProbeError, ProbeMode};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn round_robin_assignment_covers_all_clusters() {
        let topo = Arc::new(Topology::new(4));
        let mut seen = vec![0usize; 4];
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = Arc::clone(&topo);
                std::thread::spawn(move || current_cluster_in(&t).as_usize())
            })
            .collect();
        for h in handles {
            seen[h.join().unwrap()] += 1;
        }
        // 8 threads over 4 clusters round-robin: every cluster seen exactly twice.
        assert_eq!(seen, vec![2, 2, 2, 2]);
    }

    #[test]
    fn binding_is_sticky_within_a_thread() {
        let topo = Topology::new(4);
        bind_current_thread(&topo, ClusterId::new(2));
        assert_eq!(current_cluster_in(&topo), ClusterId::new(2));
        assert_eq!(current_cluster_in(&topo), ClusterId::new(2));
        reset_thread_binding();
    }

    #[test]
    fn topology_reports_cluster_count() {
        let topo = Topology::new(7);
        assert_eq!(topo.clusters(), 7);
        assert_eq!(topo.cluster_ids().count(), 7);
    }
}
