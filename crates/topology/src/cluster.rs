//! Cluster identity and thread-to-cluster placement.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Identifier of one NUMA cluster (one socket / one shared last-level cache
/// domain on the paper's machine).
///
/// Cluster ids are dense: a [`Topology`] with `n` clusters uses ids
/// `0..n`. The id is a plain index so lock implementations can index
/// per-cluster arrays without hashing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(u32);

impl ClusterId {
    /// Creates a cluster id from a dense index.
    pub const fn new(idx: u32) -> Self {
        ClusterId(idx)
    }

    /// Returns the dense index of this cluster, suitable for array indexing.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` index.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cluster#{}", self.0)
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A description of the machine's NUMA geometry as seen by the locks.
///
/// Each `Topology` value is an independent placement domain: it hands out
/// cluster ids to threads (round-robin by default) and remembers, per
/// thread, which cluster the thread belongs to. Typical programs create one
/// `Topology` and share it (`Arc` or `&'static`) between all cohort locks.
///
/// The default cluster count is **4** — the paper's machine had 4 Niagara
/// T2+ sockets.
pub struct Topology {
    clusters: usize,
    /// Round-robin cursor for automatic thread placement.
    next: AtomicUsize,
    /// Unique id of this topology instance; lets the thread-local binding
    /// cache detect when it is asked about a *different* topology.
    epoch: u64,
}

static TOPOLOGY_EPOCH: AtomicU64 = AtomicU64::new(1);

impl Topology {
    /// Creates a topology with `clusters` NUMA clusters.
    ///
    /// # Panics
    ///
    /// Panics if `clusters == 0` or `clusters > MAX_CLUSTERS` (64).
    pub fn new(clusters: usize) -> Self {
        assert!(clusters > 0, "a topology needs at least one cluster");
        assert!(
            clusters <= Self::MAX_CLUSTERS,
            "at most {} clusters supported",
            Self::MAX_CLUSTERS
        );
        Topology {
            clusters,
            next: AtomicUsize::new(0),
            epoch: TOPOLOGY_EPOCH.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Upper bound on the number of clusters (sharer bitmasks in the
    /// coherence model are 64-bit).
    pub const MAX_CLUSTERS: usize = 64;

    /// Number of clusters in this topology.
    #[inline]
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Iterates over all cluster ids of this topology.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.clusters as u32).map(ClusterId::new)
    }

    /// Hands out the next cluster in round-robin order. Used for automatic
    /// placement of threads that never called [`bind_current_thread`].
    fn assign(&self) -> ClusterId {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        ClusterId::new((n % self.clusters) as u32)
    }
}

impl fmt::Debug for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("clusters", &self.clusters)
            .finish()
    }
}

impl Default for Topology {
    /// Four virtual clusters, the paper's machine.
    fn default() -> Self {
        Self::new(4)
    }
}

static GLOBAL: std::sync::OnceLock<std::sync::Arc<Topology>> = std::sync::OnceLock::new();

/// The process-wide default topology: [`Topology::default`]'s four clusters.
///
/// Locks constructed with `Default::default()` share this instance, so a
/// program that never mentions topologies still gets coherent placement.
pub fn global_topology() -> std::sync::Arc<Topology> {
    GLOBAL
        .get_or_init(|| std::sync::Arc::new(Topology::default()))
        .clone()
}

thread_local! {
    /// Cached (topology-epoch, cluster) binding of the current thread.
    static BINDING: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
}

/// Returns the cluster of the calling thread within `topo`, assigning one
/// round-robin on first use.
///
/// This is the hot-path query every cohort-lock acquisition performs; it is
/// a thread-local read after the first call.
#[inline]
pub fn current_cluster_in(topo: &Topology) -> ClusterId {
    BINDING.with(|b| {
        let (epoch, cluster) = b.get();
        if epoch == topo.epoch {
            ClusterId::new(cluster)
        } else {
            let c = topo.assign();
            b.set((topo.epoch, c.as_u32()));
            c
        }
    })
}

/// Convenience alias of [`current_cluster_in`] (kept for API symmetry with
/// single-topology programs).
#[inline]
pub fn current_cluster(topo: &Topology) -> ClusterId {
    current_cluster_in(topo)
}

/// Explicitly binds the calling thread to `cluster` within `topo`.
///
/// Benchmark harnesses use this for *blocked* placement (fill one cluster
/// before the next, as when pinning threads socket-by-socket on the real
/// machine) or to model migration.
///
/// # Panics
///
/// Panics if `cluster` is out of range for `topo`.
pub fn bind_current_thread(topo: &Topology, cluster: ClusterId) {
    assert!(
        cluster.as_usize() < topo.clusters(),
        "cluster {:?} out of range for {:?}",
        cluster,
        topo
    );
    BINDING.with(|b| b.set((topo.epoch, cluster.as_u32())));
}

/// Clears the calling thread's cached binding (next query re-assigns).
/// Mostly useful in tests that reuse one thread across topologies.
pub fn reset_thread_binding() {
    BINDING.with(|b| b.set((0, 0)));
}
