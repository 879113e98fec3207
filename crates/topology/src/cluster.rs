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

/// Where a [`Topology`]'s cluster structure came from.
///
/// The fallback ladder goes `Virtual → Measured → Pinned`: virtual
/// clusters exist on any machine, a measured map additionally reflects
/// real latency structure, and a pinned map additionally asks workers to
/// bind to physical CPUs from their cluster's list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologySource {
    /// Round-robin virtual clusters (env-knob geometry; the default).
    Virtual,
    /// Clusters discovered by the latency probe; carries a CPU map but
    /// workers do not physically bind (useful when only the *geometry*
    /// matters, e.g. for the modelled substrate).
    Measured,
    /// Measured (or explicitly supplied) CPU map **and** workers should
    /// pin themselves to CPUs from their cluster's list.
    Pinned,
}

/// A description of the machine's NUMA geometry as seen by the locks.
///
/// Each `Topology` value is an independent placement domain: it hands out
/// cluster ids to threads (round-robin by default) and remembers, per
/// thread, which cluster the thread belongs to. Typical programs create one
/// `Topology` and share it (`Arc` or `&'static`) between all cohort locks.
///
/// Three construction modes exist, reported by [`Topology::source`]:
/// [`Topology::new`] (virtual clusters), and [`Topology::measured`] /
/// [`Topology::pinned`] (a per-cluster CPU map, typically produced by the
/// latency probe in [`crate::probe`] + [`crate::measured`]).
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
    /// Physical CPU ids per cluster (measured/pinned modes only).
    cpu_map: Option<Vec<Vec<usize>>>,
    /// Provenance of the cluster structure.
    source: TopologySource,
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
            cpu_map: None,
            source: TopologySource::Virtual,
        }
    }

    /// Creates a topology from a per-cluster CPU map (cluster `i` owns
    /// `cpu_map[i]`), with [`TopologySource::Measured`]: the geometry is
    /// real but workers are not asked to bind.
    ///
    /// # Panics
    ///
    /// Panics if the map is empty, has more than [`Self::MAX_CLUSTERS`]
    /// entries, or contains an empty cluster.
    pub fn measured(cpu_map: Vec<Vec<usize>>) -> Self {
        Self::with_cpu_map(cpu_map, TopologySource::Measured)
    }

    /// Like [`Topology::measured`], but with [`TopologySource::Pinned`]:
    /// harness workers additionally pin themselves (via
    /// [`affinity::pin_to_cpus`](crate::affinity::pin_to_cpus)) to a CPU
    /// drawn from their cluster's list.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Topology::measured`].
    pub fn pinned(cpu_map: Vec<Vec<usize>>) -> Self {
        Self::with_cpu_map(cpu_map, TopologySource::Pinned)
    }

    fn with_cpu_map(cpu_map: Vec<Vec<usize>>, source: TopologySource) -> Self {
        assert!(
            matches!(source, TopologySource::Measured | TopologySource::Pinned),
            "virtual topologies carry no CPU map"
        );
        let clusters = cpu_map.len();
        assert!(clusters > 0, "a topology needs at least one cluster");
        assert!(
            clusters <= Self::MAX_CLUSTERS,
            "at most {} clusters supported",
            Self::MAX_CLUSTERS
        );
        assert!(
            cpu_map.iter().all(|c| !c.is_empty()),
            "every cluster needs at least one CPU"
        );
        Topology {
            clusters,
            next: AtomicUsize::new(0),
            epoch: TOPOLOGY_EPOCH.fetch_add(1, Ordering::Relaxed),
            cpu_map: Some(cpu_map),
            source,
        }
    }

    /// Where this topology's cluster structure came from.
    #[inline]
    pub fn source(&self) -> TopologySource {
        self.source
    }

    /// The physical CPUs of `cluster`, when this topology carries a map
    /// (measured/pinned modes); `None` for virtual topologies or
    /// out-of-range clusters.
    pub fn cpus_for(&self, cluster: ClusterId) -> Option<&[usize]> {
        self.cpu_map
            .as_ref()
            .and_then(|m| m.get(cluster.as_usize()))
            .map(|v| v.as_slice())
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
            .field("source", &self.source)
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
