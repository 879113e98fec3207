//! Facade crate for the lock-cohorting suite: re-exports every member
//! crate so examples and integration tests can reach the full system
//! through one dependency. See README.md for the tour and
//! docs/ARCHITECTURE.md for how the layers fit together and how the
//! exhibits are reproduced.
pub use base_locks;
pub use coherence_sim;
pub use cohort;
pub use cohort_alloc;
pub use cohort_kvstore;
pub use lbench;
pub use numa_baselines;
pub use numa_topology;
