//! # Lock cohorting — NUMA-aware locks by composition
//!
//! This crate implements the general transformation of **Dice, Marathe,
//! Shavit, "Lock Cohorting: A General Technique for Designing NUMA Locks"
//! (PPoPP 2012)**: take any *thread-oblivious* lock `G` and any
//! *cohort-detecting* lock `L`, instantiate one `L` per NUMA cluster plus
//! a single shared `G`, and obtain a NUMA-aware lock
//! ([`CohortLock<G, L>`]) that hands ownership between threads of the
//! same cluster at local-lock cost, releasing the global lock only when
//! the cluster runs dry or the fairness policy (a [`PolicySpec`]) ends
//! the tenure.
//!
//! The fairness policy is a value (see the [`policy`] module docs and the
//! README's selection guide): `Count` is the paper's
//! 64-consecutive-handoffs rule and the default; `Time` / `WallTime` cap
//! tenures in clock nanoseconds; `Adaptive` adapts the bound to observed
//! demand; `Unbounded` and `NeverPass` are the degenerate corners. Each
//! lock owns one [`Tenures`] book — the spec plus cache-padded
//! per-cluster counters — exposed via [`CohortLock::cohort_stats`] as a
//! [`CohortStats`] snapshot.
//!
//! All seven compositions evaluated in the paper are provided under their
//! paper names:
//!
//! | Alias | Global | Local | § |
//! |---|---|---|---|
//! | [`CBoBo`]   | BO (no backoff) | BO + `successor-exists` | 3.1 |
//! | [`CTktTkt`] | ticket | ticket + `top-granted` | 3.2 |
//! | [`CBoMcs`]  | BO | MCS, tri-state handoff | 3.3 |
//! | [`CMcsMcs`] | MCS (pooled nodes) | MCS | 3.4 |
//! | [`CTktMcs`] | ticket | MCS | 3.5 |
//! | [`AcBoBo`]  | BO | abortable BO | 3.6.1 |
//! | [`AcBoClh`] | BO | abortable CLH, colocated flag | 3.6.2 |
//!
//! Beyond the paper's compositions, the [`fast_path`] module grafts a
//! TATAS **fast path** onto the cohort slow path in the style of
//! *Fissile Locks* (Dice & Kogan): [`FissileLock<G, L>`] makes the
//! uncontended acquire a single CAS while saturation still gets full
//! cohort behavior (aliases [`FisBoMcs`], [`FisTktMcs`]).
//!
//! When the machine is **oversubscribed** (threads ≫ cores), the [`gcr`]
//! module wraps any of these locks — or any [`base_locks::RawLock`] at
//! all — in a Generic Concurrency Restriction admission layer in the
//! style of Dice & Kogan (arXiv:1905.10818): [`GcrLock<K>`] admits
//! roughly one waiter per cluster to the contention path, parks the
//! surplus on slow-spinning passive lists, and rotates parked threads in
//! periodically for long-term fairness (aliases [`GcrMcs`],
//! [`GcrCBoMcs`], [`GcrFisBoMcs`]).
//!
//! The newest component is [`base_locks::ReciprocatingLock`] (Dice &
//! Kogan, arXiv:2501.02380): a one-word arrivals stack whose release
//! path admits detached segments in reversed (palindromic) order, so
//! every handover touches a constant number of cache lines. Its token
//! is plain data — thread-oblivious for free — which makes it a drop-in
//! *global* lock: [`CRecipMcs`] is the cohortized composition.
//!
//! Beyond the paper's mutual-exclusion locks, the [`rwlock`] module
//! applies the transformation to **reader-writer** locks in the style of
//! the paper's follow-on work (*NUMA-Aware Reader-Writer Locks*, PPoPP
//! 2013): [`CohortRwLock<G, L>`] runs writers through a cohort lock
//! (tenures bounded by the same policy) and readers through
//! cache-padded per-cluster counters, in two fairness flavors
//! ([`RwFairness`]).
//!
//! Every cohort lock implements [`base_locks::RawLock`] (and the abortable
//! ones [`base_locks::RawAbortableLock`]), so the [`CohortMutex`] RAII
//! wrapper — an alias for [`base_locks::SpinMutex`] — works uniformly:
//!
//! ```
//! use cohort::{CBoMcs, CohortMutex};
//! use numa_topology::Topology;
//! use std::sync::Arc;
//!
//! // 4 virtual NUMA clusters (the paper's machine geometry).
//! let topo = Arc::new(Topology::new(4));
//! let counter: Arc<CohortMutex<u64, CBoMcs>> =
//!     Arc::new(CohortMutex::with_lock(CBoMcs::new(topo), 0));
//!
//! let handles: Vec<_> = (0..8)
//!     .map(|_| {
//!         let c = Arc::clone(&counter);
//!         std::thread::spawn(move || {
//!             for _ in 0..1000 {
//!                 *c.lock() += 1;
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! assert_eq!(*counter.lock(), 8000);
//! ```

#![deny(missing_docs)]

mod abortable;
pub mod fast_path;
pub mod gcr;
mod global;
mod local_abo;
mod local_aclh;
mod local_bo;
mod local_mcs;
mod local_ticket;
mod lock;
pub mod policy;
pub mod rwlock;
mod traits;

pub use fast_path::{FissileLock, FissileToken, FissileTuning};
pub use gcr::{GcrLock, GcrToken, GcrTuning};
pub use global::GlobalBoLock;
pub use local_abo::LocalAboLock;
pub use local_aclh::{AClhToken, LocalAClhLock};
pub use local_bo::LocalBoLock;
pub use local_mcs::{CohortMcsToken, LocalMcsLock};
pub use local_ticket::LocalTicketLock;
pub use lock::{CohortLock, CohortToken};
pub use policy::{ClusterStats, CohortStats, Introspect, PolicyParseError, PolicySpec, Tenures};
pub use rwlock::{CohortRwLock, RwFairness, RwReadGuard, RwReadToken, RwWriteGuard, RwWriteToken};
pub use traits::{
    AbortableGlobalLock, AbortableLocalCohortLock, GlobalLock, LocalAbortResult, LocalCohortLock,
    Release,
};

use base_locks::{McsLock, ReciprocatingLock, SpinMutex, TicketLock};

/// C-BO-BO (§3.1): global BO lock, local BO locks with `successor-exists`.
pub type CBoBo = CohortLock<GlobalBoLock, LocalBoLock>;

/// C-TKT-TKT (§3.2): ticket locks at both levels, `top-granted` handoff.
pub type CTktTkt = CohortLock<TicketLock, LocalTicketLock>;

/// C-BO-MCS (§3.3, Figure 1): global BO lock, local MCS queues.
pub type CBoMcs = CohortLock<GlobalBoLock, LocalMcsLock>;

/// C-TKT-MCS (§3.5): "the best of C-TKT-TKT and C-MCS-MCS".
pub type CTktMcs = CohortLock<TicketLock, LocalMcsLock>;

/// C-MCS-MCS (§3.4): MCS at both levels; the global side circulates queue
/// nodes through pools to become thread-oblivious.
pub type CMcsMcs = CohortLock<McsLock, LocalMcsLock>;

/// A-C-BO-BO (§3.6.1): the abortable C-BO-BO.
pub type AcBoBo = CohortLock<GlobalBoLock, LocalAboLock>;

/// A-C-BO-CLH (§3.6.2): abortable CLH cohorts under a global BO lock —
/// the paper's flagship abortable NUMA lock.
pub type AcBoClh = CohortLock<GlobalBoLock, LocalAClhLock>;

/// RAII mutex over a cohort lock: `CohortMutex<T, CBoMcs>` etc.
pub type CohortMutex<T, CL> = SpinMutex<T, CL>;

/// C-PARK-MCS: a **spin-then-block** cohort lock — the §2.1 aside made
/// concrete. The global lock parks its waiters (one per cluster at most),
/// while intra-cluster handoffs stay pure spin; threads block only when
/// their whole cluster is out of work.
pub type CParkMcs = CohortLock<base_locks::ParkingLock, LocalMcsLock>;

/// C-RW-BO-MCS: the cohort reader-writer lock over the paper's
/// best-performing writer composition (global BO, local MCS). See
/// [`rwlock`] for the protocol and the fairness flavors.
pub type CRwBoMcs = CohortRwLock<GlobalBoLock, LocalMcsLock>;

/// C-RW-TKT-MCS: the cohort reader-writer lock with a ticket global lock
/// on the writer side.
pub type CRwTktMcs = CohortRwLock<TicketLock, LocalMcsLock>;

/// Fis-BO-MCS: the fissile fast-path lock over [`CBoMcs`] — a TATAS word
/// tried first, the paper's best cohort composition underneath (see
/// [`fast_path`]). Uncontended acquisition is one CAS; saturation gets
/// full cohort behavior.
pub type FisBoMcs = FissileLock<GlobalBoLock, LocalMcsLock>;

/// Fis-TKT-MCS: the fissile fast-path lock over [`CTktMcs`].
pub type FisTktMcs = FissileLock<TicketLock, LocalMcsLock>;

/// GCR-MCS: the concurrency-restriction admission layer over a plain MCS
/// queue lock — the minimal demonstration that GCR is lock-agnostic (see
/// [`gcr`]).
pub type GcrMcs = GcrLock<McsLock>;

/// GCR-C-BO-MCS: the admission layer over the paper's best cohort
/// composition [`CBoMcs`] — NUMA-aware admission over NUMA-aware handoff.
pub type GcrCBoMcs = GcrLock<CBoMcs>;

/// GCR-Fis-BO-MCS: the admission layer over the fissile fast-path lock
/// [`FisBoMcs`] — restriction, fast path, and cohorting stacked.
pub type GcrFisBoMcs = GcrLock<FisBoMcs>;

/// C-Recip-MCS: a Reciprocating lock (Dice & Kogan, arXiv:2501.02380) in
/// the **global** position over local MCS queues. The reciprocating
/// token is two plain words, so it is trivially thread-oblivious — the
/// §3.4 requirement — and its constant-coherence handover makes the
/// inter-cluster hop as cheap as the intra-cluster one.
pub type CRecipMcs = CohortLock<ReciprocatingLock, LocalMcsLock>;

#[cfg(test)]
mod tests {
    use super::*;
    use base_locks::RawLock;
    use numa_topology::Topology;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn stress<CL: RawLock + 'static>(lock: CL, threads: usize, iters: u64) {
        let lock = Arc::new(lock);
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        let t = lock.lock();
                        let va = a.load(Ordering::Relaxed);
                        let vb = b.load(Ordering::Relaxed);
                        assert_eq!(va, vb, "mutual exclusion violated");
                        a.store(va + 1, Ordering::Relaxed);
                        std::hint::spin_loop();
                        b.store(vb + 1, Ordering::Relaxed);
                        unsafe { lock.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::Relaxed), threads as u64 * iters);
    }

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::new(4))
    }

    #[test]
    fn c_bo_bo_mutual_exclusion() {
        stress(CBoBo::new(topo()), 4, 1_500);
    }

    #[test]
    fn c_tkt_tkt_mutual_exclusion() {
        stress(CTktTkt::new(topo()), 4, 1_500);
    }

    #[test]
    fn c_bo_mcs_mutual_exclusion() {
        stress(CBoMcs::new(topo()), 4, 1_500);
    }

    #[test]
    fn c_tkt_mcs_mutual_exclusion() {
        stress(CTktMcs::new(topo()), 4, 1_500);
    }

    #[test]
    fn c_mcs_mcs_mutual_exclusion() {
        stress(CMcsMcs::new(topo()), 4, 1_500);
    }

    #[test]
    fn a_c_bo_bo_mutual_exclusion() {
        stress(AcBoBo::new(topo()), 4, 1_500);
    }

    #[test]
    fn a_c_bo_clh_mutual_exclusion() {
        stress(AcBoClh::new(topo()), 4, 1_500);
    }

    #[test]
    fn c_park_mcs_mutual_exclusion() {
        // The blocking-global composition.
        stress(CParkMcs::new(topo()), 4, 1_500);
    }

    #[test]
    fn fis_bo_mcs_mutual_exclusion() {
        // The fissile fast-path composition: exclusion must hold across
        // mixed fast/slow acquisitions.
        stress(FisBoMcs::new(topo()), 4, 1_500);
    }

    #[test]
    fn fis_tkt_mcs_mutual_exclusion() {
        stress(FisTktMcs::new(topo()), 4, 1_500);
    }

    #[test]
    fn gcr_mcs_mutual_exclusion() {
        // The admission layer over a plain queue lock: exclusion must
        // hold across direct, admitted, and promoted acquisitions.
        stress(GcrMcs::over(topo(), McsLock::new()), 4, 1_500);
    }

    #[test]
    fn gcr_c_bo_mcs_mutual_exclusion() {
        let topo = topo();
        stress(
            GcrCBoMcs::over(Arc::clone(&topo), CBoMcs::new(Arc::clone(&topo))),
            4,
            1_500,
        );
    }

    #[test]
    fn gcr_fis_bo_mcs_mutual_exclusion() {
        let topo = topo();
        stress(
            GcrFisBoMcs::over(Arc::clone(&topo), FisBoMcs::new(Arc::clone(&topo))),
            4,
            1_500,
        );
    }

    #[test]
    fn c_recip_mcs_mutual_exclusion() {
        // Reciprocating global lock: exclusion must hold across era
        // reversals on the global word and local MCS handoffs.
        stress(CRecipMcs::new(topo()), 4, 1_500);
    }

    #[test]
    fn single_cluster_topology_works() {
        // Degenerate geometry: the cohort lock must still be correct.
        stress(CBoMcs::new(Arc::new(Topology::new(1))), 4, 1_000);
    }

    #[test]
    fn many_cluster_topology_works() {
        stress(CTktTkt::new(Arc::new(Topology::new(8))), 8, 400);
    }

    #[test]
    fn try_lock_roundtrip() {
        let l = CBoMcs::new(topo());
        let t = l.try_lock().expect("free");
        assert!(l.try_lock().is_none());
        unsafe { l.unlock(t) };
        let t = l.lock();
        unsafe { l.unlock(t) };
    }

    #[test]
    fn abortable_cohort_times_out_and_recovers() {
        let l = Arc::new(AcBoClh::new(topo()));
        let t = l.lock();
        assert!(l.lock_with_patience(200_000).is_none());
        unsafe { l.unlock(t) };
        let t = l.lock_with_patience(1_000_000_000).expect("free now");
        unsafe { l.unlock(t) };
    }

    #[test]
    fn abortable_bo_stress_with_mixed_patience() {
        let l = Arc::new(AcBoBo::new(topo()));
        let count = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let l = Arc::clone(&l);
                let count = Arc::clone(&count);
                std::thread::spawn(move || {
                    let mut mine = 0u64;
                    for _ in 0..400 {
                        let tok = if i % 2 == 0 {
                            l.lock_with_patience(30_000)
                        } else {
                            Some(l.lock())
                        };
                        if let Some(t) = tok {
                            count.fetch_add(1, Ordering::Relaxed);
                            mine += 1;
                            unsafe { l.unlock(t) };
                        }
                    }
                    mine
                })
            })
            .collect();
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, count.load(Ordering::Relaxed));
    }

    #[test]
    fn abortable_clh_stress_with_mixed_patience() {
        let l = Arc::new(AcBoClh::new(topo()));
        let count = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let l = Arc::clone(&l);
                let count = Arc::clone(&count);
                std::thread::spawn(move || {
                    for _ in 0..400 {
                        let tok = if i % 2 == 0 {
                            l.lock_with_patience(30_000)
                        } else {
                            Some(l.lock())
                        };
                        if let Some(t) = tok {
                            count.fetch_add(1, Ordering::Relaxed);
                            unsafe { l.unlock(t) };
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Lock still functional after the storm.
        let t = l.lock();
        unsafe { l.unlock(t) };
    }

    #[test]
    fn cohort_mutex_api() {
        let topo = topo();
        let m: CohortMutex<Vec<u32>, CTktMcs> =
            CohortMutex::with_lock(CTktMcs::new(topo), Vec::new());
        m.lock().push(1);
        m.lock().push(2);
        assert_eq!(*m.lock(), vec![1, 2]);
    }

    #[test]
    fn default_uses_global_topology() {
        let l = CBoBo::default();
        let t = l.lock();
        unsafe { l.unlock(t) };
        assert_eq!(
            l.topology().clusters(),
            numa_topology::global_topology().clusters()
        );
    }

    #[test]
    fn never_pass_policy_forces_global_every_time() {
        // With NeverPass, consecutive acquisitions from one thread must
        // each re-acquire the global lock: every tenure ends after zero
        // local handoffs.
        let l = CBoMcs::with_policy(topo(), PolicySpec::NeverPass);
        for _ in 0..100 {
            let t = l.lock();
            unsafe { l.unlock(t) };
        }
        let stats = l.cohort_stats();
        assert_eq!(stats.local_handoffs(), 0);
        assert_eq!(stats.tenures(), 100);
        assert_eq!(stats.global_releases(), 100);
    }

    #[test]
    fn pass_policy_accessor() {
        let l = CBoBo::with_policy(topo(), PolicySpec::Count { bound: 7 });
        assert_eq!(l.policy().spec(), PolicySpec::Count { bound: 7 });
    }

    #[test]
    fn cohort_stats_are_conserved() {
        // Every acquisition is either a tenure start or a local
        // inheritance, and every tenure ends: at quiescence the counters
        // must balance exactly.
        let threads = 4u64;
        let iters = 1_000u64;
        let l = Arc::new(CTktMcs::new(topo()));
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        let t = l.lock();
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = l.cohort_stats();
        assert_eq!(s.tenures(), s.global_releases());
        assert_eq!(s.tenures() + s.local_handoffs(), threads * iters);
        assert!(s.max_streak() <= PolicySpec::PAPER_BOUND);
        assert!(s.mean_streak() >= 0.0);
    }
}
