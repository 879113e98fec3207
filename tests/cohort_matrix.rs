//! Integration: the cohorting transformation works for *every* composition
//! of the provided global and local locks — not just the seven the paper
//! names — and under *every* [`PolicySpec`] family. Mutual exclusion
//! is validated with a torn-counter detector; policy invariants are
//! validated against the [`CohortStats`] counters.

use base_locks::{McsLock, RawLock, ReciprocatingLock, TicketLock};
use cohort::{
    CBoMcs, CohortLock, CohortStats, FisBoMcs, GcrLock, GlobalBoLock, GlobalLock, LocalAClhLock,
    LocalAboLock, LocalBoLock, LocalCohortLock, LocalMcsLock, LocalTicketLock, PolicySpec,
};
use numa_baselines::CnaLock;
use numa_topology::{ClusterId, Topology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn stress<G, L>(threads: usize, iters: u64)
where
    G: GlobalLock + Default + 'static,
    L: LocalCohortLock + Default + 'static,
{
    let lock = Arc::new(CohortLock::<G, L>::new(Arc::new(Topology::new(4))));
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
                    assert_eq!(va, vb, "critical section raced");
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

macro_rules! matrix_test {
    ($name:ident, $g:ty, $l:ty) => {
        #[test]
        fn $name() {
            stress::<$g, $l>(4, 1_000);
        }
    };
}

// The paper's compositions…
matrix_test!(bo_over_bo, GlobalBoLock, LocalBoLock);
matrix_test!(tkt_over_tkt, TicketLock, LocalTicketLock);
matrix_test!(bo_over_mcs, GlobalBoLock, LocalMcsLock);
matrix_test!(tkt_over_mcs, TicketLock, LocalMcsLock);
matrix_test!(mcs_over_mcs, McsLock, LocalMcsLock);
matrix_test!(bo_over_abo, GlobalBoLock, LocalAboLock);
matrix_test!(bo_over_aclh, GlobalBoLock, LocalAClhLock);
// …and the ones it never built (the transformation is general).
matrix_test!(tkt_over_bo, TicketLock, LocalBoLock);
matrix_test!(mcs_over_bo, McsLock, LocalBoLock);
matrix_test!(mcs_over_tkt, McsLock, LocalTicketLock);
matrix_test!(bo_over_tkt, GlobalBoLock, LocalTicketLock);
matrix_test!(tkt_over_aclh, TicketLock, LocalAClhLock);
matrix_test!(mcs_over_aclh, McsLock, LocalAClhLock);
matrix_test!(tkt_over_abo, TicketLock, LocalAboLock);
matrix_test!(mcs_over_abo, McsLock, LocalAboLock);
// …and the reciprocating global (C-Recip-MCS plus an unnamed sibling):
// its two-plain-word token is thread-oblivious by construction, so the
// §3.4 requirement costs it nothing.
matrix_test!(recip_over_mcs, ReciprocatingLock, LocalMcsLock);
matrix_test!(recip_over_tkt, ReciprocatingLock, LocalTicketLock);

// ---------------------------------------------------------------------------
// The policy matrix: every PolicySpec family keeps mutual exclusion
// AND respects its own invariant, observed through the CohortStats
// counters. 8 threads over 4 clusters gives every cluster a mate, so
// local handoffs actually occur.

/// Stresses any cohort composition under `policy` and returns the stats
/// snapshot. Also enforces the counter-conservation invariant that holds
/// for *any* policy at quiescence: every acquisition is either a tenure
/// start or a local inheritance, and every tenure ends.
fn policy_stress_on<G, L>(policy: PolicySpec, threads: u64, iters: u64) -> CohortStats
where
    G: GlobalLock + Default + 'static,
    L: LocalCohortLock + Default + 'static,
{
    let lock = Arc::new(CohortLock::<G, L>::with_policy(
        Arc::new(Topology::new(4)),
        policy,
    ));
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
                    assert_eq!(va, vb, "critical section raced");
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
    assert_eq!(a.load(Ordering::Relaxed), threads * iters);

    let stats = lock.cohort_stats();
    assert_eq!(
        stats.tenures(),
        stats.global_releases(),
        "every tenure ends"
    );
    assert_eq!(
        stats.tenures() + stats.local_handoffs(),
        threads * iters,
        "every acquisition is a tenure start or a local inheritance"
    );
    stats
}

/// The C-BO-MCS shorthand used by the single-policy invariant tests.
fn policy_stress(policy: PolicySpec, threads: u64, iters: u64) -> CohortStats {
    policy_stress_on::<GlobalBoLock, LocalMcsLock>(policy, threads, iters)
}

#[test]
fn all_seven_paper_compositions_under_every_policy_family() {
    // The acceptance matrix: each paper composition keeps mutual exclusion
    // and balanced counters under count(64), time, adaptive and
    // never-pass.
    let specs = [
        PolicySpec::Count { bound: 64 },
        PolicySpec::Time { budget_ns: 30_000 },
        PolicySpec::Adaptive { min: 4, max: 128 },
        PolicySpec::NeverPass,
    ];
    macro_rules! under_every_policy {
        ($($g:ty, $l:ty);+ $(;)?) => {$(
            for spec in specs {
                let stats = policy_stress_on::<$g, $l>(spec, 4, 250);
                if spec == (PolicySpec::Count { bound: 64 }) {
                    assert!(stats.max_streak() <= 64, "{spec}");
                }
                if spec == PolicySpec::NeverPass {
                    assert_eq!(stats.local_handoffs(), 0, "{spec}");
                }
            }
        )+};
    }
    under_every_policy!(
        GlobalBoLock, LocalBoLock;      // C-BO-BO
        TicketLock, LocalTicketLock;    // C-TKT-TKT
        GlobalBoLock, LocalMcsLock;     // C-BO-MCS
        TicketLock, LocalMcsLock;       // C-TKT-MCS
        McsLock, LocalMcsLock;          // C-MCS-MCS
        GlobalBoLock, LocalAboLock;     // A-C-BO-BO
        GlobalBoLock, LocalAClhLock;    // A-C-BO-CLH
    );
}

#[test]
fn fissile_under_every_policy_family_keeps_exclusion_and_balance() {
    // The fissile wrapper grafts a TATAS word onto the cohort slow path;
    // under every policy family the graft must keep mutual exclusion and
    // the slow-path conservation invariants, with the fast/slow split
    // accounting for every acquisition. (This is the matrix coverage the
    // relaxed-ordering sites in the fissile/cohort hot paths rely on.)
    let specs = [
        PolicySpec::Count { bound: 64 },
        PolicySpec::Count { bound: 2 },
        PolicySpec::Time { budget_ns: 30_000 },
        PolicySpec::Adaptive { min: 4, max: 128 },
        PolicySpec::NeverPass,
        PolicySpec::Unbounded,
    ];
    for spec in specs {
        let lock = Arc::new(FisBoMcs::with_policy(Arc::new(Topology::new(4)), spec));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4u64)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        let t = lock.lock();
                        let va = a.load(Ordering::Relaxed);
                        let vb = b.load(Ordering::Relaxed);
                        assert_eq!(va, vb, "critical section raced under {spec}");
                        a.store(va + 1, Ordering::Relaxed);
                        std::thread::yield_now();
                        b.store(vb + 1, Ordering::Relaxed);
                        unsafe { lock.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::Relaxed), 1_000, "{spec}");
        let stats = lock.cohort_stats();
        assert_eq!(
            stats.fast_acquisitions + stats.slow_acquisitions,
            1_000,
            "{spec}: every acquisition is fast or slow"
        );
        assert_eq!(stats.tenures(), stats.global_releases(), "{spec}");
        assert_eq!(
            stats.tenures() + stats.local_handoffs(),
            stats.slow_acquisitions,
            "{spec}: slow-path conservation"
        );
        if let PolicySpec::Count { bound } = spec {
            assert!(stats.max_streak() <= bound, "{spec}");
        }
        if spec == PolicySpec::NeverPass {
            assert_eq!(stats.local_handoffs(), 0, "{spec}");
        }
    }
}

#[test]
fn gcr_wrapper_under_every_policy_family_keeps_exclusion_and_balance() {
    // The GCR admission layer wraps the cohort lock without touching its
    // exclusion or its policy machinery: under every policy family the
    // wrapped lock must keep mutual exclusion and the cohort
    // conservation invariants, with the admission ledger balanced on
    // top (promotions never exceed parks; every sticky grant is given
    // back when its thread exits).
    let specs = [
        PolicySpec::Count { bound: 64 },
        PolicySpec::Count { bound: 2 },
        PolicySpec::Time { budget_ns: 30_000 },
        PolicySpec::Adaptive { min: 4, max: 128 },
        PolicySpec::NeverPass,
        PolicySpec::Unbounded,
    ];
    for spec in specs {
        let topo = Arc::new(Topology::new(4));
        let lock = Arc::new(GcrLock::over(
            Arc::clone(&topo),
            CBoMcs::with_policy(Arc::clone(&topo), spec),
        ));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4u64)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        let t = lock.lock();
                        let va = a.load(Ordering::Relaxed);
                        let vb = b.load(Ordering::Relaxed);
                        assert_eq!(va, vb, "critical section raced under {spec}");
                        a.store(va + 1, Ordering::Relaxed);
                        std::thread::yield_now();
                        b.store(vb + 1, Ordering::Relaxed);
                        unsafe { lock.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::Relaxed), 1_000, "{spec}");
        let stats = lock.cohort_stats();
        assert_eq!(stats.tenures(), stats.global_releases(), "{spec}");
        assert_eq!(
            stats.tenures() + stats.local_handoffs(),
            1_000,
            "{spec}: every acquisition reached the inner cohort lock"
        );
        assert!(
            stats.promotions <= stats.passive_parks,
            "{spec}: promotions exceed park events"
        );
        for c in 0..4 {
            assert_eq!(lock.active_in(c), 0, "{spec}: cluster {c} leaked slots");
        }
        if let PolicySpec::Count { bound } = spec {
            assert!(stats.max_streak() <= bound, "{spec}");
        }
        if spec == PolicySpec::NeverPass {
            assert_eq!(stats.local_handoffs(), 0, "{spec}");
        }
    }
}

#[test]
fn cna_under_every_policy_family_keeps_exclusion_and_balance() {
    // The CNA lock shares the policy layer with the cohort family; its
    // release-path splicing must keep the same exclusion and conservation
    // invariants under every policy the registry can install.
    let specs = [
        PolicySpec::Count { bound: 64 },
        PolicySpec::Count { bound: 2 },
        PolicySpec::Time { budget_ns: 30_000 },
        PolicySpec::Adaptive { min: 4, max: 128 },
        PolicySpec::NeverPass,
        PolicySpec::Unbounded,
    ];
    for spec in specs {
        let lock = Arc::new(CnaLock::with_policy(Arc::new(Topology::new(4)), spec));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4u64)
            .map(|_| {
                let lock = Arc::clone(&lock);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        let t = lock.lock();
                        let va = a.load(Ordering::Relaxed);
                        let vb = b.load(Ordering::Relaxed);
                        assert_eq!(va, vb, "critical section raced under {spec}");
                        a.store(va + 1, Ordering::Relaxed);
                        std::thread::yield_now();
                        b.store(vb + 1, Ordering::Relaxed);
                        unsafe { lock.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::Relaxed), 1_000, "{spec}");
        let stats = lock.cohort_stats();
        assert_eq!(stats.tenures(), stats.global_releases(), "{spec}");
        assert_eq!(stats.tenures() + stats.local_handoffs(), 1_000, "{spec}");
        if let PolicySpec::Count { bound } = spec {
            assert!(stats.max_streak() <= bound, "{spec}");
        }
        if spec == PolicySpec::NeverPass {
            assert_eq!(stats.local_handoffs(), 0, "{spec}");
        }
    }
}

#[test]
fn count_bound_streak_never_exceeds_bound() {
    // Property over a spread of bounds: the observed max streak never
    // exceeds the configured bound (a streak of b means b consecutive
    // local handoffs, which is exactly what count(b) permits).
    for bound in [1u64, 2, 3, 7, 33] {
        let stats = policy_stress(PolicySpec::Count { bound }, 8, 800);
        assert!(
            stats.max_streak() <= bound,
            "bound {bound} violated: max streak {}",
            stats.max_streak()
        );
    }
}

#[test]
fn never_pass_yields_zero_local_handoffs() {
    let stats = policy_stress(PolicySpec::NeverPass, 8, 800);
    assert_eq!(stats.local_handoffs(), 0);
    assert_eq!(stats.max_streak(), 0);
    assert_eq!(stats.tenures(), 8 * 800);
}

#[test]
fn adaptive_bound_stays_within_configured_range() {
    let (min, max) = (2u64, 16u64);
    let lock = Arc::new(CBoMcs::with_policy(
        Arc::new(Topology::new(4)),
        PolicySpec::Adaptive { min, max },
    ));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                for _ in 0..800 {
                    let t = lock.lock();
                    std::hint::spin_loop();
                    unsafe { lock.unlock(t) };
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // A cluster's current bound is the first streak its holder is refused at.
    let bounds: Vec<u64> = (0..4)
        .map(|c| {
            (0..)
                .find(|&streak| !lock.policy().may_pass_local(ClusterId::new(c), streak))
                .unwrap()
        })
        .collect();
    assert!(
        bounds.iter().all(|&b| (min..=max).contains(&b)),
        "bounds escaped [{min}, {max}]: {bounds:?}"
    );
    // The streak cap follows the per-tenure bound, which never exceeds
    // `max` — so no tenure can have seen more than `max` handoffs.
    assert!(lock.cohort_stats().max_streak() <= max);
}

#[test]
fn unbounded_and_time_bound_conserve_counters() {
    // Unbounded has no streak invariant (that is the point); the
    // conservation checks inside policy_stress are the contract.
    let stats = policy_stress(PolicySpec::Unbounded, 8, 800);
    assert!(stats.tenures() > 0);

    // A time bound under a plain stress loop (no virtual-clock advance): the
    // budget never expires, so it degenerates to unbounded — but the
    // counters must still balance and exclusion must hold.
    let stats = policy_stress(
        PolicySpec::Time {
            budget_ns: 1_000_000,
        },
        8,
        800,
    );
    assert!(stats.tenures() > 0);
}

#[test]
fn every_policy_spec_composes_with_dyn_dispatch() {
    for spec in [
        PolicySpec::Count { bound: 5 },
        PolicySpec::Time { budget_ns: 20_000 },
        PolicySpec::Adaptive { min: 4, max: 64 },
        PolicySpec::Unbounded,
        PolicySpec::NeverPass,
    ] {
        let stats = policy_stress(spec, 4, 400);
        assert_eq!(stats.tenures() + stats.local_handoffs(), 4 * 400, "{spec}");
    }
}
