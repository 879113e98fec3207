//! The **fissile fast-path layer**: NUMA-aware locks that cost one atomic
//! when uncontended.
//!
//! The cohort transformation (§2) buys NUMA locality at the price of a
//! two-level acquire on *every* operation — even when nobody is
//! contending. *Fissile Locks* (Dice & Kogan, arXiv:2003.05025) erase
//! that tax by grafting a TATAS-style **fast path** onto the NUMA-aware
//! **slow path**: a top-level lock word is tried first with a single CAS
//! (plus a brief bounded spin), and only when that fails does the thread
//! fall into the full cohort machinery. The slow-path holder *claims the
//! same word* before entering its critical section, so mutual exclusion
//! is carried by the word alone; the cohort lock underneath only
//! serializes and NUMA-orders the slow-path population.
//!
//! Protocol of [`FissileLock<G, L>`]:
//!
//! * **fast acquire** — CAS the word `FREE → FAST`. A bounded number of
//!   probes ([`FissileTuning::fast_attempts`]) keeps the spin brief;
//!   on exhaustion the thread *fissions* into the slow path.
//! * **slow acquire** — acquire the inner [`CohortLock`] (local lock,
//!   global lock, handoff policy — everything of §2 applies, including
//!   local handoffs between slow-path cluster-mates), then claim the
//!   word with CAS `FREE → SLOW`. The cohort lock admits one slow-path
//!   thread at a time, so there is never more than one claimant.
//! * **anti-starvation fence** — a stream of fast-path acquirers could
//!   bypass the claimant indefinitely (each release momentarily frees
//!   the word and a fresh fast CAS can win it first). After
//!   [`FissileTuning::bypass_bound`] failed claim rounds the claimant
//!   raises a fence that makes new fast-path attempts stand down until
//!   the claim succeeds; this bounds how long the populated slow path
//!   can be bypassed.
//! * **release** — store `FREE` (fast), or store `FREE` and release the
//!   cohort lock (slow) so a cluster-mate can inherit the global lock
//!   and become the next claimant.
//!
//! Fast-vs-slow accounting is surfaced through the ordinary
//! [`CohortStats`] snapshot (`fast_acquisitions` / `slow_acquisitions`);
//! the per-cluster tenure counters keep describing the slow path only,
//! because fast-path acquisitions never touch the policy layer.

use crate::lock::{CohortLock, CohortToken};
use crate::policy::{add_held, CohortStats, Introspect, PolicySpec, Tenures};
use crate::ThreadOblivious;
use base_locks::{LocalCohortLock, RawLock, SpinWait, Wait};
use crossbeam_utils::CachePadded;
use numa_topology::{global_topology, Topology};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Lock-word states. The word is the *sole* exclusion point: a critical
/// section is entered only by the thread that moved it off `FREE`.
const FREE: u32 = 0;
/// Held by a fast-path acquirer (single CAS, no cohort involvement).
const FAST: u32 = 1;
/// Held by the slow path's current cohort-lock holder.
const SLOW: u32 = 2;

/// Tuning knobs of the fissile fast path (see the module docs; exposed
/// to the benches as the `LBENCH_FISSILE_*` environment knobs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FissileTuning {
    /// Fast-path probes (CAS attempts interleaved with spin hints)
    /// before the acquirer fissions into the cohort slow path. `1` makes
    /// the fast path a pure try; larger values ride out momentary
    /// holders at the cost of longer uncontended-adjacent spins.
    pub fast_attempts: u32,
    /// Failed word-claim rounds the slow-path holder tolerates before
    /// raising the anti-starvation fence that stalls new fast-path
    /// acquirers. Bounds how long a populated slow path can be bypassed.
    pub bypass_bound: u32,
}

impl FissileTuning {
    /// Default fast-path probe budget.
    pub const DEFAULT_FAST_ATTEMPTS: u32 = 16;
    /// Default bypass tolerance of the slow-path claimant.
    pub const DEFAULT_BYPASS_BOUND: u32 = 16;
}

impl Default for FissileTuning {
    fn default() -> Self {
        FissileTuning {
            fast_attempts: Self::DEFAULT_FAST_ATTEMPTS,
            bypass_bound: Self::DEFAULT_BYPASS_BOUND,
        }
    }
}

/// Per-acquisition token of a [`FissileLock`]: which path was taken, and
/// (for the slow path) the inner cohort token.
pub struct FissileToken<LT> {
    slow: Option<CohortToken<LT>>,
}

impl<LT> FissileToken<LT> {
    /// Whether this acquisition went through the fast path.
    pub fn is_fast(&self) -> bool {
        self.slow.is_none()
    }
}

/// A NUMA-aware lock whose uncontended acquire is **one atomic**: a
/// TATAS fast path over a [`CohortLock<G, L>`] slow path, after
/// *Fissile Locks* (Dice & Kogan). See the module docs for the protocol
/// and the anti-starvation fence.
///
/// Ready-made compositions: [`FisBoMcs`](crate::FisBoMcs) (fast path
/// over the paper's best cohort lock) and
/// [`FisTktMcs`](crate::FisTktMcs).
///
/// ```
/// use cohort::{FisBoMcs, FissileTuning};
/// use base_locks::RawLock;
/// use numa_topology::Topology;
/// use std::sync::Arc;
///
/// let lock = FisBoMcs::new(Arc::new(Topology::new(4)));
/// let t = lock.lock();                       // uncontended: one CAS
/// assert!(t.is_fast());
/// assert!(lock.try_lock().is_none(), "held: mutual exclusion");
/// // SAFETY: token from this lock's own `lock()`.
/// unsafe { lock.unlock(t) };
/// assert_eq!(lock.cohort_stats().fast_acquisitions, 1);
/// assert_eq!(lock.cohort_stats().tenures(), 0, "fast path skips the cohort");
/// assert_eq!(lock.tuning(), FissileTuning::default());
/// ```
pub struct FissileLock<G: ThreadOblivious, L: LocalCohortLock> {
    /// The top-level TATAS word — the sole exclusion point.
    word: CachePadded<AtomicU32>,
    /// Anti-starvation fence: raised by a slow-path claimant that has
    /// been bypassed `bypass_bound` times, lowered once it claims the
    /// word. New fast-path attempts stand down while raised.
    fence: CachePadded<AtomicBool>,
    /// Fast-path acquisition count, written by the word holder alone.
    fast_acqs: CachePadded<AtomicU64>,
    /// Slow-path acquisition count, written by the word holder alone.
    slow_acqs: CachePadded<AtomicU64>,
    /// The NUMA-aware slow path.
    slow: CohortLock<G, L>,
    tuning: FissileTuning,
}

impl<G, L> FissileLock<G, L>
where
    G: ThreadOblivious + Default,
    L: LocalCohortLock + Default,
{
    /// Creates a fissile lock over `topo` with the paper's handoff policy
    /// and the fast path's default tuning.
    pub fn new(topo: Arc<Topology>) -> Self {
        Self::with_policy(topo, PolicySpec::paper_default())
    }

    /// Creates a fissile lock with an explicit handoff policy bounding
    /// slow-path tenures (full pass-through: the inner cohort lock is
    /// built exactly as `CohortLock::with_policy` would build it).
    pub fn with_policy(topo: Arc<Topology>, spec: PolicySpec) -> Self {
        Self::with_tuning(topo, spec, FissileTuning::default())
    }

    /// Creates a fissile lock with both the policy and the fast-path
    /// tuning explicit.
    pub fn with_tuning(topo: Arc<Topology>, spec: PolicySpec, tuning: FissileTuning) -> Self {
        assert!(tuning.fast_attempts >= 1, "need at least one fast probe");
        assert!(tuning.bypass_bound >= 1, "need at least one bypass round");
        FissileLock {
            word: CachePadded::new(AtomicU32::new(FREE)),
            fence: CachePadded::new(AtomicBool::new(false)),
            fast_acqs: CachePadded::new(AtomicU64::new(0)),
            slow_acqs: CachePadded::new(AtomicU64::new(0)),
            slow: CohortLock::with_policy(topo, spec),
            tuning,
        }
    }
}

impl<G, L> Default for FissileLock<G, L>
where
    G: ThreadOblivious + Default,
    L: LocalCohortLock + Default,
{
    /// Uses the process-wide [`global_topology`].
    fn default() -> Self {
        Self::new(global_topology())
    }
}

impl<G: ThreadOblivious, L: LocalCohortLock> FissileLock<G, L> {
    /// The topology the slow path partitions threads by.
    pub fn topology(&self) -> &Arc<Topology> {
        self.slow.topology()
    }

    /// The slow path's tenure book (policy and counters).
    pub fn policy(&self) -> &Tenures {
        self.slow.policy()
    }

    /// The fast-path tuning in effect.
    pub fn tuning(&self) -> FissileTuning {
        self.tuning
    }

    /// Acquisitions that won the top-level word directly.
    pub fn fast_acquisitions(&self) -> u64 {
        self.fast_acqs.load(Ordering::Relaxed)
    }

    /// Acquisitions that fell into the cohort slow path.
    pub fn slow_acquisitions(&self) -> u64 {
        self.slow_acqs.load(Ordering::Relaxed)
    }

    /// Tenure statistics of the slow path, with the fissile
    /// fast-vs-slow split folded into the snapshot's
    /// `fast_acquisitions`/`slow_acquisitions` fields.
    pub fn cohort_stats(&self) -> CohortStats {
        let mut stats = self.slow.cohort_stats();
        stats.fast_acquisitions = self.fast_acqs.load(Ordering::Relaxed);
        stats.slow_acquisitions = self.slow_acqs.load(Ordering::Relaxed);
        stats
    }

    /// One fast-path CAS attempt (shared by `lock` and `try_lock`).
    #[inline]
    fn fast_cas(&self) -> bool {
        // Relaxed pre-read: pure contention filter, the CAS re-validates.
        self.word.load(Ordering::Relaxed) == FREE
            && self
                .word
                .compare_exchange(FREE, FAST, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// The bounded fast path: up to `fast_attempts` probes, standing
    /// down early when the anti-starvation fence is raised.
    #[inline]
    fn try_fast(&self) -> bool {
        // Relaxed fence read: the fence is advisory throttling — a
        // stale `false` admits one more bounded bypass, a stale `true`
        // costs one unnecessary slow-path trip. Exclusion never depends
        // on it.
        if self.fence.load(Ordering::Relaxed) {
            return false;
        }
        let mut probes = 0u32;
        loop {
            if self.fast_cas() {
                return true;
            }
            probes += 1;
            if probes >= self.tuning.fast_attempts || self.fence.load(Ordering::Relaxed) {
                return false;
            }
            std::hint::spin_loop();
        }
    }

    /// Claims the top-level word for the slow path. Called by the
    /// current cohort-lock holder — the *unique* slow-path claimant —
    /// so at most one thread ever runs this loop at a time, which is
    /// what makes the unconditional fence lowering sound.
    fn claim_word(&self) {
        let mut rounds = 0u32;
        let mut wait = SpinWait::new();
        loop {
            if self
                .word
                .compare_exchange(FREE, SLOW, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
            rounds = rounds.saturating_add(1);
            if rounds == self.tuning.bypass_bound {
                // Bypassed long enough: stall new fast-path acquirers.
                // In-flight ones re-check the fence every probe, so at
                // most one more bounded round of bypasses can land.
                self.fence.store(true, Ordering::Relaxed);
            }
            wait.snooze();
        }
        if rounds >= self.tuning.bypass_bound {
            // We are the only thread that can have raised it (unique
            // claimant); lower it now that the slow path holds the word.
            self.fence.store(false, Ordering::Relaxed);
        }
    }
}

// SAFETY: the word is the sole exclusion point. A critical section is
// entered only after moving it off FREE — by the fast CAS winner
// (FREE→FAST) or by the slow path's claimant (FREE→SLOW), of which there
// is at most one because the inner cohort lock serializes slow-path
// threads. Both entry CASes are Acquire and both releases store FREE
// with Release, so critical sections are totally ordered through the
// word. Deadlock-freedom: the fast path is bounded (falls through to the
// slow path), the cohort lock is deadlock-free (§2), and the claimant's
// CAS loop terminates because every word holder releases in finite time
// and the fence bounds fast-path bypassing.
unsafe impl<G: ThreadOblivious, L: LocalCohortLock> RawLock for FissileLock<G, L> {
    type Token = FissileToken<L::Token>;

    fn lock(&self) -> Self::Token {
        if self.try_fast() {
            add_held(&self.fast_acqs, 1);
            return FissileToken { slow: None };
        }
        // Fission: fall into the NUMA-aware slow path. The cohort lock
        // orders us against other slow-path threads (with local handoffs
        // batching cluster-mates); the word claim orders us against the
        // fast path.
        let inner = self.slow.lock();
        self.claim_word();
        add_held(&self.slow_acqs, 1);
        FissileToken { slow: Some(inner) }
    }

    fn try_lock(&self) -> Option<Self::Token> {
        // A single fast-path probe: a held word (either path) reports
        // busy, which is exact — the word is the exclusion point.
        if self.fence.load(Ordering::Relaxed) {
            // Respect the fence: the slow path is provably populated, so
            // "busy" is the honest answer even if the word is
            // momentarily free.
            return None;
        }
        if self.fast_cas() {
            add_held(&self.fast_acqs, 1);
            return Some(FissileToken { slow: None });
        }
        None
    }

    unsafe fn unlock(&self, token: Self::Token) {
        match token.slow {
            None => {
                // Fast release: publish the critical section and free the
                // word in one Release store.
                self.word.store(FREE, Ordering::Release);
            }
            Some(inner) => {
                // Free the word *before* releasing the cohort lock: the
                // successor (a cluster-mate inheriting via local handoff,
                // or a fresh global acquirer) becomes the next claimant
                // and should find the word available rather than spin
                // behind our queue disposal.
                self.word.store(FREE, Ordering::Release);
                self.slow.release(inner);
            }
        }
    }
}

impl<G: ThreadOblivious, L: LocalCohortLock> Introspect for FissileLock<G, L> {
    fn tenure_stats(&self) -> Option<CohortStats> {
        Some(self.cohort_stats())
    }

    fn policy_label(&self) -> Option<String> {
        Some(self.policy().label())
    }
}

impl<G: ThreadOblivious, L: LocalCohortLock> std::fmt::Debug for FissileLock<G, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FissileLock")
            .field("tuning", &self.tuning)
            .field("slow", &self.slow)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GlobalBoLock;
    use base_locks::McsLock;
    use std::sync::atomic::AtomicU64;

    type Fis = FissileLock<GlobalBoLock, McsLock>;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::new(4))
    }

    #[test]
    fn uncontended_takes_the_fast_path() {
        let l = Fis::new(topo());
        for _ in 0..100 {
            let t = l.lock();
            assert!(t.is_fast());
            unsafe { l.unlock(t) };
        }
        assert_eq!(l.fast_acquisitions(), 100);
        assert_eq!(l.slow_acquisitions(), 0);
        let s = l.cohort_stats();
        assert_eq!(s.fast_acquisitions, 100);
        assert_eq!(s.tenures(), 0, "fast path never touches the cohort");
    }

    #[test]
    fn held_fast_path_forces_slow_path() {
        // The word is claimed out from under everyone else: a second
        // locker must fission into the slow path and block until the
        // fast holder releases — no lost waiter.
        let l = Arc::new(Fis::with_tuning(
            topo(),
            PolicySpec::paper_default(),
            FissileTuning {
                fast_attempts: 2,
                bypass_bound: 4,
            },
        ));
        let t = l.lock();
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let t2 = l2.lock();
            assert!(!t2.is_fast(), "held word must route to the slow path");
            unsafe { l2.unlock(t2) };
        });
        // Wait until the waiter holds the cohort lock and has failed
        // `bypass_bound` word claims (it raises the fence then) — only
        // then release the word.
        while !l.fence.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        unsafe { l.unlock(t) };
        waiter.join().unwrap();
        assert_eq!(l.slow_acquisitions(), 1);
    }

    #[test]
    fn spinner_losing_the_word_fissions_and_completes() {
        // The simplest adversarial shape of "no lost waiters": a thread
        // that finds the word held under the tightest tuning must fission
        // into the slow path and still acquire once the holder releases.
        let l = Arc::new(Fis::with_tuning(
            Arc::new(Topology::new(2)),
            PolicySpec::Count { bound: 4 },
            FissileTuning {
                fast_attempts: 1,
                bypass_bound: 1,
            },
        ));
        let t = l.lock();
        assert_eq!(l.fast_acquisitions(), 1);
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let t2 = l2.lock();
            unsafe { l2.unlock(t2) };
        });
        // The waiter can only get in through the slow path; its first
        // failed claim raises the fence, then release the word.
        while !l.fence.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        unsafe { l.unlock(t) };
        waiter.join().unwrap();
        assert_eq!(l.slow_acquisitions(), 1, "the loser went slow");
        // The lock is fully reusable afterwards (fast path restored).
        let t = l.lock();
        unsafe { l.unlock(t) };
        assert_eq!(l.fast_acquisitions(), 2);
    }

    #[test]
    fn try_lock_is_exact_on_the_word() {
        let l = Fis::new(topo());
        let t = l.try_lock().expect("free");
        assert!(l.try_lock().is_none(), "held word reports busy");
        unsafe { l.unlock(t) };
        let t = l.try_lock().expect("free again");
        unsafe { l.unlock(t) };
    }

    #[test]
    fn fence_bounds_fast_path_bypass() {
        // Adversarial schedule: hammer threads re-take the word through
        // the fast path as quickly as they can while victims go through
        // lock() from a cold start. Without the fence the victims'
        // slow-path claims could be bypassed indefinitely; with it every
        // victim completes. (The run *finishing* is the assertion.)
        let l = Arc::new(Fis::with_tuning(
            topo(),
            PolicySpec::paper_default(),
            FissileTuning {
                fast_attempts: 1,
                bypass_bound: 2,
            },
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let t = l.lock();
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        let victims: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let t = l.lock();
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for v in victims {
            v.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for h in hammers {
            h.join().unwrap();
        }
        // The lock is still coherent afterwards.
        let t = l.lock();
        unsafe { l.unlock(t) };
        assert!(!l.fence.load(Ordering::Relaxed), "fence lowered at rest");
    }

    #[test]
    fn mixed_paths_keep_mutual_exclusion() {
        let l = Arc::new(Fis::with_tuning(
            topo(),
            PolicySpec::Count { bound: 8 },
            FissileTuning {
                fast_attempts: 4,
                bypass_bound: 4,
            },
        ));
        let a = Arc::new(AtomicU64::new(0));
        let b = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        let t = l.lock();
                        let va = a.load(Ordering::Relaxed);
                        let vb = b.load(Ordering::Relaxed);
                        assert_eq!(va, vb, "mutual exclusion violated");
                        a.store(va + 1, Ordering::Relaxed);
                        std::hint::spin_loop();
                        b.store(vb + 1, Ordering::Relaxed);
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.load(Ordering::Relaxed), 4_000);
        assert_eq!(l.fast_acquisitions() + l.slow_acquisitions(), 4_000);
        // Slow-path conservation: every slow acquisition is a tenure
        // start or a local inheritance, exactly as for a plain cohort
        // lock (a tenure that never ended would leave the sum short).
        let s = l.cohort_stats();
        assert_eq!(s.tenures() + s.local_handoffs(), s.slow_acquisitions);
    }

    #[test]
    fn policy_passes_through_to_the_slow_path() {
        let l = Fis::with_policy(topo(), PolicySpec::Count { bound: 3 });
        assert_eq!(l.policy().label(), "count(3)");
        let t = l.lock();
        unsafe { l.unlock(t) };
        assert!(l.cohort_stats().max_streak() <= 3);
    }

    #[test]
    fn debug_formats() {
        let l = Fis::new(topo());
        let s = format!("{l:?}");
        assert!(s.contains("FissileLock"), "{s}");
        assert!(s.contains("tuning"), "{s}");
    }
}
