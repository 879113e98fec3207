//! The **GCR admission layer**: Generic Concurrency Restriction over any
//! inner lock, killing scalability collapse when threads ≫ cores.
//!
//! Every lock in this repository — queue, cohort, fissile — admits *all*
//! arriving threads to the contention path. Once the machine is
//! oversubscribed that is exactly wrong: each admitted thread costs
//! scheduler churn, lock-word traffic, and (for queue locks) a handoff to
//! a waiter that may not even be running. *Avoiding Scalability Collapse
//! by Restricting Concurrency* (Dice & Kogan, arXiv:1905.10818) shows a
//! lock-agnostic fix: admit roughly **one waiter per NUMA cluster** to
//! the contention path and park the surplus on a passive list, rotating
//! parked threads in periodically for long-term fairness.
//!
//! [`GcrLock<K>`] wraps any [`RawLock`] `K` with that admission layer:
//!
//! * **active set** — per cluster, at most
//!   [`GcrTuning::active_per_cluster`] threads hold an *admission grant*
//!   and compete for the inner lock. A grant is **sticky**: it lives in
//!   thread-local storage and survives across lock/unlock cycles, so an
//!   admitted thread re-acquires at plain inner-lock cost until a
//!   rotation culls it (or the thread exits, which gives the slot back).
//!   Arrivals beyond the cap divert to the passive list.
//! * **passive list** — a per-cluster MPSC list (lock-free multi-producer
//!   push; pops happen only in the release path, *while the inner lock
//!   is still held*, so there is exactly one consumer at a time). Parked
//!   threads poll gently — [`GcrTuning::passive_spins`] spin-hint rounds,
//!   then timed sleeps (`park_timeout`) that a promotion cuts short with
//!   an `unpark` — watching two exits: a promotion grant, or a freed
//!   slot to claim for themselves (which is what makes a parked thread
//!   impossible to lose: every returned slot is observable by every
//!   parked poller). A bounded barging backstop guarantees admission
//!   even if no slot is ever returned.
//! * **rotation** — each release checks the releasing thread's virtual
//!   clock ([`numa_topology::vclock`]) against its cluster's epoch
//!   stamp; once [`GcrTuning::epoch_ns`] has elapsed, the releaser
//!   **culls itself**: it surrenders its sticky grant, the grant funds
//!   the promotion of the longest-parked cluster-mate (a swap, not
//!   growth), and up to [`GcrTuning::promotion_budget`] further waiters
//!   are promoted if free slots allow. This bounds how long a parked
//!   thread waits regardless of how hot the active set runs.
//! * **self-deactivation** — while the layer is disengaged (no surplus
//!   anywhere) an acquisition is a single `try_lock` on the inner lock:
//!   the admission machinery costs nothing until contention actually
//!   engages it, and the release path disengages again once the passive
//!   population drains to zero.
//!
//! Mutual exclusion is carried **entirely by the inner lock**; the
//! admission layer only throttles who gets to compete for it. That is
//! what makes the wrapper generic: `GcrLock<McsLock>` restricts a plain
//! queue lock, `GcrLock<CBoMcs>` a cohort lock, `GcrLock<FisBoMcs>` a
//! fissile lock (aliases [`GcrMcs`](crate::GcrMcs),
//! [`GcrCBoMcs`](crate::GcrCBoMcs), [`GcrFisBoMcs`](crate::GcrFisBoMcs)).
//!
//! Park/promotion accounting is surfaced through the ordinary
//! [`CohortStats`] snapshot (`passive_parks` / `promotions`); the inner
//! lock's own counters pass through via [`Introspect`].
//!
//! Two usage caveats follow from the sticky-grant design. Tokens should
//! be released on the thread that acquired them — an off-thread release
//! skips the rotation cull gracefully (the grant belongs to the
//! acquiring thread's TLS) but then fairness rests on the barging
//! backstop alone. And a thread that migrates clusters between
//! acquisitions keeps competing under its *original* cluster's budget
//! until a rotation re-admits it where it now runs.

use crate::policy::{CohortStats, Introspect};
use base_locks::{RawLock, SpinWait};
use crossbeam_utils::CachePadded;
use numa_topology::{current_cluster_in, vclock, ClusterId, Topology};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Passive-node states. Exactly one of the two terminal transitions wins
/// (both are CASes from `WAITING`), so a parked thread is admitted once,
/// never twice and never zero times.
const WAITING: u8 = 0;
/// A rotation popped the node and transferred an admission slot.
const ADMITTED: u8 = 1;
/// The parked thread claimed a slot itself (freed, or barged); the node
/// left in the list is garbage a later pop culls.
const CLAIMED: u8 = 2;

/// How long one timed sleep of a parked thread lasts. Promotions cut it
/// short with an `unpark`; the timeout only bounds how stale a parked
/// thread's view of the slot counter can get.
const PASSIVE_PARK: Duration = Duration::from_micros(50);

/// Timed-sleep rounds a parked thread tolerates past its spin budget
/// before it barges (over-admits itself) — roughly a second of wall
/// time. Pure liveness backstop: with rotation running (or any slot
/// coming back) this never fires, and it must sit well past the worst
/// legitimate rotation wait, or heavy oversubscription turns into a
/// mass barge that un-restricts the lock.
const BARGE_PARK_ROUNDS: u32 = 20_000;

/// Source of unique [`GcrLock`] identities, keying the thread-local
/// grant records (a thread may hold grants on several GCR locks).
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Tuning knobs of the GCR admission layer (see the module docs; exposed
/// to the benches as the `LBENCH_GCR_*` environment knobs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcrTuning {
    /// Admission slots per cluster: how many threads of one cluster may
    /// compete for the inner lock at once (the holder included). The
    /// paper's "~one waiter per cluster" is the default `1`.
    pub active_per_cluster: u32,
    /// Rotation epoch in **virtual** nanoseconds: once this much virtual
    /// time has passed since a cluster's last rotation, the next release
    /// from that cluster culls its own sticky grant and promotes parked
    /// threads with it.
    pub epoch_ns: u64,
    /// Parked threads promoted per rotation. The culled releaser's slot
    /// funds the first; further promotions only happen when free slots
    /// exist (rotation never over-admits).
    pub promotion_budget: u32,
    /// Spin-hint rounds of a parked thread's poll loop before it
    /// escalates to timed sleeps — the "slow spin" that keeps the
    /// passive population off the lock and off the CPU.
    pub passive_spins: u32,
}

impl GcrTuning {
    /// Default admission slots per cluster (the paper's shape).
    pub const DEFAULT_ACTIVE_PER_CLUSTER: u32 = 1;
    /// Default rotation epoch: 100 µs of virtual time.
    pub const DEFAULT_EPOCH_NS: u64 = 100_000;
    /// Default promotions per rotation.
    pub const DEFAULT_PROMOTION_BUDGET: u32 = 1;
    /// Default passive spin-hint budget before timed sleeps.
    pub const DEFAULT_PASSIVE_SPINS: u32 = 32;
}

impl Default for GcrTuning {
    fn default() -> Self {
        GcrTuning {
            active_per_cluster: Self::DEFAULT_ACTIVE_PER_CLUSTER,
            epoch_ns: Self::DEFAULT_EPOCH_NS,
            promotion_budget: Self::DEFAULT_PROMOTION_BUDGET,
            passive_spins: Self::DEFAULT_PASSIVE_SPINS,
        }
    }
}

/// One parked thread's list entry. The list holds one `Arc` reference
/// (installed at push, dropped by the pop that removes the node) and the
/// parked thread holds another, so a popped pointer is always backed by
/// live memory even if its thread self-claimed and moved on.
struct PassiveNode {
    /// `WAITING` → `ADMITTED` (popped by a rotation) or `CLAIMED`
    /// (thread claimed a slot itself).
    state: AtomicU8,
    /// Intrusive link: next-younger node in the inbox, next-older in the
    /// outbox (the pop path reverses stolen batches).
    next: AtomicPtr<PassiveNode>,
    /// The parked thread, for the promotion `unpark` that cuts its timed
    /// sleep short.
    thread: std::thread::Thread,
}

impl PassiveNode {
    fn new() -> Arc<Self> {
        Arc::new(PassiveNode {
            state: AtomicU8::new(WAITING),
            next: AtomicPtr::new(std::ptr::null_mut()),
            thread: std::thread::current(),
        })
    }
}

/// Per-cluster admission state: the slot counter, the rotation-epoch
/// stamp, and the two-stack MPSC passive list (lock-free LIFO inbox for
/// producers; the single consumer steals and reverses it into the
/// outbox, so pops come out **FIFO** — the oldest parked thread is
/// promoted first).
struct ClusterAdmission {
    /// Threads of this cluster currently holding an admission grant.
    /// Capped at `active_per_cluster`, with bounded barging overshoot.
    active: CachePadded<AtomicU32>,
    /// Virtual timestamp of this cluster's last rotation (written only
    /// in the release path, under the inner lock).
    last_rotation: CachePadded<AtomicU64>,
    /// Producer end of the passive list (Treiber push).
    inbox: CachePadded<AtomicPtr<PassiveNode>>,
    /// Consumer end: stolen, reversed inbox batches. Touched only by the
    /// serialized pop path.
    outbox: CachePadded<AtomicPtr<PassiveNode>>,
}

impl ClusterAdmission {
    fn new() -> Self {
        ClusterAdmission {
            active: CachePadded::new(AtomicU32::new(0)),
            last_rotation: CachePadded::new(AtomicU64::new(0)),
            inbox: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
            outbox: CachePadded::new(AtomicPtr::new(std::ptr::null_mut())),
        }
    }
}

/// The shared admission state of one [`GcrLock`], `Arc`-owned so the
/// thread-local grant records can hold `Weak` references back to it
/// (thread exit gives slots back; a dropped lock invalidates its
/// grants).
struct AdmissionState {
    /// Whether the admission layer is engaged. Disengaged acquisitions
    /// are one inner `try_lock`; the first arrival that finds the inner
    /// lock busy engages the layer.
    engaged: CachePadded<AtomicBool>,
    /// Parked threads across all clusters (drives disengagement).
    parked_total: CachePadded<AtomicU32>,
    /// Park events (relaxed: statistics only).
    passive_parks: CachePadded<AtomicU64>,
    /// Promotion grants (relaxed: statistics only).
    promotions: CachePadded<AtomicU64>,
    /// Per-cluster slot counters and passive lists.
    clusters: Box<[ClusterAdmission]>,
    tuning: GcrTuning,
    /// Unique lock identity keying the thread-local grant records.
    id: u64,
}

impl AdmissionState {
    /// Tries to take one admission slot of `cl` (CAS-increment while
    /// under the cap). Relaxed: the counter only throttles — exclusion
    /// is the inner lock's, so a torn read costs at most one extra
    /// park or one early admission.
    fn try_claim_slot(&self, cl: &ClusterAdmission) -> bool {
        let cap = self.tuning.active_per_cluster;
        let mut cur = cl.active.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                return false;
            }
            match cl.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Lock-free producer push onto `cl`'s passive inbox. The Release
    /// CAS publishes the node's `next` link to the consumer's Acquire
    /// steal.
    fn push_passive(&self, cl: &ClusterAdmission, node: &Arc<PassiveNode>) {
        let ptr = Arc::into_raw(Arc::clone(node)) as *mut PassiveNode;
        let mut head = cl.inbox.load(Ordering::Relaxed);
        loop {
            // SAFETY: `ptr` is the still-owned Arc we are publishing.
            unsafe { (*ptr).next.store(head, Ordering::Relaxed) };
            match cl
                .inbox
                .compare_exchange_weak(head, ptr, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => head = seen,
            }
        }
    }

    /// Pops the **oldest** parked node of `cl`.
    ///
    /// Must only be called while holding the inner lock (the release
    /// path does), which serializes consumers: the outbox is effectively
    /// consumer-private, and a node's memory cannot be freed under a
    /// concurrent pop because only pops drop the list's Arc reference.
    fn pop_passive(&self, cl: &ClusterAdmission) -> Option<Arc<PassiveNode>> {
        let mut out = cl.outbox.load(Ordering::Relaxed);
        if out.is_null() {
            // Steal the whole inbox and reverse it: LIFO push order
            // becomes FIFO pop order, so rotation promotes the
            // longest-parked thread first.
            let mut stolen = cl.inbox.swap(std::ptr::null_mut(), Ordering::Acquire);
            let mut rev: *mut PassiveNode = std::ptr::null_mut();
            while !stolen.is_null() {
                // SAFETY: nodes between steal and re-link are reachable
                // only through this (serialized) consumer.
                let next = unsafe { (*stolen).next.load(Ordering::Relaxed) };
                unsafe { (*stolen).next.store(rev, Ordering::Relaxed) };
                rev = stolen;
                stolen = next;
            }
            out = rev;
        }
        if out.is_null() {
            return None;
        }
        // SAFETY: the list's own Arc reference keeps `out` alive; we are
        // the only consumer, so nobody popped it concurrently.
        let next = unsafe { (*out).next.load(Ordering::Relaxed) };
        cl.outbox.store(next, Ordering::Relaxed);
        // SAFETY: reclaiming the reference `push_passive` leaked.
        Some(unsafe { Arc::from_raw(out) })
    }

    /// Pops passive nodes until one is successfully admitted
    /// (`WAITING → ADMITTED`), culling self-claimed garbage along the
    /// way, and wakes the winner. Runs under the inner lock.
    fn promote_one(&self, cl: &ClusterAdmission) -> bool {
        while let Some(node) = self.pop_passive(cl) {
            if node
                .state
                .compare_exchange(WAITING, ADMITTED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.promotions.fetch_add(1, Ordering::Relaxed);
                // The Release half of the CAS publishes the grant; the
                // unpark cuts the winner's timed sleep short.
                node.thread.unpark();
                return true;
            }
        }
        false
    }

    /// Rotation, run by a releaser whose sticky grant was just culled
    /// from its thread-local records (so its slot — still counted in
    /// `active` — is ours to hand over). Promotes the longest-parked
    /// cluster-mate on the culled slot, then up to `promotion_budget`
    /// further waiters on genuinely free slots; sheds barging overshoot
    /// instead of promoting when over cap. Runs under the inner lock.
    fn rotate(&self, cl: &ClusterAdmission) {
        if cl.active.load(Ordering::Relaxed) > self.tuning.active_per_cluster {
            // Barging pushed the cluster over cap: retire our slot to
            // decay the overshoot instead of passing it on.
            cl.active.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        if !self.promote_one(cl) {
            // Nobody parked here: free the slot for self-claimers.
            cl.active.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let mut promoted = 1;
        while promoted < self.tuning.promotion_budget {
            // Further promotions are capacity-gated — rotation itself
            // never over-admits.
            if !self.try_claim_slot(cl) {
                break;
            }
            if self.promote_one(cl) {
                promoted += 1;
            } else {
                cl.active.fetch_sub(1, Ordering::Relaxed);
                break;
            }
        }
    }
}

impl Drop for AdmissionState {
    /// Reclaims leftover self-claimed nodes (their threads are long
    /// gone; the lock dropping rules out live waiters).
    fn drop(&mut self) {
        for cl in self.clusters.iter() {
            for head in [&cl.inbox, &cl.outbox] {
                let mut p = head.load(Ordering::Relaxed);
                while !p.is_null() {
                    // SAFETY: sole owner at drop; reclaiming the pushed
                    // reference.
                    let node = unsafe { Arc::from_raw(p) };
                    p = node.next.load(Ordering::Relaxed);
                }
            }
        }
    }
}

/// One sticky admission grant held by the current thread: which lock
/// (by unique id), which cluster's slot, and a weak path back to the
/// lock so thread exit can give the slot back.
struct Grant {
    lock: u64,
    cluster: ClusterId,
    state: Weak<AdmissionState>,
}

/// The current thread's grant records across all GCR locks.
struct GrantSet(Vec<Grant>);

impl Drop for GrantSet {
    /// Thread exit: give every still-live slot back — this is how a
    /// sticky grant can never be leaked by a thread that stops locking.
    fn drop(&mut self) {
        for g in self.0.drain(..) {
            if let Some(st) = g.state.upgrade() {
                st.clusters[g.cluster.as_usize()]
                    .active
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

thread_local! {
    static GRANTS: RefCell<GrantSet> = const { RefCell::new(GrantSet(Vec::new())) };
}

/// The cluster this thread holds a sticky grant for on lock `id`, if
/// any.
fn find_grant(id: u64) -> Option<ClusterId> {
    GRANTS
        .try_with(|g| {
            g.borrow()
                .0
                .iter()
                .find(|gr| gr.lock == id)
                .map(|gr| gr.cluster)
        })
        .ok()
        .flatten()
}

/// Records a freshly won slot as a sticky grant. Returns `false` when
/// the thread-local store is unusable (thread teardown): the caller
/// must give the slot back immediately, since nothing can remember it.
fn record_grant(state: &Arc<AdmissionState>, cluster: ClusterId) -> bool {
    GRANTS
        .try_with(|g| {
            let mut g = g.borrow_mut();
            // Scrub grants of locks that no longer exist (their slots
            // died with them).
            g.0.retain(|gr| gr.state.strong_count() > 0);
            g.0.push(Grant {
                lock: state.id,
                cluster,
                state: Arc::downgrade(state),
            });
        })
        .is_ok()
}

/// Removes this thread's grant on lock `id` (the rotation cull).
/// Returns whether a grant was actually held — `false` means the token
/// is being released off-thread and the cull must be skipped.
fn take_grant(id: u64) -> bool {
    GRANTS
        .try_with(|g| {
            let mut g = g.borrow_mut();
            match g.0.iter().position(|gr| gr.lock == id) {
                Some(i) => {
                    g.0.swap_remove(i);
                    true
                }
                None => false,
            }
        })
        .unwrap_or(false)
}

/// Per-acquisition token of a [`GcrLock`]: the inner lock's token, plus
/// the cluster whose admission the acquisition went through (`None` when
/// it bypassed the disengaged layer).
pub struct GcrToken<T> {
    inner: T,
    granted: Option<ClusterId>,
}

impl<T> GcrToken<T> {
    /// Whether this acquisition bypassed admission entirely (the layer
    /// was disengaged — the self-deactivated uncontended fast path).
    pub fn is_direct(&self) -> bool {
        self.granted.is_none()
    }
}

/// Generic Concurrency Restriction over any inner [`RawLock`], after
/// Dice & Kogan (arXiv:1905.10818). See the module docs for the
/// protocol: sticky per-cluster admission grants, gently-parked passive
/// lists, virtual-clock rotation, self-deactivation when uncontended.
///
/// Ready-made compositions: [`GcrMcs`](crate::GcrMcs) (over a plain MCS
/// queue), [`GcrCBoMcs`](crate::GcrCBoMcs) (over the paper's best cohort
/// lock), [`GcrFisBoMcs`](crate::GcrFisBoMcs) (over the fissile
/// fast-path lock).
///
/// ```
/// use cohort::gcr::{GcrLock, GcrTuning};
/// use base_locks::{McsLock, RawLock};
/// use numa_topology::Topology;
/// use std::sync::Arc;
///
/// let lock = GcrLock::over(Arc::new(Topology::new(4)), McsLock::new());
/// let t = lock.lock();                    // uncontended: one inner try_lock
/// assert!(t.is_direct(), "disengaged layer bypasses admission");
/// assert!(lock.try_lock().is_none(), "held: mutual exclusion is the inner lock's");
/// // SAFETY: token from this lock's own `lock()`.
/// unsafe { lock.unlock(t) };
/// assert_eq!(lock.passive_parks(), 0);
/// assert_eq!(lock.tuning(), GcrTuning::default());
/// ```
pub struct GcrLock<K> {
    /// The shared admission state (`Arc`: thread-local grants hold weak
    /// references for exit-time giveback).
    state: Arc<AdmissionState>,
    topo: Arc<Topology>,
    /// The wrapped lock — the sole exclusion point.
    inner: K,
}

impl<K: RawLock> GcrLock<K> {
    /// Wraps `inner` with the default admission tuning over `topo`.
    pub fn over(topo: Arc<Topology>, inner: K) -> Self {
        Self::with_tuning(topo, inner, GcrTuning::default())
    }

    /// Wraps `inner` with an explicit [`GcrTuning`].
    pub fn with_tuning(topo: Arc<Topology>, inner: K, tuning: GcrTuning) -> Self {
        assert!(
            tuning.active_per_cluster >= 1,
            "need at least one admission slot per cluster"
        );
        assert!(tuning.epoch_ns >= 1, "rotation epoch must be positive");
        assert!(
            tuning.promotion_budget >= 1,
            "rotation must promote at least one thread"
        );
        let clusters = (0..topo.clusters())
            .map(|_| ClusterAdmission::new())
            .collect();
        GcrLock {
            state: Arc::new(AdmissionState {
                engaged: CachePadded::new(AtomicBool::new(false)),
                parked_total: CachePadded::new(AtomicU32::new(0)),
                passive_parks: CachePadded::new(AtomicU64::new(0)),
                promotions: CachePadded::new(AtomicU64::new(0)),
                clusters,
                tuning,
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            }),
            topo,
            inner,
        }
    }

    /// The topology the admission layer partitions threads by.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The wrapped inner lock.
    pub fn inner(&self) -> &K {
        &self.inner
    }

    /// The admission tuning in effect.
    pub fn tuning(&self) -> GcrTuning {
        self.state.tuning
    }

    /// Arrivals diverted to a passive list so far.
    pub fn passive_parks(&self) -> u64 {
        self.state.passive_parks.load(Ordering::Relaxed)
    }

    /// Parked threads promoted into the active set so far.
    pub fn promotions(&self) -> u64 {
        self.state.promotions.load(Ordering::Relaxed)
    }

    /// Whether the admission layer is currently engaged (racy snapshot;
    /// for monitoring only).
    pub fn is_engaged(&self) -> bool {
        self.state.engaged.load(Ordering::Relaxed)
    }

    /// Admission grants currently out on `cluster` (racy snapshot; for
    /// monitoring and tests — after every user thread has exited this
    /// returns 0, the sticky-grant giveback invariant).
    pub fn active_in(&self, cluster: usize) -> u32 {
        self.state.clusters[cluster].active.load(Ordering::Relaxed)
    }

    /// Records a freshly won slot as this thread's sticky grant; if the
    /// thread-local store is gone (teardown-time locking), returns the
    /// slot instead so the counter stays balanced.
    fn grant(&self, cluster: ClusterId) {
        if !record_grant(&self.state, cluster) {
            self.state.clusters[cluster.as_usize()]
                .active
                .fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Admission: claim a slot immediately or park on the passive list
    /// until one is granted (promotion), freed (self-claim), or the
    /// barging backstop fires. Returns the cluster whose slot the
    /// caller now holds — recorded as a sticky grant.
    fn admit(&self, cluster: ClusterId) -> ClusterId {
        let st = &*self.state;
        let cl = &st.clusters[cluster.as_usize()];
        if st.try_claim_slot(cl) {
            self.grant(cluster);
            return cluster;
        }
        // Surplus arrival: park.
        let node = PassiveNode::new();
        st.parked_total.fetch_add(1, Ordering::Relaxed);
        st.passive_parks.fetch_add(1, Ordering::Relaxed);
        st.push_passive(cl, &node);
        let spins = st.tuning.passive_spins;
        let mut wait = SpinWait::with_spin_rounds(spins);
        let mut rounds: u32 = 0;
        loop {
            // Exit 1: a rotation handed us a slot.
            if node.state.load(Ordering::Acquire) == ADMITTED {
                break;
            }
            // Exit 2: a slot is free (its holder exited, or a rotation
            // found nobody to promote) — claim it ourselves. This is
            // the no-lost-waiter guarantee: every returned slot is
            // visible to every parked poller, so a parked thread
            // survives even a releaser that saw an empty list a moment
            // before we pushed.
            if st.try_claim_slot(cl) {
                if node
                    .state
                    .compare_exchange(WAITING, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // Our node stays in the list as garbage; a later pop
                    // culls it (and its memory stays valid: the list
                    // holds its own Arc reference).
                    break;
                }
                // A rotation admitted us in the same instant: we now
                // hold two slots. Return the self-claimed one.
                cl.active.fetch_sub(1, Ordering::Relaxed);
                break;
            }
            // Exit 3: the barging backstop. If no slot has come back
            // for a long stretch of timed sleeps (sticky holders can
            // sit on their grants indefinitely when rotation is idle),
            // over-admit ourselves; the next rotation sheds the
            // overshoot.
            if rounds >= spins.saturating_add(BARGE_PARK_ROUNDS) {
                cl.active.fetch_add(1, Ordering::Relaxed);
                if node
                    .state
                    .compare_exchange(WAITING, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // Raced with a rotation grant: keep that one.
                    cl.active.fetch_sub(1, Ordering::Relaxed);
                }
                break;
            }
            rounds += 1;
            if rounds <= spins {
                wait.snooze();
            } else {
                std::thread::park_timeout(PASSIVE_PARK);
            }
        }
        st.parked_total.fetch_sub(1, Ordering::Relaxed);
        self.grant(cluster);
        cluster
    }

    /// The release-path admission bookkeeping: rotation (epoch expired
    /// for this cluster) culls the caller's sticky grant and promotes
    /// parked threads with it; disengages the layer once the passive
    /// population is gone. Must run while still holding the inner lock
    /// (that is what serializes the passive list's consumer side).
    fn leave_active(&self, cluster: ClusterId) {
        let st = &*self.state;
        let cl = &st.clusters[cluster.as_usize()];
        let now = vclock::now();
        let last = cl.last_rotation.load(Ordering::Relaxed);
        if now.saturating_sub(last) >= st.tuning.epoch_ns {
            // Serialized by the inner lock: a plain store suffices.
            cl.last_rotation.store(now, Ordering::Relaxed);
            // Cull our sticky grant and rotate on it. An off-thread
            // release finds no grant to cull and skips the rotation —
            // the slot belongs to the acquiring thread's records.
            if take_grant(st.id) {
                st.rotate(cl);
            }
        }
        if st.parked_total.load(Ordering::Relaxed) == 0 {
            // Quiescent: self-deactivate so the fast path goes back to
            // one inner try_lock. Racy by design — a parker that lands
            // just after this read still self-claims via its poll loop.
            st.engaged.store(false, Ordering::Relaxed);
        }
    }
}

impl<K: RawLock + Introspect> GcrLock<K> {
    /// The inner lock's statistics snapshot (empty for a plain inner
    /// lock) with the admission layer's park/promotion counters folded
    /// in.
    pub fn cohort_stats(&self) -> CohortStats {
        let mut stats = self.inner.tenure_stats().unwrap_or_default();
        stats.passive_parks = self.passive_parks();
        stats.promotions = self.promotions();
        stats
    }
}

/// The wrapper always has counters of its own to report, and labels a
/// policy-less inner lock `"-"`.
impl<K: RawLock + Introspect> Introspect for GcrLock<K> {
    fn tenure_stats(&self) -> Option<CohortStats> {
        Some(self.cohort_stats())
    }

    fn policy_label(&self) -> Option<String> {
        Some(self.inner.policy_label().unwrap_or_else(|| "-".into()))
    }
}

// SAFETY: mutual exclusion is the inner lock's — every path returns a
// token wrapping a token from `inner.lock()`/`inner.try_lock()`, and
// `unlock` forwards to `inner.unlock` exactly once. The admission layer
// only decides *when* a thread calls into the inner lock. Deadlock
// freedom: a parked thread always terminates its poll loop — through a
// freed slot (thread-exit giveback and empty rotations return slots,
// and the poll observes the counter directly), through a rotation
// grant, or at worst through the bounded barging backstop — and the
// inner lock is deadlock-free by its own contract.
unsafe impl<K: RawLock> RawLock for GcrLock<K> {
    type Token = GcrToken<K::Token>;

    fn lock(&self) -> Self::Token {
        let st = &self.state;
        // Disengaged fast path: one inner try_lock, no admission state
        // touched. Relaxed: the flag is advisory — a stale `false` costs
        // one try_lock before engaging, a stale `true` one admission
        // round trip.
        if !st.engaged.load(Ordering::Relaxed) {
            if let Some(inner) = self.inner.try_lock() {
                return GcrToken {
                    inner,
                    granted: None,
                };
            }
            // Contention observed: engage the admission layer.
            st.engaged.store(true, Ordering::Relaxed);
        }
        // Sticky fast path: a thread already holding a grant on this
        // lock re-enters at plain inner-lock cost — no admission
        // traffic until a rotation culls it.
        let cluster = match find_grant(st.id) {
            Some(held) => held,
            None => self.admit(current_cluster_in(&self.topo)),
        };
        let inner = self.inner.lock();
        GcrToken {
            inner,
            granted: Some(cluster),
        }
    }

    fn try_lock(&self) -> Option<Self::Token> {
        // A try is never worth parking for: probe the inner lock
        // directly (exactness is the inner lock's).
        self.inner.try_lock().map(|inner| GcrToken {
            inner,
            granted: None,
        })
    }

    unsafe fn unlock(&self, token: Self::Token) {
        if let Some(cluster) = token.granted {
            // Admission bookkeeping (and passive-list pops) happen while
            // the inner lock is still held — that is what serializes the
            // list's consumer side.
            self.leave_active(cluster);
        }
        // SAFETY: forwarded from this lock's own lock()/try_lock().
        unsafe { self.inner.unlock(token.inner) };
    }
}

impl<K> std::fmt::Debug for GcrLock<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcrLock")
            .field("tuning", &self.state.tuning)
            .field("engaged", &self.state.engaged.load(Ordering::Relaxed))
            .field(
                "passive_parks",
                &self.state.passive_parks.load(Ordering::Relaxed),
            )
            .field("promotions", &self.state.promotions.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySpec;
    use crate::{CBoMcs, FisBoMcs};
    use base_locks::McsLock;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    type Gcr = GcrLock<McsLock>;

    fn topo() -> Arc<Topology> {
        Arc::new(Topology::new(4))
    }

    #[test]
    fn uncontended_stays_disengaged() {
        let l = Gcr::over(topo(), McsLock::new());
        for _ in 0..100 {
            let t = l.lock();
            assert!(t.is_direct(), "no contention: admission bypassed");
            unsafe { l.unlock(t) };
        }
        assert!(!l.is_engaged());
        assert_eq!(l.passive_parks(), 0);
        assert_eq!(l.promotions(), 0);
        let s = l.cohort_stats();
        assert_eq!(s.passive_parks, 0);
        assert_eq!(s.promotions, 0);
    }

    #[test]
    fn contention_engages_and_then_deactivates() {
        let l = Arc::new(Gcr::over(topo(), McsLock::new()));
        let t = l.lock();
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let t2 = l2.lock();
            assert!(!t2.is_direct(), "busy inner lock engages admission");
            unsafe { l2.unlock(t2) };
        });
        while !l.is_engaged() {
            std::thread::yield_now();
        }
        unsafe { l.unlock(t) };
        waiter.join().unwrap();
        // The waiter's release saw an empty passive list: disengaged.
        let t = l.lock();
        assert!(t.is_direct(), "layer self-deactivated at quiescence");
        unsafe { l.unlock(t) };
    }

    #[test]
    fn try_lock_probes_the_inner_lock_exactly() {
        let l = Gcr::over(topo(), McsLock::new());
        let t = l.try_lock().expect("free");
        assert!(l.try_lock().is_none(), "held inner lock reports busy");
        unsafe { l.unlock(t) };
        let t = l.try_lock().expect("free again");
        unsafe { l.unlock(t) };
    }

    #[test]
    fn surplus_arrivals_park_and_all_complete() {
        // Cap of one slot on one cluster: with 4 threads, at least some
        // arrivals must divert to the passive list, and the run
        // completing at the right count is the no-lost-waiter evidence.
        let topo = Arc::new(Topology::new(1));
        let l = Arc::new(Gcr::with_tuning(
            Arc::clone(&topo),
            McsLock::new(),
            GcrTuning {
                active_per_cluster: 1,
                passive_spins: 4,
                ..GcrTuning::default()
            },
        ));
        let count = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                let count = Arc::clone(&count);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..300 {
                        let t = l.lock();
                        count.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(count.load(Ordering::Relaxed), 1_200);
        assert!(l.passive_parks() > 0, "cap 1 must have parked someone");
        // Every sticky grant died with its thread (TLS giveback).
        assert_eq!(l.active_in(0), 0, "thread exit returned every slot");
    }

    #[test]
    fn sticky_grants_do_not_repark_between_ops() {
        // Without rotation (the virtual clock never advances past the
        // epoch), an admitted thread keeps its grant across
        // acquisitions: parks happen per *thread*, not per acquisition
        // (the churn the first design suffered from).
        let topo = Arc::new(Topology::new(1));
        let l = Arc::new(Gcr::with_tuning(
            Arc::clone(&topo),
            McsLock::new(),
            GcrTuning {
                active_per_cluster: 1,
                passive_spins: 4,
                ..GcrTuning::default()
            },
        ));
        let count = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                let count = Arc::clone(&count);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for _ in 0..400 {
                        let t = l.lock();
                        count.fetch_add(1, Ordering::Relaxed);
                        std::thread::yield_now();
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(count.load(Ordering::Relaxed), 800);
        assert!(
            l.passive_parks() <= 4,
            "sticky grants park per thread, not per acquisition: {} parks",
            l.passive_parks()
        );
        assert_eq!(l.active_in(0), 0);
    }

    #[test]
    fn rotation_promotes_parked_threads() {
        // Advance the releaser's virtual clock past the epoch on every
        // critical section: each release becomes a rotation, so parked
        // threads must be promoted (not merely self-claim).
        let topo = Arc::new(Topology::new(1));
        let l = Arc::new(Gcr::with_tuning(
            Arc::clone(&topo),
            McsLock::new(),
            GcrTuning {
                active_per_cluster: 1,
                epoch_ns: 1,
                promotion_budget: 2,
                passive_spins: 64,
            },
        ));
        let barrier = Arc::new(Barrier::new(3));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let l = Arc::clone(&l);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    vclock::reset();
                    barrier.wait();
                    for _ in 0..200 {
                        let t = l.lock();
                        vclock::advance(10);
                        // Deschedule while holding so arrivals actually
                        // collide (single-core boxes timeslice whole
                        // loops between preemption points otherwise).
                        std::thread::yield_now();
                        unsafe { l.unlock(t) };
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            l.promotions() > 0,
            "every release rotated; someone was parked"
        );
        let s = l.cohort_stats();
        assert_eq!(s.promotions, l.promotions());
        assert_eq!(s.passive_parks, l.passive_parks());
        assert_eq!(l.active_in(0), 0, "rotation culls and exits balance out");
    }

    #[test]
    fn mutual_exclusion_through_the_wrapper() {
        let l = Arc::new(Gcr::with_tuning(
            topo(),
            McsLock::new(),
            GcrTuning {
                active_per_cluster: 1,
                epoch_ns: 50,
                ..GcrTuning::default()
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
                        vclock::advance(25);
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
    }

    #[test]
    fn stats_pass_through_cohort_and_fissile_inners() {
        let topo = topo();
        let l = GcrLock::over(Arc::clone(&topo), CBoMcs::new(Arc::clone(&topo)));
        let t = l.lock();
        unsafe { l.unlock(t) };
        let s = l.cohort_stats();
        assert_eq!(s.tenures(), 1, "inner cohort counters pass through");
        assert_eq!(l.policy_label().as_deref(), Some("count(64)"));

        let l = GcrLock::over(Arc::clone(&topo), FisBoMcs::new(Arc::clone(&topo)));
        let t = l.lock();
        unsafe { l.unlock(t) };
        let s = l.cohort_stats();
        assert_eq!(s.fast_acquisitions, 1, "inner fissile split passes through");
    }

    #[test]
    fn policy_label_of_dyn_policy_inner() {
        let topo = topo();
        let inner = CBoMcs::with_policy(Arc::clone(&topo), PolicySpec::Count { bound: 3 });
        let l = GcrLock::over(Arc::clone(&topo), inner);
        assert_eq!(Introspect::policy_label(&l).as_deref(), Some("count(3)"));
        // The one answer for a policy-less inner lock, concrete type or not.
        let l = Gcr::over(topo, McsLock::new());
        assert_eq!(Introspect::policy_label(&l).as_deref(), Some("-"));
        assert_eq!(l.policy_label().as_deref(), Some("-"));
    }

    #[test]
    fn debug_formats() {
        let l = Gcr::over(topo(), McsLock::new());
        let s = format!("{l:?}");
        assert!(s.contains("GcrLock"), "{s}");
        assert!(s.contains("tuning"), "{s}");
    }
}
