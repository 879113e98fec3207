//! The generic cohort lock — the paper's §2 transformation as one type.

use crate::policy::{wall_ns, CohortStats, Introspect, PolicySpec, Tenures};
use crate::ThreadOblivious;
use base_locks::{LocalCohortLock, RawLock, Release};
use crossbeam_utils::CachePadded;
use numa_topology::{current_cluster_in, global_topology, ClusterId, Topology};
use std::cell::UnsafeCell;
use std::sync::Arc;

/// Holder-private state of a cohort lock.
///
/// Both fields are only ever touched by the thread currently inside the
/// cohort lock's critical section, which is what makes the `UnsafeCell`
/// sound: the global token is stashed by whichever cohort member acquired
/// the global lock and taken by whichever member eventually releases it
/// (thread-obliviousness in action), and the streak counter implements the
/// `may-pass-local` bound and carries the tenure's handoff count to
/// [`Tenures::ended`].
struct HolderState<GT> {
    global_token: Option<GT>,
    streak: u64,
}

/// Per-acquisition token of a [`CohortLock`].
pub struct CohortToken<LT> {
    cluster: ClusterId,
    local: LT,
}

impl<LT> CohortToken<LT> {
    /// The cluster this acquisition ran on.
    pub fn cluster(&self) -> ClusterId {
        self.cluster
    }
}

/// A NUMA-aware lock built from any thread-oblivious global lock `G` and
/// any cohort-detecting local lock `L` — the lock cohorting transformation
/// of Dice, Marathe and Shavit (PPoPP 2012), §2 — under a fairness policy
/// chosen by value ([`PolicySpec`]).
///
/// One instance of `L` exists per NUMA cluster (cache-line padded); `G` is
/// shared. A thread first acquires its cluster's local lock; the state the
/// previous owner left there says whether the cohort still owns `G`
/// ([`Release::Local`]) or `G` must be (re-)acquired ([`Release::Global`]).
/// On release, the lock's [`Tenures`] book (`may_pass_local`) and the
/// local lock's `alone?` predicate decide between a cheap intra-cluster
/// handoff and a global release. The default policy is the paper's
/// 64-consecutive-handoffs rule ([`PolicySpec::paper_default`]).
///
/// Ready-made compositions carry the paper's names: [`CBoBo`],
/// [`CTktTkt`], [`CBoMcs`], [`CTktMcs`], [`CMcsMcs`].
///
/// ```
/// use cohort::{CohortLock, GlobalBoLock, PolicySpec};
/// use base_locks::{McsLock, RawLock}; // lock/unlock live on the RawLock trait
/// use numa_topology::Topology;
/// use std::sync::Arc;
///
/// let topo = Arc::new(Topology::new(4));
/// let lock: CohortLock<GlobalBoLock, McsLock> =
///     CohortLock::with_policy(topo, PolicySpec::Count { bound: 8 });
///
/// let token = lock.lock();
/// assert!(lock.try_lock().is_none(), "held: mutual exclusion");
/// // SAFETY: `token` came from this lock's own `lock()`.
/// unsafe { lock.unlock(token) };
///
/// // Tenure accounting flows through the lock's tenure book.
/// assert_eq!(lock.cohort_stats().tenures(), 1);
/// assert_eq!(lock.policy().spec(), PolicySpec::Count { bound: 8 });
/// ```
///
/// [`CBoBo`]: crate::CBoBo
/// [`CTktTkt`]: crate::CTktTkt
/// [`CBoMcs`]: crate::CBoMcs
/// [`CTktMcs`]: crate::CTktMcs
/// [`CMcsMcs`]: crate::CMcsMcs
pub struct CohortLock<G: ThreadOblivious, L: LocalCohortLock> {
    topo: Arc<Topology>,
    global: G,
    locals: Box<[CachePadded<L>]>,
    /// Padded: every new holder writes `streak`, and no arrival or
    /// release should have to fetch that line back to read `topo`,
    /// `locals` or `policy`.
    holder: CachePadded<UnsafeCell<HolderState<G::Token>>>,
    policy: Tenures,
}

// SAFETY: `holder` is only accessed while holding the lock (see
// HolderState docs); everything else is Sync by construction (`policy` is
// relaxed atomics plus a `Copy` spec). `Send` needs no impl: the global
// token in `holder` is `Send` (`ThreadOblivious`), and so is every field.
unsafe impl<G: ThreadOblivious, L: LocalCohortLock> Sync for CohortLock<G, L> {}

impl<G, L> CohortLock<G, L>
where
    G: ThreadOblivious + Default,
    L: LocalCohortLock + Default,
{
    /// Creates a cohort lock over `topo` under the paper's rule: 64
    /// consecutive local handoffs.
    pub fn new(topo: Arc<Topology>) -> Self {
        Self::with_policy(topo, PolicySpec::paper_default())
    }

    /// Creates a cohort lock under an explicit handoff policy.
    pub fn with_policy(topo: Arc<Topology>, spec: PolicySpec) -> Self {
        let locals = (0..topo.clusters())
            .map(|_| CachePadded::new(L::default()))
            .collect();
        let policy = Tenures::new(spec, topo.clusters(), wall_ns);
        CohortLock {
            topo,
            global: G::default(),
            locals,
            holder: CachePadded::new(UnsafeCell::new(HolderState {
                global_token: None,
                streak: 0,
            })),
            policy,
        }
    }
}

impl<G, L> Default for CohortLock<G, L>
where
    G: ThreadOblivious + Default,
    L: LocalCohortLock + Default,
{
    /// Uses the process-wide [`global_topology`].
    fn default() -> Self {
        Self::new(global_topology())
    }
}

impl<G: ThreadOblivious, L: LocalCohortLock> Introspect for CohortLock<G, L> {
    fn tenure_stats(&self) -> Option<CohortStats> {
        Some(self.cohort_stats())
    }

    fn policy_label(&self) -> Option<String> {
        Some(self.policy.label())
    }
}

impl<G: ThreadOblivious, L: LocalCohortLock> CohortLock<G, L> {
    /// The topology this lock partitions threads by.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The tenure book: the fairness policy in effect and its counters.
    pub fn policy(&self) -> &Tenures {
        &self.policy
    }

    /// Snapshot of the lock's tenure statistics (tenures, local handoffs,
    /// streak lengths — per cluster), maintained in the tenure book's
    /// cache-padded slots.
    pub fn cohort_stats(&self) -> CohortStats {
        self.policy.snapshot()
    }

    /// Acquire path shared by `lock` and `try_lock` once the local lock is
    /// held: reconcile with the global lock according to the inherited
    /// release state.
    ///
    /// SAFETY: caller holds the local lock of `cluster`.
    #[inline]
    unsafe fn finish_acquire(&self, cluster: ClusterId, inherited: Release) {
        match inherited {
            Release::Local => {
                // The cohort already owns the global lock; the token is in
                // the stash. Extend the tenure. (Holder access is sound:
                // the local handoff's release/acquire edge ordered the
                // previous owner's stash writes before us.)
                let holder = &mut *self.holder.get();
                debug_assert!(
                    holder.global_token.is_some(),
                    "local release without global token"
                );
                holder.streak += 1;
            }
            Release::Global => {
                // Acquire the global lock *before* touching holder state:
                // until then the previous tenure may still be accessing
                // the stash from its release closure. G's release/acquire
                // edge is what hands us exclusive holder access.
                let g = self.global.lock();
                self.stash_global(cluster, g);
            }
        }
    }

    /// The local lock instance of `cluster` (crate-internal plumbing for
    /// the abortable extension).
    pub(crate) fn local_of(&self, cluster: ClusterId) -> &L {
        &self.locals[cluster.as_usize()]
    }

    /// The global lock (crate-internal plumbing).
    pub(crate) fn global_ref(&self) -> &G {
        &self.global
    }

    /// Builds a token (crate-internal plumbing).
    pub(crate) fn assemble_token(
        &self,
        cluster: ClusterId,
        local: L::Token,
    ) -> CohortToken<L::Token> {
        CohortToken { cluster, local }
    }

    /// Records a Release::Local inheritance (streak bump).
    ///
    /// SAFETY: caller holds the local lock after inheriting Local state.
    pub(crate) unsafe fn note_local_inheritance(&self, cluster: ClusterId) {
        self.finish_acquire(cluster, Release::Local);
    }

    /// Stashes a freshly acquired global token, resets the streak, and
    /// opens the tenure with the policy.
    ///
    /// SAFETY: caller holds the local lock and just acquired the global.
    pub(crate) unsafe fn stash_global(&self, cluster: ClusterId, g: G::Token) {
        let holder = &mut *self.holder.get();
        debug_assert!(holder.global_token.is_none(), "stale global token");
        holder.global_token = Some(g);
        holder.streak = 0;
        self.policy.began(cluster);
    }

    /// Releases the lock; factored out so abortable variants can reuse it.
    ///
    /// SAFETY: `token` stems from this lock's acquire path, used once, on
    /// the acquiring thread.
    pub(crate) unsafe fn release(&self, token: CohortToken<L::Token>) {
        let local = &self.locals[token.cluster.as_usize()];
        // Read the streak while still holding (holder-private).
        let streak = (*self.holder.get()).streak;
        let pass = self.policy.may_pass_local(token.cluster, streak);
        // The closure runs iff the local lock ends the tenure (policy said
        // stop, or no successor). A committed local handoff records
        // nothing: the successor's streak carries it to `ended`.
        local.unlock_local(token.local, pass, || {
            // Close the tenure with the policy *before* releasing the
            // global lock: the next tenure's `began` (on any cluster)
            // runs under the freshly acquired global lock, so this
            // ordering is what serializes the two hooks (see the Tenures
            // docs).
            self.policy.ended(token.cluster, streak);
            // SAFETY: still holding; unique access to the stash. Taking a
            // fresh &mut here (rather than capturing one) keeps borrows
            // disjoint from the streak read above.
            let holder = &mut *self.holder.get();
            let g = holder
                .global_token
                .take()
                .expect("cohort invariant: global token present at global release");
            self.global.unlock(g);
        });
    }
}

// SAFETY: mutual exclusion = conjunction of local and global exclusion as
// proven in §2 of the paper: entering requires the local lock plus either
// a Release::Local inheritance (global lock retained by the cohort) or a
// fresh global acquisition; deadlock-freedom follows from `alone?` having
// no false negatives for non-abortable locals.
unsafe impl<G: ThreadOblivious, L: LocalCohortLock> RawLock for CohortLock<G, L> {
    type Token = CohortToken<L::Token>;

    fn lock(&self) -> Self::Token {
        let cluster = current_cluster_in(&self.topo);
        let local = &self.locals[cluster.as_usize()];
        let (ltok, inherited) = local.lock_local();
        // SAFETY: we hold the local lock.
        unsafe { self.finish_acquire(cluster, inherited) };
        CohortToken {
            cluster,
            local: ltok,
        }
    }

    fn try_lock(&self) -> Option<Self::Token> {
        let cluster = current_cluster_in(&self.topo);
        let local = &self.locals[cluster.as_usize()];
        let (ltok, inherited) = local.try_lock_local()?;
        match inherited {
            Release::Local => {
                // SAFETY: holding the local lock.
                unsafe { self.finish_acquire(cluster, Release::Local) };
                Some(CohortToken {
                    cluster,
                    local: ltok,
                })
            }
            Release::Global => match self.global.try_lock() {
                Some(g) => {
                    // SAFETY: holding the local lock; stash directly.
                    unsafe { self.stash_global(cluster, g) };
                    Some(CohortToken {
                        cluster,
                        local: ltok,
                    })
                }
                None => {
                    // Undo the local acquisition; the global lock was
                    // never ours, so the closure must be a no-op.
                    // SAFETY: ltok is ours, used once.
                    unsafe { local.unlock_local(ltok, false, || {}) };
                    None
                }
            },
        }
    }

    unsafe fn unlock(&self, token: Self::Token) {
        self.release(token);
    }
}

impl<G: ThreadOblivious, L: LocalCohortLock> std::fmt::Debug for CohortLock<G, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CohortLock")
            .field("clusters", &self.locals.len())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GlobalBoLock;
    use base_locks::McsLock;
    use std::mem::{align_of, offset_of, size_of};

    /// Every new holder writes `holder.streak`; every arrival reads `topo`
    /// and `locals`, every release `policy`, and remote waiters spin on
    /// `global`. None of them may sit on the holder's 128-byte block.
    #[test]
    fn holder_line_is_shared_with_no_other_field() {
        type C = CohortLock<GlobalBoLock, McsLock>;
        const LINE: usize = 128;
        assert!(align_of::<C>() >= LINE, "offsets map onto lines");
        let start = offset_of!(C, holder) / LINE * LINE;
        let line = start..start + LINE;
        let others = [
            ("topo", offset_of!(C, topo), size_of::<Arc<Topology>>()),
            (
                "locals",
                offset_of!(C, locals),
                size_of::<Box<[CachePadded<McsLock>]>>(),
            ),
            ("global", offset_of!(C, global), size_of::<GlobalBoLock>()),
            ("policy", offset_of!(C, policy), size_of::<Tenures>()),
        ];
        for (name, at, len) in others {
            assert!(
                at + len <= line.start || line.end <= at,
                "`{name}` at {at}..{} shares the holder's line {line:?}",
                at + len
            );
        }
    }
}
