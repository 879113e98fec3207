//! The two lock properties the cohorting transformation is built on.
//!
//! Section 2 of the paper requires exactly two properties of the component
//! locks:
//!
//! * the **global** lock must be *thread-oblivious* — acquired by one
//!   thread, releasable by another (ownership of the global lock travels
//!   silently between cohort members);
//! * each **local** lock must provide *cohort detection* — an `alone?`
//!   predicate telling a releaser whether some cluster-mate is concurrently
//!   trying to acquire, plus a release that can leave one of two states
//!   ([`Release::Local`] / [`Release::Global`]).
//!
//! The first is a property of an ordinary [`RawLock`], so it is a marker,
//! [`ThreadOblivious`]; the second is a protocol of its own, the
//! [`LocalCohortLock`] trait. The abortable refinements of §3.6 are
//! [`RawAbortableLock`](base_locks::RawAbortableLock) on the global side
//! and [`AbortableLocalCohortLock`] on the local one.

use base_locks::RawLock;

/// The state a local lock is released in, §2.1 of the paper.
///
/// The next local acquirer reads this to learn whether the cohort still
/// owns the global lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Release {
    /// Lock handed to a cluster-mate; the cohort retains the global lock
    /// and the new owner may enter the critical section directly.
    Local,
    /// The global lock was released; the next local owner must re-acquire
    /// it before entering the critical section.
    Global,
}

/// A [`RawLock`] usable in the global position of a cohort lock: its
/// release is sound from any thread.
///
/// # Safety
///
/// `unlock(token)` must be sound from any thread, given the token of the
/// current acquisition (which is why the token is `Send`). TATAS and
/// ticket locks have the property trivially; MCS gains it through
/// pool-circulated queue nodes — §3.4 of the paper.
pub unsafe trait ThreadOblivious: RawLock<Token: Send> {}

/// A cluster-local lock with cohort detection (§2.1).
///
/// The three methods mirror the paper's protocol exactly; the one Rust
/// twist is that `unlock_local` receives the *global-release action* as a
/// closure, because the correct interleaving of "release global lock" and
/// "publish local state" differs per algorithm (§3.1 releases the global
/// lock before the state store; §3.6.2 must do it between the failed CAS
/// and the state store). The closure is called **at most once**, and only
/// when the release ends the cohort's tenure.
///
/// # Safety
///
/// Implementors must guarantee:
///
/// * mutual exclusion among `lock_local` holders of this instance;
/// * `alone?` one-sidedness: if **no** thread is concurrently inside
///   `lock_local`, `alone` returns `true` (false *positives* — claiming to
///   be alone despite company — are allowed and merely cost an unnecessary
///   global release; the reverse error must be impossible for
///   non-abortable locks, because a `Release::Local` handoff with no
///   successor strands the global lock);
/// * a `Release::Local` state is consumed by exactly one subsequent
///   `lock_local`.
pub unsafe trait LocalCohortLock: Send + Sync {
    /// Per-acquisition state (queue node, ticket number, …).
    type Token;

    /// Acquires the local lock; reports the [`Release`] state left by the
    /// previous owner (`Release::Global` when the queue was empty — the
    /// acquirer must take the global lock).
    fn lock_local(&self) -> (Self::Token, Release);

    /// Acquires the local lock only if free right now.
    fn try_lock_local(&self) -> Option<(Self::Token, Release)>;

    /// The paper's `alone?`: true if no cluster-mate is observed waiting.
    fn alone(&self, token: &Self::Token) -> bool;

    /// Releases the local lock. If `pass_local` is true **and** a viable
    /// successor exists, hand off in [`Release::Local`] state without
    /// invoking `release_global`. Otherwise invoke `release_global()`
    /// exactly once (at the point this algorithm's protocol requires) and
    /// leave [`Release::Global`] state.
    ///
    /// # Safety
    ///
    /// `token` must stem from `lock_local`/`try_lock_local` on this lock,
    /// used at most once, on the acquiring thread.
    unsafe fn unlock_local(
        &self,
        token: Self::Token,
        pass_local: bool,
        release_global: impl FnOnce(),
    );
}

/// Outcome of an abortable local acquisition attempt.
#[derive(Debug)]
pub enum LocalAbortResult<T> {
    /// Acquired; same payload as [`LocalCohortLock::lock_local`].
    Acquired(T, Release),
    /// Patience expired; the attempt left no obligations behind.
    TimedOut,
    /// Patience expired, but the aborting thread found itself the only
    /// possible heir of a [`Release::Local`] handoff and had to take the
    /// lock to keep the global lock reachable. The caller must release the
    /// global lock and then `unlock_local(token, false, …)`, reporting the
    /// overall operation as timed out.
    ///
    /// (This closes the abort-after-double-check window of §3.6.1: the
    /// paper's releaser-side double-check alone leaves a narrow race where
    /// the last waiter aborts *after* the check passes; the rescue
    /// converts that waiter into a momentary owner.)
    Rescued(T),
}

/// A [`LocalCohortLock`] supporting timed-out acquisition with the
/// *strengthened* cohort-detection property of §3.6: when `unlock_local`
/// commits a [`Release::Local`] handoff, some local thread is guaranteed
/// to complete its acquisition rather than abort.
///
/// # Safety
///
/// As [`LocalCohortLock`], plus: a local handoff may only commit if a
/// successor is guaranteed viable (the implementation must arbitrate
/// releaser-vs-aborter races atomically, e.g. via the colocated
/// `successor-aborted` flag of §3.6.2), and a [`LocalAbortResult::Rescued`]
/// outcome must be produced whenever an abort would otherwise strand a
/// committed local handoff.
pub unsafe trait AbortableLocalCohortLock: LocalCohortLock {
    /// Tries to acquire the local lock, giving up after roughly
    /// `patience_ns` wall-clock nanoseconds.
    fn lock_local_abortable(&self, patience_ns: u64) -> LocalAbortResult<Self::Token>;
}
