//! The lock interfaces: [`RawLock`], implemented by every lock in the
//! suite, and [`LocalCohortLock`], the cohort-detecting local role of
//! §2.1 that the MCS, ticket and abortable CLH locks play as well, with
//! the abortable refinements of §3.6 on each.

/// A raw mutual-exclusion lock.
///
/// `lock` returns an opaque [`Token`](Self::Token) that must be handed back
/// to [`unlock`](Self::unlock): queue locks (MCS, CLH) carry their queue
/// node in it, counter locks carry nothing.
///
/// # Safety
///
/// Implementors must guarantee mutual exclusion between a successful
/// `lock`/`try_lock` and the matching `unlock`, with `unlock` publishing
/// the critical section to the next `lock` (release/acquire semantics).
///
/// Whether `unlock` may run on a *different* thread than `lock` (the
/// paper's *thread-obliviousness*) is a per-implementation property; locks
/// in this crate document it. The `cohort` crate encodes it as a marker
/// trait on `RawLock`, `cohort::ThreadOblivious`, which the global-lock
/// position requires.
pub unsafe trait RawLock: Send + Sync {
    /// Per-acquisition state carried from `lock` to `unlock`.
    type Token;

    /// Acquires the lock, spinning until available.
    fn lock(&self) -> Self::Token;

    /// Acquires the lock only if that is possible without waiting.
    fn try_lock(&self) -> Option<Self::Token>;

    /// Releases the lock.
    ///
    /// # Safety
    ///
    /// `token` must come from a `lock`/`try_lock` on *this* lock that has
    /// not yet been unlocked.
    unsafe fn unlock(&self, token: Self::Token);
}

/// A lock supporting *abortable* (timeout-capable) acquisition, the
/// property §3.6 of the paper calls abortability.
///
/// # Safety
///
/// Same contract as [`RawLock`]; additionally, a `lock_with_patience` that
/// returns `None` must leave the lock in a state where other threads can
/// still acquire and release it (an abort may not strand the lock).
pub unsafe trait RawAbortableLock: RawLock {
    /// Tries to acquire the lock, giving up after roughly `patience_ns`
    /// nanoseconds of (wall-clock) waiting. Returns `None` on abort.
    ///
    /// The patience is a soft deadline: implementations check the clock
    /// periodically between spins, so overshoot by a few microseconds is
    /// normal.
    fn lock_with_patience(&self, patience_ns: u64) -> Option<Self::Token>;
}

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

/// Coarse deadline helper shared by abortable locks: checks the monotonic
/// clock only every `CHECK_EVERY` probes to keep `Instant::now` off the
/// spin fast path — except that a zero budget is spent before the first
/// probe, which therefore checks, so a zero-patience attempt never waits.
pub(crate) struct Patience {
    deadline: std::time::Instant,
    probes: u32,
}

impl Patience {
    const CHECK_EVERY: u32 = 32;

    pub(crate) fn new(patience_ns: u64) -> Self {
        Patience {
            deadline: std::time::Instant::now() + std::time::Duration::from_nanos(patience_ns),
            probes: if patience_ns == 0 {
                Self::CHECK_EVERY - 1
            } else {
                0
            },
        }
    }

    /// True once the patience budget is exhausted.
    #[inline]
    pub(crate) fn expired(&mut self) -> bool {
        self.probes = self.probes.wrapping_add(1);
        if !self.probes.is_multiple_of(Self::CHECK_EVERY) {
            return false;
        }
        std::time::Instant::now() >= self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patience_eventually_expires() {
        let mut p = Patience::new(1_000); // 1 µs
        std::thread::sleep(std::time::Duration::from_millis(1));
        let mut expired = false;
        for _ in 0..Patience::CHECK_EVERY * 2 {
            if p.expired() {
                expired = true;
                break;
            }
        }
        assert!(expired);
    }

    #[test]
    fn zero_patience_expires_on_the_first_probe() {
        assert!(Patience::new(0).expired());
    }

    #[test]
    fn patience_not_instantly_expired() {
        let mut p = Patience::new(1_000_000_000); // 1 s
        for _ in 0..Patience::CHECK_EVERY * 4 {
            assert!(!p.expired());
        }
    }
}
