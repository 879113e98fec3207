//! The lock interface implemented by every lock in the suite.

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

/// Coarse deadline helper shared by abortable locks: checks the monotonic
/// clock only every `CHECK_EVERY` probes to keep `Instant::now` off the
/// spin fast path.
pub(crate) struct Patience {
    deadline: std::time::Instant,
    probes: u32,
}

impl Patience {
    const CHECK_EVERY: u32 = 32;

    pub(crate) fn new(patience_ns: u64) -> Self {
        Patience {
            deadline: std::time::Instant::now() + std::time::Duration::from_nanos(patience_ns),
            probes: 0,
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
    fn patience_not_instantly_expired() {
        let mut p = Patience::new(1_000_000_000); // 1 s
        for _ in 0..Patience::CHECK_EVERY * 4 {
            assert!(!p.expired());
        }
    }
}
