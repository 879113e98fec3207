//! Per-thread virtual clocks.
//!
//! The benchmark harness in this repository measures *virtual time*: each
//! thread carries a nanosecond counter that is advanced explicitly — by
//! modelled critical-section work, by the coherence cost model
//! (`coherence-sim`), and by lock-handoff charges. This makes the paper's
//! evaluation reproducible on hardware that has nothing in common with the
//! 256-way NUMA machine the paper used: the *algorithms* execute for real
//! (real threads, real atomics), while *time* is accounted according to the
//! modelled machine. See docs/ARCHITECTURE.md, "Virtual time, in one
//! paragraph", for the argument.
//!
//! The clock is deliberately a plain thread-local `Cell<u64>`: reading and
//! advancing it is a handful of instructions and never synchronizes. Clock
//! values only become visible to other threads when a harness explicitly
//! publishes them (e.g. `coherence-sim`'s handoff channel publishes the
//! releaser's timestamp while it still holds the lock).

use std::cell::Cell;

thread_local! {
    static NOW_NS: Cell<u64> = const { Cell::new(0) };
}

/// Returns the calling thread's current virtual time in nanoseconds.
#[inline]
pub fn now() -> u64 {
    NOW_NS.with(|c| c.get())
}

/// Advances the calling thread's virtual clock by `ns` nanoseconds and
/// returns the new time.
#[inline]
pub fn advance(ns: u64) -> u64 {
    NOW_NS.with(|c| {
        let t = c.get().saturating_add(ns);
        c.set(t);
        t
    })
}

/// Sets the calling thread's virtual clock to exactly `ns`.
#[inline]
pub fn set(ns: u64) {
    NOW_NS.with(|c| c.set(ns));
}

/// Raises the calling thread's virtual clock to at least `ns` (no-op if the
/// clock is already past it). Returns the resulting time.
///
/// This is the primitive behind causality at lock handoff: an acquirer may
/// not observe a critical section *before* the releaser's publication time.
#[inline]
pub fn set_at_least(ns: u64) -> u64 {
    NOW_NS.with(|c| {
        let t = c.get().max(ns);
        c.set(t);
        t
    })
}

/// Resets the clock to zero. Harnesses call this at worker start.
#[inline]
pub fn reset() {
    NOW_NS.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        reset();
        assert_eq!(now(), 0);
        assert_eq!(advance(10), 10);
        assert_eq!(advance(5), 15);
        assert_eq!(now(), 15);
    }

    #[test]
    fn set_at_least_is_monotone() {
        reset();
        advance(100);
        assert_eq!(set_at_least(50), 100); // never moves backwards
        assert_eq!(set_at_least(150), 150);
        assert_eq!(now(), 150);
    }

    #[test]
    fn clocks_are_thread_local() {
        reset();
        advance(42);
        let other = std::thread::spawn(now).join().unwrap();
        assert_eq!(other, 0);
        assert_eq!(now(), 42);
    }

    #[test]
    fn advance_saturates() {
        set(u64::MAX - 1);
        assert_eq!(advance(100), u64::MAX);
        reset();
    }
}
