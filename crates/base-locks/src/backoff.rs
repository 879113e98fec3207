//! Spin-wait strategies.
//!
//! Two concerns meet here:
//!
//! 1. **Classic backoff** (Agarwal & Cherian '89): after a failed probe of
//!    a contended test-and-set lock, wait before probing again so the lock
//!    word is not bounced between caches. The paper's "BO" lock uses
//!    bounded exponential backoff; its "Fib-BO" variant (Table 1) grows the
//!    delay along the Fibonacci sequence.
//! 2. **Oversubscription**: on fewer CPUs than threads a pure spin loop
//!    starves the lock holder. All waits therefore escalate to
//!    `thread::yield_now` once the spin budget is used up.
//!
//! Every schedule implements [`Wait`], the one thing a
//! [`TasLock`](crate::TasLock) asks of its waiters.

use std::hint;
use std::thread;

/// A waiting schedule: [`Default`] starts a fresh sequence, and
/// [`snooze`](Self::snooze) waits one round after a failed probe.
pub trait Wait: Default {
    /// Waits one round of the schedule.
    fn snooze(&mut self);
}

/// Bounded exponential backoff, the paper's BO schedule: 4, 8, 16, 32,
/// 64 and 128 spin hints, then a scheduler yield on every round.
#[derive(Debug)]
pub struct Backoff {
    cur: u32,
    rounds: u32,
}

impl Backoff {
    /// Spin hints of the first delay step.
    const MIN_SPINS: u32 = 4;
    /// Delay rounds before every further round yields the CPU.
    const YIELD_AFTER: u32 = 6;

    /// Resets to the initial step (e.g. after observing the lock free).
    #[inline]
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Number of delay rounds taken so far.
    #[inline]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            cur: Self::MIN_SPINS,
            rounds: 0,
        }
    }
}

impl Wait for Backoff {
    /// Waits one backoff step (doubling it for next time), yielding the
    /// CPU once the round budget is exhausted.
    #[inline]
    fn snooze(&mut self) {
        if self.rounds >= Self::YIELD_AFTER {
            thread::yield_now();
            return;
        }
        spin_cycles(self.cur);
        self.cur *= 2;
        self.rounds += 1;
    }
}

/// A Fibonacci backoff sequence: delay steps follow 1, 1, 2, 3, 5, …
/// capped at 1024 spin hints, then a yield on every round after the 24th
/// (the growth curve of Table 1's "Fib-BO" lock — gentler than doubling,
/// so waiters re-probe sooner).
#[derive(Debug)]
pub struct FibBackoff {
    prev: u32,
    cur: u32,
    rounds: u32,
}

impl FibBackoff {
    /// Cap on the delay step.
    const MAX_SPINS: u32 = 1 << 10;
    /// Delay rounds before every further round yields the CPU.
    const YIELD_AFTER: u32 = 24;
}

impl Default for FibBackoff {
    fn default() -> Self {
        FibBackoff {
            prev: 0,
            cur: 1,
            rounds: 0,
        }
    }
}

impl Wait for FibBackoff {
    /// Waits one Fibonacci step.
    #[inline]
    fn snooze(&mut self) {
        if self.rounds >= Self::YIELD_AFTER {
            thread::yield_now();
            return;
        }
        spin_cycles(self.cur);
        let next = (self.prev + self.cur).min(Self::MAX_SPINS);
        self.prev = self.cur;
        self.cur = next;
        self.rounds += 1;
    }
}

/// The plain TATAS schedule: a spin hint per round and a yield on every
/// 64th. Unlike [`SpinWait`] it never settles into yielding every round;
/// it stays because the exhibits' TATAS baseline is measured with it.
#[derive(Debug, Default)]
pub struct YieldEvery64 {
    spins: u32,
}

impl Wait for YieldEvery64 {
    #[inline]
    fn snooze(&mut self) {
        self.spins = self.spins.wrapping_add(1);
        if self.spins.is_multiple_of(64) {
            thread::yield_now();
        } else {
            hint::spin_loop();
        }
    }
}

/// Issues `n` pause/spin-loop hints.
#[inline]
pub fn spin_cycles(n: u32) {
    for _ in 0..n {
        hint::spin_loop();
    }
}

/// A bounded spin-then-yield waiter for flag spins (queue-lock grant
/// flags, reader-drain scans, writer barriers) and for the global BO lock.
///
/// The first [`DEFAULT_SPIN_ROUNDS`](Self::DEFAULT_SPIN_ROUNDS) calls to
/// [`snooze`](Wait::snooze) issue a `spin_loop` hint each (the fast path:
/// the flag flips within a handoff latency); every call after the budget
/// cedes the CPU with `thread::yield_now`. Unlike a `spins % 64 == 0`
/// pattern — which keeps burning 63 of every 64 iterations forever — an
/// exhausted `SpinWait` yields on **every** round, so on an oversubscribed
/// host the thread being waited on actually gets the CPU and a drain
/// cannot live-lock.
#[derive(Debug)]
pub struct SpinWait {
    rounds: u32,
    spin_rounds: u32,
}

impl SpinWait {
    /// Spin-hint budget before escalating to per-round yields.
    pub const DEFAULT_SPIN_ROUNDS: u32 = 64;

    /// A waiter with the default spin budget.
    #[inline]
    pub fn new() -> Self {
        Self::with_spin_rounds(Self::DEFAULT_SPIN_ROUNDS)
    }

    /// A waiter that spins `spin_rounds` times before yielding every round
    /// (0 = yield from the first round).
    #[inline]
    pub fn with_spin_rounds(spin_rounds: u32) -> Self {
        SpinWait {
            rounds: 0,
            spin_rounds,
        }
    }

    /// Whether the spin budget is exhausted (every further round yields).
    #[inline]
    pub fn is_yielding(&self) -> bool {
        self.rounds >= self.spin_rounds
    }

    /// Restarts the spin budget (e.g. after observing fresh progress).
    #[inline]
    pub fn reset(&mut self) {
        self.rounds = 0;
    }
}

impl Default for SpinWait {
    fn default() -> Self {
        Self::new()
    }
}

impl Wait for SpinWait {
    /// Waits one round: a spin hint while the budget lasts, a scheduler
    /// yield on every round after.
    #[inline]
    fn snooze(&mut self) {
        if self.rounds < self.spin_rounds {
            self.rounds += 1;
            hint::spin_loop();
        } else {
            thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_growth_caps() {
        // The doubling stops at the round budget, long before a step
        // could grow past 128 spins.
        let mut b = Backoff::default();
        let mut steps = Vec::new();
        while b.rounds() < Backoff::YIELD_AFTER {
            steps.push(b.cur);
            b.snooze();
        }
        assert_eq!(steps, vec![4, 8, 16, 32, 64, 128]);
    }

    #[test]
    fn reset_restarts_sequence() {
        let mut b = Backoff::default();
        b.snooze();
        b.snooze();
        assert_eq!(b.rounds(), 2);
        b.reset();
        assert_eq!(b.rounds(), 0);
        assert_eq!(b.cur, Backoff::MIN_SPINS);
    }

    #[test]
    fn fib_sequence_caps() {
        let mut f = FibBackoff::default();
        let mut steps = Vec::new();
        for _ in 0..18 {
            steps.push(f.cur);
            f.snooze();
        }
        let fib: [u32; 16] = [
            1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987,
        ];
        assert_eq!(steps[..16], fib);
        assert_eq!(steps[16..], [1024u32, 1024]);
    }

    #[test]
    fn spin_wait_escalates_to_permanent_yielding() {
        // Regression for the `spins % 64 == 0` live-lock pattern: once the
        // budget is spent, *every* round must yield (is_yielding stays
        // true), not one round in 64.
        let mut w = SpinWait::with_spin_rounds(3);
        assert!(!w.is_yielding());
        for _ in 0..3 {
            w.snooze();
        }
        assert!(w.is_yielding());
        for _ in 0..100 {
            w.snooze();
            assert!(w.is_yielding(), "yield escalation must be sticky");
        }
        w.reset();
        assert!(!w.is_yielding());
        assert!(SpinWait::with_spin_rounds(0).is_yielding());
    }

    #[test]
    fn global_bo_schedule_is_spin_wait() {
        // The global BO lock's waiter: one spin hint for 64 rounds, then
        // a yield on every round.
        fn waiter<W: Wait>(_: &crate::TasLock<W>) -> W {
            W::default()
        }
        let mut w: SpinWait = waiter(&crate::GlobalBoLock::new());
        for round in 0..256u32 {
            assert_eq!(!w.is_yielding(), round < 64, "round {round}");
            w.snooze();
        }
    }

    #[test]
    fn snooze_past_budget_yields_without_panicking() {
        let mut b = Backoff::default();
        for _ in 0..100 {
            b.snooze();
        }
        // Rounds stop counting once yielding.
        assert_eq!(b.rounds(), Backoff::YIELD_AFTER);
    }
}
