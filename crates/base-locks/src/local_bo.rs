//! [`LocalBoLock`](crate::LocalBoLock) as the local lock of C-BO-BO (§3.1)
//! and of A-C-BO-BO (§3.6.1); it plays no other role.

#[cfg(test)]
mod tests {
    use crate::{
        AbortableLocalCohortLock, LocalAbortResult, LocalBoLock, LocalCohortLock, Release,
    };
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn first_acquire_sees_global_release() {
        let l = LocalBoLock::new();
        let ((), r) = l.lock_local();
        assert_eq!(r, Release::Global);
        unsafe { l.unlock_local((), false, || {}) };
    }

    #[test]
    fn local_handoff_state_roundtrip() {
        let l = LocalBoLock::new();
        let ((), _) = l.lock_local();
        // Pretend a waiter exists so the handoff commits locally.
        l.successor_exists.store(true, Ordering::Relaxed);
        let mut released_global = false;
        unsafe { l.unlock_local((), true, || released_global = true) };
        assert!(!released_global, "local handoff must keep the global lock");
        let ((), r) = l.lock_local();
        assert_eq!(r, Release::Local);
        unsafe { l.unlock_local((), false, || {}) };
    }

    #[test]
    fn blocking_waiter_inherits_a_local_handoff() {
        let l = Arc::new(LocalBoLock::new());
        let (t, _) = l.lock_local();
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let ((), r) = l2.lock_local();
            unsafe { l2.unlock_local((), false, || {}) };
            r
        });
        // The waiter's flag is up once it spins on the held word.
        while l.alone(&t) {
            std::hint::spin_loop();
        }
        let mut released = false;
        unsafe { l.unlock_local(t, true, || released = true) };
        assert!(!released, "a waiting successor keeps the global lock");
        assert_eq!(waiter.join().unwrap(), Release::Local);
    }

    #[test]
    fn alone_when_no_waiter_forces_global_release() {
        let l = LocalBoLock::new();
        let (t, _) = l.lock_local();
        assert!(l.alone(&t));
        let mut released = false;
        unsafe { l.unlock_local(t, true, || released = true) };
        assert!(released, "alone? true must release the global lock");
    }

    #[test]
    fn try_lock_local_fails_when_busy() {
        let l = LocalBoLock::new();
        let (_t, _) = l.lock_local();
        assert!(l.try_lock_local().is_none());
    }

    #[test]
    fn abort_on_held_lock_times_out() {
        let l = LocalBoLock::new();
        let ((), _) = l.lock_local();
        match l.lock_local_abortable(200_000) {
            LocalAbortResult::TimedOut => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        unsafe { l.unlock_local((), false, || {}) };
    }

    #[test]
    fn zero_patience_times_out_on_a_held_lock_and_acquires_a_free_one() {
        let l = LocalBoLock::new();
        let ((), _) = l.lock_local();
        match l.lock_local_abortable(0) {
            LocalAbortResult::TimedOut => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        unsafe { l.unlock_local((), false, || {}) };
        match l.lock_local_abortable(0) {
            LocalAbortResult::Acquired((), Release::Global) => {}
            other => panic!("expected a global-state acquire, got {other:?}"),
        }
        unsafe { l.unlock_local((), false, || {}) };
    }

    #[test]
    fn releaser_revokes_handoff_after_abort() {
        // Owner holds; a waiter spins then aborts; when the owner releases
        // with pass_local=true the double-check (or the rescuer) must
        // ensure the global lock is released exactly once.
        let l = Arc::new(LocalBoLock::new());
        let ((), _) = l.lock_local();
        let l2 = Arc::clone(&l);
        let aborter = std::thread::spawn(move || {
            matches!(
                l2.lock_local_abortable(5_000_000),
                LocalAbortResult::TimedOut
            )
        });
        aborter.join().unwrap();
        // Waiter is gone; flag is false.
        let mut released = false;
        unsafe { l.unlock_local((), true, || released = true) };
        assert!(released, "no surviving waiter: global must be released");
        // Lock must be acquirable in GLOBAL state.
        let ((), r) = l.lock_local();
        assert_eq!(r, Release::Global);
        unsafe { l.unlock_local((), false, || {}) };
    }

    #[test]
    fn an_abort_that_finds_a_stranded_local_release_rescues_it() {
        // The window the rescue closes, opened by hand: a handoff commits
        // to a faked waiter, which then aborts instead of taking it.
        let l = LocalBoLock::new();
        let ((), _) = l.lock_local();
        l.successor_exists.store(true, Ordering::Relaxed);
        let mut released = false;
        unsafe { l.unlock_local((), true, || released = true) };
        assert!(!released, "the double-check saw the faked waiter");
        assert!(matches!(l.abort(), LocalAbortResult::Rescued(())));
        unsafe { l.unlock_local((), false, || released = true) };
        assert!(released, "the rescuer's release frees the global lock");
        let ((), r) = l.lock_local();
        assert_eq!(r, Release::Global);
        unsafe { l.unlock_local((), false, || {}) };
    }

    #[test]
    fn rescue_or_inherit_under_races() {
        // Stress the three-way race: releaser hands off locally while
        // waiters keep aborting, blocking and abortable threads on one
        // instance. Invariant: every release_global happens exactly once
        // per global tenure — tracked by a balance counter that a
        // double-release or a stranded lock would corrupt.
        use std::sync::atomic::AtomicI64;
        let l = Arc::new(LocalBoLock::new());
        let global_held = Arc::new(AtomicI64::new(0));

        let mut handles = Vec::new();
        for i in 0..4 {
            let l = Arc::clone(&l);
            let held = Arc::clone(&global_held);
            handles.push(std::thread::spawn(move || {
                for _ in 0..300 {
                    let res = if i % 2 == 0 {
                        l.lock_local_abortable(20_000)
                    } else {
                        let ((), r) = l.lock_local();
                        LocalAbortResult::Acquired((), r)
                    };
                    match res {
                        LocalAbortResult::Acquired((), r) => {
                            if r == Release::Global {
                                // "Acquire the global lock": wait until the
                                // previous tenure's release lands, exactly
                                // like the real cohort layer blocks on G.
                                while held
                                    .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                                    .is_err()
                                {
                                    std::hint::spin_loop();
                                }
                            } else {
                                assert_eq!(held.load(Ordering::SeqCst), 1);
                            }
                            unsafe {
                                l.unlock_local((), true, || {
                                    assert_eq!(held.fetch_sub(1, Ordering::SeqCst), 1);
                                })
                            };
                        }
                        LocalAbortResult::Rescued(()) => {
                            // We own lock + inherited global: release both.
                            assert_eq!(held.load(Ordering::SeqCst), 1);
                            unsafe {
                                l.unlock_local((), false, || {
                                    assert_eq!(held.fetch_sub(1, Ordering::SeqCst), 1);
                                })
                            };
                        }
                        LocalAbortResult::TimedOut => {}
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(global_held.load(Ordering::SeqCst), 0);
    }
}
