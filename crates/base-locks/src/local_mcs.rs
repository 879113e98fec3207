//! [`McsLock`](crate::McsLock) as a cohort-local lock (§3.3, Figure 1);
//! `mcs` tests its plain and global roles.

#[cfg(test)]
mod tests {
    use crate::mcs::McsNode;
    use crate::pool;
    use crate::{LocalCohortLock, McsLock, Release};
    use std::sync::Arc;

    #[test]
    fn first_in_queue_is_global() {
        let l = McsLock::new();
        let (t, r) = l.lock_local();
        assert_eq!(r, Release::Global);
        assert!(l.alone(&t));
        let mut released = false;
        unsafe { l.unlock_local(t, true, || released = true) };
        assert!(released, "no successor: must release global");
    }

    #[test]
    fn successor_inherits_on_local_pass() {
        let l = Arc::new(McsLock::new());
        let (t, r) = l.lock_local();
        assert_eq!(r, Release::Global);

        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let (t2, r2) = l2.lock_local();
            assert_eq!(r2, Release::Local);
            let mut released = false;
            unsafe { l2.unlock_local(t2, true, || released = true) };
            assert!(released, "queue empty behind waiter");
        });
        // Wait until the waiter is linked.
        while l.alone(&t) {
            std::hint::spin_loop();
        }
        let mut released = false;
        unsafe { l.unlock_local(t, true, || released = true) };
        assert!(!released, "handoff keeps global lock");
        waiter.join().unwrap();
    }

    #[test]
    fn forced_global_release_propagates_state() {
        let l = Arc::new(McsLock::new());
        let (t, _) = l.lock_local();
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let (t2, r2) = l2.lock_local();
            assert_eq!(r2, Release::Global, "pass_local=false → global state");
            unsafe { l2.unlock_local(t2, false, || {}) };
        });
        while l.alone(&t) {
            std::hint::spin_loop();
        }
        // Policy says stop passing (e.g. streak hit the bound).
        let mut released = false;
        unsafe { l.unlock_local(t, false, || released = true) };
        assert!(released);
        waiter.join().unwrap();
    }

    #[test]
    fn try_lock_local_only_on_empty_queue() {
        let l = McsLock::new();
        let (t, _) = l.try_lock_local().expect("empty queue");
        assert!(l.try_lock_local().is_none());
        unsafe { l.unlock_local(t, false, || {}) };
        let (t, _) = l.try_lock_local().expect("free again");
        unsafe { l.unlock_local(t, false, || {}) };
    }

    #[test]
    fn node_pool_stays_bounded() {
        let l = Arc::new(McsLock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        let (t, _) = l.lock_local();
                        unsafe { l.unlock_local(t, true, || {}) };
                    }
                    pool::fresh_allocations::<McsNode>()
                })
            })
            .collect();
        for h in handles {
            // A holder releases the node it enqueued: balanced.
            assert!(h.join().unwrap() <= 1, "one node per thread");
        }
    }

    #[test]
    fn failing_try_lock_local_touches_no_node() {
        let l = Arc::new(McsLock::new());
        let (t, _) = l.lock_local();
        let l2 = Arc::clone(&l);
        // A new thread starts with an empty cache: had try_lock_local
        // taken a node it would have allocated one or refilled from the
        // overflow list, and put it back into the cache afterwards.
        std::thread::spawn(move || {
            for _ in 0..100 {
                assert!(l2.try_lock_local().is_none());
            }
            assert_eq!(pool::fresh_allocations::<McsNode>(), 0);
            assert_eq!(pool::cached::<McsNode>(), 0);
        })
        .join()
        .unwrap();
        unsafe { l.unlock_local(t, false, || {}) };
    }
}
