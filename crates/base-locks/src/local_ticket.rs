//! [`TicketLock`](crate::TicketLock) as a cohort-local lock (§3.2);
//! `ticket` tests its plain and global roles.

#[cfg(test)]
mod tests {
    use crate::{LocalCohortLock, Release, TicketLock};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn first_acquire_is_global() {
        let l = TicketLock::new();
        let (t, r) = l.lock_local();
        assert_eq!(r, Release::Global);
        assert!(l.alone(&t));
        unsafe { l.unlock_local(t, false, || {}) };
    }

    #[test]
    fn top_granted_transfers_and_resets() {
        let l = Arc::new(TicketLock::new());
        let (t, _) = l.lock_local();
        // A waiter queues up from another thread.
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let (t2, r2) = l2.lock_local();
            assert_eq!(r2, Release::Local, "waiter should inherit");
            // The marker must have been consumed.
            assert!(!l2.top_granted.load(Ordering::Relaxed));
            unsafe { l2.unlock_local(t2, false, || {}) };
        });
        while l.alone(&t) {
            std::hint::spin_loop();
        }
        let mut released = false;
        unsafe { l.unlock_local(t, true, || released = true) };
        waiter.join().unwrap();
        assert!(!released);
    }

    #[test]
    fn alone_reflects_queue() {
        let l = Arc::new(TicketLock::new());
        let (t, _) = l.lock_local();
        assert!(l.alone(&t));
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || {
            let (t2, _) = l2.lock_local();
            unsafe { l2.unlock_local(t2, false, || {}) };
        });
        while l.alone(&t) {
            std::hint::spin_loop();
        }
        assert!(!l.alone(&t));
        unsafe { l.unlock_local(t, false, || {}) };
        h.join().unwrap();
    }

    #[test]
    fn try_lock_local_only_when_front() {
        let l = TicketLock::new();
        let (t, _) = l.try_lock_local().expect("free");
        assert!(l.try_lock_local().is_none());
        unsafe { l.unlock_local(t, false, || {}) };
        assert!(l.try_lock_local().is_some());
    }
}
