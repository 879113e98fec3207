//! RAII mutex wrapper over any [`RawLock`].

use crate::raw::{RawAbortableLock, RawLock};
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A value protected by any lock in the suite.
///
/// `SpinMutex<T, L>` is to this crate what `std::sync::Mutex<T>` is to the
/// standard library: `lock()` returns a guard that derefs to `T` and
/// releases on drop. The lock algorithm is a type parameter, so swapping
/// algorithms under an application — the paper does exactly this to
/// memcached via an interpose library — is a one-line type change here.
///
/// ```
/// use base_locks::{SpinMutex, McsLock};
///
/// let counter: SpinMutex<u64, McsLock> = SpinMutex::new(0);
/// *counter.lock() += 1;
/// assert_eq!(*counter.lock(), 1);
/// ```
pub struct SpinMutex<T: ?Sized, L: RawLock> {
    lock: L,
    data: UnsafeCell<T>,
}

// SAFETY: standard mutex reasoning — the lock serializes access to `data`.
unsafe impl<T: ?Sized + Send, L: RawLock> Send for SpinMutex<T, L> {}
unsafe impl<T: ?Sized + Send, L: RawLock> Sync for SpinMutex<T, L> {}

impl<T, L: RawLock + Default> SpinMutex<T, L> {
    /// Wraps `value` with a default-constructed lock.
    pub fn new(value: T) -> Self {
        SpinMutex {
            lock: L::default(),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T, L: RawLock> SpinMutex<T, L> {
    /// Wraps `value` with an explicitly constructed lock (e.g. a cohort
    /// lock over a given topology).
    pub fn with_lock(lock: L, value: T) -> Self {
        SpinMutex {
            lock,
            data: UnsafeCell::new(value),
        }
    }

    /// Acquires the lock, spinning until available.
    pub fn lock(&self) -> SpinMutexGuard<'_, T, L> {
        let token = self.lock.lock();
        SpinMutexGuard {
            mutex: self,
            token: Some(token),
        }
    }

    /// Acquires the lock only if free right now.
    pub fn try_lock(&self) -> Option<SpinMutexGuard<'_, T, L>> {
        let token = self.lock.try_lock()?;
        Some(SpinMutexGuard {
            mutex: self,
            token: Some(token),
        })
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }

    /// Mutable access without locking (requires `&mut self`, hence unique).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// The underlying lock (for instrumentation).
    pub fn raw(&self) -> &L {
        &self.lock
    }
}

impl<T, L: RawAbortableLock> SpinMutex<T, L> {
    /// Abortable acquisition: gives up after about `patience_ns`
    /// nanoseconds (§3.6 of the paper).
    pub fn lock_with_patience(&self, patience_ns: u64) -> Option<SpinMutexGuard<'_, T, L>> {
        let token = self.lock.lock_with_patience(patience_ns)?;
        Some(SpinMutexGuard {
            mutex: self,
            token: Some(token),
        })
    }
}

impl<T: fmt::Debug, L: RawLock> fmt::Debug for SpinMutex<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("SpinMutex").field("data", &*g).finish(),
            None => f.write_str("SpinMutex { <locked> }"),
        }
    }
}

impl<T: Default, L: RawLock + Default> Default for SpinMutex<T, L> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// RAII guard: access to the data, releases on drop.
pub struct SpinMutexGuard<'a, T: ?Sized, L: RawLock> {
    mutex: &'a SpinMutex<T, L>,
    token: Option<L::Token>,
}

impl<T: ?Sized, L: RawLock> Deref for SpinMutexGuard<'_, T, L> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: guard existence proves we hold the lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized, L: RawLock> DerefMut for SpinMutexGuard<'_, T, L> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above, exclusively.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized, L: RawLock> Drop for SpinMutexGuard<'_, T, L> {
    fn drop(&mut self) {
        let token = self.token.take().expect("guard dropped twice");
        // SAFETY: token came from this mutex's lock().
        unsafe { self.mutex.lock.unlock(token) };
    }
}

impl<T: ?Sized + fmt::Debug, L: RawLock> fmt::Debug for SpinMutexGuard<'_, T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackoffLock, ClhLock, McsLock, TicketLock};
    use std::sync::Arc;

    fn guard_round_trip<L: RawLock + Default>() {
        let m: SpinMutex<Vec<u32>, L> = SpinMutex::new(vec![]);
        m.lock().push(1);
        m.lock().push(2);
        assert_eq!(*m.lock(), vec![1, 2]);
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn works_with_every_base_lock() {
        guard_round_trip::<BackoffLock>();
        guard_round_trip::<TicketLock>();
        guard_round_trip::<McsLock>();
        guard_round_trip::<ClhLock>();
    }

    #[test]
    fn try_lock_contention() {
        let m: SpinMutex<u32, BackoffLock> = SpinMutex::new(7);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().unwrap(), 7);
    }

    #[test]
    fn concurrent_increments() {
        let m: Arc<SpinMutex<u64, McsLock>> = Arc::new(SpinMutex::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 4_000);
    }

    #[test]
    fn get_mut_bypasses_lock() {
        let mut m: SpinMutex<u32, TicketLock> = SpinMutex::new(1);
        *m.get_mut() = 5;
        assert_eq!(*m.lock(), 5);
    }
}
