//! Minimal `parking_lot`-style wrappers over `std::sync`.
//!
//! The pool's locking protocol wants the ergonomics of `parking_lot`
//! (no poison handling, `Condvar::wait(&mut guard)`), but the workspace
//! builds offline with the standard library alone. These wrappers keep
//! the call sites identical: poisoning is swallowed (a panicked region
//! already re-throws through its own payload channel, so a poisoned
//! mutex carries no extra information).

use std::sync::PoisonError;

/// A mutex whose `lock()` never returns a poison error.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// Guard returned by [`Mutex::lock`]. Holds the inner std guard in an
/// `Option` so [`Condvar::wait`] can temporarily take ownership of it.
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// Wrap `value` in a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquire the lock, ignoring poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Try to acquire the lock without blocking; `None` if contended.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard present outside wait")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard present outside wait")
    }
}

/// A condition variable that re-locks through [`MutexGuard`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically release the guard's lock and wait for a notification.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present outside wait");
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(5);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn try_lock_reports_contention() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::new(AtomicBool::new(false));
        let (s2, f2) = (Arc::clone(&shared), Arc::clone(&flag));
        let t = std::thread::spawn(move || {
            let mut ready = s2.0.lock();
            while !*ready {
                s2.1.wait(&mut ready);
            }
            f2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        *shared.0.lock() = true;
        shared.1.notify_all();
        t.join().unwrap();
        assert!(flag.load(Ordering::SeqCst));
    }
}
