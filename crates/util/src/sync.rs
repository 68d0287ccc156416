//! The workspace's one lock idiom: `std::sync` locks that ignore poisoning.
//!
//! The workspace was written against locks that do not poison: every lock
//! guards state that is valid between any two statements of its critical
//! sections (counters, queues, maps), so a holder that panicked left
//! nothing half-done, and a poisoned lock is recovered rather than
//! propagated — here and nowhere else. The guards are `std`'s own.
//!
//! [`must_not_hang`] is the workspace's one hang guard for tests and test
//! oracles: a run that must return, on a thread of its own.

use std::sync::{self, PoisonError};
use std::time::Duration;

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// [`std::sync::Mutex`] whose `lock` cannot fail.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates an unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning its value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`std::sync::RwLock`] whose `read`/`write` cannot fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates an unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`std::sync::Condvar`] for guards of [`Mutex`]: guards go in and come
/// back by value, as in `std`.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Releases `guard`, blocks until notified, and re-acquires it.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// As [`wait`](Self::wait), but gives up after `timeout`.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        let (guard, _) = self
            .0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// Runs `body` on its own thread and panics, instead of hanging the
/// caller, if `body` has not returned within a minute; a panic in `body` is
/// re-raised on the caller. The clock only ever decides that a run has
/// hung; no passing run reads it.
pub fn must_not_hang<T: Send + 'static>(
    what: &str,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(out) => {
            handle.join().expect("body returned");
            out
        }
        // `body` panicked: re-raise its message.
        Err(sync::mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("sender dropped unsent"))
        }
        // Nothing can join a thread that hangs: it is left behind.
        Err(sync::mpsc::RecvTimeoutError::Timeout) => panic!("hung: {what}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_under_the_lock_does_not_poison_it() {
        let m = Arc::new(Mutex::new(1u32));
        let rw = Arc::new(RwLock::new(1u32));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let died = std::thread::spawn(move || {
            let _g = m2.lock();
            let _w = rw2.write();
            panic!("holder dies");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        *rw.write() += 1;
        assert_eq!((*m.lock(), *rw.read()), (2, 2));
        assert_eq!(Arc::try_unwrap(m).unwrap().into_inner(), 2);
    }

    #[test]
    fn condvar_hands_the_guard_back() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_all();
        });
        let mut g = pair.0.lock();
        while !*g {
            g = pair.1.wait(g);
        }
        t.join().unwrap();
        g = pair.1.wait_timeout(g, Duration::from_millis(1));
        assert!(*g);
    }
}
