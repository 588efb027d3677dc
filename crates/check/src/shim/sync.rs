//! Shim `Mutex` / `RwLock` / `Condvar`.
//!
//! Each shim wraps the real `std` primitive plus a model object id. Inside a
//! model run the scheduler grants the lock *first* (`Ctx::acquire`), so the
//! real lock underneath is always uncontended: model threads never block on
//! OS primitives, only on the scheduler, which is what makes every
//! interleaving explorable and every deadlock detectable. Outside a model run
//! (`current_ctx()` is `None`) the shims degrade to plain `std` behaviour.
//!
//! Poisoning is swallowed: a model thread that panics fails the whole
//! execution anyway, so guards recover the inner value instead of
//! propagating `PoisonError` across threads.

use std::sync::LockResult;

pub use std::sync::Arc;

use crate::exec::{current_ctx, next_object_id, Access, Ctx};

fn unpoison<T>(result: Result<T, std::sync::PoisonError<T>>) -> T {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Model-checked stand-in for [`std::sync::Mutex`].
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    id: u64,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            id: next_object_id(),
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Acquires the mutex, blocking the model thread until it is free.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let ctx = current_ctx();
        if let Some(ctx) = &ctx {
            ctx.acquire(self.id, Access::Exclusive);
        }
        // With the model grant held the real lock is uncontended; without a
        // model run this is an ordinary blocking lock.
        let inner = unpoison(self.inner.lock());
        Ok(MutexGuard {
            lock: self,
            inner: Some(inner),
            ctx,
        })
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(unpoison(self.inner.into_inner()))
    }

    /// Returns a mutable reference to the inner value (no locking needed:
    /// `&mut self` proves exclusivity).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(unpoison(self.inner.get_mut()))
    }
}

// `derive(Default)` would bypass `new()` and hand every defaulted lock the
// same object id; the model must see distinct ids per lock.
impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

/// Guard returned by [`Mutex::lock`].
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    ctx: Option<Ctx>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // lint: infallible — `inner` is `Some` from construction until drop.
        self.inner.as_ref().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // lint: infallible — `inner` is `Some` from construction until drop.
        self.inner.as_mut().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before the model grant, so the next grantee
        // finds it free.
        self.inner = None;
        if let Some(ctx) = &self.ctx {
            ctx.release(self.lock.id);
        }
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// Model-checked stand-in for [`std::sync::RwLock`].
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    id: u64,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new lock holding `value`.
    pub fn new(value: T) -> Self {
        RwLock {
            id: next_object_id(),
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Acquires the lock shared.
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        let ctx = current_ctx();
        if let Some(ctx) = &ctx {
            ctx.acquire(self.id, Access::Shared);
        }
        let inner = unpoison(self.inner.read());
        Ok(RwLockReadGuard {
            lock: self,
            inner: Some(inner),
            ctx,
        })
    }

    /// Acquires the lock exclusively.
    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        let ctx = current_ctx();
        if let Some(ctx) = &ctx {
            ctx.acquire(self.id, Access::Exclusive);
        }
        let inner = unpoison(self.inner.write());
        Ok(RwLockWriteGuard {
            lock: self,
            inner: Some(inner),
            ctx,
        })
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(unpoison(self.inner.into_inner()))
    }

    /// Returns a mutable reference to the inner value.
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(unpoison(self.inner.get_mut()))
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

/// Guard returned by [`RwLock::read`].
#[derive(Debug)]
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    ctx: Option<Ctx>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // lint: infallible — `inner` is `Some` from construction until drop.
        self.inner.as_ref().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some(ctx) = &self.ctx {
            ctx.release(self.lock.id);
        }
    }
}

/// Guard returned by [`RwLock::write`].
#[derive(Debug)]
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    ctx: Option<Ctx>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // lint: infallible — `inner` is `Some` from construction until drop.
        self.inner.as_ref().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // lint: infallible — `inner` is `Some` from construction until drop.
        self.inner.as_mut().expect("guard still holds the lock")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        if let Some(ctx) = &self.ctx {
            ctx.release(self.lock.id);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Model-checked stand-in for [`std::sync::Condvar`].
#[derive(Debug)]
pub struct Condvar {
    id: u64,
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub fn new() -> Self {
        Condvar {
            id: next_object_id(),
            inner: std::sync::Condvar::new(),
        }
    }

    /// Releases `guard`'s mutex and parks until notified, then re-acquires.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        // Clones the `Option<Ctx>` scheduler handle (a refcount bump); the
        // production path takes the `None` branch.
        match guard.ctx.clone() {
            None => {
                // lint: infallible — `inner` is `Some` until the guard drops.
                let std_guard = guard.inner.take().expect("guard still holds the lock");
                guard.inner = Some(unpoison(self.inner.wait(std_guard)));
                Ok(guard)
            }
            Some(ctx) => {
                let lock = guard.lock;
                // From the model's point of view this is atomic: `cv_wait`
                // queues this thread on the condvar before the scheduler can
                // hand the released lock to a notifier.
                guard.inner = None;
                ctx.release(lock.id);
                ctx.cv_wait(self.id);
                ctx.acquire(lock.id, Access::Exclusive);
                guard.inner = Some(unpoison(lock.inner.lock()));
                Ok(guard)
            }
        }
    }

    /// Wakes one parked waiter (FIFO inside a model run).
    pub fn notify_one(&self) {
        match current_ctx() {
            None => self.inner.notify_one(),
            Some(ctx) => ctx.cv_notify(self.id, false),
        }
    }

    /// Wakes every parked waiter.
    pub fn notify_all(&self) {
        match current_ctx() {
            None => self.inner.notify_all(),
            Some(ctx) => ctx.cv_notify(self.id, true),
        }
    }
}

// Same rationale as `Mutex`: every condvar needs its own object id.
impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}
