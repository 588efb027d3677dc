//! Shim `thread::spawn` / `thread::scope`.
//!
//! Model threads are real OS threads, but they only run while the scheduler
//! grants them a slice, so spawning is cheap to reason about: a spawn
//! registers the child with the engine (making child-first schedules
//! explorable) and the child body runs under the engine's `run_thread`,
//! which catches panics and reports them as counterexamples.
//!
//! [`scope`] is built on [`std::thread::scope`], with one twist: every child
//! is *model*-joined before the `std` scope exits, so the OS-level join never
//! waits on a thread the scheduler has not granted yet. The closure receives
//! `&Scope` exactly like the `std` API, so library code written as
//! `thread::scope(|scope| … scope.spawn(…) …)` compiles against either.

use std::time::Duration;

use crate::exec::{child_ctx, current_ctx, run_thread, Tid};

fn unpoison<T>(result: Result<T, std::sync::PoisonError<T>>) -> T {
    result.unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn panicked<T>() -> std::thread::Result<T> {
    Err(Box::new("model thread panicked".to_owned()))
}

/// Model-checked stand-in for [`std::thread::spawn`].
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match current_ctx() {
        None => JoinHandle {
            inner: std::thread::spawn(move || Some(f())),
            child: None,
        },
        Some(ctx) => {
            let child = child_ctx(&ctx);
            let tid = child.tid();
            let inner = std::thread::spawn(move || run_thread(child, f));
            // Yield only now that the child's OS thread exists: this is the
            // point where child-first schedules branch off.
            ctx.point();
            JoinHandle {
                inner,
                child: Some(tid),
            }
        }
    }
}

/// Model-checked stand-in for [`std::thread::JoinHandle`].
#[derive(Debug)]
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<Option<T>>,
    child: Option<Tid>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish and returns its result. Inside a model
    /// run a panicked child reports `Err` here *and* fails the execution.
    pub fn join(self) -> std::thread::Result<T> {
        if let (Some(child), Some(ctx)) = (self.child, current_ctx()) {
            ctx.join(child);
        }
        match self.inner.join() {
            Ok(Some(value)) => Ok(value),
            Ok(None) => panicked(),
            Err(payload) => Err(payload),
        }
    }

    /// Whether the thread has finished running.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Model-checked stand-in for [`std::thread::scope`].
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'a, 'scope> FnOnce(&'a Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|inner| {
        let wrapper = Scope {
            inner,
            children: std::sync::Mutex::new(Vec::new()),
        };
        let out = f(&wrapper);
        // Model-join every child before the std scope exits: the OS-level
        // join must never wait on a thread the scheduler still has parked.
        // (Joining an already-joined or finished child is a no-op.)
        if let Some(ctx) = current_ctx() {
            let pending = std::mem::take(&mut *unpoison(wrapper.children.lock()));
            for child in pending {
                ctx.join(child);
            }
        }
        out
    })
}

/// Model-checked stand-in for [`std::thread::Scope`].
#[derive(Debug)]
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    children: std::sync::Mutex<Vec<Tid>>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread, exactly like [`std::thread::Scope::spawn`].
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        match current_ctx() {
            None => ScopedJoinHandle {
                inner: self.inner.spawn(move || Some(f())),
                child: None,
            },
            Some(ctx) => {
                let child = child_ctx(&ctx);
                let tid = child.tid();
                unpoison(self.children.lock()).push(tid);
                let inner = self.inner.spawn(move || run_thread(child, f));
                // Yield only now that the child's OS thread exists: this is
                // the point where child-first schedules branch off.
                ctx.point();
                ScopedJoinHandle {
                    inner,
                    child: Some(tid),
                }
            }
        }
    }
}

/// Model-checked stand-in for [`std::thread::ScopedJoinHandle`].
#[derive(Debug)]
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, Option<T>>,
    child: Option<Tid>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits for the thread to finish and returns its result.
    pub fn join(self) -> std::thread::Result<T> {
        if let (Some(child), Some(ctx)) = (self.child, current_ctx()) {
            ctx.join(child);
        }
        match self.inner.join() {
            Ok(Some(value)) => Ok(value),
            Ok(None) => panicked(),
            Err(payload) => Err(payload),
        }
    }

    /// Whether the thread has finished running.
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

/// Yield point; outside a model run this is [`std::thread::yield_now`].
pub fn yield_now() {
    match current_ctx() {
        None => std::thread::yield_now(),
        Some(ctx) => ctx.point(),
    }
}

/// Inside a model run, sleeping is just a yield point: the model has no
/// clock, and correctness must not depend on timing. Outside, real sleep.
pub fn sleep(duration: Duration) {
    match current_ctx() {
        None => std::thread::sleep(duration),
        Some(ctx) => ctx.point(),
    }
}
