//! The cooperative execution engine behind [`crate::Model`].
//!
//! One *execution* runs the test body once under a fully controlled schedule:
//! every model thread is a real OS thread, but at most one of them is ever
//! *granted* (allowed to run) — all others sleep on the shared condvar until
//! the engine hands them the grant. Every shim operation (lock, atomic,
//! spawn, …) calls back into the engine at a *scheduling point*, where the
//! engine either follows the preset schedule prefix (replay) or extends the
//! schedule with the first untried choice (depth-first search). Blocking
//! semantics (mutexes, rwlocks, condvars, joins) are modelled here, so a
//! schedule in which every thread is blocked is reported as a deadlock (or a
//! lost wakeup, when the blocked threads wait on a condvar) instead of
//! hanging the process.
//!
//! Exclusion needs no memory tricks: since only one model thread runs at a
//! time, the shim guards can hold the real `std::sync` guards underneath, and
//! the engine only ever lets a thread *attempt* a real acquisition it has
//! already granted at the model level — the real lock is always uncontended
//! when touched.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Model thread id (0 is the execution's main thread).
pub type Tid = usize;

/// Monotonic ids for shim objects (locks, condvars), assigned at construction
/// so an object captured across executions keeps a stable identity.
static NEXT_OBJECT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh shim-object id.
pub(crate) fn next_object_id() -> u64 {
    NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed)
}

/// How a thread wants (or holds) a lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    Shared,
    Exclusive,
}

/// Why a thread is not currently runnable.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    /// Eligible to be granted the next slice.
    Runnable,
    /// Waiting for a lock to become available.
    Lock { lock: u64, access: Access },
    /// Parked on a condvar, waiting for a notification.
    Condvar { cv: u64 },
    /// Waiting for another model thread to finish.
    Join { child: Tid },
    /// Finished (returned or unwound).
    Done,
}

/// Model state of one lock object.
#[derive(Debug, Default)]
struct LockModel {
    writer: Option<Tid>,
    readers: Vec<Tid>,
}

impl LockModel {
    fn try_grant(&mut self, tid: Tid, access: Access) -> bool {
        match access {
            Access::Shared if self.writer.is_none() => {
                self.readers.push(tid);
                true
            }
            Access::Exclusive if self.writer.is_none() && self.readers.is_empty() => {
                self.writer = Some(tid);
                true
            }
            _ => false,
        }
    }

    fn release(&mut self, tid: Tid) {
        if self.writer == Some(tid) {
            self.writer = None;
        } else if let Some(at) = self.readers.iter().position(|&r| r == tid) {
            self.readers.swap_remove(at);
        }
    }
}

/// One scheduling decision: which of the eligible threads ran next.
#[derive(Debug, Clone)]
pub(crate) struct Choice {
    /// Threads that could have been granted at this point (current thread
    /// first, then ascending tid) — the DFS branches over this list.
    pub eligible: Vec<Tid>,
    /// Index into `eligible` that this execution took.
    pub chosen: usize,
}

/// Why an execution failed.
#[derive(Debug, Clone)]
pub(crate) enum Failure {
    /// A model thread panicked (assertion failure in the test body).
    Panic { tid: Tid, message: String },
    /// No thread is runnable but not every thread is done.
    Deadlock { report: String },
    /// The execution exceeded the per-run scheduling-point budget.
    StepBudget { steps: usize },
}

impl Failure {
    pub(crate) fn message(&self) -> String {
        match self {
            Failure::Panic { tid, message } => {
                format!("thread t{tid} panicked: {message}")
            }
            Failure::Deadlock { report } => report.clone(),
            Failure::StepBudget { steps } => format!(
                "execution exceeded {steps} scheduling points (livelock or \
                 unbounded loop under the model)"
            ),
        }
    }
}

/// Shared state of one execution.
struct ExecState {
    slots: Vec<Status>,
    /// The one thread currently granted a slice (`None` once all are done).
    granted: Option<Tid>,
    /// Schedule taken so far (grows at each scheduling point).
    schedule: Vec<Choice>,
    /// Choice indices to follow before exploring (the DFS/replay prefix).
    preset: Vec<usize>,
    cursor: usize,
    /// Preemptive switches taken so far (bounds the DFS width).
    preemptions: usize,
    preemption_bound: usize,
    max_steps: usize,
    locks: HashMap<u64, LockModel>,
    /// FIFO wait queues per condvar.
    cv_queues: HashMap<u64, Vec<Tid>>,
    failure: Option<Failure>,
    /// Trace of granted tids, for the human-readable counterexample.
    trace: Vec<Tid>,
}

impl ExecState {
    fn all_done(&self) -> bool {
        self.slots.iter().all(|s| *s == Status::Done)
    }

    fn abort_requested(&self) -> bool {
        self.failure.is_some()
    }
}

/// Handle to the engine, shared by every model thread of one execution.
pub(crate) struct Execution {
    state: Mutex<ExecState>,
    wake: Condvar,
}

/// Sentinel panic payload used to unwind model threads once an execution has
/// failed: the thread wrapper recognises it and does not report it as a new
/// failure.
pub(crate) struct AbortUnwind;

/// Per-OS-thread handle: which execution this thread belongs to, and as whom.
#[derive(Clone)]
pub(crate) struct Ctx {
    exec: Arc<Execution>,
    tid: Tid,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx").field("tid", &self.tid).finish()
    }
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

/// The calling OS thread's model context, if it is a model thread.
pub(crate) fn current_ctx() -> Option<Ctx> {
    // `Ctx` is a shared handle; the clone bumps refcounts only.
    CURRENT.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Option<Ctx>) {
    CURRENT.with(|c| *c.borrow_mut() = ctx);
}

/// Installs (once) a panic hook that silences panics on model threads (the
/// DFS intentionally drives threads into assertion failures thousands of
/// times) and records the failure *at panic time*, before unwinding starts.
/// Early recording matters: unwinding may run `std::thread::scope` exits that
/// OS-join model children, and those children only retire once they observe
/// the recorded failure.
fn install_quiet_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| match current_ctx() {
            None => default(info),
            Some(ctx) => ctx.record_hook_panic(info),
        }));
    });
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Outcome of a scheduling decision.
#[derive(PartialEq)]
enum Picked {
    Ok,
    Aborted,
}

impl Ctx {
    /// This context's model thread id.
    pub(crate) fn tid(&self) -> Tid {
        self.tid
    }

    /// Records a panic observed by the global hook on this model thread and
    /// wakes every parked thread so they retire. Runs before unwinding, so
    /// scope exits executed during the unwind find the children already
    /// abortable. Never panics (it runs inside the panic hook).
    fn record_hook_panic(&self, info: &std::panic::PanicHookInfo<'_>) {
        if info.payload().downcast_ref::<AbortUnwind>().is_some() {
            return;
        }
        let mut st = self
            .exec
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if st.failure.is_none() {
            st.failure = Some(Failure::Panic {
                tid: self.tid,
                message: panic_message(info.payload()),
            });
            st.granted = None;
        }
        drop(st);
        self.exec.wake.notify_all();
    }

    /// A plain scheduling point: pick who runs next, then wait for the grant.
    pub(crate) fn point(&self) {
        if std::thread::panicking() {
            return;
        }
        let mut st = self.lock_state();
        st.trace.push(self.tid);
        if self.step_budget(&mut st) == Picked::Aborted
            || self.pick_next(&mut st, true) == Picked::Aborted
        {
            self.abort(st);
        }
        self.wait_granted(st);
    }

    /// Blocks until `lock` can be taken with `access` at the model level.
    /// The real `std` primitive is only touched by the caller *after* this
    /// returns, when the model guarantees it is uncontended.
    pub(crate) fn acquire(&self, lock: u64, access: Access) {
        self.point();
        loop {
            let mut st = self.lock_state();
            if st
                .locks
                .entry(lock)
                .or_default()
                .try_grant(self.tid, access)
            {
                return;
            }
            st.slots[self.tid] = Status::Lock { lock, access };
            if self.pick_next(&mut st, false) == Picked::Aborted {
                self.abort(st);
            }
            self.wait_granted(st);
        }
    }

    /// Releases `lock` and marks every thread blocked on it runnable (they
    /// re-attempt acquisition when next granted). Never blocks and never
    /// panics: it runs from guard destructors, including during unwinding.
    pub(crate) fn release(&self, lock: u64) {
        let Ok(mut st) = self.exec.state.lock() else {
            return;
        };
        if let Some(model) = st.locks.get_mut(&lock) {
            model.release(self.tid);
        }
        for slot in st.slots.iter_mut() {
            if matches!(slot, Status::Lock { lock: l, .. } if *l == lock) {
                *slot = Status::Runnable;
            }
        }
    }

    /// Parks the thread on condvar `cv`. The caller must have released the
    /// associated lock (model and real) first, and re-acquires it after.
    pub(crate) fn cv_wait(&self, cv: u64) {
        let mut st = self.lock_state();
        st.trace.push(self.tid);
        st.cv_queues.entry(cv).or_default().push(self.tid);
        st.slots[self.tid] = Status::Condvar { cv };
        if self.step_budget(&mut st) == Picked::Aborted
            || self.pick_next(&mut st, false) == Picked::Aborted
        {
            self.abort(st);
        }
        self.wait_granted(st);
    }

    /// Wakes waiters of condvar `cv` (FIFO for `notify_one`).
    pub(crate) fn cv_notify(&self, cv: u64, all: bool) {
        self.point();
        let mut st = self.lock_state();
        let woken: Vec<Tid> = match st.cv_queues.entry(cv).or_default() {
            queue if all => std::mem::take(queue),
            queue if queue.is_empty() => Vec::new(),
            queue => vec![queue.remove(0)],
        };
        for tid in woken {
            st.slots[tid] = Status::Runnable;
        }
    }

    /// Registers a new model thread (runnable, not yet granted) and returns
    /// its tid. No scheduling point here: the child cannot be granted before
    /// its OS thread exists, so the spawner yields (via [`Ctx::point`])
    /// only *after* the real spawn returns — that is where child-first
    /// schedules branch.
    pub(crate) fn register_child(&self) -> Tid {
        let mut st = self.lock_state();
        st.slots.push(Status::Runnable);
        st.slots.len() - 1
    }

    /// Blocks until model thread `child` is done.
    pub(crate) fn join(&self, child: Tid) {
        self.point();
        loop {
            let mut st = self.lock_state();
            if st.slots[child] == Status::Done {
                return;
            }
            st.slots[self.tid] = Status::Join { child };
            if self.pick_next(&mut st, false) == Picked::Aborted {
                self.abort(st);
            }
            self.wait_granted(st);
        }
    }

    /// Marks this thread done, wakes joiners, and hands the grant on. Must
    /// never unwind: it runs on every exit path, including after an abort.
    fn finish(&self) {
        let mut st = self
            .exec
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        st.slots[self.tid] = Status::Done;
        for slot in st.slots.iter_mut() {
            if matches!(slot, Status::Join { child } if *child == self.tid) {
                *slot = Status::Runnable;
            }
        }
        if st.failure.is_none() {
            // A deadlock discovered here is recorded, not unwound — this
            // thread is retiring either way.
            let _ = self.pick_next(&mut st, false);
        } else {
            st.granted = None;
        }
        drop(st);
        self.exec.wake.notify_all();
    }

    /// Unwinds the calling thread after a recorded failure.
    fn abort(&self, st: MutexGuard<'_, ExecState>) -> ! {
        drop(st);
        self.exec.wake.notify_all();
        std::panic::panic_any(AbortUnwind);
    }

    fn lock_state(&self) -> MutexGuard<'_, ExecState> {
        let st = self
            .exec
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if st.abort_requested() {
            drop(st);
            self.exec.wake.notify_all();
            std::panic::panic_any(AbortUnwind);
        }
        st
    }

    fn step_budget(&self, st: &mut ExecState) -> Picked {
        if st.trace.len() > st.max_steps {
            st.failure = Some(Failure::StepBudget {
                steps: st.max_steps,
            });
            st.granted = None;
            return Picked::Aborted;
        }
        Picked::Ok
    }

    /// Picks the next granted thread: follows the preset prefix while it
    /// lasts, then always takes the first eligible thread (the DFS driver
    /// backtracks by extending the preset). `self_runnable` is false when the
    /// caller just blocked or finished. Never unwinds: a deadlock is recorded
    /// and reported as `Picked::Aborted`.
    fn pick_next(&self, st: &mut ExecState, self_runnable: bool) -> Picked {
        let mut runnable: Vec<Tid> = Vec::new();
        if self_runnable {
            runnable.push(self.tid);
        }
        for (tid, slot) in st.slots.iter().enumerate() {
            if *slot == Status::Runnable && !(self_runnable && tid == self.tid) {
                runnable.push(tid);
            }
        }
        if runnable.is_empty() {
            if !st.all_done() {
                st.failure = Some(Failure::Deadlock {
                    report: deadlock_report(st),
                });
                st.granted = None;
                return Picked::Aborted;
            }
            st.granted = None;
            self.exec.wake.notify_all();
            return Picked::Ok;
        }
        // Beyond the preemption bound, a runnable current thread keeps
        // running: the DFS only branches over bounded preemptions (plus every
        // forced switch, which costs nothing against the bound).
        let eligible = if self_runnable
            && st.cursor >= st.preset.len()
            && st.preemptions >= st.preemption_bound
        {
            vec![self.tid]
        } else {
            runnable
        };
        let chosen = if st.cursor < st.preset.len() {
            let c = st.preset[st.cursor];
            debug_assert!(c < eligible.len(), "preset/schedule divergence");
            c.min(eligible.len() - 1)
        } else {
            0
        };
        let next = eligible[chosen];
        if self_runnable && next != self.tid {
            st.preemptions += 1;
        }
        st.schedule.push(Choice { eligible, chosen });
        st.cursor += 1;
        st.granted = Some(next);
        self.exec.wake.notify_all();
        Picked::Ok
    }

    /// Sleeps until this thread holds the grant (or the execution aborted).
    fn wait_granted(&self, mut st: MutexGuard<'_, ExecState>) {
        loop {
            if st.abort_requested() {
                drop(st);
                self.exec.wake.notify_all();
                std::panic::panic_any(AbortUnwind);
            }
            if st.granted == Some(self.tid) && st.slots[self.tid] == Status::Runnable {
                return;
            }
            st = self
                .exec
                .wake
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

fn deadlock_report(st: &ExecState) -> String {
    let mut blocked: Vec<String> = Vec::new();
    let mut cv_waiters = 0usize;
    for (tid, slot) in st.slots.iter().enumerate() {
        match slot {
            Status::Lock { lock, access } => blocked.push(format!(
                "t{tid} blocked acquiring lock #{lock} ({})",
                match access {
                    Access::Shared => "read",
                    Access::Exclusive => "write",
                }
            )),
            Status::Condvar { cv } => {
                cv_waiters += 1;
                blocked.push(format!("t{tid} parked on condvar #{cv}"));
            }
            Status::Join { child } => blocked.push(format!("t{tid} joining t{child}")),
            Status::Runnable | Status::Done => {}
        }
    }
    let kind = if cv_waiters > 0 && cv_waiters == blocked.len() {
        "lost wakeup: every undone thread is parked on a condvar with no \
         runnable notifier"
    } else {
        "deadlock: no thread is runnable"
    };
    format!("{kind} — {}", blocked.join("; "))
}

/// Wraps a model-thread body: sets the thread-local context, waits for the
/// first grant, runs `f` catching panics, and retires the thread.
pub(crate) fn run_thread<T>(ctx: Ctx, f: impl FnOnce() -> T) -> Option<T> {
    install_quiet_hook();
    let previous = current_ctx();
    set_ctx(Some(ctx.clone()));
    {
        let st = ctx
            .exec
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        ctx.wait_granted(st);
    }
    let result = catch_unwind(AssertUnwindSafe(f));
    let out = match result {
        Ok(value) => Some(value),
        Err(payload) => {
            if !payload.is::<AbortUnwind>() {
                let mut st = ctx
                    .exec
                    .state
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                if st.failure.is_none() {
                    st.failure = Some(Failure::Panic {
                        tid: ctx.tid,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
            None
        }
    };
    ctx.finish();
    set_ctx(previous);
    out
}

/// Everything the DFS driver needs back from one execution.
pub(crate) struct RunOutcome {
    pub schedule: Vec<Choice>,
    pub trace: Vec<Tid>,
    pub failure: Option<Failure>,
}

/// Runs `f` once as model thread 0 under the given preset schedule prefix.
pub(crate) fn run_once(
    preset: &[usize],
    preemption_bound: usize,
    max_steps: usize,
    f: &(dyn Fn() + Sync),
) -> RunOutcome {
    let exec = Arc::new(Execution {
        state: Mutex::new(ExecState {
            slots: vec![Status::Runnable],
            granted: Some(0),
            schedule: Vec::new(),
            preset: preset.to_vec(),
            cursor: 0,
            preemptions: 0,
            preemption_bound,
            max_steps,
            locks: HashMap::new(),
            cv_queues: HashMap::new(),
            failure: None,
            trace: Vec::new(),
        }),
        wake: Condvar::new(),
    });
    std::thread::scope(|scope| {
        let exec = Arc::clone(&exec);
        scope.spawn(move || {
            run_thread(
                Ctx {
                    exec: Arc::clone(&exec),
                    tid: 0,
                },
                f,
            );
        });
    });
    // Scoped shim threads are joined inside thread 0; free-spawned shim
    // threads may still be retiring — wait until every slot is done.
    {
        let mut st = exec
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while !st.all_done() && st.failure.is_none() {
            st = exec
                .wake
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
    let st = exec
        .state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    RunOutcome {
        schedule: st.schedule.clone(),
        trace: st.trace.clone(),
        failure: st.failure.clone(),
    }
}

/// Spawn support for the shims: registers a child with the current
/// execution, returning the context to run it under.
pub(crate) fn child_ctx(parent: &Ctx) -> Ctx {
    Ctx {
        exec: Arc::clone(&parent.exec),
        tid: parent.register_child(),
    }
}
