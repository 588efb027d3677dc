//! Fair multiplexing of many card sessions over a pool of worker threads.
//!
//! A smart-card pull session is a long conversation: hundreds of APDU
//! exchanges and chunk requests per document. Serving K clients one after the
//! other would give the first card exclusive use of the DSP and make the last
//! card wait K full sessions. The [`SessionScheduler`] advances every session
//! a *quantum* of chunk requests at a time instead:
//!
//! * every worker owns a FIFO run queue holding the sessions themselves;
//!   the batch is dealt round-robin over the workers' queues at start;
//! * a worker steps the session at the front of its own queue once and —
//!   if it is still pending — requeues it at the tail of that same queue,
//!   so between two steps of one session every other session of the queue
//!   gets exactly one step (a fair round-robin per card);
//! * a worker whose queue is empty steals the session at the front of a
//!   peer's queue, so no worker idles while another has a backlog; it also
//!   takes a peer's front that trails its own front by more than one step
//!   (`MAX_LAG`), so a descheduled worker cannot hold its sessions back
//!   while the others lap theirs;
//! * a worker that finds nothing to take exits (`Run::work` explains why
//!   that strands no session and idles no backlog); the run ends when every
//!   worker has exited.
//!
//! With a single worker the schedule is an exact round-robin in submission
//! order; with more it is round-robin per worker, rebalanced by stealing.
//!
//! The scheduler is deliberately generic: anything implementing
//! [`Schedulable`] can be multiplexed. The terminal proxy implements it for
//! its `CardSession` (a card mid-pull against the shared [`crate::service::
//! DspService`]), which is what the E10 multi-client experiment drives.

use std::collections::VecDeque;

use sdds_sync::sync::atomic::{AtomicUsize, Ordering};
use sdds_sync::sync::{Mutex, MutexExt};
use sdds_sync::thread;

use crate::obs::{DspObs, SchedulerObs};

/// What a step of a session reports back to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The session made progress but has more work; requeue it.
    Pending,
    /// The session finished (its output can be collected from the session).
    Complete,
}

/// A session the scheduler can advance in bounded steps.
pub trait Schedulable: Send {
    /// Advances the session by at most `quantum` units of work (for a card
    /// pull session: chunk requests served). Returns [`StepOutcome::Pending`]
    /// while more work remains; an `Err` retires the session immediately with
    /// the given message.
    fn step(&mut self, quantum: usize) -> Result<StepOutcome, String>;
}

/// One retired session, with its scheduling telemetry.
#[derive(Debug)]
pub struct FinishedSession<S> {
    /// Position of the session in the submitted batch.
    pub index: usize,
    /// The session itself (views, meters and ledgers are read off it).
    pub session: S,
    /// Steps the scheduler granted it.
    pub steps: usize,
    /// Retirement rank: 0 for the first session to finish, and so on.
    pub completion_order: usize,
    /// Error message if the session failed rather than completed.
    pub error: Option<String>,
}

impl<S> FinishedSession<S> {
    /// True when the session retired without an error.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Outcome of one scheduler run.
#[derive(Debug)]
pub struct ScheduleReport<S> {
    /// Every submitted session, in retirement order.
    pub finished: Vec<FinishedSession<S>>,
    /// Total steps granted across sessions.
    pub steps_total: usize,
}

impl<S> ScheduleReport<S> {
    /// Sessions that failed, as `(index, message)` pairs.
    pub fn failures(&self) -> Vec<(usize, &str)> {
        self.finished
            .iter()
            .filter_map(|f| f.error.as_deref().map(|e| (f.index, e)))
            .collect()
    }

    /// Largest difference in granted steps between any two sessions — the
    /// fairness figure the round-robin tests pin.
    pub fn step_spread(&self) -> usize {
        let steps = self.finished.iter().map(|f| f.steps);
        match (steps.clone().max(), steps.min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }
}

/// A work-conserving round-robin scheduler over a fixed worker pool.
#[derive(Debug, Clone)]
pub struct SessionScheduler {
    workers: usize,
    quantum: usize,
    /// Run-queue depth, steps, steals and step latency; detached until
    /// [`SessionScheduler::with_obs`] wires it.
    obs: SchedulerObs,
}

/// Steps a peer's front session may trail the front of a worker's own
/// queue before that worker takes it. Taking a trailing front keeps the
/// round-robin fair across workers when one of them is descheduled (its
/// queue would otherwise wait for it while the others lap theirs), yet
/// leaves every session on its worker while the workers keep pace.
const MAX_LAG: usize = 1;

/// A session riding a run queue.
struct Job<S> {
    index: usize,
    session: S,
    steps: usize,
}

/// The state the workers of one [`SessionScheduler::run`] share.
struct Run<'a, S> {
    /// One FIFO per worker; only its owner pushes to it, any worker may pop
    /// its front.
    queues: Vec<Mutex<VecDeque<Job<S>>>>,
    /// Sessions waiting in a queue, for the depth gauge (kept only when the
    /// telemetry is live).
    queued: AtomicUsize,
    finished: Mutex<Vec<FinishedSession<S>>>,
    quantum: usize,
    obs: &'a SchedulerObs,
}

impl<S: Schedulable> Run<'_, S> {
    /// Worker `me`'s drive loop: steps sessions until it finds none to
    /// take, then exits.
    ///
    /// Exiting on the first miss strands nothing: only a queue's owner
    /// pushes to it, and a worker that requeues a session looks for work
    /// again right after, so the last worker to exit leaves every queue
    /// empty. Nor does it idle a backlog: a worker that finds every queue
    /// empty leaves its peers only the sessions they were stepping when it
    /// looked, each requeued and retaken by its stepper until it retires.
    /// Nothing sleeps, so no wakeup can be lost.
    fn work(&self, me: usize) {
        while let Some(job) = self.take(me) {
            self.step(me, job);
        }
    }

    /// The next session for worker `me`: the front of its own queue, or
    /// the front of a peer's (a steal) when its own queue is empty or the
    /// peer's front trails its own by more than [`MAX_LAG`] steps.
    fn take(&self, me: usize) -> Option<Job<S>> {
        let workers = self.queues.len();
        loop {
            let mine = self.queues[me].lock_np().front().map(|job| job.steps);
            let stolen = (1..workers).find_map(|offset| {
                let mut peer = self.queues[(me + offset) % workers].lock_np();
                let front = peer.front()?.steps;
                if mine.is_some_and(|mine| front + MAX_LAG >= mine) {
                    return None;
                }
                peer.pop_front()
            });
            if stolen.is_some() && self.obs.live {
                self.obs.steals.inc();
            }
            let job = match stolen {
                Some(job) => job,
                None => match self.queues[me].lock_np().pop_front() {
                    Some(job) => job,
                    // A peer took our front since we looked: look again.
                    None if mine.is_some() => continue,
                    None => return None,
                },
            };
            if self.obs.live {
                let depth = self.queued.fetch_sub(1, Ordering::Relaxed) - 1;
                self.obs.queue_depth.set(depth as u64);
            }
            return Some(job);
        }
    }

    /// Grants `job` one step on worker `me`, then requeues it at the tail of
    /// `me`'s queue or retires it.
    fn step(&self, me: usize, mut job: Job<S>) {
        job.steps += 1;
        let started = if self.obs.live {
            self.obs.recorder.now_nanos()
        } else {
            0
        };
        let outcome = job.session.step(self.quantum);
        if self.obs.live {
            let duration = self.obs.recorder.now_nanos().saturating_sub(started);
            self.obs.steps.inc();
            self.obs.step_latency.record(duration);
            self.obs
                .recorder
                .record(me, "sched.step", started, duration);
        }
        match outcome {
            Ok(StepOutcome::Pending) => {
                // Counted before the push, so the pop that takes it back
                // off never drives the count below zero.
                if self.obs.live {
                    let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
                    self.obs.queue_depth.set(depth as u64);
                }
                self.queues[me].lock_np().push_back(job);
            }
            Ok(StepOutcome::Complete) | Err(_) => self.retire(job, outcome.err()),
        }
    }

    /// Records `job` as finished, ranked by retirement.
    fn retire(&self, job: Job<S>, error: Option<String>) {
        let mut done = self.finished.lock_np();
        let completion_order = done.len();
        done.push(FinishedSession {
            index: job.index,
            session: job.session,
            steps: job.steps,
            completion_order,
            error,
        });
    }
}

impl SessionScheduler {
    /// Creates a scheduler with `workers` worker threads, each advancing a
    /// session by `quantum` units per step. Both are clamped to at least 1.
    pub fn new(workers: usize, quantum: usize) -> Self {
        SessionScheduler {
            workers: workers.max(1),
            quantum: quantum.max(1),
            obs: SchedulerObs::detached(),
        }
    }

    /// Wires the scheduler's telemetry (run-queue depth, steps, steals and
    /// step latency) into `obs`'s cells so a service-wide snapshot covers the
    /// scheduling layer.
    pub fn with_obs(mut self, obs: &DspObs) -> Self {
        self.obs = obs.scheduler();
        self
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Units of work per scheduling step.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// Runs every session to retirement and returns them, in retirement
    /// order, with their scheduling telemetry. Session `i` starts on worker
    /// `i % workers`; see the module docs for the schedule.
    pub fn run<S: Schedulable>(&self, sessions: Vec<S>) -> ScheduleReport<S> {
        let count = sessions.len();
        let mut queues: Vec<VecDeque<_>> = (0..self.workers).map(|_| VecDeque::new()).collect();
        for (index, session) in sessions.into_iter().enumerate() {
            queues[index % self.workers].push_back(Job {
                index,
                session,
                steps: 0,
            });
        }
        if self.obs.live {
            self.obs.queue_depth.set(count as u64);
        }
        let run = Run {
            queues: queues.into_iter().map(Mutex::new).collect(),
            queued: AtomicUsize::new(count),
            finished: Mutex::new(Vec::with_capacity(count)),
            quantum: self.quantum,
            obs: &self.obs,
        };
        thread::scope(|scope| {
            for me in 0..self.workers {
                let run = &run;
                scope.spawn(move || run.work(me));
            }
        });
        let finished = run
            .finished
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let steps_total = finished.iter().map(|f| f.steps).sum();
        ScheduleReport {
            finished,
            steps_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A session needing `remaining` units of work.
    struct Counter {
        remaining: usize,
        fail_at: Option<usize>,
    }

    impl Schedulable for Counter {
        fn step(&mut self, quantum: usize) -> Result<StepOutcome, String> {
            if let Some(at) = self.fail_at {
                if self.remaining <= at {
                    return Err("boom".into());
                }
            }
            self.remaining = self.remaining.saturating_sub(quantum);
            if self.remaining == 0 {
                Ok(StepOutcome::Complete)
            } else {
                Ok(StepOutcome::Pending)
            }
        }
    }

    #[test]
    fn single_worker_round_robin_is_exactly_fair() {
        let scheduler = SessionScheduler::new(1, 10);
        let sessions = (0..8)
            .map(|_| Counter {
                remaining: 100,
                fail_at: None,
            })
            .collect();
        let report = scheduler.run(sessions);
        assert_eq!(report.finished.len(), 8);
        assert!(report.finished.iter().all(FinishedSession::is_ok));
        // Equal work + FIFO requeue ⇒ every session got exactly 10 steps.
        assert_eq!(report.step_spread(), 0);
        assert_eq!(report.steps_total, 80);
        // Round-robin retires equal sessions in submission order.
        let order: Vec<usize> = report.finished.iter().map(|f| f.index).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn short_sessions_finish_before_long_ones_complete() {
        let scheduler = SessionScheduler::new(2, 5);
        let mut sessions = Vec::new();
        for i in 0..6 {
            sessions.push(Counter {
                remaining: if i % 2 == 0 { 10 } else { 200 },
                fail_at: None,
            });
        }
        let report = scheduler.run(sessions);
        assert_eq!(report.finished.len(), 6);
        // The three short sessions all retire before any long one: fairness
        // means a long session cannot starve the short ones behind it.
        let short_max = report
            .finished
            .iter()
            .filter(|f| f.index % 2 == 0)
            .map(|f| f.completion_order)
            .max()
            .unwrap();
        let long_min = report
            .finished
            .iter()
            .filter(|f| f.index % 2 == 1)
            .map(|f| f.completion_order)
            .min()
            .unwrap();
        assert!(short_max < long_min);
    }

    #[test]
    fn failing_sessions_retire_with_their_error_without_stalling_others() {
        let scheduler = SessionScheduler::new(3, 7);
        let sessions = vec![
            Counter {
                remaining: 50,
                fail_at: None,
            },
            Counter {
                remaining: 50,
                fail_at: Some(30),
            },
            Counter {
                remaining: 50,
                fail_at: None,
            },
        ];
        let report = scheduler.run(sessions);
        assert_eq!(report.finished.len(), 3);
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 1);
        assert_eq!(failures[0].1, "boom");
        assert!(report.finished.iter().filter(|f| f.is_ok()).count() == 2);
    }

    #[test]
    fn idle_workers_retire_every_session_and_exit() {
        // More workers than sessions: two workers never own a session, and
        // every worker must still see the run end once both retire.
        let scheduler = SessionScheduler::new(4, 5);
        let sessions = vec![
            Counter {
                remaining: 40,
                fail_at: None,
            },
            Counter {
                remaining: 40,
                fail_at: Some(20),
            },
        ];
        let report = scheduler.run(sessions);
        assert_eq!(report.finished.len(), 2);
        assert_eq!(report.failures(), vec![(1, "boom")]);
        assert!(report.finished.iter().any(|f| f.index == 0 && f.is_ok()));
        let mut ranks: Vec<usize> = report.finished.iter().map(|f| f.completion_order).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1]);
    }

    #[test]
    fn a_stalled_worker_does_not_hold_its_queue_back() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc};

        enum Session {
            /// Blocks in its first step until the short session is done.
            Stall(mpsc::Receiver<()>),
            /// Two steps of work, then marks itself done and releases the
            /// stall.
            Short(Counter, Arc<AtomicBool>, mpsc::Sender<()>),
            /// Forty steps of work; records whether the short session was
            /// done by the time it finished.
            Long(Counter, Arc<AtomicBool>, bool),
        }
        impl Schedulable for Session {
            fn step(&mut self, quantum: usize) -> Result<StepOutcome, String> {
                match self {
                    Session::Stall(release) => {
                        release.recv().map_err(|e| e.to_string())?;
                        Ok(StepOutcome::Complete)
                    }
                    Session::Short(counter, done, release) => {
                        let outcome = counter.step(quantum)?;
                        if outcome == StepOutcome::Complete {
                            done.store(true, Ordering::SeqCst);
                            release.send(()).map_err(|e| e.to_string())?;
                        }
                        Ok(outcome)
                    }
                    Session::Long(counter, done, saw_done) => {
                        let outcome = counter.step(quantum)?;
                        *saw_done = done.load(Ordering::SeqCst);
                        Ok(outcome)
                    }
                }
            }
        }
        let work = |remaining| Counter {
            remaining,
            fail_at: None,
        };
        // Worker 0 holds the stall and then the short session; worker 1
        // holds the two long ones. Whichever worker takes the stall is stuck
        // in it until the short session is done, so the other worker must
        // take the short one off the stuck worker's queue before it laps its
        // own long sessions to completion.
        let done = Arc::new(AtomicBool::new(false));
        let (release, stall) = mpsc::channel();
        let sessions = vec![
            Session::Stall(stall),
            Session::Long(work(200), Arc::clone(&done), false),
            Session::Short(work(10), Arc::clone(&done), release),
            Session::Long(work(200), Arc::clone(&done), false),
        ];
        let report = SessionScheduler::new(2, 5).run(sessions);
        assert!(report.failures().is_empty(), "{:?}", report.failures());
        for finished in &report.finished {
            if let Session::Long(_, _, saw_done) = finished.session {
                assert!(saw_done, "long session {} finished first", finished.index);
            }
        }
    }

    #[test]
    fn clamps_degenerate_configuration() {
        let scheduler = SessionScheduler::new(0, 0);
        assert_eq!(scheduler.workers(), 1);
        assert_eq!(scheduler.quantum(), 1);
        let report = scheduler.run(vec![Counter {
            remaining: 3,
            fail_at: None,
        }]);
        assert_eq!(report.finished.len(), 1);
        assert_eq!(report.finished[0].steps, 3);
        assert_eq!(report.step_spread(), 0);
    }
}
