//! The trainer's step threads: `T − 1` helpers, parked between steps,
//! that run threads `1..T` of each step's *round* while the calling thread
//! runs thread 0. A panic that escapes a task is caught where it happens
//! and re-raised on the caller once every thread has finished (the lowest
//! thread's), so the gang survives it.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a helper polls for the next round, after a `spin` round,
/// before it parks.
const SPIN: Duration = Duration::from_micros(100);

/// A round's task, borrowed from [`Gang::run`]'s caller, lifetime erased.
type Task = &'static (dyn Fn(usize) + Sync);

/// A posted round: its task, and whether the helper spins after it.
type Round = (Task, bool);

/// A helper's word that it has run a round: its thread and the task's
/// panic, if any.
type Done = (usize, Option<Box<dyn Any + Send>>);

/// Helper `index`: runs `task(index)` of each round posted to `rounds`
/// and reports it, until the gang drops its end of `rounds`.
fn helper(index: usize, rounds: &Receiver<Round>, reports: &Sender<Done>) {
    let mut spin = false;
    loop {
        let until = Instant::now() + SPIN;
        let round = loop {
            match rounds.try_recv() {
                Err(TryRecvError::Empty) if spin && Instant::now() < until => {
                    std::hint::spin_loop()
                }
                Err(TryRecvError::Empty) => break rounds.recv().ok(),
                got => break got.ok(),
            }
        };
        let Some((task, next)) = round else { return };
        spin = next;
        let panic = catch_unwind(AssertUnwindSafe(|| task(index))).err();
        // The gang holds the receiver for as long as `rounds` is open.
        let _ = reports.send((index, panic));
    }
}

/// The step threads beyond the calling one (module docs).
pub(crate) struct Gang {
    /// Per helper: where its rounds are posted, and the thread.
    helpers: Vec<(Sender<Round>, JoinHandle<()>)>,
    reports: Receiver<Done>,
}

impl Gang {
    /// The calling thread and `threads − 1` helpers.
    pub(crate) fn new(threads: usize) -> Self {
        let (report, reports) = channel();
        let helpers = (1..threads)
            .map(|index| {
                let (post, rounds) = channel();
                let report = report.clone();
                let thread = std::thread::spawn(move || helper(index, &rounds, &report));
                (post, thread)
            })
            .collect();
        Gang { helpers, reports }
    }

    /// Threads in the gang, the calling one included.
    pub(crate) fn threads(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Runs `task(0)` on the calling thread and `task(1)` … `task(threads
    /// − 1)` on the helpers, first resizing the gang to `threads`; returns
    /// once all have finished. After a `spin` round the helpers poll for
    /// the next one for [`SPIN`] before they park.
    pub(crate) fn run(&mut self, threads: usize, spin: bool, task: &(dyn Fn(usize) + Sync)) {
        if self.threads() != threads {
            *self = Gang::new(threads);
        }
        // SAFETY: only the lifetime changes. A helper calls `task` only
        // between receiving it and sending its report, and this function
        // does not return (or unwind) before it has received a report from
        // every helper the task was posted to — its own `task(0)` is
        // caught, and a receive fails only once every helper has exited —
        // so no call can outlive the borrow.
        #[allow(unsafe_code)]
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Task>(task) };
        let posted = (self.helpers.iter())
            .filter(|(post, _)| post.send((task, spin)).is_ok())
            .count();
        let mine = catch_unwind(AssertUnwindSafe(|| task(0))).err();
        let mut theirs = Vec::new();
        for _ in 0..posted {
            if let (index, Some(payload)) = self.reports.recv().expect("a helper reports") {
                theirs.push((index, payload));
            }
        }
        assert_eq!(posted + 1, threads, "a step thread has exited");
        let theirs = theirs.into_iter().min_by_key(|&(index, _)| index);
        if let Some(payload) = mine.or(theirs.map(|(_, payload)| payload)) {
            resume_unwind(payload);
        }
    }
}

impl Drop for Gang {
    /// Closes every helper's rounds, which ends it, and joins it.
    fn drop(&mut self) {
        for (post, helper) in self.helpers.drain(..) {
            drop(post);
            // A helper catches every task's panic, so it cannot die of one.
            let _ = helper.join();
        }
    }
}
