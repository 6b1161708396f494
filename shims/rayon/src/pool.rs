//! The process-wide helper pool behind every `par_*` call.
//!
//! A call that wants `k` helpers publishes `k` *tickets* for one job — its
//! own drain loop — and starts draining at once. Parked helpers wake, take a
//! ticket each and run the same loop beside it. When the caller's pass
//! returns every item has been claimed; it withdraws the tickets nobody
//! picked up and waits only for the helpers that did pick one up. The caller
//! therefore never waits for a helper to *start*: a busy pool degrades to
//! the caller doing the work alone, and several callers (in-proc ranks)
//! sharing the helpers cannot deadlock each other.
//!
//! Helpers are started only when the tickets wanted by all callers at one
//! moment exceed the helpers that exist, so a steady caller at width `w`
//! settles at `w − 1` helpers after its first call and a process that never
//! leaves width 1 has none. They live as long as the process, as the real
//! rayon's global pool does, and cannot die of a job's panic: that is caught
//! and re-raised in the caller.

use crate::WIDTH;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

type Panic = Box<dyn Any + Send>;

/// Every update under the pool's mutexes is a counter step or a queue
/// push/pop that leaves the data valid at each point, so a poisoned lock is
/// taken over, not propagated — `fork_join` must not unwind while helpers
/// hold its borrow.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One `fork_join` call, as the helpers see it.
struct Job {
    /// The caller's drain loop, borrowed from its stack with the lifetime
    /// erased (see the SAFETY note in [`fork_join`]).
    work: &'static (dyn Fn() + Sync),
    open: Mutex<Open>,
    all_closed: Condvar,
}

struct Open {
    /// Tickets neither closed by the helper that ran them nor withdrawn.
    tickets: usize,
    /// The first panic a helper caught while running `work`.
    panic: Option<Panic>,
}

struct State {
    /// Tickets no helper has taken yet, oldest first.
    tickets: VecDeque<Arc<Job>>,
    /// Helpers the calls now in flight asked for, taken or not.
    wanted: usize,
    /// Helper threads started so far.
    helpers: usize,
}

static STATE: Mutex<State> = Mutex::new(State { tickets: VecDeque::new(), wanted: 0, helpers: 0 });
/// Parked helpers wait here for a ticket.
static TICKET: Condvar = Condvar::new();

fn helper_loop() {
    // A `par_*` call made from inside an item runs inline.
    WIDTH.set(1);
    let mut state = lock(&STATE);
    loop {
        let Some(job) = state.tickets.pop_front() else {
            state = TICKET.wait(state).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        drop(state);
        let panic = catch_unwind(AssertUnwindSafe(job.work)).err();
        let mut open = lock(&job.open);
        open.tickets -= 1;
        if open.panic.is_none() {
            open.panic = panic;
        }
        if open.tickets == 0 {
            job.all_closed.notify_one();
        }
        drop(open);
        state = lock(&STATE);
    }
}

/// The tickets of one published job. Dropping it ends the helpers' borrow of
/// the caller's closure: tickets still in the queue are withdrawn, the ones
/// a helper took are waited for.
struct Published {
    job: Arc<Job>,
    helpers: usize,
}

impl Published {
    /// Queues `helpers` tickets for `job`, starts the helpers the pool is
    /// short of, and wakes the parked ones.
    fn new(job: Arc<Job>, helpers: usize) -> Self {
        let mut state = lock(&STATE);
        state.wanted += helpers;
        state.tickets.extend(std::iter::repeat_with(|| job.clone()).take(helpers));
        while state.helpers < state.wanted {
            // A host that refuses another thread gets less parallelism.
            let builder = std::thread::Builder::new().name("rayon-shim-helper".into());
            if builder.spawn(helper_loop).is_err() {
                break;
            }
            state.helpers += 1;
        }
        drop(state);
        for _ in 0..helpers {
            TICKET.notify_one();
        }
        Published { job, helpers }
    }
}

impl Drop for Published {
    fn drop(&mut self) {
        let withdrawn = {
            let mut state = lock(&STATE);
            let queued = state.tickets.len();
            state.tickets.retain(|t| !Arc::ptr_eq(t, &self.job));
            state.wanted -= self.helpers;
            queued - state.tickets.len()
        };
        let mut open = lock(&self.job.open);
        open.tickets -= withdrawn;
        while open.tickets > 0 {
            open = self.job.all_closed.wait(open).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs `work` on the calling thread and, concurrently, on up to `helpers`
/// pool threads; returns when every one of those runs has returned. `work`
/// is a drain loop over a shared queue, so a helper that arrives late (or
/// never) costs nothing but parallelism. A panic in any run is re-raised
/// here after all of them have ended.
pub(crate) fn fork_join(helpers: usize, work: &(dyn Fn() + Sync)) {
    // SAFETY: the erased reference is reachable only through this job's
    // tickets. A helper dereferences it strictly between taking a ticket
    // from the queue and closing it; `Published::drop` — which runs on every
    // way out of this function, unwinding included — withdraws the queued
    // tickets under the queue's lock and blocks until each taken one is
    // closed. So no use of `work` outlives this call, which is all the
    // borrow's lifetime demands.
    let erased: &'static (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
    let job = Arc::new(Job {
        work: erased,
        open: Mutex::new(Open { tickets: helpers, panic: None }),
        all_closed: Condvar::new(),
    });
    let published = Published::new(job.clone(), helpers);
    let installed = WIDTH.replace(1);
    let own = catch_unwind(AssertUnwindSafe(work)).err();
    WIDTH.set(installed);
    drop(published);
    if let Some(panic) = own.or_else(|| lock(&job.open).panic.take()) {
        resume_unwind(panic);
    }
}
