//! The step-scoped board crew: helper threads that live for one
//! [`FarmSession::step`](crate::FarmSession::step) and take every pass,
//! replay and checkpoint encode of it over channels.
//!
//! The supervisor (the thread that called `step`) hands helper `h` a
//! job tagged with a fresh *ticket*; the helper runs it and answers the
//! ticket exactly once on the crew's shared report channel — with the
//! job's result, or, if the job ended without one (an injected death, a
//! panic), with nothing, after which the helper exits. The supervisor
//! accepts only answers to the tickets it is waiting for, so a result
//! that arrives after its watchdog gave up on it is dropped by its tag,
//! never committed. A helper that died or missed a deadline is
//! abandoned: its job channel closes, it exits once its job is done,
//! and the slot's next job spawns a replacement. Every helper ever
//! spawned is joined when the crew drops, before the step returns.
//!
//! Between jobs a helper polls its channel a fixed number of times
//! before it blocks, so a pass that follows within the supervisor's
//! barrier work costs no wake-up; the supervisor polls for answers the
//! same way. Each empty poll yields the processor
//! ([`std::thread::yield_now`]) rather than spinning in place: when the
//! scheduler has put the thread on the same core as the one it waits
//! for — as it does when more threads are runnable than there are
//! cores — a pure spin holds that core for the whole count and starves
//! the peer, and a daemon stepping small sessions ran at about 0.4× its
//! per-pass-thread speed that way. The count is a constant, not a
//! clock: nothing here reads the time except the watchdog, whose
//! deadline the caller passes in.

use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

/// Polls of an empty channel before a thread blocks on it: about
/// 0.75 ms of yields on a 2-core Xeon host, more than the supervisor's
/// work between two passes of a step.
const POLLS: u32 = 1 << 11;

/// How the supervisor's wait for one ticket ended.
pub(crate) enum Answer<D> {
    /// The helper ran the job to a result.
    Done(D),
    /// The job ended without a result; its helper has exited.
    Died,
    /// The deadline lapsed first; the helper was abandoned.
    Missed,
}

/// One helper slot: the job channel of its live helper, if any, and the
/// ticket that helper still owes.
struct Slot<J> {
    jobs: Option<Sender<(u64, J)>>,
    owes: Option<u64>,
}

/// A crew of helper threads on `scope`, each running `work` on the jobs
/// it is handed. `work` returns `None` when the job ends without a
/// result, which ends its helper.
pub(crate) struct Crew<'scope, 'env, W: ?Sized, J, D> {
    scope: &'scope Scope<'scope, 'env>,
    work: &'env W,
    slots: Vec<Slot<J>>,
    reports_tx: Sender<(u64, Option<D>)>,
    reports: Receiver<(u64, Option<D>)>,
    handles: Vec<ScopedJoinHandle<'scope, ()>>,
    next_ticket: u64,
}

#[cfg(test)]
thread_local! {
    /// Helpers spawned by crews this thread supervised.
    static SPAWNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Helpers spawned so far by crews the calling thread supervised.
#[cfg(test)]
pub(crate) fn spawns() -> usize {
    SPAWNS.with(|s| s.get())
}

impl<'scope, 'env: 'scope, W, J, D> Crew<'scope, 'env, W, J, D>
where
    W: Fn(J) -> Option<D> + Sync + ?Sized,
    J: Send + 'scope,
    D: Send + 'scope,
{
    /// An empty crew: helpers are spawned by the first job of each slot.
    pub(crate) fn new(scope: &'scope Scope<'scope, 'env>, work: &'env W) -> Self {
        let (reports_tx, reports) = mpsc::channel();
        Crew {
            scope,
            work,
            slots: Vec::new(),
            reports_tx,
            reports,
            handles: Vec::new(),
            next_ticket: 0,
        }
    }

    /// Hands `job` to helper `slot`, spawning it if the slot has no live
    /// helper, and returns the ticket its answer will carry.
    pub(crate) fn dispatch(&mut self, slot: usize, job: J) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || Slot { jobs: None, owes: None });
        }
        let mut job = (ticket, job);
        if let Some(tx) = &self.slots[slot].jobs {
            match tx.send(job) {
                Ok(()) => {
                    self.slots[slot].owes = Some(ticket);
                    return ticket;
                }
                Err(mpsc::SendError(back)) => job = back,
            }
        }
        let (tx, rx) = mpsc::channel();
        let (work, reports) = (self.work, self.reports_tx.clone());
        let spawned = std::thread::Builder::new()
            .spawn_scoped(self.scope, move || helper(work, &rx, &reports));
        match spawned {
            Ok(handle) => {
                self.handles.push(handle);
                #[cfg(test)]
                SPAWNS.with(|s| s.set(s.get() + 1));
                // The receiver is alive in the helper just spawned.
                let _ = tx.send(job);
                self.slots[slot] = Slot { jobs: Some(tx), owes: Some(ticket) };
            }
            Err(_) => {
                // No thread to run the job: it dies unstarted, and the
                // slot's next job tries to spawn again.
                let _ = self.reports_tx.send((ticket, None));
                self.slots[slot] = Slot { jobs: None, owes: Some(ticket) };
            }
        }
        ticket
    }

    /// Waits for the answers to `tickets` (in that order) until they are
    /// all in or `deadline` lapses. Answers to other tickets — late
    /// results of abandoned jobs — are dropped. A ticket still open at
    /// the deadline is [`Answer::Missed`], and its helper abandoned.
    pub(crate) fn collect(&mut self, tickets: &[u64], deadline: Option<Instant>) -> Vec<Answer<D>> {
        let mut answers: Vec<Option<Answer<D>>> = tickets.iter().map(|_| None).collect();
        let mut open = tickets.len();
        while open > 0 {
            let Some((ticket, done)) = poll_recv(&self.reports, deadline) else { break };
            let Some(slot) = self.slots.iter_mut().find(|s| s.owes == Some(ticket)) else {
                continue;
            };
            slot.owes = None;
            let answer = match done {
                Some(d) => Answer::Done(d),
                None => {
                    slot.jobs = None;
                    Answer::Died
                }
            };
            if let Some(j) = tickets.iter().position(|&t| t == ticket) {
                answers[j] = Some(answer);
                open -= 1;
            }
        }
        for slot in &mut self.slots {
            if slot.owes.is_some_and(|t| tickets.contains(&t)) {
                *slot = Slot { jobs: None, owes: None };
            }
        }
        answers.into_iter().map(|a| a.unwrap_or(Answer::Missed)).collect()
    }
}

impl<W: ?Sized, J, D> Drop for Crew<'_, '_, W, J, D> {
    /// Closes every job channel and joins every helper ever spawned,
    /// abandoned ones included. A helper that panicked has already
    /// answered its ticket (see [`Reply`]), so its join error carries
    /// nothing new.
    fn drop(&mut self) {
        self.slots.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A helper's answer to one ticket: sent with the result by
/// [`Reply::answer`], or — if the job ends any other way, a panic
/// included — sent empty when the reply drops, so every ticket is
/// answered exactly once.
struct Reply<'r, D> {
    tx: &'r Sender<(u64, Option<D>)>,
    ticket: u64,
    answered: bool,
}

impl<D> Reply<'_, D> {
    fn answer(mut self, done: D) {
        self.answered = true;
        let _ = self.tx.send((self.ticket, Some(done)));
    }
}

impl<D> Drop for Reply<'_, D> {
    fn drop(&mut self) {
        if !self.answered {
            let _ = self.tx.send((self.ticket, None));
        }
    }
}

/// A helper's life: take jobs until the channel closes or a job ends
/// without a result.
fn helper<W, J, D>(work: &W, jobs: &Receiver<(u64, J)>, reports: &Sender<(u64, Option<D>)>)
where
    W: Fn(J) -> Option<D> + ?Sized,
{
    while let Some((ticket, job)) = poll_recv(jobs, None) {
        let reply = Reply { tx: reports, ticket, answered: false };
        match work(job) {
            Some(done) => reply.answer(done),
            None => return,
        }
    }
}

/// The next message on `rx`: polled [`POLLS`] times, yielding between
/// polls, then waited for until `deadline` (forever without one).
/// `None` when the deadline lapses or every sender is gone.
fn poll_recv<T>(rx: &Receiver<T>, deadline: Option<Instant>) -> Option<T> {
    for _ in 0..POLLS {
        match rx.try_recv() {
            Ok(msg) => return Some(msg),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    match deadline {
        // The watchdog clock bounds wall time to detection only.
        // lattice-lint: allow(determinism)
        Some(dl) => rx.recv_timeout(dl.saturating_duration_since(Instant::now())).ok(),
        None => rx.recv().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Jobs are `(value, sleep ms)`; a negative value dies.
    fn work(job: (i64, u64)) -> Option<i64> {
        // Test-only stall, standing in for a slow board.
        // lattice-lint: allow(determinism)
        std::thread::sleep(Duration::from_millis(job.1));
        (job.0 >= 0).then_some(job.0 * 10)
    }

    fn done(a: &Answer<i64>) -> Option<i64> {
        match a {
            Answer::Done(d) => Some(*d),
            _ => None,
        }
    }

    #[test]
    fn one_helper_per_slot_serves_every_job() {
        std::thread::scope(|scope| {
            let before = spawns();
            let mut crew = Crew::new(scope, &work);
            for round in 0..5 {
                let t = [crew.dispatch(0, (round, 0)), crew.dispatch(1, (round + 1, 0))];
                let got: Vec<_> = crew.collect(&t, None).iter().map(done).collect();
                assert_eq!(got, [Some(round * 10), Some(round * 10 + 10)]);
            }
            assert_eq!(spawns() - before, 2, "helpers persist across jobs");
        });
    }

    #[test]
    fn a_dead_helper_answers_empty_and_is_replaced() {
        std::thread::scope(|scope| {
            let before = spawns();
            let mut crew = Crew::new(scope, &work);
            let t = crew.dispatch(0, (-1, 0));
            assert!(matches!(crew.collect(&[t], None)[..], [Answer::Died]));
            let t = crew.dispatch(0, (4, 0));
            assert_eq!(done(&crew.collect(&[t], None)[0]), Some(40));
            assert_eq!(spawns() - before, 2, "the dead helper was replaced");
        });
    }

    #[test]
    fn a_late_answer_is_dropped_by_its_ticket() {
        std::thread::scope(|scope| {
            let mut crew = Crew::new(scope, &work);
            let slow = crew.dispatch(0, (7, 300));
            // lattice-lint: allow(determinism)
            let deadline = Instant::now() + Duration::from_millis(20);
            assert!(matches!(crew.collect(&[slow], Some(deadline))[..], [Answer::Missed]));
            // The replacement's answer is the only one accepted, though
            // the abandoned helper answers its old ticket meanwhile.
            let t = crew.dispatch(0, (8, 400));
            assert_eq!(done(&crew.collect(&[t], None)[0]), Some(80));
        });
    }
}
