//! The per-worker execution context of the work-stealing scheduler:
//! per-worker LIFO deques (the paper's stack discipline), a global
//! injector, and the liveness accounting that drives quiescence
//! detection. The pool that hosts workers — thread lifecycle, parking,
//! the session table, abort and panic protocols — lives in
//! [`crate::pool`].
//!
//! Every queued task is a [`SessionTask`]: the closure plus the `Arc` of
//! its owning session's slot. A worker is a *session-free* resource — it
//! executes whatever task it finds, entering that task's session for the
//! duration (`current` below), so tasks of concurrent sessions
//! interleave freely on one pool. All per-session accounting (liveness
//! units, statistics, abort checks, policy dispatch, trace lanes) goes
//! through the current slot, never through pool state.
//!
//! Liveness accounting (the invariant behind termination detection): the
//! owning slot's counter holds the number of closures that are queued,
//! running, or suspended in a future cell. It is incremented when
//! [`Worker::spawn`] pushes a child (a child run inline shares its
//! caller's unit) and by a touch that suspends (`note_suspend`), and
//! decremented when a task finishes. A write that reactivates a waiter
//! transfers the suspended unit to the queue without changing the count
//! (`resume_transferred`). When the counter reaches zero the session is
//! quiescent and [`Runtime::run`] returns.

use std::cell::Cell;
use std::sync::{Arc, Weak};

use crate::deque::{LocalQueue, Steal, MAX_STEAL_BATCH};
use crate::error::PoisonTarget;
use crate::policy::{ResumePlace, SchedPolicy, StealKind, VictimSelect};
use crate::pool::{AbortReason, SessionSlot, SessionTask, Shared, WorkerStats};
use crate::task::Task;

pub use crate::pool::{RunStats, Runtime};

/// Maximum depth of inline execution — ready touches, inline resumes and
/// inline fork children share it — before work is deferred to the queue
/// instead: bounds native stack growth on long ready chains (e.g. list
/// pipelines whose producer runs ahead) and long fork chains.
const MAX_INLINE_DEPTH: usize = 128;

/// The per-thread execution context handed to every task.
pub struct Worker {
    shared: Arc<Shared>,
    local: LocalQueue<SessionTask>,
    index: usize,
    /// The slot of the session whose task this worker is currently
    /// executing; null between tasks. A raw pointer, not an `Arc`: the
    /// executing frame ([`Worker::execute`], or an inline-resume frame)
    /// keeps the slot alive for as long as the pointer is published, so
    /// per-task session entry costs two `Cell` stores instead of two
    /// reference-count RMWs.
    current: Cell<*const SessionSlot>,
    inline_depth: Cell<usize>,
    steal_seed: Cell<u64>,
    /// Last victim a steal succeeded against (own index = none yet);
    /// consulted first under [`VictimSelect::LastVictimFirst`].
    last_victim: Cell<usize>,
}

impl Worker {
    pub(crate) fn new(shared: Arc<Shared>, local: LocalQueue<SessionTask>, index: usize) -> Worker {
        Worker {
            shared,
            local,
            index,
            current: Cell::new(std::ptr::null()),
            inline_depth: Cell::new(0),
            steal_seed: Cell::new(0x9E3779B97F4A7C15 ^ (index as u64) << 7),
            last_victim: Cell::new(index),
        }
    }

    /// The slot of the session this worker is currently executing a task
    /// of. Callable only from inside a task (spawns, touches, fulfills,
    /// trace hooks) — between tasks there is no current session.
    #[inline]
    pub(crate) fn session(&self) -> &SessionSlot {
        let p = self.current.get();
        debug_assert!(!p.is_null(), "no current session (outside a task body)");
        // SAFETY: non-null only between `execute`'s (or an inline resume
        // frame's) enter/exit stores, and that frame owns an `Arc` to the
        // slot for the whole window, so the referent outlives the borrow
        // (which cannot escape the task body: tasks don't return borrows).
        unsafe { &*p }
    }

    /// A new `Arc` to the current session's slot (for tagging a task
    /// being pushed to a queue).
    #[inline]
    pub(crate) fn clone_session(&self) -> Arc<SessionSlot> {
        let p = self.current.get();
        debug_assert!(!p.is_null(), "no current session (outside a task body)");
        // SAFETY: `p` came from `Arc::as_ptr` of a live `Arc` (see
        // `session`), so reconstructing a counted handle is sound.
        unsafe {
            Arc::increment_strong_count(p);
            Arc::from_raw(p)
        }
    }

    /// The scheduling policy of the current session (a byte unpack from
    /// the slot's immutable word; see `policy.rs`).
    #[inline]
    pub fn policy(&self) -> SchedPolicy {
        self.session().policy()
    }

    #[inline]
    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// This worker's statistics entry *of the current session*.
    #[inline]
    pub(crate) fn stats(&self) -> &WorkerStats {
        &self.session().stats[self.index]
    }

    /// Skip the wakeup fence when this is the pool's only worker: no
    /// sibling exists to wake, and the client never sleeps on the work
    /// queues (only on the session-done condvar).
    #[inline]
    fn notify_push(&self, n: usize) {
        if self.shared.stealers.len() > 1 {
            self.shared.notify(n);
        }
    }

    /// Execute one found task: enter its session, run the body, retire
    /// its liveness unit; a panic aborts the owning session (only). When
    /// the owning session is already aborting, the task is discarded
    /// unrun — dropped (releasing its captures), its unit retired — so an
    /// abort drains the session's queued work at pop speed without a
    /// worker rendezvous. Returns the slot for the caller's park/unpark
    /// trace attribution.
    pub(crate) fn execute(&self, st: SessionTask) -> Arc<SessionSlot> {
        let SessionTask { session, task } = st;
        if session.aborting() {
            // A capture's Drop may panic (it may touch a poisoned cell);
            // contain that like any task panic — the session is already
            // aborting, so there is nobody left to tell.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(task)));
            session.task_done();
            return session;
        }
        let prev = self.current.replace(Arc::as_ptr(&session));
        session.stats[self.index].add_tasks(1);
        session.stats[self.index].add_progress();
        crate::trace::exec(self);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Chaos seams: a seeded probability of a spurious panic right
            // here exercises the whole abort path, and a seeded wedge
            // parks this worker mid-task to exercise the stall detectors
            // (both off outside pf_chaos).
            crate::chaos::maybe_panic();
            crate::chaos::maybe_wedge(&|| session.aborting());
            task.run(self);
        }));
        self.current.set(prev);
        if let Err(payload) = res {
            // The unwind skipped the depth restores of any inline frames
            // it crossed; tasks start at the worker loop, at depth 0.
            self.inline_depth.set(0);
            // File the reason before retiring the unit: when this was the
            // session's last queued-or-running task, the client must wake
            // to a filed reason, not to a clean finish.
            session.request_abort(AbortReason::Panic(payload));
        }
        session.task_done();
        session
    }

    /// Spawn `f` as a new task (a future fork). The paper charges this
    /// constant time.
    ///
    /// Work-first with one stealable task kept: when this worker's deque
    /// already holds a task (something a thief can take) and the native
    /// stack has room, the child runs *inline*, right now, and the caller
    /// continues when it returns. Only when the deque is empty is the
    /// child pushed — one deque push, with an allocation only when the
    /// closure exceeds the inline [`Task`] payload. An inline child is
    /// accounted exactly like a pushed one (one spawn, one executed
    /// task), so `RunStats` and trace totals do not depend on which path
    /// was taken; it only skips the liveness round-trip, running inside
    /// the caller's unit.
    pub fn spawn(&self, f: impl FnOnce(&Worker) + Send + 'static) {
        self.stats().add_spawns(1);
        self.stats().add_progress();
        crate::trace::spawn(self, 1);
        if self.may_inline_child() {
            self.run_child(f);
        } else {
            self.push_child(Task::new(f));
        }
    }

    /// Spawn two tasks — the two-child fan-out every tree algorithm
    /// performs at each internal node — under the same rule as
    /// [`Worker::spawn`]: with work already queued, both run inline, `g`
    /// first (the order a LIFO owner would pop them); with an empty
    /// deque, `f` is pushed and `g` runs inline. Past the inline-depth
    /// guard both are pushed.
    pub fn spawn2(
        &self,
        f: impl FnOnce(&Worker) + Send + 'static,
        g: impl FnOnce(&Worker) + Send + 'static,
    ) {
        self.stats().add_spawns(2);
        self.stats().add_progress();
        crate::trace::spawn(self, 2);
        if self.may_inline_child() {
            self.run_child(g);
            self.run_child(f);
        } else if self.inline_depth.get() < MAX_INLINE_DEPTH {
            self.push_child(Task::new(f));
            self.run_child(g);
        } else {
            self.push_child(Task::new(f));
            self.push_child(Task::new(g));
        }
    }

    /// May a fork's child run inline right now? Only while the deque
    /// holds a task for a thief to take (so running inline never starves
    /// a sibling) and the shared inline-depth guard leaves stack room.
    #[inline]
    fn may_inline_child(&self) -> bool {
        !self.local.is_empty() && self.inline_depth.get() < MAX_INLINE_DEPTH
    }

    /// Run a spawned child inline, inside the caller's liveness unit (its
    /// spawn is already counted). When the session is aborting the child
    /// is dropped unrun, exactly as [`Worker::execute`] discards a popped
    /// task, so a cancelled session does not run a whole inline subtree.
    fn run_child(&self, f: impl FnOnce(&Worker)) {
        if self.session().aborting() {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(f)));
            return;
        }
        self.stats().add_tasks(1);
        crate::trace::exec(self);
        let d = self.inline_depth.get();
        self.inline_depth.set(d + 1);
        f(self);
        self.inline_depth.set(d);
    }

    /// Queue a spawned child on this worker's deque under the current
    /// session, with its own liveness unit (its spawn is already
    /// counted), and wake a sleeper to steal it.
    fn push_child(&self, task: Task) {
        let session = self.clone_session();
        session.add_units(1);
        self.local.push(SessionTask { session, task });
        self.notify_push(1);
    }

    /// Spawn an already-boxed continuation without re-boxing it.
    pub(crate) fn spawn_boxed(&self, f: Box<dyn FnOnce(&Worker) + Send>) {
        self.stats().add_spawns(1);
        self.stats().add_progress();
        crate::trace::spawn(self, 1);
        self.push_child(Task::from_boxed(f));
    }

    /// Enqueue a reactivated waiter onto our own deque (its suspended
    /// mark must already be cleared — see [`Worker::resume_transferred`],
    /// the only caller besides the policy fallbacks).
    fn enqueue_transferred(&self, st: SessionTask) {
        crate::trace::resume(self, &st.session);
        self.local.push(st);
        self.notify_push(1);
    }

    /// Policy-dispatched resume of a reactivated waiter: the fulfill
    /// side of every suspended touch routes through here. `owner` is the
    /// index of the worker that *suspended* the continuation (recorded
    /// by the touch; meaningful only under [`ResumePlace::Mailbox`]).
    /// Dispatches on the **waiter's** session's policy — under
    /// cross-session fulfills, the session that suspended decides how it
    /// is resumed.
    ///
    /// The waiter's suspended mark is cleared here, *before* any push:
    /// the abort wait's safe point (`low == high`) must never observe a
    /// queued task it believes suspended.
    ///
    /// * [`ResumePlace::FulfillerDeque`] — push onto the fulfiller's own
    ///   deque (the default).
    /// * [`ResumePlace::Inline`] — run the waiter right now inside the
    ///   fulfilling task (depth-guarded; falls back to the deque). Only
    ///   taken when the waiter belongs to the session we are currently
    ///   executing: an inline body runs under *our* current slot, so a
    ///   foreign waiter (cross-session mutex-cell fulfill) takes the
    ///   deque path and is re-entered properly. Its liveness unit is
    ///   retired here, which cannot end the session early: the waiter
    ///   belongs to our session, whose current task still holds its own
    ///   unit.
    /// * [`ResumePlace::Mailbox`] — hand it to `owner`'s mailbox and
    ///   wake that worker. Mailbox tasks are never stolen; the owner
    ///   polls its mailbox in `find_task` (and in the pre-park re-check,
    ///   which makes the handoff lost-wakeup-free by the same fence
    ///   argument as `notify`).
    pub(crate) fn resume_transferred(&self, st: SessionTask, owner: usize) {
        // The resume is progress of the *waiter's* session (which may not
        // be the one we are currently executing, under a cross-session
        // mutex-cell fulfill): tick its lane for this worker — entry i is
        // still written only by worker i, whatever slot it lives in.
        st.session.stats[self.index].add_progress();
        st.session.transfer_resume();
        match st.session.policy().resume {
            ResumePlace::FulfillerDeque => self.enqueue_transferred(st),
            ResumePlace::Inline => {
                let d = self.inline_depth.get();
                if d < MAX_INLINE_DEPTH
                    && std::ptr::eq(Arc::as_ptr(&st.session), self.current.get())
                {
                    let SessionTask { session, task } = st;
                    crate::trace::resume(self, &session);
                    session.stats[self.index].add_tasks(1);
                    crate::trace::exec(self);
                    self.inline_depth.set(d + 1);
                    task.run(self);
                    self.inline_depth.set(d);
                    session.task_done();
                } else {
                    self.enqueue_transferred(st);
                }
            }
            ResumePlace::Mailbox => {
                crate::trace::resume(self, &st.session);
                let own = owner == self.index;
                self.shared.mailboxes[owner].push(st);
                if own {
                    // Our own mailbox: we are running, so `find_task`
                    // will see it — no wake needed.
                } else {
                    self.shared.notify_worker(owner);
                }
            }
        }
    }

    /// Account a continuation that is being suspended into a future cell.
    pub(crate) fn note_suspend(&self) {
        self.session().note_suspend();
        self.stats().add_suspensions(1);
        self.stats().add_progress();
    }

    /// Undo [`Worker::note_suspend`] when the suspension raced a write and
    /// the continuation runs immediately after all.
    pub(crate) fn unnote_suspend(&self) {
        self.session().unnote_suspend();
        self.stats().sub_suspensions(1);
        self.stats().add_progress();
    }

    /// One heartbeat tick on the current session's progress epoch (see
    /// pool.rs). Called by the cell fulfill paths, so a long-running task
    /// that keeps fulfilling cells counts as progressing even when no
    /// waiter was resumed by the write.
    #[inline]
    pub(crate) fn note_progress(&self) {
        self.stats().add_progress();
    }

    /// Run a ready continuation inline (bounded depth), or spawn it when
    /// the native stack is already deep.
    pub(crate) fn run_inline_or_spawn<T: Send + 'static>(
        &self,
        v: T,
        cont: impl FnOnce(T, &Worker) + Send + 'static,
    ) {
        let d = self.inline_depth.get();
        if d < MAX_INLINE_DEPTH {
            self.inline_depth.set(d + 1);
            cont(v, self);
            self.inline_depth.set(d);
        } else {
            self.spawn(move |wk| cont(v, wk));
        }
    }

    /// [`Worker::run_inline_or_spawn`] for an already-boxed continuation
    /// (a waiter reclaimed after its suspension raced the write).
    pub(crate) fn run_boxed_inline_or_spawn(&self, cont: Box<dyn FnOnce(&Worker) + Send>) {
        let d = self.inline_depth.get();
        if d < MAX_INLINE_DEPTH {
            self.inline_depth.set(d + 1);
            cont(self);
            self.inline_depth.set(d);
        } else {
            self.spawn_boxed(cont);
        }
    }

    /// This worker's index (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Id of the session whose task this worker is currently executing
    /// (sessions are numbered from 1 per pool; 0 outside any task).
    /// Diagnostic: it names the session in cell panic messages and
    /// [`crate::PoisonInfo`].
    pub fn session_id(&self) -> u64 {
        let p = self.current.get();
        if p.is_null() {
            0
        } else {
            // SAFETY: see `session`.
            unsafe { (*p).id }
        }
    }

    /// Has the current task's session been asked to abort (a panic
    /// elsewhere in it, a fired [`crate::CancelToken`], an expired
    /// deadline)? Long-running task bodies should poll this and return
    /// early: the runtime never preempts a running closure, so
    /// cancellation latency is bounded by the longest closure that
    /// ignores it. Sibling sessions' aborts are invisible here.
    pub fn cancelled(&self) -> bool {
        self.session().aborting()
    }

    /// Record a cell this worker just suspended a continuation into, so
    /// an abort of the owning session can poison it (see pool.rs).
    pub(crate) fn register_suspend(&self, cell: Weak<dyn PoisonTarget>) {
        self.session().register_suspend(cell);
    }

    pub(crate) fn find_task(&self) -> Option<SessionTask> {
        if let Some(t) = self.local.pop() {
            return Some(t);
        }
        // Continuations handed to us by a mailbox resume are next after
        // our own deque: they are ours alone (never stolen) and their
        // working set is the locality the mailbox policy exists to
        // exploit. Checked unconditionally — any *session* may run under
        // the mailbox policy, and between tasks there is no current
        // session to consult; off-policy the mailbox is always empty.
        if let Some(t) = self.shared.mailboxes[self.index].pop() {
            return Some(t);
        }
        // Injector, then siblings — per the pool's hunt policy (the
        // steal axes; an idle worker serves every session at once).
        if let Some(t) = self.shared.injector.pop() {
            return Some(t);
        }
        let policy = self.shared.hunt_policy();
        let n = self.shared.stealers.len();
        // A productive victim tends to stay productive: retry it before
        // sweeping (chaos may veto the shortcut like any steal attempt).
        if policy.victim == VictimSelect::LastVictimFirst {
            let lv = self.last_victim.get();
            if lv != self.index && !crate::chaos::steal_denied() {
                if let Some(t) = self.try_steal(lv, policy.steal) {
                    return Some(t);
                }
            }
        }
        // Full sweep from a pseudo-random start.
        let mut seed = self.steal_seed.get();
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.steal_seed.set(seed);
        let start = (seed >> 33) as usize % n;
        for k in 0..n {
            let v = (start + k) % n;
            if v == self.index {
                continue;
            }
            // Chaos seam: a denied steal skips this victim, modeling
            // transient steal failure (no-op outside `--cfg pf_chaos`).
            // Safe: denial only delays acquisition, and the sleeper
            // re-check before parking polls the real queues.
            if crate::chaos::steal_denied() {
                continue;
            }
            if let Some(t) = self.try_steal(v, policy.steal) {
                return Some(t);
            }
        }
        None
    }

    /// One steal attempt against victim `v`, retrying CAS races until
    /// the victim is observed empty. Steal-half claims up to
    /// [`MAX_STEAL_BATCH`] tasks — the first is returned, the extras
    /// land in our own deque (and become visible to *other* thieves, so
    /// they are advertised with a notify). The steals counter and trace
    /// both record the number of tasks moved, so `RunStats::steals`
    /// keeps meaning "tasks obtained by stealing" under every policy.
    /// The episode is accounted to the *first* stolen task's session —
    /// under steal-half a batch can span sessions, a documented
    /// attribution approximation (counts stay exact in total).
    fn try_steal(&self, v: usize, kind: StealKind) -> Option<SessionTask> {
        loop {
            let got = match kind {
                StealKind::One => match self.shared.stealers[v].steal() {
                    Steal::Success(t) => Some((t, 0)),
                    Steal::Retry => continue,
                    Steal::Empty => None,
                },
                StealKind::Half => {
                    match self.shared.stealers[v].steal_half_into(&self.local, MAX_STEAL_BATCH) {
                        Steal::Success((t, extra)) => Some((t, extra)),
                        Steal::Retry => continue,
                        Steal::Empty => None,
                    }
                }
            };
            return match got {
                Some((t, extra)) => {
                    t.session.stats[self.index].add_steals(1 + extra as u64);
                    crate::trace::steal(self, &t.session, v, 1 + extra as u64);
                    self.last_victim.set(v);
                    if extra > 0 {
                        self.notify_push(extra);
                    }
                    Some(t)
                }
                None => None,
            };
        }
    }

    // Unused under the seeded lost-wakeup mutation (its only caller is
    // the sleeper re-check that the mutation removes).
    #[cfg_attr(pf_check_lost_wakeup, allow(dead_code))]
    pub(crate) fn work_available(&self) -> bool {
        !self.local.is_empty()
            || !self.shared.mailboxes[self.index].is_empty()
            || !self.shared.injector.is_empty()
            || self
                .shared
                .stealers
                .iter()
                .enumerate()
                .any(|(i, s)| i != self.index && !s.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell;
    use crate::sync::atomic::Ordering;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Mutex};

    #[test]
    fn runs_root_to_completion() {
        let (w, r) = cell::<u32>();
        Runtime::new(1).run(move |wk| w.fulfill(wk, 7));
        assert_eq!(r.expect(), 7);
    }

    #[test]
    fn spawns_fan_out() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        Runtime::new(4).run(move |wk| {
            for _ in 0..1000 {
                let c = Arc::clone(&c2);
                wk.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn nested_spawns() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        fn rec(wk: &Worker, depth: usize, c: Arc<AtomicU64>) {
            c.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                let (a, b) = (Arc::clone(&c), c);
                wk.spawn(move |wk| rec(wk, depth - 1, a));
                wk.spawn(move |wk| rec(wk, depth - 1, b));
            }
        }
        Runtime::new(4).run(move |wk| rec(wk, 10, c2));
        assert_eq!(counter.load(Ordering::Relaxed), (1 << 11) - 1);
    }

    #[test]
    fn spawn2_matches_two_spawns() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        fn rec(wk: &Worker, depth: usize, c: Arc<AtomicU64>) {
            c.fetch_add(1, Ordering::Relaxed);
            if depth > 0 {
                let (a, b) = (Arc::clone(&c), c);
                wk.spawn2(
                    move |wk| rec(wk, depth - 1, a),
                    move |wk| rec(wk, depth - 1, b),
                );
            }
        }
        let stats = Runtime::new(4).run_stats(move |wk| rec(wk, 10, c2));
        assert_eq!(counter.load(Ordering::Relaxed), (1 << 11) - 1);
        assert_eq!(stats.spawns, (1 << 11) - 2);
        assert_eq!(stats.tasks_executed, (1 << 11) - 1);
    }

    #[test]
    fn single_thread_still_terminates() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        Runtime::new(1).run(move |wk| {
            fn rec(wk: &Worker, d: usize, c: Arc<AtomicU64>) {
                c.fetch_add(1, Ordering::Relaxed);
                if d > 0 {
                    wk.spawn(move |wk| rec(wk, d - 1, c));
                }
            }
            rec(wk, 5000, c2);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 5001);
    }

    #[test]
    fn worker_indices_cover_pool() {
        let seen = Arc::new(Mutex::new(std::collections::BTreeSet::new()));
        let s2 = Arc::clone(&seen);
        Runtime::new(4).run(move |wk| {
            for _ in 0..4000 {
                let s = Arc::clone(&s2);
                wk.spawn(move |wk| {
                    s.lock().unwrap().insert(wk.index());
                    std::thread::yield_now();
                });
            }
        });
        // With 4000 tiny tasks, stealing should engage several workers.
        assert!(seen.lock().unwrap().len() >= 2, "stealing never happened");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panic_propagates() {
        Runtime::new(3).run(|wk| {
            wk.spawn(|_| panic!("boom"));
        });
    }

    #[test]
    fn pool_survives_a_panicked_run() {
        let rt = Runtime::new(3);
        for round in 0..10 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.run(move |wk| {
                    for _ in 0..100 {
                        wk.spawn(|_| {});
                    }
                    wk.spawn(|_| panic!("kaboom"));
                    for _ in 0..100 {
                        wk.spawn(|_| {});
                    }
                });
            }));
            assert!(r.is_err(), "round {round}: panic was swallowed");
            // The same pool must keep working after the abort.
            let stats = rt.run_stats(|wk| {
                wk.spawn(|_| {});
            });
            assert_eq!(stats.spawns, 1);
            assert_eq!(stats.tasks_executed, 2);
        }
    }

    #[test]
    #[should_panic(expected = "inside a worker task")]
    fn nested_run_panics() {
        let rt = Runtime::new(2);
        rt.run(|_wk| {
            Runtime::new(1).run(|_| {});
        });
    }

    #[test]
    fn run_stats_account_tasks_and_suspensions() {
        let (w, r) = cell::<u32>();
        let stats = Runtime::new(2).run_stats(move |wk| {
            // Suspend first, write later: exactly one suspension.
            r.touch(wk, |_, _| {});
            for _ in 0..10 {
                wk.spawn(|_| {});
            }
            wk.spawn(move |wk| w.fulfill(wk, 1));
        });
        assert_eq!(stats.spawns, 11);
        assert_eq!(stats.suspensions, 1);
        // root + 11 spawns + 1 reactivated waiter.
        assert_eq!(stats.tasks_executed, 13);
    }

    #[test]
    fn run_stats_zero_suspensions_when_ordered() {
        let (w, r) = cell::<u32>();
        let stats = Runtime::new(1).run_stats(move |wk| {
            w.fulfill(wk, 1);
            r.touch(wk, |_, _| {});
        });
        assert_eq!(stats.suspensions, 0);
        assert_eq!(stats.tasks_executed, 1);
        assert_eq!(stats.steals, 0, "single worker cannot steal");
    }

    #[test]
    fn repeated_runs_are_independent() {
        for i in 0..50 {
            let (w, r) = cell::<usize>();
            Runtime::new(3).run(move |wk| {
                wk.spawn(move |wk| w.fulfill(wk, i));
            });
            assert_eq!(r.expect(), i);
        }
    }

    #[test]
    fn one_pool_many_runs() {
        let rt = Runtime::new(3);
        for i in 0..200 {
            let (w, r) = cell::<usize>();
            rt.run(move |wk| {
                wk.spawn(move |wk| w.fulfill(wk, i));
            });
            assert_eq!(r.expect(), i);
        }
    }

    #[test]
    fn global_and_shared_pools() {
        let g = Runtime::global();
        assert!(g.nthreads() >= 1);
        let (w, r) = cell::<u32>();
        g.run(move |wk| w.fulfill(wk, 3));
        assert_eq!(r.expect(), 3);

        let a = Runtime::shared(2);
        let b = Runtime::shared(2);
        assert!(Arc::ptr_eq(&a, &b), "shared(2) must return one pool");
        let (w, r) = cell::<u32>();
        a.run(move |wk| w.fulfill(wk, 9));
        assert_eq!(r.expect(), 9);
    }
}
