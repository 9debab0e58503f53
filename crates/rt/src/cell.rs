//! Lock-free write-once future cells with in-cell continuation suspension.
//!
//! The state machine (one `AtomicU8`):
//!
//! ```text
//!   EMPTY ──write──────────────► FULL        (value published)
//!   EMPTY ──touch──► WAITING ──write──► FULL (waiter reactivated)
//!                    WAITING ──abort──► POISONING ──► POISONED
//! ```
//!
//! Linearity (§4 of the paper) guarantees at most one toucher, so a single
//! waiter slot suffices and every transition is one CAS or swap:
//!
//! * the **toucher** publishes its continuation with `EMPTY → WAITING`
//!   (release); if the CAS fails the cell filled concurrently and the
//!   continuation runs immediately;
//! * the **writer** publishes the value and swaps to `FULL` (AcqRel); if
//!   the previous state was `WAITING` it takes the waiter — made visible
//!   by the toucher's release CAS — and schedules it.
//!
//! The value itself stays in the cell (the waiter receives a clone), so
//! finished data structures can be inspected after the run with
//! [`FutRead::peek`] / [`FutRead::expect`].
//!
//! # Layout
//!
//! A cell is one `Arc` allocation holding exactly what every cell needs —
//! its state, its value, and one pointer:
//!
//! ```text
//!   Arc counts   strong, weak                      16 B
//!   state        AtomicU8                           1 B (+7 padding)
//!   value        UnsafeCell<Option<T>>             16 B for u64 / RTreap
//!   susp         UnsafeCell<Option<NonNull<()>>>    8 B
//!                                                  ─────
//!                                                  48 B (a 64-B malloc chunk)
//! ```
//!
//! Everything only a *suspended* touch needs lives in that touch's own
//! **suspension record**, allocated when (and only when) the touch
//! suspends, and pointed to by `susp` while the cell is `WAITING`:
//!
//! ```text
//!   call fn │ drop fn │ session Arc │ owner │ cell Arc │ continuation
//!   ╰──────────── SuspHdr (32 B) ──────────╯
//! ```
//!
//! The record *is* the continuation's allocation: the header carries the
//! `call`/`drop` pair of the record's concrete type, laid out exactly like
//! a [`Task`]'s, so the writer hands the thin pointer to the scheduler via
//! [`Task::from_raw`] without re-boxing — a suspension allocates once,
//! and the record is freed as soon as its continuation runs.
//!
//! While a record sits in a cell, the cell keeps itself alive through the
//! record's `Arc` — a deliberate cycle, broken whenever the record is
//! taken out. That happens on every path: a run that reaches quiescence
//! reactivates the waiter, and a session that *aborts* (panic, cancel,
//! deadline, stall) **poisons** the cell during its abort cleanup, which
//! takes the record out and drops it, so nothing leaks. The poison pass
//! wins `WAITING → POISONING` (the transient state makes it the slot's
//! sole owner), files its `Arc<PoisonInfo>` into the `susp` slot the
//! record vacated, and release-stores `POISONED`; only then does it drop
//! the record. A poisoned cell thus remembers why its session died
//! ([`FutRead::poison_info`]); any straggler touch or fulfill of it
//! panics immediately with that context instead of suspending on a value
//! that can never arrive (one that catches the pass mid-publication waits
//! the few instructions until `POISONED`). See the "Failure model" section
//! of DESIGN.md.
//!
//! Under `--cfg pf_chaos` the fulfill/touch entry points also host the
//! chaos layer's delay hook (see [`crate::chaos`]); in normal builds the
//! hook compiles to nothing.
#![deny(clippy::undocumented_unsafe_blocks)]

use std::cell::UnsafeCell;
use std::ptr::NonNull;
use std::sync::Arc;

use crate::sync::atomic::{AtomicU8, Ordering};

use crate::error::{PoisonInfo, PoisonOutcome, PoisonTarget, StuckCell};
use crate::pool::{SessionSlot, SessionTask};
use crate::scheduler::Worker;
use crate::task::{self, CallFn, DropFn, Payload, Task};

const EMPTY: u8 = 0;
const WAITING: u8 = 1;
const FULL: u8 = 2;
/// The cell's session aborted with a continuation suspended here; the
/// record was dropped and `Inner::susp` holds the failure context.
/// Terminal, entered only from `POISONING`, only by the aborting
/// session's cleanup pass.
const POISONED: u8 = 3;
/// Transient, between `WAITING` and `POISONED`: the poison pass owns the
/// `susp` slot and is swapping the record for the failure context.
const POISONING: u8 = 4;

fn state_name(s: u8) -> &'static str {
    match s {
        EMPTY => "EMPTY",
        WAITING => "WAITING",
        FULL => "FULL",
        POISONED => "POISONED",
        POISONING => "POISONING",
        _ => "invalid",
    }
}

/// Header of a suspension record: the first field of every [`Susp`]
/// (`repr(C)`), so a thin pointer to the record is a pointer to it.
#[repr(C)]
struct SuspHdr {
    /// [`Task`] call/drop pair of the record's concrete `Susp<T, F>`:
    /// `call` clones the value out of the cell, frees the record and runs
    /// the continuation; `drop` frees the record unrun.
    call: CallFn,
    drop: DropFn,
    /// The slot of the session whose touch suspended here: the waiter's
    /// accounting/abort identity, so a *cross-session* fulfill (a cell
    /// handed from one session to another through a shared structure)
    /// resumes the waiter into its own session, not the writer's. Taken
    /// by whichever side wins the record out of `WAITING` (writer,
    /// failed-CAS toucher, or poison pass).
    session: Option<Arc<SessionSlot>>,
    /// Index of the worker whose touch suspended here — the resume
    /// target under the mailbox policy.
    owner: usize,
}

/// A suspension record: header, the cell to read the value from, and the
/// toucher's continuation, in one allocation.
#[repr(C)]
struct Susp<T, F> {
    hdr: SuspHdr,
    cell: Arc<Inner<T>>,
    cont: F,
}

/// `SuspHdr::call` of a `Susp<T, F>`.
///
/// # Safety
///
/// `p` must be the payload of a [`Task::from_raw`] task made by [`adopt`]
/// from a `Susp<T, F>` record whose cell is `FULL`.
unsafe fn susp_call<T: Clone, F: FnOnce(T, &Worker)>(p: *mut Payload, wk: &Worker) {
    // SAFETY: the payload word is the `Box::leak` pointer of a
    // `Susp<T, F>` (`suspend`), and the task consumes it exactly once
    // (`Task::run` suppresses the task's drop). Exercised by every
    // resume: `touch_before_write_suspends_and_wakes`, the
    // `cell_waiter_handoff_after_suspension` model.
    let rec = unsafe { Box::from_raw(task::raw_word(p) as *mut Susp<T, F>) };
    let Susp { cell, cont, .. } = *rec;
    // SAFETY: a record runs only after FULL is established — the
    // writer's swap published the value before it took the record, or
    // the toucher's failed CAS observed FULL with acquire — and the value
    // is never removed. Exercised by `hammer_racing_write_and_touch` and
    // the `cell_fulfill_vs_touch_exactly_once` model.
    let v = unsafe { (*cell.value.get()).clone() }.expect("FULL cell without value");
    drop(cell);
    cont(v, wk);
}

/// `SuspHdr::drop` of a `Susp<T, F>`.
///
/// # Safety
///
/// As for [`susp_call`], minus the `FULL` requirement.
unsafe fn susp_drop<T, F>(p: *mut Payload) {
    // SAFETY: as in `susp_call`: the payload word is the record's
    // `Box::leak` pointer, released exactly once (`Task`'s drop runs only
    // for tasks never run). Exercised by the poison pass — the
    // drop-counting leak test in `tests/faults.rs` and
    // `cancelled_session_frees_every_record` in `tests/footprint.rs`.
    drop(unsafe { Box::from_raw(task::raw_word(p) as *mut Susp<T, F>) });
}

/// Split a record won out of `WAITING` into the waiter's session, its
/// mailbox owner, and the task that runs it — or, dropped, frees it.
/// The task reuses the record's allocation.
///
/// # Safety
///
/// `rec` must be a record taken out of a cell's `susp` slot by the one
/// side entitled to it (the writer or poison pass that won the cell out
/// of `WAITING`, or the toucher whose CAS failed), and not adopted since.
unsafe fn adopt(rec: NonNull<()>) -> (Arc<SessionSlot>, usize, Task) {
    // SAFETY: the caller owns the record exclusively, and `SuspHdr` sits
    // at offset 0 of every `repr(C)` `Susp`. Exercised by every resume,
    // reclaim and poison test listed on `susp_call` / `susp_drop`.
    let hdr = unsafe { &mut *(rec.as_ptr() as *mut SuspHdr) };
    let session = hdr.session.take().expect("WAITING state without a session");
    // SAFETY: `call`/`drop` were set by `suspend` to the pair of this
    // record's own `Susp<T, F>`, each consuming its payload word once.
    let task = unsafe { Task::from_raw(rec.as_ptr(), hdr.call, hdr.drop) };
    (session, hdr.owner, task)
}

struct Inner<T> {
    state: AtomicU8,
    value: UnsafeCell<Option<T>>,
    /// `WAITING`: the suspension record (a thin `*mut SuspHdr`), written
    /// by the toucher before its release CAS publishes it, taken by
    /// whichever side wins the cell out of `WAITING`. `POISONED`: the
    /// failure context (`Arc::into_raw` of a `PoisonInfo`), written
    /// before the release store of `POISONED`, read only after an acquire
    /// load of it, never modified again. `None` in every other state.
    susp: UnsafeCell<Option<NonNull<()>>>,
}

impl<T> Inner<T> {
    fn new(state: u8, value: Option<T>) -> Self {
        Inner {
            state: AtomicU8::new(state),
            value: UnsafeCell::new(value),
            susp: UnsafeCell::new(None),
        }
    }

    /// The failure context of a poisoned cell, once published: waits out
    /// a poison pass caught mid-publication (`POISONING`, or the `FULL` a
    /// racing fulfill's swap briefly stored over it) — a few instructions,
    /// with no user code, before the pass's `POISONED` store.
    fn wait_poisoned(&self) -> &PoisonInfo {
        while self.state.load(Ordering::Acquire) != POISONED {
            crate::sync::thread::yield_now();
        }
        // SAFETY: POISONED observed with acquire ⇒ the pass's context
        // write is visible, and the slot is frozen from then on; the
        // pointer came from `Arc::into_raw` and the cell owns that count
        // until it drops, which outlives `&self`. Exercised by the
        // `poison_then_touch_fails_fast` and
        // `poison_pass_races_cross_session_fulfill` models.
        unsafe {
            let p = (*self.susp.get()).expect("POISONED cell without context");
            &*(p.as_ptr() as *const PoisonInfo)
        }
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        if let Some(p) = self.susp.get_mut().take() {
            // SAFETY: a record holds an `Arc` to its cell, so a cell never
            // drops while `WAITING`, and every taker of a record clears
            // the slot; a non-empty slot here is therefore the context
            // the poison pass filed with `Arc::into_raw`, released once.
            // Exercised by `tests/faults.rs` (poisoned cells dropped after
            // their session) and `tests/footprint.rs`.
            drop(unsafe { Arc::from_raw(p.as_ptr() as *const PoisonInfo) });
        }
    }
}

impl<T: Send> PoisonTarget for Inner<T> {
    fn poison(&self, ctx: &Arc<PoisonInfo>) -> PoisonOutcome {
        if self
            .state
            .compare_exchange(WAITING, POISONING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // Nothing suspended here any more (the suspension raced to
            // FULL before the abort, or a cross-session fulfill won).
            return PoisonOutcome::none();
        }
        let filed = NonNull::new(Arc::into_raw(Arc::clone(ctx)) as *mut ());
        // SAFETY: winning WAITING → POISONING makes this pass the slot's
        // sole owner: the toucher's release CAS published the record (our
        // acquire), a writer takes it only on swapping out of WAITING, and
        // every reader waits for POISONED. Exercised by the
        // `poison_pass_races_cross_session_fulfill` model.
        let rec = unsafe { std::mem::replace(&mut *self.susp.get(), filed) }
            .expect("WAITING state without a waiter");
        self.state.store(POISONED, Ordering::Release);
        // SAFETY: the record was won out of WAITING above.
        let (session, _owner, task) = unsafe { adopt(rec) };
        // Dropping the record releases the continuation's captures and
        // breaks the record→cell Arc cycle — the "leak on abort" this
        // state exists to prevent. Its destructor must not wedge the
        // cleanup.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(task)));
        drop(session);
        PoisonOutcome {
            stuck: Some(StuckCell {
                addr: self as *const Self as usize,
                payload_type: std::any::type_name::<T>(),
                kind: "cell",
            }),
            dropped: 1,
        }
    }
}

// SAFETY: access to the UnsafeCells is mediated by the state machine:
// `value` is written exactly once before the release transition to FULL
// and only read after an acquire observation of FULL (or by the writer
// itself); `susp` is owned by exactly one side at a time, as documented on
// the field. The races are explored by the `cell_*` and poison models in
// `crates/check/tests/model_rt.rs` and by `hammer_racing_write_and_touch`.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: as for `Send` above.
unsafe impl<T: Send> Sync for Inner<T> {}

/// The write pointer: consumed by [`FutWrite::fulfill`], so a cell is
/// written at most once by construction.
pub struct FutWrite<T> {
    inner: Arc<Inner<T>>,
}

/// The read pointer. Cloneable (result structures hold them); the paper's
/// linearity restriction — at most one *touch* — is asserted dynamically.
pub struct FutRead<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for FutRead<T> {
    fn clone(&self) -> Self {
        FutRead {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Create an empty future cell.
pub fn cell<T>() -> (FutWrite<T>, FutRead<T>) {
    let inner = Arc::new(Inner::new(EMPTY, None));
    (
        FutWrite {
            inner: Arc::clone(&inner),
        },
        FutRead { inner },
    )
}

/// Create an already-written cell (input construction).
pub fn ready<T>(value: T) -> FutRead<T> {
    FutRead {
        inner: Arc::new(Inner::new(FULL, Some(value))),
    }
}

impl<T: Clone + Send + 'static> FutWrite<T> {
    /// Write the value; if a continuation is suspended in the cell, hand it
    /// a clone of the value as a new task on `worker`'s queue.
    pub fn fulfill(self, worker: &Worker, value: T) {
        crate::chaos::maybe_delay();
        // The write is progress of the fulfilling session even when no
        // waiter is resumed by it — a long task fulfilling in a loop must
        // read as alive to the stall watchdog.
        worker.note_progress();
        crate::trace::fulfill(worker, Arc::as_ptr(&self.inner) as *const () as usize);
        // SAFETY: we are the unique writer (FutWrite is not Clone and is
        // consumed); no reader dereferences `value` until it observes
        // FULL. Exercised by `hammer_racing_write_and_touch`.
        unsafe { *self.inner.value.get() = Some(value) };
        match self.inner.state.swap(FULL, Ordering::AcqRel) {
            EMPTY => {}
            WAITING => {
                // SAFETY: WAITING was published by the toucher's release
                // CAS, so its record write happens-before our take; state
                // is now FULL, so no one else touches the slot. Exercised
                // by the `cell_fulfill_vs_touch_exactly_once` model.
                let rec = unsafe { (*self.inner.susp.get()).take() }
                    .expect("WAITING state without a waiter");
                // SAFETY: the record was won out of WAITING above.
                let (session, owner, task) = unsafe { adopt(rec) };
                // Waiter hand-off: the record allocated at touch time is
                // enqueued as-is — no re-boxing, no value capture. The
                // waiter reads the value from the cell when it runs; our
                // value write above happens-before that read through the
                // deque push/steal pair that delivers the task. Its
                // liveness unit was added by `note_suspend` on *its*
                // session (usually ours; the toucher's under cross-session
                // sharing), so this is a transfer, not a spawn. Where it
                // lands — fulfiller's deque, inline, or the suspender's
                // mailbox — is the waiter's session's resume policy.
                worker.resume_transferred(SessionTask { session, task }, owner);
            }
            prev @ (POISONED | POISONING) => {
                // Restore the terminal state the swap clobbered (a pass
                // still POISONING restores it with its own store), then
                // fail with the originating context.
                if prev == POISONED {
                    self.inner.state.store(POISONED, Ordering::SeqCst);
                }
                let info = self.inner.wait_poisoned();
                panic!(
                    "fulfill of a poisoned future cell (session {}): {}",
                    worker.session_id(),
                    info
                );
            }
            _ => unreachable!("future cell written twice"),
        }
    }
}

impl<T: Clone + Send + 'static> FutRead<T> {
    /// Touch the cell: run `cont` with the value — immediately (possibly
    /// inline) if written, or suspended in the cell until the write
    /// arrives. At most one touch per cell (the §4 linearity restriction);
    /// a second touch panics.
    pub fn touch(&self, worker: &Worker, cont: impl FnOnce(T, &Worker) + Send + 'static) {
        crate::chaos::maybe_delay();
        match self.inner.state.load(Ordering::Acquire) {
            FULL => {
                // SAFETY: FULL observed with acquire ⇒ value write
                // visible. Exercised by `write_before_touch_runs_inline`.
                let v =
                    unsafe { (*self.inner.value.get()).clone() }.expect("FULL cell without value");
                worker.run_inline_or_spawn(v, cont);
            }
            WAITING => panic!(
                "non-linear program: second touch of a future cell \
                 (state=WAITING, session={}, cell={:p})",
                worker.session_id(),
                Arc::as_ptr(&self.inner),
            ),
            POISONED | POISONING => {
                let info = self.inner.wait_poisoned();
                panic!(
                    "touch of a poisoned future cell (session {}): {}",
                    worker.session_id(),
                    info
                );
            }
            _ => self.suspend(worker, cont),
        }
    }

    /// The EMPTY branch of [`FutRead::touch`]: allocate the suspension
    /// record and publish it, or run the continuation at once if the
    /// write races the publication.
    fn suspend<F: FnOnce(T, &Worker) + Send + 'static>(&self, worker: &Worker, cont: F) {
        // The record is the suspension's one allocation; it captures the
        // cell and clones the value out when it eventually runs (by which
        // point the cell is FULL — either published by the writer's swap
        // before it took the record, or observed below on the failed CAS).
        let rec = Box::new(Susp {
            hdr: SuspHdr {
                call: susp_call::<T, F>,
                drop: susp_drop::<T, F>,
                session: Some(worker.clone_session()),
                // The mailbox resume target, published with the record.
                owner: worker.index(),
            },
            cell: Arc::clone(&self.inner),
            cont,
        });
        let rec = NonNull::from(Box::leak(rec)).cast::<()>();
        // SAFETY: under linearity the (sole) toucher owns the slot until
        // the CAS below publishes it: in EMPTY nobody else reads or writes
        // it. Exercised by the `cell_fulfill_vs_touch_exactly_once` model.
        unsafe { *self.inner.susp.get() = Some(rec) };
        worker.note_suspend();
        match self
            .inner
            .state
            .compare_exchange(EMPTY, WAITING, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {
                // Suspended; the writer will reactivate us. Register with
                // the session so an abort can poison the cell and reclaim
                // the record (see pool.rs). Registration pushes onto the
                // session's mutex-guarded registry (uncontended unless
                // several workers suspend at once), and the `Weak` keeps
                // the cell's allocation — not its value — until the
                // session ends.
                let weak = Arc::downgrade(&self.inner);
                worker.register_suspend(weak);
                crate::trace::suspend(worker, Arc::as_ptr(&self.inner) as *const () as usize);
            }
            Err(FULL) => {
                // The write raced us: reclaim the record and run it now
                // (the failed CAS's acquire load makes the value visible
                // to the record's clone).
                worker.unnote_suspend();
                // SAFETY: state is FULL; the writer saw EMPTY and never
                // reads the slot, so we still own the record. Exercised by
                // the `cell_fulfill_vs_touch_exactly_once` model.
                let rec = unsafe { (*self.inner.susp.get()).take() }.expect("waiter vanished");
                // SAFETY: the record was reclaimed above.
                let (session, _owner, task) = unsafe { adopt(rec) };
                drop(session);
                worker.run_task_inline_or_spawn(task);
            }
            Err(prev @ (WAITING | POISONED | POISONING)) => {
                panic!(
                    "non-linear program: concurrent second touch of a future cell \
                     (state={}, session={}, cell={:p})",
                    state_name(prev),
                    worker.session_id(),
                    Arc::as_ptr(&self.inner),
                )
            }
            Err(_) => unreachable!(),
        }
    }

    /// Is the cell written?
    pub fn is_written(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) == FULL
    }

    /// Clone the value out without a continuation, if written. Safe at any
    /// time; intended for inspecting finished structures after
    /// [`crate::Runtime::run`] returns.
    pub fn peek(&self) -> Option<T> {
        if self.inner.state.load(Ordering::Acquire) == FULL {
            // SAFETY: FULL observed with acquire ⇒ value write visible, and
            // the value is never removed from the slot. Exercised by
            // `ready_cells` and every result check of the test suite.
            unsafe { (*self.inner.value.get()).clone() }
        } else {
            None
        }
    }

    /// [`FutRead::peek`], panicking on an unwritten cell — with the
    /// poison context when the cell's session aborted under it.
    pub fn expect(&self) -> T {
        match self.peek() {
            Some(v) => v,
            None => match self.poison_info() {
                Some(info) => panic!("future cell not written: {info}"),
                None => panic!("future cell not written"),
            },
        }
    }

    /// The failure context stamped into this cell when its session
    /// aborted with a continuation still suspended here; `None` for
    /// healthy cells. Safe at any time, like [`FutRead::peek`].
    pub fn poison_info(&self) -> Option<PoisonInfo> {
        if self.inner.state.load(Ordering::Acquire) == POISONED {
            Some(self.inner.wait_poisoned().clone())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn ready_cells() {
        let r = ready(5u32);
        assert!(r.is_written());
        assert_eq!(r.peek(), Some(5));
        assert_eq!(r.expect(), 5);
    }

    #[test]
    fn empty_peek_is_none() {
        let (_w, r) = cell::<u32>();
        assert!(!r.is_written());
        assert_eq!(r.peek(), None);
    }

    #[test]
    fn write_before_touch_runs_inline() {
        let (w, r) = cell::<u32>();
        let (op, of) = cell::<u32>();
        let rt = Runtime::new(2);
        rt.run(move |wk| {
            w.fulfill(wk, 10);
            r.touch(wk, move |v, wk| op.fulfill(wk, v * 2));
        });
        assert_eq!(of.expect(), 20);
    }

    #[test]
    fn touch_before_write_suspends_and_wakes() {
        let (w, r) = cell::<u32>();
        let (op, of) = cell::<u32>();
        let rt = Runtime::new(2);
        rt.run(move |wk| {
            r.touch(wk, move |v, wk| op.fulfill(wk, v + 1));
            // The touch suspended (single worker path would otherwise
            // deadlock — quiescence counting keeps the runtime alive).
            wk.spawn(move |wk| w.fulfill(wk, 99));
        });
        assert_eq!(of.expect(), 100);
    }

    #[test]
    #[should_panic(expected = "non-linear")]
    fn second_touch_panics() {
        let (_w, r) = cell::<u32>();
        let r2 = r.clone();
        let rt = Runtime::new(1);
        rt.run(move |wk| {
            r.touch(wk, |_, _| {});
            r2.touch(wk, |_, _| {});
        });
    }

    #[test]
    fn hammer_racing_write_and_touch() {
        // Cross-thread race: producer and consumer race on many cells.
        for round in 0..200 {
            let n = 64;
            let cells: Vec<_> = (0..n).map(|_| cell::<usize>()).collect();
            let (writes, reads): (Vec<_>, Vec<_>) = cells.into_iter().unzip();
            let outs: Vec<_> = (0..n).map(|_| cell::<usize>()).collect();
            let (out_w, out_r): (Vec<_>, Vec<_>) = outs.into_iter().unzip();
            let rt = Runtime::new(4);
            rt.run(move |wk| {
                let mut out_w = out_w;
                for r in reads.into_iter() {
                    let ow = out_w.remove(0);
                    wk.spawn(move |wk| r.touch(wk, move |v, wk| ow.fulfill(wk, v * 3)));
                }
                for (i, w) in writes.into_iter().enumerate() {
                    wk.spawn(move |wk| w.fulfill(wk, i + round));
                }
            });
            for (i, o) in out_r.iter().enumerate() {
                assert_eq!(o.expect(), (i + round) * 3);
            }
        }
    }
}
