//! Compact task representation: a spawned closure without a mandatory
//! heap allocation.
//!
//! The paper charges a future fork constant time — "one allocation plus
//! one deque push" — but on real hardware the allocation dominates for
//! the tiny continuations fine-grained tree algorithms spawn. A [`Task`]
//! is therefore a fixed six-word value:
//!
//! ```text
//! ┌──────────────────────────────┬───────────┬───────────┐
//! │ payload: [usize; 4]          │ call fn   │ drop fn   │
//! └──────────────────────────────┴───────────┴───────────┘
//! ```
//!
//! * A closure of at most four words (and word alignment) is stored
//!   **inline** in the payload — spawning it never touches the allocator.
//!   Tree-algorithm child closures fit this budget: a couple of `Arc`s /
//!   node pointers, plus the one-byte evaluation `Mode` the generic
//!   `pf_algs` recursions thread through their spawned continuations
//!   (three pointers + mode pads to four words; a three-word payload
//!   would push every generic fork through the boxed fallback and break
//!   allocation parity with hand-written CPS).
//! * A larger closure falls back to one `Box`; only the two-word fat
//!   pointer is stored inline.
//! * An **already-boxed** continuation (a reactivated mutex-cell waiter)
//!   is adopted via [`Task::from_boxed`] without re-boxing — the fix for
//!   the old double allocation on every resume.
//! * A **thin record** — one pointer to an allocation whose header
//!   carries its own `call`/`drop` pair, the lock-free cell's suspension
//!   record — is adopted via [`Task::from_raw`], again without re-boxing.
//!
//! The `call` fn consumes the payload; the `drop` fn releases it when a
//! task is destroyed without running (runtime teardown after a panic).

use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

use crate::scheduler::Worker;

/// Payload capacity, in machine words.
const INLINE_WORDS: usize = 4;

pub(crate) type Payload = MaybeUninit<[usize; INLINE_WORDS]>;
/// Consumes a payload and runs its continuation.
pub(crate) type CallFn = unsafe fn(*mut Payload, &Worker);
/// Releases a payload without running it.
pub(crate) type DropFn = unsafe fn(*mut Payload);
type BoxedFn = Box<dyn FnOnce(&Worker) + Send>;
type RawFat = *mut (dyn FnOnce(&Worker) + Send);

/// Does `F` fit the inline payload?
const fn fits_inline<F>() -> bool {
    size_of::<F>() <= size_of::<[usize; INLINE_WORDS]>() && align_of::<F>() <= align_of::<usize>()
}

/// A unit of work: a one-shot continuation, stored inline when small.
pub struct Task {
    payload: Payload,
    /// Consumes the payload and runs the continuation.
    call: CallFn,
    /// Releases the payload without running it.
    drop_in_place: DropFn,
}

// SAFETY: a Task is constructed only from `F: Send` closures (or already
// `Send` boxed ones), and it owns its payload exclusively.
unsafe impl Send for Task {}

unsafe fn call_inline<F: FnOnce(&Worker)>(p: *mut Payload, wk: &Worker) {
    // SAFETY (caller): payload holds a valid `F`, consumed exactly once.
    let f = unsafe { (p as *mut F).read() };
    f(wk);
}

unsafe fn drop_inline<F>(p: *mut Payload) {
    // SAFETY (caller): payload holds a valid `F`, dropped exactly once.
    unsafe { std::ptr::drop_in_place(p as *mut F) };
}

unsafe fn call_boxed(p: *mut Payload, wk: &Worker) {
    // SAFETY (caller): payload holds a fat pointer from `Box::into_raw`.
    let b = unsafe { Box::from_raw((p as *mut RawFat).read()) };
    b(wk);
}

unsafe fn drop_boxed(p: *mut Payload) {
    // SAFETY (caller): payload holds a fat pointer from `Box::into_raw`.
    drop(unsafe { Box::from_raw((p as *mut RawFat).read()) });
}

impl Task {
    /// Package `f`, inline when it fits, boxed otherwise.
    pub fn new<F>(f: F) -> Task
    where
        F: FnOnce(&Worker) + Send + 'static,
    {
        if fits_inline::<F>() {
            let mut payload = Payload::uninit();
            // SAFETY: `fits_inline` checked size and alignment.
            unsafe { (payload.as_mut_ptr() as *mut F).write(f) };
            Task {
                payload,
                call: call_inline::<F>,
                drop_in_place: drop_inline::<F>,
            }
        } else {
            Task::from_boxed(Box::new(f))
        }
    }

    /// Adopt an already-boxed continuation without re-boxing it. This is
    /// the hand-off path for reactivated future-cell waiters: the box the
    /// toucher allocated at suspension time is the box the scheduler
    /// frees after running it.
    pub fn from_boxed(b: BoxedFn) -> Task {
        const {
            assert!(
                size_of::<RawFat>() <= size_of::<[usize; INLINE_WORDS]>(),
                "fat pointer must fit the inline payload"
            );
        }
        let raw: RawFat = Box::into_raw(b);
        let mut payload = Payload::uninit();
        // SAFETY: a fat pointer is two words, within the payload.
        unsafe { (payload.as_mut_ptr() as *mut RawFat).write(raw) };
        Task {
            payload,
            call: call_boxed,
            drop_in_place: drop_boxed,
        }
    }

    /// Adopt a thin record: `raw` is stored as the payload's first word
    /// and handed back to `call` / `drop_in_place` through [`raw_word`].
    ///
    /// # Safety
    ///
    /// `call` and `drop_in_place` must each accept a payload whose first
    /// word is `raw`, consume it exactly once, and be sound to invoke on
    /// any thread (the task is `Send`).
    pub(crate) unsafe fn from_raw(raw: *mut (), call: CallFn, drop_in_place: DropFn) -> Task {
        let mut payload = Payload::uninit();
        // SAFETY: a thin pointer is one word, within the payload.
        unsafe { (payload.as_mut_ptr() as *mut *mut ()).write(raw) };
        Task {
            payload,
            call,
            drop_in_place,
        }
    }

    /// Run the continuation, consuming the task.
    pub fn run(self, wk: &Worker) {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `self` is consumed and Drop is suppressed, so the
        // payload is read exactly once.
        unsafe { (this.call)(&mut this.payload, wk) };
    }
}

/// The pointer a [`Task::from_raw`] task was built with.
///
/// # Safety
///
/// `p` must be the payload of a task built by [`Task::from_raw`].
pub(crate) unsafe fn raw_word(p: *mut Payload) -> *mut () {
    // SAFETY (caller): the first word was written by `from_raw`.
    unsafe { (p as *mut *mut ()).read() }
}

impl Drop for Task {
    fn drop(&mut self) {
        // SAFETY: only reached when `run` was never called, so the
        // payload is still live; it is released exactly once here.
        unsafe { (self.drop_in_place)(&mut self.payload) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn small_closures_are_inline() {
        assert!(fits_inline::<fn(&Worker)>());
        struct Four(#[allow(dead_code)] [usize; 4]);
        assert!(fits_inline::<Four>());
        struct Five(#[allow(dead_code)] [usize; 5]);
        assert!(!fits_inline::<Five>());
    }

    #[test]
    fn task_is_six_words() {
        assert_eq!(size_of::<Task>(), 6 * size_of::<usize>());
    }

    #[test]
    fn inline_and_boxed_tasks_run() {
        let hits = Arc::new(AtomicU64::new(0));
        let (h1, h2, h3) = (hits.clone(), hits.clone(), hits.clone());
        Runtime::new(1).run(move |wk| {
            // One Arc: inline.
            Task::new(move |_wk: &Worker| {
                h1.fetch_add(1, Ordering::Relaxed);
            })
            .run(wk);
            // Large capture: boxed fallback.
            let big = [7u64; 16];
            Task::new(move |_wk: &Worker| {
                assert_eq!(big[15], 7);
                h2.fetch_add(1, Ordering::Relaxed);
            })
            .run(wk);
            // Pre-boxed adoption.
            Task::from_boxed(Box::new(move |_wk: &Worker| {
                h3.fetch_add(1, Ordering::Relaxed);
            }))
            .run(wk);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn unrun_tasks_release_captures() {
        let token = Arc::new(());
        let small = Task::new({
            let t = Arc::clone(&token);
            move |_wk: &Worker| drop(t)
        });
        let big = Task::new({
            let t = Arc::clone(&token);
            let pad = [0u64; 8];
            move |_wk: &Worker| {
                let _ = pad;
                drop(t);
            }
        });
        let boxed = Task::from_boxed(Box::new({
            let t = Arc::clone(&token);
            move |_wk: &Worker| drop(t)
        }));
        assert_eq!(Arc::strong_count(&token), 4);
        drop(small);
        drop(big);
        drop(boxed);
        assert_eq!(Arc::strong_count(&token), 1);
    }
}
