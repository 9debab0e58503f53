//! Allocation footprint pins for the lock-free future cell: a cell is one
//! small allocation, the no-waiter write and the ready touch allocate
//! nothing, a suspension allocates exactly its one record, and an aborted
//! session frees every record it left suspended.
//!
//! A counting `#[global_allocator]` tallies, per thread, the blocks
//! requested inside [`measure`] (so concurrently running tests and pool
//! workers never pollute a count), and can additionally *track* the
//! addresses it hands out inside [`track`] in a small global table that
//! every `dealloc`, on any thread, clears — "freed" is then "no tracked
//! address left".
//!
//! Untraced, non-model builds only: the trace feature's event rings grow
//! on push, and the model checker replaces the atomics (and their sizes).

#![cfg(not(any(pf_check, feature = "trace")))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use pf_rt::{cell, ready, CancelToken, Runtime, Session, SessionError};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static MAX_SIZE: Cell<usize> = const { Cell::new(0) };
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

const SLOTS: usize = 256;
/// Addresses of tracked, still-live blocks (0 = free slot).
static LIVE: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];
/// Tracked blocks currently in `LIVE`; lets untracked frees skip the scan.
static LIVE_N: AtomicUsize = AtomicUsize::new(0);
/// Tracked blocks ever recorded (non-vacuity check).
static TRACKED: AtomicUsize = AtomicUsize::new(0);
/// A tracked block found no free slot (the test would be vacuous).
static OVERFLOW: AtomicBool = AtomicBool::new(false);

fn flag(key: &'static std::thread::LocalKey<Cell<bool>>) -> bool {
    key.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping
// touches only const-initialised thread-locals and atomics, never the
// allocator itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's contract.
        let p = unsafe { System.alloc(layout) };
        if flag(&COUNTING) {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
            let _ = MAX_SIZE.try_with(|m| m.set(m.get().max(layout.size())));
        }
        if flag(&TRACKING) && !p.is_null() {
            let addr = p as usize;
            let claimed = LIVE.iter().any(|s| {
                s.compare_exchange(0, addr, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            });
            if claimed {
                LIVE_N.fetch_add(1, Ordering::SeqCst);
                TRACKED.fetch_add(1, Ordering::SeqCst);
            } else {
                OVERFLOW.store(true, Ordering::SeqCst);
            }
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        if LIVE_N.load(Ordering::SeqCst) > 0 {
            let addr = p as usize;
            let cleared = LIVE.iter().any(|s| {
                s.compare_exchange(addr, 0, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            });
            if cleared {
                LIVE_N.fetch_sub(1, Ordering::SeqCst);
            }
        }
        // SAFETY: forwarded with the caller's contract.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f`, returning its result with the number of blocks this thread
/// allocated meanwhile and the largest requested size.
fn measure<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    COUNT.with(|c| c.set(0));
    MAX_SIZE.with(|m| m.set(0));
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, COUNT.with(Cell::get), MAX_SIZE.with(Cell::get))
}

/// Run `f`, recording every block this thread allocates meanwhile as
/// tracked until some thread frees it.
fn track<R>(f: impl FnOnce() -> R) -> R {
    TRACKING.with(|t| t.set(true));
    let r = f();
    TRACKING.with(|t| t.set(false));
    r
}

#[test]
fn a_cell_is_one_allocation_of_at_most_48_bytes() {
    let (pair, n, size) = measure(cell::<u64>);
    assert_eq!(n, 1, "cell::<u64>() must allocate exactly once");
    assert!(size <= 48, "cell::<u64>() requested {size} B (> 48)");
    drop(pair);

    let (r, n, size) = measure(|| ready(0u64));
    assert_eq!(n, 1, "ready(0u64) must allocate exactly once");
    assert!(size <= 48, "ready(0u64) requested {size} B (> 48)");
    assert_eq!(r.expect(), 0);
}

#[test]
fn unwaited_fulfill_and_ready_touch_allocate_nothing() {
    let (w, r) = cell::<u64>();
    let (ow, or) = cell::<u64>();
    Runtime::new(1).run(move |wk| {
        let ((), n, _) = measure(|| w.fulfill(wk, 7));
        assert_eq!(n, 0, "a fulfill with no waiter allocated");
        let ((), n, _) = measure(|| r.touch(wk, move |v, wk| ow.fulfill(wk, v + 1)));
        assert_eq!(n, 0, "a touch of a FULL cell allocated");
    });
    assert_eq!(or.expect(), 8);
}

#[test]
fn a_suspended_touch_allocates_one_block() {
    let (w1, r1) = cell::<u64>();
    let (w2, r2) = cell::<u64>();
    let (ow, or) = cell::<u64>();
    Runtime::new(1).run(move |wk| {
        // The first suspension of a session also grows the session's
        // suspend registry; measure the second.
        r1.touch(wk, |_, _| {});
        let ((), n, _) = measure(|| r2.touch(wk, move |v, wk| ow.fulfill(wk, v * 10)));
        assert_eq!(n, 1, "a suspension must allocate exactly its record");
        wk.spawn(move |wk| {
            w1.fulfill(wk, 1);
            w2.fulfill(wk, 2);
        });
    });
    assert_eq!(or.expect(), 20);
}

#[test]
fn cancelled_session_frees_every_record() {
    let rt = Runtime::new(2);
    let (ws, rs): (Vec<_>, Vec<_>) = (0..8).map(|_| cell::<u64>()).unzip();
    let rs_in = rs.clone();
    let probe = Arc::new(());
    let held = Arc::clone(&probe);
    let tok = CancelToken::new();
    let tok_in = tok.clone();
    let err = rt
        .try_run_session(Session::new().cancel_token(&tok), move |wk| {
            for r in rs_in {
                let h = Arc::clone(&held);
                track(|| r.touch(wk, move |_, _| drop(h)));
            }
            drop(held);
            tok_in.cancel();
        })
        .unwrap_err();
    assert!(matches!(err, SessionError::Cancelled { .. }), "{err}");
    assert!(
        !OVERFLOW.load(Ordering::SeqCst),
        "tracking table overflowed"
    );
    assert!(
        TRACKED.load(Ordering::SeqCst) >= 8,
        "one record per suspension should have been tracked"
    );
    assert_eq!(
        Arc::strong_count(&probe),
        1,
        "a suspended continuation outlived the abort"
    );
    // The cells are still held (and poisoned), yet none of the blocks
    // the suspending touches allocated is live.
    assert_eq!(
        LIVE_N.load(Ordering::SeqCst),
        0,
        "suspension records outlived the cancelled session"
    );
    for r in &rs {
        let info = r.poison_info().expect("suspended cell poisoned");
        assert_eq!(info.session, err.session());
    }
    drop(ws);
}
