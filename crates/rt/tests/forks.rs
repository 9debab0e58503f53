//! The fork rule: a fork's child runs inline whenever the forking
//! worker's deque already holds a task, and is pushed only when the deque
//! is empty. These tests pin the things the rule must not cost: abort (an
//! inline child of an aborting session never runs), the native stack
//! (inline forks share the inline-depth guard, which a panic must not
//! leave raised), and parallelism (a thief always finds a task).

#![cfg(not(pf_check))]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use pf_rt::{cell, CancelToken, FutWrite, Runtime, Session, SessionError, Worker};

#[test]
fn inline_children_of_a_cancelled_session_never_run() {
    // One worker: nothing steals the filler, so the deque stays non-empty
    // and every counted fork below takes the inline path.
    let rt = Runtime::new(1);
    let token = CancelToken::new();
    let ran = Arc::new(AtomicU64::new(0));
    let (t, r) = (token.clone(), Arc::clone(&ran));
    let err = rt
        .try_run_session(Session::new().cancel_token(&token), move |wk| {
            wk.spawn(|_| {});
            t.cancel();
            for _ in 0..5_000 {
                let r = Arc::clone(&r);
                wk.spawn(move |_| {
                    r.fetch_add(1, Ordering::Relaxed);
                });
            }
            for _ in 0..2_500 {
                let (r1, r2) = (Arc::clone(&r), Arc::clone(&r));
                wk.spawn2(
                    move |_| {
                        r1.fetch_add(1, Ordering::Relaxed);
                    },
                    move |_| {
                        r2.fetch_add(1, Ordering::Relaxed);
                    },
                );
            }
        })
        .unwrap_err();
    assert!(matches!(err, SessionError::Cancelled { .. }), "{err}");
    assert_eq!(ran.load(Ordering::Relaxed), 0, "a cancelled child ran");
    // The dropped children released their captures.
    assert_eq!(Arc::strong_count(&ran), 1);
    // The pool is clean for the next session.
    rt.try_run(|wk| wk.spawn(|_| {})).unwrap();
}

/// Lowest and highest stack address seen per worker.
struct StackSpan {
    lo: [AtomicUsize; 2],
    hi: [AtomicUsize; 2],
}

impl StackSpan {
    fn record(&self, wk: &Worker) {
        let marker = 0u8;
        let addr = std::hint::black_box(&marker) as *const u8 as usize;
        self.lo[wk.index()].fetch_min(addr, Ordering::Relaxed);
        self.hi[wk.index()].fetch_max(addr, Ordering::Relaxed);
    }

    fn max_span(&self) -> usize {
        (0..2)
            .map(|i| {
                let (lo, hi) = (
                    self.lo[i].load(Ordering::Relaxed),
                    self.hi[i].load(Ordering::Relaxed),
                );
                hi.saturating_sub(lo)
            })
            .max()
            .unwrap()
    }
}

fn chain(wk: &Worker, n: u64, span: Arc<StackSpan>, done: Arc<AtomicBool>) {
    span.record(wk);
    if n == 0 {
        done.store(true, Ordering::Release);
        return;
    }
    wk.spawn(move |wk| chain(wk, n - 1, span, done));
}

#[test]
fn million_fork_chain_with_queued_work_is_depth_guarded() {
    const N: u64 = 1_000_000;
    let rt = Runtime::new(2);
    let span = Arc::new(StackSpan {
        lo: [AtomicUsize::new(usize::MAX), AtomicUsize::new(usize::MAX)],
        hi: [AtomicUsize::new(0), AtomicUsize::new(0)],
    });
    let done = Arc::new(AtomicBool::new(false));
    let (s, d) = (Arc::clone(&span), Arc::clone(&done));
    let stats = rt.run_stats(move |wk| {
        // Four resumed waiters queue on this worker's deque. A thief that
        // takes one spins in it until the chain ends, so the deque stays
        // non-empty and every fork of the chain may run inline.
        let mut writes = Vec::new();
        for _ in 0..4 {
            let (w, r) = cell::<()>();
            let d = Arc::clone(&d);
            r.touch(wk, move |_, wk| {
                while !d.load(Ordering::Acquire) && !wk.cancelled() {
                    std::thread::yield_now();
                }
            });
            writes.push(w);
        }
        for w in writes {
            w.fulfill(wk, ());
        }
        chain(wk, N, s, d);
    });
    assert!(done.load(Ordering::Acquire));
    assert_eq!(stats.spawns, N);
    assert_eq!(stats.tasks_executed - stats.suspensions, stats.spawns + 1);
    // Unguarded, a million nested frames would span far more than 16 B
    // each; the guard caps the nesting at a few hundred frames.
    let bytes = span.max_span();
    assert!(
        bytes < 16 << 20,
        "fork chain spanned {bytes} bytes of stack"
    );
}

fn tree(wk: &Worker, depth: u32, seen: Arc<AtomicUsize>) {
    seen.fetch_or(1 << wk.index(), Ordering::Relaxed);
    if depth == 0 {
        for _ in 0..200 {
            std::hint::spin_loop();
        }
        return;
    }
    let s = Arc::clone(&seen);
    wk.spawn2(
        move |wk| tree(wk, depth - 1, s),
        move |wk| tree(wk, depth - 1, seen),
    );
}

#[test]
fn balanced_fork_tree_runs_on_both_workers() {
    let rt = Runtime::new(2);
    // Whether the sibling wakes in time is up to the OS; a few sessions
    // make the check independent of one unlucky schedule.
    for _ in 0..10 {
        let seen = Arc::new(AtomicUsize::new(0));
        let s = Arc::clone(&seen);
        let stats = rt.run_stats(move |wk| tree(wk, 16, s));
        assert_eq!(stats.spawns, (1 << 17) - 2);
        assert_eq!(stats.tasks_executed - stats.suspensions, stats.spawns + 1);
        if stats.steals > 0 && seen.load(Ordering::Relaxed) == 0b11 {
            return;
        }
    }
    panic!("no session of a depth-16 fork tree ran on both workers");
}

/// Sum 2^depth ones through a binary fork tree whose parents touch their
/// children's cells right after forking.
fn tree_sum(wk: &Worker, depth: u32, out: FutWrite<u64>) {
    if depth == 0 {
        out.fulfill(wk, 1);
        return;
    }
    let (lw, lr) = cell();
    let (rw, rr) = cell();
    wk.spawn2(
        move |wk| tree_sum(wk, depth - 1, lw),
        move |wk| tree_sum(wk, depth - 1, rw),
    );
    lr.touch(wk, move |a, wk| {
        rr.touch(wk, move |b, wk| out.fulfill(wk, a + b));
    });
}

#[test]
fn panics_in_inline_children_leave_inlining_on() {
    // Each panic unwinds through an inline child's frame. Were its depth
    // mark left raised, a few hundred panics would exhaust the guard and
    // every later fork on this worker would be pushed.
    let rt = Runtime::new(1);
    for _ in 0..200 {
        let err = rt
            .try_run(|wk| {
                wk.spawn(|_| {});
                wk.spawn(|_| panic!("inline child"));
            })
            .unwrap_err();
        assert!(matches!(err, SessionError::Panicked { .. }), "{err}");
    }
    let (w, r) = cell();
    let stats = rt.run_stats(move |wk| tree_sum(wk, 10, w));
    assert_eq!(r.expect(), 1 << 10);
    // Inline children write their cells before the parent touches them;
    // only the touches of pushed children can suspend.
    assert!(
        stats.suspensions * 10 < stats.spawns,
        "{} suspensions for {} spawns",
        stats.suspensions,
        stats.spawns
    );
}
