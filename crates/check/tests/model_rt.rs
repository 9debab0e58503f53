//! Model tests for the `pf_rt` runtime under the pf-check virtual
//! scheduler. The whole file compiles only under
//! `RUSTFLAGS='--cfg pf_check'` — in that configuration `pf_rt::sync`
//! routes every atomic, lock, park, and yield through pf-check, so each
//! test here explores many interleavings of the *real* runtime code, not
//! a re-model of it.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS='--cfg pf_check' cargo test -p pf-check --test model_rt
//! ```
//!
//! Replay one failing schedule with `PF_CHECK_REPLAY=<schedule string>`
//! (printed in the failure message), same RUSTFLAGS.
//!
//! The non-vacuity test (`seeded_lost_wakeup_is_caught`) additionally
//! needs the seeded-bug mutation compiled in:
//!
//! ```text
//! RUSTFLAGS='--cfg pf_check --cfg pf_check_lost_wakeup' \
//!     cargo test -p pf-check --test model_rt
//! ```
//!
//! Under that mutation the pool's sleeper re-check is removed
//! (`pool.rs`), so the regular pool tests would themselves find the
//! deadlock; they are cfg'd off and only the catch-the-bug test runs.
//!
//! Auxiliary test state (result counters) deliberately uses `std`
//! atomics: they are not part of the protocol under test, and keeping
//! them off the model's scheduling points avoids exploding the schedule
//! space with irrelevant interleavings.
#![cfg(pf_check)]
// Under the mutation, most tests (and their helpers/imports) are cfg'd off.
#![cfg_attr(pf_check_lost_wakeup, allow(unused_imports, dead_code))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use pf_check::sync::thread;
use pf_check::CheckBuilder;

use pf_rt::deque::{deque, Steal, MAX_STEAL_BATCH};
use pf_rt::mutex_cell::mx_cell;
use pf_rt::{cell, CancelToken, ResumePlace, Runtime, SchedPolicy, Session, SessionError};

/// Exploration budgets for models embedding the full `Runtime` (worker
/// threads + session protocol): these have hundreds of choice points, so
/// exhaustive DFS cannot finish and is skipped in favor of PCT + random.
fn rt_budget() -> CheckBuilder {
    CheckBuilder::new()
        .dfs_budget(0)
        .pct_iters(40)
        .random_iters(120)
}

/// Budgets for small hand-built models (a deque + a couple of raw model
/// threads): DFS first — for the smallest ones it is exhaustive.
fn small_budget() -> CheckBuilder {
    CheckBuilder::new()
        .dfs_budget(600)
        .pct_iters(30)
        .random_iters(100)
}

// ---------------------------------------------------------------------------
// Chase–Lev deque races
// ---------------------------------------------------------------------------

/// Owner pop races a thief's steal for the single last element: exactly
/// one side must claim it, and the claimed value must be intact.
#[test]
fn deque_last_element_pop_vs_steal() {
    small_budget().run(|| {
        let q = deque::<Box<u64>>();
        q.push(Box::new(41));
        let s = q.stealer();
        let stolen = Arc::new(AtomicUsize::new(0));
        let st2 = Arc::clone(&stolen);
        let thief = thread::spawn(move || loop {
            match s.steal() {
                Steal::Success(v) => {
                    assert_eq!(*v, 41);
                    st2.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Steal::Empty => return,
                Steal::Retry => {}
            }
        });
        let popped = match q.pop() {
            Some(v) => {
                assert_eq!(*v, 41);
                1
            }
            None => 0,
        };
        thief.join().unwrap();
        assert_eq!(
            popped + stolen.load(Ordering::Relaxed),
            1,
            "the last element must be claimed exactly once"
        );
    });
}

/// A thief steals concurrently with owner pushes that force the ring
/// buffer to grow (INITIAL_CAP is 2 under pf_check, so 6 pushes double
/// it twice): every element is claimed exactly once, none torn.
#[test]
fn deque_steal_during_grow() {
    small_budget().run(|| {
        const N: u64 = 6;
        let q = deque::<Box<u64>>();
        let s = q.stealer();
        let sum = Arc::new(AtomicUsize::new(0));
        let claimed = Arc::new(AtomicUsize::new(0));
        let (s2, c2) = (Arc::clone(&sum), Arc::clone(&claimed));
        let thief = thread::spawn(move || {
            // A bounded number of attempts: the owner drains leftovers.
            for _ in 0..4 {
                match s.steal() {
                    Steal::Success(v) => {
                        s2.fetch_add(*v as usize, Ordering::Relaxed);
                        c2.fetch_add(1, Ordering::Relaxed);
                    }
                    Steal::Empty | Steal::Retry => {}
                }
            }
        });
        for i in 1..=N {
            q.push(Box::new(i));
        }
        thief.join().unwrap();
        while let Some(v) = q.pop() {
            sum.fetch_add(*v as usize, Ordering::Relaxed);
            claimed.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(claimed.load(Ordering::Relaxed) as u64, N);
        assert_eq!(
            sum.load(Ordering::Relaxed) as u64,
            N * (N + 1) / 2,
            "an element was lost, duplicated, or torn during growth"
        );
    });
}

/// Two thieves race each other (and the owner's pops) on a short queue:
/// every element claimed exactly once across all three parties.
#[test]
fn deque_two_thieves_claim_disjoint() {
    small_budget().run(|| {
        const N: usize = 4;
        let q = deque::<Box<usize>>();
        for i in 1..=N {
            q.push(Box::new(i));
        }
        let claimed = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        let mut thieves = Vec::new();
        for _ in 0..2 {
            let s = q.stealer();
            let (c2, s2) = (Arc::clone(&claimed), Arc::clone(&sum));
            thieves.push(thread::spawn(move || {
                for _ in 0..3 {
                    match s.steal() {
                        Steal::Success(v) => {
                            c2.fetch_add(1, Ordering::Relaxed);
                            s2.fetch_add(*v, Ordering::Relaxed);
                        }
                        Steal::Empty | Steal::Retry => {}
                    }
                }
            }));
        }
        while let Some(v) = q.pop() {
            claimed.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(*v, Ordering::Relaxed);
        }
        for t in thieves {
            t.join().unwrap();
        }
        // The owner may have drained before the thieves got going; claim
        // whatever is left.
        while let Some(v) = q.pop() {
            claimed.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(*v, Ordering::Relaxed);
        }
        assert_eq!(claimed.load(Ordering::Relaxed), N);
        assert_eq!(sum.load(Ordering::Relaxed), N * (N + 1) / 2);
    });
}

// ---------------------------------------------------------------------------
// Pool: quiescence, sessions, panic rendezvous
// ---------------------------------------------------------------------------
// The regular pool tests are cfg'd off under the lost-wakeup mutation:
// with the sleeper re-check removed they would (correctly!) deadlock.

/// The heart of PR 1's lost-wakeup argument: tasks spawned right as
/// workers go idle must still be executed and the session must reach
/// quiescence. A missed wakeup shows up as the deadlock oracle firing
/// (root stuck in the done-condvar, workers parked with work queued).
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn pool_quiescence_no_lost_wakeup() {
    rt_budget().run(|| {
        let done = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&done);
        let rt = Runtime::new(2);
        rt.run(move |wk| {
            let (a, b) = (Arc::clone(&d2), Arc::clone(&d2));
            wk.spawn(move |_| {
                a.fetch_add(1, Ordering::Relaxed);
            });
            wk.spawn(move |_| {
                b.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(done.load(Ordering::Relaxed), 2);
        drop(rt);
    });
}

/// Back-to-back sessions on one pool: the second session must see a
/// fully reset pool (stats, done flag, live counter) in every
/// interleaving of the first session's teardown with its setup.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn pool_two_sessions_reuse() {
    rt_budget().run(|| {
        let rt = Runtime::new(2);
        for round in 0..2usize {
            let (w, r) = cell::<usize>();
            rt.run(move |wk| {
                wk.spawn(move |wk| w.fulfill(wk, round + 7));
            });
            assert_eq!(r.expect(), round + 7);
        }
        drop(rt);
    });
}

/// A panicking task must propagate out of `run` and leave the pool
/// reusable: the abort rendezvous (workers parked, queues drained by the
/// client) must work in every interleaving, and the next session must
/// run normally.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn pool_panic_rendezvous_leaves_pool_reusable() {
    rt_budget().run(|| {
        let rt = Runtime::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run(|wk| {
                wk.spawn(|_| {});
                wk.spawn(|_| panic!("model task boom"));
                wk.spawn(|_| {});
            });
        }));
        assert!(r.is_err(), "task panic must propagate out of run()");
        // The same pool must complete a fresh session afterwards.
        let (w, out) = cell::<u32>();
        rt.run(move |wk| {
            wk.spawn(move |wk| w.fulfill(wk, 5));
        });
        assert_eq!(out.expect(), 5);
        drop(rt);
    });
}

/// Single-worker pool: quiescence and cell handoff must not rely on a
/// sibling existing (notify_push skips the fence for 1-worker pools —
/// that shortcut must still be wakeup-correct against the client).
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn pool_single_worker_suspend_resume() {
    rt_budget().run(|| {
        let (w, r) = cell::<u32>();
        let (ow, or) = cell::<u32>();
        let rt = Runtime::new(1);
        rt.run(move |wk| {
            r.touch(wk, move |v, wk| ow.fulfill(wk, v + 1));
            wk.spawn(move |wk| w.fulfill(wk, 10));
        });
        assert_eq!(or.expect(), 11);
        drop(rt);
    });
}

// ---------------------------------------------------------------------------
// Cell: fulfill-vs-touch waiter handoff
// ---------------------------------------------------------------------------

/// The EMPTY→WAITING→FULL race: a writer and a toucher hit the cell
/// concurrently from two workers. In every interleaving the continuation
/// must run exactly once with the written value (never zero times — a
/// lost waiter would deadlock quiescence; never twice — a double-run
/// would double-fire the counter; and the single-box waiter must not be
/// double-dropped — that would segfault/abort the process).
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn cell_fulfill_vs_touch_exactly_once() {
    rt_budget().run(|| {
        let runs = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&runs);
        let (w, r) = cell::<u32>();
        let rt = Runtime::new(2);
        rt.run(move |wk| {
            let counter = Arc::clone(&r2);
            wk.spawn2(
                move |wk| w.fulfill(wk, 9),
                move |wk| {
                    r.touch(wk, move |v, _| {
                        assert_eq!(v, 9);
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                },
            );
        });
        assert_eq!(
            runs.load(Ordering::Relaxed),
            1,
            "continuation must run exactly once"
        );
        drop(rt);
    });
}

/// Forced suspension order (touch strictly before fulfill, sequenced on
/// one worker): exercises the WAITING branch of the writer's swap — the
/// waiter box is taken and re-enqueued as a task exactly once.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn cell_waiter_handoff_after_suspension() {
    rt_budget().run(|| {
        let runs = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&runs);
        let (w, r) = cell::<u32>();
        let rt = Runtime::new(2);
        rt.run(move |wk| {
            let counter = Arc::clone(&r2);
            // Touch first, from the root task itself: the cell cannot be
            // full yet, so this suspends (or races the spawned write).
            r.touch(wk, move |v, _| {
                assert_eq!(v, 3);
                counter.fetch_add(1, Ordering::Relaxed);
            });
            wk.spawn(move |wk| w.fulfill(wk, 3));
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        drop(rt);
    });
}

// ---------------------------------------------------------------------------
// Mutex cell contention
// ---------------------------------------------------------------------------

/// The non-linear mutexed cell: two touchers and one writer race; both
/// continuations run exactly once each with the written value.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn mutex_cell_two_touchers_one_writer() {
    rt_budget().run(|| {
        let runs = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&runs);
        let (w, r) = mx_cell::<u32>();
        let rt = Runtime::new(2);
        rt.run(move |wk| {
            let ra = r.clone();
            let rb = r;
            let (ca, cb) = (Arc::clone(&r2), Arc::clone(&r2));
            wk.spawn(move |wk| {
                ra.touch(wk, move |v, _| {
                    assert_eq!(v, 6);
                    ca.fetch_add(1, Ordering::Relaxed);
                })
            });
            wk.spawn(move |wk| {
                rb.touch(wk, move |v, _| {
                    assert_eq!(v, 6);
                    cb.fetch_add(1, Ordering::Relaxed);
                })
            });
            wk.spawn(move |wk| w.fulfill(wk, 6));
        });
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        drop(rt);
    });
}

// ---------------------------------------------------------------------------
// Scheduling policies (PR 8): mailbox handoff, inline resume, steal-half
// ---------------------------------------------------------------------------

/// A thief's batched `steal_half_into` races the owner's pops on the
/// last few elements: every element must be claimed exactly once across
/// the batch steal and the pops — the batched primitive must not
/// double-claim against a concurrent `pop` (the reason it is built from
/// repeated single steals rather than a range CAS).
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn deque_steal_half_vs_owner_pop_exactly_once() {
    small_budget().run(|| {
        const N: usize = 4;
        let q = deque::<Box<usize>>();
        for i in 1..=N {
            q.push(Box::new(i));
        }
        let s = q.stealer();
        let claimed = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        let (c2, s2) = (Arc::clone(&claimed), Arc::clone(&sum));
        let thief = thread::spawn(move || {
            let dst = deque::<Box<usize>>();
            for _ in 0..3 {
                match s.steal_half_into(&dst, MAX_STEAL_BATCH) {
                    Steal::Success((first, _extra)) => {
                        c2.fetch_add(1, Ordering::Relaxed);
                        s2.fetch_add(*first, Ordering::Relaxed);
                        break;
                    }
                    Steal::Empty => break,
                    Steal::Retry => {}
                }
            }
            while let Some(v) = dst.pop() {
                c2.fetch_add(1, Ordering::Relaxed);
                s2.fetch_add(*v, Ordering::Relaxed);
            }
        });
        while let Some(v) = q.pop() {
            claimed.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(*v, Ordering::Relaxed);
        }
        thief.join().unwrap();
        // Anything the thief left behind (Retry exhaustion) stays with
        // the owner; claim it now.
        while let Some(v) = q.pop() {
            claimed.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(*v, Ordering::Relaxed);
        }
        assert_eq!(claimed.load(Ordering::Relaxed), N);
        assert_eq!(
            sum.load(Ordering::Relaxed),
            N * (N + 1) / 2,
            "an element was lost, duplicated, or torn by the batched steal"
        );
    });
}

/// Mailbox resume under the fulfill-vs-touch race: the fulfiller hands
/// the resumed waiter to the *cell-owning* worker's mailbox and issues a
/// targeted wakeup. The lost-wakeup hazard: the owner parks right as the
/// handoff lands. In every interleaving the continuation runs exactly
/// once and the session reaches quiescence (a missed mailbox wakeup
/// shows up as the deadlock oracle firing).
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn pool_mailbox_handoff_no_lost_wakeup() {
    rt_budget().run(|| {
        let policy = SchedPolicy {
            resume: ResumePlace::Mailbox,
            ..SchedPolicy::default()
        };
        let runs = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&runs);
        let (w, r) = cell::<u32>();
        let rt = Runtime::with_policy(2, policy);
        rt.run(move |wk| {
            let counter = Arc::clone(&r2);
            wk.spawn2(
                move |wk| w.fulfill(wk, 4),
                move |wk| {
                    r.touch(wk, move |v, _| {
                        assert_eq!(v, 4);
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                },
            );
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        drop(rt);
    });
}

/// Mailbox resume with a forced suspension (touch strictly before the
/// write, sequenced on the root): the waiter crosses via the owner's
/// mailbox even when the fulfiller is another worker, and a later
/// session on the same pool must find the mailboxes empty.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn pool_mailbox_forced_suspension_then_reuse() {
    rt_budget().run(|| {
        let policy = SchedPolicy {
            resume: ResumePlace::Mailbox,
            ..SchedPolicy::default()
        };
        let runs = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&runs);
        let (w, r) = cell::<u32>();
        let rt = Runtime::with_policy(2, policy);
        rt.run(move |wk| {
            let counter = Arc::clone(&r2);
            r.touch(wk, move |v, _| {
                assert_eq!(v, 8);
                counter.fetch_add(1, Ordering::Relaxed);
            });
            wk.spawn(move |wk| w.fulfill(wk, 8));
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        let (w2, out) = cell::<u32>();
        rt.run(move |wk| {
            wk.spawn(move |wk| w2.fulfill(wk, 2));
        });
        assert_eq!(out.expect(), 2);
        drop(rt);
    });
}

/// Inline (LIFO-front) resume under the same race: the fulfiller runs
/// the waiter in its own stack frame, which transfers the waiter's
/// liveness unit without touching a queue — quiescence accounting must
/// survive every interleaving (an over-decrement would end the session
/// early and lose the continuation; an under-decrement would hang it).
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn pool_inline_resume_exactly_once() {
    rt_budget().run(|| {
        let policy = SchedPolicy {
            resume: ResumePlace::Inline,
            ..SchedPolicy::default()
        };
        let runs = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&runs);
        let (w, r) = cell::<u32>();
        let rt = Runtime::with_policy(2, policy);
        rt.run(move |wk| {
            let counter = Arc::clone(&r2);
            wk.spawn2(
                move |wk| w.fulfill(wk, 6),
                move |wk| {
                    r.touch(wk, move |v, _| {
                        assert_eq!(v, 6);
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                },
            );
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1);
        drop(rt);
    });
}

/// An abort with a waiter parked in a worker's mailbox: the injected
/// panic races the mailbox handoff, and the abort cleanup must drain
/// mailboxes too — a leaked mailbox task would either leak its boxed
/// closure or corrupt the next session's accounting.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn pool_mailbox_abort_drains_cleanly() {
    rt_budget().run(|| {
        let policy = SchedPolicy {
            resume: ResumePlace::Mailbox,
            ..SchedPolicy::default()
        };
        let rt = Runtime::with_policy(2, policy);
        let (w, r) = cell::<u32>();
        let res = rt.try_run_session(Session::new(), move |wk| {
            r.touch(wk, |_v, _wk| {});
            wk.spawn(move |wk| w.fulfill(wk, 1));
            wk.spawn(|_| panic!("model mailbox boom"));
        });
        assert!(res.is_err(), "the injected panic must abort the session");
        // The pool must be fully clean for the next session.
        let (w2, out) = cell::<u32>();
        rt.try_run(move |wk| {
            wk.spawn(move |wk| w2.fulfill(wk, 3));
        })
        .unwrap();
        assert_eq!(out.expect(), 3);
        drop(rt);
    });
}

// ---------------------------------------------------------------------------
// Fault containment: recoverable aborts, poisoning, cancellation
// ---------------------------------------------------------------------------

/// The recoverable abort rendezvous: a panicking task must surface as
/// `Err(Panicked)` from `try_run` — never a deadlock, never a missed
/// rendezvous — in every interleaving, and the same pool must complete a
/// clean session afterwards.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn try_run_abort_rendezvous_under_injected_panic() {
    rt_budget().run(|| {
        let rt = Runtime::new(2);
        let err = rt
            .try_run(|wk| {
                wk.spawn(|_| {});
                wk.spawn(|_| panic!("model task boom"));
                wk.spawn(|_| {});
            })
            .unwrap_err();
        assert!(matches!(err, SessionError::Panicked { .. }), "{err}");
        assert_eq!(err.panic_message(), Some("model task boom"));
        let (w, out) = cell::<u32>();
        rt.try_run(move |wk| {
            wk.spawn(move |wk| w.fulfill(wk, 5));
        })
        .unwrap();
        assert_eq!(out.expect(), 5);
        drop(rt);
    });
}

/// Poison-then-touch: a continuation suspended when its session aborts
/// must be poisoned with the aborting session's context (program order
/// makes the suspension precede the panicking task here), and a straggler
/// touch in a later session must fail fast with that context rather than
/// suspend forever.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn poison_then_touch_fails_fast() {
    rt_budget().run(|| {
        let rt = Runtime::new(2);
        let (_w, r) = cell::<u32>(); // never fulfilled
        let r_in = r.clone();
        let err = rt
            .try_run(move |wk| {
                r_in.touch(wk, |_v, _wk| {});
                wk.spawn(|_| panic!("poisoner"));
            })
            .unwrap_err();
        assert!(matches!(err, SessionError::Panicked { .. }), "{err}");
        let info = r.poison_info().expect("suspended cell must be poisoned");
        assert_eq!(info.session, err.session());
        let r_late = r.clone();
        let err2 = rt
            .try_run(move |wk| r_late.touch(wk, |_v, _wk| {}))
            .unwrap_err();
        let msg = err2.panic_message().unwrap_or("");
        assert!(msg.contains("poisoned"), "{msg}");
        drop(rt);
    });
}

/// A cancel racing the session's own completion: every interleaving must
/// end in either a clean `Ok` (with the result written) or
/// `Err(Cancelled)` — nothing else, no hang — and the pool must be
/// reusable afterwards in both cases.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn cancel_racing_fulfill() {
    rt_budget().run(|| {
        let rt = Runtime::new(2);
        let tok = CancelToken::new();
        let t2 = tok.clone();
        let canceller = thread::spawn(move || t2.cancel());
        let (w, out) = cell::<u32>();
        let res = rt.try_run_session(Session::new().cancel_token(&tok), move |wk| {
            wk.spawn(move |wk| w.fulfill(wk, 7));
        });
        canceller.join().unwrap();
        match res {
            Ok(_) => assert_eq!(out.expect(), 7),
            Err(e) => assert!(matches!(e, SessionError::Cancelled { .. }), "{e}"),
        }
        let (w2, out2) = cell::<u32>();
        rt.try_run(move |wk| {
            wk.spawn(move |wk| w2.fulfill(wk, 9));
        })
        .unwrap();
        assert_eq!(out2.expect(), 9);
        drop(rt);
    });
}

/// Work-first forks under a thief and a canceller: the root's first fork
/// is pushed (its deque is empty), and each later fork runs inline or is
/// pushed depending on whether the sibling has stolen that task yet,
/// while a cancel races the whole session. Every interleaving must end
/// `Ok` with each child run exactly once, or `Err(Cancelled)` with no
/// child run twice; an inline child of the aborting session is dropped
/// unrun, and the pool stays reusable.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn pool_inline_forks_race_steal_and_cancel() {
    rt_budget().run(|| {
        let rt = Runtime::new(2);
        let tok = CancelToken::new();
        let t2 = tok.clone();
        let canceller = thread::spawn(move || t2.cancel());
        let ran: Arc<Vec<AtomicUsize>> = Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
        let r = Arc::clone(&ran);
        let res = rt.try_run_session(Session::new().cancel_token(&tok), move |wk| {
            let child = |i: usize| {
                let r = Arc::clone(&r);
                move |_: &pf_rt::Worker| {
                    r[i].fetch_add(1, Ordering::Relaxed);
                }
            };
            wk.spawn(child(0));
            wk.spawn(child(1));
            wk.spawn2(child(2), child(3));
        });
        canceller.join().unwrap();
        let counts: Vec<usize> = ran.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        match res {
            Ok(_) => assert_eq!(counts, [1, 1, 1, 1]),
            Err(e) => {
                assert!(matches!(e, SessionError::Cancelled { .. }), "{e}");
                assert!(counts.iter().all(|&c| c <= 1), "{counts:?}");
            }
        }
        let (w, out) = cell::<u32>();
        rt.try_run(move |wk| {
            wk.spawn(move |wk| w.fulfill(wk, 3));
        })
        .unwrap();
        assert_eq!(out.expect(), 3);
        drop(rt);
    });
}

// ---------------------------------------------------------------------------
// Concurrent sessions (PR 9: the session table)
// ---------------------------------------------------------------------------

/// Two client threads run sessions concurrently on one pool: both must
/// complete with their own results in every interleaving. This is the
/// cross-session lost-wakeup model — each session's quiescence counter
/// lives in its own slot, and a worker parked after draining session
/// A's tasks must still wake for session B's push (and vice versa).
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn two_concurrent_sessions_both_complete() {
    rt_budget().run(|| {
        let rt = Arc::new(Runtime::new(2));
        let rt2 = Arc::clone(&rt);
        let other = thread::spawn(move || {
            let (w, r) = cell::<u32>();
            rt2.try_run(move |wk| {
                wk.spawn(move |wk| w.fulfill(wk, 7));
            })
            .unwrap();
            assert_eq!(r.expect(), 7);
        });
        let (w, r) = cell::<u32>();
        let (ow, or) = cell::<u32>();
        rt.try_run(move |wk| {
            r.touch(wk, move |v, wk| ow.fulfill(wk, v + 1));
            wk.spawn(move |wk| w.fulfill(wk, 9));
        })
        .unwrap();
        assert_eq!(or.expect(), 10);
        other.join().unwrap();
        drop(rt);
    });
}

/// A panicking session co-executing with a healthy sibling: in every
/// interleaving the sibling completes with the right value, the abort
/// poisons only the faulting session's cell, and the poison context
/// carries the faulting session's id — abort isolation and poison
/// confinement at model-checker granularity.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn concurrent_abort_is_isolated_to_its_slot() {
    rt_budget().run(|| {
        let rt = Arc::new(Runtime::new(2));
        let rt2 = Arc::clone(&rt);
        let faulty = thread::spawn(move || {
            let (_w, r) = cell::<u32>(); // never written; poisoned on abort
            let r_in = r.clone();
            let err = rt2
                .try_run(move |wk| {
                    // Suspension commits in the root body, so the abort
                    // deterministically has a cell to poison.
                    r_in.touch(wk, |_v, _wk| {});
                    wk.spawn(|_| panic!("model sibling boom"));
                })
                .unwrap_err();
            assert!(matches!(err, SessionError::Panicked { .. }), "{err}");
            let info = r.poison_info().expect("faulting session's cell poisoned");
            assert_eq!(info.session, err.session());
        });
        // The sibling: its own suspend/fulfill chain in separate cells.
        let (w, r) = cell::<u32>();
        let (ow, or) = cell::<u32>();
        rt.try_run(move |wk| {
            r.touch(wk, move |v, wk| ow.fulfill(wk, v * 2));
            wk.spawn(move |wk| w.fulfill(wk, 21));
        })
        .expect("sibling of a panicking session");
        assert_eq!(or.expect(), 42);
        faulty.join().unwrap();
        drop(rt);
    });
}

/// A pre-cancelled session aborts cleanly while a concurrent sibling
/// completes: the cancel lands in exactly one slot, and the closed
/// slot's token can be re-cancelled without disturbing anything.
#[cfg(not(pf_check_lost_wakeup))]
#[test]
fn concurrent_cancel_hits_only_its_slot() {
    rt_budget().run(|| {
        let rt = Arc::new(Runtime::new(2));
        let rt2 = Arc::clone(&rt);
        let tok = CancelToken::new();
        tok.cancel();
        let t2 = tok.clone();
        let cancelled = thread::spawn(move || {
            let err = rt2
                .try_run_session(Session::new().cancel_token(&t2), |wk| {
                    wk.spawn(|_| {});
                })
                .unwrap_err();
            assert!(matches!(err, SessionError::Cancelled { .. }), "{err}");
        });
        let (w, r) = cell::<u32>();
        rt.try_run(move |wk| {
            wk.spawn(move |wk| w.fulfill(wk, 3));
        })
        .expect("sibling of a cancelled session");
        assert_eq!(r.expect(), 3);
        cancelled.join().unwrap();
        // Stale cancel on the closed slot: must be a no-op.
        tok.cancel();
        drop(rt);
    });
}

// ---------------------------------------------------------------------------
// Non-vacuity: the seeded lost-wakeup mutation must be caught
// ---------------------------------------------------------------------------

/// With `--cfg pf_check_lost_wakeup`, `pool.rs` omits the sleeper's
/// post-bit-set queue re-check — reopening the exact race the re-check
/// closes (producer pushes + reads the sleeper mask before the worker
/// publishes its bit; worker then parks over a non-empty queue). The
/// checker must find the resulting deadlock and hand back a schedule
/// that replays it. This is the proof that the harness can actually see
/// the bug class PR 1's quiescence argument defends against.
#[cfg(pf_check_lost_wakeup)]
#[test]
fn seeded_lost_wakeup_is_caught() {
    let failure = CheckBuilder::new()
        .dfs_budget(0)
        .pct_iters(60)
        .random_iters(300)
        .expect_failure()
        .run(|| {
            let done = Arc::new(AtomicUsize::new(0));
            let d2 = Arc::clone(&done);
            let rt = Runtime::new(2);
            rt.run(move |wk| {
                let (a, b) = (Arc::clone(&d2), Arc::clone(&d2));
                wk.spawn(move |_| {
                    a.fetch_add(1, Ordering::Relaxed);
                });
                wk.spawn(move |_| {
                    b.fetch_add(1, Ordering::Relaxed);
                });
            });
            assert_eq!(done.load(Ordering::Relaxed), 2);
            drop(rt);
        });
    let f =
        failure.expect("the seeded lost-wakeup bug was NOT found — the model checker is vacuous");
    assert_eq!(
        f.kind_desc, "deadlock",
        "expected the deadlock oracle: {}",
        f.message
    );
    assert!(
        !f.schedule.is_empty(),
        "failure must carry a replayable schedule"
    );
    assert!(f.confirmed, "failing schedule must reproduce on replay");
    eprintln!(
        "pf-check caught the seeded lost wakeup; replay with PF_CHECK_REPLAY=\"{}\"",
        f.schedule
    );
}
