//! Cross-backend agreement: the cost-model simulator, the real runtime,
//! and the sequential references must produce identical results (and for
//! treaps, identical shapes) on identical inputs, across thread counts.

use pf_backend::{PipeBackend, Seq};
use pf_rt::{cell, ready, Runtime};
use pf_rt_algs::rlist::{consume, produce, qs, RList, RtList};
use pf_rt_algs::rtreap::{diff as rt_diff, union as rt_union, RTreap, RtTreap};
use pf_rt_algs::rtree::{merge as rt_merge, RTree, RtTree};
use pf_rt_algs::rtwosix::{insert_many as rt_insert_many, RTsTree, RtTsTree};
use pf_tests::entries;
use pf_trees::merge::run_merge;
use pf_trees::seq::PlainTreap;
use pf_trees::treap::{run_diff, run_union};
use pf_trees::two_six::run_insert_many;
use pf_trees::workloads::shuffled_keys;
use pf_trees::Mode;

#[test]
fn merge_agrees_across_backends() {
    for (na, nb) in [(0usize, 5usize), (5, 0), (100, 100), (777, 333)] {
        let a: Vec<i64> = (0..na as i64).map(|i| 2 * i).collect();
        let b: Vec<i64> = (0..nb as i64).map(|i| 2 * i + 1).collect();
        let (root, _) = run_merge(&a, &b, Mode::Pipelined);
        let model = root.get().to_sorted_vec();
        for threads in [1, 3] {
            let (op, of) = cell();
            let (ta, tb) = (
                ready(RTree::from_sorted_ready(&a)),
                ready(RTree::from_sorted_ready(&b)),
            );
            Runtime::new(threads).run(move |wk| rt_merge(wk, ta, tb, op));
            assert_eq!(
                of.expect().to_sorted_vec(),
                model,
                "na={na} nb={nb} threads={threads}"
            );
        }
    }
}

#[test]
fn union_shape_agrees_across_all_three_backends() {
    let a = entries((0..500).map(|i| 3 * i));
    let b = entries((0..500).map(|i| 2 * i));
    // Sequential.
    let pu = PlainTreap::union(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
    let seq_keys = PlainTreap::to_sorted_vec(&pu);
    let seq_height = PlainTreap::height(&pu);
    // Cost model.
    let (root, _) = run_union(&a, &b, Mode::Pipelined);
    assert_eq!(root.get().to_sorted_vec(), seq_keys);
    assert_eq!(root.get().height(), seq_height);
    // Real runtime.
    for threads in [1, 2, 4] {
        let (op, of) = cell();
        let (ta, tb) = (
            ready(RTreap::from_entries_ready(&a)),
            ready(RTreap::from_entries_ready(&b)),
        );
        Runtime::new(threads).run(move |wk| rt_union(wk, ta, tb, op));
        let t = of.expect();
        assert_eq!(t.to_sorted_vec(), seq_keys, "threads={threads}");
        assert_eq!(t.height(), seq_height, "threads={threads}");
    }
}

#[test]
fn diff_agrees_across_backends() {
    let a = entries(0..600);
    let b = entries((0..600).filter(|k| k % 4 == 0));
    let pd = PlainTreap::diff(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
    let seq_keys = PlainTreap::to_sorted_vec(&pd);
    let (root, _) = run_diff(&a, &b, Mode::Pipelined);
    assert_eq!(root.get().to_sorted_vec(), seq_keys);
    assert_eq!(root.get().height(), PlainTreap::height(&pd));
    for threads in [1, 4] {
        let (op, of) = cell();
        let (ta, tb) = (
            ready(RTreap::from_entries_ready(&a)),
            ready(RTreap::from_entries_ready(&b)),
        );
        Runtime::new(threads).run(move |wk| rt_diff(wk, ta, tb, op));
        assert_eq!(of.expect().to_sorted_vec(), seq_keys, "threads={threads}");
    }
}

#[test]
fn rebalance_agrees_across_all_three_backends() {
    for n in [0usize, 1, 37, 300] {
        let keys: Vec<i64> = shuffled_keys(n, 11 + n as u64);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        // Cost model: deterministic shape, used as the reference below.
        let (root, _) = pf_trees::rebalance::run_rebalance(&keys, Mode::Pipelined);
        let model = root.get();
        assert_eq!(model.to_sorted_vec(), sorted, "n={n}");
        // Sequential oracle: the same generic text at B = Seq.
        let seq_tree = Seq::run(|bk| {
            let ft = bk.input(pf_algs::rebalance::unbalanced_from(bk, &keys));
            let (op, of) = bk.cell();
            pf_algs::rebalance::rebalance(bk, ft, op, Mode::Pipelined);
            pf_algs::tree::Tree::<Seq, i64>::expect(&of)
        });
        assert_eq!(seq_tree.to_sorted_vec(), sorted, "n={n}");
        assert_eq!(seq_tree.height(), model.height(), "n={n}");
        // Real runtime, multiple thread counts: identical deterministic shape.
        for threads in [1, 4] {
            let keys = keys.clone();
            let (op, of) = cell();
            Runtime::new(threads).run(move |wk| {
                let ft = wk.input(pf_algs::rebalance::unbalanced_from(wk, &keys));
                pf_rt_algs::rrebalance::rebalance(wk, ft, op);
            });
            let t = of.expect();
            assert_eq!(t.to_sorted_vec(), sorted, "n={n} threads={threads}");
            assert_eq!(t.height(), model.height(), "n={n} threads={threads}");
        }
    }
}

#[test]
fn two_six_insert_agrees_across_all_three_backends() {
    for (n, m) in [(0usize, 40usize), (400, 120), (1000, 1)] {
        let initial: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
        let newk: Vec<i64> = (0..m as i64).map(|i| 8 * i + 1).collect();
        let mut expect = initial.clone();
        expect.extend(&newk);
        expect.sort_unstable();
        // Cost model.
        let (root, _) = run_insert_many(&initial, &newk, Mode::Pipelined);
        let model = root.get();
        model.validate().unwrap();
        assert_eq!(model.to_sorted_vec(), expect, "n={n} m={m}");
        // Sequential oracle: the same generic text at B = Seq.
        let seq_tree = Seq::run(|bk| {
            let ft = bk.input(pf_algs::two_six::TsTree::<Seq, i64>::from_sorted(
                bk, &initial,
            ));
            let f = pf_algs::two_six::insert_many(bk, &newk, ft, Mode::Pipelined);
            pf_algs::two_six::TsTree::<Seq, i64>::expect(&f)
        });
        seq_tree.validate().unwrap();
        assert_eq!(seq_tree.to_sorted_vec(), expect, "n={n} m={m}");
        // Real runtime, multiple thread counts.
        for threads in [1, 4] {
            let ft = ready(RTsTree::from_sorted_ready(&initial));
            let (op, of) = cell();
            let keys = newk.clone();
            Runtime::new(threads).run(move |wk| {
                let f = rt_insert_many(wk, &keys, ft);
                f.touch(wk, move |tv, wk| op.fulfill(wk, tv));
            });
            let t = of.expect();
            t.validate().unwrap();
            assert_eq!(t.to_sorted_vec(), expect, "n={n} m={m} threads={threads}");
        }
    }
}

#[test]
fn pipeline_sum_agrees() {
    let n = 5000u64;
    // The eager evaluator nests one native frame per list element; use the
    // big-stack helper for deep pipelines (see pf_core::run_with_big_stack).
    let (sum_model, _) = pf_core::run_with_big_stack(256 << 20, move || {
        pf_trees::pipeline::run_pipeline(n, Mode::Pipelined)
    });
    let (sp, sf) = cell();
    Runtime::new(3).run(move |wk| {
        let (lp, lf) = cell();
        wk.spawn(move |wk| produce(wk, n, lp));
        lf.touch(wk, move |l, wk| consume(wk, l, 0, sp));
    });
    assert_eq!(sf.expect(), sum_model);
}

#[test]
fn quicksort_agrees_with_std_sort() {
    for seed in 0..5 {
        let keys = shuffled_keys(400, seed);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Cost model.
        let (l, _) = pf_trees::quicksort::run_quicksort(&keys, Mode::Pipelined);
        assert_eq!(l.collect_vec(), expect);
        // Real runtime.
        let rl = RList::from_slice_ready(&keys);
        let (op, of) = cell();
        Runtime::new(4).run(move |wk| qs(wk, rl, RList::Nil, op));
        assert_eq!(of.expect().collect_vec(), expect);
    }
}

#[test]
fn algorithms_are_generic_over_key_types() {
    // Everything so far runs on i64; the API is generic — prove it with
    // owned string keys across both backends.
    let a: Vec<String> = (0..60).map(|i| format!("a{:03}", 2 * i)).collect();
    let b: Vec<String> = (0..40).map(|i| format!("a{:03}", 2 * i + 1)).collect();
    let mut expect: Vec<String> = a.iter().chain(b.iter()).cloned().collect();
    expect.sort();

    let (root, c) = run_merge(&a, &b, Mode::Pipelined);
    assert_eq!(root.get().to_sorted_vec(), expect);
    assert!(c.is_linear());

    let (op, of) = cell();
    let (ta, tb) = (
        ready(RTree::from_sorted_ready(&a)),
        ready(RTree::from_sorted_ready(&b)),
    );
    Runtime::new(2).run(move |wk| rt_merge(wk, ta, tb, op));
    assert_eq!(of.expect().to_sorted_vec(), expect);

    // Treap union over string keys in the cost model.
    let ea: Vec<(String, u64)> = a
        .iter()
        .map(|k| {
            (
                k.clone(),
                pf_trees::seq::splitmix64(k.len() as u64 ^ 0x77)
                    ^ (k.bytes().map(u64::from).sum::<u64>() * 2654435761),
            )
        })
        .collect();
    let eb: Vec<(String, u64)> = b
        .iter()
        .map(|k| (k.clone(), k.bytes().map(u64::from).product::<u64>() | 1))
        .collect();
    let (uroot, _) = run_union(&ea, &eb, Mode::Pipelined);
    assert_eq!(uroot.get().to_sorted_vec(), expect);
    assert!(uroot.get().check_invariants());
}

#[test]
fn mergesort_agrees_across_all_three_backends() {
    for n in [0usize, 1, 2, 37, 300] {
        let keys = shuffled_keys(n, 5 + n as u64);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Cost model: deterministic shape, used as the height reference.
        let (root, _) = pf_trees::mergesort::run_msort(&keys, Mode::Pipelined);
        let model = root.get();
        assert_eq!(model.to_sorted_vec(), expect, "n={n}");
        // Sequential oracle: the same generic text at B = Seq.
        let seq_tree = Seq::run(|bk| {
            let (op, of) = bk.cell();
            pf_algs::mergesort::msort(bk, keys.clone(), op, Mode::Pipelined);
            pf_algs::tree::Tree::<Seq, i64>::expect(&of)
        });
        assert_eq!(seq_tree.to_sorted_vec(), expect, "n={n}");
        assert_eq!(seq_tree.height(), model.height(), "n={n}");
        // Real runtime, multiple thread counts: identical deterministic shape.
        for threads in [1, 4] {
            let keys = keys.clone();
            let (op, of) = cell();
            Runtime::new(threads)
                .run(move |wk| pf_algs::mergesort::msort(wk, keys, op, Mode::Pipelined));
            let t = of.expect();
            assert_eq!(t.to_sorted_vec(), expect, "n={n} threads={threads}");
            assert_eq!(t.height(), model.height(), "n={n} threads={threads}");
        }
    }
}

#[test]
fn quicksort_agrees_across_all_three_backends() {
    use pf_algs::list::{qs as generic_qs, List};
    for seed in [0u64, 3] {
        let keys = shuffled_keys(400, seed);
        let mut expect = keys.clone();
        expect.sort_unstable();
        // Cost model.
        let (l, _) = pf_trees::quicksort::run_quicksort(&keys, Mode::Pipelined);
        assert_eq!(l.collect_vec(), expect, "seed={seed}");
        // Sequential oracle: the same generic text at B = Seq.
        let seq_sorted = Seq::run(|bk| {
            let l = List::from_slice(bk, &keys);
            let (op, of) = bk.cell();
            generic_qs(bk, l, List::nil(), op, Mode::Pipelined);
            List::<Seq, i64>::expect_vec(&of)
        });
        assert_eq!(seq_sorted, expect, "seed={seed}");
        // Real runtime.
        for threads in [1, 4] {
            let rl = RList::from_slice_ready(&keys);
            let (op, of) = cell();
            Runtime::new(threads).run(move |wk| qs(wk, rl, RList::Nil, op));
            assert_eq!(
                of.expect().collect_vec(),
                expect,
                "seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "future cell touched before it was written")]
fn seq_oracle_rejects_touch_before_write() {
    // The sequential backend is the Σ_f ⇒ Σ oracle: it must refuse any
    // program whose futures-free erasure would read an unwritten cell.
    Seq::run(|bk| {
        let (_wr, f) = bk.cell::<i64>();
        bk.touch(&f, |_bk, _v| {});
    });
}

/// PR 8 pin: every scheduling policy (the full 12-combination matrix of
/// steal granularity × victim selection × resume placement) yields
/// bit-identical algorithm results — keys *and* deterministic tree
/// shape — and identical policy-independent accounting on the
/// tri-backend suite's treap-union and mergesort workloads.
/// "Policy-independent accounting" is `spawns` (a spawned task is
/// counted once whether pushed or run inline) plus the liveness
/// identity `tasks_executed - suspensions == spawns + 1`; raw executed
/// counts legitimately vary across policies because whether a touch
/// suspends depends on the schedule.
#[test]
fn every_sched_policy_is_result_identical_across_the_suite() {
    use pf_rt::SchedPolicy;
    // Union reference (sequential oracle).
    let a = entries((0..400).map(|i| 3 * i));
    let b = entries((0..400).map(|i| 2 * i));
    let pu = PlainTreap::union(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
    let union_keys = PlainTreap::to_sorted_vec(&pu);
    let union_height = PlainTreap::height(&pu);
    // Mergesort reference (cost-model shape).
    let keys = shuffled_keys(300, 77);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let (mroot, _) = pf_trees::mergesort::run_msort(&keys, Mode::Pipelined);
    let msort_height = mroot.get().height();

    for threads in [1usize, 4] {
        let mut union_spawns: Option<u64> = None;
        let mut msort_spawns: Option<u64> = None;
        for policy in SchedPolicy::matrix() {
            let rt = Runtime::with_policy(threads, policy);
            let label = policy.label();

            let (op, of) = cell();
            let (ta, tb) = (
                ready(RTreap::from_entries_ready(&a)),
                ready(RTreap::from_entries_ready(&b)),
            );
            let stats = rt.run_stats(move |wk| rt_union(wk, ta, tb, op));
            let t = of.expect();
            assert_eq!(t.to_sorted_vec(), union_keys, "union {label} t={threads}");
            assert_eq!(t.height(), union_height, "union {label} t={threads}");
            let s = *union_spawns.get_or_insert(stats.spawns);
            assert_eq!(stats.spawns, s, "union {label} t={threads}: spawns");
            assert_eq!(
                stats.tasks_executed - stats.suspensions,
                stats.spawns + 1,
                "union {label} t={threads}: liveness identity"
            );

            let keys = keys.clone();
            let (op, of) = cell();
            let stats =
                rt.run_stats(move |wk| pf_algs::mergesort::msort(wk, keys, op, Mode::Pipelined));
            let t = of.expect();
            assert_eq!(t.to_sorted_vec(), sorted, "msort {label} t={threads}");
            assert_eq!(t.height(), msort_height, "msort {label} t={threads}");
            let s = *msort_spawns.get_or_insert(stats.spawns);
            assert_eq!(stats.spawns, s, "msort {label} t={threads}: spawns");
            assert_eq!(
                stats.tasks_executed - stats.suspensions,
                stats.spawns + 1,
                "msort {label} t={threads}: liveness identity"
            );
        }
    }
}

/// Work-first forks keep touches from suspending: a fork's child runs
/// inline while the worker holds stealable work, so the cells a parent
/// touches right after forking are usually already written. On one
/// worker (no steals, so the counts are deterministic) treap union and
/// mergesort each suspend at most once per 100 spawns; help-first forks,
/// which pushed every child, suspended about 0.63 times per spawn across
/// the benchmark's algorithm batch.
#[test]
fn forks_suspend_rarely_on_one_worker() {
    let a = entries((0..1 << 12).map(|i| 3 * i));
    let b = entries((0..1 << 12).map(|i| 2 * i));
    let rt = Runtime::new(1);
    let (op, of) = cell();
    let (ta, tb) = (
        ready(RTreap::from_entries_ready(&a)),
        ready(RTreap::from_entries_ready(&b)),
    );
    let stats = rt.run_stats(move |wk| rt_union(wk, ta, tb, op));
    let pu = PlainTreap::union(PlainTreap::from_entries(&a), PlainTreap::from_entries(&b));
    assert_eq!(of.expect().to_sorted_vec(), PlainTreap::to_sorted_vec(&pu));
    assert!(
        stats.suspensions * 100 <= stats.spawns,
        "union: {} suspensions for {} spawns",
        stats.suspensions,
        stats.spawns
    );

    let keys = shuffled_keys(1 << 12, 5);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let (op, of) = cell();
    let stats = rt.run_stats(move |wk| pf_algs::mergesort::msort(wk, keys, op, Mode::Pipelined));
    assert_eq!(of.expect().to_sorted_vec(), sorted);
    assert!(
        stats.suspensions * 100 <= stats.spawns,
        "msort: {} suspensions for {} spawns",
        stats.suspensions,
        stats.spawns
    );
}

#[test]
fn repeated_rt_runs_are_deterministic_in_value() {
    // Scheduling is nondeterministic; results must not be.
    let a = entries((0..300).map(|i| 2 * i));
    let b = entries((0..300).map(|i| 2 * i + 1));
    let mut first: Option<Vec<i64>> = None;
    for _ in 0..20 {
        let (op, of) = cell();
        let (ta, tb) = (
            ready(RTreap::from_entries_ready(&a)),
            ready(RTreap::from_entries_ready(&b)),
        );
        Runtime::new(4).run(move |wk| rt_union(wk, ta, tb, op));
        let keys = of.expect().to_sorted_vec();
        match &first {
            None => first = Some(keys),
            Some(f) => assert_eq!(&keys, f),
        }
    }
}

#[test]
fn union_is_bit_identical_under_concurrent_panicking_sibling() {
    // PR-9 fault-containment half of the identity suite: a treap union
    // whose session shares the pool with a panicking sibling session
    // must produce the same sorted keys AND the same deterministic shape
    // as its solo run — fault containment is semantic, not just "no
    // crash". (The solo determinism itself is pinned by
    // `repeated_rt_runs_are_deterministic_in_value` above.)
    use std::sync::Arc;

    let a = entries((0..400).map(|i| 3 * i));
    let b = entries((0..400).map(|i| 2 * i));
    let rt = Arc::new(Runtime::new(4));

    // Solo baseline on the same pool.
    let (op, of) = cell();
    let (ta, tb) = (
        ready(RTreap::from_entries_ready(&a)),
        ready(RTreap::from_entries_ready(&b)),
    );
    rt.try_run(move |wk| rt_union(wk, ta, tb, op)).unwrap();
    let solo = of.expect();
    let (solo_keys, solo_height) = (solo.to_sorted_vec(), solo.height());

    for round in 0..10 {
        let rt2 = Arc::clone(&rt);
        let pill = std::thread::spawn(move || {
            let (_w, r) = cell::<u32>(); // never written; poisoned on abort
            let r_in = r.clone();
            rt2.try_run(move |wk| {
                r_in.touch(wk, |_v, _wk| {});
                wk.spawn(|_| panic!("sibling pill"));
            })
            .unwrap_err()
        });
        let (op, of) = cell();
        let (ta, tb) = (
            ready(RTreap::from_entries_ready(&a)),
            ready(RTreap::from_entries_ready(&b)),
        );
        rt.try_run(move |wk| rt_union(wk, ta, tb, op))
            .expect("union session alongside a panicking sibling");
        let t = of.expect();
        assert_eq!(t.to_sorted_vec(), solo_keys, "round {round}: keys diverged");
        assert_eq!(t.height(), solo_height, "round {round}: shape diverged");
        let err = pill.join().unwrap();
        assert_eq!(err.panic_message(), Some("sibling pill"));
    }
}
