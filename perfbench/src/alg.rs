//! The `alg-batch` workload: the §3 algorithms run directly on a width-2
//! `pf_rt::Runtime`, one session per operation — pipelined treap union,
//! 2-6 tree `insert_many` and futures mergesort — with every result
//! checked against a `BTreeSet` or `sort_unstable` answer.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

use pf_algs::Mode;
use pf_rt::{cell, ready, Runtime};
use pf_rt_algs::rtreap::{union, RTreap, RtTreap};
use pf_rt_algs::rtwosix::{insert_many, RTsTree, RtTsTree};
use pf_trees::seq::Entry;
use rand::prelude::*;

use crate::stats::{median, ms, Dist};
use crate::trace::{Counting, Spans};
use crate::{Line, Report, WIDTH};

const UNION_N: usize = 1 << 16;
const INSERT_INTO: usize = 1 << 17;
const INSERT_M: usize = 1 << 13;
const MSORT_N: usize = 1 << 14;

/// The three operations, in batch order.
const OPS: [&str; 3] = ["union", "insert26", "msort"];

/// Inputs of one batch, drawn from the seed.
struct Inputs {
    a: Vec<Entry<i64>>,
    b: Vec<Entry<i64>>,
    initial: Vec<i64>,
    newk: Vec<i64>,
    unsorted: Vec<i64>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0003);
        // Union: two 2^16-entry treaps over a shared universe.
        let mut u: Vec<i64> = (0..(4 * UNION_N) as i64).collect();
        u.shuffle(&mut rng);
        let mut entries = |keys: &[i64]| {
            let mut e: Vec<Entry<i64>> = keys.iter().map(|&k| (k, rng.gen())).collect();
            e.sort_unstable();
            e
        };
        let a = entries(&u[..UNION_N]);
        let b = entries(&u[UNION_N..2 * UNION_N]);
        // 2-6 insert: 2^13 new keys into a 2^17-key tree, disjoint.
        let mut v: Vec<i64> = (0..(4 * INSERT_INTO) as i64).collect();
        v.shuffle(&mut rng);
        let mut initial = v[..INSERT_INTO].to_vec();
        let mut newk = v[INSERT_INTO..INSERT_INTO + INSERT_M].to_vec();
        initial.sort_unstable();
        newk.sort_unstable();
        // Mergesort: 2^14 distinct keys in random order.
        let mut unsorted: Vec<i64> = (0..MSORT_N as i64).map(|k| k * 7).collect();
        unsorted.shuffle(&mut rng);
        Inputs {
            a,
            b,
            initial,
            newk,
            unsorted,
        }
    }

    /// Keys each operation processes, in `OPS` order.
    fn keys(&self) -> [u64; 3] {
        [
            (self.a.len() + self.b.len()) as u64,
            self.newk.len() as u64,
            self.unsorted.len() as u64,
        ]
    }

    /// The reference answers, in `OPS` order.
    fn expected(&self) -> [Vec<i64>; 3] {
        let mut u: BTreeSet<i64> = self.a.iter().map(|e| e.0).collect();
        u.extend(self.b.iter().map(|e| e.0));
        let mut ins: BTreeSet<i64> = self.initial.iter().copied().collect();
        ins.extend(self.newk.iter().copied());
        let mut sorted = self.unsorted.clone();
        sorted.sort_unstable();
        [u.into_iter().collect(), ins.into_iter().collect(), sorted]
    }
}

/// Inputs built into the runtime's structures, ready before the clock.
struct Built {
    ta: RTreap<i64>,
    tb: RTreap<i64>,
    tree: RTsTree<i64>,
}

impl Built {
    fn new(inp: &Inputs) -> Self {
        Built {
            ta: RTreap::from_entries_ready(&inp.a),
            tb: RTreap::from_entries_ready(&inp.b),
            tree: RTsTree::from_sorted_ready(&inp.initial),
        }
    }
}

/// Run operation `op` once in its own session on `rt`; returns the
/// session's time (root push to quiescence), its statistics and the
/// sorted result keys.
fn run_op(rt: &Runtime, op: usize, inp: &Inputs, b: &Built) -> (pf_rt::RunStats, Vec<i64>) {
    match op {
        0 => {
            let (fa, fb) = (ready(b.ta.clone()), ready(b.tb.clone()));
            let (out, res) = cell();
            let st = rt.run_stats(move |wk| union(wk, fa, fb, out));
            (st, res.expect().to_sorted_vec())
        }
        1 => {
            let ft = ready(b.tree.clone());
            let keys = inp.newk.clone();
            let (out, res) = cell();
            let st = rt.run_stats(move |wk| {
                let f = insert_many(wk, &keys, ft);
                f.touch(wk, move |t, wk| out.fulfill(wk, t));
            });
            (st, res.expect().to_sorted_vec())
        }
        _ => {
            let keys = inp.unsorted.clone();
            let (out, res) = cell();
            let st =
                rt.run_stats(move |wk| pf_algs::mergesort::msort(wk, keys, out, Mode::Pipelined));
            (st, res.expect().to_sorted_vec())
        }
    }
}

/// alg-batch: repeat batches of (union, insert26, msort), one session
/// each, until `seconds` have passed; every result is checked.
pub fn batch(seed: u64, seconds: f64, traced: bool, setups: usize) -> Report {
    let mut rep = Report::new(traced);
    let mut last = None;
    for _ in 0..setups.max(1) {
        drop(last.take());
        let t = Instant::now();
        let rt = Runtime::new(WIDTH);
        let inp = Inputs::new(seed);
        let built = Built::new(&inp);
        rep.setup_s.push(t.elapsed().as_secs_f64());
        last = Some((rt, inp, built));
    }
    let (rt, inp, built) = last.expect("at least one set-up");
    let expected = inp.expected();
    let keys = inp.keys();

    let mut times: [Vec<f64>; 3] = Default::default();
    let mut batch_ms = Vec::new();
    let mut stats = [pf_rt::RunStats::default(); 3];
    let mut alloc = (0, 0);
    let mut spans = Spans::new(traced);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let start = t0.elapsed();
        let mut at = start;
        let parent = spans.push("batch", 0, start, start, None);
        let mut sum = 0.0;
        for op in 0..OPS.len() {
            if traced {
                Counting::start();
            }
            let (st, got) = run_op(&rt, op, &inp, &built);
            if traced {
                let (n, bytes) = Counting::stop();
                alloc = (alloc.0 + n, alloc.1 + bytes);
            }
            rep.attempted += 1;
            if got != expected[op] {
                eprintln!("oracle mismatch on {}", OPS[op]);
                rep.failed += 1;
                rep.mismatches += 1;
            }
            drop(black_box(got));
            spans.push(OPS[op], 0, at, at + st.elapsed, Some(parent));
            at += st.elapsed;
            sum += ms(st.elapsed);
            times[op].push(ms(st.elapsed));
            stats[op].accumulate(&st);
        }
        if traced {
            spans.list[parent].end = at;
        }
        batch_ms.push(sum);
    }
    let total_keys: u64 = keys.iter().sum::<u64>() * batch_ms.len() as u64;
    let total_ms: f64 = batch_ms.iter().sum();
    let batches = Dist::new(batch_ms);
    rep.op_p50_ms = batches.p50();
    rep.keys_per_s = total_keys as f64 / (total_ms / 1e3);
    for (op, t) in OPS.iter().zip(&times) {
        let d = Dist::new(t.clone());
        rep.lines
            .push(Line::n(&format!("{op}_ms"), d.p50(), "ms", d.n()));
    }
    rep.lines
        .push(Line::n("batch_ms", batches.p50(), "ms", batches.n()));
    rep.lines
        .push(Line::new("keys_per_s", rep.keys_per_s, "keys/s"));
    rep.op_ms = times.iter().map(|t| median(t)).collect();

    if traced {
        rep.spans = spans;
        let n = batches.n() as f64;
        let all_keys = total_keys.max(1) as f64;
        let mut sum = pf_rt::RunStats::default();
        stats.iter().for_each(|s| sum.accumulate(s));
        let l = &mut rep.layer;
        crate::session_layers(l, &Dist::new(times.concat()));
        l.push(Line::new("session.per_req", 1.0, "ratio"));
        crate::per_key_layers(l, &sum, alloc, all_keys);
        for ((op, st), k) in OPS.iter().zip(&stats).zip(keys) {
            let k = k as f64 * n;
            l.push(Line::new(
                &format!("alg.{op}.steals_per_key"),
                st.steals as f64 / k,
                "ratio",
            ));
            l.push(Line::new(
                &format!("alg.{op}.suspends_per_key"),
                st.suspensions as f64 / k,
                "ratio",
            ));
        }
        crate::svc::empty_session_probe(&rt, &mut rep);
    }
    rep
}

/// Median wall time of `reps` runs of `f`, in ms.
fn median_ms(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    median(&(0..reps).map(|_| ms(f())).collect::<Vec<_>>())
}

/// The traced run's reference probes, run after the measured passes and
/// timed as the benchmark's own set-up: the sequential std baselines,
/// pf-core's exact work and depth, and one-worker times, each on the
/// same inputs. `t2_ms` holds the untraced width-2 medians in `OPS`
/// order. Returns the ratio lines and whether every probe result was
/// correct.
pub fn probes(seed: u64, t2_ms: &[f64]) -> (Vec<Line>, bool) {
    let inp = Inputs::new(seed);
    let expected = inp.expected();
    let mut ok = true;

    // Sequential std baselines.
    let sa: BTreeSet<i64> = inp.a.iter().map(|e| e.0).collect();
    let sb: BTreeSet<i64> = inp.b.iter().map(|e| e.0).collect();
    let seq_union = median_ms(5, || {
        let t = Instant::now();
        let u: BTreeSet<i64> = sa.union(&sb).copied().collect();
        let d = t.elapsed();
        black_box(u);
        d
    });
    let base: BTreeSet<i64> = inp.initial.iter().copied().collect();
    let seq_insert = median_ms(5, || {
        let mut s = base.clone();
        let t = Instant::now();
        s.extend(inp.newk.iter().copied());
        let d = t.elapsed();
        black_box(s);
        d
    });
    let seq_sort = median_ms(5, || {
        let mut v = inp.unsorted.clone();
        let t = Instant::now();
        v.sort_unstable();
        let d = t.elapsed();
        black_box(v);
        d
    });
    let seq = [seq_union, seq_insert, seq_sort];

    // pf-core's exact cost model on the same inputs.
    let (fu, cu) = pf_trees::treap::run_union(&inp.a, &inp.b, Mode::Pipelined);
    let (fi, ci) = pf_trees::two_six::run_insert_many(&inp.initial, &inp.newk, Mode::Pipelined);
    let (fm, cm) = pf_trees::mergesort::run_msort(&inp.unsorted, Mode::Pipelined);
    ok &= fu.get().to_sorted_vec() == expected[0];
    ok &= fi.get().to_sorted_vec() == expected[1];
    ok &= fm.get().to_sorted_vec() == expected[2];
    let wd = [
        (cu.work, cu.depth),
        (ci.work, ci.depth),
        (cm.work, cm.depth),
    ];

    // One-worker times on a fresh one-worker pool.
    let rt1 = Runtime::new(1);
    let built = Built::new(&inp);
    let t1: Vec<f64> = (0..OPS.len())
        .map(|op| {
            let v: Vec<f64> = (0..3)
                .map(|_| {
                    let (st, got) = run_op(&rt1, op, &inp, &built);
                    ok &= got == expected[op];
                    ms(st.elapsed)
                })
                .collect();
            median(&v)
        })
        .collect();

    let mut lines = Vec::new();
    for (i, op) in OPS.iter().enumerate() {
        let (w, d) = (wd[i].0 as f64, wd[i].1 as f64);
        let predicted = (t1[i] / w) * (w / WIDTH as f64 + d);
        lines.push(Line::new(
            &format!("alg.{op}.seq_ratio"),
            t2_ms[i] / seq[i],
            "ratio",
        ));
        lines.push(Line::new(
            &format!("alg.{op}.lemma41_ratio"),
            t2_ms[i] / predicted,
            "ratio",
        ));
        lines.push(Line::new(&format!("alg.{op}.seq_ms"), seq[i], "ms"));
        lines.push(Line::new(&format!("alg.{op}.t1_ms"), t1[i], "ms"));
        lines.push(Line::new(&format!("alg.{op}.work"), w, "count"));
        lines.push(Line::new(&format!("alg.{op}.depth"), d, "count"));
    }
    (lines, ok)
}
