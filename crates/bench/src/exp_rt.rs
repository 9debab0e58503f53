//! Real-runtime experiments: E12 (wall-clock behaviour of the multicore
//! runtime) and E15 (ablations: cost-constant sensitivity, lock-free vs
//! mutex future cells).
//!
//! NOTE on E12: this host exposes a single CPU, so genuine multicore
//! *speedup* cannot manifest in wall-clock numbers here; the experiment
//! therefore reports (a) the overhead of the futures runtime relative to
//! the sequential algorithm, and (b) that oversubscribing workers on one
//! core degrades gracefully. The parallel-speedup *shape* of the paper is
//! reproduced by the machine-model replay (E09/E10), which is
//! processor-count-accurate by construction.

use std::time::{Duration, Instant};

use pf_core::{CostModel, Sim};
use pf_rt::mutex_cell::mx_cell;
use pf_rt::{cell, Runtime};
use pf_rt_algs::baselines::{
    time_cole_pool, time_cole_seq, time_msort_rt, time_pvw_pool, time_pvw_seq, time_sort_seq,
};
use pf_rt_algs::drivers::{
    best_of, time_insert_rt, time_insert_seq, time_merge_rt, time_merge_seq, time_rebalance_rt,
    time_union_rt, time_union_seq,
};
use pf_rt_algs::rtree::RtTree;
use pf_trees::merge::run_merge;
use pf_trees::tree::SimTree;
use pf_trees::workloads::{interleaved_pair, shuffled_keys, sorted_keys, union_entries};
use pf_trees::Mode;

use crate::{f2, u, Table};

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// E12 — wall-clock: futures runtime vs sequential baselines, across
/// worker counts.
pub fn e12_runtime(lg_n: u32, threads: &[usize], reps: usize) -> Vec<Table> {
    let n = 1usize << lg_n;
    let (ea, eb) = union_entries(n, n, 31);
    let mut t1 = Table::new(
        format!("E12a treap union wall-clock, n = m = {n} (single-CPU host: see note)"),
        &["impl", "threads", "time (ms)", "vs seq"],
    );
    let seq = best_of(reps, || time_union_seq(&ea, &eb));
    t1.row(vec!["sequential".into(), "1".into(), ms(seq), f2(1.0)]);
    for &th in threads {
        let d = best_of(reps, || time_union_rt(&ea, &eb, th));
        t1.row(vec![
            "futures-rt".into(),
            u(th as u64),
            ms(d),
            f2(d.as_secs_f64() / seq.as_secs_f64()),
        ]);
    }

    let (a, b) = interleaved_pair(n, n);
    let mut t2 = Table::new(
        format!("E12b BST merge wall-clock, n = m = {n}"),
        &["impl", "threads", "time (ms)", "vs seq"],
    );
    let seq = best_of(reps, || time_merge_seq(&a, &b));
    t2.row(vec!["sequential".into(), "1".into(), ms(seq), f2(1.0)]);
    for &th in threads {
        let d = best_of(reps, || time_merge_rt(&a, &b, th));
        t2.row(vec![
            "futures-rt".into(),
            u(th as u64),
            ms(d),
            f2(d.as_secs_f64() / seq.as_secs_f64()),
        ]);
    }

    let mut t3 = Table::new(
        format!("E12c 2-6 bulk insert & rebalance wall-clock, n = {n}"),
        &["operation", "threads", "time (ms)"],
    );
    let initial: Vec<i64> = (0..n as i64).map(|i| 2 * i).collect();
    let newk: Vec<i64> = (0..(n / 8) as i64).map(|i| 16 * i + 1).collect();
    let d = best_of(reps, || time_insert_seq(&initial, &newk));
    t3.row(vec!["2-6 insert (BTreeSet seq)".into(), "1".into(), ms(d)]);
    for &th in threads {
        let d = best_of(reps, || time_insert_rt(&initial, &newk, th));
        t3.row(vec!["2-6 insert (futures-rt)".into(), u(th as u64), ms(d)]);
    }
    for &th in threads {
        let d = best_of(reps, || time_rebalance_rt(n / 4, th));
        t3.row(vec![
            "rebalance spine (futures-rt)".into(),
            u(th as u64),
            ms(d),
        ]);
    }
    vec![t1, t2, t3]
}

/// E13w — wall-clock companion to the E13 depth table: the futures
/// mergesort on the real pool across thread counts, vs `sort_unstable`.
pub fn e13_msort_wallclock(lgs: &[u32], threads: &[usize], reps: usize) -> Table {
    let mut t = Table::new(
        "E13w futures mergesort wall-clock (real runtime) vs sequential sort",
        &["n", "threads", "futures msort (ms)", "sort_unstable (ms)"],
    );
    for &l in lgs {
        let keys = shuffled_keys(1usize << l, 3);
        let ds = best_of(reps, || time_sort_seq(&keys));
        for &th in threads {
            let df = best_of(reps, || time_msort_rt(&keys, th));
            t.row(vec![u(1u64 << l), u(th as u64), ms(df), ms(ds)]);
        }
    }
    t
}

/// E16w — wall-clock head-to-head on the *same pool*: the futures 2-6
/// bulk insert (implicit pipeline, scheduler-discovered) vs the PVW wave
/// schedule executed one synchronous round per pool barrier
/// (`PoolRounds`). The `seq` row gives the single-thread references
/// (`BTreeSet` extend and the inline `SeqRounds` execution).
pub fn e16_pvw_wallclock(lg_n: u32, lg_m: u32, threads: &[usize], reps: usize) -> Table {
    let n = 1usize << lg_n;
    let m = 1usize << lg_m;
    let initial = sorted_keys(n, 2);
    let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();
    let mut t = Table::new(
        format!("E16w wall-clock: futures 2-6 insert vs PVW hand rounds, n = {n}, m = {m}"),
        &[
            "threads",
            "futures insert (ms)",
            "pvw rounds (ms)",
            "pvw/futures",
        ],
    );
    let df = best_of(reps, || time_insert_seq(&initial, &newk));
    let dp = best_of(reps, || time_pvw_seq(&initial, &newk).0);
    t.row(vec![
        "seq".into(),
        ms(df),
        ms(dp),
        f2(dp.as_secs_f64() / df.as_secs_f64()),
    ]);
    for &th in threads {
        let df = best_of(reps, || time_insert_rt(&initial, &newk, th));
        let dp = best_of(reps, || time_pvw_pool(&initial, &newk, th).0);
        t.row(vec![
            u(th as u64),
            ms(df),
            ms(dp),
            f2(dp.as_secs_f64() / df.as_secs_f64()),
        ]);
    }
    t
}

/// E18w — wall-clock head-to-head on the *same pool*: the futures tree
/// mergesort vs Cole's cascade executed one synchronous stage per pool
/// barrier (`PoolRounds`). The `seq` row gives the single-thread
/// references (`sort_unstable` and the inline `SeqRounds` cascade).
pub fn e18_cole_wallclock(lg_n: u32, threads: &[usize], reps: usize) -> Table {
    let n = 1usize << lg_n;
    let keys = shuffled_keys(n, 77);
    let mut t = Table::new(
        format!("E18w wall-clock: futures msort vs Cole cascade (hand stages), n = {n}"),
        &[
            "threads",
            "futures msort (ms)",
            "cole stages (ms)",
            "cole/futures",
        ],
    );
    let df = best_of(reps, || time_sort_seq(&keys));
    let dc = best_of(reps, || time_cole_seq(&keys).0);
    t.row(vec![
        "seq".into(),
        ms(df),
        ms(dc),
        f2(dc.as_secs_f64() / df.as_secs_f64()),
    ]);
    for &th in threads {
        let df = best_of(reps, || time_msort_rt(&keys, th));
        let dc = best_of(reps, || time_cole_pool(&keys, th).0);
        t.row(vec![
            u(th as u64),
            ms(df),
            ms(dc),
            f2(dc.as_secs_f64() / df.as_secs_f64()),
        ]);
    }
    t
}

/// E15a — cost-constant sensitivity: the measured merge depth scales
/// linearly in the fork/touch/write constants (the theorems' `ks`, `km`).
pub fn e15_cost_constants(lg_n: u32, ks: &[u64]) -> Table {
    let n = 1usize << lg_n;
    let (a, b) = interleaved_pair(n, n);
    let mut t = Table::new(
        "E15a cost-constant sensitivity: merge depth vs uniform action cost k (linear in k)",
        &["k", "depth", "depth/k", "work"],
    );
    for &k in ks {
        let (_, c) = Sim::with_costs(CostModel::uniform(k)).run(|ctx| {
            let ta = pf_trees::tree::Tree::preload_balanced(ctx, &a);
            let tb = pf_trees::tree::Tree::preload_balanced(ctx, &b);
            let (fa, fb) = (ctx.preload(ta), ctx.preload(tb));
            let (op, of) = ctx.promise();
            pf_trees::merge::merge(ctx, fa, fb, op, Mode::Pipelined);
            of
        });
        t.row(vec![
            u(k),
            u(c.depth),
            f2(c.depth as f64 / k as f64),
            u(c.work),
        ]);
    }
    t
}

/// E15b — cell ablation: lock-free vs mutex cell, write-then-touch
/// round-trips inside the runtime.
pub fn e15_cells(rounds: usize, cells_per_round: usize) -> Table {
    let mut t = Table::new(
        "E15b future-cell ablation: lock-free (atomic) vs mutex cell, fulfill+touch round-trips",
        &["cell", "ops", "time (ms)", "ns/op"],
    );
    let ops = (rounds * cells_per_round) as u64;

    let start = Instant::now();
    for _ in 0..rounds {
        let n = cells_per_round;
        Runtime::new(1).run(move |wk| {
            for i in 0..n {
                let (w, r) = cell::<usize>();
                r.touch(wk, move |v, _| {
                    std::hint::black_box(v);
                });
                w.fulfill(wk, i);
            }
        });
    }
    let d = start.elapsed();
    t.row(vec![
        "lock-free".into(),
        u(ops),
        ms(d),
        f2(d.as_secs_f64() * 1e9 / ops as f64),
    ]);

    let start = Instant::now();
    for _ in 0..rounds {
        let n = cells_per_round;
        Runtime::new(1).run(move |wk| {
            for i in 0..n {
                let (w, r) = mx_cell::<usize>();
                r.touch(wk, move |v, _| {
                    std::hint::black_box(v);
                });
                w.fulfill(wk, i);
            }
        });
    }
    let d = start.elapsed();
    t.row(vec![
        "mutex".into(),
        u(ops),
        ms(d),
        f2(d.as_secs_f64() * 1e9 / ops as f64),
    ]);
    t
}

/// One traced treap-union session on `threads` workers (E20 workload —
/// same entries the simulator trace was captured from).
#[cfg(feature = "trace")]
fn traced_union_stats(
    ea: &[pf_trees::seq::Entry<i64>],
    eb: &[pf_trees::seq::Entry<i64>],
    threads: usize,
) -> pf_rt::RunStats {
    use pf_rt_algs::rtreap::{union, RTreap, RtTreap};
    let ta = RTreap::from_entries_ready(ea);
    let tb = RTreap::from_entries_ready(eb);
    let rt = Runtime::shared(threads);
    let (op, of) = cell();
    let (fa, fb) = (pf_rt::ready(ta), pf_rt::ready(tb));
    let stats = rt.run_stats(move |wk| union(wk, fa, fb, op));
    assert!(of.expect().to_sorted_vec().len() >= ea.len().max(eb.len()));
    stats
}

/// One traced 2-6 bulk-insert session on `threads` workers (E20).
#[cfg(feature = "trace")]
fn traced_insert_stats(initial: &[i64], newk: &[i64], threads: usize) -> pf_rt::RunStats {
    use pf_rt_algs::rtwosix::{insert_many, RTsTree, RtTsTree};
    let t = RTsTree::from_sorted_ready(initial);
    let rt = Runtime::shared(threads);
    let ft = pf_rt::ready(t);
    let (op, of) = cell();
    let keys = newk.to_vec();
    let stats = rt.run_stats(move |wk| {
        let f = insert_many(wk, &keys, ft);
        f.touch(wk, move |tv, wk| op.fulfill(wk, tv));
    });
    assert!(of.expect().to_sorted_vec().len() >= initial.len());
    stats
}

/// E20 — the first measured-vs-model scheduler comparison: run treap
/// union and 2-6 bulk insert *traced* on the real pool and print each
/// session's steal and suspension counts (from [`pf_rt::TraceStats`])
/// side-by-side with pf-machine's predictions over the same DAGs —
/// suspensions from the E09 greedy replay (`Discipline::Stack`), steals
/// from the E17 work-stealing replay (steal latency 3, the E17 seeds).
///
/// The two columns answer different questions and should not be expected
/// to coincide: the model counts events of an idealized unit-cost
/// machine with `p` always-busy processors, the measurement counts what
/// this pool on this host actually did (on a 1-CPU box, real workers
/// time-slice, so real steal counts sit far below the model's). What the
/// comparison *does* pin: t=1 has zero steals in both worlds, suspension
/// counts land in the same order of magnitude (same DAG, same touch
/// structure), and both grow with thread count.
#[cfg(feature = "trace")]
pub fn e20_trace_vs_model(lg_n: u32, threads: &[usize], reps: usize) -> Vec<Table> {
    use pf_machine::{replay, steal_replay, Discipline, StealConfig};
    use pf_trees::workloads::union_entries as e20_union_entries;

    let n = 1usize << lg_n;
    // Runtime workloads identical to the ones `capture_traces` feeds the
    // simulator (union seed 11; insert m = (n/16).max(4), odd keys).
    let (ea, eb) = e20_union_entries(n, n, 11);
    let initial = sorted_keys(n, 2);
    let m = (n / 16).max(4);
    let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();

    let mut out = Vec::new();
    for (name, tr) in crate::exp_machine::capture_traces(lg_n)
        .iter()
        .filter(|(nm, _)| matches!(*nm, "union" | "2-6 insert"))
    {
        let mut t = Table::new(
            format!(
                "E20 {name}: traced runtime (mean of {reps}) vs pf-machine predictions, n = {n}"
            ),
            &[
                "threads",
                "steals meas",
                "steals model",
                "suspends meas",
                "suspends model",
                "execs meas",
                "parks meas",
            ],
        );
        for &th in threads {
            let model = replay(tr, th, Discipline::Stack);
            let steal = steal_replay(
                tr,
                StealConfig {
                    p: th,
                    steal_latency: 3,
                    seed: 0xFEED + th as u64,
                    ..StealConfig::default()
                },
            );
            let (mut steals, mut suspends, mut execs, mut parks) = (0f64, 0f64, 0f64, 0f64);
            for _ in 0..reps {
                let stats = if *name == "union" {
                    traced_union_stats(&ea, &eb, th)
                } else {
                    traced_insert_stats(&initial, &newk, th)
                };
                let ts = stats.trace.as_ref().expect("traced build attaches stats");
                steals += ts.steals() as f64;
                suspends += ts.suspends() as f64;
                execs += ts.executed() as f64;
                parks += ts.parks() as f64;
            }
            let r = reps as f64;
            t.row(vec![
                u(th as u64),
                f2(steals / r),
                u(steal.steals),
                f2(suspends / r),
                u(model.suspensions),
                f2(execs / r),
                f2(parks / r),
            ]);
        }
        out.push(t);
    }
    out
}

/// One traced union session under an explicit scheduling policy,
/// returning (wall-clock, stats). Tree construction is outside the
/// timed region — E21 measures the scheduler, not the workload setup.
#[cfg(feature = "trace")]
fn policy_union_run(
    ea: &[pf_trees::seq::Entry<i64>],
    eb: &[pf_trees::seq::Entry<i64>],
    rt: &Runtime,
    policy: pf_rt::SchedPolicy,
) -> (Duration, pf_rt::RunStats) {
    use pf_rt::Session;
    use pf_rt_algs::rtreap::{union, RTreap, RtTreap};
    let ta = RTreap::from_entries_ready(ea);
    let tb = RTreap::from_entries_ready(eb);
    let (op, of) = cell();
    let (fa, fb) = (pf_rt::ready(ta), pf_rt::ready(tb));
    let t0 = Instant::now();
    let stats = rt
        .try_run_session(Session::new().policy(policy), move |wk| {
            union(wk, fa, fb, op)
        })
        .expect("union session completes under every policy");
    let dt = t0.elapsed();
    assert!(of.expect().to_sorted_vec().len() >= ea.len().max(eb.len()));
    (dt, stats)
}

/// One traced 2-6 bulk-insert session under an explicit policy (E21).
#[cfg(feature = "trace")]
fn policy_insert_run(
    initial: &[i64],
    newk: &[i64],
    rt: &Runtime,
    policy: pf_rt::SchedPolicy,
) -> (Duration, pf_rt::RunStats) {
    use pf_rt::Session;
    use pf_rt_algs::rtwosix::{insert_many, RTsTree, RtTsTree};
    let t = RTsTree::from_sorted_ready(initial);
    let ft = pf_rt::ready(t);
    let (op, of) = cell();
    let keys = newk.to_vec();
    let t0 = Instant::now();
    let stats = rt
        .try_run_session(Session::new().policy(policy), move |wk| {
            let f = insert_many(wk, &keys, ft);
            f.touch(wk, move |tv, wk| op.fulfill(wk, tv));
        })
        .expect("insert session completes under every policy");
    let dt = t0.elapsed();
    assert!(of.expect().to_sorted_vec().len() >= initial.len());
    (dt, stats)
}

/// E21 — the E12 scaling sweep extended to per-policy curves: every
/// point of [`pf_rt::SchedPolicy::matrix`] (2 steal × 2 victim × 3
/// resume = 12 policies) measured at each thread count
/// on the two E20 DAGs (treap union, 2-6 bulk insert). Per point the
/// table reports best-of-`reps` wall-clock plus mean steal and suspend
/// counts straight from the exact [`pf_rt::TraceStats`] counters; the
/// deviations column is the `steals + suspends` proxy for the paper's
/// schedule deviations (each steal and each suspension is a point where
/// the parallel execution departed from the serial one).
///
/// What to look for: t=1 rows have zero steals everywhere (policy
/// cannot matter for victims that do not exist); steal-half rows move
/// the same task count in fewer episodes, so their deviations track the
/// steal-one rows while wall-clock stays flat; inline resume trades
/// suspension parks for stack depth; mailbox resume shifts resumes onto
/// the cell-owning worker without changing totals.
#[cfg(feature = "trace")]
pub fn e21_policy_sweep(lg_n: u32, threads: &[usize], reps: usize) -> Vec<Table> {
    use pf_rt::SchedPolicy;

    let n = 1usize << lg_n;
    let (ea, eb) = union_entries(n, n, 11);
    let initial = sorted_keys(n, 2);
    let m = (n / 16).max(4);
    let newk: Vec<i64> = (0..m as i64).map(|i| 2 * i + 1).collect();

    let headers = [
        "policy",
        "threads",
        "time (ms)",
        "steals",
        "suspends",
        "deviations",
    ];
    let mut tu = Table::new(
        format!("E21a treap union per-policy scaling, n = m = {n} (best of {reps})"),
        &headers,
    );
    let mut ti = Table::new(
        format!("E21b 2-6 bulk insert per-policy scaling, n = {n}, m = {m} (best of {reps})"),
        &headers,
    );
    for policy in SchedPolicy::matrix() {
        for &th in threads {
            let rt = Runtime::with_policy(th, policy);
            let mut best = Duration::MAX;
            let (mut steals, mut susp) = (0u64, 0u64);
            for _ in 0..reps {
                let (dt, stats) = policy_union_run(&ea, &eb, &rt, policy);
                best = best.min(dt);
                let ts = stats.trace.as_ref().expect("traced build");
                steals += ts.steals();
                susp += ts.suspends();
            }
            let r = reps as u64;
            tu.row(vec![
                policy.label(),
                u(th as u64),
                ms(best),
                f2(steals as f64 / r as f64),
                f2(susp as f64 / r as f64),
                f2((steals + susp) as f64 / r as f64),
            ]);

            let mut best = Duration::MAX;
            let (mut steals, mut susp) = (0u64, 0u64);
            for _ in 0..reps {
                let (dt, stats) = policy_insert_run(&initial, &newk, &rt, policy);
                best = best.min(dt);
                let ts = stats.trace.as_ref().expect("traced build");
                steals += ts.steals();
                susp += ts.suspends();
            }
            ti.row(vec![
                policy.label(),
                u(th as u64),
                ms(best),
                f2(steals as f64 / reps as f64),
                f2(susp as f64 / reps as f64),
                f2((steals + susp) as f64 / reps as f64),
            ]);
        }
    }
    vec![tu, ti]
}

/// Consistency check used by E12: the runtime and the cost model compute
/// identical results on identical inputs.
pub fn rt_matches_model(lg_n: u32) -> bool {
    let n = 1usize << lg_n;
    let (a, b) = interleaved_pair(n, n);
    let (root, _) = run_merge(&a, &b, Mode::Pipelined);
    let model_keys = root.get().to_sorted_vec();

    let ta = pf_rt_algs::rtree::RTree::from_sorted_ready(&a);
    let tb = pf_rt_algs::rtree::RTree::from_sorted_ready(&b);
    let (op, of) = cell();
    Runtime::new(2)
        .run(move |wk| pf_rt_algs::rtree::merge(wk, pf_rt::ready(ta), pf_rt::ready(tb), op));
    let rt_keys = of.expect().to_sorted_vec();
    model_keys == rt_keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_smoke() {
        let ts = e12_runtime(10, &[1, 2], 1);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts[0].rows.len(), 3);
        assert_eq!(ts[2].rows.len(), 5);
    }

    #[test]
    fn wallclock_pairs_smoke() {
        let t = e13_msort_wallclock(&[9], &[1, 2], 1);
        assert_eq!(t.rows.len(), 2);
        let t = e16_pvw_wallclock(10, 5, &[1, 2], 1);
        assert_eq!(t.rows.len(), 3, "seq row + one row per thread count");
        let t = e18_cole_wallclock(9, &[1, 2], 1);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn e15_constants_scale_linearly() {
        let t = e15_cost_constants(8, &[1, 2, 4]);
        let d1: f64 = t.rows[0][1].parse().unwrap();
        let d4: f64 = t.rows[2][1].parse().unwrap();
        // fork/touch/write scale 4x but plain unit ops stay at 1, so the
        // overall depth grows somewhat less than 4x.
        let ratio = d4 / d1;
        assert!(
            (2.2..4.2).contains(&ratio),
            "depth should scale ~k: {ratio}"
        );
    }

    #[test]
    fn e15_cells_smoke() {
        let t = e15_cells(2, 500);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn rt_and_model_agree() {
        assert!(rt_matches_model(9));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn e20_smoke() {
        let ts = e20_trace_vs_model(8, &[1, 2], 1);
        assert_eq!(ts.len(), 2, "union and 2-6 insert");
        for t in &ts {
            assert_eq!(t.rows.len(), 2);
            // t=1: zero steals, measured and model alike.
            let measured: f64 = t.rows[0][1].parse().unwrap();
            let model: u64 = t.rows[0][2].parse().unwrap();
            assert_eq!(measured, 0.0, "single worker cannot steal: {t:?}");
            assert_eq!(model, 0, "model p=1 cannot steal: {t:?}");
            // Suspensions happen in both worlds on these workloads.
            let meas_susp: f64 = t.rows[1][3].parse().unwrap();
            let model_susp: u64 = t.rows[1][4].parse().unwrap();
            assert!(meas_susp >= 0.0);
            assert!(model_susp > 0, "pipelined DAGs suspend in the model");
        }
    }
}
