//! The pf-service workloads: `svc-paced` (open loop at a fixed rate, with
//! paced snapshot reads beside the writes) and `svc-burst` (bursts of the
//! mixed request trace handed at once to `SetService::drive`).

use std::collections::{BTreeSet, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pf_rt::Runtime;
use pf_service::{DrainReport, OpKind, Request, ServiceConfig, SetService, ShardMap, WaveOutcome};
use rand::prelude::*;

use crate::stats::{median, ms, Dist, Tracker};
use crate::trace::{Counting, Spans};
use crate::{Line, Report, WIDTH};

const SHARDS: usize = 4;
const UNIVERSE: i64 = 1_000_000;
const PRELOAD: usize = 1 << 18;
/// svc-paced send rate, requests per second.
const RATE: f64 = 300.0;
/// Paced snapshot reads issued between two sends.
const READS_PER_SEND: u32 = 3;
/// svc-burst requests handed to one `drive()` call.
const BURST: usize = 1024;
/// How long svc-paced waits for its backlog after the schedule ends
/// before the open requests count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a bench thread panicked holding the lock")
}

/// A service on a fresh width-2 pool over 4 uniform shards, preloaded
/// with `PRELOAD` distinct keys drawn from `seed`. Returns the service,
/// the preloaded keys and the set-up time (pool start, input build,
/// preload).
fn build(seed: u64) -> (SetService<i64>, Arc<Runtime>, Vec<i64>, Duration) {
    let t = Instant::now();
    let rt = Arc::new(Runtime::new(WIDTH));
    let cfg = ServiceConfig {
        threads: WIDTH,
        ..ServiceConfig::default()
    };
    let svc = SetService::with_runtime(rt.clone(), ShardMap::uniform(SHARDS, 0, UNIVERSE), cfg);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut universe: Vec<i64> = (0..UNIVERSE).collect();
    universe.shuffle(&mut rng);
    universe.truncate(PRELOAD);
    let entries = universe.iter().map(|&k| (k, rng.gen::<u64>())).collect();
    svc.submit(Request::insert(entries));
    let rep = svc.pump();
    assert_eq!(rep.degraded + rep.shed, 0, "preload degraded");
    (svc, rt, universe, t.elapsed())
}

/// Set up `setups` times (keeping the last service) and record each
/// set-up time.
fn set_up(seed: u64, setups: usize, rep: &mut Report) -> (SetService<i64>, Arc<Runtime>, Vec<i64>) {
    let mut last = None;
    for _ in 0..setups.max(1) {
        drop(last.take());
        let (svc, rt, keys, dt) = build(seed);
        rep.setup_s.push(dt.as_secs_f64());
        last = Some((svc, rt, keys));
    }
    last.expect("at least one set-up")
}

/// One request: `1..=31` keys, or `64..=255` keys if `large`; 30%
/// deletes; keys uniform over the universe.
fn request(rng: &mut SmallRng, tag: u64, large: bool) -> Request<i64> {
    let n = if large {
        rng.gen_range(64..256)
    } else {
        rng.gen_range(1..32)
    };
    let entries = (0..n)
        .map(|_| (rng.gen_range(0..UNIVERSE), rng.gen::<u64>()))
        .collect();
    let req = if rng.gen_bool(0.3) {
        Request::delete(entries)
    } else {
        Request::insert(entries)
    };
    req.tagged(tag)
}

/// The sequential oracle: each shard's submitted parts in submit order,
/// replayed on a `BTreeSet` over the served ones.
struct Oracle {
    map: ShardMap<i64>,
    init: Vec<BTreeSet<i64>>,
    log: Vec<Vec<(u64, OpKind, Vec<i64>)>>,
}

impl Oracle {
    fn new(preload: &[i64]) -> Self {
        let map = ShardMap::uniform(SHARDS, 0, UNIVERSE);
        let mut init = vec![BTreeSet::new(); SHARDS];
        for &k in preload {
            init[map.shard_of(&k)].insert(k);
        }
        Oracle {
            map,
            init,
            log: vec![Vec::new(); SHARDS],
        }
    }

    /// Log a request about to be submitted; returns the bit mask of the
    /// shards its entries land on.
    fn record(&mut self, req: &Request<i64>) -> u64 {
        let mut parts: Vec<Vec<i64>> = vec![Vec::new(); SHARDS];
        for (k, _) in &req.entries {
            parts[self.map.shard_of(k)].push(*k);
        }
        let mut mask = 0;
        for (s, keys) in parts.into_iter().enumerate() {
            if !keys.is_empty() {
                mask |= 1 << s;
                self.log[s].push((req.tag, req.kind, keys));
            }
        }
        mask
    }

    /// Replay the served parts; returns the final per-shard sets and the
    /// number of shards whose committed keys differ from them.
    fn check(&self, svc: &SetService<i64>, outcomes: &[WaveOutcome]) -> (Vec<BTreeSet<i64>>, u64) {
        let served: HashSet<(u64, usize)> = outcomes
            .iter()
            .filter(|o| o.served)
            .flat_map(|o| o.tags.iter().map(move |&t| (t, o.shard)))
            .collect();
        let mut finals = Vec::with_capacity(SHARDS);
        let mut bad = 0;
        for s in 0..SHARDS {
            let mut set = self.init[s].clone();
            for (tag, kind, keys) in &self.log[s] {
                if !served.contains(&(*tag, s)) {
                    continue;
                }
                match kind {
                    OpKind::Insert => set.extend(keys.iter().copied()),
                    OpKind::Delete => keys.iter().for_each(|k| {
                        set.remove(k);
                    }),
                }
            }
            if svc.shard_keys(s) != set.iter().copied().collect::<Vec<_>>() {
                eprintln!("oracle mismatch on shard {s}");
                bad += 1;
            }
            finals.push(set);
        }
        (finals, bad)
    }
}

/// Session latencies of a drain, one per session: the waves of one
/// pipelined window share their session's elapsed time.
fn sessions(outcomes: &[WaveOutcome]) -> Vec<(usize, Duration)> {
    let mut out: Vec<(usize, Duration)> = Vec::new();
    for o in outcomes.iter().filter(|o| !o.shed) {
        if out.last() != Some(&(o.shard, o.latency)) {
            out.push((o.shard, o.latency));
        }
    }
    out
}

/// Lay `sessions` out as child spans of `parent`, back to back from
/// `start` in one lane per shard, or in one lane when the shards ran one
/// after another (`pump()`). Only their durations are measured.
fn session_spans(
    spans: &mut Spans,
    parent: usize,
    start: Duration,
    sessions: &[(usize, Duration)],
    per_shard: bool,
) {
    let mut at = [start; SHARDS];
    for &(shard, d) in sessions {
        let lane = if per_shard { shard } else { 0 };
        spans.push("session", 0, at[lane], at[lane] + d, Some(parent));
        at[lane] += d;
    }
}

/// Per-layer lines shared by both service workloads.
fn service_layers(rep: &mut Report, all: &DrainReport, requests: usize, alloc: (u64, u64)) {
    let keys = all.keys_applied.max(1) as f64;
    let busy = sessions(&all.outcomes).iter().map(|s| ms(s.1)).collect();
    let l = &mut rep.layer;
    crate::session_layers(l, &Dist::new(busy));
    let per_req = |v: usize| v as f64 / requests as f64;
    l.push(Line::new(
        "session.per_req",
        per_req(all.sessions as usize),
        "ratio",
    ));
    l.push(Line::new(
        "coalesce.waves_per_req",
        per_req(all.outcomes.len()),
        "ratio",
    ));
    let wave_keys: usize = all.outcomes.iter().map(|o| o.keys).sum();
    let per_wave = wave_keys as f64 / all.outcomes.len() as f64;
    l.push(Line::new("coalesce.keys_per_wave", per_wave, "count"));
    crate::per_key_layers(l, &all.stats, alloc, keys);
    l.push(Line::new("heal.retries", all.retries as f64, "count"));
    l.push(Line::new("heal.degraded", all.degraded as f64, "count"));
    l.push(Line::new("heal.shed", all.shed as f64, "count"));
}

/// The empty-session probe: `session.empty_us`, the median time of 500
/// empty sessions on the workload's pool, run after the measured pass.
pub fn empty_session_probe(rt: &Runtime, rep: &mut Report) {
    let t = Instant::now();
    let v: Vec<f64> = (0..500)
        .map(|_| {
            let t = Instant::now();
            black_box(rt.run_stats(|_| {}));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    rep.layer
        .push(Line::new("session.empty_us", median(&v), "us"));
    rep.probe += t.elapsed();
}

/// Rung by the generator after each submit; polled by the pump thread.
#[derive(Default)]
struct Doorbell(AtomicBool);

impl Doorbell {
    fn ring(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Poll until rung (or `limit` passes), yielding between polls, then
    /// clear the bell.
    fn wait(&self, limit: Duration) {
        let end = Instant::now() + limit;
        while !self.0.swap(false, Ordering::AcqRel) && Instant::now() < end {
            std::thread::yield_now();
        }
    }
}

/// Wait until `t` by yielding, not sleeping. Both bench threads of
/// svc-paced wait this way, so no CPU goes idle while the workload runs
/// and a yield hands the CPU to any runnable pool worker. On a shared
/// virtual machine, waking an idle vCPU costs a host-dependent 0.1-1 ms;
/// with sleeping waits that moved the write p50 by up to 40% between runs.
fn wait_until(t: Instant) {
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

/// The pump thread of svc-paced: loop `pump()`, settle every returned
/// wave in the tracker at the pump's return, until the generator is done
/// and no request is open. An empty pump waits for the doorbell.
fn pump_loop(
    svc: &SetService<i64>,
    tracker: &Mutex<Tracker>,
    bell: &Doorbell,
    gen_done: &AtomicBool,
    t0: Instant,
    traced: bool,
) -> (DrainReport, Spans, Vec<f64>) {
    let mut all = DrainReport::default();
    let mut spans = Spans::new(traced);
    let mut pump_ms = Vec::new();
    let mut drain_started: Option<Instant> = None;
    loop {
        let a = t0.elapsed();
        let rep = svc.pump();
        let b = t0.elapsed();
        if rep.outcomes.is_empty() {
            if gen_done.load(Ordering::Acquire) {
                let mut t = lock(tracker);
                if t.backlog() == 0 {
                    break;
                }
                if drain_started.get_or_insert_with(Instant::now).elapsed() > DRAIN_LIMIT {
                    t.abandon();
                    break;
                }
            }
            bell.wait(Duration::from_millis(1));
            continue;
        }
        {
            let mut t = lock(tracker);
            for o in &rep.outcomes {
                t.wave(o.shard, &o.tags, o.served, b);
            }
        }
        pump_ms.push(ms(b - a));
        let p = spans.push("pump", 0, a, b, None);
        session_spans(&mut spans, p, a, &sessions(&rep.outcomes), false);
        all.merge(rep);
    }
    (all, spans, pump_ms)
}

/// svc-paced: an open loop at `RATE` requests/s of 1-31-key requests,
/// with `READS_PER_SEND` paced `contains` reads between sends on the
/// generator thread and a second bench thread looping `pump()`.
pub fn paced(seed: u64, seconds: f64, traced: bool, setups: usize) -> Report {
    let mut rep = Report::new(traced);
    let (svc, rt, preload) = set_up(seed, setups, &mut rep);
    let mut oracle = Oracle::new(&preload);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0001);
    let n = (RATE * seconds).ceil() as u64;
    let reqs: Vec<Request<i64>> = (1..=n).map(|tag| request(&mut rng, tag, false)).collect();
    let masks: Vec<u64> = reqs.iter().map(|r| oracle.record(r)).collect();
    let reads: Vec<i64> = (0..n * READS_PER_SEND as u64)
        .map(|_| rng.gen_range(0..UNIVERSE))
        .collect();
    let period = Duration::from_secs_f64(1.0 / RATE);
    let tracker = Mutex::new(Tracker::default());
    let gen_done = AtomicBool::new(false);
    let bell = Doorbell::default();
    if traced {
        Counting::start();
    }
    let t0 = Instant::now();
    let mut gen_spans = Spans::new(traced);
    let mut read_us = Vec::with_capacity(reads.len());
    let mut submit_us = Vec::with_capacity(reqs.len());
    let mut backlog_end = 0;
    let (all, pump_spans, pump_ms) = std::thread::scope(|s| {
        let pumper = s.spawn(|| pump_loop(&svc, &tracker, &bell, &gen_done, t0, traced));
        let mut next_read = reads.iter();
        for (i, (req, mask)) in reqs.into_iter().zip(&masks).enumerate() {
            let due = period * i as u32;
            wait_until(t0 + due);
            let tag = req.tag;
            let sent = t0.elapsed();
            lock(&tracker).submit(tag, due, sent, *mask);
            let a = t0.elapsed();
            svc.submit(req);
            let b = t0.elapsed();
            bell.ring();
            submit_us.push((b - a).as_secs_f64() * 1e6);
            gen_spans.push("submit", tag, a, b, None);
            for j in 1..=READS_PER_SEND {
                wait_until(t0 + due + period * j / (READS_PER_SEND + 1));
                let key = next_read.next().expect("one read key per read");
                let a = Instant::now();
                black_box(svc.contains(key));
                read_us.push(a.elapsed().as_secs_f64() * 1e6);
            }
        }
        backlog_end = lock(&tracker).backlog();
        gen_done.store(true, Ordering::Release);
        pumper.join().expect("pump thread panicked")
    });
    let end = t0.elapsed();
    let alloc = if traced { Counting::stop() } else { (0, 0) };
    let tracker = tracker
        .into_inner()
        .expect("a bench thread panicked holding the tracker");

    // Outputs: every shard against the replay, then a sample of reads
    // against the final sets.
    let (finals, bad) = oracle.check(&svc, &all.outcomes);
    let read_bad = reads
        .iter()
        .take(2000)
        .filter(|k| svc.contains(k) != finals[oracle.map.shard_of(k)].contains(k))
        .count() as u64;
    rep.attempted = n;
    rep.failed = tracker.failed + bad + read_bad;
    rep.mismatches = bad + read_bad;

    let writes = Dist::new(tracker.latency_ms.clone());
    let reads_d = Dist::new(read_us);
    rep.op_p50_ms = writes.p50();
    rep.keys_per_s = all.keys_applied as f64 / end.as_secs_f64();
    rep.dist("write", &writes, "ms");
    rep.dist("read", &reads_d, "us");
    rep.lines
        .push(Line::new("keys_per_s", rep.keys_per_s, "keys/s"));
    rep.lines.push(Line::new("rate_req_per_s", RATE, "req/s"));

    if traced {
        // Request spans (due to done) parent their submit spans.
        let mut spans = Spans::new(true);
        let mut parent_of = std::collections::HashMap::new();
        for &(tag, done) in &tracker.done {
            let due = period * (tag - 1) as u32;
            parent_of.insert(tag, spans.push("request", tag, due, done, None));
        }
        for mut s in gen_spans.list {
            s.parent = parent_of.get(&s.tag).copied();
            spans.list.push(s);
        }
        let pumps: Vec<usize> = (0..pump_spans.list.len())
            .filter(|&i| pump_spans.list[i].name == "pump")
            .collect();
        let self_t = pump_spans.self_times();
        let pump_total: f64 = pumps
            .iter()
            .map(|&i| ms(pump_spans.list[i].end - pump_spans.list[i].start))
            .sum();
        let pump_self: f64 = pumps.iter().map(|&i| ms(self_t[i])).sum();
        spans.absorb(pump_spans);
        rep.spans = spans;

        let submit = Dist::new(submit_us);
        let late = Dist::new(tracker.late_ms.clone());
        let pump = Dist::new(pump_ms);
        let l = &mut rep.layer;
        l.push(Line::n("submit.p50_us", submit.p50(), "us", submit.n()));
        l.push(Line::n("pump.p50_ms", pump.p50(), "ms", pump.n()));
        l.push(Line::new(
            "pump.outside_session_frac",
            pump_self / pump_total,
            "ratio",
        ));
        l.push(Line::n("gen.late_p50_ms", late.p50(), "ms", late.n()));
        if let Some((p, v)) = late.tail() {
            l.push(Line::n(&format!("gen.late_{p}_ms"), v, "ms", late.n()));
        }
        l.push(Line::new("gen.backlog_end", backlog_end as f64, "count"));
        service_layers(&mut rep, &all, n as usize, alloc);
        empty_session_probe(&rt, &mut rep);
    }
    rep
}

/// svc-burst: bursts of `BURST` requests of the mixed trace (exactly 25%
/// of 64-255 keys at shuffled positions, the rest of 1-31 keys, 30%
/// deletes), each built before its clock starts and handed at once to
/// `drive()`, until `seconds` of drive time have run.
pub fn burst(seed: u64, seconds: f64, traced: bool, setups: usize) -> Report {
    let mut rep = Report::new(traced);
    let (svc, rt, preload) = set_up(seed, setups, &mut rep);
    let mut oracle = Oracle::new(&preload);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0002);
    let mut all = DrainReport::default();
    let mut spans = Spans::new(traced);
    let mut walls = Vec::new();
    let mut alloc = (0, 0);
    let mut tag = 0;
    let t0 = Instant::now();
    let mut driven = Duration::ZERO;
    while driven.as_secs_f64() < seconds {
        let mut large: Vec<bool> = (0..BURST).map(|i| i < BURST / 4).collect();
        large.shuffle(&mut rng);
        let reqs: Vec<Request<i64>> = large
            .into_iter()
            .map(|l| {
                tag += 1;
                request(&mut rng, tag, l)
            })
            .collect();
        reqs.iter().for_each(|r| {
            oracle.record(r);
        });
        if traced {
            Counting::start();
        }
        let a = t0.elapsed();
        let got = svc.drive(reqs);
        let b = t0.elapsed();
        if traced {
            let (n, bytes) = Counting::stop();
            alloc = (alloc.0 + n, alloc.1 + bytes);
        }
        driven += b - a;
        walls.push(ms(b - a));
        let d = spans.push("drive", 0, a, b, None);
        session_spans(&mut spans, d, a, &sessions(&got.outcomes), true);
        all.merge(got);
    }
    let requests = tag;
    let (_, bad) = oracle.check(&svc, &all.outcomes);
    let failed_reqs: HashSet<u64> = all
        .outcomes
        .iter()
        .filter(|o| !o.served)
        .flat_map(|o| o.tags.iter().copied())
        .collect();
    rep.attempted = requests;
    rep.failed = failed_reqs.len() as u64 + bad;
    rep.mismatches = bad;

    let bursts = Dist::new(walls);
    rep.op_p50_ms = bursts.p50();
    rep.keys_per_s = all.keys_applied as f64 / driven.as_secs_f64();
    rep.lines
        .push(Line::new("keys_per_s", rep.keys_per_s, "keys/s"));
    rep.lines
        .push(Line::n("burst_p50_ms", bursts.p50(), "ms", bursts.n()));
    rep.lines
        .push(Line::new("burst_requests", BURST as f64, "count"));

    if traced {
        let overlap: f64 = sessions(&all.outcomes)
            .iter()
            .map(|s| s.1.as_secs_f64())
            .sum::<f64>()
            / driven.as_secs_f64();
        rep.spans = spans;
        rep.layer
            .push(Line::new("drive.session_overlap", overlap, "ratio"));
        service_layers(&mut rep, &all, requests as usize, alloc);
        empty_session_probe(&rt, &mut rep);
    }
    rep
}
