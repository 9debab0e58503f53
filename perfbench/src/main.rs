//! The repository's benchmark: three workloads against the public APIs of
//! pf-service, pf-rt and pf-rt-algs, every output checked against a
//! sequential oracle.
//!
//! ```text
//! perfbench --workload <svc-paced|svc-burst|alg-batch> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` is the traced
//! run: an untraced pass and a traced pass (spans, counting allocator) of
//! half the time each, then the reference probes; it reports the
//! per-layer metrics and writes the spans to `perfbench/out/`. Lines
//! above the last one name every metric with its unit (and the sample
//! count next to each percentile); the last line is one JSON object with
//! the metrics listed in `BENCHMARK.json`. See `perfbench/README.md`.

mod alg;
mod stats;
mod svc;
mod trace;

use std::time::{Duration, Instant};

use trace::{Counting, Spans};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Width of every pool the workloads run on.
pub const WIDTH: usize = 2;
/// Set-ups per untraced process; `setup_s` is their median.
const SETUPS: usize = 3;

/// One named metric value, with the sample count behind it if it is a
/// percentile.
pub struct Line {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: Option<usize>,
}

impl Line {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Line {
            name: name.to_string(),
            value,
            unit,
            n: None,
        }
    }

    pub fn n(name: &str, value: f64, unit: &'static str, n: usize) -> Self {
        Line {
            n: Some(n),
            ..Line::new(name, value, unit)
        }
    }
}

/// What one pass of a workload measured.
pub struct Report {
    /// Median latency of the workload's unit of work, in ms.
    pub op_p50_ms: f64,
    /// Keys committed (or processed) per second of measured time.
    pub keys_per_s: f64,
    /// Every set-up time of the pass, in s.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Outputs that disagreed with the oracle.
    pub mismatches: u64,
    /// The workload's end-to-end metrics under their own names.
    pub lines: Vec<Line>,
    /// Per-layer metrics (filled by traced passes).
    pub layer: Vec<Line>,
    /// Per-operation medians in ms (alg-batch), for the probes' ratios.
    pub op_ms: Vec<f64>,
    pub spans: Spans,
    /// Time spent in the traced pass's probes, after its measurement.
    pub probe: Duration,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Report {
            op_p50_ms: f64::NAN,
            keys_per_s: f64::NAN,
            setup_s: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: 0,
            lines: Vec::new(),
            layer: Vec::new(),
            op_ms: Vec::new(),
            spans: Spans::new(traced),
            probe: Duration::ZERO,
        }
    }

    /// Add `<what>_p50_<unit>` and the tail percentile line of `d`.
    pub fn dist(&mut self, what: &str, d: &stats::Dist, unit: &'static str) {
        self.lines
            .push(Line::n(&format!("{what}_p50_{unit}"), d.p50(), unit, d.n()));
        if let Some((p, v)) = d.tail() {
            self.lines
                .push(Line::n(&format!("{what}_{p}_{unit}"), v, unit, d.n()));
        }
    }
}

/// `session.busy_p50_ms` and the tail line of the session times `busy`.
pub fn session_layers(l: &mut Vec<Line>, busy: &stats::Dist) {
    l.push(Line::n("session.busy_p50_ms", busy.p50(), "ms", busy.n()));
    if let Some((p, v)) = busy.tail() {
        l.push(Line::n(&format!("session.busy_{p}_ms"), v, "ms", busy.n()));
    }
}

/// Scheduler, cell and allocation counts per key of a traced pass.
pub fn per_key_layers(l: &mut Vec<Line>, st: &pf_rt::RunStats, alloc: (u64, u64), keys: f64) {
    for (name, v, unit) in [
        ("sched.tasks_per_key", st.tasks_executed, "ratio"),
        ("sched.spawns_per_key", st.spawns, "ratio"),
        ("sched.steals_per_key", st.steals, "ratio"),
        ("cell.suspends_per_key", st.suspensions, "ratio"),
        ("alloc.count_per_key", alloc.0, "ratio"),
        ("alloc.bytes_per_key", alloc.1, "B/key"),
    ] {
        l.push(Line::new(name, v as f64 / keys, unit));
    }
}

/// The end-to-end metrics of the final JSON line, in `BENCHMARK.json`
/// order.
const END_TO_END: [(&str, &str); 4] = [
    ("op_p50_ms", "ms"),
    ("keys_per_s", "keys/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of the final JSON line. A layer that does not
/// run on a workload reports 0 there.
const PER_LAYER: [(&str, &str); 30] = [
    ("session.busy_p50_ms", "ms"),
    ("session.empty_us", "us"),
    ("session.per_req", "ratio"),
    ("sched.tasks_per_key", "ratio"),
    ("sched.spawns_per_key", "ratio"),
    ("sched.steals_per_key", "ratio"),
    ("cell.suspends_per_key", "ratio"),
    ("alloc.count_per_key", "ratio"),
    ("alloc.bytes_per_key", "B/key"),
    ("coalesce.waves_per_req", "ratio"),
    ("coalesce.keys_per_wave", "count"),
    ("pump.outside_session_frac", "ratio"),
    ("drive.session_overlap", "ratio"),
    ("heal.retries", "count"),
    ("heal.degraded", "count"),
    ("heal.shed", "count"),
    ("gen.backlog_end", "count"),
    ("alg.union.seq_ratio", "ratio"),
    ("alg.insert26.seq_ratio", "ratio"),
    ("alg.msort.seq_ratio", "ratio"),
    ("alg.union.lemma41_ratio", "ratio"),
    ("alg.insert26.lemma41_ratio", "ratio"),
    ("alg.msort.lemma41_ratio", "ratio"),
    ("alg.union.steals_per_key", "ratio"),
    ("alg.insert26.steals_per_key", "ratio"),
    ("alg.msort.steals_per_key", "ratio"),
    ("alg.union.suspends_per_key", "ratio"),
    ("alg.insert26.suspends_per_key", "ratio"),
    ("alg.msort.suspends_per_key", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = val.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => args.trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Run one pass of `workload`.
fn run(workload: &str, seed: u64, seconds: f64, traced: bool, setups: usize) -> Report {
    match workload {
        "svc-paced" => svc::paced(seed, seconds, traced, setups),
        "svc-burst" => svc::burst(seed, seconds, traced, setups),
        "alg-batch" => alg::batch(seed, seconds, traced, setups),
        _ => unreachable!("checked in main"),
    }
}

fn print_line(kind: &str, l: &Line) {
    match l.n {
        Some(n) => println!("{kind} {} = {} {} (n={n})", l.name, l.value, l.unit),
        None => println!("{kind} {} = {} {}", l.name, l.value, l.unit),
    }
}

/// A JSON number; a non-finite value (a median over failed requests'
/// `+inf`, or over no samples) prints as the largest finite double so
/// the line stays valid JSON, and the run exits non-zero.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        m.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) if ["svc-paced", "svc-burst", "alg-batch"].contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!("unknown workload {:?}", a.workload);
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let bench_threads = if args.workload == "svc-paced" { 2 } else { 1 };
    let provenance = trace::provenance(&args.workload, args.seed, WIDTH, bench_threads);
    println!("provenance {provenance}");

    let (correct, attempted, failed, metrics) = if !args.trace {
        let rep = run(&args.workload, args.seed, args.seconds, false, SETUPS);
        let setup = stats::median(&rep.setup_s);
        let rss = trace::peak_rss_mib();
        for l in &rep.lines {
            print_line("metric", l);
        }
        print_line("metric", &Line::n("setup_s", setup, "s", rep.setup_s.len()));
        print_line("metric", &Line::new("peak_rss_mb", rss, "MiB"));
        let frac = rep.failed as f64 / rep.attempted.max(1) as f64;
        print_line("metric", &Line::new("failed_frac", frac, "ratio"));
        let values = [rep.op_p50_ms, rep.keys_per_s, setup, rss];
        let metrics: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect();
        (rep.mismatches == 0, rep.attempted, rep.failed, metrics)
    } else {
        let half = args.seconds / 2.0;
        let plain = run(&args.workload, args.seed, half, false, 1);
        let mut traced = run(&args.workload, args.seed, half, true, 1);
        let probe_start = Instant::now();
        let mut probes_ok = true;
        if args.workload == "alg-batch" {
            let (lines, ok) = alg::probes(args.seed, &plain.op_ms);
            traced.layer.extend(lines);
            probes_ok = ok;
        }
        let probe_s = (probe_start.elapsed() + traced.probe).as_secs_f64();
        traced.layer.push(Line::new(
            "trace.overhead_frac",
            traced.op_p50_ms / plain.op_p50_ms - 1.0,
            "ratio",
        ));
        for l in &traced.layer {
            print_line("layer", l);
        }
        print_line("layer", &Line::new("bench.probe_s", probe_s, "s"));
        print_line(
            "layer",
            &Line::new("bench.untraced_op_p50_ms", plain.op_p50_ms, "ms"),
        );
        print_line(
            "layer",
            &Line::new("bench.traced_op_p50_ms", traced.op_p50_ms, "ms"),
        );

        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{}-seed{}.spans.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| {
            let spans = traced.spans.to_json();
            let body = format!("{{\"provenance\": {provenance},\n\"spans\": {spans}}}\n");
            std::fs::write(&path, body)
        }) {
            Ok(()) => println!(
                "spans {} ({} spans)",
                path.display(),
                traced.spans.list.len()
            ),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }

        let metrics: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = traced
                    .layer
                    .iter()
                    .find(|l| l.name == name)
                    .map_or(0.0, |l| l.value);
                (name, unit, v)
            })
            .collect();
        (
            plain.mismatches == 0 && traced.mismatches == 0 && probes_ok,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            metrics,
        )
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    let measured = attempted > 0 && metrics.iter().all(|m| m.2.is_finite());
    if !correct || !measured {
        std::process::exit(1);
    }
}
