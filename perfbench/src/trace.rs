//! The traced run's instruments, all in the benchmark's own code: spans
//! recorded around calls into the program's public functions, a counting
//! global allocator that is switched on only while a traced pass runs,
//! and the host facts every result carries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// One span: a named interval on the run's clock, the request tag it
/// belongs to (0 when none) and the index of its parent span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub tag: u64,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// Spans of one bench thread, kept in memory until the run ends. A
/// disabled recorder drops every span, so untraced passes pay one branch.
pub struct Spans {
    on: bool,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            list: Vec::new(),
        }
    }

    /// Record a span; returns its index (meaningless when disabled).
    pub fn push(
        &mut self,
        name: &'static str,
        tag: u64,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
    ) -> usize {
        if self.on {
            self.list.push(Span {
                name,
                tag,
                start,
                end,
                parent,
            });
        }
        self.list.len().wrapping_sub(1)
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.list.len();
        self.list.extend(other.list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's duration minus the part of it its direct children
    /// cover (children may overlap: a drive's shard sessions run at once).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut kids: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                kids[p].push((s.start, s.end));
            }
        }
        self.list
            .iter()
            .zip(kids)
            .map(|(s, mut k)| {
                k.sort();
                let (mut covered, mut reach) = (Duration::ZERO, s.start);
                for (a, b) in k {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let self_t = self.self_times();
        let mut out = String::from("[\n");
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"parent\":{parent}}}{}",
                s.name,
                s.tag,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                self_t[i].as_secs_f64() * 1e6,
                if i + 1 < self.list.len() { "," } else { "" },
            );
        }
        out.push(']');
        out
    }
}

/// The global allocator of the benchmark binary: the system allocator,
/// counting allocations and bytes while [`Counting::start`] is in force.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

impl Counting {
    /// Zero the counters and start counting.
    pub fn start() {
        ALLOCS.store(0, Relaxed);
        BYTES.store(0, Relaxed);
        COUNTING.store(true, Relaxed);
    }

    /// Stop counting; returns `(allocations, bytes)` since the start.
    pub fn stop() -> (u64, u64) {
        COUNTING.store(false, Relaxed);
        (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
    }

    #[inline]
    fn count(size: usize) {
        if COUNTING.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
            BYTES.fetch_add(size as u64, Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Where a result was measured: CPU count and model, source revision,
/// seed, pool width and the benchmark's own thread count, as JSON.
pub fn provenance(workload: &str, seed: u64, width: usize, bench_threads: usize) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"cpus\":{cpus},\"cpu_model\":\"{}\",\"git_rev\":\"{}\",\"pool_width\":{width},\"bench_threads\":{bench_threads}}}",
        model.replace('"', "'"),
        rev.replace('"', "'"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let ms = Duration::from_millis;
        let mut s = Spans::new(true);
        let p = s.push("drive", 0, ms(0), ms(10), None);
        // Two overlapping children cover [1, 6); a third covers [8, 9).
        s.push("session", 0, ms(1), ms(5), Some(p));
        s.push("session", 0, ms(3), ms(6), Some(p));
        let c = s.push("session", 0, ms(8), ms(9), Some(p));
        s.push("inner", 0, ms(8), ms(9), Some(c));
        assert_eq!(s.self_times(), vec![ms(4), ms(4), ms(3), ms(0), ms(1)]);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let ms = Duration::from_millis;
        let mut a = Spans::new(true);
        a.push("request", 1, ms(0), ms(4), None);
        let mut b = Spans::new(true);
        let p = b.push("pump", 0, ms(1), ms(3), None);
        b.push("session", 0, ms(1), ms(2), Some(p));
        a.absorb(b);
        assert_eq!(a.list[2].parent, Some(1));
    }
}
