//! The benchmark's own arithmetic, kept free of the program so it can be
//! unit-tested: the percentile rule, completion of requests split across
//! shards and coalesced waves, and due-time latency.

use std::collections::HashMap;
use std::time::Duration;

/// Percentiles a tail is chosen from, highest first (in tenths of a
/// percent, so the rank arithmetic stays in integers). The median is
/// always reported on its own, so it is not a tail.
const LADDER: [u32; 5] = [999, 990, 950, 900, 750];

/// 1-based nearest rank of the `tenths`/1000 quantile among `n` samples.
fn rank(n: usize, tenths: u32) -> usize {
    (n * tenths as usize).div_ceil(1000).max(1)
}

/// Samples strictly above the nearest-rank percentile.
fn beyond(n: usize, tenths: u32) -> usize {
    n - rank(n, tenths)
}

/// A sorted sample set (latencies in one unit; failures are `+inf`).
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sort `samples` (total order, so `+inf` sorts last).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; `NaN` for an empty set.
    fn at(&self, tenths: u32) -> f64 {
        match self.n() {
            0 => f64::NAN,
            n => self.sorted[rank(n, tenths) - 1],
        }
    }

    /// The median.
    pub fn p50(&self) -> f64 {
        self.at(500)
    }

    /// The highest percentile of the ladder (99.9, 99, 95, 90, 75) that
    /// leaves at least ten samples beyond it, as `(label, value)` with a
    /// label like `p99`; `None` when fewer than 40 samples exist.
    pub fn tail(&self) -> Option<(String, f64)> {
        let n = self.n();
        let tenths = LADDER.into_iter().find(|&t| n > 0 && beyond(n, t) >= 10)?;
        let label = if tenths % 10 == 0 {
            format!("p{}", tenths / 10)
        } else {
            format!("p{}", tenths) // p999 = the 99.9th percentile
        };
        Some((label, self.at(tenths)))
    }
}

/// A request still waiting for some of its shard parts.
struct Open {
    due: Duration,
    pending: u64,
    failed: bool,
}

/// Tracks requests from their due time to the drain that completes their
/// last shard part. Times are offsets from the run's epoch.
#[derive(Default)]
pub struct Tracker {
    open: HashMap<u64, Open>,
    /// Due-to-done latency of every finished request, in ms; `+inf` for a
    /// request any part of which degraded or was shed.
    pub latency_ms: Vec<f64>,
    /// Send time minus due time of every submitted request, in ms.
    pub late_ms: Vec<f64>,
    /// Requests that finished with a degraded or shed part.
    pub failed: u64,
    /// `(tag, done time)` of every request that finished served.
    pub done: Vec<(u64, Duration)>,
}

impl Tracker {
    /// Register request `tag`, due at `due` and sent at `sent`, whose
    /// entries land on the shards set in the bit mask `shards`.
    pub fn submit(&mut self, tag: u64, due: Duration, sent: Duration, shards: u64) {
        self.late_ms.push(ms(sent.saturating_sub(due)));
        if shards == 0 {
            // An empty request is elided by the service: done on send.
            self.latency_ms.push(ms(sent.saturating_sub(due)));
            return;
        }
        let open = Open {
            due,
            pending: shards,
            failed: false,
        };
        assert!(self.open.insert(tag, open).is_none(), "duplicate tag {tag}");
    }

    /// Account one wave outcome of `shard` observed at `at`: every request
    /// in `tags` has its part on that shard settled. A request is done
    /// once no part is pending; its latency runs from its due time.
    pub fn wave(&mut self, shard: usize, tags: &[u64], served: bool, at: Duration) {
        for tag in tags {
            let Some(o) = self.open.get_mut(tag) else {
                continue;
            };
            o.pending &= !(1u64 << shard);
            o.failed |= !served;
            if o.pending == 0 {
                let o = self.open.remove(tag).expect("present");
                if o.failed {
                    self.failed += 1;
                    self.latency_ms.push(f64::INFINITY);
                } else {
                    self.latency_ms.push(ms(at.saturating_sub(o.due)));
                    self.done.push((*tag, at));
                }
            }
        }
    }

    /// Requests not yet done.
    pub fn backlog(&self) -> usize {
        self.open.len()
    }

    /// Give up on every open request: each counts as failed (`+inf`).
    pub fn abandon(&mut self) {
        for _ in self.open.drain() {
            self.failed += 1;
            self.latency_ms.push(f64::INFINITY);
        }
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of a sample vector (`NaN` when empty).
pub fn median(v: &[f64]) -> f64 {
    Dist::new(v.to_vec()).p50()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(ms: u64) -> Duration {
        Duration::from_millis(ms)
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let of = |n: usize| Dist::new((1..=n).map(|i| i as f64).collect());
        // 10 000 samples: rank 9990 leaves exactly 10 beyond the p99.9.
        assert_eq!(of(10_000).tail(), Some(("p999".into(), 9990.0)));
        // 9 999: the p99.9 leaves 9, so the p99 is the tail.
        assert_eq!(of(9_999).tail().unwrap().0, "p99");
        // 1000: the p99 (rank 990) leaves exactly 10.
        assert_eq!(of(1000).tail(), Some(("p99".into(), 990.0)));
        // 999: rank 990 leaves 9, so fall back to the p95 (rank 950).
        assert_eq!(of(999).tail(), Some(("p95".into(), 950.0)));
        assert_eq!(of(100).tail(), Some(("p90".into(), 90.0)));
        assert_eq!(of(99).tail().unwrap().0, "p75");
        // 40 samples: the p75 (rank 30) leaves exactly 10.
        assert_eq!(of(40).tail(), Some(("p75".into(), 30.0)));
        assert_eq!(of(39).tail(), None);
        assert_eq!(of(0).tail(), None);
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(Dist::new(vec![3.0, 1.0, 2.0]).p50(), 2.0);
        assert_eq!(Dist::new(vec![4.0, 1.0, 3.0, 2.0]).p50(), 2.0);
        assert!(Dist::new(vec![]).p50().is_nan());
    }

    #[test]
    fn split_request_completes_on_its_last_part_across_multi_tag_waves() {
        let mut t = Tracker::default();
        // Request 7 spans shards 0 and 2; request 8 only shard 0.
        t.submit(7, d(10), d(10), 0b101);
        t.submit(8, d(11), d(11), 0b001);
        // Shard 0 serves both in one coalesced wave: only 8 is done.
        t.wave(0, &[7, 8], true, d(15));
        assert_eq!(t.latency_ms, vec![4.0]);
        assert_eq!(t.backlog(), 1);
        // A wave on another shard carrying 7's tag does not complete it.
        t.wave(1, &[7], true, d(16));
        assert_eq!(t.backlog(), 1);
        // Shard 2's wave (with an unknown tag beside it) completes 7.
        t.wave(2, &[99, 7], true, d(30));
        assert_eq!(t.latency_ms, vec![4.0, 20.0]);
        assert_eq!(t.backlog(), 0);
        assert_eq!(t.failed, 0);
    }

    #[test]
    fn latency_runs_from_due_time_and_includes_generator_lateness() {
        let mut t = Tracker::default();
        // Due at 100 ms, sent 3 ms late, done 2 ms after the send.
        t.submit(1, d(100), d(103), 0b1);
        t.wave(0, &[1], true, d(105));
        assert_eq!(t.late_ms, vec![3.0]);
        assert_eq!(t.latency_ms, vec![5.0]);
    }

    #[test]
    fn failed_requests_enter_as_infinity() {
        let mut t = Tracker::default();
        t.submit(1, d(0), d(0), 0b11);
        t.submit(2, d(1), d(1), 0b1);
        t.submit(3, d(2), d(2), 0b1);
        t.submit(4, d(3), d(3), 0b1);
        // Request 1's shard-1 part degrades; its shard-0 part serves.
        t.wave(1, &[1], false, d(5));
        t.wave(0, &[1, 2, 3], true, d(6));
        t.abandon(); // request 4 never completed
        assert_eq!(t.failed, 2);
        let dist = Dist::new(t.latency_ms.clone());
        assert_eq!(dist.n(), 4);
        assert_eq!(dist.p50(), 5.0);
        assert!(dist.sorted[2].is_infinite() && dist.sorted[3].is_infinite());
    }
}
