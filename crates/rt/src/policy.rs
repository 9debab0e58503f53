//! Pluggable scheduling policies.
//!
//! Every scheduling decision the runtime makes on a hot path — how much
//! to steal, whom to steal from, where a resumed continuation lands —
//! is an explicit knob here instead of a hard-coded branch in
//! `scheduler.rs`/`cell.rs`. Fork order is not a knob: a fork's child
//! runs inline whenever the worker already holds stealable work (see
//! [`Worker::spawn`](crate::Worker::spawn)). The motivation is
//! Herlihy & Liu's *Well-Structured Futures and Cache Locality*: for
//! futures specifically, deviations (and with them cache misses) swing
//! by integer factors depending on steal granularity and resume
//! placement, so the policy must be measurable per run — which PR 7's
//! exact [`TraceStats`](pf_trace::TraceStats) counters make cheap.
//!
//! Dispatch is by enum compare, not trait object: a [`SchedPolicy`]
//! packs into a `u32` stored once per session in the pool's shared
//! state (`Relaxed` loads on the per-task path, no indirection, no
//! allocation). The policy may only change between sessions, while the
//! pool is quiescent — mid-session every worker observes one fixed
//! policy.
//!
//! [`SchedPolicy::default()`] keeps the pre-policy runtime's steal and
//! resume paths (steal-one, random-sweep victims, resume onto the
//! fulfiller's deque);
//! `bench_pr8` compares the default's hot path against the PR 1/PR 7
//! baselines.

/// How many tasks one successful steal moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StealKind {
    /// Take the single oldest task from the victim (the classic
    /// Chase–Lev steal; the default).
    #[default]
    One,
    /// Take up to half of the victim's observed queue — the first task
    /// is run, the rest land in the thief's own deque. Fewer steal
    /// *episodes* on deep queues (better amortization of the miss/retry
    /// sweep), at the cost of coarser load distribution.
    Half,
}

/// How a worker with an empty deque picks steal victims.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum VictimSelect {
    /// One full sweep over the siblings starting at a per-worker
    /// pseudo-random index (the default).
    #[default]
    RandomSweep,
    /// Try the last victim that yielded a task first, then fall back to
    /// the random sweep. Exploits temporal locality of imbalance: a
    /// deep victim stays deep for a while.
    LastVictimFirst,
}

/// Where a continuation resumed by a fulfill lands.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ResumePlace {
    /// Push onto the fulfilling worker's own deque (the default): the
    /// resume is the *newest* task there and runs next under LIFO — the
    /// value it touches is hot in the fulfiller's cache.
    #[default]
    FulfillerDeque,
    /// Run the continuation inline, immediately, inside the fulfill
    /// itself (depth-guarded; falls back to [`Self::FulfillerDeque`]
    /// past the inline-depth limit). The LIFO-front extreme: zero queue
    /// traffic, but the fulfiller's own continuation waits.
    Inline,
    /// Hand the continuation back to the worker that *suspended* on the
    /// cell, through a per-worker mailbox, waking it if parked. The
    /// cache-locality bet of Herlihy & Liu: the suspended frame's
    /// working set lives in the owner's cache, not the fulfiller's.
    Mailbox,
}

/// One complete scheduling policy: a value of each knob.
///
/// `Default` keeps the pre-policy steal and resume paths. Select per
/// runtime with [`Runtime::with_policy`](crate::Runtime::with_policy)
/// or the [builder](crate::Runtime::builder), or per session with
/// [`Session::policy`](crate::Session::policy) (which wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SchedPolicy {
    /// Steal granularity.
    pub steal: StealKind,
    /// Victim selection.
    pub victim: VictimSelect,
    /// Resume placement on fulfill.
    pub resume: ResumePlace,
}

impl SchedPolicy {
    /// Pack into one `u32` (one byte per knob) for storage in an atomic.
    pub(crate) fn pack(self) -> u32 {
        let s = self.steal as u32;
        let v = self.victim as u32;
        let r = self.resume as u32;
        s | (v << 8) | (r << 16)
    }

    /// Inverse of [`Self::pack`]. Unknown bytes fall back to the
    /// default knob value (cannot happen for values we packed).
    pub(crate) fn unpack(bits: u32) -> Self {
        SchedPolicy {
            steal: match bits & 0xff {
                1 => StealKind::Half,
                _ => StealKind::One,
            },
            victim: match (bits >> 8) & 0xff {
                1 => VictimSelect::LastVictimFirst,
                _ => VictimSelect::RandomSweep,
            },
            resume: match (bits >> 16) & 0xff {
                1 => ResumePlace::Inline,
                2 => ResumePlace::Mailbox,
                _ => ResumePlace::FulfillerDeque,
            },
        }
    }

    /// A short stable label (`steal-victim-resume`), used to tag traces
    /// and name benchmark metrics. The default policy's label is
    /// `"one-sweep-deque"`.
    pub fn label(&self) -> String {
        let s = match self.steal {
            StealKind::One => "one",
            StealKind::Half => "half",
        };
        let v = match self.victim {
            VictimSelect::RandomSweep => "sweep",
            VictimSelect::LastVictimFirst => "lastv",
        };
        let r = match self.resume {
            ResumePlace::FulfillerDeque => "deque",
            ResumePlace::Inline => "inline",
            ResumePlace::Mailbox => "mailbox",
        };
        format!("{s}-{v}-{r}")
    }

    /// Every combination of every knob (2·2·3 = 12 policies), the
    /// default first. The cross-policy pinned tests iterate this so a
    /// new knob value is covered the day it is added.
    pub fn matrix() -> Vec<SchedPolicy> {
        let mut out = Vec::with_capacity(12);
        for &resume in &[
            ResumePlace::FulfillerDeque,
            ResumePlace::Inline,
            ResumePlace::Mailbox,
        ] {
            for &victim in &[VictimSelect::RandomSweep, VictimSelect::LastVictimFirst] {
                for &steal in &[StealKind::One, StealKind::Half] {
                    out.push(SchedPolicy {
                        steal,
                        victim,
                        resume,
                    });
                }
            }
        }
        debug_assert_eq!(out[0], SchedPolicy::default());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_legacy_behavior() {
        let p = SchedPolicy::default();
        assert_eq!(p.steal, StealKind::One);
        assert_eq!(p.victim, VictimSelect::RandomSweep);
        assert_eq!(p.resume, ResumePlace::FulfillerDeque);
        assert_eq!(p.label(), "one-sweep-deque");
        // The default must pack to 0 so a zero-initialised atomic *is*
        // the default policy.
        assert_eq!(p.pack(), 0);
    }

    #[test]
    fn pack_roundtrips_every_matrix_entry() {
        let m = SchedPolicy::matrix();
        assert_eq!(m.len(), 12);
        for p in m {
            assert_eq!(SchedPolicy::unpack(p.pack()), p);
        }
    }

    #[test]
    fn labels_are_distinct() {
        let m = SchedPolicy::matrix();
        let mut labels: Vec<String> = m.iter().map(|p| p.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 12);
    }
}
