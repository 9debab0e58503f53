//! E21 — per-policy scheduler curves (the pluggable-policies PR;
//! DESIGN.md "Scheduler policies").
//!
//! Extends the E12 scaling sweep across the full
//! [`pf_rt::SchedPolicy::matrix`]: all 12 combinations of steal
//! granularity × victim selection × resume placement,
//! each measured at t = 1/4/8 on the treap-union and 2-6 bulk-insert
//! DAGs. Steal and suspend counts come from the exact
//! [`pf_rt::TraceStats`] counters (never sampled, never dropped); the
//! deviations column is the `steals + suspends` proxy for schedule
//! deviations.
//!
//! Requires the runtime's tracing layer:
//!
//! ```text
//! cargo run --release -p pf-bench --features trace --bin e21_policies
//! ```
//!
//! Without `--features trace` the binary prints that rebuild hint and
//! exits successfully (so blanket experiment sweeps don't fail).
//!
//! Usage: `e21_policies [ci]` — `ci` shrinks sizes for the CI smoke.

fn main() {
    #[cfg(not(feature = "trace"))]
    eprintln!(
        "e21_policies needs the runtime's tracing layer compiled in; rebuild with\n  \
         cargo run --release -p pf-bench --features trace --bin e21_policies"
    );
    #[cfg(feature = "trace")]
    run();
}

#[cfg(feature = "trace")]
fn run() {
    let arg = std::env::args().nth(1);
    let ci = matches!(arg.as_deref(), Some("ci") | Some("--ci"));
    let (lg_n, threads, reps): (u32, Vec<usize>, usize) = if ci {
        (9, vec![1, 2], 1)
    } else {
        (14, vec![1, 4, 8], 3)
    };

    for t in pf_bench::exp_rt::e21_policy_sweep(lg_n, &threads, reps) {
        t.print();
    }
    println!(
        "note: this host has {} CPU(s); cross-policy *count* differences are the \
         signal here, wall-clock separations need real cores",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
}
