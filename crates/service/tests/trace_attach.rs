//! `trace`-feature integration: a degraded wave ships with the timeline
//! of the session that failed it, and a failed pipelined window's
//! timeline travels on the drain report (satellite of PR 8's pluggable
//! scheduling policies — the same plumbing also tags every timeline with
//! the session's policy label).

#![cfg(feature = "trace")]

use std::sync::Arc;
use std::time::Duration;

use pf_rt::{Runtime, SchedPolicy};
use pf_service::{Fault, Request, ServiceConfig, SetService, ShardMap};

fn service(sched: SchedPolicy) -> SetService<i64> {
    let cfg = ServiceConfig {
        threads: 2,
        window: 8,
        deadline: Some(Duration::from_millis(400)),
        sched,
        ..ServiceConfig::default()
    };
    // A private runtime: the pool-wide last-trace slot must not race
    // other tests on the shared pool.
    SetService::with_runtime(
        Arc::new(Runtime::new(2)),
        ShardMap::uniform(1, 0, 1_000),
        cfg,
    )
}

#[test]
fn degraded_wave_ships_with_its_timeline() {
    let svc = service(SchedPolicy::default());
    svc.submit(Request::insert(vec![(1, 1), (2, 2)]).tagged(0));
    svc.submit(
        Request::insert((0..40).map(|i| (10 + i, 1)).collect())
            .faulty(Fault::Panic)
            .tagged(1),
    );
    svc.submit(Request::insert(vec![(500, 1)]).tagged(2));
    let report = svc.pump();
    assert!(report.degraded >= 1, "the poisoned wave must degrade");
    assert!(report.served >= 1, "healthy waves must replay and serve");

    // The faulty request is isolated into its own wave, so the window
    // holds several waves: its failed session's timeline lands on the
    // report, captured before the replay sessions overwrite the slot.
    assert!(
        !report.window_traces.is_empty(),
        "a failed window's timeline must ship with the report"
    );
    assert!(report.window_traces[0].events() > 0);

    // The degraded wave itself carries its replay session's timeline.
    let degraded = report
        .outcomes
        .iter()
        .find(|o| !o.served)
        .expect("a degraded outcome");
    let tr = degraded
        .trace
        .as_ref()
        .expect("degraded wave must carry its failed session's trace");
    assert!(tr.events() > 0);
    assert_eq!(tr.policy, SchedPolicy::default().label());

    // Served waves carry no timeline — diagnosis is for failures.
    assert!(report
        .outcomes
        .iter()
        .filter(|o| o.served)
        .all(|o| o.trace.is_none()));
}

#[test]
fn session_traces_are_tagged_with_the_configured_policy() {
    let sched = SchedPolicy {
        steal: pf_rt::StealKind::Half,
        victim: pf_rt::VictimSelect::LastVictimFirst,
        resume: pf_rt::ResumePlace::Mailbox,
    };
    let svc = service(sched);
    svc.submit(Request::insert((0..200).map(|i| (i, 1)).collect()).tagged(0));
    svc.submit(Request::insert(vec![(7, 7)]).faulty(Fault::Panic).tagged(1));
    let report = svc.pump();
    assert!(report.degraded >= 1);
    let degraded = report.outcomes.iter().find(|o| !o.served).unwrap();
    let tr = degraded.trace.as_ref().expect("timeline attached");
    assert_eq!(
        tr.policy,
        sched.label(),
        "apply sessions must run under the configured scheduling policy"
    );
    // Healthy keys committed despite the non-default policy.
    assert_eq!(svc.shard_keys(0).len(), 200);
}
