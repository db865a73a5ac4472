//! The label sweep's obs counters report its size: with host tracing
//! compiled in, one `evaluate_all_sized` adds exactly the `SweepSize` it
//! returns to `label.{group,joint}_{runs,requests}`.
//!
//! Only compiled with host tracing on:
//! `cargo test -p exp --features host-trace --test label_counters`.
//! Integration tests get their own process, and this file holds one
//! test, so the global counters start at zero.
#![cfg(feature = "host-trace")]

use ssdkeeper::label::{evaluate_all_sized, EvalConfig};
use ssdkeeper::learner::{DatasetSpec, Learner};

#[test]
fn label_counters_match_the_sweep_size() {
    assert!(obs::ENABLED, "host-trace must enable obs");
    let spec = DatasetSpec::quick(1);
    let learner = Learner::new(spec.clone());
    let mut rng = simrng::SimRng::seed_from_u64(5);
    let (trace, _) = learner.sample_mixed_workload(&mut rng);
    let eval = EvalConfig {
        pool: parallel::PoolConfig::with_workers(1),
        ..spec.eval
    };
    let spaces = [spec.lpn_space; 4];
    let (_, size) = evaluate_all_sized(&trace, 4, &spaces, &eval).unwrap();

    let snap = obs::counters::snapshot();
    assert_eq!(snap.counter("label.group_runs"), Some(size.group_runs));
    assert_eq!(
        snap.counter("label.group_requests"),
        Some(size.group_requests)
    );
    assert_eq!(snap.counter("label.joint_runs"), Some(42));
    assert_eq!(
        snap.counter("label.joint_requests"),
        Some(42 * trace.len() as u64)
    );
    assert!(size.group_runs < 42 && size.group_requests < 42 * trace.len() as u64);
}
