//! Fleet-level integration: determinism across worker counts, placement
//! sanity, the re-placement hook, and error surfacing.

use fleet::{run_fleet, FleetConfig, FleetError, StreamMode};
use parallel::PoolConfig;
use ssdkeeper::placement::DEVICE_SLOTS;

#[test]
fn smoke_scenario_runs_and_merges() {
    let outcome = run_fleet(&FleetConfig::smoke(7)).expect("smoke fleet runs");
    let cfg = FleetConfig::smoke(7);
    assert_eq!(outcome.summary.shards.len(), cfg.devices);
    // Every device hosts at least one tenant (tenants >= devices and the
    // packer fills empty bins first), and no slot exceeds the model cap.
    for shard in &outcome.summary.shards {
        assert!(!shard.slot_tenants.is_empty(), "device {}", shard.device);
        assert!(shard.slot_tenants.len() <= DEVICE_SLOTS);
        assert!(shard.events_processed > 0);
    }
    // All tenants placed exactly once.
    let placed: usize = (0..cfg.devices)
        .map(|d| outcome.placement.device_tenants(d).len())
        .sum();
    assert_eq!(placed, cfg.tenants);
    // The merged summary spans the global tenant/channel index ranges
    // and carries every host command of every shard.
    let merged_cmds: u64 =
        outcome.summary.merged.host_reads() + outcome.summary.merged.host_writes();
    let shard_cmds: u64 = outcome
        .summary
        .shards
        .iter()
        .map(|s| s.metrics.host_reads() + s.metrics.host_writes())
        .sum();
    assert_eq!(merged_cmds, shard_cmds);
    assert!(merged_cmds > 0);
    assert_eq!(
        outcome.summary.merged.channels.len(),
        cfg.devices * cfg.ssd.channels
    );
    // Shard-tagged timeline rows exist for every shard.
    let csv = outcome.summary.tagged_timeline_csv();
    for d in 0..cfg.devices {
        assert!(
            csv.lines().any(|l| l.starts_with(&format!("{d},"))),
            "no timeline rows for shard {d}"
        );
    }
}

/// The acceptance gate: one fleet seed, 1 vs 4 vs 8 workers — the whole
/// outcome must be byte-identical, and its value digest is pinned (the
/// same value verify.sh checks through the release `fleet` binary,
/// `tests/golden/fleet_smoke_digest.txt`).
#[test]
fn digest_is_identical_across_1_4_8_workers() {
    let outcome_at = |workers: usize| {
        run_fleet(&FleetConfig {
            pool: PoolConfig::with_workers(workers),
            ..FleetConfig::smoke(42)
        })
        .expect("fleet runs")
    };
    let w1 = outcome_at(1);
    let w4 = outcome_at(4);
    let w8 = outcome_at(8);
    assert_eq!(w1, w4);
    assert_eq!(w1, w8);
    let digest = w1.summary.digest();
    assert_eq!(digest, 0xf6a0_9ec6_454b_2c55, "got {digest:#018x}");
}

/// Satellite gate: the lazy stream path (regenerate per shard, never
/// hold the whole fleet's traffic) must be byte-identical to the eager
/// reference (the full outcome at 4 workers, the digest at 1 worker),
/// with the re-placement hook firing.
#[test]
fn lazy_and_eager_streams_produce_identical_digests() {
    let cfg_at = |mode: StreamMode, workers: usize| FleetConfig {
        stream_mode: mode,
        tail_threshold: 1.01,
        max_replacements: 2,
        pool: PoolConfig::with_workers(workers),
        ..FleetConfig::smoke(42)
    };
    assert_eq!(
        FleetConfig::smoke(42).stream_mode,
        StreamMode::Lazy,
        "lazy is the default"
    );
    let lazy = run_fleet(&cfg_at(StreamMode::Lazy, 4)).expect("lazy fleet runs");
    let eager = run_fleet(&cfg_at(StreamMode::Eager, 4)).expect("eager fleet runs");
    assert_eq!(lazy, eager);
    let lazy_w1 = run_fleet(&cfg_at(StreamMode::Lazy, 1)).expect("lazy fleet runs");
    assert_eq!(lazy.summary.digest(), lazy_w1.summary.digest());
}

/// Forcing an aggressive drift threshold exercises the re-placement
/// hook; its decisions must also be worker-count independent, and moved
/// tenants must actually change device.
#[test]
fn replacement_hook_is_deterministic_and_moves_tenants() {
    let cfg_at = |workers: usize| FleetConfig {
        tail_threshold: 1.01,
        max_replacements: 3,
        pool: PoolConfig::with_workers(workers),
        ..FleetConfig::smoke(3)
    };
    let a = run_fleet(&cfg_at(1)).expect("fleet runs");
    let b = run_fleet(&cfg_at(6)).expect("fleet runs");
    assert_eq!(a.replacements, b.replacements);
    assert_eq!(a.summary.digest(), b.summary.digest());
    assert!(
        !a.replacements.is_empty(),
        "a 1.01x drift bound must trigger at least one move"
    );
    for r in &a.replacements {
        assert_ne!(r.from, r.to);
    }
    let base = run_fleet(&FleetConfig {
        max_replacements: 0,
        ..cfg_at(1)
    })
    .expect("fleet runs");
    assert_ne!(
        base.summary.digest(),
        a.summary.digest(),
        "re-placement must change the outcome"
    );
}

#[test]
fn invalid_shapes_are_rejected() {
    let err = run_fleet(&FleetConfig::new(1, 3, 8)).unwrap_err();
    assert!(matches!(
        err,
        FleetError::Shape {
            tenants: 3,
            devices: 8
        }
    ));
    assert!(err.to_string().contains("3 tenants"));
    let mut cfg = FleetConfig::smoke(1);
    cfg.requests_per_tenant = 0;
    assert!(run_fleet(&cfg).is_err());
}
