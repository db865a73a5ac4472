//! Cross-crate semantic checks of the strategy space: partitioning really
//! isolates, sharing really pools, and the hybrid allocator changes only
//! what it should.

use ssdkeeper_repro::flash_sim::{IoRequest, Op, SimArena, SimBuilder, SsdConfig};
use ssdkeeper_repro::parallel::PoolConfig;
use ssdkeeper_repro::ssdkeeper::label::{run_under_strategy, EvalConfig};
use ssdkeeper_repro::ssdkeeper::Strategy;
use ssdkeeper_repro::workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

fn eval() -> EvalConfig {
    EvalConfig {
        ssd: SsdConfig {
            blocks_per_plane: 64,
            pages_per_block: 32,
            ..SsdConfig::paper_table1()
        },
        hybrid: false,
        pool: PoolConfig::with_workers(1),
    }
}

/// A victim tenant with light, periodic reads plus an aggressor tenant
/// hammering writes.
fn victim_aggressor_trace() -> Vec<IoRequest> {
    let victim = TenantSpec::synthetic("victim", 0.0, 2_000.0, 1 << 10);
    let aggressor = TenantSpec::synthetic("aggressor", 1.0, 90_000.0, 1 << 10);
    let v = generate_tenant_stream(&victim, 0, 500, 1);
    let a = generate_tenant_stream(&aggressor, 1, 20_000, 2);
    mix_chronological(&[v, a], usize::MAX)
}

#[test]
fn isolation_protects_the_victim_from_a_noisy_neighbor() {
    let trace = victim_aggressor_trace();
    let spaces = [1 << 10, 1 << 10];
    // rw chars: victim reads (1), aggressor writes (0).
    let shared = run_under_strategy(
        &trace,
        Strategy::Shared,
        &[1, 0],
        &spaces,
        &eval(),
        &mut SimArena::new(),
    )
    .unwrap();
    let isolated = run_under_strategy(
        &trace,
        Strategy::Isolated,
        &[1, 0],
        &spaces,
        &eval(),
        &mut SimArena::new(),
    )
    .unwrap();
    // The victim's reads must be dramatically faster when isolated from
    // the write-saturated aggressor (the paper's noisy-neighbor effect).
    let shared_victim = shared.tenants[0].read.mean_us();
    let isolated_victim = isolated.tenants[0].read.mean_us();
    assert!(
        isolated_victim * 5.0 < shared_victim,
        "isolated victim reads {isolated_victim:.1}us should be >=5x faster than shared {shared_victim:.1}us"
    );
}

#[test]
fn two_part_split_confines_tenants_to_their_groups() {
    // Write group gets 1 channel: its throughput collapses while the read
    // group (7 channels) is unaffected — observable through latencies.
    let trace = victim_aggressor_trace();
    let spaces = [1 << 10, 1 << 10];
    let w1 = run_under_strategy(
        &trace,
        Strategy::TwoPart { write_channels: 1 },
        &[1, 0],
        &spaces,
        &eval(),
        &mut SimArena::new(),
    )
    .unwrap();
    // Victim (read group, 7 channels) stays fast.
    assert!(
        w1.tenants[0].read.mean_us() < 300.0,
        "victim reads {:.1}us",
        w1.tenants[0].read.mean_us()
    );
    // Aggressor (write group, 1 channel at 90k IOPS) is fully saturated.
    assert!(
        w1.tenants[1].write.mean_us() > 10_000.0,
        "aggressor writes {:.1}us",
        w1.tenants[1].write.mean_us()
    );
}

#[test]
fn four_part_assignment_is_positional() {
    // Four identical read-only tenants; tenant 2 gets 5 channels under
    // [1,1,5,1] and must see the lowest read latency.
    let specs: Vec<TenantSpec> = (0..4)
        .map(|t| TenantSpec::synthetic(format!("t{t}"), 0.0, 25_000.0, 1 << 10))
        .collect();
    let streams: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(t, s)| generate_tenant_stream(s, t as u16, 4_000, 5 + t as u64))
        .collect();
    let trace = mix_chronological(&streams, 14_000);
    let report = run_under_strategy(
        &trace,
        Strategy::FourPart([1, 1, 5, 1]),
        &[1, 1, 1, 1],
        &[1 << 10; 4],
        &eval(),
        &mut SimArena::new(),
    )
    .unwrap();
    let reads: Vec<f64> = report.tenants.iter().map(|t| t.read.mean_us()).collect();
    for (i, &r) in reads.iter().enumerate() {
        if i != 2 {
            assert!(
                reads[2] < r,
                "tenant 2 (5 channels) should beat tenant {i}: {reads:?}"
            );
        }
    }
}

#[test]
fn all_42_strategies_complete_on_a_generic_mix() {
    let specs: Vec<TenantSpec> = vec![
        TenantSpec::synthetic("a", 0.9, 10_000.0, 1 << 10),
        TenantSpec::synthetic("b", 0.1, 10_000.0, 1 << 10),
        TenantSpec::synthetic("c", 0.8, 10_000.0, 1 << 10),
        TenantSpec::synthetic("d", 0.2, 10_000.0, 1 << 10),
    ];
    let streams: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(t, s)| generate_tenant_stream(s, t as u16, 500, 31 + t as u64))
        .collect();
    let trace = mix_chronological(&streams, 2_000);
    for strategy in Strategy::all_for_tenants(4) {
        let report = run_under_strategy(
            &trace,
            strategy,
            &[0, 1, 0, 1],
            &[1 << 10; 4],
            &eval(),
            &mut SimArena::new(),
        )
        .unwrap_or_else(|e| panic!("{strategy} failed: {e}"));
        assert_eq!(report.total.count, 2_000, "{strategy} lost requests");
    }
}

#[test]
fn reads_follow_data_after_reallocation() {
    // Write everything to channel 0, re-allocate the tenant to channel 7,
    // then read the old data: the reads must still succeed (they follow
    // the mapping table) and new writes must not conflict with them.
    use ssdkeeper_repro::flash_sim::sim::Reallocation;
    use ssdkeeper_repro::flash_sim::TenantLayout;

    let cfg = eval().ssd;
    let layout = TenantLayout::from_channel_lists(&[vec![0]], &cfg)
        .unwrap()
        .with_lpn_space_all(256);
    let mut arena = SimArena::new();
    let mut sim = SimBuilder::new(cfg, layout)
        .build_with_arena(&mut arena)
        .unwrap();
    sim.schedule_reallocation(Reallocation::new(1_000_000, vec![(0, vec![7], None)]))
        .unwrap();
    let mut trace: Vec<IoRequest> = (0..64)
        .map(|i| IoRequest::new(i, 0, Op::Write, i, 1, i * 1_000))
        .collect();
    // After the switch: read the old data and write new data concurrently.
    for i in 0..64u64 {
        trace.push(IoRequest::new(
            100 + i,
            0,
            Op::Read,
            i,
            1,
            2_000_000 + i * 1_000,
        ));
        trace.push(IoRequest::new(
            200 + i,
            0,
            Op::Write,
            128 + i,
            1,
            2_000_000 + i * 1_000,
        ));
    }
    trace.sort_by_key(|r| r.arrival_ns);
    for (i, r) in trace.iter_mut().enumerate() {
        r.id = i as u64;
    }
    let report = sim.run_reclaim(&trace, &mut arena).unwrap();
    assert_eq!(report.total.count as usize, trace.len());
    assert_eq!(report.read.count, 64);
}
