//! Property tests over the whole simulator: for arbitrary (valid) traces
//! and layouts, conservation and latency bounds must hold.
//!
//! Cases are generated from fixed `simrng` seeds so failures reproduce
//! exactly; each property runs 48 seeded cases, mirroring the proptest
//! configuration this file previously used.

use simrng::{Rng, SimRng};
use ssdkeeper_repro::flash_sim::{
    IoRequest, Op, PageAllocPolicy, SimArena, SimBuilder, SimReport, SsdConfig, TenantLayout,
};

const CASES: u64 = 48;

/// One cold simulation: build from a fresh arena and run `trace`.
fn simulate(cfg: SsdConfig, layout: TenantLayout, trace: &[IoRequest]) -> SimReport {
    let mut arena = SimArena::new();
    SimBuilder::new(cfg, layout)
        .build_with_arena(&mut arena)
        .unwrap()
        .run_reclaim(trace, &mut arena)
        .unwrap()
}

fn test_cfg(plane_parallelism: bool) -> SsdConfig {
    SsdConfig {
        channels: 4,
        chips_per_channel: 2,
        dies_per_chip: 1,
        planes_per_die: 2,
        blocks_per_plane: 32,
        pages_per_block: 16,
        plane_parallelism,
        ..SsdConfig::small_test()
    }
}

/// A random, sorted, valid trace of up to 150 requests over two tenants,
/// fully determined by the RNG state.
fn arb_trace(rng: &mut SimRng) -> Vec<IoRequest> {
    let len = rng.gen_range(1usize..150);
    let mut trace: Vec<IoRequest> = (0..len)
        .map(|_| IoRequest {
            id: 0,
            tenant: rng.gen_range(0u16..2),
            op: if rng.gen() { Op::Read } else { Op::Write },
            lpn: rng.gen_range(0u64..512),
            size_pages: rng.gen_range(1u32..4),
            arrival_ns: rng.gen_range(0u64..2_000_000),
        })
        .collect();
    trace.sort_by_key(|r| r.arrival_ns);
    for (i, r) in trace.iter_mut().enumerate() {
        r.id = i as u64;
    }
    trace
}

/// Every request completes exactly once, per tenant and per class.
#[test]
fn conservation() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(seed);
        let trace = arb_trace(&mut rng);
        let plane_par: bool = rng.gen();
        let cfg = test_cfg(plane_par);
        let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(512);
        let report = simulate(cfg, layout, &trace);
        assert_eq!(report.total.count as usize, trace.len(), "seed {seed}");
        let reads = trace.iter().filter(|r| r.op == Op::Read).count() as u64;
        assert_eq!(report.read.count, reads, "seed {seed}");
        assert_eq!(
            report.write.count,
            trace.len() as u64 - reads,
            "seed {seed}"
        );
        let per_tenant: u64 = report
            .tenants
            .iter()
            .map(|t| t.read.count + t.write.count)
            .sum();
        assert_eq!(per_tenant, trace.len() as u64, "seed {seed}");
    }
}

/// No request finishes faster than its unloaded service time.
#[test]
fn latency_lower_bounds() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(1000 + seed);
        let trace = arb_trace(&mut rng);
        let cfg = test_cfg(true);
        let transfer = cfg.page_transfer_ns();
        let read_min = cfg.read_latency_ns + transfer;
        let write_min = transfer + cfg.write_latency_ns;
        let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(512);
        let report = simulate(cfg, layout, &trace);
        if report.read.count > 0 {
            assert!(report.read.min_ns >= read_min, "seed {seed}");
        }
        if report.write.count > 0 {
            assert!(report.write.min_ns >= write_min, "seed {seed}");
        }
        // Makespan is at least the last arrival plus one service time.
        let last = trace.last().unwrap().arrival_ns;
        assert!(report.makespan_ns > last, "seed {seed}");
    }
}

/// Dynamic allocation changes placement, never correctness.
#[test]
fn dynamic_policy_preserves_conservation() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(2000 + seed);
        let trace = arb_trace(&mut rng);
        let cfg = test_cfg(true);
        let layout = TenantLayout::shared(2, &cfg)
            .with_lpn_space_all(512)
            .with_policy(0, PageAllocPolicy::Dynamic)
            .with_policy(1, PageAllocPolicy::Dynamic);
        let report = simulate(cfg, layout, &trace);
        assert_eq!(report.total.count as usize, trace.len(), "seed {seed}");
        // Breakdown accounting is per page-command; request latency is the
        // max over a request's commands. They coincide for single-page
        // traces and the command-level total can only be larger otherwise.
        let breakdown = report.read_breakdown.total_ns() + report.write_breakdown.total_ns();
        let latency_sums = report.read.sum_ns + report.write.sum_ns;
        if trace.iter().all(|r| r.size_pages == 1) {
            assert_eq!(breakdown, latency_sums, "seed {seed}");
        } else {
            assert!(breakdown >= latency_sums, "seed {seed}");
        }
    }
}

/// Isolated tenants never interact: tenant 0's report is identical
/// whether tenant 1's trace exists or not.
#[test]
fn isolation_is_complete() {
    for seed in 0..CASES {
        let mut rng = SimRng::seed_from_u64(3000 + seed);
        let trace = arb_trace(&mut rng);
        let cfg = test_cfg(true);
        let t0_only: Vec<IoRequest> = trace
            .iter()
            .filter(|r| r.tenant == 0)
            .cloned()
            .enumerate()
            .map(|(i, mut r)| {
                r.id = i as u64;
                r
            })
            .collect();
        if t0_only.is_empty() {
            continue;
        }

        let run_pair = |tr: &[IoRequest]| {
            let layout = TenantLayout::isolated(2, &cfg).with_lpn_space_all(512);
            simulate(cfg.clone(), layout, tr)
        };
        let with_neighbor = run_pair(&trace);
        let alone = run_pair(&t0_only);
        assert_eq!(
            with_neighbor.tenants[0].read.sum_ns, alone.tenants[0].read.sum_ns,
            "seed {seed}"
        );
        assert_eq!(
            with_neighbor.tenants[0].write.sum_ns, alone.tenants[0].write.sum_ns,
            "seed {seed}"
        );
    }
}
