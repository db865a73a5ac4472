//! Simulator micro-benchmarks: event-processing throughput, allocation
//! policies, FTL write path, and trace codec.

use bench::harness::Group;
use bench::{bench_ssd, simulate};
use flash_sim::ftl::Ftl;
use flash_sim::trace::{decode_trace, encode_trace};
use flash_sim::{IoRequest, Op, PageAllocPolicy, TenantLayout};

fn sequential_write_trace(n: u64) -> Vec<IoRequest> {
    (0..n)
        .map(|i| IoRequest::new(i, 0, Op::Write, i % 1024, 1, i * 12_000))
        .collect()
}

fn mixed_trace(n: u64) -> Vec<IoRequest> {
    (0..n)
        .map(|i| {
            let op = if i % 4 == 0 { Op::Write } else { Op::Read };
            IoRequest::new(
                i,
                (i % 2) as u16,
                op,
                (i * 13) % 1024,
                1 + (i % 3) as u32,
                i * 9_000,
            )
        })
        .collect()
}

fn engine_throughput() {
    let mut group = Group::new("engine");
    for &n in &[2_000u64, 10_000] {
        let trace = mixed_trace(n);
        group.throughput(n);
        group.bench(&format!("mixed_requests/{n}"), || {
            let cfg = bench_ssd();
            let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(1 << 10);
            simulate(cfg, layout, &trace)
        });
    }
    group.finish();
}

fn allocation_policies() {
    let mut group = Group::new("page_allocation");
    group.sample_size(20);
    for policy in [PageAllocPolicy::Static, PageAllocPolicy::Dynamic] {
        let trace = sequential_write_trace(5_000);
        group.bench(&format!("{policy}"), || {
            let cfg = bench_ssd();
            let layout = TenantLayout::shared(1, &cfg)
                .with_lpn_space_all(1 << 10)
                .with_policy(0, policy);
            simulate(cfg, layout, &trace)
        });
    }
    group.finish();
}

fn ftl_write_path() {
    let mut group = Group::new("ftl");
    group.throughput(10_000);
    let cfg = bench_ssd();
    let layout = TenantLayout::shared(1, &cfg).with_lpn_space_all(1 << 10);
    group.bench("page_writes_with_gc", || {
        let mut ftl = Ftl::new(&cfg, &layout);
        for i in 0..10_000u64 {
            ftl.write(0, i % 1024, (i % 64) as usize).unwrap();
        }
        ftl.stats()
    });
    group.finish();
}

fn trace_codec() {
    let trace = mixed_trace(10_000);
    let encoded = encode_trace(&trace);
    let mut group = Group::new("trace_codec");
    group.throughput(10_000);
    group.bench("encode", || encode_trace(&trace));
    group.bench("decode", || decode_trace(&encoded).unwrap());
    group.finish();
}

fn main() {
    engine_throughput();
    allocation_policies();
    ftl_write_path();
    trace_codec();
}
