//! The real-trace path end to end: MSR CSV text → block records →
//! page requests → profile → simulator → keeper. Uses an in-memory CSV
//! standing in for a downloaded MSR-Cambridge file.

use ssdkeeper_repro::flash_sim::{
    IoRequest, SimArena, SimBuilder, SimReport, SsdConfig, TenantLayout,
};
use ssdkeeper_repro::workloads::{
    mix_chronological, parse_msr_csv, profile, to_page_requests, ReplayConfig,
};

/// One cold simulation: build from a fresh arena and run `trace`.
fn simulate(cfg: SsdConfig, layout: TenantLayout, trace: &[IoRequest]) -> SimReport {
    let mut arena = SimArena::new();
    SimBuilder::new(cfg, layout)
        .build_with_arena(&mut arena)
        .unwrap()
        .run_reclaim(trace, &mut arena)
        .unwrap()
}

/// Builds a small MSR-style CSV: a read-heavy stream with sequential runs
/// and an interleaved writer.
fn synthetic_csv() -> String {
    let mut out = String::from("Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n");
    let base: u64 = 128_166_372_000_000_000;
    for i in 0..400u64 {
        // Reader: 32 KB sequential reads every 50 µs (500 ticks).
        out.push_str(&format!(
            "{},web,0,Read,{},32768,100\n",
            base + i * 500,
            (i % 64) * 32_768
        ));
        // Writer: 16 KB random-ish writes every 200 µs.
        if i % 4 == 0 {
            out.push_str(&format!(
                "{},prxy,0,Write,{},16384,100\n",
                base + i * 500 + 100,
                ((i * 7919) % 128) * 16_384
            ));
        }
    }
    out
}

#[test]
fn csv_replay_profiles_and_simulates() {
    let csv = synthetic_csv();
    let records = parse_msr_csv(&csv).unwrap();
    assert_eq!(records.len(), 500);

    // Split per host into tenants.
    let readers: Vec<_> = records
        .iter()
        .filter(|r| r.host == "web")
        .cloned()
        .collect();
    let writers: Vec<_> = records
        .iter()
        .filter(|r| r.host == "prxy")
        .cloned()
        .collect();
    let mut cfg0 = ReplayConfig::new(0);
    cfg0.lpn_space = 1 << 10;
    let mut cfg1 = ReplayConfig::new(1);
    cfg1.lpn_space = 1 << 10;
    let t0 = to_page_requests(&readers, &cfg0);
    let t1 = to_page_requests(&writers, &cfg1);

    // Profiles reflect the constructed characteristics.
    let p0 = profile(&t0, None).unwrap();
    assert_eq!(p0.write_ratio, 0.0);
    assert!(
        p0.sequentiality > 0.5,
        "sequential reads: {}",
        p0.sequentiality
    );
    assert!((p0.mean_size_pages - 2.0).abs() < 1e-9, "32 KB = 2 pages");
    let p1 = profile(&t1, None).unwrap();
    assert_eq!(p1.write_ratio, 1.0);

    // Mix and drive the simulator.
    let mixed = mix_chronological(&[t0, t1], usize::MAX);
    assert_eq!(mixed.len(), 500);
    let ssd = SsdConfig {
        blocks_per_plane: 64,
        pages_per_block: 32,
        ..SsdConfig::paper_table1()
    };
    let layout = TenantLayout::shared(2, &ssd).with_lpn_space_all(1 << 10);
    let report = simulate(ssd, layout, &mixed);
    assert_eq!(report.total.count, 500);
    assert_eq!(report.read.count, 400);
    assert_eq!(report.write.count, 100);
    // Reads are multi-page: command count exceeds request count.
    assert!(report.read_breakdown.cmds >= 800);
}

#[test]
fn time_compression_pushes_replay_into_contention() {
    let csv = synthetic_csv();
    let records = parse_msr_csv(&csv).unwrap();
    let run = |compression: f64| {
        let mut cfg = ReplayConfig::new(0);
        cfg.lpn_space = 1 << 10;
        cfg.time_compression = compression;
        let trace = to_page_requests(&records, &cfg);
        let ssd = SsdConfig {
            blocks_per_plane: 64,
            pages_per_block: 32,
            ..SsdConfig::paper_table1()
        };
        let layout = TenantLayout::shared(1, &ssd).with_lpn_space_all(1 << 10);
        simulate(ssd, layout, &trace)
    };
    let real_time = run(1.0);
    let compressed = run(50.0);
    assert!(
        compressed.read.mean_us() > real_time.read.mean_us(),
        "50x compression must raise contention: {} vs {}",
        compressed.read.mean_us(),
        real_time.read.mean_us()
    );
    // Conservation regardless of compression.
    assert_eq!(real_time.total.count, compressed.total.count);
}
