//! Shared fixtures and the timing harness for the benchmark targets.
//!
//! Each bench target regenerates (a scaled-down instance of) one paper
//! artefact; this crate centralizes the workload/model construction so the
//! benches measure simulation and inference, not setup. The [`harness`]
//! module provides the warmup-then-measure timing loop the `benches/`
//! binaries use in place of an external benchmark framework.

pub mod harness;
pub mod report;

use flash_sim::{IoRequest, SimArena, SimBuilder, SimReport, SsdConfig, TenantLayout};
use ssdkeeper::label::EvalConfig;
use ssdkeeper::learner::{DatasetSpec, LabelledDataset, Learner};
use ssdkeeper::{ChannelAllocator, FeatureVector};
use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

/// Device model used by benches: Table I timing with a small block count
/// so construction stays cheap.
pub fn bench_ssd() -> SsdConfig {
    SsdConfig {
        blocks_per_plane: 64,
        pages_per_block: 32,
        ..SsdConfig::paper_table1()
    }
}

/// One cold simulation: build from a fresh arena and run `trace`.
pub fn simulate(cfg: SsdConfig, layout: TenantLayout, trace: &[IoRequest]) -> SimReport {
    let mut arena = SimArena::new();
    SimBuilder::new(cfg, layout)
        .build_with_arena(&mut arena)
        .expect("bench device is valid")
        .run_reclaim(trace, &mut arena)
        .expect("bench trace runs clean")
}

/// A two-tenant writer/reader mix at the given write proportion.
pub fn two_tenant_mix(write_pct: u32, requests: usize, total_iops: f64) -> Vec<IoRequest> {
    let p = write_pct as f64 / 100.0;
    let writer = TenantSpec::synthetic("writer", 1.0, (total_iops * p).max(1.0), 1 << 10);
    let reader = TenantSpec::synthetic("reader", 0.0, (total_iops * (1.0 - p)).max(1.0), 1 << 10);
    let n_w = ((requests as f64) * p).round() as usize;
    let w = generate_tenant_stream(&writer, 0, n_w.max(1), 11);
    let r = generate_tenant_stream(&reader, 1, (requests - n_w).max(1), 22);
    mix_chronological(&[w, r], requests)
}

/// A four-tenant mixed trace with mixed dominances.
pub fn four_tenant_mix(requests: usize, total_iops: f64) -> Vec<IoRequest> {
    let ratios = [0.9, 0.1, 0.85, 0.05];
    let shares = [0.4, 0.3, 0.2, 0.1];
    let streams: Vec<Vec<IoRequest>> = ratios
        .iter()
        .zip(shares.iter())
        .enumerate()
        .map(|(t, (&wr, &share))| {
            let spec =
                TenantSpec::synthetic(format!("t{t}"), wr, (total_iops * share).max(1.0), 1 << 10);
            generate_tenant_stream(
                &spec,
                t as u16,
                (requests as f64 * share * 1.3) as usize,
                t as u64,
            )
        })
        .collect();
    mix_chronological(&streams, requests)
}

/// A tiny labelled dataset (enough rows to drive a training epoch).
pub fn tiny_dataset() -> LabelledDataset {
    let spec = DatasetSpec {
        samples: 24,
        requests_per_sample: 400,
        max_total_iops: 120_000.0,
        lpn_space: 1 << 10,
        label_tolerance: 0.01,
        eval: EvalConfig {
            ssd: bench_ssd(),
            hybrid: false,
            pool: parallel::PoolConfig::with_workers(1),
        },
    };
    Learner::new(spec).generate_dataset(17)
}

/// An (untrained but correctly shaped) channel allocator.
pub fn bench_allocator() -> ChannelAllocator {
    ChannelAllocator::new(
        ann::Network::paper_topology(ann::Activation::Logistic, 3),
        120_000.0,
    )
}

/// A representative feature vector for inference benches.
pub fn bench_features() -> FeatureVector {
    FeatureVector {
        intensity_level: 16,
        rw_char: [0, 1, 0, 1],
        shares: [0.4, 0.3, 0.2, 0.1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_construct() {
        assert_eq!(two_tenant_mix(30, 200, 50_000.0).len(), 200);
        assert_eq!(four_tenant_mix(200, 50_000.0).len(), 200);
        assert!(tiny_dataset().samples.len() == 24);
        let _ = bench_allocator().predict(&bench_features());
    }
}
