//! Conflict analysis (§III, quantified).
//!
//! The paper argues access conflicts — requests blocked behind other
//! tenants' commands at chips and channels — are what channel allocation
//! removes. The simulator's per-phase breakdown measures exactly that:
//! for each strategy, the fraction of command time spent *waiting* at the
//! execution unit or the bus, split by class, plus GC interference.

use crate::table::{f2, Table};
use flash_sim::{SimArena, SsdConfig};
use parallel::PoolConfig;
use ssdkeeper::label::{run_under_strategy, EvalConfig};
use ssdkeeper::Strategy;
use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

/// Conflict metrics for one strategy.
#[derive(Debug, Clone)]
pub struct ConflictRow {
    /// The strategy measured.
    pub strategy: Strategy,
    /// Read conflict fraction (waiting share of read command time).
    pub read_conflict: f64,
    /// Write conflict fraction.
    pub write_conflict: f64,
    /// Mean read wait (µs/command).
    pub read_wait_us: f64,
    /// Mean write wait (µs/command).
    pub write_wait_us: f64,
    /// Highest/lowest bus utilization ratio.
    pub bus_imbalance: f64,
    /// Total-latency metric (for reference).
    pub total_us: f64,
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct ConflictConfig {
    /// Requests in the two-tenant mix.
    pub requests: usize,
    /// Combined arrival rate.
    pub total_iops: f64,
    /// Write proportion (0–1) of the mix.
    pub write_fraction: f64,
    /// Device model.
    pub ssd: SsdConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConflictConfig {
    fn default() -> Self {
        Self {
            requests: 20_000,
            total_iops: 70_000.0,
            write_fraction: 0.3,
            ssd: SsdConfig::scaled_for_sweeps(),
            seed: 33,
        }
    }
}

/// Measures every two-tenant strategy on a writer/reader mix.
pub fn run(cfg: &ConflictConfig) -> Vec<ConflictRow> {
    let lpn_space = 1u64 << 12;
    let p = cfg.write_fraction.clamp(0.01, 0.99);
    let writer = TenantSpec::synthetic("writer", 1.0, cfg.total_iops * p, lpn_space);
    let reader = TenantSpec::synthetic("reader", 0.0, cfg.total_iops * (1.0 - p), lpn_space);
    let n_w = ((cfg.requests as f64) * p) as usize;
    let w = generate_tenant_stream(&writer, 0, n_w.max(1), cfg.seed);
    let r = generate_tenant_stream(&reader, 1, (cfg.requests - n_w).max(1), cfg.seed + 1);
    let trace = mix_chronological(&[w, r], cfg.requests);

    let eval = EvalConfig {
        ssd: cfg.ssd.clone(),
        hybrid: false,
        pool: PoolConfig::auto(),
    };
    let mut arena = SimArena::new();
    Strategy::all_for_tenants(2)
        .into_iter()
        .map(|strategy| {
            let report = run_under_strategy(
                &trace,
                strategy,
                &[0, 1],
                &[lpn_space, lpn_space],
                &eval,
                &mut arena,
            )
            .expect("conflict sweep fits the device");
            ConflictRow {
                strategy,
                read_conflict: report.read_breakdown.conflict_fraction(),
                write_conflict: report.write_breakdown.conflict_fraction(),
                read_wait_us: report.read_breakdown.mean_wait_us(),
                write_wait_us: report.write_breakdown.mean_wait_us(),
                bus_imbalance: report.bus_imbalance(),
                total_us: report.total_latency_metric_us(),
            }
        })
        .collect()
}

/// Renders the conflict table.
pub fn render(rows: &[ConflictRow], cfg: &ConflictConfig) -> String {
    let mut t = Table::new(&[
        "strategy",
        "read conflict",
        "write conflict",
        "read wait us",
        "write wait us",
        "bus imbalance",
        "total us",
    ]);
    for r in rows {
        t.row(vec![
            r.strategy.to_string(),
            format!("{:.1}%", r.read_conflict * 100.0),
            format!("{:.1}%", r.write_conflict * 100.0),
            f2(r.read_wait_us),
            f2(r.write_wait_us),
            if r.bus_imbalance.is_finite() {
                f2(r.bus_imbalance)
            } else {
                "inf".to_string()
            },
            f2(r.total_us),
        ]);
    }
    format!(
        "Conflict analysis: waiting share of command time, 2 tenants at {:.0}% writes, {:.0} IOPS\n{}",
        cfg.write_fraction * 100.0,
        cfg.total_iops,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ConflictConfig {
        ConflictConfig {
            requests: 1_500,
            total_iops: 70_000.0,
            write_fraction: 0.3,
            ssd: SsdConfig {
                blocks_per_plane: 64,
                pages_per_block: 32,
                ..SsdConfig::paper_table1()
            },
            seed: 5,
        }
    }

    #[test]
    fn produces_a_row_per_strategy_with_sane_fractions() {
        let rows = run(&tiny());
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.read_conflict), "{}", r.strategy);
            assert!((0.0..=1.0).contains(&r.write_conflict));
            assert!(r.total_us > 0.0);
        }
    }

    #[test]
    fn under_provisioned_splits_show_more_conflict() {
        let rows = run(&tiny());
        let find = |s: Strategy| rows.iter().find(|r| r.strategy == s).unwrap();
        // At 30% writes, 1:7 squeezes the writer onto one channel: its
        // write conflict share must exceed Shared's.
        let squeezed = find(Strategy::TwoPart { write_channels: 1 });
        let shared = find(Strategy::Shared);
        assert!(
            squeezed.write_conflict > shared.write_conflict,
            "1:7 write conflict {:.3} vs shared {:.3}",
            squeezed.write_conflict,
            shared.write_conflict
        );
    }

    #[test]
    fn render_contains_all_strategies() {
        let cfg = tiny();
        let rows = run(&cfg);
        let s = render(&rows, &cfg);
        assert!(s.contains("Shared") && s.contains("1:7") && s.contains("conflict"));
    }
}
