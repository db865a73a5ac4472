//! Figure 2 — the motivation study.
//!
//! Two tenants (one all-writes, one all-reads) share the 8-channel SSD
//! with a fixed total request count; the write proportion sweeps 10–90 %.
//! Every two-tenant strategy (Shared, Isolated, 7:1 … 1:7) is evaluated,
//! and write / read / total mean response latencies are reported,
//! normalized to `Shared` per column as in the paper's plots.

use crate::table::{f2, Table};
use flash_sim::SsdConfig;
use parallel::PoolConfig;
use ssdkeeper::label::{evaluate_all, EvalConfig, StrategyEval};
use ssdkeeper::Strategy;
use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

/// Parameters of the sweep.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Total requests per experiment point (paper: 2 M).
    pub requests: usize,
    /// Combined arrival rate of both tenants (IOPS).
    pub total_iops: f64,
    /// Logical pages per tenant.
    pub lpn_space: u64,
    /// Device model.
    pub ssd: SsdConfig,
    /// Worker threads for the strategy fan-out.
    pub pool: PoolConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Self {
            requests: 20_000,
            total_iops: 70_000.0,
            lpn_space: 1 << 12,
            ssd: SsdConfig::scaled_for_sweeps(),
            pool: PoolConfig::auto(),
            seed: 2020,
        }
    }
}

/// One sweep point: a write proportion and all strategy evaluations.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Write proportion in percent (10–90).
    pub write_pct: u32,
    /// Evaluations for the 8 two-tenant strategies, in label order.
    pub evals: Vec<StrategyEval>,
}

/// Runs the full sweep and returns one point per write proportion.
pub fn run(cfg: &Fig2Config) -> Vec<Fig2Point> {
    let eval = EvalConfig {
        ssd: cfg.ssd.clone(),
        hybrid: false,
        pool: cfg.pool,
    };
    (1..=9u32)
        .map(|step| {
            let write_pct = step * 10;
            let p = write_pct as f64 / 100.0;
            let writer =
                TenantSpec::synthetic("writer", 1.0, (cfg.total_iops * p).max(1.0), cfg.lpn_space);
            let reader = TenantSpec::synthetic(
                "reader",
                0.0,
                (cfg.total_iops * (1.0 - p)).max(1.0),
                cfg.lpn_space,
            );
            let n_w = ((cfg.requests as f64) * p).round() as usize;
            let n_r = cfg.requests - n_w;
            let w = generate_tenant_stream(&writer, 0, n_w.max(1), cfg.seed + step as u64);
            let r = generate_tenant_stream(&reader, 1, n_r.max(1), cfg.seed + 100 + step as u64);
            let trace = mix_chronological(&[w, r], cfg.requests);
            let evals = evaluate_all(&trace, 2, &[cfg.lpn_space, cfg.lpn_space], &eval)
                .expect("fig2 workloads stay within capacity");
            Fig2Point { write_pct, evals }
        })
        .collect()
}

/// Which latency series of a point to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Series {
    /// Figure 2(a): mean write latency.
    Write,
    /// Figure 2(b): mean read latency.
    Read,
    /// Figure 2(c): total (read mean + write mean).
    Total,
}

impl Series {
    fn value(self, e: &StrategyEval) -> f64 {
        match self {
            Series::Write => e.write_us,
            Series::Read => e.read_us,
            Series::Total => e.metric_us,
        }
    }

    /// Subplot title.
    pub(crate) fn title(self) -> &'static str {
        match self {
            Series::Write => "Figure 2(a): normalized WRITE latency (Shared = 1.00)",
            Series::Read => "Figure 2(b): normalized READ latency (Shared = 1.00)",
            Series::Total => "Figure 2(c): normalized TOTAL latency (Shared = 1.00)",
        }
    }
}

/// Renders one subplot as a table: rows = strategies, columns = write
/// proportions, cells normalized to `Shared`.
pub(crate) fn render_series(points: &[Fig2Point], series: Series) -> String {
    let strategies: Vec<Strategy> = points[0].evals.iter().map(|e| e.strategy).collect();
    let mut headers: Vec<String> = vec!["strategy".to_string()];
    headers.extend(points.iter().map(|p| format!("{}%", p.write_pct)));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    for (si, s) in strategies.iter().enumerate() {
        let mut row = vec![s.to_string()];
        for p in points {
            let shared = series.value(&p.evals[0]).max(1e-9); // index 0 = Shared
            row.push(f2(series.value(&p.evals[si]) / shared));
        }
        table.row(row);
    }
    format!("{}\n{}", series.title(), table.render())
}

/// The paper's headline: the max/min total-latency ratio across
/// strategies at a given write proportion ("up to 10.6×" at 50 %).
pub(crate) fn max_spread(points: &[Fig2Point]) -> (u32, f64) {
    let mut best = (0u32, 0.0f64);
    for p in points {
        let lo = p
            .evals
            .iter()
            .map(|e| e.metric_us)
            .fold(f64::INFINITY, f64::min);
        let hi = p.evals.iter().map(|e| e.metric_us).fold(0.0f64, f64::max);
        let ratio = hi / lo.max(1e-9);
        if ratio > best.1 {
            best = (p.write_pct, ratio);
        }
    }
    best
}

/// Prints all three subplots plus the spread summary.
pub fn print_report(points: &[Fig2Point]) {
    for series in [Series::Write, Series::Read, Series::Total] {
        println!("{}", render_series(points, series));
    }
    let (pct, ratio) = max_spread(points);
    println!(
        "max total-latency spread across strategies: {ratio:.1}x at write proportion {pct}% \
         (paper reports up to 10.6x at 50%)\n"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig2Config {
        Fig2Config {
            requests: 600,
            total_iops: 60_000.0,
            lpn_space: 1 << 10,
            ssd: SsdConfig {
                blocks_per_plane: 64,
                pages_per_block: 32,
                ..SsdConfig::paper_table1()
            },
            pool: PoolConfig::with_workers(1),
            seed: 7,
        }
    }

    #[test]
    fn sweep_produces_nine_points_of_eight_strategies() {
        let points = run(&tiny());
        assert_eq!(points.len(), 9);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.write_pct, (i as u32 + 1) * 10);
            assert_eq!(p.evals.len(), 8);
            assert_eq!(p.evals[0].strategy, Strategy::Shared);
        }
    }

    #[test]
    fn read_latency_improves_with_read_channels_at_low_write_pct() {
        let points = run(&tiny());
        // At 10% writes, the reader with 7 channels (1:7) must beat the
        // reader with 1 channel (7:1) on read latency.
        let p10 = &points[0];
        let read_of = |s: Strategy| p10.evals.iter().find(|e| e.strategy == s).unwrap().read_us;
        assert!(
            read_of(Strategy::TwoPart { write_channels: 1 })
                < read_of(Strategy::TwoPart { write_channels: 7 })
        );
    }

    #[test]
    fn rendering_has_expected_shape() {
        let points = run(&tiny());
        let s = render_series(&points, Series::Total);
        assert!(s.contains("Shared"));
        assert!(s.contains("90%"));
        // Shared's own column is exactly 1.00.
        let shared_line = s.lines().find(|l| l.contains("Shared")).unwrap();
        assert!(shared_line.contains("1.00"));
        let (_, ratio) = max_spread(&points);
        assert!(ratio >= 1.0);
    }
}
