//! Figure 5 + Tables IV/V — the end-to-end evaluation on MSR-like mixes.
//!
//! Builds Mix1–Mix4 (Table IV) from the MSR-like synthesizers, runs each
//! under `Shared`, `Isolated`, and SSDKeeper (with and without the hybrid
//! page allocator), prints the chosen strategies and features (Table V),
//! the per-mix write/read/total latencies normalized to `Shared`
//! (Figure 5a–c), and the overall-improvement summary (§V-C's 24 %
//! headline and the +2.1 % hybrid delta).

use crate::table::{f2, Table};
use flash_sim::{IoRequest, SimReport, SsdConfig};
use ssdkeeper::keeper::{Keeper, KeeperConfig, RunSpec};
use ssdkeeper::{ChannelAllocator, FeatureVector, Strategy};
use workloads::msr::{paper_mix_profiles, MixProfile, MsrTrace};
use workloads::{generate_tenant_stream, mix_chronological};

/// Parameters for the evaluation runs.
#[derive(Debug, Clone)]
pub struct Fig5Config {
    /// Requests taken per mixed trace (paper: 1 M).
    pub requests: usize,
    /// IOPS that saturate intensity level 19; must match the allocator's
    /// training calibration.
    pub max_total_iops: f64,
    /// Logical pages per tenant.
    pub lpn_space: u64,
    /// Device model.
    pub ssd: SsdConfig,
    /// Observation window T (ns).
    pub observe_window_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Self {
            requests: 100_000,
            max_total_iops: 120_000.0,
            lpn_space: 1 << 12,
            ssd: SsdConfig::scaled_for_sweeps(),
            observe_window_ns: 50_000_000,
            seed: 4242,
        }
    }
}

/// All reports for one mix.
#[derive(Debug, Clone)]
pub struct MixResult {
    /// Mix name ("Mix1"…"Mix4").
    pub name: &'static str,
    /// The four traces in tenant order.
    pub members: [MsrTrace; 4],
    /// Collector features at `t == T`.
    pub features: FeatureVector,
    /// SSDKeeper's chosen strategy.
    pub chosen: Strategy,
    /// Baseline: all channels shared.
    pub shared: SimReport,
    /// Baseline: channels split evenly.
    pub isolated: SimReport,
    /// The chosen strategy run from t=0 (steady state, the Figure 5
    /// comparison), without hybrid page allocation.
    pub keeper: SimReport,
    /// Steady state with hybrid page allocation.
    pub keeper_hybrid: SimReport,
    /// The full Algorithm 2 online run: Shared during the observation
    /// window, then a live switch to the chosen strategy. Phase-1 data
    /// stays where it was written, so this is a lower bound on the
    /// steady-state gain.
    pub keeper_online: SimReport,
}

impl MixResult {
    /// Total-latency improvement of SSDKeeper (no hybrid) over `Shared`,
    /// as a fraction (positive = better).
    pub(crate) fn improvement_vs_shared(&self) -> f64 {
        1.0 - self.keeper.total_latency_metric_us() / self.shared.total_latency_metric_us()
    }

    /// Extra improvement contributed by hybrid page allocation.
    pub(crate) fn hybrid_gain(&self) -> f64 {
        1.0 - self.keeper_hybrid.total_latency_metric_us() / self.keeper.total_latency_metric_us()
    }
}

/// Builds one mixed trace from a Table V profile: each tenant runs at the
/// IOPS implied by the observed shares and intensity level, keeps its
/// Table II write ratio and pattern flavour, and the streams are merged
/// chronologically and truncated to `cfg.requests` (§V-C).
pub fn build_mix(profile: &MixProfile, cfg: &Fig5Config) -> Vec<IoRequest> {
    let iops = profile.tenant_iops(cfg.max_total_iops);
    let streams: Vec<Vec<IoRequest>> = profile
        .members
        .iter()
        .enumerate()
        .map(|(i, t)| {
            // Generate ~25% slack so the lightest tenant still covers the
            // merged horizon after truncation.
            let count = ((cfg.requests as f64 * profile.shares[i] * 1.25).ceil() as usize).max(8);
            let mut spec = t.spec(1.0, cfg.lpn_space);
            spec.iops = iops[i];
            generate_tenant_stream(&spec, i as u16, count, cfg.seed + i as u64 * 97)
        })
        .collect();
    mix_chronological(&streams, cfg.requests)
}

/// Runs all four mixes through the baselines and SSDKeeper.
pub fn run(cfg: &Fig5Config, allocator: &ChannelAllocator) -> Vec<MixResult> {
    paper_mix_profiles()
        .into_iter()
        .map(|profile| {
            let MixProfile { name, members, .. } = profile;
            let trace = build_mix(&profile, cfg);
            let lpn_spaces = [cfg.lpn_space; 4];

            let keeper_cfg = |hybrid: bool| KeeperConfig {
                ssd: cfg.ssd.clone(),
                observe_window_ns: cfg.observe_window_ns,
                hybrid,
            };
            let keeper_plain = Keeper::new(keeper_cfg(false), allocator.clone());
            let keeper_hybrid = Keeper::new(keeper_cfg(true), allocator.clone());

            let shared = keeper_plain
                .run(RunSpec::fixed(&trace, &lpn_spaces, Strategy::Shared))
                .expect("shared baseline run")
                .report;
            let isolated = keeper_plain
                .run(RunSpec::fixed(&trace, &lpn_spaces, Strategy::Isolated))
                .expect("isolated baseline run")
                .report;
            // Algorithm 2 online run: observe, predict, live-switch.
            let online = keeper_plain
                .run(RunSpec::adapt_once(&trace, &lpn_spaces))
                .expect("online adaptive run");
            // Steady state: the predicted strategy applied from t=0 (the
            // paper's Figure 5 comparison).
            let steady = keeper_plain
                .run(RunSpec::fixed(&trace, &lpn_spaces, online.strategy))
                .expect("steady run")
                .report;
            let steady_hybrid = keeper_hybrid
                .run(RunSpec::fixed(&trace, &lpn_spaces, online.strategy))
                .expect("steady hybrid run")
                .report;

            MixResult {
                name,
                members,
                features: online
                    .features
                    .clone()
                    .expect("adapt-once always computes features"),
                chosen: online.strategy,
                shared,
                isolated,
                keeper: steady,
                keeper_hybrid: steady_hybrid,
                keeper_online: online.report,
            }
        })
        .collect()
}

/// Renders Table IV (mix membership) and Table V (features + chosen
/// strategy).
pub fn render_tables45(results: &[MixResult]) -> String {
    let mut t4 = Table::new(&["Mixed Workload", "Workloads"]);
    for r in results {
        let names: Vec<&str> = r.members.iter().map(|m| m.name()).collect();
        t4.row(vec![r.name.to_string(), names.join(", ")]);
    }
    let mut t5 = Table::new(&[
        "Mixed Workload",
        "Characteristics",
        "SSDKeeper Channel Allocation",
    ]);
    for r in results {
        t5.row(vec![
            r.name.to_string(),
            r.features.to_string(),
            r.chosen.to_string(),
        ]);
    }
    format!(
        "Table IV: mixed workloads\n{}\nTable V: features and chosen strategies\n{}",
        t4.render(),
        t5.render()
    )
}

/// Renders Figure 5(a,b,c): per-mix write/read/total latency normalized
/// to `Shared`.
pub fn render_fig5(results: &[MixResult]) -> String {
    type SeriesFn = fn(&SimReport) -> f64;
    let mut out = String::new();
    let series: [(&str, SeriesFn); 3] = [
        ("Figure 5(a): normalized WRITE latency", |r| {
            r.write.mean_us()
        }),
        ("Figure 5(b): normalized READ latency", |r| r.read.mean_us()),
        ("Figure 5(c): normalized TOTAL latency", |r| {
            r.total_latency_metric_us()
        }),
    ];
    for (title, f) in series {
        let mut t = Table::new(&["mix", "Shared", "Isolated", "SSDKeeper", "SSDKeeper+hybrid"]);
        for r in results {
            let base = f(&r.shared).max(1e-9);
            t.row(vec![
                r.name.to_string(),
                f2(f(&r.shared) / base),
                f2(f(&r.isolated) / base),
                f2(f(&r.keeper) / base),
                f2(f(&r.keeper_hybrid) / base),
            ]);
        }
        out.push_str(&format!("{title} (Shared = 1.00)\n{}\n", t.render()));
    }
    out
}

/// Renders the per-tenant read/write latency percentile table for the
/// SSDKeeper steady run next to the Shared baseline's tails. Percentiles
/// come from the reports' log₂ histograms (upper bucket edge, so values
/// err high by at most 2×) — the same estimator `ssdtrace summarize`
/// applies to captures.
pub fn render_percentiles(results: &[MixResult]) -> String {
    let tails = |s: &flash_sim::LatencyStats| {
        format!(
            "{}/{}/{}",
            f2(s.percentile_ns(0.50) as f64 / 1_000.0),
            f2(s.percentile_ns(0.95) as f64 / 1_000.0),
            f2(s.percentile_ns(0.99) as f64 / 1_000.0),
        )
    };
    let mut t = Table::new(&[
        "mix",
        "tenant",
        "read p50/p95/p99 (us)",
        "write p50/p95/p99 (us)",
        "Shared read p99",
        "Shared write p99",
    ]);
    for r in results {
        for (tenant, tr) in r.keeper.tenants.iter().enumerate() {
            let shared = &r.shared.tenants[tenant];
            t.row(vec![
                r.name.to_string(),
                format!("t{tenant}"),
                tails(&tr.read),
                tails(&tr.write),
                f2(shared.read.percentile_ns(0.99) as f64 / 1_000.0),
                f2(shared.write.percentile_ns(0.99) as f64 / 1_000.0),
            ]);
        }
    }
    format!(
        "Per-tenant latency percentiles, SSDKeeper steady run (log2-bucketed)\n{}",
        t.render()
    )
}

/// The §V-C headline numbers: per-mix improvement over Shared, the mean
/// over the mixes where SSDKeeper re-allocates, and the hybrid delta.
pub fn render_summary(results: &[MixResult]) -> String {
    let mut out = String::from("Summary (vs Shared baseline):\n");
    let mut gains = Vec::new();
    for r in results {
        let imp = r.improvement_vs_shared() * 100.0;
        let hyb = r.hybrid_gain() * 100.0;
        let online = (1.0
            - r.keeper_online.total_latency_metric_us() / r.shared.total_latency_metric_us())
            * 100.0;
        out.push_str(&format!(
            "  {}: chose {:<8} steady {:+.1}%  online {:+.1}%  (hybrid adds {:+.1}%)\n",
            r.name,
            r.chosen.to_string(),
            imp,
            online,
            hyb
        ));
        if r.chosen != Strategy::Shared {
            gains.push(r.improvement_vs_shared());
        }
    }
    if gains.is_empty() {
        out.push_str(
            "  mean improvement on re-allocated mixes: none re-allocated (counts as +0.0%) \
             (paper: ~24% over Mix2-4)\n",
        );
    } else {
        let mean = gains.iter().sum::<f64>() / gains.len() as f64 * 100.0;
        out.push_str(&format!(
            "  mean improvement on re-allocated mixes: {mean:.1}% (paper: ~24% over Mix2-4)\n"
        ));
    }
    let hybrid_mean =
        results.iter().map(MixResult::hybrid_gain).sum::<f64>() / results.len() as f64 * 100.0;
    out.push_str(&format!(
        "  mean hybrid page-allocation gain: {hybrid_mean:+.1}% (paper: +2.1%)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::{Activation, Network};
    use parallel::PoolConfig;

    fn tiny_cfg() -> Fig5Config {
        Fig5Config {
            requests: 2_000,
            max_total_iops: 120_000.0,
            lpn_space: 1 << 10,
            ssd: SsdConfig {
                blocks_per_plane: 64,
                pages_per_block: 32,
                ..SsdConfig::paper_table1()
            },
            observe_window_ns: 5_000_000,
            seed: 1,
        }
    }

    fn untrained_allocator() -> ChannelAllocator {
        let _ = PoolConfig::with_workers(1);
        ChannelAllocator::new(Network::paper_topology(Activation::Logistic, 2), 120_000.0)
    }

    #[test]
    fn mixes_have_the_right_members_and_size() {
        let cfg = tiny_cfg();
        for profile in paper_mix_profiles() {
            let trace = build_mix(&profile, &cfg);
            assert_eq!(trace.len(), cfg.requests);
            assert!(trace.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
            // The tenant with the largest Table V share dominates.
            let mut counts = [0usize; 4];
            for r in &trace {
                counts[r.tenant as usize] += 1;
            }
            let heaviest = profile
                .shares
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            let max_count = counts.iter().copied().max().unwrap();
            assert_eq!(counts[heaviest], max_count, "{}", profile.name);
        }
    }

    #[test]
    fn full_pipeline_runs_and_renders() {
        let cfg = tiny_cfg();
        let results = run(&cfg, &untrained_allocator());
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.shared.total.count as usize, cfg.requests);
            assert_eq!(r.keeper.total.count as usize, cfg.requests);
        }
        let t = render_tables45(&results);
        assert!(t.contains("Mix1") && t.contains("Table V"));
        let f = render_fig5(&results);
        assert!(f.contains("Figure 5(c)"));
        let s = render_summary(&results);
        assert!(s.contains("mean hybrid"));
        // A run that keeps Shared everywhere still prints the mean line.
        let kept: Vec<MixResult> = results
            .iter()
            .cloned()
            .map(|r| MixResult {
                chosen: Strategy::Shared,
                ..r
            })
            .collect();
        assert!(render_summary(&kept).contains(
            "mean improvement on re-allocated mixes: none re-allocated (counts as +0.0%)"
        ));
        let p = render_percentiles(&results);
        assert!(p.contains("p50/p95/p99"));
        // One row per (mix, tenant) plus the header lines.
        assert!(p.matches("Mix1").count() == 4 && p.matches("t3").count() == 4);
    }
}
