//! MSR-Cambridge-like trace synthesizers (Table II substitution).
//!
//! The paper evaluates on six MSR-Cambridge block traces. Those traces are
//! not redistributable data files, so this module provides synthesizers
//! parameterized to the published characteristics:
//!
//! | Workload | Write ratio | Request count | Flavour                    |
//! |----------|-------------|---------------|----------------------------|
//! | mds_0    | 88 %        | 1 211 034     | media server metadata — small random writes |
//! | mds_1    | 7 %         | 1 637 711     | media server data — sequential reads |
//! | rsrch_0  | 91 %        | 1 433 654     | research projects — small random writes |
//! | prxy_0   | 97 %        | 12 518 968    | firewall/web proxy — intense small writes |
//! | src_1    | 5 %         | 45 746 222    | source control — very intense reads |
//! | web_2    | 1 %         | 5 175 367     | web server — sequential reads |
//!
//! Relative intensities follow the request counts: when four tenants are
//! mixed over a common wall-clock horizon, each contributes requests in
//! proportion to its Table II count, which is what reproduces the
//! per-mix feature vectors of Table V.

use crate::spec::{AddressPattern, ArrivalProcess, SizeDist, TenantSpec};

/// The six evaluated MSR-like workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsrTrace {
    /// Media server 0: write-dominated metadata traffic.
    Mds0,
    /// Media server 1: read-dominated streaming.
    Mds1,
    /// Research projects volume: write-dominated.
    Rsrch0,
    /// Web proxy: extremely write-dominated and intense.
    Prxy0,
    /// Source control: read-dominated, the most intense trace.
    Src1,
    /// Web server: almost pure reads.
    Web2,
}

impl MsrTrace {
    /// All six traces in Table II order.
    pub const ALL: [MsrTrace; 6] = [
        MsrTrace::Mds0,
        MsrTrace::Mds1,
        MsrTrace::Rsrch0,
        MsrTrace::Prxy0,
        MsrTrace::Src1,
        MsrTrace::Web2,
    ];

    /// Trace name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            MsrTrace::Mds0 => "mds_0",
            MsrTrace::Mds1 => "mds_1",
            MsrTrace::Rsrch0 => "rsrch_0",
            MsrTrace::Prxy0 => "prxy_0",
            MsrTrace::Src1 => "src_1",
            MsrTrace::Web2 => "web_2",
        }
    }

    /// Write ratio from Table II.
    pub fn write_ratio(self) -> f64 {
        match self {
            MsrTrace::Mds0 => 0.88,
            MsrTrace::Mds1 => 0.07,
            MsrTrace::Rsrch0 => 0.91,
            MsrTrace::Prxy0 => 0.97,
            MsrTrace::Src1 => 0.05,
            MsrTrace::Web2 => 0.01,
        }
    }

    /// Request count from Table II (full original trace).
    pub fn request_count(self) -> u64 {
        match self {
            MsrTrace::Mds0 => 1_211_034,
            MsrTrace::Mds1 => 1_637_711,
            MsrTrace::Rsrch0 => 1_433_654,
            MsrTrace::Prxy0 => 12_518_968,
            MsrTrace::Src1 => 45_746_222,
            MsrTrace::Web2 => 5_175_367,
        }
    }

    /// Relative intensity versus the lightest trace (mds_0 ≈ 1.0).
    pub fn relative_intensity(self) -> f64 {
        self.request_count() as f64 / MsrTrace::Mds0.request_count() as f64
    }

    /// Builds the tenant spec for this trace.
    ///
    /// `base_iops` is the arrival rate assigned to the lightest trace
    /// (mds_0); heavier traces scale up proportionally to their Table II
    /// request counts. `lpn_space` bounds the tenant's logical footprint
    /// (scaled down from the original volumes so sweep-sized simulated
    /// devices hold the working sets).
    pub fn spec(self, base_iops: f64, lpn_space: u64) -> TenantSpec {
        let (pattern, size, arrival): (AddressPattern, SizeDist, ArrivalProcess) = match self {
            // Write-heavy server volumes: skewed small random I/O, bursty.
            MsrTrace::Mds0 | MsrTrace::Rsrch0 => (
                AddressPattern::Zipf { theta: 0.8 },
                SizeDist::Uniform { min: 1, max: 2 },
                ArrivalProcess::OnOff {
                    on_fraction: 0.4,
                    burst_len: 32,
                },
            ),
            // Proxy: hottest write set, steadier arrival.
            MsrTrace::Prxy0 => (
                AddressPattern::Zipf { theta: 0.9 },
                SizeDist::Fixed(1),
                ArrivalProcess::Poisson,
            ),
            // Read-heavy streaming/web: sequential runs, larger requests.
            MsrTrace::Mds1 | MsrTrace::Web2 => (
                AddressPattern::SequentialRuns { run_len: 16 },
                SizeDist::Uniform { min: 2, max: 4 },
                ArrivalProcess::Poisson,
            ),
            // Source control: mixed sequential/random reads, intense.
            MsrTrace::Src1 => (
                AddressPattern::SequentialRuns { run_len: 8 },
                SizeDist::Uniform { min: 1, max: 4 },
                ArrivalProcess::OnOff {
                    on_fraction: 0.5,
                    burst_len: 64,
                },
            ),
        };
        TenantSpec {
            name: self.name().to_string(),
            write_ratio: self.write_ratio(),
            iops: base_iops * self.relative_intensity(),
            arrival,
            pattern,
            size,
            lpn_space,
        }
    }
}

/// The paper's four evaluation mixes (Table IV), in tenant order.
pub(crate) fn paper_mixes() -> [(&'static str, [MsrTrace; 4]); 4] {
    [
        (
            "Mix1",
            [
                MsrTrace::Mds0,
                MsrTrace::Mds1,
                MsrTrace::Rsrch0,
                MsrTrace::Prxy0,
            ],
        ),
        (
            "Mix2",
            [
                MsrTrace::Prxy0,
                MsrTrace::Src1,
                MsrTrace::Rsrch0,
                MsrTrace::Mds1,
            ],
        ),
        (
            "Mix3",
            [
                MsrTrace::Web2,
                MsrTrace::Rsrch0,
                MsrTrace::Prxy0,
                MsrTrace::Mds0,
            ],
        ),
        (
            "Mix4",
            [
                MsrTrace::Rsrch0,
                MsrTrace::Web2,
                MsrTrace::Mds1,
                MsrTrace::Prxy0,
            ],
        ),
    ]
}

/// A mixed workload parameterized by what the paper's features collector
/// *observed* for it (Table V): the overall intensity level and the
/// per-tenant request shares.
///
/// Real traces are bursty, so a single per-trace rate cannot reproduce the
/// per-mix shares the paper reports (e.g. rsrch_0's share is 2 % of Mix2
/// but 65 % of Mix4). The shares and levels below are therefore taken
/// directly from Table V, while each tenant keeps its Table II write
/// ratio and access-pattern flavour — the most faithful reconstruction of
/// the evaluation inputs available without the raw traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixProfile {
    /// Mix name ("Mix1" … "Mix4").
    pub name: &'static str,
    /// The four member traces, in tenant order (Table IV).
    pub members: [MsrTrace; 4],
    /// Observed overall intensity level, 0–19 (Table V).
    pub intensity_level: u32,
    /// Observed per-tenant request shares (Table V; sums to 1).
    pub shares: [f64; 4],
}

impl MixProfile {
    /// Per-tenant IOPS implied by the profile, given the IOPS that
    /// saturates intensity level 19.
    pub fn tenant_iops(&self, max_total_iops: f64) -> [f64; 4] {
        let total = (self.intensity_level as f64 + 0.5) / 20.0 * max_total_iops;
        std::array::from_fn(|i| (total * self.shares[i]).max(1.0))
    }
}

/// The four mixes with their Table V observations.
pub fn paper_mix_profiles() -> [MixProfile; 4] {
    let mixes = paper_mixes();
    [
        MixProfile {
            name: mixes[0].0,
            members: mixes[0].1,
            intensity_level: 3,
            shares: [0.08, 0.09, 0.08, 0.75],
        },
        MixProfile {
            name: mixes[1].0,
            members: mixes[1].1,
            intensity_level: 18,
            shares: [0.21, 0.72, 0.02, 0.05],
        },
        MixProfile {
            name: mixes[2].0,
            members: mixes[2].1,
            intensity_level: 16,
            shares: [0.67, 0.26, 0.03, 0.04],
        },
        MixProfile {
            name: mixes[3].0,
            members: mixes[3].1,
            intensity_level: 17,
            shares: [0.65, 0.03, 0.27, 0.05],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate_tenant_stream, stream_stats};

    #[test]
    fn table2_constants_match_the_paper() {
        assert_eq!(MsrTrace::Mds0.write_ratio(), 0.88);
        assert_eq!(MsrTrace::Prxy0.request_count(), 12_518_968);
        assert_eq!(MsrTrace::Src1.name(), "src_1");
        assert_eq!(MsrTrace::ALL.len(), 6);
    }

    #[test]
    fn relative_intensity_is_anchored_at_mds0() {
        assert!((MsrTrace::Mds0.relative_intensity() - 1.0).abs() < 1e-12);
        assert!(MsrTrace::Src1.relative_intensity() > 30.0);
        assert!(MsrTrace::Prxy0.relative_intensity() > 10.0);
    }

    #[test]
    fn all_specs_validate() {
        for t in MsrTrace::ALL {
            t.spec(1_000.0, 1 << 14).validate().unwrap();
        }
    }

    #[test]
    fn generated_streams_match_table2_write_ratios() {
        for t in MsrTrace::ALL {
            let spec = t.spec(5_000.0, 1 << 14);
            let stream = generate_tenant_stream(&spec, 0, 8_000, 99);
            let stats = stream_stats(&stream);
            assert!(
                (stats.write_ratio - t.write_ratio()).abs() < 0.02,
                "{}: expected {}, measured {}",
                t.name(),
                t.write_ratio(),
                stats.write_ratio
            );
        }
    }

    #[test]
    fn read_dominance_matches_table2() {
        for t in MsrTrace::ALL {
            let spec = t.spec(1_000.0, 1 << 12);
            let expect_read = matches!(t, MsrTrace::Mds1 | MsrTrace::Src1 | MsrTrace::Web2);
            assert_eq!(spec.is_read_dominated(), expect_read, "{}", t.name());
        }
    }

    #[test]
    fn paper_mixes_match_table4() {
        let mixes = paper_mixes();
        assert_eq!(mixes[0].0, "Mix1");
        assert_eq!(mixes[0].1[0], MsrTrace::Mds0);
        assert_eq!(mixes[1].1[1], MsrTrace::Src1);
        assert_eq!(mixes[2].1[0], MsrTrace::Web2);
        assert_eq!(mixes[3].1[3], MsrTrace::Prxy0);
    }

    #[test]
    fn mix_profiles_match_table5() {
        let profiles = paper_mix_profiles();
        assert_eq!(profiles[0].intensity_level, 3);
        assert_eq!(profiles[1].intensity_level, 18);
        assert_eq!(profiles[2].shares, [0.67, 0.26, 0.03, 0.04]);
        for p in &profiles {
            let sum: f64 = p.shares.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{} shares sum to {sum}", p.name);
        }
    }

    #[test]
    fn tenant_iops_follow_level_and_shares() {
        let p = &paper_mix_profiles()[1]; // Mix2, level 18
        let iops = p.tenant_iops(120_000.0);
        let total: f64 = iops.iter().sum();
        assert!((total - 18.5 / 20.0 * 120_000.0).abs() < 5.0);
        // src_1 dominates Mix2.
        assert!(iops[1] > iops[0] && iops[1] > iops[2] && iops[1] > iops[3]);
    }

    #[test]
    fn intensity_scales_iops() {
        let light = MsrTrace::Mds0.spec(1_000.0, 1 << 12);
        let heavy = MsrTrace::Src1.spec(1_000.0, 1 << 12);
        assert!(heavy.iops > light.iops * 30.0);
    }
}
