//! Decision-quality analysis of a trained allocator against a labelled
//! dataset with per-strategy metrics (v2 datasets).
//!
//! Raw 42-class accuracy under-reports model quality when many strategies
//! are near-equivalent; these utilities quantify what matters instead:
//! the **latency regret** of each prediction, its distribution, how it
//! varies with intensity, and which strategy *families* get confused.

use crate::allocator::ChannelAllocator;
use crate::learner::LabelledDataset;
use crate::strategy::Strategy;

/// Distribution of per-sample prediction regret (fraction above optimal).
#[derive(Debug, Clone, PartialEq)]
pub struct RegretSummary {
    /// Samples scored (those carrying metrics).
    pub samples: usize,
    /// Mean regret.
    pub mean: f64,
    /// Median regret.
    pub p50: f64,
    /// 95th-percentile regret.
    pub p95: f64,
    /// Worst regret.
    pub max: f64,
    /// Fraction of predictions within 1 % of optimal.
    pub within_1pct: f64,
    /// Fraction within 5 %.
    pub within_5pct: f64,
    /// Fraction within 10 %.
    pub within_10pct: f64,
}

/// Per-sample regrets of the allocator's predictions; `None` when the
/// dataset carries no metrics.
pub(crate) fn prediction_regrets(
    allocator: &ChannelAllocator,
    dataset: &LabelledDataset,
) -> Option<Vec<f64>> {
    let classes = Strategy::all_for_tenants(4).len();
    let regrets: Vec<f64> = dataset
        .samples
        .iter()
        .filter(|s| s.metrics_us.len() == classes)
        .map(|s| {
            let predicted = allocator.predict(&s.features).index(4);
            let best = s.metrics_us.iter().copied().fold(f64::INFINITY, f64::min);
            (s.metrics_us[predicted] / best - 1.0).max(0.0)
        })
        .collect();
    (!regrets.is_empty()).then_some(regrets)
}

/// Summarizes the regret distribution; `None` without metrics.
pub fn regret_summary(
    allocator: &ChannelAllocator,
    dataset: &LabelledDataset,
) -> Option<RegretSummary> {
    let mut regrets = prediction_regrets(allocator, dataset)?;
    regrets.sort_by(|a, b| a.partial_cmp(b).expect("regrets are finite"));
    let n = regrets.len();
    let pick = |q: f64| regrets[((n as f64 - 1.0) * q).round() as usize];
    let frac_within = |tol: f64| regrets.iter().filter(|&&r| r <= tol).count() as f64 / n as f64;
    Some(RegretSummary {
        samples: n,
        mean: regrets.iter().sum::<f64>() / n as f64,
        p50: pick(0.5),
        p95: pick(0.95),
        max: regrets[n - 1],
        within_1pct: frac_within(0.01),
        within_5pct: frac_within(0.05),
        within_10pct: frac_within(0.10),
    })
}

/// Accuracy bucketed by intensity level: returns
/// `(level, samples, exact_accuracy, effective_accuracy)` rows for levels
/// with at least one sample.
pub fn accuracy_by_level(
    allocator: &ChannelAllocator,
    dataset: &LabelledDataset,
    rel_tol: f64,
) -> Vec<(u32, usize, f64, f64)> {
    let classes = Strategy::all_for_tenants(4).len();
    let mut buckets: Vec<(usize, usize, usize)> = vec![(0, 0, 0); 20]; // (n, exact, effective)
    for s in &dataset.samples {
        let level = s.features.intensity_level.min(19) as usize;
        let predicted = allocator.predict(&s.features).index(4);
        buckets[level].0 += 1;
        if predicted == s.label {
            buckets[level].1 += 1;
        }
        if s.metrics_us.len() == classes {
            let best = s.metrics_us.iter().copied().fold(f64::INFINITY, f64::min);
            if s.metrics_us[predicted] <= best * (1.0 + rel_tol) {
                buckets[level].2 += 1;
            }
        }
    }
    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, (n, _, _))| *n > 0)
        .map(|(level, (n, exact, eff))| {
            (
                level as u32,
                n,
                exact as f64 / n as f64,
                eff as f64 / n as f64,
            )
        })
        .collect()
}

/// Coarse strategy family for confusion analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The `Shared` strategy.
    Shared,
    /// `Isolated` or any two-part split.
    Partitioned2,
    /// Any four-part composition.
    Partitioned4,
}

impl Family {
    /// Family of a strategy.
    pub fn of(s: Strategy) -> Family {
        match s {
            Strategy::Shared => Family::Shared,
            Strategy::Isolated | Strategy::TwoPart { .. } => Family::Partitioned2,
            Strategy::FourPart(_) => Family::Partitioned4,
        }
    }

    /// Index 0..3 for confusion-matrix addressing.
    pub fn index(self) -> usize {
        match self {
            Family::Shared => 0,
            Family::Partitioned2 => 1,
            Family::Partitioned4 => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Shared => "Shared",
            Family::Partitioned2 => "2-part",
            Family::Partitioned4 => "4-part",
        }
    }
}

/// 3×3 family confusion matrix: `m[true_family][predicted_family]`.
pub fn family_confusion(
    allocator: &ChannelAllocator,
    dataset: &LabelledDataset,
) -> [[usize; 3]; 3] {
    let mut m = [[0usize; 3]; 3];
    for s in &dataset.samples {
        let truth = Family::of(s.best).index();
        let pred = Family::of(allocator.predict(&s.features)).index();
        m[truth][pred] += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureVector;
    use crate::learner::{LabelledSample, TrainedModel};
    use ann::train::TrainHistory;
    use ann::{Activation, Network};

    fn allocator() -> ChannelAllocator {
        TrainedModel {
            network: Network::paper_topology(Activation::Logistic, 19),
            max_total_iops: 120_000.0,
            history: TrainHistory::default(),
            test_indices: Vec::new(),
        }
        .allocator()
    }

    /// A dataset where every strategy has metric 100 except the label's 90:
    /// any wrong prediction costs exactly 11.1% regret.
    fn synthetic_dataset(n: usize) -> LabelledDataset {
        let samples = (0..n)
            .map(|i| {
                let label = i % 42;
                let mut metrics = vec![100.0f64; 42];
                metrics[label] = 90.0;
                LabelledSample {
                    features: FeatureVector {
                        intensity_level: (i % 20) as u32,
                        rw_char: [0, 1, 0, 1],
                        shares: [0.25; 4],
                    },
                    label,
                    best: Strategy::from_index(label, 4).unwrap(),
                    best_metric_us: 90.0,
                    metrics_us: metrics,
                }
            })
            .collect();
        LabelledDataset {
            samples,
            max_total_iops: 120_000.0,
        }
    }

    #[test]
    fn regrets_are_zero_or_the_constructed_gap() {
        let d = synthetic_dataset(84);
        let a = allocator();
        let regrets = prediction_regrets(&a, &d).unwrap();
        assert_eq!(regrets.len(), 84);
        for r in regrets {
            assert!(
                r.abs() < 1e-9 || (r - 1.0 / 9.0).abs() < 1e-9,
                "unexpected regret {r}"
            );
        }
    }

    #[test]
    fn summary_fields_are_consistent() {
        let d = synthetic_dataset(84);
        let s = regret_summary(&allocator(), &d).unwrap();
        assert_eq!(s.samples, 84);
        assert!(s.p50 <= s.p95 && s.p95 <= s.max);
        assert!(s.within_1pct <= s.within_5pct && s.within_5pct <= s.within_10pct);
        // In this construction, within_10pct == fraction of exact hits.
        assert!((0.0..=1.0).contains(&s.within_10pct));
    }

    #[test]
    fn no_metrics_means_none() {
        let mut d = synthetic_dataset(4);
        for s in &mut d.samples {
            s.metrics_us.clear();
        }
        assert!(prediction_regrets(&allocator(), &d).is_none());
        assert!(regret_summary(&allocator(), &d).is_none());
    }

    #[test]
    fn level_buckets_cover_all_samples() {
        let d = synthetic_dataset(100);
        let rows = accuracy_by_level(&allocator(), &d, 0.05);
        let total: usize = rows.iter().map(|(_, n, _, _)| n).sum();
        assert_eq!(total, 100);
        for (level, _, exact, eff) in rows {
            assert!(level < 20);
            assert!((0.0..=1.0).contains(&exact));
            assert!((0.0..=1.0).contains(&eff));
        }
    }

    #[test]
    fn family_mapping_and_confusion_totals() {
        assert_eq!(Family::of(Strategy::Shared), Family::Shared);
        assert_eq!(Family::of(Strategy::Isolated), Family::Partitioned2);
        assert_eq!(
            Family::of(Strategy::TwoPart { write_channels: 3 }),
            Family::Partitioned2
        );
        assert_eq!(
            Family::of(Strategy::FourPart([5, 1, 1, 1])),
            Family::Partitioned4
        );
        let d = synthetic_dataset(42);
        let m = family_confusion(&allocator(), &d);
        let total: usize = m.iter().flatten().sum();
        assert_eq!(total, 42);
        assert_eq!(Family::Shared.name(), "Shared");
    }
}
