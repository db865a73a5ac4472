//! The strategy learner: synthetic mixed-workload sampling, Algorithm 1
//! dataset generation, and ANN training.
//!
//! §V-A: "The mixed workloads for training are synthetic. We mainly change
//! the read/write characteristics and read/write proportion to synthesize
//! the new mixed workloads." Each sample draws, per tenant, a dominance
//! (read vs write), a write ratio consistent with it, and a request share;
//! plus one overall intensity level. The sample is labelled by running all
//! 42 strategies (see [`crate::label`]) and keeping the argmin.

use crate::allocator::ChannelAllocator;
use crate::features::{FeatureVector, FEATURE_DIM, TENANTS};
use crate::label::{
    best_strategy_with_tolerance, evaluate_all_sized, EvalConfig, SweepSize, DOMAIN_LABEL_SAMPLE,
};
use crate::strategy::Strategy;
use ann::prelude::*;
use ann::train::TrainHistory;
use flash_sim::IoRequest;
use parallel::PoolConfig;
use simrng::Rng;
use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

/// How the synthetic training distribution is sampled.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Number of labelled mixed workloads to generate.
    pub samples: usize,
    /// Requests per mixed workload (the paper uses 2 M; scale to taste).
    pub requests_per_sample: usize,
    /// Device IOPS mapped to intensity level 19.
    pub max_total_iops: f64,
    /// Logical pages per tenant.
    pub lpn_space: u64,
    /// Relative tolerance for label generation: near-ties within this
    /// fraction of the best latency collapse onto the simplest strategy
    /// (see [`crate::label::best_strategy_with_tolerance`]).
    pub label_tolerance: f64,
    /// Simulator/labelling configuration.
    pub eval: EvalConfig,
}

impl DatasetSpec {
    /// A laptop-scale spec: `samples` workloads of 2 000 requests each.
    /// Small enough that the full 42-strategy labelling sweep of one
    /// sample takes well under a second.
    pub fn quick(samples: usize) -> Self {
        Self {
            samples,
            requests_per_sample: 2_000,
            max_total_iops: 120_000.0,
            lpn_space: 1 << 12,
            label_tolerance: 0.01,
            eval: EvalConfig::default(),
        }
    }
}

/// One labelled training example.
#[derive(Debug, Clone)]
pub struct LabelledSample {
    /// Collector features of the mixed workload.
    pub features: FeatureVector,
    /// Class id of the best strategy.
    pub label: usize,
    /// The best strategy itself.
    pub best: Strategy,
    /// Its total-latency metric (µs), kept for analysis.
    pub best_metric_us: f64,
    /// The metric of every strategy, indexed by class id. Enables
    /// regret-aware evaluation ([`effective_accuracy`]); empty when the
    /// sample was loaded from a v1 text file.
    pub metrics_us: Vec<f64>,
}

/// A labelled dataset plus the feature scale it was built with.
#[derive(Debug, Clone)]
pub struct LabelledDataset {
    /// The examples.
    pub samples: Vec<LabelledSample>,
    /// IOPS that saturate the intensity scale.
    pub max_total_iops: f64,
}

impl LabelledDataset {
    /// Converts to an [`ann`] dataset (42 classes).
    pub fn to_ann_dataset(&self) -> Dataset {
        let rows: Vec<[f32; FEATURE_DIM]> =
            self.samples.iter().map(|s| s.features.to_input()).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let labels: Vec<usize> = self.samples.iter().map(|s| s.label).collect();
        Dataset::new(
            Matrix::from_rows(&refs),
            labels,
            Strategy::all_for_tenants(4).len(),
        )
        .expect("labels come from the strategy space")
    }

    /// Distribution of labels over the 42 classes.
    pub fn label_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; Strategy::all_for_tenants(4).len()];
        for s in &self.samples {
            hist[s.label] += 1;
        }
        hist
    }

    /// Serializes to a simple text form: one line per sample holding the
    /// feature CSV, the label, and (v2) the per-strategy metrics CSV.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "ssdk-dataset-v2 {} {}\n",
            self.samples.len(),
            self.max_total_iops
        );
        for s in &self.samples {
            let x = s.features.to_input();
            let row: Vec<String> = x.iter().map(|v| format!("{v}")).collect();
            let metrics: Vec<String> = s.metrics_us.iter().map(|v| format!("{v:.3}")).collect();
            out.push_str(&format!(
                "{};{};{}\n",
                row.join(","),
                s.label,
                metrics.join(",")
            ));
        }
        out
    }

    /// Parses the text form produced by [`LabelledDataset::to_text`]
    /// (v2) or the older metric-less v1 layout. Returns `None` on any
    /// malformed input, including a sample count the lines do not back,
    /// non-finite features or metrics, and a `max_total_iops` that is not
    /// finite and positive.
    pub fn from_text(text: &str) -> Option<LabelledDataset> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let mut parts = header.split_whitespace();
        let version = parts.next()?;
        if version != "ssdk-dataset-v1" && version != "ssdk-dataset-v2" {
            return None;
        }
        let count: usize = parts.next()?.parse().ok()?;
        let max_total_iops: f64 = parts.next()?.parse().ok()?;
        if !(max_total_iops.is_finite() && max_total_iops > 0.0) {
            return None;
        }
        // Grown from the lines present: the header's count is untrusted.
        let mut samples = Vec::new();
        for line in lines.take(count) {
            let mut fields = line.split(';');
            let xs = fields.next()?;
            let label_str = fields.next()?;
            let metrics_us: Vec<f64> = match fields.next() {
                Some(m) if !m.trim().is_empty() => m
                    .split(',')
                    .map(|v| v.trim().parse().ok())
                    .collect::<Option<_>>()?,
                _ => Vec::new(),
            };
            let vals: Vec<f32> = xs
                .split(',')
                .map(|v| v.parse().ok())
                .collect::<Option<_>>()?;
            if vals.len() != FEATURE_DIM
                || !vals.iter().all(|v| v.is_finite())
                || !metrics_us.iter().all(|m| m.is_finite())
            {
                return None;
            }
            let label: usize = label_str.trim().parse().ok()?;
            let best = Strategy::from_index(label, 4)?;
            let features = FeatureVector {
                intensity_level: (vals[0] * 19.0).round() as u32,
                rw_char: [vals[1] as u8, vals[2] as u8, vals[3] as u8, vals[4] as u8],
                shares: [
                    vals[5] as f64,
                    vals[6] as f64,
                    vals[7] as f64,
                    vals[8] as f64,
                ],
            };
            let best_metric_us = metrics_us.get(label).copied().unwrap_or(0.0);
            samples.push(LabelledSample {
                features,
                label,
                best,
                best_metric_us,
                metrics_us,
            });
        }
        (samples.len() == count).then_some(LabelledDataset {
            samples,
            max_total_iops,
        })
    }
}

/// The four optimizer/activation configurations of Figure 4 / Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerChoice {
    /// SGD, lr 0.2, logistic hidden layer.
    Sgd,
    /// SGD with momentum 0.9, lr 0.2, logistic hidden layer.
    SgdMomentum,
    /// Adam lr 0.02, ReLU hidden layer.
    AdamRelu,
    /// Adam lr 0.02, logistic hidden layer (the paper's best).
    AdamLogistic,
}

impl OptimizerChoice {
    /// The four configurations the paper sweeps, in Table III order.
    pub const PAPER: [OptimizerChoice; 4] = [
        OptimizerChoice::Sgd,
        OptimizerChoice::SgdMomentum,
        OptimizerChoice::AdamRelu,
        OptimizerChoice::AdamLogistic,
    ];

    /// Table III row name.
    pub fn name(self) -> &'static str {
        match self {
            OptimizerChoice::Sgd => "SGD",
            OptimizerChoice::SgdMomentum => "SGD-momentum",
            OptimizerChoice::AdamRelu => "Adam-ReLU",
            OptimizerChoice::AdamLogistic => "Adam-logistic",
        }
    }

    /// Hidden-layer activation for this configuration.
    pub fn activation(self) -> Activation {
        match self {
            OptimizerChoice::AdamRelu => Activation::ReLU,
            _ => Activation::Logistic,
        }
    }

    /// Instantiates the optimizer with the paper's hyper-parameters.
    pub fn build(self) -> Box<dyn Optimizer> {
        match self {
            OptimizerChoice::Sgd => Box::new(Sgd::paper()),
            OptimizerChoice::SgdMomentum => Box::new(Momentum::paper()),
            OptimizerChoice::AdamRelu | OptimizerChoice::AdamLogistic => Box::new(Adam::paper()),
        }
    }
}

/// A trained strategy model ready to be deployed as a channel allocator.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The trained network (9 → 64 → 42).
    pub network: Network,
    /// IOPS that saturate the intensity scale (must match deployment).
    pub max_total_iops: f64,
    /// Training curves and wall time.
    pub history: TrainHistory,
    /// Dataset indices held out as the test split (empty for models
    /// loaded from disk). Use with
    /// [`effective_accuracy_subset`] for honest generalization numbers.
    pub test_indices: Vec<usize>,
}

impl TrainedModel {
    /// Wraps the model into a [`ChannelAllocator`].
    pub fn allocator(&self) -> ChannelAllocator {
        ChannelAllocator::new(self.network.clone(), self.max_total_iops)
    }
}

/// Regret-aware accuracy: the fraction of samples whose *predicted*
/// strategy lands within `rel_tol` of the sample's optimal latency.
///
/// With 42 classes, many strategies are near-equivalent on a given
/// workload; exact-class accuracy punishes picking an equally good
/// neighbour. This metric scores what deployments care about — latency
/// regret — and requires the dataset to carry per-strategy metrics
/// (v2 datasets; v1 samples without metrics are skipped).
///
/// Returns `None` when no sample carries metrics.
pub fn effective_accuracy(
    allocator: &ChannelAllocator,
    dataset: &LabelledDataset,
    rel_tol: f64,
) -> Option<f64> {
    let all: Vec<usize> = (0..dataset.samples.len()).collect();
    effective_accuracy_subset(allocator, dataset, &all, rel_tol)
}

/// Like [`effective_accuracy`] but restricted to the given sample
/// indices — pass a model's `test_indices` for held-out numbers.
pub fn effective_accuracy_subset(
    allocator: &ChannelAllocator,
    dataset: &LabelledDataset,
    indices: &[usize],
    rel_tol: f64,
) -> Option<f64> {
    let classes = Strategy::all_for_tenants(4).len();
    // One batched forward for the whole subset instead of a per-sample
    // call; predictions are identical (the batch kernel is
    // row-independent), this just amortizes the layer sweeps.
    let scored_samples: Vec<&LabelledSample> = indices
        .iter()
        .map(|&i| &dataset.samples[i])
        .filter(|s| s.metrics_us.len() == classes)
        .collect();
    if scored_samples.is_empty() {
        return None;
    }
    let features: Vec<FeatureVector> = scored_samples.iter().map(|s| s.features.clone()).collect();
    let predicted = allocator.predict_batch(&features);
    let mut hits = 0usize;
    for (s, strategy) in scored_samples.iter().zip(predicted.iter()) {
        let best = s.metrics_us.iter().copied().fold(f64::INFINITY, f64::min);
        if s.metrics_us[strategy.index(4)] <= best * (1.0 + rel_tol) {
            hits += 1;
        }
    }
    Some(hits as f64 / scored_samples.len() as f64)
}

/// Deterministic 7:3 train/test split of `n` sample indices.
pub fn split_indices(n: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    use simrng::SliceRandom;
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = simrng::SimRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let cut = ((n as f64) * 0.7).round() as usize;
    let test = order.split_off(cut);
    (order, test)
}

/// Generates synthetic mixed workloads, labels them, and trains models.
#[derive(Debug, Clone)]
pub struct Learner {
    spec: DatasetSpec,
}

impl Learner {
    /// A learner for the given dataset spec.
    pub fn new(spec: DatasetSpec) -> Self {
        Self { spec }
    }

    /// The dataset spec in use.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// Draws one random mixed workload: per-tenant dominance, write
    /// ratio, and share; one overall intensity level.
    pub fn sample_mixed_workload(&self, rng: &mut impl Rng) -> (Vec<IoRequest>, Vec<TenantSpec>) {
        // Mildly skew sampled levels toward high intensity: the strategy
        // decision is trivial (Shared) on an underloaded device, so the
        // interesting label mass lives in the upper levels. u^0.7 keeps
        // full coverage of low levels while spending ~60% of samples on
        // the upper half of the scale.
        let level: u32 = ((rng.gen::<f64>().powf(0.7)) * 20.0).min(19.0) as u32;
        let total_iops = (level as f64 + 0.5) / 20.0 * self.spec.max_total_iops;

        // Random shares bounded away from zero so every tenant is live.
        let weights: Vec<f64> = (0..TENANTS).map(|_| rng.gen_range(0.05..1.0)).collect();
        let wsum: f64 = weights.iter().sum();

        let specs: Vec<TenantSpec> = (0..TENANTS)
            .map(|t| {
                let read_dominated = rng.gen_bool(0.5);
                let write_ratio = if read_dominated {
                    rng.gen_range(0.0..0.25)
                } else {
                    rng.gen_range(0.75..1.0)
                };
                let mut spec = TenantSpec::synthetic(
                    format!("synth{t}"),
                    write_ratio,
                    (total_iops * weights[t] / wsum).max(1.0),
                    self.spec.lpn_space,
                );
                // Match the access-pattern flavours of the evaluation
                // traces (see `workloads::msr`): read-dominated tenants
                // stream sequential multi-page requests, write-dominated
                // tenants issue small skewed writes, and arrivals may be
                // bursty. Training on the same request shapes the mixes
                // exhibit is what lets the model transfer to them.
                if read_dominated {
                    spec.pattern = workloads::AddressPattern::SequentialRuns {
                        run_len: *[8u32, 16].get(rng.gen_range(0..2)).expect("two options"),
                    };
                    spec.size = workloads::SizeDist::Uniform { min: 1, max: 4 };
                } else {
                    spec.pattern = workloads::AddressPattern::Zipf {
                        theta: rng.gen_range(0.7..0.95),
                    };
                    spec.size = workloads::SizeDist::Uniform { min: 1, max: 2 };
                }
                if rng.gen_bool(0.4) {
                    spec.arrival = workloads::ArrivalProcess::OnOff {
                        on_fraction: rng.gen_range(0.3..0.6),
                        burst_len: 32,
                    };
                }
                spec
            })
            .collect();

        let streams: Vec<Vec<IoRequest>> = specs
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let share = weights[t] / wsum;
                let count = ((self.spec.requests_per_sample as f64) * share).ceil() as usize;
                generate_tenant_stream(spec, t as u16, count.max(1), rng.gen())
            })
            .collect();
        let mixed = mix_chronological(&streams, self.spec.requests_per_sample);
        (mixed, specs)
    }

    /// Labels one mixed workload: evaluates every strategy and returns the
    /// sample (Algorithm 1, one loop iteration).
    pub fn label_workload(&self, trace: &[IoRequest]) -> LabelledSample {
        self.label_workload_sized(trace).0
    }

    /// [`Learner::label_workload`] plus the size of the sweep it ran.
    fn label_workload_sized(&self, trace: &[IoRequest]) -> (LabelledSample, SweepSize) {
        let lpn_spaces = vec![self.spec.lpn_space; TENANTS];
        let (evals, size) = evaluate_all_sized(trace, TENANTS, &lpn_spaces, &self.spec.eval)
            .expect("synthetic workloads stay within device capacity");
        let best = best_strategy_with_tolerance(&evals, self.spec.label_tolerance);
        let features = FeatureVector::from_trace(trace, TENANTS, self.spec.max_total_iops);
        let sample = LabelledSample {
            features,
            label: best.strategy.index(TENANTS),
            best: best.strategy,
            best_metric_us: best.metric_us,
            metrics_us: evals.iter().map(|e| e.metric_us).collect(),
        };
        (sample, size)
    }

    /// Generates the full labelled dataset (Algorithm 1, lines 3–8).
    pub fn generate_dataset(&self, seed: u64) -> LabelledDataset {
        self.generate_dataset_sized(seed).0
    }

    /// [`Learner::generate_dataset`] plus the summed size of its label
    /// sweeps.
    pub fn generate_dataset_sized(&self, seed: u64) -> (LabelledDataset, SweepSize) {
        let mut rng = simrng::SimRng::seed_from_u64(seed);
        let mut size = SweepSize::default();
        let samples = (0..self.spec.samples)
            .map(|_| {
                let (trace, _) = self.sample_mixed_workload(&mut rng);
                let (sample, sweep) = self.label_workload_sized(&trace);
                size += sweep;
                sample
            })
            .collect();
        let dataset = LabelledDataset {
            samples,
            max_total_iops: self.spec.max_total_iops,
        };
        (dataset, size)
    }

    /// The parallel label farm: generates and labels the dataset by
    /// fanning samples across `pool`, one simulation sweep per worker
    /// item.
    ///
    /// Each sample's RNG is seeded independently with
    /// `simrng::derive_seed(seed, DOMAIN_LABEL_SAMPLE, i)` — the same
    /// stateless splitmix64 rule the fleet uses for its shard streams —
    /// so the result is deterministic and byte-identical for *any*
    /// worker count and regardless of completion order
    /// ([`parallel::par_map_with`] returns results in index order).
    ///
    /// Note this draws a *different* (equally valid) dataset than
    /// [`Learner::generate_dataset`], which threads one sequential RNG
    /// through all samples and therefore cannot fan out. The inner
    /// 42-strategy sweep runs sequentially per sample
    /// ([`EvalConfig::sequential`]); the outer fan-out already saturates
    /// the pool.
    pub fn generate_dataset_parallel(&self, seed: u64, pool: &PoolConfig) -> LabelledDataset {
        let inner = Learner::new(DatasetSpec {
            eval: self.spec.eval.sequential(),
            ..self.spec.clone()
        });
        let indices: Vec<u64> = (0..self.spec.samples as u64).collect();
        // The inner 42-strategy sweep is sequential and recycles one
        // SimArena across its runs, so each sample pays one cold build.
        let samples = parallel::par_map_with(pool, &indices, |_, &i| {
            let mut rng =
                simrng::SimRng::seed_from_u64(simrng::derive_seed(seed, DOMAIN_LABEL_SAMPLE, i));
            let (trace, _) = inner.sample_mixed_workload(&mut rng);
            inner.label_workload(&trace)
        });
        LabelledDataset {
            samples,
            max_total_iops: self.spec.max_total_iops,
        }
    }

    /// Trains the paper's 9→64→42 network on the dataset with a 7:3
    /// train/test split and 200 iterations (Algorithm 1, lines 9–15).
    pub fn train(&self, dataset: &LabelledDataset, choice: OptimizerChoice) -> TrainedModel {
        self.train_with(dataset, choice, 200, 0x5eed)
    }

    /// Training with explicit epoch count and seed. The 7:3 train/test
    /// split is sample-deterministic (see [`split_indices`]), and the
    /// held-out indices are returned on the model for honest post-hoc
    /// evaluation.
    pub fn train_with(
        &self,
        dataset: &LabelledDataset,
        choice: OptimizerChoice,
        epochs: usize,
        seed: u64,
    ) -> TrainedModel {
        let ann_data = dataset.to_ann_dataset();
        let (train_idx, test_idx) = split_indices(dataset.samples.len(), seed);
        let train = ann_data.subset(&train_idx);
        let test = ann_data.subset(&test_idx);
        let mut network = Network::paper_topology(choice.activation(), seed);
        let mut opt = choice.build();
        let mut trainer = Trainer::new(epochs, 32, seed ^ 0xabcd);
        let history = trainer.fit(&mut network, &train, Some(&test), opt.as_mut());
        TrainedModel {
            network,
            max_total_iops: dataset.max_total_iops,
            history,
            test_indices: test_idx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_sim::SsdConfig;
    use parallel::PoolConfig;

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            samples: 4,
            requests_per_sample: 300,
            max_total_iops: 120_000.0,
            lpn_space: 1 << 10,
            label_tolerance: 0.02,
            eval: EvalConfig {
                ssd: SsdConfig {
                    blocks_per_plane: 64,
                    pages_per_block: 32,
                    ..SsdConfig::paper_table1()
                },
                hybrid: false,
                pool: PoolConfig::with_workers(1),
            },
        }
    }

    #[test]
    fn sampled_workloads_have_four_live_tenants() {
        let learner = Learner::new(tiny_spec());
        let mut rng = simrng::SimRng::seed_from_u64(1);
        let (trace, specs) = learner.sample_mixed_workload(&mut rng);
        assert_eq!(specs.len(), 4);
        assert!(trace.len() <= 300);
        let mut seen = [false; 4];
        for r in &trace {
            seen[r.tenant as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all tenants present: {seen:?}");
    }

    #[test]
    fn workload_write_ratios_respect_dominance() {
        let learner = Learner::new(tiny_spec());
        let mut rng = simrng::SimRng::seed_from_u64(2);
        let (_, specs) = learner.sample_mixed_workload(&mut rng);
        for s in specs {
            assert!(
                s.write_ratio < 0.25 || s.write_ratio >= 0.75,
                "dominance gap violated: {}",
                s.write_ratio
            );
        }
    }

    #[test]
    fn labelling_produces_valid_class_ids() {
        let learner = Learner::new(tiny_spec());
        let mut rng = simrng::SimRng::seed_from_u64(3);
        let (trace, _) = learner.sample_mixed_workload(&mut rng);
        let sample = learner.label_workload(&trace);
        assert!(sample.label < 42);
        assert_eq!(Strategy::from_index(sample.label, 4), Some(sample.best));
        assert!(sample.best_metric_us > 0.0);
    }

    #[test]
    fn dataset_generation_is_deterministic() {
        let learner = Learner::new(tiny_spec());
        let a = learner.generate_dataset(7);
        let b = learner.generate_dataset(7);
        assert_eq!(a.samples.len(), 4);
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.features, y.features);
        }
        let hist = a.label_histogram();
        assert_eq!(hist.iter().sum::<usize>(), 4);
    }

    #[test]
    fn parallel_farm_is_worker_count_invariant_and_deterministic() {
        let learner = Learner::new(tiny_spec());
        let one = learner.generate_dataset_parallel(21, &PoolConfig::with_workers(1));
        let four = learner.generate_dataset_parallel(21, &PoolConfig::with_workers(4));
        assert_eq!(one.samples.len(), 4);
        assert_eq!(one.samples.len(), four.samples.len());
        for (x, y) in one.samples.iter().zip(&four.samples) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.features, y.features);
            assert_eq!(x.metrics_us, y.metrics_us);
        }
        // Re-running with the same seed reproduces the dataset exactly;
        // a different seed draws different workloads.
        let again = learner.generate_dataset_parallel(21, &PoolConfig::with_workers(4));
        for (x, y) in four.samples.iter().zip(&again.samples) {
            assert_eq!(x.features, y.features);
            assert_eq!(x.metrics_us, y.metrics_us);
        }
        let other = learner.generate_dataset_parallel(22, &PoolConfig::with_workers(2));
        assert!(
            four.samples
                .iter()
                .zip(&other.samples)
                .any(|(x, y)| x.features != y.features),
            "different seeds should draw different workloads"
        );
    }

    #[test]
    fn effective_accuracy_batches_without_changing_the_score() {
        let learner = Learner::new(tiny_spec());
        let dataset = learner.generate_dataset_parallel(13, &PoolConfig::with_workers(2));
        let model = learner.train_with(&dataset, OptimizerChoice::AdamLogistic, 3, 5);
        let allocator = model.allocator();
        let acc = effective_accuracy(&allocator, &dataset, 0.02).expect("v2 samples carry metrics");
        assert!((0.0..=1.0).contains(&acc));
        // The batched score equals the per-sample reference computation.
        let classes = Strategy::all_for_tenants(4).len();
        let mut hits = 0usize;
        let mut scored = 0usize;
        for s in &dataset.samples {
            if s.metrics_us.len() != classes {
                continue;
            }
            scored += 1;
            let predicted = allocator.predict(&s.features).index(4);
            let best = s.metrics_us.iter().copied().fold(f64::INFINITY, f64::min);
            if s.metrics_us[predicted] <= best * 1.02 {
                hits += 1;
            }
        }
        assert_eq!(acc, hits as f64 / scored as f64);
        // Metric-less samples score as None.
        let empty = LabelledDataset {
            samples: Vec::new(),
            max_total_iops: 1.0,
        };
        assert!(effective_accuracy(&allocator, &empty, 0.02).is_none());
    }

    #[test]
    fn dataset_text_round_trip() {
        let learner = Learner::new(tiny_spec());
        let d = learner.generate_dataset(9);
        let text = d.to_text();
        let parsed = LabelledDataset::from_text(&text).unwrap();
        assert_eq!(parsed.samples.len(), d.samples.len());
        assert_eq!(parsed.max_total_iops, d.max_total_iops);
        for (a, b) in d.samples.iter().zip(&parsed.samples) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.features.rw_char, b.features.rw_char);
            assert_eq!(a.features.intensity_level, b.features.intensity_level);
        }
        assert!(LabelledDataset::from_text("garbage").is_none());
    }

    #[test]
    fn from_text_rejects_a_count_the_lines_do_not_back() {
        // A corrupt count must not size an allocation.
        let text = format!("ssdk-dataset-v2 {} 1.0\n", usize::MAX);
        assert!(LabelledDataset::from_text(&text).is_none());
    }

    #[test]
    fn from_text_rejects_non_finite_values() {
        let row = "0.5,0,1,0,1,0.25,0.25,0.25,0.25";
        let ok = format!("ssdk-dataset-v2 1 120000\n{row};0;1.0,2.0\n");
        assert!(LabelledDataset::from_text(&ok).is_some());
        for bad in [
            format!("ssdk-dataset-v2 1 NaN\n{row};0;\n"),
            format!("ssdk-dataset-v2 1 inf\n{row};0;\n"),
            format!("ssdk-dataset-v2 1 0\n{row};0;\n"),
            "ssdk-dataset-v2 1 120000\nNaN,0,1,0,1,0.25,0.25,0.25,0.25;0;\n".to_string(),
            format!("ssdk-dataset-v2 1 120000\n{row};0;1.0,inf\n"),
        ] {
            assert!(
                LabelledDataset::from_text(&bad).is_none(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn optimizer_choices_cover_table3() {
        assert_eq!(OptimizerChoice::PAPER.len(), 4);
        assert_eq!(OptimizerChoice::AdamLogistic.name(), "Adam-logistic");
        assert_eq!(
            OptimizerChoice::AdamLogistic.activation(),
            Activation::Logistic
        );
        assert_eq!(OptimizerChoice::AdamRelu.activation(), Activation::ReLU);
        let opt = OptimizerChoice::Sgd.build();
        assert_eq!(opt.name(), "SGD");
    }

    #[test]
    fn training_on_a_tiny_dataset_runs_and_is_wired_up() {
        let learner = Learner::new(tiny_spec());
        let dataset = learner.generate_dataset(11);
        let model = learner.train_with(&dataset, OptimizerChoice::AdamLogistic, 5, 1);
        assert_eq!(model.history.loss.len(), 5);
        assert_eq!(model.network.input_width(), 9);
        assert_eq!(model.network.output_width(), 42);
        let alloc = model.allocator();
        let fv = dataset.samples[0].features.clone();
        let s = alloc.predict(&fv);
        assert!(s.index(4) < 42);
    }
}
