//! The tracked benchmark behind `BENCH_sim.json`: simulator throughput
//! in events per second, arena rebuild cost, and label-farm throughput.
//! This binary writes the whole report.
//!
//! Four workloads exercise the event core from different directions:
//!
//! * `sim_micro` — the original gate: a preconditioned device in GC
//!   steady state (the regime every real SSD spends its life in), a 3:1
//!   write:read mix over a hot region so the garbage collector runs
//!   continuously while reads keep the full command pipeline busy.
//! * `gc_heavy` — an overwrite storm on a narrow hot region of a
//!   2-channel device: almost every write triggers victim selection and
//!   page movement, so the run is dominated by GC commands and die-queue
//!   churn (the worst case for the event queue's completion traffic).
//! * `read_mostly_8ch` — a 7:1 read:write mix striped over all eight of
//!   the paper's channels: shallow per-die queues, high channel
//!   parallelism, and short service times make this the regime with the
//!   highest event rate per unit of simulated time.
//! * `deep_queue` — the saturation the online keeper's Figure 5 runs
//!   reach: four tenants on the sweep geometry with an unbounded host
//!   queue and arrivals an order of magnitude beyond what the buses
//!   serve, so units hold hundreds of waiting commands (mean backlog
//!   ≥ 500). This is the regime where each waiting command's record
//!   rides in its unit queue instead of a per-command table.
//!
//! Device construction and preconditioning happen outside the timed
//! region; the measurement covers exactly `Simulator::run_reclaim`, i.e. the
//! discrete-event hot path the ROADMAP says must run "as fast as the
//! hardware allows". Events/sec uses `SimReport::events_processed`
//! (deterministic for a given trace) over the **median** wall time of the
//! measured iterations, so the metric is robust to scheduling noise.
//!
//! When `SSDKEEPER_BENCH_JSON` names a file, the results are written
//! there in the `BENCH_sim.json` format: one entry per workload, each
//! with a `baseline` (the first run ever recorded for that workload —
//! kept verbatim on later runs so the speedup is always measured against
//! the committed starting point), a `current` section that also records
//! the fastest run (`min_ns`) and the median absolute deviation of the
//! run times (`mad_ns`) as the row's spread, and a `phases`
//! section with per-command nanoseconds in each simulated phase from the
//! median run's [`flash_sim::PhaseReport`] — mean plus p50/p99 from the
//! log₂ histograms, which `ssdtrace diff` compares across commits.
//!
//! The host queue is bounded (`host_queue_depth: 64`) on every workload
//! but `deep_queue`: with an unbounded queue the whole trace is admitted
//! at once and the per-phase numbers measure the standing backlog instead
//! of device behavior (see the PR 4 note in DESIGN.md). `deep_queue`
//! measures exactly that backlog on purpose.
//!
//! Two further rows explain the `label_sweep` job:
//!
//! * `warm_rerun` — median cold and warm build+run times of a short
//!   trace (plain rows, no ratio gate; the arena contract itself is held
//!   by flash-sim's `alloc_discipline` and `arena_reuse` tests).
//! * `label_farm` — labels per second of the parallel label farm at one
//!   worker (the baseline, measured in the same invocation) and at N
//!   workers; both must produce byte-identical datasets (asserted). On a
//!   single-core host the entry records `"scaling_meaningful": false` and
//!   the `current` row is the single-worker run, since oversubscribing one
//!   hardware thread measures context switching, not the farm.
//!
//! `SSDKEEPER_BENCH_PROBE=1` additionally measures `sim_micro` with a
//! bounded [`flash_sim::EventRecorder`] attached and prints the probe
//! overhead relative to the `NullProbe` run — the number the probe
//! layer's ≤2 % discipline is checked against.

use flash_sim::{
    EventRecorder, IoRequest, Op, PhaseReport, SimArena, SimBuilder, SsdConfig, TenantLayout,
};
use parallel::PoolConfig;
use ssdkeeper::learner::{DatasetSpec, Learner};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One benchmark workload: a device configuration plus a trace.
struct Workload {
    name: &'static str,
    geometry: &'static str,
    cfg: SsdConfig,
    /// Tenants sharing every channel; the trace deals requests out
    /// round-robin.
    tenants: usize,
    lpn_space: u64,
    trace: Vec<IoRequest>,
}

/// The original tracked gate: Table I timings on tall planes (few
/// planes, many blocks each, so per-plane GC work dominates the way it
/// does at production block counts), 3:1 write:read over a 4 Ki hot
/// region, 2 µs apart.
fn sim_micro() -> Workload {
    const REQUESTS: u64 = 24_000;
    const HOT_LPNS: u64 = 4_096;
    let cfg = SsdConfig {
        channels: 4,
        chips_per_channel: 1,
        dies_per_chip: 1,
        planes_per_die: 1,
        blocks_per_plane: 2_048,
        pages_per_block: 16,
        gc_free_block_threshold: 0.6,
        wear_leveling_threshold: 64,
        host_queue_depth: 64,
        ..SsdConfig::paper_table1()
    };
    let trace = (0..REQUESTS)
        .map(|i| {
            let op = if i % 4 == 3 { Op::Read } else { Op::Write };
            let lpn = (i * 131) % HOT_LPNS;
            IoRequest::new(i, 0, op, lpn, 1, i * 2_000)
        })
        .collect();
    Workload {
        name: "sim_micro",
        geometry: "4ch x 1chip x 1die x 1plane, 2048 blocks x 16 pages, qd 64",
        cfg,
        tenants: 1,
        lpn_space: 54_400,
        trace,
    }
}

/// GC storm: a 2-channel device with the same tall planes, 7:1
/// write:read hammering a 1 Ki hot region. Nearly every host write lands
/// on already-written LPNs, so victim selection, page movement, and the
/// composite GC die charges dominate the event stream.
fn gc_heavy() -> Workload {
    const REQUESTS: u64 = 16_000;
    const HOT_LPNS: u64 = 1_024;
    let cfg = SsdConfig {
        channels: 2,
        chips_per_channel: 1,
        dies_per_chip: 1,
        planes_per_die: 1,
        blocks_per_plane: 2_048,
        pages_per_block: 16,
        gc_free_block_threshold: 0.6,
        wear_leveling_threshold: 64,
        host_queue_depth: 64,
        ..SsdConfig::paper_table1()
    };
    let trace = (0..REQUESTS)
        .map(|i| {
            let op = if i % 8 == 7 { Op::Read } else { Op::Write };
            let lpn = (i * 131) % HOT_LPNS;
            IoRequest::new(i, 0, op, lpn, 1, i * 2_000)
        })
        .collect();
    Workload {
        name: "gc_heavy",
        geometry: "2ch x 1chip x 1die x 1plane, 2048 blocks x 16 pages, qd 64",
        cfg,
        tenants: 1,
        lpn_space: 27_200,
        trace,
    }
}

/// The paper's full 8-channel fan-out under a 7:1 read:write mix striding
/// the whole logical space: short array reads and wide channel
/// parallelism produce the highest event rate per simulated second, with
/// just enough writes to keep the program/GC paths warm.
fn read_mostly_8ch() -> Workload {
    const REQUESTS: u64 = 24_000;
    const SPAN: u64 = 32_768;
    let cfg = SsdConfig {
        channels: 8,
        chips_per_channel: 1,
        dies_per_chip: 1,
        planes_per_die: 1,
        blocks_per_plane: 512,
        pages_per_block: 16,
        gc_free_block_threshold: 0.3,
        wear_leveling_threshold: 64,
        host_queue_depth: 64,
        ..SsdConfig::paper_table1()
    };
    let trace = (0..REQUESTS)
        .map(|i| {
            let op = if i % 8 == 7 { Op::Write } else { Op::Read };
            let lpn = (i * 131) % SPAN;
            IoRequest::new(i, 0, op, lpn, 1, i * 1_000)
        })
        .collect();
    Workload {
        name: "read_mostly_8ch",
        geometry: "8ch x 1chip x 1die x 1plane, 512 blocks x 16 pages, qd 64",
        cfg,
        tenants: 1,
        lpn_space: SPAN,
        trace,
    }
}

/// Keeper-online saturation: the Figure 5 device (`scaled_for_sweeps`,
/// 64 plane units behind 8 buses at 200 MB/s, ~100k pages/s) fed 1:1
/// read:write requests of 1-4 pages from four tenants every 2 µs
/// (~1.25M pages/s offered) with no host queue bound, so the backlog
/// builds the whole run the way `keeper_online`'s Mix traces do.
fn deep_queue() -> Workload {
    const REQUESTS: u64 = 40_000;
    const TENANTS: u64 = 4;
    const LPNS: u64 = 4_096;
    let cfg = SsdConfig::scaled_for_sweeps();
    let trace = (0..REQUESTS)
        .map(|i| {
            let op = if i % 2 == 0 { Op::Write } else { Op::Read };
            let lpn = (i * 131) % LPNS;
            let pages = 1 + ((i / TENANTS) % 4) as u32;
            IoRequest::new(i, (i % TENANTS) as u16, op, lpn, pages, i * 2_000)
        })
        .collect();
    Workload {
        name: "deep_queue",
        geometry: "8ch x 2chip x 1die x 4plane, 256 blocks x 128 pages, 4 tenants, qd unbounded",
        cfg,
        tenants: TENANTS as usize,
        lpn_space: LPNS,
        trace,
    }
}

/// The repeated-run scenario [`SimArena`] exists for: the label farm and
/// keeper re-simulation run many short traces back to back, so device
/// construction (FTL tables, queues, schedulers) is a large share of
/// each cycle. Same geometry as `sim_micro`, a short trace, no
/// preconditioning — the regime where cold-start allocation dominates.
fn warm_rerun_workload() -> Workload {
    const REQUESTS: u64 = 1_000;
    const HOT_LPNS: u64 = 4_096;
    let cfg = SsdConfig {
        channels: 4,
        chips_per_channel: 1,
        dies_per_chip: 1,
        planes_per_die: 1,
        blocks_per_plane: 2_048,
        pages_per_block: 16,
        gc_free_block_threshold: 0.6,
        wear_leveling_threshold: 64,
        host_queue_depth: 64,
        ..SsdConfig::paper_table1()
    };
    let trace = (0..REQUESTS)
        .map(|i| {
            let op = if i % 4 == 3 { Op::Read } else { Op::Write };
            let lpn = (i * 131) % HOT_LPNS;
            IoRequest::new(i, 0, op, lpn, 1, i * 2_000)
        })
        .collect();
    Workload {
        name: "warm_rerun",
        geometry: "4ch x 1chip x 1die x 1plane, 2048 blocks x 16 pages, qd 64",
        cfg,
        tenants: 1,
        lpn_space: 54_400,
        trace,
    }
}

struct RunSample {
    events: u64,
    elapsed: Duration,
    events_per_sec: f64,
    phases: PhaseReport,
}

fn run_once(w: &Workload) -> RunSample {
    let layout = TenantLayout::shared(w.tenants, &w.cfg).with_lpn_space_all(w.lpn_space);
    let mut arena = SimArena::new();
    let sim = SimBuilder::new(w.cfg.clone(), layout)
        .precondition(&[1.0])
        .build_with_arena(&mut arena)
        .expect("bench config is valid");
    let start = Instant::now();
    let report = sim
        .run_reclaim(&w.trace, &mut arena)
        .expect("bench trace runs clean");
    let elapsed = start.elapsed();
    black_box(&report);
    RunSample {
        events: report.events_processed,
        elapsed,
        events_per_sec: report.events_per_sec(elapsed),
        phases: report.phases,
    }
}

/// The same workload with a bounded recorder attached — the probed path
/// whose overhead the ≤2 % discipline bounds.
fn run_once_recorded(w: &Workload) -> RunSample {
    let layout = TenantLayout::shared(w.tenants, &w.cfg).with_lpn_space_all(w.lpn_space);
    let mut rec = EventRecorder::with_capacity(1 << 16);
    let mut arena = SimArena::new();
    let sim = SimBuilder::new(w.cfg.clone(), layout)
        .precondition(&[1.0])
        .probe(&mut rec)
        .build_with_arena(&mut arena)
        .expect("bench config is valid");
    let start = Instant::now();
    let report = sim
        .run_reclaim(&w.trace, &mut arena)
        .expect("bench trace runs clean");
    let elapsed = start.elapsed();
    black_box(&report);
    black_box(rec.len());
    RunSample {
        events: report.events_processed,
        elapsed,
        events_per_sec: report.events_per_sec(elapsed),
        phases: report.phases,
    }
}

/// Median of `iters` calls of `f` after `warmup` discarded ones; `f`
/// returns the duration of its own timed region.
fn median_time(iters: usize, warmup: usize, mut f: impl FnMut() -> Duration) -> Duration {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut samples: Vec<Duration> = (0..iters).map(|_| f()).collect();
    samples.sort_unstable();
    samples[(samples.len() - 1) / 2]
}

fn median(sorted: &[RunSample]) -> &RunSample {
    &sorted[(sorted.len() - 1) / 2]
}

/// Median-of-N measurement for one workload, with the spread of its runs.
struct Measured {
    /// The median run.
    median: RunSample,
    /// The fastest run's time.
    min: Duration,
    /// Median absolute deviation of the run times from the median.
    mad: Duration,
}

fn measure(w: &Workload, iters: usize, warmup: usize) -> Measured {
    for _ in 0..warmup {
        black_box(run_once(w));
    }
    let mut samples: Vec<RunSample> = (0..iters).map(|_| run_once(w)).collect();
    samples.sort_unstable_by_key(|s| s.elapsed);
    let med = median(&samples);
    let mut deviations: Vec<Duration> = samples
        .iter()
        .map(|s| s.elapsed.abs_diff(med.elapsed))
        .collect();
    deviations.sort_unstable();
    let mad = deviations[(deviations.len() - 1) / 2];
    println!(
        "sim_throughput/{:<16} iters={iters} events={} min={:?} median={:?} mad={mad:?} max={:?}  {:.0} events/s",
        w.name,
        med.events,
        samples[0].elapsed,
        med.elapsed,
        samples[samples.len() - 1].elapsed,
        med.events_per_sec,
    );
    Measured {
        median: RunSample {
            events: med.events,
            elapsed: med.elapsed,
            events_per_sec: med.events_per_sec,
            phases: med.phases.clone(),
        },
        min: samples[0].elapsed,
        mad,
    }
}

/// Cold vs warm rebuild+run medians.
struct RerunResult {
    cold: Duration,
    warm: Duration,
}

/// Times full build+run cycles: cold constructs every buffer from
/// scratch each iteration; warm draws them from one [`SimArena`] that
/// each cycle returns its buffers to (the `run_reclaim` +
/// `recycle_report` loop the label farm and keeper run). The timed
/// region is identical apart from the arena.
fn measure_warm_rerun(w: &Workload, iters: usize, warmup: usize) -> RerunResult {
    let layout = TenantLayout::shared(w.tenants, &w.cfg).with_lpn_space_all(w.lpn_space);

    let cold = median_time(iters, warmup, || {
        let start = Instant::now();
        let mut arena = SimArena::new();
        let sim = SimBuilder::new(w.cfg.clone(), layout.clone())
            .build_with_arena(&mut arena)
            .expect("bench config is valid");
        let report = sim
            .run_reclaim(&w.trace, &mut arena)
            .expect("bench trace runs clean");
        let elapsed = start.elapsed();
        black_box(&report);
        elapsed
    });
    let mut arena = SimArena::new();
    // At least one discarded cycle primes the arena, so every measured
    // warm cycle is a true rerun.
    let warm = median_time(iters, warmup.max(1), || {
        let start = Instant::now();
        let sim = SimBuilder::new(w.cfg.clone(), layout.clone())
            .build_with_arena(&mut arena)
            .expect("bench config is valid");
        let report = sim
            .run_reclaim(&w.trace, &mut arena)
            .expect("bench trace runs clean");
        black_box(&report);
        arena.recycle_report(report);
        start.elapsed()
    });
    println!(
        "sim_throughput/{:<16} iters={iters} cold_median={cold:?} warm_median={warm:?}",
        w.name,
    );
    RerunResult { cold, warm }
}

/// Label-farm medians at one worker and at `workers`.
struct FarmResult {
    samples: usize,
    cores: usize,
    workers: usize,
    single: Duration,
    multi: Duration,
}

/// The label-farm workload: small enough that a full farm pass is the
/// unit of work, big enough that the 42-strategy sweeps dominate.
fn farm_spec() -> DatasetSpec {
    DatasetSpec {
        samples: 16,
        requests_per_sample: 400,
        ..DatasetSpec::quick(16)
    }
}

/// Times [`Learner::generate_dataset_parallel`] at one worker and at
/// `max(cores, 4)` workers, after checking both write the same dataset.
fn measure_label_farm(iters: usize, warmup: usize) -> FarmResult {
    let learner = Learner::new(farm_spec());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = cores.max(4);
    let single = PoolConfig::with_workers(1);
    let multi = PoolConfig::with_workers(workers);
    let reference = learner.generate_dataset_parallel(97, &single);
    let fanned = learner.generate_dataset_parallel(97, &multi);
    for (a, b) in reference.samples.iter().zip(&fanned.samples) {
        assert_eq!(a.label, b.label, "farm fan-out changed a label");
        assert_eq!(a.features, b.features, "farm fan-out changed features");
    }
    let farm = |pool: &PoolConfig| {
        median_time(iters, warmup, || {
            let start = Instant::now();
            black_box(learner.generate_dataset_parallel(97, pool));
            start.elapsed()
        })
    };
    let r = FarmResult {
        samples: farm_spec().samples,
        cores,
        workers,
        single: farm(&single),
        multi: farm(&multi),
    };
    println!(
        "sim_throughput/{:<16} iters={iters} samples={} 1 worker median={:?}  \
         {workers} workers ({cores} cores) median={:?}  speedup {:.2}x",
        "label_farm",
        r.samples,
        r.single,
        r.multi,
        r.single.as_secs_f64() / r.multi.as_secs_f64(),
    );
    r
}

fn main() {
    if obs::ENABLED {
        eprintln!(
            "sim_throughput: WARNING: host tracing is compiled in (obs/enabled); \
             throughput numbers are not comparable to the tracked baseline"
        );
    }
    let iters = env_usize("SSDKEEPER_BENCH_ITERS", 10).max(1);
    let warmup = env_usize("SSDKEEPER_BENCH_WARMUP", 2);
    let workloads = [sim_micro(), gc_heavy(), read_mostly_8ch(), deep_queue()];

    let results: Vec<Measured> = workloads
        .iter()
        .map(|w| measure(w, iters, warmup))
        .collect();

    let rerun_workload = warm_rerun_workload();
    let rerun = measure_warm_rerun(&rerun_workload, iters, warmup);
    let farm = measure_label_farm(iters, warmup);

    if std::env::var("SSDKEEPER_BENCH_PROBE").is_ok_and(|v| v == "1") {
        let w = &workloads[0];
        for _ in 0..warmup {
            black_box(run_once_recorded(w));
        }
        let mut probed: Vec<RunSample> = (0..iters).map(|_| run_once_recorded(w)).collect();
        probed.sort_unstable_by_key(|s| s.elapsed);
        let pmed = median(&probed);
        let overhead = pmed.elapsed.as_secs_f64() / results[0].median.elapsed.as_secs_f64() - 1.0;
        println!(
            "sim_throughput/{}+recorder  median={:?}  {:.0} events/s  \
             probe overhead {:+.2}% vs NullProbe",
            w.name,
            pmed.elapsed,
            pmed.events_per_sec,
            overhead * 100.0,
        );
    }

    if let Ok(path) = std::env::var("SSDKEEPER_BENCH_JSON") {
        write_json(&path, &workloads, &results, &rerun_workload, &rerun, &farm);
    }
}

/// Reads `"key": <number>` out of `section`'s object in our own JSON,
/// scanning forward from the first occurrence of the section name.
fn json_number(text: &str, section: &str, key: &str) -> Option<f64> {
    let sec = text.find(&format!("\"{section}\""))?;
    let rest = &text[sec..];
    let k = rest.find(&format!("\"{key}\""))?;
    let after = &rest[k..];
    let colon = after.find(':')?;
    let tail = after[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Baseline for one workload from the existing report, scoped to that
/// workload's JSON block (each workload's `baseline` is the first object
/// following its name, which the fixed field order guarantees).
fn stored_baseline(existing: &str, workload: &str) -> Option<(u64, u64, f64)> {
    let start = existing.find(&format!("\"{workload}\""))?;
    let scoped = &existing[start..];
    match (
        json_number(scoped, "baseline", "events"),
        json_number(scoped, "baseline", "median_ns"),
        json_number(scoped, "baseline", "events_per_sec"),
    ) {
        (Some(e), Some(m), Some(eps)) => Some((e as u64, m as u64, eps)),
        _ => None,
    }
}

fn write_json(
    path: &str,
    workloads: &[Workload],
    results: &[Measured],
    rerun_workload: &Workload,
    rerun: &RerunResult,
    farm: &FarmResult,
) {
    // Keep each workload's recorded baseline when the file already has
    // one, so speedups are always measured against the first committed
    // run of that workload on this format.
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let phase = |h: &flash_sim::PhaseHist| {
        format!(
            "{{ \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {} }}",
            h.mean(),
            h.percentile(0.50),
            h.percentile(0.99),
        )
    };
    let mut body = String::from("{\n  \"bench\": \"sim_throughput\",\n  \"workloads\": {\n");
    for (w, m) in workloads.iter().zip(results) {
        let r = &m.median;
        let events = r.events;
        let median_ns = r.elapsed.as_nanos() as u64;
        let (min_ns, mad_ns) = (m.min.as_nanos(), m.mad.as_nanos());
        let eps = r.events_per_sec;
        let (base_events, base_median, base_eps) =
            stored_baseline(&existing, w.name).unwrap_or((events, median_ns, eps));
        let speedup = eps / base_eps;
        let p = &r.phases;
        // Field order is load-bearing: `baseline` precedes `current` so
        // stored_baseline's forward scan stays inside this workload.
        // The warm_rerun and label_farm entries always follow, so every
        // workload entry ends in a joining comma.
        let _ = write!(
            body,
            "    \"{}\": {{\n      \"requests\": {},\n      \"geometry\": \"{}\",\n      \
             \"baseline\": {{ \"events\": {base_events}, \"median_ns\": {base_median}, \
             \"events_per_sec\": {base_eps:.1} }},\n      \
             \"current\": {{ \"events\": {events}, \"median_ns\": {median_ns}, \
             \"min_ns\": {min_ns}, \"mad_ns\": {mad_ns}, \"events_per_sec\": {eps:.1} }},\n      \
             \"phases\": {{\n        \"wait_unit\": {},\n        \"array\": {},\n        \
             \"wait_bus\": {},\n        \"transfer\": {},\n        \"gc_exec\": {},\n        \
             \"queue_depth\": {{ \"mean\": {:.2}, \"p50\": {}, \"p99\": {} }}\n      }},\n      \
             \"speedup_vs_baseline\": {speedup:.3}\n    }},\n",
            w.name,
            w.trace.len(),
            w.geometry,
            phase(&p.wait_unit),
            phase(&p.array),
            phase(&p.wait_bus),
            phase(&p.transfer),
            phase(&p.gc_exec),
            p.queue_depth.mean(),
            p.queue_depth.percentile(0.50),
            p.queue_depth.percentile(0.99),
        );
        println!(
            "sim_throughput: {} speedup vs baseline: {speedup:.3}x",
            w.name
        );
    }
    // Arena-reuse row: cold vs warm rebuild+run medians. The `_ns`
    // fields carry no mean/median/p50 tag on purpose: wall-clock noise
    // on this short cycle would make a relative ssdtrace gate flaky.
    let _ = write!(
        body,
        "    \"{}\": {{\n      \"requests\": {},\n      \"geometry\": \"{}\",\n      \
         \"cold_ns\": {},\n      \"warm_ns\": {}\n    }},\n",
        rerun_workload.name,
        rerun_workload.trace.len(),
        rerun_workload.geometry,
        rerun.cold.as_nanos(),
        rerun.warm.as_nanos(),
    );
    // Label-farm row: the baseline is the 1-worker run of this same
    // invocation. On one core the fan-out only measures oversubscription,
    // so the gated `current` row is the single-worker run there.
    let lps = |d: Duration| farm.samples as f64 / d.as_secs_f64().max(1e-12);
    let scaling_meaningful = farm.cores > 1;
    let tracked = if scaling_meaningful {
        farm.multi
    } else {
        farm.single
    };
    let _ = write!(
        body,
        "    \"label_farm\": {{\n      \"samples\": {},\n      \
         \"cores\": {},\n      \"workers\": {},\n      \
         \"scaling_meaningful\": {scaling_meaningful},\n      \
         \"baseline\": {{ \"median_ns\": {}, \"labels_per_sec\": {:.3} }},\n      \
         \"current\": {{ \"median_ns\": {}, \"labels_per_sec\": {:.3} }},\n      \
         \"speedup_vs_1_worker\": {:.3}\n    }}\n",
        farm.samples,
        farm.cores,
        farm.workers,
        farm.single.as_nanos(),
        lps(farm.single),
        tracked.as_nanos(),
        lps(tracked),
        lps(farm.multi) / lps(farm.single),
    );
    body.push_str("  }\n}\n");
    std::fs::write(path, body).expect("write BENCH json");
    println!("sim_throughput: wrote {path}");
}
