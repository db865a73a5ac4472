//! Offline analysis of probe captures — the library behind `ssdtrace`.
//!
//! A `.ssdp` capture (written by `fig5 --trace-out` or any
//! [`flash_sim::EventRecorder`] user) is decoded and replayed into the
//! same streaming [`MetricsProbe`] a live run would attach, so a summary
//! computed offline from a full capture is identical to one computed
//! online. On top of that this crate provides the three renderers the
//! CLI exposes:
//!
//! * [`render_text`] / [`render_json`] / [`render_csv`] — per-tenant
//!   latency percentiles, per-channel utilization, GC amplification;
//! * [`timeline_csv`] — time-bucketed throughput / queue depth / GC
//!   activity for plotting;
//! * [`diff_docs`] — compare the numeric leaves of two reports (either
//!   two `summarize --json` outputs or two `BENCH_sim.json`), flagging
//!   regressions past a threshold so CI can hold the line;
//! * [`live`] — validate/summarize the NDJSON telemetry streamed by the
//!   obs sampler (`--telemetry` on exp binaries);
//! * [`flame`] — fold, merge, and rank the host-side span stacks the
//!   obs layer exports (`--spans`), flamegraph.pl-compatible.
//!
//! JSON output is byte-deterministic for a given capture: field order is
//! fixed and floats print with pinned precision, which is what lets
//! `scripts/verify.sh` keep a golden summary under `tests/golden/`.

#![forbid(unsafe_code)]

pub mod flame;
pub mod json;
pub mod live;

use flash_sim::metrics::{MetricsProbe, MetricsSummary};
use flash_sim::probe::{decode_events, replay, ProbeCodecError, ProbeEvent};
use flash_sim::{EventRecorder, SimArena, SimBuilder, SsdConfig, TenantLayout};
use json::{flatten_numbers, Json};
use std::fmt::Write as _;
use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

/// A decoded `.ssdp` capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// Events, oldest first.
    pub events: Vec<ProbeEvent>,
    /// Events the recorder's ring dropped before the first one here.
    pub dropped: u64,
}

/// Decodes a `.ssdp` byte buffer.
pub fn decode_capture(bytes: &[u8]) -> Result<Capture, ProbeCodecError> {
    decode_events(bytes).map(|(events, dropped)| Capture { events, dropped })
}

/// Replays a capture into a fresh [`MetricsProbe`] and snapshots it.
/// `window_ns == 0` skips the timeline (summaries don't need one).
pub fn summarize(events: &[ProbeEvent], window_ns: u64) -> MetricsSummary {
    let mut probe = MetricsProbe::new(window_ns);
    replay(events, &mut probe);
    probe.into_summary()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Human-readable summary: percentile table, channel table, GC line.
pub fn render_text(s: &MetricsSummary, dropped: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "capture: {} events ({} dropped before retention), span {:.3} ms",
        s.events_observed,
        dropped,
        s.span_ns() as f64 / 1e6
    );
    if dropped > 0 {
        let _ = writeln!(
            out,
            "WARNING: recorder dropped {dropped} events — percentiles and counts below \
             reflect only the retained window"
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<8} {:<6} {:>8} {:>11} {:>10} {:>10} {:>10} {:>11}",
        "tenant", "class", "count", "mean_us", "p50_us", "p95_us", "p99_us", "max_us"
    );
    for (t, tm) in s.tenants.iter().enumerate() {
        for (class, stats) in [("read", &tm.read), ("write", &tm.write)] {
            if stats.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "t{:<7} {:<6} {:>8} {:>11.1} {:>10.1} {:>10.1} {:>10.1} {:>11.1}",
                t,
                class,
                stats.count,
                stats.mean_us(),
                us(stats.percentile_ns(0.50)),
                us(stats.percentile_ns(0.95)),
                us(stats.percentile_ns(0.99)),
                us(stats.max_ns),
            );
        }
        if tm.gc_cmds > 0 {
            let _ = writeln!(
                out,
                "t{:<7} {:<6} {:>8} {:>11.1}",
                t,
                "gc",
                tm.gc_cmds,
                tm.gc_ns as f64 / tm.gc_cmds as f64 / 1_000.0,
            );
        }
    }
    let _ = writeln!(out);
    let util = s.channel_utilization();
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>8} {:>9} {:>12} {:>8}",
        "channel", "busy_ms", "util", "acquires", "bus_wait_ms", "issues"
    );
    for (c, cm) in s.channels.iter().enumerate() {
        let _ = writeln!(
            out,
            "ch{:<6} {:>10.3} {:>7.1}% {:>9} {:>12.3} {:>8}",
            c,
            cm.busy_ns as f64 / 1e6,
            util[c] * 100.0,
            cm.acquires,
            cm.bus_wait_ns as f64 / 1e6,
            cm.issues,
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "gc: {} passes, {} pages moved, {} blocks erased, {:.3} ms busy, write amplification {:.4}",
        s.gc.passes,
        s.gc.moved_pages,
        s.gc.erased_blocks,
        s.gc.busy_ns as f64 / 1e6,
        s.write_amplification(),
    );
    out
}

fn latency_json(out: &mut String, stats: &flash_sim::LatencyStats) {
    let max = if stats.count == 0 { 0 } else { stats.max_ns };
    let _ = write!(
        out,
        "{{\"count\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
        stats.count,
        stats.mean_ns(),
        stats.percentile_ns(0.50),
        stats.percentile_ns(0.95),
        stats.percentile_ns(0.99),
        stats.percentile_ns(0.999),
        max,
    );
}

/// Machine-readable summary with a pinned schema and pinned float
/// precision — byte-deterministic for a given capture.
pub fn render_json(s: &MetricsSummary, dropped: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"ssdtrace\": 1,");
    let _ = writeln!(out, "  \"events\": {},", s.events_observed);
    let _ = writeln!(out, "  \"dropped\": {dropped},");
    let _ = writeln!(out, "  \"span_ns\": {},", s.span_ns());
    let _ = writeln!(out, "  \"tenants\": [");
    for (t, tm) in s.tenants.iter().enumerate() {
        let _ = write!(out, "    {{\"tenant\": {t}, \"read\": ");
        latency_json(&mut out, &tm.read);
        let _ = write!(out, ", \"write\": ");
        latency_json(&mut out, &tm.write);
        let _ = write!(
            out,
            ", \"gc_cmds\": {}, \"gc_ns\": {}}}",
            tm.gc_cmds, tm.gc_ns
        );
        let _ = writeln!(out, "{}", if t + 1 < s.tenants.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"channels\": [");
    let util = s.channel_utilization();
    for (c, cm) in s.channels.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"channel\": {c}, \"busy_ns\": {}, \"utilization\": {:.6}, \"acquires\": {}, \"bus_wait_ns\": {}, \"issues\": {}}}",
            cm.busy_ns, util[c], cm.acquires, cm.bus_wait_ns, cm.issues,
        );
        let _ = writeln!(out, "{}", if c + 1 < s.channels.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(
        out,
        "  \"gc\": {{\"passes\": {}, \"moved_pages\": {}, \"erased_blocks\": {}, \"busy_ns\": {}, \"write_amplification\": {:.4}}}",
        s.gc.passes,
        s.gc.moved_pages,
        s.gc.erased_blocks,
        s.gc.busy_ns,
        s.write_amplification(),
    );
    let _ = writeln!(out, "}}");
    out
}

/// Per-tenant latency table as CSV (one row per tenant × class).
pub fn render_csv(s: &MetricsSummary) -> String {
    let mut out = String::from("tenant,class,count,mean_ns,p50_ns,p95_ns,p99_ns,p999_ns,max_ns\n");
    for (t, tm) in s.tenants.iter().enumerate() {
        for (class, stats) in [("read", &tm.read), ("write", &tm.write)] {
            let max = if stats.count == 0 { 0 } else { stats.max_ns };
            let _ = writeln!(
                out,
                "{t},{class},{},{:.1},{},{},{},{},{}",
                stats.count,
                stats.mean_ns(),
                stats.percentile_ns(0.50),
                stats.percentile_ns(0.95),
                stats.percentile_ns(0.99),
                stats.percentile_ns(0.999),
                max,
            );
        }
    }
    out
}

/// Timeline as CSV, one row per window: completions, GC activity, and
/// mean queue depth, plus a completions-per-second rate column.
pub fn timeline_csv(s: &MetricsSummary) -> String {
    let mut out = String::from(
        "window_start_ns,completes,completes_per_sec,gc_completes,gc_passes,mean_queue_depth\n",
    );
    let window_s = s.window_ns as f64 / 1e9;
    for w in &s.timeline {
        let rate = if window_s == 0.0 {
            0.0
        } else {
            w.completes as f64 / window_s
        };
        let _ = writeln!(
            out,
            "{},{},{:.1},{},{},{:.2}",
            w.start_ns,
            w.completes,
            rate,
            w.gc_completes,
            w.gc_passes,
            w.mean_queue_depth(),
        );
    }
    out
}

/// A deterministic miniature capture: two tenants with opposite
/// read/write mixes on a preconditioned 2-channel device small enough to
/// trigger GC within a few hundred requests. `scripts/verify.sh` pipes
/// this through `summarize --json` and byte-compares against the golden
/// in `tests/golden/` — regenerate that file (`ssdtrace sample` +
/// `summarize --json`) whenever the simulator's timing or the probe
/// stream intentionally changes.
pub fn sample_capture() -> Vec<u8> {
    let cfg = SsdConfig {
        blocks_per_plane: 16,
        pages_per_block: 16,
        host_queue_depth: 8,
        ..SsdConfig::small_test()
    };
    let streams: Vec<_> = [(0u16, 0.85, 41u64), (1u16, 0.15, 42u64)]
        .iter()
        .map(|&(tenant, write_ratio, seed)| {
            generate_tenant_stream(
                &TenantSpec::synthetic(format!("t{tenant}"), write_ratio, 30_000.0, 384),
                tenant,
                400,
                seed,
            )
        })
        .collect();
    let trace = mix_chronological(&streams, 700);
    let layout = TenantLayout::shared(2, &cfg).with_lpn_space_all(384);
    let mut rec = EventRecorder::with_capacity(1 << 16);
    let mut arena = SimArena::new();
    let sim = SimBuilder::new(cfg, layout)
        .precondition(&[0.6, 0.6])
        .probe(&mut rec)
        .build_with_arena(&mut arena)
        .expect("sample config is valid");
    sim.run_reclaim(&trace, &mut arena)
        .expect("sample trace runs");
    rec.encode()
}

/// Which direction is "better" for a compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Latency-like: regressions are increases.
    LowerBetter,
    /// Throughput-like: regressions are decreases.
    HigherBetter,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Dotted path of the metric in both documents.
    pub key: String,
    /// Value in the old document.
    pub old: f64,
    /// Value in the new document.
    pub new: f64,
    /// Relative change, `(new - old) / old` (0 when `old == 0`).
    pub delta: f64,
    /// Better-direction classification.
    pub direction: Direction,
    /// Whether the change is a regression past the threshold.
    pub regressed: bool,
}

/// Result of diffing two reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diff {
    /// Compared metrics, in old-document order.
    pub rows: Vec<DiffRow>,
    /// Keys present in one document but not the other (informational).
    pub unmatched: Vec<String>,
}

impl Diff {
    /// Rows that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.regressed)
    }

    /// Human-readable table, regressions marked.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self.rows.iter().map(|r| r.key.len()).max().unwrap_or(6);
        let _ = writeln!(
            out,
            "{:<width$} {:>16} {:>16} {:>9}",
            "metric", "old", "new", "delta"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<width$} {:>16.1} {:>16.1} {:>8.1}%{}",
                r.key,
                r.old,
                r.new,
                r.delta * 100.0,
                if r.regressed { "  << REGRESSION" } else { "" },
            );
        }
        for key in &self.unmatched {
            let _ = writeln!(out, "{key}: present in only one report (skipped)");
        }
        out
    }
}

/// Classifies a flattened metric path, `None` when it is not compared.
/// Latency-like metrics (`*p50*_ns` … `*mean*_ns`, `median_ns`) regress
/// upward; any throughput rate (`*_per_sec` — events, decisions,
/// labels) regresses downward. Everything else — counts, raw busy
/// times, config echoes — is ignored.
pub fn metric_direction(key: &str) -> Option<Direction> {
    if key.ends_with("_per_sec") {
        return Some(Direction::HigherBetter);
    }
    if key.ends_with("_ns")
        && ["p50", "p95", "p99", "p999", "mean", "median"]
            .iter()
            .any(|tag| key.contains(tag))
    {
        return Some(Direction::LowerBetter);
    }
    None
}

/// Diffs the comparable numeric leaves of two parsed reports. A metric
/// regresses when it moves past `threshold` (relative) in its bad
/// direction; a metric whose old value is 0 is compared absolutely
/// (any increase of a latency metric from 0 regresses).
pub fn diff_docs(old: &Json, new: &Json, threshold: f64) -> Diff {
    let old_flat = flatten_numbers(old);
    let new_flat: Vec<(String, f64)> = flatten_numbers(new);
    let mut diff = Diff::default();
    for (key, old_val) in &old_flat {
        let Some(direction) = metric_direction(key) else {
            continue;
        };
        let Some((_, new_val)) = new_flat.iter().find(|(k, _)| k == key) else {
            diff.unmatched.push(key.clone());
            continue;
        };
        let delta = if *old_val == 0.0 {
            0.0
        } else {
            (new_val - old_val) / old_val
        };
        let regressed = match direction {
            Direction::LowerBetter => {
                if *old_val == 0.0 {
                    *new_val > 0.0
                } else {
                    delta > threshold
                }
            }
            Direction::HigherBetter => {
                if *old_val == 0.0 {
                    false
                } else {
                    delta < -threshold
                }
            }
        };
        diff.rows.push(DiffRow {
            key: key.clone(),
            old: *old_val,
            new: *new_val,
            delta,
            direction,
            regressed,
        });
    }
    for (key, _) in &new_flat {
        if metric_direction(key).is_some() && !old_flat.iter().any(|(k, _)| k == key) {
            diff.unmatched.push(key.clone());
        }
    }
    diff
}

/// Parses and diffs two report texts (summary JSON or `BENCH_sim.json`).
pub fn diff_texts(old: &str, new: &str, threshold: f64) -> Result<Diff, json::JsonError> {
    Ok(diff_docs(&json::parse(old)?, &json::parse(new)?, threshold))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary() -> (MetricsSummary, u64) {
        let bytes = sample_capture();
        let cap = decode_capture(&bytes).unwrap();
        (summarize(&cap.events, 0), cap.dropped)
    }

    #[test]
    fn sample_capture_summarizes_with_activity_on_every_surface() {
        let (s, dropped) = sample_summary();
        assert_eq!(dropped, 0, "sample recorder must not overflow");
        assert_eq!(s.tenants.len(), 2);
        for (t, tm) in s.tenants.iter().enumerate() {
            assert!(tm.read.count > 0, "tenant {t} saw no reads");
            assert!(tm.write.count > 0, "tenant {t} saw no writes");
        }
        assert!(s.tenants[0].gc_cmds > 0, "write-heavy tenant triggers GC");
        assert_eq!(s.channels.len(), 2);
        assert!(s.channels.iter().all(|c| c.busy_ns > 0));
        assert!(s.gc.passes > 0);
        assert!(s.write_amplification() > 1.0);
        let util = s.channel_utilization();
        assert!(util.iter().all(|&u| u > 0.0 && u <= 1.0), "{util:?}");
    }

    #[test]
    fn sample_capture_is_deterministic() {
        assert_eq!(sample_capture(), sample_capture());
    }

    #[test]
    fn offline_summary_equals_live_aggregation() {
        // Replaying the capture must reproduce exactly what a live
        // MetricsProbe attached to the same run would have aggregated.
        let bytes = sample_capture();
        let cap = decode_capture(&bytes).unwrap();
        let mut live = MetricsProbe::new(1_000_000);
        replay(&cap.events, &mut live);
        let offline = summarize(&cap.events, 1_000_000);
        assert_eq!(live.into_summary(), offline);
        assert!(!offline.timeline.is_empty());
    }

    #[test]
    fn json_rendering_is_valid_and_deterministic() {
        let (s, dropped) = sample_summary();
        let a = render_json(&s, dropped);
        let b = render_json(&s, dropped);
        assert_eq!(a, b);
        let doc = json::parse(&a).expect("render_json emits valid JSON");
        assert_eq!(
            doc.get("events").unwrap().as_num(),
            Some(s.events_observed as f64)
        );
        let tenants = match doc.get("tenants").unwrap() {
            json::Json::Arr(items) => items.clone(),
            other => panic!("tenants not an array: {other:?}"),
        };
        assert_eq!(tenants.len(), 2);
        assert_eq!(
            tenants[0]
                .get("read")
                .unwrap()
                .get("count")
                .unwrap()
                .as_num(),
            Some(s.tenants[0].read.count as f64)
        );
    }

    #[test]
    fn text_and_csv_renderings_cover_all_tenants() {
        let (s, dropped) = sample_summary();
        let text = render_text(&s, dropped);
        assert!(text.contains("t0"));
        assert!(text.contains("ch1"));
        assert!(text.contains("write amplification"));
        let csv = render_csv(&s);
        assert_eq!(csv.lines().count(), 1 + 2 * s.tenants.len());
        assert!(csv.starts_with("tenant,class,count"));
    }

    #[test]
    fn summarize_warns_when_recorder_dropped_events() {
        let (s, _) = sample_summary();
        let clean = render_text(&s, 0);
        assert!(
            !clean.contains("WARNING"),
            "no warning without drops:\n{clean}"
        );
        let lossy = render_text(&s, 37);
        assert!(
            lossy.contains("WARNING: recorder dropped 37 events"),
            "{lossy}"
        );
        // The JSON schema is unchanged either way — drops surface in the
        // existing "dropped" field the golden summary pins.
        assert!(render_json(&s, 37).contains("\"dropped\": 37"));
    }

    #[test]
    fn timeline_csv_has_one_row_per_window() {
        let bytes = sample_capture();
        let cap = decode_capture(&bytes).unwrap();
        let s = summarize(&cap.events, 5_000_000);
        let csv = timeline_csv(&s);
        assert_eq!(csv.lines().count(), 1 + s.timeline.len());
        assert!(s.timeline.len() > 1, "sample spans multiple 5ms windows");
        let total: u64 = s.timeline.iter().map(|w| w.completes).sum();
        assert_eq!(total, s.host_reads() + s.host_writes());
    }

    const OLD_BENCH: &str = r#"{
        "current": { "events": 90000, "median_ns": 15848533, "events_per_sec": 5678759.0 },
        "phases": { "wait_unit_p99_ns": 250000.0, "array_mean_ns": 155000.0, "wait_bus_mean_ns": 0.0 }
    }"#;

    #[test]
    fn diff_passes_when_metrics_hold() {
        let new = r#"{
            "current": { "events": 90000, "median_ns": 15900000, "events_per_sec": 5600000.0 },
            "phases": { "wait_unit_p99_ns": 251000.0, "array_mean_ns": 155000.0, "wait_bus_mean_ns": 0.0 }
        }"#;
        let diff = diff_texts(OLD_BENCH, new, 0.10).unwrap();
        assert_eq!(diff.regressions().count(), 0, "{}", diff.render());
        // Counts like "events" are not compared.
        assert!(!diff.rows.iter().any(|r| r.key == "current.events"));
        // wait_bus has a zero baseline and an unchanged zero value: ok.
        assert!(diff.rows.iter().any(|r| r.key == "phases.wait_bus_mean_ns"));
    }

    #[test]
    fn diff_flags_throughput_and_latency_regressions() {
        let regressed = r#"{
            "current": { "events": 90000, "median_ns": 15848533, "events_per_sec": 4000000.0 },
            "phases": { "wait_unit_p99_ns": 400000.0, "array_mean_ns": 155000.0, "wait_bus_mean_ns": 5000.0 }
        }"#;
        let diff = diff_texts(OLD_BENCH, regressed, 0.10).unwrap();
        let keys: Vec<_> = diff.regressions().map(|r| r.key.as_str()).collect();
        assert!(keys.contains(&"current.events_per_sec"), "{keys:?}");
        assert!(keys.contains(&"phases.wait_unit_p99_ns"), "{keys:?}");
        // Zero-baseline latency that became nonzero also regresses.
        assert!(keys.contains(&"phases.wait_bus_mean_ns"), "{keys:?}");
        assert!(diff.render().contains("REGRESSION"));
    }

    /// Every `*_per_sec` rate is a gated throughput metric — the
    /// decision and label-farm rows ride the same strict diff as
    /// `events_per_sec` — while counts and config echoes stay ignored.
    #[test]
    fn every_per_sec_rate_is_gated_higher_better() {
        for key in [
            "current.events_per_sec",
            "current.decisions_per_sec",
            "baseline.labels_per_sec",
        ] {
            assert_eq!(
                metric_direction(key),
                Some(Direction::HigherBetter),
                "{key}"
            );
        }
        assert_eq!(metric_direction("current.events"), None);
        assert_eq!(metric_direction("config.batch"), None);
        assert_eq!(
            metric_direction("current.median_ns"),
            Some(Direction::LowerBetter)
        );
    }

    #[test]
    fn diff_improvements_and_thresholds_do_not_flag() {
        let improved = r#"{
            "current": { "events": 90000, "median_ns": 14000000, "events_per_sec": 9000000.0 },
            "phases": { "wait_unit_p99_ns": 100000.0, "array_mean_ns": 155000.0, "wait_bus_mean_ns": 0.0 }
        }"#;
        let diff = diff_texts(OLD_BENCH, improved, 0.10).unwrap();
        assert_eq!(diff.regressions().count(), 0, "{}", diff.render());
        // A 9% slip under a 10% threshold is noise, not a regression …
        let slip = r#"{
            "current": { "events": 90000, "median_ns": 15848533, "events_per_sec": 5200000.0 },
            "phases": { "wait_unit_p99_ns": 250000.0, "array_mean_ns": 155000.0, "wait_bus_mean_ns": 0.0 }
        }"#;
        assert_eq!(
            diff_texts(OLD_BENCH, slip, 0.10)
                .unwrap()
                .regressions()
                .count(),
            0
        );
        // … but past a tighter threshold it is.
        assert_eq!(
            diff_texts(OLD_BENCH, slip, 0.05)
                .unwrap()
                .regressions()
                .count(),
            1
        );
    }

    #[test]
    fn diff_of_two_summaries_compares_tenant_percentiles() {
        let (s, dropped) = sample_summary();
        let base = render_json(&s, dropped);
        let self_diff = diff_texts(&base, &base, 0.10).unwrap();
        assert!(self_diff.rows.len() >= 4, "per-tenant p50/p99 compared");
        assert_eq!(self_diff.regressions().count(), 0);
        assert!(self_diff.unmatched.is_empty());
        // Inject a 3x p99 on tenant 0's reads and expect a flag.
        let p99 = s.tenants[0].read.percentile_ns(0.99);
        let worse = base.replace(
            &format!("\"p99_ns\": {p99}"),
            &format!("\"p99_ns\": {}", p99 * 3),
        );
        assert_ne!(base, worse, "substitution must hit");
        let diff = diff_texts(&base, &worse, 0.10).unwrap();
        assert!(
            diff.regressions().any(|r| r.key.contains("p99_ns")),
            "{}",
            diff.render()
        );
    }

    #[test]
    fn unmatched_keys_are_reported_not_compared() {
        let old = r#"{"a": {"p99_ns": 5}}"#;
        let new = r#"{"b": {"p99_ns": 5}}"#;
        let diff = diff_texts(old, new, 0.10).unwrap();
        assert!(diff.rows.is_empty());
        assert_eq!(diff.unmatched.len(), 2);
    }
}
