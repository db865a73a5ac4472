//! `ssdtrace flame` — folded-stack span analysis.
//!
//! Input is the folded format the obs span layer exports (`--spans` on
//! the exp binaries) and flamegraph.pl consumes: one `path value` line
//! per call path, frames joined by `;`, value in nanoseconds. This
//! module merges duplicate paths, computes per-frame *self* time
//! (total minus direct children), and renders a top-N table; the
//! normalized folded form can be re-emitted for flamegraph.pl.

use std::collections::BTreeMap;

/// One call path with its aggregated totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// `;`-joined call path, root first.
    pub path: String,
    /// Total nanoseconds with this path open.
    pub total_ns: u64,
    /// Nanoseconds not attributed to any instrumented child.
    pub self_ns: u64,
}

/// Parsed folded stacks: paths merged and sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldedStacks {
    /// Path → total ns, path-sorted.
    pub totals: BTreeMap<String, u64>,
}

impl FoldedStacks {
    /// Wall-clock attributed to root frames (paths without `;`) — the
    /// per-thread instrumented coverage denominator. Saturates at
    /// `u64::MAX`: each path's total fits, but distinct roots can still
    /// sum past it.
    pub fn root_ns(&self) -> u64 {
        self.totals
            .iter()
            .filter(|(p, _)| !p.contains(';'))
            .fold(0u64, |acc, (_, &v)| acc.saturating_add(v))
    }

    /// Frames with self time computed: `self = total - Σ direct
    /// children`, saturating (clock jitter can make children sum
    /// slightly past the parent, and crafted input past `u64::MAX`).
    pub fn frames(&self) -> Vec<Frame> {
        let mut child_sum: BTreeMap<&str, u64> = BTreeMap::new();
        for (path, total) in &self.totals {
            if let Some((parent, _)) = path.rsplit_once(';') {
                let sum = child_sum.entry(parent).or_default();
                *sum = sum.saturating_add(*total);
            }
        }
        self.totals
            .iter()
            .map(|(path, &total)| Frame {
                path: path.clone(),
                total_ns: total,
                self_ns: total.saturating_sub(child_sum.get(path.as_str()).copied().unwrap_or(0)),
            })
            .collect()
    }

    /// Canonical folded output: merged, sorted, newline-terminated.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, v) in &self.totals {
            out.push_str(path);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

/// Parses folded-stack text. Duplicate paths are summed; a sum that
/// overflows `u64` is an error. Errors name the 1-based line.
pub fn parse_folded(text: &str) -> Result<FoldedStacks, String> {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let (path, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {line_no}: expected `path value`"))?;
        if path.is_empty() {
            return Err(format!("line {line_no}: empty path"));
        }
        let ns: u64 = value
            .parse()
            .map_err(|_| format!("line {line_no}: bad value `{value}`"))?;
        let total = totals.entry(path.to_string()).or_default();
        *total = total
            .checked_add(ns)
            .ok_or_else(|| format!("line {line_no}: total for `{path}` overflows u64"))?;
    }
    if totals.is_empty() {
        return Err("no stacks: empty folded input (run with --features host-trace?)".into());
    }
    Ok(FoldedStacks { totals })
}

/// Top-N self-time table plus the root coverage line.
pub fn render_top(stacks: &FoldedStacks, top: usize) -> String {
    use std::fmt::Write as _;
    let mut frames = stacks.frames();
    frames.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    let root_ns = stacks.root_ns();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flame: {} paths, {:.3} ms attributed at the roots",
        stacks.totals.len(),
        root_ns as f64 / 1e6
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>7}  path",
        "self_ms", "total_ms", "self%"
    );
    let denom = root_ns.max(1) as f64;
    for f in frames.iter().take(top) {
        let _ = writeln!(
            out,
            "{:<12.3} {:>12.3} {:>6.1}%  {}",
            f.self_ns as f64 / 1e6,
            f.total_ns as f64 / 1e6,
            100.0 * f.self_ns as f64 / denom,
            f.path
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
fleet_shard 1000\n\
fleet_shard;keeper_run 800\n\
fleet_shard;keeper_run;keeper_execute 600\n\
fleet_shard;keeper_run;keeper_execute;sim_run 500\n\
sim_run 200\n";

    #[test]
    fn parse_merges_and_sorts() {
        let doubled = format!("{SAMPLE}fleet_shard 50\n");
        let s = parse_folded(&doubled).unwrap();
        assert_eq!(s.totals["fleet_shard"], 1050);
        assert_eq!(s.root_ns(), 1250);
        let folded = s.folded();
        assert!(folded.starts_with("fleet_shard 1050\n"));
        assert_eq!(parse_folded(&folded).unwrap(), s);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let s = parse_folded(SAMPLE).unwrap();
        let frames = s.frames();
        let by_path = |p: &str| frames.iter().find(|f| f.path == p).unwrap();
        assert_eq!(by_path("fleet_shard").self_ns, 200);
        assert_eq!(by_path("fleet_shard;keeper_run").self_ns, 200);
        assert_eq!(
            by_path("fleet_shard;keeper_run;keeper_execute").self_ns,
            100
        );
        assert_eq!(
            by_path("fleet_shard;keeper_run;keeper_execute;sim_run").self_ns,
            500
        );
        assert_eq!(by_path("sim_run").self_ns, 200);
        // Self times of a thread's frames sum to the root total.
        let total_self: u64 = frames
            .iter()
            .filter(|f| f.path.starts_with("fleet_shard"))
            .map(|f| f.self_ns)
            .sum();
        assert_eq!(total_self, 1000);
    }

    #[test]
    fn children_exceeding_parent_saturate() {
        let s = parse_folded("a 10\na;b 25\n").unwrap();
        let frames = s.frames();
        assert_eq!(frames.iter().find(|f| f.path == "a").unwrap().self_ns, 0);
    }

    #[test]
    fn render_orders_by_self_time() {
        let s = parse_folded(SAMPLE).unwrap();
        let text = render_top(&s, 2);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("5 paths"));
        assert!(
            lines[3].ends_with("fleet_shard;keeper_run;keeper_execute;sim_run"),
            "{text}"
        );
        assert_eq!(lines.len(), 5, "top 2 rows only:\n{text}");
    }

    #[test]
    fn bad_lines_error_with_line_number() {
        assert!(parse_folded("").is_err());
        let err = parse_folded("a 10\nnope\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_folded("a ten\n").unwrap_err();
        assert!(err.contains("bad value"), "{err}");
    }

    #[test]
    fn duplicate_path_overflow_is_an_error() {
        let err = parse_folded("a 18446744073709551615\na 1\n").unwrap_err();
        assert_eq!(err, "line 2: total for `a` overflows u64");
    }

    #[test]
    fn child_sum_overflow_saturates() {
        let s = parse_folded("a 5\na;b 18446744073709551615\na;c 1\n").unwrap();
        let frames = s.frames();
        assert_eq!(frames.iter().find(|f| f.path == "a").unwrap().self_ns, 0);
    }

    #[test]
    fn root_sum_overflow_saturates() {
        let s = parse_folded("a 18446744073709551615\nb 1\n").unwrap();
        assert_eq!(s.root_ns(), u64::MAX);
        assert!(render_top(&s, 2).contains("2 paths"));
    }
}
