//! Replaying **real** block traces (MSR-Cambridge CSV format).
//!
//! The evaluation in this repository substitutes synthetic stand-ins for
//! the MSR-Cambridge traces (see [`crate::msr`]); this module is the hook
//! for users who have the originals. It parses the SNIA CSV layout
//!
//! ```text
//! Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//! 128166372003061629,mds,0,Read,7014609920,24576,41286
//! ```
//!
//! (timestamps are Windows FILETIME: 100 ns ticks since 1601; offsets and
//! sizes are bytes) and converts the byte-addressed records into the
//! page-granular, zero-based [`IoRequest`]s the simulator consumes.

use flash_sim::{IoRequest, Op};

/// One parsed block-trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRecord {
    /// Windows FILETIME timestamp (100 ns ticks since 1601-01-01).
    pub timestamp: u64,
    /// Host name column (e.g. "mds").
    pub host: String,
    /// Disk number within the host.
    pub disk: u32,
    /// Read or write.
    pub op: Op,
    /// Byte offset on the volume.
    pub offset_bytes: u64,
    /// Transfer size in bytes.
    pub size_bytes: u64,
}

/// Errors from [`parse_msr_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A line had fewer than 6 comma-separated fields.
    ShortLine {
        /// 1-based line number.
        line: usize,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// The column name.
        field: &'static str,
    },
    /// The Type column was neither `Read` nor `Write`.
    BadOp {
        /// 1-based line number.
        line: usize,
        /// The value found.
        value: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::ShortLine { line } => write!(f, "line {line}: too few fields"),
            ReplayError::BadNumber { line, field } => {
                write!(f, "line {line}: field `{field}` is not a number")
            }
            ReplayError::BadOp { line, value } => {
                write!(f, "line {line}: unknown op `{value}`")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Parses MSR-Cambridge CSV text. Blank lines are skipped; a header line
/// starting with `Timestamp` is tolerated. The `ResponseTime` column (and
/// anything after it) is ignored — the simulator recomputes latencies.
pub fn parse_msr_csv(text: &str) -> Result<Vec<BlockRecord>, ReplayError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with("Timestamp") {
            continue;
        }
        let mut fields = trimmed.split(',');
        let mut next = || fields.next().map(str::trim);
        let timestamp = next()
            .ok_or(ReplayError::ShortLine { line })?
            .parse()
            .map_err(|_| ReplayError::BadNumber {
                line,
                field: "Timestamp",
            })?;
        let host = next().ok_or(ReplayError::ShortLine { line })?.to_string();
        let disk = next()
            .ok_or(ReplayError::ShortLine { line })?
            .parse()
            .map_err(|_| ReplayError::BadNumber {
                line,
                field: "DiskNumber",
            })?;
        let op_str = next().ok_or(ReplayError::ShortLine { line })?;
        let op = match op_str {
            "Read" | "read" | "R" => Op::Read,
            "Write" | "write" | "W" => Op::Write,
            other => {
                return Err(ReplayError::BadOp {
                    line,
                    value: other.to_string(),
                })
            }
        };
        let offset_bytes = next()
            .ok_or(ReplayError::ShortLine { line })?
            .parse()
            .map_err(|_| ReplayError::BadNumber {
                line,
                field: "Offset",
            })?;
        let size_bytes = next()
            .ok_or(ReplayError::ShortLine { line })?
            .parse()
            .map_err(|_| ReplayError::BadNumber {
                line,
                field: "Size",
            })?;
        out.push(BlockRecord {
            timestamp,
            host,
            disk,
            op,
            offset_bytes,
            size_bytes,
        });
    }
    Ok(out)
}

/// How to map block records onto simulator requests.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Flash page size in bytes (must match the simulated device).
    pub page_size: u64,
    /// Tenant id to stamp on every request.
    pub tenant: u16,
    /// Logical space to fold LPNs into (the raw volumes are far larger
    /// than scaled simulated devices). LPNs are taken modulo this bound,
    /// preserving locality structure within the bound.
    pub lpn_space: u64,
    /// Optional wall-clock compression: arrival gaps are divided by this
    /// factor (1.0 = real time). Useful to push a lightly loaded trace
    /// into the contention regime under study.
    pub time_compression: f64,
}

impl ReplayConfig {
    /// Sensible defaults for the Table I device: 16 KB pages, tenant 0,
    /// 2²⁰-page space, real-time replay.
    pub fn new(tenant: u16) -> Self {
        Self {
            page_size: 16 * 1024,
            tenant,
            lpn_space: 1 << 20,
            time_compression: 1.0,
        }
    }
}

/// Converts parsed records to page-granular [`IoRequest`]s:
///
/// * timestamps are rebased to zero and converted from 100 ns ticks to
///   nanoseconds (with optional compression);
/// * byte extents become page extents (`offset / page_size`, size rounded
///   up to whole pages, minimum one page);
/// * LPNs are folded into `lpn_space`.
///
/// Records must be handed in ascending timestamp order, as the MSR files
/// are distributed; the output is sorted defensively anyway.
pub fn to_page_requests(records: &[BlockRecord], cfg: &ReplayConfig) -> Vec<IoRequest> {
    assert!(cfg.page_size > 0, "page size must be non-zero");
    assert!(cfg.lpn_space > 0, "lpn space must be non-zero");
    assert!(cfg.time_compression > 0.0, "compression must be positive");
    let base = records.iter().map(|r| r.timestamp).min().unwrap_or(0);
    let mut out: Vec<IoRequest> = records
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let ticks = r.timestamp - base;
            let arrival_ns = ((ticks as f64) * 100.0 / cfg.time_compression) as u64;
            let first_page = r.offset_bytes / cfg.page_size;
            let last_page = r.offset_bytes.saturating_add(r.size_bytes.max(1) - 1) / cfg.page_size;
            let size_pages = (last_page - first_page + 1).min(u32::MAX as u64) as u32;
            IoRequest {
                id: i as u64,
                tenant: cfg.tenant,
                op: r.op,
                lpn: first_page % cfg.lpn_space,
                size_pages,
                arrival_ns,
            }
        })
        .collect();
    out.sort_by_key(|r| r.arrival_ns);
    for (i, r) in out.iter_mut().enumerate() {
        r.id = i as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
128166372003061629,mds,0,Read,32768,24576,41286
128166372003061630,mds,0,Write,65536,4096,9016
128166372013061631,mds,1,Read,665600,16384,3572
";

    #[test]
    fn parses_records_and_skips_header() {
        let recs = parse_msr_csv(SAMPLE).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].op, Op::Read);
        assert_eq!(recs[0].host, "mds");
        assert_eq!(recs[1].op, Op::Write);
        assert_eq!(recs[2].disk, 1);
        assert_eq!(recs[2].size_bytes, 16384);
        assert_eq!(recs[0].offset_bytes, 32768);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let recs = parse_msr_csv("\n\n128166372003061629,a,0,Read,0,512,1\n\n").unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn rejects_short_lines() {
        assert_eq!(
            parse_msr_csv("1,mds,0,Read").unwrap_err(),
            ReplayError::ShortLine { line: 1 }
        );
    }

    #[test]
    fn rejects_bad_numbers_and_ops() {
        assert_eq!(
            parse_msr_csv("abc,mds,0,Read,0,512,1").unwrap_err(),
            ReplayError::BadNumber {
                line: 1,
                field: "Timestamp"
            }
        );
        assert_eq!(
            parse_msr_csv("1,mds,0,Erase,0,512,1").unwrap_err(),
            ReplayError::BadOp {
                line: 1,
                value: "Erase".to_string()
            }
        );
    }

    #[test]
    fn conversion_rebases_time_and_pages() {
        let recs = parse_msr_csv(SAMPLE).unwrap();
        let cfg = ReplayConfig::new(3);
        let reqs = to_page_requests(&recs, &cfg);
        assert_eq!(reqs.len(), 3);
        // First record is the time base.
        assert_eq!(reqs[0].arrival_ns, 0);
        // Second: 1 tick later = 100 ns.
        assert_eq!(reqs[1].arrival_ns, 100);
        // Third: 10_000_002 ticks later = 1_000_000_200 ns.
        assert_eq!(reqs[2].arrival_ns, 1_000_000_200);
        // 24576 bytes (1.5 pages) from a page-aligned offset spans 2 pages.
        assert_eq!(reqs[0].size_pages, 2);
        assert_eq!(reqs[0].lpn, 2);
        // 4096 bytes within one page.
        assert_eq!(reqs[1].size_pages, 1);
        assert_eq!(reqs[1].lpn, 4);
        assert!(reqs.iter().all(|r| r.tenant == 3));
        assert!(reqs.iter().all(|r| r.lpn < cfg.lpn_space));
    }

    #[test]
    fn unaligned_extents_cover_both_pages() {
        let rec = BlockRecord {
            timestamp: 10,
            host: "h".into(),
            disk: 0,
            op: Op::Write,
            offset_bytes: 16 * 1024 - 50,
            size_bytes: 100,
        };
        let reqs = to_page_requests(&[rec], &ReplayConfig::new(0));
        assert_eq!(reqs[0].size_pages, 2);
        assert_eq!(reqs[0].lpn, 0);
    }

    #[test]
    fn zero_size_becomes_one_page() {
        let rec = BlockRecord {
            timestamp: 0,
            host: "h".into(),
            disk: 0,
            op: Op::Read,
            offset_bytes: 32 * 1024,
            size_bytes: 0,
        };
        let reqs = to_page_requests(&[rec], &ReplayConfig::new(0));
        assert_eq!(reqs[0].size_pages, 1);
        assert_eq!(reqs[0].lpn, 2);
    }

    #[test]
    fn time_compression_divides_gaps() {
        let recs = vec![
            BlockRecord {
                timestamp: 0,
                host: "h".into(),
                disk: 0,
                op: Op::Read,
                offset_bytes: 0,
                size_bytes: 512,
            },
            BlockRecord {
                timestamp: 1_000,
                host: "h".into(),
                disk: 0,
                op: Op::Read,
                offset_bytes: 0,
                size_bytes: 512,
            },
        ];
        let mut cfg = ReplayConfig::new(0);
        cfg.time_compression = 10.0;
        let reqs = to_page_requests(&recs, &cfg);
        // 1000 ticks = 100_000 ns real time, compressed 10x -> 10_000 ns.
        assert_eq!(reqs[1].arrival_ns, 10_000);
    }

    #[test]
    fn replayed_trace_drives_the_simulator() {
        use flash_sim::{SimArena, SimBuilder, SsdConfig, TenantLayout};
        let recs = parse_msr_csv(SAMPLE).unwrap();
        let mut cfg = ReplayConfig::new(0);
        cfg.lpn_space = 1 << 10;
        let trace = to_page_requests(&recs, &cfg);
        let ssd = SsdConfig {
            blocks_per_plane: 64,
            pages_per_block: 32,
            ..SsdConfig::paper_table1()
        };
        let layout = TenantLayout::shared(1, &ssd).with_lpn_space_all(1 << 10);
        let mut arena = SimArena::new();
        let sim = SimBuilder::new(ssd, layout)
            .build_with_arena(&mut arena)
            .unwrap();
        let report = sim.run_reclaim(&trace, &mut arena).unwrap();
        assert_eq!(report.total.count, 3);
    }
}
