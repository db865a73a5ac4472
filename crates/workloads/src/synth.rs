//! Synthesis of one tenant's request stream from its spec.

use crate::address::AddressGen;
use crate::arrival::ArrivalGen;
use crate::spec::{SizeDist, TenantSpec};
use flash_sim::{IoRequest, Op};
use simrng::Rng;

/// Generates `count` requests for `tenant_id` according to `spec`.
///
/// The stream is sorted by arrival time (arrivals are generated
/// monotonically) and fully determined by `(spec, tenant_id, count, seed)`.
///
/// # Panics
///
/// Panics if the spec fails validation — call [`TenantSpec::validate`]
/// first when handling untrusted input.
pub fn generate_tenant_stream(
    spec: &TenantSpec,
    tenant_id: u16,
    count: usize,
    seed: u64,
) -> Vec<IoRequest> {
    spec.validate().expect("invalid tenant spec");
    let mut rng = simrng::SimRng::seed_from_u64(seed ^ (tenant_id as u64) << 48);
    let mut arrivals = ArrivalGen::new(spec.arrival, spec.iops);
    let mut addrs = AddressGen::new(spec.pattern, spec.lpn_space);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let op = if rng.gen_bool(spec.write_ratio) {
            Op::Write
        } else {
            Op::Read
        };
        let size = match spec.size {
            SizeDist::Fixed(n) => n,
            SizeDist::Uniform { min, max } => rng.gen_range(min..=max),
        };
        let arrival_ns = arrivals.next_arrival(&mut rng);
        let lpn = addrs.next_lpn(size, &mut rng);
        out.push(IoRequest {
            id: i as u64,
            tenant: tenant_id,
            op,
            lpn,
            size_pages: size,
            arrival_ns,
        });
    }
    out
}

/// Measured aggregate characteristics of a request stream, for validating
/// that generated traces match their specs.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StreamStats {
    /// Total requests.
    pub count: usize,
    /// Fraction of write requests.
    pub write_ratio: f64,
    /// Mean request size in pages.
    pub mean_size: f64,
    /// Measured rate in I/Os per second.
    pub iops: f64,
}

/// Computes [`StreamStats`] for a stream.
#[cfg(test)]
pub(crate) fn stream_stats(stream: &[IoRequest]) -> StreamStats {
    if stream.is_empty() {
        return StreamStats {
            count: 0,
            write_ratio: 0.0,
            mean_size: 0.0,
            iops: 0.0,
        };
    }
    let writes = stream.iter().filter(|r| r.op == Op::Write).count();
    let pages: u64 = stream.iter().map(|r| r.size_pages as u64).sum();
    let span_ns = stream
        .last()
        .expect("non-empty")
        .arrival_ns
        .saturating_sub(stream[0].arrival_ns)
        .max(1);
    StreamStats {
        count: stream.len(),
        write_ratio: writes as f64 / stream.len() as f64,
        mean_size: pages as f64 / stream.len() as f64,
        iops: stream.len() as f64 / (span_ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AddressPattern, ArrivalProcess};

    fn base_spec() -> TenantSpec {
        TenantSpec::synthetic("t", 0.3, 10_000.0, 1 << 14)
    }

    #[test]
    fn stream_has_requested_count_and_sorted_arrivals() {
        let s = generate_tenant_stream(&base_spec(), 0, 500, 1);
        assert_eq!(s.len(), 500);
        assert!(s.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
        assert!(s.iter().all(|r| r.tenant == 0 && r.size_pages == 1));
    }

    #[test]
    fn write_ratio_is_honoured() {
        let s = generate_tenant_stream(&base_spec(), 1, 10_000, 2);
        let stats = stream_stats(&s);
        assert!(
            (stats.write_ratio - 0.3).abs() < 0.02,
            "got {}",
            stats.write_ratio
        );
    }

    #[test]
    fn iops_is_honoured() {
        let s = generate_tenant_stream(&base_spec(), 0, 20_000, 3);
        let stats = stream_stats(&s);
        assert!(
            (stats.iops - 10_000.0).abs() / 10_000.0 < 0.05,
            "got {}",
            stats.iops
        );
    }

    #[test]
    fn sizes_follow_distribution() {
        let mut spec = base_spec();
        spec.size = SizeDist::Uniform { min: 2, max: 6 };
        let s = generate_tenant_stream(&spec, 0, 5_000, 4);
        assert!(s.iter().all(|r| (2..=6).contains(&r.size_pages)));
        let stats = stream_stats(&s);
        assert!(
            (stats.mean_size - 4.0).abs() < 0.15,
            "got {}",
            stats.mean_size
        );
    }

    #[test]
    fn deterministic_per_seed_and_tenant() {
        let a = generate_tenant_stream(&base_spec(), 0, 100, 5);
        let b = generate_tenant_stream(&base_spec(), 0, 100, 5);
        assert_eq!(a, b);
        let c = generate_tenant_stream(&base_spec(), 0, 100, 6);
        assert_ne!(a, c);
        let d = generate_tenant_stream(&base_spec(), 1, 100, 5);
        assert_ne!(
            a.iter().map(|r| r.lpn).collect::<Vec<_>>(),
            d.iter().map(|r| r.lpn).collect::<Vec<_>>(),
            "different tenants must draw different streams"
        );
    }

    #[test]
    fn bursty_sequential_spec_generates() {
        let spec = TenantSpec {
            arrival: ArrivalProcess::OnOff {
                on_fraction: 0.25,
                burst_len: 16,
            },
            pattern: AddressPattern::SequentialRuns { run_len: 8 },
            ..base_spec()
        };
        let s = generate_tenant_stream(&spec, 2, 1_000, 7);
        assert_eq!(s.len(), 1_000);
        assert!(s.iter().all(|r| r.lpn < 1 << 14));
    }

    #[test]
    fn empty_stream_stats() {
        let stats = stream_stats(&[]);
        assert_eq!(stats.count, 0);
        assert_eq!(stats.iops, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid tenant spec")]
    fn invalid_spec_panics() {
        let mut spec = base_spec();
        spec.write_ratio = 7.0;
        let _ = generate_tenant_stream(&spec, 0, 10, 1);
    }
}
