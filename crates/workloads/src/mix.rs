//! Chronological mixing of per-tenant streams.
//!
//! §V-C: "we first mix the four workloads in chronological order and then
//! take one million traces" — [`mix_chronological`] is exactly that
//! operation, generalized to any tenant count and cut length.

use flash_sim::IoRequest;

/// Merges per-tenant streams by arrival time, retagging each request with
/// its stream index as the tenant id and assigning fresh sequential ids.
/// At most `take` requests are kept (pass `usize::MAX` for all).
///
/// Each input stream must already be sorted by arrival; the merge is
/// stable (ties go to the lower stream index).
pub fn mix_chronological(streams: &[Vec<IoRequest>], take: usize) -> Vec<IoRequest> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let keep = total.min(take);
    let mut cursors = vec![0usize; streams.len()];
    let mut out = Vec::with_capacity(keep);
    while out.len() < keep {
        // Pick the stream whose head arrives earliest.
        let mut best: Option<(u64, usize)> = None;
        for (si, stream) in streams.iter().enumerate() {
            if let Some(req) = stream.get(cursors[si]) {
                let key = (req.arrival_ns, si);
                if best.is_none_or(|(t, s)| key < (t, s)) {
                    best = Some(key);
                }
            }
        }
        let Some((_, si)) = best else { break };
        let req = streams[si][cursors[si]];
        cursors[si] += 1;
        out.push(IoRequest {
            id: out.len() as u64,
            tenant: si as u16,
            ..req
        });
    }
    out
}

/// Per-tenant request shares of a mixed trace (sums to 1 for non-empty
/// traces). The vector is indexed by tenant id.
#[cfg(test)]
fn tenant_shares(mixed: &[IoRequest], tenants: usize) -> Vec<f64> {
    let mut counts = vec![0usize; tenants];
    for r in mixed {
        if (r.tenant as usize) < tenants {
            counts[r.tenant as usize] += 1;
        }
    }
    let total = mixed.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TenantSpec;
    use crate::synth::generate_tenant_stream;
    use flash_sim::Op;

    fn req(t: u16, at: u64) -> IoRequest {
        IoRequest::new(0, t, Op::Read, 0, 1, at)
    }

    #[test]
    fn merge_is_chronological_and_retagged() {
        let a = vec![req(9, 10), req(9, 30)];
        let b = vec![req(9, 20), req(9, 40)];
        let mixed = mix_chronological(&[a, b], usize::MAX);
        let arrivals: Vec<u64> = mixed.iter().map(|r| r.arrival_ns).collect();
        assert_eq!(arrivals, vec![10, 20, 30, 40]);
        let tenants: Vec<u16> = mixed.iter().map(|r| r.tenant).collect();
        assert_eq!(tenants, vec![0, 1, 0, 1]);
        let ids: Vec<u64> = mixed.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ties_break_toward_lower_stream() {
        let a = vec![req(0, 5)];
        let b = vec![req(0, 5)];
        let mixed = mix_chronological(&[a, b], usize::MAX);
        assert_eq!(mixed[0].tenant, 0);
        assert_eq!(mixed[1].tenant, 1);
    }

    #[test]
    fn take_truncates() {
        let a = vec![req(0, 1), req(0, 3), req(0, 5)];
        let b = vec![req(0, 2), req(0, 4), req(0, 6)];
        let mixed = mix_chronological(&[a, b], 4);
        assert_eq!(mixed.len(), 4);
        assert_eq!(mixed.last().unwrap().arrival_ns, 4);
    }

    #[test]
    fn empty_inputs() {
        assert!(mix_chronological(&[], 10).is_empty());
        assert!(mix_chronological(&[vec![], vec![]], 10).is_empty());
        let a = vec![req(0, 1)];
        assert_eq!(mix_chronological(&[a, vec![]], 10).len(), 1);
    }

    #[test]
    fn shares_reflect_intensity_ratio() {
        // Tenant 1 runs at 4x the rate of tenant 0.
        let s0 = generate_tenant_stream(&TenantSpec::synthetic("a", 0.5, 1_000.0, 64), 0, 4_000, 1);
        let s1 =
            generate_tenant_stream(&TenantSpec::synthetic("b", 0.5, 4_000.0, 64), 1, 16_000, 2);
        let mixed = mix_chronological(&[s0, s1], 10_000);
        let shares = tenant_shares(&mixed, 2);
        assert!((shares[0] - 0.2).abs() < 0.03, "share {}", shares[0]);
        assert!((shares[1] - 0.8).abs() < 0.03, "share {}", shares[1]);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merged_output_is_sorted_for_real_streams() {
        let streams: Vec<Vec<IoRequest>> = (0..4)
            .map(|t| {
                generate_tenant_stream(
                    &TenantSpec::synthetic(format!("t{t}"), 0.5, 2_000.0, 256),
                    t,
                    500,
                    t as u64,
                )
            })
            .collect();
        let mixed = mix_chronological(&streams, usize::MAX);
        assert_eq!(mixed.len(), 2_000);
        assert!(mixed.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns));
    }
}
