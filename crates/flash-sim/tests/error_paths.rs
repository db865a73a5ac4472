//! Error-path coverage for trace validation and `SimError` rendering:
//! every rejection a caller can hit has a stable, actionable Display
//! string, and both backends reject malformed inputs the same way.

use flash_sim::{
    validate_trace, BackendKind, IoRequest, NullProbe, Op, SimArena, SimBuilder, SimError,
    SsdConfig, TenantLayout,
};

fn cfg() -> SsdConfig {
    SsdConfig::small_test()
}

fn layout(cfg: &SsdConfig) -> TenantLayout {
    TenantLayout::shared(2, cfg).with_lpn_space_all(64)
}

fn req(id: u64, tenant: u16, lpn: u64, pages: u32, at: u64) -> IoRequest {
    IoRequest::new(id, tenant, Op::Write, lpn, pages, at)
}

#[test]
fn unsorted_trace_names_the_first_bad_index() {
    let trace = vec![req(0, 0, 0, 1, 100), req(1, 0, 1, 1, 50)];
    let err = validate_trace(&trace, 2).unwrap_err();
    assert!(matches!(err, SimError::TraceNotSorted { index: 1 }));
    assert_eq!(err.to_string(), "trace not sorted by arrival at index 1");
}

#[test]
fn out_of_range_tenant_is_reported_with_its_id() {
    let trace = vec![req(0, 0, 0, 1, 0), req(1, 9, 0, 1, 10)];
    let err = validate_trace(&trace, 2).unwrap_err();
    assert!(matches!(
        err,
        SimError::UnknownTenant {
            index: 1,
            tenant: 9
        }
    ));
    assert_eq!(err.to_string(), "request 1 names unknown tenant 9");
}

#[test]
fn zero_page_request_is_rejected() {
    let trace = vec![req(0, 0, 0, 0, 0)];
    let err = validate_trace(&trace, 2).unwrap_err();
    assert!(matches!(err, SimError::EmptyRequest { index: 0 }));
    assert_eq!(err.to_string(), "request 0 has zero pages");
}

/// The same validation guards both backends: a bad trace fails a
/// `Backend::run` before any time is simulated or any byte is written.
#[test]
fn both_backends_reject_bad_traces_before_running() {
    let target = std::env::temp_dir().join(format!("ssdkeeper-errpath-{}.img", std::process::id()));
    for kind in [
        BackendKind::Sim,
        BackendKind::File {
            path: target.clone(),
        },
    ] {
        let be = SimBuilder::new(cfg(), layout(&cfg()))
            .build_backend(&kind)
            .unwrap();
        let trace = vec![req(0, 0, 0, 1, 100), req(1, 0, 1, 1, 50)];
        let err = be
            .run(&trace, &mut NullProbe, &mut SimArena::new())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "trace not sorted by arrival at index 1",
            "{kind}"
        );
    }
    let _ = std::fs::remove_file(target);
}

/// A forced tiny command arena overflows deterministically and names
/// its limit, instead of silently wrapping CmdIds.
#[test]
fn exhausted_cmd_slots_name_the_limit() {
    let c = cfg();
    let lay = layout(&c);
    // One request large enough to need more in-flight page commands
    // than the forced one-slot arena can name.
    let trace = vec![req(0, 0, 0, 8, 0)];
    let err = SimBuilder::new(c, lay)
        .cmd_slot_limit(1)
        .build_with_arena(&mut SimArena::new())
        .unwrap()
        .run_reclaim(&trace, &mut SimArena::new())
        .unwrap_err();
    assert!(matches!(err, SimError::CmdIdsExhausted { limit: 1 }));
    assert_eq!(
        err.to_string(),
        "command arena exhausted: 1 slots all in flight"
    );
}

/// Oversubscribing the physical planes fails at build time with the
/// plane and the page counts spelled out.
#[test]
fn capacity_exceeded_reports_plane_and_counts() {
    let c = cfg();
    let lay = TenantLayout::shared(2, &c).with_lpn_space_all(1 << 40);
    let err = SimBuilder::new(c, lay)
        .build_with_arena(&mut SimArena::new())
        .map(|_| ())
        .unwrap_err();
    match &err {
        SimError::CapacityExceeded {
            required,
            available,
            ..
        } => assert!(required > available),
        other => panic!("expected CapacityExceeded, got {other}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("logical pages but only") && msg.contains("fit"),
        "{msg}"
    );
}

/// The Io variant renders the failing operation and the OS reason; it
/// is raised when the file backend's target cannot be opened.
#[test]
fn io_error_renders_op_and_reason() {
    let err = SimError::Io {
        op: "open",
        reason: "permission denied".into(),
    };
    assert_eq!(err.to_string(), "real-I/O open failed: permission denied");

    let be = SimBuilder::new(cfg(), layout(&cfg()))
        .build_backend(&BackendKind::File {
            path: "/nonexistent-dir/ssdkeeper-replay.img".into(),
        })
        .unwrap();
    let err = be
        .run(&[req(0, 0, 0, 1, 0)], &mut NullProbe, &mut SimArena::new())
        .unwrap_err();
    match &err {
        SimError::Io { op, .. } => assert_eq!(*op, "open"),
        other => panic!("expected Io error, got {other}"),
    }
    assert!(
        err.to_string().starts_with("real-I/O open failed:"),
        "{err}"
    );
}

/// Bad reallocations carry a human-readable reason.
#[test]
fn bad_reallocation_renders_its_reason() {
    let err = SimError::BadReallocation {
        reason: "tenant 7 out of range".into(),
    };
    assert_eq!(err.to_string(), "bad reallocation: tenant 7 out of range");
}
