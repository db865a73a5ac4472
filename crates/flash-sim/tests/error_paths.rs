//! Error-path coverage for trace validation and `SimError` rendering:
//! every rejection a caller can hit has a stable, actionable Display
//! string, and the simulator rejects a malformed trace before running it.

use flash_sim::{
    validate_trace, IoRequest, Op, SimArena, SimBuilder, SimError, SsdConfig, TenantLayout,
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

/// The same validation guards a run: a bad trace fails `run_reclaim`
/// before any time is simulated, so no report comes back.
#[test]
fn run_rejects_bad_traces_before_running() {
    let mut arena = SimArena::new();
    let sim = SimBuilder::new(cfg(), layout(&cfg()))
        .build_with_arena(&mut arena)
        .unwrap();
    let trace = vec![req(0, 0, 0, 1, 100), req(1, 0, 1, 1, 50)];
    let err = sim.run_reclaim(&trace, &mut arena).unwrap_err();
    assert!(matches!(err, SimError::TraceNotSorted { index: 1 }));
    assert_eq!(err.to_string(), "trace not sorted by arrival at index 1");
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

/// Bad reallocations carry a human-readable reason.
#[test]
fn bad_reallocation_renders_its_reason() {
    let err = SimError::BadReallocation {
        reason: "tenant 7 out of range".into(),
    };
    assert_eq!(err.to_string(), "bad reallocation: tenant 7 out of range");
}

/// A device with 2^32 pages cannot pack its last page id below the
/// unmapped marker; the build refuses it with a typed configuration
/// error instead of aliasing pages.
#[test]
fn build_rejects_a_device_whose_page_ids_overflow() {
    let cfg = SsdConfig {
        blocks_per_plane: 1 << 19,
        ..SsdConfig::paper_table1()
    };
    let Err(err) =
        SimBuilder::new(cfg.clone(), layout(&cfg)).build_with_arena(&mut SimArena::new())
    else {
        panic!("a 2^32-page device must be rejected");
    };
    assert_eq!(
        err.to_string(),
        "configuration error: total pages is 4294967296, but at most 4294967295 are supported"
    );
}
