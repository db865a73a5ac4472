//! Backend-trait contract tests: the sim backend is bit-identical to the
//! bare simulator, and the file backend replays real I/O with the same
//! probe-stream shape. File-backed tests skip gracefully (printed
//! "skipped", still passing) where the environment can't run them, so
//! `cargo test -q` stays hermetic in CI containers.

use flash_sim::backend::io_uring_available;
use flash_sim::probe::ProbeEvent;
use flash_sim::{
    BackendKind, EventRecorder, IoRequest, NullProbe, Op, Reallocation, SimArena, SimBuilder,
    SimError, SsdConfig, TenantLayout,
};
use std::path::PathBuf;
use std::sync::Mutex;

/// Serializes the tests that set `SSDKEEPER_REPLAY_ENGINE`; the var is
/// process-global and the harness runs tests on parallel threads.
static ENGINE_ENV: Mutex<()> = Mutex::new(());

fn small_cfg() -> SsdConfig {
    let mut cfg = SsdConfig::small_test();
    cfg.channels = 4;
    cfg
}

fn two_tenant_layout(cfg: &SsdConfig) -> TenantLayout {
    TenantLayout::shared(2, cfg).with_lpn_space_all(64)
}

fn mixed_trace() -> Vec<IoRequest> {
    let mut trace = Vec::new();
    for i in 0..40u64 {
        let tenant = (i % 2) as u16;
        let op = if i % 3 == 0 { Op::Read } else { Op::Write };
        trace.push(IoRequest::new(
            i,
            tenant,
            op,
            (i * 7) % 64,
            1 + (i % 4) as u32,
            i * 5_000,
        ));
    }
    trace
}

fn realloc_at(at_ns: u64) -> Reallocation {
    Reallocation::new(at_ns, vec![(0, vec![0, 1], None), (1, vec![2, 3], None)])
}

fn tmp_target(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "ssdkeeper-backend-{tag}-{}.img",
        std::process::id()
    ))
}

/// The refactor is zero-cost on the simulated path: running through the
/// `Backend` trait object produces the exact report and probe stream
/// the bare `Simulator` produces.
#[test]
fn sim_backend_is_bit_identical_to_direct_simulator() {
    let cfg = small_cfg();
    let layout = two_tenant_layout(&cfg);
    let trace = mixed_trace();

    let mut direct_rec = EventRecorder::with_capacity(1 << 14);
    let mut direct_sim = SimBuilder::new(cfg.clone(), layout.clone())
        .probe(&mut direct_rec)
        .build_with_arena(&mut SimArena::new())
        .unwrap();
    direct_sim
        .schedule_reallocation(realloc_at(50_000))
        .unwrap();
    let direct = direct_sim
        .run_reclaim(&trace, &mut SimArena::new())
        .unwrap();

    let mut be_rec = EventRecorder::with_capacity(1 << 14);
    let mut be = SimBuilder::new(cfg, layout)
        .build_backend(&BackendKind::Sim)
        .unwrap();
    assert_eq!(be.name(), "sim");
    assert_eq!(be.engine(), "sim");
    be.schedule_reallocation(realloc_at(50_000)).unwrap();
    let via_backend = be.run(&trace, &mut be_rec, &mut SimArena::new()).unwrap();

    assert_eq!(direct, via_backend, "reports must be identical");
    assert_eq!(
        direct_rec.encode(),
        be_rec.encode(),
        "SSDP captures must be byte-identical"
    );
}

/// Preconditioning and slot limits configured on the builder reach the
/// sim backend.
#[test]
fn sim_backend_honors_builder_preconditioning() {
    let cfg = small_cfg();
    let layout = two_tenant_layout(&cfg);
    let be = SimBuilder::new(cfg, layout)
        .precondition(&[0.5, 0.5])
        .build_backend(&BackendKind::Sim)
        .unwrap();
    let report = be.run(&[], &mut NullProbe, &mut SimArena::new()).unwrap();
    assert!(report.ftl.seeded_pages > 0, "preconditioning must apply");
}

/// Backends reject the same malformed reallocations the simulator does,
/// at schedule time.
#[test]
fn backends_validate_reallocations_eagerly() {
    for kind in [
        BackendKind::Sim,
        BackendKind::File {
            path: tmp_target("validate"),
        },
    ] {
        let cfg = small_cfg();
        let layout = two_tenant_layout(&cfg);
        let mut be = SimBuilder::new(cfg, layout).build_backend(&kind).unwrap();
        let err = be
            .schedule_reallocation(Reallocation::new(0, vec![(7, vec![0], None)]))
            .unwrap_err();
        assert!(
            matches!(err, SimError::BadReallocation { .. }),
            "{kind}: {err}"
        );
        be.schedule_reallocation(realloc_at(10)).unwrap();
        let err = be.schedule_reallocation(realloc_at(5)).unwrap_err();
        assert!(err.to_string().contains("scheduled after"), "{kind}: {err}");
    }
    let _ = std::fs::remove_file(tmp_target("validate"));
}

/// File backend replays a mixed trace against a tmpfile and reports
/// measured latencies through the same report/probe shapes.
#[test]
fn file_backend_round_trips_against_a_tmpfile() {
    let target = tmp_target("roundtrip");
    let cfg = small_cfg();
    let layout = two_tenant_layout(&cfg);
    let trace = mixed_trace();

    let mut rec = EventRecorder::with_capacity(1 << 14);
    let mut be = SimBuilder::new(cfg, layout)
        .build_backend(&BackendKind::File {
            path: target.clone(),
        })
        .unwrap();
    assert_eq!(be.name(), "file");
    be.schedule_reallocation(realloc_at(50_000)).unwrap();
    let report = be.run(&trace, &mut rec, &mut SimArena::new()).unwrap();
    let _ = std::fs::remove_file(&target);

    assert_eq!(report.total.count as usize, trace.len());
    let pages: u64 = trace.iter().map(|r| r.size_pages as u64).sum();
    assert_eq!(report.events_processed, pages, "one command per page");
    assert_eq!(
        report.read_breakdown.cmds + report.write_breakdown.cmds,
        pages
    );
    assert!(report.makespan_ns > 0, "measured time advanced");
    assert_eq!(report.ftl.seeded_pages, 0, "no simulated FTL state");

    // The probe stream has the simulator's shape: issue/acquire/release/
    // complete per page, plus the applied reallocation.
    let events = rec.to_vec();
    let count = |f: &dyn Fn(&ProbeEvent) -> bool| events.iter().filter(|e| f(e)).count() as u64;
    assert_eq!(count(&|e| matches!(e, ProbeEvent::CmdIssue(_))), pages);
    assert_eq!(count(&|e| matches!(e, ProbeEvent::CmdComplete(_))), pages);
    assert_eq!(count(&|e| matches!(e, ProbeEvent::BusAcquire(_))), pages);
    assert_eq!(count(&|e| matches!(e, ProbeEvent::BusRelease(_))), pages);
    assert_eq!(count(&|e| matches!(e, ProbeEvent::Realloc(_))), 2);

    // Capture encodes/decodes through the same SSDP codec.
    let bytes = rec.encode();
    let (decoded, dropped) = flash_sim::probe::decode_events(&bytes).unwrap();
    assert_eq!(decoded.len(), events.len());
    assert_eq!(dropped, 0);
}

/// The pread/pwrite fallback is always available; forcing it must work
/// on every kernel.
#[test]
fn file_backend_pread_engine_works() {
    let _guard = ENGINE_ENV.lock().unwrap();
    std::env::set_var("SSDKEEPER_REPLAY_ENGINE", "pread");
    let target = tmp_target("pread");
    let cfg = small_cfg();
    let layout = two_tenant_layout(&cfg);
    let be = SimBuilder::new(cfg, layout)
        .build_backend(&BackendKind::File {
            path: target.clone(),
        })
        .unwrap();
    assert_eq!(be.engine(), "pread");
    let report = be
        .run(&mixed_trace(), &mut NullProbe, &mut SimArena::new())
        .unwrap();
    std::env::remove_var("SSDKEEPER_REPLAY_ENGINE");
    let _ = std::fs::remove_file(&target);
    assert_eq!(report.total.count as usize, mixed_trace().len());
}

/// io_uring-specific path; skips cleanly where the kernel or container
/// does not provide io_uring.
#[test]
fn file_backend_uring_engine_when_available() {
    if !io_uring_available() {
        eprintln!("skipped: io_uring unavailable in this environment");
        return;
    }
    let _guard = ENGINE_ENV.lock().unwrap();
    std::env::set_var("SSDKEEPER_REPLAY_ENGINE", "uring");
    let target = tmp_target("uring");
    let cfg = small_cfg();
    let layout = two_tenant_layout(&cfg);
    let be = SimBuilder::new(cfg, layout)
        .build_backend(&BackendKind::File {
            path: target.clone(),
        })
        .unwrap();
    assert_eq!(be.engine(), "io_uring");
    let report = be
        .run(&mixed_trace(), &mut NullProbe, &mut SimArena::new())
        .unwrap();
    std::env::remove_var("SSDKEEPER_REPLAY_ENGINE");
    let _ = std::fs::remove_file(&target);
    assert_eq!(report.total.count as usize, mixed_trace().len());
}

/// Replay against a user-designated real target (device or filesystem
/// path), gated on `SSDKEEPER_REPLAY_PATH`; skips when unset so CI
/// never touches real storage it wasn't pointed at.
#[test]
fn file_backend_against_designated_target() {
    let path = match std::env::var("SSDKEEPER_REPLAY_PATH") {
        Ok(p) if !p.is_empty() => PathBuf::from(p),
        _ => {
            eprintln!("skipped: SSDKEEPER_REPLAY_PATH unset");
            return;
        }
    };
    let cfg = small_cfg();
    let layout = two_tenant_layout(&cfg);
    let be = SimBuilder::new(cfg, layout)
        .build_backend(&BackendKind::File { path })
        .unwrap();
    let report = be
        .run(&mixed_trace(), &mut NullProbe, &mut SimArena::new())
        .unwrap();
    assert_eq!(report.total.count as usize, mixed_trace().len());
}
