//! `fleet` — fleet-scale sharded SSD simulation under a two-tier keeper.
//!
//! The paper's keeper manages one SSD. This crate scales it out: a fleet
//! of M independent device shards, each a full [`flash_sim::Simulator`]
//! driven by its own per-device [`ssdkeeper::Keeper`], with a fleet-tier
//! placement policy above them deciding *which device hosts which
//! tenant* before any per-device channel partitioning happens — the
//! two-tier version of Algorithm 2:
//!
//! * **Tier 1 (fleet keeper)** — [`ssdkeeper::placement::FleetPlacer`]
//!   bin-packs tenants onto device namespace slots by predicted
//!   intensity (the same observation-window signal the per-device
//!   features collector quantizes), and re-places the hottest tenant of
//!   a device whose observed tail latency drifts past a threshold.
//! * **Tier 2 (device keeper)** — each shard runs
//!   `Keeper::run(RunSpec::adapt_once(..).with_metrics())`: observe
//!   under `Shared`, predict a channel strategy, re-allocate mid-run.
//!
//! Shards fan out over [`parallel::par_map`] worker threads. Every
//! random decision derives from one fleet seed via the [`seed`] rule, so
//! the merged result is **byte-identical for any worker count** — the
//! [`FleetSummary::digest`] of a run is a pure function of the
//! [`FleetConfig`]. Per-shard metrics merge into one
//! `ssdtrace`-compatible summary (see [`summary`]).

#![warn(missing_docs)]

pub mod seed;
pub mod summary;

use ann::{Activation, Network};
use flash_sim::{IoRequest, SimArena, SsdConfig};
use parallel::{par_map, par_map_init, PoolConfig};
use simrng::{Rng, SimRng};
use ssdkeeper::placement::{FleetPlacer, Placement, TenantLoad};
use ssdkeeper::{ChannelAllocator, Keeper, KeeperConfig, KeeperError, RunSpec};
use workloads::{generate_tenant_stream, mix_chronological, TenantSpec};

pub use summary::{FleetSummary, ShardSummary};

/// How the fleet materializes tenant request streams.
///
/// Streams are a pure function of `(fleet_seed, tenant)` via the
/// [`seed`] rule, so regenerating one on demand yields the same bytes as
/// keeping it resident — the merged digest is identical in both modes
/// (pinned by `lazy_and_eager_streams_produce_identical_digests`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamMode {
    /// Generate each stream on demand: once to observe its placement
    /// window, then again inside the shard that hosts it. Peak memory is
    /// one shard's traffic instead of the whole fleet's (a 1000-tenant
    /// run no longer holds 1000 streams at once).
    #[default]
    Lazy,
    /// Materialize every stream up front. Trades the fleet's full
    /// traffic in memory for generating each stream once; kept as the
    /// byte-identity reference for the lazy path.
    Eager,
}

/// Everything that determines a fleet run. Two equal configs produce
/// byte-identical [`FleetOutcome`]s, regardless of `pool`.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Root of the seed-derivation tree (see [`seed`]).
    pub fleet_seed: u64,
    /// Fleet tenants to generate and place. Must be ≥ `devices`.
    pub tenants: usize,
    /// Device shards. Each is an independent simulator.
    pub devices: usize,
    /// Requests generated per tenant stream.
    pub requests_per_tenant: usize,
    /// Logical pages per tenant (slots hosting k tenants span k× this).
    pub lpn_space_per_tenant: u64,
    /// Hardware model of every device in the fleet.
    pub ssd: SsdConfig,
    /// IOPS scale handed to the allocator's intensity quantizer.
    pub max_total_iops: f64,
    /// Observation window for both tiers: tier 1 reads each tenant's
    /// first window to predict intensity; tier 2 passes it to the
    /// keeper as `observe_window_ns` (also the metrics timeline width).
    pub observe_window_ns: u64,
    /// Worker threads for the shard fan-out. Results never depend on it.
    pub pool: PoolConfig,
    /// Stream residency policy. Results never depend on it either.
    pub stream_mode: StreamMode,
    /// Re-placement trigger: a device whose tail (p99) latency exceeds
    /// `tail_threshold ×` the fleet median gets its hottest tenant moved.
    pub tail_threshold: f64,
    /// Upper bound on re-placement rounds (0 disables the hook).
    pub max_replacements: usize,
}

impl FleetConfig {
    /// A fleet of `devices` shards hosting `tenants` tenants, with the
    /// sweep-scaled device geometry and moderate per-tenant traffic.
    pub fn new(fleet_seed: u64, tenants: usize, devices: usize) -> Self {
        Self {
            fleet_seed,
            tenants,
            devices,
            requests_per_tenant: 1_500,
            lpn_space_per_tenant: 1 << 10,
            ssd: SsdConfig {
                blocks_per_plane: 64,
                pages_per_block: 32,
                ..SsdConfig::paper_table1()
            },
            max_total_iops: 120_000.0,
            observe_window_ns: 50_000_000,
            pool: PoolConfig::auto(),
            stream_mode: StreamMode::Lazy,
            tail_threshold: 2.0,
            max_replacements: 1,
        }
    }

    /// The tracked `fleet_1k` scenario: 1000 tenants across 64 devices.
    pub fn scenario_1k(fleet_seed: u64) -> Self {
        Self::new(fleet_seed, 1_000, 64)
    }

    /// A small scenario for tests and the verify-gate determinism check:
    /// quick at one worker, still multi-tenant per slot.
    pub fn smoke(fleet_seed: u64) -> Self {
        Self {
            requests_per_tenant: 300,
            ..Self::new(fleet_seed, 48, 8)
        }
    }

    /// Checks structural sanity; [`run_fleet`] refuses invalid configs.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.devices == 0 || self.tenants < self.devices {
            return Err(FleetError::Shape {
                tenants: self.tenants,
                devices: self.devices,
            });
        }
        if self.requests_per_tenant == 0 || self.lpn_space_per_tenant == 0 {
            return Err(FleetError::Shape {
                tenants: self.tenants,
                devices: self.devices,
            });
        }
        Ok(())
    }
}

/// One tenant-move made by the re-placement hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replacement {
    /// Re-placement round (0-based).
    pub round: usize,
    /// Fleet tenant id that moved.
    pub tenant: usize,
    /// Device it left.
    pub from: usize,
    /// Device it joined.
    pub to: usize,
}

/// Result of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Merged + per-shard summaries (the digest lives here).
    pub summary: FleetSummary,
    /// Final tenant → (device, slot) placement.
    pub placement: Placement,
    /// Tenant moves the tail-drift hook performed, in order.
    pub replacements: Vec<Replacement>,
}

/// Errors a fleet run can surface.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// Impossible fleet shape (zero devices, tenants < devices, …).
    Shape {
        /// Configured tenant count.
        tenants: usize,
        /// Configured device count.
        devices: usize,
    },
    /// A per-device keeper session failed.
    Keeper(KeeperError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Shape { tenants, devices } => write!(
                f,
                "invalid fleet shape: {tenants} tenants across {devices} devices \
                 (need devices >= 1, tenants >= devices, nonzero traffic)"
            ),
            FleetError::Keeper(e) => write!(f, "per-device keeper failed: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<KeeperError> for FleetError {
    fn from(e: KeeperError) -> Self {
        FleetError::Keeper(e)
    }
}

/// Deterministic per-tenant workload profile drawn from the fleet seed.
fn tenant_spec(cfg: &FleetConfig, tenant: usize) -> TenantSpec {
    let mut rng = SimRng::seed_from_u64(seed::derive(
        cfg.fleet_seed,
        seed::DOMAIN_PROFILE,
        tenant as u64,
    ));
    let write_ratio = rng.gen_range(0.05f64..0.95);
    let iops = rng.gen_range(5_000.0f64..40_000.0);
    TenantSpec::synthetic(
        format!("t{tenant}"),
        write_ratio,
        iops,
        cfg.lpn_space_per_tenant,
    )
}

/// Generates one tenant's request stream from the fleet seed alone —
/// the pure function both [`StreamMode`]s evaluate.
fn tenant_stream(cfg: &FleetConfig, tenant: usize) -> Vec<IoRequest> {
    let spec = tenant_spec(cfg, tenant);
    generate_tenant_stream(
        &spec,
        0,
        cfg.requests_per_tenant,
        seed::derive(cfg.fleet_seed, seed::DOMAIN_STREAM, tenant as u64),
    )
}

/// Builds one device's keeper inputs from the placement: per-slot merged
/// streams (LPN-offset so co-located tenants do not alias pages) and the
/// per-slot LPN spaces. `fetch` yields a tenant's stream — materialized
/// or regenerated, per [`StreamMode`].
fn shard_inputs(
    cfg: &FleetConfig,
    slot_tenants: &[Vec<usize>],
    fetch: &(dyn Fn(usize) -> Vec<IoRequest> + Sync),
) -> (Vec<IoRequest>, Vec<u64>) {
    let mut slot_streams: Vec<Vec<IoRequest>> = Vec::with_capacity(slot_tenants.len());
    let mut lpn_spaces = Vec::with_capacity(slot_tenants.len());
    for tenants in slot_tenants {
        let mut merged: Vec<IoRequest> = Vec::new();
        for (pos, &t) in tenants.iter().enumerate() {
            let base = pos as u64 * cfg.lpn_space_per_tenant;
            merged.extend(fetch(t).into_iter().map(|r| IoRequest {
                lpn: r.lpn + base,
                ..r
            }));
        }
        // Chronological within the slot; the sort is stable over a
        // deterministic concatenation order, so equal arrivals keep the
        // ascending-tenant order they were appended in.
        merged.sort_by_key(|r| r.arrival_ns);
        slot_streams.push(merged);
        lpn_spaces.push(tenants.len() as u64 * cfg.lpn_space_per_tenant);
    }
    let total: usize = slot_streams.iter().map(Vec::len).sum();
    (mix_chronological(&slot_streams, total), lpn_spaces)
}

/// Runs one device shard under its keeper and returns its summary. The
/// shard's simulator draws its buffers from `arena`; every shard a
/// worker runs after its first reuses the same allocation pool.
fn run_shard(
    cfg: &FleetConfig,
    keeper: &Keeper,
    device: usize,
    placement: &Placement,
    fetch: &(dyn Fn(usize) -> Vec<IoRequest> + Sync),
    arena: &mut SimArena,
) -> Result<ShardSummary, FleetError> {
    let slot_tenants = placement.device_slots(device);
    if slot_tenants.is_empty() {
        return Ok(ShardSummary {
            device,
            strategy: ssdkeeper::Strategy::Shared,
            slot_tenants,
            metrics: flash_sim::MetricsSummary::default(),
            events_processed: 0,
            makespan_ns: 0,
        });
    }
    obs::span!("fleet_shard");
    let (trace, lpn_spaces) = shard_inputs(cfg, &slot_tenants, fetch);
    let outcome = keeper.run(
        RunSpec::adapt_once(&trace, &lpn_spaces)
            .with_metrics()
            .with_arena(arena),
    )?;
    obs::counter_add!("fleet.shards_done", 1u64);
    obs::counter_add!(
        "fleet.events_observed",
        outcome
            .metrics
            .as_ref()
            .expect("with_metrics() guarantees a summary")
            .events_observed
    );
    let events_processed = outcome.report.events_processed;
    let makespan_ns = outcome.report.makespan_ns;
    arena.recycle_report(outcome.report);
    Ok(ShardSummary {
        device,
        strategy: outcome.strategy,
        slot_tenants,
        metrics: outcome
            .metrics
            .expect("with_metrics() guarantees a summary"),
        events_processed,
        makespan_ns,
    })
}

/// A shard's observed tail latency: p99 over all host commands.
fn shard_tail_ns(shard: &ShardSummary) -> u64 {
    let mut all = flash_sim::LatencyStats::new();
    for t in &shard.metrics.tenants {
        all.merge(&t.read);
        all.merge(&t.write);
    }
    all.percentile_ns(0.99)
}

/// Runs the whole fleet: generate tenants, place, simulate every shard
/// across the pool, re-place on tail drift, and merge. See the crate
/// docs for the determinism argument.
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetOutcome, FleetError> {
    cfg.validate()?;

    // Tenant population: specs and streams derive from (fleet_seed,
    // tenant id) only — placement and worker count cannot perturb them,
    // and regenerating a stream yields the same bytes as caching it.
    // Tier-1 loads come from each stream's first observation window.
    let tenant_ids: Vec<usize> = (0..cfg.tenants).collect();
    let (resident, loads): (Option<Vec<Vec<IoRequest>>>, Vec<TenantLoad>) = match cfg.stream_mode {
        StreamMode::Eager => {
            let streams: Vec<Vec<IoRequest>> =
                par_map(&cfg.pool, &tenant_ids, |&t| tenant_stream(cfg, t));
            let loads = TenantLoad::observe_all(&streams, cfg.observe_window_ns);
            (Some(streams), loads)
        }
        StreamMode::Lazy => {
            // Each stream lives only as long as its observation.
            let loads = par_map(&cfg.pool, &tenant_ids, |&t| {
                TenantLoad::observe(t, &tenant_stream(cfg, t), cfg.observe_window_ns)
            });
            (None, loads)
        }
    };
    let fetch = |t: usize| match &resident {
        Some(streams) => streams[t].clone(),
        None => tenant_stream(cfg, t),
    };
    let placer = FleetPlacer::new(cfg.devices);
    let mut placement = placer.place(&loads);

    // Tier 2: one deterministic allocator model shared by every shard's
    // keeper (paper topology, seeded from the fleet seed).
    let network = Network::paper_topology(
        Activation::Logistic,
        seed::derive(cfg.fleet_seed, seed::DOMAIN_MODEL, 0),
    );
    let keeper = Keeper::new(
        KeeperConfig {
            ssd: cfg.ssd.clone(),
            observe_window_ns: cfg.observe_window_ns,
            hybrid: false,
        },
        ChannelAllocator::new(network, cfg.max_total_iops),
    );

    let device_ids: Vec<usize> = (0..cfg.devices).collect();
    let run_all =
        |placement: &Placement, devices: &[usize]| -> Result<Vec<ShardSummary>, FleetError> {
            // One simulator arena per pool worker: each worker's shards
            // after the first rebuild their engine allocation-free.
            par_map_init(&cfg.pool, devices, SimArena::new, |arena, _, &d| {
                run_shard(cfg, &keeper, d, placement, &fetch, arena)
            })
            .into_iter()
            .collect()
        };
    let mut shards = run_all(&placement, &device_ids)?;

    // Re-placement hook: while some device's tail drifts past the
    // threshold, move its hottest tenant and re-simulate only the two
    // affected shards. Decisions read merged (worker-count-independent)
    // results, so the loop is deterministic too.
    let mut replacements = Vec::new();
    for round in 0..cfg.max_replacements {
        let tails: Vec<u64> = shards.iter().map(shard_tail_ns).collect();
        let Some((next, moved, from, to)) =
            placer.replace_hottest(&placement, &loads, &tails, cfg.tail_threshold)
        else {
            break;
        };
        placement = next;
        let redone = run_all(&placement, &[from, to])?;
        for shard in redone {
            let d = shard.device;
            shards[d] = shard;
        }
        replacements.push(Replacement {
            round,
            tenant: moved,
            from,
            to,
        });
    }

    Ok(FleetOutcome {
        summary: FleetSummary::from_shards(shards, cfg.ssd.channels),
        placement,
        replacements,
    })
}
