//! Multi-UE fleet engine: N load-coupled UEs against one shared deployment,
//! executed on **spatial shards**.
//!
//! The single-UE engine ([`Scenario::run`]) simulates exactly one device;
//! the paper's findings (HO frequency, dual-steering, QoE impact) are
//! population effects. This module runs a *fleet* of `UeSim`s in lockstep
//! against one immutable [`Deployment`], coupling them through
//! **cell load**: a per-cell attach-count table holds every live UE's
//! serving cells, and each tick's link-layer capacity is scaled by the
//! serving cell's equal share ([`fiveg_link::load_share`]) under the table
//! as the previous tick left it.
//!
//! # Spatial sharding
//!
//! The world is partitioned by the deployment's grid index: a [`ShardMap`]
//! assigns each shard a contiguous band of grid-index x-columns, and each
//! shard owns the UEs currently inside its band (struct-of-arrays layout:
//! parallel `idx`/`sims`/`hooks`/`teles`/`scheds` vectors). Shard-local
//! state a worker touches every tick is plain, unsynchronized data:
//!
//! * serving-cell transitions are appended to a shard-local delta list —
//!   `(cell, ±1)` only when a UE's serving cell changes, nothing on the
//!   ticks it keeps its cells;
//! * a per-shard [`RadioSnapshot`] arena is shared by the shard's UEs — the
//!   snapshot is a pure memo of `(pos, t)`, so sharing it cannot change any
//!   UE's bytes;
//! * per-UE scratch (leg views, candidate tables) lives inside `UeSim` and
//!   is reused across ticks, so steady-state stepping does not allocate.
//!
//! Each worker steps its shards for tick `k`, then waits at the merge
//! barrier. The one worker the barrier names leader performs the **boundary
//! exchange** while the others wait at the release barrier: it applies last
//! tick's departures, then every shard's deltas, to the one persistent load
//! table (commutative integer adds — the table is independent of shard
//! count), and accumulates the load statistics from it, rescanning the
//! table only on ticks where some delta landed. A finalized UE's cells are
//! retired one boundary late, so its last step's publish is still read by
//! the next tick like every other UE's.
//!
//! A worker that panics poisons the barrier as it unwinds: every other
//! worker returns from its wait without touching a shard and exits, and
//! the run re-raises the panicking worker's own payload.
//!
//! A UE whose step moved it across a shard boundary **migrates**: the
//! source shard parks it in its outbox with its fleet index, `UeSim`, hook
//! and telemetry handle (the `AddressMapping`/`Topology` pattern), and the
//! leader moves it into the target shard at the tick-`k` boundary, in shard
//! order. The UE misses no tick and can never be stepped twice in one tick.
//!
//! # Determinism
//!
//! The output is byte-identical at any `--threads` and any `--shards`:
//!
//! * each UE's step sequence depends only on its own scenario and the
//!   load table, never on which shard hosts it;
//! * the table is a commutative integer sum of every shard's deltas, and
//!   tick `k` reads it as the boundary after tick `k-1` left it (no worker
//!   ever observes a partially-applied tick);
//! * migrants arrive in shard order, so a shard's residency order is fixed
//!   too;
//! * results, telemetry ([`Telemetry::absorb`]) and hooks are collected in
//!   UE-index order.
//!
//! UE 0 always runs the base scenario verbatim, so a fleet of size 1
//! produces a [`Trace`] byte-identical to [`Scenario::run`] (held to that
//! by a proptest below). Other UEs get derived seeds, hashed start-tick
//! offsets inside the stagger window, alternating route direction and a
//! small deterministic speed jitter.
//!
//! # Execution modes
//!
//! Every [`EngineMode`] runs the same loop: the same load table, calendar
//! wheel and finalize. The mode decides only whether UEs plan sleeps and
//! what a sleeping UE does:
//!
//! * [`EngineMode::Stepped`] (default) — the scheduler with planning off:
//!   no UE ever sleeps, so every active UE steps every tick. The reference
//!   semantics.
//! * [`EngineMode::EventDriven`] — after each real step the shard asks
//!   `crate::engine::wakeup` for a conservative *inertness window*: the
//!   number of future ticks in which the UE's control plane provably does
//!   nothing (no event arms, no RLF, no HO, no RNG draw). A UE with a
//!   window sleeps on the shard's **calendar wheel** (a 128-slot
//!   [`crate::wheel::EventQueue`] — no steady-state allocation) and is
//!   skipped entirely until its wake tick; on wakeup
//!   `crate::engine::UeSim::catch_up` replays the skipped prologues (clock,
//!   tick counter, mobility) in one analytic burst. A sleeper's serving
//!   cells stay published in the load table, and it is woken early when a
//!   neighbor's attach/detach changes the [`fiveg_link::load_share`] at its
//!   serving cell.
//! * [`EngineMode::Referee`] — the referee: runs the *same* scheduler
//!   decisions as `EventDriven` (same sleeps, same wakes, same wheel), but
//!   instead of skipping a sleeping UE it steps it every tick with
//!   sampling disabled — the full control plane still executes. If a
//!   wakeup bound were ever unsound, the control plane would act during a
//!   "provably inert" tick and the two modes' [`FleetTrace`]s would
//!   diverge; `tests/des_equivalence.rs` and the fleet gates byte-compare
//!   them to prove the bound.
//!
//! Scheduling is a pure function of per-UE state and the load table, so
//! every mode stays byte-identical at any thread/shard count. The
//! scheduled modes share one invariant with `Stepped`: ticks, distance,
//! handovers, reports, RLFs and the whole [`LoadSummary`] are equal; only
//! the data-plane sampling aggregates (`mean_capacity_mbps`,
//! `loaded_ticks`, `mean_load_share`) legitimately differ, because sleeping
//! UEs do not sample the link layer.

use crate::engine::wakeup::PlanScratch;
use crate::engine::{UeRunStats, UeSim};
use crate::hook::SimHook;
use crate::scenario::Scenario;
use crate::trace::Trace;
use crate::wheel::EventQueue;
use fiveg_geo::Point;
use fiveg_link::{load_share, load_share_shifted};
use fiveg_radio::hash2;
use fiveg_ran::{Arch, Carrier, CellId, Deployment, Environment, RadioSnapshot};
use fiveg_telemetry::{Telemetry, TelemetryConfig};
use fiveg_ue::SpeedProfile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// Read-only view of the per-cell attach counts as the previous tick's
/// boundary exchange left them, consumed by `UeSim::step` when computing
/// leg capacities.
///
/// [`CellLoadView::SOLO`] is the single-UE engine's view: no load table at
/// all, every share is exactly `1.0`, and the capacity math is bit-for-bit
/// the pre-fleet engine's (the "no other UEs" contract a fleet of one is
/// held to in `tests/des_equivalence.rs`).
#[derive(Clone, Copy, Default)]
pub struct CellLoadView<'a> {
    counts: Option<&'a [AtomicU32]>,
}

impl<'a> CellLoadView<'a> {
    /// The single-UE view: every cell's share is exactly `1.0`.
    pub const SOLO: CellLoadView<'static> = CellLoadView { counts: None };

    /// A view over the fleet's per-cell attach-count table (indexed by
    /// `CellId`). The counts include the reading UE itself, so a UE alone
    /// on its cell still gets share `1.0`.
    pub fn from_counts(counts: &'a [AtomicU32]) -> CellLoadView<'a> {
        CellLoadView { counts: Some(counts) }
    }

    /// Equal capacity share of `cell` under the recorded load.
    pub fn share(&self, cell: CellId) -> f64 {
        match self.counts {
            None => 1.0,
            Some(c) => load_share(c.get(cell.0 as usize).map_or(0, |a| a.load(Ordering::Relaxed))),
        }
    }
}

/// How the lockstep loop treats quiescent UEs (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// Every active UE steps every tick — the v2 reference semantics.
    #[default]
    Stepped,
    /// Runs the event-driven schedule (same sleeps, wakes and wheel as
    /// [`EngineMode::EventDriven`]) but steps sleeping UEs every tick with
    /// sampling disabled, so their full control plane still executes. The
    /// referee mode: byte-equality with `EventDriven` proves every wakeup
    /// bound sound.
    Referee,
    /// Skips provably-inert UEs entirely: sleeping UEs are parked on a
    /// per-shard calendar wheel and replay the skipped ticks analytically
    /// on wakeup.
    EventDriven,
}

impl EngineMode {
    /// Whether UEs plan sleeps, and the run reports a [`SchedSummary`].
    fn scheduled(self) -> bool {
        self != EngineMode::Stepped
    }
}

/// Execution geometry of a fleet run: worker threads, spatial shards and
/// the stepping mode.
///
/// Workers own shards round-robin (`shard % threads`), so `threads` is
/// effectively capped at the shard count. `shards == 0` means "match the
/// thread count" — the default [`FleetExec::threads`] sets. A fleet of one
/// on [`EngineMode::EventDriven`] is the event-driven single-UE engine.
/// All three knobs change only wall-clock behavior and the data-plane
/// sampling aggregates: the control-plane output is byte-identical at any
/// combination, and within the two scheduled modes the whole
/// [`FleetTrace`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetExec {
    /// Worker threads (clamped to `[1, n_ues]`, then to the shard count).
    pub threads: usize,
    /// Spatial shards (0 = match `threads`).
    pub shards: usize,
    /// Stepping engine (defaults to [`EngineMode::Stepped`]).
    pub engine: EngineMode,
}

impl FleetExec {
    /// `threads` workers over the same number of shards, fixed stepping.
    pub fn threads(threads: usize) -> FleetExec {
        FleetExec { threads, shards: 0, engine: EngineMode::Stepped }
    }

    /// Overrides the shard count.
    pub fn shards(mut self, shards: usize) -> FleetExec {
        self.shards = shards;
        self
    }

    /// Overrides the stepping engine.
    pub fn engine(mut self, engine: EngineMode) -> FleetExec {
        self.engine = engine;
        self
    }
}

/// Spatial partition of a deployment for the fleet engine: shard `s` owns a
/// contiguous band of the grid index's x-columns (and thereby every UE
/// positioned inside the band). Pure function of the deployment and the
/// shard count — every worker computes identical shard assignments.
#[derive(Debug, Clone)]
pub struct ShardMap {
    x0: i64,
    cols: i64,
    bin_m: f64,
    shards: usize,
}

impl ShardMap {
    /// Partitions `d`'s grid x-extent into `shards` contiguous bands.
    pub fn new(d: &Deployment, shards: usize) -> ShardMap {
        let (x0, cols, bin_m) = d.grid_x_columns();
        ShardMap { x0, cols, bin_m, shards: shards.max(1) }
    }

    /// Number of shards in the partition.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `pos`. Positions outside the grid extent clamp to
    /// the nearest edge column, so every position maps to exactly one
    /// shard.
    pub fn shard_of(&self, pos: &Point) -> usize {
        let col = (((pos.x / self.bin_m).floor() as i64) - self.x0).clamp(0, self.cols - 1);
        if col == self.cols - 1 {
            // the last column always owns the last shard; the band formula
            // below cannot reach it when the grid is narrower than the
            // shard count (cols < shards)
            return self.shards - 1;
        }
        (col as usize * self.shards) / self.cols as usize
    }
}

/// A fleet of N UEs derived from one base scenario.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// The base scenario: deployment seed, route, carrier, arch, workload.
    /// UE 0 runs it verbatim.
    pub base: Scenario,
    /// Fleet size (>= 1).
    pub n_ues: u32,
    /// Start offsets are hashed into `[0, stagger_s]` of simulated time
    /// (UE 0 always starts at tick 0).
    pub stagger_s: f64,
    /// Per-UE speed scale is hashed into `1.0 ± speed_jitter` (UE 0 keeps
    /// the base profile).
    pub speed_jitter: f64,
    /// Keep every per-UE [`Trace`] in the [`FleetTrace`] (memory scales
    /// with fleet size × duration; off by default — summaries only).
    pub keep_traces: bool,
}

impl FleetSpec {
    /// A fleet with the default heterogeneity: 20 s stagger window, ±10%
    /// speed jitter, summaries only.
    pub fn new(base: Scenario, n_ues: u32) -> FleetSpec {
        FleetSpec { base, n_ues, stagger_s: 20.0, speed_jitter: 0.1, keep_traces: false }
    }

    /// Sets the start-offset window, s.
    pub fn stagger_s(mut self, s: f64) -> FleetSpec {
        self.stagger_s = s;
        self
    }

    /// Sets the speed-jitter fraction.
    pub fn speed_jitter(mut self, j: f64) -> FleetSpec {
        self.speed_jitter = j;
        self
    }

    /// Keeps the per-UE traces in the fleet output.
    pub fn keep_traces(mut self, keep: bool) -> FleetSpec {
        self.keep_traces = keep;
        self
    }

    /// The derived plan for UE `ue`: scenario, global start tick, route
    /// direction. Pure function of the spec — workers on any shard compute
    /// identical plans.
    pub fn ue_plan(&self, ue: u32) -> UePlan {
        if ue == 0 {
            // the identity UE: base scenario verbatim, so a fleet of one
            // reproduces the single-UE engine byte for byte
            return UePlan { ue, scenario: self.base.clone(), start_tick: 0, reversed: false };
        }
        let meta = self.plan_meta(ue);
        let mut s = self.base.clone();
        s.seed = meta.seed;
        if meta.reversed {
            let mut pts = s.route.points().to_vec();
            pts.reverse();
            s.route = fiveg_geo::Polyline::new(pts);
        }
        let scale = 1.0 + self.speed_jitter * (2.0 * unit(meta.seed, 0x5BEED) - 1.0);
        s.speed = scale_speed(s.speed, scale);
        UePlan { ue, scenario: s, start_tick: meta.start_tick, reversed: meta.reversed }
    }

    /// The cheap part of [`FleetSpec::ue_plan`] — seed, start tick, route
    /// direction — computable without cloning the base scenario, so a
    /// million-UE fleet can schedule every UE up front and build the full
    /// plan only at activation time.
    pub(crate) fn plan_meta(&self, ue: u32) -> PlanMeta {
        if ue == 0 {
            return PlanMeta { seed: self.base.seed, start_tick: 0, reversed: false };
        }
        let seed = hash2(self.base.seed, 0xF1EE_7000 ^ ue as u64);
        let window = (self.stagger_s * self.base.sample_hz).max(0.0) as u64;
        let start_tick = if window == 0 { 0 } else { hash2(seed, 0x0FF5E7) % (window + 1) };
        PlanMeta { seed, start_tick, reversed: ue % 2 == 1 }
    }
}

/// Uniform draw in `[0, 1)` from a seeded hash.
fn unit(seed: u64, salt: u64) -> f64 {
    (hash2(seed, salt) >> 11) as f64 / (1u64 << 53) as f64
}

fn scale_speed(sp: SpeedProfile, f: f64) -> SpeedProfile {
    match sp {
        SpeedProfile::Constant { mps } => SpeedProfile::Constant { mps: mps * f },
        SpeedProfile::StopAndGo { peak_mps, period_s, stop_s } => {
            SpeedProfile::StopAndGo { peak_mps: peak_mps * f, period_s, stop_s }
        }
    }
}

/// One UE's derived scenario and schedule.
#[derive(Debug, Clone)]
pub struct UePlan {
    /// UE index within the fleet.
    pub ue: u32,
    /// The derived scenario (seed, route direction, speed).
    pub scenario: Scenario,
    /// Global tick at which this UE enters the simulation.
    pub start_tick: u64,
    /// Whether the route runs opposite to the base direction.
    pub reversed: bool,
}

/// The schedule-only slice of a [`UePlan`]: everything the shard seeding
/// and the summaries need, without the cloned scenario.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanMeta {
    pub(crate) seed: u64,
    pub(crate) start_tick: u64,
    pub(crate) reversed: bool,
}

/// Fleet-run metadata (thread- and shard-count independent by construction).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMeta {
    /// Fleet size.
    pub n_ues: u32,
    /// Base scenario seed (per-UE seeds derive from it).
    pub seed: u64,
    /// Carrier under test.
    pub carrier: Carrier,
    /// Deployment environment.
    pub env: Environment,
    /// Service architecture.
    pub arch: Arch,
    /// Tick rate, Hz.
    pub sample_hz: f64,
    /// Per-UE simulated-time cap, s.
    pub max_duration_s: f64,
    /// Start-offset window, s.
    pub stagger_s: f64,
    /// Speed-jitter fraction.
    pub speed_jitter: f64,
    /// Cells in the shared deployment.
    pub cells: u32,
    /// Global lockstep ticks executed.
    pub ticks: u64,
}

/// Per-UE result summary: the trace-level aggregates plus the fleet-only
/// congestion statistics that never reach a single-UE [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct UeSummary {
    /// UE index within the fleet.
    pub ue: u32,
    /// The UE's derived scenario seed.
    pub seed: u64,
    /// Global tick at which the UE entered the simulation.
    pub start_tick: u64,
    /// Route direction relative to the base scenario.
    pub reversed: bool,
    /// Ticks the UE executed.
    pub ticks: u64,
    /// Distance traveled, m.
    pub traveled_m: f64,
    /// Completed handovers.
    pub handovers: u64,
    /// Failed handovers (fault injection).
    pub ho_failures: u64,
    /// Radio link failures.
    pub rlf_count: u64,
    /// Measurement reports sent.
    pub reports: u64,
    /// Mean per-tick downlink capacity, Mbps.
    pub mean_capacity_mbps: f64,
    /// Ticks where the serving share was < 1.0 (cell contention).
    pub loaded_ticks: u64,
    /// Mean serving share over the run (1.0 = never contended).
    pub mean_load_share: f64,
}

impl UeSummary {
    /// The engine-invariant fields — ticks, distance, handovers, failures,
    /// RLFs and reports — for direct equality asserts between a stepped and
    /// an event-driven run of the same fleet.
    pub fn control(&self) -> (u64, f64, u64, u64, u64, u64) {
        (self.ticks, self.traveled_m, self.handovers, self.ho_failures, self.rlf_count, self.reports)
    }

    /// Built from the engine's streamed [`UeRunStats`], whether or not the
    /// UE kept its trace. `capacity_sum` is the left-to-right fold over the
    /// sampled ticks, so a kept trace implies exactly these bytes.
    fn from_stats(ue: u32, meta: PlanMeta, st: &UeRunStats) -> UeSummary {
        UeSummary {
            ue,
            seed: meta.seed,
            start_tick: meta.start_tick,
            reversed: meta.reversed,
            ticks: st.ticks,
            traveled_m: st.traveled_m,
            handovers: st.handovers,
            ho_failures: st.ho_failures,
            rlf_count: st.rlf_count,
            reports: st.reports,
            mean_capacity_mbps: if st.ticks == 0 { 0.0 } else { st.capacity_sum / st.ticks as f64 },
            loaded_ticks: st.loaded_ticks,
            mean_load_share: if st.ticks == 0 { 1.0 } else { st.share_sum / st.ticks as f64 },
        }
    }
}

/// Fleet-level load statistics, accumulated by the barrier leader from the
/// load table once per boundary exchange (one thread at a time, so the scan
/// order — and the result — is independent of worker and shard count).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadSummary {
    /// Peak number of UEs stepping in one tick.
    pub peak_active_ues: u32,
    /// Peak concurrent attached UEs on one cell (both legs counted).
    pub peak_cell_ues: u32,
    /// Σ over ticks and cells of the attach count (UE·tick units; a
    /// dual-connected UE contributes on both serving cells).
    pub attach_ue_ticks: u64,
    /// The subset of `attach_ue_ticks` on cells holding >= 2 UEs — the
    /// share-reducing congestion the link layer actually sees.
    pub contended_ue_ticks: u64,
}

/// Scheduler statistics of a scheduled-mode run, identical between
/// [`EngineMode::Referee`] and [`EngineMode::EventDriven`] by
/// construction (both run the same schedule; the byte-compare gates hold
/// them to it). All counters are commutative per-UE sums, so they are
/// independent of thread and shard count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedSummary {
    /// UE·ticks skipped (event mode) or stepped without sampling (referee).
    pub skipped_ue_ticks: u64,
    /// Sleep windows entered.
    pub sleeps: u64,
    /// Sleeps cut short because a neighbor changed the serving cell's load
    /// share.
    pub load_wakes: u64,
    /// Realized sleep lengths, bucketed `<=4`, `<=16`, `<=64`, `>64` ticks.
    pub wake_hist: [u64; 4],
}

impl SchedSummary {
    fn record_wake(&mut self, missed: u64, load_wake: bool) {
        self.skipped_ue_ticks += missed;
        let b = match missed {
            0..=4 => 0,
            5..=16 => 1,
            17..=64 => 2,
            _ => 3,
        };
        self.wake_hist[b] += 1;
        if load_wake {
            self.load_wakes += 1;
        }
    }

    fn absorb(&mut self, other: &SchedSummary) {
        self.skipped_ue_ticks += other.skipped_ue_ticks;
        self.sleeps += other.sleeps;
        self.load_wakes += other.load_wakes;
        for (a, b) in self.wake_hist.iter_mut().zip(other.wake_hist) {
            *a += b;
        }
    }
}

/// The deterministic output of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTrace {
    /// Run metadata.
    pub meta: FleetMeta,
    /// Per-UE summaries, in UE order.
    pub ues: Vec<UeSummary>,
    /// Fleet-level load statistics.
    pub load: LoadSummary,
    /// Scheduler statistics (`None` for [`EngineMode::Stepped`] runs, and in
    /// pre-v3 reports).
    pub sched: Option<SchedSummary>,
    /// Per-UE traces, in UE order (empty unless [`FleetSpec::keep_traces`]).
    pub traces: Vec<Trace>,
}

/// Observer that observes nothing: the hook-free fleet path.
struct NoHook;
impl SimHook for NoHook {}

/// Runs a fleet with telemetry disabled, at the execution geometry `exec`
/// (`FleetExec::threads(n)` for `n` workers, fixed stepping).
pub fn run_fleet_exec(spec: &FleetSpec, exec: FleetExec) -> FleetTrace {
    run_fleet_exec_instrumented(spec, exec, &Telemetry::disabled())
}

/// Runs a fleet recording into a caller-owned [`Telemetry`] handle.
///
/// Per-UE telemetry runs on journal-less deterministic handles and is
/// absorbed into `tele` in UE order after the run (commutative counter and
/// histogram merges — see [`Telemetry::absorb`]), plus fleet-level
/// `fleet.*` counters. The returned [`FleetTrace`] is byte-identical at
/// any thread and shard count.
pub fn run_fleet_exec_instrumented(spec: &FleetSpec, exec: FleetExec, tele: &Telemetry) -> FleetTrace {
    run_fleet_core::<NoHook>(spec, exec, tele, None).0
}

/// Runs a fleet with one [`SimHook`] per UE, built by `factory` (called
/// with the UE index). Hooks observe only — the trace is identical to
/// [`run_fleet_exec`]'s — and are returned in UE order, so an invariant
/// oracle can be attached to every UE and queried afterwards.
pub fn run_fleet_exec_observed<H, F>(
    spec: &FleetSpec,
    exec: FleetExec,
    tele: &Telemetry,
    factory: F,
) -> (FleetTrace, Vec<H>)
where
    H: SimHook + Send,
    F: Fn(u32) -> H + Sync,
{
    let (ft, hooks) = run_fleet_core(spec, exec, tele, Some(&factory));
    (ft, hooks.expect("factory was provided"))
}

/// Near-wheel slot count for each shard's [`EventQueue`]. The planner is
/// capped at `WHEEL_SLOTS - 2` ticks, so the longest wakeup offset is
/// `WHEEL_SLOTS - 1` and every entry stays in the queue's allocation-free
/// level 1 — the overflow level never fills in production.
const WHEEL_SLOTS: usize = 128;

/// Awake ticks to skip re-planning after a failed plan: a UE that just
/// proved un-sleepable rarely becomes sleepable one tick later, and the
/// planner's dry run is a few ticks' worth of channel math.
const PLAN_BACKOFF: u8 = 3;

/// Per-UE scheduler slot: the UE's published serving cells in every mode,
/// plus its sleep state in the modes that plan sleeps.
#[derive(Clone, Copy, Default)]
struct SchedState {
    /// The UE is inside a sleep window.
    asleep: bool,
    /// The wheel marked this UE's wake tick as due.
    due: bool,
    /// Global tick at which the sleep window ends and the UE must step.
    wake_tick: u64,
    /// Global tick of the last real (sampled) step — the tick the UE fell
    /// asleep on.
    slept_tick: u64,
    /// Remaining awake ticks before the next plan attempt.
    backoff: u8,
    /// Serving cells currently published in the load table, and the
    /// load-wake reference cells while asleep.
    pub_lte: Option<CellId>,
    pub_nr: Option<CellId>,
    /// Attach counts observed at the serving cells when the sleep began;
    /// a share-changing move wakes the UE early.
    load_lte: u32,
    load_nr: u32,
}

/// The shard-owned UE storage, struct-of-arrays: entry `j` of each vector
/// belongs to the same UE. Split into parallel vectors (rather than one
/// vector of structs) so a step can borrow `sims[j]` and `hooks[j]`
/// mutably at the same time.
struct ShardUes<'d, H: SimHook> {
    /// Fleet index of each resident UE.
    idx: Vec<u32>,
    sims: Vec<UeSim<'d>>,
    hooks: Vec<Option<H>>,
    teles: Vec<Telemetry>,
    /// Scheduler slot of each resident UE (SoA like the rest).
    scheds: Vec<SchedState>,
    /// Fleet index → current slot, maintained across `swap_remove`s so
    /// wheel entries survive residents shuffling.
    local_of: HashMap<u32, usize>,
}

impl<'d, H: SimHook> ShardUes<'d, H> {
    fn push(&mut self, ue: Migrant<'d, H>) {
        self.local_of.insert(ue.idx, self.idx.len());
        self.idx.push(ue.idx);
        self.sims.push(ue.sim);
        self.hooks.push(ue.hook);
        self.teles.push(ue.tele);
        self.scheds.push(ue.sched);
    }

    /// Takes slot `j`'s UE out; the last resident moves into slot `j`.
    fn swap_remove(&mut self, j: usize) -> Migrant<'d, H> {
        let ue = Migrant {
            idx: self.idx.swap_remove(j),
            sim: self.sims.swap_remove(j),
            hook: self.hooks.swap_remove(j),
            tele: self.teles.swap_remove(j),
            sched: self.scheds.swap_remove(j),
        };
        self.local_of.remove(&ue.idx);
        if let Some(&moved) = self.idx.get(j) {
            self.local_of.insert(moved, j);
        }
        ue
    }
}

/// One spatial shard: the UEs inside its band, their pending load-table
/// deltas and migrations, the shared radio-snapshot arena, and the
/// per-tick counts the barrier leader sums.
struct Shard<'d, H: SimHook> {
    /// UEs waiting on their start tick, `(start_tick, fleet idx)` sorted
    /// descending so due entries pop off the back cheapest-first.
    pending: Vec<(u64, u32)>,
    run: ShardUes<'d, H>,
    /// UEs whose step this tick carried them into another shard's band,
    /// with that shard; the leader moves them there at the boundary.
    outbox: Vec<(usize, Migrant<'d, H>)>,
    /// UEs this tick left alive (running, sleeping or still pending).
    alive: u32,
    /// UEs this tick stepped or skipped while asleep.
    stepped: u32,
    /// The shard's shared per-(pos, t) radio memo: every resident UE
    /// refreshes and reads the same snapshot. A refresh fully recomputes
    /// from `(pos, t)` on miss, so sharing is invisible in the output —
    /// it only trades per-UE cache memory for a lower hit rate.
    arena: RadioSnapshot,
    /// Calendar wheel: the shard-local [`crate::wheel::EventQueue`],
    /// drained once per tick (empty unless the mode plans sleeps). The
    /// planner cap keeps every wakeup inside one revolution, so the queue's
    /// overflow level stays empty and steady-state scheduling allocates
    /// nothing.
    wheel: EventQueue,
    /// `(cell, ±1)` serving transitions this shard's steps produced during
    /// the current tick; the leader folds them into the persistent table at
    /// the boundary.
    deltas: Vec<(u32, i32)>,
    /// Departure deltas of UEs finalized this tick, applied one boundary
    /// later: a UE's final serving publish is still read by the next tick.
    departs: Vec<(u32, i32)>,
    /// Scheduler statistics accumulated by this shard's residents.
    totals: SchedSummary,
}

impl<'d, H: SimHook> Shard<'d, H> {
    fn new() -> Shard<'d, H> {
        Shard {
            pending: Vec::new(),
            run: ShardUes {
                idx: Vec::new(),
                sims: Vec::new(),
                hooks: Vec::new(),
                teles: Vec::new(),
                scheds: Vec::new(),
                local_of: HashMap::new(),
            },
            outbox: Vec::new(),
            alive: 0,
            stepped: 0,
            arena: RadioSnapshot::new(),
            wheel: EventQueue::with_slots(WHEEL_SLOTS),
            deltas: Vec::new(),
            departs: Vec::new(),
            totals: SchedSummary::default(),
        }
    }
}

/// One UE's slot contents outside a shard: in flight between shards
/// (everything the target needs to resume stepping it next tick), being
/// activated, or being finalized.
struct Migrant<'d, H: SimHook> {
    idx: u32,
    sim: UeSim<'d>,
    hook: Option<H>,
    tele: Telemetry,
    /// Scheduler slot travels with the UE: it records which cells the UE
    /// has published in the load table. Only awake UEs migrate (sleepers
    /// stay parked until their wake tick), so no wheel entry ever needs to
    /// move between shards.
    sched: SchedState,
}

struct UeOut<H> {
    summary: UeSummary,
    trace: Option<Box<Trace>>,
    tele: Telemetry,
    hook: Option<H>,
}

/// Why a fleet mutex is poisoned.
const WORKER_PANICKED: &str = "a fleet worker panicked";

/// The fleet's tick rendezvous: a barrier that names one leader per
/// generation, like `std::sync::Barrier`, but that can be poisoned — a
/// worker that panics releases every other worker instead of leaving them
/// blocked forever.
struct TickBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Default)]
struct BarrierState {
    /// Workers arrived in the current generation.
    count: usize,
    generation: u64,
    poisoned: bool,
}

impl TickBarrier {
    fn new(n: usize) -> TickBarrier {
        TickBarrier { n, state: Mutex::new(BarrierState::default()), cv: Condvar::new() }
    }

    /// Blocks until all `n` workers have arrived. Returns `Some(true)` to
    /// exactly one worker per generation (the leader), `Some(false)` to the
    /// others, and `None` once the barrier is poisoned.
    fn wait(&self) -> Option<bool> {
        let mut st = self.state.lock().expect(WORKER_PANICKED);
        if st.poisoned {
            return None;
        }
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation += 1;
            // a lone worker has no one to wake: skip the wake syscall
            if self.n > 1 {
                self.cv.notify_all();
            }
            return Some(true);
        }
        let generation = st.generation;
        while st.generation == generation && !st.poisoned {
            st = self.cv.wait(st).expect(WORKER_PANICKED);
        }
        (!st.poisoned).then_some(false)
    }
}

/// Held by each worker: poisons the barrier and wakes every waiter if the
/// worker unwinds.
struct PoisonOnUnwind<'a>(&'a TickBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.state.lock().unwrap_or_else(PoisonError::into_inner).poisoned = true;
            self.0.cv.notify_all();
        }
    }
}

/// What the boundary exchange carries from one tick to the next. Only the
/// barrier leader of each tick locks it.
#[derive(Default)]
struct Boundary {
    /// Global ticks counted so far.
    ticks: u64,
    load: LoadSummary,
    /// UEs moved between shards.
    migrations: u64,
    /// Departures retired at the previous boundary, applied at this one.
    pending_departs: Vec<(u32, i32)>,
    /// `(attach, contended, peak)` of the table as last scanned.
    stats_cache: Option<(u64, u64, u32)>,
}

impl Boundary {
    /// The boundary exchange after tick `k`, run by the barrier leader while
    /// every other worker waits to be released — so it is the only writer of
    /// the load table and of every shard. Returns whether the fleet is done.
    fn exchange<H: SimHook>(&mut self, k: u64, shards: &[Mutex<Shard<'_, H>>], global: &[AtomicU32]) -> bool {
        let apply = |ds: &mut Vec<(u32, i32)>| {
            for (c, dl) in ds.drain(..) {
                let cur = global[c as usize].load(Ordering::Relaxed);
                global[c as usize].store(cur.wrapping_add(dl as u32), Ordering::Relaxed);
            }
        };
        // The table carries over tick to tick (sleepers stay published) and
        // only serving-transition deltas are folded in — last tick's
        // deferred departures first, then the deltas every shard's steps
        // produced during tick k. The adds are commutative, so the table is
        // independent of shard count; tick k+1 reads exactly what every live
        // UE last published.
        let (mut alive, mut stepped) = (0u32, 0u32);
        let mut changed = !self.pending_departs.is_empty();
        apply(&mut self.pending_departs);
        for sh in shards {
            let mut g = sh.lock().expect(WORKER_PANICKED);
            alive += g.alive;
            stepped += g.stepped;
            changed |= !g.deltas.is_empty();
            apply(&mut g.deltas);
            self.pending_departs.append(&mut g.departs);
            // hand the movers over in shard order, so every target's
            // residency order is fixed; they step there from tick k+1 on
            for (target, mg) in g.outbox.drain(..) {
                shards[target].lock().expect(WORKER_PANICKED).run.push(mg);
                self.migrations += 1;
            }
        }
        // Count tick k only if it stepped a UE or left one alive (pending or
        // running). A final pass where both are zero — every remaining UE
        // was constructed already-inactive, e.g. a zero-duration scenario —
        // advanced nothing and must not inflate the reported global tick
        // count.
        if alive > 0 || stepped > 0 {
            self.ticks = k + 1;
        }
        self.load.peak_active_ues = self.load.peak_active_ues.max(stepped);
        // a boundary with no deltas leaves the table — and its per-tick
        // stats contribution — exactly as last tick's
        if changed || self.stats_cache.is_none() {
            let mut attach = 0u64;
            let mut contended = 0u64;
            let mut peak = 0u32;
            for c in global {
                let v = c.load(Ordering::Relaxed);
                if v > 0 {
                    attach += v as u64;
                    peak = peak.max(v);
                    if v >= 2 {
                        contended += v as u64;
                    }
                }
            }
            self.stats_cache = Some((attach, contended, peak));
        }
        let (attach, contended, peak) = self.stats_cache.unwrap();
        self.load.attach_ue_ticks += attach;
        self.load.contended_ue_ticks += contended;
        self.load.peak_cell_ues = self.load.peak_cell_ues.max(peak);
        alive == 0
    }
}

#[allow(clippy::type_complexity)]
fn run_fleet_core<H: SimHook + Send>(
    spec: &FleetSpec,
    exec: FleetExec,
    tele: &Telemetry,
    factory: Option<&(dyn Fn(u32) -> H + Sync)>,
) -> (FleetTrace, Option<Vec<H>>) {
    assert!(spec.n_ues >= 1, "a fleet needs at least one UE");
    let n = spec.n_ues as usize;
    let shards_n = if exec.shards == 0 { exec.threads.clamp(1, n) } else { exec.shards.max(1) };
    // a worker owns shards round-robin; more workers than shards would idle
    let threads = exec.threads.clamp(1, n).min(shards_n);
    let mode = exec.engine;
    let scheduled = mode.scheduled();
    let event = mode == EngineMode::EventDriven;
    let base = &spec.base;
    let d = Deployment::generate(&base.route, base.carrier, base.env, base.arch, base.seed);
    let n_cells = d.cells.len();
    let map = ShardMap::new(&d, shards_n);

    // schedule-only metas for every UE (the full plan, scenario clone
    // included, is built lazily at activation)
    let metas: Vec<PlanMeta> = (0..spec.n_ues).map(|i| spec.plan_meta(i)).collect();
    // telemetry wall-clock timers are not deterministic; per-UE handles run
    // counters only (journal-less: `absorb` never merges journals, and a
    // million per-UE ring buffers would be dead weight) — or fully off when
    // the fleet handle is off
    let per_ue_cfg = if tele.is_enabled() {
        TelemetryConfig { enabled: true, journal_capacity: 0, timing: false }
    } else {
        TelemetryConfig::OFF
    };

    // seed every UE into the shard owning its route start
    let pts = base.route.points();
    let first = pts.first().copied().unwrap_or(Point::new(0.0, 0.0));
    let last = pts.last().copied().unwrap_or(first);
    let mut shards: Vec<Mutex<Shard<'_, H>>> = (0..shards_n).map(|_| Mutex::new(Shard::new())).collect();
    for (i, m) in metas.iter().enumerate() {
        let start = if m.reversed { last } else { first };
        shards[map.shard_of(&start)].get_mut().unwrap().pending.push((m.start_tick, i as u32));
    }
    for sh in &mut shards {
        sh.get_mut().unwrap().pending.sort_unstable_by(|a, b| b.cmp(a));
    }

    // the persistent load table: written only by the barrier leader while
    // every other worker waits, read by every worker during the tick
    let global: Vec<AtomicU32> = (0..n_cells).map(|_| AtomicU32::new(0)).collect();
    let boundary = Mutex::new(Boundary::default());
    let done = AtomicBool::new(false);
    // two waits per tick: the merge point, whose leader runs the boundary
    // exchange, and the release point
    let barrier = TickBarrier::new(threads);
    // planner tiles built and exact channel evaluations, summed over the
    // workers' scratch at exit, every UE's output, and the payload of the
    // lowest-indexed worker that panicked
    let (plan_tiles, plan_evals, outs, panicked) = std::thread::scope(|scope| {
        let mut workers = Vec::with_capacity(threads);
        for w in 0..threads {
            let (d, metas, global, shards, boundary, done, barrier, map) =
                (&d, &metas, &global[..], &shards[..], &boundary, &done, &barrier, &map);
            let keep = spec.keep_traces;
            workers.push(scope.spawn(move || {
                let _poison = PoisonOnUnwind(barrier);
                // per-worker plan buffers: plans are pure functions of UE
                // state, so recycling capacity across shards changes nothing
                let mut scratch = PlanScratch::default();
                let mut finished = Vec::new();
                for k in 0u64.. {
                    let read = CellLoadView::from_counts(global);
                    let count_at = |c: CellId| global[c.0 as usize].load(Ordering::Relaxed);
                    for s in (w..shards_n).step_by(threads) {
                        let mut g = shards[s].lock().unwrap();
                        let Shard { pending, run, outbox, alive, stepped, arena, wheel, deltas, departs, totals } =
                            &mut *g;
                        *alive = 0;
                        *stepped = 0;
                        // --- activate UEs whose start tick arrived
                        while pending.last().is_some_and(|&(st, _)| st <= k) {
                            let (_, i) = pending.pop().unwrap();
                            let plan = spec.ue_plan(i);
                            let ue_tele = Telemetry::new(per_ue_cfg);
                            let mut hook = factory.map(|f| f(i));
                            let sim = UeSim::new(
                                plan.scenario,
                                d,
                                &ue_tele,
                                arena,
                                hook.as_mut().map(|h| h as &mut dyn SimHook),
                                keep,
                            );
                            run.push(Migrant { idx: i, sim, hook, tele: ue_tele, sched: SchedState::default() });
                        }
                        // --- calendar wheel: mark this tick's due wakeups.
                        // The queue filters stale entries itself (an early
                        // load-wake disarms below); the re-check against
                        // the live slot is belt and braces.
                        wheel.pop_due(k, |fi| {
                            if let Some(&j) = run.local_of.get(&fi) {
                                let sc = &mut run.scheds[j];
                                if sc.asleep && sc.wake_tick == k {
                                    sc.due = true;
                                }
                            }
                        });
                        // --- step every resident UE against the load
                        // table as the last boundary left it
                        let mut j = 0;
                        while j < run.sims.len() {
                            let mut sample = true;
                            if run.sims[j].active() {
                                if run.scheds[j].asleep {
                                    let sc = &mut run.scheds[j];
                                    let wake = if sc.due {
                                        true
                                    } else if sc.load_lte == u32::MAX {
                                        // first slept tick: the table now
                                        // includes this UE's own publish, so
                                        // record the load-wake reference
                                        sc.load_lte = sc.pub_lte.map_or(0, count_at);
                                        sc.load_nr = sc.pub_nr.map_or(0, count_at);
                                        false
                                    } else {
                                        sc.pub_lte.is_some_and(|c| load_share_shifted(sc.load_lte, count_at(c)))
                                            || sc.pub_nr.is_some_and(|c| load_share_shifted(sc.load_nr, count_at(c)))
                                    };
                                    if wake {
                                        let missed = k - sc.slept_tick - 1;
                                        totals.record_wake(missed, !sc.due);
                                        if !sc.due {
                                            // early load-wake: disarm the
                                            // queued wakeup; the ring entry
                                            // is dropped as stale
                                            wheel.cancel(run.idx[j]);
                                        }
                                        sc.asleep = false;
                                        sc.due = false;
                                        if missed > 0 {
                                            // declare the hook-stream gap so
                                            // checkers can tell a sanctioned
                                            // sleep from an overslept UE;
                                            // referee runs leave the same gap
                                            // (slept ticks are unsampled).
                                            // Quote the UE's own tick counter
                                            // (staggered UEs run behind the
                                            // fleet clock `k`); referee UEs
                                            // kept stepping unsampled, so
                                            // rewind theirs to the last tick
                                            // the hook actually saw
                                            let from = run.sims[j].ticks_stepped() - if event { 0 } else { missed };
                                            if let Some(h) = run.hooks[j].as_mut() {
                                                h.on_sleep(from, missed);
                                            }
                                        }
                                        if event {
                                            run.sims[j].catch_up(missed);
                                        }
                                    } else {
                                        assert!(k < sc.wake_tick, "calendar wheel missed a wakeup");
                                        if event {
                                            // skipped outright; still counted
                                            // as live so the tick bookkeeping
                                            // matches the stepping modes
                                            *stepped += 1;
                                            *alive += 1;
                                            j += 1;
                                            continue;
                                        }
                                        // referee: full control plane, no
                                        // sampling — byte-divergence here
                                        // means the wakeup bound was unsound
                                        sample = false;
                                    }
                                }
                                run.sims[j].step_sampled(
                                    run.hooks[j].as_mut().map(|h| h as &mut dyn SimHook),
                                    &read,
                                    arena,
                                    sample,
                                );
                                *stepped += 1;
                                // persistent table: publish only serving
                                // transitions as deltas
                                let (lte, nr) = run.sims[j].serving();
                                let sc = &mut run.scheds[j];
                                for (now, published) in [(lte, &mut sc.pub_lte), (nr, &mut sc.pub_nr)] {
                                    if now != *published {
                                        deltas.extend(published.map(|c| (c.0, -1)));
                                        deltas.extend(now.map(|c| (c.0, 1)));
                                        *published = now;
                                    }
                                }
                            }
                            if run.sims[j].active() {
                                *alive += 1;
                                // after a real (sampled) step, try to plan
                                // the next sleep window — BEFORE the
                                // migration check, so the schedule is a
                                // function of UE state alone: a UE that
                                // skipped planning whenever it crossed a
                                // shard band would sleep on different ticks
                                // at different shard counts
                                if scheduled && sample {
                                    let sc = &mut run.scheds[j];
                                    if sc.backoff > 0 {
                                        sc.backoff -= 1;
                                    } else {
                                        let win = run.sims[j].plan_sleep_with((WHEEL_SLOTS - 2) as u64, &mut scratch);
                                        if win > 0 {
                                            sc.asleep = true;
                                            sc.due = false;
                                            sc.slept_tick = k;
                                            sc.wake_tick = k + win + 1;
                                            // load-wake reference recorded on
                                            // the first slept tick (sentinel)
                                            sc.load_lte = u32::MAX;
                                            sc.load_nr = u32::MAX;
                                            totals.sleeps += 1;
                                            wheel.schedule(run.idx[j], sc.wake_tick);
                                        } else {
                                            sc.backoff = PLAN_BACKOFF;
                                        }
                                    }
                                }
                                // sleeping UEs never migrate (including a
                                // UE that just planned above): in the
                                // referee their position drifts ahead of
                                // the (stale) event-mode position, and
                                // residency is invisible in the output
                                // anyway — both modes migrate at the wake
                                // tick
                                let target = map.shard_of(&run.sims[j].position());
                                if target != s && !run.scheds[j].asleep {
                                    // boundary crossed: the leader hands
                                    // the UE to the target at the boundary
                                    outbox.push((target, run.swap_remove(j)));
                                    continue; // swap_remove put a new UE at j
                                }
                                j += 1;
                            } else {
                                // retire the published cells one boundary
                                // late: the final step's publish is still
                                // read by the next tick
                                let ue = run.swap_remove(j);
                                let published = [ue.sched.pub_lte, ue.sched.pub_nr];
                                departs.extend(published.into_iter().flatten().map(|c| (c.0, -1)));
                                let i = ue.idx as usize;
                                finished.push(finalize(metas[i], ue));
                            }
                        }
                        *alive += pending.len() as u32;
                    }
                    // tick k fully stepped on every shard: the leader runs
                    // the boundary exchange, then everyone is released. A
                    // poisoned barrier means another worker panicked: exit
                    // without touching a shard
                    let Some(leader) = barrier.wait() else { break };
                    if leader {
                        let fleet_done = boundary.lock().expect(WORKER_PANICKED).exchange(k, shards, global);
                        done.store(fleet_done, Ordering::Relaxed);
                    }
                    if barrier.wait().is_none() || done.load(Ordering::Relaxed) {
                        break;
                    }
                }
                (scratch.tiles_built(), scratch.evals(), finished)
            }));
        }
        // outputs go back to their UE index
        let mut outs: Vec<Option<UeOut<H>>> = (0..n).map(|_| None).collect();
        let (mut tiles, mut evals) = (0, 0);
        let mut panicked = None;
        for h in workers {
            match h.join() {
                Ok((t, e, finished)) => {
                    (tiles, evals) = (tiles + t, evals + e);
                    for out in finished {
                        let i = out.summary.ue as usize;
                        outs[i] = Some(out);
                    }
                }
                // joined in worker order, so the first payload kept is
                // the lowest-indexed panicking worker's
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        (tiles, evals, outs, panicked)
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }

    // scheduler statistics: commutative per-UE sums, so folding them in
    // shard order is independent of how UEs were distributed
    let mut sched_total = SchedSummary::default();
    for sh in shards {
        sched_total.absorb(&sh.into_inner().expect(WORKER_PANICKED).totals);
    }
    let Boundary { ticks, load, migrations, .. } = boundary.into_inner().expect(WORKER_PANICKED);

    // collect in UE order: summaries, optional traces, telemetry, hooks
    let mut ues = Vec::with_capacity(n);
    let mut traces = Vec::new();
    let mut hooks = factory.map(|_| Vec::with_capacity(n));
    for out in outs {
        let out = out.expect("every UE must be finalized");
        tele.absorb(&out.tele);
        ues.push(out.summary);
        if let Some(tr) = out.trace {
            traces.push(*tr);
        }
        if let (Some(hs), Some(h)) = (hooks.as_mut(), out.hook) {
            hs.push(h);
        }
    }
    tele.add("fleet.ues", spec.n_ues as u64);
    tele.add("fleet.ticks", ticks);
    tele.add("fleet.attach_ue_ticks", load.attach_ue_ticks);
    tele.add("fleet.contended_ue_ticks", load.contended_ue_ticks);
    // shard-count-dependent diagnostics (never part of the FleetTrace: the
    // trace is byte-identical at any geometry, migrations are not)
    tele.add("fleet.migrations", migrations);
    if scheduled {
        tele.add("fleet.skipped_ue_ticks", sched_total.skipped_ue_ticks);
        tele.add("fleet.sleeps", sched_total.sleeps);
        tele.add("fleet.load_wakes", sched_total.load_wakes);
        // per-worker memos: depends on how UEs met workers, like migrations
        tele.add("fleet.plan_tiles", plan_tiles);
        // a sum of per-plan counts, each a pure function of UE state: the
        // same at any thread/shard geometry
        tele.add("fleet.plan_evals", plan_evals);
    }

    let meta = FleetMeta {
        n_ues: spec.n_ues,
        seed: base.seed,
        carrier: base.carrier,
        env: base.env,
        arch: base.arch,
        sample_hz: base.sample_hz,
        max_duration_s: base.max_duration_s,
        stagger_s: spec.stagger_s,
        speed_jitter: spec.speed_jitter,
        cells: n_cells as u32,
        ticks,
    };
    let sched = if scheduled { Some(sched_total) } else { None };
    (FleetTrace { meta, ues, load, sched, traces }, hooks)
}

fn finalize<H: SimHook>(meta: PlanMeta, ue: Migrant<'_, H>) -> UeOut<H> {
    let Migrant { idx, sim, mut hook, tele, .. } = ue;
    let (stats, trace) = sim.finish(hook.as_mut().map(|h| h as &mut dyn SimHook));
    UeOut { summary: UeSummary::from_stats(idx, meta, &stats), trace: trace.map(Box::new), tele, hook }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use fiveg_ran::{Arch, Carrier};

    fn base(seed: u64) -> Scenario {
        ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 3.0, seed).duration_s(40.0).sample_hz(5.0).build()
    }

    #[test]
    fn fleet_of_one_is_single_run() {
        let s = base(11);
        let single = s.run();
        let ft = run_fleet_exec(&FleetSpec::new(s, 1).keep_traces(true), FleetExec::threads(1));
        assert_eq!(ft.traces.len(), 1);
        assert_eq!(ft.traces[0], single, "size-1 fleet must reproduce the single-UE engine exactly");
        assert_eq!(ft.load.contended_ue_ticks, 0, "one UE can never contend with itself");
        assert_eq!(ft.ues[0].mean_load_share, 1.0);
    }

    #[test]
    fn byte_identical_across_thread_counts() {
        let spec = FleetSpec::new(base(12), 7).keep_traces(true);
        let a = run_fleet_exec(&spec, FleetExec::threads(1));
        let b = run_fleet_exec(&spec, FleetExec::threads(3));
        assert_eq!(a, b, "fleet output must not depend on the worker count");
    }

    #[test]
    fn byte_identical_across_shard_counts() {
        let spec = FleetSpec::new(base(12), 7).keep_traces(true);
        let one = run_fleet_exec(&spec, FleetExec::threads(2).shards(1));
        for shards in [2usize, 5, 16] {
            let many = run_fleet_exec(&spec, FleetExec::threads(2).shards(shards));
            assert_eq!(one, many, "fleet output must not depend on the shard count ({shards} shards)");
        }
    }

    #[test]
    fn summary_mode_matches_trace_mode() {
        // keep_traces only adds the traces: the summaries, load and meta
        // are the same bytes with retention off
        let with = run_fleet_exec(&FleetSpec::new(base(18), 6).keep_traces(true), FleetExec::threads(2));
        let without = run_fleet_exec(&FleetSpec::new(base(18), 6), FleetExec::threads(2));
        assert_eq!(with.ues, without.ues);
        assert_eq!(with.load, without.load);
        assert_eq!(with.meta, without.meta);
        assert!(without.traces.is_empty());
        // and the streamed stats are what each kept trace implies
        for (u, tr) in with.ues.iter().zip(&with.traces) {
            let ticks = tr.samples.len() as u64;
            assert_eq!(u.ticks, ticks);
            assert_eq!(u.traveled_m, tr.meta.traveled_m);
            assert_eq!(u.handovers, tr.handovers.len() as u64);
            assert_eq!((u.ho_failures, u.rlf_count), (tr.ho_failures, tr.rlf_count));
            assert_eq!(u.reports, tr.reports.len() as u64);
            let cap = tr.samples.iter().fold(0.0, |acc, smp| acc + smp.capacity_mbps);
            assert_eq!(u.mean_capacity_mbps.to_bits(), (cap / ticks as f64).to_bits());
        }
    }

    #[test]
    fn migrations_happen_and_are_counted() {
        let tele = Telemetry::new(TelemetryConfig::on());
        let spec = FleetSpec::new(base(19), 6);
        run_fleet_exec_instrumented(&spec, FleetExec::threads(2).shards(8), &tele);
        assert!(
            tele.counter_value("fleet.migrations") > 0,
            "freeway UEs crossing 8 shard bands must migrate at least once"
        );
        // a single shard can never migrate anyone
        let tele1 = Telemetry::new(TelemetryConfig::on());
        run_fleet_exec_instrumented(&spec, FleetExec::threads(1).shards(1), &tele1);
        assert_eq!(tele1.counter_value("fleet.migrations"), 0);
    }

    #[test]
    fn shard_map_is_monotone_and_total() {
        let s = base(20);
        let d = Deployment::generate(&s.route, s.carrier, s.env, s.arch, s.seed);
        let map = ShardMap::new(&d, 8);
        assert_eq!(map.shards(), 8);
        let mut last = 0usize;
        for i in 0..200 {
            let x = -20_000.0 + i as f64 * 250.0;
            let sh = map.shard_of(&Point::new(x, 137.0));
            assert!(sh < 8, "shard_of must stay in range");
            assert!(sh >= last, "shards must be monotone in x");
            last = sh;
        }
        assert_eq!(map.shard_of(&Point::new(-1e9, 0.0)), 0, "far-left clamps to shard 0");
        assert_eq!(map.shard_of(&Point::new(1e9, 0.0)), 7, "far-right clamps to the last shard");
    }

    #[test]
    fn plan_meta_matches_full_plan() {
        let spec = FleetSpec::new(base(21), 9);
        for ue in 0..9 {
            let plan = spec.ue_plan(ue);
            let meta = spec.plan_meta(ue);
            assert_eq!(meta.seed, plan.scenario.seed);
            assert_eq!(meta.start_tick, plan.start_tick);
            assert_eq!(meta.reversed, plan.reversed);
        }
    }

    #[test]
    fn load_coupling_only_reduces_capacity() {
        // all UEs share the route window (no stagger): cells are contended,
        // and the only effect coupling may have on the identity UE's trace
        // is a lower per-tick capacity — serving cells, handovers and
        // reports must match the solo run exactly (load does not feed back
        // into the control plane)
        let s = base(13);
        let solo = s.run();
        let ft = run_fleet_exec(&FleetSpec::new(s, 12).stagger_s(0.0).keep_traces(true), FleetExec::threads(2));
        assert!(ft.load.contended_ue_ticks > 0, "12 co-routed UEs must contend: {:?}", ft.load);
        assert!(ft.load.peak_cell_ues >= 2);
        let ue0 = &ft.traces[0];
        assert_eq!(ue0.handovers, solo.handovers);
        assert_eq!(ue0.reports, solo.reports);
        assert_eq!(ue0.samples.len(), solo.samples.len());
        let mut lowered = 0;
        for (a, b) in ue0.samples.iter().zip(&solo.samples) {
            assert_eq!(a.lte_cell, b.lte_cell);
            assert_eq!(a.nr_cell, b.nr_cell);
            assert!(a.capacity_mbps <= b.capacity_mbps + 1e-12, "{} > {}", a.capacity_mbps, b.capacity_mbps);
            if a.capacity_mbps < b.capacity_mbps {
                lowered += 1;
            }
        }
        assert!(lowered > 0, "contention must actually lower some tick's capacity");
        assert!(ft.ues[0].mean_load_share < 1.0);
        assert!(ft.ues[0].loaded_ticks > 0);
    }

    #[test]
    fn fleet_ticks_count_only_advancing_ticks() {
        // the normal case: the last global tick is the one in which the
        // final UE takes its final step, so ticks == max(start + ue ticks)
        let ft = run_fleet_exec(&FleetSpec::new(base(17), 5), FleetExec::threads(2));
        let last = ft.ues.iter().map(|u| u.start_tick + u.ticks).max().unwrap();
        assert_eq!(ft.meta.ticks, last, "no trailing tick beyond the last step");

        // the degenerate case: zero-duration scenarios construct every
        // UeSim already inactive, so the lone tick (and its boundary
        // exchange) steps nothing — it must not be counted as a global tick
        let dead = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 3.0, 17).duration_s(0.0).sample_hz(5.0).build();
        let ft = run_fleet_exec(&FleetSpec::new(dead, 3).stagger_s(0.0), FleetExec::threads(2));
        assert_eq!(ft.ues.iter().map(|u| u.ticks).sum::<u64>(), 0);
        assert_eq!(ft.meta.ticks, 0, "a fleet that never steps executed zero ticks");
    }

    #[test]
    fn staggered_ues_enter_late_and_summaries_line_up() {
        let ft = run_fleet_exec(&FleetSpec::new(base(14), 5), FleetExec::threads(2));
        assert_eq!(ft.ues.len(), 5);
        assert_eq!(ft.ues[0].start_tick, 0);
        assert!(ft.ues.iter().enumerate().all(|(i, u)| u.ue == i as u32), "summaries must be in UE order");
        assert!(ft.ues.iter().skip(1).any(|u| u.start_tick > 0), "the stagger window should offset someone");
        assert!(ft.ues.iter().skip(1).any(|u| u.reversed), "odd UEs run the route backwards");
        let max_start = ft.ues.iter().map(|u| u.start_tick).max().unwrap();
        assert!(ft.meta.ticks > max_start);
        assert!(ft.traces.is_empty(), "keep_traces defaults to off");
    }

    #[test]
    fn telemetry_absorbs_per_ue_counters() {
        let tele = Telemetry::new(TelemetryConfig::on());
        let ft = run_fleet_exec_instrumented(&FleetSpec::new(base(15), 4), FleetExec::threads(2), &tele);
        let total: u64 = ft.ues.iter().map(|u| u.ticks).sum();
        assert_eq!(tele.counter_value("sim.ticks"), total);
        assert_eq!(tele.counter_value("fleet.ues"), 4);
        assert_eq!(tele.counter_value("fleet.ticks"), ft.meta.ticks);
        assert_eq!(tele.counter_value("fleet.attach_ue_ticks"), ft.load.attach_ue_ticks);
        let hos: u64 = ft.ues.iter().map(|u| u.handovers).sum();
        assert_eq!(tele.counter_value("sim.handovers"), hos);
    }

    #[test]
    fn hooks_are_built_and_returned_per_ue() {
        struct TickCounter(u64);
        impl SimHook for TickCounter {
            fn on_tick(&mut self, _view: &crate::hook::TickView) {
                self.0 += 1;
            }
        }
        let (ft, hooks) = run_fleet_exec_observed(
            &FleetSpec::new(base(16), 3),
            FleetExec::threads(2),
            &Telemetry::disabled(),
            |_| TickCounter(0),
        );
        assert_eq!(hooks.len(), 3);
        for (h, u) in hooks.iter().zip(&ft.ues) {
            assert_eq!(h.0, u.ticks, "each hook must see exactly its UE's ticks");
        }
    }

    #[test]
    fn a_panicking_hook_fails_the_fleet_at_any_geometry() {
        // one UE's hook panics on its 5th tick: every geometry and mode must
        // re-raise that panic, never hang the other workers at the barrier
        struct PanicOnTick {
            armed: bool,
            ticks: u32,
        }
        impl SimHook for PanicOnTick {
            fn on_tick(&mut self, _view: &crate::hook::TickView) {
                self.ticks += 1;
                if self.armed && self.ticks == 5 {
                    panic!("hook panic on UE 3's tick {}", self.ticks);
                }
            }
        }
        for engine in [EngineMode::Stepped, EngineMode::EventDriven] {
            for (threads, shards) in [(1usize, 1usize), (2, 4), (4, 16)] {
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let run = std::panic::catch_unwind(|| {
                        run_fleet_exec_observed(
                            &FleetSpec::new(sa_city(203), 8),
                            FleetExec::threads(threads).shards(shards).engine(engine),
                            &Telemetry::disabled(),
                            |i| PanicOnTick { armed: i == 3, ticks: 0 },
                        )
                    });
                    let _ = tx.send(run.err().and_then(|p| p.downcast::<String>().ok()).map(|m| *m));
                });
                let at = format!("{engine:?} at {threads} threads / {shards} shards");
                let msg = rx
                    .recv_timeout(std::time::Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{at}: the fleet hung after a worker panicked"));
                assert_eq!(msg.as_deref(), Some("hook panic on UE 3's tick 5"), "{at}");
            }
        }
    }

    /// The committed-bench scenario family: SA downtown loop (SA is the
    /// sleepable architecture — NSA's B1 trigger is SINR-quantity and
    /// pins every UE to the fixed step).
    fn sa_city(seed: u64) -> Scenario {
        ScenarioBuilder::city_loop(Carrier::OpY, seed).arch(Arch::Sa).duration_s(45.0).sample_hz(5.0).build()
    }

    #[test]
    fn event_mode_matches_referee_byte_for_byte() {
        // the tentpole gate in miniature: the event-driven fleet (skips
        // sleeping UEs, catch_up on wake) must equal the referee (steps
        // them with sampling off, full control plane) exactly — at every
        // thread/shard combination
        let spec = FleetSpec::new(sa_city(201), 10);
        let referee = run_fleet_exec(&spec, FleetExec::threads(1).shards(1).engine(EngineMode::Referee));
        let sched = referee.sched.as_ref().expect("scheduled mode must report scheduler stats");
        assert!(sched.skipped_ue_ticks > 0, "an SA city fleet must actually sleep: {sched:?}");
        assert!(sched.sleeps > 0);
        for (threads, shards) in [(1usize, 1usize), (2, 4), (4, 16)] {
            let ev = run_fleet_exec(&spec, FleetExec::threads(threads).shards(shards).engine(EngineMode::EventDriven));
            assert_eq!(referee, ev, "event-driven fleet diverged at {threads} threads / {shards} shards");
        }
    }

    #[test]
    fn scheduled_modes_preserve_fixed_control_plane() {
        // scheduling may only change the data-plane sampling aggregates:
        // against the fixed engine, every control-plane field and the whole
        // load summary must be unchanged
        let spec = FleetSpec::new(sa_city(202), 12);
        let fixed = run_fleet_exec(&spec, FleetExec::threads(2).shards(4));
        assert!(fixed.sched.is_none(), "fixed mode must not report scheduler stats");
        for mode in [EngineMode::Referee, EngineMode::EventDriven] {
            let ft = run_fleet_exec(&spec, FleetExec::threads(2).shards(4).engine(mode));
            assert_eq!(ft.meta, fixed.meta, "{mode:?} changed the run metadata");
            assert_eq!(ft.load, fixed.load, "{mode:?} changed the load summary");
            for (a, b) in ft.ues.iter().zip(&fixed.ues) {
                assert_eq!(a.ue, b.ue);
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.start_tick, b.start_tick);
                assert_eq!(a.reversed, b.reversed);
                assert_eq!(a.ticks, b.ticks, "UE {} tick count drifted under {mode:?}", a.ue);
                assert_eq!(a.traveled_m, b.traveled_m, "UE {} position drifted under {mode:?}", a.ue);
                assert_eq!(a.handovers, b.handovers, "UE {} handovers drifted under {mode:?}", a.ue);
                assert_eq!(a.ho_failures, b.ho_failures);
                assert_eq!(a.rlf_count, b.rlf_count);
                assert_eq!(a.reports, b.reports, "UE {} reports drifted under {mode:?}", a.ue);
            }
        }
    }

    #[test]
    fn nsa_fleet_never_sleeps_but_still_matches() {
        // NSA UEs are ineligible (B1 is SINR-quantity): the scheduled modes
        // degrade to the fixed engine with zero sleeps — and must still be
        // byte-identical to each other
        let spec = FleetSpec::new(base(23), 6);
        let referee = run_fleet_exec(&spec, FleetExec::threads(2).shards(2).engine(EngineMode::Referee));
        let ev = run_fleet_exec(&spec, FleetExec::threads(2).shards(2).engine(EngineMode::EventDriven));
        assert_eq!(referee, ev);
        let sched = referee.sched.as_ref().unwrap();
        assert_eq!(sched.sleeps, 0, "NSA fleets must stay on the fixed step: {sched:?}");
        assert_eq!(sched.skipped_ue_ticks, 0);
    }

    #[test]
    fn keep_traces_disables_sleeping_entirely() {
        // trace retention samples every tick, so a keep_traces fleet never
        // sleeps — and the event-driven trace equals the fixed one exactly
        let spec = FleetSpec::new(sa_city(204), 4).keep_traces(true);
        let fixed = run_fleet_exec(&spec, FleetExec::threads(2).shards(2));
        let ev = run_fleet_exec(&spec, FleetExec::threads(2).shards(2).engine(EngineMode::EventDriven));
        assert_eq!(ev.sched.as_ref().unwrap().sleeps, 0);
        assert_eq!(ev.traces, fixed.traces, "with sleeping off the full traces must match the fixed engine");
        assert_eq!(ev.ues, fixed.ues);
        assert_eq!(ev.load, fixed.load);
    }

    #[test]
    fn load_wakes_fire_and_stay_deterministic() {
        // satellite: a sleeping UE must be woken early when migrating
        // neighbors change its serving cell's load share. Co-routed UEs
        // with zero stagger churn cell populations constantly; across a
        // seed sweep at least one sleep must end in a load-wake, and every
        // run must stay mode- and geometry-deterministic.
        let mut load_wakes = 0u64;
        for seed in [205u64, 206, 207, 208] {
            let spec = FleetSpec::new(sa_city(seed), 12).stagger_s(0.0);
            let referee = run_fleet_exec(&spec, FleetExec::threads(1).shards(2).engine(EngineMode::Referee));
            let ev = run_fleet_exec(&spec, FleetExec::threads(2).shards(8).engine(EngineMode::EventDriven));
            assert_eq!(referee, ev, "load-coupled wakeups diverged at seed {seed}");
            load_wakes += referee.sched.as_ref().unwrap().load_wakes;
        }
        assert!(load_wakes > 0, "no sleep was ever cut short by a neighbor's load change across the seed sweep");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// The tentpole equivalence, property-tested: for any seed and
            /// architecture, a fleet of size 1 reproduces the single-UE
            /// `run` of the same scenario exactly (the JSON byte-identity
            /// variant lives in `tests/fleet_determinism.rs`).
            #[test]
            fn fleet_of_one_matches_run(seed in 0u64..1000, arch_pick in 0u8..3) {
                let arch = [Arch::Nsa, Arch::Sa, Arch::Lte][arch_pick as usize];
                let s = ScenarioBuilder::freeway(Carrier::OpY, arch, 2.0, seed)
                    .duration_s(30.0)
                    .sample_hz(5.0)
                    .build();
                let single = s.run();
                for threads in [1usize, 2] {
                    let ft = run_fleet_exec(&FleetSpec::new(s.clone(), 1).keep_traces(true), FleetExec::threads(threads));
                    prop_assert_eq!(&ft.traces[0], &single);
                }
            }
        }
    }
}
