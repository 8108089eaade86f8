//! The tick loop: mobility → channel → measurements → policy → HO state
//! machine → link → trace.

// Wakeup-bound planner for the event-driven fleet scheduler. A child module
// of the engine so it can read `UeSim`'s private state directly instead of
// widening the engine's API surface.
#[path = "wakeup.rs"]
pub(crate) mod wakeup;

use crate::fault::FaultConfig;
use crate::fleet::CellLoadView;
use crate::hook::{AttachReason, ServingCells, SimHook, TickView};
use crate::scenario::{Scenario, Workload};
use crate::trace::{CellDictEntry, FlowLog, MrRecord, Trace, TraceMeta, TraceSample};
use fiveg_geo::Point;
use fiveg_link::{compose, Bearer, BulkFlow, CbrFlow, DownlinkState, PathOutcome};
use fiveg_radio::rrs::{compute_rrs_with_mw, dbm_to_mw};
use fiveg_radio::{hash2, shannon_capacity_mbps, BandClass, DetRng, Rrs};
use fiveg_ran::policy::PolicyContext;
use fiveg_ran::{
    Arch, CellId, Deployment, HandoverRecord, HoEvent, HoPolicy, MeasEngine, Measurement, PciTable, RadioSnapshot,
    RadioTech, RanStateMachine,
};
use fiveg_rrc::{EventConfig, Pci, RrcMessage, SignalingTally};
use fiveg_telemetry::{Counter, Event, HistogramHandle, Phase, Telemetry};
use fiveg_ue::{MobilityDriver, RrcConnState};

/// Fraction of the cell capacity one user gets. High: the paper measures at
/// low-congestion times on purpose ("including night time: 12am-4am ... we
/// reduce the impact of crowds and congestion", §9).
const FAIR_SHARE: f64 = 0.85;
/// Carrier-aggregation factor for the LTE leg: "a UE can subscribe to
/// multiple secondary cells for higher bandwidths" (§2); typical US
/// deployments bond 2–4 LTE component carriers.
const LTE_CA_FACTOR: f64 = 2.5;
/// EN-DC aggregation factor for low-band NR legs: thin 10–20 MHz carriers
/// are always bonded with supplemental carriers in deployment.
const NR_LOW_CA_FACTOR: f64 = 3.0;
/// Mid-band NR aggregation (the 60–100 MHz carrier is the capacity).
const NR_MID_CA_FACTOR: f64 = 1.2;
/// How far to look for candidate cells, m: the radius of every per-tick
/// radio-snapshot refresh.
pub const SEARCH_RADIUS_M: f64 = 8_000.0;
/// RSRP below which the serving link fails (radio link failure).
const RLF_DBM: f64 = -124.0;

/// Measurements of one radio leg at one tick. One instance per leg lives for
/// the whole run; [`fill_leg_view`] clears and refills it each tick so the
/// buffers (neighbors, candidate table) are reused, not reallocated.
struct LegView {
    /// Serving measurement (if attached on this leg).
    serving: Option<Measurement>,
    /// Strongest other cells, up to 4.
    neighbors: Vec<Measurement>,
    /// Serving SINR for the capacity model.
    serving_sinr_db: f64,
    /// PCI → cell resolution for this tick.
    candidates: PciTable,
}

impl LegView {
    fn new() -> Self {
        LegView { serving: None, neighbors: Vec::new(), serving_sinr_db: -20.0, candidates: PciTable::new() }
    }
}

/// Reused scratch for [`fill_leg_view`]: the ranked candidate list and the
/// activity-scaled interference terms (mW) aligned with it, entry for entry.
#[derive(Default)]
struct LegScratch {
    ranked: Vec<(CellId, f64)>,
    mw_adj: Vec<f64>,
}

/// Fixed-capacity inline per-band counter — replaces the transient
/// `HashMap<&str, usize>` the leg view used to rebuild twice per tick. A leg
/// sees at most a handful of bands (bounded by the carrier profile), so a
/// linear scan wins and nothing allocates.
struct BandTally {
    entries: [(&'static str, usize); 16],
    len: usize,
}

impl BandTally {
    fn new() -> Self {
        BandTally { entries: [("", 0); 16], len: 0 }
    }

    /// True when `name` has been taken fewer than `cap` times so far,
    /// incrementing its count — the `entry().or_insert()`-then-compare idiom
    /// it replaces.
    fn take_below(&mut self, name: &'static str, cap: usize) -> bool {
        for e in self.entries[..self.len].iter_mut() {
            if e.0 == name {
                if e.1 < cap {
                    e.1 += 1;
                    return true;
                }
                return false;
            }
        }
        assert!(self.len < self.entries.len(), "more than {} bands in one leg", self.entries.len());
        self.entries[self.len] = (name, 1);
        self.len += 1;
        true
    }
}

/// Minimum carrier frequency for an EN-DC anchor cell, MHz. Under NSA the
/// LTE leg only anchors on mid-band carriers ("its coupled control plane
/// (NSA-4C) still uses the mid-band", §6.1).
const ANCHOR_MIN_FREQ_MHZ: f64 = 1700.0;

/// Computes RRS for every relevant cell of one leg into `view`, reusing the
/// view's and `scratch`'s buffers across ticks. `all` is the leg's slice of
/// the per-tick [`RadioSnapshot`]: each band's [`RadioSnapshot::PER_BAND`]
/// strongest cells, strongest first. A serving cell outside that slice is
/// priced directly with [`fiveg_ran::Cell::rx_dbm`]; nothing else here reads
/// radio state.
#[allow(clippy::too_many_arguments)]
fn fill_leg_view(
    view: &mut LegView,
    scratch: &mut LegScratch,
    d: &Deployment,
    all: &[(CellId, f64)],
    pos: &Point,
    t: f64,
    nr: bool,
    serving: Option<CellId>,
    anchor_only: bool,
) {
    view.serving = None;
    view.neighbors.clear();
    view.candidates.clear();
    scratch.ranked.clear();
    scratch.mw_adj.clear();

    // UEs measure each configured carrier frequency separately, and the
    // snapshot keeps the strongest `PER_BAND` cells of each band, so a strong
    // band cannot crowd the others out of the measured set (inter-frequency
    // events need those entries)
    let mut serving_rx = None;
    for &(id, rx) in all {
        if anchor_only && d.cell(id).band.freq_mhz < ANCHOR_MIN_FREQ_MHZ {
            continue;
        }
        scratch.ranked.push((id, rx));
        if Some(id) == serving {
            serving_rx = Some(rx);
        }
        if scratch.ranked.len() >= 12 {
            break;
        }
    }
    // make sure the serving cell is present even if it fell out of the
    // ranked set (at most 12 entries)
    if let Some(s) = serving {
        if serving_rx.is_none() {
            let rx = d.cell(s).rx_dbm(pos, t);
            scratch.ranked.push((s, rx));
            serving_rx = Some(rx);
        }
    }

    // Co-channel interference terms: same band only, scaled by the neighbor
    // activity factor — interfering cells do not transmit full power on the
    // UE's resource blocks all the time (scheduling + load). Precomputed
    // once per ranked entry instead of per (candidate × interferer) pair.
    const ACTIVITY_DB: f64 = -5.5; // ≈ 28% duty on the interfered PRBs
    for &(_, rx) in scratch.ranked.iter() {
        scratch.mw_adj.push(dbm_to_mw(rx + ACTIVITY_DB));
    }
    let (ranked, mw_adj) = (&scratch.ranked, &scratch.mw_adj);
    let rrs_of = |id: CellId, rx: f64| -> Rrs {
        let me = d.cell(id);
        let mut i_mw = 0.0;
        for (k, &(other, _)) in ranked.iter().enumerate() {
            if other != id && d.cell(other).band.name == me.band.name {
                i_mw += mw_adj[k];
            }
        }
        compute_rrs_with_mw(rx, i_mw, me.noise_dbm)
    };

    for &(id, _) in ranked.iter() {
        view.candidates.insert_first(d.cell(id).pci, id);
    }

    let group_of = |id: CellId| -> Option<u32> {
        // NR cells under NSA carry their gNB (tower) as the A3 measurement
        // group; SA and LTE measure across sites
        if nr && d.arch == fiveg_ran::Arch::Nsa {
            Some(d.cell(id).tower.0)
        } else {
            None
        }
    };
    // the serving entry was tracked (or appended) above, so the measurement
    // is constructed directly — no re-find in `ranked`, nothing to unwrap
    view.serving = match (serving, serving_rx) {
        (Some(s), Some(rx)) => Some(Measurement {
            pci: d.cell(s).pci,
            rrs: rrs_of(s, rx),
            freq_mhz: d.cell(s).band.freq_mhz,
            group: group_of(s),
        }),
        _ => None,
    };
    view.serving_sinr_db = view.serving.map(|m| m.rrs.sinr_db).unwrap_or(-20.0);

    // neighbor list: up to 2 per band (cap 8) so intra-frequency candidates
    // are always measurable even when another band dominates the top of the
    // ranking
    let mut nb_per_band = BandTally::new();
    for &(id, rx) in ranked.iter() {
        if Some(id) == serving {
            continue;
        }
        if nb_per_band.take_below(d.cell(id).band.name, 2) {
            view.neighbors.push(Measurement {
                pci: d.cell(id).pci,
                rrs: rrs_of(id, rx),
                freq_mhz: d.cell(id).band.freq_mhz,
                group: group_of(id),
            });
        }
        if view.neighbors.len() >= 8 {
            break;
        }
    }
}

/// Runs a scenario with a [`SimHook`] observing every state transition (see
/// [`crate::hook`]). Hooks observe only — the returned trace is byte-identical
/// to [`Scenario::run`]'s.
pub fn run_hooked(s: &Scenario, tele: &Telemetry, hook: &mut dyn SimHook) -> Trace {
    run_with(s, tele, Some(hook))
}

/// The single-UE engine: one [`UeSim`] stepped to completion with
/// [`CellLoadView::SOLO`] and a [`RadioSnapshot`] of its own.
pub(crate) fn run_with(s: &Scenario, tele: &Telemetry, mut hook: Option<&mut (dyn SimHook + '_)>) -> Trace {
    let d = Deployment::generate(&s.route, s.carrier, s.env, s.arch, s.seed);
    let mut radio = RadioSnapshot::new();
    let mut ue = UeSim::new(s.clone(), &d, tele, &mut radio, hook.as_deref_mut(), true);
    while ue.active() {
        ue.step(hook.as_deref_mut(), &CellLoadView::SOLO, &mut radio);
    }
    ue.finish(hook).1.expect("the single-UE engine records samples")
}

/// Flat end-of-run statistics, produced by [`UeSim::finish`] for every UE
/// whether or not it kept its [`Trace`]. Counts are incremented at the
/// exact sites that push the corresponding trace records, and
/// `capacity_sum` accumulates left-to-right in tick order, so with samples
/// recorded every field equals what the trace itself implies.
pub(crate) struct UeRunStats {
    pub ticks: u64,
    pub traveled_m: f64,
    pub handovers: u64,
    pub ho_failures: u64,
    pub rlf_count: u64,
    pub reports: u64,
    pub capacity_sum: f64,
    pub loaded_ticks: u64,
    pub share_sum: f64,
}

/// One UE's simulation state, steppable one tick at a time against a
/// borrowed immutable [`Deployment`].
///
/// The single-UE engine ([`Scenario::run`], [`run_hooked`]) is a thin loop
/// over [`UeSim::step`] with [`CellLoadView::SOLO`] and a [`RadioSnapshot`]
/// of its own. The fleet engine ([`crate::fleet`]) drives many `UeSim`s
/// against one shared deployment, stepped every tick or, event-driven,
/// parked on a calendar wheel and replayed with [`UeSim::catch_up`]; it
/// feeds each step the fleet's per-cell attach counts through a
/// [`CellLoadView`] and shares one snapshot per shard. A fleet of one reproduces
/// [`Scenario::run`]'s trace byte for byte.
pub(crate) struct UeSim<'d> {
    s: Scenario,
    d: &'d Deployment,
    tele: Telemetry,
    mob: MobilityDriver,
    sm: RanStateMachine,
    policy: HoPolicy,
    tally: SignalingTally,
    conn: RrcConnState,
    fault_rng: DetRng,
    faults: FaultConfig,
    ticks_ctr: Counter,
    reports_ctr: Counter,
    handovers_ctr: Counter,
    rlf_ctr: Counter,
    mr_loss_ctr: Counter,
    ho_fail_ctr: Counter,
    ho_duration_h: HistogramHandle,
    ho_t1_h: HistogramHandle,
    ho_t2_h: HistogramHandle,
    cap_h: HistogramHandle,
    lte_engine: MeasEngine,
    nr_engine: MeasEngine,
    configs_seen: Vec<EventConfig>,
    dt: f64,
    t: f64,
    tick: u64,
    had_scg: bool,
    // per-leg views, scratch and the merged candidate table persist across
    // ticks: the hot loop refills them instead of reallocating
    lte_leg: LegView,
    nr_leg: LegView,
    scratch: LegScratch,
    merged: PciTable,
    /// When false (fleet summary mode) the per-tick sample and the report
    /// log are not retained: the vectors stay empty and the summary
    /// aggregates below are streamed instead. Everything that feeds back
    /// into the simulation is untouched, so the run itself is bit-identical
    /// either way.
    record_samples: bool,
    samples: Vec<TraceSample>,
    reports_log: Vec<MrRecord>,
    handovers: Vec<HandoverRecord>,
    /// Count of retained-or-skipped report records; equals
    /// `reports_log.len()` whenever `record_samples` is true.
    reports_n: u64,
    /// Count of completed handovers; equals `handovers.len()`.
    handovers_n: u64,
    /// Σ per-tick `capacity_mbps` in tick order — the left-to-right fold
    /// of the retained samples' capacities.
    cap_sum: f64,
    rlf_count: u64,
    ho_failures: u64,
    bulk: Option<BulkFlow>,
    cbr: Option<CbrFlow>,
    /// Ticks where the serving share was < 1.0 (fleet cell contention).
    loaded_ticks: u64,
    /// Σ per-tick serving share (min across attached legs); equals `tick`
    /// in any uncontended run. Fleet-level congestion stat only — never
    /// reaches the [`Trace`].
    share_sum: f64,
}

impl<'d> UeSim<'d> {
    /// Builds the UE state and performs the initial attach (strongest cell
    /// of the control-plane technology at the route start).
    ///
    /// `radio` is borrowed, not owned: the fleet engine shares one
    /// [`RadioSnapshot`] arena across every UE of a shard (the snapshot is a
    /// pure memo of `(pos, t)`, so sharing cannot change any UE's bytes),
    /// while the single-UE entry points pass one they own. `record_samples`
    /// selects between full trace retention and streaming summary mode.
    pub(crate) fn new(
        s: Scenario,
        d: &'d Deployment,
        tele: &Telemetry,
        radio: &mut RadioSnapshot,
        mut hook: Option<&mut (dyn SimHook + '_)>,
        record_samples: bool,
    ) -> UeSim<'d> {
        let mob = MobilityDriver::new(s.route.clone(), s.speed);
        let mut sm = RanStateMachine::new(s.arch, hash2(s.seed, 0x5A5A));
        let mut policy = HoPolicy::new(s.carrier, s.arch);
        sm.set_telemetry(tele.clone());
        policy.set_telemetry(tele.clone());
        let mut tally = SignalingTally::new();
        let conn = RrcConnState::with_keepalive();
        let fault_rng = DetRng::new(hash2(s.seed, 0xFA17));
        // run on the clamped fault config so out-of-range probabilities behave
        // like their nearest valid counterpart (see FaultConfig::clamped)
        let faults = s.faults.clamped();

        let ticks_ctr = tele.counter("sim.ticks");
        let reports_ctr = tele.counter("sim.reports");
        let handovers_ctr = tele.counter("sim.handovers");
        let rlf_ctr = tele.counter("sim.rlf");
        let mr_loss_ctr = tele.counter("faults.mr_loss");
        let ho_fail_ctr = tele.counter("faults.ho_failure");
        let ho_duration_h = tele.histogram("ho.duration_ms");
        let ho_t1_h = tele.histogram("ho.t1_ms");
        let ho_t2_h = tele.histogram("ho.t2_ms");
        let cap_h = tele.histogram("link.capacity_mbps");

        // initial attach: strongest cell of the control-plane technology
        let t0 = 0.0;
        let start = mob.position();
        {
            let nr = s.arch == Arch::Sa;
            radio.refresh(d, &start, t0, SEARCH_RADIUS_M, !nr, nr);
            let best = radio.strongest(nr).first().map(|&(id, _)| id);
            if nr {
                sm.attach(None, best);
            } else {
                sm.attach(best, None);
            }
            if let Some(h) = hook.as_mut() {
                h.on_attach(t0, AttachReason::Initial, ServingCells { lte: sm.serving_lte(), nr: sm.serving_nr() });
            }
        }

        // measurement engines
        let (lte_engine, nr_engine, mut configs_seen) = match s.arch {
            Arch::Sa => {
                let cfgs = policy.sa_configs();
                (MeasEngine::new(vec![]), MeasEngine::new(cfgs.clone()), cfgs)
            }
            _ => {
                let lte_cfgs = policy.lte_configs();
                let nr_cfgs = if s.arch == Arch::Nsa { policy.nr_configs(false) } else { vec![] };
                let mut seen = lte_cfgs.clone();
                seen.extend(nr_cfgs.iter().copied());
                // the connected-mode NR configs will also be seen eventually
                if s.arch == Arch::Nsa {
                    for c in policy.nr_configs(true) {
                        if !seen.contains(&c) {
                            seen.push(c);
                        }
                    }
                }
                (MeasEngine::new(lte_cfgs), MeasEngine::new(nr_cfgs), seen)
            }
        };
        configs_seen.dedup();
        tally.record(&RrcMessage::MeasConfig { configs: configs_seen.clone() });

        let had_scg = sm.serving_nr().is_some();

        let mut bulk: Option<BulkFlow> = None;
        let mut cbr: Option<CbrFlow> = None;
        match s.workload {
            Workload::Bulk(cca) => bulk = Some(BulkFlow::new(cca)),
            Workload::Cbr { rate_mbps, deadline_ms } => cbr = Some(CbrFlow::new(rate_mbps, deadline_ms)),
            Workload::Idle => {}
        }
        if let Some(f) = &mut bulk {
            f.set_telemetry(tele.clone());
            // summary-only runs never read the flow log; retention is pure
            // logging, so dropping it cannot change any returned sample
            f.retain_samples(record_samples);
        }
        if let Some(f) = &mut cbr {
            f.set_telemetry(tele.clone());
            f.retain_samples(record_samples);
        }

        let dt = 1.0 / s.sample_hz;
        UeSim {
            s,
            d,
            tele: tele.clone(),
            mob,
            sm,
            policy,
            tally,
            conn,
            fault_rng,
            faults,
            ticks_ctr,
            reports_ctr,
            handovers_ctr,
            rlf_ctr,
            mr_loss_ctr,
            ho_fail_ctr,
            ho_duration_h,
            ho_t1_h,
            ho_t2_h,
            cap_h,
            lte_engine,
            nr_engine,
            configs_seen,
            dt,
            t: 0.0,
            tick: 0,
            had_scg,
            lte_leg: LegView::new(),
            nr_leg: LegView::new(),
            scratch: LegScratch::default(),
            merged: PciTable::new(),
            record_samples,
            samples: Vec::new(),
            reports_log: Vec::new(),
            handovers: Vec::new(),
            reports_n: 0,
            handovers_n: 0,
            cap_sum: 0.0,
            rlf_count: 0,
            ho_failures: 0,
            bulk,
            cbr,
            loaded_ticks: 0,
            share_sum: 0.0,
        }
    }

    /// True while the UE still has route and simulated time left. Matches
    /// the single-UE loop condition exactly: checked *before* each tick.
    pub(crate) fn active(&self) -> bool {
        !self.mob.finished() && self.t < self.s.max_duration_s
    }

    /// Serving cells after the last step — what the fleet engine publishes
    /// into the next tick's per-cell attach counts.
    pub(crate) fn serving(&self) -> (Option<CellId>, Option<CellId>) {
        (self.sm.serving_lte(), self.sm.serving_nr())
    }

    /// Current UE position — what the fleet engine feeds its shard map to
    /// decide whether the UE has crossed a shard boundary this tick.
    pub(crate) fn position(&self) -> Point {
        self.mob.position()
    }

    /// Ticks this UE has stepped or replayed so far — the 1-based ordinal
    /// the last [`crate::hook::TickView`] carried. Staggered fleet UEs run
    /// their own counter, so sleep declarations must quote this, not the
    /// fleet clock.
    pub(crate) fn ticks_stepped(&self) -> u64 {
        self.tick
    }

    /// Replays `ticks` slept ticks in one burst: exactly the per-tick
    /// prologue of [`UeSim::step`] — clock, tick counter, mobility
    /// integration — and nothing else, in the same order. Sound only when a
    /// [`wakeup::plan_sleep`] bound proved every replayed tick's control
    /// plane inert; the referee fleet mode holds the event-driven mode to
    /// that byte-for-byte.
    pub(crate) fn catch_up(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.t += self.dt;
            self.tick += 1;
            self.ticks_ctr.inc();
            self.mob.step(self.dt);
        }
    }

    /// Conservative count of future ticks whose control plane is provably
    /// inert — see [`wakeup::plan_sleep`]. `0` means the UE must step next
    /// tick. Test convenience; the fleet uses [`UeSim::plan_sleep_with`].
    #[cfg(test)]
    pub(crate) fn plan_sleep(&self, max_ticks: u64) -> u64 {
        wakeup::plan_sleep(self, max_ticks, &mut wakeup::PlanScratch::default())
    }

    /// [`UeSim::plan_sleep`] with caller-owned scratch buffers — the fleet
    /// threads one [`wakeup::PlanScratch`] per shard through every plan so
    /// steady-state planning never allocates. The plan is a pure function of
    /// UE state; the scratch only recycles capacity.
    pub(crate) fn plan_sleep_with(&self, max_ticks: u64, scratch: &mut wakeup::PlanScratch) -> u64 {
        wakeup::plan_sleep(self, max_ticks, scratch)
    }

    /// Control-plane digest for equivalence assertions: every field must be
    /// bit-identical whether slept ticks ran `sample = false` steps, were
    /// replayed by [`UeSim::catch_up`], or (for the counters) ran fully
    /// sampled. Used by the wakeup soundness proptest and the fleet
    /// mode-equality tests.
    #[cfg(test)]
    pub(crate) fn control_digest(&self) -> (u64, u64, u64, u64, Option<CellId>, Option<CellId>, f64, u64) {
        (
            self.reports_n,
            self.handovers_n,
            self.rlf_count,
            self.ho_failures,
            self.sm.serving_lte(),
            self.sm.serving_nr(),
            self.mob.distance(),
            self.tick,
        )
    }

    /// Advances the simulation by one tick: mobility → HO state machine →
    /// channel views → RLF → measurements/policy → link → trace sample.
    ///
    /// `load` supplies the previous tick's per-cell attach counts; the leg
    /// capacities are multiplied by the serving cell's equal share. With
    /// [`CellLoadView::SOLO`] both shares are exactly `1.0` and the
    /// multiplications are bit-for-bit no-ops (see
    /// [`fiveg_link::load_share`]).
    pub(crate) fn step(
        &mut self,
        hook: Option<&mut (dyn SimHook + '_)>,
        load: &CellLoadView,
        radio: &mut RadioSnapshot,
    ) {
        self.step_sampled(hook, load, radio, true)
    }

    /// [`UeSim::step`] with the data plane made optional. With `sample` true
    /// this IS `step`. With `sample` false the control plane still runs in
    /// full — mobility, HO state machine, channel views, RLF, measurements,
    /// policy, decisions — but the data-plane tail (PHY-measurement tally,
    /// link-layer shares/flows, trace sample, tick hook) is skipped. The
    /// event-driven fleet modes use `sample = false` for virtually-slept
    /// ticks: the referee mode proves dynamically that a parked UE's control
    /// plane would have stayed inert, while the data plane — which never
    /// feeds back into the radio state — is consistently absent from both
    /// scheduled modes, keeping their outputs byte-identical.
    pub(crate) fn step_sampled(
        &mut self,
        mut hook: Option<&mut (dyn SimHook + '_)>,
        load: &CellLoadView,
        radio: &mut RadioSnapshot,
        sample: bool,
    ) {
        let d = self.d;
        let arch = self.s.arch;
        let force_dual = self.s.force_dual;
        let dt = self.dt;
        let tele = &self.tele;
        self.t += dt;
        let t = self.t;
        self.tick += 1;
        self.ticks_ctr.inc();
        {
            let _g = tele.phase(Phase::Mobility);
            self.mob.step(dt);
        }
        let pos = self.mob.position();

        // --- advance the HO state machine
        let mut pre_lte = self.sm.serving_lte();
        let mut pre_nr = self.sm.serving_nr();
        let ho_events = {
            let _g = tele.phase(Phase::HoStateMachine);
            self.sm.step(t, d)
        };
        for ev in ho_events {
            match ev {
                HoEvent::CommandSent(msg) => {
                    self.tally.record(&msg);
                    if let Some(h) = hook.as_mut() {
                        h.on_ho_command(t);
                    }
                }
                HoEvent::Completed(rec, msgs) => {
                    if self.faults.ho_failure_prob > 0.0 && self.fault_rng.chance(self.faults.ho_failure_prob) {
                        // execution failed: fall back to the source cells and
                        // abandon any chained follow-up — its trigger report
                        // described a radio state that no longer holds
                        self.ho_failures += 1;
                        self.ho_fail_ctr.inc();
                        tele.record(t, Event::FaultInjected { kind: "ho_failure".into() });
                        tele.record(t, Event::HoFailure { ho_type: rec.ho_type.acronym().into() });
                        self.sm.abort_chain();
                        self.sm.attach(pre_lte, pre_nr);
                        if let Some(h) = hook.as_mut() {
                            h.on_ho_failure(t, &rec, ServingCells { lte: pre_lte, nr: pre_nr });
                        }
                    } else {
                        for m in &msgs {
                            self.tally.record(m);
                        }
                        self.handovers_ctr.inc();
                        tele.incr(&format!("ho.{}", rec.ho_type.acronym()));
                        self.ho_duration_h.observe(rec.duration_ms());
                        self.ho_t1_h.observe(rec.stages.t1_ms);
                        self.ho_t2_h.observe(rec.stages.t2_ms);
                        tele.record(
                            t,
                            Event::HoCommit { ho_type: rec.ho_type.acronym().into(), duration_ms: rec.duration_ms() },
                        );
                        if let Some(h) = hook.as_mut() {
                            h.on_ho_complete(
                                t,
                                &rec,
                                ServingCells { lte: self.sm.serving_lte(), nr: self.sm.serving_nr() },
                            );
                        }
                        self.handovers_n += 1;
                        if self.record_samples {
                            self.handovers.push(rec);
                        }
                    }
                    pre_lte = self.sm.serving_lte();
                    pre_nr = self.sm.serving_nr();
                    // the new serving cell re-delivers measurement configs
                    self.lte_engine.reset();
                    self.nr_engine.reset();
                    self.policy.end_phase();
                    self.tally.record(&RrcMessage::MeasConfig { configs: vec![] });
                }
            }
        }

        // SCG presence flips the NR measurement config (B1-only vs full set)
        if arch == Arch::Nsa {
            let has_scg = self.sm.serving_nr().is_some();
            if has_scg != self.had_scg {
                self.nr_engine.reconfigure(self.policy.nr_configs(has_scg));
                self.tally.record(&RrcMessage::MeasConfig { configs: vec![] });
                self.had_scg = has_scg;
            }
        }

        // --- channel views
        let channel_guard = tele.phase(Phase::Channel);
        // one refresh feeds both leg views and RLF recovery — each in-radius
        // cell is priced at most once per tick
        radio.refresh(d, &pos, t, SEARCH_RADIUS_M, arch != Arch::Sa, arch != Arch::Lte);
        let lte_view: Option<&LegView> = if arch != Arch::Sa {
            fill_leg_view(
                &mut self.lte_leg,
                &mut self.scratch,
                d,
                radio.strongest(false),
                &pos,
                t,
                false,
                self.sm.serving_lte(),
                arch == Arch::Nsa,
            );
            Some(&self.lte_leg)
        } else {
            None
        };
        let nr_view: Option<&LegView> = if arch != Arch::Lte {
            fill_leg_view(
                &mut self.nr_leg,
                &mut self.scratch,
                d,
                radio.strongest(true),
                &pos,
                t,
                true,
                self.sm.serving_nr(),
                false,
            );
            Some(&self.nr_leg)
        } else {
            None
        };
        drop(channel_guard);

        // --- radio link failure / reattach
        if let Some(lv) = &lte_view {
            let lost = lv.serving.map(|m| m.rrs.rsrp_dbm < RLF_DBM).unwrap_or(self.sm.serving_lte().is_none());
            if lost && !self.sm.busy() {
                let best = radio.strongest(false).first().copied();
                if let Some((id, rx)) = best {
                    if rx > RLF_DBM + 4.0 && Some(id) != self.sm.serving_lte() {
                        let rlf = self.sm.serving_lte().is_some();
                        if rlf {
                            self.rlf_count += 1;
                            self.rlf_ctr.inc();
                            tele.record(t, Event::Rlf { leg: "lte".into() });
                        }
                        let keep_nr = if arch == Arch::Nsa { None } else { self.sm.serving_nr() };
                        self.sm.attach(Some(id), keep_nr);
                        self.lte_engine.reset();
                        self.nr_engine.reset();
                        self.policy.end_phase();
                        if let Some(h) = hook.as_mut() {
                            h.on_attach(
                                t,
                                AttachReason::Reattach { leg: RadioTech::Lte, rlf },
                                ServingCells { lte: self.sm.serving_lte(), nr: self.sm.serving_nr() },
                            );
                        }
                    }
                }
            }
        }
        if arch == Arch::Sa {
            let lost = nr_view
                .as_ref()
                .and_then(|v| v.serving)
                .map(|m| m.rrs.rsrp_dbm < RLF_DBM)
                .unwrap_or(self.sm.serving_nr().is_none());
            if lost && !self.sm.busy() {
                let best = radio.strongest(true).first().copied();
                if let Some((id, rx)) = best {
                    if rx > RLF_DBM + 4.0 && Some(id) != self.sm.serving_nr() {
                        let rlf = self.sm.serving_nr().is_some();
                        if rlf {
                            self.rlf_count += 1;
                            self.rlf_ctr.inc();
                            tele.record(t, Event::Rlf { leg: "nr".into() });
                        }
                        self.sm.attach(None, Some(id));
                        self.nr_engine.reset();
                        self.policy.end_phase();
                        if let Some(h) = hook.as_mut() {
                            h.on_attach(
                                t,
                                AttachReason::Reattach { leg: RadioTech::Nr, rlf },
                                ServingCells { lte: self.sm.serving_lte(), nr: self.sm.serving_nr() },
                            );
                        }
                    }
                }
            }
        }

        // --- measurements, reports, policy (only between HOs)
        if !self.sm.busy() {
            // policy context map: keyed by PCI. NR entries first so NR-leg
            // reports resolve to gNB cells; the HO start below re-resolves
            // within the correct leg anyway.
            self.merged.clear();
            if let Some(v) = &nr_view {
                for (p, id) in v.candidates.iter() {
                    self.merged.insert_first(p, id);
                }
            }
            if let Some(v) = &lte_view {
                for (p, id) in v.candidates.iter() {
                    self.merged.insert_first(p, id);
                }
            }
            let mut decisions = Vec::new();
            let mut rearm_b1 = false;
            {
                let pctx = PolicyContext {
                    deployment: d,
                    serving_lte: self.sm.serving_lte(),
                    serving_nr: self.sm.serving_nr(),
                    candidates: &self.merged,
                    t,
                };

                // LTE leg
                if let Some(v) = &lte_view {
                    if let Some(serving) = v.serving {
                        let reps = {
                            let _g = tele.phase(Phase::Measurement);
                            self.lte_engine.step(t, &serving, &v.neighbors)
                        };
                        for rep in reps {
                            if self.faults.mr_loss_prob > 0.0 && self.fault_rng.chance(self.faults.mr_loss_prob) {
                                self.mr_loss_ctr.inc();
                                tele.record(t, Event::FaultInjected { kind: "mr_loss".into() });
                                tele.record(t, Event::MrLoss { event: rep.event.label() });
                                continue; // report lost on the uplink
                            }
                            self.reports_ctr.inc();
                            self.tally.record(&RrcMessage::MeasurementReport {
                                event: rep.event,
                                serving_pci: serving.pci,
                                serving_rrs: serving.rrs,
                                neighbors: rep.neighbors.clone(),
                            });
                            self.reports_n += 1;
                            if self.record_samples {
                                self.reports_log.push(MrRecord {
                                    t,
                                    event: rep.event,
                                    serving_pci: serving.pci.0,
                                    neighbor_pcis: rep.neighbors.iter().map(|n| n.pci.0).collect(),
                                });
                            }
                            let _g = tele.phase(Phase::Policy);
                            if let Some(dec) = self.policy.on_report(&rep, &pctx) {
                                decisions.push(dec);
                            }
                        }
                    }
                }

                // NR leg (NSA measurement of NR cells, or SA serving leg)
                if let Some(v) = &nr_view {
                    let serving = v.serving.unwrap_or(Measurement {
                        pci: Pci(0),
                        rrs: Rrs::OUT_OF_RANGE,
                        freq_mhz: 0.0,
                        group: None,
                    });
                    let reps = {
                        let _g = tele.phase(Phase::Measurement);
                        self.nr_engine.step(t, &serving, &v.neighbors)
                    };
                    for rep in reps {
                        if self.faults.mr_loss_prob > 0.0 && self.fault_rng.chance(self.faults.mr_loss_prob) {
                            self.mr_loss_ctr.inc();
                            tele.record(t, Event::FaultInjected { kind: "mr_loss".into() });
                            tele.record(t, Event::MrLoss { event: rep.event.label() });
                            continue;
                        }
                        // B1 reporting is only configured during SCG
                        // discovery or an open SCG-change window
                        if rep.event.kind == fiveg_rrc::EventKind::B1
                            && arch == Arch::Nsa
                            && !self.policy.wants_nr_b1(self.sm.serving_nr().is_some(), t)
                        {
                            continue;
                        }
                        self.reports_ctr.inc();
                        self.tally.record(&RrcMessage::MeasurementReport {
                            event: rep.event,
                            serving_pci: serving.pci,
                            serving_rrs: serving.rrs,
                            neighbors: rep.neighbors.clone(),
                        });
                        self.reports_n += 1;
                        if self.record_samples {
                            self.reports_log.push(MrRecord {
                                t,
                                event: rep.event,
                                serving_pci: serving.pci.0,
                                neighbor_pcis: rep.neighbors.iter().map(|n| n.pci.0).collect(),
                            });
                        }
                        // an A2 opens the SCG-change window: the network
                        // re-requests B1 reporting to find a replacement gNB
                        if rep.event.kind == fiveg_rrc::EventKind::A2 {
                            rearm_b1 = true;
                        }
                        let _g = tele.phase(Phase::Policy);
                        if let Some(dec) = self.policy.on_report(&rep, &pctx) {
                            decisions.push(dec);
                        }
                    }
                }

                // pending-A2 decay (SCG release without replacement)
                let _g = tele.phase(Phase::Policy);
                if let Some(dec) = self.policy.tick(&pctx) {
                    decisions.push(dec);
                }
            }

            if rearm_b1 {
                self.nr_engine.rearm(fiveg_rrc::EventKind::B1);
            }

            // execute the first decision (one HO at a time); resolve the
            // target PCI within the correct leg — co-located gNBs reuse eNB
            // PCIs, so a merged map would be ambiguous
            if let Some(dec) = decisions.into_iter().next() {
                let lte_cand = lte_view.as_ref().map(|v| &v.candidates);
                let nr_cand = nr_view.as_ref().map(|v| &v.candidates);
                let target = match &dec.action {
                    fiveg_rrc::ReconfigAction::ScgRelease => None,
                    fiveg_rrc::ReconfigAction::LteHandover { target }
                    | fiveg_rrc::ReconfigAction::MenbHandover { target } => lte_cand.and_then(|c| c.get(*target)),
                    fiveg_rrc::ReconfigAction::McgHandover { target } => nr_cand.and_then(|c| c.get(*target)),
                    fiveg_rrc::ReconfigAction::ScgAddition { nr_target }
                    | fiveg_rrc::ReconfigAction::ScgModification { nr_target }
                    | fiveg_rrc::ReconfigAction::ScgChange { nr_target } => nr_cand.and_then(|c| c.get(*nr_target)),
                };
                let needs_target = !matches!(dec.action, fiveg_rrc::ReconfigAction::ScgRelease);
                if !needs_target || target.is_some() {
                    if let Some(h) = hook.as_mut() {
                        h.on_decision(t, &dec.action);
                    }
                    self.sm.start(dec.action, target, dec.phase, d, t);
                }
            }
        }

        // everything below is the data plane: observable output and link
        // bookkeeping that never feeds back into the radio/control state
        if !sample {
            return;
        }

        // --- PHY-layer measurement accounting (SSB sweeps)
        if self.conn.is_connected(t) {
            if let Some(v) = &lte_view {
                self.tally.record_phy_meas(1 + v.neighbors.len() as u64);
            }
            if let Some(v) = &nr_view {
                let serving_mm =
                    self.sm.serving_nr().map(|c| d.cell(c).band.class() == BandClass::MmWave).unwrap_or(false);
                let beams = if serving_mm { 8 } else { 1 };
                self.tally.record_phy_meas(beams * (1 + v.neighbors.len() as u64));
            }
        }

        // --- link layer
        let link_guard = tele.phase(Phase::Link);
        let cs = self.sm.connection();
        // Previous-tick per-cell attach counts → equal-share scheduling.
        // SOLO (and any cell with <= 1 attached UE) yields exactly 1.0, so
        // the multiplications below are bit-for-bit no-ops outside a loaded
        // fleet (see fiveg_link::load_share).
        let lte_share = cs.lte.map(|id| load.share(id)).unwrap_or(1.0);
        let nr_share = cs.nr.map(|id| load.share(id)).unwrap_or(1.0);
        let lte_cap = match (cs.lte, &lte_view) {
            (Some(id), Some(v)) => {
                shannon_capacity_mbps(v.serving_sinr_db, d.cell(id).band.bandwidth_mhz * LTE_CA_FACTOR)
                    * FAIR_SHARE
                    * lte_share
            }
            _ => 0.0,
        };
        let nr_cap = match (cs.nr, &nr_view) {
            (Some(id), Some(v)) => {
                let band = d.cell(id).band;
                let ca = match band.class() {
                    BandClass::MmWave => 1.0,
                    BandClass::Mid => NR_MID_CA_FACTOR,
                    BandClass::Low => NR_LOW_CA_FACTOR,
                };
                shannon_capacity_mbps(v.serving_sinr_db, band.bandwidth_mhz * ca) * FAIR_SHARE * nr_share
            }
            _ => 0.0,
        };
        let serving_share = if lte_share < nr_share { lte_share } else { nr_share };
        if serving_share < 1.0 {
            self.loaded_ticks += 1;
        }
        self.share_sum += serving_share;
        let dual = force_dual.unwrap_or_else(|| d.dual_mode_at(&pos));
        let bearer = match arch {
            Arch::Lte => Bearer::LteOnly,
            Arch::Sa => Bearer::NrOnly,
            Arch::Nsa => {
                if cs.nr.is_none() {
                    Bearer::LteOnly
                } else if dual {
                    Bearer::Dual
                } else {
                    Bearer::NrOnly
                }
            }
        };
        let path: PathOutcome = compose(&DownlinkState {
            lte_mbps: lte_cap,
            nr_mbps: nr_cap,
            lte_interrupted: cs.lte_interrupted,
            nr_interrupted: cs.nr_interrupted,
            bearer,
        });

        self.conn.step(t);
        if let Some(f) = &mut self.bulk {
            f.step(t, dt, &path);
            self.conn.on_activity(t);
        }
        if let Some(f) = &mut self.cbr {
            f.step(t, dt, &path);
            self.conn.on_activity(t);
        }
        self.cap_h.observe(path.capacity_mbps);
        drop(link_guard);

        // --- record sample
        let append_guard = tele.phase(Phase::TraceAppend);
        self.cap_sum += path.capacity_mbps;
        if self.record_samples {
            self.samples.push(TraceSample {
                t,
                pos: (pos.x, pos.y),
                dist_m: self.mob.distance(),
                lte_cell: cs.lte.map(|c| c.0),
                nr_cell: cs.nr.map(|c| c.0),
                lte_rrs: lte_view.as_ref().and_then(|v| v.serving.map(|m| m.rrs)),
                nr_rrs: nr_view.as_ref().and_then(|v| v.serving.map(|m| m.rrs)),
                lte_neighbors: lte_view
                    .as_ref()
                    .map(|v| {
                        v.neighbors.iter().filter_map(|m| v.candidates.get(m.pci).map(|id| (id.0, m.rrs))).collect()
                    })
                    .unwrap_or_default(),
                nr_neighbors: nr_view
                    .as_ref()
                    .map(|v| {
                        v.neighbors.iter().filter_map(|m| v.candidates.get(m.pci).map(|id| (id.0, m.rrs))).collect()
                    })
                    .unwrap_or_default(),
                capacity_mbps: path.capacity_mbps,
                base_rtt_ms: path.base_rtt_ms,
                interrupted: cs.lte_interrupted || cs.nr_interrupted,
                dual_mode: bearer == Bearer::Dual,
            });
        }
        drop(append_guard);

        if let Some(h) = hook.as_mut() {
            h.on_tick(&TickView {
                tick: self.tick,
                t,
                serving: ServingCells { lte: cs.lte, nr: cs.nr },
                phase: self.sm.ho_phase(),
                queued: self.sm.queued(),
                lte_rrs: lte_view.as_ref().and_then(|v| v.serving.map(|m| m.rrs)),
                nr_rrs: nr_view.as_ref().and_then(|v| v.serving.map(|m| m.rrs)),
                capacity_mbps: path.capacity_mbps,
            });
        }
    }

    /// Finishes the run: fires `on_run_end`, records the final gauges and
    /// consumes the UE into its flat [`UeRunStats`], plus its [`Trace`]
    /// when `record_samples` is set.
    pub(crate) fn finish(self, mut hook: Option<&mut (dyn SimHook + '_)>) -> (UeRunStats, Option<Trace>) {
        if let Some(h) = hook.as_mut() {
            h.on_run_end(
                self.t,
                ServingCells { lte: self.sm.serving_lte(), nr: self.sm.serving_nr() },
                self.sm.ho_phase(),
                self.sm.queued(),
            );
        }

        self.tele.set_gauge("sim.duration_s", self.t);
        self.tele.set_gauge("sim.traveled_m", self.mob.distance());

        let stats = UeRunStats {
            ticks: self.tick,
            traveled_m: self.mob.distance(),
            handovers: self.handovers_n,
            ho_failures: self.ho_failures,
            rlf_count: self.rlf_count,
            reports: self.reports_n,
            capacity_sum: self.cap_sum,
            loaded_ticks: self.loaded_ticks,
            share_sum: self.share_sum,
        };
        if !self.record_samples {
            return (stats, None);
        }

        let cells = self
            .d
            .cells
            .iter()
            .map(|c| CellDictEntry {
                cell: c.id.0,
                pci: c.pci.0,
                is_nr: c.is_nr(),
                band: c.band.name.to_string(),
                class: c.band.class(),
                site: (c.site.x, c.site.y),
                tower: c.tower.0,
                co_located: self.d.towers[c.tower.0 as usize].co_located,
            })
            .collect();

        let trace = Trace {
            meta: TraceMeta {
                carrier: self.s.carrier,
                env: self.s.env,
                arch: self.s.arch,
                seed: self.s.seed,
                sample_hz: self.s.sample_hz,
                duration_s: self.t,
                route_len_m: self.s.route.length(),
                traveled_m: self.mob.distance(),
            },
            cells,
            samples: self.samples,
            reports: self.reports_log,
            handovers: self.handovers,
            signaling: self.tally,
            configs: self.configs_seen,
            rlf_count: self.rlf_count,
            ho_failures: self.ho_failures,
            flow: match (self.bulk, self.cbr) {
                (Some(f), _) => FlowLog::Tcp(f.samples().to_vec()),
                (_, Some(f)) => FlowLog::Cbr(f.samples().to_vec()),
                _ => FlowLog::None,
            },
        };
        (stats, Some(trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::scenario::ScenarioBuilder;
    use fiveg_ran::Carrier;

    fn short_freeway(arch: Arch, seed: u64) -> Trace {
        ScenarioBuilder::freeway(Carrier::OpY, arch, 8.0, seed).duration_s(240.0).sample_hz(10.0).build().run()
    }

    #[test]
    fn runs_and_produces_samples() {
        let tr = short_freeway(Arch::Nsa, 1);
        assert!(tr.samples.len() > 1000);
        assert!(tr.meta.traveled_m > 5000.0);
    }

    #[test]
    fn is_deterministic() {
        let a = short_freeway(Arch::Nsa, 2);
        let b = short_freeway(Arch::Nsa, 2);
        assert_eq!(a.samples.len(), b.samples.len());
        assert_eq!(a.handovers, b.handovers);
        assert_eq!(a.signaling, b.signaling);
    }

    #[test]
    fn different_seeds_differ() {
        let a = short_freeway(Arch::Nsa, 3);
        let b = short_freeway(Arch::Nsa, 4);
        assert_ne!(a.handovers.len(), 0);
        // traces should not be identical
        assert_ne!(a.samples.last().unwrap().lte_cell, b.samples.last().unwrap().lte_cell);
    }

    #[test]
    fn nsa_produces_5g_procedures() {
        let tr = short_freeway(Arch::Nsa, 5);
        use fiveg_ran::HoCategory;
        let fiveg = tr.handovers.iter().filter(|h| h.ho_type.category() == HoCategory::FiveG).count();
        assert!(
            fiveg > 0,
            "expected 5G HO procedures, got HOs: {:?}",
            tr.handovers.iter().map(|h| h.ho_type).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lte_only_has_only_lteh() {
        let tr = short_freeway(Arch::Lte, 6);
        assert!(!tr.handovers.is_empty());
        assert!(tr.handovers.iter().all(|h| h.ho_type == fiveg_ran::HoType::Lteh));
        assert!(tr.samples.iter().all(|s| s.nr_cell.is_none()));
    }

    #[test]
    fn sa_has_mcgh_only() {
        let tr = short_freeway(Arch::Sa, 7);
        assert!(
            tr.handovers.iter().all(|h| h.ho_type == fiveg_ran::HoType::Mcgh),
            "{:?}",
            tr.handovers.iter().map(|h| h.ho_type).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reports_precede_handovers() {
        let tr = short_freeway(Arch::Nsa, 8);
        assert!(!tr.reports.is_empty());
        assert!(tr.reports.len() >= tr.handovers.len());
    }

    #[test]
    fn signaling_tally_nonzero() {
        let tr = short_freeway(Arch::Nsa, 9);
        assert!(tr.signaling.meas_reports > 0);
        assert!(tr.signaling.rach_msgs >= 2 * tr.handovers.len() as u64);
        assert!(tr.signaling.bytes > 0);
        assert!(tr.signaling.phy_meas > 0);
    }

    #[test]
    fn handover_times_ordered() {
        let tr = short_freeway(Arch::Nsa, 10);
        for h in &tr.handovers {
            assert!(h.t_decision < h.t_command);
            assert!(h.t_command < h.t_complete);
        }
        for w in tr.handovers.windows(2) {
            assert!(w[0].t_complete <= w[1].t_complete + 1e-9);
        }
    }

    #[test]
    fn capacity_positive_most_of_the_time() {
        let tr = short_freeway(Arch::Nsa, 11);
        let up = tr.samples.iter().filter(|s| s.capacity_mbps > 1.0).count();
        assert!(up * 10 > tr.samples.len() * 7, "{up}/{}", tr.samples.len());
    }

    #[test]
    fn bulk_workload_records_tcp_flow() {
        let tr = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 3.0, 12)
            .duration_s(60.0)
            .sample_hz(10.0)
            .workload(Workload::Bulk(fiveg_link::Cca::Bbr))
            .build()
            .run();
        match &tr.flow {
            FlowLog::Tcp(v) => {
                assert_eq!(v.len(), tr.samples.len());
                let mean = v.iter().map(|s| s.goodput_mbps).sum::<f64>() / v.len() as f64;
                assert!(mean > 1.0, "mean goodput {mean}");
            }
            other => panic!("expected TCP flow, got {other:?}"),
        }
    }

    #[test]
    fn mr_loss_faults_reduce_report_count() {
        let clean =
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 13).duration_s(180.0).sample_hz(10.0).build().run();
        let faulty = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 13)
            .duration_s(180.0)
            .sample_hz(10.0)
            .faults(FaultConfig { mr_loss_prob: 0.7, ho_failure_prob: 0.0 })
            .build()
            .run();
        assert!(
            faulty.signaling.meas_reports < clean.signaling.meas_reports,
            "{} vs {}",
            faulty.signaling.meas_reports,
            clean.signaling.meas_reports
        );
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::scenario::{Scenario, ScenarioBuilder};
    use fiveg_ran::Carrier;
    use fiveg_telemetry::{Telemetry, TelemetryConfig};

    fn scenario(seed: u64) -> Scenario {
        ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, seed).duration_s(180.0).sample_hz(10.0).build()
    }

    #[test]
    fn telemetry_does_not_perturb_trace() {
        let off = scenario(21).run();
        let s = scenario(21);
        let tele = Telemetry::new(TelemetryConfig::on());
        let on = s.run_instrumented(&tele);
        assert_eq!(off.encode(), on.encode(), "instrumentation must not perturb the trace");
    }

    #[test]
    fn enabled_journal_is_deterministic() {
        let journal = || {
            let s = scenario(22);
            let tele = Telemetry::new(TelemetryConfig::on());
            s.run_instrumented(&tele);
            tele.journal_jsonl()
        };
        let a = journal();
        let b = journal();
        assert_eq!(a, b, "two runs must emit byte-identical journals");
        assert!(!a.is_empty());
        // sim-time ordered
        let mut last = f64::NEG_INFINITY;
        for line in a.lines() {
            let rest = line.strip_prefix("{\"t\":").expect("journal lines open with the \"t\" key");
            let t: f64 = rest[..rest.find(',').unwrap()].parse().unwrap();
            assert!(t >= last, "journal out of order at {line}");
            last = t;
        }
    }

    #[test]
    fn counters_match_trace_stats() {
        let s = scenario(23);
        let tele = Telemetry::new(TelemetryConfig::on());
        let tr = s.run_instrumented(&tele);
        assert_eq!(tele.counter_value("sim.ticks"), tr.samples.len() as u64);
        assert_eq!(tele.counter_value("sim.handovers"), tr.handovers.len() as u64);
        assert_eq!(tele.counter_value("sim.reports"), tr.reports.len() as u64);
        assert_eq!(tele.counter_value("sim.rlf"), tr.rlf_count);
        let per_type: u64 =
            fiveg_ran::HoType::ALL.iter().map(|h| tele.counter_value(&format!("ho.{}", h.acronym()))).sum();
        assert_eq!(per_type, tr.handovers.len() as u64);
        let dur = tele.histogram_snapshot("ho.duration_ms").unwrap();
        assert_eq!(dur.count, tr.handovers.len() as u64);
    }

    #[test]
    fn fault_injections_are_counted() {
        let mut s = scenario(24);
        s.faults = FaultConfig { mr_loss_prob: 0.5, ho_failure_prob: 0.5 };
        let tele = Telemetry::new(TelemetryConfig::on());
        let tr = s.run_instrumented(&tele);
        assert!(tele.counter_value("faults.mr_loss") > 0);
        assert_eq!(tele.counter_value("faults.ho_failure"), tr.ho_failures);
    }

    #[test]
    fn summary_reports_at_least_six_phases() {
        let s = scenario(25);
        let tele = Telemetry::new(TelemetryConfig::on());
        s.run_instrumented(&tele);
        let summary = tele.summary();
        for phase in ["mobility", "ho_state_machine", "channel", "measurement", "policy", "link", "trace_append"] {
            assert!(summary.contains(phase), "summary missing phase {phase}:\n{summary}");
        }
        assert!(summary.contains("p99"), "{summary}");
        assert!(summary.contains("sim.ticks"), "{summary}");
    }

    #[test]
    fn out_of_range_faults_behave_like_clamped() {
        let mut wild = scenario(26);
        wild.faults = FaultConfig { mr_loss_prob: 7.0, ho_failure_prob: -3.0 };
        let mut pinned = scenario(26);
        pinned.faults = FaultConfig { mr_loss_prob: 1.0, ho_failure_prob: 0.0 };
        let a = wild.run();
        let b = pinned.run();
        assert_eq!(a.signaling.meas_reports, b.signaling.meas_reports);
        assert_eq!(a.handovers, b.handovers);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::scenario::ScenarioBuilder;
    use fiveg_ran::Carrier;

    #[test]
    fn ho_failures_are_counted_and_rolled_back() {
        let faulty = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 8.0, 77)
            .duration_s(240.0)
            .sample_hz(10.0)
            .faults(FaultConfig { mr_loss_prob: 0.0, ho_failure_prob: 0.5 })
            .build()
            .run();
        assert!(faulty.ho_failures > 0, "with p=0.5 failures must occur");
        // failed HOs are not recorded as completed handovers
        let clean =
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 8.0, 77).duration_s(240.0).sample_hz(10.0).build().run();
        assert!(
            faulty.handovers.len() < clean.handovers.len() + faulty.ho_failures as usize,
            "completed + failed should roughly bound the clean count"
        );
        // the run still terminates with a usable connection most of the time
        let attached = faulty.samples.iter().filter(|s| s.lte_cell.is_some()).count();
        assert!(attached * 10 > faulty.samples.len() * 8);
    }

    #[test]
    fn total_mr_loss_freezes_mobility() {
        let t = ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 78)
            .duration_s(180.0)
            .sample_hz(10.0)
            .faults(FaultConfig { mr_loss_prob: 1.0, ho_failure_prob: 0.0 })
            .build()
            .run();
        // without any reports the network can never decide a HO
        assert!(t.handovers.is_empty(), "got {:?}", t.handovers.len());
        assert_eq!(t.signaling.meas_reports, 0);
    }

    // Fault injection at probability zero is indistinguishable — to the
    // byte — from no fault injection at all: the gated RNG draws
    // (`prob > 0.0 && chance(prob)`) must never fire, so the fault RNG
    // never perturbs anything. The same must hold for configs that only
    // *clamp* to zero (negative probabilities, NaN).
    #[test]
    fn zero_probability_faults_are_byte_identical_to_none() {
        let base = |faults: FaultConfig| {
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 79)
                .duration_s(180.0)
                .sample_hz(10.0)
                .faults(faults)
                .build()
                .run()
        };
        let none = base(FaultConfig::NONE);
        let zeros = base(FaultConfig { mr_loss_prob: 0.0, ho_failure_prob: 0.0 });
        let clamps_to_zero = base(FaultConfig { mr_loss_prob: -0.25, ho_failure_prob: f64::NAN });
        assert_eq!(none, zeros);
        assert_eq!(none, clamps_to_zero);
        let bytes = none.encode();
        assert_eq!(bytes, zeros.encode());
        assert_eq!(bytes, clamps_to_zero.encode());
        assert_eq!(none.ho_failures, 0);
    }
}

#[cfg(test)]
mod wakeup_tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use fiveg_ran::Carrier;

    fn sim_for<'d>(s: &Scenario, d: &'d Deployment, tele: &Telemetry, radio: &mut RadioSnapshot) -> UeSim<'d> {
        UeSim::new(s.clone(), d, tele, radio, None, false)
    }

    /// The single-UE core of the event-driven engine's equivalence gate: whenever the
    /// planner grants a window `w`, stepping through it with the full
    /// control plane (sampling off) must land on exactly the state
    /// `catch_up(w)` reaches analytically — same counters, same serving
    /// cells, same clock, same position. Any control-plane activity inside
    /// a granted window (an unsound bound) shifts a counter and fails the
    /// digest compare at the next sampled step.
    fn assert_windows_sound(s: &Scenario) -> (u64, u64) {
        let d = Deployment::generate(&s.route, s.carrier, s.env, s.arch, s.seed);
        let tele = Telemetry::disabled();
        let mut radio_a = RadioSnapshot::new();
        let mut radio_b = RadioSnapshot::new();
        let mut stepper = sim_for(s, &d, &tele, &mut radio_a);
        let mut skipper = sim_for(s, &d, &tele, &mut radio_b);
        let (mut plans, mut planned_ticks) = (0u64, 0u64);
        while stepper.active() {
            let w = stepper.plan_sleep(126);
            assert_eq!(w, skipper.plan_sleep(126), "the plan must be a pure function of UE state");
            if w > 0 {
                plans += 1;
                planned_ticks += w;
                // referee side: w unsampled steps, full control plane
                for _ in 0..w {
                    stepper.step_sampled(None, &CellLoadView::SOLO, &mut radio_a, false);
                }
                // event side: one analytic catch-up
                skipper.catch_up(w);
            }
            // both take the next real tick sampled
            stepper.step_sampled(None, &CellLoadView::SOLO, &mut radio_a, true);
            skipper.step_sampled(None, &CellLoadView::SOLO, &mut radio_b, true);
            assert_eq!(
                stepper.control_digest(),
                skipper.control_digest(),
                "stepped-through and skipped-over state diverged after a granted window"
            );
        }
        assert!(!skipper.active(), "both paths must finish together");
        (plans, planned_ticks)
    }

    #[test]
    fn granted_windows_are_inert_on_the_bench_scenario() {
        let s = ScenarioBuilder::city_loop(Carrier::OpY, 201).arch(Arch::Sa).duration_s(60.0).sample_hz(10.0).build();
        let (plans, planned) = assert_windows_sound(&s);
        assert!(plans > 0, "the committed bench scenario must actually sleep");
        assert!(planned >= plans * 4, "every rung is at least 4 ticks");
    }

    #[test]
    fn nsa_and_flows_never_plan() {
        // NSA carries a SINR-quantity B1 config: never eligible
        let nsa = ScenarioBuilder::city_loop(Carrier::OpY, 202).duration_s(30.0).sample_hz(10.0).build();
        let (plans, _) = assert_windows_sound(&nsa);
        assert_eq!(plans, 0, "NSA UEs must stay on the fixed step");
        // data-plane flows sample every tick: never eligible either
        let busy = ScenarioBuilder::city_loop(Carrier::OpY, 203)
            .arch(Arch::Sa)
            .duration_s(30.0)
            .sample_hz(10.0)
            .workload(Workload::Bulk(fiveg_link::Cca::Cubic))
            .build();
        let (plans, _) = assert_windows_sound(&busy);
        assert_eq!(plans, 0, "UEs with active flows must stay on the fixed step");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            /// Soundness over random seeds and both sleepable
            /// architectures: no granted window may hide control-plane
            /// activity, whatever the deployment draw.
            #[test]
            fn wakeup_bound_is_sound(seed in 0u64..500, sa in proptest::bool::ANY) {
                let arch = if sa { Arch::Sa } else { Arch::Lte };
                let s = ScenarioBuilder::city_loop(Carrier::OpY, seed)
                    .arch(arch)
                    .duration_s(40.0)
                    .sample_hz(5.0)
                    .build();
                assert_windows_sound(&s);
            }
        }
    }
}
