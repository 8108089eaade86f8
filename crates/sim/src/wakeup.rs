//! Exact sleep planning for the event-driven fleet scheduler.
//!
//! [`plan_sleep`] answers one question about a [`UeSim`]: *for how many
//! future ticks is its control plane provably inert?* A tick is inert when
//! stepping it would mutate nothing beyond the clock, the tick counter and
//! the mobility integral — no measurement event arms or fires, no RLF, no HO
//! progress, no policy timer, no RNG draw. A UE with `W` inert ticks ahead
//! can sleep: the fleet skips its steps and replays the prologue with
//! [`UeSim::catch_up`] on wakeup, byte-identically.
//!
//! The proof splits into:
//!
//! * **Eligibility** — discrete state that could act on *any* tick must be
//!   quiescent: HO state machine idle with an empty queue, policy without a
//!   pending NR-A2 window, every measurement arm `Idle`, all legs attached,
//!   no data-plane flows, no trace retention. Any pending HO or timer forces
//!   wakeup = next tick (a plan of 0).
//! * **Exact replay** — everything the engine would measure in the window
//!   is a pure function of `(position, t)`, and the mobility integral is a
//!   pure function of the driver state, so the planner *dry-runs* the
//!   future instead of bounding it. A [`MobilityPeek`] cursor replays the
//!   per-tick prologue bit-identically ([`UeSim::catch_up`]'s accumulation
//!   order), the serving RSRP series comes from the same
//!   [`Cell::rx_dbm`] + `compute_rrs` clamp the leg view applies,
//!   and every configured event's [`EventConfig::entered`] is evaluated
//!   verbatim against the candidate maximum. The grant is *exact*: one tick
//!   short of the first tick on which anything would fire.
//!
//! The only approximation left is the candidate set. Evaluating every
//! in-radius cell on every dry tick would cost more than the step it
//! replaces, so [`neighbor_pass`] runs each cell through one screen pass
//! before paying for exact values. Every screen is an upper bound on the
//! cell's level built from median path loss at the closest reachable
//! distance, the cell's shadowing supremum over the travel box and a
//! fading bound. The shadowing supremum comes from tiles of lattice corners
//! whose maxima are hashed on first query and memoized per worker (see
//! [`SpatialNoise::sup_over_box`]), so a worker only ever touches the
//! lattice near its UEs' paths. A screened-out cell or tick provably cannot
//! push any configured entry margin nonpositive — its exclusion changes no
//! [`EventConfig::entered`] verdict, because entry for the neighbor-driven
//! kinds is monotone in the neighbor level and decided by the candidate
//! maximum. The screens therefore only prune, and the dry run over the
//! survivors returns the same refusal tick the engine would produce.
//! Candidate-list truncation in the engine's leg view (per-band caps) can
//! only shrink the engine's candidate set, so the planner errs toward
//! refusing earlier — never toward oversleeping.
//!
//! What keeps the screens tight is the fading term's structure: its node
//! gaussians are pure functions of time, shared by every UE a worker plans
//! in the same span, so a per-cell [`NodeCache`] makes exact fading suprema
//! nearly free, over the whole window and per tick. Only ticks whose
//! optimistic bound could actually enter an event pay for the exact
//! [`Cell::rx_dbm_memo`] replay.
//!
//! Everything here reads shared immutable state (`Deployment`, hash-based
//! noise fields); the per-worker memos hold pure functions of that state,
//! so plans are identical at any thread/shard count, warm or cold.
//!
//! [`SpatialNoise::sup_over_box`]: fiveg_radio::SpatialNoise::sup_over_box
//! [`Cell::rx_dbm`]: fiveg_ran::Cell::rx_dbm
//! [`Cell::rx_dbm_memo`]: fiveg_ran::Cell::rx_dbm_memo
//! [`MobilityPeek`]: fiveg_ue::MobilityPeek
//! [`EventConfig::entered`]: fiveg_rrc::EventConfig::entered

use super::{UeSim, ANCHOR_MIN_FREQ_MHZ, RLF_DBM, SEARCH_RADIUS_M};
use fiveg_geo::Point;
use fiveg_radio::{ChannelCache, NodeCache, TileMemo, BOUND_EPS_DB};
use fiveg_ran::{Arch, Cell, CellId, Deployment};
use fiveg_rrc::{EventConfig, EventKind, MeasQuantity};

/// Longest sleep [`plan_sleep`] grants, in ticks: a bound on the dry run's
/// cost, not on soundness. A plan replays up to this many future ticks, so a
/// longer cap trades fewer re-plans for more work per plan that an early
/// load-wake throws away; a UE still inert at the cap re-plans on waking.
const MAX_SLEEP_TICKS: u64 = 126;

/// Reusable buffers for [`plan_sleep`]. The fleet keeps one per worker and
/// threads it through every resident UE's plan, so steady-state planning
/// allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Cells within the measurement radius of any reachable position.
    near: Vec<CellId>,
    /// Position after each future prologue, ticks `+1, +2, ..`.
    pos: Vec<Point>,
    /// Engine clock after each future prologue.
    t: Vec<f64>,
    /// LTE serving RSRP (engine-clamped) per future tick.
    s_lte: Vec<f64>,
    /// NR serving RSRP (engine-clamped) per future tick.
    s_nr: Vec<f64>,
    memo: CellMemos,
}

/// Per-cell channel memos, indexed by `CellId`, and the count of exact
/// evaluations made through them. Memoization is exact (`rx_dbm_memo` is
/// bit-identical to `rx_dbm`), so recycling the memos across UEs and shards
/// changes no plan.
#[derive(Debug, Default)]
struct CellMemos {
    /// Per-cell noise-lattice memo.
    caches: Vec<ChannelCache>,
    /// Per-cell fading-node memo. Node gaussians are pure functions of
    /// time, so every UE the worker plans in the same span reuses them —
    /// the cache that makes exact per-tick fading bounds affordable.
    fad: Vec<NodeCache>,
    /// Per-cell shadowing tile suprema: built on a screen's first query of
    /// a tile, so a worker hashes only the lattice its UEs' travel boxes
    /// actually touch.
    tiles: Vec<TileMemo>,
    /// Exact [`Cell::rx_dbm_memo`] evaluations so far: the serving series
    /// plus the neighbor replays.
    evals: u64,
}

impl PlanScratch {
    /// Shadowing tiles built so far, summed over cells — a machine-
    /// independent count of the screen's lattice work.
    pub(crate) fn tiles_built(&self) -> u64 {
        self.memo.tiles.iter().map(|m| m.built() as u64).sum()
    }

    /// Exact channel evaluations so far — a machine-independent count of
    /// the dry run's work. Each plan adds a pure function of UE state, so
    /// the total is the same however plans are spread over workers.
    pub(crate) fn evals(&self) -> u64 {
        self.memo.evals
    }
}

/// Plans a sleep for `ue`: the number of consecutive future ticks that are
/// provably inert, `0` when the UE must step next tick. Capped at
/// [`MAX_SLEEP_TICKS`]. Pure: reads only UE + deployment state, so a plan is
/// identical at any thread/shard count regardless of which scratch is
/// threaded in.
pub(crate) fn plan_sleep(ue: &UeSim<'_>, scratch: &mut PlanScratch) -> u64 {
    if !eligible(ue) {
        return 0;
    }
    let PlanScratch { near, pos, t, s_lte, s_nr, memo } = scratch;
    // replay the mobility prologue: the horizon stops one tick short of the
    // first tick whose pre-step `active()` check would fail, so a sleep
    // never carries the UE across its route end or duration clamp
    let (horizon, travel) = mobility_pass(ue, pos, t);
    if horizon == 0 {
        return 0;
    }
    if memo.caches.len() < ue.d.cells.len() {
        memo.caches.resize(ue.d.cells.len(), ChannelCache::default());
        memo.fad.resize_with(ue.d.cells.len(), NodeCache::default);
        memo.tiles.resize_with(ue.d.cells.len(), TileMemo::default);
    }
    // exact serving series per leg: refuses RLF ticks and serving-only
    // (A1/A2) entries, and records the series the neighbor pass compares
    // against
    let arch = ue.s.arch;
    let mut vmin = horizon + 1; // first refused tick; horizon+1 = none
    if arch != Arch::Sa {
        let serving = ue.sm.serving_lte().expect("eligible() requires an attached LTE leg");
        vmin = vmin.min(serving_pass(ue, serving, ue.lte_engine.configs(), true, horizon, pos, t, s_lte, memo));
    }
    if arch != Arch::Lte {
        let serving = ue.sm.serving_nr().expect("eligible() requires an attached NR leg");
        let rlf = arch == Arch::Sa; // the engine only fails/reattaches the NR leg under SA
        vmin = vmin.min(serving_pass(ue, serving, ue.nr_engine.configs(), rlf, horizon, pos, t, s_nr, memo));
    }
    if vmin <= 1 {
        return 0;
    }
    let start = ue.mob.position();
    ue.d.cells_near_into(&start, SEARCH_RADIUS_M + travel, near);
    if arch != Arch::Sa {
        let serving = ue.sm.serving_lte().expect("eligible() requires an attached LTE leg");
        let (cfgs, anchor_only) = (ue.lte_engine.configs(), arch == Arch::Nsa);
        vmin = neighbor_pass(ue.d, cfgs, near, serving, false, anchor_only, s_lte, &start, travel, pos, t, memo, vmin);
        if vmin <= 1 {
            return 0;
        }
    }
    if arch != Arch::Lte {
        let serving = ue.sm.serving_nr().expect("eligible() requires an attached NR leg");
        let cfgs = ue.nr_engine.configs();
        vmin = neighbor_pass(ue.d, cfgs, near, serving, true, false, s_nr, &start, travel, pos, t, memo, vmin);
    }
    vmin - 1
}

/// Discrete-state quiescence: everything that could act on an arbitrary
/// tick regardless of radio levels.
fn eligible(ue: &UeSim<'_>) -> bool {
    // trace retention and data-plane flows sample every tick by design
    if ue.record_samples || ue.bulk.is_some() || ue.cbr.is_some() {
        return false;
    }
    // pending or queued HO work, or an open SCG-change window, forces
    // wakeup = next tick
    if ue.sm.busy() || !ue.policy.is_quiescent() {
        return false;
    }
    // a running TTT clock or an un-left fired event must keep stepping
    if !ue.lte_engine.all_idle() || !ue.nr_engine.all_idle() {
        return false;
    }
    // the dry run replays RSRP-quantity triggers exactly; SINR/RSRQ depend
    // on the whole interferer set, which the planner does not model, so any
    // such trigger keeps the UE on the fixed step
    let rsrp_only = |cfgs: &[EventConfig]| {
        cfgs.iter().all(|c| c.quantity == MeasQuantity::Rsrp || c.event.kind == EventKind::Periodic)
    };
    if !rsrp_only(ue.lte_engine.configs()) || !rsrp_only(ue.nr_engine.configs()) {
        return false;
    }
    // every present leg must be attached: an unattached leg re-attaches (or
    // B1-discovers) as soon as a candidate clears the floor, on any tick
    let arch = ue.s.arch;
    if arch != Arch::Sa && ue.sm.serving_lte().is_none() {
        return false;
    }
    if arch != Arch::Lte && ue.sm.serving_nr().is_none() {
        return false;
    }
    true
}

/// Replays the per-tick prologue for up to [`MAX_SLEEP_TICKS`] future ticks:
/// `(pos, t)` after each prologue, in [`UeSim::catch_up`]'s exact
/// accumulation order. Returns `(horizon, travel)` — the longest grantable
/// window and the exact path distance covered over it. The fleet checks
/// [`UeSim::active`] *before* each tick but steps a woken UE without
/// re-checking, so a grant of `W` requires the UE to stay active through
/// its wake tick `W + 1`: the horizon ends *two* ticks short of a route
/// finish or duration clamp.
fn mobility_pass(ue: &UeSim<'_>, pos: &mut Vec<Point>, t: &mut Vec<f64>) -> (u64, f64) {
    pos.clear();
    t.clear();
    let mut peek = ue.mob.peek();
    let mut clock = ue.t;
    for k in 1..=MAX_SLEEP_TICKS + 1 {
        // `active()` as the fleet would check it before tick k: the state
        // after k-1 prologues
        if peek.finished() || clock >= ue.s.max_duration_s {
            return (k.saturating_sub(2).min(MAX_SLEEP_TICKS), peek.travel());
        }
        if k > MAX_SLEEP_TICKS {
            break;
        }
        clock += ue.dt;
        peek.step(ue.dt);
        pos.push(peek.position());
        t.push(clock);
    }
    (MAX_SLEEP_TICKS, peek.travel())
}

/// One leg's exact serving series: computes the engine-clamped serving RSRP
/// for every future tick into `s`, returning the first tick the leg refuses
/// — an RLF (`rlf` legs only; the engine has no NR failure path under NSA)
/// or a serving-only A1/A2 entry — or `horizon + 1` when the serving side
/// is inert throughout. The neighbor-driven kinds read `s` later; their
/// empty-candidate substitute (−140 dBm) can never enter them, so they need
/// no check here.
#[allow(clippy::too_many_arguments)]
fn serving_pass(
    ue: &UeSim<'_>,
    serving: CellId,
    configs: &[EventConfig],
    rlf: bool,
    horizon: u64,
    pos: &[Point],
    t: &[f64],
    s: &mut Vec<f64>,
    memo: &mut CellMemos,
) -> u64 {
    let c = ue.d.cell(serving);
    let cache = &mut memo.caches[serving.0 as usize];
    let nodes = &mut memo.fad[serving.0 as usize];
    s.clear();
    for k in 1..=horizon {
        let i = (k - 1) as usize;
        // the same evaluation + clamp chain as the leg view: rx_dbm (memo
        // form is bit-identical), then compute_rrs's RSRP clamp
        let v = c.rx_dbm_memo(&pos[i], t[i], cache, nodes).clamp(-140.0, -44.0);
        memo.evals += 1;
        s.push(v);
        if rlf && v < RLF_DBM {
            return k;
        }
        for cfg in configs {
            if matches!(cfg.event.kind, EventKind::A1 | EventKind::A2) && cfg.entered(v, -140.0) {
                return k;
            }
        }
    }
    horizon + 1
}

/// One leg's neighbor dry run: for each cell of `near` the leg measures,
/// walk the window and evaluate every relevant config's
/// [`EventConfig::entered`] against the cell's engine-clamped RSRP and the
/// recorded serving series. Entry for the neighbor-driven kinds is
/// monotone in the neighbor level and decided by the candidate maximum, so
/// "some cell enters at tick k" is exactly "the engine's best candidate
/// enters at tick k" whenever that candidate is priced — and it always is,
/// because the screens only discard cells and ticks that cannot enter.
/// Returns the refused-tick minimum, which also shrinks the remaining scan
/// (no cell needs pricing past the earliest refusal found).
///
/// Each cell makes one pass through three screens, each an upper bound on
/// the cell's level from the same base — median path loss at the closest
/// reachable distance, plus the shadowing supremum over the travel box
/// (a few lookups in the cell's lazily built tile memo, see
/// [`Propagation::shadow_sup_over_box`]), minus the pattern-loss floor
/// over the box:
///
/// 1. *cheap screen*: the base (without pattern loss) plus the fading
///    term's global bound, against the exact serving minimum over the
///    window;
/// 2. *window screen*: the base plus the exact fading supremum over the
///    window (a few lookups in the cell's [`NodeCache`], amortized);
/// 3. *tick screen + replay*: per tick, the base plus the fading bound
///    from the two node gaussians the sample interpolates; only ticks
///    whose optimistic margin clears the slack pay for the exact
///    [`Cell::rx_dbm_memo`] + [`EventConfig::entered`] replay.
///
/// Every screen bounds the exact level from above (path loss is monotone
/// in distance, the travel box contains the path, pattern loss is at least
/// its floor, blockage only attenuates, a fading sample is a convex blend
/// of its nodes, and the measurement clamp is monotone), so a skipped cell
/// or tick provably changes no verdict.
///
/// [`Propagation::shadow_sup_over_box`]: fiveg_radio::Propagation::shadow_sup_over_box
#[allow(clippy::too_many_arguments)]
fn neighbor_pass(
    d: &Deployment,
    configs: &[EventConfig],
    near: &[CellId],
    serving: CellId,
    nr: bool,
    anchor_only: bool,
    s: &[f64],
    start: &Point,
    travel: f64,
    pos: &[Point],
    t: &[f64],
    memo: &mut CellMemos,
    mut vmin: u64,
) -> u64 {
    let s_freq = d.cell(serving).band.freq_mhz;
    let s_group = meas_group(d, serving, nr);
    for &id in near {
        let c = d.cell(id);
        if id == serving || c.is_nr() != nr || (anchor_only && c.band.freq_mhz < ANCHOR_MIN_FREQ_MHZ) {
            continue;
        }
        let s_min = s[..(vmin - 1) as usize].iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let a3_ok = (c.band.freq_mhz - s_freq).abs() < 1.0 && (s_group.is_none() || meas_group(d, id, nr) == s_group);
        let p = &c.propagation;
        // stage 1: cheap screen — the base + the fading term's global bound
        let (median, sh_sup) = screen_base(c, start, travel, &mut memo.tiles[id.0 as usize]);
        let up = (median + (sh_sup + p.fading_bound())).clamp(-140.0, -44.0);
        if !plausible(configs, a3_ok, s_min, up) {
            continue;
        }
        // stage 2: window screen — exact fading sup over the window
        let nodes = &mut memo.fad[id.0 as usize];
        let base = median + sh_sup - c.pattern_loss_floor(start, travel);
        let up = (base + p.fading_sup_over(t[0], t[(vmin - 2) as usize], nodes)).clamp(-140.0, -44.0);
        if !plausible(configs, a3_ok, s_min, up) {
            continue;
        }
        // stage 3: per-tick optimistic screen, exact replay on survivors
        let cache = &mut memo.caches[id.0 as usize];
        'ticks: for k in 1..vmin {
            let i = (k - 1) as usize;
            let up_k = (base + p.fading_sup_at(t[i], nodes)).clamp(-140.0, -44.0);
            if !plausible(configs, a3_ok, s[i], up_k) {
                continue;
            }
            let val = c.rx_dbm_memo(&pos[i], t[i], cache, nodes).clamp(-140.0, -44.0);
            memo.evals += 1;
            for cfg in configs {
                let relevant = match cfg.event.kind {
                    EventKind::A3 => a3_ok,
                    EventKind::A4 | EventKind::A5 | EventKind::B1 => true,
                    _ => false,
                };
                if relevant && cfg.entered(s[i], val) {
                    vmin = k;
                    break 'ticks;
                }
            }
        }
        if vmin <= 1 {
            return vmin;
        }
    }
    vmin
}

/// The screens' base for cell `c` over every position within `travel` of
/// `start`: the median received power at the closest reachable distance
/// and the shadowing supremum over the travel box, from the cell's tile
/// memo `tiles`. Their sum bounds [`Cell::rx_dbm`] minus its fading term
/// anywhere a path of length `travel` from `start` can reach.
///
/// [`Cell::rx_dbm`]: fiveg_ran::Cell::rx_dbm
fn screen_base(c: &Cell, start: &Point, travel: f64, tiles: &mut TileMemo) -> (f64, f64) {
    let p = &c.propagation;
    (p.median_received_dbm(c.site.distance(start) - travel), p.shadow_sup_over_box(start, travel, tiles))
}

/// True when some configured neighbor-driven event could enter given the
/// serving floor `s` and a neighbor level of at most `up`.
fn plausible(configs: &[EventConfig], a3_ok: bool, s: f64, up: f64) -> bool {
    configs.iter().any(|cfg| {
        let relevant = match cfg.event.kind {
            EventKind::A3 => a3_ok,
            EventKind::A4 | EventKind::A5 | EventKind::B1 => true,
            _ => false,
        };
        relevant && cfg.entry_margin_db(s, up) <= BOUND_EPS_DB
    })
}

/// The measurement group the leg view attaches to a cell: NR cells under
/// NSA group by gNB (tower) for the intra-gNB A3 filter; SA and LTE measure
/// across sites. Mirrors the leg view's `group_of` exactly.
fn meas_group(d: &Deployment, id: CellId, nr: bool) -> Option<u32> {
    if nr && d.arch == Arch::Nsa {
        Some(d.cell(id).tower.0)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::CellLoadView;
    use crate::scenario::{Scenario, ScenarioBuilder};
    use fiveg_radio::{BandClass, Propagation};
    use fiveg_ran::{Carrier, RadioSnapshot};
    use fiveg_telemetry::Telemetry;

    /// [`plan_sleep`] with every screen removed: each filtered `near` cell
    /// is priced with plain [`Cell::rx_dbm`] at every tick before the
    /// serving refusal. Returns the plan and whether a neighbor decided it.
    ///
    /// [`Cell::rx_dbm`]: fiveg_ran::Cell::rx_dbm
    fn plan_exhaustive(ue: &UeSim<'_>) -> (u64, bool) {
        if !eligible(ue) {
            return (0, false);
        }
        let (mut pos, mut t, mut near) = (Vec::new(), Vec::new(), Vec::new());
        let (horizon, travel) = mobility_pass(ue, &mut pos, &mut t);
        let arch = ue.s.arch;
        // (serving, configs, nr, rlf, anchor_only) per present leg
        let mut legs = Vec::new();
        if arch != Arch::Sa {
            legs.push((ue.sm.serving_lte().unwrap(), ue.lte_engine.configs(), false, true, arch == Arch::Nsa));
        }
        if arch != Arch::Lte {
            legs.push((ue.sm.serving_nr().unwrap(), ue.nr_engine.configs(), true, arch == Arch::Sa, false));
        }
        let level =
            |id: CellId, k: u64| ue.d.cell(id).rx_dbm(&pos[k as usize - 1], t[k as usize - 1]).clamp(-140.0, -44.0);
        let mut vmin = horizon + 1;
        for &(serving, configs, _, rlf, _) in &legs {
            let refused = |v: f64| {
                (rlf && v < RLF_DBM)
                    || configs
                        .iter()
                        .any(|c| matches!(c.event.kind, EventKind::A1 | EventKind::A2) && c.entered(v, -140.0))
            };
            if let Some(k) = (1..=horizon).find(|&k| refused(level(serving, k))) {
                vmin = vmin.min(k);
            }
        }
        let serving_vmin = vmin;
        ue.d.cells_near_into(&ue.mob.position(), SEARCH_RADIUS_M + travel, &mut near);
        for &(serving, configs, nr, _, anchor_only) in &legs {
            let s_cell = ue.d.cell(serving);
            for &id in &near {
                let c = ue.d.cell(id);
                if id == serving || c.is_nr() != nr || (anchor_only && c.band.freq_mhz < ANCHOR_MIN_FREQ_MHZ) {
                    continue;
                }
                let a3_ok = (c.band.freq_mhz - s_cell.band.freq_mhz).abs() < 1.0
                    && meas_group(ue.d, id, nr) == meas_group(ue.d, serving, nr);
                let enters = |k: u64| {
                    let (s, v) = (level(serving, k), level(id, k));
                    configs.iter().any(|cfg| {
                        let relevant = match cfg.event.kind {
                            EventKind::A3 => a3_ok,
                            EventKind::A4 | EventKind::A5 | EventKind::B1 => true,
                            _ => false,
                        };
                        relevant && cfg.entered(s, v)
                    })
                };
                if let Some(k) = (1..serving_vmin).find(|&k| enters(k)) {
                    vmin = vmin.min(k);
                }
            }
        }
        (vmin.saturating_sub(1), vmin < serving_vmin)
    }

    /// Steps `s` and compares the planner with the exhaustive one at every
    /// `stride`-th eligible tick. A `flat` run first sets every cell's
    /// shadowing to zero: the tile supremum then adds no slack, so a screen
    /// that drops a fading, travel or pattern term can no longer hide behind
    /// it. Returns (plans compared, nonzero plans, plans a neighbor decided).
    fn compare_along(s: &Scenario, stride: usize, flat: bool) -> (u32, u32, u32) {
        let mut d = Deployment::generate(&s.route, s.carrier, s.env, s.arch, s.seed);
        if flat {
            for c in &mut d.cells {
                let tx = match c.band.class() {
                    BandClass::MmWave => 58.0,
                    BandClass::Mid => 47.0,
                    BandClass::Low => 46.0,
                };
                c.propagation = Propagation::with_shadowing(u64::from(c.id.0) + 1, c.band, tx, 1.0, 0.0);
            }
        }
        let tele = Telemetry::disabled();
        let mut radio = RadioSnapshot::new();
        let mut ue = UeSim::new(s.clone(), &d, &tele, &mut radio, None, false);
        let mut scratch = PlanScratch::default();
        let (mut compared, mut nonzero, mut by_neighbor, mut seen) = (0, 0, 0, 0);
        while ue.active() {
            if eligible(&ue) {
                if seen % stride == 0 {
                    let (want, neighbor) = plan_exhaustive(&ue);
                    assert_eq!(plan_sleep(&ue, &mut scratch), want, "screened plan diverged at t={}", ue.t);
                    compared += 1;
                    nonzero += (want > 0) as u32;
                    by_neighbor += neighbor as u32;
                }
                seen += 1;
            }
            ue.step(None, &CellLoadView::SOLO, &mut radio, true);
        }
        (compared, nonzero, by_neighbor)
    }

    #[test]
    fn screen_base_covers_paths_that_leave_the_start_tile() {
        // Paths of one to three shadowing-tile widths head straight for the
        // site, so the median term has no slack at their far end and only
        // the travel box's shadowing supremum covers the tiles the path
        // enters. A base taken over the start point alone fails here.
        use fiveg_radio::band::catalog::{N260, N71};
        use fiveg_radio::noise::TILE_CORNERS;
        use fiveg_radio::{DetRng, Propagation};
        use fiveg_ran::TowerId;
        use fiveg_rrc::Pci;
        let mut rng = DetRng::new(0x7B0C_5EED);
        // (band, tx dBm, default shadowing correlation length in m)
        for (band, tx, corr_m) in [(N71, 46.0, 50.0), (N260, 58.0, 20.0)] {
            let tile_m = TILE_CORNERS as f64 * corr_m;
            for seed in 1..=8u64 {
                let c = Cell {
                    id: CellId(0),
                    pci: Pci(1),
                    band,
                    band_ix: 0,
                    tower: TowerId(0),
                    site: Point::ORIGIN,
                    azimuth: None,
                    propagation: Propagation::new(seed, band, tx),
                    noise_mw: fiveg_radio::rrs::dbm_to_mw(Cell::noise_floor_dbm(band)),
                };
                let p = c.propagation;
                let mut tiles = TileMemo::default();
                for _ in 0..60 {
                    let travel = tile_m * rng.range(1.0, 3.0);
                    let bearing = rng.range(0.0, std::f64::consts::TAU);
                    let start = c.site.displaced(bearing, travel + rng.range(20.0, 1500.0));
                    let (median, sh_sup) = screen_base(&c, &start, travel, &mut tiles);
                    for i in 0..=64 {
                        let q = start.lerp(&c.site, travel * i as f64 / 64.0 / c.site.distance(&start));
                        let t = rng.range(0.0, 100.0);
                        let level = c.rx_dbm(&q, t) - p.fading_db(t);
                        assert!(
                            level <= median + sh_sup + BOUND_EPS_DB,
                            "{band:?} seed {seed}: {level} above base {} at {i}/64 of a {travel:.0} m path",
                            median + sh_sup
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn screens_only_prune() {
        // (run, stride, flat): the city deployments put ~10x more cells in
        // range, so they are sampled more sparsely to keep the exhaustive
        // side cheap. The flat SA freeway is compared at every eligible
        // tick: near t = 36.5 s an entry there is found only through the
        // window's fading supremum.
        let runs = [
            (ScenarioBuilder::city_loop(Carrier::OpY, 211).arch(Arch::Sa), 20, false),
            (ScenarioBuilder::city_loop(Carrier::OpY, 212).arch(Arch::Lte), 20, false),
            (ScenarioBuilder::freeway(Carrier::OpX, Arch::Sa, 6.0, 213), 7, false),
            (ScenarioBuilder::freeway(Carrier::OpX, Arch::Lte, 6.0, 214), 7, false),
            (ScenarioBuilder::freeway(Carrier::OpX, Arch::Sa, 6.0, 211), 1, true),
            (ScenarioBuilder::freeway(Carrier::OpX, Arch::Lte, 6.0, 214), 7, true),
        ];
        for (b, stride, flat) in runs {
            let s = b.duration_s(60.0).sample_hz(10.0).build();
            let (compared, nonzero, by_neighbor) = compare_along(&s, stride, flat);
            let what = format!("{:?} {:?} (flat {flat})", s.env, s.arch);
            assert!(compared >= 20 && nonzero > 0, "{what}: {compared} plans compared, {nonzero} nonzero");
            assert!(by_neighbor > 0, "{what}: no plan was decided by a neighbor, so no screen was exercised");
        }
    }
}
