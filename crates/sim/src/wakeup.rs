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
//!   [`Cell::rx_dbm_cached`] + `compute_rrs` clamp the leg view applies,
//!   and every configured event's [`EventConfig::entered`] is evaluated
//!   verbatim against the candidate maximum. The grant is *exact*: one tick
//!   short of the first tick on which anything would fire.
//!
//! The only approximation left is the candidate set. Evaluating every
//! in-radius cell on every dry tick would cost more than the step it
//! replaces, so a screen first reduces the deployment to per-leg *hot
//! lists* with a cheap per-cell bound: median path loss at the closest
//! reachable distance plus the cell's shadowing supremum over the travel
//! box and the fading term's global bound. The shadowing supremum comes
//! from tiles of lattice corners whose maxima are hashed on first query and
//! memoized per worker (see [`SpatialNoise::sup_over_box`]), so a worker
//! only ever touches the lattice near its UEs' paths, and a tighter box can
//! only drop cells that could not fire. A screened-out cell provably cannot push
//! any configured entry margin nonpositive anywhere in the window — its
//! exclusion changes no [`EventConfig::entered`] verdict, because entry for
//! the neighbor-driven kinds is monotone in the neighbor level and decided
//! by the candidate maximum. The hot list is therefore a *superset* of the
//! cells that can matter, and the dry run over it returns the same refusal
//! tick the engine would produce. Candidate-list truncation in the engine's
//! leg view (per-band caps) can only shrink the engine's candidate set, so
//! the planner errs toward refusing earlier — never toward oversleeping.
//!
//! What keeps the dry run itself cheap is the fading term's structure: its
//! node gaussians are pure functions of time, shared by every UE a worker
//! plans in the same span, so a per-cell [`NodeCache`] makes exact fading
//! suprema nearly free. [`neighbor_pass`] runs each hot cell through a
//! screen cascade (whole-window, travel-box, per-tick) and pays for the
//! exact [`Cell::rx_dbm_memo`] replay only on the few ticks whose
//! optimistic bound could actually enter an event.
//!
//! Everything here reads shared immutable state (`Deployment`, hash-based
//! noise fields); the per-worker memos hold pure functions of that state,
//! so plans are identical at any thread/shard count, warm or cold.
//!
//! [`SpatialNoise::sup_over_box`]: fiveg_radio::SpatialNoise::sup_over_box
//! [`Cell::rx_dbm_cached`]: fiveg_ran::Cell::rx_dbm_cached
//! [`Cell::rx_dbm_memo`]: fiveg_ran::Cell::rx_dbm_memo
//! [`MobilityPeek`]: fiveg_ue::MobilityPeek
//! [`EventConfig::entered`]: fiveg_rrc::EventConfig::entered

use super::{UeSim, ANCHOR_MIN_FREQ_MHZ, RLF_DBM, SEARCH_RADIUS_M};
use fiveg_geo::Point;
use fiveg_radio::{ChannelCache, NodeCache, TileMemo, BOUND_EPS_DB};
use fiveg_ran::{Arch, CellId, Deployment};
use fiveg_rrc::{EventConfig, EventKind, MeasQuantity};

/// Reusable buffers for [`plan_sleep`]. The fleet keeps one per worker and
/// threads it through every resident UE's plan, so steady-state planning
/// allocates nothing. The channel caches memoize noise-lattice nodes per
/// cell; memoization is exact (`rx_dbm_cached` is bit-identical to
/// `rx_dbm`), so recycling them across UEs and shards changes no plan.
#[derive(Debug, Default)]
pub(crate) struct PlanScratch {
    /// Cells within the measurement radius of any reachable position.
    near: Vec<CellId>,
    /// One leg's screen survivors (reused leg by leg).
    hot: Vec<CellId>,
    /// Position after each future prologue, ticks `+1, +2, ..`.
    pos: Vec<Point>,
    /// Engine clock after each future prologue.
    t: Vec<f64>,
    /// LTE serving RSRP (engine-clamped) per future tick.
    s_lte: Vec<f64>,
    /// NR serving RSRP (engine-clamped) per future tick.
    s_nr: Vec<f64>,
    /// Per-cell noise-lattice memo, indexed by `CellId`.
    caches: Vec<ChannelCache>,
    /// Per-cell fading-node memo, indexed by `CellId`. Node gaussians are
    /// pure functions of time, so every UE the worker plans in the same
    /// span reuses them — the cache that makes exact per-tick fading
    /// bounds affordable.
    fad: Vec<NodeCache>,
    /// Per-cell shadowing tile suprema, indexed by `CellId`: built on a
    /// screen's first query of a tile, so a worker hashes only the lattice
    /// its UEs' travel boxes actually touch.
    tiles: Vec<TileMemo>,
}

impl PlanScratch {
    /// Shadowing tiles built so far, summed over cells — a machine-
    /// independent count of the screen's lattice work.
    pub(crate) fn tiles_built(&self) -> u64 {
        self.tiles.iter().map(|m| m.built() as u64).sum()
    }
}

/// Plans a sleep for `ue`: the number of consecutive future ticks that are
/// provably inert, `0` when the UE must step next tick. Capped at
/// `max_ticks` (the fleet caps by wheel horizon and remaining boundary
/// work). Pure: reads only UE + deployment state, so a plan is identical at
/// any thread/shard count regardless of which scratch is threaded in.
pub(crate) fn plan_sleep(ue: &UeSim<'_>, max_ticks: u64, scratch: &mut PlanScratch) -> u64 {
    if !eligible(ue) {
        return 0;
    }
    let PlanScratch { near, hot, pos, t, s_lte, s_nr, caches, fad, tiles } = scratch;
    // replay the mobility prologue: the horizon stops one tick short of the
    // first tick whose pre-step `active()` check would fail, so a sleep
    // never carries the UE across its route end or duration clamp
    let (horizon, travel) = mobility_pass(ue, max_ticks, pos, t);
    if horizon == 0 {
        return 0;
    }
    if caches.len() < ue.d.cells.len() {
        caches.resize(ue.d.cells.len(), ChannelCache::default());
        fad.resize_with(ue.d.cells.len(), NodeCache::default);
        tiles.resize_with(ue.d.cells.len(), TileMemo::default);
    }
    // exact serving series per leg: refuses RLF ticks and serving-only
    // (A1/A2) entries, and records the series the neighbor pass compares
    // against
    let arch = ue.s.arch;
    let mut vmin = horizon + 1; // first refused tick; horizon+1 = none
    if arch != Arch::Sa {
        let serving = ue.sm.serving_lte().expect("eligible() requires an attached LTE leg");
        vmin = vmin.min(serving_pass(ue, serving, ue.lte_engine.configs(), true, horizon, pos, t, s_lte, caches, fad));
    }
    if arch != Arch::Lte {
        let serving = ue.sm.serving_nr().expect("eligible() requires an attached NR leg");
        let rlf = arch == Arch::Sa; // the engine only fails/reattaches the NR leg under SA
        vmin = vmin.min(serving_pass(ue, serving, ue.nr_engine.configs(), rlf, horizon, pos, t, s_nr, caches, fad));
    }
    if vmin <= 1 {
        return 0;
    }
    let start = ue.mob.position();
    ue.d.cells_near_into(&start, SEARCH_RADIUS_M + travel, near);
    if arch != Arch::Sa {
        let serving = ue.sm.serving_lte().expect("eligible() requires an attached LTE leg");
        let cfgs = ue.lte_engine.configs();
        build_hot(ue.d, cfgs, serving, false, arch == Arch::Nsa, &start, travel, s_lte, near, tiles, hot, vmin);
        vmin = neighbor_pass(ue.d, cfgs, hot, serving, false, s_lte, &start, travel, pos, t, caches, fad, tiles, vmin);
        if vmin <= 1 {
            return 0;
        }
    }
    if arch != Arch::Lte {
        let serving = ue.sm.serving_nr().expect("eligible() requires an attached NR leg");
        let cfgs = ue.nr_engine.configs();
        build_hot(ue.d, cfgs, serving, true, false, &start, travel, s_nr, near, tiles, hot, vmin);
        vmin = neighbor_pass(ue.d, cfgs, hot, serving, true, s_nr, &start, travel, pos, t, caches, fad, tiles, vmin);
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

/// Replays the per-tick prologue for up to `max_ticks` future ticks:
/// `(pos, t)` after each prologue, in [`UeSim::catch_up`]'s exact
/// accumulation order. Returns `(horizon, travel)` — the longest grantable
/// window and the exact path distance covered over it. The fleet checks
/// [`UeSim::active`] *before* each tick but steps a woken UE without
/// re-checking, so a grant of `W` requires the UE to stay active through
/// its wake tick `W + 1`: the horizon ends *two* ticks short of a route
/// finish or duration clamp.
fn mobility_pass(ue: &UeSim<'_>, max_ticks: u64, pos: &mut Vec<Point>, t: &mut Vec<f64>) -> (u64, f64) {
    pos.clear();
    t.clear();
    let mut peek = ue.mob.peek();
    let mut clock = ue.t;
    for k in 1..=max_ticks + 1 {
        // `active()` as the fleet would check it before tick k: the state
        // after k-1 prologues
        if peek.finished() || clock >= ue.s.max_duration_s {
            return (k.saturating_sub(2).min(max_ticks), peek.travel());
        }
        if k > max_ticks {
            break;
        }
        clock += ue.dt;
        peek.step(ue.dt);
        pos.push(peek.position());
        t.push(clock);
    }
    (max_ticks, peek.travel())
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
    caches: &mut [ChannelCache],
    fad: &mut [NodeCache],
) -> u64 {
    let c = ue.d.cell(serving);
    let cache = &mut caches[serving.0 as usize];
    let nodes = &mut fad[serving.0 as usize];
    s.clear();
    for k in 1..=horizon {
        let i = (k - 1) as usize;
        // the same evaluation + clamp chain as the leg view: rx_dbm (memo
        // form is bit-identical), then compute_rrs's RSRP clamp
        let v = c.rx_dbm_memo(&pos[i], t[i], cache, nodes).clamp(-140.0, -44.0);
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

/// Screens `near` down to the cells whose channel could plausibly trigger a
/// neighbor-driven event anywhere in the window: per cell, one path-loss
/// evaluation against the shadowing supremum over the travel box (a few
/// lookups in the cell's lazily built tile memo, see
/// [`Propagation::shadow_sup_over_box`]) plus the fading term's global
/// bound, instead of a lattice scan. The margin test uses the *exact*
/// serving minimum over the window (from the serving pass), so the screen
/// is as tight as the supremum allows. Cells left out provably cannot
/// change any [`EventConfig::entered`] verdict in the window, so the dry
/// run prices only the survivors.
///
/// [`Propagation::shadow_sup_over_box`]: fiveg_radio::Propagation::shadow_sup_over_box
#[allow(clippy::too_many_arguments)]
fn build_hot(
    d: &Deployment,
    configs: &[EventConfig],
    serving: CellId,
    nr: bool,
    anchor_only: bool,
    start: &Point,
    travel: f64,
    s: &[f64],
    near: &[CellId],
    tiles: &mut [TileMemo],
    hot: &mut Vec<CellId>,
    vmin: u64,
) {
    hot.clear();
    let s_cell = d.cell(serving);
    let s_freq = s_cell.band.freq_mhz;
    let s_group = meas_group(d, serving, nr);
    let s_min = s[..(vmin - 1) as usize].iter().fold(f64::INFINITY, |a, &b| a.min(b));
    for &id in near {
        if id == serving {
            continue;
        }
        let c = d.cell(id);
        if c.is_nr() != nr {
            continue;
        }
        if anchor_only && c.band.freq_mhz < ANCHOR_MIN_FREQ_MHZ {
            continue;
        }
        // upper bound on the cell's RSRP anywhere in the window, clamped as
        // the measurement would be (the clamp is monotone, so it survives)
        let p = &c.propagation;
        let sup = p.shadow_sup_over_box(start, travel, &mut tiles[id.0 as usize]) + p.fading_bound();
        let screen = (p.median_received_dbm(c.site.distance(start) - travel) + sup).clamp(-140.0, -44.0);
        let a3_ok = (c.band.freq_mhz - s_freq).abs() < 1.0 && (s_group.is_none() || meas_group(d, id, nr) == s_group);
        if plausible(configs, a3_ok, s_min, screen) {
            hot.push(id);
        }
    }
}

/// One leg's exact neighbor dry run: for each hot cell, walk the window and
/// evaluate every relevant config's [`EventConfig::entered`] against the
/// cell's engine-clamped RSRP and the recorded serving series. Entry for
/// the neighbor-driven kinds is monotone in the neighbor level and decided
/// by the candidate maximum, so "some hot cell enters at tick k" is exactly
/// "the engine's best candidate enters at tick k" whenever that candidate
/// is hot — and it always is, because the screen only discards cells that
/// cannot enter. Returns the refused-tick minimum, which also shrinks the
/// remaining scan (no cell needs pricing past the earliest refusal found).
///
/// The fading term is what makes bounding hot cells cheap: its node
/// gaussians are pure functions of time, shared by every UE the worker
/// plans in the same span, so the per-cell [`NodeCache`] turns exact
/// fading suprema into array lookups. Each cell then runs a cascade —
///
/// 1. *window screen*: tile-memoized shadowing sup over the travel box +
///    exact fading sup over the window (a few lookups, amortized);
/// 2. *box screen*: exact shadowing extreme over the travel box (a lattice
///    corner scan, paid only by window-screen survivors);
/// 3. *tick screen + replay*: per tick, an optimistic level from the two
///    node gaussians the fading sample interpolates; only ticks whose
///    optimistic margin clears the slack pay for the exact
///    [`Cell::rx_dbm_memo`] + [`EventConfig::entered`] replay.
///
/// Every screen bounds the exact level from above (path loss is monotone
/// in distance, the travel box contains the path, pattern loss is
/// nonnegative, blockage only attenuates, a fading sample is a convex
/// blend of its nodes), so a skipped tick provably changes no verdict —
/// same monotone argument as [`build_hot`].
#[allow(clippy::too_many_arguments)]
fn neighbor_pass(
    d: &Deployment,
    configs: &[EventConfig],
    hot: &[CellId],
    serving: CellId,
    nr: bool,
    s: &[f64],
    start: &Point,
    travel: f64,
    pos: &[Point],
    t: &[f64],
    caches: &mut [ChannelCache],
    fad: &mut [NodeCache],
    tiles: &mut [TileMemo],
    mut vmin: u64,
) -> u64 {
    let s_cell = d.cell(serving);
    let s_freq = s_cell.band.freq_mhz;
    let s_group = meas_group(d, serving, nr);
    for &id in hot {
        let s_min = s[..(vmin - 1) as usize].iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let c = d.cell(id);
        let a3_ok = (c.band.freq_mhz - s_freq).abs() < 1.0 && (s_group.is_none() || meas_group(d, id, nr) == s_group);
        let p = &c.propagation;
        let nodes = &mut fad[id.0 as usize];
        let d_near = c.site.distance(start) - travel;
        let (pat_lo, _) = c.pattern_loss_bounds(start, travel);
        let fd_sup = p.fading_sup_over(t[0], t[(vmin - 2) as usize], nodes);
        // stage 1: window screen — tile-memoized shadowing sup over the
        // travel box + exact window fading sup
        let sh_sup = p.shadow_sup_over_box(start, travel, &mut tiles[id.0 as usize]);
        let up = (p.median_received_dbm(d_near) + sh_sup - pat_lo + fd_sup).clamp(-140.0, -44.0);
        if !plausible(configs, a3_ok, s_min, up) {
            continue;
        }
        // stage 2: exact shadowing extreme over the travel box
        let (_, sh_hi) = p.shadowing_range(start, travel);
        let base = p.median_received_dbm(d_near) + sh_hi - pat_lo;
        let up = (base + fd_sup).clamp(-140.0, -44.0);
        if !plausible(configs, a3_ok, s_min, up) {
            continue;
        }
        // stage 3: per-tick optimistic screen, exact replay on survivors
        let cache = &mut caches[id.0 as usize];
        'ticks: for k in 1..vmin {
            let i = (k - 1) as usize;
            let up_k = (base + p.fading_sup_at(t[i], nodes)).clamp(-140.0, -44.0);
            if !plausible(configs, a3_ok, s[i], up_k) {
                continue;
            }
            let val = c.rx_dbm_memo(&pos[i], t[i], cache, nodes).clamp(-140.0, -44.0);
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
