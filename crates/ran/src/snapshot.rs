//! Per-tick radio snapshot: the strongest cells of every band at one
//! `(pos, t)`, found by an exact bound-and-cull screen into a reusable
//! scratch arena.
//!
//! The UE measures each configured carrier separately, so every consumer of
//! the table — the leg views, initial attach and RLF recovery — reads at
//! most the [`RadioSnapshot::PER_BAND`] strongest cells of each band. The
//! snapshot therefore keeps exactly those and prices every other in-radius
//! cell only when a bound says it could still rank:
//!
//! 1. **Screen.** Each wanted cell's position-only prefix
//!    `(tx − PL(d)) + shadowing` is bounded from above by adding a ceiling on
//!    the fading term at any time: `ub0 = prefix + (fading_bound + ε)`. Each
//!    band is seeded by pricing its highest-`ub0` cells first, so its
//!    cut-off rises early.
//! 2. **Per-tick ceiling.** Once a band's top list is full, a cell whose
//!    `ub0` still reaches its `K`-th exact rx pays four hashes for a ceiling
//!    on the fading term at `t` alone:
//!    `ub_t = prefix + (σ·CEIL[lz] + ε)` (see
//!    [`Propagation::fading_ceiling_located`]).
//! 3. **Tier 1.** A cell whose `ub_t` still reaches the cut-off pays for the
//!    position-only losses: `ub1 = (ub_t − blockage) − pattern`.
//! 4. **Price.** Only if `ub1` reaches the cut-off too is the fading term
//!    drawn: `rx = ((prefix + fading) − blockage) − pattern`, the operation
//!    order of [`Cell::rx_dbm`], so the value is bit-identical.
//!
//! Soundness: IEEE rounding is monotone and blockage and pattern loss are
//! nonnegative, so `rx ≤ ub1 ≤ ub_t ≤ ub0` as computed, with no slack beyond
//! the `ε` that covers the rounding of the fading blend. The per-tick
//! ceiling holds because a node whose `u1` hash has `lz` leading zeros has
//! `u1 ≥ 2^-(lz+1)`, so its Box–Muller radius is at most
//! `sqrt(2 (lz+1) ln 2)` (and never above the global bound) while `|cos| ≤ 1`;
//! the sample blends two such nodes. A cell is culled only when a bound is
//! strictly below the band's `K`-th exact rx, so it could never have entered
//! that band's top `K`; ties are priced and ordered by [`rx_total_order`]
//! (rx descending, then [`CellId`] ascending), the order
//! [`Deployment::strongest`] produces. Every cell is thus priced at most
//! once per refresh, and the per-band lists equal the per-band top `K` of
//! [`Deployment::strongest`] bit for bit.
//!
//! Work a refresh shares across cells is done once per refresh, in the
//! operations the per-cell form would use, so every value is the same:
//!
//! - **Towers.** Co-sited cells (the sectors and bands of one tower) share
//!   the UE's geometry. The first wanted cell of a tower the grid scan
//!   meets locates the tower: one `hypot` for the radius test (every
//!   [`Cell::site`] is a copy of its tower's position) and, in radius, one
//!   `log10` for the distance term fed to
//!   [`Propagation::prefix_dbm_located`]. The bearing (one `atan2`) is
//!   computed only when a sector of the tower reaches tier 1, and feeds
//!   [`Cell::pattern_loss_toward`].
//! - **Noise lattices.** Cells on the same noise lattice share the UE's
//!   lattice cell and blend weights, so each refresh locates the UE once
//!   per distinct lattice spacing ([`LatticePoint`]) and each cell pays
//!   only its corner-memo key compare and blend.
//! - **Fading clocks.** Cells with the same fading correlation time share
//!   the node index and smoothstep weight of `t`, so each refresh locates
//!   `t` once per distinct correlation time ([`NodePoint`]); the per-tick
//!   ceiling and the exact fading draw both read that location.
//!
//! The buffers persist across ticks, so the steady-state tick allocates
//! nothing here. Everything but the per-cell noise-lattice caches (see
//! [`fiveg_radio::ChannelCache`]) is refresh scratch, recomputed from
//! `(pos, t)`; the caches are the receiver's own memo, a [`ChannelMemo`]
//! that [`RadioSnapshot::swap_memo`] trades in O(1), so many receivers can
//! share one snapshot's scratch while each keeps the lattice cells it
//! stands in (the fleet engine swaps each UE's memo in around its step).
//!
//! [`Cell::rx_dbm`]: crate::Cell::rx_dbm
//! [`Cell::site`]: crate::Cell::site
//! [`Cell::pattern_loss_toward`]: crate::Cell::pattern_loss_toward

use crate::cell::{Cell, CellId, TowerId};
use crate::deploy::{rx_total_order, Deployment};
use fiveg_geo::Point;
use fiveg_radio::{ChannelCache, LatticePoint, NodePoint, Propagation, BOUND_EPS_DB};
use fiveg_rrc::Pci;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Reusable per-tick table of the strongest cells of each band.
///
/// Usage per tick: call [`RadioSnapshot::refresh`] once with the UE position
/// and time, then read [`RadioSnapshot::strongest`] from as many consumers as
/// needed. All buffers are retained across calls.
///
/// A snapshot binds to the [`Deployment`] of its first refresh: its per-cell
/// tables and its [`ChannelMemo`] are indexed by cell, so one snapshot (and
/// every memo swapped into it) must stay with one deployment for its whole
/// life; create a fresh snapshot per simulation run.
#[derive(Debug, Clone, Default)]
pub struct RadioSnapshot {
    /// The wanted in-radius cells of this refresh with their screen bounds.
    screened: Vec<Screened>,
    /// The receiver's noise-lattice memos; the one part of the snapshot
    /// that is not recomputed from `(pos, t)`.
    memo: ChannelMemo,
    /// The deployment's NR cells: the length of `memo`'s NR block, which
    /// the LTE block follows.
    nr_cells: usize,
    /// Per-cell indices into `lattices`, `clocks` and `memo`, indexed by
    /// `CellId`.
    slots: Vec<CellSlots>,
    /// The deployment's distinct noise-lattice spacings, each located at
    /// the current refresh's position.
    lattices: Vec<LatticePoint>,
    /// The deployment's distinct fading correlation times, each located at
    /// the current refresh's time.
    clocks: Vec<NodePoint>,
    /// Per-tower geometry of the current refresh, indexed by `TowerId`.
    sites: Vec<Site>,
    /// Refresh counter that dates the `sites` entries.
    epoch: u64,
    /// The position of the current refresh.
    pos: Point,
    /// Towers the current refresh located.
    located: usize,
    /// Per-band seeds and exact top lists, indexed by [`Cell::band_ix`].
    bands: Vec<BandTop>,
    /// Cells this refresh paid tier 1 (blockage and pattern loss) for.
    tier1: usize,
    /// Cells whose fading term this refresh drew.
    priced: usize,
    /// Shadowing corner gaussians this refresh hashed into `memo`.
    corner_hashes: usize,
    /// The LTE then the NR per-band top lists, each leg merged in
    /// [`rx_total_order`].
    legs: Vec<(CellId, f64)>,
    /// Where the NR leg starts in `legs`.
    n_lte: usize,
}

/// A cell's indices into the snapshot's per-lattice and per-clock tables
/// and into a [`ChannelMemo`].
#[derive(Debug, Clone, Copy)]
struct CellSlots {
    shadowing: u8,
    blockage: u8,
    fading: u8,
    /// The cell's index into a memo: its index among the NR cells, or the
    /// NR cell count plus its index among the LTE cells.
    memo: u32,
}

/// One receiver's per-cell noise-lattice memos ([`ChannelCache`]): a block
/// of the deployment's NR cells, then one of its LTE cells, indexed so that
/// every receiver reads a cell's memo at the same offset. A memo grows on
/// first use, in one allocation: to the NR block on a refresh that wants NR
/// only, to both blocks on one that wants LTE. An SA receiver thus holds
/// memos for the NR cells only (an LTE-only deployment has no NR cells).
///
/// Swapped into a [`RadioSnapshot`] with [`RadioSnapshot::swap_memo`]. Any
/// memo of the snapshot's deployment is exact — a cold one (the default) or
/// one another receiver warmed: a memo keys each cell's corners by lattice
/// cell, so it only changes how many corner gaussians a refresh hashes.
#[derive(Debug, Clone, Default)]
pub struct ChannelMemo {
    caches: Vec<ChannelCache>,
}

impl ChannelMemo {
    /// Grows the memo to `len` cells with cold entries, in one allocation.
    fn fit(&mut self, len: usize) {
        if self.caches.len() < len {
            self.caches.reserve_exact(len - self.caches.len());
            self.caches.resize(len, ChannelCache::default());
        }
    }

    /// The memo of the cell `s` indexes.
    fn cache(&mut self, s: CellSlots) -> &mut ChannelCache {
        &mut self.caches[s.memo as usize]
    }
}

/// One tower's geometry toward the UE, filled lazily per refresh. An entry
/// is valid while its `epoch` equals the snapshot's.
#[derive(Debug, Clone, Copy, Default)]
struct Site {
    epoch: u64,
    /// `pos.distance(ue)`, meters.
    dist: f64,
    /// [`Propagation::log_distance_m`] of `dist`; set when `dist` is in radius.
    log_d: f64,
    /// `pos.bearing(ue)`; NaN until a sector of the tower reaches tier 1.
    bearing: f64,
}

/// One wanted in-radius cell after the screen.
#[derive(Debug, Clone, Copy)]
struct Screened {
    id: CellId,
    /// The cell's index into `bands`.
    band: u8,
    /// `(tx − PL(d)) + shadowing`, dBm.
    prefix: f64,
    /// `prefix + fading ceiling`: bounds the cell's rx from above.
    ub0: f64,
}

/// The per-tick screen bound of `c` at the time `at` locates:
/// `prefix + (ceiling + ε)` with the fading ceiling of
/// [`Propagation::fading_ceiling_located`]. Never above the cell's `ub0`, since
/// the ceiling never exceeds the fading bound.
fn tick_bound(c: &Cell, prefix: f64, at: &NodePoint) -> f64 {
    prefix + (c.propagation.fading_ceiling_located(at) + BOUND_EPS_DB)
}

/// The exact rx from its parts at the time `at` locates, in the operation
/// order of [`Cell::rx_dbm`].
fn exact_rx(c: &Cell, prefix: f64, at: &NodePoint, blk: f64, pat: f64) -> f64 {
    Propagation::received_from_parts(prefix, c.propagation.fading_db_located(at), blk) - pat
}

/// One band's seeds (its highest screen bounds) and its exact top list.
#[derive(Debug, Clone, Copy)]
struct BandTop {
    nr: bool,
    /// `fading_bound() + BOUND_EPS_DB`, maximized over the band's cells:
    /// above any of their fading terms at any time.
    fading_bound: f64,
    /// `(index into screened, ub0)` of up to `PER_BAND` highest bounds.
    seeds: [(usize, f64); RadioSnapshot::PER_BAND],
    n_seeds: usize,
    /// The strongest exactly priced cells so far, in [`rx_total_order`].
    top: [(CellId, f64); RadioSnapshot::PER_BAND],
    len: usize,
}

impl BandTop {
    fn new(nr: bool) -> Self {
        BandTop {
            nr,
            fading_bound: f64::NEG_INFINITY,
            seeds: [(0, 0.0); RadioSnapshot::PER_BAND],
            n_seeds: 0,
            top: [(CellId(0), 0.0); RadioSnapshot::PER_BAND],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.n_seeds = 0;
        self.len = 0;
    }

    /// Keeps `(k, ub0)` if it is among the band's highest bounds so far.
    fn offer_seed(&mut self, k: usize, ub0: f64) {
        if self.n_seeds < RadioSnapshot::PER_BAND {
            self.seeds[self.n_seeds] = (k, ub0);
            self.n_seeds += 1;
            return;
        }
        let mut low = 0;
        for i in 1..self.n_seeds {
            if self.seeds[i].1 < self.seeds[low].1 {
                low = i;
            }
        }
        if ub0 > self.seeds[low].1 {
            self.seeds[low] = (k, ub0);
        }
    }

    /// True when screened cell `k` is one of the band's seeds.
    fn is_seed(&self, k: usize) -> bool {
        self.seeds[..self.n_seeds].iter().any(|&(s, _)| s == k)
    }

    /// True once the top list holds `PER_BAND` cells, so a cut-off exists.
    fn full(&self) -> bool {
        self.len == RadioSnapshot::PER_BAND
    }

    /// True while a cell whose rx is at most `bound` could still enter the
    /// top list: the list has room, or `bound` reaches its last entry (ties
    /// are admitted and ordered by `CellId`).
    fn admits(&self, bound: f64) -> bool {
        self.len < RadioSnapshot::PER_BAND || bound >= self.top[RadioSnapshot::PER_BAND - 1].1
    }

    /// Inserts an exactly priced cell, keeping the `PER_BAND` first under
    /// [`rx_total_order`].
    fn insert(&mut self, e: (CellId, f64)) {
        if self.len == RadioSnapshot::PER_BAND {
            if rx_total_order(&e, &self.top[self.len - 1]) != Ordering::Less {
                return;
            }
            self.len -= 1;
        }
        let mut i = self.len;
        while i > 0 && rx_total_order(&e, &self.top[i - 1]) == Ordering::Less {
            self.top[i] = self.top[i - 1];
            i -= 1;
        }
        self.top[i] = e;
        self.len += 1;
    }
}

impl RadioSnapshot {
    /// Cells kept per band — the per-carrier measured set of the leg views.
    pub const PER_BAND: usize = 3;

    /// An empty snapshot; the first [`RadioSnapshot::refresh`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recomputes the snapshot for `(pos, t)`: one grid scan, one screen
    /// bound per in-radius cell of each wanted technology, and the exact rx
    /// of only the cells that can still rank in their band's top
    /// [`RadioSnapshot::PER_BAND`]. Legs that are not wanted (`want_lte` /
    /// `want_nr` false) are left empty so an LTE-only or SA run never pays
    /// for the other technology's cells.
    pub fn refresh(&mut self, d: &Deployment, pos: &Point, t: f64, radius_m: f64, want_lte: bool, want_nr: bool) {
        if self.slots.len() != d.cells.len() {
            self.bind(d);
        }
        self.fit_memo(want_lte, want_nr);
        for b in &mut self.bands {
            b.clear();
        }
        self.screened.clear();
        self.tier1 = 0;
        self.priced = 0;
        self.corner_hashes = 0;
        self.located = 0;
        self.epoch += 1;
        self.pos = *pos;
        for l in &mut self.lattices {
            *l = LatticePoint::locate(pos, l.spacing());
        }
        for c in &mut self.clocks {
            *c = NodePoint::locate(t, c.corr_s());
        }
        // the scan order of `Deployment::cells_near`, with the radius test
        // done once per tower
        for bin in d.bins_near(pos, radius_m) {
            for &id in bin {
                let c = d.cell(id);
                if !(if c.is_nr() { want_nr } else { want_lte }) {
                    continue;
                }
                let Some(log_d) = self.site(d, c.tower, pos, radius_m) else {
                    continue;
                };
                let (prefix, ub0, hashes) = self.screen(c, log_d);
                self.corner_hashes += hashes;
                self.bands[c.band_ix as usize].offer_seed(self.screened.len(), ub0);
                self.screened.push(Screened { id, band: c.band_ix, prefix, ub0 });
            }
        }
        // seed every band with its highest bounds, then sweep the rest
        // against the cut-offs the seeds set
        for b in 0..self.bands.len() {
            for s in 0..self.bands[b].n_seeds {
                self.price(d, self.bands[b].seeds[s].0, pos);
            }
        }
        for k in 0..self.screened.len() {
            if !self.bands[self.screened[k].band as usize].is_seed(k) {
                self.price(d, k, pos);
            }
        }
        self.legs.clear();
        for nr in [false, true] {
            for b in self.bands.iter().filter(|b| b.nr == nr) {
                self.legs.extend_from_slice(&b.top[..b.len]);
            }
            if !nr {
                self.n_lte = self.legs.len();
            }
        }
        let (lte, nr) = self.legs.split_at_mut(self.n_lte);
        lte.sort_unstable_by(rx_total_order);
        nr.sort_unstable_by(rx_total_order);
    }

    /// Sizes the per-cell and per-tower tables for `d` and assigns each cell
    /// its lattice, clock and memo slots. The memo starts cold.
    fn bind(&mut self, d: &Deployment) {
        self.sites = vec![Site::default(); d.towers.len()];
        self.memo = ChannelMemo::default();
        self.nr_cells = d.cells.iter().filter(|c| c.is_nr()).count();
        let mut next = [self.nr_cells, 0];
        self.bands = d.bands().iter().map(|b| BandTop::new(b.is_nr())).collect();
        self.lattices.clear();
        self.clocks.clear();
        self.slots = Vec::with_capacity(d.cells.len());
        for c in &d.cells {
            // the per-tower geometry stands in for the cell's own
            debug_assert!(c.site == d.towers[c.tower.0 as usize].pos, "cell {:?} is not at its tower", c.id);
            let b = &mut self.bands[c.band_ix as usize];
            b.fading_bound = b.fading_bound.max(c.propagation.fading_bound() + BOUND_EPS_DB);
            let memo = &mut next[usize::from(c.is_nr())];
            let slots = CellSlots {
                shadowing: self.lattice_slot(c.propagation.shadowing_spacing()),
                blockage: self.lattice_slot(c.propagation.blockage_spacing()),
                fading: self.clock_slot(c.propagation.fading_corr_s()),
                memo: u32::try_from(*memo).expect("more than 2^32 cells"),
            };
            *memo += 1;
            self.slots.push(slots);
        }
    }

    /// Grows the memo to hold the cells of the technologies given: the NR
    /// block, or through the LTE block that follows it.
    fn fit_memo(&mut self, lte: bool, nr: bool) {
        self.memo.fit(if lte {
            self.slots.len()
        } else if nr {
            self.nr_cells
        } else {
            0
        });
    }

    /// The index into `lattices` of spacing `spacing`, added if new.
    fn lattice_slot(&mut self, spacing: f64) -> u8 {
        let i = self.lattices.iter().position(|l| l.spacing() == spacing).unwrap_or_else(|| {
            self.lattices.push(LatticePoint::locate(&Point::ORIGIN, spacing));
            self.lattices.len() - 1
        });
        u8::try_from(i).expect("more than 256 noise lattices in one deployment")
    }

    /// The index into `clocks` of correlation time `corr_s`, added if new.
    fn clock_slot(&mut self, corr_s: f64) -> u8 {
        let i = self.clocks.iter().position(|c| c.corr_s() == corr_s).unwrap_or_else(|| {
            self.clocks.push(NodePoint::locate(0.0, corr_s));
            self.clocks.len() - 1
        });
        u8::try_from(i).expect("more than 256 fading clocks in one deployment")
    }

    /// The distance term of `tower` toward `pos` if the tower lies within
    /// `radius_m` (inclusive, like [`Deployment::cells_near`]), locating
    /// the tower on its first visit of the refresh.
    fn site(&mut self, d: &Deployment, tower: TowerId, pos: &Point, radius_m: f64) -> Option<f64> {
        let s = &mut self.sites[tower.0 as usize];
        if s.epoch != self.epoch {
            let dist = d.towers[tower.0 as usize].pos.distance(pos);
            let log_d = if dist <= radius_m { Propagation::log_distance_m(dist) } else { f64::NAN };
            *s = Site { epoch: self.epoch, dist, log_d, bearing: f64::NAN };
            self.located += 1;
        }
        (s.dist <= radius_m).then_some(s.log_d)
    }

    /// The bearing of `pos` from `tower`, a tower this refresh located:
    /// computed on first use.
    fn bearing(&mut self, d: &Deployment, tower: TowerId, pos: &Point) -> f64 {
        let s = &mut self.sites[tower.0 as usize];
        debug_assert_eq!(s.epoch, self.epoch, "bearing of a tower this refresh did not locate");
        if s.bearing.is_nan() {
            s.bearing = d.towers[tower.0 as usize].pos.bearing(pos);
        }
        s.bearing
    }

    /// Offers screened cell `k` to its band: per-tick fading ceiling (once
    /// the band has a cut-off), tier-1 bound, then the exact rx, each only
    /// while the band's cut-off admits it.
    fn price(&mut self, d: &Deployment, k: usize, pos: &Point) {
        let Screened { id, band, prefix, ub0 } = self.screened[k];
        let band_ix = band as usize;
        if !self.bands[band_ix].admits(ub0) {
            return;
        }
        let c = d.cell(id);
        let at = self.clocks[self.slots[id.0 as usize].fading as usize];
        // below a full list's cut-off every priced cell is admitted anyway,
        // so the per-tick ceiling is only worth its hashes once it can cull
        let ub = if self.bands[band_ix].full() { tick_bound(c, prefix, &at) } else { ub0 };
        if !self.bands[band_ix].admits(ub) {
            return;
        }
        self.tier1 += 1;
        let (blk, pat, ub1) = self.tier1(d, c, pos, ub);
        let band = &mut self.bands[band_ix];
        if !band.admits(ub1) {
            return;
        }
        self.priced += 1;
        band.insert((id, exact_rx(c, prefix, &at, blk, pat)));
    }

    /// The position-only prefix of `c` from its tower's distance term
    /// `log_d`, its screen bound `ub0`, and the corner gaussians the memo
    /// hashed for it.
    fn screen(&mut self, c: &Cell, log_d: f64) -> (f64, f64, usize) {
        let s = self.slots[c.id.0 as usize];
        let at = &self.lattices[s.shadowing as usize];
        let mut hashed = 0;
        let prefix = c.propagation.prefix_dbm_located(log_d, at, self.memo.cache(s), &mut hashed);
        (prefix, prefix + self.bands[c.band_ix as usize].fading_bound, hashed)
    }

    /// The position-only losses `(blockage, pattern)` of `c` at `pos` and
    /// the tier-1 bound `ub1 = (ub − blockage) − pattern` on top of the
    /// fading bound `ub`.
    fn tier1(&mut self, d: &Deployment, c: &Cell, pos: &Point, ub: f64) -> (f64, f64, f64) {
        let s = self.slots[c.id.0 as usize];
        let at = &self.lattices[s.blockage as usize];
        let blk = c.propagation.blockage_db_located(at, self.memo.cache(s));
        // an omni cell has no pattern loss and needs no bearing
        let pat = if c.azimuth.is_some() { c.pattern_loss_toward(self.bearing(d, c.tower, pos)) } else { 0.0 };
        (blk, pat, ub - blk - pat)
    }

    /// The exact rx of any cell of `d` at the current refresh's `(pos, t)`,
    /// in radius or not: [`Cell::rx_dbm`]'s bits, from the refresh's located
    /// lattices and clocks, the cell's channel memo and its tower's geometry
    /// (located here when no scanned bin held the tower; the memo of a
    /// technology the refresh did not want is sized here). Counts toward
    /// none of the refresh's work counters.
    pub fn rx_dbm(&mut self, d: &Deployment, id: CellId) -> f64 {
        let c = d.cell(id);
        let pos = self.pos;
        self.fit_memo(!c.is_nr(), c.is_nr());
        let s = &mut self.sites[c.tower.0 as usize];
        if s.epoch != self.epoch {
            let dist = d.towers[c.tower.0 as usize].pos.distance(&pos);
            *s = Site { epoch: self.epoch, dist, log_d: f64::NAN, bearing: f64::NAN };
        }
        if s.log_d.is_nan() {
            // out of radius: the screen never needed the distance term
            s.log_d = Propagation::log_distance_m(s.dist);
        }
        let log_d = s.log_d;
        let (prefix, _, _) = self.screen(c, log_d);
        let at = self.clocks[self.slots[id.0 as usize].fading as usize];
        let (blk, pat, _) = self.tier1(d, c, &pos, 0.0);
        exact_rx(c, prefix, &at, blk, pat)
    }

    /// The refreshed technology leg, strongest first: the
    /// [`RadioSnapshot::PER_BAND`] strongest cells of each band, merged in
    /// [`rx_total_order`]. Identical to the per-band top of
    /// `Deployment::strongest(pos, t, nr, radius_m)` at the refresh
    /// arguments, without the per-call scan, pricing and allocation.
    pub fn strongest(&self, nr: bool) -> &[(CellId, f64)] {
        let (lte, nr_leg) = self.legs.split_at(self.n_lte);
        if nr {
            nr_leg
        } else {
            lte
        }
    }

    /// Wanted in-radius cells the last refresh screened.
    pub fn screened(&self) -> usize {
        self.screened.len()
    }

    /// Cells the last refresh paid the tier-1 losses for.
    pub fn tier1_cells(&self) -> usize {
        self.tier1
    }

    /// Cells the last refresh priced exactly (drew the fading term for).
    pub fn priced(&self) -> usize {
        self.priced
    }

    /// Shadowing corner gaussians the last refresh hashed: 0, 2 or 4 per
    /// screened cell, as the swapped-in [`ChannelMemo`] hit, shifted or
    /// missed its lattice cell.
    pub fn corner_hashes(&self) -> usize {
        self.corner_hashes
    }

    /// Trades the snapshot's channel memo for `memo` in O(1). A receiver
    /// that shares this snapshot's scratch with others swaps its own memo
    /// in before its refresh and back out after its last read; the outputs
    /// are the same with any memo of the snapshot's deployment.
    pub fn swap_memo(&mut self, memo: &mut ChannelMemo) {
        std::mem::swap(&mut self.memo, memo);
    }

    /// Towers whose geometry (distance, and the bearing where a sector
    /// reached tier 1) the last refresh computed: those with a wanted cell
    /// in a scanned grid bin.
    pub fn sites_located(&self) -> usize {
        self.located
    }
}

/// The snapshot's referee: the first [`RadioSnapshot::PER_BAND`] cells of each
/// band in the full [`Deployment::strongest`] list, in its order. A
/// [`RadioSnapshot::refresh`] at the same arguments must produce this leg bit
/// for bit; it prices every in-radius cell to get there.
pub fn per_band_top(d: &Deployment, pos: &Point, t: f64, nr: bool, radius_m: f64) -> Vec<(CellId, f64)> {
    let mut taken: HashMap<&str, usize> = HashMap::new();
    let mut all = d.strongest(pos, t, nr, radius_m);
    all.retain(|&(id, _)| {
        let n = taken.entry(d.cell(id).band.name).or_default();
        *n += 1;
        *n <= RadioSnapshot::PER_BAND
    });
    all
}

/// Fixed-capacity inline PCI → cell map with first-writer-wins inserts.
///
/// Replaces the transient `HashMap<Pci, CellId>` the leg view rebuilt every
/// tick: candidate sets are tiny (a dozen entries), so a linear scan over an
/// inline array beats hashing, and the steady-state tick allocates nothing.
/// Entries beyond the inline capacity spill to a heap `Vec` (SmallVec-style),
/// so the table is still correct for arbitrarily large candidate sets.
#[derive(Debug, Clone)]
pub struct PciTable {
    inline: [(Pci, CellId); Self::INLINE],
    len: usize,
    spill: Vec<(Pci, CellId)>,
}

impl Default for PciTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PciTable {
    /// Inline capacity: leg views cap candidates at 12 + serving per leg, so
    /// two merged legs fit inline with room to spare.
    const INLINE: usize = 32;

    /// An empty table. Allocation-free until `PciTable::INLINE` entries.
    pub fn new() -> Self {
        Self { inline: [(Pci(0), CellId(0)); Self::INLINE], len: 0, spill: Vec::new() }
    }

    /// Clears the table, keeping any spill capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// Inserts `pci → id` unless `pci` is already mapped (first writer wins,
    /// matching the `entry().or_insert()` idiom it replaces).
    pub fn insert_first(&mut self, pci: Pci, id: CellId) {
        if self.get(pci).is_some() {
            return;
        }
        if self.len < Self::INLINE {
            self.inline[self.len] = (pci, id);
            self.len += 1;
        } else {
            self.spill.push((pci, id));
        }
    }

    /// Looks up the cell mapped to `pci`.
    pub fn get(&self, pci: Pci) -> Option<CellId> {
        let inline_hit = self.inline[..self.len].iter().find(|&&(p, _)| p == pci);
        inline_hit.or_else(|| self.spill.iter().find(|&&(p, _)| p == pci)).map(|&(_, id)| id)
    }

    /// Number of distinct PCIs mapped.
    pub fn len(&self) -> usize {
        self.len + self.spill.len()
    }

    /// True when no entries are mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0 && self.spill.is_empty()
    }

    /// Iterates the entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Pci, CellId)> + '_ {
        self.inline[..self.len].iter().chain(self.spill.iter()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::{Carrier, Environment};
    use crate::ho::Arch;
    use fiveg_geo::routes;
    use fiveg_radio::BandClass;

    fn deployment(env: Environment, arch: Arch) -> Deployment {
        let route = match env {
            Environment::Freeway => routes::freeway_leg(Point::ORIGIN, 0.0, 12_000.0),
            _ => routes::rectangular_loop(Point::ORIGIN, 1200.0, 800.0),
        };
        Deployment::generate(&route, Carrier::OpX, env, arch, 17)
    }

    #[test]
    fn snapshot_matches_strongest_exactly() {
        for env in [Environment::Freeway, Environment::UrbanDense] {
            let d = deployment(env, Arch::Nsa);
            let mut snap = RadioSnapshot::new();
            // drive along so the channel caches hit and miss
            for i in 0..300 {
                let pos = Point::new(i as f64 * 35.0, 20.0);
                let t = i as f64 * 0.1;
                snap.refresh(&d, &pos, t, 8000.0, true, true);
                assert!(snap.priced() <= snap.screened());
                for nr in [false, true] {
                    let want = per_band_top(&d, &pos, t, nr, 8000.0);
                    assert_eq!(snap.strongest(nr), &want[..], "{env:?} step {i} nr={nr}");
                }
            }
        }
    }

    /// Refreshes `snap` at `(pos, t, radius)` with both legs wanted and
    /// checks it against the referee, and its screen against every cell of
    /// `d` whose site lies within `radius` (inclusive).
    fn assert_refresh_exact(d: &Deployment, snap: &mut RadioSnapshot, pos: &Point, t: f64, radius: f64) {
        snap.refresh(d, pos, t, radius, true, true);
        for nr in [false, true] {
            assert_eq!(snap.strongest(nr), &per_band_top(d, pos, t, nr, radius)[..], "nr={nr} at {pos:?} r={radius}");
        }
        let in_radius = d.cells.iter().filter(|c| c.site.distance(pos) <= radius).count();
        assert_eq!(snap.screened(), in_radius, "at {pos:?} r={radius}");
        let towers = d.towers.iter().filter(|tw| tw.pos.distance(pos) <= radius).count();
        assert!(snap.sites_located() >= towers, "{} towers located, {towers} in radius", snap.sites_located());
    }

    #[test]
    fn tower_exactly_at_the_radius_is_screened() {
        // the radius bound is inclusive: a tower at exactly `radius` is in,
        // one ulp less leaves its cells out
        let d = deployment(Environment::UrbanDense, Arch::Nsa);
        let mut snap = RadioSnapshot::new();
        let pos = Point::new(311.7, -143.2);
        for tw in d.towers.iter().step_by(7) {
            let radius = tw.pos.distance(&pos);
            assert_refresh_exact(&d, &mut snap, &pos, 4.2, radius);
            let screened = snap.screened();
            assert_refresh_exact(&d, &mut snap, &pos, 4.2, f64::from_bits(radius.to_bits() - 1));
            assert!(snap.screened() + tw.cells.len() <= screened, "tower {:?} at r={radius}", tw.id);
        }
    }

    #[test]
    fn radius_beyond_the_deployment_clamps_the_scan() {
        // a short freeway leg: a few bins of grid index, scanned with radii
        // that reach far past it, from inside and from outside its extent
        let route = routes::freeway_leg(Point::ORIGIN, 0.3, 2_500.0);
        let d = Deployment::generate(&route, Carrier::OpY, Environment::Freeway, Arch::Nsa, 23);
        let mut snap = RadioSnapshot::new();
        for (i, pos) in
            [Point::new(900.0, 250.0), Point::new(-40_000.0, 35_000.0), Point::new(1e6, -1e6)].iter().enumerate()
        {
            for radius in [8_000.0, 60_000.0, 5e6] {
                assert_refresh_exact(&d, &mut snap, pos, i as f64 * 0.7, radius);
            }
        }
        assert_eq!(snap.screened(), d.cells.len(), "a 5000 km radius holds every cell");
        assert_eq!(snap.sites_located(), d.towers.len());
    }

    #[test]
    fn any_cell_prices_to_its_own_rx_after_a_refresh() {
        // in radius or not, every cell of the deployment reads back
        // `Cell::rx_dbm`'s exact bits, and leaves the refresh's counters as
        // they were
        for env in [Environment::Freeway, Environment::UrbanDense] {
            let d = deployment(env, Arch::Nsa);
            let mut snap = RadioSnapshot::new();
            let mut outside = 0;
            for i in 0..12 {
                let pos = Point::new(-500.0 + i as f64 * 410.0, 35.0 - i as f64 * 9.0);
                let t = i as f64 * 0.9;
                snap.refresh(&d, &pos, t, 1500.0, true, i % 3 != 0);
                let work = (snap.screened(), snap.tier1_cells(), snap.priced(), snap.sites_located());
                for c in &d.cells {
                    outside += usize::from(c.site.distance(&pos) > 1500.0);
                    assert_eq!(
                        snap.rx_dbm(&d, c.id).to_bits(),
                        c.rx_dbm(&pos, t).to_bits(),
                        "{env:?} {:?} at {i}",
                        c.id
                    );
                }
                assert_eq!(work, (snap.screened(), snap.tier1_cells(), snap.priced(), snap.sites_located()));
            }
            assert!(outside > 0, "{env:?}: no cell lay outside the radius");
        }
    }

    #[test]
    fn unwanted_legs_stay_empty() {
        let d = deployment(Environment::Freeway, Arch::Nsa);
        let mut snap = RadioSnapshot::new();
        let pos = Point::new(2000.0, 0.0);
        snap.refresh(&d, &pos, 1.0, 8000.0, false, true);
        assert!(snap.strongest(false).is_empty());
        assert!(!snap.strongest(true).is_empty());
        assert_eq!(d.cells_near(&pos, 8000.0).iter().filter(|&&id| d.cell(id).is_nr()).count(), snap.screened());
        // memos are sized per wanted technology: none for the LTE cells yet
        let nr_cells = d.cells.iter().filter(|c| c.is_nr()).count();
        assert_eq!(snap.memo.caches.len(), nr_cells);
        let lte = d.cells.iter().find(|c| !c.is_nr()).expect("an LTE cell");
        assert_eq!(snap.rx_dbm(&d, lte.id).to_bits(), lte.rx_dbm(&pos, 1.0).to_bits());
        assert_eq!(snap.memo.caches.len(), d.cells.len());
    }

    #[test]
    fn swapped_memos_equal_owned_snapshots() {
        // two receivers far apart share one snapshot, each swapping its own
        // memo in around its refresh and reads: every leg, rx and corner
        // count equals what the receiver's own snapshot gives
        let d = deployment(Environment::UrbanDense, Arch::Nsa);
        let (mut shared, mut unswapped) = (RadioSnapshot::new(), RadioSnapshot::new());
        let mut own = [RadioSnapshot::new(), RadioSnapshot::new()];
        let mut memos = [ChannelMemo::default(), ChannelMemo::default()];
        let (mut kept, mut lost) = (0, 0);
        for i in 0..200 {
            for (r, memo) in memos.iter_mut().enumerate() {
                let pos = Point::new(-400.0 + i as f64 * 4.0 + r as f64 * 700.0, 30.0 - r as f64 * 500.0);
                let t = i as f64 * 0.1;
                let want_lte = r == 0 || i % 7 != 0;
                shared.swap_memo(memo);
                shared.refresh(&d, &pos, t, 3000.0, want_lte, true);
                own[r].refresh(&d, &pos, t, 3000.0, want_lte, true);
                for nr in [false, true] {
                    assert_eq!(shared.strongest(nr), own[r].strongest(nr), "receiver {r} step {i} nr={nr}");
                }
                assert_eq!(shared.corner_hashes(), own[r].corner_hashes(), "receiver {r} step {i}");
                let id = CellId(((i * 13 + r) % d.cells.len()) as u32);
                assert_eq!(shared.rx_dbm(&d, id).to_bits(), own[r].rx_dbm(&d, id).to_bits(), "{id:?}");
                shared.swap_memo(memo);
                kept += own[r].corner_hashes();
                // the same refreshes on one memo: each receiver evicts the
                // other's lattice cells
                unswapped.refresh(&d, &pos, t, 3000.0, want_lte, true);
                lost += unswapped.corner_hashes();
            }
        }
        assert!(kept > 0 && lost > 10 * kept, "{kept} corner hashes with own memos, {lost} with one shared");
    }

    #[test]
    fn screen_bounds_dominate_exact_rx() {
        // ub0 >= ub_t >= ub1 >= exact rx, and the parts assemble the engine's
        // rx bit for bit — over sub-6 cells, blocked mmWave cells and
        // back-sector positions alike
        let d = deployment(Environment::UrbanDense, Arch::Nsa);
        let mut snap = RadioSnapshot::new();
        let (mut samples, mut sub6, mut blocked, mut back, mut tight) = (0, 0, 0, 0, 0);
        for i in 0..40 {
            let pos = Point::new(-300.0 + (i % 8) as f64 * 230.0, -200.0 + (i / 8) as f64 * 270.0);
            snap.refresh(&d, &pos, 0.0, 3000.0, true, true);
            for id in d.cells_near(&pos, 3000.0) {
                let c = d.cell(id);
                for k in 0..12 {
                    let t = i as f64 * 1.37 + k as f64 * 0.173;
                    let log_d = snap.site(&d, c.tower, &pos, 3000.0).expect("an in-radius tower");
                    let (prefix, ub0, _) = snap.screen(c, log_d);
                    let at = NodePoint::locate(t, c.propagation.fading_corr_s());
                    let ub_t = tick_bound(c, prefix, &at);
                    let (blk, pat, ub1) = snap.tier1(&d, c, &pos, ub_t);
                    let rx = exact_rx(c, prefix, &at, blk, pat);
                    assert_eq!(rx.to_bits(), c.rx_dbm(&pos, t).to_bits(), "cell {id:?} at {pos:?} t={t}");
                    assert!(
                        rx <= ub1 && ub1 <= ub_t && ub_t <= ub0,
                        "cell {id:?}: rx {rx} ub1 {ub1} ub_t {ub_t} ub0 {ub0}"
                    );
                    tight += usize::from(ub_t < ub0);
                    samples += 1;
                    sub6 += usize::from(c.band.class() != BandClass::MmWave);
                    blocked += usize::from(blk > 0.0);
                    back += usize::from(pat >= 22.0);
                }
            }
        }
        assert!(samples >= 10_000, "{samples} samples");
        assert!(sub6 >= 1000 && blocked >= 1000 && back >= 1000, "sub6 {sub6} blocked {blocked} back {back}");
        // the per-tick ceiling is strictly below the global one almost always
        assert!(tight * 10 >= samples * 9, "ub_t < ub0 on only {tight} of {samples} samples");
    }

    #[test]
    fn top_list_orders_equal_rx_by_cell_id() {
        let entries = [
            (CellId(9), -80.0),
            (CellId(4), -80.0),
            (CellId(7), -75.0),
            (CellId(2), -80.0),
            (CellId(1), -90.0),
            (CellId(3), -80.0),
        ];
        // every insertion order keeps the first PER_BAND under rx_total_order
        let mut want = entries.to_vec();
        want.sort_unstable_by(rx_total_order);
        want.truncate(RadioSnapshot::PER_BAND);
        for rot in 0..entries.len() {
            for rev in [false, true] {
                let mut order = entries.to_vec();
                order.rotate_left(rot);
                if rev {
                    order.reverse();
                }
                let mut b = BandTop::new(true);
                for e in order {
                    b.insert(e);
                }
                assert_eq!(&b.top[..b.len], &want[..], "rotation {rot} reversed {rev}");
            }
        }
        // the cut-off admits ties (a lower CellId would outrank the last
        // entry) and culls anything strictly weaker
        let mut b = BandTop::new(true);
        for e in entries {
            b.insert(e);
        }
        assert_eq!(&b.top[..b.len], &[(CellId(7), -75.0), (CellId(2), -80.0), (CellId(3), -80.0)]);
        assert!(b.admits(-80.0));
        assert!(!b.admits(-80.000_000_000_001));
        b.insert((CellId(0), -80.0));
        assert_eq!(&b.top[..b.len], &[(CellId(7), -75.0), (CellId(0), -80.0), (CellId(2), -80.0)]);
    }

    #[test]
    fn pci_table_first_writer_wins() {
        let mut t = PciTable::new();
        t.insert_first(Pci(5), CellId(1));
        t.insert_first(Pci(5), CellId(2));
        t.insert_first(Pci(9), CellId(3));
        assert_eq!(t.get(Pci(5)), Some(CellId(1)));
        assert_eq!(t.get(Pci(9)), Some(CellId(3)));
        assert_eq!(t.get(Pci(7)), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(Pci(5), CellId(1)), (Pci(9), CellId(3))]);
    }

    #[test]
    fn pci_table_spills_past_inline_capacity() {
        let mut t = PciTable::new();
        for i in 0..100u16 {
            t.insert_first(Pci(i), CellId(i as u32));
        }
        assert_eq!(t.len(), 100);
        for i in 0..100u16 {
            assert_eq!(t.get(Pci(i)), Some(CellId(i as u32)), "pci {i}");
        }
        // duplicate insert into the spill region is still first-writer-wins
        t.insert_first(Pci(99), CellId(4242));
        assert_eq!(t.get(Pci(99)), Some(CellId(99)));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(Pci(0)), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::carrier::{Carrier, Environment};
    use crate::ho::Arch;
    use fiveg_geo::{routes, Polyline};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// Freeway, urban and dense deployments, each under NSA, SA and LTE.
    fn fixtures() -> &'static [(Polyline, Deployment)] {
        static SET: OnceLock<Vec<(Polyline, Deployment)>> = OnceLock::new();
        SET.get_or_init(|| {
            let mut v = Vec::new();
            for (env, carrier) in [
                (Environment::Freeway, Carrier::OpY),
                (Environment::Urban, Carrier::OpY),
                (Environment::UrbanDense, Carrier::OpX),
            ] {
                for (k, arch) in [Arch::Nsa, Arch::Sa, Arch::Lte].into_iter().enumerate() {
                    let route = match env {
                        Environment::Freeway => routes::curved_freeway(Point::ORIGIN, 0.2, 10_000.0, 5, 0.06),
                        Environment::Urban => routes::rectangular_loop(Point::ORIGIN, 2000.0, 1000.0),
                        Environment::UrbanDense => routes::rectangular_loop(Point::ORIGIN, 1200.0, 800.0),
                    };
                    let d = Deployment::generate(&route, carrier, env, arch, 40 + k as u64);
                    v.push((route, d));
                }
            }
            v
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn refresh_equals_per_band_top_of_strongest(
            which in 0usize..9,
            frac in 0.0..1.0f64,
            lateral in -400.0..400.0f64,
            t in 0.0..900.0f64,
            radius in 300.0..9000.0f64,
            wants in 0u8..4,
        ) {
            let (route, d) = &fixtures()[which];
            let on_route = route.point_at(frac * route.length());
            let pos = Point::new(on_route.x + lateral * 0.6, on_route.y + lateral);
            let (want_lte, want_nr) = (wants & 1 == 1, wants & 2 == 2);
            let mut snap = RadioSnapshot::new();
            snap.refresh(d, &pos, t, radius, want_lte, want_nr);
            for (nr, wanted) in [(false, want_lte), (true, want_nr)] {
                let want = if wanted { per_band_top(d, &pos, t, nr, radius) } else { Vec::new() };
                let got = snap.strongest(nr);
                prop_assert_eq!(got.len(), want.len(), "deployment {} nr={}", which, nr);
                for (g, w) in got.iter().zip(&want) {
                    prop_assert!(g.0 == w.0 && g.1.to_bits() == w.1.to_bits(), "{:?} != {:?}", g, w);
                }
            }
        }
    }
}
