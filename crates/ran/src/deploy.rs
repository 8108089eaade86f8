//! Deployment generator: lays out a carrier's RAN along a route.
//!
//! The paper could not know tower locations and estimated coverage from PCI
//! dwell distance (§6.1); the simulator inverts that: it *places* towers with
//! per-band-class inter-site distances (ISDs) chosen so the resulting dwell
//! distances land in the measured regime (low-band km-scale, mmWave
//! 100 m-scale), then everything downstream — HO frequency, coverage
//! estimates, co-location statistics — is measured off the generated layout
//! exactly the way the paper measures it off the real one.
//!
//! Key modelled facts:
//!
//! * the NSA anchor (NSA-4C) runs on an LTE **mid-band** carrier with a much
//!   smaller ISD than low-band NR (§6.1's effective-coverage reduction);
//! * a fraction of gNB sites are **co-located** with eNB towers, in which
//!   case the NR cell reuses the eNB cell's PCI (§6.3's heuristic);
//! * mmWave and mid-band NR towers host multiple sector cells (SCGM exists);
//! * bearer mode (dual vs 5G-only) is a property of the area (§4.2).

use crate::carrier::{Carrier, Environment};
use crate::cell::{Cell, CellId, Tower, TowerId};
use crate::ho::Arch;
use fiveg_geo::{Point, Polyline};
use fiveg_radio::rrs::dbm_to_mw;
use fiveg_radio::{hash2, Band, BandClass, DetRng, Propagation, SpatialNoise};
use fiveg_rrc::Pci;
use std::collections::HashMap;

/// Inter-site distances in meters per (environment, band role).
#[derive(Debug, Clone, Copy)]
pub struct IsdPlan {
    /// LTE anchor (mid-band) towers.
    pub lte_anchor: f64,
    /// Other LTE band layers.
    pub lte_other: f64,
    /// NR low-band gNBs.
    pub nr_low: f64,
    /// NR mid-band gNBs.
    pub nr_mid: f64,
    /// NR mmWave gNBs.
    pub nr_mmwave: f64,
}

impl IsdPlan {
    /// ISDs for an environment, tuned to the paper's dwell distances.
    pub fn for_env(env: Environment) -> Self {
        match env {
            Environment::UrbanDense => {
                IsdPlan { lte_anchor: 650.0, lte_other: 800.0, nr_low: 1600.0, nr_mid: 800.0, nr_mmwave: 210.0 }
            }
            Environment::Urban => {
                IsdPlan { lte_anchor: 800.0, lte_other: 950.0, nr_low: 1800.0, nr_mid: 850.0, nr_mmwave: 230.0 }
            }
            Environment::Freeway => {
                IsdPlan { lte_anchor: 1150.0, lte_other: 1350.0, nr_low: 2300.0, nr_mid: 1200.0, nr_mmwave: 250.0 }
            }
        }
    }
}

/// Grid cell size for the spatial index, meters.
const GRID: f64 = 1000.0;

/// Dense spatial index over cell sites: fixed-pitch square bins covering the
/// deployment's bounding box, stored row-major. Replaces a `HashMap` keyed on
/// grid coordinates — a radius scan touches a few hundred bins, and a direct
/// index beats a hash probe per bin on the per-tick hot path.
#[derive(Debug, Clone, Default)]
struct GridIndex {
    /// Grid coordinate of the first bin (inclusive).
    x0: i64,
    y0: i64,
    /// Bin-count extents; zero for an empty deployment.
    w: i64,
    h: i64,
    /// Row-major bins: ids in insertion (= `CellId`) order within each bin.
    bins: Vec<Vec<CellId>>,
}

impl GridIndex {
    /// Builds the index from the final cell list.
    fn build(cells: &[Cell]) -> Self {
        let keys: Vec<(i64, i64)> =
            cells.iter().map(|c| ((c.site.x / GRID).floor() as i64, (c.site.y / GRID).floor() as i64)).collect();
        let Some(&(kx0, ky0)) = keys.first() else {
            return GridIndex::default();
        };
        let (mut x0, mut y0, mut x1, mut y1) = (kx0, ky0, kx0, ky0);
        for &(kx, ky) in &keys {
            x0 = x0.min(kx);
            y0 = y0.min(ky);
            x1 = x1.max(kx);
            y1 = y1.max(ky);
        }
        let (w, h) = (x1 - x0 + 1, y1 - y0 + 1);
        let mut bins = vec![Vec::new(); (w * h) as usize];
        for (cell, &(kx, ky)) in cells.iter().zip(&keys) {
            bins[((ky - y0) * w + (kx - x0)) as usize].push(cell.id);
        }
        GridIndex { x0, y0, w, h, bins }
    }

    /// The bin at grid coordinate `(kx, ky)`, empty when out of range.
    #[inline]
    fn bin(&self, kx: i64, ky: i64) -> &[CellId] {
        let (gx, gy) = (kx - self.x0, ky - self.y0);
        if gx < 0 || gx >= self.w || gy < 0 || gy >= self.h {
            return &[];
        }
        &self.bins[(gy * self.w + gx) as usize]
    }
}

/// The deployment-wide total order on `(cell, rx_dbm)` pairs: received power
/// descending, then [`CellId`] ascending. Unlike a raw float comparison this
/// is total — equal-rx cells can never reorder across platforms, refactors,
/// or unstable sorts.
pub fn rx_total_order(a: &(CellId, f64), b: &(CellId, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// A generated radio access network for one carrier over one route.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The carrier this RAN belongs to.
    pub carrier: Carrier,
    /// The environment it was generated for.
    pub env: Environment,
    /// Service architecture available in this area.
    pub arch: Arch,
    /// All towers.
    pub towers: Vec<Tower>,
    /// All cells.
    pub cells: Vec<Cell>,
    /// The distinct bands of `cells` in order of first use; [`Cell::band_ix`]
    /// indexes it.
    bands: Vec<Band>,
    lte_ids: Vec<CellId>,
    nr_ids: Vec<CellId>,
    /// Spatial index over cell sites, built once generation is complete.
    grid: GridIndex,
    /// gNB tower → associated eNB tower (X2 peer; same tower if co-located).
    gnb_assoc: HashMap<TowerId, TowerId>,
    /// Bearer-mode field: dual-mode where the field is below the carrier's
    /// dual fraction.
    bearer_field: SpatialNoise,
    dual_fraction: f64,
}

impl Deployment {
    /// Generates a deployment along `route` for `carrier` in `env` under
    /// `arch`, deterministically from `seed`.
    pub fn generate(route: &Polyline, carrier: Carrier, env: Environment, arch: Arch, seed: u64) -> Self {
        let profile = carrier.profile();
        let isd = IsdPlan::for_env(env);
        let mut rng = DetRng::new(hash2(seed, 0xDE50));
        let mut d = Deployment {
            carrier,
            env,
            arch,
            towers: Vec::new(),
            cells: Vec::new(),
            bands: Vec::new(),
            lte_ids: Vec::new(),
            nr_ids: Vec::new(),
            grid: GridIndex::default(),
            gnb_assoc: HashMap::new(),
            bearer_field: SpatialNoise::new(hash2(seed, 0xBEAE), 3000.0, 1.0),
            dual_fraction: profile.dual_mode_fraction,
        };

        let mut lte_pci = 11u16;
        let mut nr_pci = 520u16;

        // --- LTE layer(s): anchor band towers first, they define the grid
        // other LTE bands ride on (real towers carry several bands).
        let lte_bands = profile.lte_bands_in(env);
        let anchor_positions = d.place_towers(route, isd.lte_anchor, 0.0, &mut rng);
        let mut anchor_tower_ids = Vec::new();
        for pos in &anchor_positions {
            let tid = d.new_tower(*pos, false);
            anchor_tower_ids.push(tid);
            // real eNBs are 3-sector: driving past a tower crosses sector
            // boundaries, which is why measured LTE HO distances are well
            // below the inter-site distance
            let azimuth_base = rng.range(0.0, std::f64::consts::TAU);
            for sct in 0..3 {
                let az = azimuth_base + sct as f64 * std::f64::consts::TAU / 3.0;
                d.new_cell(tid, profile.anchor_band, &mut lte_pci, &mut nr_pci, seed, Some(az));
            }
            // a couple of secondary LTE bands per tower, also sectorized
            // (coverage bands ride the same macro towers in practice)
            for (k, band) in lte_bands.iter().enumerate() {
                if *band == profile.anchor_band {
                    continue;
                }
                // each tower carries ~2 extra LTE bands, rotating through the list
                if (k + d.towers.len()) % lte_bands.len().max(1) < 2 {
                    for sct in 0..3 {
                        let az = azimuth_base + sct as f64 * std::f64::consts::TAU / 3.0;
                        d.new_cell(tid, *band, &mut lte_pci, &mut nr_pci, seed, Some(az));
                    }
                }
            }
        }
        // staggered second LTE layer (other bands on their own towers),
        // giving the denser 4G HO pattern observed on drives
        if lte_bands.len() > 1 {
            let other_positions = d.place_towers(route, isd.lte_other, 0.5, &mut rng);
            for pos in &other_positions {
                let tid = d.new_tower(*pos, false);
                let band = lte_bands[(d.towers.len() * 7 + 3) % lte_bands.len()];
                let azimuth_base = rng.range(0.0, std::f64::consts::TAU);
                for sct in 0..3 {
                    let az = azimuth_base + sct as f64 * std::f64::consts::TAU / 3.0;
                    d.new_cell(tid, band, &mut lte_pci, &mut nr_pci, seed, Some(az));
                }
            }
        }

        if arch == Arch::Lte {
            d.grid = GridIndex::build(&d.cells);
            return d;
        }

        // --- NR layers.
        let nr_bands = profile.nr_bands_in(env);
        for band in nr_bands {
            let (band_isd, sectors) = match band.class() {
                BandClass::Low => (isd.nr_low, 2usize),
                BandClass::Mid => (isd.nr_mid, 2usize),
                BandClass::MmWave => (isd.nr_mmwave, 3usize),
            };
            let positions = d.place_towers(route, band_isd, 0.25, &mut rng);
            for pos in &positions {
                // co-location: snap to the nearest anchor tower with prob p,
                // unless that tower already carries this NR band
                let co_located = rng.chance(profile.colocation_prob);
                let (tid, anchor_pci) = if co_located {
                    let (aid, apci) = d.nearest_anchor(pos, &anchor_tower_ids);
                    let band_taken = d.towers[aid.0 as usize].cells.iter().any(|&c| d.cell(c).band.name == band.name);
                    if band_taken {
                        (d.new_tower(*pos, false), None)
                    } else {
                        d.towers[aid.0 as usize].co_located = true;
                        (aid, Some(apci))
                    }
                } else {
                    (d.new_tower(*pos, false), None)
                };
                let azimuth_base = rng.range(0.0, std::f64::consts::TAU);
                // co-located gNBs reuse the eNB's per-sector PCIs
                let anchor_sector_pcis: Vec<Pci> = if anchor_pci.is_some() {
                    d.towers[tid.0 as usize]
                        .cells
                        .iter()
                        .filter(|&&c| !d.cell(c).is_nr() && d.cell(c).band.name == profile.anchor_band.name)
                        .map(|&c| d.cell(c).pci)
                        .collect()
                } else {
                    Vec::new()
                };
                for s in 0..sectors {
                    // single-sector gNBs are omni; multi-sector towers get
                    // evenly spread boresights
                    let azimuth =
                        (sectors > 1).then(|| azimuth_base + s as f64 * std::f64::consts::TAU / sectors as f64);
                    if let Some(&apci) = anchor_sector_pcis.get(s) {
                        d.new_cell_with_pci(tid, band, apci, seed, azimuth);
                        continue;
                    }
                    d.new_cell(tid, band, &mut lte_pci, &mut nr_pci, seed, azimuth);
                }
                // associate this gNB with its nearest eNB tower (X2 peer)
                let (assoc, _) = d.nearest_anchor(&d.towers[tid.0 as usize].pos.clone(), &anchor_tower_ids);
                d.gnb_assoc.insert(tid, assoc);
            }
        }
        d.grid = GridIndex::build(&d.cells);
        d
    }

    /// Positions every `isd * U(0.8, 1.2)` meters along the route with a
    /// lateral offset, starting at `phase` fractions of one ISD.
    fn place_towers(&self, route: &Polyline, isd: f64, phase: f64, rng: &mut DetRng) -> Vec<Point> {
        let mut out = Vec::new();
        let mut dist = phase * isd;
        while dist < route.length() {
            let on_route = route.point_at(dist);
            let heading = route.heading_at(dist);
            let side = if rng.chance(0.5) { 1.0 } else { -1.0 };
            let lateral = rng.range(20.0, 150.0) * side;
            out.push(on_route.displaced(heading + std::f64::consts::FRAC_PI_2, lateral));
            dist += isd * rng.range(0.8, 1.2);
        }
        out
    }

    fn new_tower(&mut self, pos: Point, co_located: bool) -> TowerId {
        let id = TowerId(self.towers.len() as u32);
        self.towers.push(Tower { id, pos, cells: Vec::new(), co_located });
        id
    }

    fn new_cell(
        &mut self,
        tower: TowerId,
        band: Band,
        lte_pci: &mut u16,
        nr_pci: &mut u16,
        seed: u64,
        azimuth: Option<f64>,
    ) -> CellId {
        let pci = if band.is_nr() {
            let p = Pci(*nr_pci);
            *nr_pci = 520 + (*nr_pci - 520 + 13) % 488; // NR PCIs in 520..1007
            p
        } else {
            let p = Pci(*lte_pci);
            *lte_pci = 11 + (*lte_pci - 11 + 7) % 493; // LTE PCIs in 11..503
            p
        };
        self.push_cell(tower, band, pci, seed, azimuth)
    }

    fn new_cell_with_pci(&mut self, tower: TowerId, band: Band, pci: Pci, seed: u64, azimuth: Option<f64>) -> CellId {
        self.push_cell(tower, band, pci, seed, azimuth)
    }

    fn push_cell(&mut self, tower: TowerId, band: Band, pci: Pci, seed: u64, azimuth: Option<f64>) -> CellId {
        let id = CellId(self.cells.len() as u32);
        let site = self.towers[tower.0 as usize].pos;
        let tx_power = match band.class() {
            BandClass::MmWave => 58.0, // EIRP with beamforming gain
            BandClass::Mid => 47.0,
            BandClass::Low => 46.0,
        };
        // open terrain shadows more gently and decorrelates more slowly
        let (corr_scale, sigma_scale) = match self.env {
            Environment::Freeway => (2.0, 0.7),
            Environment::Urban => (1.2, 0.9),
            Environment::UrbanDense => (1.0, 1.0),
        };
        let band_ix = self.bands.iter().position(|b| b.name == band.name).unwrap_or_else(|| {
            self.bands.push(band);
            self.bands.len() - 1
        });
        let cell = Cell {
            id,
            pci,
            band,
            band_ix: u8::try_from(band_ix).expect("more than 256 bands in one deployment"),
            tower,
            site,
            azimuth,
            propagation: Propagation::with_shadowing(
                hash2(seed, 0xCE11_0000 ^ id.0 as u64),
                band,
                tx_power,
                corr_scale,
                sigma_scale,
            ),
            noise_mw: dbm_to_mw(Cell::noise_floor_dbm(band)),
        };
        self.towers[tower.0 as usize].cells.push(id);
        if band.is_nr() {
            self.nr_ids.push(id);
        } else {
            self.lte_ids.push(id);
        }
        self.cells.push(cell);
        id
    }

    fn nearest_anchor(&self, pos: &Point, anchors: &[TowerId]) -> (TowerId, Pci) {
        let mut best = anchors[0];
        let mut best_d = f64::INFINITY;
        for &a in anchors {
            let d = self.towers[a.0 as usize].pos.distance_sq(pos);
            if d < best_d {
                best_d = d;
                best = a;
            }
        }
        // the anchor cell is the first cell of the anchor tower
        let pci = self.cells[self.towers[best.0 as usize].cells[0].0 as usize].pci;
        (best, pci)
    }

    /// Looks up a cell.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// The distinct bands of the deployment's cells, in order of first use;
    /// [`Cell::band_ix`] indexes this list.
    pub fn bands(&self) -> &[Band] {
        &self.bands
    }

    /// The x-extent of the spatial grid index as `(x0, columns, bin_m)`:
    /// column `c` (`0 <= c < columns`) covers world x in
    /// `[(x0 + c) * bin_m, (x0 + c + 1) * bin_m)`. This is the partitioning
    /// surface for spatial sharding — a shard owns a contiguous run of
    /// columns, so shard boundaries always align with grid-index bins.
    /// `columns` is at least 1 even for an empty deployment.
    pub fn grid_x_columns(&self) -> (i64, i64, f64) {
        (self.grid.x0, self.grid.w.max(1), GRID)
    }

    /// Cells whose site lies within `radius_m` of `pos`.
    pub fn cells_near(&self, pos: &Point, radius_m: f64) -> Vec<CellId> {
        let mut out = Vec::new();
        self.cells_near_into(pos, radius_m, &mut out);
        out
    }

    /// [`Deployment::cells_near`] into a caller-provided buffer (cleared
    /// first) — lets per-tick callers reuse one allocation across ticks.
    pub fn cells_near_into(&self, pos: &Point, radius_m: f64, out: &mut Vec<CellId>) {
        out.clear();
        for bin in self.bins_near(pos, radius_m) {
            out.extend(bin.iter().copied().filter(|&id| self.cell(id).site.distance(pos) <= radius_m));
        }
    }

    /// The grid bins that can hold a site within `radius_m` of `pos`, in
    /// scan order (columns ascending, then rows ascending within a column;
    /// ids in `CellId` order within a bin). Every radius scan walks these
    /// bins, so [`Deployment::cells_near`] and the radio snapshot see
    /// in-radius cells in one order. The square of bins around `pos` is
    /// clamped to the index's extent: the bins outside it are empty.
    pub(crate) fn bins_near(&self, pos: &Point, radius_m: f64) -> impl Iterator<Item = &[CellId]> + '_ {
        let r = (radius_m / GRID).ceil() as i64;
        let (cx, cy) = ((pos.x / GRID).floor() as i64, (pos.y / GRID).floor() as i64);
        let g = &self.grid;
        let (kx0, kx1) = (cx.saturating_sub(r).max(g.x0), cx.saturating_add(r).min(g.x0 + g.w - 1));
        let (ky0, ky1) = (cy.saturating_sub(r).max(g.y0), cy.saturating_add(r).min(g.y0 + g.h - 1));
        (kx0..=kx1).flat_map(move |kx| (ky0..=ky1).map(move |ky| g.bin(kx, ky)))
    }

    /// The strongest cells of a technology at `pos`/`t`, sorted by received
    /// power descending with [`rx_total_order`] (rx desc, then `CellId` asc —
    /// deterministic even under rx ties). `radius_m` bounds the search (use a
    /// few km).
    pub fn strongest(&self, pos: &Point, t: f64, nr: bool, radius_m: f64) -> Vec<(CellId, f64)> {
        let mut v: Vec<(CellId, f64)> = self
            .cells_near(pos, radius_m)
            .into_iter()
            .filter(|&id| self.cell(id).is_nr() == nr)
            .map(|id| (id, self.cell(id).rx_dbm(pos, t)))
            .collect();
        v.sort_unstable_by(rx_total_order);
        v
    }

    /// True when the area around `pos` is configured with the MCG-split
    /// ("dual") bearer rather than the SCG ("5G-only") bearer (§4.2).
    pub fn dual_mode_at(&self, pos: &Point) -> bool {
        self.bearer_field.sample_uniform_cell(pos) < self.dual_fraction
    }

    /// The eNB tower associated with a gNB tower (its X2 peer). Returns the
    /// tower itself when the cell is an eNB cell.
    pub fn assoc_enb_tower(&self, nr_cell: CellId) -> TowerId {
        let t = self.cell(nr_cell).tower;
        *self.gnb_assoc.get(&t).unwrap_or(&t)
    }

    /// True when two NR cells belong to the same gNB (same tower) —
    /// distinguishes SCG Modification from SCG Change.
    pub fn same_gnb(&self, a: CellId, b: CellId) -> bool {
        self.cell(a).tower == self.cell(b).tower
    }

    /// True when the gNB hosting `nr_cell` is co-located with an eNB.
    pub fn gnb_co_located(&self, nr_cell: CellId) -> bool {
        self.towers[self.cell(nr_cell).tower.0 as usize].co_located
    }

    /// All LTE cell ids.
    pub fn lte_cells(&self) -> &[CellId] {
        &self.lte_ids
    }

    /// All NR cell ids.
    pub fn nr_cells(&self) -> &[CellId] {
        &self.nr_ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_geo::routes;

    fn freeway() -> Polyline {
        routes::freeway_leg(Point::ORIGIN, 0.0, 20_000.0)
    }

    fn deployment(carrier: Carrier, env: Environment, arch: Arch) -> Deployment {
        let route = match env {
            Environment::Freeway => freeway(),
            _ => routes::rectangular_loop(Point::ORIGIN, 1500.0, 1000.0),
        };
        Deployment::generate(&route, carrier, env, arch, 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = deployment(Carrier::OpX, Environment::Freeway, Arch::Nsa);
        let b = deployment(Carrier::OpX, Environment::Freeway, Arch::Nsa);
        assert_eq!(a.cells.len(), b.cells.len());
        assert_eq!(a.towers.len(), b.towers.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.pci, y.pci);
            assert_eq!(x.site, y.site);
        }
    }

    #[test]
    fn lte_only_arch_has_no_nr() {
        let d = deployment(Carrier::OpX, Environment::Freeway, Arch::Lte);
        assert!(d.nr_cells().is_empty());
        assert!(!d.lte_cells().is_empty());
    }

    #[test]
    fn nsa_freeway_has_low_band_nr() {
        let d = deployment(Carrier::OpX, Environment::Freeway, Arch::Nsa);
        assert!(!d.nr_cells().is_empty());
        for &id in d.nr_cells() {
            assert_eq!(d.cell(id).band.class(), BandClass::Low);
        }
    }

    #[test]
    fn urban_dense_opx_has_mmwave_sectors() {
        let d = deployment(Carrier::OpX, Environment::UrbanDense, Arch::Nsa);
        let mm: Vec<_> = d.nr_cells().iter().filter(|&&id| d.cell(id).band.class() == BandClass::MmWave).collect();
        assert!(!mm.is_empty());
        // mmWave towers host 3 sectors per mmWave band
        let probe = d.cell(*mm[0]);
        let (t, band_name) = (probe.tower, probe.band.name);
        let sector_count = d.towers[t.0 as usize].cells.iter().filter(|&&c| d.cell(c).band.name == band_name).count();
        assert_eq!(sector_count, 3);
    }

    #[test]
    fn colocated_gnb_shares_pci_with_enb() {
        // with prob 0.36 and many towers OpX urban should have co-located sites
        let d = deployment(Carrier::OpX, Environment::Urban, Arch::Nsa);
        let mut found = false;
        for t in &d.towers {
            if t.co_located {
                let lte_pcis: Vec<Pci> =
                    t.cells.iter().filter(|&&c| !d.cell(c).is_nr()).map(|&c| d.cell(c).pci).collect();
                let nr_pcis: Vec<Pci> =
                    t.cells.iter().filter(|&&c| d.cell(c).is_nr()).map(|&c| d.cell(c).pci).collect();
                assert!(!lte_pcis.is_empty() && !nr_pcis.is_empty());
                assert!(
                    nr_pcis.iter().any(|p| lte_pcis.contains(p)),
                    "co-located tower should share a PCI: lte={lte_pcis:?} nr={nr_pcis:?}"
                );
                found = true;
            }
        }
        assert!(found, "expected at least one co-located tower");
    }

    #[test]
    fn towers_are_near_route() {
        let d = deployment(Carrier::OpY, Environment::Freeway, Arch::Nsa);
        for t in &d.towers {
            assert!(t.pos.y.abs() <= 160.0, "tower {t:?} too far from the (horizontal) route");
        }
    }

    #[test]
    fn strongest_returns_sorted() {
        let d = deployment(Carrier::OpX, Environment::Freeway, Arch::Nsa);
        let pos = Point::new(5000.0, 0.0);
        let s = d.strongest(&pos, 0.0, false, 6000.0);
        assert!(s.len() >= 2);
        for w in s.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn rx_total_order_breaks_ties_by_cell_id() {
        // equal rx values (including an exact 0.0 tie and a -0.0 vs 0.0 pair)
        // must order by CellId ascending, never by input position
        let mut v = vec![
            (CellId(7), -80.0),
            (CellId(2), -80.0),
            (CellId(9), -75.0),
            (CellId(5), 0.0),
            (CellId(4), -0.0),
            (CellId(1), -80.0),
        ];
        v.sort_unstable_by(rx_total_order);
        let ids: Vec<u32> = v.iter().map(|&(CellId(i), _)| i).collect();
        // 0.0 sorts above -0.0 under total_cmp; equal -80.0s order as 1,2,7
        assert_eq!(ids, vec![5, 4, 9, 1, 2, 7]);
        // reversed input produces the identical order: the comparator is total
        let mut w = v.clone();
        w.reverse();
        w.sort_unstable_by(rx_total_order);
        assert_eq!(v, w);
    }

    #[test]
    fn strongest_is_stable_under_shuffled_scan_order() {
        // strongest() must be a pure function of (pos, t): repeated calls and
        // the in_class variant agree on ordering for the shared prefix
        let d = deployment(Carrier::OpX, Environment::Freeway, Arch::Nsa);
        let pos = Point::new(7000.0, -30.0);
        let a = d.strongest(&pos, 2.5, true, 6000.0);
        let b = d.strongest(&pos, 2.5, true, 6000.0);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert_ne!(rx_total_order(&w[0], &w[1]), std::cmp::Ordering::Greater);
        }
    }

    #[test]
    fn cells_near_into_reuses_buffer_and_matches() {
        let d = deployment(Carrier::OpX, Environment::Freeway, Arch::Nsa);
        let mut buf = Vec::new();
        for i in 0..10 {
            let pos = Point::new(i as f64 * 1800.0, 40.0);
            d.cells_near_into(&pos, 3000.0, &mut buf);
            assert_eq!(buf, d.cells_near(&pos, 3000.0));
        }
    }

    #[test]
    fn cells_sit_at_their_tower_and_index_their_band() {
        // the radio snapshot computes geometry per tower and keys bands by
        // index, so both must stand in for the per-cell values exactly
        for (carrier, env, arch) in [
            (Carrier::OpX, Environment::UrbanDense, Arch::Nsa),
            (Carrier::OpY, Environment::Urban, Arch::Sa),
            (Carrier::OpZ, Environment::Freeway, Arch::Lte),
            (Carrier::OpY, Environment::Freeway, Arch::Nsa),
        ] {
            let d = deployment(carrier, env, arch);
            assert!(!d.cells.is_empty());
            for c in &d.cells {
                let tower = &d.towers[c.tower.0 as usize];
                assert_eq!((c.site.x.to_bits(), c.site.y.to_bits()), (tower.pos.x.to_bits(), tower.pos.y.to_bits()));
                assert_eq!(d.bands()[c.band_ix as usize].name, c.band.name, "cell {:?}", c.id);
            }
            for (i, b) in d.bands().iter().enumerate() {
                assert!(d.bands()[..i].iter().all(|o| o.name != b.name), "band {} listed twice", b.name);
            }
        }
    }

    #[test]
    fn cells_near_respects_radius() {
        let d = deployment(Carrier::OpX, Environment::Freeway, Arch::Nsa);
        let pos = Point::new(10_000.0, 0.0);
        for id in d.cells_near(&pos, 2000.0) {
            assert!(d.cell(id).site.distance(&pos) <= 2000.0);
        }
    }

    #[test]
    fn anchor_isd_smaller_than_nr_low_isd() {
        let isd = IsdPlan::for_env(Environment::Freeway);
        assert!(isd.lte_anchor < isd.nr_low / 1.5);
        let mm = IsdPlan::for_env(Environment::UrbanDense);
        assert!(mm.nr_mmwave < mm.nr_mid);
    }

    #[test]
    fn dual_mode_field_has_both_modes() {
        let d = deployment(Carrier::OpX, Environment::Urban, Arch::Nsa);
        let mut dual = 0;
        let mut only = 0;
        for i in 0..200 {
            let p = Point::new(i as f64 * 123.0, (i % 13) as f64 * 517.0);
            if d.dual_mode_at(&p) {
                dual += 1;
            } else {
                only += 1;
            }
        }
        assert!(dual > 10 && only > 10, "dual={dual} only={only}");
    }

    #[test]
    fn gnb_assoc_points_to_enb_tower() {
        let d = deployment(Carrier::OpX, Environment::Freeway, Arch::Nsa);
        for &nr in d.nr_cells() {
            let enb_tower = d.assoc_enb_tower(nr);
            let has_lte = d.towers[enb_tower.0 as usize].cells.iter().any(|&c| !d.cell(c).is_nr());
            assert!(has_lte, "assoc tower must host LTE cells");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use fiveg_geo::routes;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn deployment_structure_invariants(
            seed in 0u64..1000,
            km in 5.0..25.0f64,
        ) {
            let route = routes::freeway_leg(Point::ORIGIN, 0.1, km * 1000.0);
            let d = Deployment::generate(&route, Carrier::OpY, Environment::Freeway, Arch::Nsa, seed);
            // every cell's tower exists and lists it back
            for c in &d.cells {
                let t = &d.towers[c.tower.0 as usize];
                prop_assert!(t.cells.contains(&c.id));
                prop_assert_eq!(t.pos, c.site);
            }
            // LTE and NR id lists partition the cells
            prop_assert_eq!(d.lte_cells().len() + d.nr_cells().len(), d.cells.len());
            for &id in d.lte_cells() {
                prop_assert!(!d.cell(id).is_nr());
            }
            for &id in d.nr_cells() {
                prop_assert!(d.cell(id).is_nr());
            }
            // non-co-located NR cells never collide with LTE PCI space
            for &id in d.nr_cells() {
                let c = d.cell(id);
                if !d.towers[c.tower.0 as usize].co_located {
                    prop_assert!(c.pci.0 >= 520, "non-co-located NR PCI in LTE space: {:?}", c.pci);
                }
            }
            // gNB association always resolves to an eNB-hosting tower
            for &nr in d.nr_cells() {
                let t = d.assoc_enb_tower(nr);
                prop_assert!(d.towers[t.0 as usize].cells.iter().any(|&c| !d.cell(c).is_nr()));
            }
        }

        #[test]
        fn cells_near_matches_brute_force_scan(
            seed in 0u64..500,
            km in 2.0..15.0f64,
            radius in 300.0..9000.0f64,
            frac in 0.0..1.0f64,
            lateral in -400.0..400.0f64,
        ) {
            // the spatial index must return exactly the set a brute-force
            // distance scan over every cell returns — for random routes,
            // query positions (on and off the route) and radii
            let route = routes::freeway_leg(Point::ORIGIN, 0.07, km * 1000.0);
            let d = Deployment::generate(&route, Carrier::OpY, Environment::Freeway, Arch::Nsa, seed);
            let on_route = route.point_at(frac * route.length());
            let pos = Point::new(on_route.x, on_route.y + lateral);
            let mut fast = d.cells_near(&pos, radius);
            fast.sort_unstable();
            let brute: Vec<CellId> =
                d.cells.iter().filter(|c| c.site.distance(&pos) <= radius).map(|c| c.id).collect();
            prop_assert_eq!(fast, brute);
        }

        #[test]
        fn strongest_is_sorted_and_bounded(seed in 0u64..100) {
            let route = routes::freeway_leg(Point::ORIGIN, 0.0, 8_000.0);
            let d = Deployment::generate(&route, Carrier::OpX, Environment::Freeway, Arch::Nsa, seed);
            let pos = Point::new(4000.0, 50.0);
            for nr in [false, true] {
                let s = d.strongest(&pos, 1.0, nr, 5000.0);
                for w in s.windows(2) {
                    prop_assert!(w[0].1 >= w[1].1);
                }
                for (id, _) in &s {
                    prop_assert_eq!(d.cell(*id).is_nr(), nr);
                    prop_assert!(d.cell(*id).site.distance(&pos) <= 5000.0);
                }
            }
        }
    }
}
