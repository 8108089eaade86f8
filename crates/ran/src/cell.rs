//! Cells and towers.
//!
//! "Cellular towers can manage multiple cells (antennas), each of which
//! covers a geographical area. PCI is the identifier used for cells at the
//! physical layer." (§2)

use fiveg_geo::Point;
use fiveg_radio::{Band, ChannelCache, NodeCache, Propagation, NOISE_FLOOR_DBM};
use fiveg_rrc::Pci;
use std::f64::consts::{PI, TAU};

/// Dense index of a cell within a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

/// Dense index of a physical tower within a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TowerId(pub u32);

/// One cell (antenna) of a tower.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Deployment-wide identity.
    pub id: CellId,
    /// Physical-layer identity reported to the UE.
    pub pci: Pci,
    /// Carrier band (decides LTE vs NR and the band class).
    pub band: Band,
    /// Index of `band` in [`Deployment::bands`](crate::Deployment::bands):
    /// two cells share a band exactly when their indices are equal.
    pub band_ix: u8,
    /// The hosting tower.
    pub tower: TowerId,
    /// Antenna position (the tower's position).
    pub site: Point,
    /// Sector boresight in radians (ccw from east); `None` = omni.
    /// Multi-sector towers separate their co-channel sectors with the
    /// antenna pattern — without it co-sited sectors would interfere at
    /// ~0 dB SINR, which real deployments never exhibit.
    pub azimuth: Option<f64>,
    /// The stochastic channel from this cell to any UE position/time.
    pub propagation: Propagation,
    /// Receiver noise floor over this cell's bandwidth in milliwatts,
    /// `dbm_to_mw(Cell::noise_floor_dbm(band))` — precomputed at
    /// deployment-generation time so the per-tick RRS path skips the
    /// log-bandwidth term and the conversion.
    pub noise_mw: f64,
}

/// 3GPP-style sector-pattern half-power beamwidth, radians (65°).
const SECTOR_BEAMWIDTH: f64 = 65.0 * std::f64::consts::PI / 180.0;
/// Front-to-back attenuation limit, dB.
const SECTOR_MAX_ATT: f64 = 22.0;

impl Cell {
    /// True for 5G-NR cells (gNB-managed).
    pub fn is_nr(&self) -> bool {
        self.band.is_nr()
    }

    /// Directional antenna-pattern loss toward `ue`, dB (0 for omni cells).
    pub fn pattern_loss_db(&self, ue: &Point) -> f64 {
        match self.azimuth {
            None => 0.0,
            Some(_) => self.pattern_loss_toward(self.site.bearing(ue)),
        }
    }

    /// [`Cell::pattern_loss_db`] toward a UE at `bearing` from the site
    /// (`site.bearing(ue)`), so co-sited cells can share one bearing.
    ///
    /// The off-boresight angle folds `x = |bearing − boresight|` into
    /// `[0, TAU)` without `fmod` where it can: `x` below `TAU` is kept,
    /// `x − TAU` is taken below `2·TAU` and `x − 2·TAU` below `3·TAU`. By
    /// Sterbenz's lemma (`y/2 ≤ x ≤ 2y` makes `x − y` exact) each
    /// subtraction is exact, and so is `fmod`, so the fold equals
    /// `x % TAU` bit for bit. Bearings lie in `[−π, π]` and the generator's
    /// azimuths in `[0, 10π/3)`, so `x < 13π/3 < 3·TAU`; `%` remains the
    /// fallback for anything larger.
    #[inline]
    pub fn pattern_loss_toward(&self, bearing: f64) -> f64 {
        match self.azimuth {
            None => 0.0,
            Some(boresight) => sector_loss(off_boresight(bearing, boresight)),
        }
    }

    /// Lower bound of [`Cell::pattern_loss_db`] over every position within
    /// `reach_m` meters of `ue` (0 for omni cells).
    ///
    /// The bearing from the site to any point of the disc deviates from the
    /// bearing to its center by at most `asin(reach / dist)` — the half-angle
    /// of the tangent cone — so the off-boresight angle `delta` is at least
    /// `delta0 - dtheta`, and the pattern loss (monotone in `delta`) at least
    /// its value there. When the disc contains the site the cone is the full
    /// circle and the floor is 0.
    pub fn pattern_loss_floor(&self, ue: &Point, reach_m: f64) -> f64 {
        let boresight = match self.azimuth {
            None => return 0.0,
            Some(b) => b,
        };
        let dist = self.site.distance(ue);
        if reach_m >= dist {
            return 0.0;
        }
        let dtheta = (reach_m / dist).asin();
        let delta0 = off_boresight(self.site.bearing(ue), boresight);
        sector_loss((delta0 - dtheta).max(0.0))
    }

    /// Received power at `ue` and time `t`, in dBm.
    pub fn rx_dbm(&self, ue: &Point, t: f64) -> f64 {
        self.propagation.received_dbm(&self.site, ue, t) - self.pattern_loss_db(ue)
    }

    /// [`Cell::rx_dbm`] with the channel's noise-lattice hashes memoized in
    /// `cache` and the fast-fading node gaussians in `nodes` —
    /// bit-identical; both memos must be dedicated to this cell.
    pub fn rx_dbm_memo(&self, ue: &Point, t: f64, cache: &mut ChannelCache, nodes: &mut NodeCache) -> f64 {
        self.propagation.received_dbm_memo(&self.site, ue, t, cache, nodes) - self.pattern_loss_db(ue)
    }

    /// UE noise floor for a channel of `band`'s bandwidth, dBm: the ~20 MHz
    /// reference floor scaled by `10 log10(bw / 20)`.
    pub fn noise_floor_dbm(band: Band) -> f64 {
        NOISE_FLOOR_DBM + 10.0 * (band.bandwidth_mhz / 20.0).log10()
    }
}

/// `x % TAU` for `x ≥ 0`, by the exact subtractions of
/// [`Cell::pattern_loss_toward`] below `3·TAU`.
#[inline]
fn fold_tau(x: f64) -> f64 {
    if x < TAU {
        x
    } else if x < 2.0 * TAU {
        x - TAU
    } else if x < 3.0 * TAU {
        x - 2.0 * TAU
    } else {
        x % TAU
    }
}

/// The angle in `[0, π]` between `bearing` and `boresight`.
#[inline]
fn off_boresight(bearing: f64, boresight: f64) -> f64 {
    let delta = fold_tau((bearing - boresight).abs());
    if delta > PI {
        TAU - delta
    } else {
        delta
    }
}

/// Sector-pattern loss at `delta` radians off boresight, dB.
#[inline]
fn sector_loss(delta: f64) -> f64 {
    (12.0 * (delta / SECTOR_BEAMWIDTH).powi(2)).min(SECTOR_MAX_ATT)
}

/// A physical tower hosting one or more cells.
///
/// NSA towers may host both an eNB (LTE cells) and a gNB (NR cells) — the
/// "co-located" case of §6.3 — or only one of the two.
#[derive(Debug, Clone)]
pub struct Tower {
    /// Deployment-wide identity.
    pub id: TowerId,
    /// Ground position.
    pub pos: Point,
    /// Cells hosted here.
    pub cells: Vec<CellId>,
    /// True when this tower hosts both eNB and gNB hardware.
    pub co_located: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_radio::band::catalog::{B2, N71};

    fn cell(band: Band) -> Cell {
        Cell {
            id: CellId(0),
            pci: Pci(100),
            band,
            band_ix: 0,
            tower: TowerId(0),
            site: Point::ORIGIN,
            azimuth: None,
            propagation: Propagation::new(1, band, 46.0),
            noise_mw: fiveg_radio::rrs::dbm_to_mw(Cell::noise_floor_dbm(band)),
        }
    }

    #[test]
    fn nr_detection() {
        assert!(cell(N71).is_nr());
        assert!(!cell(B2).is_nr());
    }

    #[test]
    fn rx_declines_with_distance() {
        let c = cell(N71);
        let near = c.rx_dbm(&Point::new(100.0, 0.0), 0.0);
        let far = c.rx_dbm(&Point::new(5000.0, 0.0), 0.0);
        assert!(near > far);
    }

    #[test]
    fn sector_pattern_separates_directions() {
        let mut c = cell(N71);
        c.azimuth = Some(0.0); // pointing east
        let front = Point::new(500.0, 0.0);
        let back = Point::new(-500.0, 0.0);
        let side = Point::new(0.0, 500.0);
        assert_eq!(c.pattern_loss_db(&front), 0.0);
        assert_eq!(c.pattern_loss_db(&back), 22.0);
        let s = c.pattern_loss_db(&side);
        assert!(s > 5.0 && s <= 22.0, "{s}");
        // rx applies the pattern: same point with/without azimuth differs
        // by exactly the pattern loss (channel draws are identical)
        let mut omni = c.clone();
        omni.azimuth = None;
        assert!((omni.rx_dbm(&back, 0.0) - c.rx_dbm(&back, 0.0) - 22.0).abs() < 1e-9);
    }

    #[test]
    fn pattern_floor_covers_every_disc_position() {
        let mut c = cell(N71);
        c.azimuth = Some(1.1);
        for k in 0..80 {
            let ue = Point::new((k as f64 * 0.41).cos() * 900.0, (k as f64 * 0.73).sin() * 900.0 + 50.0);
            let reach = 5.0 + (k % 11) as f64 * 30.0;
            let lo = c.pattern_loss_floor(&ue, reach);
            for i in 0..24 {
                let (th, r) = (i as f64 * 0.9, (i % 4) as f64 / 3.0 * reach);
                let q = Point::new(ue.x + r * th.cos(), ue.y + r * th.sin());
                let l = c.pattern_loss_db(&q);
                assert!(l >= lo - 1e-9, "loss {l} below floor {lo} (k={k}, i={i})");
            }
        }
        // omni stays exactly zero
        c.azimuth = None;
        assert_eq!(c.pattern_loss_floor(&Point::new(100.0, 0.0), 50.0), 0.0);
    }

    #[test]
    fn planner_bound_dominates_received_power() {
        // the sleep planner's per-cell bound over a travel disc and a time
        // window: median at the closest distance + tile shadowing sup +
        // window fading sup − pattern floor, summed in the planner's order.
        // Sectorized sub-6 and mmWave cells, so blocked links and
        // back-sector positions are both sampled in bulk; with and without
        // shadowing, since the tile sup's slack can hide an unsound term.
        use fiveg_radio::band::catalog::N260;
        use fiveg_radio::{DetRng, TileMemo, BOUND_EPS_DB};
        let mut rng = DetRng::new(0x5EC7_0B0D);
        let (mut samples, mut blocked, mut back) = (0, 0, 0);
        for (seed, band, tx, far_m, reach_m, sigma) in [
            (91u64, N71, 46.0, 2000.0, 200.0, 1.0),
            (92, N260, 55.0, 400.0, 60.0, 1.0),
            (93, N71, 46.0, 2000.0, 200.0, 0.0),
            (94, N260, 55.0, 400.0, 60.0, 0.0),
        ] {
            let mut c = cell(band);
            c.propagation = Propagation::with_shadowing(seed, band, tx, 1.0, sigma);
            c.azimuth = Some(rng.range(0.0, std::f64::consts::TAU));
            let p = c.propagation;
            let (mut tiles, mut nodes) = (TileMemo::default(), NodeCache::default());
            for k in 0..300 {
                let ue = c.site.displaced(rng.range(0.0, std::f64::consts::TAU), rng.range(15.0, far_m));
                let reach = if k % 5 == 0 { 0.0 } else { rng.range(0.0, reach_m) };
                let t0 = rng.range(0.0, 100.0);
                let t1 = t0 + rng.range(0.0, 12.6);
                let base = p.median_received_dbm(c.site.distance(&ue) - reach)
                    + p.shadow_sup_over_box(&ue, reach, &mut tiles)
                    - c.pattern_loss_floor(&ue, reach);
                let up = base + p.fading_sup_over(t0, t1, &mut nodes);
                for _ in 0..10 {
                    // a point of the disc (a path of length `reach` cannot
                    // leave it) at a time of the window
                    let q = ue.displaced(rng.range(0.0, std::f64::consts::TAU), reach * rng.uniform().sqrt());
                    let t = rng.range(t0, t1);
                    let rx = c.rx_dbm(&q, t);
                    assert!(rx <= up + BOUND_EPS_DB, "rx {rx} above bound {up} ({} k={k}, q={q:?}, t={t})", band.name);
                    samples += 1;
                    blocked += (p.blockage_db_cached(&q, &mut ChannelCache::default()) > 0.0) as u32;
                    back += (c.pattern_loss_db(&q) >= 12.0) as u32; // ≥ one beamwidth off boresight
                }
            }
        }
        assert!(
            samples >= 10_000 && blocked >= 1_000 && back >= 1_000,
            "{samples} samples, {blocked} blocked, {back} back"
        );
    }

    #[test]
    fn tau_fold_equals_fmod_bit_for_bit() {
        // bearings over [−π, π] (ends included) against boresights over the
        // generator's [0, 10π/3): |bearing − boresight| reaches past 2·TAU
        let mut c = cell(N71);
        let (mut second, mut third) = (0, 0);
        for i in 0..=720 {
            let bearing = -PI + i as f64 * (TAU / 720.0);
            for j in 0..600 {
                let boresight = j as f64 * (10.0 * PI / 3.0 / 600.0);
                let x = (bearing - boresight).abs();
                assert_eq!(fold_tau(x).to_bits(), (x % TAU).to_bits(), "x = {x}");
                c.azimuth = Some(boresight);
                let mut delta = x % TAU;
                if delta > PI {
                    delta = TAU - delta;
                }
                let want = (12.0 * (delta / SECTOR_BEAMWIDTH).powi(2)).min(SECTOR_MAX_ATT);
                assert_eq!(c.pattern_loss_toward(bearing).to_bits(), want.to_bits(), "{bearing} vs {boresight}");
                second += usize::from((TAU..2.0 * TAU).contains(&x));
                third += usize::from(x >= 2.0 * TAU);
            }
            for x in [bearing.abs() + 2.0 * TAU, bearing.abs() + 3.0 * TAU, 1e3 + bearing, 1e300] {
                assert_eq!(fold_tau(x).to_bits(), (x % TAU).to_bits(), "x = {x}");
            }
        }
        assert!(second >= 10_000 && third >= 1_000, "{second} in [TAU, 2·TAU), {third} at or past 2·TAU");
        // the boundaries themselves and the largest value below each
        for x in [0.0, TAU, 2.0 * TAU, 3.0 * TAU] {
            let below = f64::from_bits(x.to_bits().saturating_sub(1));
            assert_eq!(fold_tau(x).to_bits(), (x % TAU).to_bits(), "x = {x}");
            assert_eq!(fold_tau(below).to_bits(), (below % TAU).to_bits(), "x = {below}");
        }
        assert!(fold_tau(f64::NAN).is_nan());
    }

    #[test]
    fn omni_has_no_pattern_loss() {
        let c = cell(B2);
        assert_eq!(c.pattern_loss_db(&Point::new(-100.0, 37.0)), 0.0);
    }

    use fiveg_radio::Band;
}
