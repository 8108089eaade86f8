//! Path loss, shadowing, fading and mmWave blockage.
//!
//! The coverage landscape of §6.1 ("higher frequency bands are more
//! attenuated than lower ones, thus reducing cell coverage") falls out of the
//! frequency term of the path-loss model below; the wild mmWave fluctuations
//! of §4.1 come from blockage plus fast fading.

use crate::band::{Band, BandClass};
use crate::noise::{
    LatticeCache, LatticePoint, NodeCache, NodePoint, SpatialNoise, TemporalNoise, TileMemo, UniformCache,
};
use fiveg_geo::Point;

/// Per-receiver memo for one cell's stochastic channel: the shadowing
/// corners (see [`LatticeCache`]) and the blockage cell value (see
/// [`UniformCache`]), 72 bytes. Pure memoization — a
/// cached [`Propagation::received_dbm_cached`] call is bit-identical to
/// [`Propagation::received_dbm`]. One cache belongs to one `Propagation`;
/// index caches by cell, never share across cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelCache {
    shadowing: LatticeCache,
    blockage: UniformCache,
}

/// Static path-loss model parameters for one link class.
#[derive(Debug, Clone, Copy)]
pub struct PathLoss {
    /// Fixed offset in dB (antenna heights, constants of the 3GPP formula).
    pub offset_db: f64,
    /// Distance exponent coefficient: `exp10 * log10(d_m)` dB.
    pub exp10: f64,
    /// Frequency coefficient: `freq10 * log10(f_ghz)` dB.
    pub freq10: f64,
}

impl PathLoss {
    /// 3GPP UMa-flavoured NLOS model used for sub-6 GHz links.
    pub const SUB6: PathLoss = PathLoss { offset_db: 28.0, exp10: 30.0, freq10: 20.0 };
    /// Steeper model for mmWave links (higher exponent; dense urban NLOS).
    pub const MMWAVE: PathLoss = PathLoss { offset_db: 32.0, exp10: 34.0, freq10: 20.0 };

    /// Median path loss in dB at `dist_m` meters for carrier `freq_mhz`.
    ///
    /// Distances under 10 m are clamped: the UE never sits on the antenna.
    pub fn loss_db(&self, dist_m: f64, freq_mhz: f64) -> f64 {
        let d = dist_m.max(10.0);
        self.offset_db + self.exp10 * d.log10() + self.freq10 * (freq_mhz / 1000.0).log10()
    }
}

/// A complete stochastic channel for one cell: median path loss plus
/// correlated shadowing, fast fading, and (for mmWave) blockage.
///
/// Everything is a pure function of (seed, position, time) — see
/// [`crate::noise`] — so the channel can be sampled in any order.
#[derive(Debug, Clone, Copy)]
pub struct Propagation {
    band: Band,
    model: PathLoss,
    /// Transmit power + antenna gain in dBm EIRP.
    tx_power_dbm: f64,
    shadowing: SpatialNoise,
    fading: TemporalNoise,
    /// Blockage field: cells of ~15 m; a fraction of cells attenuate hard.
    blockage: SpatialNoise,
    blockage_prob: f64,
    blockage_loss_db: f64,
    /// Precomputed `freq10 * log10(freq_mhz / 1000)` — the carrier frequency
    /// never changes after construction, so the hot path pays one add instead
    /// of a `log10` per sample. Same product as the inline form, so the loss
    /// is bit-identical.
    freq_term_db: f64,
}

impl Propagation {
    /// Builds the channel for a cell on `band`, seeded by the cell identity.
    ///
    /// Per-class defaults:
    /// * sub-6: 8 dB shadowing @ 50 m correlation, 2 dB fading, no blockage;
    /// * mmWave: 10 dB shadowing @ 20 m, 4 dB fading, 30% blockage cells at
    ///   20 dB extra loss — the source of the ~2 Gbps throughput swings the
    ///   paper reports (§6.2).
    pub fn new(seed: u64, band: Band, tx_power_dbm: f64) -> Self {
        Self::with_shadowing(seed, band, tx_power_dbm, 1.0, 1.0)
    }

    /// Like [`Propagation::new`], scaling the default shadowing correlation
    /// length and sigma — open terrain (freeways) has milder, slower-varying
    /// shadowing than dense urban cores.
    pub fn with_shadowing(seed: u64, band: Band, tx_power_dbm: f64, corr_scale: f64, sigma_scale: f64) -> Self {
        let (model, sh_len, sh_sigma, fad_sigma, b_prob, b_loss) = match band.class() {
            BandClass::MmWave => (PathLoss::MMWAVE, 20.0, 10.0, 4.0, 0.30, 20.0),
            _ => (PathLoss::SUB6, 50.0, 8.0, 2.0, 0.0, 0.0),
        };
        let (sh_len, sh_sigma) = (sh_len * corr_scale, sh_sigma * sigma_scale);
        Self {
            band,
            model,
            tx_power_dbm,
            shadowing: SpatialNoise::new(seed ^ 0x5AAD_0001, sh_len, sh_sigma),
            fading: TemporalNoise::new(seed ^ 0xFAD0_0001, 0.05, fad_sigma),
            blockage: SpatialNoise::new(seed ^ 0xB10C_0001, 15.0, 1.0),
            blockage_prob: b_prob,
            blockage_loss_db: b_loss,
            freq_term_db: model.freq10 * (band.freq_mhz / 1000.0).log10(),
        }
    }

    /// Median path loss at `dist_m` with the precomputed frequency term;
    /// bit-identical to `model.loss_db(dist_m, band.freq_mhz)`.
    #[inline]
    fn path_loss_db(&self, dist_m: f64) -> f64 {
        self.path_loss_at(dist_m.max(10.0).log10())
    }

    /// [`Propagation::path_loss_db`] from the precomputed distance term
    /// `log_d` (see [`Propagation::log_distance`]).
    #[inline]
    fn path_loss_at(&self, log_d: f64) -> f64 {
        self.model.offset_db + self.model.exp10 * log_d + self.freq_term_db
    }

    /// The distance term of the path loss: `log10` of the link distance,
    /// clamped to 10 m like [`PathLoss::loss_db`]. It depends on the site
    /// only, so co-sited cells can share it.
    pub fn log_distance(site: &Point, ue: &Point) -> f64 {
        Self::log_distance_m(site.distance(ue))
    }

    /// [`Propagation::log_distance`] of a link `dist_m` meters long, for a
    /// caller that already holds the distance.
    #[inline]
    pub fn log_distance_m(dist_m: f64) -> f64 {
        dist_m.max(10.0).log10()
    }

    /// The band this channel carries.
    pub fn band(&self) -> Band {
        self.band
    }

    /// Received power (RSRP-like) in dBm at `ue` position and time `t`,
    /// for a cell located at `site`.
    pub fn received_dbm(&self, site: &Point, ue: &Point, t: f64) -> f64 {
        let mut scratch = ChannelCache::default();
        self.received_dbm_cached(site, ue, t, &mut scratch)
    }

    /// [`Propagation::received_dbm`] with the noise-lattice hashes memoized
    /// in `cache` — the per-tick snapshot's fast path. Bit-identical; `cache`
    /// must be dedicated to this cell's channel (see [`ChannelCache`]).
    pub fn received_dbm_cached(&self, site: &Point, ue: &Point, t: f64, cache: &mut ChannelCache) -> f64 {
        let prefix = self.prefix_dbm_cached(site, ue, cache);
        Self::received_from_parts(prefix, self.fading_db(t), self.blockage_db_cached(ue, cache))
    }

    /// [`Propagation::received_dbm_cached`] with the fast-fading node
    /// gaussians additionally memoized in `nodes` — bit-identical (the node
    /// memo is exact, see [`NodeCache`]). `nodes` must be dedicated to this
    /// cell's channel, like `cache`. Fading nodes are pure functions of
    /// time, so unlike the position-keyed lattice memo they are shared by
    /// every receiver that samples the cell in the same time span — the
    /// sleep planner's dominant reuse.
    pub fn received_dbm_memo(
        &self,
        site: &Point,
        ue: &Point,
        t: f64,
        cache: &mut ChannelCache,
        nodes: &mut NodeCache,
    ) -> f64 {
        let prefix = self.prefix_dbm_cached(site, ue, cache);
        Self::received_from_parts(prefix, self.fading.sample_cached(t, nodes), self.blockage_db_cached(ue, cache))
    }

    /// [`Propagation::prefix_dbm_located`] with the distance term and the
    /// lattice location computed here.
    fn prefix_dbm_cached(&self, site: &Point, ue: &Point, cache: &mut ChannelCache) -> f64 {
        let at = LatticePoint::locate(ue, self.shadowing.corr_len());
        self.prefix_dbm_located(Self::log_distance(site, ue), &at, cache, &mut 0)
    }

    /// The shadowing lattice spacing, meters: where a receiver locates
    /// itself for [`Propagation::prefix_dbm_located`].
    pub fn shadowing_spacing(&self) -> f64 {
        self.shadowing.corr_len()
    }

    /// The blockage lattice spacing, meters: where a receiver locates
    /// itself for [`Propagation::blockage_db_located`].
    pub fn blockage_spacing(&self) -> f64 {
        self.blockage.corr_len()
    }

    /// The position-only part of the received power at the receiver,
    /// `(tx − PL(d)) + shadowing` in dBm, from the precomputed distance term
    /// `log_d = Propagation::log_distance(site, ue)` and the receiver `at`
    /// located on [`Propagation::shadowing_spacing`], adding to `hashed` the
    /// shadowing corner gaussians the memo hashed (0 when `at` stays in the
    /// memo's lattice cell, 2 on a one-cell edge step, else 4).
    /// [`Propagation::received_from_parts`] completes it with the
    /// time-varying fading and the blockage loss.
    #[inline]
    pub fn prefix_dbm_located(
        &self,
        log_d: f64,
        at: &LatticePoint,
        cache: &mut ChannelCache,
        hashed: &mut usize,
    ) -> f64 {
        self.tx_power_dbm - self.path_loss_at(log_d) + self.shadowing.sample_located(at, &mut cache.shadowing, hashed)
    }

    /// Blockage loss at `ue` (dB, position-only): the full loss inside a
    /// blocked lattice cell, else exactly 0.
    pub fn blockage_db_cached(&self, ue: &Point, cache: &mut ChannelCache) -> f64 {
        self.blockage_db_from(|| self.blockage.sample_uniform_cell_cached(ue, &mut cache.blockage))
    }

    /// [`Propagation::blockage_db_cached`] at the receiver `at` located on
    /// [`Propagation::blockage_spacing`].
    #[inline]
    pub fn blockage_db_located(&self, at: &LatticePoint, cache: &mut ChannelCache) -> f64 {
        self.blockage_db_from(|| self.blockage.sample_uniform_located(at, &mut cache.blockage))
    }

    /// The blockage loss given the receiver's blockage-cell uniform, which
    /// is drawn only on a channel that can block at all.
    #[inline]
    fn blockage_db_from(&self, uniform: impl FnOnce() -> f64) -> f64 {
        if self.blockage_prob > 0.0 && uniform() < self.blockage_prob {
            self.blockage_loss_db
        } else {
            0.0
        }
    }

    /// The fast-fading term at time `t`, dB.
    pub fn fading_db(&self, t: f64) -> f64 {
        self.fading.sample(t)
    }

    /// The fading correlation time, seconds: the clock a receiver locates
    /// the current time on for [`Propagation::fading_db_located`].
    pub fn fading_corr_s(&self) -> f64 {
        self.fading.corr_s()
    }

    /// [`Propagation::fading_db`] at the time `at` locates on
    /// [`Propagation::fading_corr_s`]; bit-identical.
    #[inline]
    pub fn fading_db_located(&self, at: &NodePoint) -> f64 {
        self.fading.sample_located(at)
    }

    /// Assembles a received power from its parts: `(prefix + fading) −
    /// blockage`. The one definition of the operation order — every
    /// `received_dbm*` goes through it. Subtracting an exact 0 is the
    /// identity, so an unblocked link equals `prefix + fading` bit for bit.
    /// IEEE rounding is monotone, so the result is nondecreasing in `fading`:
    /// passing an upper bound of the fading term yields an upper bound of
    /// the received power.
    #[inline]
    pub fn received_from_parts(prefix_dbm: f64, fading_db: f64, blockage_db: f64) -> f64 {
        prefix_dbm + fading_db - blockage_db
    }

    /// Median (no shadowing/fading/blockage) received power at distance `d`.
    pub fn median_received_dbm(&self, dist_m: f64) -> f64 {
        self.tx_power_dbm - self.path_loss_db(dist_m)
    }

    /// Hard bound on `|fading|` at any time — a cheap screen that avoids the
    /// per-node scan when the link's margin is already decisive.
    pub fn fading_bound(&self) -> f64 {
        self.fading.global_bound()
    }

    /// Upper bound on the fading term at exactly the time `at` locates (on
    /// [`Propagation::fading_corr_s`]) from the two interpolated nodes' `u1`
    /// hashes alone (four `splitmix64` rounds, no `ln`, `cos` or `u2` hash),
    /// never above [`Propagation::fading_bound`]. A node whose `u1` hash has
    /// `lz` leading zeros has `u1 >= 2^-(lz+1)`, so its Box–Muller radius is
    /// at most `sqrt(2 (lz+1) ln 2)`; the ceiling is `sigma` times that
    /// radius for the larger `lz`, from a fixed table rounded up (see
    /// [`TemporalNoise::ceiling_at`]). Callers add
    /// [`BOUND_EPS_DB`](crate::BOUND_EPS_DB) for the rounding of the
    /// two-node blend.
    #[inline]
    pub fn fading_ceiling_located(&self, at: &NodePoint) -> f64 {
        self.fading.ceiling_located(at)
    }

    /// Upper bound on the fading term at exactly time `t`, from the two
    /// node gaussians the sample interpolates (memoized in `nodes`) — see
    /// [`TemporalNoise::sup_at_cached`].
    pub fn fading_sup_at(&self, t: f64, nodes: &mut NodeCache) -> f64 {
        self.fading.sup_at_cached(t, nodes)
    }

    /// Exact supremum of the fading term over `[t0, t1]`, from every node
    /// gaussian the window touches (memoized in `nodes`) — see
    /// [`TemporalNoise::sup_over_cached`].
    pub fn fading_sup_over(&self, t0: f64, t1: f64, nodes: &mut NodeCache) -> f64 {
        self.fading.sup_over_cached(t0, t1, nodes)
    }

    /// Sound upper bound on the shadowing term anywhere within `reach_m`
    /// meters (axis-aligned box) of `ue`, from the tile suprema memoized in
    /// `tiles` — see [`SpatialNoise::sup_over_box`]. It costs a few memo
    /// lookups once the box's tiles are built. The memo must be dedicated to
    /// this channel.
    pub fn shadow_sup_over_box(&self, ue: &Point, reach_m: f64, tiles: &mut TileMemo) -> f64 {
        self.shadowing.sup_over_box(ue, reach_m, tiles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::catalog::*;

    #[test]
    fn loss_grows_with_distance() {
        let m = PathLoss::SUB6;
        assert!(m.loss_db(100.0, 600.0) < m.loss_db(1000.0, 600.0));
    }

    #[test]
    fn loss_grows_with_frequency() {
        let m = PathLoss::SUB6;
        assert!(m.loss_db(500.0, 600.0) < m.loss_db(500.0, 2500.0));
        assert!(m.loss_db(500.0, 2500.0) < PathLoss::MMWAVE.loss_db(500.0, 39000.0));
    }

    #[test]
    fn distance_is_clamped_near_site() {
        let m = PathLoss::SUB6;
        assert_eq!(m.loss_db(0.0, 600.0), m.loss_db(10.0, 600.0));
    }

    #[test]
    fn median_power_ordering_low_mid_mmwave() {
        // The paper's coverage ordering (§6.1): low > mid > mmWave, here as
        // the median received power at a fixed 500 m distance.
        let low = Propagation::new(1, N71, 46.0).median_received_dbm(500.0);
        let mid = Propagation::new(2, N41, 46.0).median_received_dbm(500.0);
        let mm = Propagation::new(3, N260, 55.0).median_received_dbm(500.0);
        assert!(low > mid, "low {low} should out-range mid {mid}");
        assert!(mid > mm, "mid {mid} should out-range mmWave {mm}");
    }

    #[test]
    fn received_power_is_deterministic() {
        let p = Propagation::new(5, N71, 46.0);
        let site = Point::ORIGIN;
        let ue = Point::new(400.0, 120.0);
        assert_eq!(p.received_dbm(&site, &ue, 3.2), p.received_dbm(&site, &ue, 3.2));
    }

    #[test]
    fn received_power_declines_with_distance_on_average() {
        let p = Propagation::new(6, N71, 46.0);
        let site = Point::ORIGIN;
        let mut near = 0.0;
        let mut far = 0.0;
        for i in 0..100 {
            let bearing = i as f64 * 0.063;
            near += p.received_dbm(&site, &site.displaced(bearing, 200.0), 0.0);
            far += p.received_dbm(&site, &site.displaced(bearing, 2000.0), 0.0);
        }
        assert!(near / 100.0 > far / 100.0 + 10.0);
    }

    #[test]
    fn cached_received_power_is_bit_identical() {
        // one cache per cell, reused along a route — both band classes so the
        // blockage branch is exercised
        for (seed, band, tx) in [(41u64, N71, 46.0), (42, N260, 55.0)] {
            let p = Propagation::new(seed, band, tx);
            let site = Point::ORIGIN;
            let mut cache = ChannelCache::default();
            for i in 0..2000 {
                let ue = Point::new(30.0 + i as f64 * 0.3, (i as f64 * 0.07).cos() * 25.0);
                let t = i as f64 * 0.1;
                assert_eq!(
                    p.received_dbm_cached(&site, &ue, t, &mut cache),
                    p.received_dbm(&site, &ue, t),
                    "band {} diverged at step {i}",
                    band.name
                );
            }
        }
    }

    #[test]
    fn mmwave_experiences_blockage() {
        let p = Propagation::new(7, N260, 55.0);
        let site = Point::ORIGIN;
        let mut blocked = 0;
        let n = 400;
        for i in 0..n {
            let ue = Point::new(100.0 + i as f64 * 16.0, 40.0);
            let rx = p.received_dbm(&site, &ue, 0.0);
            let median = p.median_received_dbm(site.distance(&ue));
            if rx < median - 15.0 {
                blocked += 1;
            }
        }
        // ~30% of positions should be blockage-attenuated (loosely)
        assert!(blocked > n / 10, "expected noticeable blockage, got {blocked}/{n}");
    }

    #[test]
    fn sub6_has_no_blockage() {
        let p = Propagation::new(8, N71, 46.0);
        let site = Point::ORIGIN;
        let mut worst = 0.0f64;
        for i in 0..400 {
            let ue = Point::new(100.0 + i as f64 * 16.0, 40.0);
            let rx = p.received_dbm(&site, &ue, 0.0);
            let median = p.median_received_dbm(site.distance(&ue));
            worst = worst.max(median - rx);
        }
        // shadowing+fading only: deficits stay within ~5 sigma
        assert!(worst < 45.0, "unexpected deep fade {worst} dB");
    }
}
