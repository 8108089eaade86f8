//! Deterministic correlated noise fields.
//!
//! Real drive-test signal traces show two stochastic layers on top of path
//! loss: **shadowing** (log-normal, spatially correlated over tens of
//! meters — buildings, terrain) and **fast fading** (temporally correlated
//! over tens of milliseconds). Reproducing them with mutable per-link RNG
//! state would make signal strength depend on evaluation order; instead both
//! are *pure functions* of (seed, position/time) built from hash-based value
//! noise, so any component can query the channel at any point and always get
//! the same answer. This is what makes the whole simulation deterministic
//! and replayable.

use fiveg_geo::Point;
use std::collections::HashMap;

/// SplitMix64: the 64-bit finalizer used as our lattice hash.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hashes a tuple of integers into a uniform f64 in [0, 1).
#[inline]
fn hash_uniform(seed: u64, a: i64, b: i64, salt: u64) -> f64 {
    let mut h = splitmix64(seed ^ salt);
    h = splitmix64(h ^ (a as u64).wrapping_mul(0x9E3779B97F4A7C15));
    h = splitmix64(h ^ (b as u64).wrapping_mul(0xC2B2AE3D27D4EB4F));
    // 53 random mantissa bits -> uniform in [0,1)
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Standard normal value at a lattice point, via Box–Muller on two hashes.
#[inline]
fn hash_gaussian(seed: u64, a: i64, b: i64) -> f64 {
    let u1 = hash_uniform(seed, a, b, 0x5bf0_3635).max(1e-12);
    let u2 = hash_uniform(seed, a, b, 0x94d0_49bb);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Smoothstep interpolation weight.
#[inline]
fn smooth(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// Memoized lattice corners of one [`SpatialNoise`] field.
///
/// The four corner gaussians of the bilinear blend depend only on which
/// lattice cell the query point falls in, and a UE moving at vehicular speed
/// stays inside one shadowing lattice cell (tens of meters) for many
/// consecutive ticks. A cache holds the corners of the last lattice cell
/// visited; [`SpatialNoise::sample_cached`] recomputes them only when the
/// query crosses into a new cell. Values are memoized, never approximated:
/// a cached sample is bit-identical to [`SpatialNoise::sample`].
///
/// A cache is only valid for the *one* field it has been fed to — reusing it
/// across different `SpatialNoise` instances returns wrong values whenever
/// the lattice keys collide. Keep one cache per (field, receiver) pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatticeCache {
    key: Option<(i64, i64)>,
    v00: f64,
    v10: f64,
    v01: f64,
    v11: f64,
    /// Separate key/value pair for [`SpatialNoise::sample_uniform_cell_cached`]
    /// (blockage lookups use a different salt and no interpolation).
    ukey: Option<(i64, i64)>,
    uval: f64,
}

/// Lattice corners per side of one [`TileMemo`] tile. A constant of the
/// kernel: on the 100 m lattice of freeway sub-6 cells a tile spans 800 m,
/// on the 20 m lattice of dense-urban mmWave cells 160 m — small against
/// the region a planner queries, large enough that one travel box touches
/// only a handful of tiles.
pub const TILE_CORNERS: i64 = 8;

/// Lazily built tile suprema of one [`SpatialNoise`] field, for
/// [`SpatialNoise::sup_over_box`]: the maximum corner gaussian of every
/// [`TILE_CORNERS`]² tile of lattice corners queried so far, keyed by tile.
/// Only tiles a query touches are ever hashed, so the memo's cost follows
/// the region actually queried rather than the field's whole extent.
///
/// Like [`LatticeCache`], a memo belongs to *one* field — reusing it across
/// different `SpatialNoise` instances returns wrong values whenever tile
/// keys collide. Keep one memo per field.
#[derive(Debug, Clone, Default)]
pub struct TileMemo {
    tiles: HashMap<(i64, i64), f64>,
}

impl TileMemo {
    /// Tiles built (hashed) so far.
    pub fn built(&self) -> usize {
        self.tiles.len()
    }
}

/// Spatially correlated Gaussian field with a given correlation length,
/// standard deviation and zero mean.
///
/// Implemented as value noise: i.i.d. standard normals on a square lattice
/// of spacing `corr_len`, bilinearly blended with smoothstep weights. Two
/// positions closer than the correlation length see similar values; positions
/// farther apart are effectively independent, matching the standard
/// exponential-decorrelation model of log-normal shadowing.
#[derive(Debug, Clone, Copy)]
pub struct SpatialNoise {
    seed: u64,
    corr_len: f64,
    sigma: f64,
}

impl SpatialNoise {
    /// Creates a field with decorrelation distance `corr_len` meters and
    /// standard deviation `sigma` (dB for shadowing).
    pub fn new(seed: u64, corr_len: f64, sigma: f64) -> Self {
        assert!(corr_len > 0.0, "correlation length must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { seed, corr_len, sigma }
    }

    /// Samples the field at `p`.
    pub fn sample(&self, p: &Point) -> f64 {
        let mut scratch = LatticeCache::default();
        self.sample_cached(p, &mut scratch)
    }

    /// Samples the field at `p`, memoizing the lattice-corner gaussians in
    /// `cache`. Bit-identical to [`SpatialNoise::sample`]; the cache must be
    /// dedicated to this field (see [`LatticeCache`]).
    pub fn sample_cached(&self, p: &Point, cache: &mut LatticeCache) -> f64 {
        let gx = p.x / self.corr_len;
        let gy = p.y / self.corr_len;
        let x0 = gx.floor() as i64;
        let y0 = gy.floor() as i64;
        if cache.key != Some((x0, y0)) {
            cache.v00 = hash_gaussian(self.seed, x0, y0);
            cache.v10 = hash_gaussian(self.seed, x0 + 1, y0);
            cache.v01 = hash_gaussian(self.seed, x0, y0 + 1);
            cache.v11 = hash_gaussian(self.seed, x0 + 1, y0 + 1);
            cache.key = Some((x0, y0));
        }
        let tx = smooth(gx - gx.floor());
        let ty = smooth(gy - gy.floor());
        let a = cache.v00 + (cache.v10 - cache.v00) * tx;
        let b = cache.v01 + (cache.v11 - cache.v01) * tx;
        // Bilinear blending of unit normals shrinks variance away from the
        // lattice corners (to 0.5 at the cell center); 1.2 restores sigma
        // on average over a cell.
        self.sigma * 1.2 * (a + (b - a) * ty)
    }

    /// Tight `(min, max)` of the field over the axis-aligned box of
    /// half-width `reach_m` centered at `p` — the exact lattice scan the
    /// tile bound [`SpatialNoise::sup_over_box`] is checked against.
    ///
    /// A sample is `sigma * 1.2 *` a bilinear blend of the four corner
    /// gaussians of its lattice cell, in *smoothstepped* local coordinates.
    /// Within one cell the blend is bilinear in `(s(tx), s(ty))`, and a
    /// bilinear function over an axis-aligned rectangle attains its
    /// extremes at the rectangle's corners; smoothstep is monotone, so
    /// clamping the box to the cell in raw coordinates and evaluating the
    /// blend at the four clamped corners yields the cell's exact extremes
    /// over the box. The box range is the extreme of that over every cell
    /// the box intersects — so a sub-meter box inside one 50 m lattice cell
    /// costs the local field variation (fractions of a dB), not the whole
    /// cell's corner spread. That tightness is what lets a sleep planner
    /// find positive margins at vehicular travel distances at all. The
    /// corner evaluations reuse the arithmetic of [`SpatialNoise::sample`]
    /// term for term, so the bound and the samples can only disagree by
    /// interior-point rounding (well under any sane margin epsilon).
    #[cfg(test)]
    fn range_over_box(&self, p: &Point, reach_m: f64) -> (f64, f64) {
        let bx_lo = (p.x - reach_m) / self.corr_len;
        let bx_hi = (p.x + reach_m) / self.corr_len;
        let by_lo = (p.y - reach_m) / self.corr_len;
        let by_hi = (p.y + reach_m) / self.corr_len;
        let mut g_min = f64::INFINITY;
        let mut g_max = f64::NEG_INFINITY;
        for cx in bx_lo.floor() as i64..=bx_hi.floor() as i64 {
            for cy in by_lo.floor() as i64..=by_hi.floor() as i64 {
                let v00 = hash_gaussian(self.seed, cx, cy);
                let v10 = hash_gaussian(self.seed, cx + 1, cy);
                let v01 = hash_gaussian(self.seed, cx, cy + 1);
                let v11 = hash_gaussian(self.seed, cx + 1, cy + 1);
                // the box clamped to this cell, in smoothstepped local
                // coordinates — same `g - floor` subtraction as sample()
                let sx = [smooth((bx_lo - cx as f64).clamp(0.0, 1.0)), smooth((bx_hi - cx as f64).clamp(0.0, 1.0))];
                let sy = [smooth((by_lo - cy as f64).clamp(0.0, 1.0)), smooth((by_hi - cy as f64).clamp(0.0, 1.0))];
                for &tx in &sx {
                    for &ty in &sy {
                        let a = v00 + (v10 - v00) * tx;
                        let b = v01 + (v11 - v01) * tx;
                        let v = a + (b - a) * ty;
                        g_min = g_min.min(v);
                        g_max = g_max.max(v);
                    }
                }
            }
        }
        (self.sigma * 1.2 * g_min, self.sigma * 1.2 * g_max)
    }

    /// Sound upper bound on the field anywhere in the axis-aligned box of
    /// half-width `reach_m` centered at `p`, from lazily built tile suprema.
    ///
    /// Every sample is a convex blend of its lattice cell's four corner
    /// gaussians, so the field's supremum over the box is at most the
    /// maximum corner gaussian of the box's lattice cover — corners
    /// `floor(lo / corr_len)` through `floor(hi / corr_len) + 1` on each
    /// axis, the same cover an exact lattice scan of the box blends. The
    /// corners are grouped into fixed [`TILE_CORNERS`]² tiles; a tile's
    /// maximum is hashed on first use and memoized in `memo`, and the bound
    /// is the maximum over the tiles that hold the cover. Those tiles are a
    /// superset of the cover, so the bound is sound, and it dominates that
    /// scan's maximum up to interior rounding (callers add
    /// [`BOUND_EPS_DB`](crate::BOUND_EPS_DB)). Memoized values are a pure
    /// function of the field, so a warm memo returns exactly what a cold
    /// one does; the memo must be dedicated to this field.
    pub fn sup_over_box(&self, p: &Point, reach_m: f64, memo: &mut TileMemo) -> f64 {
        // the box's lattice cover, then the tiles holding it
        let corner = |v: f64| (v / self.corr_len).floor() as i64;
        let (cx0, cx1) = (corner(p.x - reach_m), corner(p.x + reach_m) + 1);
        let (cy0, cy1) = (corner(p.y - reach_m), corner(p.y + reach_m) + 1);
        let (tx0, tx1) = (cx0.div_euclid(TILE_CORNERS), cx1.div_euclid(TILE_CORNERS));
        let (ty0, ty1) = (cy0.div_euclid(TILE_CORNERS), cy1.div_euclid(TILE_CORNERS));
        let mut g_max = f64::NEG_INFINITY;
        for tx in tx0..=tx1 {
            for ty in ty0..=ty1 {
                g_max = g_max.max(*memo.tiles.entry((tx, ty)).or_insert_with(|| self.tile_max(tx, ty)));
            }
        }
        self.sigma * 1.2 * g_max
    }

    /// The maximum corner gaussian of tile `(tx, ty)`: lattice corners
    /// `tx * TILE_CORNERS ..` and `ty * TILE_CORNERS ..`, `TILE_CORNERS` per axis.
    fn tile_max(&self, tx: i64, ty: i64) -> f64 {
        let (x0, y0) = (tx * TILE_CORNERS, ty * TILE_CORNERS);
        let mut g_max = f64::NEG_INFINITY;
        for x in x0..x0 + TILE_CORNERS {
            for y in y0..y0 + TILE_CORNERS {
                g_max = g_max.max(hash_gaussian(self.seed, x, y));
            }
        }
        g_max
    }

    /// Uniform sample in `[0, 1)` at `p` with no interpolation — used for
    /// threshold events such as mmWave blockage.
    pub fn sample_uniform_cell(&self, p: &Point) -> f64 {
        let x0 = (p.x / self.corr_len).floor() as i64;
        let y0 = (p.y / self.corr_len).floor() as i64;
        hash_uniform(self.seed, x0, y0, 0xb10c_4a6e)
    }

    /// [`SpatialNoise::sample_uniform_cell`] with the per-lattice-cell hash
    /// memoized in `cache`; bit-identical, same cache contract.
    pub fn sample_uniform_cell_cached(&self, p: &Point, cache: &mut LatticeCache) -> f64 {
        let x0 = (p.x / self.corr_len).floor() as i64;
        let y0 = (p.y / self.corr_len).floor() as i64;
        if cache.ukey != Some((x0, y0)) {
            cache.uval = hash_uniform(self.seed, x0, y0, 0xb10c_4a6e);
            cache.ukey = Some((x0, y0));
        }
        cache.uval
    }
}

/// Ring memo for one [`TemporalNoise`] process's node gaussians.
///
/// A node value is a pure function of `(seed, index)`, so it is shared by
/// every sample whose interpolation window touches it — across receivers,
/// across queries, across time. The memo is a direct-mapped ring keyed by
/// the absolute node index: hits cost two loads, misses recompute the one
/// Box–Muller draw and overwrite the slot, so memory stays bounded no
/// matter how far the process is scanned. Values are memoized, never
/// approximated: a cached sample is bit-identical to
/// [`TemporalNoise::sample`].
///
/// Like [`LatticeCache`], a cache belongs to *one* process — reusing it
/// across different `TemporalNoise` instances returns wrong values whenever
/// node indices collide. Keep one cache per process.
#[derive(Debug, Clone, Default)]
pub struct NodeCache {
    key: Vec<i64>,
    val: Vec<f64>,
}

/// Slots in a [`NodeCache`] ring (power of two). At the 50 ms fading
/// correlation time this spans ~51 s of process history — comfortably more
/// than any planning window plus fleet spawn stagger, so steady-state scans
/// almost never evict a node they still need.
const NODE_CACHE_SLOTS: usize = 1024;

impl NodeCache {
    /// The node gaussian at absolute index `i`, memoized.
    #[inline]
    fn node(&mut self, seed: u64, i: i64) -> f64 {
        if self.key.is_empty() {
            self.key = vec![i64::MIN; NODE_CACHE_SLOTS];
            self.val = vec![0.0; NODE_CACHE_SLOTS];
        }
        let s = (i & (NODE_CACHE_SLOTS as i64 - 1)) as usize;
        if self.key[s] != i {
            self.key[s] = i;
            self.val[s] = hash_gaussian(seed, i, 0);
        }
        self.val[s]
    }
}

/// Temporally correlated Gaussian process: value noise over the time axis.
///
/// Used for fast fading (correlation time tens of ms) and any other
/// time-varying perturbation that must be reproducible.
#[derive(Debug, Clone, Copy)]
pub struct TemporalNoise {
    seed: u64,
    corr_s: f64,
    sigma: f64,
}

impl TemporalNoise {
    /// Creates a process with correlation time `corr_s` seconds and standard
    /// deviation `sigma`.
    pub fn new(seed: u64, corr_s: f64, sigma: f64) -> Self {
        assert!(corr_s > 0.0, "correlation time must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { seed, corr_s, sigma }
    }

    /// Samples the process at time `t` seconds.
    pub fn sample(&self, t: f64) -> f64 {
        let g = t / self.corr_s;
        let i0 = g.floor() as i64;
        let tt = smooth(g - g.floor());
        let v0 = hash_gaussian(self.seed, i0, 0);
        let v1 = hash_gaussian(self.seed, i0 + 1, 0);
        self.sigma * (v0 + (v1 - v0) * tt)
    }

    /// Conservative `(min, max)` of the process over `[t0, t1]` — the
    /// uncached node scan [`TemporalNoise::sup_over_cached`] is checked
    /// against.
    ///
    /// Between nodes the process is a convex blend of two adjacent node
    /// gaussians, so the window extreme is the extreme over every node the
    /// window touches (`floor(t0/corr)` through `floor(t1/corr) + 1`).
    #[cfg(test)]
    fn range_over(&self, t0: f64, t1: f64) -> (f64, f64) {
        let i_lo = (t0 / self.corr_s).floor() as i64;
        let i_hi = (t1 / self.corr_s).floor() as i64 + 1;
        let mut g_min = f64::INFINITY;
        let mut g_max = f64::NEG_INFINITY;
        for i in i_lo..=i_hi {
            let g = hash_gaussian(self.seed, i, 0);
            g_min = g_min.min(g);
            g_max = g_max.max(g);
        }
        (self.sigma * g_min, self.sigma * g_max)
    }

    /// Hard global bound on `|sample(t)|`, from the Box–Muller clamp
    /// `u1 >= 1e-12` (|gaussian| <= sqrt(-2 ln 1e-12) ≈ 7.434): a cheap
    /// screen before paying for the exact node scan of
    /// [`TemporalNoise::sup_over_cached`].
    pub fn global_bound(&self) -> f64 {
        self.sigma * (-2.0 * 1e-12f64.ln()).sqrt()
    }

    /// [`TemporalNoise::sample`] with the two node gaussians memoized in
    /// `nodes`; bit-identical, same cache contract as [`NodeCache`].
    pub fn sample_cached(&self, t: f64, nodes: &mut NodeCache) -> f64 {
        let g = t / self.corr_s;
        let i0 = g.floor() as i64;
        let tt = smooth(g - g.floor());
        let v0 = nodes.node(self.seed, i0);
        let v1 = nodes.node(self.seed, i0 + 1);
        self.sigma * (v0 + (v1 - v0) * tt)
    }

    /// Upper bound on `sample(t)` at exactly `t`: the sample is a convex
    /// blend of its two adjacent node gaussians, so it never exceeds
    /// `sigma * max(node0, node1)`. Two memoized loads — the screen a
    /// scheduler runs per candidate tick before paying for an exact sample.
    pub fn sup_at_cached(&self, t: f64, nodes: &mut NodeCache) -> f64 {
        let i0 = (t / self.corr_s).floor() as i64;
        self.sigma * nodes.node(self.seed, i0).max(nodes.node(self.seed, i0 + 1))
    }

    /// Upper bound on the process over `[t0, t1]`. Between nodes the
    /// process is a convex blend of two adjacent node gaussians, so it never
    /// exceeds `sigma` times the largest node the window touches
    /// (`floor(t0/corr)` through `floor(t1/corr) + 1`), each memoized in
    /// `nodes`.
    pub fn sup_over_cached(&self, t0: f64, t1: f64, nodes: &mut NodeCache) -> f64 {
        let i_lo = (t0 / self.corr_s).floor() as i64;
        let i_hi = (t1 / self.corr_s).floor() as i64 + 1;
        let mut g_max = f64::NEG_INFINITY;
        for i in i_lo..=i_hi {
            g_max = g_max.max(nodes.node(self.seed, i));
        }
        self.sigma * g_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        let n = SpatialNoise::new(7, 50.0, 8.0);
        let p = Point::new(123.4, -56.7);
        assert_eq!(n.sample(&p), n.sample(&p));
    }

    #[test]
    fn different_seeds_differ() {
        let a = SpatialNoise::new(1, 50.0, 8.0);
        let b = SpatialNoise::new(2, 50.0, 8.0);
        let p = Point::new(10.0, 10.0);
        assert_ne!(a.sample(&p), b.sample(&p));
    }

    #[test]
    fn nearby_points_are_correlated_far_points_not() {
        let n = SpatialNoise::new(3, 100.0, 8.0);
        let mut close_diff = 0.0;
        let mut far_diff = 0.0;
        let m = 200;
        for i in 0..m {
            let p = Point::new(i as f64 * 137.0, i as f64 * 91.0);
            let q_close = Point::new(p.x + 5.0, p.y);
            let q_far = Point::new(p.x + 5000.0, p.y + 7000.0);
            close_diff += (n.sample(&p) - n.sample(&q_close)).abs();
            far_diff += (n.sample(&p) - n.sample(&q_far)).abs();
        }
        assert!(
            close_diff < far_diff / 3.0,
            "5 m apart should be much more similar than 5 km apart: {close_diff} vs {far_diff}"
        );
    }

    #[test]
    fn spatial_mean_near_zero_and_spread_near_sigma() {
        let sigma = 8.0;
        let n = SpatialNoise::new(11, 50.0, sigma);
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let m = 4000;
        for i in 0..m {
            // sample far apart so draws are independent
            let p = Point::new(i as f64 * 1000.0, (i % 97) as f64 * 1000.0);
            let v = n.sample(&p);
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / m as f64;
        let std = (sum_sq / m as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 1.0, "mean {mean}");
        assert!((std - sigma).abs() < sigma * 0.35, "std {std} vs sigma {sigma}");
    }

    #[test]
    fn temporal_noise_is_continuousish() {
        let n = TemporalNoise::new(5, 0.05, 3.0);
        // adjacent 1 ms samples should differ by far less than sigma
        let mut max_step = 0.0f64;
        for i in 0..1000 {
            let t = i as f64 * 0.001;
            let d = (n.sample(t) - n.sample(t + 0.001)).abs();
            max_step = max_step.max(d);
        }
        assert!(max_step < 1.5, "max 1 ms step {max_step}");
    }

    #[test]
    fn zero_sigma_is_silent() {
        let n = SpatialNoise::new(9, 50.0, 0.0);
        assert_eq!(n.sample(&Point::new(33.0, 44.0)), 0.0);
        let t = TemporalNoise::new(9, 0.1, 0.0);
        assert_eq!(t.sample(1.23), 0.0);
    }

    #[test]
    fn cached_samples_are_bit_identical() {
        let n = SpatialNoise::new(21, 50.0, 8.0);
        let mut cache = LatticeCache::default();
        // walk far enough to cross several lattice cells, in small steps so
        // the cache both hits and misses
        for i in 0..2000 {
            let p = Point::new(i as f64 * 0.3, (i as f64 * 0.11).sin() * 40.0);
            assert_eq!(n.sample_cached(&p, &mut cache), n.sample(&p), "shadowing diverged at step {i}");
            assert_eq!(
                n.sample_uniform_cell_cached(&p, &mut cache),
                n.sample_uniform_cell(&p),
                "uniform diverged at step {i}"
            );
        }
    }

    #[test]
    fn temporal_node_cache_is_bit_identical_and_bounds() {
        let n = TemporalNoise::new(99, 0.05, 4.0);
        let mut nodes = NodeCache::default();
        for k in 0..4000 {
            let t = k as f64 * 0.0137 + 3.0;
            let s = n.sample(t);
            assert_eq!(n.sample_cached(t, &mut nodes), s, "cached sample diverged at {t}");
            assert!(n.sup_at_cached(t, &mut nodes) >= s, "per-tick sup below sample at {t}");
        }
        // the cached window sup matches the uncached node scan exactly,
        // including after the ring has wrapped and evicted old nodes
        for w in 0..80 {
            let t0 = w as f64 * 1.7;
            let t1 = t0 + 12.6;
            assert_eq!(n.sup_over_cached(t0, t1, &mut nodes), n.range_over(t0, t1).1, "window [{t0}, {t1}]");
        }
    }

    #[test]
    fn box_range_bounds_every_sample_inside() {
        let n = SpatialNoise::new(77, 50.0, 8.0);
        for k in 0..200 {
            let p = Point::new(k as f64 * 61.3 - 3000.0, (k as f64 * 0.7).sin() * 900.0);
            let reach = 5.0 + (k % 17) as f64 * 7.0;
            let (lo, hi) = n.range_over_box(&p, reach);
            assert!(lo <= hi);
            for i in -4..=4 {
                for j in -4..=4 {
                    let q = Point::new(p.x + reach * i as f64 / 4.0, p.y + reach * j as f64 / 4.0);
                    let v = n.sample(&q);
                    assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "sample {v} outside [{lo}, {hi}] at box {k}");
                }
            }
        }
    }

    #[test]
    fn tile_sup_dominates_samples_and_box_range() {
        use crate::rng::DetRng;
        use crate::BOUND_EPS_DB;
        let mut rng = DetRng::new(0x7113_5A9E);
        let mut samples = 0;
        // the 100 m freeway sub-6 lattice and the 20 m dense-urban mmWave one
        for (seed, corr, sigma) in [(5u64, 100.0, 8.0), (6, 20.0, 10.0)] {
            let n = SpatialNoise::new(seed, corr, sigma);
            let tile_m = corr * TILE_CORNERS as f64;
            let mut warm = TileMemo::default();
            for k in 0..3000 {
                let reach = match k % 4 {
                    0 => rng.range(0.0, 0.5 * corr),
                    1 => rng.range(0.0, 3.0 * corr),
                    2 => rng.range(0.0, tile_m),
                    _ => rng.range(0.0, 2.0 * tile_m),
                };
                // a tile corner on either side of the origin; boxes end just
                // short of it, start just past it, or straddle it
                let (bx, by) = (rng.range(-12.0, 12.0).round() * tile_m, rng.range(-12.0, 12.0).round() * tile_m);
                let nudge = rng.range(0.0, 0.02 * corr);
                let c = match k % 3 {
                    0 => Point::new(bx - reach - nudge, by - reach - nudge),
                    1 => Point::new(bx + reach + nudge, by + reach + nudge),
                    _ => Point::new(bx + rng.range(-reach, reach), by + rng.range(-reach, reach)),
                };
                let sup = n.sup_over_box(&c, reach, &mut warm);
                assert_eq!(sup, n.sup_over_box(&c, reach, &mut TileMemo::default()), "warm memo changed box {k}");
                let (_, hi) = n.range_over_box(&c, reach);
                assert!(sup + BOUND_EPS_DB >= hi, "tile sup {sup} below box range max {hi} at box {k} (corr {corr})");
                // the box's four corners and four random interior points
                for (i, j) in [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)] {
                    let corner = Point::new(c.x + i * reach, c.y + j * reach);
                    let inside = Point::new(c.x + rng.range(-reach, reach), c.y + rng.range(-reach, reach));
                    for q in [corner, inside] {
                        let v = n.sample(&q);
                        assert!(sup + BOUND_EPS_DB >= v, "tile sup {sup} below sample {v} at {q:?} (corr {corr})");
                        samples += 1;
                    }
                }
            }
        }
        assert!(samples >= 10_000);
    }

    #[test]
    fn temporal_range_bounds_every_sample_inside() {
        let n = TemporalNoise::new(41, 0.05, 3.0);
        for k in 0..200 {
            let t0 = k as f64 * 0.137;
            let t1 = t0 + 0.01 + (k % 13) as f64 * 0.11;
            let (lo, hi) = n.range_over(t0, t1);
            assert!(lo <= hi);
            assert!(lo >= -n.global_bound() - 1e-9 && hi <= n.global_bound() + 1e-9);
            for i in 0..=40 {
                let t = t0 + (t1 - t0) * i as f64 / 40.0;
                let v = n.sample(t);
                assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "sample {v} outside [{lo}, {hi}] in window {k}");
            }
        }
    }

    #[test]
    fn uniform_cell_in_range() {
        let n = SpatialNoise::new(13, 25.0, 1.0);
        for i in 0..500 {
            let u = n.sample_uniform_cell(&Point::new(i as f64 * 31.0, i as f64 * 17.0));
            assert!((0.0..1.0).contains(&u));
        }
    }
}
