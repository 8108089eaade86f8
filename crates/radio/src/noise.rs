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

use crate::rng::splitmix64;
use fiveg_geo::Point;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Salts of the three hashes drawn at a lattice point: the two Box–Muller
/// uniforms of a gaussian and the one uniform of a threshold cell.
const U1_SALT: u64 = 0x5bf0_3635;
const U2_SALT: u64 = 0x94d0_49bb;
const CELL_SALT: u64 = 0xb10c_4a6e;

/// Hashes a tuple of integers into a uniform f64 in [0, 1).
#[inline]
fn hash_uniform(seed: u64, a: i64, b: i64, salt: u64) -> f64 {
    let mut h = splitmix64(seed ^ salt);
    h = splitmix64(h ^ (a as u64).wrapping_mul(0x9E3779B97F4A7C15));
    h = splitmix64(h ^ (b as u64).wrapping_mul(0xC2B2AE3D27D4EB4F));
    // 53 random mantissa bits -> uniform in [0,1)
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// The 64-bit hash behind `hash_uniform(seed, a, b, salt)`, given its head
/// `splitmix64(seed ^ salt)`: a head is a pure function of `(seed, salt)`,
/// so a field may compute it once. [`hash_uniform`] keeps its own form on
/// purpose: written as this plus the conversion, the draws compiled to a
/// schedule that hashes `u2` between the `ln` and `cos` calls, measured
/// ~15 ns slower per fading node.
#[inline]
fn hash_bits(head: u64, a: i64, b: i64) -> u64 {
    let h = splitmix64(head ^ (a as u64).wrapping_mul(0x9E3779B97F4A7C15));
    splitmix64(h ^ (b as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
}

/// Standard normal value at a lattice point, via Box–Muller on two hashes.
/// `u1` is clamped to 1e-12, so `|value| <= node_bound()`.
#[inline]
fn hash_gaussian(seed: u64, a: i64, b: i64) -> f64 {
    let u1 = hash_uniform(seed, a, b, U1_SALT).max(1e-12);
    let u2 = hash_uniform(seed, a, b, U2_SALT);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Hard bound on `|hash_gaussian(..)|`: the radius at the `u1 >= 1e-12`
/// clamp, computed with the operations of the draw.
fn node_bound() -> f64 {
    (-2.0 * 1e-12f64.ln()).sqrt()
}

/// `node_ceiling()[lz]` bounds `|hash_gaussian(..)|` at every point whose
/// `u1` hash ([`hash_bits`]) has `lz` leading zeros. Such a hash has
/// `u1 >= 2^-(lz+1)` (its top set bit is mantissa bit `52 - lz`; at
/// `lz >= 53` the mantissa is 0 and `u1` is clamped to 1e-12), so the
/// Box–Muller radius is at most `sqrt(2 (lz+1) ln 2)`: the entry is that
/// value, evaluated both in closed form and with the draw's own operations,
/// taken one ulp up and capped at [`node_bound`] (which the clamp already
/// guarantees). `|cos| <= 1`, so the radius bounds the gaussian.
fn node_ceiling() -> &'static [f64; 65] {
    static TABLE: OnceLock<[f64; 65]> = OnceLock::new();
    TABLE.get_or_init(|| {
        std::array::from_fn(|lz| {
            let u_min = 0.5f64.powi(lz as i32 + 1);
            let closed = (2.0 * (lz + 1) as f64 * std::f64::consts::LN_2).sqrt();
            // one ulp up: the radius is positive and finite
            let radius = (-2.0 * u_min.ln()).sqrt().max(closed);
            f64::from_bits(radius.to_bits() + 1).min(node_bound())
        })
    })
}

/// Smoothstep interpolation weight.
#[inline]
fn smooth(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

/// Where a query point falls on a square lattice of one spacing: its
/// lattice cell `floor(p / spacing)` and the smoothstep blend weights
/// inside that cell, computed with the operations of
/// [`SpatialNoise::sample`].
///
/// The location depends on the point and the spacing only, not on any
/// field's seed or sigma, so every field on the same lattice can share one:
/// a receiver that samples many cells' fields at one position locates it
/// once per distinct spacing (see
/// [`Propagation::prefix_dbm_located`](crate::Propagation::prefix_dbm_located)).
#[derive(Debug, Clone, Copy)]
pub struct LatticePoint {
    spacing: f64,
    key: (i64, i64),
    tx: f64,
    ty: f64,
}

impl LatticePoint {
    /// Locates `p` on the lattice of spacing `spacing` meters.
    #[inline]
    pub fn locate(p: &Point, spacing: f64) -> Self {
        let gx = p.x / spacing;
        let gy = p.y / spacing;
        let key = (gx.floor() as i64, gy.floor() as i64);
        Self { spacing, key, tx: smooth(gx - gx.floor()), ty: smooth(gy - gy.floor()) }
    }

    /// The lattice spacing this point was located on, meters.
    pub fn spacing(&self) -> f64 {
        self.spacing
    }
}

/// Where a query time falls on a temporal process's node clock: its node
/// `floor(t / corr_s)` and the smoothstep blend weight toward the next
/// node, computed with the operations of [`TemporalNoise::sample`]. The
/// time twin of [`LatticePoint`].
///
/// The location depends on the time and the correlation time only, not on
/// any process's seed or sigma, so every process on the same clock can
/// share one: a receiver that samples many cells' fading at one time
/// locates it once per distinct correlation time (see
/// [`Propagation::fading_db_located`](crate::Propagation::fading_db_located)).
#[derive(Debug, Clone, Copy)]
pub struct NodePoint {
    corr_s: f64,
    i0: i64,
    w: f64,
}

impl NodePoint {
    /// Locates `t` on the node clock of correlation time `corr_s` seconds.
    #[inline]
    pub fn locate(t: f64, corr_s: f64) -> Self {
        let g = t / corr_s;
        Self { corr_s, i0: g.floor() as i64, w: smooth(g - g.floor()) }
    }

    /// The correlation time this point was located on, seconds.
    pub fn corr_s(&self) -> f64 {
        self.corr_s
    }
}

/// Key of a memo that holds nothing yet. No supported query locates there:
/// a lattice coordinate of `i64::MAX` is the saturated cast of a position
/// beyond ±9.2e18 lattice cells, where the blend's `x0 + 1` corner would
/// overflow. Any one-cell step from it would need such a coordinate too, so
/// the corner shift never reads an unset memo.
const UNSET: (i64, i64) = (i64::MAX, i64::MAX);

/// Memoized lattice corners of one [`SpatialNoise`] field.
///
/// The four corner gaussians of the bilinear blend depend only on which
/// lattice cell the query point falls in, and a UE moving at vehicular speed
/// stays inside one shadowing lattice cell (tens of meters) for many
/// consecutive ticks. A cache holds the corners of the last lattice cell
/// visited; a cached sample recomputes them only when the query crosses
/// into a new cell, and on a step to an edge-adjacent cell it keeps the two
/// shared corners and hashes only the other two. Values are memoized, never
/// approximated: a cached sample is bit-identical to
/// [`SpatialNoise::sample`].
///
/// A cache is only valid for the *one* field it has been fed to — reusing it
/// across different `SpatialNoise` instances returns wrong values whenever
/// the lattice keys collide. Keep one cache per (field, receiver) pair.
#[derive(Debug, Clone, Copy)]
pub struct LatticeCache {
    /// Lattice cell of the corners, [`UNSET`] before the first query.
    key: (i64, i64),
    v00: f64,
    v10: f64,
    v01: f64,
    v11: f64,
}

impl Default for LatticeCache {
    fn default() -> Self {
        Self { key: UNSET, v00: 0.0, v10: 0.0, v01: 0.0, v11: 0.0 }
    }
}

impl LatticeCache {
    /// Moves the memo to lattice cell `(x, y)` of the field seeded `seed`,
    /// returning the corner gaussians it hashed: 2 on a step to an
    /// edge-adjacent cell, else 4.
    fn move_to(&mut self, seed: u64, (x, y): (i64, i64)) -> usize {
        let g = |a, b| hash_gaussian(seed, a, b);
        // corners are pure functions of (seed, x, y): a step to an
        // edge-adjacent cell keeps the shared edge's two corners, moved to
        // the opposite side, and hashes only the far edge
        let hashed = match (x.wrapping_sub(self.key.0), y.wrapping_sub(self.key.1)) {
            (1, 0) => {
                (self.v00, self.v01) = (self.v10, self.v11);
                (self.v10, self.v11) = (g(x + 1, y), g(x + 1, y + 1));
                2
            }
            (-1, 0) => {
                (self.v10, self.v11) = (self.v00, self.v01);
                (self.v00, self.v01) = (g(x, y), g(x, y + 1));
                2
            }
            (0, 1) => {
                (self.v00, self.v10) = (self.v01, self.v11);
                (self.v01, self.v11) = (g(x, y + 1), g(x + 1, y + 1));
                2
            }
            (0, -1) => {
                (self.v01, self.v11) = (self.v00, self.v10);
                (self.v00, self.v10) = (g(x, y), g(x + 1, y));
                2
            }
            _ => {
                (self.v00, self.v10) = (g(x, y), g(x + 1, y));
                (self.v01, self.v11) = (g(x, y + 1), g(x + 1, y + 1));
                4
            }
        };
        self.key = (x, y);
        hashed
    }
}

/// Memoized threshold value of one [`SpatialNoise`] field's lattice cell,
/// for [`SpatialNoise::sample_uniform_cell_cached`] (blockage lookups use
/// another salt and no interpolation). Same contract as [`LatticeCache`]:
/// bit-identical, one cache per (field, receiver) pair.
#[derive(Debug, Clone, Copy)]
pub struct UniformCache {
    /// Lattice cell of `val`, [`UNSET`] before the first query.
    key: (i64, i64),
    val: f64,
}

impl Default for UniformCache {
    fn default() -> Self {
        Self { key: UNSET, val: 0.0 }
    }
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

    /// The lattice spacing (correlation length), meters.
    pub(crate) fn corr_len(&self) -> f64 {
        self.corr_len
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
        self.sample_located(&LatticePoint::locate(p, self.corr_len), cache, &mut 0)
    }

    /// Samples the field at the point `at` locates, which must be located
    /// on this field's spacing ([`SpatialNoise::corr_len`]): the corner
    /// memo in `cache`, then the blend, adding the corner gaussians the
    /// memo hashed (0, 2 or 4) to `hashed`. Bit-identical to
    /// [`SpatialNoise::sample`] at that point; same cache contract.
    #[inline]
    pub(crate) fn sample_located(&self, at: &LatticePoint, cache: &mut LatticeCache, hashed: &mut usize) -> f64 {
        debug_assert_eq!(at.spacing, self.corr_len, "lattice point located on another spacing");
        if cache.key != at.key {
            *hashed += cache.move_to(self.seed, at.key);
        }
        let a = cache.v00 + (cache.v10 - cache.v00) * at.tx;
        let b = cache.v01 + (cache.v11 - cache.v01) * at.tx;
        // Bilinear blending of unit normals shrinks variance away from the
        // lattice corners (to 0.5 at the cell center); 1.2 restores sigma
        // on average over a cell.
        self.sigma * 1.2 * (a + (b - a) * at.ty)
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
        self.sample_uniform_cell_cached(p, &mut UniformCache::default())
    }

    /// [`SpatialNoise::sample_uniform_cell`] with the per-lattice-cell hash
    /// memoized in `cache`; bit-identical, same cache contract.
    pub fn sample_uniform_cell_cached(&self, p: &Point, cache: &mut UniformCache) -> f64 {
        self.sample_uniform_located(&LatticePoint::locate(p, self.corr_len), cache)
    }

    /// [`SpatialNoise::sample_uniform_cell`] at the point `at` locates (on
    /// this field's spacing), memoized in `cache`; bit-identical.
    #[inline]
    pub(crate) fn sample_uniform_located(&self, at: &LatticePoint, cache: &mut UniformCache) -> f64 {
        debug_assert_eq!(at.spacing, self.corr_len, "lattice point located on another spacing");
        if cache.key != at.key {
            cache.val = hash_uniform(self.seed, at.key.0, at.key.1, CELL_SALT);
            cache.key = at.key;
        }
        cache.val
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
    /// `splitmix64(seed ^ U1_SALT)`, the head of every node's `u1` hash,
    /// for [`TemporalNoise::ceiling_at`].
    u1_head: u64,
}

impl TemporalNoise {
    /// Creates a process with correlation time `corr_s` seconds and standard
    /// deviation `sigma`.
    pub fn new(seed: u64, corr_s: f64, sigma: f64) -> Self {
        assert!(corr_s > 0.0, "correlation time must be positive");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        Self { seed, corr_s, sigma, u1_head: splitmix64(seed ^ U1_SALT) }
    }

    /// The correlation time (node spacing), seconds: where a receiver
    /// locates itself for [`TemporalNoise::sample_located`].
    pub(crate) fn corr_s(&self) -> f64 {
        self.corr_s
    }

    /// Samples the process at time `t` seconds.
    pub fn sample(&self, t: f64) -> f64 {
        self.sample_located(&NodePoint::locate(t, self.corr_s))
    }

    /// Samples the process at the time `at` locates, which must be located
    /// on this process's clock ([`TemporalNoise::corr_s`]): the two node
    /// gaussians, then the blend. The one definition behind
    /// [`TemporalNoise::sample`].
    #[inline]
    pub(crate) fn sample_located(&self, at: &NodePoint) -> f64 {
        debug_assert_eq!(at.corr_s, self.corr_s, "node point located on another clock");
        let v0 = hash_gaussian(self.seed, at.i0, 0);
        let v1 = hash_gaussian(self.seed, at.i0 + 1, 0);
        self.sigma * (v0 + (v1 - v0) * at.w)
    }

    /// Upper bound on `sample(t)` at exactly `t` with no `ln`, `cos` or
    /// `u2` hash: `sigma` times a fixed 65-entry table's bound on the
    /// Box–Muller radius of a node whose `u1` hash has `lz` leading zeros
    /// (`sqrt(2 (lz+1) ln 2)`, one ulp up, capped at the global bound),
    /// indexed by the larger count of the two adjacent nodes, since a
    /// smaller `u1` allows a larger radius. The sample is a convex blend
    /// of those two nodes, so it never exceeds the ceiling beyond the
    /// blend's rounding (callers add [`BOUND_EPS_DB`](crate::BOUND_EPS_DB)).
    /// Never above [`TemporalNoise::global_bound`]; costs four `splitmix64`
    /// rounds.
    #[inline]
    pub fn ceiling_at(&self, t: f64) -> f64 {
        self.ceiling_located(&NodePoint::locate(t, self.corr_s))
    }

    /// [`TemporalNoise::ceiling_at`] at the time `at` locates (on this
    /// process's clock): the bound on the two nodes
    /// [`TemporalNoise::sample_located`] blends at that point.
    #[inline]
    pub(crate) fn ceiling_located(&self, at: &NodePoint) -> f64 {
        debug_assert_eq!(at.corr_s, self.corr_s, "node point located on another clock");
        let h = hash_bits(self.u1_head, at.i0, 0).min(hash_bits(self.u1_head, at.i0 + 1, 0));
        self.sigma * node_ceiling()[h.leading_zeros() as usize]
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
        self.sigma * node_bound()
    }

    /// [`TemporalNoise::sample`] with the two node gaussians memoized in
    /// `nodes`; bit-identical, same cache contract as [`NodeCache`].
    pub fn sample_cached(&self, t: f64, nodes: &mut NodeCache) -> f64 {
        let at = NodePoint::locate(t, self.corr_s);
        let v0 = nodes.node(self.seed, at.i0);
        let v1 = nodes.node(self.seed, at.i0 + 1);
        self.sigma * (v0 + (v1 - v0) * at.w)
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
        use crate::rng::DetRng;
        let mut rng = DetRng::new(0x010C_A7ED);
        // steps in lattice cells: the four edge-adjacent cells the corner
        // shift handles, diagonals, multi-cell jumps and moves inside a cell
        let steps: [(f64, f64); 12] = [
            (1.0, 0.0),
            (-1.0, 0.0),
            (0.0, 1.0),
            (0.0, -1.0),
            (1.0, 1.0),
            (-1.0, 1.0),
            (1.0, -1.0),
            (-1.0, -1.0),
            (4.0, -3.0),
            (-6.0, 0.0),
            (0.0, 5.0),
            (0.0, 0.0),
        ];
        let mut shifts = [0usize; 4];
        // the 20 m mmWave, 50 m sub-6 and 100 m freeway lattices
        for (seed, corr) in [(31u64, 20.0), (32, 50.0), (33, 100.0)] {
            let n = SpatialNoise::new(seed, corr, 9.0);
            let (mut located, mut cached) = (LatticeCache::default(), LatticeCache::default());
            let (mut ulocated, mut ucached) = (UniformCache::default(), UniformCache::default());
            // start a few cells on the negative side of both axes so the
            // walk crosses zero back and forth
            let mut cell = (-3.0f64, -2.0f64);
            for k in 0..6000 {
                let prev = cell;
                let (dx, dy) = steps[rng.below(steps.len())];
                cell = ((cell.0 + dx).clamp(-9.0, 9.0), (cell.1 + dy).clamp(-9.0, 9.0));
                let (fx, fy) = match k % 5 {
                    0 => (0.0, 0.0), // exactly on a lattice corner
                    1 => (rng.range(0.0, 1e-9), 1.0 - 1e-12),
                    _ => (rng.range(0.0, 1.0), rng.range(0.0, 1.0)),
                };
                let p = Point::new((cell.0 + fx) * corr, (cell.1 + fy) * corr);
                let at = LatticePoint::locate(&p, corr);
                let want = n.sample(&p);
                // the work count: 0 in the memo's cell, 2 on a one-cell
                // edge step (the corner shift), else 4 (the unset memo too)
                let (sx, sy) = (at.key.0.wrapping_sub(located.key.0), at.key.1.wrapping_sub(located.key.1));
                let want_hashed = match sx.unsigned_abs().saturating_add(sy.unsigned_abs()) {
                    0 => 0,
                    1 => 2,
                    _ => 4,
                };
                let mut hashed = 0;
                let got = n.sample_located(&at, &mut located, &mut hashed);
                assert_eq!(hashed, want_hashed, "corner hashes at step {k}");
                assert_eq!(got.to_bits(), want.to_bits(), "located diverged at step {k} {p:?} (corr {corr})");
                assert_eq!(n.sample_cached(&p, &mut cached).to_bits(), want.to_bits(), "cached diverged at step {k}");
                let u = n.sample_uniform_cell(&p);
                assert_eq!(n.sample_uniform_located(&at, &mut ulocated).to_bits(), u.to_bits(), "uniform at step {k}");
                assert_eq!(n.sample_uniform_cell_cached(&p, &mut ucached).to_bits(), u.to_bits(), "uniform at {k}");
                match (cell.0 - prev.0, cell.1 - prev.1) {
                    (1.0, 0.0) => shifts[0] += 1,
                    (-1.0, 0.0) => shifts[1] += 1,
                    (0.0, 1.0) => shifts[2] += 1,
                    (0.0, -1.0) => shifts[3] += 1,
                    _ => {}
                }
            }
        }
        assert!(shifts.iter().all(|&c| c >= 500), "one-cell steps per direction: {shifts:?}");
    }

    /// The draw's conversion of a hash to a uniform in [0, 1).
    fn unit(h: u64) -> f64 {
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn node_ceiling_table_bounds_the_box_muller_radius() {
        let cap = node_bound();
        let mut prev = 0.0;
        for lz in 0..=64usize {
            let entry = node_ceiling()[lz];
            let closed = (2.0 * (lz + 1) as f64 * std::f64::consts::LN_2).sqrt();
            assert!(entry <= cap, "lz {lz}: {entry} above the global bound {cap}");
            assert!(entry >= closed.min(cap), "lz {lz}: {entry} below sqrt(2 (lz+1) ln 2) = {closed}");
            assert!(entry <= closed * (1.0 + 1e-12), "lz {lz}: {entry} is loose against {closed}");
            assert!(entry >= prev, "lz {lz}: table not monotone");
            // the hash with lz leading zeros and the smallest u1: the
            // largest radius, with the draw's operations, that entry covers
            let h1 = if lz == 64 { 0 } else { 1u64 << (63 - lz) };
            assert_eq!(h1.leading_zeros() as usize, lz);
            let radius = (-2.0 * unit(h1).max(1e-12).ln()).sqrt();
            assert!(radius <= entry, "lz {lz}: radius {radius} above {entry}");
            prev = entry;
        }
        // from 2^-40 < 1e-12 on, the u1 clamp is the binding bound
        assert!(node_ceiling()[38] < cap);
        assert!(node_ceiling()[39..].iter().all(|&e| e == cap));
        assert_eq!((-2.0 * unit(0).max(1e-12).ln()).sqrt(), cap, "a zero hash clamps u1 to 1e-12");
        // the ceiling reads the hash the draw converts to u1
        for seed in [0u64, 7, 0xFAD0_0001, u64::MAX] {
            for i in [-3i64, 0, 1, 12_345, i64::MIN + 1] {
                let head = splitmix64(seed ^ U1_SALT);
                assert_eq!(unit(hash_bits(head, i, 0)), hash_uniform(seed, i, 0, U1_SALT), "seed {seed} node {i}");
            }
        }
    }

    #[test]
    fn fading_ceiling_dominates_samples() {
        use crate::rng::DetRng;
        use crate::BOUND_EPS_DB;
        let mut rng = DetRng::new(0x0CE1_11A6);
        let (mut samples, mut tight) = (0usize, 0usize);
        for seed in 0..300u64 {
            // 0.05 s is the fading correlation time; 0.25 s puts node
            // boundaries on exactly representable times
            let corr = if seed % 2 == 0 { 0.05 } else { 0.25 };
            let n = TemporalNoise::new(seed.wrapping_mul(0x9E37_79B9), corr, 1.0 + (seed % 5) as f64);
            for k in 0..200 {
                let node = rng.range(-2000.0, 20_000.0).floor();
                let t = match k % 4 {
                    0 => node * corr,
                    1 => (node + 1.0) * corr - 1e-9,
                    _ => rng.range(-100.0, 1000.0),
                };
                let (c, v) = (n.ceiling_at(t), n.sample(t));
                assert!(c + BOUND_EPS_DB >= v, "ceiling {c} below sample {v} at t={t} (seed {seed})");
                assert!(c <= n.global_bound(), "ceiling {c} above the global bound at t={t}");
                samples += 1;
                tight += usize::from(c < n.global_bound());
            }
        }
        assert_eq!(tight, samples, "a ceiling reached the global bound");
    }

    #[test]
    fn located_fading_forms_are_bit_identical() {
        // the located forms against the per-call operations they replace:
        // the node index and smoothstep weight of `t`, the two-node blend,
        // and the ceiling of the two nodes' `u1` hashes
        let reference = |n: &TemporalNoise, t: f64| {
            let g = t / n.corr_s;
            let i0 = g.floor() as i64;
            let tt = smooth(g - g.floor());
            let (v0, v1) = (hash_gaussian(n.seed, i0, 0), hash_gaussian(n.seed, i0 + 1, 0));
            let h = hash_bits(n.u1_head, i0, 0).min(hash_bits(n.u1_head, i0 + 1, 0));
            (n.sigma * (v0 + (v1 - v0) * tt), n.sigma * node_ceiling()[h.leading_zeros() as usize])
        };
        let mut checked = 0;
        for (seed, corr) in [(3u64, 0.05), (4, 0.25), (5, 0.1), (6, 0.037)] {
            let n = TemporalNoise::new(seed, corr, 2.0 + seed as f64);
            let mut clock = -3.0; // a 10 Hz clock accumulated the way the engine steps it
            for k in -400i64..400 {
                clock += 0.1;
                let times = [
                    k as f64 * corr,                 // exact node boundaries
                    (k as f64 + 1.0) * corr - 1e-12, // just below the next one
                    k as f64 * 0.0137,               // negative and positive off-node times
                    clock,
                ];
                for t in times {
                    let at = NodePoint::locate(t, n.corr_s());
                    let (sample, ceiling) = reference(&n, t);
                    assert_eq!(n.sample_located(&at).to_bits(), sample.to_bits(), "sample at t={t} (corr {corr})");
                    assert_eq!(n.sample(t).to_bits(), sample.to_bits(), "sample(t) at t={t} (corr {corr})");
                    assert_eq!(n.ceiling_located(&at).to_bits(), ceiling.to_bits(), "ceiling at t={t}");
                    assert_eq!(n.ceiling_at(t).to_bits(), ceiling.to_bits(), "ceiling_at(t) at t={t}");
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 4 * 800 * 4);
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
