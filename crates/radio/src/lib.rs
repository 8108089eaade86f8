//! Radio substrate for the 5G mobility simulator.
//!
//! The paper's measurements hinge on radio signal quality indicators — RSRP,
//! RSRQ, SINR, collectively "RRS" (§2) — observed by the UE per cell. This
//! crate reproduces the physical layer that generates them:
//!
//! * [`band`] — LTE and 5G-NR frequency bands grouped into the paper's
//!   low/mid/mmWave classes, with per-class bandwidth and coverage behaviour.
//! * [`noise`] — deterministic hash-based value noise: spatially correlated
//!   log-normal shadowing and temporally correlated fast fading, reproducible
//!   from a seed (no per-link mutable state).
//! * [`propagation`] — 3GPP-flavoured log-distance path loss with a frequency
//!   term, shadowing, fading and mmWave blockage.
//! * [`rrs`] — the RRS triple and its computation from received powers.
//! * [`smoothing`] — the triangular-kernel signal smoother the paper cites
//!   (\[46\], Long & Sikdar) plus ordinary-least-squares series extrapolation,
//!   the two ingredients of Prognos's RRS predictor.
//! * [`capacity`] — truncated-Shannon SINR→throughput mapping per band.

pub mod band;
pub mod capacity;
pub mod noise;
pub mod propagation;
pub mod rng;
pub mod rrs;
pub mod smoothing;

pub use band::{Band, BandClass};
pub use capacity::shannon_capacity_mbps;
pub use noise::{
    LatticeCache, LatticePoint, NodeCache, NodePoint, SpatialNoise, TemporalNoise, TileMemo, UniformCache,
};
pub use propagation::{ChannelCache, PathLoss, Propagation};
pub use rng::{hash2, DetRng};
pub use rrs::{combine_dbm, compute_rrs, compute_rrs_with_mw, Rrs, NOISE_FLOOR_DBM};
pub use smoothing::{linear_fit, predict_at, triangular_smooth, LinearFit};

/// Slack (dB) a sound upper bound on a received level carries before it is
/// compared with an exact value. Screens such as the radio snapshot's
/// fading ceiling and the sleep planner's margins sum the same channel
/// terms the engine sums, but in another order or as maxima over the
/// gaussians an exact sample blends, so a bound is mathematically sound yet
/// may fall short of the rounded exact value by a few ulps. 1e-6 dB is far
/// above that rounding and far below any configured threshold or offset.
pub const BOUND_EPS_DB: f64 = 1e-6;
