//! RRS: the RSRP/RSRQ/SINR triple (§2).
//!
//! "Carriers use multiple radio signal quality indicators such as RSRP, RSRQ,
//! SINR ... We refer to these radio quality indicators as RRS for the rest of
//! the paper." Measurement events (Table 4) trigger on these values, so the
//! whole HO pipeline starts here.

/// Thermal noise floor for a ~20 MHz channel at the UE, in dBm.
pub const NOISE_FLOOR_DBM: f64 = -100.0;

/// A radio-quality sample for one cell as seen by the UE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rrs {
    /// Reference Signal Received Power, dBm. Typical range [-140, -44].
    pub rsrp_dbm: f64,
    /// Reference Signal Received Quality, dB. Typical range [-20, -3].
    pub rsrq_db: f64,
    /// Signal to Interference & Noise Ratio, dB.
    pub sinr_db: f64,
}

impl Rrs {
    /// A placeholder for "cell not measurable" (below UE sensitivity).
    pub const OUT_OF_RANGE: Rrs = Rrs { rsrp_dbm: -140.0, rsrq_db: -20.0, sinr_db: -20.0 };

    /// True when the cell is strong enough to be detected at all.
    pub fn detectable(&self) -> bool {
        self.rsrp_dbm > -125.0
    }
}

/// Converts dBm to milliwatts.
#[inline]
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts milliwatts to dBm (clamped away from -inf).
#[inline]
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.max(1e-30).log10()
}

/// Power-sum of dBm values: `10 log10(sum(10^(x/10)))`.
pub fn combine_dbm(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NEG_INFINITY;
    }
    mw_to_dbm(values.iter().copied().map(dbm_to_mw).sum())
}

/// Computes the RRS triple for a serving (or candidate) cell.
///
/// * `serving_dbm` — received power of the measured cell;
/// * `interferers_dbm` — received powers of co-channel neighbor cells;
/// * `noise_dbm` — receiver noise floor.
///
/// SINR is the literal ratio; RSRQ follows the LTE definition shape
/// `N * RSRP / RSSI` collapsed to `RSRP - RSSI` in dB with a -3 dB offset for
/// the serving cell's own contribution to RSSI.
pub fn compute_rrs(serving_dbm: f64, interferers_dbm: &[f64], noise_dbm: f64) -> Rrs {
    let i: f64 = interferers_dbm.iter().copied().map(dbm_to_mw).sum();
    compute_rrs_with_mw(serving_dbm, i, dbm_to_mw(noise_dbm))
}

/// [`compute_rrs`] with the interference already power-summed and the
/// noise floor converted, both in milliwatts.
///
/// Hot-path variant: a caller maintaining a per-candidate interference table
/// can accumulate `dbm_to_mw` terms itself and skip the slice round-trip,
/// and a fixed noise floor is converted once, not per call. `compute_rrs`
/// delegates here, so the two are result-identical as long as the caller
/// sums terms in the same order the slice would and converts the floor with
/// [`dbm_to_mw`].
pub fn compute_rrs_with_mw(serving_dbm: f64, interference_mw: f64, noise_mw: f64) -> Rrs {
    let s = dbm_to_mw(serving_dbm);
    let i = interference_mw;
    let n = noise_mw;
    let sinr_db = 10.0 * (s / (i + n)).log10();
    let rssi_dbm = mw_to_dbm(s + i + n);
    let rsrq_db = (serving_dbm - rssi_dbm - 3.0).clamp(-20.0, -3.0);
    Rrs { rsrp_dbm: serving_dbm.clamp(-140.0, -44.0), rsrq_db, sinr_db: sinr_db.clamp(-20.0, 40.0) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_dbm_of_equal_powers_adds_3db() {
        let c = combine_dbm(&[-100.0, -100.0]);
        assert!((c - -96.99).abs() < 0.02, "{c}");
    }

    #[test]
    fn combine_dbm_empty_is_neg_inf() {
        assert_eq!(combine_dbm(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn combine_dbm_dominated_by_strongest() {
        let c = combine_dbm(&[-60.0, -100.0]);
        assert!((c - -60.0).abs() < 0.01);
    }

    #[test]
    fn sinr_without_interference_is_snr() {
        let r = compute_rrs(-80.0, &[], -100.0);
        assert!((r.sinr_db - 20.0).abs() < 1e-9);
    }

    #[test]
    fn interference_reduces_sinr_and_rsrq() {
        let clean = compute_rrs(-80.0, &[], -100.0);
        let dirty = compute_rrs(-80.0, &[-85.0], -100.0);
        assert!(dirty.sinr_db < clean.sinr_db);
        assert!(dirty.rsrq_db < clean.rsrq_db);
        assert_eq!(dirty.rsrp_dbm, clean.rsrp_dbm);
    }

    #[test]
    fn rsrp_is_clamped_to_3gpp_range() {
        assert_eq!(compute_rrs(-200.0, &[], -100.0).rsrp_dbm, -140.0);
        assert_eq!(compute_rrs(0.0, &[], -100.0).rsrp_dbm, -44.0);
    }

    #[test]
    fn detectable_threshold() {
        assert!(compute_rrs(-90.0, &[], -100.0).detectable());
        assert!(!Rrs::OUT_OF_RANGE.detectable());
    }

    #[test]
    fn mw_dbm_round_trip() {
        for x in [-120.0, -90.0, -44.0, 0.0] {
            assert!((mw_to_dbm(dbm_to_mw(x)) - x).abs() < 1e-9);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn sinr_monotone_in_serving_power(
            s in -130.0..-50.0f64,
            bump in 0.1..20.0f64,
            i in -130.0..-60.0f64,
        ) {
            let a = compute_rrs(s, &[i], NOISE_FLOOR_DBM);
            let b = compute_rrs(s + bump, &[i], NOISE_FLOOR_DBM);
            prop_assert!(b.sinr_db >= a.sinr_db);
        }

        #[test]
        fn more_interferers_never_help(
            s in -110.0..-60.0f64,
            i1 in -120.0..-70.0f64,
            i2 in -120.0..-70.0f64,
        ) {
            let one = compute_rrs(s, &[i1], NOISE_FLOOR_DBM);
            let two = compute_rrs(s, &[i1, i2], NOISE_FLOOR_DBM);
            prop_assert!(two.sinr_db <= one.sinr_db);
            prop_assert!(two.rsrq_db <= one.rsrq_db);
        }

        #[test]
        fn combine_dbm_ge_max_input(vals in proptest::collection::vec(-130.0..-40.0f64, 1..8)) {
            let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(combine_dbm(&vals) >= max - 1e-9);
        }
    }
}
