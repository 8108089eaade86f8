//! Handover energy accounting over traces (§5.3, Fig. 10).

use fiveg_ran::HandoverRecord;
use fiveg_sim::Trace;
use fiveg_ue::power::joules_to_mah;
use fiveg_ue::PowerModel;

/// Aggregated HO energy over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// HOs counted.
    pub ho_count: usize,
    /// Total HO energy, Joules (above baseline).
    pub total_j: f64,
    /// Total HO energy, mAh.
    pub total_mah: f64,
    /// Energy per traveled km, J/km.
    pub j_per_km: f64,
    /// Mean power during a HO window, W.
    pub mean_ho_power_w: f64,
}

impl EnergyReport {
    /// Accounts the HOs of `trace` matching `filter` with `model`.
    pub fn over(trace: &Trace, model: &PowerModel, filter: impl Fn(&HandoverRecord) -> bool) -> Self {
        let hos: Vec<&HandoverRecord> = trace.handovers.iter().filter(|h| filter(h)).collect();
        let total_j: f64 = hos.iter().map(|h| model.ho_energy_j(h)).sum();
        let km = trace.meta.traveled_m / 1000.0;
        let mean_power = if hos.is_empty() {
            0.0
        } else {
            hos.iter().map(|h| model.ho_power_w(h.arch, h.nr_band, h.ho_type.category())).sum::<f64>()
                / hos.len() as f64
        };
        EnergyReport {
            ho_count: hos.len(),
            total_j,
            total_mah: joules_to_mah(total_j),
            j_per_km: if km > 0.0 { total_j / km } else { 0.0 },
            mean_ho_power_w: mean_power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_ran::{Arch, Carrier};
    use fiveg_sim::ScenarioBuilder;

    fn nsa_freeway(seed: u64) -> Trace {
        ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 10.0, seed).duration_s(280.0).sample_hz(10.0).build().run()
    }

    #[test]
    fn report_fields_consistent() {
        let t = nsa_freeway(51);
        let r = EnergyReport::over(&t, &PowerModel::default(), |_| true);
        assert!(r.ho_count > 0);
        assert!(r.total_j > 0.0);
        assert!((r.total_mah - joules_to_mah(r.total_j)).abs() < 1e-12);
        assert!(r.j_per_km > 0.0);
        assert!(r.mean_ho_power_w > 0.0);
    }

    #[test]
    fn empty_filter_is_zero() {
        let t = nsa_freeway(52);
        let r = EnergyReport::over(&t, &PowerModel::default(), |_| false);
        assert_eq!(r.ho_count, 0);
        assert_eq!(r.total_j, 0.0);
        assert_eq!(r.mean_ho_power_w, 0.0);
    }

    #[test]
    fn fiveg_hos_cost_more_than_lte_hos_per_event() {
        let t = nsa_freeway(53);
        let m = PowerModel::default();
        let all5 = EnergyReport::over(&t, &m, |h| h.nr_band.is_some());
        let lte =
            ScenarioBuilder::freeway(Carrier::OpY, Arch::Lte, 10.0, 53).duration_s(280.0).sample_hz(10.0).build().run();
        let r_lte = EnergyReport::over(&lte, &m, |_| true);
        if all5.ho_count > 0 && r_lte.ho_count > 0 {
            let per5 = all5.total_j / all5.ho_count as f64;
            let per4 = r_lte.total_j / r_lte.ho_count as f64;
            assert!(per5 > per4, "per-HO energy 5G {per5} vs LTE {per4}");
        }
    }
}
