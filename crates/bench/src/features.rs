//! Feature extraction for the offline baselines (§7.3).
//!
//! * GBC (Mei et al.): "lower layer information such as signal strength
//!   qualities of serving and neighboring cells" — per 1 s window we
//!   extract serving/neighbor RSRP/SINR statistics and slopes per leg.
//! * Stacked LSTM (Ozturk et al.): "the location information of the mobile
//!   device" — sequences of (x, y, speed).

use crate::driver::window_truth;
use fiveg_baselines::Dataset;
use fiveg_sim::{Trace, TraceSample};

fn label_of(trace: &Trace, w_start: f64, window_s: f64) -> usize {
    window_truth(trace, w_start, window_s).map_or(0, |h| 1 + h as usize)
}

fn window_samples(trace: &Trace, a: f64, b: f64) -> Vec<&TraceSample> {
    trace.samples.iter().filter(|s| s.t >= a && s.t < b).collect()
}

fn mean_opt(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        -140.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

fn slope(vals: &[f64]) -> f64 {
    if vals.len() < 2 {
        return 0.0;
    }
    (vals[vals.len() - 1] - vals[0]) / vals.len() as f64
}

/// Builds the GBC feature table over 1 s windows of a trace.
///
/// Features (per window): serving LTE RSRP mean/slope, serving LTE SINR
/// mean, best LTE neighbor − serving gap, serving NR RSRP mean/slope,
/// serving NR SINR mean/slope, best NR neighbor gap, NR attached flag,
/// neighbor counts.
pub fn gbc_dataset(traces: &[&Trace], window_s: f64) -> Dataset {
    let mut data = Dataset::new();
    for trace in traces {
        let mut t = 0.0;
        while t + window_s <= trace.meta.duration_s {
            let ws = window_samples(trace, t, t + window_s);
            if ws.is_empty() {
                t += window_s;
                continue;
            }
            let lte_rsrp: Vec<f64> = ws.iter().filter_map(|s| s.lte_rrs.map(|r| r.rsrp_dbm)).collect();
            let lte_sinr: Vec<f64> = ws.iter().filter_map(|s| s.lte_rrs.map(|r| r.sinr_db)).collect();
            let nr_rsrp: Vec<f64> = ws.iter().filter_map(|s| s.nr_rrs.map(|r| r.rsrp_dbm)).collect();
            let nr_sinr: Vec<f64> = ws.iter().filter_map(|s| s.nr_rrs.map(|r| r.sinr_db)).collect();
            let lte_gap: Vec<f64> = ws
                .iter()
                .filter_map(|s| {
                    let serving = s.lte_rrs?.rsrp_dbm;
                    let best = s.lte_neighbors.first()?.1.rsrp_dbm;
                    Some(best - serving)
                })
                .collect();
            let nr_gap: Vec<f64> = ws
                .iter()
                .filter_map(|s| {
                    let best = s.nr_neighbors.first()?.1.rsrp_dbm;
                    Some(best - s.nr_rrs.map(|r| r.rsrp_dbm).unwrap_or(-140.0))
                })
                .collect();
            let nr_attached = ws.iter().filter(|s| s.nr_cell.is_some()).count() as f64 / ws.len() as f64;
            let row = vec![
                mean_opt(&lte_rsrp),
                slope(&lte_rsrp),
                mean_opt(&lte_sinr),
                if lte_gap.is_empty() { 0.0 } else { mean_opt(&lte_gap) },
                mean_opt(&nr_rsrp),
                slope(&nr_rsrp),
                mean_opt(&nr_sinr),
                slope(&nr_sinr),
                if nr_gap.is_empty() { 0.0 } else { mean_opt(&nr_gap) },
                nr_attached,
                ws.iter().map(|s| s.lte_neighbors.len()).sum::<usize>() as f64 / ws.len() as f64,
                ws.iter().map(|s| s.nr_neighbors.len()).sum::<usize>() as f64 / ws.len() as f64,
            ];
            data.push(row, label_of(trace, t, window_s));
            t += window_s;
        }
    }
    data
}

/// Builds the LSTM sequence dataset: per window, a sequence of
/// (x, y, speed) triples (downsampled to ~10 steps), labelled like the GBC
/// windows.
pub fn lstm_sequences(traces: &[&Trace], window_s: f64) -> (Vec<Vec<Vec<f64>>>, Vec<usize>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for trace in traces {
        // normalize locations to km so the net sees O(1) inputs
        let mut t = 0.0;
        let mut prev_pos: Option<(f64, f64)> = None;
        while t + window_s <= trace.meta.duration_s {
            let ws = window_samples(trace, t, t + window_s);
            if ws.len() >= 4 {
                let stride = (ws.len() / 10).max(1);
                let mut seq = Vec::new();
                for s in ws.iter().step_by(stride) {
                    let speed = prev_pos
                        .map(|(px, py)| ((s.pos.0 - px).powi(2) + (s.pos.1 - py).powi(2)).sqrt())
                        .unwrap_or(0.0);
                    prev_pos = Some(s.pos);
                    seq.push(vec![s.pos.0 / 1000.0, s.pos.1 / 1000.0, speed]);
                }
                xs.push(seq);
                ys.push(label_of(trace, t, window_s));
            }
            t += window_s;
        }
    }
    (xs, ys)
}

/// Number of classes used by the window labelling (no-HO + all HO types).
pub const NUM_CLASSES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_ran::{Arch, Carrier};
    use fiveg_sim::ScenarioBuilder;

    fn trace() -> Trace {
        ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 3).duration_s(180.0).sample_hz(20.0).build().run()
    }

    #[test]
    fn gbc_features_shape() {
        let t = trace();
        let d = gbc_dataset(&[&t], 1.0);
        assert!(d.len() > 150);
        assert_eq!(d.width(), 12);
        // imbalanced labels: mostly background
        let bg = d.labels.iter().filter(|&&l| l == 0).count();
        assert!(bg * 2 > d.len());
        // some HO labels present
        assert!(d.labels.iter().any(|&l| l != 0));
    }

    #[test]
    fn lstm_sequences_shape() {
        let t = trace();
        let (xs, ys) = lstm_sequences(&[&t], 1.0);
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty());
        for seq in &xs {
            assert!(!seq.is_empty());
            assert_eq!(seq[0].len(), 3);
        }
        assert!(ys.iter().all(|&l| l < NUM_CLASSES));
    }

    #[test]
    fn labels_match_between_featurizations() {
        let t = trace();
        let d = gbc_dataset(&[&t], 1.0);
        let (_, ys) = lstm_sequences(&[&t], 1.0);
        // same number of windows, same labels (both iterate the same grid)
        assert_eq!(d.labels.len(), ys.len());
        assert_eq!(d.labels.iter().filter(|&&l| l != 0).count(), ys.iter().filter(|&&l| l != 0).count());
    }
}
