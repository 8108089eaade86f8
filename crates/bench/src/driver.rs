//! Replays traces through Prognos — the paper's trace-driven emulation.
//!
//! "We evaluate Prognos using trace-driven emulation. We collect logs from
//! operational cellular networks ... and replay the traces" (§7.3). The
//! driver walks a [`Trace`] tick by tick, feeding Prognos what the UE saw
//! (RRS snapshots, measurement reports, HO commands) and asking for a
//! prediction at every 1 s window boundary. Ground truth for a window is
//! the HO command (if any) falling inside it.

use fiveg_analysis::ClassMetrics;
use fiveg_radio::BandClass;
use fiveg_ran::{Arch, HoType};
use fiveg_rrc::MeasEvent;
use fiveg_sim::Trace;
use prognos::{LegSnapshot, Prognos, PrognosConfig, UeContext};

/// One evaluation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowOutcome {
    /// Window start time, s.
    pub t: f64,
    /// Ground truth: the HO command inside this window, if any.
    pub truth: Option<HoType>,
    /// Prognos's prediction at the window start.
    pub pred: Option<HoType>,
    /// Prognos's ho_score at the window start.
    pub ho_score: f64,
    /// Estimated lead time reported with the prediction, s.
    pub lead_s: f64,
}

/// A maximal run of consecutive same-type positive predictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// First prediction time, s.
    pub t_start: f64,
    /// Last prediction time, s.
    pub t_end: f64,
    /// Predicted HO type.
    pub ho: HoType,
}

/// Result of replaying one trace.
#[derive(Debug, Clone)]
pub struct PrognosRun {
    /// Per-window outcomes.
    pub windows: Vec<WindowOutcome>,
    /// Prediction episodes (the system predicts continuously at the sample
    /// rate; consecutive same-type positives form one episode).
    pub episodes: Vec<Episode>,
    /// Ground-truth HO command times and types.
    pub events: Vec<(f64, HoType)>,
    /// Running F1 sampled once a minute (time, F1-so-far) — Fig. 15.
    pub f1_timeline: Vec<(f64, f64)>,
    /// Per-HO prediction lead times, split by category: (is_5g_ho, lead_s).
    /// Lead is `t_command − first window that predicted this HO's type`.
    pub lead_times: Vec<(bool, f64)>,
    /// Patterns learned / evicted during the run.
    pub learned: u64,
    /// Patterns evicted during the run.
    pub evicted: u64,
}

impl PrognosRun {
    /// Classification metrics over all windows (background = no HO).
    pub fn metrics(&self) -> ClassMetrics {
        let (truth, pred) = self.label_vectors();
        ClassMetrics::from_labels(&truth, &pred, 0u8)
    }

    /// Tolerance-matched metrics: a positive prediction is a true positive
    /// when a HO of the predicted type occurs within `tol_windows` windows
    /// of it (event-prediction matching — an early warning is early, not
    /// wrong). Each truth event consumes at most the predictions in its
    /// tolerance span; unmatched positives are false positives, unmatched
    /// truths false negatives.
    pub fn metrics_tolerant(&self, tol_windows: usize) -> ClassMetrics {
        metrics_tolerant_from(&self.windows.iter().map(|w| (w.truth, w.pred)).collect::<Vec<_>>(), tol_windows)
    }

    /// Event-level metrics: the system predicts continuously; an HO counts
    /// as predicted (TP) when a same-type episode overlaps
    /// `[t_cmd − lookback_s, t_cmd + slack_s]`; unmatched episodes are false
    /// alarms. This is the natural evaluation for a continuous early-warning
    /// system (and the one consistent with the paper's lead-time analysis).
    pub fn metrics_events(&self, lookback_s: f64, slack_s: f64) -> ClassMetrics {
        metrics_events_from(&self.episodes, &self.events, lookback_s, slack_s, self.windows.len())
    }

    /// Encodes window outcomes as label vectors (0 = no HO).
    pub fn label_vectors(&self) -> (Vec<u8>, Vec<u8>) {
        let enc = |h: Option<HoType>| h.map(|x| 1 + x as u8).unwrap_or(0);
        (self.windows.iter().map(|w| enc(w.truth)).collect(), self.windows.iter().map(|w| enc(w.pred)).collect())
    }
}

/// Event-level matching of prediction episodes against truth HO commands.
pub fn metrics_events_from(
    episodes: &[Episode],
    events: &[(f64, HoType)],
    lookback_s: f64,
    slack_s: f64,
    total_windows: usize,
) -> ClassMetrics {
    // sub-150 ms blips are not actionable alarms; drop them
    let episodes: Vec<Episode> = episodes.iter().copied().filter(|e| e.t_end - e.t_start >= 0.15).collect();
    let episodes = &episodes[..];
    let mut used = vec![false; episodes.len()];
    let mut tp = 0usize;
    let mut fn_ = 0usize;
    for &(t_cmd, ho) in events {
        let hit = episodes
            .iter()
            .enumerate()
            .find(|(i, e)| !used[*i] && e.ho == ho && e.t_start <= t_cmd + slack_s && e.t_end >= t_cmd - lookback_s);
        match hit {
            Some((i, _)) => {
                used[i] = true;
                tp += 1;
            }
            None => fn_ += 1,
        }
    }
    let fp = used.iter().filter(|u| !**u).count();
    let precision = if tp + fp == 0 { 0.0 } else { tp as f64 / (tp + fp) as f64 };
    let recall = if tp + fn_ == 0 { 0.0 } else { tp as f64 / (tp + fn_) as f64 };
    let f1 = if precision + recall == 0.0 { 0.0 } else { 2.0 * precision * recall / (precision + recall) };
    // accuracy: correct decisions per window — TPs and the quiet windows
    let wrong = fp + fn_;
    let accuracy =
        if total_windows == 0 { 0.0 } else { ((total_windows.saturating_sub(wrong)) as f64) / total_windows as f64 };
    ClassMetrics { precision, recall, f1, accuracy }
}

/// Tolerance-matched metrics over a window-aligned (truth, pred) series.
/// Shared by the Prognos run and the offline baselines so Table 3 compares
/// every approach under the same matching rule.
pub fn metrics_tolerant_from(series: &[(Option<HoType>, Option<HoType>)], tol_windows: usize) -> ClassMetrics {
    let n = series.len();
    let mut pred_used = vec![false; n];
    let mut tp = 0usize;
    let mut fn_ = 0usize;
    let mut correct_bg = 0usize;
    // match each truth event to the nearest same-type prediction within
    // [i - tol, i + tol]
    for i in 0..n {
        if let Some(t) = series[i].0 {
            let lo = i.saturating_sub(tol_windows);
            let hi = (i + tol_windows).min(n - 1);
            let hit = (lo..=hi).find(|&j| !pred_used[j] && series[j].1 == Some(t));
            match hit {
                Some(j) => {
                    pred_used[j] = true;
                    tp += 1;
                }
                None => fn_ += 1,
            }
        }
    }
    // remaining positive predictions are false alarms
    let mut fp = 0usize;
    for (i, w) in series.iter().enumerate() {
        if w.1.is_some() && !pred_used[i] {
            fp += 1;
        } else if w.1.is_none() && w.0.is_none() {
            correct_bg += 1;
        }
    }
    let precision = if tp + fp == 0 { 0.0 } else { tp as f64 / (tp + fp) as f64 };
    let recall = if tp + fn_ == 0 { 0.0 } else { tp as f64 / (tp + fn_) as f64 };
    let f1 = if precision + recall == 0.0 { 0.0 } else { 2.0 * precision * recall / (precision + recall) };
    let accuracy = if n == 0 { 0.0 } else { (tp + correct_bg) as f64 / n as f64 };
    ClassMetrics { precision, recall, f1, accuracy }
}

/// Decodes a window-classifier label (0 = background) back to a [`HoType`].
/// Inverse of the `1 + ho as usize` encoding used by the feature extractors.
pub fn to_ho(label: usize) -> Option<HoType> {
    if label == 0 {
        None
    } else {
        HoType::ALL.iter().copied().find(|h| 1 + *h as usize == label)
    }
}

/// Converts window-level baseline predictions into episodes + truth events
/// so offline classifiers are matched under exactly the same event rule as
/// Prognos ([`metrics_events_from`]). Consecutive same-type positive
/// windows form one episode.
pub fn window_preds_to_episodes(
    labels: &[usize],
    preds: &[usize],
    window_s: f64,
) -> (Vec<Episode>, Vec<(f64, HoType)>) {
    let mut episodes: Vec<Episode> = Vec::new();
    let mut events = Vec::new();
    for (i, (&truth, &pred)) in labels.iter().zip(preds).enumerate() {
        let t = i as f64 * window_s;
        if let Some(h) = to_ho(truth) {
            events.push((t, h));
        }
        if let Some(h) = to_ho(pred) {
            match episodes.last_mut() {
                Some(e) if e.ho == h && t - e.t_end <= window_s + 1e-9 => e.t_end = t,
                _ => episodes.push(Episode { t_start: t, t_end: t, ho: h }),
            }
        }
    }
    (episodes, events)
}

/// Labels the windows of a trace (ground truth only): used to evaluate the
/// offline baselines on exactly the same task.
pub fn label_windows(trace: &Trace, window_s: f64) -> Vec<(f64, Option<HoType>)> {
    let mut out = Vec::new();
    let mut t = 0.0;
    while t < trace.meta.duration_s {
        let truth = trace.handovers.iter().find(|h| h.t_command >= t && h.t_command < t + window_s).map(|h| h.ho_type);
        out.push((t, truth));
        t += window_s;
    }
    out
}

/// Replays `trace` through a Prognos instance.
///
/// `carry` continues with an already-warm system (multi-lap datasets);
/// `bootstrap` seeds frequent patterns before the run (Fig. 15).
pub fn run_prognos(
    trace: &Trace,
    cfg: PrognosConfig,
    bootstrap: Option<Vec<(Vec<MeasEvent>, HoType)>>,
    carry: Option<(Prognos, f64)>,
) -> (PrognosRun, (Prognos, f64)) {
    run_prognos_scored(trace, cfg, bootstrap, carry, None)
}

/// Like [`run_prognos`], with a telemetry recorder installed on the
/// replayed system: Prognos prep/exec phase timings, predict-call
/// counters, and the issued/hit/miss prediction journal accumulate on
/// `tele` across the replay.
pub fn run_prognos_instrumented(
    trace: &Trace,
    cfg: PrognosConfig,
    tele: &fiveg_telemetry::Telemetry,
) -> (PrognosRun, (Prognos, f64)) {
    let mut pg = Prognos::new(cfg.clone());
    pg.set_telemetry(tele.clone());
    run_prognos(trace, cfg, None, Some((pg, 0.0)))
}

/// Like [`run_prognos`], with an optional calibrated ho_score table.
pub fn run_prognos_scored(
    trace: &Trace,
    cfg: PrognosConfig,
    bootstrap: Option<Vec<(Vec<MeasEvent>, HoType)>>,
    carry: Option<(Prognos, f64)>,
    scores: Option<prognos::HoScoreTable>,
) -> (PrognosRun, (Prognos, f64)) {
    let window_s = cfg.prediction_window_s;
    // a carried system keeps its own monotone clock across traces
    let t_base = carry.as_ref().map(|(_, b)| *b).unwrap_or(0.0);
    let mut pg = carry.map(|(pg, _)| pg).unwrap_or_else(|| {
        let mut pg = Prognos::new(cfg.clone());
        if let Some(pats) = bootstrap {
            pg.bootstrap(pats);
        }
        pg
    });
    pg.set_configs(trace.configs.clone());
    if let Some(sc) = scores {
        pg.set_scores(sc);
    }
    let learned0 = pg.learner().learned_total();
    let evicted0 = pg.learner().evicted_total();

    let dt = 1.0 / trace.meta.sample_hz;
    let mut windows: Vec<WindowOutcome> = Vec::new();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut f1_timeline = Vec::new();
    let mut next_window = window_s;
    let mut next_f1 = 60.0;
    let mut rep_i = 0usize;
    let mut ho_i = 0usize;

    // Measurement-object groups are UE-visible (they come in MeasConfig):
    // LTE A3 is per carrier frequency; NR A3 under NSA is per gNB; SA NR A3
    // is per frequency. Encode the group as a u32 key.
    let freq_key = |cell: u32| {
        let band = &trace.cell(cell).band;
        let mut h: u32 = 0x811c9dc5;
        for b in band.bytes() {
            h = (h ^ b as u32).wrapping_mul(0x0100_0193);
        }
        h
    };
    let lte_obs = |cell: u32, rrs| prognos::CellObs {
        pci: fiveg_rrc::Pci(trace.cell(cell).pci),
        rrs,
        group: Some(freq_key(cell)),
    };
    let nr_obs = |cell: u32, rrs| prognos::CellObs {
        pci: fiveg_rrc::Pci(trace.cell(cell).pci),
        rrs,
        group: if trace.meta.arch == Arch::Nsa { Some(trace.cell(cell).tower) } else { Some(freq_key(cell)) },
    };

    for s in &trace.samples {
        // 1. radio snapshot
        let lte = LegSnapshot {
            serving: s.lte_cell.zip(s.lte_rrs).map(|(c, r)| lte_obs(c, r)),
            neighbors: s.lte_neighbors.iter().map(|&(c, r)| lte_obs(c, r)).collect(),
        };
        let nr = LegSnapshot {
            serving: s.nr_cell.zip(s.nr_rrs).map(|(c, r)| nr_obs(c, r)),
            neighbors: s.nr_neighbors.iter().map(|&(c, r)| nr_obs(c, r)).collect(),
        };
        pg.on_sample(t_base + s.t, &lte, &nr);

        // 2. deliver due measurement reports
        while rep_i < trace.reports.len() && trace.reports[rep_i].t <= s.t {
            pg.on_report(trace.reports[rep_i].event);
            rep_i += 1;
        }
        // 3. deliver due HO commands
        while ho_i < trace.handovers.len() && trace.handovers[ho_i].t_command <= s.t {
            pg.on_handover(trace.handovers[ho_i].ho_type);
            ho_i += 1;
        }

        // 4. predict continuously (every sample, like a deployed system)
        let nr_band: Option<BandClass> = s
            .nr_cell
            .map(|c| trace.cell(c).class)
            .or_else(|| s.nr_neighbors.first().map(|&(c, _)| trace.cell(c).class));
        let ctx = UeContext { arch: trace.meta.arch, has_scg: s.nr_cell.is_some(), nr_band };
        let p = pg.predict(t_base + s.t, &ctx);
        match (p.ho, episodes.last_mut()) {
            (Some(h), Some(e)) if e.ho == h && s.t - e.t_end <= 0.3 + dt => e.t_end = s.t,
            (Some(h), _) => episodes.push(Episode { t_start: s.t, t_end: s.t, ho: h }),
            (None, _) => {}
        }

        // window-grid record (for the strict metrics and the app hooks)
        if s.t + 1e-9 >= next_window {
            let w_start = next_window;
            let truth = trace
                .handovers
                .iter()
                .find(|h| h.t_command >= w_start && h.t_command < w_start + window_s)
                .map(|h| h.ho_type);
            windows.push(WindowOutcome { t: w_start, truth, pred: p.ho, ho_score: p.ho_score, lead_s: p.lead_s });
            next_window += window_s;
        }

        // 5. running F1 (once a minute), event-matched like Table 3
        if s.t >= next_f1 {
            let events_so_far: Vec<(f64, HoType)> =
                trace.handovers.iter().filter(|h| h.t_command <= s.t).map(|h| (h.t_command, h.ho_type)).collect();
            let m = metrics_events_from(&episodes, &events_so_far, 2.0, 0.3, windows.len());
            f1_timeline.push((s.t, m.f1));
            next_f1 += 60.0;
        }
    }

    // lead times: earliest overlapping same-type episode start before the
    // HO command
    let mut lead_times = Vec::new();
    for h in &trace.handovers {
        let lead = episodes
            .iter()
            .filter(|e| e.ho == h.ho_type && e.t_start <= h.t_command + 0.3 && e.t_end >= h.t_command - 2.0)
            .map(|e| (h.t_command - e.t_start).max(0.0))
            .fold(None::<f64>, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))));
        if let Some(lead) = lead {
            let is_5g = h.ho_type.category() == fiveg_ran::HoCategory::FiveG;
            lead_times.push((is_5g, lead));
        }
    }
    let events: Vec<(f64, HoType)> = trace.handovers.iter().map(|h| (h.t_command, h.ho_type)).collect();

    let run = PrognosRun {
        windows,
        episodes,
        events,
        f1_timeline,
        lead_times,
        learned: pg.learner().learned_total() - learned0,
        evicted: pg.learner().evicted_total() - evicted0,
    };
    (run, (pg, t_base + trace.meta.duration_s + 10.0))
}

/// Ground-truth throughput-change scores for the `-GT` app variants: for
/// time `t` inside a HO's influence window, the capacity a transfer
/// actually experiences across the HO (the execution-window mean) relative
/// to the pre-HO capacity; 1.0 elsewhere.
pub fn gt_score_fn(trace: &Trace) -> impl Fn(f64) -> f64 {
    let series = trace.bandwidth_series();
    let mean_in = move |series: &[(f64, f64)], a: f64, b: f64| -> f64 {
        let vals: Vec<f64> = series.iter().filter(|p| p.0 >= a && p.0 < b).map(|p| p.1).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    let mut events: Vec<(f64, f64, f64)> = Vec::new(); // (start, end, score)
    for h in &trace.handovers {
        let pre = mean_in(&series, h.t_decision - 2.0, h.t_decision - 1.0);
        let through = mean_in(&series, h.t_decision, h.t_complete + 0.5);
        if pre > 1.0 {
            let score = (through / pre).clamp(0.05, 20.0);
            events.push((h.t_decision - 1.0, h.t_complete + 0.5, score));
        }
    }
    move |t: f64| events.iter().find(|(a, b, _)| t >= *a && t <= *b).map(|&(_, _, s)| s).unwrap_or(1.0)
}

/// Calibrates a [`prognos::HoScoreTable`] from a set of traces' observed
/// per-HO phase throughputs, scoring the *through-HO* capacity (execution
/// window) against the pre-HO capacity — the quantity an in-flight chunk
/// actually experiences when a predicted HO arrives.
pub fn calibrate_scores(traces: &[&Trace]) -> prognos::HoScoreTable {
    let mut samples = Vec::new();
    for t in traces {
        for p in fiveg_analysis::ho_phase_throughput(t) {
            samples.push((p.ho_type, p.nr_band, p.pre_mbps, p.exec_mbps));
        }
    }
    prognos::HoScoreTable::calibrate(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_ran::Carrier;
    use fiveg_sim::ScenarioBuilder;

    fn short_trace() -> Trace {
        ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 8.0, 7).duration_s(240.0).sample_hz(20.0).build().run()
    }

    #[test]
    fn driver_produces_windows_and_learns() {
        let t = short_trace();
        let (run, pg) = run_prognos(&t, PrognosConfig::default(), None, None);
        assert!(run.windows.len() > 200);
        assert!(pg.0.learner().phase_count() > 0);
        // some HO windows must exist in the truth
        assert!(run.windows.iter().any(|w| w.truth.is_some()));
    }

    #[test]
    fn carry_over_warm_start_improves_f1() {
        let t = short_trace();
        let (cold, carry) = run_prognos(&t, PrognosConfig::default(), None, None);
        let (warm, _) = run_prognos(&t, PrognosConfig::default(), None, Some(carry));
        assert!(warm.metrics().f1 >= cold.metrics().f1, "warm {} vs cold {}", warm.metrics().f1, cold.metrics().f1);
    }

    #[test]
    fn instrumented_replay_records_prognos_phases() {
        use fiveg_telemetry::{Telemetry, TelemetryConfig};
        let t = short_trace();
        let tele = Telemetry::new(TelemetryConfig::on());
        let (run, _) = run_prognos_instrumented(&t, PrognosConfig::default(), &tele);
        assert!(!run.windows.is_empty());
        assert!(tele.counter_value("prognos.predict_calls") > 0);
        let names: Vec<&str> = tele.phases().iter().map(|p| p.phase.name()).collect();
        assert!(names.contains(&"prognos_prep") && names.contains(&"prognos_exec"), "{names:?}");
    }

    #[test]
    fn label_windows_cover_duration() {
        let t = short_trace();
        let labels = label_windows(&t, 1.0);
        assert!((labels.len() as f64 - t.meta.duration_s).abs() < 2.0);
        let ho_windows = labels.iter().filter(|(_, h)| h.is_some()).count();
        assert!(ho_windows >= t.handovers.len() / 2);
    }

    #[test]
    fn gt_score_is_one_away_from_hos() {
        let t = short_trace();
        let f = gt_score_fn(&t);
        // far beyond the last HO
        assert_eq!(f(t.meta.duration_s + 100.0), 1.0);
    }

    // --- metrics_tolerant_from edge cases ---

    fn series(pairs: &[(usize, usize)]) -> Vec<(Option<HoType>, Option<HoType>)> {
        pairs.iter().map(|&(t, p)| (to_ho(t), to_ho(p))).collect()
    }

    #[test]
    fn tolerant_empty_series_is_all_zero() {
        let m = metrics_tolerant_from(&[], 2);
        assert_eq!((m.precision, m.recall, m.f1, m.accuracy), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn tolerant_zero_tolerance_is_strict_alignment() {
        // truth at 1, prediction at 2: a hit with tol 1, a miss with tol 0
        let s = series(&[(0, 0), (1, 0), (0, 1), (0, 0)]);
        let m0 = metrics_tolerant_from(&s, 0);
        assert_eq!(m0.recall, 0.0);
        assert_eq!(m0.precision, 0.0);
        let m1 = metrics_tolerant_from(&s, 1);
        assert_eq!(m1.recall, 1.0);
        assert_eq!(m1.precision, 1.0);
    }

    #[test]
    fn tolerant_boundary_truths_do_not_overflow() {
        // truths at both ends of the series with a tolerance wider than
        // the series itself: index arithmetic must saturate, not panic
        let s = series(&[(1, 0), (0, 0), (0, 1)]);
        let m = metrics_tolerant_from(&s, 10);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.precision, 1.0);
    }

    #[test]
    fn tolerant_prediction_consumed_once() {
        // two truths share one same-type prediction within tolerance: only
        // one can match it, the other is a miss
        let s = series(&[(1, 0), (0, 1), (1, 0)]);
        let m = metrics_tolerant_from(&s, 1);
        assert_eq!(m.recall, 0.5);
        assert_eq!(m.precision, 1.0);
    }

    #[test]
    fn tolerant_wrong_type_within_span_is_no_match() {
        // a type-2 prediction near a type-1 truth: miss + false alarm
        let s = series(&[(1, 0), (0, 2), (0, 0)]);
        let m = metrics_tolerant_from(&s, 2);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.precision, 0.0);
        // background windows still count toward accuracy (index 2 only)
        assert!((m.accuracy - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tolerant_all_background_is_perfect_accuracy_zero_f1() {
        let s = series(&[(0, 0), (0, 0), (0, 0)]);
        let m = metrics_tolerant_from(&s, 2);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.f1, 0.0);
    }
}
