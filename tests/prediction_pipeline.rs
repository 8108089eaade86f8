//! Integration: the Prognos pipeline over simulated traces.

use fiveg_bench::driver::trace_steps;
use fiveg_mobility::prelude::*;
use fiveg_mobility::prognos::UeContext;
use fiveg_mobility::ran::Arch;

/// Replays `trace` through a fresh Prognos over the scorer's mapping,
/// counting positive predictions and the HOs called by a same-type
/// prediction under 3 s before their command.
fn drive_prognos(trace: &Trace) -> (Prognos, usize, usize) {
    let mut pg = Prognos::new(PrognosConfig::default());
    pg.set_configs(trace.configs.clone());
    let mut positives = 0usize;
    let mut anticipated = 0usize;
    let mut last_call: Option<(HoType, f64)> = None;
    for step in trace_steps(trace) {
        pg.on_sample(step.t, &step.lte, &step.nr);
        for r in step.reports {
            pg.on_report(r.event);
        }
        for h in step.handovers {
            if let Some((ho, t_call)) = last_call {
                if ho == h.ho_type && h.t_command - t_call < 3.0 {
                    anticipated += 1;
                }
            }
            pg.on_handover(h.ho_type);
            last_call = None;
        }
        let p = pg.predict(step.t, &step.ctx);
        if let Some(ho) = p.ho {
            positives += 1;
            last_call = Some((ho, step.t));
        }
    }
    (pg, positives, anticipated)
}

fn walk(seed: u64) -> Trace {
    ScenarioBuilder::walking_loop(Carrier::OpX, 15.0, 1, seed).sample_hz(20.0).build().run()
}

#[test]
fn prognos_learns_the_simulated_carrier_policy() {
    let t = walk(31);
    let (pg, _, _) = drive_prognos(&t);
    let patterns = pg.learner().patterns();
    assert!(!patterns.is_empty(), "must learn patterns");
    // the canonical Fig. 16 sequences must be among them
    use fiveg_mobility::rrc::{EventKind, MeasEvent};
    let has = |seq: Vec<MeasEvent>, ho: HoType| patterns.iter().any(|p| p.seq == seq && p.ho == ho);
    assert!(
        has(vec![MeasEvent::nr(EventKind::B1)], HoType::Scga),
        "[NR-B1] -> SCGA must be learned; got {:?}",
        patterns
            .iter()
            .map(|p| (p.seq.iter().map(|e| e.label()).collect::<Vec<_>>(), p.ho.acronym()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn prognos_anticipates_a_reasonable_share_of_hos() {
    let t = walk(32);
    let (_, positives, anticipated) = drive_prognos(&t);
    assert!(positives > 0, "must emit predictions");
    assert!(anticipated * 5 >= t.handovers.len(), "must anticipate ≥20% of HOs: {anticipated}/{}", t.handovers.len());
}

#[test]
fn sanity_checks_suppress_impossible_predictions() {
    // feed a trained system a context that forbids its favourite pattern
    let t = walk(33);
    let (mut pg, _, _) = drive_prognos(&t);
    use fiveg_mobility::rrc::{EventKind, MeasEvent};
    pg.on_report(MeasEvent::nr(EventKind::B1));
    let with_scg = UeContext { arch: Arch::Nsa, has_scg: true, nr_band: None };
    let p = pg.predict(1e7, &with_scg);
    assert_ne!(p.ho, Some(HoType::Scga), "SCGA cannot be predicted with an SCG attached");
}

#[test]
fn ho_score_reflects_predicted_direction() {
    let t = walk(34);
    let (mut pg, _, _) = drive_prognos(&t);
    use fiveg_mobility::radio::BandClass;
    use fiveg_mobility::rrc::{EventKind, MeasEvent};
    // a B1 report with no SCG predicts SCGA: score must be an improvement
    pg.on_report(MeasEvent::nr(EventKind::B1));
    let ctx = UeContext { arch: Arch::Nsa, has_scg: false, nr_band: Some(BandClass::MmWave) };
    let p = pg.predict(2e7, &ctx);
    if p.ho == Some(HoType::Scga) {
        assert!(p.ho_score > 1.0, "SCGA onto mmWave must predict a boost: {}", p.ho_score);
    }
}

#[test]
fn baselines_train_and_predict_on_sim_features() {
    use fiveg_mobility::baselines::{Dataset, Gbc, GbcConfig};
    let t = walk(35);
    // minimal feature extraction: serving RSRPs per second
    let mut data = Dataset::new();
    let mut sec = 0.0;
    while sec + 1.0 < t.meta.duration_s {
        let ws: Vec<_> = t.samples.iter().filter(|s| s.t >= sec && s.t < sec + 1.0).collect();
        if !ws.is_empty() {
            let lte = ws.iter().filter_map(|s| s.lte_rrs.map(|r| r.rsrp_dbm)).sum::<f64>() / ws.len() as f64;
            let nr = ws.iter().filter_map(|s| s.nr_rrs.map(|r| r.sinr_db)).sum::<f64>() / ws.len().max(1) as f64;
            let label = usize::from(t.handovers.iter().any(|h| h.t_command >= sec && h.t_command < sec + 1.0));
            data.push(vec![lte, nr], label);
        }
        sec += 1.0;
    }
    let (train, test) = data.split(0.6);
    let g = Gbc::train(&train, &GbcConfig::default());
    // the model must at least run over the test rows
    let preds: Vec<usize> = test.features.iter().map(|x| g.predict(x)).collect();
    assert_eq!(preds.len(), test.len());
}
