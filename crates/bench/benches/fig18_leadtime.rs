//! Fig. 18 — prediction lead time with vs without the report predictor.
//!
//! Paper: the report predictor lets Prognos fire ~931 ms earlier on average
//! (with a 1.2% accuracy cost); without it, predictions trail the actual
//! MR by only ~70 ms median.

use fiveg_analysis::{mean, median, percentile};
use fiveg_bench::driver::{run_prognos, run_prognos_instrumented};
use fiveg_bench::fmt;
use fiveg_bench::pool::{default_threads, run_ordered};
use fiveg_telemetry::{Telemetry, TelemetryConfig};
use prognos::PrognosConfig;

fn main() {
    fmt::header("Fig. 18 — prediction lead time (report predictor on/off)");

    // The three seeds are independent end-to-end pipelines (simulate +
    // replay twice) — run them concurrently, each with its own telemetry
    // handle, then absorb per-seed registries in seed order so the
    // accumulated counters/phase timings match the serial run.
    let tele = Telemetry::new(TelemetryConfig::on());
    let per_seed = run_ordered(3, default_threads(), |i| {
        let trace = fiveg_sim::ScenarioBuilder::walking_loop(fiveg_ran::Carrier::OpX, 30.0, 1, 0xF18 + i as u64)
            .sample_hz(20.0)
            .build()
            .run();
        let local = Telemetry::new(TelemetryConfig::on());
        let (on, _) = run_prognos_instrumented(&trace, PrognosConfig::default(), &local);
        let cfg_off = PrognosConfig { use_report_predictor: false, ..Default::default() };
        let (off, _) = run_prognos(&trace, cfg_off, None, None);
        let accs = (on.metrics_events(2.0, 0.3).accuracy, off.metrics_events(2.0, 0.3).accuracy);
        (on.lead_times, off.lead_times, accs, local)
    });
    let mut with_rp: Vec<(bool, f64)> = Vec::new();
    let mut without_rp: Vec<(bool, f64)> = Vec::new();
    let mut acc_with = Vec::new();
    let mut acc_without = Vec::new();
    for (on_leads, off_leads, (acc_on, acc_off), local) in per_seed {
        with_rp.extend(on_leads);
        without_rp.extend(off_leads);
        acc_with.push(acc_on);
        acc_without.push(acc_off);
        tele.absorb(&local);
    }

    let split = |v: &[(bool, f64)], is_5g: bool| -> Vec<f64> {
        v.iter().filter(|&&(g, _)| g == is_5g).map(|&(_, l)| l * 1000.0).collect()
    };
    fmt::section("lead time CDFs, ms (per correctly-anticipated HO)");
    let mut rows = Vec::new();
    for (label, v) in [
        ("LTE HOs w/ report predictor", split(&with_rp, false)),
        ("LTE HOs w/o report predictor", split(&without_rp, false)),
        ("5G HOs w/ report predictor", split(&with_rp, true)),
        ("5G HOs w/o report predictor", split(&without_rp, true)),
    ] {
        if v.is_empty() {
            continue;
        }
        rows.push(vec![
            label.into(),
            v.len().to_string(),
            fmt::f(percentile(&v, 25.0), 0),
            fmt::f(median(&v), 0),
            fmt::f(percentile(&v, 75.0), 0),
            fmt::f(mean(&v), 0),
        ]);
    }
    fmt::table(&["population", "n", "p25 ms", "median ms", "p75 ms", "mean ms"], &rows);

    let all = |v: &[(bool, f64)]| -> Vec<f64> { v.iter().map(|&(_, l)| l * 1000.0).collect() };
    let gain = mean(&all(&with_rp)) - mean(&all(&without_rp));
    fmt::compare("mean lead-time gain from the report predictor", "~931 ms", &format!("{gain:.0} ms"));
    let m = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    fmt::compare(
        "accuracy cost of the report predictor",
        "~1.2%",
        &format!("{:+.1}%", (m(&acc_with) - m(&acc_without)) * 100.0),
    );
    fmt::compare(
        "median lead w/o report predictor (reactive)",
        "~70 ms",
        &format!("{:.0} ms", median(&all(&without_rp))),
    );

    fmt::telemetry("telemetry (report-predictor-on replays)", &tele);

    assert!(gain > 200.0, "the report predictor must buy substantial lead time: {gain} ms");
    assert!(tele.counter_value("prognos.predict_calls") > 0, "replay must be instrumented");
    println!("\nOK fig18_leadtime");
}
