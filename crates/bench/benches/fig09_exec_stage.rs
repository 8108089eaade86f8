//! Fig. 9 — HO execution stage (T2) across access technologies and bands.
//!
//! Paper: NSA T2 is 1.4–5.4× LTE's depending on HO type; mmWave T2 is
//! 42–45% larger than low-band within NSA.

use fiveg_analysis::DurationStats;
use fiveg_bench::fmt;
use fiveg_bench::pool::{default_threads, run_ordered};
use fiveg_radio::BandClass;
use fiveg_ran::{Arch, Carrier, HoType};
use fiveg_sim::{ScenarioBuilder, Telemetry, TelemetryConfig};

fn main() {
    fmt::header("Fig. 9 — HO execution stage T2 (tech + band comparison)");

    // Four independent scenarios, simulated concurrently: OpY freeway
    // (LTE vs NSA vs SA) plus the OpX dense city loop for the band
    // comparison. The dense run is instrumented: the ho.t2_ms histogram
    // and journal corroborate the table below.
    let tele = Telemetry::new(TelemetryConfig::on());
    let mk = |arch| ScenarioBuilder::freeway(Carrier::OpY, arch, 35.0, 91).duration_s(1100.0).sample_hz(10.0);
    let scenarios = [
        mk(Arch::Lte).build(),
        mk(Arch::Nsa).build(),
        mk(Arch::Sa).build(),
        ScenarioBuilder::city_loop_dense(Carrier::OpX, 92).duration_s(1500.0).sample_hz(10.0).build(),
    ];
    let mut traces = run_ordered(scenarios.len(), default_threads(), |i| match i {
        3 => scenarios[i].run_instrumented(&tele),
        i => scenarios[i].run(),
    });
    let (lte, nsa, sa, dense) = {
        let dense = traces.pop().unwrap();
        let sa = traces.pop().unwrap();
        let nsa = traces.pop().unwrap();
        (traces.pop().unwrap(), nsa, sa, dense)
    };

    let mut rows = Vec::new();
    let mut push = |label: &str, s: DurationStats| {
        rows.push(vec![
            label.to_string(),
            s.count.to_string(),
            fmt::f(s.mean_ms, 0),
            fmt::f(s.median_ms, 0),
            fmt::f(s.p25_ms, 0),
            fmt::f(s.p75_ms, 0),
        ]);
    };
    let lte_t2 = DurationStats::t2(&lte.handovers, |h| h.ho_type == HoType::Lteh);
    push("LTEH (LTE, mid-band)", lte_t2);
    push("LTEH (NSA)", DurationStats::t2(&nsa.handovers, |h| h.ho_type == HoType::Lteh));
    let scgc_t2 = DurationStats::t2(&nsa.handovers, |h| h.ho_type == HoType::Scgc);
    push("SCGC (NSA)", scgc_t2);
    push("SCGM (NSA)", DurationStats::t2(&nsa.handovers, |h| h.ho_type == HoType::Scgm));
    push("MCGH (SA, low-band)", DurationStats::t2(&sa.handovers, |_| true));
    let low_t2 =
        DurationStats::t2(&dense.handovers, |h| h.ho_type.is_horizontal() && h.nr_band == Some(BandClass::Low));
    let mm_t2 =
        DurationStats::t2(&dense.handovers, |h| h.ho_type.is_horizontal() && h.nr_band == Some(BandClass::MmWave));
    push("NSA horizontal, Low-Band (OpX city)", low_t2);
    push("NSA horizontal, mmWave (OpX city)", mm_t2);
    fmt::table(&["HO type", "n", "mean ms", "median", "p25", "p75"], &rows);

    let scgr_t2 = DurationStats::t2(&nsa.handovers, |h| h.ho_type == HoType::Scgr);
    fmt::compare(
        "NSA T2 / LTE T2 range (SCGR..SCGC)",
        "1.4x - 5.4x",
        &format!("{:.1}x - {:.1}x", scgr_t2.mean_ms / lte_t2.mean_ms, scgc_t2.mean_ms / lte_t2.mean_ms),
    );
    fmt::compare(
        "mmWave T2 increase over low-band (NSA)",
        "42-45%",
        &format!("{:.0}%", (mm_t2.mean_ms / low_t2.mean_ms - 1.0) * 100.0),
    );

    fmt::telemetry("telemetry (OpX dense city, instrumented run)", &tele);

    assert!(scgc_t2.mean_ms > lte_t2.mean_ms * 1.4, "NSA T2 must exceed LTE T2");
    if low_t2.count > 3 && mm_t2.count > 3 {
        assert!(mm_t2.mean_ms > low_t2.mean_ms * 1.2, "mmWave T2 must exceed low-band");
    }
    let t2_hist = tele.histogram_snapshot("ho.t2_ms").expect("instrumented run registers T2");
    assert!(t2_hist.count > 0, "instrumented run must observe T2 durations");
    println!("\nOK fig09_exec_stage");
}
