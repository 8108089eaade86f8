//! Fig. 8 — HO preparation stage (T1) for OpY: LTE vs NSA vs SA.
//!
//! Paper: NSA T1 ≈ 48% longer than LTE; SA's median T1 is comparable to
//! (slightly better than) LTE's but with much larger variance.

use fiveg_analysis::DurationStats;
use fiveg_bench::fmt;
use fiveg_bench::pool::{default_threads, run_ordered};
use fiveg_ran::{Arch, Carrier, HoType};
use fiveg_sim::{ScenarioBuilder, Telemetry, TelemetryConfig};

fn main() {
    fmt::header("Fig. 8 — HO preparation stage T1, OpY (LTE vs NSA vs SA)");

    // The three architecture legs are independent scenarios — simulate
    // them concurrently. The NSA leg runs instrumented: the ho.t1_ms
    // histogram and per-phase tick-loop timings corroborate the table.
    let tele = Telemetry::new(TelemetryConfig::on());
    let mk = |arch| ScenarioBuilder::freeway(Carrier::OpY, arch, 35.0, 81).duration_s(1100.0).sample_hz(10.0);
    let scenarios = [mk(Arch::Lte).build(), mk(Arch::Nsa).build(), mk(Arch::Sa).build()];
    let mut traces = run_ordered(scenarios.len(), default_threads(), |i| match i {
        1 => scenarios[i].run_instrumented(&tele),
        i => scenarios[i].run(),
    });
    let (lte, nsa, sa) = {
        let sa = traces.pop().unwrap();
        let nsa = traces.pop().unwrap();
        (traces.pop().unwrap(), nsa, sa)
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
            fmt::f(s.std_ms, 0),
        ]);
    };
    let lte_t1 = DurationStats::t1(&lte.handovers, |h| h.ho_type == HoType::Lteh);
    push("LTEH (LTE)", lte_t1);
    push("LTEH (NSA)", DurationStats::t1(&nsa.handovers, |h| h.ho_type == HoType::Lteh));
    push("SCGA (NSA)", DurationStats::t1(&nsa.handovers, |h| h.ho_type == HoType::Scga));
    push("SCGM (NSA)", DurationStats::t1(&nsa.handovers, |h| h.ho_type == HoType::Scgm));
    push("SCGC (NSA)", DurationStats::t1(&nsa.handovers, |h| h.ho_type == HoType::Scgc));
    let sa_t1 = DurationStats::t1(&sa.handovers, |h| h.ho_type == HoType::Mcgh);
    push("MCGH (SA)", sa_t1);
    fmt::table(&["HO type", "n", "mean ms", "median", "p25", "p75", "std"], &rows);

    let nsa_t1 = DurationStats::t1(&nsa.handovers, |_| true);
    fmt::compare(
        "NSA T1 increase over LTE",
        "~48%",
        &format!("{:.0}%", (nsa_t1.mean_ms / lte_t1.mean_ms - 1.0) * 100.0),
    );
    fmt::compare(
        "SA median T1 vs LTE median",
        "comparable/slightly better",
        &format!("{:.0} vs {:.0} ms", sa_t1.median_ms, lte_t1.median_ms),
    );
    fmt::compare(
        "SA T1 std vs LTE T1 std (high variance)",
        "much larger",
        &format!("{:.0} vs {:.0} ms", sa_t1.std_ms, lte_t1.std_ms),
    );

    fmt::telemetry("telemetry (NSA leg, instrumented run)", &tele);

    assert!(nsa_t1.mean_ms > lte_t1.mean_ms * 1.2, "NSA T1 must exceed LTE T1");
    assert!(sa_t1.std_ms > lte_t1.std_ms * 1.5, "SA T1 must be high-variance");
    let t1_hist = tele.histogram_snapshot("ho.t1_ms").expect("instrumented run registers T1");
    assert!(t1_hist.count > 0, "instrumented run must observe T1 durations");
    println!("\nOK fig08_prep_stage");
}
