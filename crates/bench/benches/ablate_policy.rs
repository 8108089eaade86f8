//! Ablation: the carrier-side levers §6 says would mitigate NSA's HO cost.
//!
//! The paper's carrier-facing recommendations: (1) account for eNB/gNB
//! co-location when handing over (Fig. 13's 13 ms penalty), and (2) NSA's
//! forced SCG release on anchor changes shrinks low-band 5G coverage
//! (§6.1). This harness quantifies both on our simulator by sweeping the
//! deployment co-location probability — more co-location means shorter NSA
//! HOs *and* fewer forced releases.

use fiveg_analysis::coverage::{dwell_distances, CoverageKind};
use fiveg_analysis::frequency::{is_nsa_5g_procedure, km_per_ho};
use fiveg_analysis::{mean, DurationStats};
use fiveg_bench::fmt;
use fiveg_geo::{routes, Point};
use fiveg_radio::BandClass;
use fiveg_ran::{Arch, Carrier, Environment, HoCategory};
use fiveg_sim::{Scenario, Workload};
use fiveg_ue::SpeedProfile;

/// Runs a freeway scenario against a deployment whose co-location
/// probability we control by varying the carrier... the probability is a
/// carrier profile constant, so the sweep compares the three carriers'
/// profiles (36% / 20% / 5%) on identical routes.
fn run(carrier: Carrier, seed: u64) -> fiveg_sim::Trace {
    let route = routes::curved_freeway(Point::ORIGIN, 0.2, 30_000.0, 15, 0.06);
    Scenario {
        route,
        carrier,
        env: Environment::Freeway,
        arch: Arch::Nsa,
        speed: SpeedProfile::freeway(130.0),
        seed,
        sample_hz: 10.0,
        max_duration_s: 900.0,
        workload: Workload::Idle,
        faults: fiveg_sim::FaultConfig::NONE,
        force_dual: None,
    }
    .run()
}

fn main() {
    fmt::header("Ablation — co-location and the NSA coverage/duration cost");

    let mut rows = Vec::new();
    for (carrier, coloc) in [(Carrier::OpX, 0.36), (Carrier::OpY, 0.20), (Carrier::OpZ, 0.05)] {
        let mut durs_co = Vec::new();
        let mut durs_non = Vec::new();
        let mut dwell = Vec::new();
        let mut ho_km = Vec::new();
        for seed in 0..3u64 {
            let t = run(carrier, 0xAB7 + seed);
            for h in &t.handovers {
                if h.nr_band.is_some() && h.ho_type.category() == HoCategory::FiveG {
                    if h.co_located {
                        durs_co.push(h.duration_ms());
                    } else {
                        durs_non.push(h.duration_ms());
                    }
                }
            }
            dwell.extend(dwell_distances(&t, CoverageKind::NrServing, Some(BandClass::Low)));
            ho_km.push(km_per_ho(&t, is_nsa_5g_procedure));
        }
        let co = DurationStats::from_values(&durs_co);
        let non = DurationStats::from_values(&durs_non);
        rows.push(vec![
            format!("{carrier} ({:.0}% co-located)", coloc * 100.0),
            format!("{} / {}", co.count, non.count),
            if co.count > 0 { fmt::f(co.mean_ms, 0) } else { "-".into() },
            fmt::f(non.mean_ms, 0),
            fmt::f(mean(&dwell), 0),
            fmt::f(mean(&ho_km), 2),
        ]);
    }
    fmt::table(
        &["carrier", "5G HOs co/non", "HO ms (co-located)", "HO ms (cross-tower)", "low-band dwell m", "km per 5G HO"],
        &rows,
    );

    println!("\nreading: co-located HOs avoid the cross-tower X2 penalty (~13 ms), and");
    println!("carriers with more co-location keep the SCG through more anchor changes.");
    println!("\nOK ablate_policy");
}
