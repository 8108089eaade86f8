//! A miniature cross-country drive test: three carriers side by side, like
//! the paper's tethered-phones methodology (§3).
//!
//! ```sh
//! cargo run --release --example drive_test
//! ```

use fiveg_mobility::analysis::frequency::{is_4g_ho, is_nsa_5g_procedure, km_per_ho};
use fiveg_mobility::analysis::{colocated_sample_fraction, DatasetInventory};
use fiveg_mobility::prelude::*;
use fiveg_mobility::ran::Arch;

fn main() {
    println!("mini drive test: 20 km freeway + one city loop per carrier\n");

    for carrier in Carrier::ALL {
        let freeway = ScenarioBuilder::freeway(carrier, Arch::Nsa, 20.0, 7).sample_hz(10.0).build().run();
        let city = ScenarioBuilder::city_loop(carrier, 8).duration_s(600.0).sample_hz(10.0).build().run();
        let inv = DatasetInventory::over(&[&freeway, &city]);
        println!("=== {carrier}");
        println!("  towers seen {:>4}   NR bands {}   LTE bands {}", inv.unique_towers, inv.nr_bands, inv.lte_bands);
        println!(
            "  4G HOs {:>4}   NSA 5G procedures {:>4}   (freeway: 5G HO every {:.2} km, 4G every {:.2} km)",
            inv.lte_hos,
            inv.nsa_procedures,
            km_per_ho(&freeway, is_nsa_5g_procedure),
            km_per_ho(&freeway, is_4g_ho),
        );
        println!(
            "  eNB/gNB co-located samples in the city: {:.0}%  (paper: 5-36% depending on carrier)",
            colocated_sample_fraction(&city) * 100.0
        );
        println!();
    }

    // OpY also runs SA: show the HO-frequency advantage. This run is
    // instrumented: the summary below shows per-phase tick-loop timings,
    // HO counters, and the journaled event stream.
    let tele = Telemetry::new(TelemetryConfig::on());
    let sa = ScenarioBuilder::freeway(Carrier::OpY, Arch::Sa, 20.0, 7).sample_hz(10.0).build().run_instrumented(&tele);
    println!(
        "OpY SA bonus run: one MCGH every {:.2} km (paper: 0.9 km; NSA is ~2x more frequent)",
        km_per_ho(&sa, |_| true)
    );
    println!();
    print!("{}", tele.summary());
    println!("\nfirst journaled events of the SA run:");
    for entry in tele.events().iter().take(5) {
        println!("  {}", entry.to_json());
    }
}
