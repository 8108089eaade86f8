//! The paper's datasets, reproduced as scenarios (§7.3).
//!
//! * **D1** — "7× traces representing a 35-min walking loop of a tourist
//!   area ... only has 5G mmWave and LTE Mid-Band coverage" → OpX dense
//!   urban walking loops.
//! * **D2** — "collected by walking a 25 mins loop 10× in the city's
//!   downtown area ... has 5G Low-Band coverage as well" → same carrier,
//!   different city (different seed base), dense urban.
//!
//! Both are "for OpX logged @ 20 Hz".

use crate::pool::{default_threads, parallel_traces};
use fiveg_ran::Carrier;
use fiveg_sim::{Scenario, ScenarioBuilder, Trace};

/// Builds the D1 dataset: 7 laps of a 35-minute walking loop.
///
/// `laps` defaults to the paper's 7; smaller values are used by quick test
/// runs. Each lap is its own trace (the paper treats them as 7 traces),
/// seeded independently, so they simulate in parallel.
pub fn d1_traces(laps: usize) -> Vec<Trace> {
    let scenarios: Vec<Scenario> = (0..laps)
        .map(|i| ScenarioBuilder::walking_loop(Carrier::OpX, 35.0, 1, 0xD1_0000 + i as u64).sample_hz(20.0).build())
        .collect();
    parallel_traces(&scenarios, default_threads())
}

/// Builds the D2 dataset: 10 laps of a 25-minute downtown loop.
pub fn d2_traces(laps: usize) -> Vec<Trace> {
    let scenarios: Vec<Scenario> = (0..laps)
        .map(|i| ScenarioBuilder::walking_loop(Carrier::OpX, 25.0, 1, 0xD2_0000 + i as u64).sample_hz(20.0).build())
        .collect();
    parallel_traces(&scenarios, default_threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_lap_shape() {
        let t = &d1_traces(1)[0];
        // ~35 minutes at 20 Hz
        assert!((t.meta.duration_s / 60.0 - 35.0).abs() < 3.0, "{}", t.meta.duration_s / 60.0);
        assert_eq!(t.meta.sample_hz, 20.0);
        assert!(!t.handovers.is_empty());
    }

    #[test]
    fn d2_differs_from_d1() {
        let a = &d1_traces(1)[0];
        let b = &d2_traces(1)[0];
        assert_ne!(a.meta.seed, b.meta.seed);
        assert!(b.meta.duration_s < a.meta.duration_s);
    }
}
