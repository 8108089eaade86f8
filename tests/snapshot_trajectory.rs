//! The snapshot engine's radio contract, enforced along real trajectories.
//!
//! The tick loop reads radio state only through the per-tick
//! [`fiveg_ran::RadioSnapshot`] (plus `Cell::rx_dbm` for a serving cell that
//! fell out of it). So if the snapshot equals [`fiveg_ran::per_band_top`] —
//! the per-band top of the exhaustive [`fiveg_ran::Deployment::strongest`]
//! scan — bit for bit at the attach point and at every tick of a run, the
//! run's trace is the one the exhaustive scan would have produced.
//!
//! One scenario per architecture covers the three tick-loop shapes: NSA
//! (LTE anchor plus NR leg), SA (NR leg only) and LTE (LTE leg only).

use fiveg_oracle::check::check_radio_trajectory;
use fiveg_ran::{Arch, Carrier};
use fiveg_sim::ScenarioBuilder;

#[test]
fn snapshot_equals_per_band_top_along_every_trajectory() {
    for (arch, carrier, seed) in
        [(Arch::Nsa, Carrier::OpY, 31_u64), (Arch::Sa, Carrier::OpX, 32), (Arch::Lte, Carrier::OpY, 33)]
    {
        let s = ScenarioBuilder::freeway(carrier, arch, 4.0, seed).duration_s(120.0).sample_hz(10.0).build();
        let trace = s.run();
        let points = check_radio_trajectory(&s, &trace).unwrap_or_else(|e| panic!("{arch:?}: {e}"));
        // the attach point plus one refresh per tick
        assert_eq!(points, trace.samples.len() + 1, "{arch:?}");
        assert!(trace.samples.len() >= 1000 && !trace.handovers.is_empty(), "{arch:?}: the run must be non-trivial");
    }
}
