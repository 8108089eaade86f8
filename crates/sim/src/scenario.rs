//! Scenario definitions and builders.
//!
//! A scenario is "one drive/walk with one phone on one carrier": a route, a
//! speed profile, the service architecture in the area, a workload, and a
//! seed. Presets cover the paper's recurring setups:
//!
//! * [`ScenarioBuilder::city_loop`] — downtown driving loop (Zoom/gaming
//!   experiments, §4.1);
//! * [`ScenarioBuilder::freeway`] — interstate leg (HO frequency/energy,
//!   §5.1/§5.3);
//! * [`ScenarioBuilder::walking_loop`] — the D1/D2 walking datasets (§7.3);
//! * [`ScenarioBuilder::urban_walk_mmwave`] — the §6.2 mmWave walking loop.

use crate::engine;
use crate::fault::FaultConfig;
use crate::trace::Trace;
use fiveg_geo::{routes, Point, Polyline};
use fiveg_link::Cca;
use fiveg_ran::{Arch, Carrier, Environment};
use fiveg_telemetry::Telemetry;
use fiveg_ue::SpeedProfile;

/// The traffic the UE runs during the scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Keep-alive pings only (energy experiments).
    Idle,
    /// Saturating iPerf-style download.
    Bulk(Cca),
    /// Constant-bitrate real-time stream (rate, per-frame deadline).
    Cbr {
        /// Stream rate, Mbps.
        rate_mbps: f64,
        /// Frame deadline, ms.
        deadline_ms: f64,
    },
}

/// A fully specified scenario, ready to run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Route driven/walked.
    pub route: Polyline,
    /// Carrier under test.
    pub carrier: Carrier,
    /// Deployment environment.
    pub env: Environment,
    /// Service architecture.
    pub arch: Arch,
    /// Speed profile.
    pub speed: SpeedProfile,
    /// Scenario seed (controls deployment, channel, stage draws).
    pub seed: u64,
    /// Sampling/tick rate, Hz.
    pub sample_hz: f64,
    /// Hard cap on simulated time, s (route end also stops the run).
    pub max_duration_s: f64,
    /// UE workload.
    pub workload: Workload,
    /// Fault injection.
    pub faults: FaultConfig,
    /// Forces the NSA bearer mode everywhere (`Some(true)` = dual,
    /// `Some(false)` = 5G-only); `None` follows the deployment's per-area
    /// configuration. Used by the §4.2 mode comparison.
    pub force_dual: Option<bool>,
}

impl Scenario {
    /// Runs the scenario to completion and returns the recorded trace.
    pub fn run(&self) -> Trace {
        engine::run_with(self, &Telemetry::disabled(), None)
    }

    /// Runs the scenario recording into a caller-owned [`Telemetry`] handle,
    /// so counters, the event journal and the summary stay inspectable
    /// after the run.
    ///
    /// With a disabled handle this is [`Scenario::run`] exactly (every
    /// telemetry call is an `Option` check). With an enabled handle,
    /// counters, histograms and journal events are recorded at sim-time and
    /// per-phase wall-clock timers wrap the tick-loop stages; none of it
    /// feeds back into the simulation, so the returned `Trace` is identical
    /// either way.
    pub fn run_instrumented(&self, tele: &Telemetry) -> Trace {
        engine::run_with(self, tele, None)
    }
}

/// Fluent builder over [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    s: Scenario,
}

impl ScenarioBuilder {
    /// Fully custom scenario starting from sensible defaults.
    pub fn new(route: Polyline, carrier: Carrier, env: Environment, arch: Arch, seed: u64) -> Self {
        Self {
            s: Scenario {
                route,
                carrier,
                env,
                arch,
                speed: SpeedProfile::freeway(100.0),
                seed,
                sample_hz: 20.0,
                max_duration_s: 3600.0,
                workload: Workload::Idle,
                faults: FaultConfig::NONE,
                force_dual: None,
            },
        }
    }

    /// Downtown driving loop: 2 km × 1 km block, NSA, city speeds.
    pub fn city_loop(carrier: Carrier, seed: u64) -> Self {
        let route = routes::repeat_loop(&routes::rectangular_loop(Point::ORIGIN, 2000.0, 1000.0), 8);
        let mut b = Self::new(route, carrier, Environment::Urban, Arch::Nsa, seed);
        b.s.speed = SpeedProfile::city(50.0);
        b
    }

    /// Dense-core driving loop with mmWave coverage.
    pub fn city_loop_dense(carrier: Carrier, seed: u64) -> Self {
        let route = routes::repeat_loop(&routes::rectangular_loop(Point::ORIGIN, 1200.0, 800.0), 10);
        let mut b = Self::new(route, carrier, Environment::UrbanDense, Arch::Nsa, seed);
        b.s.speed = SpeedProfile::city(40.0);
        b
    }

    /// Interstate freeway leg of `km` kilometers at 130 km/h.
    pub fn freeway(carrier: Carrier, arch: Arch, km: f64, seed: u64) -> Self {
        let route = routes::curved_freeway(Point::ORIGIN, 0.2, km * 1000.0, (km / 2.0).max(2.0) as usize, 0.06);
        let mut b = Self::new(route, carrier, Environment::Freeway, arch, seed);
        b.s.speed = SpeedProfile::freeway(130.0);
        b
    }

    /// Walking loop of `minutes` minutes (datasets D1/D2; tourist-area and
    /// downtown loops). Dense urban so mmWave is present where the carrier
    /// deploys it.
    pub fn walking_loop(carrier: Carrier, minutes: f64, laps: usize, seed: u64) -> Self {
        // perimeter sized so one lap takes `minutes` at walking pace
        let perimeter = SpeedProfile::walking().mean_mps() * minutes * 60.0;
        let w = perimeter * 0.3;
        let h = perimeter / 2.0 - w;
        let route = routes::repeat_loop(&routes::rectangular_loop(Point::ORIGIN, w, h), laps);
        let mut b = Self::new(route, carrier, Environment::UrbanDense, Arch::Nsa, seed);
        b.s.speed = SpeedProfile::walking();
        b.s.max_duration_s = minutes * 60.0 * laps as f64 + 60.0;
        b
    }

    /// The §6.2 bulk-download mmWave walking loop (35+ minutes).
    pub fn urban_walk_mmwave(carrier: Carrier, seed: u64) -> Self {
        let mut b = Self::walking_loop(carrier, 35.0, 1, seed);
        b.s.workload = Workload::Bulk(Cca::Cubic);
        b
    }

    /// Overrides the service architecture (the route presets default to
    /// NSA; experiments vary this axis independently).
    pub fn arch(mut self, arch: Arch) -> Self {
        self.s.arch = arch;
        self
    }

    /// Overrides the speed profile.
    pub fn speed(mut self, profile: SpeedProfile) -> Self {
        self.s.speed = profile;
        self
    }

    /// Caps simulated time, s.
    pub fn duration_s(mut self, secs: f64) -> Self {
        self.s.max_duration_s = secs;
        self
    }

    /// Sets the sampling rate, Hz.
    pub fn sample_hz(mut self, hz: f64) -> Self {
        assert!(hz > 0.0);
        self.s.sample_hz = hz;
        self
    }

    /// Sets the UE workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.s.workload = w;
        self
    }

    /// Sets fault injection.
    pub fn faults(mut self, f: FaultConfig) -> Self {
        self.s.faults = f;
        self
    }

    /// Forces the NSA bearer mode for the whole area (§4.2's comparison).
    pub fn force_dual(mut self, dual: bool) -> Self {
        self.s.force_dual = Some(dual);
        self
    }

    /// Finalizes the scenario.
    pub fn build(self) -> Scenario {
        self.s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let s = ScenarioBuilder::city_loop(Carrier::OpX, 1).build();
        assert_eq!(s.sample_hz, 20.0);
        assert_eq!(s.arch, Arch::Nsa);
        assert_eq!(s.workload, Workload::Idle);
    }

    #[test]
    fn walking_loop_duration_matches() {
        let s = ScenarioBuilder::walking_loop(Carrier::OpX, 35.0, 1, 2).build();
        let lap_time = s.route.length() / SpeedProfile::walking().mean_mps();
        assert!((lap_time - 35.0 * 60.0).abs() < 10.0, "lap {lap_time}s");
    }

    #[test]
    fn freeway_length() {
        let s = ScenarioBuilder::freeway(Carrier::OpY, Arch::Sa, 25.0, 3).build();
        assert!((s.route.length() - 25_000.0).abs() < 1.0);
    }

    #[test]
    fn builder_overrides_apply() {
        let s = ScenarioBuilder::city_loop(Carrier::OpZ, 4)
            .duration_s(120.0)
            .sample_hz(10.0)
            .workload(Workload::Bulk(Cca::Bbr))
            .build();
        assert_eq!(s.max_duration_s, 120.0);
        assert_eq!(s.sample_hz, 10.0);
        assert_eq!(s.workload, Workload::Bulk(Cca::Bbr));
    }

    #[test]
    fn arch_override_applies_to_presets() {
        let s = ScenarioBuilder::city_loop(Carrier::OpX, 9).arch(Arch::Sa).build();
        assert_eq!(s.arch, Arch::Sa);
    }
}
