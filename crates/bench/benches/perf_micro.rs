//! Micro-benchmarks of the performance-sensitive paths of the library.
//! Prognos must be "light-weight" enough for real-time use on a UE (§7.1) —
//! its per-sample predict cost is the headline number here.
//!
//! `cargo bench -p fiveg-bench --bench perf_micro [-- FILTER]` runs every
//! bench whose name contains FILTER: a warm-up, then batches doubling in
//! size until one takes at least 0.5 s, reported as wall time per call.

use fiveg_geo::{convex_hull, Point};
use fiveg_radio::Rrs;
use std::hint::black_box;
use std::time::{Duration, Instant};

mod helpers {
    pub use fiveg_ran::{Arch, Carrier};
    pub use fiveg_sim::ScenarioBuilder;
}

/// Runs and reports the benches selected by the command-line filter.
struct Bencher {
    filter: Option<String>,
}

impl Bencher {
    fn bench_function<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if self.filter.as_deref().is_some_and(|flt| !name.contains(flt)) {
            return;
        }
        black_box(f());
        let mut iters = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let dt = t.elapsed();
            if dt >= Duration::from_millis(500) || iters >= 1 << 40 {
                println!("{name:<36} {:>14.1} ns/iter ({iters} iters)", dt.as_nanos() as f64 / iters as f64);
                return;
            }
            iters *= 2;
        }
    }
}

fn bench_prognos_predict(c: &mut Bencher) {
    use fiveg_rrc::{EventConfig, EventKind, MeasEvent, Pci};
    use prognos::{CellObs, LegSnapshot, Prognos, PrognosConfig, UeContext};

    let mut pg = Prognos::new(PrognosConfig::default());
    pg.set_configs(vec![
        EventConfig::typical(MeasEvent::lte(EventKind::A3)),
        EventConfig::typical(MeasEvent::nr(EventKind::A2)),
        EventConfig::typical(MeasEvent::nr(EventKind::B1)),
    ]);
    for _ in 0..10 {
        pg.on_report(MeasEvent::nr(EventKind::B1));
        pg.on_handover(fiveg_ran::HoType::Scga);
        pg.on_report(MeasEvent::nr(EventKind::A2));
        pg.on_handover(fiveg_ran::HoType::Scgr);
    }
    // fill histories with 8 cells at 20 Hz
    let rrs = |x: f64| Rrs { rsrp_dbm: x, rsrq_db: -10.0, sinr_db: 8.0 };
    for i in 0..21 {
        let t = i as f64 * 0.05;
        let obs = |p: u16, base: f64| CellObs { pci: Pci(p), rrs: rrs(base - t), group: Some(p as u32 / 4) };
        pg.on_sample(
            t,
            &LegSnapshot { serving: Some(obs(1, -90.0)), neighbors: (2..6).map(|p| obs(p, -95.0)).collect() },
            &LegSnapshot { serving: Some(obs(10, -92.0)), neighbors: (11..14).map(|p| obs(p, -97.0)).collect() },
        );
    }
    let ctx = UeContext { arch: helpers::Arch::Nsa, has_scg: true, nr_band: Some(fiveg_radio::BandClass::Low) };
    c.bench_function("prognos_predict_per_sample", || pg.predict(1.05, &ctx));
}

fn bench_rrc_codec(c: &mut Bencher) {
    use fiveg_rrc::{decode, encode, EventKind, MeasEvent, NeighborMeas, Pci, RrcMessage};
    let msg = RrcMessage::MeasurementReport {
        event: MeasEvent::nr(EventKind::A3),
        serving_pci: Pci(77),
        serving_rrs: Rrs { rsrp_dbm: -101.5, rsrq_db: -11.0, sinr_db: 6.5 },
        neighbors: (0..4)
            .map(|i| NeighborMeas {
                pci: Pci(100 + i),
                rrs: Rrs { rsrp_dbm: -95.0 - i as f64, rsrq_db: -10.0, sinr_db: 8.0 },
            })
            .collect(),
    };
    c.bench_function("rrc_encode_measurement_report", || encode(&msg));
    let bytes = encode(&msg);
    c.bench_function("rrc_decode_measurement_report", || decode(&bytes).unwrap());
}

fn bench_sim_tick_rate(c: &mut Bencher) {
    // full simulator throughput: samples simulated per wall second
    c.bench_function("sim_freeway_30s_at_10hz", || {
        helpers::ScenarioBuilder::freeway(helpers::Carrier::OpY, helpers::Arch::Nsa, 2.0, 9)
            .duration_s(30.0)
            .sample_hz(10.0)
            .build()
            .run()
            .samples
            .len()
    });
    // the same run with the deterministic instrumentation enabled
    // (counters + journal, no wall-clock timers): the overhead budget is
    // the delta against the bench above
    c.bench_function("sim_freeway_30s_at_10hz_telemetry", || {
        helpers::ScenarioBuilder::freeway(helpers::Carrier::OpY, helpers::Arch::Nsa, 2.0, 9)
            .duration_s(30.0)
            .sample_hz(10.0)
            .build()
            .run_instrumented(&fiveg_sim::Telemetry::new(fiveg_sim::TelemetryConfig::deterministic()))
            .samples
            .len()
    });
}

fn bench_snapshot_refresh(c: &mut Bencher) {
    // one radio-snapshot refresh per call, replaying a recorded drive's
    // (pos, t) sequence in order so the channel caches see the engine's
    // access pattern
    use fiveg_ran::{Arch, Carrier, Deployment, RadioSnapshot};
    use fiveg_sim::ScenarioBuilder;
    let drives = [
        ("snapshot_refresh/freeway-nsa", ScenarioBuilder::freeway(Carrier::OpY, Arch::Nsa, 6.0, 1)),
        ("snapshot_refresh/city-nsa", ScenarioBuilder::city_loop(Carrier::OpY, 4).duration_s(40.0)),
        ("snapshot_refresh/dense-nsa", ScenarioBuilder::city_loop_dense(Carrier::OpX, 5).duration_s(20.0)),
    ];
    for (name, b) in drives {
        if c.filter.as_deref().is_some_and(|flt| !name.contains(flt)) {
            continue;
        }
        let s = b.sample_hz(10.0).build();
        let d = Deployment::generate(&s.route, s.carrier, s.env, s.arch, s.seed);
        let ticks: Vec<(Point, f64)> = s.run().samples.iter().map(|x| (Point::new(x.pos.0, x.pos.1), x.t)).collect();
        let mut snap = RadioSnapshot::new();
        let (mut screened, mut priced, mut sites) = (0, 0, 0);
        for &(pos, t) in &ticks {
            snap.refresh(&d, &pos, t, fiveg_sim::engine::SEARCH_RADIUS_M, true, true);
            screened += snap.screened();
            priced += snap.priced();
            sites += snap.sites_located();
        }
        let n = ticks.len() as f64;
        println!(
            "{name:<36} {:>8.0} cells screened, {:>6.0} priced, {:>5.0} towers located",
            screened as f64 / n,
            priced as f64 / n,
            sites as f64 / n
        );
        let mut i = 0;
        c.bench_function(name, || {
            let (pos, t) = ticks[i % ticks.len()];
            i += 1;
            snap.refresh(&d, &pos, t, fiveg_sim::engine::SEARCH_RADIUS_M, true, true);
            snap.strongest(true).len()
        });
    }
}

fn bench_analysis_kernels(c: &mut Bencher) {
    let xs: Vec<f64> = (0..2000).map(|i| (i % 137) as f64 * 10.0).collect();
    let grid: Vec<f64> = (0..100).map(|i| i as f64 * 15.0).collect();
    c.bench_function("kde_density_2000x100", || fiveg_analysis::kde_density(&xs, &grid, None));

    let pts: Vec<Point> = (0..500).map(|i| Point::new((i * 37 % 100) as f64, (i * 61 % 89) as f64)).collect();
    c.bench_function("convex_hull_500", || convex_hull(&pts));
}

fn main() {
    // cargo passes `--bench`; the first other argument filters by name
    let mut c = Bencher { filter: std::env::args().skip(1).find(|a| !a.starts_with('-')) };
    bench_prognos_predict(&mut c);
    bench_rrc_codec(&mut c);
    bench_sim_tick_rate(&mut c);
    bench_snapshot_refresh(&mut c);
    bench_analysis_kernels(&mut c);
}
