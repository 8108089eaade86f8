//! Drive Prognos online over a walking trace and watch it call handovers
//! before they happen.
//!
//! ```sh
//! cargo run --release --example predict_live
//! ```

use fiveg_bench::driver::trace_steps;
use fiveg_mobility::prelude::*;

fn main() {
    // a 20-minute walking loop on OpX (dense urban, mmWave present)
    let trace = ScenarioBuilder::walking_loop(Carrier::OpX, 20.0, 1, 99).sample_hz(20.0).build().run();
    println!(
        "trace: {:.0} min walk, {} HOs, {} measurement reports\n",
        trace.meta.duration_s / 60.0,
        trace.handovers.len(),
        trace.reports.len()
    );

    let mut pg = Prognos::new(PrognosConfig::default());
    pg.set_configs(trace.configs.clone());

    let mut last_call: Option<(HoType, f64)> = None;
    let mut calls = 0u32;
    let mut hits = 0u32;

    // the offline scorer's own replay of the trace
    for step in trace_steps(&trace) {
        pg.on_sample(step.t, &step.lte, &step.nr);
        for r in step.reports {
            pg.on_report(r.event);
        }
        for h in step.handovers {
            let verdict = match last_call {
                Some((ho, t_call)) if ho == h.ho_type && h.t_command - t_call < 3.0 => {
                    hits += 1;
                    format!("CALLED {:.0} ms early", (h.t_command - t_call) * 1000.0)
                }
                _ => "missed".to_string(),
            };
            println!("  t={:6.1}s  actual {:<4} -> {verdict}", h.t_command, h.ho_type.acronym());
            pg.on_handover(h.ho_type);
            last_call = None;
        }
        let p = pg.predict(step.t, &step.ctx);
        if let Some(ho) = p.ho {
            if last_call.map(|(h, _)| h != ho).unwrap_or(true) {
                calls += 1;
                last_call = Some((ho, step.t));
            }
        }
    }

    println!(
        "\n{} of {} HOs called in advance; {} prediction episodes emitted; {} patterns learned",
        hits,
        trace.handovers.len(),
        calls,
        pg.learner().len()
    );
    println!("learned decision logic:");
    for p in pg.learner().patterns() {
        println!(
            "  [{}] -> {}  (support {})",
            p.seq.iter().map(|e| e.label()).collect::<Vec<_>>().join(", "),
            p.ho.acronym(),
            p.support
        );
    }
}
