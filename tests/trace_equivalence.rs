//! The snapshot engine's core contract, enforced at the workspace level:
//! the per-tick [`fiveg_ran::RadioSnapshot`] keeps exactly the per-band
//! strongest cells every consumer reads (its bound-and-cull screen prices
//! only cells that can rank), so the production engine must produce
//! byte-identical traces to the retained naive reference path that re-scans
//! and prices the whole deployment from every consumer.
//!
//! One small scenario per architecture covers the three tick-loop shapes
//! (NSA dual-leg, SA single-leg): the traces are compared in memory
//! (`PartialEq`) and as serialized bytes through a save/load round trip, so
//! even a serialization-ordering drift would be caught.

use fiveg_ran::{Arch, Carrier};
use fiveg_sim::{engine, run_fleet_exec, EngineMode, FleetExec, FleetSpec, Scenario, ScenarioBuilder, Trace};

fn scenario(arch: Arch, seed: u64) -> Scenario {
    let carrier = if arch == Arch::Sa { Carrier::OpX } else { Carrier::OpY };
    ScenarioBuilder::freeway(carrier, arch, 4.0, seed).duration_s(120.0).sample_hz(10.0).build()
}

fn saved_bytes(tr: &Trace, path: &std::path::Path) -> Vec<u8> {
    tr.save(path).expect("save trace");
    std::fs::read(path).expect("read trace back")
}

#[test]
fn snapshot_and_reference_paths_produce_byte_identical_traces() {
    let dir = std::env::temp_dir();
    for (arch, seed) in [(Arch::Nsa, 31_u64), (Arch::Sa, 32)] {
        let s = scenario(arch, seed);
        let snapshot = s.run();
        let reference = engine::run_reference(&s);
        assert_eq!(snapshot, reference, "{arch:?}: snapshot trace diverges from the reference path");

        let snap_path = dir.join(format!("trace_eq_snap_{arch:?}_{seed}.trace"));
        let ref_path = dir.join(format!("trace_eq_ref_{arch:?}_{seed}.trace"));
        let snap_bytes = saved_bytes(&snapshot, &snap_path);
        let ref_bytes = saved_bytes(&reference, &ref_path);
        assert_eq!(snap_bytes, ref_bytes, "{arch:?}: serialized traces are not byte-identical");

        // and the round trip still loads to the same in-memory trace
        let reloaded = Trace::load(&snap_path).expect("load trace");
        assert_eq!(reloaded, snapshot, "{arch:?}: save/load round trip drifted");
        let _ = std::fs::remove_file(&snap_path);
        let _ = std::fs::remove_file(&ref_path);
    }
}

#[test]
fn event_driven_fleet_matches_reference_path_byte_for_byte() {
    // closes the triangle: run_reference (naive fixed-step) == snapshot
    // engine == event-driven fleet scheduler, for every architecture, down
    // to serialized bytes. run_reference stays fixed-step on purpose — it
    // is the referee the event-driven path is judged against.
    let dir = std::env::temp_dir();
    for (arch, seed) in [(Arch::Nsa, 34_u64), (Arch::Sa, 35), (Arch::Lte, 36)] {
        let carrier = if arch == Arch::Sa { Carrier::OpX } else { Carrier::OpY };
        let s = ScenarioBuilder::city_loop(carrier, seed).arch(arch).duration_s(60.0).sample_hz(5.0).build();
        let reference = engine::run_reference(&s);
        let event = run_fleet_exec(
            &FleetSpec::new(s, 1).keep_traces(true),
            FleetExec::threads(1).shards(1).engine(EngineMode::EventDriven),
        );
        assert_eq!(event.traces[0], reference, "{arch:?}: event-driven trace diverges from the reference path");

        let ref_path = dir.join(format!("trace_eq_ref_ed_{arch:?}_{seed}.trace"));
        let ev_path = dir.join(format!("trace_eq_ev_{arch:?}_{seed}.trace"));
        let ref_bytes = saved_bytes(&reference, &ref_path);
        let ev_bytes = saved_bytes(&event.traces[0], &ev_path);
        assert_eq!(ref_bytes, ev_bytes, "{arch:?}: serialized traces are not byte-identical");
        let _ = std::fs::remove_file(&ref_path);
        let _ = std::fs::remove_file(&ev_path);
    }
}

#[test]
fn reference_path_is_deterministic_too() {
    let s = scenario(Arch::Nsa, 33);
    let a = engine::run_reference(&s);
    let b = engine::run_reference(&s);
    assert_eq!(a, b, "reference path must be as deterministic as the production path");
}
