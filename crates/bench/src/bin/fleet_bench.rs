//! Fleet-throughput benchmark: UE·ticks/sec versus fleet size, reporting
//! how close the per-UE cost of the sharded, load-coupled fleet engine
//! stays to the single-UE hot path — and, with `--event-driven`, how much
//! the calendar-wheel scheduler recovers by skipping quiescent UEs.
//!
//! Every size runs the same pinned base scenario (city loop, OpY, SA, seed
//! 201) through [`fiveg_sim::fleet`] with the default heterogeneity
//! narrowed to a 10 s stagger window. The city/SA point is deliberately
//! sleep-eligible (idle workload, RSRP-only events) so the event-driven
//! mode has quiescence to harvest; an NSA fleet would never sleep (its B1
//! trigger is SINR-quantity, see `fiveg_sim::wakeup`). Simulated duration
//! is pinned **per size** (60 s up to 10k UEs, 30 s at 100k, 10 s at 1M
//! and beyond) so the big sizes stay runnable while per-size numbers remain
//! comparable across commits and between `--smoke` and full mode — full
//! mode simply adds the 100k point. Summaries stream (no per-UE traces are
//! retained), `ue_ticks` comes from the deterministic per-UE tick counts in
//! the [`FleetTrace`], and `bench.allocs` from a counting global allocator.
//! The report is written as `BENCH_fleet.json` (schema `fiveg-fleet/v3`).
//!
//! ```text
//! fleet_bench [--smoke] [--threads N] [--shards N] [--sizes CSV]
//!             [--event-driven] [--verify-shards] [--tele-summary PATH]
//!             [--out PATH] [--baseline PATH] [--tol F]
//! ```
//!
//! `--event-driven` times every size twice — fixed-step, then
//! [`EngineMode::EventDriven`] — and records per size the skipped work
//! (`skipped_ue_ticks`, `skip_ratio`), the wheel's wakeup histogram, and
//! `event_speedup` (fixed elapsed / event elapsed, both measured in the
//! same process so runner speed cancels). The two runs must agree on
//! `ue_ticks` exactly — a divergence fails the job before any gating.
//! Fleets of up to 1k UEs are timed `reps` times (see [`reps`]),
//! alternating the two engines, and report the mean elapsed per run, so
//! their sub-second ratios do not follow the machine's momentary speed.
//!
//! With `--baseline`, the run first refuses a baseline whose `schema`
//! string differs from this binary's (a v2 baseline silently gating a v3
//! report would pair the wrong semantics), then gates each size's
//! **machine-independent** metrics against the committed report, pairing
//! rows by their `n_ues` value (`perfgate::fleet_metric`, never by array
//! position) — `ue_ticks` and `skip_ratio` as bands (both deterministic
//! for the pinned scenario; skip-ratio drift in either direction means the
//! wakeup planner changed), `allocs_per_ue_tick` lower-is-better and
//! `event_speedup` higher-is-better — and exits nonzero past the tolerance
//! (default 15%); this is the gating CI perf job, which pins `--threads 1`
//! to match the committed baseline's thread count. UE·ticks/sec is printed
//! as an advisory comparison only: the baseline's wall clock came from a
//! different machine than the CI runner's (see `fiveg_bench::perfgate`).
//! Sizes absent from the baseline are skipped so a new size never fails
//! the job that introduces it, but if *no* measured size matches, the run
//! fails — a reformatted baseline must not silently disable the gate.
//!
//! `--verify-shards` is the other machine-independent gate, now three
//! checks deep: (1) one migration-heavy fleet run on 1 thread × 1 shard and
//! on 2 threads × 4 shards must produce identical output, traces included —
//! at any `--threads`, so a multi-worker boundary exchange always runs;
//! (2) the same fleet run in [`EngineMode::Referee`] (the referee: sleeping
//! UEs still step, unsampled) and [`EngineMode::EventDriven`] (sleeping UEs
//! skipped) must produce byte-identical [`FleetTrace`]s across different
//! shard counts — with a non-vacuity check that sleep actually happened;
//! (3) the plain fixed-step run must agree with the event-driven run on
//! every per-UE control-plane field and the load summary. Any divergence
//! exits nonzero before the timing runs start.

use fiveg_bench::perfgate::{self, Better, Gate};
use fiveg_bench::report::JsonBuf;
use fiveg_ran::{Arch, Carrier};
use fiveg_sim::{
    run_fleet_exec_instrumented, EngineMode, FleetExec, FleetSpec, FleetTrace, Scenario, ScenarioBuilder, Telemetry,
    TelemetryConfig,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The report schema this binary writes and the only one it will gate
/// against.
const SCHEMA: &str = "fiveg-fleet/v3";

/// Heap-allocation counter: wraps the system allocator and counts every
/// `alloc`/`realloc` (same proxy as `tick_bench`).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

struct Args {
    smoke: bool,
    threads: usize,
    shards: usize,
    sizes: Option<Vec<u32>>,
    event: bool,
    verify_shards: bool,
    tele_summary: Option<String>,
    out: String,
    baseline: Option<String>,
    tol: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        threads: 0,
        shards: 0,
        sizes: None,
        event: false,
        verify_shards: false,
        tele_summary: None,
        out: "BENCH_fleet.json".into(),
        baseline: None,
        tol: 0.15,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                args.threads = v.parse::<usize>().map_err(|_| format!("bad --threads value: {v}"))?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                args.shards = v.parse::<usize>().map_err(|_| format!("bad --shards value: {v}"))?;
            }
            "--sizes" => {
                let v = it.next().ok_or("--sizes needs a comma-separated list")?;
                let parsed: Result<Vec<u32>, _> = v.split(',').map(|s| s.trim().parse::<u32>()).collect();
                let sizes = parsed.map_err(|_| format!("bad --sizes value: {v}"))?;
                if sizes.is_empty() || sizes.contains(&0) {
                    return Err("--sizes needs at least one nonzero fleet size".into());
                }
                args.sizes = Some(sizes);
            }
            "--event-driven" => args.event = true,
            "--verify-shards" => args.verify_shards = true,
            "--tele-summary" => args.tele_summary = Some(it.next().ok_or("--tele-summary needs a value")?),
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--baseline" => args.baseline = Some(it.next().ok_or("--baseline needs a value")?),
            "--tol" => {
                let v = it.next().ok_or("--tol needs a value")?;
                args.tol = v.parse::<f64>().map_err(|_| format!("bad --tol value: {v}"))?;
                if !(0.0..1.0).contains(&args.tol) {
                    return Err("--tol must be in [0, 1)".into());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: fleet_bench [--smoke] [--threads N] [--shards N] [--sizes CSV] [--event-driven] \
                     [--verify-shards] [--tele-summary PATH] [--out PATH] [--baseline PATH] [--tol F]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if args.threads == 0 {
        args.threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    }
    Ok(args)
}

/// Fleet sizes per mode. Per-size parameters (duration included) are pinned
/// by size alone, so a smoke run can be gated against a committed full-mode
/// baseline and an explicit `--sizes` run stays comparable to both.
fn sizes(smoke: bool) -> &'static [u32] {
    if smoke {
        &[1, 10, 100, 1000, 10_000]
    } else {
        &[1, 10, 100, 1000, 10_000, 100_000]
    }
}

/// Pinned simulated duration for a fleet size: long enough to dominate
/// setup cost, short enough that the big sizes finish. Pinned per size (not
/// per mode) so every run of a given size executes the same work.
fn duration_s(n_ues: u32) -> f64 {
    if n_ues <= 10_000 {
        60.0
    } else if n_ues <= 100_000 {
        30.0
    } else {
        10.0
    }
}

/// Timed runs per fleet size, pinned by size alone like [`duration_s`]. A
/// small fleet runs for well under a second, so one run's fixed/event ratio
/// swings with the machine's momentary speed; repeating it, alternating the
/// two engines, and averaging each engine's time keeps `event_speedup`
/// steady.
fn reps(n_ues: u32) -> u32 {
    match n_ues {
        0..=10 => 9,
        11..=1000 => 3,
        _ => 1,
    }
}

/// The pinned base scenario every fleet size derives from (see
/// EXPERIMENTS.md, "Fleet benchmark"). City loop + SA keeps the fleet
/// sleep-eligible so the event-driven mode is actually exercised.
fn base_scenario(duration: f64) -> Scenario {
    ScenarioBuilder::city_loop(Carrier::OpY, 201).arch(Arch::Sa).duration_s(duration).sample_hz(10.0).build()
}

fn spec(n_ues: u32) -> FleetSpec {
    FleetSpec::new(base_scenario(duration_s(n_ues)), n_ues).stagger_s(10.0).speed_jitter(0.1)
}

/// The event-driven half of a size's measurements. All fields except the
/// two elapsed-derived ones are deterministic for the pinned scenario.
struct EventResult {
    /// Mean over the `reps` event-driven runs.
    elapsed_s: f64,
    ue_ticks_per_sec: f64,
    /// fixed elapsed / event elapsed, same process, same machine.
    speedup: f64,
    skipped_ue_ticks: u64,
    /// `skipped_ue_ticks / ue_ticks` — the fraction of the fixed-step work
    /// the scheduler proved inert and never executed.
    skip_ratio: f64,
    sleeps: u64,
    load_wakes: u64,
    wake_hist: [u64; 4],
}

struct SizeResult {
    n_ues: u32,
    duration_s: f64,
    reps: u32,
    ticks: u64,
    ue_ticks: u64,
    /// Mean over the `reps` fixed-step runs.
    elapsed_s: f64,
    ue_ticks_per_sec: f64,
    allocs_per_ue_tick: f64,
    peak_cell_ues: u32,
    contended_ue_ticks: u64,
    migrations: u64,
    event: Option<EventResult>,
}

fn bench_size(n_ues: u32, exec: FleetExec, event: bool, sink: Option<&Telemetry>) -> Result<SizeResult, String> {
    // journal-less deterministic telemetry: cheap enough to leave on in the
    // timed region, and it carries the fleet.migrations diagnostic
    let fixed_tele = || Telemetry::new(TelemetryConfig { enabled: true, journal_capacity: 0, timing: false });
    let event_exec = exec.engine(EngineMode::EventDriven);
    let tele = fixed_tele();
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    let ft: FleetTrace = run_fleet_exec_instrumented(&spec(n_ues), exec, &tele);
    let mut elapsed_s = start.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    if let Some(s) = sink {
        s.absorb(&tele);
    }

    // deterministic work count, straight from the trace (equals the
    // absorbed sim.ticks counter; independent of threads and shards)
    let ue_ticks: u64 = ft.ues.iter().map(|u| u.ticks).sum();

    let mut ev_elapsed = 0.0;
    let sched = if event {
        let start = Instant::now();
        let ev: FleetTrace = run_fleet_exec_instrumented(&spec(n_ues), event_exec, &Telemetry::disabled());
        ev_elapsed = start.elapsed().as_secs_f64();
        let ev_ue_ticks: u64 = ev.ues.iter().map(|u| u.ticks).sum();
        if ev_ue_ticks != ue_ticks {
            return Err(format!(
                "event-driven run diverged at {n_ues} UEs: {ev_ue_ticks} UE·ticks vs fixed {ue_ticks}"
            ));
        }
        Some(ev.sched.ok_or_else(|| format!("event-driven run at {n_ues} UEs returned no SchedSummary"))?)
    } else {
        None
    };

    // the remaining reps only add time; each flips which engine goes first
    for rep in 1..reps(n_ues) {
        for fixed in if rep % 2 == 0 { [true, false] } else { [false, true] } {
            let start = Instant::now();
            if fixed {
                run_fleet_exec_instrumented(&spec(n_ues), exec, &fixed_tele());
                elapsed_s += start.elapsed().as_secs_f64();
            } else if event {
                run_fleet_exec_instrumented(&spec(n_ues), event_exec, &Telemetry::disabled());
                ev_elapsed += start.elapsed().as_secs_f64();
            }
        }
    }
    elapsed_s /= f64::from(reps(n_ues));
    ev_elapsed /= f64::from(reps(n_ues));

    let event = sched.map(|sched| EventResult {
        elapsed_s: ev_elapsed,
        ue_ticks_per_sec: ue_ticks as f64 / ev_elapsed,
        speedup: elapsed_s / ev_elapsed,
        skipped_ue_ticks: sched.skipped_ue_ticks,
        skip_ratio: sched.skipped_ue_ticks as f64 / ue_ticks as f64,
        sleeps: sched.sleeps,
        load_wakes: sched.load_wakes,
        wake_hist: sched.wake_hist,
    });

    Ok(SizeResult {
        n_ues,
        duration_s: duration_s(n_ues),
        reps: reps(n_ues),
        ticks: ft.meta.ticks,
        ue_ticks,
        elapsed_s,
        ue_ticks_per_sec: ue_ticks as f64 / elapsed_s,
        allocs_per_ue_tick: allocs as f64 / ue_ticks as f64,
        peak_cell_ues: ft.load.peak_cell_ues,
        contended_ue_ticks: ft.load.contended_ue_ticks,
        migrations: tele.counter_value("fleet.migrations"),
        event,
    })
}

/// The machine-independent equivalence gates: thread and shard invariance of
/// the fixed path, byte-identity of referee vs event-driven scheduling, and
/// control-plane agreement of fixed vs event-driven. Returns false (and
/// prints why) on any divergence.
fn verify_shards(threads: usize) -> bool {
    let spec = FleetSpec::new(base_scenario(20.0), 64).stagger_s(10.0).speed_jitter(0.1);

    // 1. fixed path, 1 thread x 1 shard vs 2 threads x 4 shards, traces
    //    retained: whatever --threads is, a multi-worker exchange runs
    let kept = spec.clone().keep_traces(true);
    let one = fiveg_sim::run_fleet_exec(&kept, FleetExec::threads(1).shards(1));
    let four = fiveg_sim::run_fleet_exec(&kept, FleetExec::threads(2).shards(4));
    if one != four {
        eprintln!("fleet_bench: FleetTrace differs between 1x1 and 2x4 threads x shards — exchange broke determinism");
        return false;
    }
    println!("  geometry invariance: 1x1 == 2x4 threads x shards over {} UEs ({} ticks)  ok", 64, one.meta.ticks);

    // 2. referee vs event-driven: byte-identical across shard counts. The
    //    referee steps sleeping UEs with full control plane, so equality
    //    proves every granted sleep window really was inert.
    let referee = fiveg_sim::run_fleet_exec(&spec, FleetExec::threads(threads).shards(1).engine(EngineMode::Referee));
    let event = fiveg_sim::run_fleet_exec(&spec, FleetExec::threads(threads).shards(4).engine(EngineMode::EventDriven));
    if referee != event {
        eprintln!(
            "fleet_bench: event-driven FleetTrace differs from the EngineMode::Referee run — unsound wakeup bound"
        );
        return false;
    }
    let Some(sched) = &event.sched else {
        eprintln!("fleet_bench: event-driven run carried no SchedSummary");
        return false;
    };
    if sched.sleeps == 0 || sched.skipped_ue_ticks == 0 {
        eprintln!("fleet_bench: verification fleet never slept — the mode-equivalence check is vacuous");
        return false;
    }
    println!(
        "  mode identity: referee == event-driven ({} sleeps, {} skipped UE·ticks)  ok",
        sched.sleeps, sched.skipped_ue_ticks
    );

    // 3. fixed vs event-driven: the control plane and the load summary must
    //    agree; only the data-plane sampling aggregates (mean_capacity and
    //    friends) may differ, because sleeping UEs do not sample.
    let fixed = fiveg_sim::run_fleet_exec(&spec, FleetExec::threads(threads).shards(4));
    if fixed.meta != event.meta || fixed.load != event.load {
        eprintln!("fleet_bench: fixed vs event-driven meta/load summary diverged");
        return false;
    }
    for (f, e) in fixed.ues.iter().zip(event.ues.iter()) {
        let control = |u: &fiveg_sim::UeSummary| {
            (
                u.ue,
                u.seed,
                u.start_tick,
                u.reversed,
                u.ticks,
                u.traveled_m,
                u.handovers,
                u.ho_failures,
                u.rlf_count,
                u.reports,
            )
        };
        if control(f) != control(e) {
            eprintln!("fleet_bench: fixed vs event-driven control plane diverged for UE {}", f.ue);
            return false;
        }
    }
    println!("  control identity: fixed == event-driven over {} UEs  ok", fixed.ues.len());
    true
}

fn report(mode: &str, threads: usize, shards: usize, results: &[SizeResult]) -> String {
    let base = base_scenario(duration_s(1));
    let mut j = JsonBuf::new();
    j.open('{');
    j.key("schema");
    j.str_val(SCHEMA);
    j.key("mode");
    j.str_val(mode);
    j.key("threads");
    j.uint(threads as u64);
    j.key("shards");
    j.uint(shards as u64);
    j.key("base");
    j.open('{');
    j.key("seed");
    j.uint(base.seed);
    j.key("sample_hz");
    j.num(base.sample_hz);
    j.key("stagger_s");
    j.num(10.0);
    j.key("speed_jitter");
    j.num(0.1);
    j.close('}');
    j.key("sizes");
    j.open('[');
    for r in results {
        j.open('{');
        j.key("n_ues");
        j.uint(u64::from(r.n_ues));
        j.key("duration_s");
        j.num(r.duration_s);
        j.key("reps");
        j.uint(u64::from(r.reps));
        j.key("ticks");
        j.uint(r.ticks);
        j.key("ue_ticks");
        j.uint(r.ue_ticks);
        j.key("elapsed_s");
        j.num(r.elapsed_s);
        j.key("ue_ticks_per_sec");
        j.num(r.ue_ticks_per_sec);
        j.key("allocs_per_ue_tick");
        j.num(r.allocs_per_ue_tick);
        j.key("peak_cell_ues");
        j.uint(u64::from(r.peak_cell_ues));
        j.key("contended_ue_ticks");
        j.uint(r.contended_ue_ticks);
        j.key("migrations");
        j.uint(r.migrations);
        if let Some(ev) = &r.event {
            j.key("event_elapsed_s");
            j.num(ev.elapsed_s);
            j.key("event_ue_ticks_per_sec");
            j.num(ev.ue_ticks_per_sec);
            j.key("event_speedup");
            j.num(ev.speedup);
            j.key("skipped_ue_ticks");
            j.uint(ev.skipped_ue_ticks);
            j.key("skip_ratio");
            j.num(ev.skip_ratio);
            j.key("sleeps");
            j.uint(ev.sleeps);
            j.key("load_wakes");
            j.uint(ev.load_wakes);
            // last key in the row: the array holds no '}' so the perfgate
            // row scanner's scope (up to the row's closing brace) survives
            j.key("wake_hist");
            j.open('[');
            for &b in &ev.wake_hist {
                j.uint(b);
            }
            j.close(']');
        }
        j.close('}');
    }
    j.close(']');
    j.close('}');
    j.finish_line()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleet_bench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mode = if args.smoke { "smoke" } else { "full" };
    let set: Vec<u32> = args.sizes.clone().unwrap_or_else(|| sizes(args.smoke).to_vec());
    let exec = FleetExec::threads(args.threads).shards(args.shards);
    let shards_shown = if args.shards == 0 { args.threads } else { args.shards };
    println!(
        "fleet bench '{}': sizes {:?}, {} thread(s), {} shard(s){}",
        mode,
        set,
        args.threads,
        shards_shown,
        if args.event { ", + event-driven" } else { "" }
    );

    if args.verify_shards && !verify_shards(args.threads) {
        return ExitCode::FAILURE;
    }

    // the cross-size telemetry sink behind --tele-summary
    let sink = args.tele_summary.as_ref().map(|_| Telemetry::new(TelemetryConfig::deterministic()));

    // warmup (untimed): page in code and let the allocator settle
    run_fleet_exec_instrumented(&spec(1), exec, &Telemetry::disabled());

    let mut results = Vec::new();
    for &n in &set {
        let r = match bench_size(n, exec, args.event, sink.as_ref()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fleet_bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "  {:>7} UEs  {:>10} UE·ticks in {:>7.2} s (mean of {}) -> {:>9.0} UE·ticks/s, {:>6.2} allocs/UE·tick, peak cell {:>5}, {:>6} migrations",
            r.n_ues, r.ue_ticks, r.elapsed_s, r.reps, r.ue_ticks_per_sec, r.allocs_per_ue_tick, r.peak_cell_ues, r.migrations
        );
        if let Some(ev) = &r.event {
            println!(
                "          event-driven: {:>7.2} s  -> {:>9.0} UE·ticks/s ({:.2}x), skip ratio {:.3} ({} sleeps, {} load wakes)",
                ev.elapsed_s, ev.ue_ticks_per_sec, ev.speedup, ev.skip_ratio, ev.sleeps, ev.load_wakes
            );
        }
        results.push(r);
    }

    let json = report(mode, args.threads, shards_shown, &results);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("fleet_bench: writing {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("  report -> {}", args.out);

    if let (Some(path), Some(s)) = (&args.tele_summary, &sink) {
        if let Err(e) = std::fs::write(path, s.summary()) {
            eprintln!("fleet_bench: writing telemetry summary {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  telemetry summary -> {path}");
    }

    if let Some(path) = &args.baseline {
        let committed = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fleet_bench: reading baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // A baseline from a different schema generation must never gate
        // this report: the rows would pair by n_ues and silently compare
        // different scenarios or metric semantics. Fail loudly instead.
        match perfgate::schema_of(&committed) {
            Some(s) if s == SCHEMA => {}
            got => {
                eprintln!(
                    "fleet_bench: baseline {path} has schema {} but this binary writes {SCHEMA} — \
                     regenerate the baseline instead of gating across schema versions",
                    got.map_or_else(|| "(none)".into(), |s| format!("'{s}'"))
                );
                return ExitCode::FAILURE;
            }
        }
        // Gate the machine-independent metrics per size, pairing rows by
        // their n_ues value; absolute UE·ticks/sec is advisory (the
        // baseline's wall clock came from a different machine than this
        // runner's).
        println!("  perf gate vs {} (tol {:.0}%):", path, args.tol * 100.0);
        let mut gates = Vec::new();
        for r in &results {
            let ticks = perfgate::fleet_metric(&committed, r.n_ues, "ue_ticks");
            let allocs = perfgate::fleet_metric(&committed, r.n_ues, "allocs_per_ue_tick");
            let tps = perfgate::fleet_metric(&committed, r.n_ues, "ue_ticks_per_sec");
            let (Some(b_ticks), Some(b_allocs)) = (ticks, allocs) else {
                println!("  fleet[{}]: not in baseline, skipped", r.n_ues);
                continue;
            };
            if let Some(b) = tps {
                perfgate::advise(&format!("fleet[{}] ue_ticks_per_sec", r.n_ues), b, r.ue_ticks_per_sec);
            }
            gates.push(Gate {
                what: format!("fleet[{}] ue_ticks", r.n_ues),
                baseline: b_ticks,
                current: r.ue_ticks as f64,
                better: Better::Band,
            });
            gates.push(Gate {
                what: format!("fleet[{}] allocs_per_ue_tick", r.n_ues),
                baseline: b_allocs,
                current: r.allocs_per_ue_tick,
                better: Better::Lower,
            });
            if let Some(ev) = &r.event {
                if let Some(b) = perfgate::fleet_metric(&committed, r.n_ues, "event_ue_ticks_per_sec") {
                    perfgate::advise(&format!("fleet[{}] event UE·ticks/sec", r.n_ues), b, ev.ue_ticks_per_sec);
                }
                // skip_ratio is a work count in disguise: deterministic for
                // the pinned scenario, banded so planner drift in either
                // direction fails. event_speedup is a same-run ratio, so
                // runner speed cancels and higher-is-better is gateable.
                if let Some(b_skip) = perfgate::fleet_metric(&committed, r.n_ues, "skip_ratio") {
                    gates.push(Gate {
                        what: format!("fleet[{}] skip_ratio", r.n_ues),
                        baseline: b_skip,
                        current: ev.skip_ratio,
                        better: Better::Band,
                    });
                }
                if let Some(b_spd) = perfgate::fleet_metric(&committed, r.n_ues, "event_speedup") {
                    gates.push(Gate {
                        what: format!("fleet[{}] event_speedup", r.n_ues),
                        baseline: b_spd,
                        current: ev.speedup,
                        better: Better::Higher,
                    });
                }
            }
        }
        // A skipped size is fine (a new size must not fail the job that
        // introduces it); *every* size missing means the baseline was
        // reformatted or the wrong file — refuse to become a silent no-op.
        if gates.is_empty() {
            eprintln!("fleet_bench: baseline {path} matched none of the measured sizes — reformatted or wrong file?");
            return ExitCode::FAILURE;
        }
        if !perfgate::evaluate(&gates, args.tol) {
            eprintln!("fleet_bench: gated metrics regressed beyond tolerance");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
