//! `serve` — the online Prognos prediction server.
//!
//! Listens on TCP and/or a Unix domain socket, runs one Prognos session
//! per connection, and answers PREDICT frames with PROGNOSIS replies under
//! a configurable latency SLO. See `fiveg-serve`'s crate docs for the wire
//! protocol and `serve_load` for the matching load generator.
//!
//! ```text
//! serve --uds /tmp/fiveg.sock --workers 4
//! serve --tcp 127.0.0.1:9085 --slo-ms 20 --duration-s 60
//! ```
//!
//! The server runs until killed, or for `--duration-s` seconds when given;
//! on a timed exit it prints a final stats summary and exits 0.

use fiveg_serve::server::{start, ServeConfig};
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--tcp ADDR] [--uds PATH] [--workers N] [--max-sessions N] \
         [--slo-ms F] [--idle-timeout-s F] [--duration-s F]"
    );
    exit(2);
}

fn main() {
    let mut cfg = ServeConfig::default();
    let mut duration_s = 0.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--tcp" => cfg.tcp = Some(val()),
            "--uds" => cfg.uds = Some(PathBuf::from(val())),
            "--workers" => cfg.workers = val().parse().unwrap_or_else(|_| usage()),
            "--max-sessions" => cfg.max_sessions = val().parse().unwrap_or_else(|_| usage()),
            "--slo-ms" => cfg.slo_ms = val().parse().unwrap_or_else(|_| usage()),
            "--idle-timeout-s" => cfg.idle_timeout_s = val().parse().unwrap_or_else(|_| usage()),
            "--duration-s" => duration_s = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if cfg.tcp.is_none() && cfg.uds.is_none() {
        eprintln!("serve: no endpoint; pass --tcp and/or --uds");
        usage();
    }

    let handle = match start(cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: failed to start: {e}");
            exit(1);
        }
    };
    if let Some(addr) = handle.tcp_addr {
        println!("serve: tcp {addr}");
    }
    if let Some(path) = &handle.uds_path {
        println!("serve: uds {}", path.display());
    }
    println!("serve: {} workers, max {} sessions, slo {} ms", cfg.workers, cfg.max_sessions, cfg.slo_ms);
    // make the endpoint lines visible to a parent piping our stdout
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let t0 = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        if duration_s > 0.0 && t0.elapsed().as_secs_f64() >= duration_s {
            break;
        }
    }
    let st = handle.shutdown();
    println!(
        "serve: done — accepted {}, completed {}, eof {}, rejected {}, malformed {}, idle {}, io {}, panic {}",
        st.accepted,
        st.completed,
        st.closed_eof,
        st.rejected,
        st.dropped_malformed,
        st.dropped_idle,
        st.dropped_io,
        st.dropped_panic
    );
    println!(
        "serve: {} predictions, {} slo misses, p50 {:.3} ms p99 {:.3} ms",
        st.predictions,
        st.slo_miss,
        st.latency_ms.percentile(0.50),
        st.latency_ms.percentile(0.99)
    );
}
