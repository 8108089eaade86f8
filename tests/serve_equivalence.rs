//! Wire-vs-offline equivalence for the online prediction service.
//!
//! The `fiveg-serve` contract is that a PROGNOSIS answered over a socket is
//! *the same bytes* Prognos would produce in an offline replay of the same
//! frames — the server adds transport and concurrency, never drift. These
//! tests prove it end to end over both transports and at fan-out, plus the
//! failure-isolation half of the contract: one malformed session dies with
//! an ERROR frame without poisoning its neighbors.

use fiveg_mobility::serve::proto::{self, Frame};
use fiveg_mobility::serve::replay::{replay_offline, trace_frames};
use fiveg_mobility::serve::server::{start, ServeConfig};
use fiveg_mobility::serve::{combine_sessions, digest_replies};
use fiveg_ran::{Arch, Carrier};
use fiveg_sim::{ScenarioBuilder, Trace};
use std::io::{Read, Write};

fn small_trace(seed: u64) -> Trace {
    let sc = ScenarioBuilder::city_loop(Carrier::OpY, seed).arch(Arch::Sa).duration_s(15.0).sample_hz(10.0).build();
    sc.run()
}

/// Closed-loop client over any stream: send frames, read one reply per
/// PREDICT, return the replies in request order.
fn replay_over<S: Read + Write>(mut conn: S, frames: &[Frame]) -> Vec<Frame> {
    let mut out = Vec::new();
    let mut inbuf = Vec::new();
    let mut replies = Vec::new();
    let read_one = |conn: &mut S, inbuf: &mut Vec<u8>| -> Frame {
        loop {
            if let Some((f, used)) = proto::try_read_frame(inbuf).expect("clean reply stream") {
                inbuf.drain(..used);
                return f;
            }
            let mut tmp = [0u8; 4096];
            let n = conn.read(&mut tmp).expect("read reply");
            assert!(n > 0, "server closed mid-exchange");
            inbuf.extend_from_slice(&tmp[..n]);
        }
    };
    for f in frames {
        proto::write_frame(&mut out, f);
        if matches!(f, Frame::Predict { .. }) {
            conn.write_all(&out).expect("send request batch");
            out.clear();
            replies.push(read_one(&mut conn, &mut inbuf));
        }
    }
    conn.write_all(&out).expect("send trailing frames");
    let mut tmp = [0u8; 64];
    assert_eq!(conn.read(&mut tmp).unwrap_or(0), 0, "server must close after BYE");
    replies
}

/// Runs `n_sessions` concurrent replays against `connect` and asserts
/// every wire reply equals the offline ground truth, byte for byte.
/// Returns the total number of predictions exchanged.
fn assert_equivalence<S, C>(n_sessions: usize, connect: C) -> u64
where
    S: Read + Write + Send,
    C: Fn() -> S,
{
    let traces: Vec<Trace> = vec![small_trace(301), small_trace(302)];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for i in 0..n_sessions {
            let frames = trace_frames(&traces[i % traces.len()], i as u32);
            let conn = connect();
            handles.push(scope.spawn(move || {
                let replies = replay_over(conn, &frames);
                (i as u32, frames, replies)
            }));
        }
        let mut wire = Vec::new();
        let mut offline = Vec::new();
        let mut total = 0u64;
        for h in handles {
            let (ue, frames, replies) = h.join().expect("session thread");
            let truth = replay_offline(&frames).expect("offline replay");
            assert_eq!(truth.replies.len(), replies.len(), "ue {ue}: one reply per PREDICT");
            for (k, (w, o)) in replies.iter().zip(&truth.replies).enumerate() {
                assert_eq!(w, o, "ue {ue} prediction {k}: wire differs from offline Prognos");
            }
            total += replies.len() as u64;
            wire.push((ue, digest_replies(&replies)));
            offline.push((ue, digest_replies(&truth.replies)));
        }
        assert_eq!(combine_sessions(&wire), combine_sessions(&offline), "fleet-level equivalence digest must match");
        total
    })
}

#[test]
fn tcp_single_session_matches_offline_prognos() {
    let server = start(ServeConfig { tcp: Some("127.0.0.1:0".into()), workers: 1, ..ServeConfig::default() })
        .expect("server start");
    let addr = server.tcp_addr.expect("bound tcp addr");
    assert_equivalence(1, || std::net::TcpStream::connect(addr).expect("connect"));
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.dropped_malformed, 0);
}

#[test]
fn tcp_eight_concurrent_sessions_match_offline_prognos() {
    let server = start(ServeConfig { tcp: Some("127.0.0.1:0".into()), workers: 3, ..ServeConfig::default() })
        .expect("server start");
    let addr = server.tcp_addr.expect("bound tcp addr");
    let total = assert_equivalence(8, || std::net::TcpStream::connect(addr).expect("connect"));
    let stats = server.shutdown();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.predictions, total, "server must count every answered PREDICT");
}

#[cfg(unix)]
#[test]
fn uds_single_session_matches_offline_prognos() {
    let dir = std::env::temp_dir().join(format!("fiveg_serve_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let sock = dir.join("one.sock");
    let server =
        start(ServeConfig { uds: Some(sock.clone()), workers: 1, ..ServeConfig::default() }).expect("server start");
    assert_equivalence(1, || std::os::unix::net::UnixStream::connect(&sock).expect("connect"));
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn uds_eight_concurrent_sessions_match_offline_prognos() {
    let dir = std::env::temp_dir().join(format!("fiveg_serve_eq8_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk tmp dir");
    let sock = dir.join("eight.sock");
    let server =
        start(ServeConfig { uds: Some(sock.clone()), workers: 3, ..ServeConfig::default() }).expect("server start");
    assert_equivalence(8, || std::os::unix::net::UnixStream::connect(&sock).expect("connect"));
    let stats = server.shutdown();
    assert_eq!(stats.completed, 8);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_session_is_dropped_without_poisoning_others() {
    let server = start(ServeConfig { tcp: Some("127.0.0.1:0".into()), workers: 2, ..ServeConfig::default() })
        .expect("server start");
    let addr = server.tcp_addr.expect("bound tcp addr");

    // a well-formed session starts its replay...
    let frames = trace_frames(&small_trace(303), 0);
    let good = std::thread::spawn(move || replay_over(std::net::TcpStream::connect(addr).expect("connect"), &frames));

    // ...while a malformed one sends a frame with an unknown kind byte
    let mut bad = std::net::TcpStream::connect(addr).expect("connect");
    bad.write_all(&[0, 0, 0, 1, 0x42]).expect("send garbage");
    let mut buf = Vec::new();
    let mut tmp = [0u8; 256];
    loop {
        match bad.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(_) => break,
        }
    }
    let (reply, _) =
        proto::try_read_frame(&buf).expect("parsable ERROR frame").expect("an ERROR frame before the drop");
    assert!(matches!(reply, Frame::Error { .. }), "got {reply:?}");

    // and a short-read session: half a valid HELLO, then EOF
    let mut hello = Vec::new();
    proto::write_frame(&mut hello, &Frame::Hello { ver: proto::PROTO_VERSION, arch: Arch::Sa, ue: 9 });
    let mut short = std::net::TcpStream::connect(addr).expect("connect");
    short.write_all(&hello[..hello.len() / 2]).expect("send half a frame");
    drop(short);

    // the short-read drop is asynchronous: wait until the worker sees EOF
    for _ in 0..200 {
        if server.stats().dropped_malformed >= 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // the good session is unaffected by either neighbor
    let replies = good.join().expect("good session");
    let frames = trace_frames(&small_trace(303), 0);
    let truth = replay_offline(&frames).expect("offline replay");
    assert_eq!(replies, truth.replies, "good session must match offline exactly");

    // both bad sessions were dropped as malformed, the good one completed
    let stats = server.shutdown();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.dropped_malformed, 2);
}
