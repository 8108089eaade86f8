//! The prediction server: TCP/UDS listeners, a bounded ready-queue, and a
//! worker pool servicing many concurrent sessions.
//!
//! Concurrency lives entirely at this boundary. Each accepted connection
//! becomes a `Session` owning its socket, buffers, and a synchronous
//! [`SessionCore`]; workers pop a session, drain whatever bytes are
//! readable, apply every complete frame, write the replies, and push the
//! session back. A session touches one worker at a time, so the Prognos
//! core never needs a lock — determinism is per-session, scheduling is
//! server-wide.
//!
//! Failure isolation: a malformed frame, a codec error, or a session-state
//! violation answers with an ERROR frame and drops *that* session only.
//! So does a panic while a worker services a session: the worker catches
//! it, answers ERROR, counts the session in `dropped_panic` and goes on
//! serving the others (a stats lock the panic poisoned stays readable).
//! Idle sessions past the deadline are dropped too. The accept path
//! enforces `max_sessions` — beyond it, new connections are closed
//! immediately rather than queued without bound.

use crate::proto::{self, Frame, ProtoError};
use crate::session::{SessionCore, SessionError};
use fiveg_telemetry::Histogram;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Per-session input buffer cap: a client that streams frames faster than
/// the worker drains them is malformed, not a reason to grow unbounded.
const IN_CAP: usize = 1 << 20;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP listen address (e.g. `127.0.0.1:0`), `None` to disable.
    pub tcp: Option<String>,
    /// Unix-domain-socket path, `None` to disable.
    pub uds: Option<PathBuf>,
    /// Worker threads servicing sessions.
    pub workers: usize,
    /// Accept cap: connections beyond this many live sessions are refused.
    pub max_sessions: usize,
    /// Per-prediction latency SLO, ms (server-side: parse→reply-queued).
    pub slo_ms: f64,
    /// Sessions silent for longer than this are dropped, s.
    pub idle_timeout_s: f64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { tcp: None, uds: None, workers: 2, max_sessions: 256, slo_ms: 50.0, idle_timeout_s: 30.0 }
    }
}

/// A point-in-time copy of the server's counters.
#[derive(Clone)]
pub struct StatsSnapshot {
    /// Connections admitted.
    pub accepted: u64,
    /// Connections refused at the accept cap.
    pub rejected: u64,
    /// Sessions closed cleanly via BYE.
    pub completed: u64,
    /// Sessions whose peer closed without BYE.
    pub closed_eof: u64,
    /// Sessions dropped for protocol/session violations.
    pub dropped_malformed: u64,
    /// Sessions dropped at the idle deadline.
    pub dropped_idle: u64,
    /// Sessions dropped on socket errors.
    pub dropped_io: u64,
    /// Sessions dropped because servicing them panicked.
    pub dropped_panic: u64,
    /// PROGNOSIS replies produced.
    pub predictions: u64,
    /// Replies whose server-side latency exceeded the SLO.
    pub slo_miss: u64,
    /// Server-side per-prediction latency, ms.
    pub latency_ms: Histogram,
}

#[derive(Clone)]
struct Stats {
    accepted: u64,
    rejected: u64,
    completed: u64,
    closed_eof: u64,
    dropped_malformed: u64,
    dropped_idle: u64,
    dropped_io: u64,
    dropped_panic: u64,
    predictions: u64,
    slo_miss: u64,
    latency_ms: Histogram,
}

impl Stats {
    fn new() -> Stats {
        Stats {
            accepted: 0,
            rejected: 0,
            completed: 0,
            closed_eof: 0,
            dropped_malformed: 0,
            dropped_idle: 0,
            dropped_io: 0,
            dropped_panic: 0,
            predictions: 0,
            slo_miss: 0,
            latency_ms: Histogram::new(),
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.accepted,
            rejected: self.rejected,
            completed: self.completed,
            closed_eof: self.closed_eof,
            dropped_malformed: self.dropped_malformed,
            dropped_idle: self.dropped_idle,
            dropped_io: self.dropped_io,
            dropped_panic: self.dropped_panic,
            predictions: self.predictions,
            slo_miss: self.slo_miss,
            latency_ms: self.latency_ms.clone(),
        }
    }
}

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Conn {
    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(true),
            #[cfg(unix)]
            Conn::Uds(s) => s.set_nonblocking(true),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Uds(s) => s.flush(),
        }
    }
}

struct Session {
    conn: Conn,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    core: SessionCore,
    last_activity: Instant,
}

impl Session {
    fn new(conn: Conn) -> Session {
        Session { conn, inbuf: Vec::new(), outbuf: Vec::new(), core: SessionCore::new(), last_activity: Instant::now() }
    }

    /// Writes as much of `outbuf` as the socket accepts right now.
    /// Returns whether any bytes moved; `Err` means the socket is dead.
    fn try_flush(&mut self) -> io::Result<bool> {
        let mut wrote = 0;
        while wrote < self.outbuf.len() {
            match self.conn.write(&self.outbuf[wrote..]) {
                Ok(0) => return Err(io::Error::from(ErrorKind::WriteZero)),
                Ok(n) => wrote += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.outbuf.drain(..wrote);
        Ok(wrote > 0)
    }

    /// Best-effort blocking-ish flush used right before dropping a session,
    /// so a final ERROR frame usually reaches the peer.
    fn flush_hard(&mut self) {
        for _ in 0..50 {
            match self.try_flush() {
                Ok(_) if self.outbuf.is_empty() => return,
                Ok(_) => thread::sleep(Duration::from_millis(1)),
                Err(_) => return,
            }
        }
    }
}

enum CloseReason {
    Completed,
    Eof,
    Malformed,
    Idle,
    Io,
    /// Servicing the session panicked.
    Panicked,
}

enum Verdict {
    Continue { progressed: bool },
    Close(CloseReason),
}

struct Inner {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Session>>,
    cv: Condvar,
    shutdown: AtomicBool,
    live: AtomicUsize,
    stats: Mutex<Stats>,
    /// Test hook: the next `service` call panics while holding `stats`.
    #[cfg(test)]
    panic_next: AtomicBool,
}

impl Inner {
    /// The counters, also after a panic poisoned their lock mid-update: each
    /// is a plain tally, so a poisoned one is still the best count there is.
    fn stats(&self) -> MutexGuard<'_, Stats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn admit(&self, conn: Conn) {
        if self.live.load(Ordering::Acquire) >= self.cfg.max_sessions {
            self.stats().rejected += 1;
            return; // conn drops, peer sees a clean close
        }
        if conn.set_nonblocking().is_err() {
            self.stats().dropped_io += 1;
            return;
        }
        self.live.fetch_add(1, Ordering::AcqRel);
        self.stats().accepted += 1;
        self.queue.lock().unwrap().push_back(Session::new(conn));
        self.cv.notify_one();
    }

    fn finalize(&self, mut s: Session, reason: CloseReason) {
        s.flush_hard();
        self.live.fetch_sub(1, Ordering::AcqRel);
        let mut st = self.stats();
        match reason {
            CloseReason::Completed => st.completed += 1,
            CloseReason::Eof => st.closed_eof += 1,
            CloseReason::Malformed => st.dropped_malformed += 1,
            CloseReason::Idle => st.dropped_idle += 1,
            CloseReason::Io => st.dropped_io += 1,
            CloseReason::Panicked => st.dropped_panic += 1,
        }
    }
}

fn error_code(e: &ProtoError) -> u8 {
    let _ = e;
    1
}

fn session_error_code(e: &SessionError) -> u8 {
    let _ = e;
    2
}

/// ERROR code of a session whose servicing panicked: the server's fault,
/// not the peer's.
const PANIC_CODE: u8 = 3;

/// One scheduling quantum for one session.
fn service(inner: &Inner, s: &mut Session) -> Verdict {
    let mut progressed = match s.try_flush() {
        Ok(p) => p,
        Err(_) => return Verdict::Close(CloseReason::Io),
    };

    // drain readable bytes
    let mut tmp = [0u8; 16 * 1024];
    let mut eof = false;
    loop {
        match s.conn.read(&mut tmp) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                s.inbuf.extend_from_slice(&tmp[..n]);
                progressed = true;
                if s.inbuf.len() > IN_CAP {
                    return Verdict::Close(CloseReason::Malformed);
                }
                if n < tmp.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Close(CloseReason::Io),
        }
    }

    // apply every complete frame
    let mut off = 0;
    let mut predictions = 0u64;
    let mut slo_miss = 0u64;
    let mut latencies: Vec<f64> = Vec::new();
    let verdict = loop {
        match proto::try_read_frame(&s.inbuf[off..]) {
            Ok(None) => break None,
            Ok(Some((frame, used))) => {
                off += used;
                let t0 = Instant::now();
                match s.core.apply(&frame) {
                    Ok(Some(reply)) => {
                        proto::write_frame(&mut s.outbuf, &reply);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        predictions += 1;
                        slo_miss += u64::from(ms > inner.cfg.slo_ms);
                        latencies.push(ms);
                        progressed = true;
                    }
                    Ok(None) => progressed = true,
                    Err(e) => {
                        proto::write_frame(&mut s.outbuf, &Frame::Error { code: session_error_code(&e) });
                        break Some(CloseReason::Malformed);
                    }
                }
                if s.core.done() {
                    break Some(CloseReason::Completed);
                }
            }
            Err(e) => {
                proto::write_frame(&mut s.outbuf, &Frame::Error { code: error_code(&e) });
                break Some(CloseReason::Malformed);
            }
        }
    };
    if off > 0 {
        s.inbuf.drain(..off);
    }
    if predictions > 0 {
        let mut st = inner.stats();
        #[cfg(test)]
        if inner.panic_next.swap(false, Ordering::AcqRel) {
            panic!("injected panic while servicing a session");
        }
        st.predictions += predictions;
        st.slo_miss += slo_miss;
        for ms in latencies {
            st.latency_ms.observe(ms);
        }
    }
    if let Some(reason) = verdict {
        return Verdict::Close(reason);
    }
    if s.try_flush().is_err() {
        return Verdict::Close(CloseReason::Io);
    }
    if eof {
        // a clean EOF has no half-frame left over; residue means the peer
        // died mid-frame
        return Verdict::Close(if s.inbuf.is_empty() { CloseReason::Eof } else { CloseReason::Malformed });
    }
    if progressed {
        s.last_activity = Instant::now();
    } else if s.last_activity.elapsed().as_secs_f64() > inner.cfg.idle_timeout_s {
        return Verdict::Close(CloseReason::Idle);
    }
    Verdict::Continue { progressed }
}

fn worker(inner: Arc<Inner>) {
    loop {
        let popped = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) = inner.cv.wait_timeout(q, Duration::from_millis(5)).unwrap();
                q = guard;
            }
        };
        let Some(mut s) = popped else { return };
        if inner.shutdown.load(Ordering::Acquire) {
            inner.finalize(s, CloseReason::Io);
            continue;
        }
        // a panic fails this session only: the worker answers ERROR, drops
        // the session and serves on
        let verdict = panic::catch_unwind(AssertUnwindSafe(|| service(&inner, &mut s))).unwrap_or_else(|_| {
            proto::write_frame(&mut s.outbuf, &Frame::Error { code: PANIC_CODE });
            Verdict::Close(CloseReason::Panicked)
        });
        match verdict {
            Verdict::Continue { progressed } => {
                inner.queue.lock().unwrap().push_back(s);
                inner.cv.notify_one();
                if !progressed {
                    // nothing moved: yield so an idle session doesn't spin
                    thread::sleep(Duration::from_micros(200));
                }
            }
            Verdict::Close(reason) => inner.finalize(s, reason),
        }
    }
}

fn acceptor_tcp(inner: Arc<Inner>, listener: TcpListener) {
    while !inner.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => inner.admit(Conn::Tcp(stream)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(Duration::from_millis(1)),
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

#[cfg(unix)]
fn acceptor_uds(inner: Arc<Inner>, listener: UnixListener) {
    while !inner.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => inner.admit(Conn::Uds(stream)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(Duration::from_millis(1)),
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// A running server. Dropping the handle shuts the server down and joins
/// every thread; [`ServerHandle::shutdown`] does the same and returns the
/// final stats.
pub struct ServerHandle {
    inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
    /// Bound TCP address, when TCP was configured (port resolved).
    pub tcp_addr: Option<SocketAddr>,
    /// Bound UDS path, when UDS was configured.
    pub uds_path: Option<PathBuf>,
}

impl ServerHandle {
    /// A copy of the current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats().snapshot()
    }

    fn stop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.cv.notify_all();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let Some(p) = &self.uds_path {
            let _ = std::fs::remove_file(p);
        }
    }

    /// Stops accepting, joins all threads, and returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.stop();
        self.stats()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds the configured endpoints and starts acceptors plus the worker
/// pool. At least one of `tcp`/`uds` must be set.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    if cfg.tcp.is_none() && cfg.uds.is_none() {
        return Err(io::Error::new(ErrorKind::InvalidInput, "no endpoint: set tcp and/or uds"));
    }
    let inner = Arc::new(Inner {
        cfg: cfg.clone(),
        queue: Mutex::new(VecDeque::new()),
        cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        live: AtomicUsize::new(0),
        stats: Mutex::new(Stats::new()),
        #[cfg(test)]
        panic_next: AtomicBool::new(false),
    });
    let mut threads = Vec::new();
    let mut tcp_addr = None;
    if let Some(addr) = &cfg.tcp {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        tcp_addr = Some(listener.local_addr()?);
        let inner2 = Arc::clone(&inner);
        threads.push(thread::spawn(move || acceptor_tcp(inner2, listener)));
    }
    let mut uds_path = None;
    #[cfg(unix)]
    if let Some(path) = &cfg.uds {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        uds_path = Some(path.clone());
        let inner2 = Arc::clone(&inner);
        threads.push(thread::spawn(move || acceptor_uds(inner2, listener)));
    }
    #[cfg(not(unix))]
    if cfg.uds.is_some() {
        return Err(io::Error::new(ErrorKind::Unsupported, "uds endpoints need a unix platform"));
    }
    for _ in 0..cfg.workers.max(1) {
        let inner2 = Arc::clone(&inner);
        threads.push(thread::spawn(move || worker(inner2)));
    }
    Ok(ServerHandle { inner, threads, tcp_addr, uds_path })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_server(cfg_mut: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
        let mut cfg = ServeConfig { tcp: Some("127.0.0.1:0".into()), workers: 2, ..ServeConfig::default() };
        cfg_mut(&mut cfg);
        start(cfg).expect("server start")
    }

    #[test]
    fn no_endpoint_is_an_error() {
        assert!(start(ServeConfig::default()).is_err());
    }

    #[test]
    fn starts_and_shuts_down_cleanly() {
        let h = tcp_server(|_| {});
        assert!(h.tcp_addr.is_some());
        let st = h.shutdown();
        assert_eq!(st.accepted, 0);
    }

    #[test]
    fn garbage_stream_drops_only_that_session() {
        let h = tcp_server(|_| {});
        let addr = h.tcp_addr.unwrap();
        {
            let mut bad = TcpStream::connect(addr).unwrap();
            // a frame with an unknown kind byte
            bad.write_all(&[0, 0, 0, 1, 0x42]).unwrap();
            bad.flush().unwrap();
            // server answers ERROR and closes; wait for the close
            let mut buf = Vec::new();
            let _ = bad.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = bad.read_to_end(&mut buf);
            let (frame, _) = proto::try_read_frame(&buf).unwrap().expect("error frame");
            assert!(matches!(frame, Frame::Error { .. }));
        }
        for _ in 0..500 {
            if h.stats().dropped_malformed == 1 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        let st = h.shutdown();
        assert_eq!(st.dropped_malformed, 1);
        assert_eq!(st.accepted, 1);
    }

    /// Sends every frame of one session, then reads until the server
    /// closes, returning the frames it answered with.
    fn run_session(addr: SocketAddr, frames: &[Frame]) -> Vec<Frame> {
        let mut out = Vec::new();
        for f in frames {
            proto::write_frame(&mut out, f);
        }
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(&out).unwrap();
        let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
        let mut buf = Vec::new();
        let _ = conn.read_to_end(&mut buf);
        let (mut replies, mut off) = (Vec::new(), 0);
        while let Some((f, used)) = proto::try_read_frame(&buf[off..]).expect("a clean reply stream") {
            replies.push(f);
            off += used;
        }
        replies
    }

    #[test]
    fn a_panic_fails_its_session_and_the_pool_serves_on() {
        use crate::replay::{replay_offline, trace_frames};
        use fiveg_ran::{Arch, Carrier};
        use fiveg_sim::ScenarioBuilder;

        // one worker: had the panic killed it, nobody would serve the next
        // session
        let h = tcp_server(|c| c.workers = 1);
        let addr = h.tcp_addr.unwrap();
        let sc = ScenarioBuilder::city_loop(Carrier::OpY, 201).arch(Arch::Sa).duration_s(15.0).sample_hz(10.0).build();
        let frames = trace_frames(&sc.run(), 0);
        let want = replay_offline(&frames).expect("offline replay").replies;

        // the first session's service panics while it holds the stats lock
        h.inner.panic_next.store(true, Ordering::Release);
        let failed = run_session(addr, &frames);
        assert_eq!(failed.last(), Some(&Frame::Error { code: PANIC_CODE }), "{} frames", failed.len());
        // the next session on the same worker is served in full, byte for
        // byte as offline
        assert_eq!(run_session(addr, &frames), want);
        // a session's socket closes only after `finalize` counted it, so
        // both are counted by now; the poisoned stats lock still reads
        let st = h.shutdown();
        assert_eq!((st.accepted, st.dropped_panic, st.completed), (2, 1, 1));
        assert_eq!(st.dropped_malformed + st.dropped_io + st.dropped_idle, 0);
    }

    #[test]
    fn accept_cap_refuses_excess_connections() {
        let h = tcp_server(|c| c.max_sessions = 1);
        let addr = h.tcp_addr.unwrap();
        let _held = TcpStream::connect(addr).unwrap();
        // wait until the first connection is admitted
        for _ in 0..500 {
            if h.stats().accepted == 1 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(h.stats().accepted, 1);
        let mut refused = TcpStream::connect(addr).unwrap();
        // the refused peer sees EOF without any frame
        let mut buf = Vec::new();
        let _ = refused.set_read_timeout(Some(Duration::from_secs(5)));
        let n = refused.read_to_end(&mut buf).unwrap_or(0);
        assert_eq!(n, 0);
        for _ in 0..500 {
            if h.stats().rejected == 1 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        let st = h.shutdown();
        assert_eq!(st.rejected, 1);
    }
}
