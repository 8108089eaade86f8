//! # fiveg-serve — the online Prognos prediction service
//!
//! The paper's Prognos is designed to run *on device, online*: measurement
//! reports stream in, "will a handover happen, and which type?" answers
//! stream out. Everything else in this workspace replays Prognos inside
//! offline simulations; this crate serves it.
//!
//! * [`proto`] — the wire protocol: a thin binary frame envelope around
//!   real [`fiveg_rrc::codec`]-encoded RRC messages, plus the
//!   PREDICT/PROGNOSIS request-response pair.
//! * [`session`] — [`session::SessionCore`], the synchronous per-session
//!   prediction state machine (one Prognos per connection). Shared by the
//!   server and the offline replay, so wire answers are equivalent to an
//!   offline Prognos run *by construction*.
//! * [`server`] — TCP/UDS listeners, bounded accept, and a worker pool;
//!   all concurrency lives here, outside the deterministic core. Failure
//!   isolation per session: malformed input drops one connection, never
//!   the server.
//! * [`replay`] — converts fleet-recorded [`fiveg_sim::Trace`]s into
//!   canonical frame sequences and replays them offline (the ground truth
//!   the load generator compares the wire against).
//! * [`digest`] — the FNV-1a-64 prediction-equivalence digest over reply
//!   streams; equal digest ⇔ bit-identical predictions, cheap enough to
//!   gate in CI.
//!
//! Binaries: `serve` (the server) and `serve_load` (the load generator,
//! which writes `BENCH_serve.json`, schema `fiveg-serve/v2`).

pub mod digest;
pub mod proto;
pub mod replay;
pub mod server;
pub mod session;

pub use digest::{combine_sessions, digest_replies, hex16, Fnv64};
pub use proto::{Frame, ProtoError, MAX_FRAME, PROTO_VERSION};
pub use replay::{replay_offline, trace_frames, OfflineReplay};
pub use server::{start, ServeConfig, ServerHandle, StatsSnapshot};
pub use session::{SessionCore, SessionCounts, SessionError};
