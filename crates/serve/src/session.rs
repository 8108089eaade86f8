//! Per-connection session state: one Prognos instance driven by decoded
//! wire frames.
//!
//! [`SessionCore`] is the *entire* prediction path of the server — and it
//! is shared verbatim with [`crate::replay::replay_offline`], so the wire
//! service is equivalent to an offline Prognos replay *by construction*:
//! both consume the same decoded [`Frame`]s, in the same order, through the
//! same code. The server adds only transport (sockets, buffers, worker
//! scheduling) around it, which is exactly what the equivalence digest in
//! `BENCH_serve.json` verifies end to end.

use crate::proto::{Frame, PROTO_VERSION};
use fiveg_ran::{Arch, HoType};
use fiveg_rrc::RrcMessage;
use prognos::{Prognos, PrognosConfig, UeContext};

/// Why a frame was rejected. Any of these drops the session (the server
/// answers with [`Frame::Error`] first); other sessions are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// First frame of a session must be HELLO.
    ExpectedHello,
    /// HELLO arrived twice.
    DuplicateHello,
    /// HELLO carried an unsupported protocol version.
    BadVersion(u8),
    /// A server-only frame (PROGNOSIS/ERROR) arrived inbound.
    Inbound,
    /// A frame arrived after BYE.
    AfterBye,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::ExpectedHello => write!(f, "first frame must be HELLO"),
            SessionError::DuplicateHello => write!(f, "duplicate HELLO"),
            SessionError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (want {PROTO_VERSION})")
            }
            SessionError::Inbound => write!(f, "server-only frame on the inbound path"),
            SessionError::AfterBye => write!(f, "frame after BYE"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Deterministic per-session work counters (machine-independent; these are
/// what `BENCH_serve.json` gates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounts {
    /// Inbound frames accepted.
    pub frames: u64,
    /// SAMPLE frames.
    pub samples: u64,
    /// REPORT frames.
    pub reports: u64,
    /// HANDOVER frames.
    pub handovers: u64,
    /// PREDICT frames answered.
    pub predictions: u64,
    /// Answers that predicted a handover.
    pub positives: u64,
}

impl SessionCounts {
    /// Elementwise sum, for fleet-level aggregation.
    pub fn add(&mut self, o: &SessionCounts) {
        self.frames += o.frames;
        self.samples += o.samples;
        self.reports += o.reports;
        self.handovers += o.handovers;
        self.predictions += o.predictions;
        self.positives += o.positives;
    }
}

struct Open {
    arch: Arch,
    ue: u32,
    pg: Prognos,
}

/// One session's prediction state machine: HELLO opens it, frames drive
/// Prognos, PREDICT yields a PROGNOSIS reply, BYE closes it.
#[derive(Default)]
pub struct SessionCore {
    open: Option<Open>,
    done: bool,
    counts: SessionCounts,
}

impl SessionCore {
    /// A fresh session awaiting HELLO.
    pub fn new() -> SessionCore {
        SessionCore::default()
    }

    /// The UE id announced in HELLO, once open.
    pub fn ue(&self) -> Option<u32> {
        self.open.as_ref().map(|o| o.ue)
    }

    /// True once BYE has been processed.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Work counters so far.
    pub fn counts(&self) -> SessionCounts {
        self.counts
    }

    /// Applies one inbound frame; returns the reply to send, if any.
    pub fn apply(&mut self, f: &Frame) -> Result<Option<Frame>, SessionError> {
        if self.done {
            return Err(SessionError::AfterBye);
        }
        if self.open.is_none() {
            return match f {
                Frame::Hello { ver, .. } if *ver != PROTO_VERSION => Err(SessionError::BadVersion(*ver)),
                Frame::Hello { arch, ue, .. } => {
                    self.open = Some(Open { arch: *arch, ue: *ue, pg: Prognos::new(PrognosConfig::default()) });
                    self.counts.frames += 1;
                    Ok(None)
                }
                _ => Err(SessionError::ExpectedHello),
            };
        }
        let open = self.open.as_mut().expect("checked above");
        let reply = match f {
            Frame::Hello { .. } => return Err(SessionError::DuplicateHello),
            Frame::Prognosis { .. } | Frame::Error { .. } => return Err(SessionError::Inbound),
            Frame::Config { msg: RrcMessage::MeasConfig { configs }, .. } => {
                open.pg.set_configs(configs.clone());
                None
            }
            Frame::Sample { t, lte, nr } => {
                self.counts.samples += 1;
                open.pg.on_sample(*t, lte, nr);
                None
            }
            Frame::Report { msg: RrcMessage::MeasurementReport { event, .. }, .. } => {
                self.counts.reports += 1;
                open.pg.on_report(*event);
                None
            }
            Frame::Handover { msg: RrcMessage::RrcReconfiguration { action }, .. } => {
                self.counts.handovers += 1;
                open.pg.on_handover(HoType::from_action(action));
                None
            }
            Frame::Predict { t, has_scg, nr_band } => {
                self.counts.predictions += 1;
                let ctx = UeContext { arch: open.arch, has_scg: *has_scg, nr_band: *nr_band };
                let p = open.pg.predict(*t, &ctx);
                self.counts.positives += u64::from(p.ho.is_some());
                Some(Frame::Prognosis {
                    t: *t,
                    ho: p.ho,
                    ho_score: p.ho_score,
                    confidence: p.confidence,
                    lead_s: p.lead_s,
                })
            }
            Frame::Bye => {
                self.done = true;
                None
            }
            // the proto layer guarantees the rrc variant matches the frame
            // kind; a mismatch here means the frame was hand-built wrong
            Frame::Config { .. } | Frame::Report { .. } | Frame::Handover { .. } => return Err(SessionError::Inbound),
        };
        self.counts.frames += 1;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_radio::Rrs;
    use fiveg_rrc::{EventConfig, EventKind, MeasEvent, Pci};
    use prognos::{CellObs, LegSnapshot};

    fn hello() -> Frame {
        Frame::Hello { ver: PROTO_VERSION, arch: Arch::Sa, ue: 7 }
    }

    fn sample(t: f64) -> Frame {
        Frame::Sample {
            t,
            lte: LegSnapshot::empty(),
            nr: LegSnapshot {
                serving: Some(CellObs {
                    pci: Pci(5),
                    rrs: Rrs { rsrp_dbm: -95.0, rsrq_db: -11.0, sinr_db: 8.0 },
                    group: Some(1),
                }),
                neighbors: vec![],
            },
        }
    }

    #[test]
    fn non_hello_first_frame_is_rejected() {
        let mut s = SessionCore::new();
        assert_eq!(s.apply(&sample(0.0)), Err(SessionError::ExpectedHello));
        assert_eq!(s.apply(&Frame::Bye), Err(SessionError::ExpectedHello));
    }

    #[test]
    fn bad_version_and_duplicate_hello_rejected() {
        let mut s = SessionCore::new();
        assert_eq!(s.apply(&Frame::Hello { ver: 99, arch: Arch::Lte, ue: 0 }), Err(SessionError::BadVersion(99)));
        s.apply(&hello()).unwrap();
        assert_eq!(s.apply(&hello()), Err(SessionError::DuplicateHello));
    }

    #[test]
    fn predict_replies_and_counts() {
        let mut s = SessionCore::new();
        s.apply(&hello()).unwrap();
        s.apply(&Frame::Config {
            t: 0.0,
            msg: fiveg_rrc::RrcMessage::MeasConfig {
                configs: vec![EventConfig::typical(MeasEvent::nr(EventKind::A3))],
            },
        })
        .unwrap();
        for i in 0..10 {
            s.apply(&sample(i as f64 * 0.1)).unwrap();
        }
        let reply = s.apply(&Frame::Predict { t: 1.0, has_scg: true, nr_band: None }).unwrap();
        assert!(matches!(reply, Some(Frame::Prognosis { t, .. }) if t == 1.0));
        let c = s.counts();
        assert_eq!((c.frames, c.samples, c.predictions), (13, 10, 1));
        assert_eq!(s.ue(), Some(7));
    }

    #[test]
    fn bye_closes_the_session() {
        let mut s = SessionCore::new();
        s.apply(&hello()).unwrap();
        assert_eq!(s.apply(&Frame::Bye), Ok(None));
        assert!(s.done());
        assert_eq!(s.apply(&sample(0.0)), Err(SessionError::AfterBye));
    }

    #[test]
    fn inbound_server_frames_rejected() {
        let mut s = SessionCore::new();
        s.apply(&hello()).unwrap();
        assert_eq!(
            s.apply(&Frame::Prognosis { t: 0.0, ho: None, ho_score: 1.0, confidence: 0.0, lead_s: 0.0 }),
            Err(SessionError::Inbound)
        );
        assert_eq!(s.apply(&Frame::Error { code: 1 }), Err(SessionError::Inbound));
    }
}
