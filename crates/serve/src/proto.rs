//! Wire protocol of the serving layer.
//!
//! Every RRC-shaped payload on the wire — measurement configurations,
//! measurement reports (both the observed ones and the per-tick Periodic
//! radio snapshots), and HO commands — is carried as a real
//! [`fiveg_rrc::codec`]-encoded message, so the serving path accounts and
//! exercises the exact same bytes the signaling model does. Around those
//! messages sits a thin frame envelope for what RRC itself does not carry:
//! sim-time, session identity, measurement-object groups, and the
//! prediction request/response pair.
//!
//! Framing (all multi-byte integers big-endian):
//!
//! ```text
//! len:u32  kind:u8  payload[len-1]
//!
//! 0x01 HELLO     ver:u8, arch:u8 (0=LTE 1=NSA 2=SA), ue:u32
//! 0x02 CONFIG    t:u64(f64 bits), n:u16, rrc[n]      (MeasConfig)
//! 0x03 SAMPLE    t:u64, leg(LTE), leg(NR)            (two Periodic reports)
//! 0x04 REPORT    t:u64, n:u16, rrc[n]                (MeasurementReport)
//! 0x05 HANDOVER  t:u64, n:u16, rrc[n]                (RrcReconfiguration)
//! 0x06 PREDICT   t:u64, has_scg:u8, nr_band:u8 (0=none 1=low 2=mid 3=mmw)
//! 0x07 BYE
//! 0x81 PROGNOSIS t:u64, ho:u8 (0=none), ho_score:u64, confidence:u64, lead_s:u64
//! 0xFF ERROR     code:u8
//!
//! leg := flags:u8 (bit0 = serving present), n:u16, rrc[n],
//!        g:u8, g × (present:u8, group:u32)   (serving first, then neighbors)
//! ```
//!
//! `len` counts the kind byte plus the payload and is capped at
//! [`MAX_FRAME`]; a frame must parse to exactly its length (the same exact
//! framing rule the RRC codec enforces), so any residue is corruption, not
//! slack. f64 values travel as IEEE-754 bit patterns — lossless, so the
//! server and an offline replay of the same frames agree bit-for-bit.

use fiveg_radio::{BandClass, Rrs};
use fiveg_ran::{Arch, HoType};
use fiveg_rrc::{codec, CodecError, EventKind, MeasEvent, NeighborMeas, Pci, ReconfigAction, RrcMessage};
use prognos::{CellObs, LegSnapshot};

/// Protocol version carried in HELLO.
pub const PROTO_VERSION: u8 = 1;

/// Hard cap on `len` (kind + payload bytes) — anything larger is malformed.
pub const MAX_FRAME: usize = 64 * 1024;

const KIND_HELLO: u8 = 0x01;
const KIND_CONFIG: u8 = 0x02;
const KIND_SAMPLE: u8 = 0x03;
const KIND_REPORT: u8 = 0x04;
const KIND_HANDOVER: u8 = 0x05;
const KIND_PREDICT: u8 = 0x06;
const KIND_BYE: u8 = 0x07;
const KIND_PROGNOSIS: u8 = 0x81;
const KIND_ERROR: u8 = 0xFF;

/// Placeholder PCI for an absent serving leg inside a SAMPLE's Periodic
/// report (the flags bit, not this value, is authoritative).
const NO_SERVING_PCI: u16 = 0xFFFF;

/// Framing/validation failure. Any of these poisons the *session* (the
/// stream offset is no longer trustworthy), never the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Declared frame length exceeds [`MAX_FRAME`] (or is zero).
    BadLength(u32),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Payload too short, too long, or internally inconsistent.
    Malformed,
    /// Embedded RRC message failed to decode.
    Codec(CodecError),
    /// Embedded RRC message decoded to the wrong variant for its frame.
    WrongRrc,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::BadLength(n) => write!(f, "bad frame length {n}"),
            ProtoError::BadKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            ProtoError::Malformed => write!(f, "malformed frame payload"),
            ProtoError::Codec(e) => write!(f, "embedded rrc message: {e}"),
            ProtoError::WrongRrc => write!(f, "embedded rrc message has the wrong variant"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> ProtoError {
        ProtoError::Codec(e)
    }
}

/// One protocol frame, client→server (HELLO..BYE) or server→client
/// (PROGNOSIS, ERROR).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Opens a session: protocol version, architecture, UE id.
    Hello {
        /// Protocol version ([`PROTO_VERSION`]).
        ver: u8,
        /// Architecture the UE operates under.
        arch: Arch,
        /// Caller-chosen UE/session id (reported back in stats).
        ue: u32,
    },
    /// Installs measurement-event configurations; `msg` must be
    /// [`RrcMessage::MeasConfig`].
    Config {
        /// Sim-time, s.
        t: f64,
        /// The encoded-and-decoded RRC message.
        msg: RrcMessage,
    },
    /// One tick of radio observations for both legs, groups included.
    Sample {
        /// Sim-time, s.
        t: f64,
        /// LTE leg snapshot.
        lte: LegSnapshot,
        /// NR leg snapshot.
        nr: LegSnapshot,
    },
    /// An observed (fired) measurement report; `msg` must be
    /// [`RrcMessage::MeasurementReport`].
    Report {
        /// Sim-time, s.
        t: f64,
        /// The encoded-and-decoded RRC message.
        msg: RrcMessage,
    },
    /// An observed HO command; `msg` must be
    /// [`RrcMessage::RrcReconfiguration`].
    Handover {
        /// Sim-time, s.
        t: f64,
        /// The encoded-and-decoded RRC message.
        msg: RrcMessage,
    },
    /// Asks for a prognosis under the given radio context.
    Predict {
        /// Sim-time, s.
        t: f64,
        /// SCG currently attached.
        has_scg: bool,
        /// Serving/strongest NR band class, if any.
        nr_band: Option<BandClass>,
    },
    /// Orderly end of session.
    Bye,
    /// Server reply to [`Frame::Predict`].
    Prognosis {
        /// Echo of the request time, s.
        t: f64,
        /// Predicted HO type (`None` = no HO expected).
        ho: Option<HoType>,
        /// Expected multiplicative throughput change.
        ho_score: f64,
        /// Pattern similarity backing the prediction.
        confidence: f64,
        /// Estimated lead time, s.
        lead_s: f64,
    },
    /// Server-side failure notice; the server closes the session after
    /// sending it.
    Error {
        /// Coarse failure class (1 = protocol, 2 = session state).
        code: u8,
    },
}

/// HoType → wire tag (1-based; 0 means "no HO" in PROGNOSIS).
pub fn ho_wire_tag(ho: HoType) -> u8 {
    match ho {
        HoType::Lteh => 1,
        HoType::Mnbh => 2,
        HoType::Scga => 3,
        HoType::Scgr => 4,
        HoType::Scgm => 5,
        HoType::Scgc => 6,
        HoType::Mcgh => 7,
    }
}

fn ho_from_wire(tag: u8) -> Option<HoType> {
    Some(match tag {
        1 => HoType::Lteh,
        2 => HoType::Mnbh,
        3 => HoType::Scga,
        4 => HoType::Scgr,
        5 => HoType::Scgm,
        6 => HoType::Scgc,
        7 => HoType::Mcgh,
        _ => return None,
    })
}

/// The HO type announced by a reconfiguration action — the same bijection
/// the signaling model uses between HO procedures and their commands.
pub fn action_ho(a: &ReconfigAction) -> HoType {
    match a {
        ReconfigAction::LteHandover { .. } => HoType::Lteh,
        ReconfigAction::MenbHandover { .. } => HoType::Mnbh,
        ReconfigAction::ScgAddition { .. } => HoType::Scga,
        ReconfigAction::ScgRelease => HoType::Scgr,
        ReconfigAction::ScgModification { .. } => HoType::Scgm,
        ReconfigAction::ScgChange { .. } => HoType::Scgc,
        ReconfigAction::McgHandover { .. } => HoType::Mcgh,
    }
}

fn arch_wire_tag(a: Arch) -> u8 {
    match a {
        Arch::Lte => 0,
        Arch::Nsa => 1,
        Arch::Sa => 2,
    }
}

fn arch_from_wire(tag: u8) -> Option<Arch> {
    Some(match tag {
        0 => Arch::Lte,
        1 => Arch::Nsa,
        2 => Arch::Sa,
        _ => return None,
    })
}

fn band_wire_tag(b: Option<BandClass>) -> u8 {
    match b {
        None => 0,
        Some(BandClass::Low) => 1,
        Some(BandClass::Mid) => 2,
        Some(BandClass::MmWave) => 3,
    }
}

fn band_from_wire(tag: u8) -> Result<Option<BandClass>, ProtoError> {
    Ok(match tag {
        0 => None,
        1 => Some(BandClass::Low),
        2 => Some(BandClass::Mid),
        3 => Some(BandClass::MmWave),
        _ => return Err(ProtoError::Malformed),
    })
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
}

fn push_rrc(out: &mut Vec<u8>, msg: &RrcMessage) {
    let bytes = codec::encode(msg);
    push_u16(out, bytes.len() as u16);
    out.extend_from_slice(&bytes);
}

fn push_leg(out: &mut Vec<u8>, leg: &LegSnapshot, periodic: MeasEvent) {
    out.push(u8::from(leg.serving.is_some()));
    let msg = RrcMessage::MeasurementReport {
        event: periodic,
        serving_pci: leg.serving.map(|c| c.pci).unwrap_or(Pci(NO_SERVING_PCI)),
        serving_rrs: leg.serving.map(|c| c.rrs).unwrap_or(Rrs { rsrp_dbm: 0.0, rsrq_db: 0.0, sinr_db: 0.0 }),
        neighbors: leg.neighbors.iter().map(|c| NeighborMeas { pci: c.pci, rrs: c.rrs }).collect(),
    };
    push_rrc(out, &msg);
    let groups: Vec<Option<u32>> = leg.serving.iter().chain(leg.neighbors.iter()).map(|c| c.group).collect();
    out.push(groups.len().min(255) as u8);
    for g in groups.iter().take(255) {
        out.push(u8::from(g.is_some()));
        push_u32(out, g.unwrap_or(0));
    }
}

/// Appends the framed encoding of `f` to `out`.
pub fn write_frame(out: &mut Vec<u8>, f: &Frame) {
    let len_at = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]);
    match f {
        Frame::Hello { ver, arch, ue } => {
            out.push(KIND_HELLO);
            out.push(*ver);
            out.push(arch_wire_tag(*arch));
            push_u32(out, *ue);
        }
        Frame::Config { t, msg } => {
            debug_assert!(matches!(msg, RrcMessage::MeasConfig { .. }));
            out.push(KIND_CONFIG);
            push_f64(out, *t);
            push_rrc(out, msg);
        }
        Frame::Sample { t, lte, nr } => {
            out.push(KIND_SAMPLE);
            push_f64(out, *t);
            push_leg(out, lte, MeasEvent::lte(EventKind::Periodic));
            push_leg(out, nr, MeasEvent::nr(EventKind::Periodic));
        }
        Frame::Report { t, msg } => {
            debug_assert!(matches!(msg, RrcMessage::MeasurementReport { .. }));
            out.push(KIND_REPORT);
            push_f64(out, *t);
            push_rrc(out, msg);
        }
        Frame::Handover { t, msg } => {
            debug_assert!(matches!(msg, RrcMessage::RrcReconfiguration { .. }));
            out.push(KIND_HANDOVER);
            push_f64(out, *t);
            push_rrc(out, msg);
        }
        Frame::Predict { t, has_scg, nr_band } => {
            out.push(KIND_PREDICT);
            push_f64(out, *t);
            out.push(u8::from(*has_scg));
            out.push(band_wire_tag(*nr_band));
        }
        Frame::Bye => out.push(KIND_BYE),
        Frame::Prognosis { t, ho, ho_score, confidence, lead_s } => {
            out.push(KIND_PROGNOSIS);
            push_f64(out, *t);
            out.push(ho.map(ho_wire_tag).unwrap_or(0));
            push_f64(out, *ho_score);
            push_f64(out, *confidence);
            push_f64(out, *lead_s);
        }
        Frame::Error { code } => {
            out.push(KIND_ERROR);
            out.push(*code);
        }
    }
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.data.len() - self.pos < n {
            return Err(ProtoError::Malformed);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(u64::from_be_bytes(self.take(8)?.try_into().unwrap())))
    }

    fn rrc(&mut self) -> Result<RrcMessage, ProtoError> {
        let n = self.u16()? as usize;
        Ok(codec::decode(self.take(n)?)?)
    }

    fn leg(&mut self, periodic: MeasEvent) -> Result<LegSnapshot, ProtoError> {
        let flags = self.u8()?;
        let serving_present = flags & 1 != 0;
        let (serving_pci, serving_rrs, neighbors) = match self.rrc()? {
            RrcMessage::MeasurementReport { event, serving_pci, serving_rrs, neighbors } if event == periodic => {
                (serving_pci, serving_rrs, neighbors)
            }
            _ => return Err(ProtoError::WrongRrc),
        };
        let ngroups = self.u8()? as usize;
        if ngroups != usize::from(serving_present) + neighbors.len() {
            return Err(ProtoError::Malformed);
        }
        let mut groups = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let present = self.u8()? != 0;
            let g = self.u32()?;
            groups.push(present.then_some(g));
        }
        let mut gi = groups.into_iter();
        Ok(LegSnapshot {
            serving: serving_present.then(|| CellObs {
                pci: serving_pci,
                rrs: serving_rrs,
                group: gi.next().flatten(),
            }),
            neighbors: neighbors
                .into_iter()
                .map(|n| CellObs { pci: n.pci, rrs: n.rrs, group: gi.next().flatten() })
                .collect(),
        })
    }
}

/// Attempts to parse one frame from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete frame
/// (read more and retry), `Ok(Some((frame, consumed)))` on success, and an
/// error when the stream is corrupt — after which the byte offset can no
/// longer be trusted and the session must be dropped.
pub fn try_read_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, ProtoError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes(buf[..4].try_into().unwrap());
    if len == 0 || len as usize > MAX_FRAME {
        return Err(ProtoError::BadLength(len));
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let body = &buf[4..total];
    let mut c = Cursor { data: &body[1..], pos: 0 };
    let frame = match body[0] {
        KIND_HELLO => {
            let ver = c.u8()?;
            let arch = arch_from_wire(c.u8()?).ok_or(ProtoError::Malformed)?;
            let ue = c.u32()?;
            Frame::Hello { ver, arch, ue }
        }
        KIND_CONFIG => {
            let t = c.f64()?;
            let msg = c.rrc()?;
            if !matches!(msg, RrcMessage::MeasConfig { .. }) {
                return Err(ProtoError::WrongRrc);
            }
            Frame::Config { t, msg }
        }
        KIND_SAMPLE => {
            let t = c.f64()?;
            let lte = c.leg(MeasEvent::lte(EventKind::Periodic))?;
            let nr = c.leg(MeasEvent::nr(EventKind::Periodic))?;
            Frame::Sample { t, lte, nr }
        }
        KIND_REPORT => {
            let t = c.f64()?;
            let msg = c.rrc()?;
            if !matches!(msg, RrcMessage::MeasurementReport { .. }) {
                return Err(ProtoError::WrongRrc);
            }
            Frame::Report { t, msg }
        }
        KIND_HANDOVER => {
            let t = c.f64()?;
            let msg = c.rrc()?;
            if !matches!(msg, RrcMessage::RrcReconfiguration { .. }) {
                return Err(ProtoError::WrongRrc);
            }
            Frame::Handover { t, msg }
        }
        KIND_PREDICT => {
            let t = c.f64()?;
            let has_scg = c.u8()? != 0;
            let nr_band = band_from_wire(c.u8()?)?;
            Frame::Predict { t, has_scg, nr_band }
        }
        KIND_BYE => Frame::Bye,
        KIND_PROGNOSIS => {
            let t = c.f64()?;
            let ho = match c.u8()? {
                0 => None,
                tag => Some(ho_from_wire(tag).ok_or(ProtoError::Malformed)?),
            };
            let ho_score = c.f64()?;
            let confidence = c.f64()?;
            let lead_s = c.f64()?;
            Frame::Prognosis { t, ho, ho_score, confidence, lead_s }
        }
        KIND_ERROR => Frame::Error { code: c.u8()? },
        k => return Err(ProtoError::BadKind(k)),
    };
    if c.pos != body.len() - 1 {
        return Err(ProtoError::Malformed);
    }
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_rrc::EventConfig;

    fn obs(pci: u16, rsrp: f64, group: Option<u32>) -> CellObs {
        CellObs { pci: Pci(pci), rrs: Rrs { rsrp_dbm: rsrp, rsrq_db: -11.25, sinr_db: 7.5 }, group }
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { ver: PROTO_VERSION, arch: Arch::Sa, ue: 42 },
            Frame::Config {
                t: 0.0,
                msg: RrcMessage::MeasConfig {
                    configs: vec![
                        EventConfig::typical(MeasEvent::lte(EventKind::A3)),
                        EventConfig::typical(MeasEvent::nr(EventKind::A2)),
                    ],
                },
            },
            Frame::Sample {
                t: 1.25,
                lte: LegSnapshot {
                    serving: Some(obs(10, -95.25, Some(7))),
                    neighbors: vec![obs(11, -99.5, Some(7)), obs(12, -101.75, None)],
                },
                nr: LegSnapshot { serving: None, neighbors: vec![obs(300, -88.0, Some(9))] },
            },
            Frame::Sample { t: 1.3, lte: LegSnapshot::empty(), nr: LegSnapshot::empty() },
            Frame::Report {
                t: 2.0,
                msg: RrcMessage::MeasurementReport {
                    event: MeasEvent::nr(EventKind::A3),
                    serving_pci: Pci(300),
                    serving_rrs: Rrs { rsrp_dbm: -90.0, rsrq_db: -10.0, sinr_db: 5.0 },
                    neighbors: vec![NeighborMeas {
                        pci: Pci(301),
                        rrs: Rrs { rsrp_dbm: -87.0, rsrq_db: -9.0, sinr_db: 6.0 },
                    }],
                },
            },
            Frame::Handover {
                t: 2.5,
                msg: RrcMessage::RrcReconfiguration { action: ReconfigAction::McgHandover { target: Pci(301) } },
            },
            Frame::Predict { t: 2.6, has_scg: true, nr_band: Some(BandClass::Mid) },
            Frame::Predict { t: 2.7, has_scg: false, nr_band: None },
            Frame::Bye,
            Frame::Prognosis { t: 2.6, ho: Some(HoType::Mcgh), ho_score: 0.85, confidence: 0.75, lead_s: 0.6 },
            Frame::Prognosis { t: 2.7, ho: None, ho_score: 1.0, confidence: 0.0, lead_s: 0.0 },
            Frame::Error { code: 1 },
        ]
    }

    #[test]
    fn round_trip_all_frame_kinds() {
        for f in sample_frames() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &f);
            let (back, used) = try_read_frame(&buf).expect("parse").expect("complete");
            assert_eq!(used, buf.len());
            assert_eq!(back, f);
        }
    }

    #[test]
    fn frames_concatenate_and_parse_in_order() {
        let frames = sample_frames();
        let mut buf = Vec::new();
        for f in &frames {
            write_frame(&mut buf, f);
        }
        let mut off = 0;
        let mut back = Vec::new();
        while let Some((f, used)) = try_read_frame(&buf[off..]).expect("parse") {
            back.push(f);
            off += used;
        }
        assert_eq!(off, buf.len());
        assert_eq!(back, frames);
    }

    #[test]
    fn partial_buffers_ask_for_more_at_every_cut() {
        for f in sample_frames() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &f);
            for cut in 0..buf.len() {
                assert_eq!(try_read_frame(&buf[..cut]).expect("no error on short read"), None);
            }
        }
    }

    #[test]
    fn quantization_matches_the_rrc_codec() {
        // values off the centi-dB grid land on it after one round trip, and
        // a second round trip is then the identity — the property the
        // offline-equivalence digest rests on
        let f = Frame::Sample {
            t: 0.1,
            lte: LegSnapshot {
                serving: Some(CellObs {
                    pci: Pci(1),
                    rrs: Rrs { rsrp_dbm: -100.004, rsrq_db: -10.113, sinr_db: 3.007 },
                    group: Some(1),
                }),
                neighbors: vec![],
            },
            nr: LegSnapshot::empty(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &f);
        let (once, _) = try_read_frame(&buf).unwrap().unwrap();
        let mut buf2 = Vec::new();
        write_frame(&mut buf2, &once);
        assert_eq!(buf, buf2, "canonicalized frames must be byte-stable");
        match &once {
            Frame::Sample { lte, .. } => {
                assert_eq!(lte.serving.unwrap().rrs.rsrp_dbm, -100.0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn zero_and_oversize_lengths_rejected() {
        assert_eq!(try_read_frame(&[0, 0, 0, 0, 0, 0]), Err(ProtoError::BadLength(0)));
        let huge = (MAX_FRAME as u32 + 1).to_be_bytes();
        assert_eq!(
            try_read_frame(&[huge[0], huge[1], huge[2], huge[3]]),
            Err(ProtoError::BadLength(MAX_FRAME as u32 + 1))
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        assert_eq!(try_read_frame(&[0, 0, 0, 1, 0x42]), Err(ProtoError::BadKind(0x42)));
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Bye);
        // grow the declared length and append a stray byte
        buf[3] += 1;
        buf.push(0xAA);
        assert_eq!(try_read_frame(&buf), Err(ProtoError::Malformed));
    }

    #[test]
    fn wrong_embedded_rrc_variant_rejected() {
        // a CONFIG frame whose payload is a MeasurementReport
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Report {
                t: 1.0,
                msg: RrcMessage::MeasurementReport {
                    event: MeasEvent::lte(EventKind::A1),
                    serving_pci: Pci(1),
                    serving_rrs: Rrs { rsrp_dbm: -100.0, rsrq_db: -10.0, sinr_db: 0.0 },
                    neighbors: vec![],
                },
            },
        );
        buf[4] = KIND_CONFIG;
        assert_eq!(try_read_frame(&buf), Err(ProtoError::WrongRrc));
    }

    #[test]
    fn group_count_mismatch_rejected() {
        let f = Frame::Sample {
            t: 0.0,
            lte: LegSnapshot { serving: Some(obs(1, -90.0, Some(3))), neighbors: vec![] },
            nr: LegSnapshot::empty(),
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &f);
        // the LTE leg's group count byte sits right after the embedded rrc
        // message; find it by re-encoding the leg and corrupting the count
        // (leg layout: flags, n:u16, rrc[n], g, ...). offset of g:
        let rrc_len = u16::from_be_bytes([buf[4 + 1 + 8 + 1], buf[4 + 1 + 8 + 2]]) as usize;
        let g_at = 4 + 1 + 8 + 1 + 2 + rrc_len;
        buf[g_at] = buf[g_at].wrapping_add(1);
        assert!(try_read_frame(&buf).is_err());
    }

    /// Parses `buf` and checks the only outcomes the reader may have: "read
    /// more" (0), a frame no longer than the buffer (1), or an error (2),
    /// returned as that index. A panic inside the parser fails the caller.
    fn outcome(buf: &[u8]) -> usize {
        match try_read_frame(buf) {
            Ok(None) => 0,
            Ok(Some((_, used))) => {
                assert!(used <= buf.len(), "consumed {used} of a {}-byte buffer", buf.len());
                1
            }
            Err(_) => 2,
        }
    }

    /// `len` header values that lie about a frame of `body` bytes.
    fn lying_lengths(body: usize) -> [u32; 8] {
        let b = body as u32;
        [0, 1, b - 1, b + 1, b + 9, MAX_FRAME as u32, MAX_FRAME as u32 + 1, u32::MAX]
    }

    #[test]
    fn relabelled_and_mislengthed_frames_never_panic() {
        // every truncation is `partial_buffers_ask_for_more_at_every_cut`
        for f in sample_frames() {
            let mut buf = Vec::new();
            write_frame(&mut buf, &f);
            for len in lying_lengths(buf.len() - 4) {
                let mut b = buf.clone();
                b[..4].copy_from_slice(&len.to_be_bytes());
                outcome(&b);
                // padded, so a longer claim can be satisfied by junk
                b.resize(b.len() + 16, 0xA5);
                outcome(&b);
            }
            for kind in 0..=u8::MAX {
                let mut b = buf.clone();
                b[4] = kind;
                outcome(&b);
            }
        }
    }

    #[test]
    fn mutated_frames_never_panic() {
        use proptest::Strategy;
        // 1–5 edits per case, each (op, position or length, byte); the ops
        // are bit flip, byte overwrite, truncation, lying length, junk append
        let edits = proptest::collection::vec((0u8..5, proptest::any::<u32>(), proptest::any::<u8>()), 1..6);
        let mut rng = proptest::Rng::new(0x5E7E_F4A3_0000_0001);
        let frames = sample_frames();
        let mut seen = [0u32; 3];
        for case in 0..4000 {
            let mut buf = Vec::new();
            write_frame(&mut buf, &frames[case % frames.len()]);
            for (op, at, byte) in edits.sample(&mut rng) {
                let i = at as usize % buf.len().max(1);
                match op {
                    0 if !buf.is_empty() => buf[i] ^= 1 << (byte % 8),
                    1 if !buf.is_empty() => buf[i] = byte,
                    2 => buf.truncate(i),
                    3 if buf.len() >= 4 => {
                        let len = lying_lengths(buf.len().max(5) - 4)[byte as usize % 8];
                        buf[..4].copy_from_slice(&len.to_be_bytes());
                    }
                    _ => buf.resize(buf.len() + at as usize % 32, byte),
                }
            }
            seen[outcome(&buf)] += 1;
        }
        // the mutations must reach every outcome, or the sweep is vacuous
        assert!(seen.iter().all(|&n| n > 0), "outcomes (more, frame, error): {seen:?}");
    }

    #[test]
    fn ho_wire_tags_are_a_bijection() {
        for ho in HoType::ALL {
            assert_eq!(ho_from_wire(ho_wire_tag(ho)), Some(ho));
        }
        assert_eq!(ho_from_wire(0), None);
        assert_eq!(ho_from_wire(8), None);
    }
}
