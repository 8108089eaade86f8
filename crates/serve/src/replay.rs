//! Turning recorded traces into wire frames, and replaying frames offline.
//!
//! [`trace_frames`] converts one fleet-recorded [`Trace`] into the exact
//! frame sequence a live UE would emit: HELLO, the MeasConfig, then per
//! sample the radio snapshot, any due measurement reports and HO commands,
//! and a PREDICT — the same per-tick ordering the offline scorer
//! (`fiveg_bench::driver::run_prognos`) uses, with the same
//! measurement-object group derivation. Frames are *canonicalized* (one
//! encode/decode round trip) before being returned, so the client-side
//! offline replay and the server both consume values already on the RRC
//! codec's centi-dB grid — byte-identical inputs on both paths.
//!
//! [`replay_offline`] is the ground truth the server is compared against:
//! the same [`SessionCore`] the server runs, fed directly.

use crate::proto::{self, Frame, PROTO_VERSION};
use crate::session::{SessionCore, SessionCounts, SessionError};
use fiveg_radio::BandClass;
use fiveg_ran::{Arch, HandoverRecord, HoType};
use fiveg_rrc::{NeighborMeas, Pci, ReconfigAction};
use fiveg_sim::Trace;
use prognos::{CellObs, LegSnapshot};

/// FNV-1a-32 over the band name — the measurement-object group key for
/// frequency-scoped events (identical to the offline scorer's).
fn freq_key(band: &str) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for b in band.bytes() {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    h
}

/// The HO command a recorded handover would have arrived as.
fn ho_action(h: &HandoverRecord) -> ReconfigAction {
    let target = h.target.unwrap_or(Pci(0));
    match h.ho_type {
        HoType::Lteh => ReconfigAction::LteHandover { target },
        HoType::Mnbh => ReconfigAction::MenbHandover { target },
        HoType::Scga => ReconfigAction::ScgAddition { nr_target: target },
        HoType::Scgr => ReconfigAction::ScgRelease,
        HoType::Scgm => ReconfigAction::ScgModification { nr_target: target },
        HoType::Scgc => ReconfigAction::ScgChange { nr_target: target },
        HoType::Mcgh => ReconfigAction::McgHandover { target },
    }
}

/// Converts a recorded trace into the canonical wire-frame sequence for
/// session id `ue`.
pub fn trace_frames(trace: &Trace, ue: u32) -> Vec<Frame> {
    let lte_obs =
        |cell: u32, rrs| CellObs { pci: Pci(trace.cell(cell).pci), rrs, group: Some(freq_key(&trace.cell(cell).band)) };
    let nr_obs = |cell: u32, rrs| CellObs {
        pci: Pci(trace.cell(cell).pci),
        rrs,
        group: if trace.meta.arch == Arch::Nsa {
            Some(trace.cell(cell).tower)
        } else {
            Some(freq_key(&trace.cell(cell).band))
        },
    };

    let mut frames = Vec::with_capacity(trace.samples.len() * 2 + trace.reports.len() + 4);
    frames.push(Frame::Hello { ver: PROTO_VERSION, arch: trace.meta.arch, ue });
    frames.push(Frame::Config { t: 0.0, msg: fiveg_rrc::RrcMessage::MeasConfig { configs: trace.configs.clone() } });

    let mut rep_i = 0usize;
    let mut ho_i = 0usize;
    for s in &trace.samples {
        frames.push(Frame::Sample {
            t: s.t,
            lte: LegSnapshot {
                serving: s.lte_cell.zip(s.lte_rrs).map(|(c, r)| lte_obs(c, r)),
                neighbors: s.lte_neighbors.iter().map(|&(c, r)| lte_obs(c, r)).collect(),
            },
            nr: LegSnapshot {
                serving: s.nr_cell.zip(s.nr_rrs).map(|(c, r)| nr_obs(c, r)),
                neighbors: s.nr_neighbors.iter().map(|&(c, r)| nr_obs(c, r)).collect(),
            },
        });
        while rep_i < trace.reports.len() && trace.reports[rep_i].t <= s.t {
            let r = &trace.reports[rep_i];
            frames.push(Frame::Report {
                t: s.t,
                msg: fiveg_rrc::RrcMessage::MeasurementReport {
                    event: r.event,
                    serving_pci: Pci(r.serving_pci),
                    serving_rrs: fiveg_radio::Rrs { rsrp_dbm: 0.0, rsrq_db: 0.0, sinr_db: 0.0 },
                    neighbors: r
                        .neighbor_pcis
                        .iter()
                        .map(|&p| NeighborMeas {
                            pci: Pci(p),
                            rrs: fiveg_radio::Rrs { rsrp_dbm: 0.0, rsrq_db: 0.0, sinr_db: 0.0 },
                        })
                        .collect(),
                },
            });
            rep_i += 1;
        }
        while ho_i < trace.handovers.len() && trace.handovers[ho_i].t_command <= s.t {
            frames.push(Frame::Handover {
                t: s.t,
                msg: fiveg_rrc::RrcMessage::RrcReconfiguration { action: ho_action(&trace.handovers[ho_i]) },
            });
            ho_i += 1;
        }
        let nr_band: Option<BandClass> = s
            .nr_cell
            .map(|c| trace.cell(c).class)
            .or_else(|| s.nr_neighbors.first().map(|&(c, _)| trace.cell(c).class));
        frames.push(Frame::Predict { t: s.t, has_scg: s.nr_cell.is_some(), nr_band });
    }
    frames.push(Frame::Bye);
    canonicalize(frames)
}

/// One encode/decode round trip per frame: pins every dB value to the RRC
/// codec's centi-dB grid so the wire and the offline replay see identical
/// inputs. Canonicalized frames are a fixed point of this map (covered by
/// a proto test).
fn canonicalize(frames: Vec<Frame>) -> Vec<Frame> {
    let mut buf = Vec::new();
    frames
        .into_iter()
        .map(|f| {
            buf.clear();
            proto::write_frame(&mut buf, &f);
            let (back, used) = proto::try_read_frame(&buf).expect("self-encoded frame").expect("complete");
            debug_assert_eq!(used, buf.len());
            back
        })
        .collect()
}

/// The result of an offline replay: every reply the server would have
/// produced, plus the session's work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct OfflineReplay {
    /// PROGNOSIS replies, in request order.
    pub replies: Vec<Frame>,
    /// Deterministic work counters.
    pub counts: SessionCounts,
}

/// Replays `frames` through a fresh [`SessionCore`] — the exact code the
/// server runs per session, minus the sockets.
pub fn replay_offline(frames: &[Frame]) -> Result<OfflineReplay, SessionError> {
    let mut core = SessionCore::new();
    let mut replies = Vec::new();
    for f in frames {
        if let Some(reply) = core.apply(f)? {
            replies.push(reply);
        }
    }
    Ok(OfflineReplay { replies, counts: core.counts() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fiveg_ran::Carrier;
    use fiveg_sim::ScenarioBuilder;

    fn small_trace() -> Trace {
        let sc = ScenarioBuilder::city_loop(Carrier::OpY, 201).arch(Arch::Sa).duration_s(20.0).sample_hz(10.0).build();
        sc.run()
    }

    #[test]
    fn frame_sequence_shape_matches_the_trace() {
        let trace = small_trace();
        let frames = trace_frames(&trace, 3);
        assert!(matches!(frames[0], Frame::Hello { ue: 3, arch: Arch::Sa, .. }));
        assert!(matches!(frames[1], Frame::Config { .. }));
        assert!(matches!(frames.last(), Some(Frame::Bye)));
        let samples = frames.iter().filter(|f| matches!(f, Frame::Sample { .. })).count();
        let predicts = frames.iter().filter(|f| matches!(f, Frame::Predict { .. })).count();
        assert_eq!(samples, trace.samples.len());
        assert_eq!(predicts, trace.samples.len(), "one PREDICT per sample");
    }

    #[test]
    fn offline_replay_answers_every_predict_deterministically() {
        let trace = small_trace();
        let frames = trace_frames(&trace, 0);
        let a = replay_offline(&frames).expect("replay");
        let b = replay_offline(&frames).expect("replay");
        assert_eq!(a.replies.len(), trace.samples.len());
        assert_eq!(a, b, "offline replay must be deterministic");
        assert_eq!(a.counts.samples, trace.samples.len() as u64);
        assert_eq!(a.counts.predictions, trace.samples.len() as u64);
        // reports/handovers past the final sample's time are never delivered
        assert!(a.counts.reports <= trace.reports.len() as u64);
        assert!(a.counts.handovers as usize <= trace.handovers.len());
    }

    #[test]
    fn canonicalization_is_a_fixed_point() {
        let trace = small_trace();
        let frames = trace_frames(&trace, 0);
        assert_eq!(canonicalize(frames.clone()), frames);
    }
}
