//! Turning recorded traces into wire frames, and replaying frames offline.
//!
//! [`trace_frames`] converts one fleet-recorded [`Trace`] into the exact
//! frame sequence a live UE would emit: HELLO, the MeasConfig, then per
//! [`trace_steps`] step the radio snapshot, its due measurement reports and
//! HO commands, and a PREDICT. `trace_steps` is the one trace-to-Prognos
//! mapping; the offline scorer (`fiveg_bench::driver::run_prognos`) reads
//! the same steps. Frames are *canonicalized* (one encode/decode round
//! trip) before being returned, so the client-side offline replay and the
//! server both consume values already on the RRC codec's centi-dB grid —
//! byte-identical inputs on both paths.
//!
//! [`replay_offline`] is the ground truth the server is compared against:
//! the same [`SessionCore`] the server runs, fed directly.

use crate::proto::{self, Frame, PROTO_VERSION};
use crate::session::{SessionCore, SessionCounts, SessionError};
use fiveg_bench::driver::trace_steps;
use fiveg_radio::Rrs;
use fiveg_ran::{HandoverRecord, HoType};
use fiveg_rrc::{NeighborMeas, Pci, ReconfigAction, RrcMessage};
use fiveg_sim::{MrRecord, Trace};

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

/// The measurement report a recorded one would have arrived as (the trace
/// keeps no RRS with it).
fn report_msg(r: &MrRecord) -> RrcMessage {
    let rrs = Rrs { rsrp_dbm: 0.0, rsrq_db: 0.0, sinr_db: 0.0 };
    RrcMessage::MeasurementReport {
        event: r.event,
        serving_pci: Pci(r.serving_pci),
        serving_rrs: rrs,
        neighbors: r.neighbor_pcis.iter().map(|&p| NeighborMeas { pci: Pci(p), rrs }).collect(),
    }
}

/// Converts a recorded trace into the canonical wire-frame sequence for
/// session id `ue`.
pub fn trace_frames(trace: &Trace, ue: u32) -> Vec<Frame> {
    let mut frames = Vec::with_capacity(trace.samples.len() * 2 + trace.reports.len() + 4);
    frames.push(Frame::Hello { ver: PROTO_VERSION, arch: trace.meta.arch, ue });
    frames.push(Frame::Config { t: 0.0, msg: RrcMessage::MeasConfig { configs: trace.configs.clone() } });
    for step in trace_steps(trace) {
        let t = step.t;
        frames.push(Frame::Sample { t, lte: step.lte, nr: step.nr });
        frames.extend(step.reports.iter().map(|r| Frame::Report { t, msg: report_msg(r) }));
        frames.extend(
            step.handovers
                .iter()
                .map(|h| Frame::Handover { t, msg: RrcMessage::RrcReconfiguration { action: ho_action(h) } }),
        );
        frames.push(Frame::Predict { t, has_scg: step.ctx.has_scg, nr_band: step.ctx.nr_band });
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
    use fiveg_ran::{Arch, Carrier};
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
        let mut rest = frames[2..frames.len() - 1].iter();
        for step in trace_steps(&trace) {
            assert!(matches!(rest.next(), Some(Frame::Sample { t, .. }) if *t == step.t), "SAMPLE at {}", step.t);
            for r in step.reports {
                let f = rest.next();
                assert!(
                    matches!(f, Some(Frame::Report { t, msg: RrcMessage::MeasurementReport { event, .. } })
                        if *t == step.t && *event == r.event),
                    "REPORT at {}: {f:?}",
                    step.t
                );
            }
            for h in step.handovers {
                let f = rest.next();
                assert!(
                    matches!(f, Some(Frame::Handover { t, msg: RrcMessage::RrcReconfiguration { action } })
                        if *t == step.t && HoType::from_action(action) == h.ho_type),
                    "HANDOVER at {}: {f:?}",
                    step.t
                );
            }
            let f = rest.next();
            assert!(
                matches!(f, Some(Frame::Predict { t, has_scg, nr_band })
                    if *t == step.t && *has_scg == step.ctx.has_scg && *nr_band == step.ctx.nr_band),
                "PREDICT at {}: {f:?}",
                step.t
            );
        }
        assert_eq!(rest.next(), None, "no frame beyond the steps'");
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
        let reports: usize = trace_steps(&trace).map(|s| s.reports.len()).sum();
        let handovers: usize = trace_steps(&trace).map(|s| s.handovers.len()).sum();
        assert!(reports > 0 && handovers > 0, "{reports} reports, {handovers} handovers");
        assert_eq!(a.counts.reports, reports as u64);
        assert_eq!(a.counts.handovers, handovers as u64);
    }

    #[test]
    fn canonicalization_is_a_fixed_point() {
        let trace = small_trace();
        let frames = trace_frames(&trace, 0);
        assert_eq!(canonicalize(frames.clone()), frames);
    }
}
