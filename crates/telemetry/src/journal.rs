//! Bounded event journal: a ring buffer of typed, sim-time-stamped events
//! with a JSONL encoding written through the crate's [`JsonBuf`].
//!
//! Determinism contract: entries carry sim-time and a monotone sequence
//! number only — never wall-clock — so two runs of the same scenario emit
//! byte-identical journals.

use crate::json::JsonBuf;
use std::collections::VecDeque;

/// A typed journal event. String payloads (acronyms, labels) keep this
/// crate a dependency leaf: producers format domain enums at the call site.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A handover began executing (command issued to the UE).
    HoStart { ho_type: String, target_pci: Option<u16> },
    /// A handover completed; `duration_ms` is command→complete.
    HoCommit { ho_type: String, duration_ms: f64 },
    /// A handover failed (fault-injected or protocol failure).
    HoFailure { ho_type: String },
    /// Radio link failure on a leg (`"lte"` / `"nr"`).
    Rlf { leg: String },
    /// A triggered measurement report was lost (fault-injected).
    MrLoss { event: String },
    /// An application/transport flow stalled.
    StallStart { flow: String },
    /// The stall ended after `duration_s`.
    StallEnd { flow: String, duration_s: f64 },
    /// Prognos issued a positive forecast `lead_s` ahead.
    PredictionIssued { ho_type: String, lead_s: f64, confidence: f64 },
    /// A forecast matched the handover that actually occurred.
    PredictionHit { ho_type: String, lead_s: f64 },
    /// A handover occurred without (or against) a live forecast.
    PredictionMiss { predicted: Option<String>, actual: String },
    /// A fault injector fired (`"mr_loss"` / `"ho_failure"`).
    FaultInjected { kind: String },
}

impl Event {
    /// Stable snake_case discriminant used as the JSON `kind` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::HoStart { .. } => "ho_start",
            Event::HoCommit { .. } => "ho_commit",
            Event::HoFailure { .. } => "ho_failure",
            Event::Rlf { .. } => "rlf",
            Event::MrLoss { .. } => "mr_loss",
            Event::StallStart { .. } => "stall_start",
            Event::StallEnd { .. } => "stall_end",
            Event::PredictionIssued { .. } => "prediction_issued",
            Event::PredictionHit { .. } => "prediction_hit",
            Event::PredictionMiss { .. } => "prediction_miss",
            Event::FaultInjected { .. } => "fault_injected",
        }
    }
}

/// One journal slot: sim-time, monotone sequence number, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Sim-time in seconds (never wall-clock).
    pub t: f64,
    /// Monotone sequence number; survives ring-buffer eviction, so the
    /// first retained entry reveals how many were dropped before it.
    pub seq: u64,
    pub event: Event,
}

impl JournalEntry {
    /// One JSON object, single line, key order fixed.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        let str_field = |j: &mut JsonBuf, key: &str, val: &str| {
            j.key(key);
            j.str_val(val);
        };
        let num_field = |j: &mut JsonBuf, key: &str, v: f64| {
            j.key(key);
            j.num(v);
        };
        j.open('{');
        num_field(&mut j, "t", self.t);
        j.key("seq");
        j.uint(self.seq);
        str_field(&mut j, "kind", self.event.kind());
        match &self.event {
            Event::HoStart { ho_type, target_pci } => {
                str_field(&mut j, "ho_type", ho_type);
                if let Some(pci) = target_pci {
                    j.key("target_pci");
                    j.uint(u64::from(*pci));
                }
            }
            Event::HoCommit { ho_type, duration_ms } => {
                str_field(&mut j, "ho_type", ho_type);
                num_field(&mut j, "duration_ms", *duration_ms);
            }
            Event::HoFailure { ho_type } => str_field(&mut j, "ho_type", ho_type),
            Event::Rlf { leg } => str_field(&mut j, "leg", leg),
            Event::MrLoss { event } => str_field(&mut j, "event", event),
            Event::StallStart { flow } => str_field(&mut j, "flow", flow),
            Event::StallEnd { flow, duration_s } => {
                str_field(&mut j, "flow", flow);
                num_field(&mut j, "duration_s", *duration_s);
            }
            Event::PredictionIssued { ho_type, lead_s, confidence } => {
                str_field(&mut j, "ho_type", ho_type);
                num_field(&mut j, "lead_s", *lead_s);
                num_field(&mut j, "confidence", *confidence);
            }
            Event::PredictionHit { ho_type, lead_s } => {
                str_field(&mut j, "ho_type", ho_type);
                num_field(&mut j, "lead_s", *lead_s);
            }
            Event::PredictionMiss { predicted, actual } => {
                j.key("predicted");
                match predicted {
                    Some(p) => j.str_val(p),
                    None => j.null(),
                }
                str_field(&mut j, "actual", actual);
            }
            Event::FaultInjected { kind } => str_field(&mut j, "fault", kind),
        }
        j.close('}');
        j.into_string()
    }
}

/// Capacity-bounded ring buffer of [`JournalEntry`]s (drop-oldest).
#[derive(Debug)]
pub(crate) struct Journal {
    entries: VecDeque<JournalEntry>,
    capacity: usize,
    seq: u64,
    dropped: u64,
}

impl Journal {
    pub(crate) fn new(capacity: usize) -> Journal {
        Journal { entries: VecDeque::new(), capacity, seq: 0, dropped: 0 }
    }

    pub(crate) fn record(&mut self, t: f64, event: Event) {
        if self.capacity == 0 {
            self.seq += 1;
            self.dropped += 1;
            return;
        }
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(JournalEntry { t, seq: self.seq, event });
        self.seq += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn entries(&self) -> &VecDeque<JournalEntry> {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_strings() {
        let e = JournalEntry { t: 1.5, seq: 0, event: Event::MrLoss { event: "A3\"\\\n".into() } };
        let j = e.to_json();
        assert!(j.contains("\\\""), "{j}");
        assert!(j.contains("\\\\"), "{j}");
        assert!(j.contains("\\n"), "{j}");
    }

    #[test]
    fn json_key_order_fixed() {
        let e = JournalEntry { t: 0.05, seq: 7, event: Event::HoCommit { ho_type: "LTEH".into(), duration_ms: 92.25 } };
        assert_eq!(
            e.to_json(),
            "{\"t\":0.05,\"seq\":7,\"kind\":\"ho_commit\",\"ho_type\":\"LTEH\",\"duration_ms\":92.25}"
        );
    }

    #[test]
    fn prediction_miss_null_predicted() {
        let e =
            JournalEntry { t: 2.0, seq: 1, event: Event::PredictionMiss { predicted: None, actual: "SCGA".into() } };
        assert!(e.to_json().contains("\"predicted\":null"));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut j = Journal::new(2);
        for i in 0..5 {
            j.record(i as f64, Event::Rlf { leg: "lte".into() });
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
        assert_eq!(j.entries()[0].seq, 3);
        assert_eq!(j.entries()[1].seq, 4);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut j = Journal::new(0);
        j.record(0.0, Event::Rlf { leg: "nr".into() });
        assert_eq!(j.len(), 0);
        assert_eq!(j.dropped(), 1);
    }

    #[test]
    fn every_variant_encodes() {
        let events = vec![
            Event::HoStart { ho_type: "SCGA".into(), target_pci: Some(3) },
            Event::HoStart { ho_type: "SCGR".into(), target_pci: None },
            Event::HoCommit { ho_type: "LTEH".into(), duration_ms: 80.0 },
            Event::HoFailure { ho_type: "MNBH".into() },
            Event::Rlf { leg: "nr".into() },
            Event::MrLoss { event: "NR-B1".into() },
            Event::StallStart { flow: "cbr".into() },
            Event::StallEnd { flow: "cbr".into(), duration_s: 0.4 },
            Event::PredictionIssued { ho_type: "SCGC".into(), lead_s: 1.2, confidence: 0.9 },
            Event::PredictionHit { ho_type: "SCGC".into(), lead_s: 1.2 },
            Event::PredictionMiss { predicted: Some("SCGM".into()), actual: "MCGH".into() },
            Event::FaultInjected { kind: "mr_loss".into() },
        ];
        for (i, ev) in events.into_iter().enumerate() {
            let kind = ev.kind().to_string();
            let entry = JournalEntry { t: i as f64 * 0.1, seq: i as u64, event: ev };
            let j = entry.to_json();
            assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
            assert!(j.contains(&format!("\"kind\":\"{kind}\"")), "{j}");
            assert!(!j.contains('\n'), "{j}");
        }
    }
}
