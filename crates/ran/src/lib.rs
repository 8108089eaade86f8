//! Radio access network model: cells, deployments, measurement engine,
//! carrier handover policies and the handover state machines of Table 2.
//!
//! This crate is the network side of the study. It owns:
//!
//! * [`ho`] — the HO taxonomy (Table 2): SCGA/SCGR/SCGM/SCGC/MNBH/MCGH/LTEH,
//!   their access-technology changes and 4G/5G categories.
//! * [`carrier`] — the three carriers (OpX, OpY, OpZ) and their band
//!   portfolios, architectures and deployment parameters.
//! * [`cell`] — cells, towers and PCIs.
//! * [`deploy`] — the deployment generator: places eNB/gNB towers along a
//!   route per carrier profile (inter-site distances derived from the
//!   propagation model per band), handles eNB/gNB co-location and the
//!   same-PCI convention the paper's §6.3 heuristic relies on.
//! * [`measure`] — the UE-side measurement engine: evaluates the events of
//!   Table 4 with hysteresis and time-to-trigger against live RRS.
//! * [`policy`] — the carrier's "black-box" HO decision logic (§7.1): rule
//!   tables mapping measurement-report sequences to HO commands; this is
//!   exactly what Prognos learns from the outside.
//! * [`snapshot`] — the per-tick radio snapshot and scratch structures the
//!   simulator's hot path reads instead of re-scanning the deployment.
//! * [`stages`] — the T1 (preparation) / T2 (execution) duration model
//!   (§5.2), including the co-location discount of Fig. 13.
//! * [`state`] — the per-UE connection state machine executing HO commands
//!   and producing [`state::HandoverRecord`]s.

pub mod carrier;
pub mod cell;
pub mod deploy;
pub mod ho;
pub mod measure;
pub mod policy;
pub mod snapshot;
pub mod stages;
pub mod state;

pub use carrier::{Carrier, CarrierProfile, Environment};
pub use cell::{Cell, CellId, Tower, TowerId};
pub use deploy::Deployment;
pub use ho::{Arch, HoCategory, HoType, RadioTech};
pub use measure::{MeasEngine, Measurement};
pub use policy::{HoDecision, HoPolicy};
pub use snapshot::{per_band_top, ChannelMemo, PciTable, RadioSnapshot};
pub use stages::{StageModel, StageSample};
pub use state::{BearerMode, ConnectionState, HandoverRecord, HoEvent, HoPhase, RanStateMachine};
