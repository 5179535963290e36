//! # lattice-engines-sim
//!
//! Cycle-level simulators for the paper's lattice engines. Where
//! `lattice-vlsi` *derives* throughput, bandwidth, and storage from
//! constraint algebra, this crate *measures* them by actually streaming
//! lattices through shift registers and PEs:
//!
//! * [`stage`] — the line-buffer pipeline stage: a ring of site
//!   registers plus `P` processing elements, consuming a raster stream
//!   and emitting the next generation, exactly as the fabricated WSA
//!   chip did. All engines are built from it.
//! * [`pipeline`] — the serial pipeline (§3) and the wide-serial
//!   architecture WSA (§4): `k` cascaded stages, `P` PEs each, one
//!   generation per stage, "computation proceeds on a wavefront through
//!   time and space".
//! * [`spa`] — the Sternberg partitioned architecture (§5): columnar
//!   slices with side channels completing neighborhoods across slice
//!   boundaries (`E` bits per exchange).
//! * [`wsae`] — WSA-E (§6.3): one PE per chip with the two-row window
//!   split across on-chip and external shift registers.
//! * [`memory`] — the host/main-memory channel with finite bandwidth:
//!   the token-bucket stall model that turns the prototype's 20 M
//!   updates/s/chip into the realized ~1 M updates/s (§8).
//! * [`halo`] — host-side halo framing for periodic boundaries.
//! * [`faults`] — seeded, stream-position-keyed hardware fault
//!   injection (stuck-at and transient bit-flips in shift registers,
//!   PE outputs, links, side channels); [`host`] adds checkpoint
//!   rollback and degraded-mode recovery on top.
//!
//! **Verification contract**: every engine must produce the *bit-exact*
//! lattice the reference `lattice_core::evolve` produces for the same
//! rule, and every reported traffic/storage count must match the
//! analytical model where one exists (integration tests enforce both).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod halo;
pub mod host;
pub mod memory;
pub mod metrics;
pub mod pipeline;
pub mod spa;
pub mod spa_lockstep;
pub mod stage;
pub mod threaded;
pub mod waveform;
pub mod wsae;

pub use faults::{Component, Fault, FaultCtx, FaultKind, FaultPlan, FaultStats, FaultStream};
pub use host::{FtRun, HostSystem, RecoveryConfig, RecoveryStats, SystemRun};
pub use memory::{throttled_rate, HostLink, StallSim};
pub use metrics::{EngineCost, EngineReport};
pub use pipeline::{Pipeline, RunOptions};
pub use spa::{SpaEngine, SpaRunOptions};
pub use spa_lockstep::SpaLockstep;
pub use stage::{LineBufferStage, StageConfig};
pub use threaded::run_threaded;
pub use waveform::{record as record_waveform, Waveform};
pub use wsae::WsaePipeline;
