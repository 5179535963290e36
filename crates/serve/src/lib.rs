//! # lattice-serve
//!
//! Lattice-as-a-service: a daemon that multiplexes many concurrent
//! [`lattice_farm`] runs ("sessions") over one provisioned machine,
//! with the `lattice-vlsi` farm model as its admission controller.
//!
//! * **Protocol** ([`protocol`]) — line-delimited JSON over TCP: one
//!   request per line (`create`, `step`, `query`, `checkpoint`,
//!   `destroy`, `stats`, `shutdown`), one response line each.
//! * **Admission control** ([`scheduler`]) — each session's sustained
//!   inter-board link demand is *predicted* by
//!   [`FarmModel::binding_link_demand`](lattice_vlsi::FarmModel::binding_link_demand)
//!   before it runs; sessions are admitted until the aggregate would
//!   saturate the provisioned link capacity and FIFO-queued after
//!   that. Backpressure arrives at create time, not as thrashing.
//! * **Eviction** ([`daemon`]) — beyond `max_live` resident sessions,
//!   the least-recently-used is checkpointed to the durable store
//!   (PR 6's [`CheckpointStore`](lattice_core::checkpoint::store))
//!   and lazily restored — bit-exactly — on its next touch. The same
//!   path makes a daemon kill + restart lossless.
//! * **Metrics** — `stats` streams the merged farm-report counters of
//!   every session plus the budget ledger, one JSON line per sample.
//! * **Fault tolerance** — a spec's optional `fault` block
//!   ([`FaultSpec`]) runs the session under seeded hardware-fault
//!   weather with the PR 3 recovery-ladder budgets and per-pass
//!   worker watchdogs; a session that exhausts the ladder is
//!   *quarantined* (`poisoned` in `stats`), never fatal to the
//!   daemon. The transport is hardened the same way: bounded frames,
//!   read/write deadlines, structured error lines for malformed
//!   input, and per-connection `catch_unwind` teardown.
//!
//! The crate is std-only (no async runtime, no serde): transport is
//! `std::net` confined to [`transport`], and the wire format is the
//! hand-rolled panic-free [`json`] module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod json;
pub mod protocol;
pub mod scheduler;
pub mod session;
pub mod transport;

pub use daemon::{Daemon, DaemonConfig, DEFAULT_LINK_CAPACITY, MAX_SESSIONS};
pub use protocol::{
    FaultSpec, Query, ReportFrame, Request, Response, SessionSpec, SessionStat, StatsFrame,
};
pub use scheduler::Scheduler;
pub use session::{
    build_farm, farm_model, fault_plan, link_demand, recovery_config, seed_grid, validate_spec,
    GasRule,
};
pub use transport::{
    inject_raw, is_frame_error, is_timeout_error, Client, DEFAULT_IO_TIMEOUT, MAX_FRAME_BYTES,
};
