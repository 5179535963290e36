//! # lattice-farm
//!
//! A board-level engine farm: the machine the paper's §6 scaling
//! argument builds toward, one packaging level above the chip. The
//! lattice is split into an `R × C` grid of balanced rectangular blocks
//! ([`partition2d`]; a shard count `S` is the grid `(1, S)`), each
//! driven by its own cycle-level engine — a WSA pipeline (§4) or an SPA
//! slice array (§5) from `lattice-engines-sim`. The boards of one
//! [`FarmSession::step`] run on a crew that lives for the step: the
//! calling thread computes the first board, and one helper thread per
//! other board takes every pass, replay and checkpoint encode.
//! Boards run in bulk-synchronous passes: every pass they exchange
//! `k`-deep halos over finite-bandwidth, parity-checked inter-board
//! links ([`BoardLink`]), then compute `k` generations concurrently,
//! each board reading its block from the committed lattice and writing
//! its owned rows of the next one. When nothing reads the lattice
//! between passes (no audit, fault plan, barrier or overlap), each
//! board on the bit-plane kernel takes the whole run of them as one job,
//! keeps its planes, and trades its halo frames with its neighbours as
//! plane words; the lattice is built once, at the run's end.
//!
//! Three contracts, all enforced by tests:
//!
//! * **Bit-exactness** — a farmed run equals the single-engine
//!   reference exactly, for HPP and coordinate-dependent FHP, on the
//!   null boundary and the torus, for any shard count (including shard
//!   counts that do not divide the width).
//! * **Accounting** — the [`FarmReport`] aggregates per-board
//!   [`lattice_engines_sim::EngineReport`]s into machine-level figures:
//!   useful site-updates/s, inter-board bits/tick, halo-recompute
//!   redundancy, compute-vs-exchange split, fault tallies. The
//!   analytical board model in `lattice-vlsi` predicts these numbers;
//!   `tab_farm_scaling` tabulates measured against predicted.
//! * **Recovery** — [`LatticeFarm::run_with_recovery`] escalates
//!   through a four-level ladder, each level containing the fault where
//!   it was detected: link-level ARQ retransmission, single-board
//!   rollback-and-replay (neighbors stall, they don't rewind),
//!   farm-wide rollback to per-shard checkpoints through the real
//!   codec, and degraded re-partitioning onto the surviving boards —
//!   with attempt-epoch reseeding of every board's transient faults and
//!   per-pass worker watchdogs ([`lattice_core::LatticeError::BoardDown`]).
//!   Every recovered run is bit-exact against the fault-free reference.
//!
//! Every entry point runs one pass loop, [`FarmSession`]'s:
//! [`LatticeFarm::run`] is a recovery run with a zero budget,
//! [`LatticeFarm::run_with_recovery`] one with the caller's, and
//! [`LatticeFarm::session_owned`] leaves the session open for chunked
//! stepping. A checkpoint barrier is encoded only when a sink or a
//! restoring ladder level (global retry or degrade) can read it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crew;
pub mod farm;
pub mod link;
pub mod partition;
mod resident;

pub use farm::{
    FarmDegradeConfig, FarmFtRun, FarmRecoveryConfig, FarmReport, FarmSession, LatticeFarm,
    ShardAudit, ShardEngine, ShardStats, WorkerFault, WorkerFaultSpec,
};
pub use link::{BoardLink, HaloWindow};
pub use partition::{
    max_aug_width2d, partition2d, partition2d_checked, sweep_regions2d, Block, Region2d,
};
