//! # lattice-farm
//!
//! A board-level engine farm: the machine the paper's §6 scaling
//! argument builds toward, one packaging level above the chip. The
//! lattice is split into an `R × C` grid of balanced rectangular blocks
//! ([`partition2d`]; a shard count `S` is the grid `(1, S)`), each
//! driven by its own cycle-level engine — a WSA pipeline (§4) or an SPA
//! slice array (§5) from `lattice-engines-sim` — in bulk-synchronous
//! passes that exchange `k`-deep halos over finite-bandwidth,
//! parity-checked inter-board links ([`BoardLink`]). The [`farm`]
//! module describes a pass.
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
//! * **Recovery** — [`LatticeFarm::run_with_recovery`] answers faults
//!   through a four-level ladder, from link ARQ to degraded
//!   re-partitioning; every recovered run is bit-exact against the
//!   fault-free reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod board;
mod crew;
mod exchange;
pub mod farm;
mod ladder;
pub mod link;
pub mod partition;
mod pass;
mod resident;
mod session;

pub use farm::{
    FarmDegradeConfig, FarmFtRun, FarmRecoveryConfig, FarmReport, FarmSession, LatticeFarm,
    ShardAudit, ShardEngine, ShardStats, WorkerFault, WorkerFaultSpec,
};
pub use link::{BoardLink, HaloWindow};
pub use partition::{
    max_aug_width2d, partition2d, partition2d_checked, sweep_regions2d, Block, Region2d,
};
