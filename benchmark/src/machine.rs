//! The four workloads: each one's machine and its entry-point call.
//!
//! Every workload is described by a `serve::SessionSpec`, so the farm
//! workloads and the daemon build their lattice, rule and farm with the
//! same public constructors (`seed_grid`, `GasRule::from_spec`,
//! `build_farm`), and the serve layer can be replayed on any
//! workload's own machine.

use lattice_engines::core::{Coord, Grid, LatticeError};
use lattice_engines::farm::{FarmRecoveryConfig, LatticeFarm};
use lattice_engines::gas::audit::{AuditMode, ConservationAudit};
use lattice_engines::serve::{
    build_farm, fault_plan, recovery_config, seed_grid, Client, FaultSpec, GasRule, Request,
    Response, SessionSpec,
};
use lattice_engines::sim::{FaultPlan, RecoveryStats};
use std::sync::Arc;

/// Expands `$body` once per gas rule, with `$r` bound to the concrete
/// rule, so generic entry points can be called on a [`GasRule`].
macro_rules! with_rule {
    ($rule:expr, $r:ident => $body:expr) => {
        match $rule {
            lattice_engines::serve::GasRule::Hpp($r) => $body,
            lattice_engines::serve::GasRule::Fhp($r) => $body,
        }
    };
}
pub(crate) use with_rule;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HPP on a 1024² torus, 1×2 WSA boards, k = 4: kernel-bound.
    FarmBulk,
    /// FHP-I on a 256×512 torus, 2×1 boards on throttled tiers, k = 1:
    /// bound by per-pass exchange, stitch and barrier.
    FarmFine,
    /// HPP on a confined 256² lattice under a fixed halo-link fault
    /// weather, run through the recovery ladder.
    FarmFaults,
    /// Two clients in a closed loop against an in-process daemon.
    ServeSteady,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] =
        [Workload::FarmBulk, Workload::FarmFine, Workload::FarmFaults, Workload::ServeSteady];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FarmBulk => "farm-bulk",
            Workload::FarmFine => "farm-fine",
            Workload::FarmFaults => "farm-faults",
            Workload::ServeSteady => "serve-steady",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full-size workloads, or the reduced ones the smoke test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Small lattices that run in well under a second.
    Smoke,
}

/// Client connections (and so sessions) of serve-steady: one per core
/// of the 2-core reference box.
pub const SERVE_CLIENTS: usize = 2;

/// Generations per serve-steady `step` request.
pub const SERVE_STEP_GENS: u64 = 4;

/// Every this-many requests of a serve-steady client is a region query.
pub const SERVE_QUERY_EVERY: u64 = 10;

/// Seed of farm-faults' fault plan. The weather is part of the workload,
/// not of its seeded inputs: the ladder's actions do not depend on the
/// lattice, so every `--seed` replays the same 73 detections (59 ARQ
/// retransmits, 12 local and 2 global rollbacks, no retirement) and
/// runs compare like with like.
pub const FAULT_WEATHER_SEED: u64 = 5;

/// One workload's machine: the lattice, rule and farm of its spec, plus
/// how its timed step drives them.
pub struct Machine {
    /// The session spec the machine is built from.
    pub spec: SessionSpec,
    /// The spec's collision rule.
    pub rule: GasRule,
    /// The spec's board farm.
    pub farm: LatticeFarm,
    /// The generation-0 lattice.
    pub grid: Grid<u8>,
    /// Generations one timed step advances.
    pub gens: u64,
    /// Every step restarts from generation 0 (the confined gas of
    /// farm-faults would otherwise reach the null edge).
    pub restart: bool,
    /// The spec's fault plan, if it has one.
    pub plan: Option<Arc<FaultPlan>>,
    /// Recovery-ladder budgets.
    pub cfg: FarmRecoveryConfig,
    /// The exact conservation audit of the spec's gas.
    pub audit: ConservationAudit,
}

/// What one farm step produced.
#[derive(Debug, Clone)]
pub struct Stepped {
    /// The lattice after the step.
    pub grid: Grid<u8>,
    /// `FarmReport::machine_ticks` of the step.
    pub machine_ticks: u64,
    /// What the recovery ladder did (all zero for `LatticeFarm::run`).
    pub recovery: RecoveryStats,
}

/// The session spec of `workload`'s machine at `size`, seeded by `seed`.
pub fn spec(workload: Workload, size: Size, seed: u64) -> SessionSpec {
    let small = size == Size::Smoke;
    let base =
        SessionSpec { seed, shards: 2, engine: "wsa".into(), width: 2, ..SessionSpec::default() };
    match workload {
        Workload::FarmBulk => SessionSpec {
            model: "hpp".into(),
            rows: if small { 32 } else { 1024 },
            cols: if small { 64 } else { 1024 },
            depth: 4,
            periodic: true,
            ..base
        },
        Workload::FarmFine => SessionSpec {
            model: "fhp1".into(),
            rows: if small { 32 } else { 256 },
            cols: if small { 64 } else { 512 },
            depth: 1,
            periodic: true,
            grid: Some((2, 1)),
            link_bits: Some(16.0),
            tier_bits: Some(16.0),
            ..base
        },
        Workload::FarmFaults => SessionSpec {
            model: "hpp".into(),
            rows: if small { 48 } else { 256 },
            cols: if small { 48 } else { 256 },
            depth: 2,
            link_bits: Some(16.0),
            fault: Some(FaultSpec {
                seed: Some(FAULT_WEATHER_SEED),
                link_rate: if small { 1e-2 } else { 1.5e-3 },
                max_retries: 3,
                max_retired: 1,
                ..FaultSpec::default()
            }),
            ..base
        },
        Workload::ServeSteady => SessionSpec {
            model: "hpp".into(),
            rows: if small { 16 } else { 64 },
            cols: if small { 32 } else { 128 },
            depth: 2,
            periodic: true,
            ..base
        },
    }
}

/// Generations per timed step, and the confinement margin of
/// farm-faults (more empty sites than generations, so the gas never
/// reaches the null edge and conservation stays exact).
fn step_shape(workload: Workload, size: Size) -> (u64, Option<usize>) {
    let small = size == Size::Smoke;
    match workload {
        Workload::FarmBulk => (4, None),
        Workload::FarmFine => (8, None),
        Workload::FarmFaults => {
            if small {
                (16, Some(17))
            } else {
                (48, Some(64))
            }
        }
        Workload::ServeSteady => (SERVE_STEP_GENS, None),
    }
}

impl Machine {
    /// Builds `workload`'s machine from its spec.
    pub fn build(workload: Workload, size: Size, seed: u64) -> Result<Machine, LatticeError> {
        let spec = spec(workload, size, seed);
        let (gens, margin) = step_shape(workload, size);
        let rule = GasRule::from_spec(&spec)?;
        let farm = build_farm(&spec)?;
        let mut grid = seed_grid(&spec)?;
        if let Some(m) = margin {
            let (rows, cols) = (spec.rows, spec.cols);
            grid.map_in_place(|c: Coord, s| {
                let inside =
                    c.row() >= m && c.row() + m < rows && c.col() >= m && c.col() + m < cols;
                if inside {
                    s
                } else {
                    0
                }
            });
        }
        let plan = fault_plan(&spec, &farm)?;
        let cfg = FarmRecoveryConfig {
            checkpoint_every: if plan.is_some() { 2 } else { 1 },
            ..recovery_config(&spec)
        };
        let audit = ConservationAudit::new(rule.model(), AuditMode::Exact);
        Ok(Machine { spec, rule, farm, grid, gens, restart: margin.is_some(), plan, cfg, audit })
    }

    /// Lattice sites.
    pub fn sites(&self) -> u64 {
        self.grid.len() as u64
    }
}

/// farm-bulk's entry point: one `LatticeFarm::run` call.
pub fn drive_farm_bulk(m: &Machine, grid: &Grid<u8>, t0: u64) -> Result<Stepped, LatticeError> {
    let report = with_rule!(&m.rule, r => m.farm.run(r, grid, t0, m.gens))?;
    Ok(Stepped {
        machine_ticks: report.machine_ticks().get(),
        grid: report.machine.grid,
        recovery: RecoveryStats::default(),
    })
}

/// farm-fine's entry point: one `LatticeFarm::run` call.
pub fn drive_farm_fine(m: &Machine, grid: &Grid<u8>, t0: u64) -> Result<Stepped, LatticeError> {
    let report = with_rule!(&m.rule, r => m.farm.run(r, grid, t0, m.gens))?;
    Ok(Stepped {
        machine_ticks: report.machine_ticks().get(),
        grid: report.machine.grid,
        recovery: RecoveryStats::default(),
    })
}

/// farm-faults' entry point: one `LatticeFarm::run_with_recovery` call
/// under the spec's fault plan and the exact conservation audit.
pub fn drive_farm_faults(m: &Machine, grid: &Grid<u8>, t0: u64) -> Result<Stepped, LatticeError> {
    let audit = m.audit;
    let plan = m.plan.as_deref();
    let ft = with_rule!(&m.rule, r => m.farm.run_with_recovery(
        r, grid, t0, m.gens, plan, &m.cfg, |before, after| audit.check(before, after)
    ))?;
    Ok(Stepped {
        machine_ticks: ft.report.machine_ticks().get(),
        grid: ft.report.machine.grid,
        recovery: ft.recovery,
    })
}

/// serve-steady's entry point: one `step` request over the wire.
pub fn drive_serve_steady(
    client: &mut Client,
    session: &str,
    id: String,
) -> Result<Response, LatticeError> {
    let req = Request::Step { session: session.to_string(), n: SERVE_STEP_GENS, id: Some(id) };
    call(client, &req)
}

/// Sends `req` and decodes the reply; a daemon error frame is an `Err`.
pub fn call(client: &mut Client, req: &Request) -> Result<Response, LatticeError> {
    let line = client.call(&req.to_line())?;
    match Response::from_line(&line) {
        Ok(Response::Error { message }) => Err(LatticeError::InvalidConfig(message)),
        Ok(resp) => Ok(resp),
        Err(e) => Err(LatticeError::InvalidConfig(e.to_string())),
    }
}
