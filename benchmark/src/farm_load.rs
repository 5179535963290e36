//! The farm workloads' timed loop and correctness checks.
//!
//! A run repeats the workload's step until the time budget is spent:
//! farm-bulk and farm-fine continue one trajectory call after call,
//! farm-faults replays the same confined run each time. The first
//! step is a warm-up and is not timed.

use crate::machine::with_rule;
use crate::machine::{
    drive_farm_bulk, drive_farm_faults, drive_farm_fine, Machine, Stepped, Workload,
};
use crate::stats::timed;
use crate::trace::Tracer;
use crate::{tampered, Tally};
use lattice_engines::core::{evolve, Boundary, Grid, LatticeError};
use lattice_engines::gas::bitparallel::HppBitLattice;
use lattice_engines::gas::observe::Model;
use lattice_engines::gas::Observables;
use std::time::Instant;

/// Timed steps a run takes at least, however long they are.
pub const MIN_STEPS: usize = 3;

/// One timed step.
#[derive(Debug, Clone, Copy)]
pub struct StepSample {
    /// Wall seconds of the entry-point call.
    pub secs: f64,
    /// Whether spans were recorded during it.
    pub traced: bool,
}

/// What a farm workload run measured.
#[derive(Debug, Clone)]
pub struct FarmRun {
    /// Timed steps (the warm-up excluded).
    pub steps: Vec<StepSample>,
    /// Machine ticks of one step.
    pub model_ticks: u64,
}

type Drive = fn(&Machine, &Grid<u8>, u64) -> Result<Stepped, LatticeError>;

/// The HPP lattice `gens` generations after `grid`, from the bit-plane
/// kernel. On a torus this is the farm's exact result; on a null
/// boundary it is exact while the gas stays clear of the edge.
fn hpp_reference(grid: &Grid<u8>, gens: u64) -> Result<Grid<u8>, LatticeError> {
    let mut bits = HppBitLattice::from_grid(grid)?;
    bits.run(gens);
    Ok(bits.to_grid())
}

/// Runs `workload` (a farm workload) on `m` for `seconds`, calling
/// `between` after every step, outside its timing. When the tracer is
/// recording, only every other timed step is traced, so the run can
/// compare traced and untraced steps.
pub fn run(
    workload: Workload,
    m: &Machine,
    seconds: f64,
    tamper: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
    between: &mut dyn FnMut() -> Result<(), LatticeError>,
) -> Result<FarmRun, LatticeError> {
    let drive: Drive = match workload {
        Workload::FarmBulk => drive_farm_bulk,
        Workload::FarmFine => drive_farm_fine,
        Workload::FarmFaults => drive_farm_faults,
        Workload::ServeSteady => {
            return Err(LatticeError::InvalidConfig("serve-steady is not a farm workload".into()))
        }
    };
    // farm-fine's conservation check compares against the start lattice.
    let initial = Observables::measure(&m.grid, Model::Fhp);
    let step_reference = if m.restart { Some(hpp_reference(&m.grid, m.gens)?) } else { None };
    let mut grid = m.grid.clone();
    let mut t = 0u64;
    let mut first: Option<Stepped> = None;
    let mut steps = Vec::new();
    let mut start = Instant::now();
    let mut failed = 0u64;
    let mut i = 0u64;
    let tracing = tracer.recording();
    loop {
        let traced = tracing && i % 2 == 1;
        tracer.set_recording(traced);
        let (input, t0) = if m.restart { (&m.grid, 0) } else { (&grid, t) };
        let (out, secs) = tracer.span("farm.step", Some(i), |_| timed(|| drive(m, input, t0)));
        tracer.set_recording(tracing);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{}: step {i} failed: {e}", workload.name());
                failed += 1;
                i += 1;
                break;
            }
        };
        let ok = match workload {
            // Conservation is checked on every step, bit-exactness on
            // the first one below.
            Workload::FarmFine => {
                let obs = Observables::measure(&tampered(&out.grid, tamper), Model::Fhp);
                obs.mass == initial.mass && obs.momentum == initial.momentum
            }
            Workload::FarmFaults => {
                step_reference.as_ref() == Some(&*tampered(&out.grid, tamper))
                    && out.recovery.boards_retired == 0
            }
            // farm-bulk is one trajectory, checked at its end.
            _ => true,
        };
        // Ticks and recovery counts are deterministic: every step of a
        // run must repeat the first one's.
        let same = first
            .as_ref()
            .is_none_or(|f| f.machine_ticks == out.machine_ticks && f.recovery == out.recovery);
        if !(ok && same) {
            failed += 1;
        }
        if i == 0 {
            start = Instant::now();
        } else {
            steps.push(StepSample { secs, traced });
        }
        i += 1;
        if !m.restart {
            t += m.gens;
            grid = out.grid.clone();
        }
        first.get_or_insert(out);
        between()?;
        if steps.len() >= MIN_STEPS && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let first = first.ok_or_else(|| LatticeError::InvalidConfig("no step completed".into()))?;
    // One trajectory: a wrong final lattice makes every step of it wrong.
    let trajectory_ok = match workload {
        Workload::FarmBulk => *tampered(&grid, tamper) == hpp_reference(&m.grid, t)?,
        Workload::FarmFine => {
            let exact = with_rule!(&m.rule, r => evolve(&m.grid, r, Boundary::Periodic, 0, m.gens));
            *tampered(&first.grid, tamper) == exact
        }
        _ => true,
    };
    tally.attempted += i;
    tally.failed += if trajectory_ok { failed } else { i };
    Ok(FarmRun { steps, model_ticks: first.machine_ticks })
}
