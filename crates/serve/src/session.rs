//! From a [`SessionSpec`] to a running machine: validation, grid
//! seeding, farm construction, rule dispatch, and the scheduler's
//! cost function.
//!
//! Everything here mirrors `lattice farm` exactly — the daemon's
//! bit-exactness contract ("a daemon session equals the CLI run of
//! the same spec") holds because both sides call the same
//! constructors with the same arguments.

use crate::protocol::SessionSpec;
use lattice_core::units::BitsPerTick;
use lattice_core::{Grid, LatticeError, Shape};
use lattice_engines_sim::{Component, Fault, FaultKind, FaultPlan};
use lattice_farm::{
    partition2d_checked, BoardLink, FarmDegradeConfig, FarmRecoveryConfig, FarmSession,
    LatticeFarm, ShardEngine, WorkerFault, WorkerFaultSpec,
};
use lattice_gas::init;
use lattice_gas::observe::Model;
use lattice_gas::{FhpRule, FhpVariant, HppRule};
use lattice_vlsi::{FarmModel, Technology};
use std::sync::Arc;
use std::time::Duration;

fn bad(msg: String) -> LatticeError {
    LatticeError::InvalidConfig(msg)
}

/// The spec's gas model, split into its collision rule and variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GasModel {
    Hpp,
    Fhp(FhpVariant),
}

fn gas_model(spec: &SessionSpec) -> Result<GasModel, LatticeError> {
    match spec.model.as_str() {
        "hpp" => Ok(GasModel::Hpp),
        "fhp1" => Ok(GasModel::Fhp(FhpVariant::I)),
        "fhp2" => Ok(GasModel::Fhp(FhpVariant::II)),
        "fhp3" => Ok(GasModel::Fhp(FhpVariant::III)),
        other => Err(bad(format!("unknown gas model `{other}` (hpp, fhp1, fhp2, fhp3)"))),
    }
}

/// Checks every field of a spec before any machinery is built, so a
/// bad create fails with one clear message instead of a partial
/// construction.
pub fn validate_spec(spec: &SessionSpec) -> Result<(), LatticeError> {
    gas_model(spec)?;
    if spec.rows == 0 || spec.cols == 0 {
        return Err(bad("rows and cols must be ≥ 1".into()));
    }
    if spec.shards == 0 || spec.shards > spec.cols {
        return Err(bad(format!(
            "shards must be in 1..={} for a {}-column lattice",
            spec.cols, spec.cols
        )));
    }
    match spec.engine.as_str() {
        "wsa" => {
            if spec.width == 0 || u32::try_from(spec.width).is_err() {
                return Err(bad("wsa width must be ≥ 1 (and fit in u32)".into()));
            }
        }
        "spa" => {
            if spec.slice_width == 0 {
                return Err(bad("spa slice_width must be ≥ 1".into()));
            }
        }
        other => return Err(bad(format!("unknown farm engine `{other}` (wsa, spa)"))),
    }
    if spec.depth == 0 {
        return Err(bad("depth must be ≥ 1".into()));
    }
    if !(0.0..=1.0).contains(&spec.density) {
        return Err(bad("density must be in [0, 1]".into()));
    }
    if let Some(bits) = spec.link_bits {
        if !bits.is_finite() || bits <= 0.0 {
            return Err(bad("link_bits must be positive and finite".into()));
        }
    }
    if let Some((gr, gc)) = spec.grid {
        if gr == 0 || gc == 0 {
            return Err(bad("grid axes must be ≥ 1".into()));
        }
        if gr * gc != spec.shards {
            return Err(bad(format!(
                "grid {gr}×{gc} disagrees with the shard count {}",
                spec.shards
            )));
        }
        if gr > spec.rows {
            return Err(bad(format!("grid rows must be ≤ {} lattice rows", spec.rows)));
        }
    }
    if let Some(bits) = spec.tier_bits {
        if !bits.is_finite() || bits <= 0.0 {
            return Err(bad("tier_bits must be positive and finite".into()));
        }
        if spec.grid.is_none() {
            return Err(bad("tier_bits needs a grid: the inter-rack tier is idle on \
                            columnar layouts"
                .into()));
        }
    }
    // The layout must be one the farm can run: this is the partition
    // `build_farm`'s farm and `link_demand`'s model both cut.
    let (gr, gc) = spec.grid.unwrap_or((1, spec.shards));
    partition2d_checked(spec.rows, spec.cols, gr, gc, spec.depth, spec.periodic)?;
    validate_fault(spec)
}

/// Checks the fault block against the machine geometry.
fn validate_fault(spec: &SessionSpec) -> Result<(), LatticeError> {
    let Some(f) = &spec.fault else { return Ok(()) };
    if !(0.0..=1.0).contains(&f.link_rate) {
        return Err(bad("fault.link_rate must be in [0, 1]".into()));
    }
    if let Some(b) = f.stuck_link {
        if b >= spec.shards {
            return Err(bad(format!(
                "fault.stuck_link board {b} out of range for {} shard(s)",
                spec.shards
            )));
        }
    }
    if f.max_retired >= spec.shards {
        return Err(bad("fault.max_retired must leave at least one board".into()));
    }
    match f.fail_kind.as_str() {
        "die" | "hang" => {}
        other => return Err(bad(format!("unknown fault.fail_kind `{other}` (die, hang)"))),
    }
    if f.fail_pass.is_some() && f.fail_board >= spec.shards {
        return Err(bad(format!(
            "fault.fail_board {} out of range for {} shard(s)",
            f.fail_board, spec.shards
        )));
    }
    if f.fail_kind == "hang" && f.fail_pass.is_some() && f.watchdog_ms.is_none() {
        return Err(bad(
            "fault.fail_kind `hang` needs fault.watchdog_ms, or the stall is waited out".into(),
        ));
    }
    Ok(())
}

/// Builds the owned fault plan a spec's sessions run under: a seeded
/// transient bit-flip stream on every board's halo link, plus an
/// optional stuck-at link fault pinned to one board's physical chip
/// id. Returns `None` when the spec is fault-free (no block, or a
/// block with no weather in it).
pub fn fault_plan(
    spec: &SessionSpec,
    farm: &LatticeFarm,
) -> Result<Option<Arc<FaultPlan>>, LatticeError> {
    let Some(f) = &spec.fault else { return Ok(None) };
    let mut plan = FaultPlan::new(f.seed.unwrap_or(spec.seed));
    let mut armed = false;
    if f.link_rate > 0.0 {
        // One transient fault per board, pinned to that board's halo
        // link chip. The halo links are the ARQ-protected tier; a
        // bare `chip: None` would also afflict the intra-board engine
        // links, whose parity failures are local-rollback events and
        // would swamp the ladder at any interesting rate.
        for b in 0..spec.shards {
            let chip = farm.link_chip(spec.rows, spec.cols, f.max_retired, b)?;
            plan.push(Fault {
                component: Component::Link,
                chip: Some(chip),
                cell: None,
                kind: FaultKind::Transient { bit: 1, rate: f.link_rate },
            });
        }
        armed = true;
    }
    if let Some(b) = f.stuck_link {
        let chip = farm.link_chip(spec.rows, spec.cols, f.max_retired, b)?;
        plan.push(Fault {
            component: Component::Link,
            chip: Some(chip),
            cell: None,
            kind: FaultKind::StuckAt { bit: 0, value: true },
        });
        armed = true;
    }
    Ok(if armed { Some(Arc::new(plan)) } else { None })
}

/// The recovery-ladder budgets a spec's sessions step under — the
/// farm defaults when the spec has no fault block.
pub fn recovery_config(spec: &SessionSpec) -> FarmRecoveryConfig {
    let Some(f) = &spec.fault else { return FarmRecoveryConfig::default() };
    FarmRecoveryConfig {
        max_retries: f.max_retries,
        arq_retries: f.arq_retries,
        local_retries: f.local_retries,
        watchdog: f.watchdog_ms.map(Duration::from_millis),
        degrade: (f.max_retired > 0).then_some(FarmDegradeConfig { max_retired: f.max_retired }),
        ..FarmRecoveryConfig::default()
    }
}

/// The collision rule a spec's sessions run — model, variant, seed,
/// and (for FHP on the torus) wrap geometry all baked in at creation,
/// so a restored session rebuilds the identical rule.
#[derive(Debug, Clone)]
pub enum GasRule {
    /// The 4-channel HPP gas.
    Hpp(HppRule),
    /// The 6/7-bit FHP gas, any variant.
    Fhp(FhpRule),
}

impl GasRule {
    /// Builds the rule a spec describes (validated spec assumed).
    pub fn from_spec(spec: &SessionSpec) -> Result<GasRule, LatticeError> {
        Ok(match gas_model(spec)? {
            GasModel::Hpp => GasRule::Hpp(HppRule::new()),
            GasModel::Fhp(variant) => {
                let mut rule = FhpRule::new(variant, spec.seed);
                if spec.periodic {
                    rule = rule.with_wrap(spec.rows, spec.cols);
                }
                GasRule::Fhp(rule)
            }
        })
    }

    /// The observables model this rule evolves.
    pub fn model(&self) -> Model {
        match self {
            GasRule::Hpp(_) => Model::Hpp,
            GasRule::Fhp(_) => Model::Fhp,
        }
    }

    /// Advances a session `n` generations under this rule.
    pub fn step(&self, session: &mut FarmSession<'static, u8>, n: u64) -> Result<(), LatticeError> {
        match self {
            GasRule::Hpp(rule) => session.step(rule, n),
            GasRule::Fhp(rule) => session.step(rule, n),
        }
    }
}

/// Seeds the generation-0 lattice a spec describes — the same
/// `init::random_*` call `lattice farm` makes, so generation 0 is
/// byte-identical between daemon and CLI.
pub fn seed_grid(spec: &SessionSpec) -> Result<Grid<u8>, LatticeError> {
    let shape = Shape::grid2(spec.rows, spec.cols)?;
    match gas_model(spec)? {
        GasModel::Hpp => init::random_hpp(shape, spec.density, spec.seed),
        GasModel::Fhp(variant) => {
            init::random_fhp(shape, variant, spec.density, spec.seed, spec.periodic)
        }
    }
}

/// Builds the board farm a spec describes.
pub fn build_farm(spec: &SessionSpec) -> Result<LatticeFarm, LatticeError> {
    validate_spec(spec)?;
    let engine = match spec.engine.as_str() {
        "wsa" => ShardEngine::Wsa { width: spec.width },
        _ => ShardEngine::Spa { slice_width: spec.slice_width },
    };
    let mut farm = LatticeFarm::new(spec.shards, engine, spec.depth)
        .with_periodic(spec.periodic)
        .with_overlap(spec.overlap);
    if let Some((gr, gc)) = spec.grid {
        farm = farm.with_grid(gr, gc);
    }
    if let Some(bits) = spec.link_bits {
        farm = farm.with_link(BoardLink::new(bits));
    }
    if let Some(bits) = spec.tier_bits {
        farm = farm.with_tier_link(BoardLink::new(bits));
    }
    if let Some(f) = &spec.fault {
        if let Some(pass) = f.fail_pass {
            let fault = match f.fail_kind.as_str() {
                "hang" => WorkerFault::Hang { millis: f.hang_ms },
                _ => WorkerFault::Die,
            };
            farm = farm.with_worker_fault(WorkerFaultSpec {
                board: f.fail_board,
                pass,
                attempt: 0,
                fault,
            });
        }
    }
    Ok(farm)
}

/// The scheduler's cost function: the sustained inter-board bandwidth
/// a session will demand, predicted by its [`farm_model`] *before* the
/// session runs a single pass.
pub fn link_demand(spec: &SessionSpec) -> Result<BitsPerTick, LatticeError> {
    // A session is charged its *binding* tier: the wire whose transfer
    // paces the exchange barrier (always the intra tier on one row).
    Ok(farm_model(spec)?.binding_link_demand(spec.grid.unwrap_or((1, spec.shards))))
}

/// The `lattice-vlsi` [`FarmModel`] of the machine a spec describes,
/// at the paper's 3µ-CMOS technology point. SPA boards are modelled
/// as WSA boards with the same PE count — halo volume depends only on
/// geometry (`rows`, `depth`, boundary), and the per-pass compute time
/// the demand is amortized over is close enough for admission
/// purposes.
pub fn farm_model(spec: &SessionSpec) -> Result<FarmModel, LatticeError> {
    validate_spec(spec)?;
    let p = match spec.engine.as_str() {
        "wsa" => u32::try_from(spec.width).map_err(|_| bad("width must fit in u32".into()))?,
        _ => u32::try_from(spec.slice_width)
            .map_err(|_| bad("slice_width must fit in u32".into()))?,
    };
    let mut model = FarmModel::new(Technology::paper_1987(), spec.rows, spec.cols, p, spec.depth)
        .with_periodic(spec.periodic)
        .with_overlap(spec.overlap);
    if let Some(bits) = spec.link_bits {
        model = model.with_link(BitsPerTick::new(bits));
    }
    if let Some(bits) = spec.tier_bits {
        model = model.with_tier_link(BitsPerTick::new(bits));
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SessionSpec;
    use lattice_core::evolve;
    use lattice_core::Boundary;
    use lattice_farm::FarmRecoveryConfig;

    type SpecMutation = Box<dyn Fn(&mut SessionSpec)>;

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let cases: [(&str, SpecMutation); 10] = [
            ("model", Box::new(|s| s.model = "fhp9".into())),
            ("rows", Box::new(|s| s.rows = 0)),
            ("cols", Box::new(|s| s.cols = 0)),
            ("shards", Box::new(|s| s.shards = 0)),
            ("shards>cols", Box::new(|s| s.shards = s.cols + 1)),
            ("engine", Box::new(|s| s.engine = "gpu".into())),
            ("density", Box::new(|s| s.density = 1.5)),
            ("link_bits", Box::new(|s| s.link_bits = Some(0.0))),
            (
                "torus slabs narrower than the depth",
                Box::new(|s| {
                    (s.periodic, s.cols, s.shards, s.depth) = (true, 8, 4, 3);
                }),
            ),
            (
                "torus blocks shorter than the depth",
                Box::new(|s| {
                    (s.periodic, s.rows, s.cols, s.depth) = (true, 10, 24, 3);
                    (s.grid, s.shards) = (Some((4, 2)), 8);
                }),
            ),
        ];
        for (what, mutate) in cases {
            let mut spec = SessionSpec::default();
            mutate(&mut spec);
            assert!(validate_spec(&spec).is_err(), "{what} should be rejected");
        }
        assert!(validate_spec(&SessionSpec::default()).is_ok());
    }

    #[test]
    fn a_session_from_a_spec_matches_the_single_engine_reference() {
        // The daemon's bit-exactness contract in miniature: spec →
        // seed_grid + build_farm + GasRule, stepped in uneven chunks,
        // equals `evolve` on the same rule and boundary.
        for (model, periodic) in [("hpp", false), ("fhp1", false), ("fhp2", true), ("fhp3", true)] {
            let spec = SessionSpec {
                model: model.into(),
                rows: 12,
                cols: 30,
                shards: 3,
                periodic,
                ..SessionSpec::default()
            };
            let grid = seed_grid(&spec).unwrap();
            let farm = build_farm(&spec).unwrap();
            let rule = GasRule::from_spec(&spec).unwrap();
            let mut session = farm
                .session_owned::<u8>(&grid, 0, None, &FarmRecoveryConfig::default(), None)
                .unwrap();
            for chunk in [1u64, 3, 2, 4] {
                rule.step(&mut session, chunk).unwrap();
            }
            assert_eq!(session.time(), 10);
            let boundary = if periodic { Boundary::Periodic } else { Boundary::null() };
            let reference = match &rule {
                GasRule::Hpp(r) => evolve(&grid, r, boundary, 0, 10),
                GasRule::Fhp(r) => evolve(&grid, r, boundary, 0, 10),
            };
            assert_eq!(session.grid().unwrap(), &reference, "{model} periodic={periodic}");
        }
    }

    #[test]
    fn links_too_slow_to_count_are_refused() {
        // Not finite: rejected before any machinery is built.
        for bits in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let link = SessionSpec { link_bits: Some(bits), ..SessionSpec::default() };
            let tier = SessionSpec {
                shards: 2,
                grid: Some((2, 1)),
                tier_bits: Some(bits),
                ..SessionSpec::default()
            };
            for (what, spec) in [("link_bits", link), ("tier_bits", tier)] {
                let err = validate_spec(&spec).unwrap_err();
                assert!(matches!(err, LatticeError::InvalidConfig(_)), "{what} = {bits}: {err}");
                assert!(err.to_string().contains(what), "{err}");
            }
        }
        // Finite, but one pass waits past `u64::MAX` ticks on the link:
        // the step is refused instead of wrapping the machine's ticks.
        let spec = SessionSpec { link_bits: Some(1e-300), ..SessionSpec::default() };
        let grid = seed_grid(&spec).unwrap();
        let farm = build_farm(&spec).unwrap();
        let rule = GasRule::from_spec(&spec).unwrap();
        let mut session =
            farm.session_owned::<u8>(&grid, 0, None, &FarmRecoveryConfig::default(), None).unwrap();
        let err = rule.step(&mut session, 4).unwrap_err();
        assert!(matches!(err, LatticeError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn link_demand_is_positive_finite_and_monotone_in_rows() {
        let small = SessionSpec { rows: 32, ..SessionSpec::default() };
        let large = SessionSpec { rows: 256, ..SessionSpec::default() };
        let d_small = link_demand(&small).unwrap();
        let d_large = link_demand(&large).unwrap();
        assert!(d_small.get() > 0.0 && d_small.is_finite());
        // More rows → more halo sites per column exchange → more
        // demand per compute tick? No: more rows also means more
        // compute per pass. The model decides; we only pin that the
        // cost function is usable as an admission key for both.
        assert!(d_large.get() > 0.0 && d_large.is_finite());
        // SPA is charged like WSA at the same PE count.
        let spa = SessionSpec { engine: "spa".into(), slice_width: 2, ..SessionSpec::default() };
        let wsa = SessionSpec { width: 2, ..SessionSpec::default() };
        assert_eq!(link_demand(&spa).unwrap(), link_demand(&wsa).unwrap());
    }

    #[test]
    fn a_shard_count_is_charged_exactly_like_its_single_row_grid() {
        // `shards: S` with no grid means the board grid (1, S): admission
        // must price both spellings identically, throttled or not.
        for shards in [1usize, 2, 4] {
            for periodic in [false, true] {
                for overlap in [false, true] {
                    for link_bits in [None, Some(3.5)] {
                        let columnar = SessionSpec {
                            shards,
                            periodic,
                            overlap,
                            link_bits,
                            ..SessionSpec::default()
                        };
                        let grid = SessionSpec { grid: Some((1, shards)), ..columnar.clone() };
                        assert_eq!(
                            link_demand(&columnar).unwrap(),
                            link_demand(&grid).unwrap(),
                            "S={shards} periodic={periodic} overlap={overlap} link={link_bits:?}"
                        );
                    }
                }
            }
        }
    }
}
