//! Workload generators: initial lattice states for experiments.
//!
//! These produce the initial conditions the paper's engines would be fed
//! by the host: random equilibrium gases at a chosen density, directed
//! flows, and classic obstacle scenes (channel with a flat plate — the
//! scenario used to demonstrate vortex shedding in early FHP work).

use crate::fhp::{FhpVariant, FHP_MOVE_MASK, REST_BIT};
use crate::gas1d::GAS1D_MASK;
use crate::gas3d::GAS3D_MASK;
use crate::hpp::HPP_MASK;
use crate::{fhp::FhpDir, OBSTACLE_BIT};
use lattice_core::{Coord, Grid, LatticeError, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Refuses a `name`d probability outside `[0, 1]` (NaN included).
fn check_probability(name: &str, p: f64) -> Result<(), LatticeError> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(LatticeError::InvalidConfig(format!("{name} must be in [0, 1], got {p}")))
    }
}

/// Fills each particle channel of each site independently with
/// probability `density` (the per-channel occupation); a density
/// outside `[0, 1]` is refused.
fn random_mask_grid(
    shape: Shape,
    mask: u8,
    density: f64,
    seed: u64,
) -> Result<Grid<u8>, LatticeError> {
    check_probability("density", density)?;
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(Grid::from_fn(shape, |_| {
        let mut s = 0u8;
        for b in 0..8 {
            if mask & (1 << b) != 0 && rng.gen_bool(density) {
                s |= 1 << b;
            }
        }
        s
    }))
}

/// Random HPP gas at per-channel density `density`.
pub fn random_hpp(shape: Shape, density: f64, seed: u64) -> Result<Grid<u8>, LatticeError> {
    if shape.rank() != 2 {
        return Err(LatticeError::BadRank { rank: shape.rank() });
    }
    random_mask_grid(shape, HPP_MASK, density, seed)
}

/// Random FHP gas at per-channel density `density`.
///
/// Errors if `shape` is not 2-D. For use under periodic boundaries the
/// row count must be even (hex parity; see [`crate::fhp`]); this
/// constructor enforces that whenever `periodic` is set.
pub fn random_fhp(
    shape: Shape,
    variant: FhpVariant,
    density: f64,
    seed: u64,
    periodic: bool,
) -> Result<Grid<u8>, LatticeError> {
    if shape.rank() != 2 {
        return Err(LatticeError::BadRank { rank: shape.rank() });
    }
    if periodic && !shape.rows().is_multiple_of(2) {
        return Err(LatticeError::InvalidConfig(format!(
            "periodic FHP lattices need an even row count, got {}",
            shape.rows()
        )));
    }
    let mask = match variant {
        FhpVariant::I => FHP_MOVE_MASK,
        FhpVariant::II | FhpVariant::III => FHP_MOVE_MASK | REST_BIT,
    };
    random_mask_grid(shape, mask, density, seed)
}

/// Random 1-D gas on a line.
pub fn random_gas1d(n: usize, density: f64, seed: u64) -> Result<Grid<u8>, LatticeError> {
    random_mask_grid(Shape::line(n)?, GAS1D_MASK, density, seed)
}

/// Random 3-D gas in a box.
pub fn random_gas3d(
    depth: usize,
    rows: usize,
    cols: usize,
    density: f64,
    seed: u64,
) -> Result<Grid<u8>, LatticeError> {
    random_mask_grid(Shape::grid3(depth, rows, cols)?, GAS3D_MASK, density, seed)
}

/// A directed FHP flow: background gas at `density` everywhere, with the
/// eastward channel additionally filled with probability `drive` — a
/// crude but standard way to impose bulk momentum.
pub fn fhp_wind(
    shape: Shape,
    variant: FhpVariant,
    density: f64,
    drive: f64,
    seed: u64,
    periodic: bool,
) -> Result<Grid<u8>, LatticeError> {
    check_probability("drive", drive)?;
    let base = random_fhp(shape, variant, density, seed, periodic)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00ff_00ff_00ff_00ff);
    Ok(Grid::from_fn(shape, |c| {
        let s = base.get(c);
        if rng.gen_bool(drive) {
            s | FhpDir::E.bit()
        } else {
            s
        }
    }))
}

/// Marks every site satisfying `pred` as an obstacle (clearing its gas
/// bits, since particles may not sit inside walls).
pub fn add_obstacles(grid: &mut Grid<u8>, pred: impl Fn(Coord) -> bool) {
    grid.map_in_place(|c, s| if pred(c) { OBSTACLE_BIT } else { s });
}

/// The classic flow-past-a-plate scene: a channel with solid top and
/// bottom walls and a vertical flat plate at `plate_col`, spanning the
/// middle `plate_frac` of the channel height.
///
/// Returns the lattice with obstacles carved and gas elsewhere.
#[allow(clippy::too_many_arguments)] // a scene description, not an API to thread
pub fn channel_with_plate(
    rows: usize,
    cols: usize,
    variant: FhpVariant,
    density: f64,
    drive: f64,
    plate_col: usize,
    plate_frac: f64,
    seed: u64,
) -> Result<Grid<u8>, LatticeError> {
    let shape = Shape::grid2(rows, cols)?;
    if plate_col >= cols {
        return Err(LatticeError::OutOfBounds { index: plate_col, len: cols });
    }
    let mut g = fhp_wind(shape, variant, density, drive, seed, false)?;
    let half_span = ((rows as f64 * plate_frac) / 2.0).round() as usize;
    let mid = rows / 2;
    add_obstacles(&mut g, |c| {
        let r = c.row();
        // Channel walls.
        r == 0 || r == rows - 1
            // The plate.
            || (c.col() == plate_col && r.abs_diff(mid) <= half_span)
    });
    Ok(g)
}

/// An HPP density step: left half at `high`, right half at `low` —
/// produces a sound (density) wave when evolved, a classic HPP check.
pub fn hpp_density_step(
    rows: usize,
    cols: usize,
    high: f64,
    low: f64,
    seed: u64,
) -> Result<Grid<u8>, LatticeError> {
    let shape = Shape::grid2(rows, cols)?;
    let left = random_mask_grid(shape, HPP_MASK, high, seed)?;
    let right = random_mask_grid(shape, HPP_MASK, low, seed.wrapping_add(1))?;
    Ok(Grid::from_fn(shape, |c| if c.col() < cols / 2 { left.get(c) } else { right.get(c) }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{Model, Observables};

    #[test]
    fn random_fhp_density_is_near_target() {
        let shape = Shape::grid2(64, 64).unwrap();
        let g = random_fhp(shape, FhpVariant::I, 0.3, 42, true).unwrap();
        let obs = Observables::measure(&g, Model::Fhp);
        // 6 channels/site at 0.3 → expect ≈ 1.8 particles/site.
        assert!((obs.density - 1.8).abs() < 0.1, "density {}", obs.density);
    }

    #[test]
    fn random_fhp_rejects_odd_periodic_rows() {
        let shape = Shape::grid2(5, 8).unwrap();
        assert!(random_fhp(shape, FhpVariant::I, 0.2, 1, true).is_err());
        assert!(random_fhp(shape, FhpVariant::I, 0.2, 1, false).is_ok());
    }

    #[test]
    fn random_fhp_rejects_non_2d() {
        let shape = Shape::line(10).unwrap();
        assert!(random_fhp(shape, FhpVariant::I, 0.2, 1, false).is_err());
        assert!(random_hpp(shape, 0.2, 1).is_err());
    }

    #[test]
    fn rest_channel_only_in_variant_2_plus() {
        let shape = Shape::grid2(16, 16).unwrap();
        let g1 = random_fhp(shape, FhpVariant::I, 0.9, 7, false).unwrap();
        assert_eq!(g1.count(|s| s & REST_BIT != 0), 0);
        let g2 = random_fhp(shape, FhpVariant::II, 0.9, 7, false).unwrap();
        assert!(g2.count(|s| s & REST_BIT != 0) > 0);
    }

    #[test]
    fn wind_biases_momentum_east() {
        let shape = Shape::grid2(32, 32).unwrap();
        let g = fhp_wind(shape, FhpVariant::I, 0.2, 0.5, 3, true).unwrap();
        let obs = Observables::measure(&g, Model::Fhp);
        assert!(obs.momentum.0 > 0, "px = {}", obs.momentum.0);
    }

    #[test]
    fn channel_scene_has_walls_and_plate() {
        let g = channel_with_plate(20, 40, FhpVariant::I, 0.2, 0.3, 10, 0.5, 5).unwrap();
        // Walls.
        for c in 0..40 {
            assert!(crate::is_obstacle(g.get(Coord::c2(0, c))));
            assert!(crate::is_obstacle(g.get(Coord::c2(19, c))));
        }
        // Plate center.
        assert!(crate::is_obstacle(g.get(Coord::c2(10, 10))));
        // Fluid elsewhere.
        assert!(!crate::is_obstacle(g.get(Coord::c2(10, 30))));
        // No gas inside obstacles.
        for &s in g.as_slice() {
            if crate::is_obstacle(s) {
                assert_eq!(s, OBSTACLE_BIT);
            }
        }
    }

    #[test]
    fn channel_plate_out_of_range_errors() {
        assert!(channel_with_plate(10, 10, FhpVariant::I, 0.2, 0.3, 10, 0.5, 5).is_err());
    }

    #[test]
    fn density_step_has_gradient() {
        let g = hpp_density_step(32, 64, 0.8, 0.1, 9).unwrap();
        let left: u32 = (0..32 * 32)
            .map(|i| {
                let c = Coord::c2(i / 32, i % 32);
                (g.get(c) & HPP_MASK).count_ones()
            })
            .sum();
        let right: u32 = (0..32 * 32)
            .map(|i| {
                let c = Coord::c2(i / 32, 32 + i % 32);
                (g.get(c) & HPP_MASK).count_ones()
            })
            .sum();
        assert!(left > right * 3, "left {left}, right {right}");
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let shape = Shape::grid2(8, 8).unwrap();
        let a = random_fhp(shape, FhpVariant::III, 0.4, 99, false).unwrap();
        let b = random_fhp(shape, FhpVariant::III, 0.4, 99, false).unwrap();
        let c = random_fhp(shape, FhpVariant::III, 0.4, 100, false).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gas1d_and_gas3d_generators() {
        let g1 = random_gas1d(100, 0.5, 3).unwrap();
        assert_eq!(g1.shape().rank(), 1);
        assert!(g1.count(|s| s != 0) > 10);
        let g3 = random_gas3d(4, 5, 6, 0.5, 3).unwrap();
        assert_eq!(g3.shape().dims(), &[4, 5, 6]);
        assert!(g3.count(|s| s != 0) > 20);
    }

    #[test]
    fn every_density_taking_constructor_rejects_a_non_probability() {
        let shape = Shape::grid2(8, 8).unwrap();
        let build = |p: f64| -> Vec<Result<Grid<u8>, LatticeError>> {
            vec![
                random_hpp(shape, p, 1),
                random_fhp(shape, FhpVariant::II, p, 1, true),
                random_gas1d(8, p, 1),
                random_gas3d(2, 4, 4, p, 1),
                fhp_wind(shape, FhpVariant::I, p, 0.5, 1, true),
                fhp_wind(shape, FhpVariant::I, 0.2, p, 1, true),
                channel_with_plate(8, 8, FhpVariant::I, p, 0.5, 4, 0.5, 1),
                channel_with_plate(8, 8, FhpVariant::I, 0.2, p, 4, 0.5, 1),
                hpp_density_step(8, 8, p, 0.1, 1),
                hpp_density_step(8, 8, 0.8, p, 1),
            ]
        };
        for bad in [1.5, -0.1, f64::NAN] {
            for (i, r) in build(bad).into_iter().enumerate() {
                match r {
                    Err(LatticeError::InvalidConfig(msg)) => {
                        assert!(msg.contains("must be in [0, 1]"), "constructor {i}: {msg}")
                    }
                    other => panic!("constructor {i} at {bad}: {other:?}"),
                }
            }
        }
        for good in [0.0, 1.0] {
            for (i, r) in build(good).into_iter().enumerate() {
                assert!(r.is_ok(), "constructor {i} at {good}: {r:?}");
            }
        }
    }
}
