//! Macroscopic observables: density and momentum fields.
//!
//! A lattice gas is interesting because coarse-grained averages of its
//! Boolean microstate obey fluid equations (§2). These helpers compute
//! the standard observables used by the examples and by physics sanity
//! tests: total mass/momentum, and block-averaged density and velocity
//! fields.

use crate::fhp::{fhp_invariants, FHP_GAS_MASK};
use crate::hpp::{hpp_invariants, HPP_MASK};
use crate::{is_obstacle, OBSTACLE_BIT};
use lattice_core::{Coord, Grid, Shape};

/// Which model's invariants to use when reading a state byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// 4-channel HPP.
    Hpp,
    /// 6/7-bit FHP (any variant).
    Fhp,
}

impl Model {
    fn mass_of(self, s: u8) -> u32 {
        match self {
            Model::Hpp => (s & HPP_MASK).count_ones(),
            Model::Fhp => (s & FHP_GAS_MASK).count_ones(),
        }
    }

    /// Mask of the bits a legal state byte may set: the model's gas
    /// channels plus the obstacle flag. Anything outside is not a state
    /// the rules can produce — a set bit there marks corrupted data.
    pub fn legal_mask(self) -> u8 {
        let gas = match self {
            Model::Hpp => HPP_MASK,
            Model::Fhp => FHP_GAS_MASK,
        };
        gas | OBSTACLE_BIT
    }

    /// Momentum of one site in the model's integer basis.
    pub fn momentum_of(self, s: u8) -> (i32, i32) {
        let inv = match self {
            Model::Hpp => hpp_invariants(s & HPP_MASK),
            Model::Fhp => fhp_invariants(s & FHP_GAS_MASK),
        };
        (inv.momentum[0], inv.momentum[1])
    }
}

/// Momentum of one site (convenience re-export of [`Model::momentum_of`]).
pub fn momentum_of(model: Model, s: u8) -> (i32, i32) {
    model.momentum_of(s)
}

/// Aggregate observables of a 2-D gas lattice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observables {
    /// Total particle count.
    pub mass: u64,
    /// Total momentum (model's integer basis).
    pub momentum: (i64, i64),
    /// Number of obstacle sites.
    pub obstacles: u64,
    /// Mean particles per non-obstacle site.
    pub density: f64,
}

impl Observables {
    /// Measures a lattice.
    pub fn measure(grid: &Grid<u8>, model: Model) -> Self {
        Self::from_counts(&bit_counts(grid.as_slice()), grid.len(), model)
    }

    /// The observables of `sites` sites whose per-bit populations are
    /// `counts` ([`bit_counts`]). Mass and momentum are linear in the
    /// state bits, so each bit's population times its one-bit mass and
    /// velocity sums to the per-site fold's totals exactly.
    pub(crate) fn from_counts(counts: &[u64; 8], sites: usize, model: Model) -> Self {
        let (mut mass, mut px, mut py) = (0u64, 0i64, 0i64);
        for (b, &n) in counts.iter().enumerate() {
            let bit = 1u8 << b;
            mass += n * u64::from(model.mass_of(bit));
            let (x, y) = model.momentum_of(bit);
            px += n as i64 * i64::from(x);
            py += n as i64 * i64::from(y);
        }
        let obstacles = counts[OBSTACLE_BIT.trailing_zeros() as usize];
        let fluid_sites = sites as u64 - obstacles;
        let density = if fluid_sites == 0 { 0.0 } else { mass as f64 / fluid_sites as f64 };
        Observables { mass, momentum: (px, py), obstacles, density }
    }
}

/// Sites with each state bit set: `counts[b]` is how many bytes of
/// `sites` have bit `b` set. The lattice is read eight sites per `u64`:
/// `(w >> b) & 0x0101…01` lifts bit `b` of every site into its own byte
/// lane, the lanes add up over a block of 255 words (a lane cannot
/// overflow inside one), and each block folds into the totals. A word
/// costs three operations per bit, where the per-site fold took a
/// branchy per-direction loop per site.
pub(crate) fn bit_counts(sites: &[u8]) -> [u64; 8] {
    const LANES: u64 = 0x0101_0101_0101_0101;
    fn add(acc: &mut [u64; 8], w: u64) {
        for (b, lane) in acc.iter_mut().enumerate() {
            *lane += (w >> b) & LANES;
        }
    }
    /// Sum of the eight byte lanes.
    fn fold(acc: u64) -> u64 {
        let pairs = (acc & 0x00ff_00ff_00ff_00ff) + ((acc >> 8) & 0x00ff_00ff_00ff_00ff);
        pairs.wrapping_mul(0x0001_0001_0001_0001) >> 48
    }
    let mut counts = [0u64; 8];
    for block in sites.chunks(255 * 8) {
        let mut acc = [0u64; 8];
        let mut words = block.chunks_exact(8);
        for word in words.by_ref() {
            add(&mut acc, u64::from_le_bytes(word.try_into().unwrap_or_default()));
        }
        // A short last word is zero-padded: absent sites set no bit.
        let mut tail = [0u8; 8];
        tail[..words.remainder().len()].copy_from_slice(words.remainder());
        add(&mut acc, u64::from_le_bytes(tail));
        for (count, lane) in counts.iter_mut().zip(acc) {
            *count += fold(lane);
        }
    }
    counts
}

/// The per-site fold [`Observables::measure`] replaces: the reference
/// its word-parallel count must equal.
#[cfg(test)]
pub(crate) fn measure_per_site(grid: &Grid<u8>, model: Model) -> Observables {
    let mut mass = 0u64;
    let mut px = 0i64;
    let mut py = 0i64;
    let mut obstacles = 0u64;
    for &s in grid.as_slice() {
        if is_obstacle(s) {
            obstacles += 1;
        }
        mass += model.mass_of(s) as u64;
        let (x, y) = model.momentum_of(s);
        px += x as i64;
        py += y as i64;
    }
    let fluid_sites = grid.len() as u64 - obstacles;
    let density = if fluid_sites == 0 { 0.0 } else { mass as f64 / fluid_sites as f64 };
    Observables { mass, momentum: (px, py), obstacles, density }
}

/// A block-averaged field over a 2-D lattice: density and mean momentum
/// per coarse cell of `block × block` sites.
#[derive(Debug, Clone)]
pub struct CoarseField {
    /// Coarse rows.
    pub rows: usize,
    /// Coarse columns.
    pub cols: usize,
    /// Mean particles per site, per coarse cell (row-major).
    pub density: Vec<f64>,
    /// Mean momentum per site, per coarse cell (row-major).
    pub momentum: Vec<(f64, f64)>,
}

impl CoarseField {
    /// Computes the block-averaged field of `grid` with cells of side
    /// `block` (the final row/column of cells may be ragged).
    ///
    /// # Panics
    /// Panics if `grid` is not 2-D or `block == 0`.
    pub fn measure(grid: &Grid<u8>, model: Model, block: usize) -> Self {
        let shape: Shape = grid.shape();
        assert_eq!(shape.rank(), 2, "coarse fields are 2-D");
        assert!(block > 0);
        let rows = shape.rows().div_ceil(block);
        let cols = shape.cols().div_ceil(block);
        let mut mass = vec![0u64; rows * cols];
        let mut mom = vec![(0i64, 0i64); rows * cols];
        let mut sites = vec![0u64; rows * cols];
        for r in 0..shape.rows() {
            for c in 0..shape.cols() {
                let s = grid.get(Coord::c2(r, c));
                let cell = (r / block) * cols + c / block;
                if !is_obstacle(s) {
                    sites[cell] += 1;
                    mass[cell] += model.mass_of(s) as u64;
                    let (px, py) = model.momentum_of(s);
                    mom[cell].0 += px as i64;
                    mom[cell].1 += py as i64;
                }
            }
        }
        let density = mass
            .iter()
            .zip(&sites)
            .map(|(&m, &n)| if n == 0 { 0.0 } else { m as f64 / n as f64 })
            .collect();
        let momentum = mom
            .iter()
            .zip(&sites)
            .map(
                |(&(x, y), &n)| {
                    if n == 0 {
                        (0.0, 0.0)
                    } else {
                        (x as f64 / n as f64, y as f64 / n as f64)
                    }
                },
            )
            .collect();
        CoarseField { rows, cols, density, momentum }
    }

    /// Density of coarse cell `(row, col)`.
    pub fn density_at(&self, row: usize, col: usize) -> f64 {
        self.density[row * self.cols + col]
    }

    /// Mean momentum of coarse cell `(row, col)`.
    pub fn momentum_at(&self, row: usize, col: usize) -> (f64, f64) {
        self.momentum[row * self.cols + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fhp::FhpDir;
    use crate::hpp::HppDir;
    use crate::OBSTACLE_BIT;
    use lattice_core::Shape;

    #[test]
    fn totals_on_simple_lattice() {
        let shape = Shape::grid2(2, 2).unwrap();
        let mut g = Grid::new(shape);
        g.set_linear(0, HppDir::E.bit() | HppDir::N.bit());
        g.set_linear(3, OBSTACLE_BIT);
        let obs = Observables::measure(&g, Model::Hpp);
        assert_eq!(obs.mass, 2);
        assert_eq!(obs.momentum, (1, 1));
        assert_eq!(obs.obstacles, 1);
        assert!((obs.density - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn fhp_momentum_basis() {
        let shape = Shape::grid2(1, 2).unwrap();
        let mut g = Grid::new(shape);
        g.set_linear(0, FhpDir::E.bit());
        g.set_linear(1, FhpDir::W.bit());
        let obs = Observables::measure(&g, Model::Fhp);
        assert_eq!(obs.mass, 2);
        assert_eq!(obs.momentum, (0, 0));
    }

    #[test]
    fn coarse_field_blocks() {
        let shape = Shape::grid2(4, 4).unwrap();
        // Fill the left half with E-movers.
        let g = Grid::from_fn(shape, |c| if c.col() < 2 { HppDir::E.bit() } else { 0 });
        let f = CoarseField::measure(&g, Model::Hpp, 2);
        assert_eq!((f.rows, f.cols), (2, 2));
        assert!((f.density_at(0, 0) - 1.0).abs() < 1e-12);
        assert!((f.density_at(0, 1) - 0.0).abs() < 1e-12);
        assert_eq!(f.momentum_at(1, 0), (1.0, 0.0));
    }

    #[test]
    fn coarse_field_skips_obstacles() {
        let shape = Shape::grid2(2, 2).unwrap();
        let mut g = Grid::new(shape);
        g.set_linear(0, OBSTACLE_BIT);
        g.set_linear(1, HppDir::N.bit());
        let f = CoarseField::measure(&g, Model::Hpp, 2);
        // 3 fluid sites, 1 particle.
        assert!((f.density_at(0, 0) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ragged_blocks() {
        let shape = Shape::grid2(3, 5).unwrap();
        let g: Grid<u8> = Grid::filled(shape, HppDir::E.bit());
        let f = CoarseField::measure(&g, Model::Hpp, 2);
        assert_eq!((f.rows, f.cols), (2, 3));
        for r in 0..2 {
            for c in 0..3 {
                assert!((f.density_at(r, c) - 1.0).abs() < 1e-12);
            }
        }
    }
}
