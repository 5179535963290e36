//! Bit-parallel (multi-spin-coded) FHP-I.
//!
//! The famous software implementation of FHP: six channel bit-planes,
//! 64 sites per word, with the whole collision rule expressed as
//! word-level boolean algebra — the technique the CRAY and Connection
//! Machine implementations of the era used, and the software baseline
//! the paper's hardware engines competed against.
//!
//! ## Collision algebra
//!
//! With channel words `s₀..s₅` (E, NE, NW, W, SW, SE) and a chirality
//! word `ξ` (one random bit per site):
//!
//! ```text
//! db_p   = s_p & s_{p+3} & none of the other four          (p = 0,1,2)
//! tri    = (s₀&s₂&s₄&!s₁&!s₃&!s₅) | (s₁&s₃&s₅&!s₀&!s₂&!s₄)
//! tog_j  = db_{j mod 3}                                    (pair dissolves)
//!        | ξ  & db_{(j+2) mod 3}                           (+60° outcome)
//!        | !ξ & db_{(j+1) mod 3}                           (−60° outcome)
//!        | tri                                             (triple swap)
//! s_j'   = s_j ^ tog_j
//! ```
//!
//! All colliding configurations are disjoint, so XOR with the toggle
//! mask implements the whole table — about 40 boolean word-ops for 64
//! sites.
//!
//! ## Equivalence contract
//!
//! The chirality stream is generated per *word* (64 sites share a
//! hashed word of random bits), which is a different stochastic
//! realization than [`FhpRule`]'s per-site hash — so trajectories are
//! **not** bit-identical to the table engine. The tests instead verify
//! what the physics requires: exact conservation on the torus,
//! collision-free trajectories identical to the reference, per-case
//! collision outcomes legal, and matching equilibrium statistics.
//!
//! [`FhpRule`]: crate::fhp::FhpRule

use crate::bitparallel::first_outside;
use crate::fhp::{fhp_invariants, FhpDir, FHP_MOVE_MASK};
use crate::prng;
use lattice_core::bits::{pack_rows, shift_row, tail_mask, unpack_rows};
use lattice_core::{Grid, LatticeError, Shape};

/// An FHP-I lattice as six channel bit-planes (torus, even row count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FhpBitLattice {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    planes: [Vec<u64>; 6],
    seed: u64,
    time: u64,
}

impl FhpBitLattice {
    /// Packs a byte-per-site FHP-I grid. Requires a 2-D lattice with an
    /// even number of rows (hex torus) and no rest/obstacle bits.
    pub fn from_grid(grid: &Grid<u8>, seed: u64) -> Result<Self, LatticeError> {
        let shape = grid.shape();
        if shape.rank() != 2 {
            return Err(LatticeError::BadRank { rank: shape.rank() });
        }
        let (rows, cols) = (shape.rows(), shape.cols());
        if rows % 2 != 0 {
            return Err(LatticeError::InvalidConfig("hex torus needs an even row count".into()));
        }
        let planes = pack_rows(grid, |r, row| match first_outside(row, FHP_MOVE_MASK) {
            None => Ok(()),
            Some(c) => Err(LatticeError::InvalidConfig(format!(
                "site ({r},{c}) = {:#04x} has non-FHP-I bits",
                row[c]
            ))),
        })?;
        Ok(FhpBitLattice { rows, cols, words_per_row: cols.div_ceil(64), planes, seed, time: 0 })
    }

    /// Unpacks to a byte-per-site grid.
    pub fn to_grid(&self) -> Grid<u8> {
        let shape = Shape::grid2(self.rows, self.cols).expect("valid dimensions");
        let mut out = Grid::new(shape);
        unpack_rows(&self.planes, self.cols, &mut out);
        out
    }

    /// Current generation.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Word-parallel FHP-I collision over the whole lattice.
    pub fn collide(&mut self) {
        let (wpr, tail_mask) = (self.words_per_row, tail_mask(self.cols));
        for i in 0..self.rows * wpr {
            let s: [u64; 6] = std::array::from_fn(|ch| self.planes[ch][i]);
            let xi = prng::site_hash(i as u64, self.time, self.seed);
            // Disjoint two-body configurations.
            let db: [u64; 3] = std::array::from_fn(|p| {
                s[p] & s[p + 3]
                    & !s[(p + 1) % 6]
                    & !s[(p + 2) % 6]
                    & !s[(p + 4) % 6]
                    & !s[(p + 5) % 6]
            });
            let tri = (s[0] & s[2] & s[4] & !s[1] & !s[3] & !s[5])
                | (s[1] & s[3] & s[5] & !s[0] & !s[2] & !s[4]);
            let mask = if (i + 1) % wpr == 0 { tail_mask } else { u64::MAX };
            for j in 0..6 {
                let tog =
                    (db[j % 3] | (xi & db[(j + 2) % 3]) | (!xi & db[(j + 1) % 3]) | tri) & mask;
                self.planes[j][i] = s[j] ^ tog;
            }
        }
    }

    /// Hex streaming with periodic wrap: E/W shift along rows; the four
    /// diagonal channels move one row with a parity-dependent half-cell
    /// column shift (odd-r brick layout, matching [`FhpDir`]'s offsets).
    pub fn stream(&mut self) {
        let (rows, wpr, cols) = (self.rows, self.words_per_row, self.cols);
        for row in self.planes[FhpDir::E as usize].chunks_exact_mut(wpr) {
            shift_row(row, cols, true, true);
        }
        for row in self.planes[FhpDir::W as usize].chunks_exact_mut(wpr) {
            shift_row(row, cols, false, true);
        }
        // Diagonals: build destination planes row by row. A particle
        // moving NE from source row sr (parity p) lands in row sr−1 at
        // column +1 if p is odd, same column if even; symmetrically for
        // the others (see FhpDir::grid_offset).
        for ch in [FhpDir::NE, FhpDir::NW, FhpDir::SE, FhpDir::SW] {
            let plane = &self.planes[ch as usize];
            let mut next = vec![0u64; rows * wpr];
            for sr in 0..rows {
                let (down, col_shift_on_odd) = match ch {
                    FhpDir::NE => (false, true),  // (−1, odd ? +1 : 0)
                    FhpDir::NW => (false, false), // (−1, odd ? 0 : −1)
                    FhpDir::SE => (true, true),   // (+1, odd ? +1 : 0)
                    _ => (true, false),           // SW (+1, odd ? 0 : −1)
                };
                let dr = if down { (sr + 1) % rows } else { (sr + rows - 1) % rows };
                let mut row: Vec<u64> = plane[sr * wpr..(sr + 1) * wpr].to_vec();
                let odd = sr % 2 == 1;
                // NE/SE: shift east on odd source rows; NW/SW: shift
                // west on even source rows.
                if col_shift_on_odd {
                    if odd {
                        shift_row(&mut row, cols, true, true);
                    }
                } else if !odd {
                    shift_row(&mut row, cols, false, true);
                }
                for (w, &v) in row.iter().enumerate() {
                    next[dr * wpr + w] |= v;
                }
            }
            self.planes[ch as usize] = next;
        }
    }

    /// One generation: collide then stream.
    pub fn step(&mut self) {
        self.collide();
        self.stream();
        self.time += 1;
    }

    /// Evolves `steps` generations.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Total particles.
    pub fn mass(&self) -> u64 {
        self.planes.iter().flat_map(|p| p.iter()).map(|w| w.count_ones() as u64).sum()
    }

    /// Total momentum in the doubled-x integer basis.
    pub fn momentum(&self) -> (i64, i64) {
        let g = self.to_grid();
        g.as_slice().iter().fold((0, 0), |(px, py), &s| {
            let inv = fhp_invariants(s);
            (px + inv.momentum[0] as i64, py + inv.momentum[1] as i64)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fhp::{FhpRule, FhpVariant};
    use crate::init;
    use lattice_core::{evolve, Boundary, Coord};

    #[test]
    fn pack_unpack_roundtrip() {
        for (rows, cols) in [(4usize, 7usize), (8, 64), (6, 65), (4, 130)] {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = init::random_fhp(shape, FhpVariant::I, 0.4, 9, true).unwrap();
            let packed = FhpBitLattice::from_grid(&g, 1).unwrap();
            assert_eq!(packed.to_grid(), g, "{rows}x{cols}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let odd = Shape::grid2(3, 8).unwrap();
        assert!(FhpBitLattice::from_grid(&Grid::new(odd), 1).is_err());
        let mut g = Grid::new(Shape::grid2(4, 4).unwrap());
        g.set_linear(0, crate::OBSTACLE_BIT);
        assert!(FhpBitLattice::from_grid(&g, 1).is_err());
    }

    #[test]
    fn collision_free_single_particle_matches_reference_exactly() {
        // One particle never collides: the chirality stream is
        // irrelevant and trajectories must match the table engine bit
        // for bit, for every direction — this pins the streaming logic.
        for ch in 0..6u8 {
            let shape = Shape::grid2(8, 10).unwrap();
            let mut g = Grid::new(shape);
            g.set(Coord::c2(3, 4), 1 << ch);
            let rule = FhpRule::new(FhpVariant::I, 5).with_wrap(8, 10);
            let reference = evolve(&g, &rule, Boundary::Periodic, 0, 13);
            let mut packed = FhpBitLattice::from_grid(&g, 99).unwrap();
            packed.run(13);
            assert_eq!(packed.to_grid(), reference, "channel {ch}");
        }
    }

    #[test]
    fn head_on_pair_scatters_legally() {
        // E+W at one site must become NE+SW or NW+SE after collision.
        let shape = Shape::grid2(8, 8).unwrap();
        let mut g = Grid::new(shape);
        g.set(Coord::c2(4, 4), FhpDir::E.bit() | FhpDir::W.bit());
        let mut packed = FhpBitLattice::from_grid(&g, 3).unwrap();
        packed.collide();
        let out = packed.to_grid().get(Coord::c2(4, 4));
        assert!(
            out == FhpDir::NE.bit() | FhpDir::SW.bit()
                || out == FhpDir::NW.bit() | FhpDir::SE.bit(),
            "{out:#08b}"
        );
        // And both outcomes occur across seeds.
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..16u64 {
            let mut p = FhpBitLattice::from_grid(&g, seed).unwrap();
            p.collide();
            seen.insert(p.to_grid().get(Coord::c2(4, 4)));
        }
        assert_eq!(seen.len(), 2, "both chirality outcomes appear");
    }

    #[test]
    fn triple_swaps() {
        let shape = Shape::grid2(4, 4).unwrap();
        let mut g = Grid::new(shape);
        g.set(Coord::c2(1, 1), 0b010101);
        let mut packed = FhpBitLattice::from_grid(&g, 3).unwrap();
        packed.collide();
        assert_eq!(packed.to_grid().get(Coord::c2(1, 1)), 0b101010);
    }

    #[test]
    fn spectators_suppress_collisions() {
        let shape = Shape::grid2(4, 4).unwrap();
        let mut g = Grid::new(shape);
        let s = FhpDir::E.bit() | FhpDir::W.bit() | FhpDir::NE.bit();
        g.set(Coord::c2(1, 1), s);
        let mut packed = FhpBitLattice::from_grid(&g, 3).unwrap();
        packed.collide();
        assert_eq!(packed.to_grid().get(Coord::c2(1, 1)), s);
    }

    #[test]
    fn mass_and_momentum_conserved_long_run() {
        let shape = Shape::grid2(16, 48).unwrap();
        let g = init::random_fhp(shape, FhpVariant::I, 0.35, 11, true).unwrap();
        let mut packed = FhpBitLattice::from_grid(&g, 21).unwrap();
        let m0 = packed.mass();
        let p0 = packed.momentum();
        packed.run(100);
        assert_eq!(packed.mass(), m0);
        assert_eq!(packed.momentum(), p0);
        assert_eq!(packed.time(), 100);
    }

    #[test]
    fn equilibrium_statistics_match_table_engine() {
        // Same initial gas, different chirality streams: channel
        // occupations agree within statistical noise after relaxation.
        let (rows, cols) = (32usize, 64usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        let g = init::random_fhp(shape, FhpVariant::I, 0.3, 4, true).unwrap();
        let rule = FhpRule::new(FhpVariant::I, 8).with_wrap(rows, cols);
        let table_out = evolve(&g, &rule, Boundary::Periodic, 0, 40);
        let mut packed = FhpBitLattice::from_grid(&g, 1234).unwrap();
        packed.run(40);
        let occ_a = crate::physics::channel_occupations(&table_out);
        let occ_b = crate::physics::channel_occupations(&packed.to_grid());
        for ch in 0..6 {
            assert!(
                (occ_a[ch] - occ_b[ch]).abs() < 0.03,
                "channel {ch}: {} vs {}",
                occ_a[ch],
                occ_b[ch]
            );
        }
    }
}
