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
//! word `χ` whose bit is set where the site's chirality is `true`:
//!
//! ```text
//! db_p   = s_p & s_{p+3} & none of the other four          (p = 0,1,2)
//! tri    = (s₀&s₂&s₄&!s₁&!s₃&!s₅) | (s₁&s₃&s₅&!s₀&!s₂&!s₄)
//! tog_j  = db_{j mod 3}                                    (pair dissolves)
//!        | !χ & db_{(j+2) mod 3}                           (pair turns +60°)
//!        | χ  & db_{(j+1) mod 3}                           (pair turns +120°)
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
//! The kernel is bit-exact with [`FhpRule`] for FHP-I. Chirality is
//! read only by the three lone head-on pairs (`db₀ | db₁ | db₂`), so
//! `χ` is built only there: for each set bit, the site's own
//! [`prng::site_bit`] under [`FhpRule`]'s key — global row in the high
//! half, global column in the low half, each reduced onto the torus
//! when the rule has one. At the densities FHP runs at, a word holds a
//! few such sites, and the other sites cost no hash at all.
//!
//! Two boundaries are supported. On the torus
//! ([`FhpBitLattice::from_grid`], even row count) a run equals
//! `evolve(grid, &FhpRule::new(FhpVariant::I, seed).with_wrap(rows,
//! cols), Boundary::Periodic, 0, n)`. Under the null boundary
//! ([`FhpBitLattice::from_rows_null`]) the block is a window of a
//! larger lattice: its site `(r, c)` is global `(origin.0 + r,
//! origin.1 + c)`, wrapping, which sets both the chirality key and the
//! row parity that picks each diagonal's half-cell shift, and zeros
//! stream in at every edge. That mode is [`FhpRule`]'s
//! [`BlockKernel`] for a farm board's halo-framed block: the board
//! keeps it across the passes of a step, the chirality keys stay the
//! block's global ones, and the clock advances in `run`.
//!
//! [`FhpBitLattice`] is the shared [`BitLattice`] store; this module
//! holds only FHP-I's part of it ([`FhpI`]).
//!
//! [`FhpRule`]: crate::fhp::FhpRule
//! [`BlockKernel`]: lattice_core::BlockKernel

use crate::bitparallel::{move_rows, BitGas, BitLattice};
use crate::fhp::{fhp_invariants, FHP_MOVE_MASK};
use crate::prng;
use lattice_core::bits::shift_row;
use lattice_core::{Grid, LatticeError, RowSource};

/// The FHP-I gas's part of a [`BitLattice`]: six planes in
/// [`crate::fhp::FhpDir`] order, the collision algebra with its
/// chirality keys and clock, and the hex stream. Its rows close into a
/// torus only over an even count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FhpI {
    /// The high half of each row's chirality key: its global row,
    /// shifted up 32 bits.
    row_keys: Vec<u64>,
    /// The low half of each column's chirality key: its global column.
    col_keys: Vec<u64>,
    /// Parity of row 0's global row, which with each row's own offset
    /// picks the diagonal channels' half-cell shift.
    parity0: usize,
    seed: u64,
    time: u64,
}

/// An FHP-I lattice as six channel bit-planes. Periodic (hex torus,
/// even row count) or null boundaries.
pub type FhpBitLattice = BitLattice<FhpI, 6>;

/// Global coordinate `origin + i` along one axis, reduced onto a torus
/// axis of `len` sites exactly as [`crate::fhp::FhpRule`] reduces it.
fn axis_key(origin: usize, i: usize, len: Option<usize>) -> u64 {
    let at = origin.wrapping_add(i);
    let at = match len {
        Some(n) => (at as isize).rem_euclid(n as isize) as usize,
        None => at,
    };
    at as u64
}

/// The chirality word of the lone head-on pairs `pairs` in one word of
/// a row: bit `j` is [`prng::site_bit`] of the site in column
/// `col_keys[j]` at generation `time`. Only the sites in `pairs` are
/// hashed.
#[inline]
fn chirality(mut pairs: u64, row_key: u64, col_keys: &[u64], time: u64, seed: u64) -> u64 {
    let mut chiral = 0;
    while pairs != 0 {
        let j = pairs.trailing_zeros();
        let key = row_key | col_keys[j as usize];
        chiral |= u64::from(prng::site_bit(key, time, seed)) << j;
        pairs &= pairs - 1;
    }
    chiral
}

impl FhpBitLattice {
    /// Packs a byte-per-site FHP-I grid on the hex torus. Requires a
    /// 2-D lattice with an even number of rows and no rest/obstacle
    /// bits. Chirality follows `FhpRule::new(FhpVariant::I,
    /// seed).with_wrap(rows, cols)` from generation 0.
    pub fn from_grid(grid: &Grid<u8>, seed: u64) -> Result<Self, LatticeError> {
        let shape = grid.shape();
        if shape.rank() != 2 {
            return Err(LatticeError::BadRank { rank: shape.rank() });
        }
        if !shape.rows().is_multiple_of(FhpI::ROW_PERIOD) {
            return Err(LatticeError::InvalidConfig("hex torus needs an even row count".into()));
        }
        Self::pack(grid, true, |rows, cols| {
            FhpI::new((rows, cols), seed, 0, (0, 0), Some((rows, cols)))
        })
    }

    /// Packs the byte-per-site FHP-I block `src` reads (2-D), a row at
    /// a time, under the null boundary, at generation `t0`. Site
    /// `(r, c)` is global `(origin.0 + r, origin.1 + c)` (wrapping),
    /// reduced onto `wrap`'s torus for the chirality key when given:
    /// the run equals `FhpRule::new(FhpVariant::I, seed)` (with
    /// `with_wrap(wrap)` when given) evolving the block under
    /// `Boundary::null()` and seeing those coordinates.
    pub fn from_rows_null(
        src: &dyn RowSource<u8>,
        seed: u64,
        t0: u64,
        origin: (usize, usize),
        wrap: Option<(usize, usize)>,
    ) -> Result<Self, LatticeError> {
        Self::pack(src, false, |rows, cols| FhpI::new((rows, cols), seed, t0, origin, wrap))
    }

    /// Current generation.
    pub fn time(&self) -> u64 {
        self.gas.time
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

impl FhpI {
    /// The gas of a `(rows, cols)` block whose site `(r, c)` is global
    /// `(origin.0 + r, origin.1 + c)`, reduced onto `wrap`'s torus when
    /// given, at generation `t0`.
    fn new(
        (rows, cols): (usize, usize),
        seed: u64,
        t0: u64,
        origin: (usize, usize),
        wrap: Option<(usize, usize)>,
    ) -> Self {
        let (wrap_rows, wrap_cols) = (wrap.map(|w| w.0), wrap.map(|w| w.1));
        FhpI {
            row_keys: (0..rows).map(|r| axis_key(origin.0, r, wrap_rows) << 32).collect(),
            col_keys: (0..cols).map(|c| axis_key(origin.1, c, wrap_cols)).collect(),
            parity0: origin.0 & 1,
            seed,
            time: t0,
        }
    }
}

impl BitGas<6> for FhpI {
    const CHANNELS: u8 = FHP_MOVE_MASK;
    const FOREIGN: &'static str = "non-FHP-I bits";
    /// The hex torus's odd-r rows pair up only over an even count.
    const ROW_PERIOD: usize = 2;

    /// Word-parallel FHP-I collision over the whole lattice. Phantom
    /// sites beyond `cols` hold no particles, and every collision needs
    /// particles, so they stay empty.
    fn collide(lat: &mut FhpBitLattice) {
        let BitLattice { words_per_row: wpr, planes, gas, .. } = lat;
        let FhpI { row_keys, col_keys, seed, time, .. } = gas;
        for (r, &row_key) in row_keys.iter().enumerate() {
            for (w, cols) in col_keys.chunks(64).enumerate() {
                let i = r * *wpr + w;
                let s: [u64; 6] = std::array::from_fn(|ch| planes[ch][i]);
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
                let chi = chirality(db[0] | db[1] | db[2], row_key, cols, *time, *seed);
                for (j, plane) in planes.iter_mut().enumerate() {
                    let tog = db[j % 3] | (!chi & db[(j + 2) % 3]) | (chi & db[(j + 1) % 3]) | tri;
                    plane[i] = s[j] ^ tog;
                }
            }
        }
    }

    /// Hex streaming: E/W shift along rows; the four diagonal channels
    /// move one row, with a half-cell column shift picked by the source
    /// row's global parity (odd-r brick layout, matching
    /// [`crate::fhp::FhpDir`]'s offsets).
    fn stream(lat: &mut FhpBitLattice) {
        let (wpr, cols, parity0) = (lat.words_per_row, lat.cols, lat.gas.parity0);
        let (wrap_rows, wrap_cols) = (lat.wrap_rows, lat.wrap_cols);
        // Channel order is `FhpDir`'s: E, NE, NW, W, SW, SE.
        let [east, ne, nw, west, sw, se] = &mut lat.planes;
        for row in east.chunks_exact_mut(wpr) {
            shift_row(row, cols, true, wrap_cols);
        }
        for row in west.chunks_exact_mut(wpr) {
            shift_row(row, cols, false, wrap_cols);
        }
        // A particle moving NE from an odd source row lands one column
        // east, from an even one in the same column; NW lands one column
        // west from an even source row. SE and SW mirror them downward.
        // A source row is one row from its destination `d`, so its
        // parity is the other one.
        for (plane, up, east) in
            [(ne, true, true), (nw, true, false), (se, false, true), (sw, false, false)]
        {
            move_rows(plane, wpr, up, wrap_rows);
            for (d, row) in plane.chunks_exact_mut(wpr).enumerate() {
                let odd_source = (parity0 ^ d) & 1 == 0;
                if odd_source == east {
                    shift_row(row, cols, east, wrap_cols);
                }
            }
        }
    }

    fn tick(&mut self) {
        self.time += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fhp::{FhpDir, FhpRule, FhpVariant};
    use crate::init;
    use lattice_core::{evolve, Boundary, Coord, Shape};
    use proptest::prelude::*;

    #[test]
    fn rejects_bad_inputs() {
        let odd = Shape::grid2(3, 8).unwrap();
        assert!(FhpBitLattice::from_grid(&Grid::new(odd), 1).is_err());
        assert!(FhpBitLattice::from_rows_null(&Grid::new(odd), 1, 0, (0, 0), None).is_ok());
        for bit in [crate::OBSTACLE_BIT, crate::fhp::REST_BIT] {
            let mut g = Grid::new(Shape::grid2(4, 4).unwrap());
            g.set_linear(5, bit);
            let why = format!("site (1,1) = {bit:#04x} has non-FHP-I bits");
            assert_eq!(FhpBitLattice::from_grid(&g, 1), Err(LatticeError::InvalidConfig(why)));
            assert!(FhpBitLattice::from_rows_null(&g, 1, 0, (0, 0), None).is_err());
        }
        let line: Grid<u8> = Grid::new(Shape::line(8).unwrap());
        assert!(FhpBitLattice::from_rows_null(&line, 1, 0, (0, 0), None).is_err());
    }

    #[test]
    fn collision_free_single_particle_matches_reference_exactly() {
        // One particle never collides, so this pins the streaming logic
        // alone, for every direction.
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
    fn head_on_pairs_turn_by_the_sites_own_chirality() {
        // Each lone pair turns the way the table does under the site's
        // hashed chirality — `true` turns it +120° — and both outcomes
        // occur across seeds.
        let shape = Shape::grid2(8, 8).unwrap();
        let at = Coord::c2(4, 5);
        let mut seen = std::collections::BTreeSet::new();
        for (p, seed) in (0..3u8).flat_map(|p| (0..16u64).map(move |s| (p, s))) {
            let pair = (1 << p) | (1 << (p + 3));
            let mut g = Grid::new(shape);
            g.set(at, pair);
            let mut packed = FhpBitLattice::from_grid(&g, seed).unwrap();
            packed.collide();
            let chirality = prng::site_bit((4 << 32) | 5, 0, seed);
            let turned = FhpDir::E.rotate(p + if chirality { 2 } else { 1 });
            let want = turned.bit() | turned.opposite().bit();
            assert_eq!(packed.to_grid().get(at), want, "pair {p} seed {seed}");
            seen.insert((p, chirality));
        }
        assert_eq!(seen.len(), 6, "both chiralities occur for every pair");
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
    fn torus_runs_equal_the_table_engine() {
        // The gas that used to be compared statistically, now site for
        // site: the same seed drives the same chirality stream.
        let (rows, cols) = (32usize, 64usize);
        let shape = Shape::grid2(rows, cols).unwrap();
        let g = init::random_fhp(shape, FhpVariant::I, 0.3, 4, true).unwrap();
        let rule = FhpRule::new(FhpVariant::I, 8).with_wrap(rows, cols);
        let mut packed = FhpBitLattice::from_grid(&g, 8).unwrap();
        packed.run(40);
        assert_eq!(packed.to_grid(), evolve(&g, &rule, Boundary::Periodic, 0, 40));
    }

    #[test]
    fn null_streaming_drops_particles_at_every_edge() {
        // Block row 0 is global row 7. Everything but two particles
        // leaves through an edge.
        let shape = Shape::grid2(3, 70).unwrap();
        let mut g = Grid::new(shape);
        g.set(Coord::c2(0, 69), FhpDir::E.bit());
        g.set(Coord::c2(0, 5), FhpDir::NE.bit());
        g.set(Coord::c2(2, 63), FhpDir::SW.bit());
        g.set(Coord::c2(1, 0), FhpDir::W.bit());
        // Global row 8 (even): NW moves west a column, across a word.
        g.set(Coord::c2(1, 64), FhpDir::NW.bit());
        // Global row 8: SE stays in its column.
        g.set(Coord::c2(1, 69), FhpDir::SE.bit());
        let mut packed = FhpBitLattice::from_rows_null(&g, 1, 0, (7, 0), None).unwrap();
        packed.stream();
        let out = packed.to_grid();
        assert_eq!(out.get(Coord::c2(0, 63)), FhpDir::NW.bit());
        assert_eq!(out.get(Coord::c2(2, 69)), FhpDir::SE.bit());
        assert_eq!(packed.mass(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On the hex torus, `from_grid` + `run` is the table engine with
        /// the wrapped rule, bit for bit, from generation 0.
        #[test]
        fn torus_kernel_equals_the_wrapped_rule(
            half_rows in 1usize..=12,
            cols in 1usize..=130,
            steps in 0u64..=10,
            density in 0.05f64..0.95,
            seed in any::<u64>(),
        ) {
            let rows = 2 * half_rows;
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = init::random_fhp(shape, FhpVariant::I, density, seed, true).unwrap();
            let rule = FhpRule::new(FhpVariant::I, seed ^ 0xc41).with_wrap(rows, cols);
            let reference = evolve(&g, &rule, Boundary::Periodic, 0, steps);
            let mut packed = FhpBitLattice::from_grid(&g, seed ^ 0xc41).unwrap();
            packed.run(steps);
            prop_assert_eq!(packed.to_grid(), reference);
            prop_assert_eq!(packed.time(), steps);
        }
    }
}
