//! Bit-parallel ("multi-spin coded") gas kernels.
//!
//! The paper's software baseline — what a 1987 host could do without a
//! lattice engine — was multi-spin coding: pack the same channel bit of
//! 64 sites into one machine word and evaluate the collision rule as
//! boolean algebra on whole words. One word-op then advances 64 sites,
//! which is exactly the argument §1 makes for why "the performance of
//! such machines is limited … by the communication bandwidth … and by
//! the memory capacity", not raw ALU throughput.
//!
//! [`HppBitLattice`] implements the HPP gas this way, bit-exactly equal
//! to the table-driven [`HppRule`] under periodic boundaries (HPP is
//! deterministic, so exact equivalence is testable). The collision
//! formula: with channels `e, n, w, s`,
//!
//! ```text
//! swap = e & w & !n & !s  |  n & s & !e & !w
//! e' = e ^ swap,  n' = n ^ swap,  w' = w ^ swap,  s' = s ^ swap
//! ```
//!
//! (a head-on pair on one axis toggles both axes; anything else passes).
//!
//! Two boundaries are supported: the torus ([`HppBitLattice::from_grid`])
//! and the paper's null boundary ([`HppBitLattice::from_rows_null`]),
//! where streaming shifts zeros in at every edge. The null mode is what
//! [`HppRule`]'s `evolve_block` runs for a farm board's halo-framed
//! block, so it must equal the table engine on every site, edges
//! included. It packs the block a row at a time from a
//! [`RowSource`] and unpacks only the window a [`RowSink`] keeps, so a
//! board reads the lattice once and writes its owned sites once.
//!
//! It is also [`HppRule`]'s [`BlockKernel`]: a farm board keeps the
//! planes across the passes of a step, importing only its halo
//! between them ([`pack_window`]).
//!
//! Packing, unpacking and the row shift are [`lattice_core::bits`]'s
//! [`pack_rows`], [`unpack_rows`] and [`shift_row`].
//!
//! [`HppRule`]: crate::hpp::HppRule

use crate::hpp::HPP_MASK;
use lattice_core::bits::{
    copy_planes, pack_rows, pack_window, paste_planes, shift_row, unpack_rows,
};
use lattice_core::{BlockKernel, Grid, LatticeError, RowSink, RowSource, Shape};
use std::ops::Range;

/// The index of the first site with bits outside `mask`. A lattice
/// that has none costs one OR fold, which vectorises.
pub(crate) fn first_outside(sites: &[u8], mask: u8) -> Option<usize> {
    if sites.iter().fold(0, |any, s| any | s) & !mask == 0 {
        return None;
    }
    sites.iter().position(|s| s & !mask != 0)
}

/// Moves every row of a plane of `wpr`-word rows one row up (toward
/// row 0) or down. The row entering at the edge is the one leaving the
/// other edge when `periodic`, zero otherwise.
pub(crate) fn move_rows(plane: &mut [u64], wpr: usize, up: bool, periodic: bool) {
    let len = plane.len();
    match (up, periodic) {
        (true, true) => plane.rotate_left(wpr),
        (false, true) => plane.rotate_right(wpr),
        (true, false) => {
            plane.copy_within(wpr.., 0);
            plane[len - wpr..].fill(0);
        }
        (false, false) => {
            plane.copy_within(..len - wpr, wpr);
            plane[..wpr].fill(0);
        }
    }
}

/// An HPP lattice stored as four channel bit-planes, 64 sites per word,
/// packed along rows. Periodic or null boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HppBitLattice {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    /// Toroidal wrap of the rows (N/S streaming) and of the columns
    /// (E/W) when set; otherwise streaming shifts in zeros there.
    wrap_rows: bool,
    wrap_cols: bool,
    /// `planes[ch][row * words_per_row + w]`.
    planes: [Vec<u64>; 4],
}

impl HppBitLattice {
    /// Packs a byte-per-site HPP grid (2-D) into bit-planes, on the
    /// torus.
    pub fn from_grid(grid: &Grid<u8>) -> Result<Self, LatticeError> {
        Self::pack(grid, true)
    }

    /// Packs the byte-per-site HPP block `src` reads (2-D), a row at a
    /// time, into bit-planes under the null boundary: particles
    /// streaming off an edge are lost and nothing streams in, exactly
    /// like `evolve(block, &HppRule::new(), Boundary::null(), ..)`.
    pub fn from_rows_null(src: &dyn RowSource<u8>) -> Result<Self, LatticeError> {
        Self::pack(src, false)
    }

    fn pack(src: &dyn RowSource<u8>, periodic: bool) -> Result<Self, LatticeError> {
        let shape = src.shape();
        if shape.rank() != 2 {
            return Err(LatticeError::BadRank { rank: shape.rank() });
        }
        let (rows, cols) = (shape.rows(), shape.cols());
        let planes = pack_rows(src, |r, row| match first_outside(row, HPP_MASK) {
            None => Ok(()),
            Some(c) => Err(LatticeError::InvalidConfig(format!(
                "site ({r},{c}) = {:#04x} has non-HPP bits (obstacles are \
                 not supported by the bit-parallel kernel)",
                row[c]
            ))),
        })?;
        let words_per_row = cols.div_ceil(64);
        Ok(HppBitLattice {
            rows,
            cols,
            words_per_row,
            wrap_rows: periodic,
            wrap_cols: periodic,
            planes,
        })
    }

    /// Unpacks to a byte-per-site grid.
    pub fn to_grid(&self) -> Grid<u8> {
        let shape = Shape::grid2(self.rows, self.cols).expect("valid dimensions");
        let mut out = Grid::new(shape);
        self.unpack(&mut out);
        out
    }

    /// Writes the sites of the window `sink` keeps, and only those.
    pub fn unpack(&self, sink: &mut dyn RowSink<u8>) {
        unpack_rows(&self.planes, self.cols, sink);
    }

    /// Lattice rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Lattice columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Applies the collision step in place: word-parallel boolean
    /// algebra, no per-site branching.
    pub fn collide(&mut self) {
        // Phantom sites beyond `cols` hold no particles, and a swap
        // needs a head-on pair, so they never collide into existence.
        // Channel order is `HppDir`'s: E, N, W, S.
        let [pe, pn, pw, ps] = &mut self.planes;
        for (((e, n), w), s) in
            pe.iter_mut().zip(pn.iter_mut()).zip(pw.iter_mut()).zip(ps.iter_mut())
        {
            let swap = (*e & *w & !*n & !*s) | (*n & *s & !*e & !*w);
            *e ^= swap;
            *n ^= swap;
            *w ^= swap;
            *s ^= swap;
        }
    }

    /// Applies the streaming step: E/W planes shift along rows, N/S
    /// planes move whole rows, wrapping on the torus and shifting in
    /// zeros under the null boundary.
    pub fn stream(&mut self) {
        let wpr = self.words_per_row;
        let (cols, wrap_rows, wrap_cols) = (self.cols, self.wrap_rows, self.wrap_cols);
        // Channel order is `HppDir`'s: E, N, W, S.
        let [east, north, west, south] = &mut self.planes;
        for row in east.chunks_exact_mut(wpr) {
            shift_row(row, cols, true, wrap_cols);
        }
        for row in west.chunks_exact_mut(wpr) {
            shift_row(row, cols, false, wrap_cols);
        }
        // N movers go to row - 1, S movers to row + 1.
        move_rows(north, wpr, true, wrap_rows);
        move_rows(south, wpr, false, wrap_rows);
    }

    /// One full generation: collide then stream (matching
    /// [`crate::hpp::HppRule`]'s fused update order).
    pub fn step(&mut self) {
        self.collide();
        self.stream();
    }

    /// Evolves `steps` generations.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Total particle count.
    pub fn mass(&self) -> u64 {
        self.planes.iter().flat_map(|p| p.iter()).map(|w| w.count_ones() as u64).sum()
    }
}

impl BlockKernel<u8> for HppBitLattice {
    fn run(&mut self, generations: u64) {
        HppBitLattice::run(self, generations);
    }

    fn import(&mut self, at: (usize, usize), src: &dyn RowSource<u8>) {
        pack_window(&mut self.planes, self.cols, at, src);
    }

    fn unpack(&self, sink: &mut dyn RowSink<u8>) {
        HppBitLattice::unpack(self, sink);
    }

    fn copy(&self, window: (Range<usize>, Range<usize>), frame: &mut Vec<u64>) {
        copy_planes(&self.planes, self.cols, window, frame);
    }

    fn paste(&mut self, at: (usize, usize), shape: (usize, usize), frame: &[u64]) {
        paste_planes(&mut self.planes, self.cols, at, shape, frame);
    }

    fn wrap(&mut self, rows: bool, cols: bool) -> bool {
        (self.wrap_rows, self.wrap_cols) = (rows, cols);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpp::{HppDir, HppRule};
    use crate::init;
    use lattice_core::{evolve, Boundary, Coord};

    #[test]
    fn pack_unpack_roundtrip() {
        for (rows, cols) in [(4usize, 7usize), (1, 1), (2, 9), (8, 64), (3, 65), (5, 130), (2, 127)]
        {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = init::random_hpp(shape, 0.4, 9).unwrap();
            let packed = HppBitLattice::from_grid(&g).unwrap();
            assert_eq!(packed.to_grid(), g, "{rows}x{cols}");
        }
    }

    #[test]
    fn rejects_non_hpp_bits() {
        let shape = Shape::grid2(2, 2).unwrap();
        let mut g = Grid::new(shape);
        g.set_linear(0, crate::OBSTACLE_BIT);
        assert!(HppBitLattice::from_grid(&g).is_err());
        let g1: Grid<u8> = Grid::new(Shape::line(4).unwrap());
        assert!(HppBitLattice::from_grid(&g1).is_err());
    }

    #[test]
    fn bit_parallel_matches_reference_exactly() {
        for (rows, cols, steps) in
            [(8usize, 16usize, 10u64), (6, 64, 7), (5, 65, 5), (10, 130, 4), (3, 3, 12)]
        {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = init::random_hpp(shape, 0.45, rows as u64 * 31 + cols as u64).unwrap();
            let reference = evolve(&g, &HppRule::new(), Boundary::Periodic, 0, steps);
            let mut packed = HppBitLattice::from_grid(&g).unwrap();
            packed.run(steps);
            assert_eq!(packed.to_grid(), reference, "{rows}x{cols} steps={steps}");
        }
    }

    #[test]
    fn null_boundary_matches_reference_exactly() {
        for (rows, cols, steps) in [
            (1usize, 1usize, 3u64),
            (1, 9, 4),
            (7, 63, 6),
            (6, 64, 5),
            (5, 65, 7),
            (4, 128, 3),
            (9, 130, 9),
        ] {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = init::random_hpp(shape, 0.5, rows as u64 * 17 + cols as u64).unwrap();
            let reference = evolve(&g, &HppRule::new(), Boundary::null(), 0, steps);
            let mut packed = HppBitLattice::from_rows_null(&g).unwrap();
            packed.run(steps);
            assert_eq!(packed.to_grid(), reference, "{rows}x{cols} steps={steps}");
        }
    }

    #[test]
    fn null_streaming_drops_particles_at_every_edge() {
        let shape = Shape::grid2(3, 70).unwrap();
        let mut g = Grid::new(shape);
        g.set(Coord::c2(0, 69), HppDir::E.bit());
        g.set(Coord::c2(0, 5), HppDir::N.bit());
        g.set(Coord::c2(2, 63), HppDir::S.bit());
        g.set(Coord::c2(1, 0), HppDir::W.bit());
        g.set(Coord::c2(1, 64), HppDir::W.bit()); // crosses a word boundary
        let mut packed = HppBitLattice::from_rows_null(&g).unwrap();
        packed.stream();
        let out = packed.to_grid();
        assert_eq!(out.get(Coord::c2(1, 63)), HppDir::W.bit());
        assert_eq!(packed.mass(), 1);
    }

    #[test]
    fn collision_formula_by_cases() {
        let shape = Shape::grid2(1, 4).unwrap();
        // Head-on E+W, head-on N+S, pass-through 3-body, single.
        let g = Grid::from_vec(shape, vec![0b0101, 0b1010, 0b0111, 0b0001]).unwrap();
        let mut packed = HppBitLattice::from_grid(&g).unwrap();
        packed.collide();
        assert_eq!(packed.to_grid().as_slice(), &[0b1010, 0b0101, 0b0111, 0b0001]);
    }

    #[test]
    fn streaming_wraps_both_axes() {
        let shape = Shape::grid2(3, 70).unwrap(); // crosses a word boundary
        let mut g = Grid::new(shape);
        g.set(Coord::c2(0, 69), HppDir::E.bit()); // wraps to column 0
        g.set(Coord::c2(0, 0), HppDir::N.bit()); // wraps to row 2
        g.set(Coord::c2(2, 63), HppDir::S.bit()); // wraps to row 0
        g.set(Coord::c2(1, 64), HppDir::W.bit()); // crosses word down to 63
        let mut packed = HppBitLattice::from_grid(&g).unwrap();
        packed.stream();
        let out = packed.to_grid();
        assert_eq!(out.get(Coord::c2(0, 0)), HppDir::E.bit());
        assert_eq!(out.get(Coord::c2(0, 63)), HppDir::S.bit());
        assert_eq!(out.get(Coord::c2(2, 0)), HppDir::N.bit());
        assert_eq!(out.get(Coord::c2(1, 63)), HppDir::W.bit());
        assert_eq!(packed.mass(), 4);
    }

    #[test]
    fn mass_conserved_over_long_runs() {
        let shape = Shape::grid2(32, 100).unwrap();
        let g = init::random_hpp(shape, 0.3, 77).unwrap();
        let mut packed = HppBitLattice::from_grid(&g).unwrap();
        let m0 = packed.mass();
        packed.run(200);
        assert_eq!(packed.mass(), m0);
    }
}
