//! The HPP lattice gas (Hardy, Pomeau & de Pazzis, 1973 — paper ref \[4\]).
//!
//! Four unit-speed particle channels on the orthogonal lattice. The only
//! collision: an exactly head-on pair with both transverse channels empty
//! rotates 90°. Mass and momentum are conserved; the model is *not*
//! isotropic ("the older HPP model, which uses an orthogonal lattice, does
//! not lead to isotropic solutions", §2), which is precisely why the paper
//! moves to FHP — but HPP remains the minimal 2-D conserving workload and
//! we use it for engine validation and D = 4-bit bandwidth ablations.
//!
//! State byte layout: bits 0..4 = particles moving E, N, W, S; bit 7 =
//! obstacle flag ([`crate::OBSTACLE_BIT`]). An update step is the fused
//! *collide-then-stream*: the new state of site `a` collects, for each
//! direction, the post-collision particle leaving the appropriate
//! neighbor toward `a`.

use crate::bitparallel::HppBitLattice;
#[cfg(test)]
use crate::prng;
use crate::table::{CollisionTable, Invariants};
use crate::{is_obstacle, OBSTACLE_BIT};
use lattice_core::{BlockKernel, RowSource, Rule, Window};

/// Particle channel directions, counterclockwise from +x.
///
/// Rows grow downward in grid coordinates, so N is row −1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HppDir {
    /// +x (east).
    E = 0,
    /// +y (north, row − 1).
    N = 1,
    /// −x (west).
    W = 2,
    /// −y (south, row + 1).
    S = 3,
}

/// All four HPP directions in channel-bit order.
pub const HPP_DIRS: [HppDir; 4] = [HppDir::E, HppDir::N, HppDir::W, HppDir::S];

/// Mask of the four particle channels.
pub const HPP_MASK: u8 = 0b0000_1111;

impl HppDir {
    /// Channel bit for this direction.
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Velocity (vx, vy) with +y pointing north.
    pub fn velocity(self) -> (i32, i32) {
        match self {
            HppDir::E => (1, 0),
            HppDir::N => (0, 1),
            HppDir::W => (-1, 0),
            HppDir::S => (0, -1),
        }
    }

    /// Grid offset (d_row, d_col) a particle moving this way travels per
    /// step.
    pub fn grid_offset(self) -> (isize, isize) {
        match self {
            HppDir::E => (0, 1),
            HppDir::N => (-1, 0),
            HppDir::W => (0, -1),
            HppDir::S => (1, 0),
        }
    }

    /// The opposite direction.
    pub fn opposite(self) -> HppDir {
        HPP_DIRS[(self as usize + 2) % 4]
    }
}

/// Mass and integer momentum of an HPP state byte (obstacle bit carries
/// no particles and no momentum of its own).
pub fn hpp_invariants(s: u8) -> Invariants {
    let mut mass = 0;
    let mut px = 0;
    let mut py = 0;
    for d in HPP_DIRS {
        if s & d.bit() != 0 {
            mass += 1;
            let (vx, vy) = d.velocity();
            px += vx;
            py += vy;
        }
    }
    Invariants { mass, momentum: [px, py, 0] }
}

/// Pure HPP collision on the channel bits (no obstacle handling).
///
/// Head-on pairs with empty transverse channels rotate 90°; everything
/// else passes through.
pub fn hpp_collide_channels(ch: u8) -> u8 {
    match ch & HPP_MASK {
        0b0101 => 0b1010, // E+W -> N+S
        0b1010 => 0b0101, // N+S -> E+W
        other => other,
    }
}

/// Bounce-back: reverse every particle (obstacle sites).
pub fn hpp_bounce(ch: u8) -> u8 {
    let ch = ch & HPP_MASK;
    ((ch << 2) | (ch >> 2)) & HPP_MASK
}

/// Builds the verified HPP collision table (obstacle-aware).
pub fn hpp_table() -> CollisionTable {
    CollisionTable::build(
        "hpp",
        |s| s & !(HPP_MASK | OBSTACLE_BIT) == 0,
        |s| {
            let inv = hpp_invariants(s);
            if is_obstacle(s) {
                // Walls absorb momentum: only mass is invariant there.
                Invariants { mass: inv.mass, momentum: [0, 0, 0] }
            } else {
                inv
            }
        },
        |s, _| {
            if is_obstacle(s) {
                OBSTACLE_BIT | hpp_bounce(s)
            } else {
                hpp_collide_channels(s)
            }
        },
    )
    .expect("HPP collision rule conserves mass and momentum by construction")
}

/// The HPP gas as a lattice-core update rule (fused collide + stream).
#[derive(Debug, Clone)]
pub struct HppRule {
    table: CollisionTable,
}

impl HppRule {
    /// Creates the rule. HPP is deterministic, so no seed is needed.
    pub fn new() -> Self {
        HppRule { table: hpp_table() }
    }

    /// The underlying verified collision table.
    pub fn table(&self) -> &CollisionTable {
        &self.table
    }
}

impl Default for HppRule {
    fn default() -> Self {
        HppRule::new()
    }
}

impl Rule for HppRule {
    type S = u8;

    fn update(&self, w: &Window<u8>) -> u8 {
        debug_assert_eq!(w.rank(), 2);
        // Keep this site's obstacle flag; collect arriving particles.
        let mut out = w.center() & OBSTACLE_BIT;
        for d in HPP_DIRS {
            // A particle moving in direction d arrives from the neighbor
            // opposite to d's travel offset.
            let (dr, dc) = d.grid_offset();
            let src = w.at2(-dr, -dc);
            let post = self.table.collide(src, false);
            out |= post & d.bit();
        }
        out
    }

    fn name(&self) -> &str {
        "hpp"
    }

    /// The bit-plane kernel under the null boundary
    /// ([`HppBitLattice::from_rows_null`]), packed from `src` a row at
    /// a time. HPP is deterministic and coordinate-free, so `t0` and
    /// `origin` do not enter. Blocks with obstacle (or any other
    /// non-channel) bits, and non-2-D blocks, are declined.
    fn block_kernel(
        &self,
        src: &dyn RowSource<u8>,
        _t0: u64,
        _origin: (usize, usize),
    ) -> Option<Box<dyn BlockKernel<u8>>> {
        let bits = HppBitLattice::from_rows_null(src).ok()?;
        Some(Box::new(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use lattice_core::{evolve, Boundary, Coord, Grid, RowSink, Shape};
    use proptest::prelude::*;
    use std::ops::Range;

    #[test]
    fn direction_geometry() {
        for d in HPP_DIRS {
            assert_eq!(d.opposite().opposite(), d);
            let (vx, vy) = d.velocity();
            let (ox, oy) = d.opposite().velocity();
            assert_eq!((vx + ox, vy + oy), (0, 0));
            // Grid offset is velocity with the row axis flipped.
            let (dr, dc) = d.grid_offset();
            assert_eq!((dc as i32, -(dr as i32)), (vx, vy));
        }
    }

    #[test]
    fn collision_cases() {
        assert_eq!(hpp_collide_channels(0b0101), 0b1010);
        assert_eq!(hpp_collide_channels(0b1010), 0b0101);
        // Anything else is untouched, including 3- and 4-particle states.
        for s in [0b0000u8, 0b0001, 0b0011, 0b0111, 0b1111, 0b1001] {
            assert_eq!(hpp_collide_channels(s), s);
        }
    }

    #[test]
    fn bounce_reverses() {
        assert_eq!(hpp_bounce(HppDir::E.bit()), HppDir::W.bit());
        assert_eq!(hpp_bounce(HppDir::N.bit()), HppDir::S.bit());
        assert_eq!(hpp_bounce(0b1111), 0b1111);
        assert_eq!(hpp_bounce(0b0110), 0b1001);
    }

    #[test]
    fn table_conserves_and_is_involution() {
        let t = hpp_table();
        assert!(t.is_involution());
        for s in 0..=255u8 {
            if s & !(HPP_MASK | OBSTACLE_BIT) != 0 || is_obstacle(s) {
                continue;
            }
            let out = t.collide(s, false);
            assert_eq!(hpp_invariants(out), hpp_invariants(s), "state {s:#010b}");
        }
    }

    #[test]
    fn single_particle_streams_east() {
        let shape = Shape::grid2(3, 5).unwrap();
        let mut g = Grid::new(shape);
        g.set(Coord::c2(1, 1), HppDir::E.bit());
        let g1 = evolve(&g, &HppRule::new(), Boundary::Periodic, 0, 1);
        assert_eq!(g1.get(Coord::c2(1, 2)), HppDir::E.bit());
        assert_eq!(g1.count(|s| s != 0), 1);
        // After 5 steps it wraps to its start column.
        let g5 = evolve(&g, &HppRule::new(), Boundary::Periodic, 0, 5);
        assert_eq!(g5.get(Coord::c2(1, 1)), HppDir::E.bit());
    }

    #[test]
    fn head_on_pair_scatters() {
        // E-mover at (1,1) and W-mover at (1,3) meet at (1,2) and rotate.
        let shape = Shape::grid2(3, 5).unwrap();
        let mut g = Grid::new(shape);
        g.set(Coord::c2(1, 1), HppDir::E.bit());
        g.set(Coord::c2(1, 3), HppDir::W.bit());
        let g1 = evolve(&g, &HppRule::new(), Boundary::Periodic, 0, 1);
        assert_eq!(g1.get(Coord::c2(1, 2)), HppDir::E.bit() | HppDir::W.bit());
        // Next step, they collide: N+S leave site (1,2).
        let g2 = evolve(&g, &HppRule::new(), Boundary::Periodic, 0, 2);
        assert_eq!(g2.get(Coord::c2(0, 2)), HppDir::N.bit());
        assert_eq!(g2.get(Coord::c2(2, 2)), HppDir::S.bit());
        assert_eq!(g2.get(Coord::c2(1, 2)), 0);
    }

    #[test]
    fn obstacle_bounces_particle_back() {
        let shape = Shape::grid2(3, 5).unwrap();
        let mut g = Grid::new(shape);
        g.set(Coord::c2(1, 1), HppDir::E.bit());
        g.set(Coord::c2(1, 2), OBSTACLE_BIT);
        // t=1: particle enters the obstacle site.
        let g1 = evolve(&g, &HppRule::new(), Boundary::Periodic, 0, 1);
        assert_eq!(g1.get(Coord::c2(1, 2)), OBSTACLE_BIT | HppDir::E.bit());
        // t=2: it has been reflected and leaves westward.
        let g2 = evolve(&g, &HppRule::new(), Boundary::Periodic, 0, 2);
        assert_eq!(g2.get(Coord::c2(1, 1)), HppDir::W.bit());
        assert_eq!(g2.get(Coord::c2(1, 2)), OBSTACLE_BIT);
    }

    #[test]
    fn mass_conserved_on_torus() {
        let shape = Shape::grid2(8, 8).unwrap();
        let g = Grid::from_fn(shape, |c| {
            (prng::site_hash(shape.linear(c) as u64, 0, 5) & HPP_MASK as u64) as u8
        });
        let mass0: u32 = g.as_slice().iter().map(|&s| (s & HPP_MASK).count_ones()).sum();
        let gn = evolve(&g, &HppRule::new(), Boundary::Periodic, 0, 20);
        let mass: u32 = gn.as_slice().iter().map(|&s| (s & HPP_MASK).count_ones()).sum();
        assert_eq!(mass, mass0);
    }

    #[test]
    fn momentum_conserved_on_torus_without_obstacles() {
        let shape = Shape::grid2(8, 8).unwrap();
        let g = Grid::from_fn(shape, |c| {
            (prng::site_hash(shape.linear(c) as u64, 1, 9) & HPP_MASK as u64) as u8
        });
        let p0 = total_momentum(&g);
        let gn = evolve(&g, &HppRule::new(), Boundary::Periodic, 0, 25);
        assert_eq!(total_momentum(&gn), p0);
    }

    #[test]
    fn block_kernel_equals_the_null_boundary_reference() {
        let rule = HppRule::new();
        for (rows, cols) in [(1usize, 5usize), (6, 63), (5, 64), (4, 65), (3, 128)] {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = Grid::from_fn(shape, |c| {
                (prng::site_hash(shape.linear(c) as u64, 2, 13) & HPP_MASK as u64) as u8
            });
            for gens in 0..4usize {
                let reference = evolve(&g, &rule, Boundary::null(), 7, gens as u64);
                let mut out = Grid::new(shape);
                assert!(rule.evolve_block(&g, &mut out, 7, gens, (3, usize::MAX)));
                assert_eq!(out, reference);
            }
        }
    }

    #[test]
    fn block_kernel_declines_obstacles_and_other_ranks() {
        let rule = HppRule::new();
        let shape = Shape::grid2(3, 5).unwrap();
        let mut g = Grid::new(shape);
        g.set(Coord::c2(1, 2), OBSTACLE_BIT);
        let mut out = Grid::filled(shape, 0xAA);
        assert!(!rule.evolve_block(&g, &mut out, 0, 2, (0, 0)));
        assert_eq!(out, Grid::filled(shape, 0xAA), "a declined block leaves the sink alone");
        let line: Grid<u8> = Grid::new(Shape::line(8).unwrap());
        assert!(!rule.evolve_block(&line, &mut line.clone(), 0, 1, (0, 0)));
    }

    #[test]
    fn a_resident_kernel_chains_runs_and_pastes() {
        // `a` generations, a window of fresh sites pasted in (across
        // word boundaries, at the edges, the whole block), `b` more:
        // the same as evolving, overwriting the window, and evolving.
        let rule = HppRule::new();
        for (rows, cols, at, size) in [
            (6usize, 70usize, (1usize, 60usize), (3usize, 9usize)),
            (5, 130, (0, 0), (5, 2)),
            (5, 130, (0, 128), (5, 2)),
            (4, 64, (3, 1), (1, 63)),
            (3, 9, (0, 0), (3, 9)),
        ] {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = init::random_hpp(shape, 0.5, (rows * cols) as u64).unwrap();
            let patch_shape = Shape::grid2(size.0, size.1).unwrap();
            let patch = init::random_hpp(patch_shape, 0.5, 3).unwrap();
            let mut kernel = rule.block_kernel(&g, 0, (0, 0)).unwrap();
            let mut frame = Vec::new();
            rule.block_kernel(&patch, 0, (0, 0)).unwrap().copy((0..size.0, 0..size.1), &mut frame);
            kernel.run(2);
            kernel.paste(at, size, &frame);
            kernel.run(3);
            let mut out = Grid::filled(shape, 0xAA);
            kernel.unpack(&mut out);
            let mut mid = evolve(&g, &rule, Boundary::null(), 0, 2);
            for (i, &site) in patch.as_slice().iter().enumerate() {
                mid.set(Coord::c2(at.0 + i / size.1, at.1 + i % size.1), site);
            }
            let want = evolve(&mid, &rule, Boundary::null(), 2, 3);
            assert_eq!(out, want, "{rows}x{cols} at {at:?} size {size:?}");
        }
    }

    #[test]
    fn a_kernel_pastes_another_kernels_frames_and_wraps_the_torus() {
        // A window copied out of one kernel's planes and pasted into
        // another's overwrites exactly that window with its sites.
        let rule = HppRule::new();
        let shape = Shape::grid2(6, 131).unwrap();
        let (g, other) =
            (init::random_hpp(shape, 0.5, 8).unwrap(), init::random_hpp(shape, 0.5, 9).unwrap());
        let mut donor = rule.block_kernel(&other, 0, (0, 0)).unwrap();
        donor.run(2);
        let sites = evolve(&other, &rule, Boundary::null(), 0, 2);
        for (rows, cols, at) in
            [(0..6, 0..1, (0, 130)), (1..3, 60..131, (4, 0)), (5..6, 3..67, (0, 64))]
        {
            let size = (rows.len(), cols.len());
            let mut want = g.clone();
            for (r, c) in rows.clone().flat_map(|r| cols.clone().map(move |c| (r, c))) {
                let site = sites.get(Coord::c2(r, c));
                want.set(Coord::c2(at.0 + r - rows.start, at.1 + c - cols.start), site);
            }
            let mut pasted = rule.block_kernel(&g, 0, (0, 0)).unwrap();
            let mut frame = Vec::new();
            donor.copy((rows, cols), &mut frame);
            pasted.paste(at, size, &frame);
            let mut out = Grid::new(shape);
            pasted.unpack(&mut out);
            assert_eq!(out, want, "{size:?} at {at:?}");
        }
        // Wrapped on both axes, a null-boundary block is the torus.
        let mut torus = rule.block_kernel(&g, 0, (0, 0)).unwrap();
        assert!(torus.wrap(true, true));
        torus.run(5);
        let mut out = Grid::new(shape);
        torus.unpack(&mut out);
        assert_eq!(out, evolve(&g, &rule, Boundary::Periodic, 0, 5));
    }

    /// A `shape`-sized block of a torus lattice whose site `(0, 0)` is
    /// lattice site `at`: its rows and columns wrap, as many times as
    /// the block is larger than the lattice.
    struct TorusWindow<'a> {
        lattice: &'a Grid<u8>,
        at: (usize, usize),
        shape: Shape,
    }

    impl RowSource<u8> for TorusWindow<'_> {
        fn shape(&self) -> Shape {
            self.shape
        }
        fn fill_row(&self, r: usize, row: &mut [u8]) {
            let (rows, cols) = (self.lattice.shape().rows(), self.lattice.shape().cols());
            for (c, site) in row.iter_mut().enumerate() {
                let at = Coord::c2((self.at.0 + r) % rows, (self.at.1 + c) % cols);
                *site = self.lattice.get(at);
            }
        }
    }

    /// Keeps a window of a block, counting how often each row is
    /// handed out.
    struct Kept {
        out: Grid<u8>,
        rows: Range<usize>,
        cols: Range<usize>,
        handed: Vec<usize>,
    }

    impl RowSink<u8> for Kept {
        fn window(&self) -> (Range<usize>, Range<usize>) {
            (self.rows.clone(), self.cols.clone())
        }
        fn row_mut(&mut self, r: usize) -> &mut [u8] {
            self.handed[r] += 1;
            let cols = self.out.shape().cols();
            &mut self.out.as_mut_slice()[r * cols..][self.cols.clone()]
        }
    }

    /// A sub-range of `0..n` from two fractions.
    fn span(n: usize, a: f64, b: f64) -> Range<usize> {
        let lo = ((n - 1) as f64 * a.min(b)) as usize;
        let hi = ((n - 1) as f64 * a.max(b)) as usize + 1;
        lo..hi
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Fed row by row from a window that wraps a torus on both axes,
        /// the kernel hands back each kept row once, equal to the null
        /// boundary reference on every kept site, and writes nothing
        /// else.
        #[test]
        fn row_fed_kernel_equals_the_null_reference_on_every_kept_row(
            lat in (1usize..=40, 1usize..=200),
            block in (1usize..=40, 1usize..=200),
            at in (0usize..40, 0usize..200),
            k in 1usize..=8,
            window in (0f64..1.0, 0f64..1.0, 0f64..1.0, 0f64..1.0),
            density in 0.05f64..0.95,
            seed in any::<u64>(),
        ) {
            let lattice = init::random_hpp(Shape::grid2(lat.0, lat.1).unwrap(), density, seed).unwrap();
            let (rows, cols) = block;
            let shape = Shape::grid2(rows, cols).unwrap();
            let src = TorusWindow { lattice: &lattice, at, shape };
            let block = Grid::from_rows(&src);
            let reference = evolve(&block, &HppRule::new(), Boundary::null(), 0, k as u64);
            let mut sink = Kept {
                out: Grid::filled(shape, 0xAA),
                rows: span(rows, window.0, window.1),
                cols: span(cols, window.2, window.3),
                handed: vec![0; rows],
            };
            prop_assert!(HppRule::new().evolve_block(&src, &mut sink, 0, k, (0, 0)));
            for r in 0..rows {
                let kept_row = sink.rows.contains(&r);
                prop_assert_eq!(sink.handed[r], usize::from(kept_row), "row {}", r);
                for c in 0..cols {
                    let at = Coord::c2(r, c);
                    let want = if kept_row && sink.cols.contains(&c) { reference.get(at) } else { 0xAA };
                    prop_assert_eq!(sink.out.get(at), want, "site ({}, {})", r, c);
                }
            }
        }
    }

    fn total_momentum(g: &Grid<u8>) -> (i64, i64) {
        g.as_slice().iter().fold((0, 0), |(px, py), &s| {
            let inv = hpp_invariants(s);
            (px + inv.momentum[0] as i64, py + inv.momentum[1] as i64)
        })
    }
}
