//! The reference cellular-automaton engine.
//!
//! This is the specification the architectural simulators are verified
//! against: a plain double-buffered synchronous update, one whole lattice
//! generation at a time. Its output defines "correct" for every engine in
//! `lattice-engines-sim`.

use crate::boundary::Boundary;
use crate::grid::Grid;
use crate::rule::Rule;
use crate::LatticeError;

/// Computes one generation: `dst[a] = rule(window(src, a))` for every site.
///
/// `time` is the generation number of `src`; windows are stamped with it
/// so stochastic rules can derive per-site randomness.
pub fn evolve_into<R: Rule>(
    src: &Grid<R::S>,
    dst: &mut Grid<R::S>,
    rule: &R,
    boundary: Boundary<R::S>,
    time: u64,
) -> Result<(), LatticeError> {
    if src.shape() != dst.shape() {
        return Err(LatticeError::ShapeMismatch {
            left: src.shape().dims().to_vec(),
            right: dst.shape().dims().to_vec(),
        });
    }
    let shape = src.shape();
    for idx in 0..shape.len() {
        let w = src.window(shape.coord(idx), time, boundary);
        dst.set_linear(idx, rule.update(&w));
    }
    Ok(())
}

/// Evolves `grid` by `steps` generations sequentially, starting at
/// generation `t0`, and returns the result.
pub fn evolve<R: Rule>(
    grid: &Grid<R::S>,
    rule: &R,
    boundary: Boundary<R::S>,
    t0: u64,
    steps: u64,
) -> Grid<R::S> {
    let mut ev = Evolver::new(grid.clone(), boundary, t0);
    ev.run(rule, steps);
    ev.into_grid()
}

/// A double-buffered evolution driver that tracks the generation number.
#[derive(Debug, Clone)]
pub struct Evolver<S: crate::State> {
    front: Grid<S>,
    back: Grid<S>,
    boundary: Boundary<S>,
    time: u64,
}

impl<S: crate::State> Evolver<S> {
    /// Creates an evolver over `grid` with the given boundary, starting at
    /// generation `t0`.
    pub fn new(grid: Grid<S>, boundary: Boundary<S>, t0: u64) -> Self {
        let back = Grid::new(grid.shape());
        Evolver { front: grid, back, boundary, time: t0 }
    }

    /// Current generation number.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The current lattice state.
    pub fn grid(&self) -> &Grid<S> {
        &self.front
    }

    /// The boundary condition in effect.
    pub fn boundary(&self) -> Boundary<S> {
        self.boundary
    }

    /// Advances one generation with `rule`.
    pub fn step<R: Rule<S = S>>(&mut self, rule: &R) {
        evolve_into(&self.front, &mut self.back, rule, self.boundary, self.time)
            .expect("front and back buffers share a shape");
        std::mem::swap(&mut self.front, &mut self.back);
        self.time += 1;
    }

    /// Advances `steps` generations.
    pub fn run<R: Rule<S = S>>(&mut self, rule: &R, steps: u64) {
        for _ in 0..steps {
            self.step(rule);
        }
    }

    /// Consumes the evolver, returning the final lattice.
    pub fn into_grid(self) -> Grid<S> {
        self.front
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{Coord, Shape};
    use crate::rule::IdentityRule;
    use crate::window::Window;

    /// Sum of the von Neumann neighborhood mod 251 — an arbitrary but
    /// deterministic rule exercising multiple window cells.
    struct SumRule;
    impl Rule for SumRule {
        type S = u8;
        fn update(&self, w: &Window<u8>) -> u8 {
            let s = w.center() as u32
                + w.at2(-1, 0) as u32
                + w.at2(1, 0) as u32
                + w.at2(0, -1) as u32
                + w.at2(0, 1) as u32;
            (s % 251) as u8
        }
    }

    fn ramp(shape: Shape) -> Grid<u8> {
        Grid::from_fn(shape, |c| (shape.linear(c) % 256) as u8)
    }

    #[test]
    fn identity_is_fixed_point() {
        let g = ramp(Shape::grid2(4, 5).unwrap());
        let out = evolve(&g, &IdentityRule::<u8>::new(), Boundary::null(), 0, 3);
        assert_eq!(out, g);
    }

    #[test]
    fn evolve_into_shape_mismatch_is_error() {
        let a = ramp(Shape::grid2(3, 3).unwrap());
        let mut b = Grid::new(Shape::grid2(3, 4).unwrap());
        assert!(evolve_into(&a, &mut b, &IdentityRule::<u8>::new(), Boundary::null(), 0).is_err());
    }

    #[test]
    fn sum_rule_null_boundary_hand_checked() {
        // 1×3 lattice [1,2,3]: new center = 2 + 1 + 3 = 6 (no vertical
        // neighbors in a single-row 2-D lattice → null fills).
        let g = Grid::from_vec(Shape::grid2(1, 3).unwrap(), vec![1u8, 2, 3]).unwrap();
        let out = evolve(&g, &SumRule, Boundary::null(), 0, 1);
        assert_eq!(out.as_slice(), &[3, 6, 5]);
    }

    #[test]
    fn sum_rule_periodic_boundary_hand_checked() {
        let g = Grid::from_vec(Shape::grid2(1, 3).unwrap(), vec![1u8, 2, 3]).unwrap();
        let out = evolve(&g, &SumRule, Boundary::Periodic, 0, 1);
        // Rows wrap to the same row: vertical neighbors are the site
        // itself (2 extra copies of center). center: 2*3 + 1 + 3 = 10.
        assert_eq!(out.as_slice(), &[3 + 3 + 2, 2 * 3 + 1 + 3, 3 * 3 + 2 + 1]);
    }

    #[test]
    fn evolver_tracks_time_and_swaps_buffers() {
        let g = ramp(Shape::grid2(4, 4).unwrap());
        let mut ev = Evolver::new(g.clone(), Boundary::null(), 10);
        assert_eq!(ev.time(), 10);
        ev.step(&SumRule);
        assert_eq!(ev.time(), 11);
        ev.step(&SumRule);
        assert_eq!(ev.time(), 12);

        let two_step = evolve(&g, &SumRule, Boundary::null(), 10, 2);
        assert_eq!(ev.grid(), &two_step);
        assert_eq!(ev.boundary(), Boundary::null());
    }

    #[test]
    fn evolve_3d_runs() {
        let shape = Shape::grid3(3, 3, 3).unwrap();
        let g = ramp(shape);
        struct Sum3;
        impl Rule for Sum3 {
            type S = u8;
            fn update(&self, w: &Window<u8>) -> u8 {
                w.cells().iter().fold(0u8, |a, &b| a.wrapping_add(b))
            }
        }
        let out = evolve(&g, &Sum3, Boundary::Periodic, 0, 2);
        assert_eq!(out.shape(), shape);
    }

    #[test]
    fn time_is_passed_to_windows() {
        struct TimeProbe;
        impl Rule for TimeProbe {
            type S = u8;
            fn update(&self, w: &Window<u8>) -> u8 {
                w.time() as u8
            }
        }
        let g = ramp(Shape::grid2(2, 2).unwrap());
        let out = evolve(&g, &TimeProbe, Boundary::null(), 41, 1);
        assert_eq!(out.as_slice(), &[41, 41, 41, 41]);
        // After two steps the grid holds t0+1.
        let out = evolve(&g, &TimeProbe, Boundary::null(), 41, 2);
        assert_eq!(out.as_slice(), &[42, 42, 42, 42]);
    }

    #[test]
    fn coord_metadata_reaches_rules() {
        struct CoordProbe;
        impl Rule for CoordProbe {
            type S = u8;
            fn update(&self, w: &Window<u8>) -> u8 {
                (w.coord().row() * 10 + w.coord().col()) as u8
            }
        }
        let g = ramp(Shape::grid2(2, 3).unwrap());
        let out = evolve(&g, &CoordProbe, Boundary::null(), 0, 1);
        assert_eq!(out.get(Coord::c2(1, 2)), 12);
        assert_eq!(out.get(Coord::c2(0, 1)), 1);
    }
}
