//! Dense site storage.

use crate::boundary::Boundary;
use crate::coord::{Coord, Shape};
use crate::rule::State;
use crate::window::{Window, WINDOW_MAX};
use crate::LatticeError;
use std::ops::Range;

/// A dense, row-major grid of site values over a [`Shape`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid<S: State> {
    shape: Shape,
    data: Vec<S>,
}

impl<S: State> Grid<S> {
    /// Creates a grid filled with the default ("null") state.
    pub fn new(shape: Shape) -> Self {
        Grid { shape, data: vec![S::default(); shape.len()] }
    }

    /// Creates a grid filled with `value`.
    pub fn filled(shape: Shape, value: S) -> Self {
        Grid { shape, data: vec![value; shape.len()] }
    }

    /// Creates a grid from existing row-major site data.
    pub fn from_vec(shape: Shape, data: Vec<S>) -> Result<Self, LatticeError> {
        if data.len() != shape.len() {
            return Err(LatticeError::LengthMismatch { expected: shape.len(), actual: data.len() });
        }
        Ok(Grid { shape, data })
    }

    /// Creates a grid by evaluating `f` at every coordinate.
    ///
    /// ```
    /// use lattice_core::{Coord, Grid, Shape};
    /// let shape = Shape::grid2(2, 3).unwrap();
    /// let g = Grid::from_fn(shape, |c| (c.row() * 10 + c.col()) as u8);
    /// assert_eq!(g.get(Coord::c2(1, 2)), 12);
    /// assert_eq!(g.as_slice(), &[0, 1, 2, 10, 11, 12]);
    /// ```
    pub fn from_fn(shape: Shape, mut f: impl FnMut(Coord) -> S) -> Self {
        let data = (0..shape.len()).map(|i| f(shape.coord(i))).collect();
        Grid { shape, data }
    }

    /// Reads every row of `src` into a grid of its shape.
    pub fn from_rows(src: &dyn RowSource<S>) -> Self {
        let mut grid = Grid::new(src.shape());
        let cols = grid.shape.cols();
        for (r, row) in grid.data.chunks_exact_mut(cols).enumerate() {
            src.fill_row(r, row);
        }
        grid
    }

    /// The grid's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the grid has no sites (never, for validated shapes).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Site value at `c`.
    pub fn get(&self, c: Coord) -> S {
        self.data[self.shape.linear(c)]
    }

    /// Site value at raster position `idx`.
    pub fn get_linear(&self, idx: usize) -> S {
        self.data[idx]
    }

    /// Sets the site at `c`.
    pub fn set(&mut self, c: Coord, v: S) {
        let i = self.shape.linear(c);
        self.data[i] = v;
    }

    /// Sets the site at raster position `idx`.
    pub fn set_linear(&mut self, idx: usize, v: S) {
        self.data[idx] = v;
    }

    /// The sites in raster order.
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Mutable access to the sites in raster order.
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Consumes the grid, returning its raster-order data.
    pub fn into_vec(self) -> Vec<S> {
        self.data
    }

    /// Reads the site at `c + delta`, applying the boundary condition.
    pub fn neighbor(&self, c: Coord, delta: &[isize], boundary: Boundary<S>) -> S {
        match boundary {
            Boundary::Periodic => {
                let nc =
                    self.shape.offset(c, delta, true).expect("periodic offset is always in bounds");
                self.get(nc)
            }
            Boundary::Fixed(fill) => match self.shape.offset(c, delta, false) {
                Some(nc) => self.get(nc),
                None => fill,
            },
        }
    }

    /// Gathers the radius-1 Moore window centered at `c` at generation
    /// `time`, applying the boundary condition for off-lattice cells.
    pub fn window(&self, c: Coord, time: u64, boundary: Boundary<S>) -> Window<S> {
        let rank = self.shape.rank();
        let mut cells = [S::default(); WINDOW_MAX];
        let n = crate::window::window_len(rank);
        for (idx, cell) in cells.iter_mut().enumerate().take(n) {
            let delta = crate::window::index_offset(rank, idx);
            *cell = self.neighbor(c, &delta[..rank], boundary);
        }
        Window::from_cells(rank, c, time, cells)
    }

    /// Counts sites matching a predicate.
    pub fn count(&self, pred: impl Fn(S) -> bool) -> usize {
        self.data.iter().filter(|&&s| pred(s)).count()
    }

    /// Applies `f` to every site in place.
    pub fn map_in_place(&mut self, f: impl Fn(Coord, S) -> S) {
        for i in 0..self.data.len() {
            self.data[i] = f(self.shape.coord(i), self.data[i]);
        }
    }
}

/// A block of sites read one row at a time: what a block kernel
/// ([`crate::Rule::block_kernel`]) packs its input from. A [`Grid`] is
/// its own source; a farm board's source builds each row from the
/// committed lattice with its received halo frames laid over it.
pub trait RowSource<S: State> {
    /// The block's shape.
    fn shape(&self) -> Shape;

    /// Fills `row` (one site per block column) with block row `r`.
    fn fill_row(&self, r: usize, row: &mut [S]);
}

/// Where a block kernel writes its output: only the block rows and
/// columns the caller keeps. A [`Grid`] keeps all of itself; a farm
/// board keeps its owned window, written straight into its rows of the
/// next lattice.
pub trait RowSink<S: State> {
    /// The kept block rows and columns.
    fn window(&self) -> (Range<usize>, Range<usize>);

    /// The kept sites of block row `r` (in `window().0`): one per
    /// column of `window().1`.
    fn row_mut(&mut self, r: usize) -> &mut [S];
}

impl<S: State> RowSource<S> for Grid<S> {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn fill_row(&self, r: usize, row: &mut [S]) {
        row.copy_from_slice(&self.data[r * row.len()..][..row.len()]);
    }
}

impl<S: State> RowSink<S> for Grid<S> {
    fn window(&self) -> (Range<usize>, Range<usize>) {
        let cols = self.shape.cols();
        (0..self.data.len() / cols, 0..cols)
    }

    fn row_mut(&mut self, r: usize) -> &mut [S] {
        let cols = self.shape.cols();
        &mut self.data[r * cols..][..cols]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Grid<u8> {
        let shape = Shape::grid2(3, 4).unwrap();
        Grid::from_fn(shape, |c| (c.row() * 4 + c.col()) as u8)
    }

    #[test]
    fn construction_and_access() {
        let g = small();
        assert_eq!(g.len(), 12);
        assert_eq!(g.get(Coord::c2(2, 3)), 11);
        assert_eq!(g.get_linear(5), 5);
        let mut g = g;
        g.set(Coord::c2(0, 0), 99);
        assert_eq!(g.get_linear(0), 99);
        g.set_linear(1, 98);
        assert_eq!(g.get(Coord::c2(0, 1)), 98);
    }

    #[test]
    fn from_vec_validates_length() {
        let shape = Shape::grid2(2, 2).unwrap();
        assert!(Grid::from_vec(shape, vec![1u8, 2, 3]).is_err());
        let g = Grid::from_vec(shape, vec![1u8, 2, 3, 4]).unwrap();
        assert_eq!(g.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(g.clone().into_vec(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn neighbor_fixed_boundary() {
        let g = small();
        let b = Boundary::Fixed(77);
        assert_eq!(g.neighbor(Coord::c2(0, 0), &[-1, 0], b), 77);
        assert_eq!(g.neighbor(Coord::c2(0, 0), &[1, 1], b), 5);
        assert_eq!(g.neighbor(Coord::c2(2, 3), &[0, 1], b), 77);
    }

    #[test]
    fn neighbor_periodic_boundary() {
        let g = small();
        let b = Boundary::Periodic;
        assert_eq!(g.neighbor(Coord::c2(0, 0), &[-1, -1], b), 11);
        assert_eq!(g.neighbor(Coord::c2(2, 3), &[1, 1], b), 0);
    }

    #[test]
    fn window_gather_center_and_edges() {
        let g = small();
        let w = g.window(Coord::c2(1, 1), 3, Boundary::null());
        assert_eq!(w.center(), 5);
        assert_eq!(w.at2(-1, -1), 0);
        assert_eq!(w.at2(1, 1), 10);
        assert_eq!(w.time(), 3);

        let w = g.window(Coord::c2(0, 0), 0, Boundary::null());
        assert_eq!(w.at2(-1, -1), 0); // off-lattice → null
        assert_eq!(w.at2(1, 1), 5);

        let w = g.window(Coord::c2(0, 0), 0, Boundary::Periodic);
        assert_eq!(w.at2(-1, -1), 11); // wraps to (2,3)
    }

    #[test]
    fn count_and_map() {
        let mut g = small();
        assert_eq!(g.count(|s| s % 2 == 0), 6);
        g.map_in_place(|_, s| s.wrapping_add(1));
        assert_eq!(g.get_linear(0), 1);
        assert_eq!(g.count(|s| s % 2 == 0), 6);
    }

    #[test]
    fn filled_grid() {
        let g: Grid<u8> = Grid::filled(Shape::line(5).unwrap(), 3);
        assert_eq!(g.count(|s| s == 3), 5);
        assert!(!g.is_empty());
    }
}
