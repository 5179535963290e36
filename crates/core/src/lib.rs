//! # lattice-core
//!
//! Foundation crate for the `lattice-engines` workspace: lattice geometry,
//! site grids, stencil neighborhoods, boundary conditions, raster-scan
//! streams, and a *reference* cellular-automaton engine (sequential and
//! thread-parallel).
//!
//! Every other crate in the workspace is defined relative to this one:
//!
//! * [`Shape`] / [`Coord`] — d-dimensional lattice geometry (d ≤ 4) with
//!   row-major linearization, the order in which the paper's serial
//!   pipelines stream sites.
//! * [`Grid`] — dense site storage, double-buffered by [`Evolver`].
//! * [`Window`] — the 3^d Moore window handed to update rules; lattice-gas
//!   rules (crate `lattice-gas`) read the subsets they need (orthogonal for
//!   HPP, parity-dependent hex for FHP).
//! * [`Rule`] — the local update function `v(a, t+1) = f(N(a), t)` from
//!   §3 of the paper.
//! * [`Boundary`] — fixed-value ("null") or periodic boundaries, the two
//!   regimes §7 of the paper admits.
//! * [`evolve`]/[`Evolver`] — the bit-exact reference engine that the
//!   architectural simulators in `lattice-engines-sim` are verified
//!   against.
//!
//! The reference engine is deliberately simple and obviously correct; the
//! performance-oriented implementations (line-buffer pipelines, wide-serial
//! stages, partitioned slices) live in `lattice-engines-sim` and must
//! reproduce this engine's output exactly.
//!
//! # Example
//!
//! A two-state majority-vote automaton on a small torus:
//!
//! ```
//! use lattice_core::{evolve, Boundary, Grid, Rule, Shape, Window};
//!
//! struct Majority;
//! impl Rule for Majority {
//!     type S = bool;
//!     fn update(&self, w: &Window<bool>) -> bool {
//!         w.cells().iter().filter(|&&b| b).count() * 2 > w.cells().len()
//!     }
//! }
//!
//! let shape = Shape::grid2(4, 4)?;
//! let grid = Grid::from_fn(shape, |c| (c.row() + c.col()) % 3 == 0);
//! let out = evolve(&grid, &Majority, Boundary::Periodic, 0, 2);
//! assert_eq!(out.shape(), shape);
//! # Ok::<(), lattice_core::LatticeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod boundary;
pub mod checkpoint;
pub mod coord;
pub mod engine;
pub mod error;
pub mod grid;
pub mod raster;
pub mod rule;
pub mod shard;
pub mod tiled;
pub mod units;
pub mod window;

pub use boundary::Boundary;
pub use coord::{Coord, Shape, MAX_DIMS};
pub use engine::{evolve, evolve_into, evolve_parallel, Evolver};
pub use error::LatticeError;
pub use grid::{Grid, RowSink, RowSource};
pub use raster::RasterScan;
pub use rule::{BlockKernel, Rule, State};
pub use window::Window;
