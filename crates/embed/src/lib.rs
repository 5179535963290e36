//! # lattice-embed
//!
//! Embeddings of 2-D arrays into linear streams, and the storage lower
//! bounds they impose on serial pipelined lattice engines.
//!
//! §3 of the paper: a serial pipeline must present sites to each PE in a
//! fixed linear order, and "the lattice gas automaton can require a large
//! amount of local memory per PE because there is no sublinear embedding
//! of an array into a list \[12\]". The paper proves (Theorem 1, credited
//! to Supowit & Young \[19\]) that **any** placement of `1..n²` into an
//! `n × n` array has *span* ≥ `n`, where the span is the largest
//! first-difference along rows or columns — equivalently, the bandwidth
//! of the `n × n` grid graph under the inverse labeling. Row-major
//! achieves span exactly `n`, hence is optimal, and a full hex
//! 2-neighborhood is spread over `2n − 2` stream positions, which is the
//! shift-register length the WSA architecture pays for.
//!
//! This crate provides:
//!
//! * [`Embedding`] — a bijection `array ↔ stream position` with span and
//!   neighborhood-diameter measurement ([`span()`], [`window_span`]);
//! * canonical embeddings ([`maps`]): row-major, boustrophedon, block
//!   row-major, Morton (Z-order), and Hilbert;
//! * an exact branch-and-bound decision procedure ([`search`]) verifying
//!   Theorem 1 exhaustively for small `n`: no embedding of span `n − 1`
//!   exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod maps;
pub mod rect;
pub mod search;
pub mod span;

pub use maps::{BlockRowMajor, Boustrophedon, Hilbert, Morton, RowMajor};
pub use rect::{rect_min_span_exists, rect_span, RectColMajor, RectEmbedding, RectRowMajor};
pub use search::min_span_exists;
pub use span::{hex_window_span, span, window_span};

/// A bijective embedding of the `n × n` array into stream positions
/// `0..n²`.
///
/// Implementations must be bijections; [`span::verify_bijection`] checks
/// this and the unit-test suites call it for every map.
pub trait Embedding {
    /// Side length of the array.
    fn n(&self) -> usize;

    /// Stream position of array cell `(row, col)`; must be `< n²` and
    /// unique per cell.
    fn position(&self, row: usize, col: usize) -> usize;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}
