//! # lattice-image
//!
//! Image-processing rules for the lattice engines — the paper's *other*
//! workload class.
//!
//! §1: "A familiar example of lattice-based computational tasks is
//! two-dimensional image processing. Many useful algorithms, such as
//! linear filtering and median filtering, recompute values the same way
//! everywhere on the image" — and the serial-pipeline technique itself
//! "has been used for image processing where the size of the
//! two-dimensional grid is small and fixed \[6,13,17\]". Sternberg, the
//! SPA's namesake, built exactly such machines (the *cytocomputer*) for
//! mathematical morphology \[17,18\].
//!
//! Every operation here is a `lattice_core::Rule`, so it runs unchanged
//! on the reference engine and on every architectural simulator in
//! `lattice-engines-sim` — bit-exactly, which the tests enforce. A
//! multi-stage pipeline of these rules is precisely what a cytocomputer
//! pipeline stage chain computed.
//!
//! * [`morphology`] — binary erosion, dilation, opening, closing under
//!   3×3 structuring elements (with the duality and idempotence laws
//!   property-tested);
//! * [`filter`] — box blur, median, threshold, and Sobel edge magnitude
//!   on 8-bit images.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod morphology;

pub use filter::{BoxBlur, Median3, Sobel, Threshold};
pub use morphology::{Dilate, Erode, StructuringElement};
