//! # lattice-vlsi
//!
//! The paper's §6 design-space analysis as an executable model: chip
//! technology constants, pin/area constraint systems for the WSA, SPA,
//! and WSA-E architectures, design-curve samplers, optimal operating
//! point solvers, and the §6.3 architecture comparisons.
//!
//! All quantities follow the paper's notation:
//!
//! | symbol | meaning |
//! |--------|---------|
//! | `N`    | total number of chips |
//! | `P`    | processing elements per chip |
//! | `k`    | pipeline depth in PEs |
//! | `F`    | major cycle (clock) frequency |
//! | `D`    | bits per lattice site |
//! | `L`    | sites along an edge of the square lattice |
//! | `Π`    | usable I/O pins per chip |
//! | `β`    | area of one site's shift register; `B = β/α` |
//! | `γ`    | area of one PE; `Γ = γ/α` |
//! | `α`    | usable chip area (normalizer) |
//! | `W`    | SPA slice width |
//! | `E`    | bits to complete a neighborhood across a slice boundary |
//!
//! The defaults in [`Technology::paper_1987`] are the paper's measured
//! 3µ-CMOS layout constants (`D = 8`, `Π = 72`, `B = 576·10⁻⁶`,
//! `Γ = 19.4·10⁻³`, `E = 3`, `F = 10 MHz`), which reproduce the published
//! operating points: WSA `P ≈ 4, L ≈ 785`; SPA `P ≈ 13.5, W ≈ 43`
//! (12 PEs/chip after integer rounding).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod compare;
pub mod competitors;
pub mod farm;
pub mod report;
pub mod spa;
pub mod tech;
pub mod wsa;
pub mod wsae;

pub use compare::{optimized_comparison, wsae_vs_spa, ArchComparison, WsaeSpaComparison};
pub use farm::{FarmModel, LinkBudget, LinkTier};
pub use spa::SpaDesign;
pub use tech::Technology;
pub use wsa::WsaDesign;
pub use wsae::WsaeDesign;
