//! Wide-serial architecture (WSA) design space — §4 and §6.1.
//!
//! One pipeline stage per chip, `P` PEs per stage, the stage holding two
//! full lattice rows of shift register. Chip constraints (paper §6.1):
//!
//! ```text
//! pins:  2·D·P            ≤ Π
//! area:  (2L + 7P + 3)·B + Γ·P ≤ 1
//! ```
//!
//! (The area form is exactly what yields the paper's published curve
//! `P ≤ (1 − 3B − 2BL)/(7B + Γ)`: the two-row window is shared by the
//! stage and each PE adds 7 cells and Γ of logic.)
//!
//! System figures: `N = k` chips, `R = F·P·k` sites/s, maximum depth
//! `k_max = L` ("at that point the pipeline contains all the values of
//! the sites in the lattice").
//!
//! All derived figures carry their dimension as a `core::units` type:
//! areas are [`ChipArea`], pin usage is [`Pins`], bandwidth demand is
//! [`BitsPerTick`], throughput is [`SitesPerSec`].

use crate::tech::Technology;
use lattice_core::units::{
    u32_from_f64_floor, u64_from_usize, BitsPerTick, Cells, ChipArea, Pins, SitesPerSec, Ticks,
};
use serde::{Deserialize, Serialize};

/// A feasible WSA operating point and its derived system figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WsaDesign {
    /// PEs per chip.
    pub p: u32,
    /// Lattice side length the chip supports.
    pub l: u32,
    /// Normalized chip area used (≤ 1).
    pub area_used: ChipArea,
    /// Pins used.
    pub pins_used: Pins,
    /// Shift-register cells per chip.
    pub cells: Cells,
    /// Main-memory bandwidth demand.
    pub bandwidth: BitsPerTick,
}

/// The WSA design-space model for a given technology.
#[derive(Debug, Clone, Copy)]
pub struct Wsa {
    tech: Technology,
}

impl Wsa {
    /// Creates the model.
    pub fn new(tech: Technology) -> Self {
        Wsa { tech }
    }

    /// The technology in effect.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// Pin-constrained PE bound: `P ≤ Π / 2D` (real-valued).
    pub fn p_pin_limit(&self) -> f64 {
        f64::from(self.tech.pins) / (2.0 * f64::from(self.tech.d_bits))
    }

    /// Area-constrained PE bound at lattice side `l`:
    /// `P ≤ (1 − 3B − 2BL)/(7B + Γ)` (real-valued; may be negative when
    /// the two-row window alone overflows the chip).
    pub fn p_area_limit(&self, l: u32) -> f64 {
        let b = self.tech.cell_area();
        let free = ChipArea::new(1.0) - b * (3.0 + 2.0 * f64::from(l));
        free.capacity(b * 7.0 + self.tech.pe_area())
    }

    /// Shift-register cells a `P`-wide stage needs for lattice side `l`
    /// (paper's count): `2L + 7P + 3`.
    pub fn cells(&self, p: u32, l: u32) -> Cells {
        Cells::new(2 * u64::from(l) + 7 * u64::from(p) + 3)
    }

    /// Normalized area used by a (P, L) stage chip.
    pub fn area_used(&self, p: u32, l: u32) -> ChipArea {
        self.tech.cell_area().times_cells(self.cells(p, l)) + self.tech.pe_area() * f64::from(p)
    }

    /// Pins used by a `P`-wide stage: `2·D·P`.
    pub fn pins_used(&self, p: u32) -> Pins {
        Pins::new(2 * self.tech.d_bits * p)
    }

    /// Whether the (P, L) point satisfies both chip constraints.
    pub fn feasible(&self, p: u32, l: u32) -> bool {
        p >= 1
            && self.pins_used(p) <= self.tech.pin_budget()
            && self.area_used(p, l) <= ChipArea::new(1.0)
    }

    /// Builds the design record for a feasible point.
    pub fn design(&self, p: u32, l: u32) -> Option<WsaDesign> {
        if !self.feasible(p, l) {
            return None;
        }
        Some(WsaDesign {
            p,
            l,
            area_used: self.area_used(p, l),
            pins_used: self.pins_used(p),
            cells: self.cells(p, l),
            bandwidth: self.tech.stream_demand(p),
        })
    }

    /// The largest feasible integer `P` at lattice side `l`.
    pub fn max_p(&self, l: u32) -> u32 {
        let bound = self.p_pin_limit().min(self.p_area_limit(l));
        let mut p = u32_from_f64_floor(bound);
        // Guard against floating-point edges.
        while p > 0 && !self.feasible(p, l) {
            p -= 1;
        }
        p
    }

    /// The optimal operating point: maximize `P`, then the largest `L`
    /// still feasible at that `P` — "we want L to be as big as possible,
    /// so the corner is the logical choice" (§6.1). With the paper's
    /// constants this returns `P = 4, L = 785`.
    ///
    /// ```
    /// use lattice_vlsi::{wsa::Wsa, Technology};
    /// let corner = Wsa::new(Technology::paper_1987()).corner();
    /// assert_eq!((corner.p, corner.l), (4, 785));
    /// assert_eq!(corner.bandwidth.get(), 64.0);
    /// ```
    pub fn corner(&self) -> WsaDesign {
        let p_pin = u32_from_f64_floor(self.p_pin_limit().max(1.0));
        // Degrade P when the area constraint can't host the pin-optimal
        // P at any lattice size (possible for extreme technologies).
        let b = self.tech.cell_area();
        for p in (1..=p_pin).rev() {
            let fixed = b * (7.0 * f64::from(p) + 3.0) + self.tech.pe_area() * f64::from(p);
            let l_real = (ChipArea::new(1.0) - fixed).capacity(b * 2.0);
            let mut l = u32_from_f64_floor(l_real.max(1.0));
            while l > 1 && !self.feasible(p, l) {
                l -= 1;
            }
            if let Some(d) = self.design(p, l) {
                return d;
            }
        }
        // lattice-lint: allow(no-panic) — unreachable for any validated technology.
        panic!("technology cannot host even a 1-PE, L = 1 WSA stage")
    }

    /// The absolute ceiling on lattice side for *any* WSA chip (even one
    /// PE): all area spent on the two-row window (§6.1: "an upper bound
    /// on L even if we were to accept arbitrarily slow computation").
    pub fn l_upper_bound(&self) -> u32 {
        let b = self.tech.cell_area();
        let free = ChipArea::new(1.0) - self.tech.pe_area() - b * 10.0;
        u32_from_f64_floor(free.capacity(b * 2.0).max(0.0))
    }

    /// Samples the two design curves over `l = 1..=l_max` for plotting
    /// (experiment E1): returns `(l, p_pin, p_area)` triples.
    pub fn design_curves(&self, l_max: u32, step: u32) -> Vec<(u32, f64, f64)> {
        (1..=l_max)
            .step_by(usize::try_from(step.max(1)).unwrap_or(1))
            .map(|l| (l, self.p_pin_limit(), self.p_area_limit(l)))
            .collect()
    }

    /// System throughput for pipeline depth `k` (= number of chips):
    /// `R = F·P·k` site updates per second.
    pub fn throughput(&self, p: u32, k: u32) -> SitesPerSec {
        self.tech.throughput(u64::from(p) * u64::from(k))
    }

    /// Maximum system throughput at lattice side `l`: depth `k_max = L`.
    pub fn max_throughput(&self, p: u32, l: u32) -> SitesPerSec {
        self.throughput(p, l)
    }
}

/// Ticks a `p`-wide, `k`-deep WSA pipeline takes to stream one
/// `rows × cols` block (`n = rows·cols` sites) through every stage —
/// exactly the count of the cycle-level simulator
/// (`lattice_engines_sim::Pipeline`), fill and drain included.
///
/// The first stage receives `p` sites a tick. A stage may emit site `i`
/// once it holds site `i + lag` with `lag = cols + 1` (the far corner
/// of the radius-1 window) or the stream's last site, at most `p` a
/// tick, and its output feeds the next stage on the same tick. So stage
/// `j`'s output trails the memory stream by `δ_j` sites: it has emitted
/// `clamp(p·τ − δ_j, 0, n)` sites after tick `τ`. Its input finishes on
/// tick `t = ⌈(n + δ_{j−1}) / p⌉`, after which the whole remainder is
/// ready; a stage that had emitted nothing by then starts on tick `t`,
/// so the lag it adds is cut at `p·(t − 1)`:
///
/// ```text
/// δ_0 = 0,  t_j = ⌈(n + δ_{j−1}) / p⌉,  δ_j = min(δ_{j−1} + lag, p·(t_j − 1))
/// ticks = ⌈(n + δ_k) / p⌉
/// ```
///
/// `p` must be at least 1.
///
/// ```
/// use lattice_vlsi::wsa::sweep_ticks;
/// // farm-bulk's 1032×520 augmented board block at P = 2, k = 4.
/// assert_eq!(sweep_ticks(1032, 520, 2, 4).get(), 269_362);
/// ```
pub fn sweep_ticks(rows: usize, cols: usize, p: u32, k: usize) -> Ticks {
    let n = u64_from_usize(rows * cols);
    let lag = u64_from_usize(cols + 1);
    let p = u64::from(p);
    let mut delay = 0u64;
    for _ in 0..k {
        let t = (n + delay).div_ceil(p);
        delay = (delay + lag).min(p * (t - 1));
    }
    Ticks::new((n + delay).div_ceil(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> Wsa {
        Wsa::new(Technology::paper_1987())
    }

    #[test]
    fn pin_limit_is_4_5() {
        assert!((paper().p_pin_limit() - 4.5).abs() < 1e-12);
    }

    #[test]
    fn corner_reproduces_p4_l785() {
        // §6.1: "The intersection of the two curves is P ≈ 4 and L ≈ 785."
        let c = paper().corner();
        assert_eq!(c.p, 4);
        assert_eq!(c.l, 785);
        assert!(c.area_used <= ChipArea::new(1.0));
        assert_eq!(c.pins_used, Pins::new(64));
        assert_eq!(c.bandwidth, BitsPerTick::new(64.0));
    }

    #[test]
    fn area_curve_matches_published_form() {
        let w = paper();
        // At P = 4.5, the curves cross near L ≈ 775.
        let t = Technology::paper_1987();
        let l_cross = (1.0 - 3.0 * t.b - 4.5 * (7.0 * t.b + t.g)) / (2.0 * t.b);
        assert!((l_cross - 775.0).abs() < 1.0, "{l_cross}");
        // Beyond the corner the area limit drops below the pin limit.
        assert!(w.p_area_limit(800) < w.p_pin_limit());
        assert!(w.p_area_limit(700) > w.p_pin_limit());
    }

    #[test]
    fn feasibility_boundary() {
        let w = paper();
        assert!(w.feasible(4, 785));
        assert!(!w.feasible(4, 790));
        assert!(!w.feasible(5, 100)); // pins: 2·8·5 = 80 > 72
        assert!(w.feasible(1, 800));
        assert!(!w.feasible(1, 900));
    }

    #[test]
    fn max_p_respects_both_constraints() {
        let w = paper();
        assert_eq!(w.max_p(100), 4); // pin-bound region
        assert_eq!(w.max_p(785), 4); // the corner
        assert_eq!(w.max_p(800), 3); // area-bound: limit ≈ 3.27
        assert_eq!(w.max_p(830), 1); // only one PE fits
        assert_eq!(w.max_p(2000), 0); // beyond the absolute L ceiling
    }

    #[test]
    fn l_upper_bound_matches_hand_computation() {
        // (1 - Γ - 10B)/(2B) = (1 - 0.0194 - 0.00576)/0.001152 ≈ 846.
        assert_eq!(paper().l_upper_bound(), 846);
        assert!(paper().feasible(1, paper().l_upper_bound()));
        assert!(!paper().feasible(1, paper().l_upper_bound() + 1));
    }

    #[test]
    fn throughput_formula() {
        let w = paper();
        // 20 M updates/s for a 2-PE chip at 10 MHz (§8's prototype chip).
        assert!((w.throughput(2, 1).get() - 20e6).abs() < 1.0);
        // Corner machine at full depth: R = F·P·L.
        let c = w.corner();
        assert!((w.max_throughput(c.p, c.l).get() - 10e6 * 4.0 * 785.0).abs() < 1.0);
    }

    #[test]
    fn design_curve_sampler() {
        let pts = paper().design_curves(1000, 100);
        assert_eq!(pts.len(), 10);
        // Pin limit constant, area limit decreasing.
        for w in pts.windows(2) {
            assert_eq!(w[0].1, w[1].1);
            assert!(w[0].2 > w[1].2);
        }
    }

    #[test]
    fn design_returns_none_when_infeasible() {
        let w = paper();
        assert!(w.design(5, 100).is_none());
        let d = w.design(4, 785).unwrap();
        assert_eq!(d.cells, Cells::new(2 * 785 + 7 * 4 + 3));
    }
}
