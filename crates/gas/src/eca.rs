//! Elementary (Wolfram) cellular automata.
//!
//! The paper's ref \[16\] (Steiglitz & Morita) describes "a high-performance
//! custom processor for a one-dimensional cellular automaton" — the
//! direct ancestor of the serial-pipelined lattice engines analyzed here.
//! Elementary CAs are the canonical 1-bit-per-site workload for that
//! machine and serve as the simplest rule for exercising every engine in
//! `lattice-engines-sim` in one dimension.

use lattice_core::{Rule, Window};

/// A radius-1 elementary cellular automaton, `rule` numbered in Wolfram's
/// convention: new cell = bit `(left·4 + center·2 + right)` of `rule`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementaryCa {
    rule: u8,
}

impl ElementaryCa {
    /// Creates the CA for Wolfram rule number `rule`.
    pub fn new(rule: u8) -> Self {
        ElementaryCa { rule }
    }

    /// The rule number.
    pub fn rule_number(&self) -> u8 {
        self.rule
    }

    /// Applies the rule to an explicit (left, center, right) triple.
    pub fn apply(&self, left: bool, center: bool, right: bool) -> bool {
        let idx = (left as u8) << 2 | (center as u8) << 1 | right as u8;
        self.rule >> idx & 1 != 0
    }
}

impl Rule for ElementaryCa {
    type S = bool;

    fn update(&self, w: &Window<bool>) -> bool {
        debug_assert_eq!(w.rank(), 1);
        self.apply(w.at1(-1), w.center(), w.at1(1))
    }

    fn name(&self) -> &str {
        "elementary-ca"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lattice_core::{evolve, Boundary, Grid, Shape};

    #[test]
    fn rule_90_is_xor_of_neighbors() {
        let ca = ElementaryCa::new(90);
        for l in [false, true] {
            for c in [false, true] {
                for r in [false, true] {
                    assert_eq!(ca.apply(l, c, r), l ^ r, "{l}{c}{r}");
                }
            }
        }
    }

    #[test]
    fn rule_110_truth_table() {
        let ca = ElementaryCa::new(110);
        // 110 = 0b01101110: patterns 111,100,000 -> 0; others -> 1.
        assert!(!ca.apply(true, true, true));
        assert!(!ca.apply(true, false, false));
        assert!(!ca.apply(false, false, false));
        assert!(ca.apply(true, true, false));
        assert!(ca.apply(false, true, true));
        assert!(ca.apply(false, false, true));
    }

    #[test]
    fn rule_90_from_single_cell_makes_sierpinski_row_counts() {
        // Row t of the rule-90 triangle from one seed has 2^(ones in t)
        // live cells (Kummer's theorem corollary).
        let shape = Shape::line(129).unwrap();
        let mut g: Grid<bool> = Grid::new(shape);
        g.set_linear(64, true);
        let ca = ElementaryCa::new(90);
        let mut cur = g;
        for t in 1u32..=16 {
            cur = evolve(&cur, &ca, Boundary::null(), (t - 1) as u64, 1);
            let live = cur.count(|s| s);
            assert_eq!(live as u32, 1 << t.count_ones(), "row {t}");
        }
    }

    #[test]
    fn rule_number_roundtrip() {
        assert_eq!(ElementaryCa::new(30).rule_number(), 30);
    }

    #[test]
    fn rule_0_clears_everything() {
        let shape = Shape::line(16).unwrap();
        let g: Grid<bool> = Grid::from_fn(shape, |c| c.col() % 2 == 0);
        let out = evolve(&g, &ElementaryCa::new(0), Boundary::Periodic, 0, 1);
        assert_eq!(out.count(|s| s), 0);
    }
}
