//! Online conservation auditing: cheap end-of-pass integrity checks.
//!
//! The paper's collision rules "satisfy particle-number (mass)
//! conservation and momentum conservation" (§2) *exactly*, per table
//! entry — which makes the macroscopic totals a free error-detecting
//! code for the hardware that streams the lattice. A host can fold the
//! raster stream into an [`InvariantSnapshot`] as it passes by and
//! compare totals across an engine pass. The fold counts each state
//! bit's population eight sites per `u64` word, a few word operations
//! per bit, far cheaper than the collision logic; mass, momentum, the
//! obstacle count and the legal-state check all read those eight
//! counts. Any single-bit upset
//! in a gas channel changes the particle count by exactly ±1 and is
//! caught immediately, with no reference computation.
//!
//! What may be assumed depends on the boundary ([`AuditMode`]):
//!
//! * On a torus — or whenever the gas provably cannot reach the lattice
//!   edge during the audited interval — mass is conserved exactly, and
//!   momentum too when there are no obstacles (bounce-back walls absorb
//!   momentum but never mass). This is [`AuditMode::Exact`].
//! * Under the engines' null boundary, particles may fall off the edge
//!   but never enter, so mass must not increase
//!   ([`AuditMode::NonIncreasingMass`]). This is a weaker, one-sided
//!   check: a flip that *clears* a channel bit is indistinguishable
//!   from legitimate outflow and must be caught by the link parity
//!   layer instead.
//!
//! Obstacle sites are part of the lattice, not the gas; their count must
//! never change in any mode.
//!
//! Violations surface as [`LatticeError::Corrupted`] naming the
//! invariant that failed — never a silently-wrong lattice.

use crate::observe::{bit_counts, Model, Observables};
use lattice_core::{Grid, LatticeError};

/// What the boundary lets the audit assume about conserved totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditMode {
    /// Mass conserved exactly; momentum too if there are no obstacles.
    /// Valid on a torus, or when the gas cannot reach the edge.
    Exact,
    /// Mass must not increase (null boundary: outflow only).
    NonIncreasingMass,
}

/// The audited totals of one lattice, folded from the raster stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvariantSnapshot {
    /// Total particle count.
    pub mass: u64,
    /// Total momentum in the model's integer basis.
    pub momentum: (i64, i64),
    /// Number of obstacle sites.
    pub obstacles: u64,
}

impl InvariantSnapshot {
    /// Measures a lattice's audited totals.
    pub fn measure(grid: &Grid<u8>, model: Model) -> Self {
        Self::from_counts(&bit_counts(grid.as_slice()), grid.len(), model)
    }

    fn from_counts(counts: &[u64; 8], sites: usize, model: Model) -> Self {
        let obs = Observables::from_counts(counts, sites, model);
        InvariantSnapshot { mass: obs.mass, momentum: obs.momentum, obstacles: obs.obstacles }
    }
}

/// A per-pass conservation checker for one gas model and boundary mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConservationAudit {
    /// Which model's channel masks and momentum basis to read with.
    pub model: Model,
    /// What the boundary permits.
    pub mode: AuditMode,
}

impl ConservationAudit {
    /// An auditor for `model` under `mode`.
    pub fn new(model: Model, mode: AuditMode) -> Self {
        ConservationAudit { model, mode }
    }

    /// Checks one engine pass: `before` is the lattice sent to the
    /// engine, `after` the lattice that came back.
    ///
    /// Besides the conserved totals, every returned site must be a
    /// *legal* state — no bits outside the model's gas channels and the
    /// obstacle flag. The rules cannot produce such a byte, so one
    /// arriving back is always corruption, even when it leaves the
    /// audited totals untouched.
    pub fn check(&self, before: &Grid<u8>, after: &Grid<u8>) -> Result<(), LatticeError> {
        let counts = bit_counts(after.as_slice());
        self.check_counts(after, &counts)?;
        self.check_snapshots(
            InvariantSnapshot::measure(before, self.model),
            InvariantSnapshot::from_counts(&counts, after.len(), self.model),
        )
    }

    /// Rejects any site whose byte sets bits outside
    /// [`Model::legal_mask`].
    pub fn check_states(&self, grid: &Grid<u8>) -> Result<(), LatticeError> {
        self.check_counts(grid, &bit_counts(grid.as_slice()))
    }

    /// [`check_states`](Self::check_states) from `grid`'s per-bit
    /// populations: a clean lattice has none outside the legal mask,
    /// and only a dirty one is rescanned, to name its first bad site.
    fn check_counts(&self, grid: &Grid<u8>, counts: &[u64; 8]) -> Result<(), LatticeError> {
        let mask = self.model.legal_mask();
        if counts.iter().enumerate().all(|(b, &n)| n == 0 || mask & (1 << b) != 0) {
            return Ok(());
        }
        for (i, &s) in grid.as_slice().iter().enumerate() {
            if s & !mask != 0 {
                return Err(LatticeError::Corrupted {
                    site: "audit: illegal state".into(),
                    detail: format!(
                        "site {i} holds {s:#04x}, outside the model's legal mask {mask:#04x}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Same as [`check`](Self::check) over pre-measured totals, for
    /// hosts that fold the snapshot from the stream instead of holding
    /// both grids.
    pub fn check_snapshots(
        &self,
        before: InvariantSnapshot,
        after: InvariantSnapshot,
    ) -> Result<(), LatticeError> {
        let fail = |what: &str, detail: String| {
            Err(LatticeError::Corrupted { site: format!("audit: {what}"), detail })
        };
        if after.obstacles != before.obstacles {
            return fail(
                "obstacle count",
                format!("{} sites before, {} after", before.obstacles, after.obstacles),
            );
        }
        match self.mode {
            AuditMode::Exact => {
                if after.mass != before.mass {
                    return fail(
                        "particle count",
                        format!("{} before, {} after", before.mass, after.mass),
                    );
                }
                if before.obstacles == 0 && after.momentum != before.momentum {
                    return fail(
                        "momentum",
                        format!("{:?} before, {:?} after", before.momentum, after.momentum),
                    );
                }
            }
            AuditMode::NonIncreasingMass => {
                if after.mass > before.mass {
                    return fail(
                        "particle count",
                        format!(
                            "grew from {} to {} under an outflow-only boundary",
                            before.mass, after.mass
                        ),
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fhp::FhpDir;
    use crate::hpp::HppDir;
    use crate::observe::measure_per_site;
    use crate::{init, FhpRule, FhpVariant, HppRule, OBSTACLE_BIT};
    use lattice_core::{evolve, Boundary, Grid, Shape};
    use proptest::prelude::*;
    use proptest::{collection, sample};

    #[test]
    fn torus_evolution_passes_exact_audit() {
        let shape = Shape::grid2(8, 12).unwrap();
        let g = init::random_fhp(shape, FhpVariant::III, 0.4, 11, true).unwrap();
        let rule = FhpRule::new(FhpVariant::III, 5).with_wrap(8, 12);
        let out = evolve(&g, &rule, Boundary::Periodic, 0, 6);
        let audit = ConservationAudit::new(Model::Fhp, AuditMode::Exact);
        audit.check(&g, &out).unwrap();
    }

    #[test]
    fn single_bit_flip_fails_exact_audit_via_mass() {
        let shape = Shape::grid2(6, 6).unwrap();
        let g = init::random_hpp(shape, 0.3, 3).unwrap();
        let mut bad = g.clone();
        // Flip one gas-channel bit somewhere: mass changes by exactly 1.
        bad.set_linear(17, bad.get_linear(17) ^ HppDir::N.bit());
        let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
        let err = audit.check(&g, &bad).unwrap_err();
        assert!(err.to_string().contains("particle count"), "{err}");
    }

    #[test]
    fn direction_swap_fails_exact_audit_via_momentum() {
        let shape = Shape::grid2(4, 4).unwrap();
        let mut g = Grid::new(shape);
        g.set_linear(5, HppDir::E.bit());
        let mut bad = Grid::new(shape);
        bad.set_linear(5, HppDir::W.bit()); // same mass, reversed momentum
        let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
        let err = audit.check(&g, &bad).unwrap_err();
        assert!(err.to_string().contains("momentum"), "{err}");
    }

    #[test]
    fn obstacle_flip_fails_in_every_mode() {
        let shape = Shape::grid2(4, 4).unwrap();
        let g: Grid<u8> = Grid::new(shape);
        let mut bad = g.clone();
        bad.set_linear(0, OBSTACLE_BIT);
        for mode in [AuditMode::Exact, AuditMode::NonIncreasingMass] {
            let err = ConservationAudit::new(Model::Hpp, mode).check(&g, &bad).unwrap_err();
            assert!(err.to_string().contains("obstacle count"), "{err}");
        }
    }

    #[test]
    fn null_boundary_outflow_passes_weak_audit_but_gain_fails() {
        let shape = Shape::grid2(6, 6).unwrap();
        let g = init::random_fhp(shape, FhpVariant::I, 0.5, 9, false).unwrap();
        let rule = FhpRule::new(FhpVariant::I, 2);
        let out = evolve(&g, &rule, Boundary::null(), 0, 4);
        let audit = ConservationAudit::new(Model::Fhp, AuditMode::NonIncreasingMass);
        audit.check(&g, &out).unwrap();

        // A set-bit upset under the weak mode is still caught: pick a
        // site with a clear E channel and fill it.
        let mut gained = out.clone();
        let idx = (0..gained.len())
            .find(|&i| gained.get_linear(i) & FhpDir::E.bit() == 0)
            .expect("some site has a clear E channel");
        gained.set_linear(idx, gained.get_linear(idx) | FhpDir::E.bit());
        let err = audit.check(&out, &gained).unwrap_err();
        assert!(err.to_string().contains("grew"), "{err}");
    }

    #[test]
    fn illegal_state_bits_fail_even_when_totals_balance() {
        let shape = Shape::grid2(4, 4).unwrap();
        let g: Grid<u8> = Grid::new(shape);
        let mut bad = g.clone();
        // Bits 4–6 are outside HPP's gas channels and the obstacle flag:
        // mass, momentum, and the obstacle count all still balance, so
        // only the legal-mask scan can catch this.
        bad.set_linear(9, 0b0101_0000);
        let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
        let err = audit.check(&g, &bad).unwrap_err();
        assert!(err.to_string().contains("illegal state"), "{err}");
        // The same byte is a legal FHP state (7 gas channels), so the
        // FHP auditor must instead flag the particle-count change.
        let err = ConservationAudit::new(Model::Fhp, AuditMode::Exact).check(&g, &bad).unwrap_err();
        assert!(err.to_string().contains("particle count"), "{err}");
    }

    /// The per-site legal-state scan the word-parallel check replaces.
    fn check_states_per_site(model: Model, grid: &Grid<u8>) -> Result<(), LatticeError> {
        let mask = model.legal_mask();
        for (i, &s) in grid.as_slice().iter().enumerate() {
            if s & !mask != 0 {
                return Err(LatticeError::Corrupted {
                    site: "audit: illegal state".into(),
                    detail: format!(
                        "site {i} holds {s:#04x}, outside the model's legal mask {mask:#04x}"
                    ),
                });
            }
        }
        Ok(())
    }

    fn snapshot_per_site(grid: &Grid<u8>, model: Model) -> InvariantSnapshot {
        let obs = measure_per_site(grid, model);
        InvariantSnapshot { mass: obs.mass, momentum: obs.momentum, obstacles: obs.obstacles }
    }

    fn byte_grid(bytes: Vec<u8>) -> Grid<u8> {
        let shape = Shape::grid2(1, bytes.len()).unwrap();
        Grid::from_vec(shape, bytes).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The word-parallel fold equals the per-site fold on arbitrary
        /// bytes — ragged last words, illegal high bits, obstacle bits,
        /// both models — error text included.
        #[test]
        fn word_parallel_audit_equals_the_per_site_fold(
            before in collection::vec(any::<u8>(), 1..=200),
            after in collection::vec(any::<u8>(), 1..=200),
            legal in any::<bool>(),
            reversed in any::<bool>(),
            poke in any::<sample::Index>(),
            poke_value in prop_oneof![Just(None), any::<u8>().prop_map(Some)],
            hpp in any::<bool>(),
            exact in any::<bool>(),
        ) {
            let model = if hpp { Model::Hpp } else { Model::Fhp };
            let mode = if exact { AuditMode::Exact } else { AuditMode::NonIncreasingMass };
            let audit = ConservationAudit::new(model, mode);
            let clean = |bytes: Vec<u8>| -> Vec<u8> {
                bytes.into_iter().map(|b| if legal { b & model.legal_mask() } else { b }).collect()
            };
            let before = clean(before);
            // `before` reversed keeps every total, so the audit passes.
            let mut after = if reversed { before.iter().rev().copied().collect() } else { clean(after) };
            // One byte of a legal lattice may still be illegal.
            if let Some(v) = poke_value {
                let at = poke.index(after.len());
                after[at] = v;
            }
            let (before, after) = (byte_grid(before), byte_grid(after));
            for grid in [&before, &after] {
                prop_assert_eq!(Observables::measure(grid, model), measure_per_site(grid, model));
                prop_assert_eq!(
                    InvariantSnapshot::measure(grid, model),
                    snapshot_per_site(grid, model)
                );
                prop_assert_eq!(audit.check_states(grid), check_states_per_site(model, grid));
            }
            let per_site = check_states_per_site(model, &after).and_then(|()| {
                audit.check_snapshots(
                    snapshot_per_site(&before, model),
                    snapshot_per_site(&after, model),
                )
            });
            prop_assert_eq!(audit.check(&before, &after), per_site);
        }
    }

    #[test]
    fn bit_counts_cross_the_block_boundary_exactly() {
        // 255 words is one block; lattices just short of, at, and past
        // block boundaries must not overflow a byte lane.
        for len in [2039usize, 2040, 2041, 4080, 5003] {
            let all = byte_grid(vec![0xff; len]);
            for model in [Model::Hpp, Model::Fhp] {
                assert_eq!(Observables::measure(&all, model), measure_per_site(&all, model));
            }
            let ramp = byte_grid((0..len).map(|i| (i * 37 % 256) as u8).collect());
            assert_eq!(
                Observables::measure(&ramp, Model::Fhp),
                measure_per_site(&ramp, Model::Fhp),
                "len {len}"
            );
        }
    }

    #[test]
    fn momentum_is_unchecked_when_walls_absorb_it() {
        let shape = Shape::grid2(6, 6).unwrap();
        let mut g = init::random_hpp(shape, 0.4, 7).unwrap();
        init::add_obstacles(&mut g, |c| c.row() == 0);
        let rule = HppRule::new();
        let out = evolve(&g, &rule, Boundary::Periodic, 0, 5);
        // Momentum is NOT conserved here (the wall absorbs it), but mass
        // and the obstacle count are — Exact mode must still pass.
        ConservationAudit::new(Model::Hpp, AuditMode::Exact).check(&g, &out).unwrap();
    }
}
