//! The FHP lattice gas (Frisch, Hasslacher & Pomeau — paper ref \[3\]).
//!
//! Six unit-speed channels on a hexagonal lattice; "in a two-dimensional
//! hexagonally connected lattice, it has been shown that the Navier-Stokes
//! equation is satisfied in the limit of large lattice size" (§2). This is
//! the workload the paper's engines are designed for: `D = 8` bits per
//! site in all the design-space arithmetic (7 gas bits + obstacle flag
//! rounds to a byte, the figure the authors use for their prototype).
//!
//! ## Hex-on-orthogonal embedding
//!
//! The hexagonal lattice is stored "brick-wall" style on the row-major
//! grid (odd rows shifted half a cell right — the *odd-r offset* layout),
//! so the full hex neighborhood of any site fits in the 3×3 Moore window
//! and the raster-stream span matches the paper's `2n − 2` analysis (§3,
//! figure 2). Neighbor offsets depend on row parity; [`FhpDir`]
//! centralizes that bookkeeping.
//!
//! **Torus caveat:** a periodic FHP lattice must have an *even* number of
//! rows; otherwise the parity pattern breaks at the wrap seam and
//! streaming is no longer a bijection. Constructors in [`crate::init`]
//! enforce this.
//!
//! ## Variants
//!
//! * [`FhpVariant::I`] — 6 bits: head-on pair rotations (±60°, chosen by
//!   the deterministic per-site chirality bit) and the symmetric
//!   three-body collision.
//! * [`FhpVariant::II`] — 7 bits: FHP-I plus a rest particle, rest
//!   creation/absorption (`{i, REST} ↔ {i−1, i+1}`), and head-on
//!   collisions with a rest spectator.
//! * [`FhpVariant::III`] — 7 bits, collision-saturated: *every* state
//!   whose (mass, momentum) class has another member collides. Built by
//!   rotating within each conservation class (a bijection per chirality),
//!   which maximizes saturation exactly like the historical FHP-III
//!   tables do; the specific within-class pairing differs from Frisch et
//!   al.'s published table but conserves identically (see DESIGN.md).

use crate::fhp_bitparallel::FhpBitLattice;
use crate::table::{CollisionTable, Invariants};
use crate::{is_obstacle, prng, OBSTACLE_BIT};
use lattice_core::{BlockKernel, RowSource, Rule, Window};

/// Rest-particle bit (FHP-II/III).
pub const REST_BIT: u8 = 1 << 6;

/// Mask of the six moving-particle channels.
pub const FHP_MOVE_MASK: u8 = 0b0011_1111;

/// Mask of all gas bits (moving + rest).
pub const FHP_GAS_MASK: u8 = FHP_MOVE_MASK | REST_BIT;

/// The six hex directions, counterclockwise from +x.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FhpDir {
    /// +x.
    E = 0,
    /// 60°.
    NE = 1,
    /// 120°.
    NW = 2,
    /// 180°.
    W = 3,
    /// 240°.
    SW = 4,
    /// 300°.
    SE = 5,
}

/// All six directions in channel-bit order.
pub const FHP_DIRS: [FhpDir; 6] =
    [FhpDir::E, FhpDir::NE, FhpDir::NW, FhpDir::W, FhpDir::SW, FhpDir::SE];

impl FhpDir {
    /// Channel bit.
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }

    /// Direction rotated counterclockwise by `k` sixths of a turn.
    pub fn rotate(self, k: u8) -> FhpDir {
        FHP_DIRS[(self as usize + k as usize) % 6]
    }

    /// The opposite direction.
    pub fn opposite(self) -> FhpDir {
        self.rotate(3)
    }

    /// Integer velocity `(2·vx, √3-units of vy)`: doubling x and dividing
    /// y by √3 makes hex velocities exact integers, so momentum
    /// conservation can be checked without floating point.
    pub fn velocity2(self) -> (i32, i32) {
        match self {
            FhpDir::E => (2, 0),
            FhpDir::NE => (1, 1),
            FhpDir::NW => (-1, 1),
            FhpDir::W => (-2, 0),
            FhpDir::SW => (-1, -1),
            FhpDir::SE => (1, -1),
        }
    }

    /// Grid offset `(d_row, d_col)` traveled per step by a particle moving
    /// this way, given the *source* row's parity (0 even, 1 odd).
    /// Rows grow downward, so northward motion is row − 1.
    pub fn grid_offset(self, src_parity: usize) -> (isize, isize) {
        let odd = src_parity == 1;
        match self {
            FhpDir::E => (0, 1),
            FhpDir::W => (0, -1),
            FhpDir::NE => (-1, if odd { 1 } else { 0 }),
            FhpDir::NW => (-1, if odd { 0 } else { -1 }),
            FhpDir::SE => (1, if odd { 1 } else { 0 }),
            FhpDir::SW => (1, if odd { 0 } else { -1 }),
        }
    }

    /// Offset from a *destination* site (row parity `dst_parity`) to the
    /// source a particle moving this way came from. Inverse of
    /// [`FhpDir::grid_offset`] accounting for the parity flip across rows.
    pub fn arrival_offset(self, dst_parity: usize) -> (isize, isize) {
        let even = dst_parity == 0;
        match self {
            FhpDir::E => (0, -1),
            FhpDir::W => (0, 1),
            // Source row is dst_row + 1, whose parity is 1 − dst_parity.
            FhpDir::NE => (1, if even { -1 } else { 0 }),
            FhpDir::NW => (1, if even { 0 } else { 1 }),
            FhpDir::SE => (-1, if even { -1 } else { 0 }),
            FhpDir::SW => (-1, if even { 0 } else { 1 }),
        }
    }
}

/// Mass and integer momentum of an FHP state byte (rest particle has mass
/// 1 and zero momentum; the obstacle bit carries neither).
pub fn fhp_invariants(s: u8) -> Invariants {
    let mut mass = (s & REST_BIT != 0) as u32;
    let mut px = 0;
    let mut py = 0;
    for d in FHP_DIRS {
        if s & d.bit() != 0 {
            mass += 1;
            let (vx, vy) = d.velocity2();
            px += vx;
            py += vy;
        }
    }
    Invariants { mass, momentum: [px, py, 0] }
}

/// Bounce-back on the moving channels (obstacle sites): i ↔ i+3.
pub fn fhp_bounce(s: u8) -> u8 {
    let m = s & FHP_MOVE_MASK;
    (s & !FHP_MOVE_MASK) | (((m << 3) | (m >> 3)) & FHP_MOVE_MASK)
}

/// FHP model variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FhpVariant {
    /// 6-bit FHP-I: head-on pairs and symmetric triples.
    I,
    /// 7-bit FHP-II: FHP-I plus rest-particle collisions.
    II,
    /// 7-bit FHP-III: collision-saturated.
    III,
}

impl FhpVariant {
    /// Gas-state mask legal for the variant.
    pub fn gas_mask(self) -> u8 {
        match self {
            FhpVariant::I => FHP_MOVE_MASK,
            FhpVariant::II | FhpVariant::III => FHP_GAS_MASK,
        }
    }

    /// Bits per site for bandwidth accounting (paper's `D`), including
    /// the obstacle flag. All FHP engines round to a byte, the `D = 8`
    /// the paper uses.
    pub fn site_bits(self) -> u32 {
        8
    }
}

fn fhp1_collide(s: u8, chirality: bool) -> u8 {
    // Head-on pairs: {i, i+3} -> rotate both by ±60°.
    for i in 0..3u8 {
        let pair = (1 << i) | (1 << (i + 3));
        if s == pair {
            let k = if chirality { 2 } else { 1 };
            let a = FHP_DIRS[i as usize].rotate(k);
            let b = a.opposite();
            return a.bit() | b.bit();
        }
    }
    // Symmetric three-body: alternate channels swap.
    match s {
        0b010101 => 0b101010,
        0b101010 => 0b010101,
        _ => s,
    }
}

fn fhp2_collide(s: u8, chirality: bool) -> u8 {
    let rest = s & REST_BIT;
    let moving = s & FHP_MOVE_MASK;
    // Rest creation/absorption: {i-1, i+1} <-> {i, REST}.
    if rest == 0 {
        for i in 0..6usize {
            let prev = FHP_DIRS[(i + 5) % 6].bit();
            let next = FHP_DIRS[(i + 1) % 6].bit();
            if moving == prev | next {
                return FHP_DIRS[i].bit() | REST_BIT;
            }
        }
    } else {
        for i in 0..6usize {
            if moving == FHP_DIRS[i].bit() {
                let prev = FHP_DIRS[(i + 5) % 6].bit();
                let next = FHP_DIRS[(i + 1) % 6].bit();
                return prev | next;
            }
        }
    }
    // Head-on pairs and triples, with the rest bit as a spectator.
    rest | fhp1_collide(moving, chirality)
}

/// Builds the collision table for `variant`.
pub fn fhp_table(variant: FhpVariant) -> CollisionTable {
    let gas_mask = variant.gas_mask();
    let domain = move |s: u8| s & !(gas_mask | OBSTACLE_BIT) == 0;
    let invariants = |s: u8| {
        let inv = fhp_invariants(s);
        if is_obstacle(s) {
            Invariants { mass: inv.mass, momentum: [0, 0, 0] }
        } else {
            inv
        }
    };
    match variant {
        FhpVariant::I => CollisionTable::build("fhp-1", domain, invariants, |s, c| {
            if is_obstacle(s) {
                fhp_bounce(s)
            } else {
                fhp1_collide(s, c)
            }
        }),
        FhpVariant::II => CollisionTable::build("fhp-2", domain, invariants, |s, c| {
            if is_obstacle(s) {
                fhp_bounce(s)
            } else {
                fhp2_collide(s, c)
            }
        }),
        FhpVariant::III => {
            let perms = fhp3_class_permutations();
            CollisionTable::build("fhp-3", domain, invariants, move |s, c| {
                if is_obstacle(s) {
                    fhp_bounce(s)
                } else {
                    perms[c as usize][s as usize]
                }
            })
        }
    }
    .expect("FHP collision rules conserve mass and momentum by construction")
}

/// Builds the two FHP-III within-class rotation permutations
/// (index 0: chirality false, rotate forward; index 1: rotate backward).
fn fhp3_class_permutations() -> [[u8; 256]; 2] {
    let mut classes: std::collections::BTreeMap<(u32, [i32; 3]), Vec<u8>> =
        std::collections::BTreeMap::new();
    for s in 0..=FHP_GAS_MASK {
        if s & !FHP_GAS_MASK != 0 {
            continue;
        }
        let inv = fhp_invariants(s);
        classes.entry((inv.mass, inv.momentum)).or_default().push(s);
    }
    let mut fwd = [0u8; 256];
    let mut bwd = [0u8; 256];
    for (i, f) in fwd.iter_mut().enumerate() {
        *f = i as u8;
    }
    for (i, b) in bwd.iter_mut().enumerate() {
        *b = i as u8;
    }
    for members in classes.values() {
        let n = members.len();
        for (j, &s) in members.iter().enumerate() {
            fwd[s as usize] = members[(j + 1) % n];
            bwd[s as usize] = members[(j + n - 1) % n];
        }
    }
    [fwd, bwd]
}

/// The FHP gas as a lattice-core update rule (fused collide + stream).
#[derive(Debug, Clone)]
pub struct FhpRule {
    variant: FhpVariant,
    table: CollisionTable,
    seed: u64,
    /// Torus dimensions for wrapping chirality-hash coordinates. Without
    /// this, a site viewed across a periodic seam would hash differently
    /// from the same site viewed directly, de-synchronizing the two-body
    /// outcome. Null-boundary runs don't need it (the null state is
    /// collision-inert, so the off-lattice hash value never matters).
    wrap: Option<(usize, usize)>,
}

impl FhpRule {
    /// Creates an FHP rule. `seed` drives the deterministic per-site
    /// chirality choice for two-body collisions.
    pub fn new(variant: FhpVariant, seed: u64) -> Self {
        FhpRule { variant, table: fhp_table(variant), seed, wrap: None }
    }

    /// Declares the rule to run on a `rows × cols` torus, so per-site
    /// chirality hashes wrap consistently across the periodic seam.
    /// Required whenever the rule is evolved under [`Boundary::Periodic`].
    ///
    /// [`Boundary::Periodic`]: lattice_core::Boundary::Periodic
    pub fn with_wrap(mut self, rows: usize, cols: usize) -> Self {
        self.wrap = Some((rows, cols));
        self
    }

    /// The model variant.
    pub fn variant(&self) -> FhpVariant {
        self.variant
    }

    /// The verified collision table.
    pub fn table(&self) -> &CollisionTable {
        &self.table
    }

    /// The chirality seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Post-collision state of a site, given its window metadata.
    fn collide_at(&self, state: u8, row: usize, col: usize, time: u64) -> u8 {
        let chirality = prng::site_bit(((row as u64) << 32) | col as u64, time, self.seed);
        self.table.collide(state, chirality)
    }
}

impl Rule for FhpRule {
    type S = u8;

    fn update(&self, w: &Window<u8>) -> u8 {
        debug_assert_eq!(w.rank(), 2);
        let row = w.coord().row();
        let col = w.coord().col();
        let parity = row & 1;
        let mut out = w.center() & OBSTACLE_BIT;
        // Rest particles do not move: they survive this site's collision.
        // The chirality coordinates must wrap exactly like the arrival
        // branch below: an engine computing an origin-shifted halo site
        // (torus wrap columns) sees out-of-range center coordinates, and
        // FHP-III's chirality-selected rotations can move the rest bit,
        // so an unwrapped hash would diverge from the reference there.
        if self.variant.gas_mask() & REST_BIT != 0 {
            let (crow, ccol) = match self.wrap {
                Some((rows, cols)) => (
                    (row as isize).rem_euclid(rows as isize) as usize,
                    (col as isize).rem_euclid(cols as isize) as usize,
                ),
                None => (row, col),
            };
            out |= self.collide_at(w.center(), crow, ccol, w.time()) & REST_BIT;
        }
        for d in FHP_DIRS {
            let (dr, dc) = d.arrival_offset(parity);
            let src = w.at2(dr, dc);
            // Source coordinates for the chirality hash. On a torus the
            // coordinates wrap so every view of a site hashes alike; with
            // null boundaries the off-lattice hash value never matters
            // (the null state is collision-inert in every variant).
            let (src_row, src_col) = match self.wrap {
                Some((rows, cols)) => (
                    (row as isize + dr).rem_euclid(rows as isize) as usize,
                    (col as isize + dc).rem_euclid(cols as isize) as usize,
                ),
                None => (row.wrapping_add_signed(dr), col.wrapping_add_signed(dc)),
            };
            let post = self.collide_at(src, src_row, src_col, w.time());
            out |= post & d.bit();
        }
        out
    }

    fn name(&self) -> &str {
        match self.variant {
            FhpVariant::I => "fhp-1",
            FhpVariant::II => "fhp-2",
            FhpVariant::III => "fhp-3",
        }
    }

    /// The FHP-I bit-plane kernel under the null boundary
    /// ([`FhpBitLattice::from_rows_null`]), packed from `src` a row at a
    /// time: each head-on pair's chirality is keyed on its global
    /// coordinate (`origin` plus its block offset, reduced onto the
    /// torus when the rule has one) and generation, and the kernel's
    /// clock starts at `t0`. FHP-II/III, blocks with obstacle, rest or
    /// other non-channel bits, and non-2-D blocks are declined.
    fn block_kernel(
        &self,
        src: &dyn RowSource<u8>,
        t0: u64,
        origin: (usize, usize),
    ) -> Option<Box<dyn BlockKernel<u8>>> {
        if self.variant != FhpVariant::I {
            return None;
        }
        let bits = FhpBitLattice::from_rows_null(src, self.seed, t0, origin, self.wrap).ok()?;
        Some(Box::new(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lattice_core::window::WINDOW_MAX;
    use lattice_core::{evolve, Boundary, Coord, Grid, Shape};
    use proptest::prelude::*;

    #[test]
    fn direction_algebra() {
        for d in FHP_DIRS {
            assert_eq!(d.rotate(6), d);
            assert_eq!(d.opposite().opposite(), d);
            let (vx, vy) = d.velocity2();
            let (ox, oy) = d.opposite().velocity2();
            assert_eq!((vx + ox, vy + oy), (0, 0));
        }
        // The six velocities sum to zero (hexagonal symmetry).
        let sum = FHP_DIRS.iter().fold((0, 0), |(x, y), d| {
            let (vx, vy) = d.velocity2();
            (x + vx, y + vy)
        });
        assert_eq!(sum, (0, 0));
    }

    #[test]
    fn hex_neighbors_are_six_distinct_sites() {
        for parity in [0usize, 1] {
            let mut offs: Vec<(isize, isize)> =
                FHP_DIRS.iter().map(|d| d.grid_offset(parity)).collect();
            offs.sort();
            offs.dedup();
            assert_eq!(offs.len(), 6, "parity {parity}");
            // All within the Moore window.
            for (dr, dc) in offs {
                assert!(dr.abs() <= 1 && dc.abs() <= 1);
            }
        }
    }

    #[test]
    fn arrival_inverts_movement() {
        // On an even-rows torus: src --d--> dst implies
        // dst + arrival_offset(d, parity(dst)) == src.
        let shape = Shape::grid2(6, 7).unwrap();
        for idx in 0..shape.len() {
            let src = shape.coord(idx);
            for d in FHP_DIRS {
                let (dr, dc) = d.grid_offset(src.row() & 1);
                let dst = shape.offset(src, &[dr, dc], true).unwrap();
                let (ar, ac) = d.arrival_offset(dst.row() & 1);
                let back = shape.offset(dst, &[ar, ac], true).unwrap();
                assert_eq!(back, src, "dir {d:?} from {src:?}");
            }
        }
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let shape = Shape::grid2(4, 5).unwrap();
        for idx in 0..shape.len() {
            let a = shape.coord(idx);
            for d in FHP_DIRS {
                let (dr, dc) = d.grid_offset(a.row() & 1);
                let b = shape.offset(a, &[dr, dc], true).unwrap();
                let (er, ec) = d.opposite().grid_offset(b.row() & 1);
                let back = shape.offset(b, &[er, ec], true).unwrap();
                assert_eq!(back, a, "dir {d:?} at {a:?}");
            }
        }
    }

    #[test]
    fn fhp1_two_body_rotations() {
        let s = FhpDir::E.bit() | FhpDir::W.bit();
        assert_eq!(fhp1_collide(s, false), FhpDir::NE.bit() | FhpDir::SW.bit());
        assert_eq!(fhp1_collide(s, true), FhpDir::NW.bit() | FhpDir::SE.bit());
        // Rotations conserve momentum (zero before and after).
        for c in [false, true] {
            assert_eq!(fhp_invariants(fhp1_collide(s, c)), fhp_invariants(s));
        }
    }

    #[test]
    fn fhp1_three_body_swap() {
        assert_eq!(fhp1_collide(0b010101, false), 0b101010);
        assert_eq!(fhp1_collide(0b101010, true), 0b010101);
    }

    #[test]
    fn fhp1_spectators_block_two_body() {
        // Head-on pair plus a spectator: FHP-I leaves it alone.
        let s = FhpDir::E.bit() | FhpDir::W.bit() | FhpDir::NE.bit();
        assert_eq!(fhp1_collide(s, false), s);
    }

    #[test]
    fn fhp2_rest_creation_and_absorption() {
        // {NE, SE} merge into {E, REST} (i = 0 case).
        let s = FhpDir::NE.bit() | FhpDir::SE.bit();
        let out = fhp2_collide(s, false);
        assert_eq!(out, FhpDir::E.bit() | REST_BIT);
        // And back.
        assert_eq!(fhp2_collide(out, false), s);
        assert_eq!(fhp_invariants(out), fhp_invariants(s));
    }

    #[test]
    fn fhp2_head_on_with_rest_spectator() {
        let s = FhpDir::E.bit() | FhpDir::W.bit() | REST_BIT;
        let out = fhp2_collide(s, false);
        assert_eq!(out, FhpDir::NE.bit() | FhpDir::SW.bit() | REST_BIT);
    }

    #[test]
    fn tables_conserve_for_all_variants() {
        for v in [FhpVariant::I, FhpVariant::II, FhpVariant::III] {
            let t = fhp_table(v); // panics internally if not conserving
            assert!(t.saturation(|s| s & !v.gas_mask() == 0) > 0.0);
        }
    }

    #[test]
    fn fhp3_is_strictly_more_saturated() {
        let in_domain = |s: u8| s & !FHP_GAS_MASK == 0;
        let s1 = fhp_table(FhpVariant::I).saturation(in_domain);
        let s2 = fhp_table(FhpVariant::II).saturation(in_domain);
        let s3 = fhp_table(FhpVariant::III).saturation(in_domain);
        assert!(s1 < s2, "FHP-II adds rest collisions: {s1} vs {s2}");
        assert!(s2 < s3, "FHP-III saturates: {s2} vs {s3}");
        // FHP-III is *optimally* saturated: every state whose
        // (mass, momentum) class has a second member collides; only
        // singleton-class states (~41% of the 128) must pass through.
        let mut class_sizes = std::collections::BTreeMap::new();
        for s in 0..=FHP_GAS_MASK {
            if s & !FHP_GAS_MASK == 0 {
                let inv = fhp_invariants(s);
                *class_sizes.entry((inv.mass, inv.momentum)).or_insert(0usize) += 1;
            }
        }
        let collidable = (0..=FHP_GAS_MASK)
            .filter(|&s| s & !FHP_GAS_MASK == 0)
            .filter(|&s| {
                let inv = fhp_invariants(s);
                class_sizes[&(inv.mass, inv.momentum)] > 1
            })
            .count();
        let total = (0..=FHP_GAS_MASK).filter(|&s| s & !FHP_GAS_MASK == 0).count();
        let optimal = collidable as f64 / total as f64;
        assert!((s3 - optimal).abs() < 1e-12, "s3 {s3} vs optimal {optimal}");
    }

    #[test]
    fn fhp3_chiralities_are_mutually_inverse() {
        let [fwd, bwd] = fhp3_class_permutations();
        for s in 0..=FHP_GAS_MASK {
            assert_eq!(bwd[fwd[s as usize] as usize], s);
        }
    }

    #[test]
    fn single_particle_streams_hexagonally() {
        let shape = Shape::grid2(6, 6).unwrap();
        let rule = FhpRule::new(FhpVariant::I, 0).with_wrap(6, 6);
        let mut g = Grid::new(shape);
        let start = Coord::c2(2, 2);
        g.set(start, FhpDir::NE.bit());
        let g1 = evolve(&g, &rule, Boundary::Periodic, 0, 1);
        // From even row 2, NE moves to (1, 2).
        assert_eq!(g1.get(Coord::c2(1, 2)), FhpDir::NE.bit());
        assert_eq!(g1.count(|s| s != 0), 1);
        let g2 = evolve(&g, &rule, Boundary::Periodic, 0, 2);
        // From odd row 1, NE moves to (0, 3).
        assert_eq!(g2.get(Coord::c2(0, 3)), FhpDir::NE.bit());
    }

    #[test]
    fn mass_and_momentum_conserved_on_even_torus() {
        let shape = Shape::grid2(8, 10).unwrap();
        for (variant, seed) in [(FhpVariant::I, 3u64), (FhpVariant::II, 4), (FhpVariant::III, 5)] {
            let rule = FhpRule::new(variant, seed).with_wrap(8, 10);
            let mask = variant.gas_mask();
            let g = Grid::from_fn(shape, |c| {
                (prng::site_hash(shape.linear(c) as u64, 0, seed) as u8) & mask
            });
            let inv0 = total_invariants(&g);
            let gn = evolve(&g, &rule, Boundary::Periodic, 0, 30);
            assert_eq!(total_invariants(&gn), inv0, "{variant:?}");
        }
    }

    #[test]
    fn obstacle_conserves_mass_but_not_momentum() {
        let shape = Shape::grid2(6, 6).unwrap();
        let rule = FhpRule::new(FhpVariant::I, 7).with_wrap(6, 6);
        let mut g = Grid::new(shape);
        g.set(Coord::c2(2, 2), FhpDir::E.bit());
        g.set(Coord::c2(2, 3), OBSTACLE_BIT);
        let g2 = evolve(&g, &rule, Boundary::Periodic, 0, 2);
        // Particle bounced: traveling W, back at its start site.
        assert_eq!(g2.get(Coord::c2(2, 2)), FhpDir::W.bit());
        let mass: u32 = g2.as_slice().iter().map(|&s| (s & FHP_GAS_MASK).count_ones()).sum();
        assert_eq!(mass, 1);
    }

    /// `rule` seeing block site `(r, c)` at global coordinate
    /// `(origin.0 + r, origin.1 + c)`, wrapping: the coordinates a
    /// farm board's block presents to its engine.
    struct AtOrigin<'a> {
        rule: &'a FhpRule,
        origin: (usize, usize),
    }

    impl Rule for AtOrigin<'_> {
        type S = u8;
        fn update(&self, w: &Window<u8>) -> u8 {
            let mut cells = [0u8; WINDOW_MAX];
            cells[..w.cells().len()].copy_from_slice(w.cells());
            let (r, c) = (w.coord().row(), w.coord().col());
            let at = Coord::c2(r.wrapping_add(self.origin.0), c.wrapping_add(self.origin.1));
            self.rule.update(&Window::from_cells(2, at, w.time(), cells))
        }
    }

    /// A global origin: zero, small, or wrapping below zero.
    fn origin_axis() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(0usize),
            1usize..1000,
            Just(usize::MAX),
            (1usize..1000).prop_map(|d| 0usize.wrapping_sub(d))
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The FHP-I block kernel equals the per-site rule under the
        /// null boundary on every site: ragged widths, a nonzero start
        /// generation, global origins that wrap, with and without the
        /// torus reduction of the chirality key.
        #[test]
        fn block_kernel_equals_the_per_site_rule(
            rows in 1usize..=12,
            cols in 1usize..=130,
            k in 1usize..=8,
            t0 in 1u64..10_000,
            origin in (origin_axis(), origin_axis()),
            wrap in prop_oneof![Just(None), (1usize..=300, 1usize..=300).prop_map(Some)],
            density in 0.05f64..0.95,
            seed in any::<u64>(),
        ) {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = crate::init::random_fhp(shape, FhpVariant::I, density, seed, false).unwrap();
            let mut rule = FhpRule::new(FhpVariant::I, seed ^ 0xf4b);
            if let Some((wr, wc)) = wrap {
                rule = rule.with_wrap(wr, wc);
            }
            let reference =
                evolve(&g, &AtOrigin { rule: &rule, origin }, Boundary::null(), t0, k as u64);
            let mut out = Grid::filled(shape, 0xAA);
            prop_assert!(rule.evolve_block(&g, &mut out, t0, k, origin));
            prop_assert_eq!(out, reference);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A resident kernel chains: `a` generations, a window of fresh
        /// sites pasted in, `b` more, equals the per-site rule evolving
        /// the block `a` generations, the window overwritten, and `b`
        /// more — the clock and the global chirality keys carry over.
        #[test]
        fn resident_kernel_chains_runs_and_pastes(
            rows in 1usize..=10,
            cols in 1usize..=130,
            a in 0u64..=4,
            b in 1u64..=4,
            at in (0usize..10, 0usize..130),
            size in (1usize..=10, 1usize..=130),
            t0 in 0u64..1000,
            origin in (origin_axis(), origin_axis()),
            wrap in prop_oneof![Just(None), (1usize..=300, 1usize..=300).prop_map(Some)],
            seed in any::<u64>(),
        ) {
            let shape = Shape::grid2(rows, cols).unwrap();
            let g = crate::init::random_fhp(shape, FhpVariant::I, 0.5, seed, false).unwrap();
            let at = (at.0 % rows, at.1 % cols);
            let size = (size.0.min(rows - at.0), size.1.min(cols - at.1));
            let patch_shape = Shape::grid2(size.0, size.1).unwrap();
            let patch = crate::init::random_fhp(patch_shape, FhpVariant::I, 0.5, !seed, false).unwrap();
            let mut rule = FhpRule::new(FhpVariant::I, seed ^ 0x5e7);
            if let Some((wr, wc)) = wrap {
                rule = rule.with_wrap(wr, wc);
            }
            let mut kernel = rule.block_kernel(&g, t0, origin).unwrap();
            let mut frame = Vec::new();
            rule.block_kernel(&patch, 0, (0, 0)).unwrap().copy((0..size.0, 0..size.1), &mut frame);
            kernel.run(a);
            kernel.paste(at, size, &frame);
            kernel.run(b);
            let mut out = Grid::filled(shape, 0xAA);
            kernel.unpack(&mut out);
            let seen = AtOrigin { rule: &rule, origin };
            let mut mid = evolve(&g, &seen, Boundary::null(), t0, a);
            for (i, &site) in patch.as_slice().iter().enumerate() {
                mid.set(Coord::c2(at.0 + i / size.1, at.1 + i % size.1), site);
            }
            prop_assert_eq!(out, evolve(&mid, &seen, Boundary::null(), t0 + a, b));
        }
    }

    #[test]
    fn block_kernel_declines_other_variants_and_non_channel_bits() {
        let shape = Shape::grid2(4, 6).unwrap();
        let g = crate::init::random_fhp(shape, FhpVariant::I, 0.4, 1, false).unwrap();
        let mut out = Grid::filled(shape, 0xAA);
        for variant in [FhpVariant::II, FhpVariant::III] {
            assert!(!FhpRule::new(variant, 3).evolve_block(&g, &mut out, 0, 2, (0, 0)));
        }
        let rule = FhpRule::new(FhpVariant::I, 3);
        for bit in [OBSTACLE_BIT, REST_BIT] {
            let mut walled = g.clone();
            walled.set_linear(7, bit);
            assert!(!rule.evolve_block(&walled, &mut out, 0, 2, (0, 0)));
        }
        let line: Grid<u8> = Grid::new(Shape::line(8).unwrap());
        assert!(!rule.evolve_block(&line, &mut line.clone(), 0, 1, (0, 0)));
        assert_eq!(out, Grid::filled(shape, 0xAA), "a declined block leaves the sink alone");
        assert!(rule.evolve_block(&g, &mut out, 0, 2, (0, 0)));
    }

    #[test]
    fn a_wrapped_kernel_is_the_hex_torus() {
        let (rows, cols) = (8, 70);
        let g =
            crate::init::random_fhp(Shape::grid2(rows, cols).unwrap(), FhpVariant::I, 0.4, 5, true)
                .unwrap();
        let rule = FhpRule::new(FhpVariant::I, 11).with_wrap(rows, cols);
        let mut kernel = rule.block_kernel(&g, 3, (0, 0)).unwrap();
        assert!(kernel.wrap(true, true));
        kernel.run(6);
        let mut out = Grid::new(g.shape());
        kernel.unpack(&mut out);
        assert_eq!(out, evolve(&g, &rule, Boundary::Periodic, 3, 6));
        // The odd-r rows pair up only over an even count.
        let odd = Grid::from_fn(Shape::grid2(7, cols).unwrap(), |c| g.get(c));
        let mut kernel = rule.block_kernel(&odd, 0, (0, 0)).unwrap();
        assert!(!kernel.wrap(true, false));
        assert!(kernel.wrap(false, true));
    }

    fn total_invariants(g: &Grid<u8>) -> (u64, i64, i64) {
        g.as_slice().iter().fold((0, 0, 0), |(m, px, py), &s| {
            let inv = fhp_invariants(s & FHP_GAS_MASK);
            (m + inv.mass as u64, px + inv.momentum[0] as i64, py + inv.momentum[1] as i64)
        })
    }
}
