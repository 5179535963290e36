//! A three-dimensional orthogonal lattice gas.
//!
//! §2 of the paper: "Extensions to three-dimensional gases are just now
//! being formulated \[1\]" (d'Humières–Lallemand–Frisch). The bounds of §7
//! assume exactly an orthogonal integer lattice with nearest-neighbor
//! edges ("we are assuming the minimum connectivity for G", §7
//! assumption one) — so for the d = 3 experiments we implement the orthogonal
//! 6-channel gas: the straightforward 3-D analogue of HPP. Like HPP it is
//! not isotropic (a genuinely isotropic 3-D gas needs the 24-channel FCHC
//! lattice); isotropy is irrelevant to the architecture and I/O-bound
//! experiments this crate feeds, which only need a conserving, local,
//! uniform rule with the §7 dependency structure.
//!
//! State byte: bits 0..6 = particles moving +x, +y, +z, −x, −y, −z; bit 7
//! = obstacle. Collision: a lone head-on pair scatters into one of the
//! two perpendicular head-on pairs (chirality bit selects which).

use crate::table::{CollisionTable, Invariants};
use crate::{is_obstacle, prng, OBSTACLE_BIT};
use lattice_core::{Rule, Window};

/// Number of channels.
pub const N_DIRS: usize = 6;

/// Mask of the six particle channels.
pub const GAS3D_MASK: u8 = 0b0011_1111;

/// Unit velocities for channels 0..6: +x, +y, +z, −x, −y, −z.
/// In grid terms the axes are (z, row, col) with x = col, y = −row, z = depth.
pub const VELOCITIES: [[i32; 3]; N_DIRS] =
    [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0], [0, 0, -1]];

/// Grid offsets (d_depth, d_row, d_col) for channels 0..6.
pub const GRID_OFFSETS: [[isize; 3]; N_DIRS] =
    [[0, 0, 1], [0, -1, 0], [1, 0, 0], [0, 0, -1], [0, 1, 0], [-1, 0, 0]];

/// Channel index of the direction opposite to `i`.
pub fn opposite(i: usize) -> usize {
    (i + 3) % 6
}

/// Mass and momentum of a 3-D gas state byte.
pub fn gas3d_invariants(s: u8) -> Invariants {
    let mut mass = 0u32;
    let mut p = [0i32; 3];
    for (i, v) in VELOCITIES.iter().enumerate() {
        if s & (1 << i) != 0 {
            mass += 1;
            for (pc, vc) in p.iter_mut().zip(v) {
                *pc += vc;
            }
        }
    }
    Invariants { mass, momentum: p }
}

/// Builds the verified 3-D collision table.
///
/// A state consisting of exactly one head-on pair `{i, i+3}` scatters to
/// a perpendicular pair; the chirality bit picks which of the two. All
/// other states pass through.
pub fn gas3d_table() -> CollisionTable {
    CollisionTable::build(
        "gas-3d",
        |s| s & !(GAS3D_MASK | OBSTACLE_BIT) == 0,
        |s| {
            let inv = gas3d_invariants(s);
            if is_obstacle(s) {
                Invariants { mass: inv.mass, momentum: [0, 0, 0] }
            } else {
                inv
            }
        },
        |s, chirality| {
            if is_obstacle(s) {
                let m = s & GAS3D_MASK;
                (s & !GAS3D_MASK) | (((m << 3) | (m >> 3)) & GAS3D_MASK)
            } else {
                let m = s & GAS3D_MASK;
                for axis in 0..3usize {
                    let pair = (1u8 << axis) | (1 << (axis + 3));
                    if m == pair {
                        // The two perpendicular axes, chosen by chirality.
                        let out_axis = match (axis, chirality) {
                            (0, false) => 1,
                            (0, true) => 2,
                            (1, false) => 2,
                            (1, true) => 0,
                            (_, false) => 0,
                            (_, true) => 1,
                        };
                        return (1u8 << out_axis) | (1 << (out_axis + 3));
                    }
                }
                s
            }
        },
    )
    .expect("3-D gas collisions conserve mass and momentum by construction")
}

/// The 3-D gas as a lattice-core rule.
#[derive(Debug, Clone)]
pub struct Gas3dRule {
    table: CollisionTable,
    seed: u64,
    /// (depth, rows, cols) for periodic hash wrapping.
    wrap: Option<(usize, usize, usize)>,
}

impl Gas3dRule {
    /// Creates the rule with the given chirality seed.
    pub fn new(seed: u64) -> Self {
        Gas3dRule { table: gas3d_table(), seed, wrap: None }
    }

    /// Declares a periodic box (wraps chirality hashes).
    pub fn with_wrap(mut self, depth: usize, rows: usize, cols: usize) -> Self {
        self.wrap = Some((depth, rows, cols));
        self
    }

    /// The verified collision table.
    pub fn table(&self) -> &CollisionTable {
        &self.table
    }

    fn collide_at(&self, s: u8, site: [usize; 3], time: u64) -> u8 {
        let key = prng::splitmix64(
            prng::splitmix64(site[0] as u64) ^ ((site[1] as u64) << 1) ^ ((site[2] as u64) << 33),
        );
        self.table.collide(s, prng::site_bit(key, time, self.seed))
    }
}

impl Rule for Gas3dRule {
    type S = u8;

    fn update(&self, w: &Window<u8>) -> u8 {
        debug_assert_eq!(w.rank(), 3);
        let c = w.coord();
        let here = [c.get(0), c.get(1), c.get(2)];
        let mut out = w.center() & OBSTACLE_BIT;
        for (i, off) in GRID_OFFSETS.iter().enumerate() {
            let (dz, dr, dc) = (-off[0], -off[1], -off[2]);
            let src_state = w.at3(dz, dr, dc);
            let src = match self.wrap {
                Some((d, r, cl)) => [
                    (here[0] as isize + dz).rem_euclid(d as isize) as usize,
                    (here[1] as isize + dr).rem_euclid(r as isize) as usize,
                    (here[2] as isize + dc).rem_euclid(cl as isize) as usize,
                ],
                None => [
                    here[0].wrapping_add_signed(dz),
                    here[1].wrapping_add_signed(dr),
                    here[2].wrapping_add_signed(dc),
                ],
            };
            let post = self.collide_at(src_state, src, w.time());
            out |= post & (1 << i);
        }
        out
    }

    fn name(&self) -> &str {
        "gas-3d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lattice_core::{evolve, Boundary, Coord, Grid, Shape};

    #[test]
    fn velocities_are_balanced() {
        for (i, v) in VELOCITIES.iter().enumerate() {
            let o = opposite(i);
            for (axis, c) in v.iter().enumerate() {
                assert_eq!(c + VELOCITIES[o][axis], 0);
            }
        }
    }

    #[test]
    fn grid_offsets_match_velocities() {
        // col offset = vx, row offset = -vy, depth offset = vz.
        for i in 0..N_DIRS {
            let [vx, vy, vz] = VELOCITIES[i];
            let [dz, dr, dc] = GRID_OFFSETS[i];
            assert_eq!(dc as i32, vx, "channel {i}");
            assert_eq!(-(dr as i32), vy, "channel {i}");
            assert_eq!(dz as i32, vz, "channel {i}");
        }
    }

    #[test]
    fn head_on_pairs_scatter_perpendicular() {
        let t = gas3d_table();
        let x_pair = 0b001001u8; // +x, -x
        let y_pair = 0b010010;
        let z_pair = 0b100100;
        assert_eq!(t.collide(x_pair, false), y_pair);
        assert_eq!(t.collide(x_pair, true), z_pair);
        assert_eq!(t.collide(y_pair, false), z_pair);
        assert_eq!(t.collide(z_pair, true), y_pair);
        // Spectators suppress the collision.
        assert_eq!(t.collide(x_pair | 0b010000, false), x_pair | 0b010000);
    }

    #[test]
    fn single_particle_streams() {
        let shape = Shape::grid3(4, 4, 4).unwrap();
        let rule = Gas3dRule::new(0).with_wrap(4, 4, 4);
        let mut g = Grid::new(shape);
        g.set(Coord::c3(1, 1, 1), 0b000100); // +z mover
        let g1 = evolve(&g, &rule, Boundary::Periodic, 0, 1);
        assert_eq!(g1.get(Coord::c3(2, 1, 1)), 0b000100);
        assert_eq!(g1.count(|s| s != 0), 1);
    }

    #[test]
    fn conservation_on_torus() {
        let shape = Shape::grid3(4, 4, 4).unwrap();
        let rule = Gas3dRule::new(9).with_wrap(4, 4, 4);
        let g = Grid::from_fn(shape, |c| {
            (prng::site_hash(shape.linear(c) as u64, 0, 13) as u8) & GAS3D_MASK
        });
        let before = totals(&g);
        let gn = evolve(&g, &rule, Boundary::Periodic, 0, 25);
        assert_eq!(totals(&gn), before);
    }

    #[test]
    fn obstacle_bounces() {
        let shape = Shape::grid3(4, 4, 4).unwrap();
        let rule = Gas3dRule::new(1).with_wrap(4, 4, 4);
        let mut g = Grid::new(shape);
        g.set(Coord::c3(0, 1, 1), 0b000001); // +x mover
        g.set(Coord::c3(0, 1, 2), OBSTACLE_BIT);
        let g2 = evolve(&g, &rule, Boundary::Periodic, 0, 2);
        assert_eq!(g2.get(Coord::c3(0, 1, 1)), 0b001000); // -x mover back home
    }

    fn totals(g: &Grid<u8>) -> (u64, [i64; 3]) {
        g.as_slice().iter().fold((0, [0; 3]), |(m, mut p), &s| {
            let inv = gas3d_invariants(s & GAS3D_MASK);
            for (pc, ic) in p.iter_mut().zip(inv.momentum) {
                *pc += ic as i64;
            }
            (m + inv.mass as u64, p)
        })
    }
}
