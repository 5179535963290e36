//! Block sharding geometry — the layout itself comes from
//! [`lattice_core::shard`], where it is shared with the analytical
//! board model in `lattice-vlsi` so the executed farm and the predicted
//! farm can never disagree about block layout. See that module for the
//! exactness argument (halo width = generations per pass, halos clamped
//! at the null boundary's true edges).
//!
//! This module adds the *farm's* stricter validation on top: a block
//! that has a seam on an axis must own at least `halo` sites along it.
//! The core partitioner tolerates thinner null-boundary blocks, but a
//! board that owns fewer sites than the halo cannot source a full halo
//! frame from its own sites — its neighbor's import would have to reach
//! *through* it into the next board, which no point-to-point
//! `BoardLink` topology carries. `LatticeFarm` rejects such
//! configurations with a structured error instead of letting the
//! exchange stitch a degenerate frame.

use lattice_core::LatticeError;

pub use lattice_core::shard::{max_aug_width2d, partition2d, sweep_regions2d, Block, Region2d};

/// [`lattice_core::shard::partition2d`] plus the farm's block-size
/// check on *both* axes: every block with a seam on an axis must own at
/// least `halo` sites along it, else a neighbor's import would reach
/// through the board. A single grid row has no vertical seams, so only
/// the column check applies there.
pub fn partition2d_checked(
    rows: usize,
    cols: usize,
    grid_rows: usize,
    grid_cols: usize,
    halo: usize,
    periodic: bool,
) -> Result<Vec<Block>, LatticeError> {
    let blocks = partition2d(rows, cols, grid_rows, grid_cols, halo, periodic)?;
    for b in &blocks {
        if (b.halo_left > 0 || b.halo_right > 0) && b.width < halo {
            return Err(LatticeError::InvalidConfig(format!(
                "shard {} owns {} columns but the halo is {halo} wide: a neighbor's \
                 import would reach through the board ({cols} cols / {grid_cols} grid \
                 cols, depth {halo})",
                b.index, b.width
            )));
        }
        if (b.halo_up > 0 || b.halo_down > 0) && b.rows < halo {
            return Err(LatticeError::InvalidConfig(format!(
                "shard {} owns {} rows but the halo is {halo} deep: a neighbor's \
                 import would reach through the board ({rows} rows / {grid_rows} grid \
                 rows, depth {halo})",
                b.index, b.rows
            )));
        }
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_shards_than_columns_is_a_structured_error() {
        let err = partition2d_checked(4, 8, 1, 9, 1, false).unwrap_err();
        assert!(matches!(err, LatticeError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("no slab"), "{err}");
    }

    #[test]
    fn slab_narrower_than_the_halo_is_rejected() {
        // 10 cols / 4 shards leaves width-2 slabs; a depth-3 pass needs
        // 3-column halo frames that a 2-column slab cannot source.
        let err = partition2d_checked(4, 10, 1, 4, 3, false).unwrap_err();
        assert!(matches!(err, LatticeError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("reach through"), "{err}");
        // The same layout is fine one generation shallower.
        assert!(partition2d_checked(4, 10, 1, 4, 2, false).is_ok());
    }

    #[test]
    fn single_shard_without_seams_may_be_arbitrarily_narrow() {
        // One board under the null boundary has no seams, so no halo
        // constraint applies even when the lattice is narrower than the
        // pass depth.
        assert!(partition2d_checked(4, 2, 1, 1, 5, false).is_ok());
        // On a torus the single board wraps onto itself: the seam is
        // real and the width check bites.
        assert!(partition2d_checked(4, 2, 1, 1, 5, true).is_err());
        assert!(partition2d_checked(4, 8, 1, 1, 5, true).is_ok());
    }

    #[test]
    fn width_equal_to_halo_is_the_boundary_case_and_allowed() {
        for b in partition2d_checked(4, 12, 1, 4, 3, true).unwrap() {
            assert_eq!(b.width, 3);
        }
    }

    #[test]
    fn blocks_are_checked_on_both_axes() {
        // Null boundary: clamped halos, but a seamed 2-row band cannot
        // source a 3-row halo frame.
        let err = partition2d_checked(10, 24, 4, 2, 3, false).unwrap_err();
        assert!(err.to_string().contains("reach through"), "{err}");
        assert!(partition2d_checked(12, 24, 4, 2, 3, false).is_ok());
        // The column axis is checked the same way.
        assert!(partition2d_checked(24, 10, 2, 4, 3, false).is_err());
        // A single grid row has no vertical seams: any lattice height
        // works.
        assert!(partition2d_checked(2, 24, 1, 4, 3, false).is_ok());
    }
}
