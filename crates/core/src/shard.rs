//! Block sharding geometry, shared by the board farm (`lattice-farm`)
//! and its analytical model (`lattice-vlsi`) so the executed and the
//! predicted machine can never disagree about blocks.
//!
//! The lattice is cut into an `R × C` grid of contiguous, balanced
//! rectangular blocks, one per board; a shard count `S` is the
//! single-row grid `(1, S)`. A farm runs `k` generations per
//! bulk-synchronous pass and therefore needs a `k`-deep halo on each
//! seamed side: a block augmented with `k` true generation-`t` rows and
//! columns can evolve `k` steps with every *owned* site exact, because
//! boundary pollution travels one site per generation and never crosses
//! the halo.

use crate::error::LatticeError;

/// One axis of a block partition: the `len` sites from `start` that
/// one part owns, plus the halo it imports on either side.
struct Span {
    start: usize,
    len: usize,
    halo_lo: usize,
    halo_hi: usize,
}

/// Splits an `n`-site axis into `parts` balanced contiguous spans with a
/// `halo`-site exchange margin (the generations per pass).
///
/// Lengths differ by at most one (the first `n mod parts` spans get the
/// extra site). Under the null boundary (`periodic = false`) halos are
/// clamped at the true lattice edges — an edge block's augmented
/// boundary must *coincide* with the lattice boundary, since padding it
/// with fabricated null sites would let particles that really exit the
/// lattice collide in the padding and re-enter. On a torus every span
/// imports the full `halo` from both neighbors.
///
/// On a torus every span must own at least `halo` sites: a narrower
/// span's halo windows would import overlapping or self-owned sites
/// (for a single part the wrap would have to circle the lattice more
/// than once), so the exchange geometry is ill-formed and the request
/// is rejected with a structured error.
fn partition(
    n: usize,
    parts: usize,
    halo: usize,
    periodic: bool,
) -> Result<Vec<Span>, LatticeError> {
    if parts == 0 {
        return Err(LatticeError::InvalidConfig("a farm needs at least one shard".into()));
    }
    if parts > n {
        return Err(LatticeError::InvalidConfig(format!(
            "{parts} shards over {n} columns leaves a board with no slab"
        )));
    }
    let base = n / parts;
    let extra = n % parts;
    if periodic && base < halo {
        // The first span of length `base` (index `extra`) is the
        // narrowest; once every length is ≥ halo no window can reach
        // past the immediate neighbor, so checking the minimum
        // suffices.
        return Err(LatticeError::InvalidConfig(format!(
            "torus shard {extra} owns {base} columns but the halo is {halo} wide: its \
             left and right halo windows would import overlapping or self-owned \
             columns ({n} cols / {parts} shards, depth {halo})"
        )));
    }
    let mut spans = Vec::with_capacity(parts);
    let mut start = 0usize;
    for index in 0..parts {
        let len = base + usize::from(index < extra);
        let (halo_lo, halo_hi) =
            if periodic { (halo, halo) } else { (halo.min(start), halo.min(n - start - len)) };
        spans.push(Span { start, len, halo_lo, halo_hi });
        start += len;
    }
    debug_assert_eq!(start, n);
    Ok(spans)
}

/// One board's rectangular block in an `R × C` grid partition: the
/// sub-lattice it owns plus the halo rows and columns it imports each
/// pass. At `R = 1` a block is a columnar slab (`row0 = 0`, full rows,
/// no vertical halos — the torus's vertical wrap stays on board).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// Shard index, row-major over the board grid
    /// (`grid_row · C + grid_col`).
    pub index: usize,
    /// Board-grid row.
    pub grid_row: usize,
    /// Board-grid column.
    pub grid_col: usize,
    /// First owned global row.
    pub row0: usize,
    /// Owned rows.
    pub rows: usize,
    /// First owned global column.
    pub col0: usize,
    /// Owned columns.
    pub width: usize,
    /// Halo rows imported across the upper (inter-rack) link.
    pub halo_up: usize,
    /// Halo rows imported across the lower (inter-rack) link.
    pub halo_down: usize,
    /// Halo columns imported across the left (intra-rack) link.
    pub halo_left: usize,
    /// Halo columns imported across the right (intra-rack) link.
    pub halo_right: usize,
}

impl Block {
    /// One past the last owned global row.
    pub fn row_end(&self) -> usize {
        self.row0 + self.rows
    }

    /// One past the last owned global column.
    pub fn col_end(&self) -> usize {
        self.col0 + self.width
    }

    /// Total columns in the halo-augmented block the board streams.
    pub fn aug_width(&self) -> usize {
        self.halo_left + self.width + self.halo_right
    }

    /// Total rows in the halo-augmented block, given `wrap` on-board
    /// vertical wrap rows per side (nonzero only for a single-row
    /// board grid on the torus, where the wrap never crosses a link).
    pub fn aug_height(&self, wrap: usize) -> usize {
        2 * wrap + self.halo_up + self.rows + self.halo_down
    }

    /// Sites imported over links per pass: the halo columns span the
    /// full augmented height (they carry the corner cells, which ride
    /// the horizontal tier), the halo rows span only the owned width.
    pub fn halo_sites(&self, wrap: usize) -> usize {
        (self.halo_left + self.halo_right) * self.aug_height(wrap)
            + (self.halo_up + self.halo_down) * self.width
    }
}

/// Splits a `rows × cols` lattice into a `grid_rows × grid_cols` grid
/// of balanced rectangular [`Block`]s with a `halo` exchange margin on
/// every seamed side. A shard count `S` is the grid `(1, S)`.
///
/// Each axis is split independently: sizes differ by at most one site
/// (the first `n mod parts` bands get the extra one); the torus imports
/// full halos on both sides (including the self-wrap of a single band)
/// and rejects bands narrower than the halo, whose windows would import
/// overlapping or self-owned sites; the null boundary clamps halos at
/// the true lattice edges. The one exception is `grid_rows = 1`, where
/// vertical halos are zero — the torus's vertical wrap is handled on
/// board, never across a link.
pub fn partition2d(
    rows: usize,
    cols: usize,
    grid_rows: usize,
    grid_cols: usize,
    halo: usize,
    periodic: bool,
) -> Result<Vec<Block>, LatticeError> {
    let col_spans = partition(cols, grid_cols, halo, periodic)?;
    let row_spans = if grid_rows == 1 {
        vec![Span { start: 0, len: rows, halo_lo: 0, halo_hi: 0 }]
    } else {
        partition(rows, grid_rows, halo, periodic)?
    };
    let mut blocks = Vec::with_capacity(grid_rows * grid_cols);
    for (grid_row, rs) in row_spans.iter().enumerate() {
        for (grid_col, cs) in col_spans.iter().enumerate() {
            blocks.push(Block {
                index: grid_row * grid_cols + grid_col,
                grid_row,
                grid_col,
                row0: rs.start,
                rows: rs.len,
                col0: cs.start,
                width: cs.len,
                halo_up: rs.halo_lo,
                halo_down: rs.halo_hi,
                halo_left: cs.halo_lo,
                halo_right: cs.halo_hi,
            });
        }
    }
    Ok(blocks)
}

/// One engine sub-run of a board's pass over a rectangular block under
/// overlapped exchange: a rectangle of the block's *augmented* sites,
/// plus the owned rectangle whose end-of-pass values that run certifies
/// exact.
///
/// Coordinates: `r0`/`height` and `a0`/`width` index the augmented
/// block (`(0, 0)` is its top-left corner, wrap rows included);
/// `own_r_lo..own_r_hi` × `own_lo..own_hi` index the block's *owned*
/// sites (`(0, 0)` is `(Block::row0, Block::col0)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region2d {
    /// First augmented row of the sub-run.
    pub r0: usize,
    /// Augmented rows the sub-run streams.
    pub height: usize,
    /// First augmented column of the sub-run.
    pub a0: usize,
    /// Augmented columns the sub-run streams.
    pub width: usize,
    /// First owned row stitched from this run.
    pub own_r_lo: usize,
    /// One past the last owned row stitched from this run.
    pub own_r_hi: usize,
    /// First owned column stitched from this run.
    pub own_lo: usize,
    /// One past the last owned column stitched from this run.
    pub own_hi: usize,
    /// Boundary sweeps run first each pass; their output is exactly
    /// what the next pass's halo frames carry, so the frames can ship
    /// while the interior sweep is still evolving.
    pub boundary: bool,
}

impl Region2d {
    /// Owned sites this run certifies.
    pub fn own_sites(&self) -> usize {
        (self.own_r_hi - self.own_r_lo) * (self.own_hi - self.own_lo)
    }
}

/// Splits a block's per-pass sweep into boundary regions adjacent to
/// each seam plus one interior region, for communication/compute
/// overlap: the boundary regions are computed first, and the `k` owned
/// rows and columns nearest each seam are all any neighbor imports next
/// pass, so those halo frames ship while the interior region evolves.
/// With `overlap` off (or a block with no seams) the whole augmented
/// block is one non-boundary region — the serialized sweep. Emission
/// order: north, south, west, east, interior.
///
/// Geometry (pollution travels one site per generation, `halo = k`
/// generations per pass):
///
/// * A seam-side band spans the halo plus `2k` owned sites (clipped to
///   the block). Its outer `k` owned sites are exact: the cut edge it
///   introduces sits `2k` sites from the seam, so its pollution front
///   stops `k` short of the shipped sites.
/// * The interior region spans exactly the owned sites; each seam-side
///   cut edge pollutes `k` sites inward, which is precisely the strip a
///   band already certified.
/// * Clamped sides (the augmented edge *is* the lattice edge) introduce
///   no pollution, so they need no band and lose no sites.
/// * The north/south bands span the **full augmented width** and
///   certify the `k` owned rows nearest the seam across *every* owned
///   column — including the corners, whose diagonal-neighbor data rides
///   in the corner cells of the augmented block.
/// * The west/east bands cover the remaining middle rows. On a
///   seamless row side the band runs to the full augmented extent (wrap
///   rows included): at `R = 1` no north/south bands exist, and the
///   west/east/interior regions span the full augmented height.
/// * `wrap` is the on-board vertical wrap depth (`k` only for a
///   single-row board grid on the torus). A wrap row is true
///   generation-`t` data just like a halo row, so a cut edge beyond it
///   pollutes only the wrap rows, never the owned ones.
///
/// Requires every seamed side of the block to own at least `halo` sites
/// along its axis — narrower blocks cannot source a full halo frame
/// from their own sites and are rejected by the farm's partition
/// validation.
pub fn sweep_regions2d(block: &Block, halo: usize, overlap: bool, wrap: usize) -> Vec<Region2d> {
    let (h, w) = (block.rows, block.width);
    let (hu, hd, hl, hr) = (block.halo_up, block.halo_down, block.halo_left, block.halo_right);
    let aug_h = block.aug_height(wrap);
    let aug_w = block.aug_width();
    let k = halo;
    let full = Region2d {
        r0: 0,
        height: aug_h,
        a0: 0,
        width: aug_w,
        own_r_lo: 0,
        own_r_hi: h,
        own_lo: 0,
        own_hi: w,
        boundary: false,
    };
    if !overlap || (hu == 0 && hd == 0 && hl == 0 && hr == 0) {
        return vec![full];
    }
    let mut regions = Vec::with_capacity(5);
    // Owned rows/columns certified by each band. When the block is
    // narrower than 2k along an axis the two claims meet; the
    // north/west band wins the contested sites and the south/east one
    // keeps only its own exact outer strip.
    let n_cover = if hu > 0 { k.min(h) } else { 0 };
    let s_lo = if hd > 0 { h.saturating_sub(k).max(n_cover) } else { h };
    let w_cover = if hl > 0 { k.min(w) } else { 0 };
    let e_lo = if hr > 0 { w.saturating_sub(k).max(w_cover) } else { w };
    // Row span of the west/east/interior regions: a seamed row side is
    // certified by its north/south band; a seamless side runs to the
    // full augmented extent (wrap rows included), exactly like the 1-D
    // sweep's full-height regions.
    let mid_r0 = if hu > 0 { wrap + hu } else { 0 };
    let mid_r1 = if hd > 0 { wrap + hu + h } else { aug_h };
    if hu > 0 {
        regions.push(Region2d {
            r0: 0,
            height: (hu + 2 * k).min(aug_h),
            a0: 0,
            width: aug_w,
            own_r_lo: 0,
            own_r_hi: n_cover,
            own_lo: 0,
            own_hi: w,
            boundary: true,
        });
    }
    if hd > 0 && s_lo < h {
        let r0 = aug_h.saturating_sub(hd + 2 * k);
        regions.push(Region2d {
            r0,
            height: aug_h - r0,
            a0: 0,
            width: aug_w,
            own_r_lo: s_lo,
            own_r_hi: h,
            own_lo: 0,
            own_hi: w,
            boundary: true,
        });
    }
    if n_cover < s_lo {
        let (height, own_r_lo, own_r_hi) = (mid_r1 - mid_r0, n_cover, s_lo);
        if hl > 0 {
            regions.push(Region2d {
                r0: mid_r0,
                height,
                a0: 0,
                width: (hl + 2 * k).min(aug_w),
                own_r_lo,
                own_r_hi,
                own_lo: 0,
                own_hi: w_cover,
                boundary: true,
            });
        }
        if hr > 0 && e_lo < w {
            let a0 = aug_w.saturating_sub(hr + 2 * k);
            regions.push(Region2d {
                r0: mid_r0,
                height,
                a0,
                width: aug_w - a0,
                own_r_lo,
                own_r_hi,
                own_lo: e_lo,
                own_hi: w,
                boundary: true,
            });
        }
        if w_cover < e_lo {
            regions.push(Region2d {
                r0: mid_r0,
                height,
                a0: hl,
                width: w,
                own_r_lo,
                own_r_hi,
                own_lo: w_cover,
                own_hi: e_lo,
                boundary: false,
            });
        }
    }
    regions
}

/// The widest halo-augmented block [`partition2d`] produces on a
/// `grid_rows × grid_cols` board grid — the figure that sizes per-board
/// hardware (SPA slice count, stream buffers) and therefore must stay
/// stable when a farm re-partitions after retiring a board. Degraded
/// re-partitioning sizes chips for the *smallest* grid it may shrink to
/// by taking this maximum over the reachable range.
pub fn max_aug_width2d(
    rows: usize,
    cols: usize,
    grid_rows: usize,
    grid_cols: usize,
    halo: usize,
    periodic: bool,
) -> Result<usize, LatticeError> {
    Ok(partition2d(rows, cols, grid_rows, grid_cols, halo, periodic)?
        .iter()
        .map(Block::aug_width)
        .max()
        .unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The single-row layout of `cols` columns over `shards` boards.
    fn slabs(rows: usize, cols: usize, shards: usize, halo: usize, periodic: bool) -> Vec<Block> {
        partition2d(rows, cols, 1, shards, halo, periodic).unwrap()
    }

    #[test]
    fn single_row_slabs_tile_the_columns_balanced() {
        for cols in [1usize, 7, 16, 240] {
            for shards in 1..=cols.min(9) {
                let slabs = slabs(5, cols, shards, 2, false);
                assert_eq!(slabs.len(), shards);
                let mut next = 0usize;
                for (i, s) in slabs.iter().enumerate() {
                    assert_eq!((s.index, s.grid_row, s.grid_col), (i, 0, i));
                    assert_eq!(s.col0, next, "contiguous");
                    assert!(s.width >= 1);
                    assert_eq!((s.row0, s.rows), (0, 5), "a single grid row owns every row");
                    assert_eq!((s.halo_up, s.halo_down), (0, 0), "no vertical seams");
                    next = s.col_end();
                }
                assert_eq!(next, cols, "slabs cover every column exactly once");
                let wmax = slabs.iter().map(|s| s.width).max().unwrap();
                let wmin = slabs.iter().map(|s| s.width).min().unwrap();
                assert!(wmax - wmin <= 1, "balanced within one column");
            }
        }
    }

    #[test]
    fn null_boundary_halos_clamp_at_the_edges() {
        let slabs = slabs(10, 10, 4, 3, false);
        // Widths 3,3,2,2; col0 0,3,6,8.
        assert_eq!(slabs[0].halo_left, 0, "nothing exists left of the lattice");
        assert_eq!(slabs[0].halo_right, 3);
        assert_eq!(slabs[1].halo_left, 3);
        assert_eq!(slabs[1].halo_right, 3);
        // Shard 2 owns cols 6..8: only 2 columns remain to its right.
        assert_eq!(slabs[2].halo_right, 2);
        assert_eq!(slabs[3].halo_left, 3);
        assert_eq!(slabs[3].halo_right, 0);
        assert_eq!(slabs[1].aug_width(), 9);
        assert_eq!(slabs[1].halo_sites(0), 60);
    }

    #[test]
    fn periodic_halos_never_clamp() {
        for s in slabs(6, 12, 4, 3, true) {
            assert_eq!((s.halo_left, s.halo_right), (3, 3));
            assert_eq!((s.halo_up, s.halo_down), (0, 0), "the vertical wrap stays on board");
        }
    }

    #[test]
    fn torus_slabs_narrower_than_the_halo_are_rejected() {
        // Regression: this used to return slabs of width 2 whose halo
        // windows (3 wide) imported overlapping / self-owned columns.
        let err = partition2d(5, 10, 1, 4, 3, true).unwrap_err();
        assert!(err.to_string().contains("overlapping or self-owned"), "{err}");
        // Width == halo is the boundary case and stays legal.
        assert!(partition2d(5, 12, 1, 4, 3, true).is_ok());
        // Null boundary clamps instead; no rejection.
        assert!(partition2d(5, 10, 1, 4, 3, false).is_ok());
        // A single torus shard may self-wrap (width ≥ halo), but not
        // circle the lattice more than once (width < halo).
        assert!(partition2d(5, 8, 1, 1, 5, true).is_ok());
        assert!(partition2d(5, 2, 1, 1, 5, true).is_err());
    }

    #[test]
    fn single_shard_imports_nothing_under_null_boundary() {
        let s = slabs(64, 64, 1, 4, false)[0];
        assert_eq!(s.aug_width(), 64);
        assert_eq!(s.halo_sites(0), 0);
    }

    #[test]
    fn max_aug_width_grows_as_boards_retire() {
        // Fewer boards ⇒ wider slabs: the reachable maximum over a
        // degrade range is always the smallest shard count's figure.
        let mut prev = 0usize;
        for shards in (1..=5).rev() {
            let w = max_aug_width2d(8, 40, 1, shards, 2, false).unwrap();
            assert!(w >= prev, "S={shards}");
            prev = w;
        }
        assert_eq!(max_aug_width2d(8, 40, 1, 1, 2, false).unwrap(), 40, "one board, no halo");
        assert_eq!(
            max_aug_width2d(8, 40, 1, 2, 2, true).unwrap(),
            24,
            "torus: 20 owned + 2·2 halo"
        );
    }

    #[test]
    fn degenerate_farms_are_rejected() {
        assert!(partition2d(4, 16, 1, 0, 1, false).is_err());
        assert!(partition2d(4, 16, 0, 1, 1, false).is_err());
        assert!(partition2d(4, 4, 1, 5, 1, false).is_err());
        assert!(partition2d(4, 4, 1, 4, 1, false).is_ok());
    }

    #[test]
    fn blocks_tile_the_lattice() {
        for (rows, cols) in [(9usize, 14usize), (12, 12), (7, 30)] {
            for gr in 1..=3usize {
                for gc in 1..=3usize {
                    let blocks = partition2d(rows, cols, gr, gc, 2, false).unwrap();
                    assert_eq!(blocks.len(), gr * gc);
                    let mut owned = vec![0u8; rows * cols];
                    for (i, b) in blocks.iter().enumerate() {
                        assert_eq!(b.index, i, "row-major indexing");
                        assert_eq!(b.index, b.grid_row * gc + b.grid_col);
                        for r in b.row0..b.row_end() {
                            for c in b.col0..b.col_end() {
                                owned[r * cols + c] += 1;
                            }
                        }
                    }
                    assert!(owned.iter().all(|&n| n == 1), "{rows}x{cols} over {gr}x{gc}");
                }
            }
        }
    }

    #[test]
    fn torus_blocks_shorter_than_the_halo_are_rejected() {
        // 10 rows over 4 grid rows leaves heights 3,3,2,2 < halo 3.
        assert!(partition2d(10, 24, 4, 2, 3, true).is_err());
        assert!(partition2d(12, 24, 4, 2, 3, true).is_ok());
        // Null boundary clamps the row halos instead.
        assert!(partition2d(10, 24, 4, 2, 3, false).is_ok());
    }

    /// Every owned site certified by exactly one region, and every site
    /// a neighbor imports next pass (the `k`-deep strip along each seam,
    /// corners included) certified by a *boundary* region, else overlap
    /// could ship stale or polluted sites.
    fn check_regions2d(block: &Block, halo: usize, wrap: usize) {
        let regions = sweep_regions2d(block, halo, true, wrap);
        let (h, w) = (block.rows, block.width);
        let mut certified = vec![0u8; h * w];
        let mut boundary_owned = vec![false; h * w];
        for reg in &regions {
            assert!(reg.r0 + reg.height <= block.aug_height(wrap), "region inside aug block");
            assert!(reg.a0 + reg.width <= block.aug_width(), "region inside aug block");
            for r in reg.own_r_lo..reg.own_r_hi {
                for c in reg.own_lo..reg.own_hi {
                    certified[r * w + c] += 1;
                    boundary_owned[r * w + c] = reg.boundary;
                }
            }
        }
        assert!(certified.iter().all(|&n| n == 1), "{block:?}");
        let shipped_row = |r: usize| {
            (block.halo_up > 0 && r < halo.min(h)) || (block.halo_down > 0 && r + halo >= h)
        };
        let shipped_col = |c: usize| {
            (block.halo_left > 0 && c < halo.min(w)) || (block.halo_right > 0 && c + halo >= w)
        };
        for r in 0..h {
            for c in 0..w {
                if shipped_row(r) || shipped_col(c) {
                    assert!(
                        boundary_owned[r * w + c],
                        "shipped site ({r},{c}) of {block:?} must come from a boundary sweep"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_regions2d_partition_the_owned_sites() {
        for (rows, cols) in [(10usize, 16usize), (16, 10), (9, 9)] {
            for gr in 1..=3usize {
                for gc in 1..=3usize {
                    for halo in 1..=3usize {
                        for periodic in [false, true] {
                            if rows / gr < halo || cols / gc < halo {
                                continue; // farms reject blocks narrower than the halo
                            }
                            let wrap = if periodic && gr == 1 { halo } else { 0 };
                            for b in partition2d(rows, cols, gr, gc, halo, periodic).unwrap() {
                                check_regions2d(&b, halo, wrap);
                            }
                        }
                    }
                }
            }
        }
        // Single-row grids over a wider range of column splits.
        for cols in [8usize, 10, 17, 64] {
            for shards in 1..=cols.min(8) {
                for halo in 1..=4usize {
                    for periodic in [false, true] {
                        if cols / shards < halo {
                            continue;
                        }
                        let wrap = if periodic { halo } else { 0 };
                        for b in slabs(3, cols, shards, halo, periodic) {
                            check_regions2d(&b, halo, wrap);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn serialized_and_seamless_sweeps_are_one_full_region() {
        for b in slabs(5, 12, 3, 2, true) {
            let r = sweep_regions2d(&b, 2, false, 2);
            assert_eq!(r.len(), 1);
            assert_eq!((r[0].r0, r[0].height, r[0].own_r_lo, r[0].own_r_hi), (0, 9, 0, 5));
            assert_eq!(
                (r[0].a0, r[0].width, r[0].own_lo, r[0].own_hi, r[0].boundary),
                (0, 8, 0, 4, false)
            );
        }
        let seamless = slabs(5, 12, 1, 2, false)[0];
        let r = sweep_regions2d(&seamless, 2, true, 0);
        assert_eq!(r.len(), 1);
        assert!(!r[0].boundary);
    }

    #[test]
    fn interior_slab_splits_into_three_full_height_regions() {
        // cols 24, 3 shards, k = 2: the middle slab owns cols 8..16
        // with full halos. West band: halo (2) + 2k (4) augmented
        // columns certifying owned 0..2; mirrored east; interior
        // certifies 2..6. Every region spans the full augmented height,
        // the torus's on-board wrap rows included.
        for periodic in [false, true] {
            let wrap = if periodic { 2 } else { 0 };
            let b = slabs(10, 24, 3, 2, periodic)[1];
            let r = sweep_regions2d(&b, 2, true, wrap);
            assert_eq!(r.len(), 3);
            for x in &r {
                assert_eq!((x.r0, x.height), (0, 10 + 2 * wrap));
                assert_eq!((x.own_r_lo, x.own_r_hi), (0, 10));
            }
            assert_eq!(
                (r[0].a0, r[0].width, r[0].own_lo, r[0].own_hi, r[0].boundary),
                (0, 6, 0, 2, true)
            );
            assert_eq!(
                (r[1].a0, r[1].width, r[1].own_lo, r[1].own_hi, r[1].boundary),
                (6, 6, 6, 8, true)
            );
            assert_eq!(
                (r[2].a0, r[2].width, r[2].own_lo, r[2].own_hi, r[2].boundary),
                (2, 8, 2, 6, false)
            );
        }
    }

    #[test]
    fn narrow_slab_collapses_to_boundary_sweeps_only() {
        // Slab width k..2k: the two boundary claims meet, the interior
        // region vanishes, and the contested columns go to the west
        // sweep exactly once.
        let b = slabs(4, 12, 4, 2, true)[1];
        assert_eq!(b.width, 3);
        assert!(sweep_regions2d(&b, 2, true, 2).iter().all(|r| r.boundary));
        check_regions2d(&b, 2, 2);
    }

    #[test]
    fn interior_block_splits_into_five_regions() {
        // 18×24 over a 3×3 torus grid, k = 2: the center block owns
        // rows 6..12 × cols 8..16 with full halos on all four sides.
        let b = partition2d(18, 24, 3, 3, 2, true).unwrap()[4];
        assert_eq!((b.row0, b.rows, b.col0, b.width), (6, 6, 8, 8));
        let r = sweep_regions2d(&b, 2, true, 0);
        assert_eq!(r.len(), 5);
        // North and south bands: full augmented width, k owned rows.
        assert_eq!((r[0].r0, r[0].height, r[0].a0, r[0].width), (0, 6, 0, 12));
        assert_eq!((r[0].own_r_lo, r[0].own_r_hi, r[0].own_lo, r[0].own_hi), (0, 2, 0, 8));
        assert_eq!((r[1].r0, r[1].height, r[1].a0, r[1].width), (4, 6, 0, 12));
        assert_eq!((r[1].own_r_lo, r[1].own_r_hi, r[1].own_lo, r[1].own_hi), (4, 6, 0, 8));
        // West and east bands: middle rows only.
        assert_eq!((r[2].r0, r[2].height, r[2].a0, r[2].width), (2, 6, 0, 6));
        assert_eq!((r[2].own_r_lo, r[2].own_r_hi, r[2].own_lo, r[2].own_hi), (2, 4, 0, 2));
        assert_eq!((r[3].r0, r[3].height, r[3].a0, r[3].width), (2, 6, 6, 6));
        assert_eq!((r[3].own_r_lo, r[3].own_r_hi, r[3].own_lo, r[3].own_hi), (2, 4, 6, 8));
        // Interior: the remaining center rectangle.
        assert_eq!((r[4].r0, r[4].height, r[4].a0, r[4].width), (2, 6, 2, 8));
        assert_eq!((r[4].own_r_lo, r[4].own_r_hi, r[4].own_lo, r[4].own_hi), (2, 4, 2, 6));
        assert!(r[..4].iter().all(|x| x.boundary) && !r[4].boundary);
        assert_eq!(r.iter().map(Region2d::own_sites).sum::<usize>(), 48);
        // Serialized sweep: one full region.
        let s = sweep_regions2d(&b, 2, false, 0);
        assert_eq!(s.len(), 1);
        assert_eq!((s[0].height, s[0].width, s[0].boundary), (10, 12, false));
    }

    #[test]
    fn block_halo_sites_count_corners_once() {
        // Center block above: halo cols span the full augmented height
        // (corners ride the horizontal tier), halo rows span the owned
        // width only — every imported site counted exactly once.
        let b = partition2d(18, 24, 3, 3, 2, true).unwrap()[4];
        assert_eq!(b.aug_height(0), 10);
        assert_eq!(b.aug_width(), 12);
        assert_eq!(b.halo_sites(0), 4 * 10 + 4 * 8);
        assert_eq!(b.halo_sites(0), 12 * 10 - 8 * 6);
        assert_eq!(max_aug_width2d(18, 24, 3, 3, 2, true).unwrap(), 12);
    }
}
