//! Property-based tests for lattice-core invariants.

use lattice_core::{
    bits::{pack_rows, pack_word, unpack_rows, unpack_word, StreamParity},
    evolve_into, evolve_parallel,
    raster::staggered_order,
    window::{index_offset, offset_index, window_len},
    Boundary, Coord, Grid, RowSink, Rule, Shape, State, Window,
};
use proptest::prelude::*;
use std::ops::Range;

/// Packs `sites` into `S::BITS` bit-planes, 64 sites per plane word,
/// and unpacks them again.
fn pack_roundtrip<S: State>(sites: &[S]) -> Vec<S> {
    let mut words = vec![0u64; S::BITS as usize];
    let mut back = vec![S::default(); sites.len()];
    for (chunk, out) in sites.chunks(64).zip(back.chunks_mut(64)) {
        pack_word(chunk, &mut words);
        unpack_word(&words, out);
    }
    back
}

/// Rows `rows` and columns `cols` of a `Grid`, kept as a `RowSink`.
struct Kept<S: State> {
    out: Grid<S>,
    rows: Range<usize>,
    cols: Range<usize>,
}

impl<S: State> RowSink<S> for Kept<S> {
    fn window(&self) -> (Range<usize>, Range<usize>) {
        (self.rows.clone(), self.cols.clone())
    }
    fn row_mut(&mut self, r: usize) -> &mut [S] {
        let cols = self.out.shape().cols();
        &mut self.out.as_mut_slice()[r * cols..][self.cols.clone()]
    }
}

/// A `rows × cols` grid of sites drawn from `pick` by a seeded hash.
fn seeded<S: State>(rows: usize, cols: usize, seed: u64, pick: fn(u64) -> S) -> Grid<S> {
    let shape = Shape::grid2(rows, cols).unwrap();
    Grid::from_fn(shape, |c| {
        let i = (c.row() * cols + c.col()) as u64;
        pick((i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 29)
    })
}

/// `unpack_rows` of `grid`'s planes writes exactly the window
/// `rows × start..start + width`, and leaves `fill` everywhere else.
fn unpack_writes_the_window<S: State, const N: usize>(
    grid: &Grid<S>,
    rows: Range<usize>,
    start: usize,
    width: usize,
    fill: S,
) -> Result<(), TestCaseError> {
    let (shape, cols) = (grid.shape(), grid.shape().cols());
    let planes: [Vec<u64>; N] = pack_rows(grid, |_, _, _| Ok::<_, ()>(())).unwrap();
    let window = start..start + width;
    let mut sink =
        Kept { out: Grid::filled(shape, fill), rows: rows.clone(), cols: window.clone() };
    unpack_rows(&planes, cols, &mut sink);
    let expect = Grid::from_fn(shape, |c| {
        if rows.contains(&c.row()) && window.contains(&c.col()) {
            grid.get(c)
        } else {
            fill
        }
    });
    prop_assert_eq!(sink.out, expect);
    Ok(())
}

/// The [`pack_rows`] layout, stated plane bit by plane bit: bit `j` of
/// plane `p`'s word `w` of row `r` is bit `p` of site `(r, 64w + j)`,
/// and zero past the row's last site. The OR each row's check sees is
/// the OR of that row's site words.
fn planes_follow_the_layout<S: State, const N: usize>(grid: &Grid<S>) -> Result<(), TestCaseError> {
    let (rows, cols) = (grid.shape().rows(), grid.shape().cols());
    let wpr = cols.div_ceil(64);
    let mut ors = Vec::new();
    let planes: [Vec<u64>; N] = pack_rows(grid, |r, row, any| {
        ors.push((r, row.len(), any));
        Ok::<_, ()>(())
    })
    .unwrap();
    prop_assert_eq!(ors.len(), rows);
    for (r, &seen) in ors.iter().enumerate() {
        let any = (0..cols).fold(0, |a, c| a | grid.get(Coord::c2(r, c)).to_word());
        prop_assert_eq!(seen, (r, cols, any));
    }
    for (p, plane) in planes.iter().enumerate() {
        prop_assert_eq!(plane.len(), rows * wpr);
        for (i, &word) in plane.iter().enumerate() {
            let (r, w) = (i / wpr, i % wpr);
            for j in 0..64 {
                let c = 64 * w + j;
                let site = if c < cols { grid.get(Coord::c2(r, c)).to_word() >> p & 1 } else { 0 };
                prop_assert_eq!(word >> j & 1, site, "plane {} row {} site {}", p, r, c);
            }
        }
    }
    Ok(())
}

/// An order-sensitive mixing rule: distinguishes window cells from one
/// another, so any gather bug shows up.
struct MixRule;
impl Rule for MixRule {
    type S = u8;
    fn update(&self, w: &Window<u8>) -> u8 {
        w.cells().iter().enumerate().fold(w.time() as u8, |acc, (i, &c)| {
            acc.wrapping_mul(31).wrapping_add(c).wrapping_add(i as u8)
        })
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (1usize..40).prop_map(|n| Shape::line(n).unwrap()),
        (1usize..12, 1usize..12).prop_map(|(r, c)| Shape::grid2(r, c).unwrap()),
        (1usize..5, 1usize..5, 1usize..5).prop_map(|(z, r, c)| Shape::grid3(z, r, c).unwrap()),
    ]
}

/// `sites` folded one at a time and eight at a time, and what
/// `mismatch` says of each against a one-at-a-time fold of `other`.
fn parity_both_ways<S: State>(sites: &[S], other: &[S]) -> [(StreamParity, Option<String>); 2] {
    let mut theirs = StreamParity::new();
    other.iter().for_each(|&s| theirs.absorb(s));
    let mut one = StreamParity::new();
    sites.iter().for_each(|&s| one.absorb(s));
    let mut eight = StreamParity::new();
    // Ragged splits too: a fold may resume mid-byte.
    let (head, tail) = sites.split_at(sites.len() / 3);
    eight.absorb_slice(head);
    eight.absorb_slice(tail);
    [(one, one.mismatch(&theirs)), (eight, eight.mismatch(&theirs))]
}

fn assert_parity_agrees<S: State>(sites: &[S], flip: usize) -> Result<(), TestCaseError> {
    // A stream with one site's low bit flipped, and one a site short.
    let mut flipped = sites.to_vec();
    if let Some(s) = flipped.get_mut(flip % sites.len().max(1)) {
        *s = S::from_word(s.to_word() ^ 1);
    }
    let short = &sites[..sites.len().saturating_sub(1)];
    for other in [sites, &flipped[..], short] {
        let [one, eight] = parity_both_ways(sites, other);
        prop_assert_eq!(one, eight);
    }
    Ok(())
}

proptest! {
    #[test]
    fn parity_byte_fold_matches_the_site_fold(
        bytes in proptest::collection::vec(any::<u8>(), 0..70),
        wide in proptest::collection::vec(any::<u32>(), 0..70),
        flip in any::<usize>(),
    ) {
        let bools: Vec<bool> = bytes.iter().map(|&b| b & 1 == 1).collect();
        let halves: Vec<u16> = wide.iter().map(|&w| w as u16).collect();
        assert_parity_agrees(&bools, flip)?;
        assert_parity_agrees(&bytes, flip)?;
        assert_parity_agrees(&halves, flip)?;
        assert_parity_agrees(&wide, flip)?;
    }

    #[test]
    fn linear_coord_roundtrip(shape in arb_shape(), idx in any::<proptest::sample::Index>()) {
        let i = idx.index(shape.len());
        prop_assert_eq!(shape.linear(shape.coord(i)), i);
    }

    #[test]
    fn raster_linear_indices_are_sequential(shape in arb_shape()) {
        for (i, c) in lattice_core::RasterScan::new(shape).enumerate() {
            prop_assert_eq!(shape.linear(c), i);
        }
    }

    #[test]
    fn periodic_offset_stays_in_bounds(
        shape in arb_shape(),
        idx in any::<proptest::sample::Index>(),
        raw_delta in proptest::collection::vec(-1isize..=1, 4),
    ) {
        let i = idx.index(shape.len());
        let c = shape.coord(i);
        let delta = &raw_delta[..shape.rank()];
        let moved = shape.offset(c, delta, true).unwrap();
        prop_assert!(shape.try_linear(moved).is_ok());
        // Offsetting back by the negated delta returns to the origin.
        let neg: Vec<isize> = delta.iter().map(|d| -d).collect();
        prop_assert_eq!(shape.offset(moved, &neg, true).unwrap(), c);
    }

    #[test]
    fn parallel_engine_matches_sequential(
        shape in arb_shape().prop_filter("len>1", |s| s.len() > 1),
        seed in any::<u64>(),
        threads in 1usize..9,
        periodic in any::<bool>(),
    ) {
        let grid = Grid::from_fn(shape, |c| {
            (shape.linear(c) as u64).wrapping_mul(seed | 1).to_le_bytes()[0]
        });
        let boundary = if periodic { Boundary::Periodic } else { Boundary::null() };
        let mut seq = Grid::new(shape);
        let mut par = Grid::new(shape);
        evolve_into(&grid, &mut seq, &MixRule, boundary, 3).unwrap();
        evolve_parallel(&grid, &mut par, &MixRule, boundary, 3, threads).unwrap();
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn pack_roundtrip_u8(sites in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(pack_roundtrip(&sites), sites);
    }

    #[test]
    fn pack_roundtrip_bool(sites in proptest::collection::vec(any::<bool>(), 0..300)) {
        prop_assert_eq!(pack_roundtrip(&sites), sites);
    }

    /// Every window start column 0–64 and ragged widths, for byte sites
    /// on 8, 6 and 4 planes and for one-bit sites: the unpacker writes
    /// the window and nothing else.
    #[test]
    fn unpack_rows_writes_any_window(
        rows in 1usize..4,
        start in 0usize..=64,
        width in 1usize..=140,
        extra in 0usize..70,
        top in 0usize..3,
        seed in any::<u64>(),
    ) {
        let cols = start + width + extra;
        let kept = top.min(rows - 1)..rows;
        let bytes = seeded(rows, cols, seed, |x| x as u8);
        unpack_writes_the_window::<u8, 8>(&bytes, kept.clone(), start, width, 0xA5)?;
        // HPP's and FHP-I's plane counts, on sites that fit them.
        let hpp = seeded(rows, cols, seed, |x| x as u8 & 0xF);
        unpack_writes_the_window::<u8, 4>(&hpp, kept.clone(), start, width, 0xA5)?;
        let fhp = seeded(rows, cols, seed, |x| x as u8 & 0x3F);
        unpack_writes_the_window::<u8, 6>(&fhp, kept.clone(), start, width, 0xA5)?;
        let flags = seeded(rows, cols, seed, |x| x & 1 == 1);
        unpack_writes_the_window::<bool, 1>(&flags, kept.clone(), start, width, true)?;
        unpack_writes_the_window::<bool, 1>(&flags, kept, start, width, false)?;
    }

    /// Every plane bit of a packed block sits where the layout says,
    /// for every plane count the kernels, the checkpoint codec and the
    /// region frames use, on widths that fill whole words and leave
    /// ragged ones.
    #[test]
    fn pack_rows_puts_every_site_bit_where_the_layout_says(
        rows in 1usize..4,
        cols in 1usize..=200,
        seed in any::<u64>(),
    ) {
        let bytes = seeded(rows, cols, seed, |x| x as u8);
        planes_follow_the_layout::<u8, 1>(&bytes)?;
        planes_follow_the_layout::<u8, 4>(&bytes)?;
        planes_follow_the_layout::<u8, 6>(&bytes)?;
        planes_follow_the_layout::<u8, 8>(&bytes)?;
        let wide = seeded(rows, cols, seed, |x| x as u16);
        planes_follow_the_layout::<u16, 9>(&wide)?;
        planes_follow_the_layout::<u16, 16>(&wide)?;
        planes_follow_the_layout::<u32, 32>(&seeded(rows, cols, seed, |x| x as u32))?;
        planes_follow_the_layout::<bool, 1>(&seeded(rows, cols, seed, |x| x & 1 == 1))?;
    }

    #[test]
    fn pack_roundtrip_u16(sites in proptest::collection::vec(any::<u16>(), 0..300)) {
        prop_assert_eq!(pack_roundtrip(&sites), sites);
    }

    #[test]
    fn pack_roundtrip_u32(sites in proptest::collection::vec(any::<u32>(), 0..300)) {
        prop_assert_eq!(pack_roundtrip(&sites), sites);
    }

    #[test]
    fn staggered_order_is_a_permutation(
        rows in 1usize..8,
        cols in 1usize..16,
        w in 1usize..17,
    ) {
        let shape = Shape::grid2(rows, cols).unwrap();
        let order = staggered_order(shape, w);
        prop_assert_eq!(order.len(), shape.len());
        let mut seen = vec![false; shape.len()];
        for c in order {
            let i = shape.linear(c);
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn window_offsets_bijective(rank in 1usize..=4) {
        let mut seen = std::collections::HashSet::new();
        for idx in 0..window_len(rank) {
            let d = index_offset(rank, idx);
            prop_assert!(seen.insert(d));
            prop_assert_eq!(offset_index(rank, &d[..rank]), idx);
        }
    }

    #[test]
    fn window_gather_agrees_with_direct_neighbor_reads(
        rows in 1usize..8,
        cols in 1usize..8,
        seed in any::<u8>(),
        periodic in any::<bool>(),
    ) {
        let shape = Shape::grid2(rows, cols).unwrap();
        let grid = Grid::from_fn(shape, |c| (shape.linear(c) as u8).wrapping_add(seed));
        let boundary = if periodic { Boundary::Periodic } else { Boundary::Fixed(seed) };
        for idx in 0..shape.len() {
            let c = shape.coord(idx);
            let w = grid.window(c, 0, boundary);
            for dr in -1isize..=1 {
                for dc in -1isize..=1 {
                    prop_assert_eq!(w.at2(dr, dc), grid.neighbor(c, &[dr, dc], boundary));
                }
            }
        }
    }
}

mod shard_geometry {
    use lattice_core::shard::partition2d;
    use proptest::prelude::*;

    proptest! {
        /// A single-row board grid is the columnar farm: it is accepted
        /// exactly when every torus slab owns at least the halo, and
        /// then its blocks are contiguous balanced slabs, left to
        /// right, owning every row, with no vertical margin and column
        /// halos clamped only at the null boundary's true edges.
        #[test]
        fn single_row_grids_are_columnar_slabs(
            rows in 1usize..64,
            cols in 1usize..64,
            shards in 1usize..10,
            halo in 1usize..6,
            periodic in any::<bool>(),
        ) {
            let blocks = partition2d(rows, cols, 1, shards, halo, periodic);
            let legal = shards <= cols && (!periodic || cols / shards >= halo);
            prop_assert_eq!(blocks.is_ok(), legal, "{:?}", blocks);
            let Ok(blocks) = blocks else { return Ok(()) };
            prop_assert_eq!(blocks.len(), shards);
            let mut next = 0usize;
            for (i, b) in blocks.iter().enumerate() {
                prop_assert_eq!((b.index, b.grid_row, b.grid_col), (i, 0, i));
                prop_assert_eq!((b.row0, b.rows), (0, rows));
                prop_assert_eq!((b.halo_up, b.halo_down), (0, 0));
                prop_assert_eq!(b.col0, next);
                prop_assert!(b.width == cols / shards || b.width == cols / shards + 1);
                let want = if periodic {
                    (halo, halo)
                } else {
                    (halo.min(b.col0), halo.min(cols - b.col_end()))
                };
                prop_assert_eq!((b.halo_left, b.halo_right), want);
                next = b.col_end();
            }
            prop_assert_eq!(next, cols);
        }

        /// Owned blocks tile the lattice: every site is owned by
        /// exactly one block, blocks arrive in row-major index order,
        /// and widths/heights are balanced to within one.
        #[test]
        fn owned_blocks_tile_the_lattice_exactly_once(
            rows in 1usize..48,
            cols in 1usize..48,
            grid_rows in 1usize..5,
            grid_cols in 1usize..5,
            halo in 1usize..5,
            periodic in any::<bool>(),
        ) {
            let Ok(blocks) = partition2d(rows, cols, grid_rows, grid_cols, halo, periodic)
            else {
                // Rejections (more shards than columns, torus blocks
                // narrower than the halo) are covered elsewhere.
                return Ok(());
            };
            prop_assert_eq!(blocks.len(), grid_rows * grid_cols);
            let mut owned = vec![0u32; rows * cols];
            for (i, b) in blocks.iter().enumerate() {
                prop_assert_eq!(b.index, i, "row-major order");
                prop_assert_eq!(b.index, b.grid_row * grid_cols + b.grid_col);
                prop_assert!(b.rows >= 1 && b.width >= 1);
                for r in b.row0..b.row0 + b.rows {
                    for c in b.col0..b.col0 + b.width {
                        owned[r * cols + c] += 1;
                    }
                }
            }
            prop_assert!(
                owned.iter().all(|&n| n == 1),
                "every site must be owned exactly once: {owned:?}"
            );
            // Balance: within an axis, block extents differ by ≤ 1.
            let widths: Vec<usize> =
                blocks.iter().filter(|b| b.grid_row == 0).map(|b| b.width).collect();
            let heights: Vec<usize> =
                blocks.iter().filter(|b| b.grid_col == 0).map(|b| b.rows).collect();
            for ext in [widths, heights] {
                let (lo, hi) =
                    (ext.iter().min().unwrap(), ext.iter().max().unwrap());
                prop_assert!(hi - lo <= 1, "unbalanced extents: {ext:?}");
            }
        }
    }
}
