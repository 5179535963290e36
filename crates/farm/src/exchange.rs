//! The halo exchange: halo frames across the inter-board links, with
//! ladder level 1 (ARQ), and the rows a board reads and writes. A board
//! reads its augmented block in place from the committed lattice, with
//! its received frames laid over it, and writes its owned window
//! straight into its rows of the next lattice.

use crate::farm::LatticeFarm;
use crate::ladder;
use crate::link::{BoardLink, HaloWindow};
use crate::partition::{Block, Region2d};
use lattice_core::bits::Traffic;
use lattice_core::units::{u64_from_usize, Bits};
use lattice_core::{Grid, LatticeError, RowSink, RowSource, Shape, State};
use lattice_engines_sim::{Component, FaultCtx, RecoveryStats};
use std::ops::Range;

/// A board's halo exchange, buffered so local retries can replay it:
/// only the received frames, which the board lays over the committed
/// lattice as it reads its augmented block. The horizontal
/// (intra-rack) and vertical (inter-rack) frames cross *different
/// wires*, so their bits and retransmits are billed per tier;
/// `bits`/`retransmits` are the intra-rack figures (the only nonzero
/// ones for a columnar farm).
#[derive(Clone)]
pub(crate) struct ExchangeOutcome<S: State> {
    /// The received halo-column frame: each halo column over the full
    /// augmented height, in [`Augmented::halo_cols`] order. `None` when
    /// no fault can reach the wire: the frame then arrives as the
    /// lattice holds it, and the board reads those sites in place.
    pub(crate) cols: Option<Vec<S>>,
    /// The received halo-row frame: each halo row over the owned
    /// width, in [`Augmented::halo_rows`] order; `None` as for `cols`.
    pub(crate) rows: Option<Vec<S>>,
    pub(crate) bits: Bits,
    pub(crate) retransmits: u32,
    /// Bits over the inter-rack (vertical) tier; zero at `R = 1`.
    pub(crate) bits_inter: Bits,
    /// Retransmits on the inter-rack tier; zero at `R = 1`.
    pub(crate) retransmits_inter: u32,
    pub(crate) traffic: Traffic,
    /// Whether this frame was shipped ahead during the previous pass's
    /// interior sweep (taken from a [`HaloWindow`]) — the condition for
    /// crediting its transfer time as overlapped.
    pub(crate) staged: bool,
}

/// The sender-ahead frame a board stages into its neighbor-facing
/// [`HaloWindow`] during a pass's interior sweep: either the delivered
/// exchange, or the link error its ARQ budget could not clear (which
/// must surface at the *arrival* barrier it belongs to, not the pass
/// that shipped it).
pub(crate) type StagedHalo<S> = HaloWindow<Result<ExchangeOutcome<S>, LatticeError>>;

/// A board's halo-augmented block over the committed lattice, read in
/// place: augmented site `(r, c)` is lattice site
/// `((row_start + r) mod rows, (col_start + c) mod cols)`. On the torus
/// the indexes wrap; null-boundary halos are clamped at the lattice
/// edges, so there they never do.
#[derive(Clone, Copy)]
pub(crate) struct Augmented<'a, S: State> {
    lattice: &'a Grid<S>,
    block: &'a Block,
    /// On-board vertical wrap rows per side.
    wrap: usize,
    row_start: usize,
    col_start: usize,
}

impl<'a, S: State> Augmented<'a, S> {
    pub(crate) fn new(lattice: &'a Grid<S>, block: &'a Block, wrap: usize) -> Self {
        let (rows, cols) = (lattice.shape().rows(), lattice.shape().cols());
        Augmented {
            lattice,
            block,
            wrap,
            row_start: (block.row0 + rows - (wrap + block.halo_up) % rows) % rows,
            col_start: (block.col0 + cols - block.halo_left % cols) % cols,
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.block.aug_height(self.wrap)
    }

    pub(crate) fn top(&self) -> usize {
        self.wrap + self.block.halo_up
    }

    /// The lattice row under augmented row `r`.
    fn lattice_row(&self, r: usize) -> &'a [S] {
        let shape = self.lattice.shape();
        let cols = shape.cols();
        &self.lattice.as_slice()[wrapped(self.row_start + r, shape.rows()) * cols..][..cols]
    }

    /// The halo columns, in frame order: they span the full augmented
    /// height, so corners and the torus's on-board wrap rows ride them.
    fn halo_cols(&self) -> impl Iterator<Item = usize> {
        let b = self.block;
        (0..b.halo_left).chain(b.halo_left + b.width..b.aug_width())
    }

    /// The halo rows, in frame order: they span only the owned width.
    fn halo_rows(&self) -> impl Iterator<Item = usize> {
        let (b, top) = (self.block, self.top());
        (top - b.halo_up..top).chain(top + b.rows..top + b.rows + b.halo_down)
    }

    /// Copies augmented row `r` from column `a0` on into `row`: at most
    /// three lattice segments on the torus (left halo, body, right
    /// halo), one under the null boundary.
    pub(crate) fn copy_row(&self, r: usize, a0: usize, mut row: &mut [S]) {
        let src = self.lattice_row(r);
        let mut c = wrapped(self.col_start + a0, src.len());
        while !row.is_empty() {
            let take = row.len().min(src.len() - c);
            let (head, rest) = row.split_at_mut(take);
            head.copy_from_slice(&src[c..c + take]);
            (row, c) = (rest, 0);
        }
    }

    fn column_sites(&self) -> usize {
        (self.block.halo_left + self.block.halo_right) * self.rows()
    }

    fn row_sites(&self) -> usize {
        (self.block.halo_up + self.block.halo_down) * self.block.width
    }

    /// The halo-column frame as the neighbors send it, read a lattice
    /// row at a time.
    pub(crate) fn column_frame(&self) -> Vec<S> {
        let (rows, cols) = (self.rows(), self.lattice.shape().cols());
        let at: Vec<usize> = self.halo_cols().map(|c| (self.col_start + c) % cols).collect();
        let mut frame = vec![S::default(); at.len() * rows];
        for r in 0..rows {
            let src = self.lattice_row(r);
            for (j, &c) in at.iter().enumerate() {
                frame[j * rows + r] = src[c];
            }
        }
        frame
    }

    /// The halo-row frame as the neighbors send it.
    pub(crate) fn row_frame(&self) -> Vec<S> {
        let owned = self.block.col0..self.block.col_end();
        self.halo_rows().flat_map(|r| self.lattice_row(r)[owned.clone()].iter().copied()).collect()
    }
}

/// Moves one `n`-site halo frame over `link` into board `b` with ARQ,
/// returning the received frame, its bits and the retransmissions it
/// took. A wire no fault can reach would deliver the frame as sent, so
/// it is billed — `n · D` bits each way, `n` stream positions — without
/// being read or moved, and the frame comes back `None`: the board
/// reads those sites in place.
#[allow(clippy::too_many_arguments)]
fn ship<S: State>(
    link: &BoardLink,
    n: usize,
    frame: impl FnOnce() -> Vec<S>,
    b: usize,
    faults: Option<(FaultCtx<'_>, usize)>,
    pos: &mut u64,
    traffic: &mut Traffic,
    arq_retries: u32,
    recovery: &mut RecoveryStats,
) -> Result<(Option<Vec<S>>, Bits, u32), LatticeError> {
    let bits = Bits::for_items(n, <S as State>::BITS);
    let live = faults.filter(|&(ctx, chip)| ctx.stream(Component::Link, chip, 0).is_live());
    if live.is_none() {
        traffic.record_out(u128::from(u64_from_usize(n)), S::BITS);
        traffic.record_in(u128::from(u64_from_usize(n)), S::BITS);
        *pos += u64_from_usize(n);
        return Ok((None, bits, 0));
    }
    let mut retransmits = 0u32;
    let received =
        link.transmit_arq(&frame(), b, live, pos, traffic, arq_retries, &mut retransmits);
    ladder::book_arq(recovery, retransmits);
    Ok((Some(received?), bits, retransmits))
}

/// `i mod n`, without a division for the common `i < n`.
fn wrapped(i: usize, n: usize) -> usize {
    if i < n {
        i
    } else {
        i % n
    }
}

/// One sweep region of a board's augmented block as its engine reads
/// it: each row copied from the committed lattice, with the received
/// halo frames laid over it — so a frame that was corrupted on the wire
/// but passed parity reaches the engine as it arrived.
pub(crate) struct RegionRows<'a, S: State> {
    pub(crate) aug: Augmented<'a, S>,
    pub(crate) ex: &'a ExchangeOutcome<S>,
    pub(crate) region: &'a Region2d,
    pub(crate) shape: Shape,
}

impl<S: State> RowSource<S> for RegionRows<'_, S> {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn fill_row(&self, r: usize, row: &mut [S]) {
        let (b, region) = (self.aug.block, self.region);
        let ar = region.r0 + r;
        let span = region.a0..region.a0 + region.width;
        self.aug.copy_row(ar, region.a0, row);
        if let Some(cols) = &self.ex.cols {
            let aug_rows = self.aug.rows();
            for (j, c) in self.aug.halo_cols().enumerate() {
                if span.contains(&c) {
                    row[c - region.a0] = cols[j * aug_rows + ar];
                }
            }
        }
        let Some(rows) = &self.ex.rows else { return };
        if let Some(j) = self.aug.halo_rows().position(|h| h == ar) {
            let lo = b.halo_left.max(span.start);
            let hi = (b.halo_left + b.width).min(span.end);
            if lo < hi {
                let from = &rows[j * b.width + lo - b.halo_left..][..hi - lo];
                row[lo - region.a0..hi - region.a0].copy_from_slice(from);
            }
        }
    }
}

/// One sweep region's owned window, written straight into the board's
/// rows of the next lattice: region row `r` is owned row
/// `r + region.r0 − top`, region column `c` owned column
/// `c + region.a0 − halo_left`.
pub(crate) struct OwnedRows<'s, 'n, S: State> {
    pub(crate) segs: &'s mut [&'n mut [S]],
    pub(crate) region: &'s Region2d,
    pub(crate) top: usize,
    pub(crate) left: usize,
}

impl<S: State> RowSink<S> for OwnedRows<'_, '_, S> {
    fn window(&self) -> (Range<usize>, Range<usize>) {
        let (g, top, left) = (self.region, self.top, self.left);
        (
            top + g.own_r_lo - g.r0..top + g.own_r_hi - g.r0,
            left + g.own_lo - g.a0..left + g.own_hi - g.a0,
        )
    }

    fn row_mut(&mut self, r: usize) -> &mut [S] {
        let g = self.region;
        &mut self.segs[r + g.r0 - self.top][g.own_lo..g.own_hi]
    }
}

/// Copies the window `sink` keeps out of `grid`, a block of the sink's
/// shape.
pub(crate) fn keep_window<S: State>(grid: &Grid<S>, sink: &mut dyn RowSink<S>) {
    let cols = grid.shape().cols();
    let (rows, window) = sink.window();
    for r in rows {
        sink.row_mut(r).copy_from_slice(&grid.as_slice()[r * cols..][window.clone()]);
    }
}

/// Splits `next` (a lattice `cols` sites wide) into every block's owned
/// rows: entry `i` holds block `i`'s rows top to bottom, `width` sites
/// each. The blocks tile the lattice, so each site goes to one block.
pub(crate) fn owned_rows<'n, S: State>(
    next: &'n mut [S],
    cols: usize,
    blocks: &[Block],
) -> Vec<Vec<&'n mut [S]>> {
    let mut owned: Vec<Vec<&mut [S]>> = blocks.iter().map(|b| Vec::with_capacity(b.rows)).collect();
    let mut by_col: Vec<&Block> = blocks.iter().collect();
    by_col.sort_by_key(|b| b.col0);
    for (r, row) in next.chunks_exact_mut(cols).enumerate() {
        let (mut rest, mut at) = (row, 0);
        for b in by_col.iter().filter(|b| (b.row0..b.row_end()).contains(&r)) {
            let (seg, tail) = std::mem::take(&mut rest)[b.col0 - at..].split_at_mut(b.width);
            owned[b.index].push(seg);
            (rest, at) = (tail, b.col_end());
        }
    }
    owned
}

/// Copies the window `rows × span` of `owned`, block `blk`'s owned
/// sites (`blk.width` to a row), into their place in `dst`, a lattice
/// `cols` sites wide, one row segment at a time.
pub(crate) fn paste_window<S: State>(
    dst: &mut [S],
    cols: usize,
    blk: &Block,
    owned: &[S],
    (rows, span): (Range<usize>, Range<usize>),
) {
    for r in rows {
        let (d, o) = ((blk.row0 + r) * cols + blk.col0, r * blk.width);
        dst[d + span.start..d + span.end].copy_from_slice(&owned[o + span.start..o + span.end]);
    }
}

impl LatticeFarm {
    /// Moves board `b`'s halo frames across its links (with ARQ; link
    /// chips are numbered past every board's `stride` engine chips),
    /// reading them straight from the lattice `aug` sits on: halo
    /// *columns* — the full augmented height, corners included — on
    /// the intra-rack tier, halo *rows* (owned width only, so corner
    /// sites are billed once) on the inter-rack tier. Only the received
    /// frames are kept; `pos` holds the two tiers' fault-stream
    /// positions. Shared by the arrival-barrier exchange and the
    /// overlap mode's ship-ahead staging — the same code path, so the
    /// two can never disagree on frame contents, parity, or the links'
    /// fault-stream positions.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exchange_board<S: State>(
        &self,
        aug: Augmented<'_, S>,
        b: usize,
        ctx: Option<FaultCtx<'_>>,
        stride: usize,
        pos: &mut [u64; 2],
        arq_retries: u32,
        recovery: &mut RecoveryStats,
        staged: bool,
    ) -> Result<ExchangeOutcome<S>, LatticeError> {
        let (mut traffic, link_chip_base) = (Traffic::new(), self.shards() * stride);
        // Halo columns cross the intra-rack tier; owned columns stay on
        // board.
        let (cols, bits, retransmits) = ship(
            &self.link,
            aug.column_sites(),
            || aug.column_frame(),
            b,
            ctx.map(|ctx| (ctx, link_chip_base + b)),
            &mut pos[0],
            &mut traffic,
            arq_retries,
            recovery,
        )?;
        // Halo rows (owned width only — the corners already crossed in
        // the column frames) cross the inter-rack tier. A single-row
        // board grid has no vertical seams, so this tier stays idle and
        // the columnar farm's byte-for-byte behavior is preserved.
        let (rows, bits_inter, retransmits_inter) = match aug.row_sites() {
            0 => (None, Bits::ZERO, 0),
            n => ship(
                &self.link_inter,
                n,
                || aug.row_frame(),
                b,
                ctx.map(|ctx| (ctx, link_chip_base + self.shards() + b)),
                &mut pos[1],
                &mut traffic,
                arq_retries,
                recovery,
            )?,
        };
        Ok(ExchangeOutcome {
            cols,
            rows,
            bits,
            bits_inter,
            retransmits,
            retransmits_inter,
            traffic,
            staged,
        })
    }
}
