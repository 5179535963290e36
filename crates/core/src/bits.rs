//! Bit-level utilities: the bit-plane site layout and I/O traffic
//! accounting.
//!
//! The paper's central quantities are measured in *bits per clock tick*
//! across chip pins and the main-memory channel. [`Traffic`] is the
//! counter type every simulator uses. [`pack_word`]/[`unpack_word`] are
//! the one site packer: bit `p` of 64 consecutive sites becomes one
//! word of plane `p`. [`pack_rows`] lays a 2-D block out that way for
//! the bit-parallel gas kernels, reading it a row at a time from a
//! [`RowSource`]; [`pack_window`] packs a window into planes that
//! already exist; [`unpack_rows`] writes back only the window a
//! [`RowSink`] keeps; [`shift_row`] streams a plane along its rows.
//! Checkpoint images store the same planes as bytes.

use crate::grid::{RowSink, RowSource};
use crate::rule::State;

/// Cumulative I/O traffic counter, in bits.
///
/// Separate inbound/outbound tallies let engines report the paper's
/// "2·D·P pins" style figures (D in + D out per processing element).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bits moved into the component.
    pub bits_in: u128,
    /// Bits moved out of the component.
    pub bits_out: u128,
}

impl Traffic {
    /// A zeroed counter.
    pub fn new() -> Self {
        Traffic::default()
    }

    /// Records `n` sites of `bits` bits each moving in.
    pub fn record_in(&mut self, n: u128, bits: u32) {
        self.bits_in += n * bits as u128;
    }

    /// Records `n` sites of `bits` bits each moving out.
    pub fn record_out(&mut self, n: u128, bits: u32) {
        self.bits_out += n * bits as u128;
    }

    /// Total bits moved in either direction.
    pub fn total(&self) -> u128 {
        self.bits_in + self.bits_out
    }

    /// Adds another counter into this one.
    pub fn merge(&mut self, other: Traffic) {
        self.bits_in += other.bits_in;
        self.bits_out += other.bits_out;
    }

    /// Average total bits per tick over `ticks` clock periods.
    pub fn bits_per_tick(&self, ticks: u128) -> f64 {
        if ticks == 0 {
            0.0
        } else {
            self.total() as f64 / ticks as f64
        }
    }
}

/// Running parity over a raster stream of sites: a CRC-style LFSR fold
/// of every site word, plus a site count.
///
/// This is the cheap end of the detection spectrum — in hardware, one
/// 64-bit shift register with a few XOR feedback taps per link (a
/// Galois LFSR), clocked once per site. Sender and receiver each fold
/// the stream into a `StreamParity`; any single flipped bit on the link
/// makes the words disagree (each step is a bijection), and a dropped
/// or duplicated site makes the counts disagree. Because site `j`'s
/// contribution ends up multiplied by `x^(n-1-j)` in GF(2)[x] mod the
/// CRC polynomial, identical flips at two different positions can never
/// cancel — which is exactly the pattern a stuck output driver
/// produces, and the pattern a plain (or merely rotated) XOR parity
/// misses. Only error patterns divisible by the polynomial escape;
/// those fall through to the conservation audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamParity {
    /// LFSR fold of every absorbed site word.
    pub word: u64,
    /// Number of sites absorbed.
    pub count: u64,
}

/// CRC-64/ECMA-182 polynomial, a standard primitive choice.
const PARITY_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// `PARITY_BYTE[b]`: eight LFSR steps of zero sites from the word
/// `b << 56` — what the top byte of the word feeds back while the fold
/// shifts it out.
const PARITY_BYTE: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut w = (b as u64) << 56;
        let mut step = 0;
        while step < 8 {
            w = (w << 1) ^ if w >> 63 == 1 { PARITY_POLY } else { 0 };
            step += 1;
        }
        t[b] = w;
        b += 1;
    }
    t
};

impl StreamParity {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        StreamParity::default()
    }

    /// Folds one site into the parity.
    pub fn absorb<S: State>(&mut self, site: S) {
        let feedback = if self.word >> 63 == 1 { PARITY_POLY } else { 0 };
        self.word = (self.word << 1) ^ feedback ^ site.to_word();
        self.count += 1;
    }

    /// Folds `sites` in order: the same word as [`StreamParity::absorb`]
    /// on each, eight sites per step. Over eight steps the LFSR is
    /// linear, `w' = (w << 8) ^ PARITY_BYTE[w >> 56] ^ Σ site_j << (7 − j)`:
    /// a site has at most 32 bits ([`State::BITS`]), so no site bit
    /// reaches the feedback tap within the seven shifts that follow it.
    pub fn absorb_slice<S: State>(&mut self, sites: &[S]) {
        const { assert!(S::BITS <= 32) };
        let mut chunks = sites.chunks_exact(8);
        for chunk in &mut chunks {
            let fresh = chunk.iter().fold(0u64, |acc, &site| (acc << 1) ^ site.to_word());
            self.word = (self.word << 8) ^ PARITY_BYTE[(self.word >> 56) as usize] ^ fresh;
        }
        self.count += (sites.len() - chunks.remainder().len()) as u64;
        chunks.remainder().iter().for_each(|&site| self.absorb(site));
    }

    /// Describes how this (receiver-side) parity disagrees with the
    /// sender's, or `None` if the stream arrived intact.
    pub fn mismatch(&self, sent: &StreamParity) -> Option<String> {
        if self.count != sent.count {
            Some(format!("{} sites received, {} sent", self.count, sent.count))
        } else if self.word != sent.word {
            Some(format!(
                "parity word {:#x} != sender's {:#x} over {} sites",
                self.word, sent.word, self.count
            ))
        } else {
            None
        }
    }
}

/// Bit 0 of each of eight packed bytes.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Multiplying a word whose bytes are each 0 or 1 by this constant
/// gathers byte `j` into bit `56 + j`: the partial products land on
/// distinct bit positions, so no carry disturbs the top byte.
const GATHER: u64 = 0x0102_0408_1020_4080;

/// `SPREAD[b]` has byte `j` equal to bit `j` of `b`: the inverse of the
/// [`GATHER`] multiply.
const SPREAD: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            t[b] |= ((b as u64 >> j) & 1) << (8 * j);
            j += 1;
        }
        b += 1;
    }
    t
};

/// Byte lanes in a site word, eight bits each.
const fn lanes<S: State>() -> usize {
    S::BITS.div_ceil(8) as usize
}

/// Ors bit `p` of each of eight sites into byte `j` of `planes[p]`.
#[inline]
fn gather_eight<S: State>(eight: &[S; 8], j: usize, planes: &mut [u64]) {
    for lane in 0..lanes::<S>() {
        // Byte `lane` of the eight site words as one word: a plain
        // little-endian load when the sites are bytes.
        let x = eight
            .iter()
            .enumerate()
            .fold(0u64, |x, (k, s)| x | (s.to_word() >> (8 * lane) & 0xFF) << (8 * k));
        for (p, word) in planes.iter_mut().skip(8 * lane).take(8).enumerate() {
            *word |= (((x >> p) & LOW_BITS).wrapping_mul(GATHER) >> 56) << (8 * j);
        }
    }
}

/// The eight sites whose bits sit in byte `j` of the plane words.
#[inline]
fn spread_eight<S: State>(planes: &[u64], j: usize) -> [S; 8] {
    let mut words = [0u64; 8];
    for lane in 0..lanes::<S>() {
        let x = planes
            .iter()
            .skip(8 * lane)
            .take(8)
            .enumerate()
            .fold(0u64, |x, (p, word)| x | SPREAD[usize::from((word >> (8 * j)) as u8)] << p);
        for (k, w) in words.iter_mut().enumerate() {
            *w |= (x >> (8 * k) & 0xFF) << (8 * lane);
        }
    }
    words.map(S::from_word)
}

/// Packs up to 64 sites into bit-plane words: bit `j` of `planes[p]`
/// is bit `p` of `sites[j]`. Site bits at and above `planes.len()` are
/// dropped, and plane bits past `sites.len()` are zero.
///
/// Eight sites move per word operation: each byte lane of eight site
/// words is loaded as one word, and one mask-and-multiply per plane
/// gathers that plane's eight bits into a byte.
#[inline]
pub fn pack_word<S: State>(sites: &[S], planes: &mut [u64]) {
    debug_assert!(sites.len() <= 64 && planes.len() <= S::BITS as usize);
    planes.fill(0);
    let (groups, tail) = sites.as_chunks::<8>();
    for (j, eight) in groups.iter().enumerate() {
        gather_eight(eight, j, planes);
    }
    if !tail.is_empty() {
        let mut last = [S::default(); 8];
        last[..tail.len()].copy_from_slice(tail);
        gather_eight(&last, groups.len(), planes);
    }
}

/// Inverse of [`pack_word`]: sets each of `sites` (at most 64) from bit
/// `j` of the plane words; site bits at and above `planes.len()` come
/// out zero. A 256-entry table spreads a byte of plane bits back over
/// eight sites.
#[inline]
pub fn unpack_word<S: State>(planes: &[u64], sites: &mut [S]) {
    debug_assert!(sites.len() <= 64 && planes.len() <= S::BITS as usize);
    let (groups, tail) = sites.as_chunks_mut::<8>();
    let full = groups.len();
    for (j, eight) in groups.iter_mut().enumerate() {
        *eight = spread_eight(planes, j);
    }
    if !tail.is_empty() {
        let n = tail.len();
        tail.copy_from_slice(&spread_eight::<S>(planes, full)[..n]);
    }
}

/// Bit-planes that hold every site of `sites`: the bit length of the
/// OR of their words, at least 1. Checkpoint images and `serve`'s
/// region frames write this many planes.
pub fn planes_needed<S: State>(sites: &[S]) -> usize {
    let any = sites.iter().fold(0, |acc, s| acc | s.to_word());
    (64 - any.leading_zeros() as usize).max(1)
}

/// Packs the rows of `src` into `N` bit-planes with [`pack_word`], one
/// row at a time through a buffer of one row's sites. Each row starts
/// a fresh word: plane `p` holds `⌈cols/64⌉` words per row, and bit `j`
/// of row `r`'s word `w` is bit `p` of site `(r, 64w + j)`. `check`
/// sees each row before it is packed; its first error ends the pack.
pub fn pack_rows<S: State, const N: usize, E>(
    src: &dyn RowSource<S>,
    mut check: impl FnMut(usize, &[S]) -> Result<(), E>,
) -> Result<[Vec<u64>; N], E> {
    let shape = src.shape();
    let (rows, cols) = (shape.rows(), shape.cols());
    let mut planes = std::array::from_fn(|_| Vec::with_capacity(rows * cols.div_ceil(64)));
    let mut row = vec![S::default(); cols];
    let mut word = [0u64; N];
    for r in 0..rows {
        src.fill_row(r, &mut row);
        check(r, &row)?;
        for chunk in row.chunks(64) {
            pack_word(chunk, &mut word);
            for (plane, w) in planes.iter_mut().zip(word) {
                plane.push(w);
            }
        }
    }
    Ok(planes)
}

/// Inverse of [`pack_rows`] over the window `sink` keeps: each kept
/// row is unpacked straight from its plane words, shifted to the
/// window's first column, so no site outside the window is touched.
pub fn unpack_rows<S: State, const N: usize>(
    planes: &[Vec<u64>; N],
    cols: usize,
    sink: &mut dyn RowSink<S>,
) {
    let wpr = cols.div_ceil(64);
    let (rows, window) = sink.window();
    let (q0, shift) = (window.start / 64, window.start % 64);
    for r in rows {
        let words = planes.each_ref().map(|p| &p[r * wpr..][..wpr]);
        for (j, chunk) in sink.row_mut(r).chunks_mut(64).enumerate() {
            let q = q0 + j;
            let aligned = words.map(|w| match w.get(q + 1) {
                Some(hi) if shift > 0 => w[q] >> shift | hi << (64 - shift),
                _ => w[q] >> shift,
            });
            unpack_word(&aligned, chunk);
        }
    }
}

/// Packs the rows of `src` into existing [`pack_rows`] planes of a
/// block `cols` sites wide, over the window whose top-left site is
/// `at` and whose shape is `src`'s: the plane bits of the window's
/// sites are replaced, every other bit is kept. Site bits at and above
/// `N` are dropped, as [`pack_word`] drops them. A resident block
/// imports its halo this way.
pub fn pack_window<S: State, const N: usize>(
    planes: &mut [Vec<u64>; N],
    cols: usize,
    at: (usize, usize),
    src: &dyn RowSource<S>,
) {
    let shape = src.shape();
    let (rows, width) = (shape.rows(), shape.cols());
    assert!(at.1 + width <= cols, "window spills past the block's {cols} columns");
    let wpr = cols.div_ceil(64);
    let mut row = vec![S::default(); width];
    let mut word = [0u64; N];
    for r in 0..rows {
        src.fill_row(r, &mut row);
        let base = (at.0 + r) * wpr;
        for (j, chunk) in row.chunks(64).enumerate() {
            pack_word(chunk, &mut word);
            let c = at.1 + 64 * j;
            let (q, shift) = (base + c / 64, c % 64);
            let mask = tail_mask(chunk.len());
            let spills = shift > 0 && shift + chunk.len() > 64;
            for (plane, w) in planes.iter_mut().zip(word) {
                plane[q] = plane[q] & !(mask << shift) | w << shift;
                if spills {
                    let back = 64 - shift;
                    plane[q + 1] = plane[q + 1] & !(mask >> back) | w >> back;
                }
            }
        }
    }
}

/// The valid-site mask of the last word of a [`pack_rows`] row: the
/// bits above `cols % 64` are padding and stay zero.
#[inline]
pub fn tail_mask(cols: usize) -> u64 {
    match cols % 64 {
        0 => u64::MAX,
        tail => (1u64 << tail) - 1,
    }
}

/// Shifts one [`pack_rows`] row of a plane by one site, east (toward
/// higher columns) or west, with word-chained carries. The site
/// entering at the edge is the one leaving the other edge when
/// `periodic`, zero otherwise.
#[inline]
pub fn shift_row(row: &mut [u64], cols: usize, east: bool, periodic: bool) {
    let wpr = row.len();
    let last_bit = (cols - 1) % 64;
    if east {
        let mut carry = if periodic { row[wpr - 1] >> last_bit & 1 } else { 0 };
        for w in row.iter_mut() {
            let new_carry = *w >> 63 & 1;
            *w = (*w << 1) | carry;
            carry = new_carry;
        }
    } else {
        let first = row[0] & 1;
        for w in 0..wpr {
            let next_in = if w + 1 < wpr { row[w + 1] & 1 } else { 0 };
            row[w] = (row[w] >> 1) | (next_in << 63);
        }
        // Padding bits are zero, so the null boundary's last column
        // already reads zero; the torus wraps the first column in.
        if periodic {
            row[wpr - 1] |= first << last_bit;
        }
    }
    row[wpr - 1] &= tail_mask(cols);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Grid, Shape};
    use std::ops::Range;

    #[test]
    fn traffic_accounting() {
        let mut t = Traffic::new();
        t.record_in(10, 8);
        t.record_out(5, 8);
        assert_eq!(t.bits_in, 80);
        assert_eq!(t.bits_out, 40);
        assert_eq!(t.total(), 120);
        assert!((t.bits_per_tick(10) - 12.0).abs() < 1e-12);
        assert_eq!(t.bits_per_tick(0), 0.0);

        let mut u = Traffic::new();
        u.record_in(1, 16);
        u.merge(t);
        assert_eq!(u.bits_in, 96);
    }

    /// Packs `sites` 64 at a time into `planes` planes and back.
    fn roundtrip<S: State>(sites: &[S], planes: usize) -> Vec<S> {
        let mut back = vec![S::default(); sites.len()];
        let mut words = vec![0u64; planes];
        for (chunk, out) in sites.chunks(64).zip(back.chunks_mut(64)) {
            pack_word(chunk, &mut words);
            unpack_word(&words, out);
        }
        back
    }

    #[test]
    fn pack_word_layout_is_one_bit_per_site_per_plane() {
        let sites: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        let mut planes = [0u64; 8];
        pack_word(&sites, &mut planes);
        for (p, word) in planes.iter().enumerate() {
            for (j, s) in sites.iter().enumerate() {
                assert_eq!(word >> j & 1, u64::from(s >> p & 1), "plane {p} site {j}");
            }
        }
        // A short run leaves the plane bits past it zero.
        pack_word(&[0xFFu8; 3], &mut planes);
        assert_eq!(planes, [0b111; 8]);
    }

    #[test]
    fn pack_unpack_roundtrips_every_width() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        assert_eq!(roundtrip(&bytes, 8), bytes);
        let flags: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        assert_eq!(roundtrip(&flags, 1), flags);
        let wide: Vec<u16> = (0..1000u16).map(|i| i.wrapping_mul(2654435761u32 as u16)).collect();
        assert_eq!(roundtrip(&wide, 16), wide);
        let words: Vec<u32> = (0..77u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        assert_eq!(roundtrip(&words, 32), words);
        assert!(roundtrip::<u8>(&[], 8).is_empty());
    }

    #[test]
    fn fewer_planes_drop_the_high_bits() {
        let sites: Vec<u16> = (0..70u16).map(|i| i.wrapping_mul(997)).collect();
        let low: Vec<u16> = sites.iter().map(|s| s & 0x3FF).collect();
        assert_eq!(roundtrip(&sites, 10), low);
    }

    #[test]
    fn rows_start_fresh_words() {
        // Two 70-site rows: each takes two words per plane, and the
        // second row's sites start at bit 0 of word 2.
        let sites: Vec<u8> =
            (0..140).map(|i| u8::from(i % 70 == 0) | u8::from(i == 139) << 1).collect();
        let grid = Grid::from_vec(Shape::grid2(2, 70).unwrap(), sites).unwrap();
        let planes: [Vec<u64>; 2] = pack_rows(&grid, |_, _| Ok::<_, ()>(())).unwrap();
        assert_eq!(planes[0], [1, 0, 1, 0]);
        assert_eq!(planes[1], [0, 0, 0, 1 << 5]);
        let mut back = Grid::new(grid.shape());
        unpack_rows(&planes, 70, &mut back);
        assert_eq!(back, grid);
        // The row check sees each row and can stop the pack.
        let refused = pack_rows::<u8, 2, usize>(&grid, |r, row| match row[69] {
            0 => Ok(()),
            _ => Err(r),
        });
        assert_eq!(refused, Err(1));
    }

    /// Keeps rows `rows` and columns `cols` of a `Grid`.
    struct Window2 {
        out: Grid<u8>,
        rows: Range<usize>,
        cols: Range<usize>,
    }

    impl RowSink<u8> for Window2 {
        fn window(&self) -> (Range<usize>, Range<usize>) {
            (self.rows.clone(), self.cols.clone())
        }
        fn row_mut(&mut self, r: usize) -> &mut [u8] {
            let cols = self.out.shape().cols();
            &mut self.out.as_mut_slice()[r * cols..][self.cols.clone()]
        }
    }

    #[test]
    fn unpack_writes_only_the_window_from_any_column() {
        let shape = Shape::grid2(3, 200).unwrap();
        let grid = Grid::from_fn(shape, |c| (c.row() * 200 + c.col()).wrapping_mul(37) as u8);
        let planes: [Vec<u64>; 8] = pack_rows(&grid, |_, _| Ok::<_, ()>(())).unwrap();
        for (rows, cols) in
            [(0..3, 0..200), (1..2, 5..69), (0..3, 63..64), (2..3, 64..200), (0..2, 71..199)]
        {
            let mut sink =
                Window2 { out: Grid::filled(shape, 0xAA), rows: rows.clone(), cols: cols.clone() };
            unpack_rows(&planes, 200, &mut sink);
            let expect = Grid::from_fn(shape, |c| {
                if rows.contains(&c.row()) && cols.contains(&c.col()) {
                    grid.get(c)
                } else {
                    0xAA
                }
            });
            assert_eq!(sink.out, expect, "{rows:?} x {cols:?}");
        }
    }

    #[test]
    fn stream_parity_catches_single_flips_and_drops() {
        let sites: Vec<u8> = vec![0x11, 0x42, 0x00, 0x80];
        let mut sent = StreamParity::new();
        sites.iter().for_each(|&s| sent.absorb(s));

        let mut ok = StreamParity::new();
        sites.iter().for_each(|&s| ok.absorb(s));
        assert_eq!(ok.mismatch(&sent), None);

        // Any single-bit flip disagrees.
        for i in 0..sites.len() {
            for bit in 0..8 {
                let mut p = StreamParity::new();
                for (j, &s) in sites.iter().enumerate() {
                    p.absorb(if j == i { s ^ (1 << bit) } else { s });
                }
                assert!(p.mismatch(&sent).is_some(), "flip {i}/{bit} undetected");
            }
        }

        // A dropped site disagrees via the count even if the word matches.
        let mut short = StreamParity::new();
        sites.iter().skip(1).for_each(|&s| short.absorb(s));
        let msg = short.mismatch(&sent).unwrap();
        assert!(msg.contains("3 sites received"), "{msg}");
    }

    #[test]
    fn stream_parity_catches_stuck_at_lines() {
        // A stuck output driver forces the same bit in *every* word; a
        // plain XOR parity cancels whenever the number of changed words
        // is even. The rotate-and-XOR fold must not.
        let sites: Vec<u8> = (0..100u8).collect();
        let mut sent = StreamParity::new();
        sites.iter().for_each(|&s| sent.absorb(s));
        for bit in 0..8u8 {
            let mut stuck = StreamParity::new();
            sites.iter().for_each(|&s| stuck.absorb(s | (1 << bit)));
            assert!(stuck.mismatch(&sent).is_some(), "stuck bit {bit} undetected");
        }
        // Two identical flips at different positions no longer cancel.
        let mut pair = StreamParity::new();
        for (j, &s) in sites.iter().enumerate() {
            pair.absorb(if j == 10 || j == 20 { s ^ 0x04 } else { s });
        }
        assert!(pair.mismatch(&sent).is_some());
    }
}
