//! Bit-level utilities: the bit-plane site layout and I/O traffic
//! accounting.
//!
//! The paper's central quantities are measured in *bits per clock tick*
//! across chip pins and the main-memory channel. [`Traffic`] is the
//! counter type every simulator uses. One transpose network is the
//! site packer: bit `p` of 64 consecutive sites becomes one word of
//! plane `p`, 128 sites at a time ([`pack_word`]/[`unpack_word`] wrap
//! it for up to 64 sites). [`pack_rows`] lays a 2-D block out that way for
//! the bit-parallel gas kernels, reading it a row at a time from a
//! [`RowSource`]; [`unpack_rows`] writes back only the window a
//! [`RowSink`] keeps; [`copy_planes`] and [`paste_planes`] move a
//! window between planes as plane words; [`shift_row`] streams a plane
//! along its rows.
//! Checkpoint images store the same planes as bytes.

use crate::grid::{RowSink, RowSource};
use crate::rule::State;
use std::ops::Range;

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
/// contribution ends up multiplied by `x^(n-1-j)` in GF(2)\[x\] mod the
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
/// shifts it out. The checkpoint store's CRC-64 folds its bytes through
/// the same table.
pub(crate) const PARITY_BYTE: [u64; 256] = {
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

/// Transposes the 8×8 bit matrix of each word's bytes: bit `8k + j`
/// trades places with bit `8j + k`.
#[inline(always)]
fn transpose8(mut x: [u64; 2]) -> [u64; 2] {
    for (shift, mask) in
        [(7, 0x00AA_00AA_00AA_00AA), (14, 0x0000_CCCC_0000_CCCC), (28, 0xF0F0_F0F0)]
    {
        let t = [(x[0] ^ x[0] >> shift) & mask, (x[1] ^ x[1] >> shift) & mask];
        x = [x[0] ^ t[0] ^ t[0] << shift, x[1] ^ t[1] ^ t[1] << shift];
    }
    x
}

/// Swaps bit `b` of the word index with bit `b` of the bit index. The
/// three swaps commute, and each is its own inverse.
#[inline(always)]
fn swap_index_bit(w: &mut [[u64; 2]; 8], b: usize) {
    let (s, mask) =
        (1 << b, [0x5555_5555_5555_5555, 0x3333_3333_3333_3333, 0x0F0F_0F0F_0F0F_0F0F][b]);
    for j in (0..8).filter(|j| j & s == 0) {
        let (lo, hi) = (w[j], w[j | s]);
        let t = [(lo[0] >> s ^ hi[0]) & mask, (lo[1] >> s ^ hi[1]) & mask];
        w[j] = [lo[0] ^ t[0] << s, lo[1] ^ t[1] << s];
        w[j | s] = [hi[0] ^ t[0], hi[1] ^ t[1]];
    }
}

/// Packs 128 sites, two 64-site chunks side by side, into
/// `planes.len()` ≤ [`State::BITS`] bit-planes: bit `s` of
/// `planes[p][i]` is bit `p` of site `64i + s`. Returns the OR of every
/// site word, for the caller's legality check.
///
/// Each byte lane goes through the same network. Its eight lane words
/// per chunk ([`State::lane_word`]) hold bit `p` of site `8j + k` at
/// word `j`, bit `8k + p`; three [`swap_index_bit`]s take it to word
/// `p`, bit `8k + j`, and a [`transpose8`] of each word to bit
/// `8j + k`. Every step is one shift, xor and mask applied alike to
/// both chunks, so the pair shares each vector operation.
#[inline(always)]
pub(crate) fn pack_pair<S: State>(sites: &[S; 128], planes: &mut [[u64; 2]]) -> u64 {
    let (eights, _) = sites.as_chunks::<8>();
    let mut any = 0;
    for lane in 0..S::BITS.div_ceil(8) as usize {
        let mut w = [[0; 2]; 8];
        let mut or = 0;
        for (j, word) in w.iter_mut().enumerate() {
            *word = [S::lane_word(&eights[j], lane), S::lane_word(&eights[8 + j], lane)];
            or |= word[0] | word[1];
        }
        any |= ([32, 16, 8].into_iter().fold(or, |x, s| x | x >> s) & 0xFF) << (8 * lane);
        let out = planes.get_mut(8 * lane..).unwrap_or_default();
        if !out.is_empty() {
            swap_index_bit(&mut w, 0);
            swap_index_bit(&mut w, 1);
            swap_index_bit(&mut w, 2);
            for (plane, word) in out.iter_mut().zip(w) {
                *plane = transpose8(word);
            }
        }
    }
    any
}

/// Inverse of [`pack_pair`]: sets each of 128 sites from its plane
/// bits, through the same network run backwards; site bits at and
/// above `planes.len()` come out zero.
#[inline(always)]
pub(crate) fn unpack_pair<S: State>(planes: &[[u64; 2]], sites: &mut [S; 128]) {
    let (eights, _) = sites.as_chunks_mut::<8>();
    for lane in 0..S::BITS.div_ceil(8) as usize {
        let mut w = [[0; 2]; 8];
        for (word, &plane) in w.iter_mut().zip(planes.iter().skip(8 * lane)) {
            *word = transpose8(plane);
        }
        swap_index_bit(&mut w, 2);
        swap_index_bit(&mut w, 1);
        swap_index_bit(&mut w, 0);
        for (j, [lo, hi]) in w.into_iter().enumerate() {
            S::set_lane_word(&mut eights[j], lane, lo);
            S::set_lane_word(&mut eights[8 + j], lane, hi);
        }
    }
}

/// Most planes a site has: [`State::BITS`] is at most 32.
pub(crate) const MAX_PLANES: usize = 32;

/// Packs up to 64 sites into bit-plane words: bit `j` of `planes[p]`
/// is bit `p` of `sites[j]`. Site bits at and above `planes.len()` are
/// dropped, and plane bits past `sites.len()` are zero. The same
/// transpose as [`pack_rows`], on one padded chunk.
#[inline]
pub fn pack_word<S: State>(sites: &[S], planes: &mut [u64]) {
    debug_assert!(sites.len() <= 64 && planes.len() <= S::BITS as usize);
    let mut chunk = [S::default(); 128];
    chunk[..sites.len()].copy_from_slice(sites);
    let mut words = [[0; 2]; MAX_PLANES];
    pack_pair(&chunk, &mut words[..planes.len()]);
    planes.iter_mut().zip(words).for_each(|(plane, [word, _])| *plane = word);
}

/// Inverse of [`pack_word`]: sets each of `sites` (at most 64) from bit
/// `j` of the plane words; site bits at and above `planes.len()` come
/// out zero.
#[inline]
pub fn unpack_word<S: State>(planes: &[u64], sites: &mut [S]) {
    debug_assert!(sites.len() <= 64 && planes.len() <= S::BITS as usize);
    let mut words = [[0; 2]; MAX_PLANES];
    words.iter_mut().zip(planes).for_each(|(word, &plane)| word[0] = plane);
    let mut chunk = [S::default(); 128];
    unpack_pair(&words[..planes.len()], &mut chunk);
    sites.copy_from_slice(&chunk[..sites.len()]);
}

/// Bit-planes that hold every site of `sites`: the bit length of the
/// OR of their words, at least 1. Checkpoint images and `serve`'s
/// region frames write this many planes.
pub fn planes_needed<S: State>(sites: &[S]) -> usize {
    let any = sites.iter().fold(0, |acc, s| acc | s.to_word());
    (64 - any.leading_zeros() as usize).max(1)
}

/// Packs the rows of `src` into `N` bit-planes, one row at a time
/// through a buffer of one row's sites. Each row starts a fresh word:
/// plane `p` holds `⌈cols/64⌉` words per row, and bit `j` of row `r`'s
/// word `w` is bit `p` of site `(r, 64w + j)`. The buffer's padding
/// past `cols` stays default, so the row moves through
/// `pack_pair` as whole pairs of 64-site chunks, and each plane
/// word is written in place. `check` sees each row once it is packed,
/// with the OR of its site words; its first error ends the pack.
pub fn pack_rows<S: State, const N: usize, E>(
    src: &dyn RowSource<S>,
    mut check: impl FnMut(usize, &[S], u64) -> Result<(), E>,
) -> Result<[Vec<u64>; N], E> {
    let shape = src.shape();
    let (rows, cols) = (shape.rows(), shape.cols());
    let wpr = cols.div_ceil(64);
    let mut planes: [Vec<u64>; N] = std::array::from_fn(|_| vec![0; rows * wpr]);
    let mut row = vec![S::default(); 128 * wpr.div_ceil(2)];
    for r in 0..rows {
        src.fill_row(r, &mut row[..cols]);
        let mut any = 0;
        for (i, pair) in row.as_chunks::<128>().0.iter().enumerate() {
            let mut words = [[0; 2]; N];
            any |= pack_pair(pair, &mut words);
            let at = r * wpr + 2 * i;
            for (plane, [lo, hi]) in planes.iter_mut().zip(words) {
                plane[at] = lo;
                if 2 * i + 1 < wpr {
                    plane[at + 1] = hi;
                }
            }
        }
        check(r, &row[..cols], any)?;
    }
    Ok(planes)
}

/// Inverse of [`pack_rows`] over the window `sink` keeps: each kept
/// row is unpacked straight from its plane words, 128 sites at a time
/// from words shifted once to the window's column, so no site outside
/// the window is touched.
pub fn unpack_rows<S: State, const N: usize>(
    planes: &[Vec<u64>; N],
    cols: usize,
    sink: &mut dyn RowSink<S>,
) {
    let wpr = cols.div_ceil(64);
    let (rows, window) = sink.window();
    let (q, shift) = (window.start / 64, window.start % 64);
    let mut spare = [S::default(); 128];
    for r in rows {
        let words = planes.each_ref().map(|p| &p[r * wpr..][..wpr]);
        let (pairs, tail) = sink.row_mut(r).as_chunks_mut::<128>();
        let full = pairs.len();
        for (i, sites) in pairs.iter_mut().enumerate() {
            unpack_pair(&window_words(&words, q + 2 * i, shift), sites);
        }
        if !tail.is_empty() {
            unpack_pair(&window_words(&words, q + 2 * full, shift), &mut spare);
            let n = tail.len();
            tail.copy_from_slice(&spare[..n]);
        }
    }
}

/// Words `q` and `q + 1` of each plane row, shifted down by `shift`
/// bits with the next word's low bits above them; bits past the row's
/// end read zero.
#[inline(always)]
fn window_words<const N: usize>(rows: &[&[u64]; N], q: usize, shift: usize) -> [[u64; 2]; N] {
    let mut words = [[0; 2]; N];
    for (pair, row) in words.iter_mut().zip(rows) {
        let [lo, mid, hi] = match row.get(q..q + 3) {
            Some(&[lo, mid, hi]) => [lo, mid, hi],
            _ => [q, q + 1, q + 2].map(|w| row.get(w).copied().unwrap_or(0)),
        };
        // Two shifts where one would be `<< 64` when `shift` is 0.
        *pair =
            [lo >> shift | (mid << 1) << (63 - shift), mid >> shift | (hi << 1) << (63 - shift)];
    }
    words
}

/// The 64 bits of a plane row from bit `c` on, shifted down to bit 0;
/// bits past the row's end read zero.
#[inline]
fn bits_at(row: &[u64], c: usize) -> u64 {
    let (q, shift) = (c / 64, c % 64);
    match row.get(q + 1) {
        Some(hi) if shift > 0 => row[q] >> shift | hi << (64 - shift),
        _ => row[q] >> shift,
    }
}

/// Replaces the `n ≤ 64` bits of a plane row from bit `c` on with the
/// low `n` bits of `w`; every other bit is kept.
#[inline]
fn put_bits(row: &mut [u64], c: usize, w: u64, n: usize) {
    let (q, shift) = (c / 64, c % 64);
    let mask = tail_mask(n);
    let w = w & mask;
    row[q] = row[q] & !(mask << shift) | w << shift;
    if shift > 0 && shift + n > 64 {
        let back = 64 - shift;
        row[q + 1] = row[q + 1] & !(mask >> back) | w >> back;
    }
}

/// Copies the window `rows × span` of [`pack_rows`] planes of a block
/// `cols` sites wide into `frame`, replacing its contents: plane by
/// plane, row by row, each row shifted down to start a fresh word, as
/// [`pack_rows`] lays out a block of the window's shape. A resident
/// board ships its halo frames as these words, and [`paste_planes`]
/// takes them into the neighbour's planes with no byte per site in
/// between.
pub fn copy_planes<const N: usize>(
    planes: &[Vec<u64>; N],
    cols: usize,
    (rows, span): (Range<usize>, Range<usize>),
    frame: &mut Vec<u64>,
) {
    assert!(span.end <= cols, "window spills past the block's {cols} columns");
    let (wpr, fwpr) = (cols.div_ceil(64), span.len().div_ceil(64));
    frame.clear();
    frame.reserve(N * rows.len() * fwpr);
    for plane in planes {
        for row in plane[rows.start * wpr..rows.end * wpr].chunks_exact(wpr) {
            for j in 0..fwpr {
                frame.push(bits_at(row, span.start + 64 * j));
            }
        }
    }
}

/// Inverse of [`copy_planes`]: overwrites the window whose top-left
/// site is `at` and whose shape is `(rows, width)` with a frame copied
/// from a window of that shape; every other bit is kept.
pub fn paste_planes<const N: usize>(
    planes: &mut [Vec<u64>; N],
    cols: usize,
    at: (usize, usize),
    (rows, width): (usize, usize),
    frame: &[u64],
) {
    assert!(at.1 + width <= cols, "window spills past the block's {cols} columns");
    let (wpr, fwpr) = (cols.div_ceil(64), width.div_ceil(64));
    assert_eq!(frame.len(), N * rows * fwpr, "a frame of another window's shape");
    if frame.is_empty() {
        return;
    }
    for (plane, words) in planes.iter_mut().zip(frame.chunks_exact(rows * fwpr)) {
        let dst = plane[at.0 * wpr..(at.0 + rows) * wpr].chunks_exact_mut(wpr);
        for (row, src) in dst.zip(words.chunks_exact(fwpr)) {
            for (j, &w) in src.iter().enumerate() {
                put_bits(row, at.1 + 64 * j, w, (width - 64 * j).min(64));
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
        let planes: [Vec<u64>; 2] = pack_rows(&grid, |_, _, _| Ok::<_, ()>(())).unwrap();
        assert_eq!(planes[0], [1, 0, 1, 0]);
        assert_eq!(planes[1], [0, 0, 0, 1 << 5]);
        let mut back = Grid::new(grid.shape());
        unpack_rows(&planes, 70, &mut back);
        assert_eq!(back, grid);
        // The row check sees each row and can stop the pack.
        let refused = pack_rows::<u8, 2, usize>(&grid, |r, row, _| match row[69] {
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
        let planes: [Vec<u64>; 8] = pack_rows(&grid, |_, _, _| Ok::<_, ()>(())).unwrap();
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
    fn plane_frames_move_any_window_between_blocks() {
        // A window of one block's planes pasted into another block at
        // another offset: word-aligned or not, one site to whole rows.
        let src = Grid::from_fn(Shape::grid2(5, 200).unwrap(), |c| {
            (c.row() * 200 + c.col()).wrapping_mul(37) as u8
        });
        let from: [Vec<u64>; 8] = pack_rows(&src, |_, _, _| Ok::<_, ()>(())).unwrap();
        let dst_shape = Shape::grid2(6, 150).unwrap();
        let dst = Grid::from_fn(dst_shape, |c| (c.row() * 150 + c.col()).wrapping_mul(11) as u8);
        let mut frame = vec![7u64; 3];
        for (rows, span, at) in [
            (0..5, 0..1, (1usize, 0usize)),
            (1..4, 63..64, (0, 149)),
            (0..5, 5..69, (1, 60)),
            (2..3, 64..200, (5, 0)),
            (0..2, 71..199, (3, 1)),
            (4..4, 9..19, (0, 0)),
        ] {
            let mut to: [Vec<u64>; 8] = pack_rows(&dst, |_, _, _| Ok::<_, ()>(())).unwrap();
            copy_planes(&from, 200, (rows.clone(), span.clone()), &mut frame);
            paste_planes(&mut to, 150, at, (rows.len(), span.len()), &frame);
            let mut back = Grid::new(dst_shape);
            unpack_rows(&to, 150, &mut back);
            let expect = Grid::from_fn(dst_shape, |c| {
                let (r, col) = (c.row().wrapping_sub(at.0), c.col().wrapping_sub(at.1));
                if r < rows.len() && col < span.len() {
                    src.get(crate::Coord::c2(rows.start + r, span.start + col))
                } else {
                    dst.get(c)
                }
            });
            assert_eq!(back, expect, "{rows:?} x {span:?} to {at:?}");
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
