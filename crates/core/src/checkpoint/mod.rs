//! Lattice checkpoints: compact, self-describing grid snapshots.
//!
//! The paper's host "machine for support" owns the lattice between
//! engine passes; long lattice-gas runs (thousands of generations at
//! §2's "huge lattices") need periodic snapshots. The format is a small
//! run-length encoding over the raster stream — gas lattices are sparse
//! or locally uniform, so RLE does well — with a header carrying the
//! format version, the shape, the generation number, and the site
//! bit-width for validation on load.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "LGCK" | version u16 | rank u8 | bits u8 | runs u32 |
//! dims [u64; rank] | time u64 | runs × (count u32, value u64)
//! ```
//!
//! The `runs` count makes the image length explicit: `load` knows the
//! exact byte length the header implies and rejects anything shorter
//! (truncated) or longer (trailing bytes) before touching the payload,
//! and rejects a `version` beyond what this build writes — so future or
//! torn images fail with a structured [`LatticeError::Corrupted`]
//! reason instead of relying on a checksum alone. Durable storage with
//! CRC-64 footers and crash-safe commits lives in [`store`].

pub mod store;

use crate::coord::Shape;
use crate::grid::Grid;
use crate::rule::State;
use crate::units::Ticks;
use crate::LatticeError;

const MAGIC: &[u8; 4] = b"LGCK";

/// On-disk format version written by [`save`]; [`load`] rejects images
/// stamped with a newer version.
pub const FORMAT_VERSION: u16 = 2;

/// Bytes in the fixed part of the header (before the dims).
const FIXED_HEADER: usize = 4 + 2 + 1 + 1 + 4;
/// Bytes per RLE run: count `u32` + value `u64`.
const RUN_BYTES: usize = 12;

/// Serializes a grid (with its generation stamp) to bytes.
pub fn save<S: State>(grid: &Grid<S>, time: Ticks) -> Vec<u8> {
    let shape = grid.shape();
    // RLE over the raster stream.
    let data = grid.as_slice();
    let mut runs: Vec<(u32, u64)> = Vec::new();
    let mut i = 0usize;
    while i < data.len() {
        let v = data[i].to_word();
        let mut run = 1usize;
        while i + run < data.len() && data[i + run].to_word() == v && run < u32::MAX as usize {
            run += 1;
        }
        runs.push((run as u32, v));
        i += run;
    }
    let mut out = Vec::with_capacity(FIXED_HEADER + shape.rank() * 8 + 8 + runs.len() * RUN_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(shape.rank() as u8);
    out.push(S::BITS as u8);
    out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for &d in shape.dims() {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.extend_from_slice(&time.get().to_le_bytes());
    for (count, value) in runs {
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out
}

/// Deserializes a checkpoint, returning the grid and its generation.
///
/// Rejects malformed input with [`LatticeError::Corrupted`] — never
/// panics and never returns a partially-filled grid — so a checkpoint
/// pulled from unreliable storage can be probed safely. Distinct
/// structured reasons cover bad magic, future format versions,
/// truncated images, and trailing bytes.
pub fn load<S: State>(bytes: &[u8]) -> Result<(Grid<S>, Ticks), LatticeError> {
    let err = |msg: &str| LatticeError::Corrupted { site: "checkpoint".into(), detail: msg.into() };
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], LatticeError> {
        if *pos + n > bytes.len() {
            return Err(err("truncated"));
        }
        let s = &bytes[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };
    if take(&mut pos, 4)? != MAGIC {
        return Err(err("bad magic"));
    }
    let mut vb = [0u8; 2];
    vb.copy_from_slice(take(&mut pos, 2)?);
    let version = u16::from_le_bytes(vb);
    if version > FORMAT_VERSION {
        return Err(err(&format!(
            "future format version {version} (this build reads <= {FORMAT_VERSION})"
        )));
    }
    if version < FORMAT_VERSION {
        return Err(err(&format!("obsolete format version {version}")));
    }
    let rank = take(&mut pos, 1)?[0] as usize;
    let bits = take(&mut pos, 1)?[0] as u32;
    if bits != S::BITS {
        return Err(err(&format!("site width {} does not match expected {}", bits, S::BITS)));
    }
    if rank == 0 || rank > crate::MAX_DIMS {
        return Err(err(&format!("rank {rank} unsupported")));
    }
    let mut rb = [0u8; 4];
    rb.copy_from_slice(take(&mut pos, 4)?);
    let run_count = u32::from_le_bytes(rb) as usize;

    // The header implies the exact image length; check it up front so a
    // truncated or padded image is rejected by structure, not by
    // running off the end of (or leaving slack in) the run stream.
    let expect = FIXED_HEADER + rank * 8 + 8 + run_count * RUN_BYTES;
    if bytes.len() < expect {
        return Err(err(&format!("truncated: {} bytes, header implies {expect}", bytes.len())));
    }
    if bytes.len() > expect {
        return Err(err(&format!("trailing bytes: {} past declared length {expect}", bytes.len())));
    }

    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let mut b = [0u8; 8];
        b.copy_from_slice(take(&mut pos, 8)?);
        dims.push(u64::from_le_bytes(b) as usize);
    }
    let shape = Shape::new(&dims)?;
    let mut tb = [0u8; 8];
    tb.copy_from_slice(take(&mut pos, 8)?);
    let time = Ticks::new(u64::from_le_bytes(tb));

    // The header's dims are not trusted to size anything: the run
    // bytes (bounded by the checked image length) are scanned once to
    // sum the counts, and the lattice is allocated only once that sum
    // equals `shape.len()`, so a flipped high bit in a dims word is
    // rejected instead of driving a multi-gigabyte allocation.
    let run_bytes = take(&mut pos, run_count * RUN_BYTES)?;
    let run = |r: &[u8]| {
        let mut cb = [0u8; 4];
        cb.copy_from_slice(&r[..4]);
        let mut wb = [0u8; 8];
        wb.copy_from_slice(&r[4..]);
        (u32::from_le_bytes(cb) as usize, u64::from_le_bytes(wb))
    };
    let mut total = 0usize;
    for r in run_bytes.chunks_exact(RUN_BYTES) {
        let (count, _) = run(r);
        if count == 0 {
            return Err(err("empty run"));
        }
        total = total.checked_add(count).ok_or_else(|| err("run stream overflows"))?;
    }
    if total > shape.len() {
        return Err(err("run overflows the lattice"));
    }
    if total < shape.len() {
        return Err(err("run stream stops short of the lattice"));
    }
    let mut data: Vec<S> = Vec::with_capacity(total);
    for r in run_bytes.chunks_exact(RUN_BYTES) {
        let (count, word) = run(r);
        data.resize(data.len() + count, S::from_word(word));
    }
    Ok((Grid::from_vec(shape, data)?, time))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Coord;

    /// Byte offset of the first RLE run for a rank-`r` image.
    fn runs_at(rank: usize) -> usize {
        FIXED_HEADER + rank * 8 + 8
    }

    #[test]
    fn roundtrip_2d() {
        let shape = Shape::grid2(7, 13).unwrap();
        let g = Grid::from_fn(shape, |c| ((c.row() * 13 + c.col()) % 5) as u8);
        let bytes = save(&g, Ticks::new(42));
        let (back, t) = load::<u8>(&bytes).unwrap();
        assert_eq!(back, g);
        assert_eq!(t, Ticks::new(42));
    }

    #[test]
    fn roundtrip_1d_and_3d() {
        let g1 = Grid::from_fn(Shape::line(100).unwrap(), |c| c.col() % 7 == 0);
        let (b1, _) = load::<bool>(&save(&g1, Ticks::ZERO)).unwrap();
        assert_eq!(b1, g1);
        let g3 = Grid::from_fn(Shape::grid3(3, 4, 5).unwrap(), |c| {
            (c.get(0) * 20 + c.get(1) * 5 + c.get(2)) as u16
        });
        let (b3, t) = load::<u16>(&save(&g3, Ticks::new(9))).unwrap();
        assert_eq!(b3, g3);
        assert_eq!(t.get(), 9);
    }

    #[test]
    fn uniform_grid_compresses_well() {
        let shape = Shape::grid2(100, 100).unwrap();
        let g: Grid<u8> = Grid::filled(shape, 7);
        let bytes = save(&g, Ticks::ZERO);
        // Header + one run: far below 10_000 raw bytes.
        assert!(bytes.len() < 64, "{} bytes", bytes.len());
        let (back, _) = load::<u8>(&bytes).unwrap();
        assert_eq!(back.get(Coord::c2(99, 99)), 7);
    }

    #[test]
    fn corrupted_inputs_are_rejected() {
        let g: Grid<u8> = Grid::new(Shape::grid2(4, 4).unwrap());
        let good = save(&g, Ticks::ONE);
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(load::<u8>(&bad).is_err());
        // Truncated.
        assert!(load::<u8>(&good[..good.len() - 3]).is_err());
        // Wrong site type.
        assert!(load::<u16>(&good).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(load::<u8>(&long).is_err());
        // Run overflow: corrupt the first run count to a huge value.
        let mut over = good.clone();
        let at = runs_at(2);
        over[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(load::<u8>(&over).is_err());
    }

    #[test]
    fn future_version_rejected_with_structured_reason() {
        let g: Grid<u8> = Grid::new(Shape::grid2(2, 2).unwrap());
        let mut bytes = save(&g, Ticks::ZERO);
        bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match load::<u8>(&bytes) {
            Err(LatticeError::Corrupted { detail, .. }) => {
                assert!(detail.contains("future format version"), "{detail}");
            }
            other => panic!("expected structured rejection, got {other:?}"),
        }
        // The previous generation's magic is likewise rejected up front.
        let mut old = save(&g, Ticks::ZERO);
        old[..4].copy_from_slice(b"LGC1");
        assert!(load::<u8>(&old).is_err());
    }

    #[test]
    fn declared_length_is_validated_before_decode() {
        let g: Grid<u8> = Grid::new(Shape::grid2(4, 4).unwrap());
        let mut bytes = save(&g, Ticks::ZERO);
        // Claim one more run than the image carries: structured
        // "truncated" with the implied length, not a decode overrun.
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        match load::<u8>(&bytes) {
            Err(LatticeError::Corrupted { detail, .. }) => {
                assert!(detail.contains("truncated"), "{detail}");
            }
            other => panic!("expected truncation rejection, got {other:?}"),
        }
    }

    #[test]
    fn a_flipped_high_dims_bit_is_rejected_before_allocation() {
        // A valid 4x7 image whose row count took a single-bit hit in
        // bit 35: the header now declares a 2^35-row lattice. The run
        // stream still covers only 28 sites, so load must reject the
        // image rather than reserve ~32 GiB for it.
        let g = Grid::from_fn(Shape::grid2(4, 7).unwrap(), |c| (c.col() % 3) as u8);
        let mut bytes = save(&g, Ticks::new(5));
        let rows_word = FIXED_HEADER;
        bytes[rows_word + 4] ^= 1 << 3;
        match load::<u8>(&bytes) {
            Err(LatticeError::Corrupted { detail, .. }) => {
                assert!(detail.contains("stops short"), "{detail}");
            }
            other => panic!("expected structured rejection, got {other:?}"),
        }
    }

    #[test]
    fn empty_runs_rejected() {
        let g: Grid<u8> = Grid::new(Shape::line(4).unwrap());
        let mut bytes = save(&g, Ticks::ZERO);
        let at = runs_at(1);
        bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        assert!(load::<u8>(&bytes).is_err());
    }
}
