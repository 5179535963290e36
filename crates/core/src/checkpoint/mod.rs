//! Lattice checkpoints: compact, self-describing grid snapshots.
//!
//! The paper's host "machine for support" owns the lattice between
//! engine passes; long lattice-gas runs need periodic snapshots. An
//! image stores the raster as bit-planes packed by [`crate::bits`]:
//! bit `j` of plane `p`'s byte `k` is bit `p` of site `8k + j`. Only
//! `planes` planes are written, the bit length of the OR of every site
//! word (at least 1, at most `bits`), so an HPP site costs half a byte.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "LGCK" | version u16 | rank u8 | bits u8 | dims [u64; rank] |
//! sites u64 | time u64 | planes u8 | planes × ⌈sites/8⌉ bytes
//! ```
//!
//! The image length is a pure function of the header, and `load`
//! checks it before allocating, so no header can declare more than 8
//! sites per payload byte. `sites` repeats the product of `dims`, so a
//! flipped dims bit is caught even where it leaves the length alone.
//! Versions 1 and 2 (run-length runs) are obsolete. Durable storage
//! with CRC-64 footers and crash-safe commits lives in [`store`].

pub mod store;

use crate::bits::{pack_pair, planes_needed, unpack_pair, MAX_PLANES};
use crate::coord::Shape;
use crate::grid::Grid;
use crate::rule::State;
use crate::units::{u64_from_usize, usize_from_u64, Ticks};
use crate::LatticeError;

const MAGIC: &[u8; 4] = b"LGCK";

/// On-disk format version written by [`save`]; [`load`] rejects images
/// stamped with any other.
pub const FORMAT_VERSION: u16 = 3;

/// Header bytes besides the dims: magic, version, rank, bits, sites,
/// time and planes.
const FIXED_HEADER: usize = 4 + 2 + 1 + 1 + 8 + 8 + 1;

/// Serializes a grid (with its generation stamp) to bytes.
pub fn save<S: State>(grid: &Grid<S>, time: Ticks) -> Vec<u8> {
    let shape = grid.shape();
    let data = grid.as_slice();
    let planes = planes_needed(data);
    let plane_bytes = data.len().div_ceil(8);
    let mut out = Vec::with_capacity(FIXED_HEADER + shape.rank() * 8 + planes * plane_bytes);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(shape.rank() as u8);
    out.push(S::BITS as u8);
    for &d in shape.dims() {
        out.extend_from_slice(&u64_from_usize(d).to_le_bytes());
    }
    out.extend_from_slice(&u64_from_usize(data.len()).to_le_bytes());
    out.extend_from_slice(&time.get().to_le_bytes());
    out.push(planes as u8);
    let body = out.len();
    out.resize(body + planes * plane_bytes, 0);
    let mut words = [[0; 2]; MAX_PLANES];
    let (pairs, tail) = data.as_chunks::<128>();
    let mut last = [S::default(); 128];
    last[..tail.len()].copy_from_slice(tail);
    // Two words, sixteen bytes, of each plane per 128 sites.
    for (i, pair) in pairs.iter().chain([&last]).enumerate() {
        pack_pair(pair, &mut words[..planes]);
        let n = plane_bytes.saturating_sub(16 * i).min(16);
        for (p, [lo, hi]) in words[..planes].iter().enumerate() {
            let at = body + p * plane_bytes + 16 * i;
            out[at..at + n]
                .copy_from_slice(&[lo.to_le_bytes(), hi.to_le_bytes()].as_flattened()[..n]);
        }
    }
    out
}

/// Deserializes a checkpoint, returning the grid and its generation.
///
/// Rejects malformed input with [`LatticeError::Corrupted`] — never
/// panics and never returns a partially-filled grid — so a checkpoint
/// pulled from unreliable storage can be probed safely. Distinct
/// structured reasons cover bad magic, obsolete and future format
/// versions, truncated images and trailing bytes; all of them, and any
/// header that disagrees with itself, are found before the lattice is
/// allocated.
pub fn load<S: State>(bytes: &[u8]) -> Result<(Grid<S>, Ticks), LatticeError> {
    let err = |msg: &str| LatticeError::Corrupted { site: "checkpoint".into(), detail: msg.into() };
    let byte = |at: usize| bytes.get(at).copied().ok_or_else(|| err("truncated"));
    let word = |at: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(bytes.get(at..at + 8).ok_or_else(|| err("truncated"))?);
        Ok::<_, LatticeError>(u64::from_le_bytes(b))
    };
    if bytes.get(..4) != Some(MAGIC) {
        return Err(err("bad magic"));
    }
    let version = u16::from_le_bytes([byte(4)?, byte(5)?]);
    if version > FORMAT_VERSION {
        return Err(err(&format!(
            "future format version {version} (this build reads {FORMAT_VERSION})"
        )));
    }
    if version < FORMAT_VERSION {
        return Err(err(&format!("obsolete format version {version}")));
    }
    let rank = usize::from(byte(6)?);
    let bits = u32::from(byte(7)?);
    if bits != S::BITS {
        return Err(err(&format!("site width {} does not match expected {}", bits, S::BITS)));
    }
    if rank == 0 || rank > crate::MAX_DIMS {
        return Err(err(&format!("rank {rank} unsupported")));
    }
    let dims_at = 8;
    let sites_at = dims_at + rank * 8;
    let sites = word(sites_at)?;
    let time = Ticks::new(word(sites_at + 8)?);
    let planes = usize::from(byte(sites_at + 16)?);
    if planes == 0 || planes > S::BITS as usize {
        return Err(err(&format!("{planes} planes for {bits}-bit sites")));
    }

    // The length rule: the site count that sizes the lattice is bounded
    // by the bytes actually present.
    let plane_bytes = usize_from_u64(sites.div_ceil(8));
    let head = FIXED_HEADER + rank * 8;
    let expect = plane_bytes.saturating_mul(planes).saturating_add(head);
    if bytes.len() < expect {
        return Err(err(&format!("truncated: {} bytes, header implies {expect}", bytes.len())));
    }
    if bytes.len() > expect {
        return Err(err(&format!("trailing bytes: {} past declared length {expect}", bytes.len())));
    }
    let dims = (0..rank)
        .map(|i| word(dims_at + 8 * i).map(usize_from_u64))
        .collect::<Result<Vec<_>, _>>()?;
    let shape = Shape::new(&dims)?;
    if u64_from_usize(shape.len()) != sites {
        return Err(err(&format!("dims {dims:?} do not hold the declared {sites} sites")));
    }

    let body = &bytes[head..];
    let mut data = vec![S::default(); shape.len()];
    let mut words = [[0; 2]; MAX_PLANES];
    let (pairs, tail) = data.as_chunks_mut::<128>();
    let mut last = [S::default(); 128];
    for (i, pair) in pairs.iter_mut().chain([&mut last]).enumerate() {
        let n = plane_bytes.saturating_sub(16 * i).min(16);
        for (p, word) in words[..planes].iter_mut().enumerate() {
            let mut b = [[0u8; 8]; 2];
            let at = p * plane_bytes + 16 * i;
            b.as_flattened_mut()[..n].copy_from_slice(&body[at..at + n]);
            *word = [u64::from_le_bytes(b[0]), u64::from_le_bytes(b[1])];
        }
        unpack_pair(&words[..planes], pair);
    }
    let n = tail.len();
    tail.copy_from_slice(&last[..n]);
    Ok((Grid::from_vec(shape, data)?, time))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte offset of the `sites` word in a rank-`r` image.
    fn sites_at(rank: usize) -> usize {
        8 + rank * 8
    }

    fn corrupted_detail<S: State>(bytes: &[u8]) -> String {
        match load::<S>(bytes) {
            Err(LatticeError::Corrupted { detail, .. }) => detail,
            other => panic!("expected structured rejection, got {other:?}"),
        }
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
        let g4 = Grid::from_fn(Shape::grid2(9, 11).unwrap(), |c| 0xDEAD_0000 ^ c.col() as u32);
        assert_eq!(load::<u32>(&save(&g4, Ticks::ONE)).unwrap().0, g4);
    }

    #[test]
    fn image_length_is_the_header_plus_one_bit_per_site_per_plane() {
        // HPP sites use 4 bits: 0.5 bytes per site.
        let shape = Shape::grid2(100, 100).unwrap();
        let hpp = Grid::from_fn(shape, |c| (c.row() * 7 + c.col()) as u8 & 0x0F);
        let head = FIXED_HEADER + 2 * 8;
        assert_eq!(save(&hpp, Ticks::ZERO).len(), head + 4 * 1250);
        // An empty lattice still writes one plane; 7 needs 3.
        assert_eq!(save(&Grid::<u8>::new(shape), Ticks::ZERO).len(), head + 1250);
        let g: Grid<u8> = Grid::filled(shape, 7);
        let bytes = save(&g, Ticks::ZERO);
        assert_eq!(bytes.len(), head + 3 * 1250);
        assert_eq!(load::<u8>(&bytes).unwrap().0, g);
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
        assert!(load::<u8>(&good[..good.len() - 1]).is_err());
        // Wrong site type.
        assert!(load::<u16>(&good).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(corrupted_detail::<u8>(&long).contains("trailing bytes"));
        // Zero planes, and more planes than the site has bits.
        let planes_at = sites_at(2) + 16;
        for planes in [0u8, 9] {
            let mut p = good.clone();
            p[planes_at] = planes;
            assert!(corrupted_detail::<u8>(&p).contains("planes for 8-bit sites"));
        }
    }

    #[test]
    fn obsolete_and_future_versions_rejected_with_structured_reasons() {
        let g: Grid<u8> = Grid::new(Shape::grid2(2, 2).unwrap());
        let mut bytes = save(&g, Ticks::ZERO);
        bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(corrupted_detail::<u8>(&bytes).contains("future format version"));
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        assert!(corrupted_detail::<u8>(&bytes).contains("obsolete format version 2"));
        // Version 1's magic is rejected up front.
        let mut old = save(&g, Ticks::ZERO);
        old[..4].copy_from_slice(b"LGC1");
        assert_eq!(corrupted_detail::<u8>(&old), "bad magic");
    }

    #[test]
    fn a_48_byte_v2_image_of_a_billion_sites_is_rejected() {
        // The run-length format let 48 bytes describe 2^30 sites: a
        // 2^15 x 2^15 lattice as one run of 2^30 copies of 0x0F. Loading
        // it allocated 1 GiB; it is now an obsolete version.
        let mut v2 = Vec::new();
        v2.extend_from_slice(b"LGCK");
        v2.extend_from_slice(&2u16.to_le_bytes());
        v2.extend_from_slice(&[2, 8]);
        v2.extend_from_slice(&1u32.to_le_bytes());
        v2.extend_from_slice(&(1u64 << 15).to_le_bytes());
        v2.extend_from_slice(&(1u64 << 15).to_le_bytes());
        v2.extend_from_slice(&0u64.to_le_bytes());
        v2.extend_from_slice(&(1u32 << 30).to_le_bytes());
        v2.extend_from_slice(&0x0Fu64.to_le_bytes());
        assert_eq!(v2.len(), 48);
        assert!(corrupted_detail::<u8>(&v2).contains("obsolete format version 2"));
    }

    #[test]
    fn declared_sites_beyond_the_payload_are_rejected_before_allocation() {
        // A self-consistent header declaring 2^40 sites over a 16-site
        // payload: the length rule rejects it without reserving 1 TiB.
        let g: Grid<u8> = Grid::new(Shape::grid2(4, 4).unwrap());
        let mut bytes = save(&g, Ticks::ZERO);
        bytes[8..16].copy_from_slice(&(1u64 << 20).to_le_bytes());
        bytes[16..24].copy_from_slice(&(1u64 << 20).to_le_bytes());
        bytes[24..32].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(corrupted_detail::<u8>(&bytes).contains("truncated"));
        // A site count whose planes would not fit in memory at all.
        bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(corrupted_detail::<u8>(&bytes).contains("truncated"));
    }

    #[test]
    fn a_flipped_dims_bit_is_rejected_before_allocation() {
        // A valid 4x7 image whose row count took a single-bit hit in
        // bit 35: the header now declares a 2^35-row lattice, which
        // disagrees with the site count the payload was sized by.
        let g = Grid::from_fn(Shape::grid2(4, 7).unwrap(), |c| (c.col() % 3) as u8);
        let mut bytes = save(&g, Ticks::new(5));
        bytes[8 + 4] ^= 1 << 3;
        assert!(corrupted_detail::<u8>(&bytes).contains("do not hold the declared 28 sites"));
        // So is a low-bit flip (4x7 -> 5x7): the length rule reads the
        // site count, which the flip left intact, so only the dims
        // check sees it.
        let mut bytes = save(&g, Ticks::new(5));
        bytes[8] ^= 1;
        assert!(corrupted_detail::<u8>(&bytes).contains("do not hold"));
    }
}
