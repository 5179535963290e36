//! Property tests for the checkpoint codec's corruption behavior: `load`
//! must never panic, and a checkpoint that took a single-bit hit in
//! storage must never *silently* change the physics — either the codec
//! rejects the bytes, or the damage is visible (wrong generation) or
//! harmless (bit-identical lattice), or the conservation audit flags the
//! restored lattice.

use lattice_engines::core::units::Ticks;
use lattice_engines::core::{checkpoint, Grid, Shape};
use lattice_engines::gas::audit::{AuditMode, ConservationAudit};
use lattice_engines::gas::observe::Model;
use lattice_engines::gas::{init, FhpVariant};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::Index;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn load_never_panics_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..256)) {
        // Any outcome is fine; crashing or hanging is not.
        let _ = checkpoint::load::<u8>(&bytes);
        let _ = checkpoint::load::<u16>(&bytes);
        let _ = checkpoint::load::<bool>(&bytes);
    }

    #[test]
    fn truncated_checkpoints_error_cleanly(
        rows in 1usize..12,
        cols in 1usize..12,
        cut in any::<Index>(),
    ) {
        let shape = Shape::grid2(rows, cols).unwrap();
        let g = init::random_hpp(shape, 0.4, 7).unwrap();
        let bytes = checkpoint::save(&g, Ticks::new(3));
        // Every strict prefix must be rejected, not half-decoded.
        let cut = cut.index(bytes.len());
        prop_assert!(checkpoint::load::<u8>(&bytes[..cut]).is_err());
    }

    #[test]
    fn single_bit_flip_is_never_silent(
        rows in 2usize..10,
        cols in 2usize..10,
        density in 0.1f64..0.6,
        seed in 0u64..1000,
        pos in any::<Index>(),
        bit in 0u32..8,
    ) {
        let shape = Shape::grid2(rows, cols).unwrap();
        let g = init::random_hpp(shape, density, seed).unwrap();
        let t = Ticks::new(5);
        let mut bytes = checkpoint::save(&g, t);
        let i = pos.index(bytes.len());
        bytes[i] ^= 1u8 << bit;
        let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
        let silent_corruption = match checkpoint::load::<u8>(&bytes) {
            // Rejected at decode: detected.
            Err(_) => false,
            Ok((g2, t2)) => {
                // Decoded: the flip must be visible in the generation
                // stamp, harmless (a don't-care bit of a 64-bit value
                // word, truncated away on decode), or caught by the
                // conservation/legal-state audit.
                t2 == t && g2 != g && audit.check(&g, &g2).is_ok()
            }
        };
        prop_assert!(!silent_corruption, "flip of bit {bit} at byte {i} was silent");
    }
}

/// The image the format's header comment states for `g` at `time`,
/// written out site by site: the header, then `planes` planes of
/// ⌈sites/8⌉ bytes where bit `j` of plane `p`'s byte `k` is bit `p` of
/// site `8k + j`.
fn stated_image(g: &Grid<u8>, time: u64) -> Vec<u8> {
    let sites = g.as_slice();
    let or = sites.iter().fold(0u8, |a, &s| a | s);
    let planes = (8 - or.leading_zeros() as usize).max(1);
    let mut out = b"LGCK".to_vec();
    out.extend_from_slice(&3u16.to_le_bytes());
    out.extend_from_slice(&[2, 8]);
    for d in g.shape().dims() {
        out.extend_from_slice(&(*d as u64).to_le_bytes());
    }
    out.extend_from_slice(&(sites.len() as u64).to_le_bytes());
    out.extend_from_slice(&time.to_le_bytes());
    out.push(planes as u8);
    for p in 0..planes {
        for k in 0..sites.len().div_ceil(8) {
            let byte = (0..8)
                .filter_map(|j| sites.get(8 * k + j).map(|s| (s >> p & 1) << j))
                .fold(0u8, |a, b| a | b);
            out.push(byte);
        }
    }
    out
}

#[test]
fn checkpoint_images_are_the_stated_bytes() {
    // A 2×3 lattice in full: two planes, one byte each.
    let tiny = Grid::from_vec(Shape::grid2(2, 3).unwrap(), vec![1, 2, 3, 0, 1, 2]).unwrap();
    let mut want = b"LGCK\x03\x00\x02\x08".to_vec();
    want.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0]);
    want.extend_from_slice(&[6, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 2]);
    want.extend_from_slice(&[0b01_0101, 0b10_0110]);
    assert_eq!(checkpoint::save(&tiny, Ticks::new(9)), want);
    assert_eq!(stated_image(&tiny, 9), want);
    // HPP (4 planes) and FHP-I (6 planes) lattices whose site counts
    // fill whole 64-site words and leave ragged ones.
    for (rows, cols) in [(4, 64), (5, 37), (3, 130)] {
        let shape = Shape::grid2(rows, cols).unwrap();
        let hpp = init::random_hpp(shape, 0.5, (rows * cols) as u64).unwrap();
        let fhp = init::random_fhp(shape, FhpVariant::I, 0.5, cols as u64, false).unwrap();
        for (name, g) in [("hpp", hpp), ("fhp", fhp)] {
            let image = checkpoint::save(&g, Ticks::new(41));
            assert_eq!(image, stated_image(&g, 41), "{name} {rows}x{cols}");
            assert_eq!(checkpoint::load::<u8>(&image).unwrap(), (g, Ticks::new(41)));
        }
    }
}
