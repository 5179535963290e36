//! Site states and local update rules.
//!
//! The paper's computational model (§1, §3): *iterative, defined on a
//! regular lattice, uniform in space and time, local, simple at each
//! point*. A [`Rule`] captures exactly the data dependency of equation
//! (§3): `v(a, t+1) = f(N(a), t)` with `N(a)` contained in the radius-1
//! Moore window around `a`.

use crate::grid::{RowSink, RowSource};
use crate::window::Window;
use std::ops::Range;

/// A site value: small, copyable, with a fixed bit width.
///
/// The bit width is the paper's `D` — "the number of bits required to
/// represent the state of a lattice site" — and is what the bandwidth
/// accounting in `lattice-vlsi` and `lattice-engines-sim` charges per site
/// moved across a chip boundary.
pub trait State: Copy + Default + PartialEq + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Bits needed to represent one site (the paper's `D`).
    const BITS: u32;

    /// The state encoded as a raw little-endian word, for traffic
    /// accounting and packing. Only the low [`State::BITS`] bits may be
    /// nonzero.
    fn to_word(self) -> u64;

    /// Inverse of [`State::to_word`]. Implementations must ignore bits
    /// above [`State::BITS`].
    fn from_word(w: u64) -> Self;
}

impl State for u8 {
    const BITS: u32 = 8;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as u8
    }
}

impl State for u16 {
    const BITS: u32 = 16;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as u16
    }
}

impl State for u32 {
    const BITS: u32 = 32;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as u32
    }
}

impl State for bool {
    const BITS: u32 = 1;
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w & 1 != 0
    }
}

/// A uniform, local, radius-1 update rule.
///
/// Implementations must be pure functions of the window contents and the
/// window's coordinate/time metadata: the architectural simulators evaluate
/// the same rule at different wall-clock moments and in different spatial
/// orders than the reference engine, and bit-exact agreement is a test
/// invariant. Rules needing randomness (e.g. FHP two-body collisions) must
/// derive it deterministically from `(coordinate, time, seed)` — see
/// `lattice_gas::prng`.
pub trait Rule: Sync {
    /// The site state this rule operates on.
    type S: State;

    /// Computes `v(a, t+1)` from the Moore window centered at `a`.
    fn update(&self, w: &Window<Self::S>) -> Self::S;

    /// Human-readable rule name (for reports and harness output).
    fn name(&self) -> &str {
        "anonymous-rule"
    }

    /// The rule's block kernel over the block `src` reads (generation
    /// `t0`, its site `(r, c)` at global coordinate
    /// `(origin.0 + r, origin.1 + c)`, wrapping), read once, a row at a
    /// time, into the kernel's own state. That state then lives as long
    /// as its owner keeps it: a farm board keeps it across the passes of
    /// a step and imports only its halo between them.
    ///
    /// Contract: after `run(a)`, [`BlockKernel::import`]s, `run(b)`, …,
    /// every site [`BlockKernel::unpack`] writes equals the same site of
    /// `evolve` under `Boundary::null()` (with the rule seeing those
    /// global coordinates; on the torus along an axis the state
    /// [`BlockKernel::wrap`]s) of the block, run `a` generations from
    /// `t0`, with the imported sites overwritten, run `b` more, and so
    /// on. A rule that cannot honour that for this block — wrong rank,
    /// state bits its kernel does not model — returns `None`, and the
    /// caller takes the site-by-site path. The default has no kernel.
    fn block_kernel(
        &self,
        src: &dyn RowSource<Self::S>,
        t0: u64,
        origin: (usize, usize),
    ) -> Option<Box<dyn BlockKernel<Self::S>>> {
        let _ = (src, t0, origin);
        None
    }

    /// One pass of the block kernel: builds it over `src` (see
    /// [`Rule::block_kernel`]), runs `generations` steps, and writes
    /// only the rows and columns `sink` keeps.
    ///
    /// `true` means every kept site of `sink` now equals the same site
    /// of `evolve(block, self, Boundary::null(), t0, generations)`
    /// (with the rule seeing those global coordinates); `false` means
    /// the rule has no kernel for the block, and `sink` is untouched.
    /// Rules implement [`Rule::block_kernel`], not this.
    #[must_use]
    fn evolve_block(
        &self,
        src: &dyn RowSource<Self::S>,
        sink: &mut dyn RowSink<Self::S>,
        t0: u64,
        generations: usize,
        origin: (usize, usize),
    ) -> bool {
        let Ok(steps) = u64::try_from(generations) else { return false };
        let Some(mut block) = self.block_kernel(src, t0, origin) else { return false };
        block.run(steps);
        block.unpack(sink);
        true
    }
}

/// A block's state inside a rule's kernel ([`Rule::block_kernel`]):
/// it evolves in place under the null boundary, takes fresh sites into
/// any window, and writes any window back out. Site `(r, c)` of the
/// state is site `(r, c)` of the block it was built from, and it keeps
/// that block's global coordinates and its own generation clock.
pub trait BlockKernel<S: State>: Send {
    /// Evolves `generations` steps, advancing the clock.
    fn run(&mut self, generations: u64);

    /// Overwrites the sites of the window whose top-left site is `at`,
    /// and whose shape is `src`'s, with the rows `src` reads; every
    /// other site is kept. Site bits the kernel does not model are
    /// dropped, so the sites should come from the same rule's lattice.
    fn import(&mut self, at: (usize, usize), src: &dyn RowSource<S>);

    /// Writes the sites of the window `sink` keeps, and only those.
    fn unpack(&self, sink: &mut dyn RowSink<S>);

    /// Copies the window `(rows, cols)` of the state into `frame`, its
    /// old contents replaced, in the kernel's own words: a frame that
    /// [`BlockKernel::paste`] of a kernel of the same rule takes into a
    /// window of the same shape. A farm board ships its halo frames to
    /// its neighbours this way, with no byte per site in between.
    fn copy(&self, window: (Range<usize>, Range<usize>), frame: &mut Vec<u64>);

    /// Overwrites the window whose top-left site is `at` and whose shape
    /// is `(rows, cols)` with a frame [`BlockKernel::copy`] wrote of a
    /// window of that shape; every other site is kept. Like an
    /// [`BlockKernel::import`] of the frame's sites.
    fn paste(&mut self, at: (usize, usize), shape: (usize, usize), frame: &[u64]);

    /// Makes the state a torus along its rows (its top and bottom edges
    /// meet) and along its columns, as asked, from the next
    /// [`BlockKernel::run`] on: sites streaming off such an edge enter
    /// at the other instead of being lost. `false`, with nothing
    /// changed, when the kernel cannot wrap an axis asked for. A farm
    /// board whose block spans a whole torus axis wraps it this way
    /// instead of importing a halo along it.
    fn wrap(&mut self, rows: bool, cols: bool) -> bool;
}

impl<R: Rule + ?Sized> Rule for &R {
    type S = R::S;
    fn update(&self, w: &Window<Self::S>) -> Self::S {
        (**self).update(w)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn block_kernel(
        &self,
        src: &dyn RowSource<Self::S>,
        t0: u64,
        origin: (usize, usize),
    ) -> Option<Box<dyn BlockKernel<Self::S>>> {
        (**self).block_kernel(src, t0, origin)
    }
}

/// The identity rule: every site keeps its value. Useful as an engine
/// sanity check and as a do-nothing placeholder in harnesses.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityRule<S: State>(std::marker::PhantomData<S>);

impl<S: State> IdentityRule<S> {
    /// Creates the identity rule.
    pub fn new() -> Self {
        IdentityRule(std::marker::PhantomData)
    }
}

impl<S: State> Rule for IdentityRule<S> {
    type S = S;
    fn update(&self, w: &Window<S>) -> S {
        w.center()
    }
    fn name(&self) -> &str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_word_roundtrip() {
        assert_eq!(u8::from_word(0x1ff), 0xff);
        assert_eq!(u16::from_word(0xabcd).to_word(), 0xabcd);
        assert!(!bool::from_word(2));
        assert!(bool::from_word(3));
        assert_eq!(u32::BITS, 32);
        assert_eq!(<bool as State>::BITS, 1);
    }

    #[test]
    fn identity_rule_returns_center() {
        use crate::{Coord, Shape};
        let shape = Shape::grid2(3, 3).unwrap();
        let mut cells = [0u8; crate::window::WINDOW_MAX];
        cells[crate::window::center_index(2)] = 42;
        let w = Window::from_cells(shape.rank(), Coord::c2(1, 1), 0, cells);
        assert_eq!(IdentityRule::new().update(&w), 42);
        assert_eq!(IdentityRule::<u8>::new().name(), "identity");
    }
}
