//! Resident runs: the passes of a step whose lattices nothing reads,
//! handed to each board as one job.
//!
//! When the pass loop finds a run of passes whose lattices nothing reads
//! between them (`FarmSession::resident_passes`), each board gets the
//! whole run at once: board 0 on the supervisor, board `i` on crew helper
//! `i − 1`. A board reads its block from the run's start lattice once,
//! into its rule's [`BlockKernel`], and then, pass after pass, evolves
//! `k` generations and completes its halo from its neighbours' planes in
//! two hops:
//!
//! 1. *Rows.* It posts its top and bottom `k` owned rows (owned width) to
//!    the boards above and below and takes theirs into its halo rows.
//! 2. *Columns.* Then it posts its left and right `k` owned columns over
//!    the block's full height, carrying the corners the rows just
//!    delivered, and takes its neighbours' into its halo columns.
//!
//! A board whose block spans a whole torus axis (one board row, or one
//! board column) is its own neighbour along it: its kernel wraps that
//! axis ([`BlockKernel::wrap`]), so the block has no halo there and the
//! board trades nothing along it.
//!
//! These are the two hops the link billing already assumes: the corners
//! ride the intra-rack column frames. Frames travel as plane words
//! ([`BlockKernel::copy`], [`BlockKernel::paste`]) through one
//! [`Mailbox`] per directed link, one frame deep and tagged with its
//! pass, the [`HaloWindow`](crate::HaloWindow) shape. A board waits only
//! on the neighbours it imports from. The last pass unpacks each board's
//! owned window into the next lattice, and the supervisor commits once.
//!
//! A board that fails — a panic, or a rule with no kernel for its block
//! — poisons every mailbox it posts to or takes from, so no neighbour
//! waits on it forever; a neighbour that meets the poison fails and
//! poisons its own mailboxes in turn. Nothing has been committed, so the
//! session still holds the run's start lattice. Mailboxes live for the
//! step and tags never repeat within it, so a frame a failed run left
//! behind is stale to every later run: a poster overwrites it and a
//! taker waits past it. `loom_mailbox_*` in `tests/loom_halo.rs`
//! model-checks this protocol.

use crate::crew::Answer;
use crate::farm::{
    owned_rows, paste_window, recycle, Augmented, BoardFailure, Committed, Done, Job, OwnedRows,
    StepCrew,
};
use crate::partition::{Block, Region2d};
use lattice_core::{BlockKernel, LatticeError, RowSource, Rule, Shape, State};
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex, PoisonError};

/// The sides of a board's augmented block, in the order a pass
/// completes its halo: rows, then full-height columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Up,
    Down,
    Left,
    Right,
}

impl Side {
    /// The side's place among a block's four mailboxes.
    fn index(self) -> usize {
        match self {
            Side::Up => 0,
            Side::Down => 1,
            Side::Left => 2,
            Side::Right => 3,
        }
    }

    fn opposite(self) -> Side {
        match self {
            Side::Up => Side::Down,
            Side::Down => Side::Up,
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// A one-deep, pass-tagged mailbox on one directed link. Its state is
/// two atomics, so a waiting board polls it without a lock; the frame's
/// words sit behind a mutex that the poster and the taker, who take
/// turns by the tag, never contend for.
#[derive(Default)]
pub(crate) struct Mailbox {
    /// One more than the tag of the frame waiting to be taken; zero
    /// when none waits.
    full: AtomicU64,
    /// Waits for a tag below this fail: the run it belongs to lost a
    /// board.
    poisoned_below: AtomicU64,
    frame: Mutex<Vec<u64>>,
}

/// Why a board stopped short of its run's end.
pub(crate) enum Stop {
    /// The rule has no kernel for the board's block; nothing ran.
    Declined,
    /// A mailbox was poisoned: some other board failed first.
    Poisoned,
    /// The board itself failed.
    Failed(LatticeError),
}

/// Polls of a mailbox that spin in place before a waiting board starts
/// yielding the processor between polls: a few microseconds on a
/// 2-core Xeon host, about the skew between two boards running the
/// same pass. Every board of a run is running or has poisoned its
/// mailboxes, so a wait never outlasts a neighbour's pass, and a
/// yielding poll hands the core to a neighbour that shares it.
const SPINS: u32 = 1 << 8;

impl Mailbox {
    /// Returns once `ready` holds of the tag of the frame waiting (if
    /// any), for a wait on `tag`, or fails once the wait is poisoned.
    fn wait(
        &self,
        tag: u64,
        ready: impl Fn(Option<u64>) -> Result<bool, Stop>,
    ) -> Result<(), Stop> {
        let mut polls = 0u32;
        loop {
            if tag < self.poisoned_below.load(SeqCst) {
                return Err(Stop::Poisoned);
            }
            if ready(self.full.load(SeqCst).checked_sub(1))? {
                return Ok(());
            }
            if polls < SPINS {
                polls += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Posts the frame `fill` writes as `tag`'s, once the link holds no
    /// untaken frame of this run (tags from `tag0` on); a frame an
    /// earlier run left is overwritten.
    fn post(&self, tag: u64, tag0: u64, fill: impl FnOnce(&mut Vec<u64>)) -> Result<(), Stop> {
        self.wait(tag, |full| Ok(full.is_none_or(|t| t < tag0)))?;
        fill(&mut self.frame.lock().unwrap_or_else(PoisonError::into_inner));
        self.full.store(tag + 1, SeqCst);
        Ok(())
    }

    /// Takes the frame tagged `tag` into `paste`. A frame of this run
    /// with another tag means a board ran out of step; an earlier run's
    /// is waited past.
    fn take(&self, tag: u64, tag0: u64, paste: impl FnOnce(&[u64])) -> Result<(), Stop> {
        self.wait(tag, |full| match full {
            Some(t) if t == tag => Ok(true),
            Some(t) if t >= tag0 => Err(Stop::Failed(LatticeError::Corrupted {
                site: "resident mailbox".into(),
                detail: format!("the frame of pass tag {t} waits where {tag} was due"),
            })),
            _ => Ok(false),
        })?;
        paste(&self.frame.lock().unwrap_or_else(PoisonError::into_inner));
        self.full.store(0, SeqCst);
        Ok(())
    }

    /// Fails every wait on a tag below `below`, present and future.
    fn poison(&self, below: u64) {
        self.poisoned_below.fetch_max(below, SeqCst);
    }
}

/// One board's whole run: the run's start lattice, the board's block
/// and the mailboxes it trades through.
pub(crate) struct BoardRun<'a, S: State> {
    lattice: Committed<'a, S>,
    block: Block,
    /// The board grid `(R, C)` the run's blocks tile.
    grid: (usize, usize),
    /// Whether the torus wraps the rows (`R = 1`) and the columns
    /// (`C = 1`) inside the board's own kernel.
    wrap: (bool, bool),
    k: usize,
    t0: u64,
    passes: u64,
    /// The first pass's tag: pass `p` posts and takes `tag0 + p`.
    tag0: u64,
    phys: usize,
    /// Mailbox `4·i + side` carries the frames into block `i`'s halo on
    /// that side.
    links: Arc<[Mailbox]>,
    /// Whether a thread took up the job: one dropped unrun (a helper
    /// that could not be spawned) poisons its mailboxes as it drops.
    started: Cell<bool>,
}

impl<S: State> Drop for BoardRun<'_, S> {
    fn drop(&mut self) {
        if !self.started.get() {
            self.poison();
        }
    }
}

impl<S: State> BoardRun<'_, S> {
    /// The halo depth on side `s`: none along an axis the kernel wraps.
    fn depth(&self, s: Side) -> usize {
        let (b, (_, cols)) = (&self.block, self.wrap);
        match s {
            Side::Up => b.halo_up,
            Side::Down => b.halo_down,
            Side::Left if !cols => b.halo_left,
            Side::Right if !cols => b.halo_right,
            Side::Left | Side::Right => 0,
        }
    }

    /// The kernel's block: its rows and columns, and the first owned
    /// row and column in it.
    fn frame(&self) -> (usize, usize, usize, usize) {
        let b = &self.block;
        let (top, left) = (self.depth(Side::Up), self.depth(Side::Left));
        (top + b.rows + self.depth(Side::Down), left + b.width + self.depth(Side::Right), top, left)
    }

    /// The block across side `s`.
    fn neighbour(&self, s: Side) -> usize {
        let ((r, c), (gr, gc)) = (self.grid, (self.block.grid_row, self.block.grid_col));
        let (gr, gc) = match s {
            Side::Up => ((gr + r - 1) % r, gc),
            Side::Down => ((gr + 1) % r, gc),
            Side::Left => (gr, (gc + c - 1) % c),
            Side::Right => (gr, (gc + 1) % c),
        };
        gr * c + gc
    }

    /// The mailbox into block `i`'s halo on side `s`.
    fn mailbox(&self, i: usize, s: Side) -> &Mailbox {
        &self.links[4 * i + s.index()]
    }

    /// The `n` owned rows or columns along side `s` that the board
    /// across it reads as halo: owned width for rows, the kernel's full
    /// height for columns.
    fn edge(&self, s: Side, n: usize) -> (Range<usize>, Range<usize>) {
        let (b, (height, _, top, left)) = (&self.block, self.frame());
        let (rows, cols) = (top..top + b.rows, left..left + b.width);
        match s {
            Side::Up => (top..top + n, cols),
            Side::Down => (rows.end - n..rows.end, cols),
            Side::Left => (0..height, left..left + n),
            Side::Right => (0..height, cols.end - n..cols.end),
        }
    }

    /// The board's `n`-deep halo on side `s`: its top-left site and
    /// shape in the kernel.
    fn halo(&self, s: Side, n: usize) -> ((usize, usize), (usize, usize)) {
        let (b, (height, _, top, left)) = (&self.block, self.frame());
        match s {
            Side::Up => ((top - n, left), (n, b.width)),
            Side::Down => ((top + b.rows, left), (n, b.width)),
            Side::Left => ((0, 0), (height, n)),
            Side::Right => ((0, left + b.width), (height, n)),
        }
    }

    /// Completes the halo on `sides` (one hop) for pass tag `tag`: posts
    /// every edge a neighbour reads, then takes every neighbour's frame.
    fn hop(&self, planes: &mut dyn BlockKernel<S>, sides: [Side; 2], tag: u64) -> Result<(), Stop> {
        for s in sides.into_iter().filter(|&s| self.depth(s) > 0) {
            let edge = self.edge(s, self.depth(s));
            let to = self.mailbox(self.neighbour(s), s.opposite());
            to.post(tag, self.tag0, |w| planes.copy(edge, w))?;
        }
        for s in sides.into_iter().filter(|&s| self.depth(s) > 0) {
            let (at, shape) = self.halo(s, self.depth(s));
            let from = self.mailbox(self.block.index, s);
            from.take(tag, self.tag0, |w| planes.paste(at, shape, w))?;
        }
        Ok(())
    }

    /// Poisons every mailbox this board posts to or takes from, for the
    /// rest of the run.
    fn poison(&self) {
        let end = self.tag0 + self.passes;
        for s in [Side::Up, Side::Down, Side::Left, Side::Right] {
            if self.depth(s) > 0 {
                self.mailbox(self.block.index, s).poison(end);
                self.mailbox(self.neighbour(s), s.opposite()).poison(end);
            }
        }
    }
}

/// The kernel's block, read in place from the lattice: the augmented
/// block with no wrap rows, from column `a0`.
struct Whole<'a, S: State> {
    aug: Augmented<'a, S>,
    a0: usize,
    shape: Shape,
}

impl<S: State> RowSource<S> for Whole<'_, S> {
    fn shape(&self) -> Shape {
        self.shape
    }

    fn fill_row(&self, r: usize, row: &mut [S]) {
        self.aug.copy_row(r, self.a0, row);
    }
}

/// One board's side of a resident run, its owned window written into
/// `owned` at the end. A panic is contained here. A board that stops
/// short poisons its mailboxes, so no neighbour waits on it.
pub(crate) fn board<R: Rule>(
    rule: &R,
    job: &BoardRun<'_, R::S>,
    owned: &mut [&mut [R::S]],
) -> Result<(), Stop> {
    job.started.set(true);
    let ran = catch_unwind(AssertUnwindSafe(|| evolve(rule, job, owned))).unwrap_or_else(|_| {
        Err(Stop::Failed(LatticeError::BoardDown {
            shard: job.phys,
            cause: "worker died before reporting".into(),
        }))
    });
    if ran.is_err() {
        job.poison();
    }
    ran
}

/// A crew helper's side of a resident run: the board's owned window
/// goes into `window`, which travels back with the job.
pub(crate) fn help<'a, R: Rule>(
    rule: &R,
    job: Box<BoardRun<'a, R::S>>,
    window: Vec<R::S>,
) -> Done<'a, R::S> {
    let width = job.block.width;
    let mut window = recycle(window, job.block.rows * width);
    let mut owned: Vec<&mut [R::S]> = window.chunks_exact_mut(width).collect();
    let end = board(rule, &job, &mut owned);
    drop(owned);
    Done::Run(end, window, job)
}

/// A board's run: one read of the lattice, then per pass `k`
/// generations and, but after the last, the two halo hops. The kernel's
/// block is the augmented block without the wrap rows or halo columns
/// of an axis the board spans on the torus: the kernel wraps that axis.
fn evolve<R: Rule>(
    rule: &R,
    job: &BoardRun<'_, R::S>,
    owned: &mut [&mut [R::S]],
) -> Result<(), Stop> {
    let b = &job.block;
    let (height, width, top, left) = job.frame();
    let aug = Augmented::new(&job.lattice, b, 0);
    let shape = Shape::grid2(height, width).map_err(Stop::Failed)?;
    let src = Whole { aug, a0: b.halo_left - left, shape };
    let origin = (b.row0.wrapping_sub(top), b.col0.wrapping_sub(left));
    let mut planes = rule.block_kernel(&src, job.t0, origin).ok_or(Stop::Declined)?;
    if job.wrap != (false, false) && !planes.wrap(job.wrap.0, job.wrap.1) {
        return Err(Stop::Declined);
    }
    let k = lattice_core::units::u64_from_usize(job.k);
    for p in 0..job.passes {
        planes.run(k);
        if p + 1 == job.passes {
            break;
        }
        #[cfg(test)]
        poison_halo(&mut *planes, job.frame(), b);
        let tag = job.tag0 + p;
        job.hop(&mut *planes, [Side::Up, Side::Down], tag)?;
        job.hop(&mut *planes, [Side::Left, Side::Right], tag)?;
    }
    let full = Region2d {
        r0: 0,
        height,
        a0: 0,
        width,
        own_r_lo: 0,
        own_r_hi: b.rows,
        own_lo: 0,
        own_hi: b.width,
        boundary: false,
    };
    planes.unpack(&mut OwnedRows { segs: owned, region: &full, top, left });
    Ok(())
}

/// Overwrites every site of the kernel's block `(height, width, top,
/// left)` outside the owned window — two full-height columns and two
/// owned-width rows, drawn from the frame alone — with every plane bit
/// set, through the kernel's own `copy` and `paste`, so a halo site the
/// hops miss fails the bit-exactness oracles.
#[cfg(test)]
fn poison_halo<S: State>(
    planes: &mut dyn BlockKernel<S>,
    (height, width, top, left): (usize, usize, usize, usize),
    blk: &Block,
) {
    let (right, bottom) = (left + blk.width, top + blk.rows);
    let mut frame = Vec::new();
    for (r0, rows, a0, cols) in [
        (0, height, 0, left),
        (0, height, right, width - right),
        (0, top, left, blk.width),
        (bottom, height - bottom, left, blk.width),
    ] {
        if rows * cols > 0 {
            planes.copy((r0..r0 + rows, a0..a0 + cols), &mut frame);
            frame.fill(u64::MAX);
            planes.paste((r0, a0), (rows, cols), &frame);
        }
    }
}

/// How a resident run ended without a lattice to commit.
pub(crate) enum Unrun {
    /// Some board's rule had no kernel for its block.
    Declined,
    /// A board failed; the first failure in slab order.
    Failed(BoardFailure),
}

/// The geometry of one resident run: `passes` passes of depth `k` from
/// generation `t0` over `blocks`, which tile the board grid `grid`.
pub(crate) struct RunParams<'a> {
    pub(crate) blocks: &'a [Block],
    /// Block index → physical board id.
    pub(crate) phys: &'a [usize],
    pub(crate) grid: (usize, usize),
    pub(crate) periodic: bool,
    pub(crate) k: usize,
    pub(crate) t0: u64,
    pub(crate) passes: u64,
}

/// Runs one resident run from `lattice` on the step's crew: block 0 on
/// this thread, straight into its rows of the next lattice, block `i`
/// on helper `i − 1`, whose owned window is then copied in. Returns the
/// next lattice's sites.
pub(crate) fn run<'env, R: Rule>(
    rule: &R,
    lattice: &Committed<'env, R::S>,
    rp: &RunParams<'_>,
    crew: &mut StepCrew<'_, 'env, R::S>,
) -> Result<Vec<R::S>, Unrun> {
    if crew.links.len() < 4 * rp.blocks.len() {
        crew.links = (0..4 * rp.blocks.len()).map(|_| Mailbox::default()).collect();
    }
    let (tag0, links) = (crew.tags, Arc::clone(&crew.links));
    crew.tags += rp.passes;
    let job = |blk: &Block| BoardRun {
        lattice: lattice.clone(),
        block: *blk,
        grid: rp.grid,
        wrap: (rp.periodic && rp.grid.0 == 1, rp.periodic && rp.grid.1 == 1),
        k: rp.k,
        t0: rp.t0,
        passes: rp.passes,
        tag0,
        phys: rp.phys[blk.index],
        links: Arc::clone(&links),
        started: Cell::new(false),
    };
    let handed: Vec<(&Block, u64)> = rp.blocks[1..]
        .iter()
        .map(|blk| (blk, crew.dispatch(blk.index, |w| Job::Run(Box::new(job(blk)), w))))
        .collect();
    let cols = lattice.shape().cols();
    let mut next = crew.next_lattice(lattice.shape().len());
    let mut ends = Vec::with_capacity(rp.blocks.len());
    if let Some(first) = rp.blocks.first() {
        ends.push(board(rule, &job(first), &mut owned_rows(&mut next, cols, &rp.blocks[..1])[0]));
    }
    let tickets: Vec<u64> = handed.iter().map(|&(_, t)| t).collect();
    for (&(blk, _), answer) in handed.iter().zip(crew.crew.collect(&tickets, None)) {
        ends.push(match answer {
            Answer::Done(Done::Run(end, window, _job)) => {
                if end.is_ok() {
                    paste_window(&mut next, cols, blk, &window, (0..blk.rows, 0..blk.width));
                }
                crew.windows[blk.index - 1] = window;
                end
            }
            _ => Err(Stop::Failed(LatticeError::BoardDown {
                shard: rp.phys[blk.index],
                cause: "worker died before reporting".into(),
            })),
        });
    }
    let (mut failure, mut declined, mut stopped) = (None, false, None);
    for (i, end) in ends.into_iter().enumerate() {
        match end {
            Ok(()) => {}
            Err(Stop::Failed(error)) => {
                failure.get_or_insert(BoardFailure { slab: Some(i), error });
            }
            Err(Stop::Declined) => declined = true,
            Err(Stop::Poisoned) => {
                stopped.get_or_insert(i);
            }
        }
    }
    let unrun = match (failure, stopped) {
        (Some(failure), _) => Unrun::Failed(failure),
        (None, _) if declined => Unrun::Declined,
        // Poison with no failure behind it: blame the first board that
        // stopped.
        (None, Some(i)) => Unrun::Failed(BoardFailure {
            slab: Some(i),
            error: LatticeError::BoardDown {
                shard: rp.phys[i],
                cause: "worker died before reporting".into(),
            },
        }),
        (None, None) => return Ok(next),
    };
    crew.spare = Some(next);
    Err(unrun)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition2d;
    use lattice_core::Grid;

    #[test]
    fn a_job_dropped_unrun_poisons_its_run_and_no_later_one() {
        // Block 0 of a 1×2 null-boundary grid trades with block 1 across
        // its right side. Its job is dropped before any thread takes it
        // up, as when a helper cannot be spawned.
        let lattice = Grid::<u8>::new(Shape::grid2(4, 8).unwrap());
        let blocks = partition2d(4, 8, 1, 2, 1, false).unwrap();
        let links: Arc<[Mailbox]> = (0..8).map(|_| Mailbox::default()).collect();
        drop(BoardRun {
            lattice: Committed::Borrowed(&lattice),
            block: blocks[0],
            grid: (1, 2),
            wrap: (false, false),
            k: 1,
            t0: 0,
            passes: 3,
            tag0: 5,
            phys: 0,
            links: Arc::clone(&links),
            started: Cell::new(false),
        });
        // Block 1 fails instead of waiting for block 0's frame, or to
        // post into block 0's halo.
        let (from_0, into_0) = (&links[4 + Side::Left.index()], &links[Side::Right.index()]);
        assert!(matches!(from_0.take(6, 5, |_| {}), Err(Stop::Poisoned)));
        assert!(matches!(into_0.post(5, 5, Vec::clear), Err(Stop::Poisoned)));
        // The next run's tags start past the poison.
        assert!(into_0.post(8, 8, Vec::clear).is_ok());
        assert!(into_0.take(8, 8, |_| {}).is_ok());
    }
}
