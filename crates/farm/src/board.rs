//! One board's pass, and the crew jobs that carry it: the supervisor
//! computes block 0, and crew helper `i − 1` block `i` (DESIGN.md §19,
//! "The board crew").

use crate::crew::{Answer, Crew};
use crate::exchange::{keep_window, Augmented, ExchangeOutcome, OwnedRows, RegionRows};
use crate::farm::{ShardEngine, WorkerFault, WorkerFaultSpec};
use crate::partition::{Block, Region2d};
use crate::resident::{self, BoardRun, Stop};
use crate::session::save_block;
use lattice_core::units::u64_from_usize;
use lattice_core::{Grid, LatticeError, Rule, Shape, State};
use lattice_engines_sim::{EngineCost, FaultCtx, Pipeline, RunOptions, SpaEngine, SpaRunOptions};
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// `buf` resized to `n` sites, for a writer that overwrites every one
/// of them. In tests the old contents are poisoned first, so the
/// bit-exactness oracles catch any site a pass leaves unwritten.
pub(crate) fn recycle<S: State>(mut buf: Vec<S>, n: usize) -> Vec<S> {
    buf.resize(n, S::default());
    #[cfg(test)]
    buf.fill(S::from_word(u64::MAX));
    buf
}

/// The committed lattice as a job holds it: the caller's own until a
/// session's first pass commits, shared with the board crew after.
pub(crate) enum Committed<'a, S: State> {
    Borrowed(&'a Grid<S>),
    Shared(Arc<Grid<S>>),
}

impl<S: State> Clone for Committed<'_, S> {
    fn clone(&self) -> Self {
        match self {
            Committed::Borrowed(g) => Committed::Borrowed(g),
            Committed::Shared(g) => Committed::Shared(Arc::clone(g)),
        }
    }
}

impl<S: State> Deref for Committed<'_, S> {
    type Target = Grid<S>;

    fn deref(&self) -> &Grid<S> {
        match self {
            Committed::Borrowed(g) => g,
            Committed::Shared(g) => g,
        }
    }
}

impl<S: State> Committed<'_, S> {
    /// The lattice's buffer, if no one else holds it any more.
    pub(crate) fn reclaim(self) -> Option<Vec<S>> {
        match self {
            Committed::Borrowed(_) => None,
            Committed::Shared(g) => Arc::try_unwrap(g).ok().map(Grid::into_vec),
        }
    }

    pub(crate) fn into_grid(self) -> Grid<S> {
        match self {
            Committed::Borrowed(g) => g.clone(),
            Committed::Shared(g) => Arc::try_unwrap(g).unwrap_or_else(|g| Grid::clone(&g)),
        }
    }
}

/// What one board's worker hands back: one engine cost per sweep
/// region, and, when a per-board audit is attached, each region's
/// augmented block before and after.
pub(crate) struct BoardWork<S: State> {
    pub(crate) costs: Vec<EngineCost>,
    pub(crate) audited: Vec<(Grid<S>, Grid<S>)>,
}

impl<S: State> BoardWork<S> {
    /// Room for `regions` regions' results, allocated up front.
    pub(crate) fn with_capacity(regions: usize, audited: bool) -> Self {
        BoardWork {
            costs: Vec::with_capacity(regions),
            audited: Vec::with_capacity(if audited { regions } else { 0 }),
        }
    }
}

/// One board's work order for a pass: the committed lattice, the
/// board's block and a copy of its buffered exchange, so the order can
/// cross to a crew helper.
pub(crate) struct BoardJob<'a, S: State> {
    pub(crate) lattice: Committed<'a, S>,
    pub(crate) block: Block,
    /// On-board vertical wrap rows per side.
    pub(crate) wrap: usize,
    pub(crate) ex: ExchangeOutcome<S>,
    /// Sweep regions in execution order (boundary first); one full
    /// region when overlap is off.
    pub(crate) regions: Vec<Region2d>,
    pub(crate) ctx: Option<FaultCtx<'a>>,
    pub(crate) origin: (usize, usize),
    pub(crate) chip0: usize,
    pub(crate) phys: usize,
    pub(crate) pass: u64,
    pub(crate) attempt: u64,
    pub(crate) k: usize,
    pub(crate) t0: u64,
    /// Whether a per-board audit wants the augmented blocks back.
    pub(crate) audited: bool,
    /// The board's result vectors, allocated by the supervisor with the
    /// rest of the job; see [`Done::Board`].
    pub(crate) work: BoardWork<S>,
}

/// What a crew helper is handed: one board's pass or resident run,
/// with the buffer it writes the board's owned window into, or one
/// slab's checkpoint encode at a barrier.
pub(crate) enum Job<'a, S: State> {
    Board(Box<BoardJob<'a, S>>, Vec<S>),
    Run(Box<BoardRun<'a, S>>, Vec<S>),
    Save(Committed<'a, S>, Block, u64),
}

/// A helper's answer: the board's work (or how its run ended) and its
/// filled window buffer, or the slab's encoded blob.
///
/// A board's answer also hands its job back, so the supervisor frees
/// the small allocations it made for it (the box, the regions, the
/// frame copies, the result vectors), and the helper frees only what it
/// allocated itself. The allocator caches small freed blocks per
/// thread, whichever thread allocated them: a helper freeing the
/// supervisor's blocks would hand them to its own engine's per-tick
/// state, in cache lines the supervisor's engine writes on the other
/// core. On farm-fine that false sharing cost about a fifth of the
/// throughput (DESIGN.md §19, "The board crew").
pub(crate) enum Done<'a, S: State> {
    Board(Result<BoardWork<S>, LatticeError>, Vec<S>, Box<BoardJob<'a, S>>),
    Run(Result<(), Stop>, Vec<S>, Box<BoardRun<'a, S>>),
    Save(Result<Vec<u8>, LatticeError>),
}

/// What every helper of a step runs on the jobs it is handed.
pub(crate) type Work<'a, S> = dyn Fn(Job<'a, S>) -> Option<Done<'a, S>> + Sync + 'a;

/// The board crew of one [`FarmSession::step`], with the buffers its
/// passes recycle. The supervisor runs block 0 of every pass and the
/// first slab of every barrier itself; helper `h` takes block `h + 1`.
pub(crate) struct StepCrew<'scope, 'env, S: State> {
    pub(crate) crew: Crew<'scope, 'env, Work<'env, S>, Job<'env, S>, Done<'env, S>>,
    /// Helper `h`'s window buffer while it is not out on a job.
    pub(crate) windows: Vec<Vec<S>>,
    /// A lattice buffer nothing reads any more: the one the last commit
    /// or rewind replaced, reused as the next pass's lattice.
    pub(crate) spare: Option<Vec<S>>,
    /// The resident runs' mailboxes, four per block, kept for the step.
    pub(crate) links: Arc<[resident::Mailbox]>,
    /// The next resident run's first mailbox tag: tags never repeat
    /// within a step.
    pub(crate) tags: u64,
    /// Whether a resident run may still be tried: a rule with no kernel
    /// for some block sends the rest of the step down the per-pass path.
    pub(crate) resident: bool,
}

impl<'env, S: State> StepCrew<'_, 'env, S> {
    /// The next pass's lattice buffer: the spare when there is one.
    pub(crate) fn next_lattice(&mut self, n: usize) -> Vec<S> {
        recycle(self.spare.take().unwrap_or_default(), n)
    }

    /// Hands block `i ≥ 1`'s job, built around the helper's window
    /// buffer, to its helper; returns the ticket.
    pub(crate) fn dispatch(&mut self, i: usize, job: impl FnOnce(Vec<S>) -> Job<'env, S>) -> u64 {
        let h = i - 1;
        if self.windows.len() <= h {
            self.windows.resize_with(h + 1, Vec::new);
        }
        let window = std::mem::take(&mut self.windows[h]);
        self.crew.dispatch(h, job(window))
    }

    /// Every block's [`save_block`] of `lattice`, slab `i ≥ 1` encoded by
    /// helper `i − 1` while the supervisor encodes slab 0.
    pub(crate) fn save(
        &mut self,
        lattice: &Committed<'env, S>,
        blocks: &[Block],
        t: u64,
    ) -> Result<Vec<Vec<u8>>, LatticeError> {
        let tickets: Vec<u64> = (1..blocks.len())
            .map(|i| self.crew.dispatch(i - 1, Job::Save(lattice.clone(), blocks[i], t)))
            .collect();
        let first = blocks.first().map(|blk| save_block(lattice, blk, t));
        let rest = self.crew.collect(&tickets, None);
        first
            .into_iter()
            .chain(rest.into_iter().map(|answer| match answer {
                Answer::Done(Done::Save(blob)) => blob,
                _ => Err(LatticeError::Corrupted {
                    site: "farm".into(),
                    detail: "a farm thread panicked".into(),
                }),
            }))
            .collect()
    }
}

/// One board's pass: each sweep region read from the committed lattice
/// with the board's received frames laid over it, evolved `k`
/// generations, and its owned window written into `owned`, the board's
/// rows of the next lattice. A WSA board whose chips no fault can reach
/// runs the rule's block kernel ([`Rule::block_kernel`]), built from the
/// region's rows. Every other board — SPA, chips a fault can reach,
/// rules or blocks without a kernel — and every audited board builds
/// each region's augmented block, runs it, and copies the owned window
/// out; an audited board hands those blocks back for the audit.
pub(crate) fn run_board<R: Rule>(
    rule: &R,
    engine: ShardEngine,
    job: &BoardJob<'_, R::S>,
    owned: &mut [&mut [R::S]],
    mut work: BoardWork<R::S>,
) -> Result<BoardWork<R::S>, LatticeError> {
    let (k, t0, audited) = (job.k, job.t0, job.audited);
    let aug = Augmented::new(&job.lattice, &job.block, job.wrap);
    let chips: Vec<usize> = (job.chip0..job.chip0 + k).collect();
    // A board whose chips no fault can reach takes the rule's block
    // kernel when it has one for the block; the counts are the cycle
    // engine's.
    let kernel = match engine {
        ShardEngine::Wsa { width } if job.ctx.is_none_or(|c| c.plan.spares(&chips)) => {
            Some(Pipeline::wide(width, k))
        }
        _ => None,
    };
    for region in &job.regions {
        let src = RegionRows {
            aug,
            ex: &job.ex,
            region,
            shape: Shape::grid2(region.height, region.width)?,
        };
        let mut sink = OwnedRows { segs: owned, region, top: aug.top(), left: job.block.halo_left };
        let origin = (job.origin.0.wrapping_add(region.r0), job.origin.1.wrapping_add(region.a0));
        let cost = kernel.filter(|_| !audited).and_then(|p| p.kernel_cost::<R::S>(src.shape));
        let planes = cost.and_then(|_| rule.block_kernel(&src, t0, origin));
        if let (Some(cost), Some(mut planes)) = (cost, planes) {
            planes.run(u64_from_usize(k));
            planes.unpack(&mut sink);
            work.costs.push(cost);
            continue;
        }
        let before = Grid::from_rows(&src);
        let fast = kernel.filter(|_| audited).and_then(|pipe| {
            let mut after = Grid::new(src.shape);
            pipe.run_kernel(rule, &before, &mut after, t0, origin).map(|cost| cost.with_grid(after))
        });
        let report = match (fast, engine) {
            (Some(report), _) => report,
            (None, ShardEngine::Wsa { width }) => {
                let opts = RunOptions {
                    origin,
                    faults: job.ctx,
                    chip_ids: Some(&chips),
                    offchip_from: None,
                };
                Pipeline::wide(width, k).run_opts(rule, &before, t0, opts)?
            }
            (None, ShardEngine::Spa { slice_width }) => {
                let opts = SpaRunOptions { origin, faults: job.ctx, chip_offset: job.chip0 };
                SpaEngine::new(slice_width, k).run_opts(rule, &before, t0, opts)?
            }
        };
        keep_window(&report.grid, &mut sink);
        work.costs.push(report.cost());
        if audited {
            work.audited.push((before, report.grid));
        }
    }
    Ok(work)
}

/// One board's pass as its worker runs it, injected misbehavior
/// included: `None` when the worker dies before reporting, by an
/// injected [`WorkerFault::Die`] or a panic, which is contained here.
pub(crate) fn work_board<R: Rule>(
    rule: &R,
    engine: ShardEngine,
    fault: Option<WorkerFaultSpec>,
    job: &mut BoardJob<'_, R::S>,
    owned: &mut [&mut [R::S]],
) -> Option<Result<BoardWork<R::S>, LatticeError>> {
    let work = std::mem::replace(&mut job.work, BoardWork::with_capacity(0, false));
    let due = fault.filter(|f| (f.board, f.pass, f.attempt) == (job.phys, job.pass, job.attempt));
    catch_unwind(AssertUnwindSafe(|| {
        match due.map(|f| f.fault) {
            Some(WorkerFault::Hang { millis }) => {
                // Fault *injection*, not lattice state: a hang stalls the
                // worker but the recovery outcome is decided by the
                // watchdog, not by how long this sleeps.
                // lattice-lint: allow(determinism)
                std::thread::sleep(Duration::from_millis(millis))
            }
            Some(WorkerFault::Die) => return None,
            None => {}
        }
        Some(run_board(rule, engine, job, owned, work))
    }))
    .ok()
    .flatten()
}

/// A crew helper's side of a [`Job`]. A board's job goes back with the
/// answer (see [`Done::Board`]).
pub(crate) fn help<'a, R: Rule>(
    rule: &R,
    engine: ShardEngine,
    fault: Option<WorkerFaultSpec>,
    job: Job<'a, R::S>,
) -> Option<Done<'a, R::S>> {
    match job {
        Job::Board(mut job, window) => {
            let width = job.block.width;
            let mut window = recycle(window, job.block.rows * width);
            let mut owned: Vec<&mut [R::S]> = window.chunks_exact_mut(width).collect();
            let work = work_board(rule, engine, fault, &mut job, &mut owned)?;
            drop(owned);
            Some(Done::Board(work, window, job))
        }
        Job::Run(job, window) => Some(resident::help(rule, job, window)),
        Job::Save(lattice, block, t) => Some(Done::Save(save_block(&lattice, &block, t))),
    }
}
