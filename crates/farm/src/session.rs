//! The session: the farm's one pass loop, its checkpoint barriers, and
//! the recovery ladder's cross-pass state. [`Readers`] names who reads
//! the lattice between passes.

use crate::board::{help, Committed, StepCrew, Work};
use crate::crew::Crew;
use crate::exchange::{Augmented, StagedHalo};
use crate::farm::{FarmFtRun, FarmRecoveryConfig, FarmReport, LatticeFarm, ShardEngine};
use crate::ladder::{self, Action, BoardFailure, Budgets};
use crate::link::HaloWindow;
use crate::partition::{partition2d_checked, Block};
use crate::pass::{MachineAudit, PassCache, PassOutcome, ShardAudit, Totals};
use crate::resident::{self, RunParams, Unrun};
use lattice_core::checkpoint::store::{reassemble, ShardBlob, Snapshot, SnapshotSink};
use lattice_core::units::{u64_from_usize, usize_from_u64, Ticks};
use lattice_core::{checkpoint, Grid, LatticeError, Rule, Shape, State};
use lattice_engines_sim::{FaultPlan, FaultStats, Pipeline, RecoveryStats};
use std::sync::Arc;

/// The `rows × width` rectangle of `grid` whose top-left site is
/// `(r0, c0)`, copied row by row.
pub(crate) fn crop<S: State>(
    grid: &Grid<S>,
    (r0, c0): (usize, usize),
    (rows, width): (usize, usize),
) -> Result<Grid<S>, LatticeError> {
    let cols = grid.shape().cols();
    let mut data = Vec::with_capacity(rows * width);
    for row in grid.as_slice().chunks_exact(cols).skip(r0).take(rows) {
        data.extend_from_slice(&row[c0..c0 + width]);
    }
    Grid::from_vec(Shape::grid2(rows, width)?, data)
}

/// One block's slab of `grid` at generation `t`, through the
/// checkpoint codec.
pub(crate) fn save_block<S: State>(
    grid: &Grid<S>,
    blk: &Block,
    t: u64,
) -> Result<Vec<u8>, LatticeError> {
    let sg = crop(grid, (blk.row0, blk.col0), (blk.rows, blk.width))?;
    Ok(checkpoint::save(&sg, Ticks::new(t)))
}

/// How a [`FarmSession`] holds its fault plan: borrowed from the
/// caller (the one-shot entry points), owned by the session
/// ([`LatticeFarm::session_owned`]), or absent.
#[derive(Clone)]
pub(crate) enum PlanRef<'p> {
    None,
    Borrowed(&'p FaultPlan),
    Owned(Arc<FaultPlan>),
}

impl PlanRef<'_> {
    fn get(&self) -> Option<&FaultPlan> {
        match self {
            PlanRef::None => None,
            PlanRef::Borrowed(p) => Some(p),
            PlanRef::Owned(p) => Some(p),
        }
    }
}

/// Who reads the lattice a pass commits, for one step: the farm's one
/// list of those readers. A pass whose lattice none of them reads need
/// not build it, so the boards keep their planes across it (a resident
/// run, DESIGN.md §19). A reader that learns to read planes deletes its
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Readers {
    /// An audit: the machine-wide or per-board audit reads every pass.
    audit: bool,
    /// A fault plan, an injected worker fault or a watchdog: each can
    /// fail a board mid-step, and the ladder then replays that board
    /// from the lattice its pass started from.
    replay: bool,
    /// Overlap's ship-ahead, which reads each pass's lattice for the
    /// next pass's halo frames.
    ship_ahead: bool,
    /// SPA boards, whose cycle engines read whole blocks.
    spa: bool,
    /// A local replay budget with no restoring level behind it: a
    /// resident run cannot replay one board alone, so a failure in it
    /// would go unanswered where a pass would replay.
    unbacked_local: bool,
    /// An encoding barrier: when barriers encode (a sink, or a level
    /// that restores them), the one that closes each window of this
    /// many passes reads the window's last pass.
    barrier: Option<u64>,
    /// The step's end: its last pass is read by the caller, and the
    /// last full-depth pass before a shallower one by that pass, whose
    /// blocks differ.
    t_end: u64,
}

impl Readers {
    pub(crate) fn new(
        farm: &LatticeFarm,
        cfg: &FarmRecoveryConfig,
        audited: bool,
        plan: bool,
        sink: bool,
        t_end: u64,
    ) -> Self {
        Readers {
            audit: audited,
            replay: plan || farm.worker_fault.is_some() || cfg.watchdog.is_some(),
            ship_ahead: farm.overlap,
            spa: matches!(farm.engine, ShardEngine::Spa { .. }),
            unbacked_local: cfg.local_retries > 0 && !cfg.restores(),
            barrier: (sink || cfg.restores()).then_some(cfg.checkpoint_every),
            t_end,
        }
    }

    /// How many `k`-deep passes from generation `t`, `since` passes into
    /// the checkpoint window, one resident run takes: every pass up to
    /// the first whose lattice is read, which builds it. Zero when that
    /// is the first pass.
    pub(crate) fn run(&self, t: u64, since: u64, k: usize) -> u64 {
        let every_pass =
            self.audit || self.replay || self.ship_ahead || self.spa || self.unbacked_local;
        let last = (self.t_end - t) / u64_from_usize(k);
        let read = self.barrier.map_or(last, |window| last.min(window.saturating_sub(since)));
        if every_pass || read < 2 {
            return 0;
        }
        read
    }
}

/// A re-entrant farm run: the recovery ladder's entire cross-pass state
/// — lattice, checkpoint barrier, retry budgets, fault-stream and
/// attempt epochs, overlap windows, accounting — held between
/// [`FarmSession::step`] calls, so a caller (the `lattice-serve`
/// daemon's worker pool, most importantly) can interleave many runs by
/// advancing each a bounded number of generations at a time.
///
/// Bit-exactness contract: any chunking of `generations` into `step`
/// calls produces the same lattice as one [`LatticeFarm::run_with_recovery`]
/// call. Only the overlap *accounting* can differ: ship-ahead staging
/// never crosses a `step` boundary, so a chunk seam behaves like pass
/// 0's cold start — the first pass of the next chunk exchanges at the
/// barrier, serialized, and earns no `overlapped_ticks` credit.
///
/// Checkpoint barriers (opening, periodic, post-re-partition) are
/// encoded only when something can read them: a sink attached to the
/// call, or a global retry or degrade budget that restores them. The
/// window still closes every `checkpoint_every` passes either way,
/// re-arming the retry budgets. An explicit [`FarmSession::checkpoint`]
/// always encodes one.
///
/// A `step` that returns an error has exhausted the recovery ladder
/// mid-pass; the session's lattice is the last committed state (a
/// resident run commits only at its end, so a run that failed leaves
/// the lattice it started from), but its retry budgets are spent — the
/// session should be checkpointed (to salvage the state) or discarded,
/// not stepped again.
pub struct FarmSession<'p, S: State> {
    pub(crate) farm: LatticeFarm,
    pub(crate) cfg: FarmRecoveryConfig,
    plan: PlanRef<'p>,
    fault_base: FaultStats,
    shape: Shape,
    pub(crate) stride: usize,
    /// Slab index → physical board id (identity until boards retire).
    pub(crate) phys: Vec<usize>,
    /// Block geometry of the current checkpoint barrier.
    ckpt_slabs: Vec<Block>,
    totals: Totals,
    pub(crate) recovery: RecoveryStats,
    /// Per-board link fault-stream positions on the intra- and
    /// inter-rack wires (absolute wire positions, so chunking cannot
    /// change which bits the weather flips).
    pub(crate) halo_pos: Vec<[u64; 2]>,
    pub(crate) windows: Vec<StagedHalo<S>>,
    pub(crate) credit: Ticks,
    /// Per physical board attempt epochs.
    pub(crate) attempts: Vec<u64>,
    local_left: Vec<u32>,
    retries_left: u32,
    retired_left: usize,
    /// The last committed lattice: the caller's own until the first
    /// pass commits when the session borrows it.
    pub(crate) current: Committed<'p, S>,
    pub(crate) t_now: u64,
    /// Committed passes (re-commits after a rollback included), which
    /// is also the logical pass number (fault-epoch key) of the next.
    pub(crate) passes: u64,
    passes_since_ckpt: u64,
    /// The in-memory checkpoint barrier (one codec blob per slab);
    /// empty until a barrier is encoded.
    ckpt: Snapshot,
}

impl<'p, S: State> FarmSession<'p, S> {
    /// The current generation (absolute — resuming FHP needs it).
    pub fn time(&self) -> u64 {
        self.t_now
    }

    /// Committed passes so far (re-commits after a rollback included).
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The last committed lattice: after a failed step, the one the
    /// failed pass or resident run started from.
    pub fn grid(&self) -> &Grid<S> {
        &self.current
    }

    /// Recovery actions taken so far.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// A mid-run snapshot of the machine report: the accounting of
    /// every committed pass so far, with the current lattice. The
    /// session keeps running — this is what the daemon's `stats`
    /// endpoint serves between steps.
    pub fn report(&self) -> FarmReport<S> {
        let faults = self.plan.get().map(|p| p.stats().since(self.fault_base)).unwrap_or_default();
        let (grid, shards) = (Grid::clone(&self.current), self.farm.shards());
        self.totals.clone().finish(grid, self.passes, shards, faults)
    }

    /// Takes a fresh checkpoint barrier *now* (pushed to `sink` when one
    /// is attached) and re-arms the retry budgets, exactly like the
    /// periodic barrier inside a run. This is the daemon's durable
    /// commit after a step, and its eviction write: a session restored
    /// from the sink's newest snapshot (via `reassemble` + a new
    /// session at the recorded generation) is bit-exact.
    pub fn checkpoint(
        &mut self,
        mut sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<(), LatticeError> {
        self.barrier(&mut sink, true, None)
    }

    /// Closes the checkpoint window: re-arms the retry budgets and, when
    /// `force`d or something can read the barrier (see [`FarmSession`]),
    /// encodes every block, on the step's `crew` within a step, and
    /// pushes the blobs to the sink as one shard-consistent snapshot.
    fn barrier<'env>(
        &mut self,
        sink: &mut Option<&mut (dyn SnapshotSink + '_)>,
        force: bool,
        crew: Option<&mut StepCrew<'_, 'env, S>>,
    ) -> Result<(), LatticeError>
    where
        'p: 'env,
    {
        if force || sink.is_some() || self.cfg.restores() {
            let (slabs, time) = (&self.ckpt_slabs, Ticks::new(self.t_now));
            let blobs = match crew {
                Some(crew) => crew.save(&self.current, slabs, self.t_now),
                None => {
                    slabs.iter().map(|blk| save_block(&self.current, blk, self.t_now)).collect()
                }
            }?;
            self.recovery.checkpoints += u64_from_usize(blobs.len());
            self.recovery.checkpoint_bytes +=
                blobs.iter().map(|b| u64_from_usize(b.len())).sum::<u64>();
            let shards: Vec<ShardBlob> = (blobs.into_iter().zip(slabs))
                .map(|(blob, blk)| ShardBlob {
                    col0: u64_from_usize(blk.col0),
                    row0: u64_from_usize(blk.row0),
                    blob,
                })
                .collect();
            if let Some(s) = sink.as_deref_mut() {
                s.persist(time, &shards)?;
            }
            self.ckpt = Snapshot { seq: 0, time, shards };
        }
        self.passes_since_ckpt = 0;
        self.retries_left = self.cfg.max_retries;
        self.local_left.fill(self.cfg.local_retries);
        Ok(())
    }

    /// Advances the run `n` generations through the recovery ladder.
    ///
    /// Passes whose lattice nothing reads (the crate's `Readers` names
    /// who does) go to each board as one resident run: the boards keep
    /// their planes across them, and the lattice is built only where
    /// something reads it (DESIGN.md §19, "Resident runs").
    pub fn step<R: Rule<S = S>>(&mut self, rule: &R, n: u64) -> Result<(), LatticeError> {
        self.step_inner(rule, n, None, None, None)
    }

    /// [`FarmSession::step`] with the machine-wide and per-board audits
    /// of [`LatticeFarm::run_with_recovery_audited`], and an optional
    /// durable `sink` receiving every checkpoint barrier the chunk
    /// crosses. A rollback may legally rewind behind the chunk's start
    /// (the barrier is wherever `checkpoint_every` last put it); the
    /// chunk still ends at the same absolute generation.
    pub fn step_audited<R: Rule<S = S>>(
        &mut self,
        rule: &R,
        n: u64,
        mut audit: impl FnMut(&Grid<S>, &Grid<S>) -> Result<(), LatticeError>,
        shard_audit: Option<&mut ShardAudit<'_, S>>,
        sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<(), LatticeError> {
        self.step_inner(rule, n, Some(&mut audit), shard_audit, sink)
    }

    /// The one step both entry points take, the machine audit an
    /// `Option` so a step can say it has none.
    ///
    /// The step's board crew lives exactly as long as this call: one
    /// helper thread per board past the first, spawned by its first job
    /// and joined before the call returns (DESIGN.md §19, "The board crew").
    fn step_inner<R: Rule<S = S>>(
        &mut self,
        rule: &R,
        n: u64,
        audit: Option<&mut MachineAudit<'_, S>>,
        shard_audit: Option<&mut ShardAudit<'_, S>>,
        mut sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<(), LatticeError> {
        if n == 0 {
            return Ok(());
        }
        let plan = self.plan.clone();
        let plan = plan.get();
        let (engine, fault) = (self.farm.engine, self.farm.worker_fault);
        let work: &Work<'_, S> = &move |job| help(rule, engine, fault, job);
        std::thread::scope(|scope| {
            let mut crew = StepCrew {
                crew: Crew::new(scope, work),
                windows: Vec::new(),
                spare: None,
                links: Arc::new([]),
                tags: 0,
                resident: true,
            };
            self.run_passes(rule, self.t_now + n, plan, &mut crew, audit, shard_audit, &mut sink)
        })
    }

    /// The pass loop of one step, on the step's crew.
    #[allow(clippy::too_many_arguments)]
    fn run_passes<'env, R: Rule<S = S>>(
        &mut self,
        rule: &R,
        t_end: u64,
        plan: Option<&'env FaultPlan>,
        crew: &mut StepCrew<'_, 'env, S>,
        mut audit: Option<&mut MachineAudit<'_, S>>,
        mut shard_audit: Option<&mut ShardAudit<'_, S>>,
        sink: &mut Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<(), LatticeError>
    where
        'p: 'env,
    {
        let audited = audit.is_some() || shard_audit.is_some();
        let readers =
            Readers::new(&self.farm, &self.cfg, audited, plan.is_some(), sink.is_some(), t_end);
        'run: while self.t_now < t_end {
            if self.passes_since_ckpt >= self.cfg.checkpoint_every {
                self.barrier(sink, false, Some(crew))?;
            }
            let k = self.farm.depth.min(usize_from_u64(t_end - self.t_now));
            let blocks =
                self.farm.blocks_at(self.shape.rows(), self.shape.cols(), self.phys.len(), k)?;
            let run = readers.run(self.t_now, self.passes_since_ckpt, k);
            if run > 0 && crew.resident {
                match self.run_resident(rule, k, run, &blocks, crew, sink)? {
                    None => continue 'run,
                    Some(Unrun::Declined) => crew.resident = false,
                    Some(Unrun::Failed(fail)) => {
                        self.escalate(fail, false, crew, sink)?;
                        continue 'run;
                    }
                }
            }
            let mut cache = PassCache::new(blocks.len(), crew.next_lattice(self.shape.len()));
            loop {
                let res = self
                    .attempt_pass(
                        rule,
                        k,
                        t_end,
                        &blocks,
                        plan,
                        &mut cache,
                        shard_audit.as_deref_mut(),
                        crew,
                    )
                    .and_then(|(grid, out)| {
                        match audit.as_deref_mut().map(|a| a(&self.current, &grid)) {
                            Some(Err(e)) => Err(BoardFailure { slab: None, error: e }),
                            _ => Ok((grid, out)),
                        }
                    });
                match res {
                    Ok((grid, out)) => {
                        self.totals.absorb(&out, u64_from_usize(k), &self.phys)?;
                        self.credit = out.interior_ticks;
                        self.commit(grid, k, crew);
                        continue 'run;
                    }
                    Err(fail) => match self.escalate(fail, true, crew, sink)? {
                        Action::Replay(_) => continue,
                        _ => continue 'run,
                    },
                }
            }
        }
        Ok(())
    }

    /// Commits `grid` as the lattice one `k`-deep pass further on.
    fn commit<'env>(&mut self, grid: Grid<S>, k: usize, crew: &mut StepCrew<'_, 'env, S>)
    where
        'p: 'env,
    {
        let next = Committed::Shared(Arc::new(grid));
        crew.spare = std::mem::replace(&mut self.current, next).reclaim();
        self.t_now += u64_from_usize(k);
        self.passes += 1;
        self.passes_since_ckpt += 1;
    }

    /// Runs the `n` passes of depth `k` from the current generation as
    /// one resident run and commits it: the bill of every pass, from
    /// geometry, absorbed in pass order, and the lattice once. `None`
    /// when it committed; nothing is committed when it did not. The
    /// bill is drawn up first, so a run whose ticks overflow is refused
    /// before it runs.
    fn run_resident<'env, R: Rule<S = S>>(
        &mut self,
        rule: &R,
        k: usize,
        n: u64,
        blocks: &[Block],
        crew: &mut StepCrew<'_, 'env, S>,
        sink: &mut Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<Option<Unrun>, LatticeError>
    where
        'p: 'env,
    {
        let ShardEngine::Wsa { width } = self.farm.engine else { return Ok(Some(Unrun::Declined)) };
        let grid = self.farm.grid_at(blocks.len());
        let wrap = self.farm.wrap_at(grid.0, k);
        let mut totals = self.totals.clone();
        let mut pos = self.halo_pos.clone();
        // Every pass of the run has the same blocks and depth, and none
        // is staged, so every pass bills the same; each still moves the
        // links' stream positions.
        let mut bill: Option<PassOutcome> = None;
        for _ in 0..n {
            let mut boards = Vec::with_capacity(blocks.len());
            for block in blocks {
                let (aug, b) = (Augmented::new(&self.current, block, wrap), self.phys[block.index]);
                let ex = self.farm.exchange_board(
                    aug,
                    b,
                    None,
                    self.stride,
                    &mut pos[b],
                    self.cfg.arq_retries,
                    &mut self.recovery,
                    false,
                )?;
                let shape = Shape::grid2(block.aug_height(wrap), block.aug_width())?;
                let Some(cost) = Pipeline::wide(width, k).kernel_cost::<S>(shape) else {
                    return Ok(Some(Unrun::Declined));
                };
                boards.push((block, ex, vec![cost]));
            }
            let out = bill.get_or_insert_with(|| {
                let boards = boards.iter().map(|(b, ex, c)| (*b, ex, c.clone())).collect();
                self.farm.settle(boards, k, wrap, self.credit)
            });
            totals.absorb(out, u64_from_usize(k), &self.phys)?;
        }
        let periodic = self.farm.periodic;
        let rp =
            RunParams { blocks, phys: &self.phys, grid, periodic, k, t0: self.t_now, passes: n };
        let next = match resident::run(rule, &self.current, &rp, crew) {
            Ok(next) => Grid::from_vec(self.shape, next)?,
            Err(unrun) => return Ok(Some(unrun)),
        };
        (self.totals, self.halo_pos) = (totals, pos);
        self.credit = bill.map_or(Ticks::ZERO, |out| out.interior_ticks);
        for _ in 1..n {
            self.t_now += u64_from_usize(k);
            self.passes += 1;
            self.passes_since_ckpt += 1;
            // A barrier that falls due inside the run does not encode
            // (`Readers`): it only closes the window.
            if self.passes_since_ckpt >= self.cfg.checkpoint_every {
                self.barrier(sink, false, Some(crew))?;
            }
        }
        self.commit(next, k, crew);
        Ok(None)
    }

    /// Answers a failed pass attempt or resident run with the action
    /// [`ladder::climb`] picks, and applies it: `Ok` once the failed
    /// board is set to replay alone, or every board has reloaded the
    /// barrier; the failure's error when no level is left. A resident
    /// run is not `replayable`: it committed nothing a board could
    /// replay from.
    fn escalate<'env>(
        &mut self,
        fail: BoardFailure,
        replayable: bool,
        crew: &mut StepCrew<'_, 'env, S>,
        sink: &mut Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<Action, LatticeError>
    where
        'p: 'env,
    {
        // Any failure voids the overlap window: staged frames carry a
        // pre-rollback attempt epoch and a possibly pre-rollback
        // lattice, so the retry re-exchanges at the barrier, serialized,
        // and earns no overlap credit.
        for w in self.windows.iter_mut() {
            w.invalidate();
        }
        self.credit = Ticks::ZERO;
        let board = fail.slab.map(|i| self.phys[i]);
        let left = Budgets {
            local: board.map_or(0, |b| self.local_left[b]),
            retries: self.retries_left,
            retired: self.retired_left,
            boards: self.phys.len(),
        };
        let (action, left) = ladder::climb(fail.slab, replayable, left);
        ladder::book(action, &mut self.recovery, board.map(|b| &mut self.totals.per_shard[b]));
        if let Some(b) = board {
            self.local_left[b] = left.local;
        }
        (self.retries_left, self.retired_left) = (left.retries, left.retired);
        match action {
            // The cache keeps every other board's clean work.
            Action::Replay(i) => self.attempts[self.phys[i]] += 1,
            Action::Rewind => crew.spare = self.rewind()?,
            Action::Retire(i) => {
                self.phys.remove(i);
                crew.spare = self.rewind()?;
                let (rows, cols, farm) = (self.shape.rows(), self.shape.cols(), &self.farm);
                self.ckpt_slabs = farm.blocks_at(rows, cols, self.phys.len(), farm.depth)?;
                self.totals.regeom(&self.ckpt_slabs, &self.phys);
                self.barrier(sink, false, Some(crew))?;
            }
            Action::GiveUp => return Err(fail.error),
        }
        Ok(action)
    }

    /// Rewinds every board to the in-memory barrier (ladder levels 3
    /// and 4) and re-seeds every board's attempt epoch; returns the
    /// discarded lattice's buffer when nothing else holds it.
    fn rewind(&mut self) -> Result<Option<Vec<S>>, LatticeError> {
        let (g, t) = reassemble::<S>(&self.ckpt)?;
        if g.shape() != self.shape {
            return Err(LatticeError::Corrupted {
                site: "farm checkpoint barrier".into(),
                detail: "the barrier's blocks do not tile the lattice".into(),
            });
        }
        let discarded = std::mem::replace(&mut self.current, Committed::Shared(Arc::new(g)));
        self.t_now = t.get();
        self.passes_since_ckpt = 0;
        for a in self.attempts.iter_mut() {
            *a += 1;
        }
        Ok(discarded.reclaim())
    }

    /// Closes the session: the final machine report and recovery tally,
    /// identical to what the one-shot entry points return.
    pub fn finish(self) -> FarmFtRun<S> {
        let faults = self.plan.get().map(|p| p.stats().since(self.fault_base)).unwrap_or_default();
        let (grid, shards) = (self.current.into_grid(), self.farm.shards());
        FarmFtRun {
            report: self.totals.finish(grid, self.passes, shards, faults),
            recovery: self.recovery,
        }
    }
}

impl LatticeFarm {
    pub(crate) fn session_inner<'p, S: State>(
        &self,
        grid: Committed<'p, S>,
        t0: u64,
        plan: PlanRef<'p>,
        cfg: &FarmRecoveryConfig,
        mut sink: Option<&mut (dyn SnapshotSink + '_)>,
    ) -> Result<FarmSession<'p, S>, LatticeError> {
        self.validate(&grid)?;
        if cfg.checkpoint_every == 0 {
            return Err(LatticeError::InvalidConfig("checkpoint interval must be ≥ 1".into()));
        }
        let (shards, shape) = (self.shards(), grid.shape());
        let (rows, cols) = (shape.rows(), shape.cols());
        let max_retired = cfg.degrade.map_or(0, |d| d.max_retired);
        let stride = self.chip_stride(rows, cols, max_retired)?;
        if max_retired > 0 && self.grid.0 > 1 {
            return Err(LatticeError::InvalidConfig(
                "degraded re-partitioning is columnar: a degrade budget needs a \
                 single-row board grid"
                    .into(),
            ));
        }
        let fault_base = plan.get().map(|p| p.stats()).unwrap_or_default();
        let (gr, gc) = self.grid;
        let ckpt_slabs = partition2d_checked(rows, cols, gr, gc, self.depth, self.periodic)?;
        let mut session = FarmSession {
            farm: *self,
            cfg: *cfg,
            plan,
            fault_base,
            shape,
            stride,
            phys: (0..shards).collect(),
            totals: Totals::new(&ckpt_slabs),
            ckpt_slabs,
            recovery: RecoveryStats::default(),
            halo_pos: vec![[0u64; 2]; shards],
            windows: (0..shards).map(|_| HaloWindow::new()).collect(),
            credit: Ticks::ZERO,
            attempts: vec![0u64; shards],
            local_left: vec![cfg.local_retries; shards],
            retries_left: cfg.max_retries,
            retired_left: max_retired,
            current: grid,
            t_now: t0,
            passes: 0,
            passes_since_ckpt: 0,
            ckpt: Snapshot { seq: 0, time: Ticks::ZERO, shards: Vec::new() },
        };
        session.barrier(&mut sink, false, None)?;
        Ok(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::{WorkerFault, WorkerFaultSpec};
    use std::time::Duration;

    #[test]
    fn a_barrier_that_does_not_tile_the_lattice_is_rejected() {
        let g = lattice_gas::init::random_hpp(Shape::grid2(6, 10).unwrap(), 0.4, 2).unwrap();
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 1);
        let cfg = FarmRecoveryConfig::default();
        let mut session = farm.session_owned(&g, 4, None, &cfg, None).unwrap();
        session.rewind().unwrap();
        assert_eq!((session.time(), session.grid()), (4, &g), "the opening barrier");
        // A self-consistent blob for a block one column too narrow: the
        // blocks still tile a rectangle, one column short of the lattice.
        let narrow = Grid::<u8>::new(Shape::grid2(6, 4).unwrap());
        session.ckpt.shards[1].blob = checkpoint::save(&narrow, Ticks::new(4));
        assert!(matches!(session.rewind(), Err(LatticeError::Corrupted { .. })));
    }

    #[test]
    fn a_resident_run_stops_at_the_pass_its_first_reader_reads() {
        // Two boards at k = 2 over 16 generations: eight passes.
        let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
        let none = FarmRecoveryConfig::NONE;
        let run = |farm: &LatticeFarm, cfg: &FarmRecoveryConfig, readers: (bool, bool, bool)| {
            let (audited, plan, sink) = readers;
            Readers::new(farm, cfg, audited, plan, sink, 16).run(0, 0, 2)
        };
        let quiet = (false, false, false);
        assert_eq!(run(&farm, &none, quiet), 8, "no reader: the whole step");
        // Each reader alone.
        let die = WorkerFaultSpec { board: 1, pass: 0, attempt: 0, fault: WorkerFault::Die };
        let watchdog = FarmRecoveryConfig { watchdog: Some(Duration::from_millis(1)), ..none };
        let unbacked = FarmRecoveryConfig { local_retries: 1, ..none };
        let spa = LatticeFarm::new(2, ShardEngine::Spa { slice_width: 1 }, 2);
        let every_pass = [
            ("audit", run(&farm, &none, (true, false, false))),
            ("fault plan", run(&farm, &none, (false, true, false))),
            ("worker fault", run(&farm.with_worker_fault(die), &none, quiet)),
            ("watchdog", run(&farm, &watchdog, quiet)),
            ("ship-ahead", run(&farm.with_overlap(true), &none, quiet)),
            ("SPA boards", run(&spa, &none, quiet)),
            ("unbacked local replay", run(&farm, &unbacked, quiet)),
        ];
        for (reader, passes) in every_pass {
            assert_eq!(passes, 0, "{reader} reads the first pass");
        }
        // A restoring level behind the local budget backs it; its
        // barriers encode, but none falls due within the step.
        let backed = FarmRecoveryConfig { max_retries: 1, ..unbacked };
        assert_eq!(run(&farm, &backed, quiet), 8);
        // An encoding barrier reads the last pass of its window.
        let every3 = FarmRecoveryConfig { checkpoint_every: 3, ..none };
        assert_eq!(run(&farm, &every3, quiet), 8, "a barrier that does not encode");
        assert_eq!(run(&farm, &every3, (false, false, true)), 3);
        let barrier = Readers::new(&farm, &every3, false, false, true, 16);
        assert_eq!((barrier.run(0, 1, 2), barrier.run(0, 2, 2)), (2, 0));
        // The last full-depth pass before a shallower one, and the
        // step's last pass.
        let shallow = Readers::new(&farm, &none, false, false, false, 17);
        assert_eq!(shallow.run(0, 0, 2), 8);
        let quiet = Readers::new(&farm, &none, false, false, false, 16);
        assert_eq!((quiet.run(12, 0, 2), quiet.run(14, 0, 2)), (2, 0));
    }
}
