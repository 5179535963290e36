//! One bulk-synchronous pass attempt, its bill, and the cross-pass
//! accumulators of the machine report. An attempt caches each clean
//! board's work, so a retry redoes only the failed board's: that
//! containment is ladder level 2.

use crate::board::{recycle, work_board, BoardJob, BoardWork, Done, Job, StepCrew};
use crate::crew::Answer;
use crate::exchange::{owned_rows, paste_window, Augmented, ExchangeOutcome};
use crate::farm::{FarmReport, LatticeFarm, ShardStats};
use crate::ladder::BoardFailure;
use crate::partition::{sweep_regions2d, Block};
use crate::session::FarmSession;
use lattice_core::bits::Traffic;
use lattice_core::units::{u64_from_usize, usize_from_u64, Bits, Sites, Ticks};
use lattice_core::{Grid, LatticeError, Rule, State};
use lattice_engines_sim::{EngineCost, FaultCtx, FaultPlan, FaultStats};
use std::time::Instant;

/// What one board has produced so far within the current pass. The
/// cache state encodes what a retry must redo: a link failure leaves
/// `exchange` empty (re-exchange), an engine/audit failure leaves
/// `exchange` buffered but `costs` empty (replay the buffered halos).
/// `costs` holds one engine cost per sweep region, in
/// [`sweep_regions2d`] order (a single entry when overlap is off).
struct BoardCache<S: State> {
    exchange: Option<ExchangeOutcome<S>>,
    costs: Option<Vec<EngineCost>>,
}

/// One pass's work so far: every board's cache, and the next lattice,
/// into whose owned rows each board writes its result. A local
/// rollback rewrites only the failed board's rows; a global rollback
/// drops the whole cache.
pub(crate) struct PassCache<S: State> {
    boards: Vec<BoardCache<S>>,
    next: Vec<S>,
}

impl<S: State> PassCache<S> {
    pub(crate) fn new(boards: usize, next: Vec<S>) -> Self {
        PassCache {
            boards: (0..boards).map(|_| BoardCache { exchange: None, costs: None }).collect(),
            next,
        }
    }
}

/// Sequential composition of one board's sweep regions within a pass:
/// the regions run back to back on the same silicon, so ticks, updates,
/// and traffic add, while pipeline geometry (`stages`, `width`) and
/// capacity figures stay the board's maxima and `generations` stays the
/// pass depth. The dual of `EngineReport::merge`, which composes
/// *concurrent* engines (ticks max, stages add).
fn fold_regions(mut costs: Vec<EngineCost>) -> EngineCost {
    let mut folded = costs.remove(0);
    for r in costs {
        folded.generations = folded.generations.max(r.generations);
        folded.updates += r.updates;
        folded.ticks += r.ticks;
        folded.memory_traffic.merge(r.memory_traffic);
        folded.pin_traffic.merge(r.pin_traffic);
        folded.side_traffic.merge(r.side_traffic);
        folded.offchip_sr_traffic.merge(r.offchip_sr_traffic);
        folded.sr_cells_per_stage = folded.sr_cells_per_stage.max(r.sr_cells_per_stage);
        folded.stages = folded.stages.max(r.stages);
        folded.width = folded.width.max(r.width);
        folded.faults.merge(r.faults);
    }
    folded
}

/// Converts a missing cache entry — a supervisor-logic invariant, not a
/// hardware fault — into a localized [`BoardFailure`] instead of a
/// panic, so a supervisor bug degrades into the recovery ladder rather
/// than tearing the farm down.
fn cached<T>(entry: Option<T>, slab: usize, what: &str) -> Result<T, BoardFailure> {
    entry.ok_or_else(|| BoardFailure {
        slab: Some(slab),
        error: LatticeError::Corrupted {
            site: format!("board cache, slab {slab}"),
            detail: format!("{what} missing from the pass cache"),
        },
    })
}

/// Machine-wide audit callback: `(lattice before, lattice after)` a pass.
pub(crate) type MachineAudit<'f, S> =
    dyn FnMut(&Grid<S>, &Grid<S>) -> Result<(), LatticeError> + 'f;

/// Per-board audit callback: `(physical board, aug before, aug after)`.
pub type ShardAudit<'f, S> = dyn FnMut(usize, &Grid<S>, &Grid<S>) -> Result<(), LatticeError> + 'f;

/// One pass's bill, before aggregation. `costs` holds the per-board
/// *folded* cost (regions composed sequentially).
pub(crate) struct PassOutcome {
    costs: Vec<EngineCost>,
    halo_traffic: Traffic,
    halo_ticks: Ticks,
    retransmit_ticks: Ticks,
    halo_bits_per_board: Vec<Bits>,
    retransmits_per_board: Vec<u32>,
    /// Slowest board's boundary-sweep time (zero when overlap is off:
    /// the whole sweep is interior).
    boundary_ticks: Ticks,
    /// Slowest board's interior-sweep time — the window the *next*
    /// pass's halo transfer can hide under.
    pub(crate) interior_ticks: Ticks,
    /// The share of this pass's `halo_ticks` that was hidden under the
    /// previous pass's interior sweep: `min(credit, halo_ticks)` when
    /// every frame arrived staged, zero otherwise.
    overlapped_ticks: Ticks,
}

/// Cross-pass accumulators for the machine report. `Clone` so a live
/// [`FarmSession`](crate::FarmSession) can snapshot a mid-run
/// [`FarmReport`] without disturbing the accumulators.
#[derive(Clone, Default)]
pub(crate) struct Totals {
    /// The boards' costs, composed in parallel within a pass and in
    /// sequence across passes; `ticks` is compute time. Its `faults`
    /// stay zero: the report takes the plan's.
    machine: EngineCost,
    halo_traffic: Traffic,
    halo_ticks: Ticks,
    retransmit_ticks: Ticks,
    overlapped_ticks: Ticks,
    retransmits: u64,
    pub(crate) per_shard: Vec<ShardStats>,
}

impl Totals {
    pub(crate) fn new(blocks: &[Block]) -> Self {
        let per_shard = blocks
            .iter()
            .map(|b| ShardStats {
                shard: b.index,
                row0: b.row0,
                rows: b.rows,
                col0: b.col0,
                cols: b.width,
                updates: Sites::ZERO,
                ticks: Ticks::ZERO,
                halo_in_bits: Bits::ZERO,
                retransmits: 0,
                local_rollbacks: 0,
                retired: false,
            })
            .collect();
        Totals { per_shard, ..Totals::default() }
    }

    /// Folds one pass in: shard reports compose in parallel (via
    /// `EngineReport::merge`), passes compose sequentially (ticks and
    /// updates add). The pass's compute time is the boundary barrier
    /// plus the interior barrier — each phase waits on its slowest
    /// board — which reduces to the slowest board's full sweep when
    /// overlap is off. `phys` maps slab index → physical board.
    ///
    /// A link so slow that the machine's tick count (compute plus halo)
    /// no longer fits in a `u64` is a configuration the report cannot
    /// describe: the pass is refused with
    /// [`LatticeError::InvalidConfig`] and nothing is folded in.
    pub(crate) fn absorb(
        &mut self,
        out: &PassOutcome,
        k: u64,
        phys: &[usize],
    ) -> Result<(), LatticeError> {
        let ticks = (self.machine.ticks.checked_add(out.boundary_ticks + out.interior_ticks))
            .zip(self.halo_ticks.checked_add(out.halo_ticks))
            .filter(|(compute, halo)| compute.checked_add(*halo).is_some());
        let Some((compute_ticks, halo_ticks)) = ticks else {
            return Err(LatticeError::InvalidConfig(
                "the halo links are too slow: the machine's tick count overflows a u64".into(),
            ));
        };
        // The boards' parallel composition, field by field as
        // `EngineReport::merge` folds it (counters add, capacities take
        // the maximum, chips add up across boards), without copying a
        // board lattice.
        let (m, mut pass_stages) = (&mut self.machine, 0u32);
        for r in &out.costs {
            m.updates += r.updates;
            m.memory_traffic.merge(r.memory_traffic);
            m.pin_traffic.merge(r.pin_traffic);
            m.side_traffic.merge(r.side_traffic);
            m.offchip_sr_traffic.merge(r.offchip_sr_traffic);
            m.sr_cells_per_stage = m.sr_cells_per_stage.max(r.sr_cells_per_stage);
            m.width = m.width.max(r.width);
            pass_stages += r.stages;
        }
        m.ticks = compute_ticks;
        m.generations += k;
        m.stages = m.stages.max(pass_stages);
        self.halo_traffic.merge(out.halo_traffic);
        self.halo_ticks = halo_ticks;
        self.retransmit_ticks += out.retransmit_ticks;
        self.overlapped_ticks += out.overlapped_ticks;
        for (i, report) in out.costs.iter().enumerate() {
            let stats = &mut self.per_shard[phys[i]];
            stats.updates += report.updates;
            stats.ticks += report.ticks;
            stats.halo_in_bits += out.halo_bits_per_board[i];
            stats.retransmits += u64::from(out.retransmits_per_board[i]);
            self.retransmits += u64::from(out.retransmits_per_board[i]);
        }
        Ok(())
    }

    /// Re-records the block geometry after a degraded re-partitioning.
    pub(crate) fn regeom(&mut self, blocks: &[Block], phys: &[usize]) {
        for (i, b) in blocks.iter().enumerate() {
            let s = &mut self.per_shard[phys[i]];
            (s.row0, s.rows, s.col0, s.cols) = (b.row0, b.rows, b.col0, b.width);
        }
    }

    pub(crate) fn finish<S: State>(
        self,
        grid: Grid<S>,
        passes: u64,
        shards: usize,
        faults: FaultStats,
    ) -> FarmReport<S> {
        FarmReport {
            machine: EngineCost { faults, ..self.machine }.with_grid(grid),
            passes,
            shards,
            per_shard: self.per_shard,
            halo_traffic: self.halo_traffic,
            halo_ticks: self.halo_ticks,
            retransmit_ticks: self.retransmit_ticks,
            overlapped_ticks: self.overlapped_ticks,
            retransmits: self.retransmits,
        }
    }
}

impl<'p, S: State> FarmSession<'p, S> {
    /// One attempt at a bulk-synchronous superstep: halo *arrival* (a
    /// staged frame from the previous pass's ship-ahead, or a barrier
    /// exchange with ARQ) for every board lacking a buffered frame,
    /// concurrent compute (with watchdog) for every board lacking a
    /// cost — block 0 on this thread, straight into its rows of the
    /// next lattice, every other block on its crew helper, whose owned
    /// window is then copied in; boundary sweep regions first — then
    /// (in overlap mode) the next pass's frames ship while the interior
    /// regions evolve, and the per-board audit, if attached, checks each
    /// fresh board, whose clean work `cache` keeps for a retry.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn attempt_pass<'env, R: Rule<S = S>>(
        &mut self,
        rule: &R,
        k: usize,
        t_end: u64,
        blocks: &[Block],
        plan: Option<&'env FaultPlan>,
        cache: &mut PassCache<S>,
        mut shard_audit: Option<&mut ShardAudit<'_, S>>,
        crew: &mut StepCrew<'_, 'env, S>,
    ) -> Result<(Grid<S>, PassOutcome), BoardFailure>
    where
        'p: 'env,
    {
        let grid = self.current.clone();
        let shape = grid.shape();
        let (rows, cols) = (shape.rows(), shape.cols());
        let grid_rows = self.farm.grid_at(blocks.len()).0;
        let wrap = self.farm.wrap_at(grid_rows, k);

        // Phase 1 — halo arrival for boards without a buffered frame:
        // claim the staged (shipped-ahead) frame if one is in the
        // window, otherwise exchange at the barrier, serialized.
        for block in blocks {
            let i = block.index;
            if cache.boards[i].exchange.is_some() {
                continue;
            }
            let b = self.phys[i];
            let fail = |error: LatticeError| BoardFailure { slab: Some(i), error };
            let staged = self.windows[b].take(self.passes).map_err(fail)?;
            let ex = match staged {
                Some(frame) => frame.map_err(fail)?,
                None => {
                    let ctx = plan.map(|p| {
                        FaultCtx::for_shard(p, u64_from_usize(b), self.passes, self.attempts[b])
                    });
                    self.farm
                        .exchange_board(
                            Augmented::new(&grid, block, wrap),
                            b,
                            ctx,
                            self.stride,
                            &mut self.halo_pos[b],
                            self.cfg.arq_retries,
                            &mut self.recovery,
                            false,
                        )
                        .map_err(fail)?
                }
            };
            cache.boards[i].exchange = Some(ex);
        }

        // Phase 2 — boards without a cost compute concurrently, one
        // engine sub-run per sweep region (boundary regions first):
        // helpers first, so they start while this thread runs block 0.
        if cache.next.len() != shape.len() {
            cache.next = recycle(std::mem::take(&mut cache.next), shape.len());
        }
        let mut own = None;
        let mut handed = Vec::with_capacity(blocks.len());
        for block in blocks {
            let i = block.index;
            if cache.boards[i].costs.is_some() {
                continue;
            }
            let b = self.phys[i];
            let ex = cached(cache.boards[i].exchange.as_ref(), i, "halo exchange")?;
            let regions = sweep_regions2d(block, k, self.farm.overlap, wrap);
            let audited = shard_audit.is_some();
            let work = BoardWork::with_capacity(regions.len(), audited);
            let job = BoardJob {
                lattice: grid.clone(),
                block: *block,
                wrap,
                ex: ex.clone(),
                work,
                regions,
                ctx: plan.map(|p| {
                    FaultCtx::for_shard(p, u64_from_usize(b), self.passes, self.attempts[b])
                }),
                origin: (
                    block.row0.wrapping_sub(wrap + block.halo_up),
                    block.col0.wrapping_sub(block.halo_left),
                ),
                chip0: b * self.stride,
                phys: b,
                pass: self.passes,
                attempt: self.attempts[b],
                k,
                t0: self.t_now,
                audited,
            };
            if i == 0 {
                own = Some(job);
            } else {
                handed.push((i, crew.dispatch(i, |w| Job::Board(Box::new(job), w))));
            }
        }
        // A board's outcome: absent until its worker reports.
        let mut results: Vec<Option<_>> = (0..blocks.len()).map(|_| None).collect();
        // The watchdog clock bounds *wall time to detection*; which
        // boards are retired (and every lattice bit) is decided by the
        // deterministic retry ladder.
        // lattice-lint: allow(determinism)
        let deadline = self.cfg.watchdog.map(|d| Instant::now() + d);
        let mut timed_out = false;
        if let Some(mut job) = own {
            let mut owned = owned_rows(&mut cache.next, cols, &blocks[..1]);
            let work =
                work_board(rule, self.farm.engine, self.farm.worker_fault, &mut job, &mut owned[0]);
            // A board that reports after the deadline has missed it,
            // whichever thread it ran on.
            // lattice-lint: allow(determinism)
            if deadline.is_some_and(|dl| Instant::now() >= dl) {
                timed_out = true;
            } else {
                results[0] = work;
            }
        }
        let tickets: Vec<u64> = handed.iter().map(|&(_, t)| t).collect();
        for (&(i, _), answer) in handed.iter().zip(crew.crew.collect(&tickets, deadline)) {
            match answer {
                Answer::Done(Done::Board(work, window, _job)) => {
                    let b = &blocks[i];
                    if work.is_ok() {
                        paste_window(&mut cache.next, cols, b, &window, (0..b.rows, 0..b.width));
                    }
                    crew.windows[i - 1] = window;
                    results[i] = Some(work);
                }
                Answer::Missed => timed_out = true,
                Answer::Died | Answer::Done(_) => {}
            }
        }

        // Accept every clean board (neighbors must not redo work when
        // one board fails), audit each fresh one region by region when
        // an audit is attached, and surface the first failure in slab
        // order.
        let mut failure: Option<BoardFailure> = None;
        for block in blocks {
            let i = block.index;
            if cache.boards[i].costs.is_some() {
                continue;
            }
            let b = self.phys[i];
            let checked = (results[i].take())
                .unwrap_or_else(|| {
                    let cause = if timed_out {
                        "missed the watchdog deadline"
                    } else {
                        "worker died before reporting"
                    };
                    Err(LatticeError::BoardDown { shard: b, cause: cause.into() })
                })
                .and_then(|work| match shard_audit.as_deref_mut() {
                    Some(audit) => (work.audited.iter())
                        .try_for_each(|(before, after)| audit(b, before, after))
                        .map(|()| work.costs),
                    None => Ok(work.costs),
                });
            match checked {
                Ok(costs) => cache.boards[i].costs = Some(costs),
                Err(error) => {
                    failure.get_or_insert(BoardFailure { slab: Some(i), error });
                }
            }
        }
        if let Some(f) = failure {
            return Err(f);
        }

        // Phase 3 — settle the bill.
        let mut costs = Vec::with_capacity(blocks.len());
        for block in blocks {
            costs.push(cached(
                cache.boards[block.index].costs.take(),
                block.index,
                "engine costs",
            )?);
        }
        let mut boards = Vec::with_capacity(blocks.len());
        for (block, costs) in blocks.iter().zip(costs) {
            let ex =
                cached(cache.boards[block.index].exchange.as_ref(), block.index, "halo exchange")?;
            boards.push((block, ex, costs));
        }
        let bill = self.farm.settle(boards, k, wrap, self.credit);
        let next = Grid::from_vec(shape, std::mem::take(&mut cache.next))
            .map_err(|e| BoardFailure { slab: None, error: e })?;

        // Ship ahead: with another pass coming, read the next pass's
        // halo frames from the next lattice — their contents are fully
        // determined by the boundary sweeps — move them over the links
        // now (this is the transfer the next pass's `overlap_credit`
        // hides), and stage them in the double-buffer windows for the
        // arrival barrier to claim. A frame whose ARQ budget exhausts is
        // staged as the error itself: it must surface at the barrier it
        // belongs to.
        if self.farm.overlap && self.t_now + u64_from_usize(k) < t_end {
            let t_next = self.t_now + u64_from_usize(k);
            let k_next = self.farm.depth.min(usize_from_u64(t_end - t_next));
            let blocks_next = self
                .farm
                .blocks_at(rows, cols, blocks.len(), k_next)
                .map_err(|e| BoardFailure { slab: None, error: e })?;
            let wrap_next = self.farm.wrap_at(grid_rows, k_next);
            for block in &blocks_next {
                let i = block.index;
                let b = self.phys[i];
                let ctx = plan.map(|p| {
                    FaultCtx::for_shard(p, u64_from_usize(b), self.passes + 1, self.attempts[b])
                });
                let frame = self.farm.exchange_board(
                    Augmented::new(&next, block, wrap_next),
                    b,
                    ctx,
                    self.stride,
                    &mut self.halo_pos[b],
                    self.cfg.arq_retries,
                    &mut self.recovery,
                    true,
                );
                self.windows[b]
                    .stage(self.passes + 1, frame)
                    .map_err(|e| BoardFailure { slab: Some(i), error: e })?;
            }
        }
        Ok((next, bill))
    }
}

impl LatticeFarm {
    /// Settles one pass's bill: the barrier's link time (the slowest
    /// board, retransmissions included), and the compute time split into
    /// the boundary and interior barriers. `boards` holds each block
    /// with its exchange and its per-region engine costs, in block order.
    pub(crate) fn settle<S: State>(
        &self,
        boards: Vec<(&Block, &ExchangeOutcome<S>, Vec<EngineCost>)>,
        k: usize,
        wrap: usize,
        overlap_credit: Ticks,
    ) -> PassOutcome {
        let mut halo_traffic = Traffic::new();
        let mut halo_ticks = Ticks::ZERO;
        let mut base_ticks = Ticks::ZERO;
        let mut boundary_ticks = Ticks::ZERO;
        let mut interior_ticks = Ticks::ZERO;
        let mut all_staged = true;
        let mut halo_bits_per_board = Vec::with_capacity(boards.len());
        let mut retransmits_per_board = Vec::with_capacity(boards.len());
        let mut costs = Vec::with_capacity(boards.len());
        for (block, ex, region_costs) in boards {
            halo_traffic.merge(ex.traffic);
            // The two tiers are separate wires, so a board's halo wait
            // is the slower tier, retransmissions included; the barrier
            // then waits for the slowest board.
            let base = self.link.transfer_ticks(ex.bits);
            let base_v = self.link_inter.transfer_ticks(ex.bits_inter);
            // Saturating: a wait past `u64::MAX` ticks stays there, and
            // `Totals::absorb` refuses the pass.
            let full = |t: Ticks, retransmits: u32| {
                Ticks::new(t.get().saturating_mul(1 + u64::from(retransmits)))
            };
            let board_full = full(base, ex.retransmits).max(full(base_v, ex.retransmits_inter));
            halo_ticks = halo_ticks.max(board_full);
            base_ticks = base_ticks.max(base.max(base_v));
            all_staged &= ex.staged;
            halo_bits_per_board.push(ex.bits + ex.bits_inter);
            retransmits_per_board.push(ex.retransmits + ex.retransmits_inter);
            let regions = sweep_regions2d(block, k, self.overlap, wrap);
            let mut board_boundary = Ticks::ZERO;
            let mut board_interior = Ticks::ZERO;
            for (region, cost) in regions.iter().zip(&region_costs) {
                if region.boundary {
                    board_boundary += cost.ticks;
                } else {
                    board_interior += cost.ticks;
                }
            }
            boundary_ticks = boundary_ticks.max(board_boundary);
            interior_ticks = interior_ticks.max(board_interior);
            costs.push(fold_regions(region_costs));
        }
        // A staged transfer ran concurrently with the previous pass's
        // interior sweep, so up to that much of it is already paid for.
        let overlapped_ticks =
            if all_staged { halo_ticks.min(overlap_credit) } else { Ticks::ZERO };
        PassOutcome {
            costs,
            halo_traffic,
            halo_ticks,
            retransmit_ticks: halo_ticks - base_ticks,
            halo_bits_per_board,
            retransmits_per_board,
            boundary_ticks,
            interior_ticks,
            overlapped_ticks,
        }
    }
}
