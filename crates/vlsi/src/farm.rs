//! Board-level scaling model — the §6 constraint argument moved up one
//! packaging level, from pins-per-chip to links-per-board.
//!
//! §6 bounds a *chip* by its pin budget: a `P`-wide stage must move
//! `2·D·P` bits per tick through `Π` pins. A *board farm* meets the
//! same wall at its inter-board links. Each bulk-synchronous pass a
//! board imports its halo, then computes `k` generations over its
//! augmented block; the machine is compute-bound while the links move
//! a pass's halo faster than the boards burn it, and bandwidth-bound
//! past the rollover where exchange time dominates — exactly the regime
//! change the paper's §8 prototype hit at the host/memory channel.
//!
//! Every layout is an `R × C` board grid (`grid: (usize, usize)`); a
//! shard count `S` is the single-row grid `(1, S)`. The model mirrors
//! `lattice-farm`'s measured accounting term for term: the same block
//! partition (both crates call `lattice_core::shard::partition2d`, so
//! geometry cannot drift), the WSA pipeline's fill-latency tick count,
//! the two link tiers (halo columns intra-rack, halo rows inter-rack),
//! and the slowest board/slowest link maxima at the barrier. The
//! `tab_farm_scaling` and `tab_grid_blocks` benches tabulate
//! measurement against this model; integration tests hold them within
//! 10% in the unthrottled regime.
//!
//! The per-pass accounting is exact integer arithmetic in `core::units`
//! quantities — [`Ticks`] on the barriers, [`Bits`] on the links — so a
//! ticks-vs-bits mixup is a type error, and the ceil divisions that §6
//! writes as `⌈·⌉` are `div_ceil`, not float rounding.

use crate::tech::Technology;
use lattice_core::shard::{partition2d, sweep_regions2d, Block};
use lattice_core::units::{
    f64_from_usize, u64_from_usize, Bits, BitsPerTick, Sites, SitesPerSec, SitesPerTick, Ticks,
};
use serde::{Deserialize, Serialize};

/// One of the farm's two link tiers. An R×C board grid exchanges halo
/// *columns* (full augmented height, corners included) over fast
/// intra-rack links and halo *rows* (owned width) over throttled
/// inter-rack links; a single-row grid leaves the inter tier idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkTier {
    /// The horizontal (column-halo) tier, inside a rack.
    Intra,
    /// The vertical (row-halo) tier, between racks.
    Inter,
}

/// The analytical farm: an `R × C` grid of boards, each a WSA pipeline
/// of `k` stages × `p` PEs, over a `rows × cols` lattice with `k`-deep
/// passes.
#[derive(Debug, Clone, Copy)]
pub struct FarmModel {
    /// Chip technology (supplies `D` and the clock).
    pub tech: Technology,
    /// Lattice rows.
    pub rows: usize,
    /// Lattice columns.
    pub cols: usize,
    /// PEs per pipeline stage on every board.
    pub p: u32,
    /// Generations per pass = pipeline depth = halo width.
    pub k: usize,
    /// Intra-rack link capacity
    /// ([`BitsPerTick::UNTHROTTLED`] = never the bottleneck).
    pub link: BitsPerTick,
    /// Inter-rack (vertical-tier) link capacity — only exercised on
    /// multi-row board grids.
    pub link_inter: BitsPerTick,
    /// Toroidal boundary (halos never clamp; a single-row grid's blocks
    /// gain `2k` on-board wrap rows).
    pub periodic: bool,
    /// Overlapped exchange: each board computes its seam-adjacent
    /// boundary sweeps first, ships the next pass's halos while the
    /// interior sweep evolves, and barriers only on halo *arrival*.
    /// The per-pass wall drops from `compute + halo` to
    /// `boundary + max(interior, halo)` — mirroring
    /// `LatticeFarm::with_overlap`.
    pub overlap: bool,
}

impl FarmModel {
    /// An unthrottled null-boundary farm model.
    pub fn new(tech: Technology, rows: usize, cols: usize, p: u32, k: usize) -> Self {
        FarmModel {
            tech,
            rows,
            cols,
            p,
            k,
            link: BitsPerTick::UNTHROTTLED,
            link_inter: BitsPerTick::UNTHROTTLED,
            periodic: false,
            overlap: false,
        }
    }

    /// Sets both tiers' link capacity (mirroring
    /// `LatticeFarm::with_link`); follow with
    /// [`FarmModel::with_tier_link`] to throttle the inter-rack tier
    /// separately.
    pub fn with_link(mut self, link: BitsPerTick) -> Self {
        self.link = link;
        self.link_inter = link;
        self
    }

    /// Sets the inter-rack tier's capacity alone.
    pub fn with_tier_link(mut self, link_inter: BitsPerTick) -> Self {
        self.link_inter = link_inter;
        self
    }

    /// Selects the toroidal boundary.
    pub fn with_periodic(mut self, periodic: bool) -> Self {
        self.periodic = periodic;
        self
    }

    /// Selects overlapped halo exchange.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Ticks one sweep over an `ar × a` region costs: the exact WSA
    /// pipeline count [`wsa::sweep_ticks`](crate::wsa::sweep_ticks),
    /// equal to what the farm's boards measure.
    fn sweep_ticks(&self, ar: usize, a: usize) -> Ticks {
        crate::wsa::sweep_ticks(ar, a, self.p, self.k)
    }

    /// Useful (lattice-visible) site updates per pass: `rows·cols·k`.
    pub fn useful_updates_per_pass(&self) -> Sites {
        Sites::new(u64_from_usize(self.rows * self.cols * self.k))
    }

    /// The farm's block geometry on an R×C board grid — byte-identical
    /// to what `lattice-farm` executes (same function).
    ///
    /// # Panics
    /// When the grid does not partition the lattice (zero axes, more
    /// boards than sites on an axis, torus blocks narrower than the
    /// halo), like the farm itself errors.
    pub fn blocks(&self, grid: (usize, usize)) -> Vec<Block> {
        partition2d(self.rows, self.cols, grid.0, grid.1, self.k, self.periodic)
            // lattice-lint: allow(no-panic) — documented precondition, mirrored by the farm.
            .expect("farm model needs a grid that partitions the lattice")
    }

    /// On-board vertical wrap depth: a single-row grid keeps the
    /// torus's vertical wrap on board; a multi-row grid imports wrap
    /// rows as ordinary halo rows over the inter-rack tier.
    fn wrap(&self, grid_rows: usize) -> usize {
        if self.periodic && grid_rows == 1 {
            self.k
        } else {
            0
        }
    }

    /// Ticks the slowest board computes per pass on an R×C grid — one
    /// full sweep over the largest augmented block. Under overlap the
    /// same work is split into [`FarmModel::boundary_compute_ticks2`] +
    /// [`FarmModel::interior_compute_ticks2`], which sum slightly
    /// higher because each extra sweep refills the pipeline.
    pub fn compute_ticks2(&self, grid: (usize, usize)) -> Ticks {
        let wrap = self.wrap(grid.0);
        self.blocks(grid)
            .iter()
            .map(|b| self.sweep_ticks(b.aug_height(wrap), b.aug_width()))
            .max()
            .unwrap_or(Ticks::ZERO)
    }

    /// Ticks the slowest board spends on its boundary (edge + corner)
    /// sweep regions per pass on an R×C grid — the serial prefix the
    /// halos must wait for. Zero when the exchange is serialized (the
    /// whole block is one undivided sweep) and on seamless blocks.
    /// Region geometry is [`sweep_regions2d`], the same function the
    /// farm executes.
    pub fn boundary_compute_ticks2(&self, grid: (usize, usize)) -> Ticks {
        self.phase_ticks2(grid, true)
    }

    /// Ticks the slowest board spends on its interior sweep per pass on
    /// an R×C grid — the window the halo transfer hides behind under
    /// overlap. Equals [`FarmModel::compute_ticks2`] when serialized;
    /// zero for blocks so narrow the boundary sweeps cover every owned
    /// site.
    pub fn interior_compute_ticks2(&self, grid: (usize, usize)) -> Ticks {
        self.phase_ticks2(grid, false)
    }

    fn phase_ticks2(&self, grid: (usize, usize), boundary: bool) -> Ticks {
        let wrap = self.wrap(grid.0);
        self.blocks(grid)
            .iter()
            .map(|b| {
                sweep_regions2d(b, self.k, self.overlap, wrap)
                    .iter()
                    .filter(|r| r.boundary == boundary)
                    .map(|r| self.sweep_ticks(r.height, r.width))
                    .fold(Ticks::ZERO, |acc, t| acc + t)
            })
            .max()
            .unwrap_or(Ticks::ZERO)
    }

    /// Per-board halo bits imported per pass on each tier,
    /// `(intra, inter)`: the halo *columns* over the full augmented
    /// height (corners and wrap rows included) and the halo *rows* over
    /// the owned width only, so corner sites are billed exactly once.
    fn tier_bits(&self, grid: (usize, usize)) -> Vec<(Bits, Bits)> {
        let wrap = self.wrap(grid.0);
        self.blocks(grid)
            .iter()
            .map(|b| {
                let cols = (b.halo_left + b.halo_right) * b.aug_height(wrap);
                let rows = (b.halo_up + b.halo_down) * b.width;
                (
                    self.tech.bits_for_sites(Sites::new(u64_from_usize(cols))),
                    self.tech.bits_for_sites(Sites::new(u64_from_usize(rows))),
                )
            })
            .collect()
    }

    /// Halo bits the hungriest board imports per pass on each tier:
    /// `(intra, inter)`. Together the tiers move
    /// `aug_area − owned_area` sites when nothing wraps on board; a
    /// single-row grid leaves the inter tier at zero.
    pub fn halo_bits2(&self, grid: (usize, usize)) -> (Bits, Bits) {
        self.tier_bits(grid)
            .into_iter()
            .fold((Bits::ZERO, Bits::ZERO), |(i, n), (a, b)| (i.max(a), n.max(b)))
    }

    /// Exchange-barrier ticks per pass on an R×C grid: per board the
    /// two tiers are separate wires, so its wait is the slower tier's
    /// `⌈halo_bits / capacity⌉` (free when unthrottled); the barrier
    /// waits for the slowest board.
    pub fn halo_ticks2(&self, grid: (usize, usize)) -> Ticks {
        self.tier_bits(grid)
            .into_iter()
            .map(|(a, b)| self.link.ticks_to_move(a).max(self.link_inter.ticks_to_move(b)))
            .max()
            .unwrap_or(Ticks::ZERO)
    }

    /// Machine ticks per pass on an R×C grid. Serialized: exchange
    /// barrier then compute barrier, `compute + halo`. Overlapped: the
    /// boundary sweeps run first, then the halo transfer races the
    /// interior sweep, `boundary + max(interior, halo)` — which
    /// degenerates to the serialized sum when `overlap` is off
    /// (boundary = 0, interior = compute). `halo` is the slower-tier
    /// wait of [`FarmModel::halo_ticks2`].
    pub fn pass_ticks2(&self, grid: (usize, usize)) -> Ticks {
        if self.overlap {
            self.boundary_compute_ticks2(grid)
                + self.interior_compute_ticks2(grid).max(self.halo_ticks2(grid))
        } else {
            self.compute_ticks2(grid) + self.halo_ticks2(grid)
        }
    }

    /// Machine ticks of a run of `passes` full-depth passes on an R×C
    /// grid: `passes` × [`FarmModel::pass_ticks2`], plus, under
    /// overlap, the first pass's halo transfer that no earlier
    /// interior sweep hides, `min(interior, halo)`. This is the figure
    /// a measured run's mean pass time compares with.
    pub fn run_ticks2(&self, grid: (usize, usize), passes: u64) -> Ticks {
        let cold_start = if self.overlap && passes > 0 {
            self.interior_compute_ticks2(grid).min(self.halo_ticks2(grid))
        } else {
            Ticks::ZERO
        };
        self.pass_ticks2(grid) * passes + cold_start
    }

    /// Useful site updates per machine tick on an R×C grid:
    /// `rows·cols·k / pass_ticks`. Halo recompute is excluded, exactly
    /// as `FarmReport::updates_per_tick` excludes it.
    pub fn updates_per_tick2(&self, grid: (usize, usize)) -> SitesPerTick {
        self.useful_updates_per_pass() / self.pass_ticks2(grid)
    }

    /// Useful updates per second at the technology clock.
    pub fn updates_per_second(&self, grid: (usize, usize)) -> SitesPerSec {
        self.tech.per_second(self.updates_per_tick2(grid))
    }

    /// Speedup over one board of the same design.
    pub fn speedup(&self, grid: (usize, usize)) -> f64 {
        self.updates_per_tick2(grid).ratio(self.updates_per_tick2((1, 1)))
    }

    /// Strong-scaling efficiency: fixed lattice, `speedup / (R·C)`.
    /// Below 1 because every added seam buys `2k` recomputed halo
    /// sites per row or column and more link traffic.
    pub fn strong_efficiency(&self, grid: (usize, usize)) -> f64 {
        self.speedup(grid) / f64_from_usize(grid.0 * grid.1)
    }

    /// Weak-scaling efficiency: each board brings its own `rows × cols`
    /// block (machine lattice `R·rows × C·cols`), so ideal scaling keeps
    /// pass time constant. Returns
    /// `pass_ticks(1 board) / pass_ticks(R × C boards, scaled lattice)`.
    pub fn weak_efficiency(&self, grid: (usize, usize)) -> f64 {
        let scaled = FarmModel { rows: self.rows * grid.0, cols: self.cols * grid.1, ..*self };
        self.pass_ticks2((1, 1)).ratio(scaled.pass_ticks2(grid))
    }

    /// Sustained per-tier link demand on an R×C grid, as
    /// `(intra, inter)`: each tier's hungriest frame amortized over the
    /// compute barrier it must hide behind. For blocks much wider than
    /// the halo the intra demand approaches the closed form
    /// `2·k·D·p / aug_width` — the §6 pin expression `2·D·P` divided by
    /// the columns a board amortizes it over.
    pub fn link_demand2(&self, grid: (usize, usize)) -> (BitsPerTick, BitsPerTick) {
        let (intra, inter) = self.halo_bits2(grid);
        let compute = self.compute_ticks2(grid);
        (intra / compute, inter / compute)
    }

    /// The tier whose transfer paces the exchange barrier on an R×C
    /// grid — the one admission control must charge. Ties (including a
    /// fully idle barrier) bind on the intra tier, which always carries
    /// at least as many frames.
    pub fn binding_tier(&self, grid: (usize, usize)) -> LinkTier {
        let (intra_t, inter_t) =
            self.tier_bits(grid).into_iter().fold((Ticks::ZERO, Ticks::ZERO), |(i, n), (a, b)| {
                (i.max(self.link.ticks_to_move(a)), n.max(self.link_inter.ticks_to_move(b)))
            });
        if inter_t > intra_t {
            LinkTier::Inter
        } else {
            LinkTier::Intra
        }
    }

    /// The binding tier's sustained link demand on an R×C grid — the
    /// admission cost of a session. On unthrottled ties (both tiers
    /// free) this is the larger per-tier demand, so an unthrottled
    /// model still yields a usable admission key.
    pub fn binding_link_demand(&self, grid: (usize, usize)) -> BitsPerTick {
        let (intra, inter) = self.link_demand2(grid);
        match self.binding_tier(grid) {
            LinkTier::Inter => inter,
            // An unthrottled barrier binds on neither wire; charge the
            // hungrier demand so the admission key stays conservative.
            LinkTier::Intra if self.link.is_unthrottled() && self.link_inter.is_unthrottled() => {
                intra.max(inter)
            }
            LinkTier::Intra => intra,
        }
    }

    /// The first grid shape in `shapes` (scanned in order — along
    /// either axis, or any schedule the caller builds) where the
    /// exchange first paces the machine — the farm's bandwidth wall,
    /// the analogue of §6's pin-bound corner. Shapes that do not
    /// partition the lattice (the farm cannot run them) are skipped
    /// rather than probing a panic; `None` if the links keep up
    /// everywhere.
    ///
    /// A **tie counts as the wall**: at `halo_ticks == compute_ticks`
    /// the link has already caught the boards — every tick of further
    /// thinning (or of ARQ replay) lands on the critical path, and in
    /// overlapped mode the tie is exactly where the exchange stops
    /// hiding completely behind the interior sweep. The comparison is
    /// therefore `>=`, not `>`; a strict `>` mis-classified exactly
    /// balanced configurations as compute-bound.
    ///
    /// Under overlap the compute side of the comparison is the
    /// *interior* sweep — the only window the transfer can hide in —
    /// so the wall arrives at a smaller grid than the serialized
    /// comparison suggests, even though the overlapped farm is faster
    /// in absolute ticks.
    pub fn critical_grid(&self, shapes: &[(usize, usize)]) -> Option<(usize, usize)> {
        shapes
            .iter()
            .copied()
            .filter(|&(gr, gc)| {
                partition2d(self.rows, self.cols, gr, gc, self.k, self.periodic).is_ok()
            })
            .find(|&g| {
                let halo = self.halo_ticks2(g);
                let wall = if self.overlap {
                    self.interior_compute_ticks2(g)
                } else {
                    self.compute_ticks2(g)
                };
                halo > Ticks::ZERO && halo >= wall
            })
    }

    /// Work amplification from halo recompute (`≥ 1`): total updates
    /// over useful updates, `Σ aug_height·aug_width / (rows·cols)`.
    pub fn redundancy(&self, grid: (usize, usize)) -> f64 {
        let wrap = self.wrap(grid.0);
        let aug: usize = self.blocks(grid).iter().map(|b| b.aug_height(wrap) * b.aug_width()).sum();
        f64_from_usize(aug) / f64_from_usize(self.rows * self.cols)
    }

    /// Probability one ARQ attempt of the hungriest halo frame (either
    /// tier) delivers a corrupted frame, given a per-site upset
    /// probability `site_rate`: `1 − (1 − rate)^sites`. Any corrupted
    /// site trips the frame's stream parity, so this is also the
    /// per-attempt retransmission probability.
    pub fn frame_upset_prob(&self, grid: (usize, usize), site_rate: f64) -> f64 {
        let (intra, inter) = self.halo_bits2(grid);
        let sites = intra.max(inter).to_f64() / f64::from(self.tech.d_bits);
        1.0 - (1.0 - site_rate).powf(sites)
    }

    /// Expected ARQ retransmissions per pass on the hungriest frame
    /// under an unbounded retry budget: with per-attempt upset
    /// probability `q`, the geometric tail `q / (1 − q)`. The farm's
    /// measured `FarmReport::retransmits / passes` converges on this.
    pub fn expected_retransmits_per_pass(&self, grid: (usize, usize), site_rate: f64) -> f64 {
        let q = self.frame_upset_prob(grid, site_rate);
        q / (1.0 - q)
    }

    /// [`FarmModel::pass_ticks2`] with the ARQ term as a real-valued
    /// expectation: `r` retransmissions per pass each replay the
    /// exchange barrier. Serialized that is
    /// `compute + halo_ticks·(1 + r)`; overlapped the replays extend
    /// the link's side of the race,
    /// `boundary + max(interior, halo_ticks·(1 + r))` — a lightly
    /// noisy link retransmits *for free* as long as the inflated
    /// transfer still fits inside the interior sweep. This is the
    /// prediction the farm's measured `machine_ticks / passes` tracks
    /// under transient link faults (`FarmReport::retransmit_ticks` is
    /// the measured `halo_ticks·r` share).
    pub fn pass_ticks_with_retransmits(&self, grid: (usize, usize), r: f64) -> f64 {
        let halo = self.halo_ticks2(grid).to_f64() * (1.0 + r);
        if self.overlap {
            self.boundary_compute_ticks2(grid).to_f64()
                + self.interior_compute_ticks2(grid).to_f64().max(halo)
        } else {
            self.compute_ticks2(grid).to_f64() + halo
        }
    }

    /// Throughput penalty of degraded re-partitioning: how many times
    /// slower the farm runs after retiring `retired` of `shards` boards
    /// (`≥ 1`; the survivors own wider slabs, so the compute barrier
    /// grows even though seam overhead shrinks). Degraded
    /// re-partitioning is columnar, so this prices the single-row grids
    /// `(1, shards)` and `(1, shards − retired)`.
    ///
    /// # Panics
    /// When `retired ≥ shards` — the farm cannot retire its last board,
    /// and `LatticeFarm` rejects such a `FarmDegradeConfig` budget
    /// up front (`lattice-farm`'s `FarmDegradeConfig::max_retired`).
    pub fn degraded_throughput_penalty(&self, shards: usize, retired: usize) -> f64 {
        assert!(retired < shards, "the farm cannot retire its last board");
        self.updates_per_tick2((1, shards)).ratio(self.updates_per_tick2((1, shards - retired)))
    }
}

/// Admission-control ledger over a farm's aggregate link capacity.
///
/// A multiplexing scheduler charges each admitted workload its
/// sustained [`FarmModel::binding_link_demand`] against a shared
/// [`BitsPerTick`] budget, and queues arrivals that would push the
/// aggregate to the saturation point — the fleet-level restatement of
/// §6's pin bound: total halo traffic per tick must stay under what the
/// interconnect moves per tick, or exchange lands on every session's
/// critical path at once.
///
/// **A tie counts as the wall**, matching
/// [`FarmModel::critical_grid`]: an arrival whose demand lifts the
/// aggregate to *exactly* the capacity is refused, because at equality
/// the links have already caught the boards and any jitter (an ARQ
/// replay, a deeper pass) spills onto the critical path.
///
/// One carve-out keeps the ledger work-conserving: an arrival into an
/// **empty** budget is always admitted, even when its lone demand meets
/// the wall. Backpressure exists to bound *aggregate* demand across
/// sessions; refusing the only session would starve it forever without
/// protecting anyone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    capacity: BitsPerTick,
    admitted: BitsPerTick,
}

impl LinkBudget {
    /// An empty ledger over `capacity` bits/tick of aggregate link
    /// bandwidth.
    pub fn new(capacity: BitsPerTick) -> Self {
        LinkBudget { capacity, admitted: BitsPerTick::ZERO }
    }

    /// A ledger that admits everything
    /// ([`BitsPerTick::UNTHROTTLED`] capacity).
    pub fn unthrottled() -> Self {
        LinkBudget::new(BitsPerTick::UNTHROTTLED)
    }

    /// The configured aggregate capacity.
    pub fn capacity(&self) -> BitsPerTick {
        self.capacity
    }

    /// The demand currently charged against the budget.
    pub fn admitted(&self) -> BitsPerTick {
        self.admitted
    }

    /// Remaining headroom before the wall (clamped at zero; infinite
    /// when unthrottled).
    pub fn headroom(&self) -> BitsPerTick {
        if self.capacity.is_unthrottled() {
            BitsPerTick::UNTHROTTLED
        } else {
            (self.capacity - self.admitted).max(BitsPerTick::ZERO)
        }
    }

    /// Whether `demand` would be admitted right now, without charging
    /// it.
    pub fn would_admit(&self, demand: BitsPerTick) -> bool {
        self.capacity.is_unthrottled()
            || self.admitted == BitsPerTick::ZERO
            || self.admitted + demand < self.capacity
    }

    /// Charges `demand` unconditionally, even past the wall. For
    /// restore paths (a daemon re-charging sessions it already admitted
    /// before a restart) where refusing would orphan live state; new
    /// arrivals go through [`LinkBudget::try_admit`].
    pub fn admit(&mut self, demand: BitsPerTick) {
        self.admitted += demand;
    }

    /// Charges `demand` against the budget if it fits; returns whether
    /// it was admitted. A refused arrival leaves the ledger unchanged —
    /// the caller queues it and retries after a [`release`].
    ///
    /// [`release`]: LinkBudget::release
    pub fn try_admit(&mut self, demand: BitsPerTick) -> bool {
        let ok = self.would_admit(demand);
        if ok {
            self.admitted += demand;
        }
        ok
    }

    /// Returns a departing workload's `demand` to the budget (clamped
    /// at zero, so a stray double-release cannot underflow into
    /// phantom headroom).
    pub fn release(&mut self, demand: BitsPerTick) {
        self.admitted = (self.admitted - demand).max(BitsPerTick::ZERO);
    }

    /// Admitted demand as a fraction of capacity (`0.0` when
    /// unthrottled — an infinite pipe is never utilized).
    pub fn utilization(&self) -> f64 {
        if self.capacity.is_unthrottled() || self.capacity == BitsPerTick::ZERO {
            0.0
        } else {
            self.admitted.ratio(self.capacity)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FarmModel {
        // The paper's technology: D = 8, F = 10 MHz; a 48 × 240 FHP
        // problem on 2-PE boards with depth-2 passes (the bench setup).
        FarmModel::new(Technology::paper_1987(), 48, 240, 2, 2)
    }

    /// The single-row grids `(1, 1)..=(1, n)` — shard counts `1..=n`.
    fn row(n: usize) -> Vec<(usize, usize)> {
        (1..=n).map(|s| (1, s)).collect()
    }

    #[test]
    fn single_board_matches_the_plain_pipeline_count() {
        let m = model();
        // One board, no halo: n = 48·240, each stage lags the stream
        // by one row plus one site, 2·(240 + 1), over p = 2.
        assert_eq!(m.compute_ticks2((1, 1)), Ticks::new((48 * 240 + 2 * 241) / 2));
        assert_eq!(m.halo_bits2((1, 1)), (Bits::ZERO, Bits::ZERO));
        assert_eq!(m.pass_ticks2((1, 1)), m.compute_ticks2((1, 1)));
    }

    #[test]
    fn sharding_shrinks_compute_and_grows_link_demand() {
        let m = model();
        let mut prev_compute = Ticks::new(u64::MAX);
        let mut prev_demand = BitsPerTick::ZERO;
        for s in [1usize, 2, 4, 8, 16] {
            let compute = m.compute_ticks2((1, s));
            let demand = m.link_demand2((1, s)).0;
            assert!(compute < prev_compute, "S={s}: more boards, less work each");
            assert!(demand >= prev_demand, "S={s}: thinner slabs, hungrier links");
            prev_compute = compute;
            prev_demand = demand;
        }
    }

    #[test]
    fn link_demand_approaches_the_closed_form() {
        // Wide slabs: demand ≈ 2kDp / aug_width, §6's 2DP spread over
        // the board's columns.
        let m = FarmModel::new(Technology::paper_1987(), 512, 4096, 4, 3);
        let g = (1, 4);
        let aug = f64_from_usize(m.blocks(g).iter().map(Block::aug_width).max().unwrap());
        let closed = 2.0 * 3.0 * 8.0 * 4.0 / aug;
        let demand = m.link_demand2(g).0.get();
        assert!((demand - closed).abs() / closed < 0.02, "{demand} vs {closed}");
    }

    #[test]
    fn strong_scaling_efficiency_is_high_but_sub_ideal() {
        let m = model();
        assert!((m.strong_efficiency((1, 1)) - 1.0).abs() < 1e-12);
        for s in [2usize, 4, 8] {
            let e = m.strong_efficiency((1, s));
            assert!(e < 1.0, "S={s}: halo recompute must cost something");
            assert!(e > 0.8, "S={s}: but not much on wide slabs, got {e}");
        }
        assert!(
            m.strong_efficiency((1, 8)) < m.strong_efficiency((1, 2)),
            "overhead grows with seams"
        );
    }

    #[test]
    fn weak_scaling_is_nearly_flat_when_unthrottled() {
        let m = model();
        for g in [(1usize, 2usize), (1, 4), (1, 8), (1, 16), (2, 2)] {
            let e = m.weak_efficiency(g);
            assert!(e > 0.95 && e <= 1.0 + 1e-12, "{g:?}: {e}");
        }
    }

    #[test]
    fn a_starved_link_rolls_the_farm_over() {
        // Interior boards import 2k = 4 columns × 48 rows × 8 bits =
        // 1536 bits per pass; at 2 bits/tick that is 768 ticks, which
        // overtakes compute once slabs get thin.
        let starved = model().with_link(BitsPerTick::new(2.0));
        let free = model();
        assert_eq!(free.critical_grid(&row(16)), None, "unthrottled never rolls over");
        let (_, crit) = starved.critical_grid(&row(16)).expect("2 bits/tick must roll over");
        assert!(crit > 1, "a single board has no links to starve");
        // Past the critical point, adding boards buys almost nothing.
        let below = starved.updates_per_tick2((1, crit - 1));
        let above = starved.updates_per_tick2((1, crit));
        assert!(above.ratio(below) < 1.5, "{below} → {above}");
        // And the throttled machine is strictly slower than the free one.
        assert!(starved.updates_per_tick2((1, 4)) < free.updates_per_tick2((1, 4)));
    }

    #[test]
    fn periodic_boundary_costs_wrap_rows_and_full_halos() {
        let null = model();
        let torus = model().with_periodic(true);
        assert_eq!(torus.blocks((1, 1))[0].aug_height(torus.wrap(1)), 48 + 4);
        // Edge boards no longer clamp: every board imports 2k columns.
        assert!(torus.halo_bits2((1, 2)).0 > null.halo_bits2((1, 2)).0);
        assert!(torus.redundancy((1, 4)) > null.redundancy((1, 4)));
    }

    #[test]
    fn redundancy_counts_every_seam() {
        let m = model();
        assert!((m.redundancy((1, 1)) - 1.0).abs() < 1e-12);
        // S = 4, k = 2: halo columns = (2+4+4+2) = 12 of 240.
        assert!((m.redundancy((1, 4)) - 252.0 / 240.0).abs() < 1e-12);
    }

    #[test]
    fn a_serialized_pass_is_one_sweep_then_the_exchange() {
        let m = model().with_link(BitsPerTick::new(16.0));
        let g = (1, 4);
        assert!(m.halo_ticks2(g) > Ticks::ZERO);
        assert_eq!(m.pass_ticks2(g), m.compute_ticks2(g) + m.halo_ticks2(g));
        assert!(m.link_demand2(g).0 > BitsPerTick::ZERO);
        // Serialized: the block is one undivided sweep.
        assert_eq!(m.boundary_compute_ticks2(g), Ticks::ZERO);
        assert_eq!(m.interior_compute_ticks2(g), m.compute_ticks2(g));
    }

    #[test]
    fn an_exact_tie_is_the_bandwidth_wall() {
        // Hand-built dyadic balance: rows = 16, cols = 28, S = 2,
        // k = 1, p = 1, D = 8. Each slab is 14 owned + 1 halo columns,
        // so compute = 16·15 + 1·(15 + 1) = 256 ticks, and the seam
        // moves 1 col × 16 rows × 8 bits = 128 bits; at 0.5 bits/tick
        // (exact in binary floating point) that is 128 / 0.5 = 256
        // ticks. halo == compute exactly — the tie must register as
        // the rollover, because from here every retransmit and every
        // further thinning lands on the critical path.
        let m =
            FarmModel::new(Technology::paper_1987(), 16, 28, 1, 1).with_link(BitsPerTick::new(0.5));
        assert_eq!(m.compute_ticks2((1, 2)), Ticks::new(256));
        assert_eq!(m.halo_ticks2((1, 2)), Ticks::new(256));
        assert_eq!(m.critical_grid(&row(2)), Some((1, 2)), "a tie counts as the wall");
        // A link even slightly faster breaks the tie and the wall
        // recedes past S = 2.
        let faster = m.with_link(BitsPerTick::new(0.52));
        assert!(faster.halo_ticks2((1, 2)) < faster.compute_ticks2((1, 2)));
        assert_eq!(faster.critical_grid(&row(2)), None);
        // Unthrottled: a zero-tick exchange is never "the wall", even
        // though 0 >= 0 would claim so for an empty interior.
        assert_eq!(m.with_link(BitsPerTick::UNTHROTTLED).critical_grid(&row(2)), None);
    }

    #[test]
    fn overlap_hides_the_exchange_behind_the_interior() {
        let starved = model().with_link(BitsPerTick::new(2.0));
        let overlapped = starved.with_overlap(true);
        for g in [(1usize, 2usize), (1, 4), (1, 8)] {
            let b = overlapped.boundary_compute_ticks2(g);
            let i = overlapped.interior_compute_ticks2(g);
            let h = overlapped.halo_ticks2(g);
            assert!(b > Ticks::ZERO, "{g:?}: seams mean boundary sweeps");
            assert_eq!(overlapped.pass_ticks2(g), b + i.max(h), "{g:?}");
            // Splitting the sweep refills the pipeline per region, so
            // the phases sum a little over the undivided sweep…
            assert!(b + i >= overlapped.compute_ticks2(g), "{g:?}");
            // …but on a starved link the hidden transfer wins anyway.
            assert!(
                overlapped.pass_ticks2(g) < starved.pass_ticks2(g),
                "{g:?}: {} !< {}",
                overlapped.pass_ticks2(g),
                starved.pass_ticks2(g)
            );
        }
        // The overlapped wall compares halo against the *interior*
        // window only, so it arrives no later than the serialized one.
        let (so, ss) = (overlapped.critical_grid(&row(16)), starved.critical_grid(&row(16)));
        let wall = ss.expect("2 bits/tick rolls the serialized farm over");
        assert!(so.expect("and a fortiori the overlapped race").1 <= wall.1);
        // Seamless single board: nothing to ship, nothing to split.
        assert_eq!(overlapped.boundary_compute_ticks2((1, 1)), Ticks::ZERO);
        assert_eq!(overlapped.pass_ticks2((1, 1)), starved.pass_ticks2((1, 1)));
    }

    #[test]
    fn overlapped_retransmits_are_free_until_the_interior_runs_out() {
        // A lightly throttled link: halo well under the interior sweep.
        let m = model().with_link(BitsPerTick::new(16.0)).with_overlap(true);
        let g = (1, 4);
        let (b, i, h) =
            (m.boundary_compute_ticks2(g), m.interior_compute_ticks2(g), m.halo_ticks2(g));
        assert!(h < i, "setup: transfer hides entirely");
        // One replay still fits inside the interior — no wall-clock
        // cost at all.
        let r_free = (i.to_f64() / h.to_f64() - 1.0) * 0.9;
        assert!(r_free > 1.0);
        assert_eq!(m.pass_ticks_with_retransmits(g, r_free), (b + i).to_f64());
        // Enough replays overrun the window and the excess is exposed
        // tick for tick.
        let r_over = i.to_f64() / h.to_f64() + 1.0;
        let expect = b.to_f64() + h.to_f64() * (1.0 + r_over);
        assert_eq!(m.pass_ticks_with_retransmits(g, r_over), expect);
    }

    #[test]
    fn retransmission_term_extends_pass_ticks() {
        let m = model().with_link(BitsPerTick::new(16.0));
        let g = (1, 4);
        // A clean link adds nothing.
        assert_eq!(m.pass_ticks_with_retransmits(g, 0.0), m.pass_ticks2(g).to_f64());
        assert_eq!(m.frame_upset_prob(g, 0.0), 0.0);
        assert_eq!(m.expected_retransmits_per_pass(g, 0.0), 0.0);
        // One retransmission per pass replays exactly one exchange
        // barrier.
        let extra = m.pass_ticks_with_retransmits(g, 1.0) - m.pass_ticks2(g).to_f64();
        assert_eq!(extra, m.halo_ticks2(g).to_f64());
        // The upset probability grows with the frame (more shards never
        // shrink the hungriest frame here: interior boards appear at
        // S ≥ 3 and import the full 2k columns).
        let q2 = m.frame_upset_prob((1, 2), 1e-3);
        let q4 = m.frame_upset_prob(g, 1e-3);
        assert!(q2 > 0.0 && q4 >= q2, "{q2} vs {q4}");
        // Small rates: expectation ≈ sites·rate (geometric tail ≈ q).
        let sites = m.halo_bits2(g).0.to_f64() / 8.0;
        let e = m.expected_retransmits_per_pass(g, 1e-6);
        assert!((e - sites * 1e-6).abs() / (sites * 1e-6) < 1e-2, "{e}");
        // An unthrottled farm retransmits for free in tick terms.
        assert_eq!(model().pass_ticks_with_retransmits(g, 3.0), model().pass_ticks2(g).to_f64());
    }

    #[test]
    fn degraded_farms_pay_a_bounded_throughput_penalty() {
        let m = model();
        assert_eq!(m.degraded_throughput_penalty(4, 0), 1.0);
        let p1 = m.degraded_throughput_penalty(4, 1);
        let p2 = m.degraded_throughput_penalty(4, 2);
        assert!(p1 > 1.0, "losing a board must cost throughput, got {p1}");
        assert!(p2 > p1, "losing two costs more");
        // Wide slabs: the penalty is close to the naive S/(S−r) head
        // count, a little under it because retired seams stop paying
        // halo recompute.
        assert!(p1 < 4.0 / 3.0 + 1e-9, "{p1}");
        assert!(p1 > 4.0 / 3.0 * 0.9, "{p1}");
    }

    #[test]
    fn single_row_grids_leave_the_inter_tier_idle() {
        for (periodic, overlap) in [(false, false), (true, false), (false, true), (true, true)] {
            let m = model()
                .with_periodic(periodic)
                .with_overlap(overlap)
                .with_link(BitsPerTick::new(16.0));
            for s in [1usize, 2, 4, 8] {
                let g = (1, s);
                assert_eq!(m.halo_bits2(g).1, Bits::ZERO, "S={s}");
                assert_eq!(m.link_demand2(g).1, BitsPerTick::ZERO, "S={s}");
                assert_eq!(m.binding_tier(g), LinkTier::Intra, "S={s}");
                assert_eq!(m.binding_link_demand(g), m.link_demand2(g).0, "S={s}");
            }
        }
    }

    #[test]
    fn grid_tiers_split_the_halo_and_count_corners_once() {
        // 48 × 240 torus on a 2×2 grid, k = 2: every block owns
        // 24 × 120 with depth-2 halos on all four sides and no on-board
        // wrap (the vertical wrap crosses the inter tier). Augmented
        // height 24 + 4 = 28.
        let m = model().with_periodic(true);
        let g = (2, 2);
        let (intra, inter) = m.halo_bits2(g);
        assert_eq!(intra, Bits::new(4 * 28 * 8), "halo cols × aug height, corners included");
        assert_eq!(inter, Bits::new(4 * 120 * 8), "halo rows × owned width, corners excluded");
        // Together the tiers import exactly aug_area − owned_area.
        assert_eq!(
            (intra.get() + inter.get()) / 8,
            28 * 124 - 24 * 120,
            "every imported site crosses exactly one tier"
        );
        // Throttling only the inter-rack wires makes the vertical axis
        // the binding tier, and the pass slows by its transfer.
        let throttled = m.with_tier_link(BitsPerTick::new(1.0));
        assert_eq!(m.binding_tier(g), LinkTier::Intra, "unthrottled ties bind intra");
        assert_eq!(throttled.binding_tier(g), LinkTier::Inter);
        assert_eq!(throttled.halo_ticks2(g), Ticks::new(4 * 120 * 8), "inter frame at 1 bit/tick");
        assert!(throttled.pass_ticks2(g) > m.pass_ticks2(g));
        assert_eq!(throttled.binding_link_demand(g), throttled.link_demand2(g).1);
        // The wall scan finds the first shape the throttled tier paces.
        let shapes = [(1usize, 4usize), (2, 2), (4, 1)];
        assert_eq!(m.critical_grid(&shapes), None, "unthrottled never rolls over");
        assert_eq!(
            throttled.critical_grid(&shapes),
            Some((2, 2)),
            "a single-row grid keeps the throttled tier idle"
        );
    }

    #[test]
    fn critical_grid_scan_skips_torus_layouts_the_farm_rejects() {
        // 12 columns, k = 2 on the torus: (1, S) for S ∈ {7..=11} would
        // leave a block narrower than the halo, which `partition2d`
        // rejects — the scan must skip those, not panic.
        let m = FarmModel::new(Technology::paper_1987(), 16, 12, 1, 2)
            .with_periodic(true)
            .with_link(BitsPerTick::new(0.5));
        let crit = m.critical_grid(&row(12));
        assert!(crit.is_some(), "a 0.5 bits/tick link must roll over");
        let (r, s) = crit.unwrap();
        assert_eq!(r, 1);
        assert!(s <= 6, "rejected layouts cannot be the answer");
        // A scan that reaches the rejected layouts skips them.
        let rejected: Vec<_> = (7..=12).map(|s| (1, s)).collect();
        assert_eq!(m.critical_grid(&rejected), None);
    }

    #[test]
    fn link_budget_admits_until_the_wall_and_ties_count_as_the_wall() {
        let mut b = LinkBudget::new(BitsPerTick::new(100.0));
        assert!(b.try_admit(BitsPerTick::new(40.0)));
        assert!(b.try_admit(BitsPerTick::new(40.0)));
        assert_eq!(b.admitted(), BitsPerTick::new(80.0));
        assert_eq!(b.headroom(), BitsPerTick::new(20.0));
        // Exactly reaching capacity is refused — the tie is the wall,
        // like `critical_grid`'s `>=`.
        assert!(!b.try_admit(BitsPerTick::new(20.0)));
        // A refusal leaves the ledger unchanged.
        assert_eq!(b.admitted(), BitsPerTick::new(80.0));
        // Strictly under the wall still fits.
        assert!(b.try_admit(BitsPerTick::new(19.0)));
        assert!((b.utilization() - 0.99).abs() < 1e-12, "{}", b.utilization());
    }

    #[test]
    fn link_budget_release_restores_headroom() {
        let mut b = LinkBudget::new(BitsPerTick::new(100.0));
        assert!(b.try_admit(BitsPerTick::new(60.0)));
        assert!(!b.try_admit(BitsPerTick::new(50.0)), "60 + 50 > 100");
        b.release(BitsPerTick::new(60.0));
        assert_eq!(b.admitted(), BitsPerTick::ZERO);
        assert!(b.try_admit(BitsPerTick::new(50.0)), "the queue drains after a departure");
        // A stray double-release clamps at zero rather than minting
        // phantom headroom.
        b.release(BitsPerTick::new(50.0));
        b.release(BitsPerTick::new(50.0));
        assert_eq!(b.admitted(), BitsPerTick::ZERO);
        assert_eq!(b.utilization(), 0.0);
    }

    #[test]
    fn link_budget_is_work_conserving_when_empty() {
        // A lone arrival over the wall is still admitted — backpressure
        // bounds aggregate demand, it does not starve the only session.
        let mut b = LinkBudget::new(BitsPerTick::new(10.0));
        assert!(b.would_admit(BitsPerTick::new(500.0)));
        assert!(b.try_admit(BitsPerTick::new(500.0)));
        // But nothing else joins until it departs.
        assert!(!b.try_admit(BitsPerTick::new(1.0)));
        b.release(BitsPerTick::new(500.0));
        assert!(b.try_admit(BitsPerTick::new(1.0)));
    }

    #[test]
    fn link_budget_unthrottled_admits_everything() {
        let mut b = LinkBudget::unthrottled();
        for _ in 0..64 {
            assert!(b.try_admit(BitsPerTick::new(1e9)));
        }
        assert_eq!(b.utilization(), 0.0);
        assert!(b.headroom().is_unthrottled());
    }

    #[test]
    fn link_budget_composes_with_the_model_cost_function() {
        // The scheduler's actual loop: charge each session's
        // `binding_link_demand` until the fleet saturates.
        let m = model();
        let demand = m.binding_link_demand((1, 4));
        assert!(demand > BitsPerTick::ZERO);
        // Capacity for just over two such sessions: the third queues.
        let mut b = LinkBudget::new(demand * 2.5);
        assert!(b.try_admit(demand));
        assert!(b.try_admit(demand));
        assert!(!b.try_admit(demand), "third session must queue at 2.5× capacity");
        b.release(demand);
        assert!(b.try_admit(demand));
    }
}
