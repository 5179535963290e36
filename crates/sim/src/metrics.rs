//! Measured engine figures.

use crate::faults::FaultStats;
use lattice_core::bits::Traffic;
use lattice_core::units::{BitsPerTick, Cells, Hz, Sites, SitesPerSec, SitesPerTick, Ticks};
use lattice_core::{Grid, State};

/// Everything an engine run reports: the computed lattice plus the
/// counted costs — the measured counterparts of the paper's analytical
/// quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport<S: State> {
    /// The lattice after `generations` steps.
    pub grid: Grid<S>,
    /// Generations computed.
    pub generations: u64,
    /// Site updates performed (`generations × sites`).
    pub updates: Sites,
    /// Clock ticks consumed, including pipeline fill and drain.
    pub ticks: Ticks,
    /// Host main-memory traffic (first-stage input + last-stage output).
    pub memory_traffic: Traffic,
    /// Inter-chip pipeline traffic summed over all chips (each chip's
    /// input + output pins).
    pub pin_traffic: Traffic,
    /// SPA side-channel traffic (zero for other engines).
    pub side_traffic: Traffic,
    /// WSA-E external shift-register traffic (zero for other engines).
    pub offchip_sr_traffic: Traffic,
    /// Peak shift-register cells occupied in any single stage.
    pub sr_cells_per_stage: Cells,
    /// Pipeline stages (PE depth).
    pub stages: u32,
    /// PEs per stage.
    pub width: u32,
    /// Fault events injected during this run (all zero when injection is
    /// disabled).
    pub faults: FaultStats,
}

/// An engine run's counted costs without its lattice: what
/// [`crate::Pipeline::kernel_cost`] bills a block kernel's pass, its
/// lattice having gone straight to the caller's row sink.
/// [`EngineCost::with_grid`] and [`EngineReport::cost`] convert between
/// the two.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct EngineCost {
    /// Generations computed.
    pub generations: u64,
    /// Site updates performed (`generations × sites`).
    pub updates: Sites,
    /// Clock ticks consumed, including pipeline fill and drain.
    pub ticks: Ticks,
    /// Host main-memory traffic.
    pub memory_traffic: Traffic,
    /// Inter-chip pipeline traffic summed over all chips.
    pub pin_traffic: Traffic,
    /// SPA side-channel traffic.
    pub side_traffic: Traffic,
    /// WSA-E external shift-register traffic.
    pub offchip_sr_traffic: Traffic,
    /// Peak shift-register cells occupied in any single stage.
    pub sr_cells_per_stage: Cells,
    /// Pipeline stages (PE depth).
    pub stages: u32,
    /// PEs per stage.
    pub width: u32,
    /// Fault events injected during this run.
    pub faults: FaultStats,
}

impl EngineCost {
    /// The full report of a run whose lattice is `grid`.
    pub fn with_grid<S: State>(self, grid: Grid<S>) -> EngineReport<S> {
        EngineReport {
            grid,
            generations: self.generations,
            updates: self.updates,
            ticks: self.ticks,
            memory_traffic: self.memory_traffic,
            pin_traffic: self.pin_traffic,
            side_traffic: self.side_traffic,
            offchip_sr_traffic: self.offchip_sr_traffic,
            sr_cells_per_stage: self.sr_cells_per_stage,
            stages: self.stages,
            width: self.width,
            faults: self.faults,
        }
    }
}

impl<S: State> EngineReport<S> {
    /// The counted costs, without the lattice.
    pub fn cost(&self) -> EngineCost {
        EngineCost {
            generations: self.generations,
            updates: self.updates,
            ticks: self.ticks,
            memory_traffic: self.memory_traffic,
            pin_traffic: self.pin_traffic,
            side_traffic: self.side_traffic,
            offchip_sr_traffic: self.offchip_sr_traffic,
            sr_cells_per_stage: self.sr_cells_per_stage,
            stages: self.stages,
            width: self.width,
            faults: self.faults,
        }
    }

    /// Average site updates per clock tick.
    pub fn updates_per_tick(&self) -> SitesPerTick {
        self.updates / self.ticks
    }

    /// Updates per second at clock `clock`, assuming the memory system
    /// sustains the demanded bandwidth (the paper's §6 "very important
    /// assumption").
    pub fn updates_per_second(&self, clock: Hz) -> SitesPerSec {
        self.updates_per_tick() * clock
    }

    /// Measured main-memory bandwidth demand.
    pub fn memory_bits_per_tick(&self) -> BitsPerTick {
        BitsPerTick::new(self.memory_traffic.bits_per_tick(u128::from(self.ticks.get())))
    }

    /// Folds another report into this one, modeling *parallel
    /// composition*: two engines running side by side on disjoint parts
    /// of one lattice, as in a board-level farm. Counter-like fields add
    /// (`updates`, all traffic channels, fault tallies, `stages` — total
    /// chips in the machine); capacity/latency-like fields take the
    /// maximum (`ticks` — concurrent engines finish when the slowest
    /// does — plus `sr_cells_per_stage`, `width`, and `generations`).
    ///
    /// `self.grid` is left untouched: stitching shard lattices back into
    /// a machine lattice is geometry the caller (e.g. `lattice-farm`)
    /// owns, not arithmetic this fold can do.
    ///
    /// The fold is associative, commutative on every accounted field,
    /// and has the all-zero report as identity (unit-tested), so shard
    /// reports aggregate in any order.
    pub fn merge(&mut self, other: &EngineReport<S>) {
        self.generations = self.generations.max(other.generations);
        self.updates += other.updates;
        self.ticks = self.ticks.max(other.ticks);

        self.memory_traffic.merge(other.memory_traffic);
        self.pin_traffic.merge(other.pin_traffic);
        self.side_traffic.merge(other.side_traffic);
        self.offchip_sr_traffic.merge(other.offchip_sr_traffic);
        self.sr_cells_per_stage = self.sr_cells_per_stage.max(other.sr_cells_per_stage);
        self.stages += other.stages;
        self.width = self.width.max(other.width);
        self.faults.merge(other.faults);
    }

    /// PE utilization: fraction of PE-ticks that performed an update.
    pub fn utilization(&self) -> f64 {
        let pe_ticks = self.ticks.to_f64() * f64::from(self.stages) * f64::from(self.width);
        if pe_ticks == 0.0 {
            0.0
        } else {
            self.updates.to_f64() / pe_ticks
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lattice_core::Shape;

    fn report() -> EngineReport<u8> {
        let mut memory_traffic = Traffic::new();
        memory_traffic.record_in(100, 8);
        memory_traffic.record_out(100, 8);
        EngineReport {
            grid: Grid::new(Shape::grid2(10, 10).unwrap()),
            generations: 2,
            updates: Sites::new(200),
            ticks: Ticks::new(120),
            memory_traffic,
            pin_traffic: Traffic::new(),
            side_traffic: Traffic::new(),
            offchip_sr_traffic: Traffic::new(),
            sr_cells_per_stage: Cells::new(23),
            stages: 2,
            width: 1,
            faults: FaultStats::default(),
        }
    }

    #[test]
    fn derived_rates() {
        let r = report();
        assert!((r.updates_per_tick().get() - 200.0 / 120.0).abs() < 1e-12);
        assert!((r.updates_per_second(Hz::new(10e6)).get() - 200.0 / 120.0 * 10e6).abs() < 1e-3);
        assert!((r.memory_bits_per_tick().get() - 1600.0 / 120.0).abs() < 1e-12);
        assert!((r.utilization() - 200.0 / 240.0).abs() < 1e-12);
    }

    /// The accounted fields of a report as one comparable tuple (the
    /// grid is excluded by [`EngineReport::merge`]'s contract).
    #[allow(clippy::type_complexity)]
    fn accounting(
        r: &EngineReport<u8>,
    ) -> (u64, Sites, Ticks, Traffic, Traffic, Traffic, Traffic, Cells, u32, u32, FaultStats) {
        (
            r.generations,
            r.updates,
            r.ticks,
            r.memory_traffic,
            r.pin_traffic,
            r.side_traffic,
            r.offchip_sr_traffic,
            r.sr_cells_per_stage,
            r.stages,
            r.width,
            r.faults,
        )
    }

    fn shard_report(seed: u64) -> EngineReport<u8> {
        let mut r = report();
        r.updates = Sites::new(100 * seed);
        r.ticks = Ticks::new(60 + seed);
        r.sr_cells_per_stage = Cells::new(10 + seed);
        r.generations = seed;
        r.width = u32::try_from(seed).unwrap();
        r.memory_traffic.record_in(u128::from(seed), 8);
        r.faults.sr_cell = seed;
        r
    }

    #[test]
    fn merge_identity() {
        let zero = EngineReport {
            grid: Grid::new(Shape::grid2(1, 1).unwrap()),
            generations: 0,
            updates: Sites::ZERO,
            ticks: Ticks::ZERO,
            memory_traffic: Traffic::new(),
            pin_traffic: Traffic::new(),
            side_traffic: Traffic::new(),
            offchip_sr_traffic: Traffic::new(),
            sr_cells_per_stage: Cells::ZERO,
            stages: 0,
            width: 0,
            faults: FaultStats::default(),
        };
        let mut left = report();
        left.merge(&zero);
        assert_eq!(accounting(&left), accounting(&report()), "right identity");
        let mut right = zero.clone();
        right.merge(&report());
        assert_eq!(accounting(&right), accounting(&report()), "left identity");
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (shard_report(2), shard_report(5), shard_report(9));
        // (a ⊕ b) ⊕ c
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(accounting(&ab_c), accounting(&a_bc), "associativity");
        // b ⊕ a
        let mut ba = b.clone();
        ba.merge(&a);
        let mut ab2 = a.clone();
        ab2.merge(&b);
        assert_eq!(accounting(&ab2), accounting(&ba), "commutativity");
    }

    #[test]
    fn merged_utilization_is_the_machine_average() {
        // Two identical shards: same ticks, double the updates and
        // chips — identical utilization and updates/tick per engine,
        // doubled machine throughput.
        let a = report();
        let mut m = a.clone();
        m.merge(&a);
        assert_eq!(m.updates, a.updates * 2);
        assert_eq!(m.ticks, a.ticks);
        assert_eq!(m.stages, 2 * a.stages);
        assert!((m.utilization() - a.utilization()).abs() < 1e-12);
        assert!((m.updates_per_tick().get() - 2.0 * a.updates_per_tick().get()).abs() < 1e-12);
    }

    #[test]
    fn zero_tick_report_is_safe() {
        let mut r = report();
        r.ticks = Ticks::ZERO;
        r.stages = 0;
        assert_eq!(r.updates_per_tick(), SitesPerTick::ZERO);
        assert_eq!(r.utilization(), 0.0);
    }
}
