//! Deterministic hardware fault injection for the engine simulators.
//!
//! A VLSI engine streaming "huge lattices" (§2) for hours at a 10 MHz
//! clock is a large soft-error cross-section: every shift-register cell,
//! PE output latch, inter-chip link, and off-chip register is a place a
//! bit can flip. This module models those upsets so the detection layers
//! ([`lattice_core::bits::StreamParity`] on the links, the conservation
//! audit in `lattice-gas`) and the host's checkpoint/rollback recovery
//! can be exercised and measured.
//!
//! Everything is deterministic. A [`FaultPlan`] is a seed plus a list of
//! [`Fault`]s naming hardware sites by ([`Component`], chip, cell).
//! Transient faults fire when a hash of
//! `(seed, pass, attempt, component, chip, cell, position, fault-index)`
//! falls below the configured rate — so the sequential and threaded
//! drivers, which present the identical stream positions to each chip,
//! inject identically; and a retry after rollback (which bumps
//! `attempt`) sees a fresh, independent draw, exactly like re-running
//! real hardware. Stuck-at faults ignore `attempt`: they are permanent
//! silicon defects, and retrying cannot clear them — only taking the
//! chip out of service can (see `HostSystem::run_with_recovery`).
//!
//! Every event that actually alters data is counted into the plan's
//! atomic tallies and surfaced per run as [`FaultStats`] in
//! `EngineReport::faults`.

use lattice_core::State;
use std::sync::atomic::{AtomicU64, Ordering};

/// The classes of hardware sites faults can be injected into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// A shift-register cell in a line-buffer stage (named by ring cell).
    SrCell,
    /// The output latch of a stage's PE array.
    PeOutput,
    /// The inter-chip link carrying a stage's output stream.
    Link,
    /// The SPA side channel importing halo sites from a neighbor slice.
    SideChannel,
    /// A WSA-E off-chip shift-register cell (ring cells past the on-chip
    /// capacity).
    OffchipSr,
}

const N_COMPONENTS: usize = 5;

impl Component {
    fn index(self) -> usize {
        match self {
            Component::SrCell => 0,
            Component::PeOutput => 1,
            Component::Link => 2,
            Component::SideChannel => 3,
            Component::OffchipSr => 4,
        }
    }

    /// Human-readable site-class name.
    pub fn name(self) -> &'static str {
        match self {
            Component::SrCell => "shift-register cell",
            Component::PeOutput => "PE output",
            Component::Link => "inter-chip link",
            Component::SideChannel => "side channel",
            Component::OffchipSr => "off-chip shift register",
        }
    }
}

/// How a fault corrupts the datum at its site.
#[derive(Debug, Clone, Copy)]
pub enum FaultKind {
    /// Permanent defect: the named bit reads as `value` on every access.
    StuckAt {
        /// Bit position within the site word.
        bit: u32,
        /// The level the bit is stuck at.
        value: bool,
    },
    /// Soft error: the named bit flips with probability `rate` per datum
    /// passing through the site, drawn deterministically from the plan's
    /// seed, the pass/attempt epoch, and the stream position.
    Transient {
        /// Bit position within the site word.
        bit: u32,
        /// Per-datum flip probability in `[0, 1]`.
        rate: f64,
    },
}

/// One fault bound to a hardware site.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Which site class the fault lives in.
    pub component: Component,
    /// Physical chip (stage) the fault is on; `None` afflicts every chip.
    pub chip: Option<usize>,
    /// Ring cell within the chip (for [`Component::SrCell`] /
    /// [`Component::OffchipSr`]); `None` afflicts every cell.
    pub cell: Option<usize>,
    /// The defect itself.
    pub kind: FaultKind,
}

impl Fault {
    /// Whether the fault can fire on physical chip `chip`: a fault with
    /// no chip afflicts every chip. The one chip filter of
    /// [`FaultCtx::stream`] and [`FaultPlan::spares`].
    fn reaches(&self, chip: usize) -> bool {
        self.chip.is_none_or(|c| c == chip)
    }

    /// Whether the fault sits at hardware site (`component`, `chip`,
    /// `cell`).
    fn sits_at(&self, component: Component, chip: usize, cell: usize) -> bool {
        self.component == component && self.reaches(chip) && self.cell.is_none_or(|c| c == cell)
    }
}

/// Injected-event tallies, by site class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Events in shift-register cells.
    pub sr_cell: u64,
    /// Events in PE output latches.
    pub pe_output: u64,
    /// Events on inter-chip links.
    pub link: u64,
    /// Events on SPA side channels.
    pub side_channel: u64,
    /// Events in off-chip shift registers.
    pub offchip_sr: u64,
}

impl FaultStats {
    /// Total injected events.
    pub fn total(&self) -> u64 {
        self.sr_cell + self.pe_output + self.link + self.side_channel + self.offchip_sr
    }

    /// Events recorded since an `earlier` snapshot of the same plan.
    pub fn since(&self, earlier: FaultStats) -> FaultStats {
        FaultStats {
            sr_cell: self.sr_cell - earlier.sr_cell,
            pe_output: self.pe_output - earlier.pe_output,
            link: self.link - earlier.link,
            side_channel: self.side_channel - earlier.side_channel,
            offchip_sr: self.offchip_sr - earlier.offchip_sr,
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: FaultStats) {
        self.sr_cell += other.sr_cell;
        self.pe_output += other.pe_output;
        self.link += other.link;
        self.side_channel += other.side_channel;
        self.offchip_sr += other.offchip_sr;
    }
}

/// A seeded set of faults plus the atomic event tallies.
///
/// The plan is shared (by reference) across passes, retries, and stage
/// worker threads; the tallies are cumulative over its lifetime. Engines
/// snapshot [`FaultPlan::stats`] before and after a run to report the
/// run's own delta.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Seed feeding every transient-fault draw.
    pub seed: u64,
    faults: Vec<Fault>,
    counts: [AtomicU64; N_COMPONENTS],
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Adds a fault (builder style).
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// Adds a fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// The configured faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// True if the plan has no faults to inject.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// True if no fault in the plan can fire on any of `chips`. An
    /// engine driving only spared chips computes exactly what a
    /// fault-free engine does: a transient is a stateless hash of its
    /// site and epoch, and only a word-changing event is counted, so the
    /// run's lattice, ticks, traffic and (zero) fault tally are the
    /// fault-free run's.
    pub fn spares(&self, chips: &[usize]) -> bool {
        !self.faults.iter().any(|f| chips.iter().any(|&c| f.reaches(c)))
    }

    /// Snapshot of the cumulative event tallies.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            sr_cell: self.counts[0].load(Ordering::Relaxed),
            pe_output: self.counts[1].load(Ordering::Relaxed),
            link: self.counts[2].load(Ordering::Relaxed),
            side_channel: self.counts[3].load(Ordering::Relaxed),
            offchip_sr: self.counts[4].load(Ordering::Relaxed),
        }
    }

    fn count(&self, component: Component) {
        self.counts[component.index()].fetch_add(1, Ordering::Relaxed);
    }
}

/// SplitMix64 finalizer: the bit mixer behind every transient draw.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn hash(parts: &[u64]) -> u64 {
    parts.iter().fold(0x243f6a8885a308d3, |h, &v| mix(h ^ v))
}

/// A plan bound to one recovery epoch: the logical pass number and the
/// retry attempt. Copyable, `Sync`, and cheap to hand to stage workers.
#[derive(Debug, Clone, Copy)]
pub struct FaultCtx<'p> {
    /// The shared plan.
    pub plan: &'p FaultPlan,
    /// Logical pass number (monotonic over a host run).
    pub pass: u64,
    /// Retry attempt; bumped by every rollback, re-seeding transients.
    pub attempt: u64,
}

impl<'p> FaultCtx<'p> {
    /// A context for the first pass, first attempt.
    pub fn new(plan: &'p FaultPlan) -> Self {
        FaultCtx { plan, pass: 0, attempt: 0 }
    }

    /// A context at a given recovery epoch.
    pub fn at(plan: &'p FaultPlan, pass: u64, attempt: u64) -> Self {
        FaultCtx { plan, pass, attempt }
    }

    /// A context for one shard (board) of a multi-engine farm at a given
    /// recovery epoch. The shard id is folded into the high bits of the
    /// attempt word, so two boards sharing one [`FaultPlan`] never draw
    /// identical transient patterns from the same `(seed, pass, attempt)`
    /// tuple — distinct silicon sees independent soft-error weather.
    /// Shard 0 is bit-compatible with [`FaultCtx::at`] for attempts below
    /// `2^32` (a rollback budget no real run exhausts).
    pub fn for_shard(plan: &'p FaultPlan, shard: u64, pass: u64, attempt: u64) -> Self {
        FaultCtx { plan, pass, attempt: (shard << 32) | (attempt & 0xffff_ffff) }
    }

    /// The fault weather of one hardware site, (`component`, `chip`,
    /// `cell`), over a run of stream positions: a link frame or a
    /// stage's output stream. The hash words the site's draws share
    /// are folded once here, so each position costs only its own.
    pub fn stream(&self, component: Component, chip: usize, cell: usize) -> FaultStream<'p> {
        let live = self.plan.faults.iter().any(|f| f.sits_at(component, chip, cell));
        let prefix = if live {
            hash(&[
                self.plan.seed,
                self.pass,
                self.attempt,
                component.index() as u64,
                chip as u64,
                cell as u64,
            ])
        } else {
            0
        };
        FaultStream { plan: self.plan, component, chip, cell, live, prefix }
    }

    /// Applies every matching fault to a `bits`-bit `word` passing
    /// through (`component`, `chip`, `cell`) at stream position `pos`,
    /// counting each event that alters the word: a one-site
    /// [`FaultCtx::stream`].
    pub fn corrupt(
        &self,
        component: Component,
        chip: usize,
        cell: usize,
        pos: u64,
        bits: u32,
        word: u64,
    ) -> u64 {
        self.stream(component, chip, cell).corrupt(pos, bits, word)
    }

    /// [`FaultCtx::corrupt`] over a typed site state.
    pub fn corrupt_site<S: State>(
        &self,
        component: Component,
        chip: usize,
        cell: usize,
        pos: u64,
        site: S,
    ) -> S {
        self.stream(component, chip, cell).corrupt_site(pos, site)
    }
}

/// One hardware site's fault weather ([`FaultCtx::stream`]): the
/// transient hash of `(seed, pass, attempt, component, chip, cell,
/// position, fault-index)` with its first six words already folded.
#[derive(Debug, Clone, Copy)]
pub struct FaultStream<'p> {
    plan: &'p FaultPlan,
    component: Component,
    chip: usize,
    cell: usize,
    /// Whether any fault of the plan sits at this site.
    live: bool,
    /// The hash fold of the site's first six words.
    prefix: u64,
}

impl FaultStream<'_> {
    /// Whether any fault of the plan sits at this site. A stream that
    /// is not live passes every word through unchanged.
    pub fn is_live(&self) -> bool {
        self.live
    }

    /// Applies every fault at this site to a `bits`-bit `word` at
    /// stream position `pos`, counting each event that alters the word.
    pub fn corrupt(&self, pos: u64, bits: u32, word: u64) -> u64 {
        if !self.live {
            return word;
        }
        let mut w = word;
        let mut at_pos = None;
        for (i, f) in self.plan.faults.iter().enumerate() {
            if !f.sits_at(self.component, self.chip, self.cell) {
                continue;
            }
            match f.kind {
                FaultKind::StuckAt { bit, value } => {
                    if bit >= bits {
                        continue;
                    }
                    let m = 1u64 << bit;
                    let stuck = if value { w | m } else { w & !m };
                    if stuck != w {
                        w = stuck;
                        self.plan.count(self.component);
                    }
                }
                FaultKind::Transient { bit, rate } => {
                    if bit >= bits || rate <= 0.0 {
                        continue;
                    }
                    let h = mix(*at_pos.get_or_insert_with(|| mix(self.prefix ^ pos)) ^ i as u64);
                    // 53-bit uniform in [0, 1).
                    if ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate {
                        w ^= 1u64 << bit;
                        self.plan.count(self.component);
                    }
                }
            }
        }
        w
    }

    /// [`FaultStream::corrupt`] over a typed site state.
    pub fn corrupt_site<S: State>(&self, pos: u64, site: S) -> S {
        if !self.live {
            return site;
        }
        S::from_word(self.corrupt(pos, S::BITS, site.to_word()))
    }
}

/// A fault context wired to one physical chip — what a
/// [`crate::stage::LineBufferStage`] carries.
#[derive(Debug, Clone, Copy)]
pub struct FaultHook<'p> {
    /// The epoch-bound plan.
    pub ctx: FaultCtx<'p>,
    /// This stage's physical chip id (stable across degraded-mode
    /// remapping, so stuck-at faults follow the silicon).
    pub chip: usize,
    /// Ring cells at or past this index live in external shift registers
    /// (WSA-E); `None` keeps the whole ring on chip.
    pub offchip_from: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sr_transient(rate: f64) -> Fault {
        Fault {
            component: Component::SrCell,
            chip: Some(1),
            cell: None,
            kind: FaultKind::Transient { bit: 2, rate },
        }
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = FaultPlan::new(7);
        let ctx = FaultCtx::new(&plan);
        for pos in 0..100 {
            assert_eq!(ctx.corrupt_site(Component::SrCell, 0, 0, pos, 0xabu8), 0xab);
        }
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn stuck_at_fires_only_when_it_changes_data() {
        let plan = FaultPlan::new(0).with_fault(Fault {
            component: Component::PeOutput,
            chip: Some(0),
            cell: None,
            kind: FaultKind::StuckAt { bit: 0, value: true },
        });
        let ctx = FaultCtx::new(&plan);
        assert_eq!(ctx.corrupt_site(Component::PeOutput, 0, 0, 0, 0b10u8), 0b11);
        assert_eq!(ctx.corrupt_site(Component::PeOutput, 0, 0, 1, 0b11u8), 0b11);
        // Wrong chip and wrong component are untouched.
        assert_eq!(ctx.corrupt_site(Component::PeOutput, 1, 0, 2, 0b10u8), 0b10);
        assert_eq!(ctx.corrupt_site(Component::Link, 0, 0, 3, 0b10u8), 0b10);
        assert_eq!(plan.stats().pe_output, 1);
        assert_eq!(plan.stats().total(), 1);
    }

    #[test]
    fn transients_are_deterministic_and_reseeded_by_attempt() {
        let plan = FaultPlan::new(42).with_fault(sr_transient(0.2));
        let a = FaultCtx::at(&plan, 3, 0);
        let b = FaultCtx::at(&plan, 3, 0);
        let flips_a: Vec<u64> =
            (0..200).filter(|&p| a.corrupt(Component::SrCell, 1, 0, p, 8, 0) != 0).collect();
        let flips_b: Vec<u64> =
            (0..200).filter(|&p| b.corrupt(Component::SrCell, 1, 0, p, 8, 0) != 0).collect();
        assert_eq!(flips_a, flips_b, "same epoch, same draws");
        assert!(!flips_a.is_empty(), "rate 0.2 over 200 draws fires");

        let retry = FaultCtx::at(&plan, 3, 1);
        let flips_r: Vec<u64> =
            (0..200).filter(|&p| retry.corrupt(Component::SrCell, 1, 0, p, 8, 0) != 0).collect();
        assert_ne!(flips_a, flips_r, "a retry draws a fresh pattern");
    }

    #[test]
    fn shard_contexts_draw_independent_patterns() {
        let plan = FaultPlan::new(42).with_fault(sr_transient(0.2));
        let flips = |ctx: FaultCtx<'_>| -> Vec<u64> {
            (0..200).filter(|&p| ctx.corrupt(Component::SrCell, 1, 0, p, 8, 0) != 0).collect()
        };
        let s0 = flips(FaultCtx::for_shard(&plan, 0, 3, 1));
        let s1 = flips(FaultCtx::for_shard(&plan, 1, 3, 1));
        assert_ne!(s0, s1, "two shards at the same (pass, attempt) must differ");
        // Shard 0 is the plain single-engine epoch.
        assert_eq!(s0, flips(FaultCtx::at(&plan, 3, 1)));
        // Deterministic per shard.
        assert_eq!(s1, flips(FaultCtx::for_shard(&plan, 1, 3, 1)));
        // A rollback on one shard re-draws that shard only.
        let s1_retry = flips(FaultCtx::for_shard(&plan, 1, 3, 2));
        assert_ne!(s1, s1_retry);
    }

    #[test]
    fn rate_bounds_behave() {
        let never = FaultPlan::new(1).with_fault(sr_transient(0.0));
        let always = FaultPlan::new(1).with_fault(sr_transient(1.0));
        let nc = FaultCtx::new(&never);
        let ac = FaultCtx::new(&always);
        for p in 0..64 {
            assert_eq!(nc.corrupt(Component::SrCell, 1, 0, p, 8, 0), 0);
            assert_eq!(ac.corrupt(Component::SrCell, 1, 0, p, 8, 0), 0b100);
        }
        assert_eq!(never.stats().total(), 0);
        assert_eq!(always.stats().sr_cell, 64);
    }

    #[test]
    fn out_of_range_bits_never_fire() {
        let plan = FaultPlan::new(5).with_fault(Fault {
            component: Component::Link,
            chip: None,
            cell: None,
            kind: FaultKind::Transient { bit: 9, rate: 1.0 },
        });
        let ctx = FaultCtx::new(&plan);
        // u8 sites: bit 9 does not exist in the datapath.
        assert_eq!(ctx.corrupt_site(Component::Link, 0, 0, 0, 0u8), 0);
        assert_eq!(plan.stats().total(), 0);
    }

    #[test]
    fn cell_scoping_hits_only_the_named_register() {
        let plan = FaultPlan::new(9).with_fault(Fault {
            component: Component::SrCell,
            chip: None,
            cell: Some(5),
            kind: FaultKind::StuckAt { bit: 1, value: true },
        });
        let ctx = FaultCtx::new(&plan);
        assert_eq!(ctx.corrupt(Component::SrCell, 0, 5, 0, 8, 0), 0b10);
        assert_eq!(ctx.corrupt(Component::SrCell, 0, 4, 1, 8, 0), 0);
    }

    #[test]
    fn spares_follows_the_corrupt_chip_filter() {
        let on = |chip| Fault {
            component: Component::SrCell,
            chip,
            cell: None,
            kind: FaultKind::Transient { bit: 0, rate: 1.0 },
        };
        assert!(FaultPlan::new(1).spares(&[0, 1, 2]));
        let plan = FaultPlan::new(1).with_fault(on(Some(4)));
        assert!(plan.spares(&[0, 1, 2, 3]) && plan.spares(&[5, 6]));
        assert!(!plan.spares(&[3, 4]));
        assert!(!FaultPlan::new(1).with_fault(on(None)).spares(&[9]));
        // `spares` agrees with what `corrupt` actually does on each chip.
        let ctx = FaultCtx::new(&plan);
        for chip in 0..8 {
            let fired = ctx.corrupt(Component::SrCell, chip, 0, 0, 8, 0) != 0;
            assert_eq!(fired, !plan.spares(&[chip]), "chip {chip}");
        }
    }

    #[test]
    fn observed_rate_tracks_configured_rate() {
        let plan = FaultPlan::new(77).with_fault(sr_transient(0.1));
        let ctx = FaultCtx::new(&plan);
        let n = 20_000u64;
        let fired = (0..n).filter(|&p| ctx.corrupt(Component::SrCell, 1, 0, p, 8, 0) != 0).count();
        let observed = fired as f64 / n as f64;
        assert!((0.08..=0.12).contains(&observed), "observed {observed}");
    }

    /// The per-site draw as first written: every fault's full
    /// eight-word hash, re-folded at every position.
    fn corrupt_per_site(
        ctx: &FaultCtx<'_>,
        site: (Component, usize, usize),
        pos: u64,
        bits: u32,
        word: u64,
    ) -> u64 {
        let (component, chip, cell) = site;
        let mut w = word;
        for (i, f) in ctx.plan.faults.iter().enumerate() {
            if f.component != component || !f.reaches(chip) || f.cell.is_some_and(|c| c != cell) {
                continue;
            }
            match f.kind {
                FaultKind::StuckAt { bit, value } if bit < bits => {
                    let m = 1u64 << bit;
                    let stuck = if value { w | m } else { w & !m };
                    if stuck != w {
                        w = stuck;
                        ctx.plan.count(component);
                    }
                }
                FaultKind::Transient { bit, rate } if bit < bits && rate > 0.0 => {
                    let h = hash(&[
                        ctx.plan.seed,
                        ctx.pass,
                        ctx.attempt,
                        component.index() as u64,
                        chip as u64,
                        cell as u64,
                        pos,
                        i as u64,
                    ]);
                    if ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate {
                        w ^= 1u64 << bit;
                        ctx.plan.count(component);
                    }
                }
                _ => {}
            }
        }
        w
    }

    const COMPONENTS: [Component; N_COMPONENTS] = [
        Component::SrCell,
        Component::PeOutput,
        Component::Link,
        Component::SideChannel,
        Component::OffchipSr,
    ];

    /// A fault from six draws: component, chip (`None` at 4), cell
    /// (`None` at 3), stuck-at or transient, bit, and rate or level.
    fn fault_from(d: (usize, usize, usize, bool, u32, f64)) -> Fault {
        let (component, chip, cell, stuck, bit, x) = d;
        Fault {
            component: COMPONENTS[component],
            chip: (chip < 4).then_some(chip),
            cell: (cell < 3).then_some(cell),
            kind: if stuck {
                FaultKind::StuckAt { bit, value: x < 0.5 }
            } else {
                FaultKind::Transient { bit, rate: x }
            },
        }
    }

    fn fault_draw() -> impl Strategy<Value = (usize, usize, usize, bool, u32, f64)> {
        (0usize..N_COMPONENTS, 0usize..=4, 0usize..=3, any::<bool>(), 0u32..20, 0f64..1.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A stream cursor draws exactly what `corrupt` and the
        /// per-site eight-word hash draw, position by position, and
        /// counts the same events.
        #[test]
        fn a_stream_equals_corrupt_site_by_site(
            draws in proptest::collection::vec(fault_draw(), 0..6),
            seed in any::<u64>(),
            epoch in (0u64..4, 0u64..4, 0u64..3),
            site in (0usize..N_COMPONENTS, 0usize..4, 0usize..3),
            start in any::<u32>(),
            len in 1usize..200,
            bits in prop_oneof![Just(1u32), Just(4), Just(8), Just(16)],
            words in any::<u64>(),
        ) {
            let plans: Vec<FaultPlan> = (0..3)
                .map(|_| {
                    let mut plan = FaultPlan::new(seed);
                    draws.iter().for_each(|&d| plan.push(fault_from(d)));
                    plan
                })
                .collect();
            let ctxs: Vec<FaultCtx<'_>> =
                plans.iter().map(|p| FaultCtx::for_shard(p, epoch.2, epoch.0, epoch.1)).collect();
            let site = (COMPONENTS[site.0], site.1, site.2);
            let stream = ctxs[0].stream(site.0, site.1, site.2);
            for j in 0..len {
                let pos = u64::from(start) + j as u64;
                let word = words.rotate_left(j as u32) & ((1u64 << bits) - 1);
                let streamed = stream.corrupt(pos, bits, word);
                prop_assert_eq!(streamed, ctxs[1].corrupt(site.0, site.1, site.2, pos, bits, word));
                prop_assert_eq!(streamed, corrupt_per_site(&ctxs[2], site, pos, bits, word));
            }
            prop_assert_eq!(plans[0].stats(), plans[1].stats());
            prop_assert_eq!(plans[0].stats(), plans[2].stats());
        }
    }
}
