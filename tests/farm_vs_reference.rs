//! Board-farm acceptance: a sharded, halo-exchanging, link-throttled
//! farm must be indistinguishable — bit for bit — from the reference
//! engine, for HPP and coordinate-dependent FHP, on the null boundary
//! and the torus, for shard counts that do and do not divide the
//! lattice width; and its measured machine accounting must track the
//! analytical links-per-board model.

use lattice_engines::core::units::BitsPerTick;
use lattice_engines::core::{evolve, Boundary, Grid, Rule, Shape, Window};
use lattice_engines::farm::{
    BoardLink, FarmDegradeConfig, FarmRecoveryConfig, LatticeFarm, ShardEngine,
};
use lattice_engines::gas::observe::Model;
use lattice_engines::gas::{init, AuditMode, ConservationAudit, FhpRule, FhpVariant, HppRule};
use lattice_engines::serve::{
    build_farm, fault_plan, recovery_config, seed_grid, FaultSpec, SessionSpec,
};
use lattice_engines::sim::{Component, Fault, FaultKind, FaultPlan};
use lattice_engines::vlsi::{FarmModel, Technology};
use proptest::prelude::*;

/// Acceptance matrix: S ∈ {1, 2, 3, 4} × {HPP, FHP} on the null
/// boundary, with a shard count (3) that does not divide the width.
#[test]
fn farm_bit_exact_for_small_shard_counts_hpp_and_fhp() {
    let shape = Shape::grid2(14, 26).unwrap();
    let hpp_grid = init::random_hpp(shape, 0.4, 11).unwrap();
    let hpp = HppRule::new();
    let hpp_ref = evolve(&hpp_grid, &hpp, Boundary::null(), 0, 5);
    let fhp_grid = init::random_fhp(shape, FhpVariant::III, 0.35, 23, false).unwrap();
    let fhp = FhpRule::new(FhpVariant::III, 17);
    let fhp_ref = evolve(&fhp_grid, &fhp, Boundary::null(), 0, 5);
    for shards in 1..=4usize {
        let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: 2 }, 2);
        let h = farm.run(&hpp, &hpp_grid, 0, 5).unwrap();
        assert_eq!(h.grid(), &hpp_ref, "HPP S={shards}");
        let f = farm.run(&fhp, &fhp_grid, 0, 5).unwrap();
        assert_eq!(f.grid(), &fhp_ref, "FHP S={shards}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Arbitrary geometry, shard count (including non-dividing), pass
    /// depth, engine width, and start time: WSA boards, HPP, null
    /// boundary.
    #[test]
    fn farmed_wsa_hpp_matches_reference(
        rows in 2usize..12,
        cols in 3usize..24,
        shards in 1usize..6,
        width in 1usize..4,
        depth in 1usize..4,
        gens in 0u64..7,
        t0 in 0u64..5,
        density in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        // Every seam-bearing slab must be at least `depth` columns wide
        // (the farm rejects narrower splits with a structured error;
        // that rejection has its own regression tests).
        prop_assume!(shards <= cols && cols / shards >= depth);
        let shape = Shape::grid2(rows, cols).unwrap();
        let grid = init::random_hpp(shape, density, seed).unwrap();
        let rule = HppRule::new();
        let reference = evolve(&grid, &rule, Boundary::null(), t0, gens);
        let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width }, depth);
        let report = farm.run(&rule, &grid, t0, gens).unwrap();
        prop_assert_eq!(report.grid(), &reference);
    }

    /// FHP's chirality hash keys on global (row, col, t): farmed SPA
    /// boards must present true coordinates across every slab seam.
    #[test]
    fn farmed_spa_fhp_matches_reference(
        rows in 2usize..10,
        cols in 3usize..20,
        shards in 1usize..5,
        depth in 1usize..4,
        gens in 1u64..6,
        density in 0.05f64..0.95,
        seed in any::<u64>(),
        variant in prop_oneof![
            Just(FhpVariant::I), Just(FhpVariant::II), Just(FhpVariant::III)
        ],
    ) {
        prop_assume!(shards <= cols && cols / shards >= depth);
        let shape = Shape::grid2(rows, cols).unwrap();
        let grid = init::random_fhp(shape, variant, density, seed, false).unwrap();
        let rule = FhpRule::new(variant, seed ^ 0x5eed);
        let reference = evolve(&grid, &rule, Boundary::null(), 0, gens);
        let farm = LatticeFarm::new(shards, ShardEngine::Spa { slice_width: 1 }, depth);
        let report = farm.run(&rule, &grid, 0, gens).unwrap();
        prop_assert_eq!(report.grid(), &reference);
    }

    /// Torus: halos wrap around the seam between the last and first
    /// boards, and FHP needs the wrapped rule and even rows.
    #[test]
    fn farmed_periodic_fhp_matches_reference(
        half_rows in 1usize..5,
        cols in 3usize..18,
        shards in 1usize..5,
        depth in 1usize..3,
        gens in 1u64..5,
        density in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        prop_assume!(shards <= cols && cols / shards >= depth);
        let rows = 2 * half_rows;
        let shape = Shape::grid2(rows, cols).unwrap();
        let grid = init::random_fhp(shape, FhpVariant::I, density, seed, true).unwrap();
        let rule = FhpRule::new(FhpVariant::I, seed ^ 0x70f5).with_wrap(rows, cols);
        let reference = evolve(&grid, &rule, Boundary::Periodic, 0, gens);
        let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: 2 }, depth)
            .with_periodic(true);
        let report = farm.run(&rule, &grid, 0, gens).unwrap();
        prop_assert_eq!(report.grid(), &reference);
    }

    /// Link bandwidth changes machine time, never lattice contents, and
    /// the throttled run's halo time is exactly the closed form.
    #[test]
    fn link_bandwidth_never_changes_results(
        shards in 2usize..5,
        bits in 1u32..64,
        seed in any::<u64>(),
    ) {
        let shape = Shape::grid2(10, 21).unwrap();
        let grid = init::random_hpp(shape, 0.4, seed).unwrap();
        let rule = HppRule::new();
        let free = LatticeFarm::new(shards, ShardEngine::Wsa { width: 2 }, 2);
        let slow = free.with_link(BoardLink::new(bits as f64));
        let a = free.run(&rule, &grid, 0, 4).unwrap();
        let b = slow.run(&rule, &grid, 0, 4).unwrap();
        prop_assert_eq!(a.grid(), b.grid());
        prop_assert_eq!(a.machine.ticks, b.machine.ticks);
        prop_assert!(b.halo_ticks >= a.halo_ticks);
    }

    /// Overlapped exchange is a pure scheduling change: for arbitrary
    /// geometry, shard count, pass depth, boundary, start time, and
    /// link bandwidth, the overlapped farm's lattice equals both the
    /// serialized farm's and the single-engine reference, and it never
    /// claims to have hidden more link time than the wire spent.
    #[test]
    fn overlapped_farm_matches_serialized_and_reference(
        rows in 2usize..12,
        cols in 4usize..24,
        shards in 1usize..6,
        depth in 1usize..4,
        gens in 0u64..9,
        t0 in 0u64..4,
        periodic in any::<bool>(),
        bits in prop_oneof![Just(None), (1u32..32).prop_map(Some)],
        density in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        prop_assume!(shards <= cols && cols / shards >= depth);
        let shape = Shape::grid2(rows, cols).unwrap();
        let grid = init::random_hpp(shape, density, seed).unwrap();
        let rule = HppRule::new();
        let boundary = if periodic { Boundary::Periodic } else { Boundary::null() };
        let reference = evolve(&grid, &rule, boundary, t0, gens);
        let mut farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: 2 }, depth)
            .with_periodic(periodic);
        if let Some(b) = bits {
            farm = farm.with_link(BoardLink::new(b as f64));
        }
        let serial = farm.run(&rule, &grid, t0, gens).unwrap();
        let overlap = farm.with_overlap(true).run(&rule, &grid, t0, gens).unwrap();
        prop_assert_eq!(serial.grid(), &reference);
        prop_assert_eq!(overlap.grid(), &reference);
        prop_assert!(overlap.overlapped_ticks <= overlap.halo_ticks);
        prop_assert_eq!(
            overlap.halo_traffic.bits_in, serial.halo_traffic.bits_in,
            "ship-ahead reschedules frames, it never adds or drops them"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The recovery path (checkpoints, audits, ARQ framing, staged
    /// ship-ahead windows) engaged but fault-free: the overlapped farm
    /// still matches the reference bit for bit and commits with a clean
    /// ladder.
    #[test]
    fn overlapped_recovery_is_bit_exact_when_fault_free(
        rows in 2usize..10,
        cols in 4usize..20,
        shards in 1usize..5,
        depth in 1usize..3,
        gens in 1u64..7,
        periodic in any::<bool>(),
        density in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        prop_assume!(shards <= cols && cols / shards >= depth);
        let shape = Shape::grid2(rows, cols).unwrap();
        let grid = init::random_hpp(shape, density, seed).unwrap();
        let rule = HppRule::new();
        let boundary = if periodic { Boundary::Periodic } else { Boundary::null() };
        let reference = evolve(&grid, &rule, boundary, 0, gens);
        let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: 1 }, depth)
            .with_periodic(periodic)
            .with_overlap(true);
        let ft = farm
            .run_with_recovery(&rule, &grid, 0, gens, None,
                &FarmRecoveryConfig::default(), |_, _| Ok(()))
            .unwrap();
        prop_assert_eq!(ft.report.grid(), &reference);
        prop_assert_eq!(ft.recovery.detected, 0);
        prop_assert_eq!(ft.report.retransmits, 0);
    }
}

/// A rule's site update without its block kernel: the farm runs every
/// board of `farm.run(&CycleOnly(rule), ..)` through the cycle-level
/// engine, which makes it the shadow oracle for the fast path.
struct CycleOnly<R>(R);

impl<R: Rule> Rule for CycleOnly<R> {
    type S = R::S;
    fn update(&self, w: &Window<R::S>) -> R::S {
        self.0.update(w)
    }
    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The gas a shadow-oracle case runs: both have a block kernel.
#[derive(Debug, Clone, Copy)]
enum Gas {
    Hpp,
    /// FHP-I, with the rule wrapped onto the torus when the case is
    /// periodic.
    Fhp1,
}

impl Gas {
    /// Lattice rows for a case asking for `rows`: the hex torus needs
    /// an even count.
    fn rows(self, rows: usize, periodic: bool) -> usize {
        match self {
            Gas::Fhp1 if periodic => rows + rows % 2,
            _ => rows,
        }
    }

    /// A random lattice of this gas.
    fn lattice(self, shape: Shape, density: f64, seed: u64, periodic: bool) -> Grid<u8> {
        match self {
            Gas::Hpp => init::random_hpp(shape, density, seed),
            Gas::Fhp1 => init::random_fhp(shape, FhpVariant::I, density, seed, periodic),
        }
        .unwrap()
    }

    /// The FHP-I rule for a `rows × cols` lattice.
    fn fhp1(seed: u64, rows: usize, cols: usize, periodic: bool) -> FhpRule {
        let rule = FhpRule::new(FhpVariant::I, seed ^ 0xf4b1);
        if periodic {
            rule.with_wrap(rows, cols)
        } else {
            rule
        }
    }

    /// The audit model.
    fn model(self) -> Model {
        match self {
            Gas::Hpp => Model::Hpp,
            Gas::Fhp1 => Model::Fhp,
        }
    }
}

fn gas() -> impl Strategy<Value = Gas> {
    prop_oneof![Just(Gas::Hpp), Just(Gas::Fhp1)]
}

/// One shadow-oracle case: a fault-free farm on WSA boards.
#[derive(Debug, Clone, Copy)]
struct OracleCase {
    gas: Gas,
    /// Lattice rows (rounded up to even for FHP-I on the torus).
    rows: usize,
    /// Board grid `(R, C)`.
    layout: (usize, usize),
    /// Owned columns per board (the lattice is `C` of them wide).
    block_width: usize,
    periodic: bool,
    overlap: bool,
    /// Link capacity in bits/tick on both tiers; `None` unthrottled.
    link: Option<u32>,
    depth: usize,
    width: usize,
    gens: u64,
    t0: u64,
    density: f64,
    seed: u64,
}

/// The fast path's whole `FarmReport` equals the cycle-level run's —
/// lattice, ticks, traffic, per-board stats — and the lattice equals
/// `evolve`.
fn assert_fast_path_is_exact(c: OracleCase) {
    let (rows, cols) = (c.gas.rows(c.rows, c.periodic), c.layout.1 * c.block_width);
    let grid = c.gas.lattice(Shape::grid2(rows, cols).unwrap(), c.density, c.seed, c.periodic);
    match c.gas {
        Gas::Hpp => fast_path_is_exact(&HppRule::new(), &grid, &c),
        Gas::Fhp1 => fast_path_is_exact(&Gas::fhp1(c.seed, rows, cols, c.periodic), &grid, &c),
    }
}

fn fast_path_is_exact<R: Rule<S = u8>>(rule: &R, grid: &Grid<u8>, c: &OracleCase) {
    let boundary = if c.periodic { Boundary::Periodic } else { Boundary::null() };
    let mut farm = LatticeFarm::new(1, ShardEngine::Wsa { width: c.width }, c.depth)
        .with_grid(c.layout.0, c.layout.1)
        .with_periodic(c.periodic)
        .with_overlap(c.overlap);
    if let Some(bits) = c.link {
        farm = farm.with_link(BoardLink::new(f64::from(bits)));
    }
    let fast = farm.run(rule, grid, c.t0, c.gens).unwrap();
    let cycle = farm.run(&CycleOnly(rule), grid, c.t0, c.gens).unwrap();
    assert_eq!(fast, cycle, "{c:?}");
    assert_eq!(fast.grid(), &evolve(grid, rule, boundary, c.t0, c.gens), "{c:?}");
}

/// Layouts: shard counts 1–4 on one row, and grids up to 3×2.
fn oracle_layout() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![(1usize..=4).prop_map(|s| (1, s)), (2usize..=3, 1usize..=2)]
}

fn oracle_block_width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(63usize), Just(64), Just(65), Just(128)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fast path against the cycle-level shadow oracle over a small
    /// seeded sample: both boundaries, overlap on and off, throttled
    /// links, shallow final passes, `k` 1–5 and `P` 1–4.
    #[test]
    fn fast_path_reports_equal_the_cycle_level_run(
        gas in gas(),
        layout in oracle_layout(),
        band_rows in 5usize..9,
        block_width in oracle_block_width(),
        periodic in any::<bool>(),
        overlap in any::<bool>(),
        link in prop_oneof![Just(None), (1u32..32).prop_map(Some)],
        depth in 1usize..=5,
        width in 1usize..=4,
        gens in 1u64..12,
        t0 in 0u64..4,
        density in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        assert_fast_path_is_exact(OracleCase {
            gas,
            rows: layout.0 * band_rows,
            layout,
            block_width,
            periodic,
            overlap,
            link,
            depth,
            width,
            gens,
            t0,
            density,
            seed,
        });
    }
}

/// The two-tier grids, where halo rows cross the inter-rack links:
/// 2×2 and 3×2 boards, overlap on and off, both boundaries, both
/// gases, always in the oracle's sample.
#[test]
fn fast_path_reports_equal_the_cycle_level_run_on_two_tier_grids() {
    for (i, layout) in [(2usize, 2usize), (3, 2)].into_iter().enumerate() {
        for overlap in [false, true] {
            for periodic in [false, true] {
                for gas in [Gas::Hpp, Gas::Fhp1] {
                    assert_fast_path_is_exact(OracleCase {
                        gas,
                        rows: layout.0 * 7,
                        layout,
                        block_width: 65,
                        periodic,
                        overlap,
                        link: Some(8),
                        depth: 3,
                        width: 2,
                        gens: 7,
                        t0: 1,
                        density: 0.5,
                        seed: 11 + i as u64,
                    });
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same oracle on lattices up to 256 rows — slow in a debug
    /// build, so run it with
    /// `cargo test --release --test farm_vs_reference -- --include-ignored`.
    #[test]
    #[ignore]
    fn fast_path_reports_equal_the_cycle_level_run_on_large_lattices(
        gas in gas(),
        layout in oracle_layout(),
        rows in 128usize..=256,
        block_width in oracle_block_width(),
        periodic in any::<bool>(),
        overlap in any::<bool>(),
        link in prop_oneof![Just(None), (1u32..32).prop_map(Some)],
        depth in 1usize..=5,
        width in 1usize..=4,
        gens in 1u64..12,
        t0 in 0u64..4,
        density in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        assert_fast_path_is_exact(OracleCase {
            gas,
            rows,
            layout,
            block_width,
            periodic,
            overlap,
            link,
            depth,
            width,
            gens,
            t0,
            density,
            seed,
        });
    }
}

/// One resident-boards case: a fault-free, unaudited farm on WSA
/// boards, whose boards keep their planes across the passes of a step.
#[derive(Debug, Clone, Copy)]
struct ResidentCase {
    gas: Gas,
    /// Board grid `(R, C)`.
    layout: (usize, usize),
    /// Owned rows and columns per board beyond the pass depth, and the
    /// ragged rows and columns the last board row and column add.
    extra: (usize, usize),
    ragged: (usize, usize),
    periodic: bool,
    depth: usize,
    gens: u64,
    t0: u64,
    seed: u64,
}

/// No recovery budget, no barrier: what `LatticeFarm::run` steps under.
fn no_recovery() -> FarmRecoveryConfig {
    FarmRecoveryConfig {
        max_retries: 0,
        checkpoint_every: u64::MAX,
        arq_retries: 0,
        local_retries: 0,
        watchdog: None,
        degrade: None,
    }
}

/// `LatticeFarm::run` (resident boards) equals the per-pass path — a
/// session stepped one pass at a time, whose every pass builds the
/// lattice, and chained one-pass `run` calls — and the cycle-level run:
/// the whole `FarmReport`, and the lattice equals `evolve`.
fn assert_resident_boards_are_exact(c: ResidentCase) {
    let (gr, gc) = c.layout;
    let rows = c.gas.rows(gr * (c.depth + c.extra.0) + c.ragged.0, c.periodic);
    let cols = gc * (c.depth + c.extra.1) + c.ragged.1;
    let grid = c.gas.lattice(Shape::grid2(rows, cols).unwrap(), 0.4, c.seed, c.periodic);
    match c.gas {
        Gas::Hpp => resident_boards_are_exact(&HppRule::new(), &grid, &c),
        Gas::Fhp1 => {
            resident_boards_are_exact(&Gas::fhp1(c.seed, rows, cols, c.periodic), &grid, &c)
        }
    }
}

fn resident_boards_are_exact<R: Rule<S = u8>>(rule: &R, grid: &Grid<u8>, c: &ResidentCase) {
    let boundary = if c.periodic { Boundary::Periodic } else { Boundary::null() };
    let farm = LatticeFarm::new(1, ShardEngine::Wsa { width: 2 }, c.depth)
        .with_grid(c.layout.0, c.layout.1)
        .with_periodic(c.periodic)
        .with_link(BoardLink::new(8.0));
    let resident = farm.run(rule, grid, c.t0, c.gens).unwrap();
    assert_eq!(resident.grid(), &evolve(grid, rule, boundary, c.t0, c.gens), "{c:?}");
    assert_eq!(resident, farm.run(&CycleOnly(rule), grid, c.t0, c.gens).unwrap(), "{c:?}");
    let mut session = farm.session_owned(grid, c.t0, None, &no_recovery(), None).unwrap();
    let (mut chained, mut t, mut ticks) = (grid.clone(), c.t0, 0);
    while t < c.t0 + c.gens {
        let k = (c.depth as u64).min(c.t0 + c.gens - t);
        session.step(rule, k).unwrap();
        let pass = farm.run(rule, &chained, t, k).unwrap();
        assert_eq!(pass.passes, 1);
        ticks += pass.machine_ticks().get();
        chained = pass.machine.grid;
        t += k;
    }
    assert_eq!(session.report().unwrap(), resident, "{c:?}");
    assert_eq!((&chained, ticks), (resident.grid(), resident.machine_ticks().get()), "{c:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Resident boards over a seeded sample: HPP and FHP-I (even rows
    /// and the wrapped rule on the torus), board grids 1×1, 1×2, 2×1,
    /// 2×2 and 3×1 with ragged slabs, both boundaries, `k` 1–4, and
    /// generation counts that need not be a multiple of `k`.
    #[test]
    fn resident_boards_equal_the_per_pass_path(
        gas in gas(),
        layout in prop_oneof![Just((1usize, 1usize)), Just((1, 2)), Just((2, 1)), Just((2, 2)), Just((3, 1))],
        extra in (0usize..6, 0usize..70),
        ragged in (0usize..3, 0usize..3),
        periodic in any::<bool>(),
        depth in 1usize..=4,
        gens in 1u64..=13,
        t0 in 0u64..3,
        seed in any::<u64>(),
    ) {
        assert_resident_boards_are_exact(ResidentCase {
            gas, layout, extra, ragged, periodic, depth, gens, t0, seed,
        });
    }
}

/// One faulted shadow-oracle case: a farm on WSA boards under
/// transient weather on every board's halo links (both tiers), through
/// the recovery ladder.
#[derive(Debug, Clone, Copy)]
struct FaultedCase {
    gas: Gas,
    /// Lattice rows (rounded up to even for FHP-I on the torus).
    rows: usize,
    /// Board grid `(R, C)`.
    layout: (usize, usize),
    block_width: usize,
    periodic: bool,
    overlap: bool,
    depth: usize,
    width: usize,
    gens: u64,
    density: f64,
    seed: u64,
    /// Per-site flip rate on each halo link.
    link_rate: f64,
    weather_seed: u64,
    /// An optional engine-chip transient: `(component, chip, rate)`.
    engine: Option<(Component, usize, f64)>,
    /// A board whose halo link has a stuck bit: no retry clears it, so
    /// only a degrade budget can finish the run.
    stuck_board: Option<usize>,
    cfg: FarmRecoveryConfig,
}

/// The faulted case's plan for its `rows × cols` lattice, fresh per
/// run.
fn faulted_plan(c: &FaultedCase, farm: &LatticeFarm, rows: usize, cols: usize) -> FaultPlan {
    let max_retired = c.cfg.degrade.map_or(0, |d| d.max_retired);
    let mut plan = FaultPlan::new(c.weather_seed);
    for b in 0..farm.shards() {
        let intra = farm.link_chip(rows, cols, max_retired, b).unwrap();
        let inter = farm.link_chip_inter(rows, cols, max_retired, b).unwrap();
        for chip in [intra, inter] {
            plan.push(Fault {
                component: Component::Link,
                chip: Some(chip),
                cell: None,
                kind: FaultKind::Transient { bit: 1, rate: c.link_rate },
            });
        }
    }
    if let Some(b) = c.stuck_board {
        plan.push(Fault {
            component: Component::Link,
            chip: Some(farm.link_chip(rows, cols, max_retired, b).unwrap()),
            cell: None,
            kind: FaultKind::StuckAt { bit: 0, value: true },
        });
    }
    if let Some((component, chip, rate)) = c.engine {
        plan.push(Fault {
            component,
            chip: Some(chip),
            cell: None,
            kind: FaultKind::Transient { bit: 2, rate },
        });
    }
    plan
}

/// Under fault weather the fast path's `FarmReport` and
/// `RecoveryStats` equal the cycle-level run's, or both runs fail with
/// the same error when the ladder gives up. With link weather alone,
/// which the link parity catches, a finished run's lattice equals
/// `evolve`.
fn assert_faulted_fast_path_is_exact(c: FaultedCase) {
    let (rows, cols) = (c.gas.rows(c.rows, c.periodic), c.layout.1 * c.block_width);
    let grid = c.gas.lattice(Shape::grid2(rows, cols).unwrap(), c.density, c.seed, c.periodic);
    match c.gas {
        Gas::Hpp => faulted_fast_path_is_exact(&HppRule::new(), &grid, &c),
        Gas::Fhp1 => {
            faulted_fast_path_is_exact(&Gas::fhp1(c.seed, rows, cols, c.periodic), &grid, &c)
        }
    }
}

fn faulted_fast_path_is_exact<R: Rule<S = u8>>(rule: &R, grid: &Grid<u8>, c: &FaultedCase) {
    let (rows, cols) = (grid.shape().rows(), grid.shape().cols());
    let farm = LatticeFarm::new(1, ShardEngine::Wsa { width: c.width }, c.depth)
        .with_grid(c.layout.0, c.layout.1)
        .with_periodic(c.periodic)
        .with_overlap(c.overlap);
    let mode = if c.periodic { AuditMode::Exact } else { AuditMode::NonIncreasingMass };
    let audit = ConservationAudit::new(c.gas.model(), mode);
    let check = |before: &Grid<u8>, after: &Grid<u8>| audit.check(before, after);
    let plan = || faulted_plan(c, &farm, rows, cols);
    let fast = farm
        .run_with_recovery(rule, grid, 0, c.gens, Some(&plan()), &c.cfg, check)
        .map(|ft| (ft.report, ft.recovery));
    let cycle = farm
        .run_with_recovery(&CycleOnly(rule), grid, 0, c.gens, Some(&plan()), &c.cfg, check)
        .map(|ft| (ft.report, ft.recovery));
    assert_eq!(fast, cycle, "{c:?}");
    if let (Ok((report, _)), None) = (&fast, c.engine) {
        let boundary = if c.periodic { Boundary::Periodic } else { Boundary::null() };
        assert_eq!(report.grid(), &evolve(grid, rule, boundary, 0, c.gens), "{c:?}");
    }
}

/// Ladder budgets: ARQ and local retries, global retries, degrade.
fn faulted_budgets() -> impl Strategy<Value = FarmRecoveryConfig> {
    (0u32..=2, 0u32..=2, 0u32..=3, 1u64..=3, any::<bool>()).prop_map(
        |(arq_retries, local_retries, max_retries, checkpoint_every, degrade)| FarmRecoveryConfig {
            max_retries,
            checkpoint_every,
            arq_retries,
            local_retries,
            watchdog: None,
            degrade: degrade.then_some(FarmDegradeConfig { max_retired: 1 }),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The faulted shadow oracle: halo-link transients on both tiers,
    /// layouts up to 3×2, overlap on and off, every ladder budget,
    /// sometimes a stuck halo link that only retirement gets past, and
    /// sometimes one engine-chip transient, which sends its board (and
    /// only it) through the cycle engine.
    #[test]
    fn fast_path_reports_equal_the_cycle_level_run_under_faults(
        gas in gas(),
        layout in oracle_layout(),
        band_rows in 4usize..8,
        block_width in 6usize..=20,
        periodic in any::<bool>(),
        overlap in any::<bool>(),
        depth in 1usize..=3,
        width in 1usize..=3,
        gens in 1u64..10,
        density in 0.05f64..0.95,
        seed in any::<u64>(),
        link_rate in prop_oneof![Just(0.0), 5e-3f64..6e-2],
        weather_seed in any::<u64>(),
        engine in prop_oneof![
            Just(None),
            (any::<bool>(), any::<proptest::sample::Index>(), 1e-3f64..2e-2).prop_map(
                |(sr, chip, rate)| {
                    let component = if sr { Component::SrCell } else { Component::PeOutput };
                    Some((component, chip, rate))
                }
            ),
        ],
        stuck in prop_oneof![
            Just(None),
            Just(None),
            any::<proptest::sample::Index>().prop_map(Some),
        ],
        cfg in faulted_budgets(),
    ) {
        prop_assume!(block_width >= depth);
        // Degrading re-partitions columns: it needs a row of 2+ boards.
        let boards = layout.0 * layout.1;
        let cfg = FarmRecoveryConfig {
            degrade: cfg.degrade.filter(|_| layout.0 == 1 && boards > 1),
            ..cfg
        };
        // Board `b` owns engine chips `b·depth .. (b+1)·depth`.
        assert_faulted_fast_path_is_exact(FaultedCase {
            gas,
            rows: layout.0 * band_rows,
            layout,
            block_width,
            periodic,
            overlap,
            depth,
            width,
            gens,
            density,
            seed,
            link_rate,
            weather_seed,
            engine: engine.map(|(component, chip, rate)| (component, chip.index(boards * depth), rate)),
            stuck_board: stuck.map(|b| b.index(boards)),
            cfg,
        });
    }
}

/// farm-faults' machine (`benchmark/`): a confined HPP 256×256 gas on
/// 1×2 WSA boards at k=2, its fixed halo-link weather, and 48
/// generations through the ladder. The fast path must repeat the
/// cycle-level run's report and ladder exactly: 73 detections answered
/// by 59 ARQ retransmits, 12 local and 2 global rollbacks, no board
/// retired, 431,563 machine ticks. Slow in a debug build, so run it
/// with `cargo test --release --test farm_vs_reference -- --include-ignored`.
#[test]
#[ignore]
fn fast_path_repeats_the_farm_faults_ladder() {
    let spec = SessionSpec {
        seed: 42,
        shards: 2,
        engine: "wsa".into(),
        width: 2,
        model: "hpp".into(),
        rows: 256,
        cols: 256,
        depth: 2,
        link_bits: Some(16.0),
        fault: Some(FaultSpec {
            seed: Some(5),
            link_rate: 1.5e-3,
            max_retries: 3,
            max_retired: 1,
            ..FaultSpec::default()
        }),
        ..SessionSpec::default()
    };
    let farm = build_farm(&spec).unwrap();
    let plan = || fault_plan(&spec, &farm).unwrap().unwrap();
    let cfg = FarmRecoveryConfig { checkpoint_every: 2, ..recovery_config(&spec) };
    let margin = 64;
    let mut grid = seed_grid(&spec).unwrap();
    grid.map_in_place(|c, s| {
        let inside =
            (margin..256 - margin).contains(&c.row()) && (margin..256 - margin).contains(&c.col());
        if inside {
            s
        } else {
            0
        }
    });
    let rule = HppRule::new();
    let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
    let check = |before: &Grid<u8>, after: &Grid<u8>| audit.check(before, after);
    let fast = farm.run_with_recovery(&rule, &grid, 0, 48, Some(&plan()), &cfg, check).unwrap();
    let cycle = farm
        .run_with_recovery(&CycleOnly(&rule), &grid, 0, 48, Some(&plan()), &cfg, check)
        .unwrap();
    assert_eq!((&fast.report, fast.recovery), (&cycle.report, cycle.recovery));
    assert_eq!(fast.report.grid(), &evolve(&grid, &rule, Boundary::null(), 0, 48));
    let r = fast.recovery;
    assert_eq!(
        (r.detected, r.retransmits, r.local_rollbacks, r.rollbacks, r.boards_retired),
        (73, 59, 12, 2, 0)
    );
    assert_eq!(fast.report.machine_ticks().get(), 431_563);
}

/// Rules or lattices without a block kernel keep the cycle-level path
/// and stay exact: HPP with obstacle sites, and FHP-III.
#[test]
fn lattices_without_a_kernel_stay_exact_on_the_cycle_path() {
    let shape = Shape::grid2(12, 40).unwrap();
    let mut walled = init::random_hpp(shape, 0.4, 8).unwrap();
    init::add_obstacles(&mut walled, |c| c.col() == 19 && (3..9).contains(&c.row()));
    let hpp = HppRule::new();
    let fhp_grid = init::random_fhp(shape, FhpVariant::III, 0.35, 5, false).unwrap();
    let fhp = FhpRule::new(FhpVariant::III, 21);
    for (shards, overlap) in [(1usize, false), (2, false), (3, true)] {
        let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: 2 }, 3).with_overlap(overlap);
        let h = farm.run(&hpp, &walled, 0, 7).unwrap();
        assert_eq!(h.grid(), &evolve(&walled, &hpp, Boundary::null(), 0, 7), "S={shards}");
        assert_eq!(h, farm.run(&CycleOnly(&hpp), &walled, 0, 7).unwrap(), "S={shards}");
        let f = farm.run(&fhp, &fhp_grid, 2, 7).unwrap();
        assert_eq!(f.grid(), &evolve(&fhp_grid, &fhp, Boundary::null(), 2, 7), "S={shards}");
    }
}

/// Acceptance: measured farm throughput must sit within 10% of the
/// analytical model in the unthrottled (compute-bound) regime.
#[test]
fn measured_scaling_tracks_the_model_within_ten_percent() {
    let (rows, cols, p, k) = (32usize, 120usize, 2usize, 2usize);
    let shape = Shape::grid2(rows, cols).unwrap();
    let grid = init::random_fhp(shape, FhpVariant::I, 0.3, 3, false).unwrap();
    let rule = FhpRule::new(FhpVariant::I, 3);
    let model = FarmModel::new(Technology::paper_1987(), rows, cols, p as u32, k);
    for shards in [1usize, 2, 4, 8] {
        let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: p }, k);
        let report = farm.run(&rule, &grid, 0, 4).unwrap();
        let measured = report.machine_ticks().to_f64() / report.passes as f64;
        let predicted = model.pass_ticks2(farm.grid).to_f64();
        let ratio = measured / predicted;
        assert!(
            (ratio - 1.0).abs() < 0.10,
            "S={shards}: measured {measured} vs model {predicted} (ratio {ratio})"
        );
        let upt = report.updates_per_tick();
        let upt_model = model.updates_per_tick2(farm.grid);
        assert!(
            (upt.ratio(upt_model) - 1.0).abs() < 0.10,
            "S={shards}: upd/tick measured {upt} vs model {upt_model}"
        );
    }
}

/// Acceptance: cutting link bandwidth rolls the farm into the
/// bandwidth-bound regime — model and measurement must agree that the
/// scaling curve flattens past the predicted critical shard count.
#[test]
fn starved_links_roll_over_where_the_model_says() {
    let (rows, cols, p, k) = (32usize, 120usize, 2usize, 2usize);
    let shape = Shape::grid2(rows, cols).unwrap();
    let grid = init::random_fhp(shape, FhpVariant::I, 0.3, 3, false).unwrap();
    let rule = FhpRule::new(FhpVariant::I, 3);
    let bits = 2.0;
    let model = FarmModel::new(Technology::paper_1987(), rows, cols, p as u32, k)
        .with_link(BitsPerTick::new(bits));
    let single_row: Vec<(usize, usize)> = (1..=8).map(|s| (1, s)).collect();
    let (_, crit) = model.critical_grid(&single_row).expect("2 bits/tick must roll over by S=8");

    let measure = |shards: usize| {
        let farm = LatticeFarm::new(shards, ShardEngine::Wsa { width: p }, k)
            .with_link(BoardLink::new(bits));
        let report = farm.run(&rule, &grid, 0, 4).unwrap();
        (report.updates_per_tick(), report.halo_ticks, report.machine.ticks)
    };

    // Below the rollover, compute dominates; at/after it, exchange does.
    let (_, halo_lo, compute_lo) = measure(crit - 1);
    assert!(halo_lo <= compute_lo, "below critical S the farm is compute-bound");
    let (_, halo_hi, compute_hi) = measure(crit);
    assert!(halo_hi > compute_hi, "at critical S the exchange barrier dominates");

    // Doubling boards inside the bandwidth wall buys well under 2x.
    if 2 * crit <= 8 {
        let (r1, _, _) = measure(crit);
        let (r2, _, _) = measure(2 * crit);
        assert!(r2 / r1 < 1.5, "bandwidth-bound scaling must flatten: {r1} -> {r2}");
    }
}

/// Acceptance (E11): on a link-starved configuration the overlapped
/// farm's measured per-pass wall clock must sit within 10% of the
/// model's `boundary + max(interior, halo)` — and strictly beat the
/// serialized farm — while staying bit-exact against the reference.
#[test]
fn overlapped_exchange_tracks_the_model_and_beats_serialized() {
    let (rows, cols, p, k) = (32usize, 120usize, 2usize, 2usize);
    let bits = 2.0; // starved: the halo transfer rivals the interior sweep
    let shape = Shape::grid2(rows, cols).unwrap();
    let grid = init::random_fhp(shape, FhpVariant::I, 0.3, 3, false).unwrap();
    let rule = FhpRule::new(FhpVariant::I, 3);
    let reference = evolve(&grid, &rule, Boundary::null(), 0, 32);
    let model = FarmModel::new(Technology::paper_1987(), rows, cols, p as u32, k)
        .with_link(BitsPerTick::new(bits))
        .with_overlap(true);
    for shards in [2usize, 4, 8] {
        let serial = LatticeFarm::new(shards, ShardEngine::Wsa { width: p }, k)
            .with_link(BoardLink::new(bits));
        let overlap = serial.with_overlap(true);
        let s = serial.run(&rule, &grid, 0, 32).unwrap();
        let o = overlap.run(&rule, &grid, 0, 32).unwrap();
        assert_eq!(o.grid(), &reference, "S={shards}: overlap must stay bit-exact");
        assert_eq!(s.grid(), &reference);
        assert!(
            o.machine_ticks() < s.machine_ticks(),
            "S={shards}: hiding the transfer must beat the serialized barrier: {} !< {}",
            o.machine_ticks(),
            s.machine_ticks()
        );
        // The whole run is priced exactly: steady passes plus the first
        // pass's un-hideable cold start, serialized and overlapped.
        assert_eq!(o.machine_ticks(), model.run_ticks2(overlap.grid, o.passes), "S={shards}");
        let serial_model = model.with_overlap(false);
        assert_eq!(s.machine_ticks(), serial_model.run_ticks2(serial.grid, s.passes));
        // Per-pass agreement with boundary + max(interior, halo); the
        // first pass's un-hideable cold start amortizes over 16 passes.
        let measured = o.machine_ticks().to_f64() / o.passes as f64;
        let predicted = model.pass_ticks2(overlap.grid).to_f64();
        let ratio = measured / predicted;
        assert!(
            (ratio - 1.0).abs() < 0.10,
            "S={shards}: measured {measured} vs model {predicted} (ratio {ratio})"
        );
    }
}

/// Recovery composes at farm level: a transiently corrupting halo link
/// is caught by stream parity and absorbed entirely at ladder level 1 —
/// the corrupted frames retransmit, no board ever rolls back, and the
/// final lattice still equals the fault-free reference.
#[test]
fn farm_recovery_is_bit_exact_under_link_faults() {
    let shape = Shape::grid2(12, 22).unwrap();
    let grid = init::random_hpp(shape, 0.4, 6).unwrap();
    let rule = HppRule::new();
    let reference = evolve(&grid, &rule, Boundary::null(), 0, 8);
    let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 1 }, 2);
    // Link chips sit past every engine chip: 3 boards x depth-2 stride.
    let plan = FaultPlan::new(41).with_fault(Fault {
        component: Component::Link,
        chip: Some(3 * 2 + 1),
        cell: None,
        kind: FaultKind::Transient { bit: 2, rate: 5e-3 },
    });
    let ft = farm
        .run_with_recovery(
            &rule,
            &grid,
            0,
            8,
            Some(&plan),
            &FarmRecoveryConfig { max_retries: 25, ..Default::default() },
            |_, _| Ok(()),
        )
        .unwrap();
    assert_eq!(ft.report.grid(), &reference);
    assert!(ft.report.machine.faults.link > 0, "the plan must actually fire");
    assert!(ft.recovery.detected > 0, "parity must catch at least one corruption");
    assert_eq!(ft.recovery.retransmits, ft.recovery.detected, "ARQ answers every detection");
    assert_eq!(ft.recovery.rollbacks, 0, "no board rollback for a transient link fault");
    assert_eq!(ft.recovery.local_rollbacks, 0);
    assert_eq!(ft.recovery.boards_retired, 0);
    assert_eq!(ft.report.retransmits, ft.recovery.retransmits, "every pass committed");
}

/// Acceptance: with the ARQ term, the analytical model still predicts
/// the *faulted* farm's pass time within 10%. Every retransmission on
/// the slowest (interior) board's throttled link replays one exchange
/// barrier, which is exactly `FarmModel::pass_ticks_with_retransmits`.
#[test]
fn retransmission_term_keeps_the_model_within_ten_percent() {
    let (rows, cols, p, k) = (32usize, 120usize, 2usize, 2usize);
    let shape = Shape::grid2(rows, cols).unwrap();
    let grid = init::random_fhp(shape, FhpVariant::I, 0.3, 3, false).unwrap();
    let rule = FhpRule::new(FhpVariant::I, 3);
    let shards = 4usize;
    let bits = 8.0;
    let farm =
        LatticeFarm::new(shards, ShardEngine::Wsa { width: p }, k).with_link(BoardLink::new(bits));
    // Transient weather on board 1's halo link — an interior board, so
    // its frame is the one that bounds the exchange barrier.
    let plan = FaultPlan::new(29).with_fault(Fault {
        component: Component::Link,
        chip: Some(shards * k + 1),
        cell: None,
        kind: FaultKind::Transient { bit: 1, rate: 2e-3 },
    });
    let ft = farm
        .run_with_recovery(
            &rule,
            &grid,
            0,
            40,
            Some(&plan),
            &FarmRecoveryConfig { max_retries: 25, ..Default::default() },
            |_, _| Ok(()),
        )
        .unwrap();
    let reference = evolve(&grid, &rule, Boundary::null(), 0, 40);
    assert_eq!(ft.report.grid(), &reference);
    assert!(ft.report.retransmits >= 2, "the rate must produce retransmissions: {ft:?}");
    assert_eq!(ft.recovery.rollbacks, 0, "ARQ must absorb this weather: {:?}", ft.recovery);

    let model = FarmModel::new(Technology::paper_1987(), rows, cols, p as u32, k)
        .with_link(BitsPerTick::new(bits));
    let r = ft.report.retransmits as f64 / ft.report.passes as f64;
    let measured = ft.report.machine_ticks().to_f64() / ft.report.passes as f64;
    let g = (1, shards);
    let predicted = model.pass_ticks_with_retransmits(g, r);
    let ratio = measured / predicted;
    assert!(
        (ratio - 1.0).abs() < 0.10,
        "measured {measured} vs model {predicted} (ratio {ratio}, r {r})"
    );
    // Without the ARQ term the model must under-predict this run.
    assert!(measured > model.pass_ticks2(g).to_f64(), "retransmissions cost real barrier time");
    // The measured split agrees term for term: the extra halo time is
    // the retransmitted share.
    assert_eq!(
        ft.report.retransmit_ticks,
        model.halo_ticks2(g) * ft.report.retransmits,
        "each retransmission replays one interior exchange barrier"
    );
}

/// Acceptance (E13): R×C block farms on a two-tier torus must track
/// `pass_ticks2` — serialized and overlapped — within 10% while
/// staying bit-exact against the single-engine reference, and the
/// starved inter-rack wire must bind exactly on multi-row grids.
#[test]
fn grid_farms_track_the_two_axis_model_within_ten_percent() {
    use lattice_engines::vlsi::LinkTier;

    let (rows, cols, p, k) = (32usize, 120usize, 2usize, 2usize);
    let shape = Shape::grid2(rows, cols).unwrap();
    let grid0 = init::random_fhp(shape, FhpVariant::I, 0.3, 3, true).unwrap();
    let rule = FhpRule::new(FhpVariant::I, 3).with_wrap(rows, cols);
    let reference = evolve(&grid0, &rule, Boundary::Periodic, 0, 32);
    let (intra, inter) = (16.0, 0.5);
    let model = FarmModel::new(Technology::paper_1987(), rows, cols, p as u32, k)
        .with_periodic(true)
        .with_link(BitsPerTick::new(intra))
        .with_tier_link(BitsPerTick::new(inter));
    for g in [(1usize, 4usize), (2, 2), (2, 3), (3, 2)] {
        let serial = LatticeFarm::new(g.0 * g.1, ShardEngine::Wsa { width: p }, k)
            .with_grid(g.0, g.1)
            .with_periodic(true)
            .with_link(BoardLink::new(intra))
            .with_tier_link(BoardLink::new(inter));
        let overlap = serial.with_overlap(true);
        let s = serial.run(&rule, &grid0, 0, 32).unwrap();
        let o = overlap.run(&rule, &grid0, 0, 32).unwrap();
        assert_eq!(s.grid(), &reference, "{}x{}: serialized grid must be bit-exact", g.0, g.1);
        assert_eq!(o.grid(), &reference, "{}x{}: overlapped grid must be bit-exact", g.0, g.1);

        let measured = s.machine_ticks().to_f64() / s.passes as f64;
        let predicted = model.pass_ticks2(g).to_f64();
        let ratio = measured / predicted;
        assert!(
            (ratio - 1.0).abs() < 0.10,
            "{}x{}: measured {measured} vs model {predicted} (ratio {ratio})",
            g.0,
            g.1
        );
        let ov_model = model.with_overlap(true);
        let ov_measured = o.machine_ticks().to_f64() / o.passes as f64;
        let ov_predicted = ov_model.pass_ticks2(g).to_f64();
        let ov_ratio = ov_measured / ov_predicted;
        assert!(
            (ov_ratio - 1.0).abs() < 0.10,
            "{}x{}: overlap measured {ov_measured} vs model {ov_predicted} (ratio {ov_ratio})",
            g.0,
            g.1
        );

        let want = if g.0 > 1 { LinkTier::Inter } else { LinkTier::Intra };
        assert_eq!(model.binding_tier(g), want, "{}x{}: binding tier", g.0, g.1);
    }

    // At 32x120 the blocks are thin enough that the boundary split eats
    // the hidden halo — the overlap win is a scale effect. One leg at
    // the E13 scale (48x240, 2x2) pins the decisive win the binary
    // shows: the interior sweep covers the starved row frames.
    let (rows, cols) = (48usize, 240usize);
    let shape = Shape::grid2(rows, cols).unwrap();
    let grid0 = init::random_fhp(shape, FhpVariant::I, 0.3, 3, true).unwrap();
    let rule = FhpRule::new(FhpVariant::I, 3).with_wrap(rows, cols);
    let reference = evolve(&grid0, &rule, Boundary::Periodic, 0, 32);
    let serial = LatticeFarm::new(4, ShardEngine::Wsa { width: p }, k)
        .with_grid(2, 2)
        .with_periodic(true)
        .with_link(BoardLink::new(intra))
        .with_tier_link(BoardLink::new(inter));
    let overlap = serial.with_overlap(true);
    let s = serial.run(&rule, &grid0, 0, 32).unwrap();
    let o = overlap.run(&rule, &grid0, 0, 32).unwrap();
    assert_eq!(o.grid(), &reference, "2x2 at scale: overlap must stay bit-exact");
    assert_eq!(s.grid(), &reference);
    assert!(
        o.machine_ticks() < s.machine_ticks(),
        "2x2 at scale: hiding the starved tier must beat the serialized barrier: {} !< {}",
        o.machine_ticks(),
        s.machine_ticks()
    );
    let big = FarmModel::new(Technology::paper_1987(), rows, cols, p as u32, k)
        .with_periodic(true)
        .with_link(BitsPerTick::new(intra))
        .with_tier_link(BitsPerTick::new(inter))
        .with_overlap(true);
    let measured = o.machine_ticks().to_f64() / o.passes as f64;
    let predicted = big.pass_ticks2((2, 2)).to_f64();
    let ratio = measured / predicted;
    assert!(
        (ratio - 1.0).abs() < 0.10,
        "2x2 at scale: overlap measured {measured} vs model {predicted} (ratio {ratio})"
    );
}
