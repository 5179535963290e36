//! Acceptance tests for the fault-injection / audit / recovery stack:
//!
//! * an injected single-bit transient in a mid-pipeline shift register
//!   is detected by the conservation audit within one pass and repaired
//!   by checkpoint rollback, yielding the bit-exact reference lattice;
//! * with injection disabled every engine is bit-exact with zero fault
//!   and retry counts — the instrumentation itself must be free;
//! * a permanently stuck chip is localized by link parity and bypassed,
//!   with the run completing correctly at reduced depth.

use lattice_engines::core::{evolve, Boundary, Grid, Shape};
use lattice_engines::farm::{FarmDegradeConfig, FarmRecoveryConfig, LatticeFarm, ShardEngine};
use lattice_engines::gas::audit::{AuditMode, ConservationAudit};
use lattice_engines::gas::observe::Model;
use lattice_engines::gas::{init, FhpRule, FhpVariant, HppRule};
use lattice_engines::sim::{
    run_threaded, Component, Fault, FaultKind, FaultPlan, FaultStats, HostLink, HostSystem,
    Pipeline, RecoveryConfig, SpaEngine, WsaePipeline,
};

/// An HPP gas confined to the lattice center with `margin` empty sites
/// on every side. As long as the run is no longer than `margin`
/// generations nothing can reach the edge, so under the engines' null
/// boundary mass and momentum are conserved *exactly* and the strict
/// audit applies.
fn confined_hpp(rows: usize, cols: usize, margin: usize, seed: u64) -> Grid<u8> {
    let shape = Shape::grid2(rows, cols).unwrap();
    let full = init::random_hpp(shape, 0.35, seed).unwrap();
    Grid::from_fn(shape, |c| {
        let inside = c.row() >= margin
            && c.row() < rows - margin
            && c.col() >= margin
            && c.col() < cols - margin;
        if inside {
            full.get(c)
        } else {
            0
        }
    })
}

fn host(width: usize, depth: usize) -> HostSystem {
    HostSystem { engine: Pipeline::wide(width, depth), link: HostLink::new(1e9), clock_hz: 10e6 }
}

#[test]
fn transient_sr_fault_is_detected_and_rolled_back_to_bit_exact() {
    let (rows, cols, steps) = (36, 44, 6u64);
    let grid = confined_hpp(rows, cols, steps as usize, 21);
    let rule = HppRule::new();
    let reference = evolve(&grid, &rule, Boundary::null(), 0, steps);

    // Transient bit-flips in the middle chip's shift register — the
    // classic soft error the link parity cannot see (it corrupts state
    // *inside* a stage, between the parity points). The rate is kept
    // sparse on purpose: the audit is a totals code, so a *single* flip
    // per pass is always caught (mass moves by ±1), but two coincident
    // flips of the same channel — one setting, one clearing — cancel in
    // both mass and momentum and would slip through.
    let plan = FaultPlan::new(17).with_fault(Fault {
        component: Component::SrCell,
        chip: Some(1),
        cell: None,
        kind: FaultKind::Transient { bit: 2, rate: 5e-4 },
    });
    let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
    let cfg = RecoveryConfig { max_retries: 10, ..RecoveryConfig::default() };
    let ft = host(1, 3)
        .run_with_recovery(&rule, &grid, 0, steps, Some(&plan), &cfg, |b, a| audit.check(b, a))
        .expect("recovery must succeed within the retry budget");

    assert!(ft.faults.total() >= 1, "no fault fired — raise the rate: {:?}", ft.faults);
    assert!(ft.faults.sr_cell >= 1, "{:?}", ft.faults);
    // Every fault was detected by the per-pass audit and rolled back...
    assert!(ft.recovery.detected >= 1, "{:?}", ft.recovery);
    assert!(ft.recovery.rollbacks >= 1, "{:?}", ft.recovery);
    assert_eq!(ft.chips_in_service, 3, "a transient must not cost a chip");
    // ...and the recovered lattice is the fault-free reference, exactly.
    assert_eq!(ft.run.grid, reference);
    assert_eq!(ft.run.generations, steps);
}

#[test]
fn disabled_injection_is_bit_exact_everywhere_with_zero_counts() {
    let shape = Shape::grid2(16, 32).unwrap();
    let grid = init::random_fhp(shape, FhpVariant::I, 0.3, 5, false).unwrap();
    let rule = FhpRule::new(FhpVariant::I, 5);
    let reference = evolve(&grid, &rule, Boundary::null(), 0, 4);

    let reports = [
        Pipeline::serial(4).run(&rule, &grid, 0).unwrap(),
        Pipeline::wide(2, 4).run(&rule, &grid, 0).unwrap(),
        SpaEngine::new(8, 4).run(&rule, &grid, 0).unwrap(),
        WsaePipeline::new(4).run(&rule, &grid, 0).unwrap(),
        run_threaded(&rule, &grid, 2, 4, 0).unwrap(),
    ];
    for report in &reports {
        assert_eq!(report.grid, reference);
        assert_eq!(report.faults, FaultStats::default(), "injection disabled yet counted");
        assert_eq!(report.faults.total(), 0);
    }

    // The recovery loop with no plan: same lattice, no recovery actions.
    let audit = ConservationAudit::new(Model::Fhp, AuditMode::NonIncreasingMass);
    let cfg = RecoveryConfig::default();
    let ft = host(2, 4)
        .run_with_recovery(&rule, &grid, 0, 4, None, &cfg, |b, a| audit.check(b, a))
        .unwrap();
    assert_eq!(ft.run.grid, reference);
    assert_eq!(ft.faults, FaultStats::default());
    assert_eq!(ft.recovery.detected, 0);
    assert_eq!(ft.recovery.rollbacks, 0);
    assert_eq!(ft.recovery.bypassed_chips, 0);
    assert_eq!(ft.chips_in_service, 4);
}

#[test]
fn stuck_chip_is_localized_bypassed_and_the_run_still_bit_exact() {
    let (rows, cols, steps) = (28, 30, 5u64);
    let grid = confined_hpp(rows, cols, steps as usize + 1, 3);
    let rule = HppRule::new();
    let reference = evolve(&grid, &rule, Boundary::null(), 0, steps);

    // Chip 1's output driver sticks: every word it sends has bit 0
    // forced high. Retrying cannot help; the parity layer names the
    // chip and degraded mode must take it out of service.
    let plan = FaultPlan::new(4).with_fault(Fault {
        component: Component::Link,
        chip: Some(1),
        cell: None,
        kind: FaultKind::StuckAt { bit: 0, value: true },
    });
    let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
    let cfg = RecoveryConfig { max_retries: 2, ..RecoveryConfig::default() };
    let ft = host(1, 3)
        .run_with_recovery(&rule, &grid, 0, steps, Some(&plan), &cfg, |b, a| audit.check(b, a))
        .expect("degraded mode must carry the run to completion");

    assert!(ft.faults.link >= 1, "{:?}", ft.faults);
    assert!(ft.recovery.detected >= 1, "{:?}", ft.recovery);
    assert_eq!(ft.recovery.bypassed_chips, 1, "{:?}", ft.recovery);
    assert_eq!(ft.chips_in_service, 2);
    assert_eq!(ft.run.grid, reference);

    // Without degraded mode the same fault is fatal — but reported, not
    // silent.
    let strict = RecoveryConfig { allow_degraded: false, ..cfg };
    let err = host(1, 3)
        .run_with_recovery(&rule, &grid, 0, steps, Some(&plan), &strict, |b, a| audit.check(b, a))
        .unwrap_err();
    assert!(err.to_string().contains("chip 1"), "{err}");
}

/// An HPP blob confined to a window well inside one board's slab, so
/// over the run no particle can reach any *other* board's halo-augmented
/// region — exact conservation then holds per board and any violation
/// pins the guilty board.
fn windowed_hpp(
    rows: usize,
    cols: usize,
    win_rows: (usize, usize),
    win_cols: (usize, usize),
    seed: u64,
) -> Grid<u8> {
    let shape = Shape::grid2(rows, cols).unwrap();
    let full = init::random_hpp(shape, 0.35, seed).unwrap();
    Grid::from_fn(shape, |c| {
        let inside = c.row() >= win_rows.0
            && c.row() < win_rows.1
            && c.col() >= win_cols.0
            && c.col() < win_cols.1;
        if inside {
            full.get(c)
        } else {
            0
        }
    })
}

/// Ladder level 2 acceptance: silent (parity-invisible) PE corruption
/// on one board is caught by that board's conservation audit and
/// repaired by a *local* rollback — the guilty board alone replays its
/// buffered halos; its neighbors never rewind and the farm-wide
/// checkpoint is never touched.
#[test]
fn one_board_pe_fault_rolls_back_that_board_alone() {
    // 3 boards over 72 columns: board 1 owns cols 24..48. The blob sits
    // in cols 35..38 and can travel at most `steps` = 8 sites, so it
    // stays within cols 27..46 — inside board 1's augmented slab but
    // outside board 0's (ends at col 26) and board 2's (starts at col
    // 46). Exact per-board conservation applies to all three.
    let (rows, cols, steps) = (24usize, 72usize, 8u64);
    let grid = windowed_hpp(rows, cols, (10, 14), (35, 38), 9);
    let rule = HppRule::new();
    let reference = evolve(&grid, &rule, Boundary::null(), 0, steps);

    // Transient soft errors in board 1's first engine chip's shift
    // registers (WSA depth 2 => board 1 owns chips 2 and 3). Link
    // parity cannot see these; only the per-board audit can.
    let plan = FaultPlan::new(13).with_fault(Fault {
        component: Component::SrCell,
        chip: Some(2),
        cell: None,
        kind: FaultKind::Transient { bit: 1, rate: 1.2e-3 },
    });
    let farm = LatticeFarm::new(3, ShardEngine::Wsa { width: 1 }, 2);
    let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
    let cfg = FarmRecoveryConfig { max_retries: 8, local_retries: 6, ..Default::default() };
    let ft = farm
        .run_with_recovery_audited(
            &rule,
            &grid,
            0,
            steps,
            Some(&plan),
            &cfg,
            |_, _| Ok(()),
            Some(&mut |_board, before, after| audit.check(before, after)),
            None,
        )
        .expect("local rollback must absorb the soft errors");

    assert_eq!(ft.report.grid(), &reference);
    assert!(ft.recovery.local_rollbacks >= 1, "no fault fired — raise the rate: {:?}", ft.recovery);
    assert_eq!(ft.recovery.rollbacks, 0, "the farm checkpoint must never be touched");
    assert_eq!(ft.recovery.retransmits, 0, "SR soft errors are invisible to link parity");
    assert_eq!(ft.recovery.boards_retired, 0);
    assert_eq!(ft.recovery.detected, ft.recovery.local_rollbacks);
    // The rollbacks land on the faulted board and nowhere else.
    assert_eq!(ft.report.per_shard[1].local_rollbacks, ft.recovery.local_rollbacks);
    assert_eq!(ft.report.per_shard[0].local_rollbacks, 0, "neighbors never rewind");
    assert_eq!(ft.report.per_shard[2].local_rollbacks, 0, "neighbors never rewind");
}

/// Ladder level 4 acceptance: a stuck-at halo link defeats ARQ, local
/// rollback, and farm-wide rollback in turn; the degrade level retires
/// the board behind the dead link and the re-partitioned farm carries
/// the run to a bit-exact finish.
#[test]
fn stuck_link_escalates_to_degrade_and_stays_bit_exact() {
    let (rows, cols, steps) = (24usize, 36usize, 6u64);
    let grid = confined_hpp(rows, cols, steps as usize + 1, 5);
    let rule = HppRule::new();
    let reference = evolve(&grid, &rule, Boundary::null(), 0, steps);

    // Board 1's inbound halo link sticks (link chips sit past the
    // 2 boards x depth-2 engine chips, so board 1's is chip 5). No
    // retry at any level can clear a stuck-at; only retirement can.
    let plan = FaultPlan::new(8).with_fault(Fault {
        component: Component::Link,
        chip: Some(2 * 2 + 1),
        cell: None,
        kind: FaultKind::StuckAt { bit: 0, value: true },
    });
    let farm = LatticeFarm::new(2, ShardEngine::Wsa { width: 1 }, 2);
    let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
    let cfg = FarmRecoveryConfig {
        max_retries: 1,
        checkpoint_every: 1,
        arq_retries: 1,
        local_retries: 1,
        watchdog: None,
        degrade: Some(FarmDegradeConfig { max_retired: 1 }),
    };
    let ft = farm
        .run_with_recovery(&rule, &grid, 0, steps, Some(&plan), &cfg, |b, a| audit.check(b, a))
        .expect("degrade must carry the run to completion");

    assert_eq!(ft.report.grid(), &reference, "the re-partitioned farm must stay bit-exact");
    assert_eq!(ft.recovery.boards_retired, 1, "{:?}", ft.recovery);
    assert!(ft.report.per_shard[1].retired, "the board behind the dead link is the one retired");
    assert!(!ft.report.per_shard[0].retired);
    // The whole ladder was climbed on the way down: retransmissions,
    // then a local rollback, then a farm-wide one, then retirement —
    // and every detection was answered by exactly one action.
    assert!(ft.recovery.retransmits >= 1, "{:?}", ft.recovery);
    assert!(ft.recovery.local_rollbacks >= 1, "{:?}", ft.recovery);
    assert!(ft.recovery.rollbacks >= 1, "{:?}", ft.recovery);
    assert_eq!(
        ft.recovery.detected,
        ft.recovery.retransmits
            + ft.recovery.local_rollbacks
            + ft.recovery.rollbacks
            + ft.recovery.boards_retired,
        "{:?}",
        ft.recovery
    );
}
