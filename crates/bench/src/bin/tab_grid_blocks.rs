//! E13 — rectangular block sharding on a two-tier torus interconnect,
//! measured vs the two-axis links-per-board model.
//!
//! E9/E11 pinned single-row grids `(1, S)` to `FarmModel`; this table
//! pins multi-row R×C grids the same way. A `LatticeFarm`
//! on a board grid exchanges column halos over intra-rack links and row
//! halos over inter-rack links (corners ride the column frames, billed
//! once); `FarmModel::pass_ticks2` predicts pass time from the same
//! `partition2d` geometry with per-tier capacities. Three regimes:
//!
//! * matched tiers — both wires at the same width: measured pass ticks
//!   must track `compute + max-tier halo` within 10% across grid
//!   shapes, and every shape must finish bit-exact vs the single-engine
//!   torus reference;
//! * starved inter-rack tier — the row-halo wire throttled far below
//!   the column-halo wire: the model's binding tier must flip to
//!   inter-rack exactly on the multi-row shapes, and measured pass time
//!   must keep tracking the model within 10%;
//! * overlapped exchange on the starved tier — `boundary +
//!   max(interior, slower-tier halo)` within 10%, bit-exact, and a
//!   strict win over the serialized grid wherever the model predicts
//!   one (every multi-row shape; 1xC has almost no halo to hide).

use lattice_bench::{fnum, format_from_args, Table};
use lattice_core::units::BitsPerTick;
use lattice_core::{evolve, Boundary, Shape};
use lattice_farm::{BoardLink, LatticeFarm, ShardEngine};
use lattice_gas::{init, FhpRule, FhpVariant};
use lattice_vlsi::{FarmModel, LinkTier, Technology};

const ROWS: usize = 48;
const COLS: usize = 240;
const P: usize = 2;
const K: usize = 2;
const GENS: u64 = 4;

const GRIDS: [(usize, usize); 4] = [(1, 4), (2, 2), (2, 3), (3, 2)];

fn tier_name(t: LinkTier) -> &'static str {
    match t {
        LinkTier::Intra => "intra",
        LinkTier::Inter => "inter",
    }
}

fn main() {
    let fmt = format_from_args();
    let tech = Technology::paper_1987();
    let rule = FhpRule::new(FhpVariant::I, 31).with_wrap(ROWS, COLS);
    let shape = Shape::grid2(ROWS, COLS).unwrap();
    let grid0 = init::random_fhp(shape, FhpVariant::I, 0.3, 7, true).unwrap();
    let reference = evolve(&grid0, &rule, Boundary::Periodic, 0, GENS);

    // E13a: both tiers at the same width — the grid trades wide column
    // frames for short row frames, and the model must price both.
    let bits = 8.0;
    let model = FarmModel::new(tech, ROWS, COLS, P as u32, K)
        .with_periodic(true)
        .with_link(BitsPerTick::new(bits));
    let mut a_t = Table::new(
        format!(
            "E13a: R×C block farms on a torus, matched tiers ({bits} bits/tick each) \
             (FHP-I {ROWS}x{COLS}, {P}-PE boards, k = {K})"
        ),
        &[
            "grid",
            "pass ticks meas",
            "pass ticks model",
            "meas/model",
            "upd/tick meas",
            "upd/tick model",
            "intra bits/board",
            "inter bits/board",
            "binding tier",
        ],
    );
    let mut worst = 1.0f64;
    for &g in &GRIDS {
        let farm = LatticeFarm::new(g.0 * g.1, ShardEngine::Wsa { width: P }, K)
            .with_grid(g.0, g.1)
            .with_periodic(true)
            .with_link(BoardLink::new(bits))
            .with_tier_link(BoardLink::new(bits));
        let report = farm.run(&rule, &grid0, 0, GENS).expect("grid farm run");
        assert_eq!(
            report.grid(),
            &reference,
            "{}x{}: grid farm diverged from the torus reference",
            g.0,
            g.1
        );
        let meas = report.machine_ticks().to_f64() / report.passes as f64;
        let pred = model.pass_ticks2(g).to_f64();
        let ratio = meas / pred;
        worst = worst.max((ratio - 1.0).abs() + 1.0);
        let (intra, inter) = model.halo_bits2(g);
        a_t.row_strings(vec![
            format!("{}x{}", g.0, g.1),
            fnum(meas, 0),
            fnum(pred, 0),
            fnum(ratio, 3),
            fnum(report.updates_per_tick().get(), 2),
            fnum(model.updates_per_tick2(g).get(), 2),
            intra.get().to_string(),
            inter.get().to_string(),
            tier_name(model.binding_tier(g)).into(),
        ]);
    }
    a_t.note(format!(
        "Worst measured/model pass-time ratio {} (acceptance bound 1.10). Corners \
         ride the column frames — intra bits cover the full augmented height, so \
         intra + inter per board equals the block's whole halo ring.",
        fnum(worst, 3)
    ));
    a_t.note(
        "Row frames are short (owned width) but there are R·C of them; at 1xC the \
         inter tier is idle and the table degenerates to E9's columnar farm.",
    );
    a_t.print(fmt);
    assert!(
        worst <= 1.10,
        "measured grid pass time departed from the two-axis model by more than 10%: {worst}"
    );
    // Pin the 2x2 geometry by hand: 24x120 blocks, augmented height
    // 24 + 2·2, so intra = 2 sides · 2 halo cols · 28 rows · 8 bits and
    // inter = 2 sides · 2 halo rows · 120 cols · 8 bits per board.
    let (i22, n22) = model.halo_bits2((2, 2));
    assert_eq!(
        (i22.get(), n22.get()),
        (896, 3840),
        "2x2 halo arithmetic drifted from the hand-derived pin"
    );

    // E13b: starve the inter-rack tier. Row frames are small, so it
    // takes a hard throttle to make the second tier the wall — which
    // is exactly the regime a rack boundary creates.
    let (intra_bits, inter_bits) = (16.0, 0.5);
    let starved = FarmModel::new(tech, ROWS, COLS, P as u32, K)
        .with_periodic(true)
        .with_link(BitsPerTick::new(intra_bits))
        .with_tier_link(BitsPerTick::new(inter_bits));
    let mut b_t = Table::new(
        format!(
            "E13b: the same grids with the inter-rack tier starved \
             (intra {intra_bits}, inter {inter_bits} bits/tick)"
        ),
        &[
            "grid",
            "pass ticks meas",
            "pass ticks model",
            "meas/model",
            "halo ticks/pass meas",
            "binding tier",
            "binding demand (bits/tick)",
        ],
    );
    let mut worst_b = 1.0f64;
    for &g in &GRIDS {
        let farm = LatticeFarm::new(g.0 * g.1, ShardEngine::Wsa { width: P }, K)
            .with_grid(g.0, g.1)
            .with_periodic(true)
            .with_link(BoardLink::new(intra_bits))
            .with_tier_link(BoardLink::new(inter_bits));
        let report = farm.run(&rule, &grid0, 0, GENS).expect("starved grid farm run");
        assert_eq!(report.grid(), &reference, "{}x{}: starved tier changed bits", g.0, g.1);
        let meas = report.machine_ticks().to_f64() / report.passes as f64;
        let pred = starved.pass_ticks2(g).to_f64();
        let ratio = meas / pred;
        worst_b = worst_b.max((ratio - 1.0).abs() + 1.0);
        let tier = starved.binding_tier(g);
        assert_eq!(
            tier,
            if g.0 > 1 { LinkTier::Inter } else { LinkTier::Intra },
            "{}x{}: the starved wire must bind exactly on multi-row grids",
            g.0,
            g.1
        );
        b_t.row_strings(vec![
            format!("{}x{}", g.0, g.1),
            fnum(meas, 0),
            fnum(pred, 0),
            fnum(ratio, 3),
            fnum(report.halo_ticks.to_f64() / report.passes as f64, 0),
            tier_name(tier).into(),
            fnum(starved.binding_link_demand(g).get(), 2),
        ]);
    }
    b_t.note(
        "The binding tier is what admission control charges a grid session: 1xC \
         grids bind intra-rack (the inter wire is idle); every multi-row grid here \
         binds on the starved inter-rack wire.",
    );
    b_t.print(fmt);
    assert!(
        worst_b <= 1.10,
        "starved-tier pass time departed from the model by more than 10%: {worst_b}"
    );

    // E13c: overlapped exchange against the starved tier — the 2-D
    // ship-ahead must hide the slow row frames behind the interior
    // sweep, and the model's boundary + max(interior, halo) must price
    // what is left exposed.
    let overlap_gens: u64 = 32;
    let ov_reference = evolve(&grid0, &rule, Boundary::Periodic, 0, overlap_gens);
    let ov_model = starved.with_overlap(true);
    let mut c_t = Table::new(
        format!(
            "E13c: overlapped vs serialized grid exchange on the starved tier \
             ({overlap_gens} generations)"
        ),
        &[
            "grid",
            "serial pass meas",
            "overlap pass meas",
            "overlap pass model",
            "meas/model",
            "serial/overlap",
        ],
    );
    let mut worst_c = 1.0f64;
    for &g in &GRIDS {
        let serial = LatticeFarm::new(g.0 * g.1, ShardEngine::Wsa { width: P }, K)
            .with_grid(g.0, g.1)
            .with_periodic(true)
            .with_link(BoardLink::new(intra_bits))
            .with_tier_link(BoardLink::new(inter_bits));
        let overlap = serial.with_overlap(true);
        let sr = serial.run(&rule, &grid0, 0, overlap_gens).expect("serial grid run");
        let or = overlap.run(&rule, &grid0, 0, overlap_gens).expect("overlap grid run");
        assert_eq!(or.grid(), &ov_reference, "{}x{}: overlapped grid must be bit-exact", g.0, g.1);
        assert_eq!(sr.grid(), &ov_reference);
        let serial_pass = sr.machine_ticks().to_f64() / sr.passes as f64;
        let overlap_pass = or.machine_ticks().to_f64() / or.passes as f64;
        let pred = ov_model.run_ticks2(g, or.passes).to_f64() / or.passes as f64;
        let ratio = overlap_pass / pred;
        worst_c = worst_c.max((ratio - 1.0).abs() + 1.0);
        // Overlap must win wherever the model says the hidden halo pays
        // for the boundary split — every multi-row grid here. On 1xC the
        // fast intra wire leaves almost nothing to hide, and the model
        // prices the small boundary-recompute loss instead.
        if ov_model.pass_ticks2(g) < starved.pass_ticks2(g) {
            assert!(
                overlap_pass < serial_pass,
                "{}x{}: the model promises an overlap win but the farm lost: \
                 {overlap_pass} >= {serial_pass}",
                g.0,
                g.1
            );
        }
        c_t.row_strings(vec![
            format!("{}x{}", g.0, g.1),
            fnum(serial_pass, 0),
            fnum(overlap_pass, 0),
            fnum(pred, 0),
            fnum(ratio, 3),
            fnum(serial_pass / overlap_pass, 2),
        ]);
    }
    c_t.note(
        "Boundary regions (edges + corners) compute first, their frames ship on \
         both tiers while the interior evolves, and the pass barriers on arrival: \
         boundary + max(interior, slower-tier halo) per steady pass.",
    );
    c_t.print(fmt);
    assert!(
        worst_c <= 1.10,
        "overlapped grid pass time departed from the model by more than 10%: {worst_c}"
    );
}
