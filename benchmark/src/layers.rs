//! Per-layer replays of the traced run.
//!
//! Each layer is timed from outside, by calling its public function on
//! the workload's own machine: the gas kernels and the cycle-level
//! engine on one board's halo-augmented block, the farm one pass at a
//! time, one halo frame over a board link, the recovery ladder, the
//! checkpoint codec and store, and a daemon session of the workload's
//! spec over loopback. Replays run after the timed loop, outside its
//! spans, and — except for the farm pass itself and the two-client
//! daemon phase — on one thread.

use crate::machine::with_rule;
use crate::machine::{call, Machine, SERVE_STEP_GENS};
use crate::serve_load::{self, client_spec};
use crate::stats::{median, sample, timed};
use crate::trace::Tracer;
use crate::{Tally, Values};
use lattice_engines::core::bits::Traffic;
use lattice_engines::core::checkpoint::{
    self,
    store::{CheckpointStore, DiskBackend, SessionNamespace},
};
use lattice_engines::core::shard::{partition2d, Block};
use lattice_engines::core::units::{BitsPerTick, Ticks};
use lattice_engines::core::{evolve, Boundary, Coord, Grid, LatticeError, Shape};
use lattice_engines::farm::{FarmReport, ShardEngine};
use lattice_engines::gas::bitparallel::HppBitLattice;
use lattice_engines::gas::fhp_bitparallel::FhpBitLattice;
use lattice_engines::serve::{
    recovery_config, seed_grid, Client, GasRule, Query, Request, Response,
};
use lattice_engines::sim::Pipeline;
use lattice_engines::vlsi::{FarmModel, Technology};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

fn ms(d: u64) -> Duration {
    Duration::from_millis(d)
}

fn bad(msg: String) -> LatticeError {
    LatticeError::InvalidConfig(msg)
}

/// Runs every layer replay on `m`, writing the per-layer metrics into
/// `out`. `store` is a scratch directory for the checkpoint stores.
pub fn replay(
    m: &Machine,
    store: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Values,
) -> Result<(), LatticeError> {
    farm_passes(m, tracer, tally, out)?;
    bitparallel(m, tracer, out)?;
    link_frame(m, tracer, out)?;
    recovery(m, tracer, out)?;
    checkpoint_encode(m, tracer, out)?;
    let in_process_ms = session(m, store, tracer, out)?;
    serve_wire(m, store, in_process_ms, tracer, tally, out)
}

/// The board layout of a pass of depth `k`, and the rows of on-board
/// torus wrap each block carries (single-row board grids only).
fn layout(m: &Machine, k: usize) -> Result<(Vec<Block>, usize), LatticeError> {
    let (gr, gc) = m.farm.grid;
    let blocks = partition2d(m.spec.rows, m.spec.cols, gr, gc, k, m.farm.periodic)?;
    let wrap = if m.farm.periodic && gr == 1 { k } else { 0 };
    Ok((blocks, wrap))
}

/// Board `b`'s halo-augmented block of `grid` — the gather the farm's
/// exchange performs — and the global coordinate of its origin.
fn augmented(
    grid: &Grid<u8>,
    b: &Block,
    wrap: usize,
    periodic: bool,
) -> Result<(Grid<u8>, (usize, usize)), LatticeError> {
    let (rows, cols) = (grid.shape().rows() as i64, grid.shape().cols() as i64);
    let top = wrap + b.halo_up;
    let r0 = b.row0 as i64 - top as i64;
    let c0 = b.col0 as i64 - b.halo_left as i64;
    let shape = Shape::grid2(b.aug_height(wrap), b.aug_width())?;
    let aug = Grid::from_fn(shape, |c| {
        let (r, col) = (r0 + c.row() as i64, c0 + c.col() as i64);
        // Null-boundary halos are clamped to the lattice, so only the
        // torus needs wrapping.
        let (r, col) = if periodic { (r.rem_euclid(rows), col.rem_euclid(cols)) } else { (r, col) };
        grid.get(Coord::c2(r as usize, col as usize))
    });
    Ok((aug, (b.row0.wrapping_sub(top), b.col0.wrapping_sub(b.halo_left))))
}

/// Whether an engine's block result holds the farm's sites on every
/// site the block owns.
fn owned_match(engine: &Grid<u8>, farm: &Grid<u8>, b: &Block, wrap: usize) -> bool {
    let top = wrap + b.halo_up;
    (0..b.rows).all(|r| {
        (0..b.width).all(|j| {
            engine.get(Coord::c2(top + r, b.halo_left + j))
                == farm.get(Coord::c2(b.row0 + r, b.col0 + j))
        })
    })
}

fn wsa_width(m: &Machine) -> Result<usize, LatticeError> {
    match m.farm.engine {
        ShardEngine::Wsa { width } => Ok(width),
        ShardEngine::Spa { .. } => Err(bad("the benchmark's farms run WSA boards".into())),
    }
}

/// The farm one pass per `LatticeFarm::run` call, and beside it each
/// board's engine and the table-driven kernel on the same blocks.
fn farm_passes(
    m: &Machine,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Values,
) -> Result<(), LatticeError> {
    let k = m.farm.depth;
    let width = wsa_width(m)?;
    let (blocks, wrap) = layout(m, k)?;
    let mut grid = m.grid.clone();
    let mut t = 0u64;
    let mut pass_s = Vec::new();
    let mut block_s = vec![Vec::new(); blocks.len()];
    let mut table_s = Vec::new();
    let mut first: Option<FarmReport<u8>> = None;
    let start = std::time::Instant::now();
    while pass_s.len() < 3 || (pass_s.len() < 12 && start.elapsed() < ms(2000)) {
        let (rep, s) = tracer.span("layer.farm.pass", None, |_| {
            timed(|| with_rule!(&m.rule, r => m.farm.run(r, &grid, t, k as u64)))
        });
        let rep = rep?;
        pass_s.push(s);
        for b in &blocks {
            let (aug, origin) = augmented(&grid, b, wrap, m.farm.periodic)?;
            let (er, s) = tracer.span("layer.sim.block", Some(b.index as u64), |_| {
                timed(|| with_rule!(&m.rule, r => Pipeline::wide(width, k).run_at(r, &aug, t, origin)))
            });
            block_s[b.index].push(s);
            tally.attempted += 1;
            if !owned_match(&er?.grid, rep.grid(), b, wrap) {
                eprintln!(
                    "layers: board {} engine block disagrees with the farm at t={t}",
                    b.index
                );
                tally.failed += 1;
            }
            if b.index == 0 {
                let (_, s) = tracer.span("layer.gas.table", None, |_| {
                    timed(|| black_box(with_rule!(&m.rule, r => evolve(&aug, r, Boundary::null(), t, k as u64))))
                });
                table_s.push(s);
            }
        }
        grid = rep.grid().clone();
        t += k as u64;
        first.get_or_insert(rep);
    }
    let rep = first.ok_or_else(|| bad("no farm pass ran".into()))?;
    let pass = median(&pass_s);
    let board: Vec<f64> = block_s.iter().map(|s| median(s)).collect();
    let slowest = board.iter().copied().fold(0.0, f64::max);
    let fastest = board.iter().copied().fold(f64::INFINITY, f64::min);
    let aug_sites: Vec<f64> =
        blocks.iter().map(|b| (b.aug_height(wrap) * b.aug_width()) as f64).collect();
    out.insert("gas.table_mups", aug_sites[0] * k as f64 / median(&table_s) / 1e6);
    out.insert("sim.block_pass_ms", slowest * 1e3);
    out.insert(
        "sim.mups",
        aug_sites.iter().sum::<f64>() * k as f64 / board.iter().sum::<f64>() / 1e6,
    );
    out.insert("sim.share", slowest / pass);
    out.insert("farm.pass_ms", pass * 1e3);
    out.insert("farm.overhead_ms", (pass - slowest) * 1e3);
    out.insert("farm.overhead_share", (pass - slowest) / pass);
    out.insert("farm.imbalance", slowest / fastest);
    out.insert("farm.halo_bits_per_pass", rep.halo_traffic.bits_in as f64 / rep.passes as f64);
    out.insert("farm.useful_ratio", 1.0 / rep.redundancy());

    let p = u32::try_from(width).map_err(|_| bad("WSA width exceeds u32".into()))?;
    let mut model = FarmModel::new(Technology::paper_1987(), m.spec.rows, m.spec.cols, p, k)
        .with_periodic(m.farm.periodic);
    if let Some(bits) = m.spec.link_bits {
        model = model.with_link(BitsPerTick::new(bits));
    }
    if let Some(bits) = m.spec.tier_bits {
        model = model.with_tier_link(BitsPerTick::new(bits));
    }
    let predicted = model.pass_ticks2(m.farm.grid).get() as f64;
    let measured = rep.machine_ticks().get() as f64 / rep.passes as f64;
    out.insert("vlsi.pass_ticks_err", (predicted - measured).abs() / measured);
    Ok(())
}

/// The bit-plane kernel on the workload lattice: the ceiling a
/// bit-parallel fast path could reach.
fn bitparallel(m: &Machine, tracer: &mut Tracer, out: &mut Values) -> Result<(), LatticeError> {
    let mut run: Box<dyn FnMut(u64)> = match &m.rule {
        GasRule::Hpp(_) => {
            let mut lat = HppBitLattice::from_grid(&m.grid)?;
            Box::new(move |n| {
                lat.run(n);
                black_box(lat.mass());
            })
        }
        GasRule::Fhp(rule) => {
            let mut lat = FhpBitLattice::from_grid(&m.grid, rule.seed())?;
            Box::new(move |n| {
                lat.run(n);
                black_box(lat.mass());
            })
        }
    };
    let mut gens = 4u64;
    while timed(|| run(gens)).1 < 0.05 {
        gens *= 2;
    }
    let s =
        tracer.span("layer.gas.bitparallel", None, |_| sample(3, 3, Duration::ZERO, || run(gens)));
    out.insert("gas.bitparallel_mups", m.sites() as f64 * gens as f64 / median(&s) / 1e6);
    Ok(())
}

/// One fault-free ARQ transmit of board 0's halo-column frame.
fn link_frame(m: &Machine, tracer: &mut Tracer, out: &mut Values) -> Result<(), LatticeError> {
    let (blocks, wrap) = layout(m, m.farm.depth)?;
    let b = &blocks[0];
    let (aug, _) = augmented(&m.grid, b, wrap, m.farm.periodic)?;
    let aug = &aug;
    let frame: Vec<u8> = (0..b.halo_left)
        .chain(b.halo_left + b.width..b.aug_width())
        .flat_map(|c| (0..aug.shape().rows()).map(move |r| aug.get(Coord::c2(r, c))))
        .collect();
    let (mut pos, mut traffic, mut retransmits) = (0u64, Traffic::new(), 0u32);
    let s = tracer.span("layer.farm.link", None, |_| {
        sample(5, 5000, ms(200), || {
            let _ = black_box(m.farm.link.transmit_arq(
                &frame,
                0,
                None,
                &mut pos,
                &mut traffic,
                2,
                &mut retransmits,
            ));
        })
    });
    out.insert("farm.link_frame_us", median(&s) * 1e6);
    Ok(())
}

/// One workload step through the recovery ladder under the workload's
/// fault plan, and (when it has one) its fault-free twin.
fn recovery(m: &Machine, tracer: &mut Tracer, out: &mut Values) -> Result<(), LatticeError> {
    let audit = m.audit;
    let mut go = |name, plan| {
        tracer.span(name, None, |_| {
            timed(|| {
                with_rule!(&m.rule, r => m.farm.run_with_recovery(
                    r, &m.grid, 0, m.gens, plan, &m.cfg, |a, b| audit.check(a, b)
                ))
            })
        })
    };
    let (ft, faulted_s) = go("layer.recovery", m.plan.as_deref());
    let rec = ft?.recovery;
    let overhead = match m.plan {
        Some(_) => {
            let (twin, twin_s) = go("layer.recovery.twin", None);
            twin?;
            faulted_s / twin_s - 1.0
        }
        None => 0.0,
    };
    out.insert("farm.recovery.detected", rec.detected as f64);
    out.insert("farm.recovery.retransmits", rec.retransmits as f64);
    out.insert("farm.recovery.local_rollbacks", rec.local_rollbacks as f64);
    out.insert("farm.recovery.rollbacks", rec.rollbacks as f64);
    out.insert("farm.recovery.boards_retired", rec.boards_retired as f64);
    out.insert("farm.recovery.checkpoints", rec.checkpoints as f64);
    out.insert("farm.recovery.checkpoint_bytes", rec.checkpoint_bytes as f64);
    out.insert("farm.recovery.overhead_frac", overhead);
    Ok(())
}

/// The checkpoint codec on board 0's owned slab.
fn checkpoint_encode(
    m: &Machine,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Result<(), LatticeError> {
    let (blocks, _) = layout(m, m.farm.depth)?;
    let b = &blocks[0];
    let slab = Grid::from_fn(Shape::grid2(b.rows, b.width)?, |c| {
        m.grid.get(Coord::c2(b.row0 + c.row(), b.col0 + c.col()))
    });
    let s = tracer.span("layer.checkpoint.encode", None, |_| {
        sample(3, 500, ms(300), || {
            black_box(checkpoint::save(&slab, Ticks::new(0)));
        })
    });
    out.insert("checkpoint.barrier_encode_ms", median(&s) * 1e3);
    Ok(())
}

/// A daemon-style session of the workload's spec, in process: its
/// `step n=4` compute and its durable commit into a session store.
/// Returns the two p50s, in ms, that a daemon step spends in process.
fn session(
    m: &Machine,
    store: &Path,
    tracer: &mut Tracer,
    out: &mut Values,
) -> Result<f64, LatticeError> {
    let grid = seed_grid(&m.spec)?;
    let cfg = recovery_config(&m.spec);
    let mut session = m.farm.session_owned::<u8>(&grid, 0, m.plan.clone(), &cfg, None)?;
    let mut failure = None;
    let compute = tracer.span("layer.serve.compute", None, |_| {
        sample(3, 20, ms(1000), || {
            if let Err(e) = m.rule.step(&mut session, SERVE_STEP_GENS) {
                failure = Some(e);
            }
        })
    });
    if let Some(e) = failure.take() {
        return Err(e);
    }
    let dir = store.join("layer-commit");
    let mut commits =
        CheckpointStore::open(SessionNamespace::new(DiskBackend::open(&dir)?, "layer")?)?;
    let commit = tracer.span("layer.checkpoint.commit", None, |_| {
        sample(3, 20, ms(500), || {
            if let Err(e) = session.checkpoint(Some(&mut commits)) {
                failure = Some(e);
            }
        })
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let (compute, commit) = (median(&compute) * 1e3, median(&commit) * 1e3);
    out.insert("serve.step_compute_ms", compute);
    out.insert("checkpoint.commit_p50_ms", commit);
    out.insert(
        "checkpoint.bytes_per_commit",
        commits.bytes_written() as f64 / commits.commits() as f64,
    );
    std::fs::remove_dir_all(&dir).map_err(|e| bad(format!("removing {dir:?}: {e}")))?;
    Ok(compute + commit)
}

/// Round trips of `req` from `client`, each reply checked by `ok`.
fn round_trips(
    client: &mut Client,
    mut req: impl FnMut(u64) -> Request,
    ok: fn(&Response) -> bool,
    (min, max, budget): (usize, usize, Duration),
    tally: &mut Tally,
) -> Vec<f64> {
    let mut n = 0u64;
    sample(min, max, budget, || {
        n += 1;
        tally.attempted += 1;
        if !call(client, &req(n)).is_ok_and(|r| ok(&r)) {
            tally.failed += 1;
        }
    })
}

fn stepped(r: &Response) -> bool {
    matches!(r, Response::Stepped { .. })
}

/// The workload's spec as a daemon session over loopback: a no-op
/// query, steps from one client and then from two at once, a
/// full-lattice region query, and the region frame's codec.
/// `in_process_ms` is what a step spends computing and committing.
fn serve_wire(
    m: &Machine,
    store: &Path,
    in_process_ms: f64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Values,
) -> Result<(), LatticeError> {
    let specs = [client_spec(m, 0), client_spec(m, 1)];
    let mut live = serve_load::start(&specs, &store.join("layer-daemon"))?;
    let steps = |session: String, phase: &'static str| {
        move |n: u64| Request::Step {
            session: session.clone(),
            n: SERVE_STEP_GENS,
            id: Some(format!("{phase}-{n}")),
        }
    };
    let (client, _, spec) = &mut live.clients[0];
    let spec = spec.clone();
    let noop = tracer.span("layer.serve.noop", None, |_| {
        let report = |_| Request::QueryReq { session: "s0".into(), what: Query::Report };
        round_trips(client, report, |r| matches!(r, Response::Report(_)), (5, 10, ms(500)), tally)
    });
    let one = tracer.span("layer.serve.step", None, |_| {
        round_trips(client, steps("s0".into(), "one"), stepped, (3, 8, ms(1000)), tally)
    });
    let region = Request::QueryReq {
        session: "s0".into(),
        what: Query::Region { row0: 0, col0: 0, rows: spec.rows, cols: spec.cols },
    };
    let query = tracer.span("layer.serve.query", None, |_| {
        round_trips(
            client,
            |_| region.clone(),
            |r| matches!(r, Response::Region { .. }),
            (3, 5, ms(500)),
            tally,
        )
    });
    let line = client.call(&region.to_line())?;
    let two: Vec<(Vec<f64>, Tally)> = tracer.span("layer.serve.step2", None, |_| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = live
                .clients
                .iter_mut()
                .map(|(client, name, _)| {
                    let req = steps(name.clone(), "two");
                    scope.spawn(move || {
                        let mut t = Tally::default();
                        let s = round_trips(client, req, stepped, (3, 8, ms(1000)), &mut t);
                        (s, t)
                    })
                })
                .collect();
            let panicked = || (Vec::new(), Tally { attempted: 1, failed: 1 });
            handles.into_iter().map(|h| h.join().unwrap_or_else(|_| panicked())).collect()
        })
    });
    let mut both = Vec::new();
    for (s, t) in two {
        both.extend(s);
        tally.attempted += t.attempted;
        tally.failed += t.failed;
    }
    live.stop()?;

    let resp = Response::from_line(&line).map_err(|e| bad(e.to_string()))?;
    let encode = tracer.span("layer.serve.encode", None, |_| {
        sample(3, 50, ms(300), || {
            black_box(resp.to_line());
        })
    });
    let decode = tracer.span("layer.serve.decode", None, |_| {
        sample(3, 50, ms(300), || {
            let _ = black_box(Response::from_line(&line));
        })
    });
    out.insert("serve.noop_rtt_p50_ms", median(&noop) * 1e3);
    out.insert("serve.query_p50_ms", median(&query) * 1e3);
    out.insert("serve.unexplained_ms", median(&both) * 1e3 - in_process_ms);
    out.insert("serve.contention_ms", (median(&both) - median(&one)) * 1e3);
    out.insert("serve.region_encode_us", median(&encode) * 1e6);
    out.insert("serve.region_decode_us", median(&decode) * 1e6);
    out.insert("serve.region_frame_bytes", line.len() as f64);
    Ok(())
}
