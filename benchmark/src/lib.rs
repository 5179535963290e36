//! Host-clock benchmark of the lattice farm and the serve daemon.
//!
//! The model clock (simulated ticks at 10 MHz) is exact and ratcheted
//! elsewhere; this harness measures the *host* clock: how long the
//! kernels, engines, farm and daemon take on the machine running them.
//! It drives the system only through public APIs — `LatticeFarm::run`,
//! `LatticeFarm::run_with_recovery`, and a daemon from
//! `serve::Daemon::spawn` reached over loopback with `serve::Client`.
//!
//! An untraced run times the workload and reports the end-to-end
//! metrics ([`END_TO_END`]); a traced run records spans and replays
//! each layer on the workload's own inputs for the per-layer metrics
//! ([`PER_LAYER`]). Both check the workload's outputs.

mod farm_load;
mod layers;
mod machine;
mod serve_load;
mod stats;
mod trace;

pub use machine::{Size, Workload};
pub use trace::SelfTimes;

use crate::machine::Machine;
use crate::stats::{median, peak_rss_mib, quantile, timed};
use crate::trace::Tracer;
use lattice_engines::core::{Grid, LatticeError};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Operations attempted, and how many failed, erred or gave a wrong
/// result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The end-to-end metrics `(name, unit)` an untraced run reports.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("updates_per_s", "upd/s"),
    ("step_p2_ms", "ms"),
    ("model_ticks", "ticks"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics `(name, unit)` a traced run reports.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("gas.table_mups", "Mupd/s"),
    ("gas.bitparallel_mups", "Mupd/s"),
    ("sim.block_pass_ms", "ms"),
    ("sim.mups", "Mupd/s"),
    ("sim.share", "frac"),
    ("farm.pass_ms", "ms"),
    ("farm.overhead_ms", "ms"),
    ("farm.overhead_share", "frac"),
    ("farm.imbalance", "ratio"),
    ("farm.link_frame_us", "us"),
    ("farm.halo_bits_per_pass", "bits"),
    ("farm.useful_ratio", "frac"),
    ("farm.recovery.detected", "count"),
    ("farm.recovery.retransmits", "count"),
    ("farm.recovery.local_rollbacks", "count"),
    ("farm.recovery.rollbacks", "count"),
    ("farm.recovery.boards_retired", "count"),
    ("farm.recovery.checkpoints", "count"),
    ("farm.recovery.checkpoint_bytes", "bytes"),
    ("farm.recovery.overhead_frac", "frac"),
    ("checkpoint.barrier_encode_ms", "ms"),
    ("checkpoint.commit_p50_ms", "ms"),
    ("checkpoint.bytes_per_commit", "bytes"),
    ("serve.noop_rtt_p50_ms", "ms"),
    ("serve.query_p50_ms", "ms"),
    ("serve.step_compute_ms", "ms"),
    ("serve.unexplained_ms", "ms"),
    ("serve.contention_ms", "ms"),
    ("serve.region_encode_us", "us"),
    ("serve.region_decode_us", "us"),
    ("serve.region_frame_bytes", "bytes"),
    ("vlsi.pass_ticks_err", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Times a workload's set-up is repeated; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the lattice and the FHP chirality.
    pub seed: u64,
    /// Seconds the timed loop runs.
    pub seconds: f64,
    /// Traced run: where the spans go.
    pub trace: Option<PathBuf>,
    /// Workload size.
    pub size: Size,
    /// Flip one site of every lattice the checks read, to show the
    /// checks have teeth (tests only).
    pub tamper: bool,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// `(name, unit, value)` in catalogue order: the end-to-end metrics
    /// of an untraced run, the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Per-name span totals of a traced run.
    pub spans: Option<SelfTimes>,
    /// Human-readable lines on the timing samples behind the metrics.
    pub summary: Vec<String>,
}

impl Outcome {
    /// Whether every operation succeeded with a correct result.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// `grid` with bit 0 of site 0 flipped when `tamper` is set.
fn tampered(grid: &Grid<u8>, tamper: bool) -> Cow<'_, Grid<u8>> {
    if !tamper {
        return Cow::Borrowed(grid);
    }
    let mut g = grid.clone();
    g.set_linear(0, g.get_linear(0) ^ 1);
    Cow::Owned(g)
}

/// Scratch directory of a run's checkpoint stores, inside the package's
/// `target/`; unique per run, so concurrent runs in one process (the
/// tests) never share a store.
fn store_root(workload: Workload) -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target").join("bench-store").join(format!(
        "{}-{}-{n}",
        workload.name(),
        std::process::id()
    ))
}

/// Where `--trace 1` writes its spans.
pub fn default_trace_path(workload: Workload, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("trace")
        .join(format!("{}-seed{seed}.ndjson", workload.name()))
}

/// Runs one workload and returns its metrics.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(cfg.trace.is_some(), Instant::now());
    let mut tally = Tally::default();
    let mut values = Values::new();
    let mut summary = Vec::new();
    let store = store_root(cfg.workload);
    let result = tracer
        .span("run", None, |t| measure(cfg, &store, t, &mut tally, &mut values, &mut summary));
    if store.exists() {
        std::fs::remove_dir_all(&store).map_err(|e| format!("removing {store:?}: {e}"))?;
    }
    result.map_err(|e| format!("{}: {e}", cfg.workload.name()))?;
    let catalogue: &[(&'static str, &'static str)] =
        if cfg.trace.is_some() { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        match values.get(name) {
            Some(v) if v.is_finite() => metrics.push((name, unit, *v)),
            Some(v) => return Err(format!("metric {name} measured {v}")),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    let spans = match &cfg.trace {
        Some(path) => {
            tracer.write_ndjson(path).map_err(|e| format!("writing {path:?}: {e}"))?;
            Some(tracer.self_times())
        }
        None => None,
    };
    Ok(Outcome { tally, metrics, spans, summary })
}

/// What a workload's timed loop measured.
struct Measured {
    /// `(seconds, traced)` of every timed step.
    steps: Vec<(f64, bool)>,
    /// Seconds of every timed region query (serve-steady only).
    queries: Vec<f64>,
    /// Requests per second over the loop (serve-steady only).
    requests_per_s: Option<f64>,
    /// Useful site updates per second.
    updates_per_s: f64,
    /// Machine ticks of one step.
    model_ticks: f64,
}

/// Seconds of the untraced steps.
fn untraced(steps: &[(f64, bool)]) -> Vec<f64> {
    steps.iter().filter(|s| !s.1).map(|s| s.0).collect()
}

fn q(samples: &[f64], at: f64) -> f64 {
    quantile(samples, at).unwrap_or(f64::NAN)
}

/// The quantile of a run's steps the end-to-end timings report. Every
/// step of a run does the same work, but neighbours on a shared host
/// slow a share of steps that changes from run to run: that moves a
/// run's median step by up to ~20%, its 2nd percentile by ~2%. The 2nd
/// percentile rather than the fastest step, because a rare loopback
/// round trip skips a delayed ACK and returns in half the usual time.
/// The run summary prints the median and tail beside it.
pub const STEP_QUANTILE: f64 = 0.02;

/// A run's step time: the [`STEP_QUANTILE`] of its `samples`.
fn step_time(samples: &[f64]) -> f64 {
    q(samples, STEP_QUANTILE)
}

/// Sets the workload up [`SETUP_REPEATS`] times and runs its timed loop.
fn drive(
    cfg: &RunConfig,
    store: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    setup_s: &mut Vec<f64>,
) -> Result<(Machine, Measured), LatticeError> {
    if cfg.workload == Workload::ServeSteady {
        let m = Machine::build(cfg.workload, cfg.size, cfg.seed)?;
        let specs: Vec<_> =
            (0..machine::SERVE_CLIENTS).map(|i| serve_load::client_spec(&m, i)).collect();
        // Each set-up replaces the previous daemon; the last one serves.
        let mut live: Option<serve_load::Live> = None;
        for rep in 0..SETUP_REPEATS {
            if let Some(prev) = live.take() {
                prev.stop()?;
            }
            let dir = store.join(format!("daemon-{rep}"));
            let (started, s) =
                tracer.span("setup", None, |_| timed(|| serve_load::start(&specs, &dir)));
            live = Some(started?);
            setup_s.push(s);
        }
        let mut live = live.expect("SETUP_REPEATS > 0");
        let run = tracer
            .span("loop", None, |t| serve_load::run(&mut live, cfg.seconds, cfg.tamper, t, tally));
        live.stop()?;
        let run = run?;
        let updates = run.steps * machine::SERVE_STEP_GENS * m.sites();
        let measured = Measured {
            steps: run.samples.iter().filter(|s| s.step).map(|s| (s.secs, s.traced)).collect(),
            queries: run.samples.iter().filter(|s| !s.step && !s.traced).map(|s| s.secs).collect(),
            requests_per_s: Some(run.samples.len() as f64 / run.secs),
            updates_per_s: updates as f64 / run.secs,
            model_ticks: run.model_ticks,
        };
        return Ok((m, measured));
    }
    let build = || Machine::build(cfg.workload, cfg.size, cfg.seed);
    let (m, s) = tracer.span("setup", None, |_| timed(build));
    let m = m?;
    setup_s.push(s);
    // The other set-ups run between timed steps, so their median samples
    // the whole run rather than one instant: a farm set-up takes a few
    // ms, and a shared host's speed can switch between levels ~1.6x
    // apart within seconds.
    let mut again = || -> Result<(), LatticeError> {
        if setup_s.len() < SETUP_REPEATS {
            let (built, s) = timed(build);
            built?;
            setup_s.push(s);
        }
        Ok(())
    };
    let run = tracer.span("loop", None, |t| {
        farm_load::run(cfg.workload, &m, cfg.seconds, cfg.tamper, t, tally, &mut again)
    })?;
    for _ in 0..SETUP_REPEATS {
        again()?;
    }
    let steps: Vec<(f64, bool)> = run.steps.iter().map(|s| (s.secs, s.traced)).collect();
    let measured = Measured {
        updates_per_s: (m.sites() * m.gens) as f64 / step_time(&untraced(&steps)),
        steps,
        queries: Vec::new(),
        requests_per_s: None,
        model_ticks: run.model_ticks as f64,
    };
    Ok((m, measured))
}

fn measure(
    cfg: &RunConfig,
    store: &Path,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Values,
    summary: &mut Vec<String>,
) -> Result<(), LatticeError> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let (machine, run) = drive(cfg, store, tracer, tally, &mut setup_s)?;
    let steps = untraced(&run.steps);
    let traced: Vec<f64> = run.steps.iter().filter(|s| s.1).map(|s| s.0).collect();
    summary.push(format!(
        "steps: n={} p2 {:.3} ms, p50 {:.3} ms, p95 {:.3} ms",
        steps.len(),
        step_time(&steps) * 1e3,
        q(&steps, 0.50) * 1e3,
        q(&steps, 0.95) * 1e3
    ));
    if let Some(rps) = run.requests_per_s {
        summary.push(format!(
            "region queries: n={} p50 {:.3} ms; {rps:.2} requests/s",
            run.queries.len(),
            q(&run.queries, 0.50) * 1e3
        ));
    }
    out.insert("setup_s", median(&setup_s));
    out.insert("updates_per_s", run.updates_per_s);
    out.insert("step_p2_ms", step_time(&steps) * 1e3);
    out.insert("model_ticks", run.model_ticks);
    out.insert("peak_rss_mb", peak_rss_mib().map_err(LatticeError::InvalidConfig)?);
    out.insert("trace.overhead_frac", step_time(&traced) / step_time(&steps) - 1.0);
    if cfg.trace.is_some() {
        tracer.span("layers", None, |t| layers::replay(&machine, store, t, tally, out))?;
    }
    Ok(())
}
