//! Command-line interface for the `lattice` binary.
//!
//! Hand-rolled argument parsing (the workspace's dependency policy
//! excludes CLI crates); every command parses to a typed request and
//! executes to a string, so the whole surface is unit-testable without
//! spawning processes. Each subcommand declares its flags once, as the
//! accessor calls in `read`: parsing, the errors for unknown, repeated
//! and mode-mismatched flags (exit 2), and [`usage`] all derive from
//! those calls.
//!
//! ```text
//! lattice gas | resume | engine | waveform    gases and the paper's engines
//! lattice design | pebble | image             design space, I/O bounds, filters
//! lattice fault-sim [--farm] | chaos [--serve]  fault injection and soaks
//! lattice farm | bench                        the board farm and its ratchet
//! lattice serve | request                     the daemon and its client
//! lattice info
//! ```

use crate::core::units::Ticks;
use crate::core::{checkpoint, evolve, Boundary, Evolver, Grid, LatticeError, Rule, Shape};
use crate::farm::{FarmDegradeConfig, FarmRecoveryConfig, FarmReport, LatticeFarm, ShardEngine};
use crate::gas::observe::{Model, Observables};
use crate::gas::{init, FhpRule, FhpVariant, HppRule};
use crate::pebbles::bounds::{io_lower_bound, tau_upper_bound};
use crate::pebbles::strategies::{naive_sweep, tiled_schedule};
use crate::pebbles::LatticeGraph;
use crate::serve::{seed_grid, GasRule, SessionSpec};
use crate::sim::{Component, Fault, FaultKind, FaultPlan, Pipeline, SpaEngine, WsaePipeline};
use crate::vlsi::{spa::Spa, wsa::Wsa, wsae::Wsae, Technology};
use lattice_pebbles::PebbleGraph;
use std::fmt::Display;
use std::str::FromStr;

/// A parsed command-line invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Evolve a gas and report observables.
    Gas {
        /// Gas model name (`hpp`, `fhp1`, `fhp2`, `fhp3`).
        model: String,
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
        /// Generations to run.
        steps: u64,
        /// Per-channel density.
        density: f64,
        /// RNG seed.
        seed: u64,
        /// Toroidal boundaries.
        periodic: bool,
        /// Checkpoint path to write at the end.
        save: Option<String>,
    },
    /// Run an architectural simulator and report measured figures.
    Engine {
        /// Architecture (`serial`, `wsa`, `spa`, `wsae`).
        arch: String,
        /// PEs per stage (wsa) .
        width: usize,
        /// Pipeline depth.
        depth: usize,
        /// SPA slice width.
        slice_width: usize,
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Explore the §6 design space for a problem.
    Design {
        /// Lattice side.
        l: u32,
        /// Target update rate (updates/s).
        rate: f64,
        /// Main-memory budget, bits/tick.
        budget: u32,
    },
    /// Pebbling bounds for a computation graph.
    Pebble {
        /// Lattice dimension.
        d: usize,
        /// Lattice side.
        r: usize,
        /// Generations.
        t: usize,
        /// Processor storage (red pebbles).
        s: usize,
    },
    /// Resume an evolution from a checkpoint file.
    Resume {
        /// Checkpoint path (written by `gas --save`).
        load: String,
        /// Gas model the checkpoint belongs to.
        model: String,
        /// Additional generations.
        steps: u64,
        /// Seed (must match the original run for identical trajectories).
        seed: u64,
        /// Toroidal boundaries.
        periodic: bool,
        /// Path to write the new checkpoint.
        save: Option<String>,
    },
    /// Run a morphology/filter chain over a synthetic noisy image.
    Image {
        /// Comma-separated stage list from {erode, dilate, open, close,
        /// median, blur, threshold, sobel}.
        chain: String,
        /// Image rows.
        rows: usize,
        /// Image columns.
        cols: usize,
        /// Noise seed.
        seed: u64,
    },
    /// Render the pipeline wavefront (per-stage progress bars).
    Waveform {
        /// PEs per stage.
        width: usize,
        /// Pipeline depth.
        depth: usize,
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
    },
    /// Inject hardware faults into an engine run and report detection,
    /// rollback, and MTBF-style figures.
    FaultSim(FaultSimArgs),
    /// Shard a lattice over a board-level engine farm and report
    /// machine-level figures against the links-per-board model.
    Farm(FarmArgs),
    /// Randomized chaos soak: seeded storms mixing every fault class
    /// (SR/PE/link upsets, worker hang/die, stuck boards, I/O faults
    /// against the durable store), with conservation and store
    /// invariants checked after every storm. Exits nonzero — printing a
    /// one-line deterministic repro — if any storm ends unrecovered.
    Chaos {
        /// Independent storms to run.
        storms: u64,
        /// Lattice rows (must exceed 2x --steps; see fault-sim).
        rows: usize,
        /// Lattice columns (must exceed 2x --steps).
        cols: usize,
        /// Generations per storm.
        steps: u64,
        /// Master seed; storm `i` derives its own seed as `seed + i`.
        seed: u64,
        /// Base transient upset rate for in-machine faults.
        rate: f64,
        /// Per-operation rate for each injected I/O fault class.
        io_rate: f64,
    },
    /// `chaos --serve`: storm the service layer instead of a bare farm.
    /// Each storm runs faulted sessions through repeated daemon
    /// kill+restart cycles with transport garbage injected between
    /// steps, then checks bit-exactness, quarantine containment,
    /// namespace hygiene, and cross-restart ladder accounting.
    ServeChaos {
        /// Independent storms to run.
        storms: u64,
        /// Upper bound on the generations stepped per daemon life.
        steps: u64,
        /// Master seed; storm `i` derives its own seed as `seed + i`.
        seed: u64,
        /// Halo-link transient upset rate of the weathered session.
        rate: f64,
    },
    /// Start the lattice-as-a-service daemon: line-delimited JSON over
    /// TCP, model-driven admission control, LRU eviction to the
    /// durable checkpoint store, live metrics via `stats`.
    Serve {
        /// Bind address (`HOST:PORT`; port 0 lets the OS pick — the
        /// daemon prints the bound address before serving).
        addr: String,
        /// Durable store directory; enables eviction and makes a
        /// daemon kill + restart lossless.
        checkpoint_dir: Option<String>,
        /// Aggregate inter-board link capacity in bits/tick that
        /// admission control may hand out (default 512).
        link_capacity: Option<f64>,
        /// Sessions allowed to keep engine state in memory at once.
        max_live: usize,
    },
    /// Send one protocol frame to a running daemon and print the
    /// response line(s).
    Request {
        /// Daemon address (`HOST:PORT`).
        addr: String,
        /// The request frame, as JSON (validated locally first).
        line: String,
        /// Per-attempt I/O deadline (connect + read + write), seconds.
        timeout_secs: f64,
        /// Resends after a transport failure or timeout, with
        /// exponential backoff + jitter. A retried `step` is stamped
        /// with a request id so the daemon applies it at most once.
        retries: u32,
    },
    /// Benchmark the farm across engine x shards x overlap and report
    /// sites/second; `--json` writes a `BENCH_<date>.json` artifact.
    Bench(BenchArgs),
    /// Print the version/summary banner.
    Info,
}

/// Arguments of `lattice fault-sim`: the confined HPP world swept
/// through a ladder of fault rates.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSimArgs {
    /// Lattice rows.
    pub rows: usize,
    /// Lattice columns.
    pub cols: usize,
    /// PEs per stage.
    pub width: usize,
    /// Pipeline depth (one chip per stage).
    pub depth: usize,
    /// Generations to run.
    pub steps: u64,
    /// RNG seed (gas init and fault draws).
    pub seed: u64,
    /// Base transient upset rate: per shift-register store on one chip
    /// engine, per halo-link frame on a farm.
    pub rate: f64,
    /// Rollback retries per checkpoint window.
    pub retries: u32,
    /// Passes between checkpoints.
    pub ckpt_every: u64,
    /// One chip engine, or a board farm.
    pub mode: FaultSimMode,
}

/// The machine `lattice fault-sim` injects faults into.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSimMode {
    /// One WSA chip engine with upsets in one chip's shift register.
    Chip {
        /// Also stick a link bit on this chip (exercises degraded mode).
        stuck_chip: Option<usize>,
    },
    /// `--farm`: sweep halo-link upset rate × board layout through the
    /// board-level recovery ladder.
    Farm {
        /// Comma-separated shard counts (e.g. `1,2,4`).
        shards: String,
        /// Sweep one R×C board grid (e.g. `2x2`) instead of the shard
        /// list; upsets hit both link tiers.
        grid: Option<(usize, usize)>,
        /// Stick a halo-link bit on this board (exercises degraded
        /// re-partitioning).
        stuck_board: Option<usize>,
        /// Overlapped halo exchange (ship-ahead staged frames race the
        /// interior sweep; faults invalidate windows).
        overlap: bool,
    },
}

/// Arguments of `lattice farm`: the daemon's session spec plus the
/// knobs only a one-shot run has.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmArgs {
    /// The machine and the gas, exactly as a daemon session would take
    /// them; [`SessionSpec::default`] holds the CLI defaults.
    pub spec: SessionSpec,
    /// Generations to run.
    pub steps: u64,
    /// Verify bit-exactness against the reference engine.
    pub verify: bool,
    /// Persist shard-consistent snapshots to this directory
    /// (double-buffered generation files; see `core::checkpoint::store`).
    pub checkpoint_dir: Option<String>,
    /// Passes between durable checkpoints (with `--checkpoint-dir`).
    pub ckpt_every: u64,
    /// Resume from the newest good generation in `--checkpoint-dir`
    /// instead of starting at generation 0; continues bit-exact.
    pub resume: bool,
}

/// Arguments of `lattice bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Lattice rows.
    pub rows: usize,
    /// Lattice columns.
    pub cols: usize,
    /// Generations per cell.
    pub steps: u64,
    /// RNG seed.
    pub seed: u64,
    /// Generations per pass (= halo width).
    pub depth: usize,
    /// Comma-separated shard counts (e.g. `1,2,4`).
    pub shards: String,
    /// Comma-separated halo-link transient fault rates (e.g. `0.01`):
    /// each adds a WSA sweep through the recovery ladder and reports
    /// the recovery cost alongside throughput.
    pub fault_rates: String,
    /// Inter-board link capacity in bits per engine tick. Finite by
    /// default so the link-utilization column measures a real wire,
    /// unlike the unthrottled `farm` default. With `--grid` this is the
    /// intra-rack tier.
    pub link_bits: f64,
    /// Also bench an R×C board grid (`--grid 2x2`): adds grid legs
    /// alongside the columnar shard sweep.
    pub grid: Option<(usize, usize)>,
    /// Inter-rack tier capacity for the grid legs, bits/tick (defaults
    /// to `--link-bits`); needs `--grid`.
    pub tier_bits: Option<f64>,
    /// Also write the machine-readable artifact.
    pub json: bool,
    /// Artifact path (default `BENCH_<date>.json`).
    pub out: Option<String>,
    /// Compare against a checked-in artifact and fail if any
    /// configuration's sites/sec regressed beyond `tolerance`.
    pub baseline: Option<String>,
    /// Allowed fractional sites/sec slack vs the baseline.
    pub tolerance: f64,
}

/// A CLI error with a user-facing message.
#[derive(Debug, Clone, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<LatticeError> for CliError {
    fn from(e: LatticeError) -> Self {
        CliError(e.to_string())
    }
}

/// The process exit code for a failed command. Most failures exit 2;
/// `lattice request` distinguishes the three ways a round trip can go
/// wrong so scripts can branch without parsing prose: 3 = transport
/// failure (connect/read/write), 4 = deadline exceeded, 5 = the daemon
/// itself answered with an error frame.
pub fn exit_code(err: &CliError) -> i32 {
    let msg = err.0.as_str();
    if msg.starts_with("request: timeout") {
        4
    } else if msg.starts_with("request: transport") {
        3
    } else if msg.starts_with("request: daemon error") {
        5
    } else {
        2
    }
}

/// One invocation's flags, read through typed accessors. An accessor
/// call is its flag's only declaration: it marks the flag read, and in
/// describe mode (the pass [`usage`] makes over empty input) it also
/// records the flag's usage entry. [`Flags::finish`] rejects every flag
/// the subcommand did not read.
struct Flags {
    /// The subcommand plus the mode switches turned on (`fault-sim
    /// --farm`), for messages and usage lines.
    label: String,
    /// `(name, value, read)` per flag given; `value` is `None` for a
    /// bare flag.
    given: Vec<(String, Option<String>, bool)>,
    /// Messages for absent required flags, reported after unknown ones.
    missing: Vec<String>,
    /// Describe mode: the usage entry of every flag read so far.
    entries: Option<Vec<String>>,
    /// The mode switches read while off.
    modes: Vec<&'static str>,
}

impl Flags {
    /// Tokenizes `--name value`, `--name=value` and bare `--name`; a
    /// value may start with `-` (`--rate -1`) but not with `--`. A
    /// repeated flag or a stray token is an error.
    fn new(cmd: &str, args: &[String]) -> Result<Flags, CliError> {
        let mut given: Vec<(String, Option<String>, bool)> = Vec::new();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let Some(flag) = arg.strip_prefix("--") else {
                return Err(CliError(format!(
                    "unexpected argument `{arg}` (flags are --name value)"
                )));
            };
            let (name, value) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (flag, args.next_if(|v| !v.starts_with("--")).cloned()),
            };
            if given.iter().any(|(n, ..)| n == name) {
                return Err(CliError(format!("{cmd}: --{name} given twice")));
            }
            given.push((name.to_string(), value, false));
        }
        let label = cmd.to_string();
        Ok(Flags { label, given, missing: Vec::new(), entries: None, modes: Vec::new() })
    }

    /// Records a flag's usage entry (describe mode only).
    fn note(&mut self, entry: String) {
        if let Some(entries) = &mut self.entries {
            entries.push(entry);
        }
    }

    /// Marks `name` read; `None` when absent, `Some(None)` when bare.
    fn take(&mut self, name: &str) -> Option<Option<String>> {
        let (_, value, read) = self.given.iter_mut().find(|(n, ..)| n == name)?;
        *read = true;
        Some(value.clone())
    }

    fn value<T: FromStr>(&mut self, name: &str, entry: String) -> Result<Option<T>, CliError> {
        self.note(entry);
        match self.take(name) {
            None => Ok(None),
            Some(None) => Err(CliError(format!("{}: --{name} needs a value", self.label))),
            Some(Some(v)) => {
                v.parse().map(Some).map_err(|_| CliError(format!("bad value for --{name}: `{v}`")))
            }
        }
    }

    fn bare(&mut self, name: &str) -> Result<bool, CliError> {
        match self.take(name) {
            None => Ok(false),
            Some(None) => Ok(true),
            Some(Some(v)) => {
                Err(CliError(format!("{}: --{name} takes no value (got `{v}`)", self.label)))
            }
        }
    }

    /// `--name VALUE`, or `default` when absent.
    fn get<T: FromStr + Display>(&mut self, name: &str, default: T) -> Result<T, CliError> {
        let entry = format!("[--{name} {default}]");
        Ok(self.value(name, entry)?.unwrap_or(default))
    }

    /// An optional `--name METAVAR`.
    fn opt<T: FromStr>(&mut self, name: &str, metavar: &str) -> Result<Option<T>, CliError> {
        self.value(name, format!("[--{name} {metavar}]"))
    }

    /// A bare `--name`.
    fn switch(&mut self, name: &str) -> Result<bool, CliError> {
        self.note(format!("[--{name}]"));
        self.bare(name)
    }

    /// A switch selecting one of the subcommand's modes: once on it
    /// joins the label, and [`usage`] gives each mode its own line.
    fn mode(&mut self, name: &'static str) -> Result<bool, CliError> {
        let on = self.bare(name)?;
        if on {
            self.label = format!("{} --{name}", self.label);
        } else {
            self.modes.push(name);
        }
        Ok(on)
    }

    /// A `--name HINT` the subcommand cannot run without; its absence
    /// is reported by [`Flags::finish`], after any unknown flag.
    fn required(&mut self, name: &str, hint: &str) -> Result<String, CliError> {
        let value = self.value(name, format!("--{name} {hint}"))?;
        if value.is_none() {
            self.missing.push(format!("{} needs --{name} {hint}", self.label));
        }
        Ok(value.unwrap_or_default())
    }

    /// Rejects every flag the subcommand did not read, then any absent
    /// required flag.
    fn finish(self) -> Result<(), CliError> {
        if let Some((name, ..)) = self.given.iter().find(|(.., read)| !read) {
            return Err(CliError(format!(
                "{}: unknown flag --{name} (`lattice help` lists each mode's flags)",
                self.label
            )));
        }
        self.missing.into_iter().next().map_or(Ok(()), |m| Err(CliError(m)))
    }
}

/// A board-grid shape written `RxC` (e.g. `2x3`): both axes ≥ 1, and
/// their product — the board count — fits a `usize`.
struct Rxc((usize, usize));

impl FromStr for Rxc {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        let (r, c) = s.split_once(['x', 'X']).ok_or(())?;
        match (r.trim().parse::<usize>(), c.trim().parse::<usize>()) {
            (Ok(r), Ok(c)) if r > 0 && c > 0 && r.checked_mul(c).is_some() => Ok(Rxc((r, c))),
            _ => Err(()),
        }
    }
}

/// Column alignment for [`SweepTable`].
#[derive(Clone, Copy)]
enum Align {
    Left,
    Right,
}

/// Fixed-width formatter for the sweep tables (`fault-sim`,
/// `fault-sim --farm`, `chaos`, `bench`): one place owns each table's
/// column widths so headers and rows cannot drift apart.
struct SweepTable {
    cols: Vec<(&'static str, usize, Align)>,
}

impl SweepTable {
    /// A table from `(name, min_width, align)` triples; every column is
    /// at least as wide as its header.
    fn new(cols: &[(&'static str, usize, Align)]) -> Self {
        SweepTable { cols: cols.iter().map(|&(n, w, a)| (n, w.max(n.len()), a)).collect() }
    }

    /// The header line, trailing newline included.
    fn header(&self) -> String {
        let cells: Vec<String> =
            self.cols.iter().map(|&(name, w, _)| format!("{name:<w$}")).collect();
        format!("{}\n", cells.join("  ").trim_end())
    }

    /// One row, trailing newline included. Fewer cells than columns is
    /// allowed — the last cell given is never padded, so spill-over
    /// messages ("gave up: …") can span the remaining columns.
    fn row(&self, cells: &[String]) -> String {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            match self.cols.get(i) {
                Some(&(_, w, align)) if i + 1 < cells.len() => match align {
                    Align::Left => out.push_str(&format!("{cell:<w$}")),
                    Align::Right => out.push_str(&format!("{cell:>w$}")),
                },
                _ => out.push_str(cell),
            }
        }
        out.push('\n');
        out
    }
}

/// The subcommands, in usage order.
const COMMANDS: [&str; 14] = [
    "gas",
    "engine",
    "resume",
    "design",
    "pebble",
    "image",
    "waveform",
    "fault-sim",
    "farm",
    "chaos",
    "serve",
    "request",
    "bench",
    "info",
];

/// One describe pass per subcommand and per mode through [`read`]:
/// the usage label and the flag entries of each.
fn describe_all() -> Result<Vec<(String, Vec<String>)>, CliError> {
    let pass = |cmd: &str, args: &[String]| -> Result<Flags, CliError> {
        let mut flags = Flags { entries: Some(Vec::new()), ..Flags::new(cmd, args)? };
        read(cmd, &mut flags)?;
        Ok(flags)
    };
    let mut lines = Vec::new();
    for cmd in COMMANDS {
        let base = pass(cmd, &[])?;
        let modes = base.modes.clone();
        lines.push((base.label, base.entries.unwrap_or_default()));
        for m in modes {
            let moded = pass(cmd, &[format!("--{m}")])?;
            lines.push((moded.label, moded.entries.unwrap_or_default()));
        }
    }
    Ok(lines)
}

/// Usage text: one line per subcommand mode, listing the flags its
/// reader declares.
pub fn usage() -> String {
    let mut out = String::from(
        "lattice — VLSI lattice engines (Kugelmass–Squier–Steiglitz 1987)\n\n\
         USAGE (flag values shown are the defaults):\n",
    );
    for (label, entries) in describe_all().unwrap_or_default() {
        let mut line = format!("  lattice {label}");
        for entry in entries {
            if line.len() + entry.len() >= 78 {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(9);
            }
            line = format!("{line} {entry}");
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Parses an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError(usage()));
    };
    if !COMMANDS.contains(&cmd.as_str()) {
        return Err(CliError(match cmd.as_str() {
            "help" | "--help" | "-h" => usage(),
            other => format!("unknown command `{other}`\n\n{}", usage()),
        }));
    }
    let mut flags = Flags::new(cmd, rest)?;
    let command = read(cmd, &mut flags)?;
    flags.finish()?;
    Ok(command)
}

/// Reads subcommand `cmd`'s flags: the one declaration of each flag,
/// its type and its default.
fn read(cmd: &str, f: &mut Flags) -> Result<Command, CliError> {
    Ok(match cmd {
        "gas" => Command::Gas {
            model: f.get("model", String::from("fhp1"))?,
            rows: f.get("rows", 64)?,
            cols: f.get("cols", 64)?,
            steps: f.get("steps", 100)?,
            density: f.get("density", 0.3)?,
            seed: f.get("seed", 42)?,
            periodic: f.switch("periodic")?,
            save: f.opt("save", "FILE")?,
        },
        "engine" => Command::Engine {
            arch: f.get("arch", String::from("wsa"))?,
            width: f.get("width", 2)?,
            depth: f.get("depth", 4)?,
            slice_width: f.get("slice-width", 16)?,
            rows: f.get("rows", 48)?,
            cols: f.get("cols", 96)?,
            seed: f.get("seed", 42)?,
        },
        "resume" => Command::Resume {
            load: f.required("load", "FILE")?,
            model: f.get("model", String::from("fhp1"))?,
            steps: f.get("steps", 100)?,
            seed: f.get("seed", 42)?,
            periodic: f.switch("periodic")?,
            save: f.opt("save", "FILE")?,
        },
        "design" => Command::Design {
            l: f.get("l", 1024)?,
            rate: f.get("rate", 5e7)?,
            budget: f.get("budget", 512)?,
        },
        "pebble" => Command::Pebble {
            d: f.get("d", 2)?,
            r: f.get("r", 32)?,
            t: f.get("t", 16)?,
            s: f.get("s", 256)?,
        },
        "image" => Command::Image {
            chain: f.get("chain", String::from("median,open,close"))?,
            rows: f.get("rows", 24)?,
            cols: f.get("cols", 48)?,
            seed: f.get("seed", 7)?,
        },
        "waveform" => Command::Waveform {
            width: f.get("width", 1)?,
            depth: f.get("depth", 4)?,
            rows: f.get("rows", 16)?,
            cols: f.get("cols", 24)?,
        },
        "fault-sim" => {
            let farm = f.mode("farm")?;
            Command::FaultSim(FaultSimArgs {
                rows: f.get("rows", 48)?,
                cols: f.get("cols", 64)?,
                width: f.get("width", 2)?,
                depth: f.get("depth", 4)?,
                steps: f.get("steps", 8)?,
                seed: f.get("seed", 42)?,
                rate: f.get("rate", 3e-5)?,
                retries: f.get("retries", 3)?,
                ckpt_every: f.get("ckpt-every", 1)?,
                mode: if farm {
                    FaultSimMode::Farm {
                        shards: f.get("farm-shards", String::from("1,2,4"))?,
                        grid: f.opt("farm-grid", "RxC")?.map(|Rxc(g)| g),
                        stuck_board: f.opt("stuck-board", "B")?,
                        overlap: f.switch("overlap")?,
                    }
                } else {
                    FaultSimMode::Chip { stuck_chip: f.opt("stuck-chip", "J")? }
                },
            })
        }
        "farm" => {
            let d = SessionSpec::default();
            // `--grid RxC` implies R·C boards; an explicit `--shards`
            // must agree with it.
            let grid = f.opt("grid", "RxC")?.map(|Rxc(g)| g);
            let shards = f.get("shards", grid.map_or(d.shards, |(gr, gc)| gr * gc))?;
            if let Some((gr, gc)) = grid.filter(|&(gr, gc)| gr * gc != shards) {
                return Err(CliError(format!(
                    "farm: --grid {gr}x{gc} disagrees with --shards {shards}"
                )));
            }
            Command::Farm(FarmArgs {
                spec: SessionSpec {
                    shards,
                    grid,
                    engine: f.get("engine", d.engine)?,
                    width: f.get("width", d.width)?,
                    slice_width: f.get("slice-width", d.slice_width)?,
                    depth: f.get("depth", d.depth)?,
                    rows: f.get("rows", d.rows)?,
                    cols: f.get("cols", d.cols)?,
                    seed: f.get("seed", d.seed)?,
                    model: f.get("model", d.model)?,
                    periodic: f.switch("periodic")?,
                    link_bits: f.opt("link-bits", "F")?,
                    tier_bits: f.opt("tier-bits", "F")?,
                    overlap: f.switch("overlap")?,
                    ..d
                },
                steps: f.get("steps", 8)?,
                verify: f.switch("verify")?,
                checkpoint_dir: f.opt("checkpoint-dir", "DIR")?,
                ckpt_every: f.get("ckpt-every", 1)?,
                resume: f.switch("resume")?,
            })
        }
        "chaos" => {
            let serve = f.mode("serve")?;
            let (storms, steps) = (f.get("storms", 4)?, f.get("steps", 6)?);
            let (seed, rate) = (f.get("seed", 42)?, f.get("rate", 2e-3)?);
            if serve {
                Command::ServeChaos { storms, steps, seed, rate }
            } else {
                Command::Chaos {
                    storms,
                    rows: f.get("rows", 36)?,
                    cols: f.get("cols", 40)?,
                    steps,
                    seed,
                    rate,
                    io_rate: f.get("io-rate", 0.1)?,
                }
            }
        }
        "serve" => Command::Serve {
            addr: f.get("addr", String::from("127.0.0.1:0"))?,
            checkpoint_dir: f.opt("checkpoint-dir", "DIR")?,
            link_capacity: f.opt("link-capacity", "BITS_PER_TICK")?,
            max_live: f.get("max-live", 4)?,
        },
        "request" => Command::Request {
            addr: f.required("addr", "HOST:PORT")?,
            line: f.required("line", "JSON_FRAME")?,
            timeout_secs: f.get("timeout", 30.0)?,
            retries: f.get("retries", 0)?,
        },
        "bench" => Command::Bench(BenchArgs {
            rows: f.get("rows", 48)?,
            cols: f.get("cols", 96)?,
            steps: f.get("steps", 8)?,
            seed: f.get("seed", 42)?,
            depth: f.get("depth", 2)?,
            shards: f.get("shards", String::from("1,2,4"))?,
            fault_rates: f.opt("fault-rates", "F1,F2,..")?.unwrap_or_default(),
            link_bits: f.get("link-bits", 16.0)?,
            grid: f.opt("grid", "RxC")?.map(|Rxc(g)| g),
            tier_bits: f.opt("tier-bits", "F")?,
            json: f.switch("json")?,
            out: f.opt("out", "FILE")?,
            baseline: f.opt("baseline", "FILE")?,
            tolerance: f.get("tolerance", 0.02)?,
        }),
        "info" => Command::Info,
        other => return Err(CliError(format!("unknown command `{other}`"))),
    })
}

/// Executes a command, returning the report text.
pub fn execute(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Gas { model, rows, cols, steps, density, seed, periodic, save } => {
            run_gas(&model, rows, cols, steps, density, seed, periodic, save.as_deref())
        }
        Command::Engine { arch, width, depth, slice_width, rows, cols, seed } => {
            run_engine(&arch, width, depth, slice_width, rows, cols, seed)
        }
        Command::Resume { load, model, steps, seed, periodic, save } => {
            run_resume(&load, &model, steps, seed, periodic, save.as_deref())
        }
        Command::Design { l, rate, budget } => run_design(l, rate, budget),
        Command::Pebble { d, r, t, s } => run_pebble(d, r, t, s),
        Command::Image { chain, rows, cols, seed } => run_image(&chain, rows, cols, seed),
        Command::Waveform { width, depth, rows, cols } => {
            let shape = Shape::grid2(rows, cols)?;
            let grid = init::random_fhp(shape, FhpVariant::I, 0.3, 5, false)?;
            let rule = FhpRule::new(FhpVariant::I, 5);
            let stride = ((rows * cols / 12).max(1)) as u64;
            let wf = crate::sim::waveform::record(&rule, &grid, width, depth, stride)?;
            wf.check_invariants().map_err(CliError)?;
            Ok(format!(
                "pipeline wavefront: {width} PE(s)/stage, depth {depth}, \
                 {rows}x{cols} FHP-I\n{}\nthe staircase is §3's 'computation \
                 proceeds on a wavefront through time and space'.\n",
                wf.render()
            ))
        }
        Command::FaultSim(a) => run_fault_sim(&a),
        Command::Farm(a) => run_farm(&a),
        Command::Chaos { storms, rows, cols, steps, seed, rate, io_rate } => {
            run_chaos(storms, rows, cols, steps, seed, rate, io_rate)
        }
        Command::ServeChaos { storms, steps, seed, rate } => {
            run_serve_chaos(storms, steps, seed, rate)
        }
        Command::Serve { addr, checkpoint_dir, link_capacity, max_live } => {
            run_serve(addr, checkpoint_dir, link_capacity, max_live)
        }
        Command::Request { addr, line, timeout_secs, retries } => {
            run_request(&addr, &line, timeout_secs, retries)
        }
        Command::Bench(a) => run_bench(a),
        Command::Info => Ok(format!(
            "lattice-engines {} — engines, bounds, and gases from \
             'Performance of VLSI Engines for Lattice Computations' (1987).\n\
             Crates: core, gas, embed, vlsi, sim, pebbles, bench. See README.md.",
            env!("CARGO_PKG_VERSION")
        )),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_gas(
    model: &str,
    rows: usize,
    cols: usize,
    steps: u64,
    density: f64,
    seed: u64,
    periodic: bool,
    save: Option<&str>,
) -> Result<String, CliError> {
    let spec = SessionSpec {
        model: model.into(),
        rows,
        cols,
        seed,
        density,
        periodic,
        ..SessionSpec::default()
    };
    let grid = seed_grid(&spec)?;
    let rule = GasRule::from_spec(&spec)?;
    let before = Observables::measure(&grid, rule.model());
    let boundary = if periodic { Boundary::Periodic } else { Boundary::null() };
    let mut ev = Evolver::new(grid, boundary, 0);
    advance(&mut ev, &rule, steps);
    let after = Observables::measure(ev.grid(), rule.model());
    let mut out = format!(
        "{model} on {rows}x{cols} ({}), {steps} generations\n\
         mass:     {} -> {}\n\
         momentum: {:?} -> {:?}\n\
         density:  {:.4} -> {:.4}\n",
        if periodic { "torus" } else { "null boundary" },
        before.mass,
        after.mass,
        before.momentum,
        after.momentum,
        before.density,
        after.density,
    );
    if periodic && (after.mass != before.mass || after.momentum != before.momentum) {
        return Err(CliError("conservation violated — this is a bug".into()));
    }
    if let Some(path) = save {
        out.push_str(&save_checkpoint(&ev, path)?);
    }
    Ok(out)
}

fn run_resume(
    load: &str,
    model: &str,
    steps: u64,
    seed: u64,
    periodic: bool,
    save: Option<&str>,
) -> Result<String, CliError> {
    let bytes = std::fs::read(load).map_err(|e| CliError(format!("read {load}: {e}")))?;
    let (grid, t0) = checkpoint::load::<u8>(&bytes)?;
    let t0 = t0.get();
    let (rows, cols) = (grid.shape().rows(), grid.shape().cols());
    let spec =
        SessionSpec { model: model.into(), rows, cols, seed, periodic, ..SessionSpec::default() };
    let rule = GasRule::from_spec(&spec)?;
    let boundary = if periodic { Boundary::Periodic } else { Boundary::null() };
    let mut ev = Evolver::new(grid, boundary, t0);
    advance(&mut ev, &rule, steps);
    let mut out =
        format!("resumed {model} at generation {t0}, ran {steps} more (now at {})\n", ev.time());
    if let Some(path) = save {
        out.push_str(&save_checkpoint(&ev, path)?);
    }
    Ok(out)
}

/// Runs `steps` more generations of `rule` — the model dispatch `gas`
/// and `resume` share.
fn advance(ev: &mut Evolver<u8>, rule: &GasRule, steps: u64) {
    match rule {
        GasRule::Hpp(rule) => ev.run(rule, steps),
        GasRule::Fhp(rule) => ev.run(rule, steps),
    }
}

/// Writes `ev`'s lattice and generation to `path`; returns the report
/// line.
fn save_checkpoint(ev: &Evolver<u8>, path: &str) -> Result<String, CliError> {
    let bytes = checkpoint::save(ev.grid(), Ticks::new(ev.time()));
    std::fs::write(path, &bytes).map_err(|e| CliError(format!("write {path}: {e}")))?;
    Ok(format!("checkpoint: {path} ({} bytes)\n", bytes.len()))
}

fn run_engine(
    arch: &str,
    width: usize,
    depth: usize,
    slice_width: usize,
    rows: usize,
    cols: usize,
    seed: u64,
) -> Result<String, CliError> {
    let shape = Shape::grid2(rows, cols)?;
    let grid = init::random_fhp(shape, FhpVariant::I, 0.3, seed, false)?;
    let rule = FhpRule::new(FhpVariant::I, seed);
    let report = match arch {
        "serial" => Pipeline::serial(depth).run(&rule, &grid, 0),
        "wsa" => Pipeline::wide(width, depth).run(&rule, &grid, 0),
        "spa" => SpaEngine::new(slice_width, depth).run(&rule, &grid, 0),
        "wsae" => WsaePipeline::new(depth).run(&rule, &grid, 0),
        other => return Err(CliError(format!("unknown architecture `{other}`"))),
    }?;
    let clock = Technology::paper_1987().clock();
    Ok(format!(
        "{arch} on {rows}x{cols} FHP-I, depth {depth}\n\
         ticks:            {}\n\
         updates/tick:     {:.2}\n\
         updates/s @10MHz: {:.2e}\n\
         memory bits/tick: {:.1}\n\
         SR cells/stage:   {}\n\
         utilization:      {:.3}\n",
        report.ticks,
        report.updates_per_tick(),
        report.updates_per_second(clock).get(),
        report.memory_bits_per_tick(),
        report.sr_cells_per_stage,
        report.utilization(),
    ))
}

fn run_image(chain: &str, rows: usize, cols: usize, seed: u64) -> Result<String, CliError> {
    use crate::image::morphology::{close, open, StructuringElement};
    use crate::image::{BoxBlur, Median3, Sobel, Threshold};
    let shape = Shape::grid2(rows, cols)?;
    // Synthetic scene: two bright blobs on a dark field plus noise.
    let mut img: Grid<u8> = Grid::from_fn(shape, |c| {
        let (r, k) = (c.row() as i32, c.col() as i32);
        let blob = |cr: i32, cc: i32, rad: i32| (r - cr).pow(2) + (k - cc).pow(2) <= rad * rad;
        let base: u8 = if blob(rows as i32 / 2, cols as i32 / 3, rows as i32 / 4)
            || blob(rows as i32 / 3, 2 * cols as i32 / 3, rows as i32 / 5)
        {
            200
        } else {
            30
        };
        let h = crate::gas::prng::site_hash((r * cols as i32 + k) as u64, 0, seed);
        if h.is_multiple_of(19) {
            255 - base
        } else {
            base
        }
    });
    let mut log = String::new();
    let se = StructuringElement::cross();
    for (t, stage) in chain.split(',').map(str::trim).enumerate() {
        img = match stage {
            "median" => evolve(&img, &Median3, Boundary::null(), t as u64, 1),
            "blur" => evolve(&img, &BoxBlur, Boundary::null(), t as u64, 1),
            "threshold" => evolve(&img, &Threshold(110), Boundary::null(), t as u64, 1),
            "sobel" => evolve(&img, &Sobel, Boundary::null(), t as u64, 1),
            "erode" | "dilate" | "open" | "close" => {
                // Binary morphology on the thresholded image.
                let bin = Grid::from_fn(shape, |c| img.get(c) >= 110);
                let out = match stage {
                    "erode" => {
                        evolve(&bin, &crate::image::Erode(se), Boundary::Fixed(true), t as u64, 1)
                    }
                    "dilate" => {
                        evolve(&bin, &crate::image::Dilate(se), Boundary::Fixed(false), t as u64, 1)
                    }
                    "open" => open(&bin, se),
                    _ => close(&bin, se),
                };
                Grid::from_fn(shape, |c| if out.get(c) { 255u8 } else { 0 })
            }
            other => return Err(CliError(format!("unknown image stage `{other}`"))),
        };
        log.push_str(&format!("applied {stage}\n"));
    }
    // ASCII render in 4 levels.
    for r in 0..rows {
        log.push_str("  ");
        for c in 0..cols {
            let p = img.get(crate::core::Coord::c2(r, c));
            log.push(match p {
                0..=63 => '.',
                64..=127 => ':',
                128..=191 => 'o',
                _ => '#',
            });
        }
        log.push('\n');
    }
    Ok(log)
}

fn run_design(l: u32, rate: f64, budget: u32) -> Result<String, CliError> {
    if l == 0 {
        return Err(CliError("design: --l must be at least 1".into()));
    }
    if !(rate.is_finite() && rate > 0.0) {
        return Err(CliError(format!("design: --rate must be finite and positive, got {rate}")));
    }
    let tech = Technology::paper_1987();
    let wsa = Wsa::new(tech);
    let spa = Spa::new(tech);
    let wsae = Wsae::new(tech);
    let corner = wsa.corner();
    let chip = spa.corner();
    let need_upt = rate / tech.clock_hz;
    let mut out = format!("design space for L = {l}, target {rate:.2e} updates/s:\n");
    if l <= corner.l {
        out.push_str(&format!(
            "  WSA:   P = {}, {} chips, {} bits/tick\n",
            corner.p,
            ((need_upt / corner.p as f64).ceil() as u64).min(l as u64),
            corner.bandwidth
        ));
    } else {
        out.push_str(&format!("  WSA:   infeasible (L > {})\n", corner.l));
    }
    out.push_str(&format!(
        "  WSA-E: {} stages at {:.2} chip-areas each, 16 bits/tick\n",
        need_upt.ceil() as u64,
        wsae.design(l).stage_area
    ));
    let slices = spa.slices(l, chip.w);
    out.push_str(&format!(
        "  SPA:   W = {}, {} slices, {} bits/tick, chips of {}x{} PEs\n",
        chip.w,
        slices,
        spa.bandwidth(l, chip.w),
        chip.p_w,
        chip.p_k
    ));
    match crate::vlsi::compare::preferred_regime(
        tech,
        l,
        lattice_core::units::BitsPerTick::new(f64::from(budget)),
        need_upt,
        1024,
    ) {
        Some(r) => out.push_str(&format!("  recommended under {budget} bits/tick: {r:?}\n")),
        None => out.push_str(
            "  no architecture fits the budget — the paper's point: \
                              bandwidth, not processing, is the wall\n",
        ),
    }
    Ok(out)
}

/// The fault-rate ladder the sweeps climb: multiples of `--rate`,
/// each capped at 1.
const RATE_LADDER: [f64; 4] = [0.0, 0.1, 1.0, 10.0];

/// The confined HPP world the fault harnesses audit exactly: a 0.3
/// density gas with `steps` empty sites of margin on every side. With
/// `steps` generations nothing reaches the edge, so the Exact audit
/// holds under the engines' null boundary and every recovered run must
/// match the reference evolution bit-for-bit. A `--steps` whose margin
/// does not fit (or overflows) is refused.
fn confined_hpp(
    who: &str,
    rows: usize,
    cols: usize,
    steps: u64,
    seed: u64,
) -> Result<Grid<u8>, CliError> {
    let margin = usize::try_from(steps)
        .ok()
        .filter(|m| m.checked_mul(2).is_some_and(|side| rows > side && cols > side))
        .ok_or_else(|| {
            CliError(format!(
                "{who}: the lattice must exceed 2x --steps per side ({rows}x{cols} vs \
                 {steps} steps) so the gas cannot reach the edge and conservation \
                 stays exact"
            ))
        })?;
    let shape = Shape::grid2(rows, cols)?;
    let full = init::random_hpp(shape, 0.3, seed)?;
    Ok(Grid::from_fn(shape, |c| {
        let inside = (margin..rows - margin).contains(&c.row())
            && (margin..cols - margin).contains(&c.col());
        if inside {
            full.get(c)
        } else {
            0
        }
    }))
}

/// A fault on the link of physical chip `chip`.
fn link_fault(chip: usize, kind: FaultKind) -> Fault {
    Fault { component: Component::Link, chip: Some(chip), cell: None, kind }
}

/// The halo-link weather of a farm run on a `rows`×`cols` lattice: a
/// plan seeded with `seed` holding, board by board, a transient upset
/// at `rate` on the board's intra-rack halo link and — with
/// `both_tiers`, for multi-row grids — on its inter-rack link. Chip ids
/// come from the farm's own numbering under a degrade budget of
/// `max_retired`. Empty at rate 0.
fn halo_weather(
    seed: u64,
    farm: &LatticeFarm,
    (rows, cols): (usize, usize),
    max_retired: usize,
    rate: f64,
    both_tiers: bool,
) -> Result<FaultPlan, CliError> {
    let mut plan = FaultPlan::new(seed);
    let upset = FaultKind::Transient { bit: 1, rate };
    for b in (0..farm.shards()).filter(|_| rate > 0.0) {
        plan.push(link_fault(farm.link_chip(rows, cols, max_retired, b)?, upset));
        if both_tiers {
            plan.push(link_fault(farm.link_chip_inter(rows, cols, max_retired, b)?, upset));
        }
    }
    Ok(plan)
}

/// The stuck-at fault that pins one link bit high.
const STUCK: FaultKind = FaultKind::StuckAt { bit: 0, value: true };

/// `lattice fault-sim`: the confined world swept up the rate ladder on
/// one chip engine or (`--farm`) a board farm. Exits nonzero when any
/// sweep cell ends unrecovered; the table still prints.
fn run_fault_sim(a: &FaultSimArgs) -> Result<String, CliError> {
    if a.depth == 0 || a.width == 0 {
        return Err(CliError("fault-sim: --width and --depth must be ≥ 1".into()));
    }
    if !(0.0..=1.0).contains(&a.rate) {
        return Err(CliError("fault-sim: --rate must be in [0, 1]".into()));
    }
    if a.ckpt_every == 0 {
        return Err(CliError("fault-sim: --ckpt-every must be ≥ 1".into()));
    }
    let world = confined_hpp("fault-sim", a.rows, a.cols, a.steps, a.seed)?;
    let reference = evolve(&world, &HppRule::new(), Boundary::null(), 0, a.steps);
    let (out, unrecovered) = match &a.mode {
        FaultSimMode::Chip { stuck_chip } => chip_sweep(a, *stuck_chip, (&world, &reference))?,
        FaultSimMode::Farm { shards, grid, stuck_board, overlap } => {
            farm_sweep(a, shards, *grid, *stuck_board, *overlap, (&world, &reference))?
        }
    };
    if unrecovered > 0 {
        return Err(CliError(format!(
            "{out}\nfault-sim: {unrecovered} sweep cell(s) ended unrecovered"
        )));
    }
    Ok(out)
}

/// The `upd/fault` cell: mean committed site-updates between injected
/// upsets.
fn upd_per_fault(a: &FaultSimArgs, injected: u64) -> String {
    if injected == 0 {
        "-".to_string()
    } else {
        format!("{:.1e}", (a.steps * (a.rows * a.cols) as u64) as f64 / injected as f64)
    }
}

/// The chip-level sweep: returns the report and the unrecovered cells.
fn chip_sweep(
    a: &FaultSimArgs,
    stuck_chip: Option<usize>,
    (world, reference): (&Grid<u8>, &Grid<u8>),
) -> Result<(String, u32), CliError> {
    use crate::gas::audit::{AuditMode, ConservationAudit};
    use crate::sim::{HostLink, HostSystem, RecoveryConfig};

    let (rows, cols, width, depth, steps) = (a.rows, a.cols, a.width, a.depth, a.steps);
    let (retries, ckpt_every) = (a.retries, a.ckpt_every);
    if let Some(chip) = stuck_chip.filter(|&chip| chip >= depth) {
        return Err(CliError(format!(
            "fault-sim: --stuck-chip {chip} out of range (depth {depth})"
        )));
    }
    let rule = HppRule::new();
    let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
    let sys = HostSystem {
        engine: Pipeline::wide(width, depth),
        link: HostLink::new(1e9),
        clock_hz: 10e6,
    };
    let cfg = RecoveryConfig {
        max_retries: retries,
        checkpoint_every: ckpt_every,
        ..RecoveryConfig::default()
    };
    let victim = depth / 2;

    let mut out = format!(
        "fault-sim: hpp on {rows}x{cols}, {steps} generations, width {width}, depth {depth}\n\
         transient bit-flips in chip {victim}'s shift register; audit = exact conservation;\n\
         checkpoint every {ckpt_every} pass(es), {retries} retries{}\n\n",
        match stuck_chip {
            Some(c) => format!("; stuck-at link bit on chip {c}"),
            None => String::new(),
        }
    );
    let table = SweepTable::new(&[
        ("rate", 9, Align::Left),
        ("injected", 8, Align::Right),
        ("detected", 8, Align::Right),
        ("rollbacks", 9, Align::Right),
        ("bypassed", 8, Align::Right),
        ("passes", 6, Align::Right),
        ("upd/fault", 9, Align::Right),
        ("result", 0, Align::Left),
    ]);
    out.push_str(&table.header());
    let mut unrecovered = 0u32;
    for mult in RATE_LADDER {
        let r = (a.rate * mult).min(1.0);
        let mut plan = FaultPlan::new(a.seed);
        if r > 0.0 {
            plan.push(Fault {
                component: Component::SrCell,
                chip: Some(victim),
                cell: None,
                kind: FaultKind::Transient { bit: 1, rate: r },
            });
        }
        if let Some(chip) = stuck_chip {
            plan.push(link_fault(chip, STUCK));
        }
        match sys
            .run_with_recovery(&rule, world, 0, steps, Some(&plan), &cfg, |b, a| audit.check(b, a))
        {
            Ok(ft) => {
                let exact = ft.run.grid == *reference;
                unrecovered += u32::from(!exact);
                out.push_str(&table.row(&[
                    format!("{r:.1e}"),
                    ft.faults.total().to_string(),
                    ft.recovery.detected.to_string(),
                    ft.recovery.rollbacks.to_string(),
                    ft.recovery.bypassed_chips.to_string(),
                    ft.run.passes.to_string(),
                    upd_per_fault(a, ft.faults.total()),
                    if exact { "bit-exact" } else { "WRONG" }.to_string(),
                ]));
            }
            Err(e) => {
                unrecovered += 1;
                out.push_str(&table.row(&[format!("{r:.1e}"), format!("gave up: {e}")]));
            }
        }
    }
    out.push_str(
        "\nupd/fault = mean committed site-updates between injected upsets (MTBF in\n\
         update units); `bit-exact` rows recovered to the fault-free reference lattice.\n",
    );
    Ok((out, unrecovered))
}

/// The farm-level sweep (`fault-sim --farm`): every layout up the rate
/// ladder through the board recovery ladder. Returns the report and
/// the unrecovered cells.
fn farm_sweep(
    a: &FaultSimArgs,
    farm_shards: &str,
    farm_grid: Option<(usize, usize)>,
    stuck_board: Option<usize>,
    overlap: bool,
    (world, reference): (&Grid<u8>, &Grid<u8>),
) -> Result<(String, u32), CliError> {
    use crate::gas::audit::{AuditMode, ConservationAudit};

    let (rows, cols, width, depth, steps) = (a.rows, a.cols, a.width, a.depth, a.steps);
    let (retries, ckpt_every) = (a.retries, a.ckpt_every);
    // Each sweep layout is an R×C board grid: the shard list is the
    // single-row grids (1, S); `--farm-grid` replaces it with one grid
    // leg whose upsets hit both link tiers.
    let layouts: Vec<(usize, usize)> = match farm_grid {
        Some((gr, gc)) => {
            if gr > rows || gc > cols {
                return Err(CliError(format!(
                    "fault-sim: --farm-grid {gr}x{gc} does not fit a {rows}x{cols} lattice"
                )));
            }
            vec![(gr, gc)]
        }
        None => farm_shards
            .split(',')
            .map(|s| match s.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Ok((1, n)),
                _ => Err(CliError(format!("fault-sim: bad --farm-shards entry `{s}`"))),
            })
            .collect::<Result<_, _>>()?,
    };
    if layouts.is_empty() || (farm_grid.is_none() && layouts.iter().any(|&(_, n)| n > cols)) {
        return Err(CliError("fault-sim: --farm-shards must be 1..=cols".into()));
    }
    if let Some(b) = stuck_board {
        if let Some(smin) = layouts.iter().map(|&(gr, gc)| gr * gc).min() {
            if b >= smin {
                return Err(CliError(format!(
                    "fault-sim: --stuck-board {b} out of range for {smin} shard(s)"
                )));
            }
        }
    }
    let rule = HppRule::new();
    let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);

    let mut out = format!(
        "fault-sim --farm: hpp on {rows}x{cols}, {steps} generations, \
         WSA boards width {width}, depth {depth}{}\n\
         transient bit-flips on every board's halo link; audit = exact conservation;\n\
         checkpoint every {ckpt_every} pass(es), {retries} global retries, \
         ladder = ARQ -> local -> global -> degrade{}\n\n",
        if overlap { ", overlapped exchange" } else { "" },
        match stuck_board {
            Some(b) => format!("; stuck-at halo-link bit on board {b}"),
            None => String::new(),
        }
    );
    let table = SweepTable::new(&[
        ("shards", 6, Align::Left),
        ("rate", 9, Align::Left),
        ("injected", 8, Align::Right),
        ("detected", 8, Align::Right),
        ("retrans", 7, Align::Right),
        ("local", 5, Align::Right),
        ("global", 6, Align::Right),
        ("degraded", 8, Align::Right),
        ("passes", 6, Align::Right),
        ("upd/fault", 9, Align::Right),
        ("result", 0, Align::Left),
    ]);
    out.push_str(&table.header());
    let mut unrecovered = 0u32;
    for &(gr, gc) in &layouts {
        let farm = LatticeFarm::new(gc, ShardEngine::Wsa { width }, depth)
            .with_grid(gr, gc)
            .with_overlap(overlap);
        let s = farm.shards();
        let label = if farm_grid.is_some() { format!("{gr}x{gc}") } else { s.to_string() };
        // Degraded re-partitioning is columnar, so multi-row grids run
        // without a degrade budget (the ladder tops out at global
        // rollback there).
        let max_retired = if s > 1 && gr == 1 { s - 1 } else { 0 };
        let cfg = FarmRecoveryConfig {
            max_retries: retries,
            checkpoint_every: ckpt_every,
            degrade: (max_retired > 0).then_some(FarmDegradeConfig { max_retired }),
            ..FarmRecoveryConfig::default()
        };
        for mult in RATE_LADDER {
            let r = (a.rate * mult).min(1.0);
            let mut plan = halo_weather(a.seed, &farm, (rows, cols), max_retired, r, gr > 1)?;
            if let Some(b) = stuck_board {
                plan.push(link_fault(farm.link_chip(rows, cols, max_retired, b)?, STUCK));
            }
            match farm.run_with_recovery(&rule, world, 0, steps, Some(&plan), &cfg, |b, a| {
                audit.check(b, a)
            }) {
                Ok(ft) => {
                    let injected = ft.report.machine.faults.total();
                    let exact = ft.report.grid() == reference;
                    unrecovered += u32::from(!exact);
                    out.push_str(&table.row(&[
                        label.clone(),
                        format!("{r:.1e}"),
                        injected.to_string(),
                        ft.recovery.detected.to_string(),
                        ft.recovery.retransmits.to_string(),
                        ft.recovery.local_rollbacks.to_string(),
                        ft.recovery.rollbacks.to_string(),
                        ft.recovery.boards_retired.to_string(),
                        ft.report.passes.to_string(),
                        upd_per_fault(a, injected),
                        if exact { "bit-exact" } else { "WRONG" }.to_string(),
                    ]));
                }
                Err(e) => {
                    unrecovered += 1;
                    out.push_str(&table.row(&[
                        label.clone(),
                        format!("{r:.1e}"),
                        format!("gave up: {e}"),
                    ]));
                }
            }
        }
    }
    out.push_str(
        "\nupd/fault = mean committed site-updates between injected upsets (MTBF in\n\
         update units). Each detection is answered one ladder level up: retrans\n\
         (link ARQ), local (one board replays), global (all boards rewind),\n\
         degraded (board retired, lattice re-partitioned onto survivors).\n",
    );
    Ok((out, unrecovered))
}

/// `lattice farm`: the machine a daemon session with the same spec
/// runs, built by the same `serve` constructors, run once and reported
/// against the links-per-board model.
fn run_farm(a: &FarmArgs) -> Result<String, CliError> {
    use crate::serve::{build_farm, farm_model};
    use crate::vlsi::LinkTier;

    let spec = &a.spec;
    if a.resume && a.checkpoint_dir.is_none() {
        return Err(CliError("farm: --resume needs --checkpoint-dir".into()));
    }
    if a.ckpt_every == 0 {
        return Err(CliError("farm: --ckpt-every must be ≥ 1".into()));
    }
    let farm = build_farm(spec).map_err(|e| CliError(format!("farm: {e}")))?;
    let g0 = seed_grid(spec)?;
    let (report, tail) = match GasRule::from_spec(spec)? {
        GasRule::Hpp(rule) => drive(&farm, &rule, &g0, a)?,
        GasRule::Fhp(rule) => drive(&farm, &rule, &g0, a)?,
    };

    let clock = Technology::paper_1987().clock();
    let layout = match spec.grid {
        Some((gr, gc)) => format!("{gr}x{gc} board grid"),
        None => format!("{} board(s)", spec.shards),
    };
    let mut out = format!(
        "farm: {} on {}x{} ({}), {} generations, {layout} x {}, k = {}{}\n\
         passes:            {}\n\
         machine ticks:     {} ({} compute + {} halo - {} overlapped)\n\
         useful upd/tick:   {:.2}\n\
         updates/s @10MHz:  {:.2e}\n\
         halo bits/tick:    {:.2}\n\
         redundancy:        {:.3}\n\
         compute fraction:  {:.3}\n\
         PE utilization:    {:.3}\n",
        spec.model,
        spec.rows,
        spec.cols,
        if spec.periodic { "torus" } else { "null boundary" },
        a.steps,
        spec.engine,
        spec.depth,
        if spec.overlap { ", overlapped exchange" } else { "" },
        report.passes,
        report.machine_ticks(),
        report.machine.ticks,
        report.halo_ticks,
        report.overlapped_ticks,
        report.updates_per_tick(),
        report.updates_per_second(clock).get(),
        report.halo_bits_per_tick(),
        report.redundancy(),
        report.compute_fraction(),
        report.utilization(),
    );
    out.push_str("shard  row0  rows  col0  cols  updates  ticks  halo-in bits\n");
    for s in &report.per_shard {
        out.push_str(&format!(
            "{:>5}  {:>4}  {:>4}  {:>4}  {:>4}  {:>7}  {:>5}  {:>12}\n",
            s.shard, s.row0, s.rows, s.col0, s.cols, s.updates, s.ticks, s.halo_in_bits
        ));
    }
    if spec.engine == "wsa" {
        // The analytical board model mirrors the WSA pipeline.
        let m = farm_model(spec)?;
        let passes = report.passes.max(1);
        let meas_pass = report.machine_ticks().to_f64() / passes as f64;
        let g = spec.grid.unwrap_or((1, spec.shards));
        let pass = m.run_ticks2(g, passes).to_f64() / passes as f64;
        let demand = m.binding_link_demand(g);
        out.push_str(&match spec.grid {
            Some(_) => format!(
                "model: pass ticks {pass:.0} (measured {meas_pass:.0}), binding tier \
                 {}, link demand {demand:.1} bits/tick on it\n",
                match m.binding_tier(g) {
                    LinkTier::Intra => "intra-rack",
                    LinkTier::Inter => "inter-rack",
                },
            ),
            None => format!(
                "model: pass ticks {pass:.0} (measured {meas_pass:.0}), strong-scaling \
                 efficiency {:.3}, link demand {demand:.1} bits/tick\n",
                m.strong_efficiency(g),
            ),
        });
    }
    out.push_str(&tail);
    Ok(out)
}

/// Runs `a.steps` generations of `rule` from `g0` on `farm`: straight
/// through, or — with `--checkpoint-dir` — through the recovery ladder
/// at persistence level 0, resuming from the newest good generation in
/// the store when asked. `--verify` always compares against an
/// uninterrupted reference from generation 0, so a kill-and-resume
/// sequence is checked end to end. Returns the report and the lines
/// that close the run's summary.
fn drive<R: Rule<S = u8>>(
    farm: &LatticeFarm,
    rule: &R,
    g0: &Grid<u8>,
    a: &FarmArgs,
) -> Result<(FarmReport<u8>, String), CliError> {
    use crate::core::checkpoint::store::{reassemble, CheckpointStore, DiskBackend};

    let steps = a.steps;
    let (report, mut tail) = match &a.checkpoint_dir {
        None => (farm.run(rule, g0, 0, steps)?, String::new()),
        Some(dir) => {
            let mut store = CheckpointStore::open(DiskBackend::open(dir)?)?;
            let (start, t0, fell_back) = if a.resume {
                let loaded = store.load_latest()?.ok_or_else(|| {
                    CliError(format!("farm: --resume found no snapshot in {dir}"))
                })?;
                let (g, t) = reassemble::<u8>(&loaded.snapshot)?;
                if g.shape() != g0.shape() {
                    return Err(CliError(format!(
                        "farm: snapshot is {:?} but the command says {:?} — pass the \
                         original --rows/--cols",
                        g.shape().dims(),
                        g0.shape().dims()
                    )));
                }
                if t.get() > steps {
                    return Err(CliError(format!(
                        "farm: snapshot is already at generation {} > --steps {steps}",
                        t.get()
                    )));
                }
                (g, t.get(), loaded.fell_back)
            } else {
                (g0.clone(), 0u64, false)
            };
            let cfg = FarmRecoveryConfig {
                checkpoint_every: a.ckpt_every,
                ..FarmRecoveryConfig::default()
            };
            let ft = farm.run_with_recovery_audited(
                rule,
                &start,
                t0,
                steps - t0,
                None,
                &cfg,
                |_, _| Ok(()),
                None,
                Some(&mut store),
            )?;
            let mut tail = format!(
                "checkpoint store:  {dir} ({} commit(s), {} bytes)\n",
                store.commits(),
                store.bytes_written()
            );
            if a.resume {
                tail.push_str(&format!(
                    "resumed:           generation {t0} of {steps}{}\n",
                    if fell_back { " (newest generation was corrupt; used last good)" } else { "" }
                ));
            }
            (ft.report, tail)
        }
    };
    if a.verify {
        let boundary = if a.spec.periodic { Boundary::Periodic } else { Boundary::null() };
        if report.grid() != &evolve(g0, rule, boundary, 0, steps) {
            return Err(CliError(
                "verify: farmed result diverged from the reference — this is a bug".into(),
            ));
        }
        tail.push_str("verify: bit-exact vs reference\n");
    }
    Ok((report, tail))
}

/// `lattice chaos`: a deterministic soak of randomized storms, each
/// mixing fault classes from every layer the stack models — SR/PE/link
/// bit flips, worker panics and hangs, stuck boards retired by degraded
/// re-partitioning, and injected I/O faults under the durable
/// checkpoint store. After every storm the harness checks exact
/// conservation (bit-exact final lattice vs an uninterrupted
/// reference), the ladder-accounting invariant, and that whatever the
/// store still serves reassembles to a bit-exact committed generation
/// or fails as a structured error. Storm `i` derives everything from
/// `seed + i`, so any failure is reproduced by a single
/// `chaos --storms 1 --seed <seed+i>` line.
/// SplitMix64 — the same idiom the fault layers use, so a storm's
/// whole configuration is a pure function of its seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn run_chaos(
    storms: u64,
    rows: usize,
    cols: usize,
    steps: u64,
    seed: u64,
    rate: f64,
    io_rate: f64,
) -> Result<String, CliError> {
    use crate::core::checkpoint::store::{
        reassemble, CheckpointStore, FaultyBackend, IoFaultRates, MemBackend, ShardBlob,
        SnapshotSink,
    };
    use crate::farm::{WorkerFault, WorkerFaultSpec};
    use crate::gas::audit::{AuditMode, ConservationAudit};
    use lattice_core::units::{u64_from_usize, usize_from_u64};
    use std::time::Duration;

    if storms == 0 || steps == 0 {
        return Err(CliError("chaos: --storms and --steps must be ≥ 1".into()));
    }
    if !(0.0..=1.0).contains(&rate) || !(0.0..=1.0).contains(&io_rate) {
        return Err(CliError("chaos: --rate and --io-rate must be in [0, 1]".into()));
    }

    /// Persistence under weather must not abort the run: commit errors
    /// are counted and swallowed — the generation protocol guarantees
    /// the previous good snapshot survives a failed commit.
    struct BestEffort<'a> {
        store: &'a mut CheckpointStore<FaultyBackend<MemBackend>>,
        refused: u64,
    }
    impl SnapshotSink for BestEffort<'_> {
        fn persist(&mut self, time: Ticks, shards: &[ShardBlob]) -> Result<(), LatticeError> {
            if self.store.commit(time, shards).is_err() {
                self.refused += 1;
            }
            Ok(())
        }
    }

    let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
    let rule = HppRule::new();

    let mut out = format!(
        "chaos: {storms} storm(s), hpp on {rows}x{cols}, {steps} generations each, \
         base seed {seed}\n\
         weather: SR/PE/link transients @ {rate:.1e}, worker die/hang, stuck \
         boards, I/O faults @ {io_rate:.1e} on every store op\n\
         invariants: exact conservation vs reference, ladder accounting, durable \
         snapshots reassemble bit-exact\n\n"
    );
    let table = SweepTable::new(&[
        ("storm", 5, Align::Right),
        ("seed", 20, Align::Left),
        ("cfg", 14, Align::Left),
        ("det", 3, Align::Right),
        ("rt", 2, Align::Right),
        ("loc", 3, Align::Right),
        ("glob", 4, Align::Right),
        ("ret", 3, Align::Right),
        ("io t/r/s/c", 10, Align::Right),
        ("ckpt ok/ref", 11, Align::Left),
        ("snapshot", 10, Align::Left),
        ("result", 0, Align::Left),
    ]);
    out.push_str(&table.header());
    let mut failed: Vec<u64> = Vec::new();
    for storm in 0..storms {
        let sseed = seed.wrapping_add(storm);
        let g0 = confined_hpp("chaos", rows, cols, steps, sseed)?;
        let reference = evolve(&g0, &rule, Boundary::null(), 0, steps);
        let d = |salt: u64| mix(sseed ^ mix(salt));
        let shards = 2 + usize_from_u64(d(1) % 3);
        let depth = 1 + usize_from_u64(d(2) % 2);
        let overlap = d(3) % 2 == 0;
        let stuck = d(4) % 4 == 0;
        let passes = steps.div_ceil(u64_from_usize(depth));
        // Worker misbehavior: none / die / hang, on a derived board and
        // pass; a hang storm arms the watchdog so the stall is declared
        // dead instead of waited out.
        let worker = match d(5) % 3 {
            1 => Some((WorkerFault::Die, None)),
            2 => Some((WorkerFault::Hang { millis: 150 }, Some(Duration::from_millis(40)))),
            _ => None,
        };

        let mut farm =
            LatticeFarm::new(shards, ShardEngine::Wsa { width: 1 }, depth).with_overlap(overlap);
        if let Some((fault, _)) = worker {
            farm = farm.with_worker_fault(WorkerFaultSpec {
                board: usize_from_u64(d(11) % u64_from_usize(shards)),
                pass: d(12) % passes,
                attempt: 0,
                fault,
            });
        }

        // The fault weather: transients on every board's halo link, one
        // SR cell and one PE latch going flaky inside derived boards
        // (silent to parity — only the conservation audit sees them, so
        // they exercise the rollback levels), plus an optional stuck
        // link that must climb the whole ladder into retirement.
        let mut plan = halo_weather(sseed, &farm, (rows, cols), shards - 1, rate, false)?;
        if rate > 0.0 {
            // SR/PE flips pass through every site of their chip each
            // generation (not just halo frames), so they run an order
            // of magnitude cooler to keep rollback pressure bounded.
            plan.push(Fault {
                component: Component::SrCell,
                chip: Some(usize_from_u64(d(6) % u64_from_usize(shards * depth))),
                cell: None,
                kind: FaultKind::Transient { bit: (d(7) % 4) as u32, rate: rate / 8.0 },
            });
            plan.push(Fault {
                component: Component::PeOutput,
                chip: Some(usize_from_u64(d(8) % u64_from_usize(shards * depth))),
                cell: None,
                kind: FaultKind::Transient { bit: (d(9) % 4) as u32, rate: rate / 8.0 },
            });
        }
        if stuck {
            let b = usize_from_u64(d(10) % u64_from_usize(shards));
            plan.push(link_fault(farm.link_chip(rows, cols, shards - 1, b)?, STUCK));
        }
        let cfg = FarmRecoveryConfig {
            max_retries: 20,
            checkpoint_every: 1,
            degrade: Some(FarmDegradeConfig { max_retired: shards - 1 }),
            watchdog: worker.and_then(|(_, w)| w),
            ..FarmRecoveryConfig::default()
        };

        let rates = IoFaultRates {
            torn_write: io_rate,
            bit_rot: io_rate,
            short_read: io_rate,
            crash_before_rename: io_rate,
        };
        let mut store =
            match CheckpointStore::open(FaultyBackend::new(MemBackend::new(), sseed, rates)) {
                Ok(s) => s,
                Err(e) => return Err(CliError(format!("chaos: store open failed: {e}"))),
            };
        let mut sink = BestEffort { store: &mut store, refused: 0 };

        let run = farm.run_with_recovery_audited(
            &rule,
            &g0,
            0,
            steps,
            Some(&plan),
            &cfg,
            |b, a| audit.check(b, a),
            None,
            Some(&mut sink),
        );
        let refused = sink.refused;

        let cfg_str = format!(
            "{shards}b k{depth}{}{}{}",
            if overlap { " ov" } else { "" },
            if stuck { " stuck" } else { "" },
            match worker {
                Some((WorkerFault::Die, _)) => " die",
                Some((WorkerFault::Hang { .. }, _)) => " hang",
                None => "",
            },
        );
        let mut why: Option<String> = None;
        let mut ladder = ["-", "-", "-", "-", "-"].map(String::from);
        let mut snap_note = "none";
        match run {
            Err(e) => why = Some(format!("run gave up: {e}")),
            Ok(ft) => {
                let r = &ft.recovery;
                ladder = [
                    r.detected.to_string(),
                    r.retransmits.to_string(),
                    r.local_rollbacks.to_string(),
                    r.rollbacks.to_string(),
                    r.boards_retired.to_string(),
                ];
                if ft.report.grid() != &reference {
                    why = Some("final lattice diverged from reference".into());
                } else if r.detected
                    != r.retransmits + r.local_rollbacks + r.rollbacks + r.boards_retired
                {
                    why = Some(format!(
                        "ladder accounting broken: {} detected vs {}+{}+{}+{}",
                        r.detected, r.retransmits, r.local_rollbacks, r.rollbacks, r.boards_retired
                    ));
                }
                // Whatever the storm-battered store still serves must be
                // a bit-exact committed generation (possibly the
                // previous one, via fallback) or a structured error —
                // never fabricated physics.
                if why.is_none() && store.commits() > 0 {
                    match store.load_latest() {
                        Err(_) => snap_note = "rot->err",
                        Ok(None) => why = Some("committed snapshots vanished from store".into()),
                        Ok(Some(l)) => {
                            snap_note = if l.fell_back { "fell-back" } else { "newest" };
                            match reassemble::<u8>(&l.snapshot) {
                                Err(e) => why = Some(format!("snapshot reassembly failed: {e}")),
                                Ok((g, t)) => {
                                    if t.get() > steps {
                                        why = Some(format!("snapshot time {} > {steps}", t.get()));
                                    } else if g != evolve(&g0, &rule, Boundary::null(), 0, t.get())
                                    {
                                        why = Some(format!(
                                            "snapshot at generation {} is not bit-exact",
                                            t.get()
                                        ));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let io = store.backend_mut().stats();
        let result = match &why {
            None => "ok".to_string(),
            Some(w) => {
                failed.push(storm);
                format!("FAIL: {w}")
            }
        };
        let [det, rt, loc, glob, ret] = ladder;
        out.push_str(&table.row(&[
            storm.to_string(),
            sseed.to_string(),
            cfg_str,
            det,
            rt,
            loc,
            glob,
            ret,
            format!("{}/{}/{}/{}", io.torn_writes, io.bit_rots, io.short_reads, io.crashes),
            format!("{}/{}", store.commits(), refused),
            snap_note.to_string(),
            result,
        ]));
    }
    out.push_str(
        "\ndet/rt/loc/glob/ret = recovery-ladder detections and the level that\n\
         answered each; io t/r/s/c = injected torn writes / bit rots / short\n\
         reads / crashes; ckpt ok/ref = snapshot commits accepted / refused\n\
         (a refused commit leaves the previous good generation intact).\n",
    );
    if failed.is_empty() {
        out.push_str(&format!("\nchaos: all {storms} storm(s) recovered, every invariant held\n"));
        Ok(out)
    } else {
        out.push_str(&format!("\nchaos: {} storm(s) FAILED; reproduce with:\n", failed.len()));
        for storm in &failed {
            out.push_str(&format!(
                "  lattice chaos --storms 1 --seed {} --rows {rows} --cols {cols} \
                 --steps {steps} --rate {rate} --io-rate {io_rate}\n",
                seed.wrapping_add(*storm)
            ));
        }
        Err(CliError(out))
    }
}

/// `lattice serve`: bind the daemon and block until a `shutdown` frame
/// arrives. The bound address is printed (and flushed) before the
/// accept loop starts, so scripts binding port 0 can discover it.
fn run_serve(
    addr: String,
    checkpoint_dir: Option<String>,
    link_capacity: Option<f64>,
    max_live: usize,
) -> Result<String, CliError> {
    use crate::serve::{Daemon, DaemonConfig};
    use std::io::Write;

    if max_live == 0 {
        return Err(CliError("serve: --max-live must be ≥ 1".into()));
    }
    if let Some(c) = link_capacity {
        if c.is_nan() || c <= 0.0 {
            return Err(CliError("serve: --link-capacity must be positive".into()));
        }
    }
    let daemon = Daemon::bind(&DaemonConfig { addr, checkpoint_dir, link_capacity, max_live })?;
    println!("lattice-serve listening on {}", daemon.addr());
    let _ = std::io::stdout().flush();
    daemon.run()?;
    Ok("lattice-serve: shut down cleanly\n".into())
}

/// `lattice request`: one frame out, response line(s) back. The frame
/// is validated locally first so a typo fails with a protocol error
/// here instead of a round trip; a `stats` frame with `watch > 1`
/// reads the whole streamed window.
///
/// Failures are classified for [`exit_code`]: `request: transport:`
/// (exit 3) for connect/read/write errors, `request: timeout:` (exit
/// 4) when the `--timeout` deadline lapses, `request: daemon error:`
/// (exit 5) when the daemon answers with an error frame. Transport
/// failures and timeouts are retried `--retries` times with
/// exponential backoff + jitter; a retried `step` is stamped with a
/// request id first, so resending it is idempotent.
fn run_request(
    addr: &str,
    line: &str,
    timeout_secs: f64,
    retries: u32,
) -> Result<String, CliError> {
    use crate::serve::{is_timeout_error, Client, Request, Response};
    use std::time::Duration;

    if timeout_secs.is_nan() || timeout_secs <= 0.0 {
        return Err(CliError("request: --timeout must be positive seconds".into()));
    }
    let timeout = Duration::from_secs_f64(timeout_secs.min(3600.0));
    let mut request = Request::from_line(line).map_err(|e| CliError(format!("request: {e}")))?;
    if retries > 0 {
        if let Request::Step { id: id @ None, .. } = &mut request {
            // At-most-once under resends: the daemon caches the reply
            // per id and re-acknowledges instead of re-stepping.
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            *id = Some(format!("cli-{}-{:016x}", std::process::id(), mix(nanos)));
        }
    }
    let classify = |e: &crate::core::LatticeError| {
        if is_timeout_error(e) {
            CliError(format!("request: timeout: {e}"))
        } else {
            CliError(format!("request: transport: {e}"))
        }
    };

    let mut last_err = None;
    for attempt in 0..=retries {
        if attempt > 0 {
            // 50ms, 100ms, 200ms... capped at 2s, plus up to half a
            // step of jitter so retry bursts from concurrent clients
            // don't stay synchronized.
            let base = 50u64.saturating_mul(1 << (attempt - 1).min(10)).min(2000);
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            let jitter = mix(nanos ^ u64::from(attempt)) % (base / 2 + 1);
            std::thread::sleep(Duration::from_millis(base + jitter));
        }
        let round_trip = || -> Result<String, crate::core::LatticeError> {
            let mut client = Client::connect_with_timeout(addr, timeout)?;
            let mut out = client.call(&request.to_line())?;
            out.push('\n');
            if let Request::Stats { watch } = request {
                for _ in 1..watch {
                    match client.read_line()? {
                        Some(l) => {
                            out.push_str(&l);
                            out.push('\n');
                        }
                        None => break,
                    }
                }
            }
            Ok(out)
        };
        match round_trip() {
            Ok(out) => {
                // The round trip succeeded at the transport level; an
                // error *frame* is the daemon refusing the request, and
                // retrying a refusal would just be refused again.
                if let Ok(Response::Error { message }) =
                    Response::from_line(out.lines().next().unwrap_or(""))
                {
                    return Err(CliError(format!("request: daemon error: {message}")));
                }
                return Ok(out);
            }
            Err(e) => last_err = Some(classify(&e)),
        }
    }
    Err(last_err.unwrap_or_else(|| CliError("request: transport: no attempt ran".into())))
}

/// `lattice chaos --serve`: the daemon-level chaos soak. Each storm
/// derives a deterministic weather from its seed, then runs four
/// sessions — fault-free, ARQ-weathered, worker die/hang, and one
/// doomed to quarantine — through `LIVES` daemon lives (kill +
/// restart between each) while garbage, truncated, and oversized
/// frames are injected at the transport. After the final restart the
/// storm asserts: every surviving session is bit-exact vs a
/// fault-free direct `LatticeFarm` run, the doomed session is
/// `poisoned` (not a daemon crash), the PR 3 conservation invariant
/// holds on counters accumulated across restarts, and destroying
/// everything leaves zero session namespaces behind.
fn run_serve_chaos(storms: u64, steps: u64, seed: u64, rate: f64) -> Result<String, CliError> {
    use crate::gas::HppRule;
    use crate::serve::{
        build_farm, inject_raw, seed_grid, Client, Daemon, DaemonConfig, FaultSpec, Query, Request,
        Response, SessionSpec, MAX_FRAME_BYTES,
    };

    if storms == 0 || steps == 0 {
        return Err(CliError("chaos: --storms and --steps must be ≥ 1".into()));
    }
    if !(0.0..=1.0).contains(&rate) {
        return Err(CliError("chaos: --rate must be in [0, 1]".into()));
    }
    /// Daemon lives per storm: 1 initial + 3 kill/restart cycles,
    /// plus a final verification life spawned after the loop.
    const LIVES: u64 = 4;

    fn call(c: &mut Client, req: &Request) -> Result<Response, String> {
        let line = c.call(&req.to_line()).map_err(|e| format!("transport: {e}"))?;
        Response::from_line(&line).map_err(|e| format!("bad response frame: {e}"))
    }
    fn reference_cells(spec: &SessionSpec, gens: u64) -> Result<Vec<u8>, String> {
        let clean = SessionSpec { fault: None, ..spec.clone() };
        let grid = seed_grid(&clean).map_err(|e| e.to_string())?;
        let farm = build_farm(&clean).map_err(|e| e.to_string())?;
        let report = farm.run(&HppRule::new(), &grid, 0, gens).map_err(|e| e.to_string())?;
        Ok(report.grid().as_slice().to_vec())
    }

    /// One storm; returns (restarts, injections, ladder totals).
    fn storm(sseed: u64, steps: u64, rate: f64, dir: &str) -> Result<(u64, u64, [u64; 5]), String> {
        let d = |salt: u64| mix(sseed ^ mix(salt));
        let hang = d(20) % 2 == 1;
        let base = |name_seed: u64, fault: Option<FaultSpec>| SessionSpec {
            model: "hpp".into(),
            rows: 12,
            cols: 24,
            seed: name_seed,
            shards: 2,
            fault,
            ..SessionSpec::default()
        };
        // The cast: a control, two weathered survivors, one goner.
        let specs: [(&str, SessionSpec); 4] = [
            ("clean", base(sseed, None)),
            ("arq", base(sseed + 1, Some(FaultSpec { link_rate: rate, ..FaultSpec::default() }))),
            (
                "worker",
                base(
                    sseed + 2,
                    Some(FaultSpec {
                        fail_board: (d(21) % 2) as usize,
                        fail_pass: Some(1 + d(22) % 2),
                        fail_kind: if hang { "hang".into() } else { "die".into() },
                        hang_ms: 150,
                        watchdog_ms: if hang { Some(40) } else { None },
                        ..FaultSpec::default()
                    }),
                ),
            ),
            (
                "doomed",
                base(sseed + 3, Some(FaultSpec { stuck_link: Some(1), ..FaultSpec::default() })),
            ),
        ];
        let config = DaemonConfig {
            checkpoint_dir: Some(dir.to_string()),
            link_capacity: Some(f64::INFINITY),
            max_live: 4,
            ..DaemonConfig::default()
        };
        let mut gens: u64 = 0; // generations every surviving session has run
        let mut totals = [0u64; 5]; // det / rt / loc / glob / ret, across lives
        let mut restarts: u64 = 0;
        let mut injections: u64 = 0;

        for life in 0..LIVES {
            let (addr, handle) = Daemon::spawn(&config).map_err(|e| e.to_string())?;
            let addr = addr.to_string();
            if life > 0 {
                restarts += 1;
            }
            let mut c = Client::connect(&addr).map_err(|e| e.to_string())?;
            if life == 0 {
                for (name, spec) in &specs {
                    match call(
                        &mut c,
                        &Request::Create { session: (*name).into(), spec: spec.clone() },
                    )? {
                        Response::Created { admitted: true, .. } => {}
                        other => return Err(format!("create {name}: {other:?}")),
                    }
                }
                // The stuck link exhausts the whole ladder on first
                // touch: quarantined, never a daemon crash.
                match call(&mut c, &Request::Step { session: "doomed".into(), n: 1, id: None })? {
                    Response::Error { message } if message.contains("quarantined") => {}
                    other => return Err(format!("doomed step: {other:?}")),
                }
            }

            // Transport storm: malformed bytes (structured error, same
            // connection stays usable), a mid-frame connection drop,
            // and — once per storm — an oversized frame.
            match inject_raw(&addr, b"{\"op\":]garbage\n", true).map_err(|e| e.to_string())? {
                Some(line) => match Response::from_line(&line) {
                    Ok(Response::Error { .. }) => injections += 1,
                    other => return Err(format!("garbage frame got {other:?}")),
                },
                None => return Err("garbage frame: daemon hung up instead of erroring".into()),
            }
            inject_raw(&addr, b"{\"op\":\"stats\",\"wat", false).map_err(|e| e.to_string())?;
            injections += 1;
            if life == 1 {
                let mut big = vec![b'x'; MAX_FRAME_BYTES + 2];
                big.push(b'\n');
                match inject_raw(&addr, &big, true).map_err(|e| e.to_string())? {
                    Some(line) => match Response::from_line(&line) {
                        Ok(Response::Error { message }) if message.contains("limit") => {
                            injections += 1;
                        }
                        other => return Err(format!("oversized frame got {other:?}")),
                    },
                    None => return Err("oversized frame: daemon hung up".into()),
                }
            }
            // A malformed frame on an established connection must not
            // poison the connection for the next valid frame.
            let reply = c.call("{\"op\":\"no-such-op\"}").map_err(|e| e.to_string())?;
            match Response::from_line(&reply) {
                Ok(Response::Error { .. }) => injections += 1,
                other => return Err(format!("bad-op frame got {other:?}")),
            }

            // Step the survivors, re-sending one step id to prove
            // at-most-once application under client retries.
            let n = 1 + d(100 + life) % steps;
            for (k, name) in ["clean", "arq", "worker"].iter().enumerate() {
                let id = format!("chaos-{sseed}-{life}-{k}");
                let req = Request::Step { session: (*name).into(), n, id: Some(id.clone()) };
                let first = call(&mut c, &req)?;
                let Response::Stepped { time, .. } = first else {
                    return Err(format!("step {name} life {life}: {first:?}"));
                };
                if time != gens + n {
                    return Err(format!("step {name} life {life}: time {time} != {}", gens + n));
                }
                if d(200 + life * 8 + k as u64) % 2 == 0 {
                    match call(&mut c, &req)? {
                        Response::Stepped { time: t2, .. } if t2 == time => {}
                        other => return Err(format!("retried step {name} re-applied: {other:?}")),
                    }
                }
            }
            gens += n;

            // Fold this life's recovery counters into the cross-restart
            // tally (the daemon's in-memory counters die with it).
            for name in ["clean", "arq", "worker"] {
                match call(
                    &mut c,
                    &Request::QueryReq { session: name.into(), what: Query::Report },
                )? {
                    Response::Report(r) => {
                        totals[0] += r.detected;
                        totals[1] += r.retransmits;
                        totals[2] += r.local_rollbacks;
                        totals[3] += r.rollbacks;
                        totals[4] += r.boards_retired;
                    }
                    other => return Err(format!("report {name}: {other:?}")),
                }
            }
            match call(&mut c, &Request::Shutdown)? {
                Response::Bye => {}
                other => return Err(format!("shutdown: {other:?}")),
            }
            handle.join().map_err(|_| "daemon panicked".to_string())?.map_err(|e| e.to_string())?;
        }

        // Final life: restart once more and audit what survived.
        let (addr, handle) = Daemon::spawn(&config).map_err(|e| e.to_string())?;
        let addr = addr.to_string();
        restarts += 1;
        let mut c = Client::connect(&addr).map_err(|e| e.to_string())?;
        match call(&mut c, &Request::Stats { watch: 1 })? {
            Response::Stats(frame) => {
                if frame.sessions.len() != 4 {
                    return Err(format!("expected 4 sessions after restart: {frame:?}"));
                }
                if frame.poisoned != 1 {
                    return Err(format!("quarantine lost across restarts: {frame:?}"));
                }
            }
            other => return Err(format!("stats: {other:?}")),
        }
        // Survivors are bit-exact vs the fault-free direct farm run.
        for (name, spec) in &specs {
            if *name == "doomed" {
                continue;
            }
            let what = Query::Region { row0: 0, col0: 0, rows: spec.rows, cols: spec.cols };
            match call(&mut c, &Request::QueryReq { session: (*name).into(), what })? {
                Response::Region { time, cells, .. } => {
                    if time != gens {
                        return Err(format!("{name} at generation {time}, expected {gens}"));
                    }
                    if cells != reference_cells(spec, gens)? {
                        return Err(format!("{name} diverged from fault-free reference"));
                    }
                }
                other => return Err(format!("region {name}: {other:?}")),
            }
        }
        // The goner is still fenced off.
        match call(&mut c, &Request::Step { session: "doomed".into(), n: 1, id: None })? {
            Response::Error { message } if message.contains("quarantined") => {}
            other => return Err(format!("poisoned step after restarts: {other:?}")),
        }
        // Ladder accounting survives kill+restart cycles.
        if totals[0] != totals[1] + totals[2] + totals[3] + totals[4] {
            return Err(format!(
                "conservation broke across restarts: {} detected vs {}+{}+{}+{}",
                totals[0], totals[1], totals[2], totals[3], totals[4]
            ));
        }
        // Destroy everything: zero leaked session namespaces.
        for (name, _) in &specs {
            match call(&mut c, &Request::Destroy { session: (*name).into() })? {
                Response::Destroyed { .. } => {}
                other => return Err(format!("destroy {name}: {other:?}")),
            }
        }
        match call(&mut c, &Request::Stats { watch: 1 })? {
            Response::Stats(frame) if frame.sessions.is_empty() => {}
            other => return Err(format!("leaked session namespaces: {other:?}")),
        }
        match call(&mut c, &Request::Shutdown)? {
            Response::Bye => {}
            other => return Err(format!("final shutdown: {other:?}")),
        }
        handle.join().map_err(|_| "daemon panicked".to_string())?.map_err(|e| e.to_string())?;
        Ok((restarts, injections, totals))
    }

    let mut out = format!(
        "chaos --serve: {storms} storm(s), 4 sessions x {} daemon lives each, base seed {seed}\n\
         weather: halo-link transients @ {rate:.1e}, worker die/hang, one stuck link \
         (quarantine), transport garbage/truncation/oversize\n\
         invariants: survivors bit-exact vs direct farm, quarantine contained and durable, \
         ladder accounting across restarts, no leaked namespaces\n\n",
        LIVES + 1
    );
    let table = SweepTable::new(&[
        ("storm", 5, Align::Right),
        ("seed", 20, Align::Left),
        ("restarts", 8, Align::Right),
        ("inject", 6, Align::Right),
        ("det", 3, Align::Right),
        ("rt", 2, Align::Right),
        ("loc", 3, Align::Right),
        ("glob", 4, Align::Right),
        ("ret", 3, Align::Right),
        ("result", 0, Align::Left),
    ]);
    out.push_str(&table.header());
    let mut failed: Vec<u64> = Vec::new();
    for i in 0..storms {
        let sseed = seed.wrapping_add(i);
        let dir = std::env::temp_dir()
            .join(format!("lattice-chaos-serve-{}-{i}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        // Scratch store for this storm's daemon lives — created fresh
        // and torn down here, not durable-store state.
        let _ = std::fs::remove_dir_all(&dir); // lattice-lint: allow(fs-write)
        std::fs::create_dir_all(&dir) // lattice-lint: allow(fs-write)
            .map_err(|e| CliError(format!("chaos: mkdir {dir}: {e}")))?;
        let outcome = storm(sseed, steps, rate, &dir);
        let _ = std::fs::remove_dir_all(&dir); // lattice-lint: allow(fs-write)
        let (restarts, injections, ladder, result) = match outcome {
            Ok((r, j, l)) => (r, j, l, "ok".to_string()),
            Err(why) => {
                failed.push(i);
                (0, 0, [0; 5], format!("FAIL: {why}"))
            }
        };
        out.push_str(&table.row(&[
            i.to_string(),
            sseed.to_string(),
            restarts.to_string(),
            injections.to_string(),
            ladder[0].to_string(),
            ladder[1].to_string(),
            ladder[2].to_string(),
            ladder[3].to_string(),
            ladder[4].to_string(),
            result,
        ]));
    }
    if failed.is_empty() {
        out.push_str(&format!(
            "\nchaos --serve: all {storms} storm(s) held every invariant across restarts\n"
        ));
        Ok(out)
    } else {
        out.push_str(&format!(
            "\nchaos --serve: {} storm(s) FAILED; reproduce with:\n",
            failed.len()
        ));
        for i in &failed {
            out.push_str(&format!(
                "  lattice chaos --serve --storms 1 --seed {} --steps {steps} --rate {rate}\n",
                seed.wrapping_add(*i)
            ));
        }
        Err(CliError(out))
    }
}

/// Today's date as `YYYY-MM-DD` (UTC), via Howard Hinnant's
/// civil-from-days algorithm — no calendar dependency.
fn bench_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// `lattice bench`: sweep HPP through engine x shards x overlap and
/// report throughput at the paper's 10 MHz clock; `--json` emits the
/// same numbers as a machine-readable artifact for trend tracking,
/// and `--baseline` turns the run into a regression ratchet against a
/// checked-in artifact. `--fault-rates` adds WSA sweeps that push
/// link-transient faults through the recovery ladder, so the artifact
/// also tracks link utilization and the tick cost of recovery.
fn run_bench(args: BenchArgs) -> Result<String, CliError> {
    use crate::farm::BoardLink;
    use crate::gas::audit::{AuditMode, ConservationAudit};
    use crate::serve::json::Value;

    let BenchArgs {
        rows,
        cols,
        steps,
        seed,
        depth,
        shards,
        fault_rates,
        link_bits,
        grid: board_grid,
        tier_bits,
        json,
        out,
        baseline,
        tolerance,
    } = args;
    let (shards_list, out_path) = (shards.as_str(), out.as_deref());
    if depth == 0 || steps == 0 {
        return Err(CliError("bench: --depth and --steps must be ≥ 1".into()));
    }
    if !(0.0..1.0).contains(&tolerance) {
        return Err(CliError("bench: --tolerance must be in [0, 1)".into()));
    }
    if link_bits.is_nan() || link_bits <= 0.0 {
        return Err(CliError("bench: --link-bits must be positive".into()));
    }
    if let Some((gr, gc)) = board_grid {
        if gr > rows || gc > cols {
            return Err(CliError(format!(
                "bench: --grid {gr}x{gc} does not fit a {rows}x{cols} lattice"
            )));
        }
    }
    if tier_bits.is_some() && board_grid.is_none() {
        return Err(CliError(
            "bench: --tier-bits needs --grid — the inter-rack tier is idle on \
             columnar layouts"
                .into(),
        ));
    }
    if tier_bits.is_some_and(|b| b.is_nan() || b <= 0.0) {
        return Err(CliError("bench: --tier-bits must be positive".into()));
    }
    let shard_counts: Vec<usize> = shards_list
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1 && n <= cols)
                .ok_or_else(|| CliError(format!("bench: bad --shards entry `{s}` (1..=cols)")))
        })
        .collect::<Result<_, _>>()?;
    let rate_list: Vec<f64> = fault_rates
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<f64>()
                .ok()
                .filter(|r| (0.0..=1.0).contains(r))
                .ok_or_else(|| CliError(format!("bench: bad --fault-rates entry `{s}` (0..=1)")))
        })
        .collect::<Result<_, _>>()?;
    let shape = Shape::grid2(rows, cols)?;
    let grid = init::random_hpp(shape, 0.3, seed)?;
    let rule = HppRule::new();
    let clock = Technology::paper_1987().clock();

    let table = SweepTable::new(&[
        ("engine", 6, Align::Left),
        ("shards", 6, Align::Right),
        ("overlap", 7, Align::Left),
        ("fault", 6, Align::Right),
        ("sites/sec", 12, Align::Right),
        ("upd/tick", 8, Align::Right),
        ("halo bits/tick", 14, Align::Right),
        ("link util", 9, Align::Right),
        ("rec cost", 8, Align::Right),
        ("ticks", 8, Align::Right),
    ]);
    let mut out = format!(
        "bench: hpp on {rows}x{cols}, {steps} generations, k = {depth}, seed {seed}, \
         clock {:.1e} Hz\n",
        clock.get()
    );
    out.push_str(&table.header());
    let mut results: Vec<Value> = Vec::new();

    // One table row and one artifact object per measured run, shared by
    // the clean, grid and faulted sweeps so all three render and
    // serialize identically.
    let mut push_row = |engine: &str,
                        (shards, grid): (usize, Option<(usize, usize)>),
                        overlap: bool,
                        fault_rate: f64,
                        report: &FarmReport<u8>| {
        let mt = report.machine_ticks();
        let share = |t: Ticks| if mt.is_zero() { 0.0 } else { t.ratio(mt) };
        let sps = report.updates_per_second(clock).get();
        let upd_per_tick = report.updates_per_tick().get();
        let halo_bits = report.halo_bits_per_tick().get();
        let (link_util, rec_cost) = (share(report.halo_ticks), share(report.retransmit_ticks));
        out.push_str(&table.row(&[
            engine.to_string(),
            match grid {
                Some((gr, gc)) => format!("{gr}x{gc}"),
                None => shards.to_string(),
            },
            if overlap { "yes" } else { "no" }.to_string(),
            format!("{fault_rate:.3}"),
            format!("{sps:.3e}"),
            format!("{upd_per_tick:.2}"),
            format!("{halo_bits:.2}"),
            format!("{link_util:.3}"),
            format!("{rec_cost:.3}"),
            mt.get().to_string(),
        ]));
        // Every row carries its own wire width so the ratchet key can
        // fold it in: two baselines that differ only in `--link-bits`
        // must never be compared row-for-row.
        let mut obj = vec![
            ("engine".into(), Value::Str(engine.into())),
            ("shards".into(), Value::num_usize(shards)),
            ("overlap".into(), Value::Bool(overlap)),
            ("fault_rate".into(), Value::Num(fault_rate)),
            ("link_bits".into(), Value::Num(link_bits)),
            ("sites_per_sec".into(), Value::Num(sps)),
            ("updates_per_tick".into(), Value::Num(upd_per_tick)),
            ("halo_bits_per_tick".into(), Value::Num(halo_bits)),
            ("link_utilization".into(), Value::Num(link_util)),
            ("recovery_cost".into(), Value::Num(rec_cost)),
            ("machine_ticks".into(), Value::num_u64(mt.get())),
            ("passes".into(), Value::num_u64(report.passes)),
        ];
        if let Some((gr, gc)) = grid {
            obj.push(("grid_rows".into(), Value::num_usize(gr)));
            obj.push(("grid_cols".into(), Value::num_usize(gc)));
            obj.push(("tier_bits".into(), Value::Num(tier_bits.unwrap_or(link_bits))));
        }
        results.push(Value::Obj(obj));
    };

    for ename in ["wsa", "spa"] {
        for &s in &shard_counts {
            for overlap in [false, true] {
                let eng = match ename {
                    "wsa" => ShardEngine::Wsa { width: 2 },
                    _ => ShardEngine::Spa { slice_width: 1 },
                };
                let farm = LatticeFarm::new(s, eng, depth)
                    .with_overlap(overlap)
                    .with_link(BoardLink::new(link_bits));
                push_row(ename, (s, None), overlap, 0.0, &farm.run(&rule, &grid, 0, steps)?);
            }
        }
    }

    if let Some((gr, gc)) = board_grid {
        // Grid legs: the same lattice on an R×C board grid with both
        // link tiers throttled; WSA only (the model the grid rows are
        // ratcheted against mirrors the WSA pipeline).
        for overlap in [false, true] {
            let farm = LatticeFarm::new(gr * gc, ShardEngine::Wsa { width: 2 }, depth)
                .with_grid(gr, gc)
                .with_overlap(overlap)
                .with_link(BoardLink::new(link_bits))
                .with_tier_link(BoardLink::new(tier_bits.unwrap_or(link_bits)));
            let report = farm.run(&rule, &grid, 0, steps)?;
            push_row("wsa", (gr * gc, Some((gr, gc))), overlap, 0.0, &report);
        }
    }

    if !rate_list.is_empty() {
        // The confined world, as in `fault-sim --farm`: the exact
        // conservation audit that drives fault detection never
        // false-positives on boundary loss.
        let confined = confined_hpp("bench --fault-rates", rows, cols, steps, seed)?;
        let audit = ConservationAudit::new(Model::Hpp, AuditMode::Exact);
        for &rate in &rate_list {
            for &s in &shard_counts {
                for overlap in [false, true] {
                    let farm = LatticeFarm::new(s, ShardEngine::Wsa { width: 2 }, depth)
                        .with_overlap(overlap)
                        .with_link(BoardLink::new(link_bits));
                    let max_retired = s - 1;
                    let plan = halo_weather(seed, &farm, (rows, cols), max_retired, rate, false)?;
                    let cfg = FarmRecoveryConfig {
                        max_retries: 3,
                        checkpoint_every: 2,
                        degrade: (max_retired > 0).then_some(FarmDegradeConfig { max_retired }),
                        ..FarmRecoveryConfig::default()
                    };
                    let ft = farm
                        .run_with_recovery(&rule, &confined, 0, steps, Some(&plan), &cfg, |b, a| {
                            audit.check(b, a)
                        })
                        .map_err(|e| {
                            CliError(format!("bench: faulted run (wsa x{s} rate {rate}): {e}"))
                        })?;
                    push_row("wsa", (s, None), overlap, rate, &ft.report);
                }
            }
        }
    }
    if json {
        let date = bench_date();
        let path = match out_path {
            Some(p) => p.to_string(),
            None => format!("BENCH_{date}.json"),
        };
        let doc = Value::Obj(vec![
            ("date".into(), Value::Str(date)),
            ("model".into(), Value::Str("hpp".into())),
            ("rows".into(), Value::num_usize(rows)),
            ("cols".into(), Value::num_usize(cols)),
            ("steps".into(), Value::num_u64(steps)),
            ("seed".into(), Value::num_u64(seed)),
            ("depth".into(), Value::num_usize(depth)),
            ("link_bits".into(), Value::Num(link_bits)),
            ("clock_hz".into(), Value::Num(clock.get())),
            ("results".into(), Value::Arr(results.clone())),
        ]);
        std::fs::write(&path, doc.render() + "\n")
            .map_err(|e| CliError(format!("bench: write {path}: {e}")))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    if let Some(bpath) = baseline {
        out.push_str(&ratchet_against_baseline(&bpath, tolerance, &results)?);
    }
    Ok(out)
}

/// The `lattice bench --baseline` gate: every `(engine, shards,
/// overlap, fault_rate)` configuration present in both the baseline
/// artifact and this run must be within `tolerance` of the baseline
/// on three axes: sites/sec (lower is a regression), link utilization
/// and recovery cost (higher is a regression). The model-derived tick
/// counts make the comparison deterministic; the tolerance only
/// absorbs float-formatting drift. Improvement is reported, never
/// failed — the ratchet tightens by re-generating the artifact.
/// Baselines written before the fault columns existed compare as
/// `fault_rate = 0` with the cost axes skipped.
fn ratchet_against_baseline(
    bpath: &str,
    tolerance: f64,
    results: &[crate::serve::json::Value],
) -> Result<String, CliError> {
    use crate::serve::json::{self, Value};

    // The configuration key: engine × layout × overlap × fault rate ×
    // wire width. `link_bits` keys in millibits/tick so the tuple
    // stays Eq; rows written before the per-row column existed fall
    // back to the artifact's top-level value (`default_link`), so a
    // baseline recorded at one wire width is never compared against a
    // run at another — same sweep, different wire, different physics.
    let key = |v: &Value, default_link: f64| -> Option<(String, String, bool, u64, u64)> {
        // fault_rate keys as parts-per-million so the tuple stays Eq;
        // absent (pre-fault-column baselines) means the clean sweep.
        let rate = v.get("fault_rate").and_then(Value::as_f64).unwrap_or(0.0);
        let link = v.get("link_bits").and_then(Value::as_f64).unwrap_or(default_link);
        // Grid rows key by shape so a 2x2 grid never collides with a
        // columnar 4-shard row.
        let layout = match (
            v.get("grid_rows").and_then(Value::as_u64),
            v.get("grid_cols").and_then(Value::as_u64),
        ) {
            (Some(gr), Some(gc)) => format!("{gr}x{gc}"),
            _ => v.get("shards")?.as_u64()?.to_string(),
        };
        Some((
            v.get("engine")?.as_str()?.to_string(),
            layout,
            v.get("overlap")?.as_bool()?,
            (rate * 1e6).round() as u64,
            (link * 1e3).round() as u64,
        ))
    };
    let text = std::fs::read_to_string(bpath)
        .map_err(|e| CliError(format!("bench: read baseline {bpath}: {e}")))?;
    let doc = json::parse(&text)
        .map_err(|e| CliError(format!("bench: baseline {bpath} is not valid JSON: {e}")))?;
    let base_link = doc.get("link_bits").and_then(Value::as_f64).unwrap_or(16.0);
    let cur_link = results
        .iter()
        .find_map(|r| r.get("link_bits").and_then(Value::as_f64))
        .unwrap_or(base_link);
    let rows = doc
        .get("results")
        .and_then(Value::as_arr)
        .ok_or_else(|| CliError(format!("bench: baseline {bpath} has no `results` array")))?;

    let mut compared = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    for base in rows {
        let Some(k) = key(base, base_link) else { continue };
        let Some(base_sps) = base.get("sites_per_sec").and_then(Value::as_f64) else { continue };
        let Some(cur) = results.iter().find(|r| key(r, cur_link).as_ref() == Some(&k)) else {
            continue;
        };
        let Some(cur_sps) = cur.get("sites_per_sec").and_then(Value::as_f64) else { continue };
        compared += 1;
        let tag = format!("{} x{} overlap={} fault={:.3}", k.0, k.1, k.2, k.3 as f64 / 1e6);
        if cur_sps < base_sps * (1.0 - tolerance) {
            regressions.push(format!(
                "  {tag}: {cur_sps:.3e} sites/sec vs baseline {base_sps:.3e} ({:+.1}%)",
                (cur_sps / base_sps - 1.0) * 100.0
            ));
        }
        // Cost axes: higher-than-baseline is the regression. Skipped
        // when the baseline predates the columns.
        for metric in ["link_utilization", "recovery_cost"] {
            let Some(base_m) = base.get(metric).and_then(Value::as_f64) else { continue };
            let Some(cur_m) = cur.get(metric).and_then(Value::as_f64) else { continue };
            if cur_m > base_m * (1.0 + tolerance) + 1e-9 {
                regressions.push(format!(
                    "  {tag}: {metric} {cur_m:.4} vs baseline {base_m:.4} ({:+.1}%)",
                    if base_m == 0.0 { f64::INFINITY } else { (cur_m / base_m - 1.0) * 100.0 }
                ));
            }
        }
    }
    if compared == 0 {
        return Err(CliError(format!(
            "bench: baseline {bpath} shares no configuration with this run — \
             regenerate it with the same --shards/--depth/--link-bits sweep"
        )));
    }
    if regressions.is_empty() {
        Ok(format!(
            "ratchet: {compared} configuration(s) within {:.0}% of {bpath}\n",
            tolerance * 100.0
        ))
    } else {
        Err(CliError(format!(
            "bench: {} configuration(s) regressed beyond {:.0}% of {bpath}:\n{}\n",
            regressions.len(),
            tolerance * 100.0,
            regressions.join("\n")
        )))
    }
}

fn run_pebble(d: usize, r: usize, t: usize, s: usize) -> Result<String, CliError> {
    if d == 0 || d > 3 {
        return Err(CliError("pebble: --d must be 1, 2, or 3".into()));
    }
    for (flag, v) in [("r", r), ("t", t), ("s", s)] {
        if v == 0 {
            return Err(CliError(format!("pebble: --{flag} must be at least 1")));
        }
    }
    let graph = LatticeGraph::new(d, r, t);
    let n = graph.n_vertices() as u64;
    let lb = io_lower_bound(n, d, s);
    let tau = tau_upper_bound(d, s);
    let mut out = format!(
        "C_{d} on {r}^{d} x {t} generations: {n} vertices, S = {s}\n\
         Hong-Kung I/O lower bound: {lb:.0} site values\n\
         rate ceiling τ(2S) = {tau:.1} updates per I/O\n"
    );
    match tiled_schedule(&graph, s, None) {
        Ok(st) => out.push_str(&format!(
            "tiled schedule:  q = {} ({:.2} I/O per update, {:.2} updates per I/O)\n",
            st.io_moves,
            st.io_per_update(),
            1.0 / st.io_per_update()
        )),
        Err(e) => out.push_str(&format!("tiled schedule:  infeasible at this S ({e})\n")),
    }
    match naive_sweep(&graph, s) {
        Ok(st) => out.push_str(&format!(
            "naive schedule:  q = {} ({:.2} I/O per update)\n",
            st.io_moves,
            st.io_per_update()
        )),
        Err(e) => out.push_str(&format!("naive schedule:  infeasible ({e})\n")),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_gas_defaults_and_flags() {
        let cmd = parse(&argv("gas")).unwrap();
        assert!(matches!(cmd, Command::Gas { rows: 64, cols: 64, steps: 100, .. }));
        let cmd = parse(&argv(
            "gas --model fhp3 --rows 32 --cols 48 --steps 10 --density 0.5 --seed 7 --periodic",
        ))
        .unwrap();
        match cmd {
            Command::Gas { model, rows, cols, steps, density, seed, periodic, save } => {
                assert_eq!(model, "fhp3");
                assert_eq!((rows, cols, steps, seed), (32, 48, 10, 7));
                assert!((density - 0.5).abs() < 1e-12);
                assert!(periodic);
                assert!(save.is_none());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_grid_and_tier_bits_flags() {
        match parse(&argv("farm --grid 2x3 --tier-bits 4")).unwrap() {
            Command::Farm(FarmArgs { spec, .. }) => {
                // `--grid RxC` implies R·C boards.
                assert_eq!((spec.shards, spec.grid, spec.tier_bits), (6, Some((2, 3)), Some(4.0)));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("farm --grid 2x3 --shards 6")).unwrap() {
            Command::Farm(FarmArgs { spec, .. }) => {
                assert_eq!((spec.shards, spec.grid), (6, Some((2, 3))))
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("farm --grid 2x3 --shards 5")).is_err());
        assert!(parse(&argv("farm --grid 0x3")).is_err());
        assert!(parse(&argv("farm --grid 2by3")).is_err());
        assert!(parse(&argv("bench --grid 2x")).is_err());
        match parse(&argv("bench --grid 2X2 --tier-bits 8")).unwrap() {
            Command::Bench(BenchArgs { grid, tier_bits, .. }) => {
                assert_eq!((grid, tier_bits), (Some((2, 2)), Some(8.0)));
            }
            other => panic!("{other:?}"),
        }
        match parse(&argv("fault-sim --farm --farm-grid 3x2")).unwrap() {
            Command::FaultSim(FaultSimArgs {
                mode: FaultSimMode::Farm { grid: farm_grid, .. },
                ..
            }) => assert_eq!(farm_grid, Some((3, 2))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_equals_form_and_errors() {
        let cmd = parse(&argv("pebble --d=3 --r=16 --t=8 --s=128")).unwrap();
        assert_eq!(cmd, Command::Pebble { d: 3, r: 16, t: 8, s: 128 });
        assert!(parse(&argv("bogus")).is_err());
        assert!(parse(&argv("gas --rows notanumber")).is_err());
        assert!(parse(&argv("gas stray")).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("help")).unwrap_err().0.contains("USAGE"));
        // Strict reading: a repeat (in either form), a switch with a
        // value, and a flag the reader does not declare are all exit 2.
        for bad in ["pebble --d=2 --d 3", "gas --periodic=true", "farm --density 0.5"] {
            assert_eq!(exit_code(&parse(&argv(bad)).unwrap_err()), 2, "{bad}");
        }
        let err = parse(&argv("fault-sim --farm --stuck-chip 1")).unwrap_err();
        assert!(err.0.starts_with("fault-sim --farm: unknown flag --stuck-chip"), "{err}");
        // An unknown flag is named ahead of a missing required one.
        assert!(parse(&argv("request --bogus 1")).unwrap_err().0.contains("--bogus"));
        assert!(parse(&argv("request --line {}")).unwrap_err().0.contains("--addr"));
        // A value may start with a single dash.
        match parse(&argv("fault-sim --rate -1")).unwrap() {
            Command::FaultSim(FaultSimArgs { rate, .. }) => assert_eq!(rate, -1.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn usage_is_generated_from_the_flag_readers() {
        let lines = describe_all().unwrap();
        // One line per subcommand plus one per mode (`fault-sim --farm`,
        // `chaos --serve`).
        assert_eq!(lines.len(), COMMANDS.len() + 2);
        let text = usage();
        assert!(text.contains("USAGE"), "{text}");
        for (label, entries) in &lines {
            assert!(text.contains(&format!("lattice {label}")), "{label}");
            for entry in entries {
                assert!(text.contains(entry.as_str()), "{entry}");
                // Every listed flag is accepted in its own mode: its
                // sample value may be refused, the flag never is.
                let flag = entry.trim_matches(['[', ']']);
                let name = flag.split(' ').next().unwrap();
                let value = if flag.contains(' ') { " 1" } else { "" };
                if let Err(e) = parse(&argv(&format!("{label} {name}{value}"))) {
                    assert!(!e.0.contains("unknown flag"), "{label} {name}: {e}");
                }
            }
        }
    }

    #[test]
    fn execute_gas_conserves_on_torus() {
        let out = execute(Command::Gas {
            model: "fhp1".into(),
            rows: 16,
            cols: 16,
            steps: 20,
            density: 0.4,
            seed: 1,
            periodic: true,
            save: None,
        })
        .unwrap();
        assert!(out.contains("torus"));
        assert!(out.contains("mass"));
    }

    #[test]
    fn execute_gas_rejects_unknown_model() {
        let err = execute(Command::Gas {
            model: "bogus".into(),
            rows: 8,
            cols: 8,
            steps: 1,
            density: 0.3,
            seed: 1,
            periodic: false,
            save: None,
        })
        .unwrap_err();
        assert!(err.0.contains("unknown gas model"));
    }

    #[test]
    fn execute_engine_all_archs() {
        for arch in ["serial", "wsa", "spa", "wsae"] {
            let out = execute(Command::Engine {
                arch: arch.into(),
                width: 2,
                depth: 2,
                slice_width: 16,
                rows: 16,
                cols: 32,
                seed: 3,
            })
            .unwrap();
            assert!(out.contains("updates/tick"), "{arch}");
        }
        assert!(execute(Command::Engine {
            arch: "vax".into(),
            width: 1,
            depth: 1,
            slice_width: 8,
            rows: 8,
            cols: 8,
            seed: 0,
        })
        .is_err());
    }

    #[test]
    fn execute_design_both_regimes() {
        let small = execute(Command::Design { l: 500, rate: 5e7, budget: 64 }).unwrap();
        assert!(small.contains("WSA:   P = 4"));
        let big = execute(Command::Design { l: 2000, rate: 5e7, budget: 64 }).unwrap();
        assert!(big.contains("infeasible"));
    }

    #[test]
    fn execute_pebble_reports_bounds() {
        let out = execute(Command::Pebble { d: 2, r: 12, t: 6, s: 128 }).unwrap();
        assert!(out.contains("lower bound"));
        assert!(out.contains("tiled schedule"));
        assert!(execute(Command::Pebble { d: 9, r: 4, t: 2, s: 16 }).is_err());
    }

    #[test]
    fn execute_gas_saves_checkpoint() {
        let path = std::env::temp_dir().join("lattice_cli_test.lgc");
        let out = execute(Command::Gas {
            model: "hpp".into(),
            rows: 8,
            cols: 8,
            steps: 5,
            density: 0.3,
            seed: 2,
            periodic: true,
            save: Some(path.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert!(out.contains("checkpoint"));
        let bytes = std::fs::read(&path).unwrap();
        let (grid, t) = checkpoint::load::<u8>(&bytes).unwrap();
        assert_eq!(t, Ticks::new(5));
        assert_eq!(grid.shape().dims(), &[8, 8]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_reproduces_uninterrupted_run() {
        use crate::core::{evolve, Boundary, Shape};
        use crate::gas::{init, FhpRule, FhpVariant};
        let dir = std::env::temp_dir();
        let p1 = dir.join("lattice_cli_resume_a.lgc");
        let p2 = dir.join("lattice_cli_resume_b.lgc");
        // Run 4 gens + save, resume 4 more + save.
        execute(Command::Gas {
            model: "fhp1".into(),
            rows: 10,
            cols: 12,
            steps: 4,
            density: 0.4,
            seed: 42,
            periodic: true,
            save: Some(p1.to_string_lossy().into_owned()),
        })
        .unwrap();
        execute(Command::Resume {
            load: p1.to_string_lossy().into_owned(),
            model: "fhp1".into(),
            steps: 4,
            seed: 42,
            periodic: true,
            save: Some(p2.to_string_lossy().into_owned()),
        })
        .unwrap();
        let (resumed, t) = checkpoint::load::<u8>(&std::fs::read(&p2).unwrap()).unwrap();
        assert_eq!(t, Ticks::new(8));
        // Equals one uninterrupted 8-generation run.
        let shape = Shape::grid2(10, 12).unwrap();
        let g0 = init::random_fhp(shape, FhpVariant::I, 0.4, 42, true).unwrap();
        let rule = FhpRule::new(FhpVariant::I, 42).with_wrap(10, 12);
        let straight = evolve(&g0, &rule, Boundary::Periodic, 0, 8);
        assert_eq!(resumed, straight);
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }

    #[test]
    fn resume_requires_load_flag() {
        assert!(parse(&argv("resume")).is_err());
        assert!(parse(&argv("resume --load /tmp/x.lgc")).is_ok());
    }

    #[test]
    fn image_chain_runs_and_rejects_unknown_stages() {
        let out = execute(Command::Image {
            chain: "median,blur,threshold,open".into(),
            rows: 12,
            cols: 20,
            seed: 3,
        })
        .unwrap();
        assert!(out.contains("applied median"));
        assert!(out.contains("applied open"));
        assert!(out.contains('#') || out.contains('.'));
        assert!(execute(Command::Image {
            chain: "median,sharpen".into(),
            rows: 8,
            cols: 8,
            seed: 1,
        })
        .is_err());
        assert!(parse(&argv("image --chain sobel")).is_ok());
    }

    #[test]
    fn waveform_renders_and_verifies() {
        let out = execute(Command::Waveform { width: 2, depth: 3, rows: 12, cols: 16 }).unwrap();
        assert!(out.contains("stage0"));
        assert!(out.contains("wavefront"));
    }

    #[test]
    fn fault_sim_parses_and_recovers_bit_exact() {
        let cmd = parse(&argv("fault-sim --rows 30 --cols 40 --depth 2 --rate 2e-4")).unwrap();
        match &cmd {
            Command::FaultSim(FaultSimArgs {
                rows: 30,
                cols: 40,
                depth: 2,
                mode: FaultSimMode::Chip { stuck_chip: None },
                ..
            }) => {}
            other => panic!("{other:?}"),
        }
        let out = execute(Command::FaultSim(FaultSimArgs {
            rows: 30,
            cols: 40,
            width: 1,
            depth: 2,
            steps: 6,
            seed: 5,
            rate: 2e-5,
            retries: 6,
            ckpt_every: 1,
            mode: FaultSimMode::Chip { stuck_chip: None },
        }))
        .unwrap();
        assert!(out.contains("upd/fault"), "{out}");
        assert!(out.contains("bit-exact"), "{out}");
        assert!(!out.contains("WRONG"), "{out}");
    }

    #[test]
    fn fault_sim_exits_nonzero_when_a_sweep_cell_ends_unrecovered() {
        // A flip rate hot enough that count-conserving multi-flip passes
        // slip past the exact audit (or exhaust the retry budget): the
        // sweep must not bury that in a table row — the command fails.
        let err = execute(Command::FaultSim(FaultSimArgs {
            rows: 30,
            cols: 40,
            width: 1,
            depth: 2,
            steps: 6,
            seed: 5,
            rate: 2e-4,
            retries: 6,
            ckpt_every: 1,
            mode: FaultSimMode::Chip { stuck_chip: None },
        }))
        .unwrap_err();
        assert!(err.0.contains("ended unrecovered"), "{}", err.0);
    }

    #[test]
    fn fault_sim_stuck_link_bypasses_the_chip_and_stays_exact() {
        let out = execute(Command::FaultSim(FaultSimArgs {
            rows: 26,
            cols: 30,
            width: 1,
            depth: 3,
            steps: 4,
            seed: 9,
            rate: 0.0,
            retries: 1,
            ckpt_every: 1,
            mode: FaultSimMode::Chip { stuck_chip: Some(1) },
        }))
        .unwrap();
        assert!(!out.contains("WRONG"), "{out}");
        assert!(!out.contains("gave up"), "{out}");
        let row = out.lines().find(|l| l.ends_with("bit-exact")).unwrap();
        // rate injected detected rollbacks bypassed passes upd/fault result
        let fields: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(fields[4], "1", "expected one bypassed chip: {row}");
    }

    #[test]
    fn fault_sim_rejects_bad_geometry() {
        // Margin smaller than the generation count: exactness is not
        // guaranteed, so the command must refuse.
        assert!(execute(Command::FaultSim(FaultSimArgs {
            rows: 10,
            cols: 10,
            width: 1,
            depth: 2,
            steps: 8,
            seed: 1,
            rate: 1e-4,
            retries: 3,
            ckpt_every: 1,
            mode: FaultSimMode::Chip { stuck_chip: None }
        }))
        .is_err());
        assert!(parse(&argv("fault-sim --stuck-chip nope")).is_err());
        assert!(parse(&argv("fault-sim --stuck-board nope")).is_err());
    }

    #[test]
    fn farm_fault_sim_sweeps_the_ladder_and_stays_exact() {
        let cmd = parse(&argv(
            "fault-sim --farm --rows 26 --cols 36 --depth 2 --steps 6 \
             --farm-shards 1,2 --rate 2e-3 --seed 11",
        ))
        .unwrap();
        match &cmd {
            Command::FaultSim(FaultSimArgs {
                mode: FaultSimMode::Farm { shards: farm_shards, stuck_board: None, .. },
                ..
            }) => {
                assert_eq!(farm_shards, "1,2");
            }
            other => panic!("{other:?}"),
        }
        let out = execute(cmd).unwrap();
        assert!(out.contains("retrans"), "{out}");
        assert!(out.contains("degraded"), "{out}");
        assert!(out.contains("bit-exact"), "{out}");
        assert!(!out.contains("WRONG"), "{out}");
        assert!(!out.contains("gave up"), "{out}");
        // The single-board row has no halo links, so a link-rate sweep
        // injects nothing there; the 2-board rows see real weather.
        assert!(out.lines().filter(|l| l.ends_with("bit-exact")).count() >= 8, "{out}");
    }

    #[test]
    fn farm_fault_sim_stuck_board_degrades_and_stays_exact() {
        let out = execute(Command::FaultSim(FaultSimArgs {
            rows: 26,
            cols: 36,
            width: 1,
            depth: 2,
            steps: 6,
            seed: 11,
            rate: 0.0,
            retries: 1,
            ckpt_every: 1,
            mode: FaultSimMode::Farm {
                shards: "2".into(),
                grid: None,
                stuck_board: Some(1),
                overlap: false,
            },
        }))
        .unwrap();
        assert!(!out.contains("WRONG"), "{out}");
        assert!(!out.contains("gave up"), "{out}");
        // Every row retires the stuck board exactly once.
        for row in out.lines().filter(|l| l.ends_with("bit-exact")) {
            let fields: Vec<&str> = row.split_whitespace().collect();
            // shards rate injected detected retrans local global degraded ...
            assert_eq!(fields[7], "1", "expected one retired board: {row}");
        }
        // An out-of-range stuck board is refused.
        assert!(execute(Command::FaultSim(FaultSimArgs {
            rows: 26,
            cols: 36,
            width: 1,
            depth: 2,
            steps: 6,
            seed: 11,
            rate: 0.0,
            retries: 1,
            ckpt_every: 1,
            mode: FaultSimMode::Farm {
                shards: "2,4".into(),
                grid: None,
                stuck_board: Some(2),
                overlap: false
            }
        }))
        .is_err());
    }

    #[test]
    fn farm_parses_defaults_and_flags() {
        let cmd = parse(&argv("farm")).unwrap();
        assert!(matches!(
            cmd,
            Command::Farm(FarmArgs {
                spec: SessionSpec {
                    shards: 4,
                    depth: 2,
                    link_bits: None,
                    grid: None,
                    tier_bits: None,
                    overlap: false,
                    ..
                },
                verify: false,
                ..
            })
        ));
        // The spec is the daemon's, defaults and all.
        match cmd {
            Command::Farm(FarmArgs { spec, .. }) => assert_eq!(spec, SessionSpec::default()),
            other => panic!("{other:?}"),
        }
        let cmd = parse(&argv(
            "farm --shards 3 --engine spa --slice-width 1 --rows 12 --cols 30 \
             --steps 4 --model hpp --link-bits 8 --overlap --verify --periodic",
        ))
        .unwrap();
        match cmd {
            Command::Farm(FarmArgs {
                spec:
                    SessionSpec {
                        shards, engine, slice_width, model, periodic, link_bits, overlap, ..
                    },
                verify,
                ..
            }) => {
                assert_eq!((shards, slice_width), (3, 1));
                assert_eq!(engine, "spa");
                assert_eq!(model, "hpp");
                assert!(periodic && verify && overlap);
                assert_eq!(link_bits, Some(8.0));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("farm --link-bits fast")).is_err());
        // fault-sim picks the flag up too (farm fault matrix runs both modes).
        assert!(matches!(
            parse(&argv("fault-sim --farm --overlap")).unwrap(),
            Command::FaultSim(FaultSimArgs { mode: FaultSimMode::Farm { overlap: true, .. }, .. })
        ));
    }

    #[test]
    fn farm_executes_and_verifies_bit_exact() {
        let out = execute(Command::Farm(FarmArgs {
            spec: SessionSpec {
                shards: 3,
                engine: "wsa".into(),
                width: 2,
                slice_width: 1,
                depth: 2,
                rows: 16,
                cols: 30,
                seed: 5,
                model: "fhp1".into(),
                periodic: false,
                link_bits: None,
                grid: None,
                tier_bits: None,
                overlap: false,
                ..SessionSpec::default()
            },
            steps: 4,
            verify: true,
            checkpoint_dir: None,
            ckpt_every: 1,
            resume: false,
        }))
        .unwrap();
        assert!(out.contains("verify: bit-exact vs reference"), "{out}");
        assert!(out.contains("model: pass ticks"), "{out}");
        assert!(out.contains("shard  row0  rows  col0"), "{out}");
    }

    #[test]
    fn farm_overlap_hides_halo_time_and_verifies_bit_exact() {
        let out = execute(Command::Farm(FarmArgs {
            spec: SessionSpec {
                shards: 4,
                engine: "wsa".into(),
                width: 2,
                slice_width: 1,
                depth: 2,
                rows: 16,
                cols: 64,
                seed: 5,
                model: "fhp1".into(),
                periodic: false,
                link_bits: Some(4.0),
                grid: None,
                tier_bits: None,
                overlap: true,
                ..SessionSpec::default()
            },
            steps: 8,
            verify: true,
            checkpoint_dir: None,
            ckpt_every: 1,
            resume: false,
        }))
        .unwrap();
        assert!(out.contains("overlapped exchange"), "{out}");
        assert!(out.contains("verify: bit-exact vs reference"), "{out}");
        assert!(!out.contains("- 0 overlapped"), "throttled overlap must hide link time: {out}");
    }

    #[test]
    fn farm_fault_sim_overlap_mode_stays_exact() {
        let out = execute(Command::FaultSim(FaultSimArgs {
            rows: 26,
            cols: 36,
            width: 1,
            depth: 2,
            steps: 6,
            seed: 11,
            rate: 2e-3,
            retries: 6,
            ckpt_every: 1,
            mode: FaultSimMode::Farm {
                shards: "2".into(),
                grid: None,
                stuck_board: None,
                overlap: true,
            },
        }))
        .unwrap();
        assert!(out.contains("overlapped exchange"), "{out}");
        assert!(out.contains("bit-exact"), "{out}");
        assert!(!out.contains("WRONG"), "{out}");
        assert!(!out.contains("gave up"), "{out}");
    }

    #[test]
    fn farm_spa_torus_with_throttled_links() {
        let out = execute(Command::Farm(FarmArgs {
            spec: SessionSpec {
                shards: 2,
                engine: "spa".into(),
                width: 1,
                slice_width: 1,
                depth: 2,
                rows: 12,
                cols: 20,
                seed: 9,
                model: "hpp".into(),
                periodic: true,
                link_bits: Some(4.0),
                grid: None,
                tier_bits: None,
                overlap: true,
                ..SessionSpec::default()
            },
            steps: 4,
            verify: true,
            checkpoint_dir: None,
            ckpt_every: 1,
            resume: false,
        }))
        .unwrap();
        assert!(out.contains("torus"), "{out}");
        assert!(out.contains("verify: bit-exact"), "{out}");
        assert!(!out.contains("+ 0 halo"), "throttled links must cost ticks: {out}");
    }

    #[test]
    fn farm_rejects_bad_configs() {
        let base = Command::Farm(FarmArgs {
            spec: SessionSpec {
                shards: 2,
                engine: "wsa".into(),
                width: 1,
                slice_width: 1,
                depth: 1,
                rows: 8,
                cols: 12,
                seed: 1,
                model: "hpp".into(),
                periodic: false,
                link_bits: None,
                grid: None,
                tier_bits: None,
                overlap: false,
                ..SessionSpec::default()
            },
            steps: 2,
            verify: false,
            checkpoint_dir: None,
            ckpt_every: 1,
            resume: false,
        });
        let with = |f: &dyn Fn(&mut Command)| {
            let mut c = base.clone();
            f(&mut c);
            execute(c)
        };
        assert!(with(&|c| {
            if let Command::Farm(FarmArgs { spec, .. }) = c {
                spec.engine = "dataflow".into();
            }
        })
        .is_err());
        assert!(with(&|c| {
            if let Command::Farm(FarmArgs { spec, .. }) = c {
                spec.model = "bogus".into();
            }
        })
        .is_err());
        assert!(with(&|c| {
            if let Command::Farm(FarmArgs { spec, .. }) = c {
                spec.shards = 99;
            }
        })
        .is_err());
        assert!(with(&|c| {
            if let Command::Farm(FarmArgs { spec, .. }) = c {
                spec.link_bits = Some(-1.0);
            }
        })
        .is_err());
        assert!(execute(base).is_ok());
    }

    #[test]
    fn farm_checkpoint_flags_parse() {
        let cmd = parse(&argv("farm --checkpoint-dir /tmp/ck --ckpt-every 2 --resume")).unwrap();
        match cmd {
            Command::Farm(FarmArgs {
                checkpoint_dir: Some(d),
                ckpt_every: 2,
                resume: true,
                ..
            }) => {
                assert_eq!(d, "/tmp/ck");
            }
            other => panic!("{other:?}"),
        }
        // Defaults: no persistence.
        assert!(matches!(
            parse(&argv("farm")).unwrap(),
            Command::Farm(FarmArgs { checkpoint_dir: None, ckpt_every: 1, resume: false, .. })
        ));
        // Resuming without a store directory is a config error.
        let err = execute(parse(&argv("farm --resume")).unwrap()).unwrap_err();
        assert!(err.0.contains("--checkpoint-dir"), "{}", err.0);
    }

    #[test]
    fn farm_checkpoint_and_resume_roundtrip_is_bit_exact() {
        let dir = std::env::temp_dir()
            .join(format!("lattice-cli-resume-{}", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let _ = std::fs::remove_dir_all(&dir);
        let base = |steps: u64, resume: bool| {
            Command::Farm(FarmArgs {
                spec: SessionSpec {
                    shards: 3,
                    engine: "wsa".into(),
                    width: 1,
                    slice_width: 1,
                    depth: 2,
                    rows: 12,
                    cols: 27,
                    seed: 11,
                    model: "fhp3".into(),
                    periodic: false,
                    link_bits: None,
                    grid: None,
                    tier_bits: None,
                    overlap: false,
                    ..SessionSpec::default()
                },
                steps,
                verify: true,
                checkpoint_dir: Some(dir.clone()),
                ckpt_every: 1,
                resume,
            })
        };
        // Leg 1 stops at generation 6 of the eventual 10 ("killed").
        let out = execute(base(6, false)).unwrap();
        assert!(out.contains("checkpoint store:"), "{out}");
        // Leg 2 resumes from disk alone and must still verify bit-exact
        // against the uninterrupted 10-generation reference.
        let out = execute(base(10, true)).unwrap();
        assert!(out.contains("resumed:           generation 6 of 10"), "{out}");
        assert!(out.contains("verify: bit-exact vs reference"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_parses_with_defaults_and_flags() {
        assert!(matches!(
            parse(&argv("chaos")).unwrap(),
            Command::Chaos { storms: 4, rows: 36, cols: 40, steps: 6, seed: 42, .. }
        ));
        match parse(&argv("chaos --storms 2 --seed 7 --io-rate 0.25")).unwrap() {
            Command::Chaos { storms: 2, seed: 7, io_rate, .. } => assert_eq!(io_rate, 0.25),
            other => panic!("{other:?}"),
        }
        assert!(execute(parse(&argv("chaos --rate 1.5")).unwrap()).is_err());
        assert!(execute(parse(&argv("chaos --steps 30")).unwrap()).is_err());
    }

    #[test]
    fn chaos_soak_recovers_every_storm_at_the_pinned_seed() {
        // The CI soak in miniature: same seed derivation, smaller
        // lattice. Deterministic — this either always passes or never.
        let out = execute(Command::Chaos {
            storms: 2,
            rows: 20,
            cols: 22,
            steps: 4,
            seed: 42,
            rate: 2e-3,
            io_rate: 0.1,
        })
        .unwrap();
        assert!(out.contains("all 2 storm(s) recovered"), "{out}");
    }

    #[test]
    fn sweep_table_pads_and_spills() {
        let t = SweepTable::new(&[
            ("a", 3, Align::Left),
            ("bb", 4, Align::Right),
            ("c", 0, Align::Left),
        ]);
        assert_eq!(t.header(), "a    bb    c\n");
        assert_eq!(t.row(&["x".into(), "9".into(), "end".into()]), "x       9  end\n");
        // A short row spills its last cell across the remaining columns.
        assert_eq!(t.row(&["x".into(), "gave up".into()]), "x    gave up\n");
    }

    #[test]
    fn serve_request_and_bench_parse() {
        match parse(&argv("serve --addr 127.0.0.1:0 --max-live 2 --link-capacity 96")).unwrap() {
            Command::Serve { addr, checkpoint_dir: None, link_capacity: Some(c), max_live: 2 } => {
                assert_eq!(addr, "127.0.0.1:0");
                assert_eq!(c, 96.0);
            }
            other => panic!("{other:?}"),
        }
        assert!(execute(parse(&argv("serve --max-live 0")).unwrap()).is_err());
        assert!(execute(parse(&argv("serve --link-capacity -1")).unwrap()).is_err());
        // `request` demands both halves of the conversation.
        assert!(parse(&argv("request --addr 127.0.0.1:1")).is_err());
        assert!(parse(&argv("request")).is_err());
        match parse(&argv("bench --shards 1,2 --json")).unwrap() {
            Command::Bench(BenchArgs { json: true, shards, out: None, .. }) => {
                assert_eq!(shards, "1,2")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn request_drives_a_live_daemon_end_to_end() {
        use crate::serve::{Daemon, DaemonConfig};
        let (addr, handle) = Daemon::spawn(&DaemonConfig::default()).unwrap();
        let addr = addr.to_string();
        let req = |line: &str| {
            execute(Command::Request {
                addr: addr.clone(),
                line: line.into(),
                timeout_secs: 10.0,
                retries: 0,
            })
        };

        // A malformed frame fails locally, before any round trip.
        assert!(req("{nope").is_err());

        let out = req(r#"{"op":"create","session":"t0","spec":{"model":"hpp","rows":12,"cols":24,"shards":2}}"#)
            .unwrap();
        assert!(out.contains(r#""admitted":true"#), "{out}");
        let out = req(r#"{"op":"step","session":"t0","n":3}"#).unwrap();
        assert!(out.contains(r#""time":3"#), "{out}");
        // A streamed stats window comes back as one line per sample.
        let out = req(r#"{"op":"stats","watch":2}"#).unwrap();
        assert_eq!(out.lines().count(), 2, "{out}");
        let out = req(r#"{"op":"shutdown"}"#).unwrap();
        assert!(out.contains(r#""ok":true"#), "{out}");
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn bench_sweeps_the_grid_and_writes_the_artifact() {
        let dir = std::env::temp_dir().join(format!("lattice-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json").to_string_lossy().into_owned();
        let out = execute(Command::Bench(BenchArgs {
            rows: 16,
            cols: 24,
            steps: 4,
            seed: 3,
            depth: 2,
            shards: "1,2".into(),
            fault_rates: "0.02".into(),
            link_bits: 16.0,
            grid: Some((2, 2)),
            tier_bits: Some(8.0),
            json: true,
            out: Some(path.clone()),
            baseline: None,
            tolerance: 0.02,
        }))
        .unwrap();
        assert!(out.contains("sites/sec"), "{out}");
        // 2 engines x 2 shard counts x 2 overlap modes, plus the grid
        // legs (2x2 x 2 overlap modes) and the faulted WSA sweep:
        // 1 rate x 2 shard counts x 2 overlap.
        let cells = out.lines().filter(|l| l.starts_with("wsa") || l.starts_with("spa")).count();
        assert_eq!(cells, 14, "{out}");
        assert!(out.contains("2x2"), "{out}");
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"sites_per_sec\""), "{doc}");
        assert!(doc.contains("\"link_utilization\""), "{doc}");
        assert!(doc.contains("\"recovery_cost\""), "{doc}");
        assert!(doc.contains("\"fault_rate\":0.02"), "{doc}");
        // Grid rows carry their shape and both wire widths so the
        // ratchet keys them apart from the columnar 4-shard rows.
        assert!(doc.contains("\"grid_rows\":2"), "{doc}");
        assert!(doc.contains("\"grid_cols\":2"), "{doc}");
        assert!(doc.contains("\"tier_bits\":8"), "{doc}");
        assert!(doc.contains("\"link_bits\":16"), "{doc}");
        assert!(doc.contains("\"results\""), "{doc}");
        assert!(execute(parse(&argv("bench --steps 0")).unwrap()).is_err());
        assert!(execute(parse(&argv("bench --shards 0,2")).unwrap()).is_err());
        assert!(execute(parse(&argv("bench --fault-rates 2.0")).unwrap()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_banner() {
        let out = execute(Command::Info).unwrap();
        assert!(out.contains("1987"));
    }

    #[test]
    fn request_flags_parse_and_exit_codes_classify() {
        match parse(&argv("request --addr 127.0.0.1:1 --line {} --timeout 2.5 --retries 3"))
            .unwrap()
        {
            Command::Request { timeout_secs, retries, .. } => {
                assert_eq!(timeout_secs, 2.5);
                assert_eq!(retries, 3);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: 30 s deadline, no retries.
        assert!(matches!(
            parse(&argv("request --addr a --line b")).unwrap(),
            Command::Request { retries: 0, .. }
        ));
        assert_eq!(exit_code(&CliError("request: timeout: read timed out".into())), 4);
        assert_eq!(exit_code(&CliError("request: transport: connection refused".into())), 3);
        assert_eq!(exit_code(&CliError("request: daemon error: no such session".into())), 5);
        assert_eq!(exit_code(&CliError("bench: --steps must be ≥ 1".into())), 2);
    }

    #[test]
    fn request_classifies_transport_daemon_and_timeout_failures() {
        use crate::serve::{Daemon, DaemonConfig};
        // Nothing listens on port 1 (tcpmux needs root): connection
        // refused is a transport failure, exit class 3, even with
        // retries.
        let err = execute(Command::Request {
            addr: "127.0.0.1:1".into(),
            line: r#"{"op":"stats","watch":1}"#.into(),
            timeout_secs: 2.0,
            retries: 1,
        })
        .unwrap_err();
        assert_eq!(exit_code(&err), 3, "{err}");

        // A live daemon refusing the request is a daemon error, exit 5,
        // and must NOT be retried into a second refusal round trip.
        let (addr, handle) = Daemon::spawn(&DaemonConfig::default()).unwrap();
        let addr = addr.to_string();
        let err = execute(Command::Request {
            addr: addr.clone(),
            line: r#"{"op":"step","session":"ghost","n":1}"#.into(),
            timeout_secs: 5.0,
            retries: 2,
        })
        .unwrap_err();
        assert!(err.0.starts_with("request: daemon error:"), "{err}");
        assert_eq!(exit_code(&err), 5);
        execute(Command::Request {
            addr,
            line: r#"{"op":"shutdown"}"#.into(),
            timeout_secs: 5.0,
            retries: 0,
        })
        .unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn serve_chaos_storm_holds_every_invariant_at_the_pinned_seed() {
        // The CI `chaos-serve` job in miniature: one storm, the same
        // derivation. Deterministic weather — always passes or never.
        let out =
            execute(Command::ServeChaos { storms: 1, steps: 3, seed: 42, rate: 0.05 }).unwrap();
        assert!(out.contains("all 1 storm(s) held"), "{out}");
        // ≥ 3 daemon kill+restart cycles per storm (acceptance floor),
        // and the weather must actually fire: a soak whose ladder
        // counters are all zero holds conservation vacuously.
        let row = out.lines().find(|l| l.trim_start().starts_with('0')).unwrap();
        let restarts: u64 = row.split_whitespace().nth(2).unwrap().parse().unwrap();
        assert!(restarts >= 3, "storm must survive ≥ 3 restarts: {row}");
        let detected: u64 = row.split_whitespace().nth(4).unwrap().parse().unwrap();
        assert!(detected >= 1, "no hardware fault fired during the storm: {row}");
    }

    #[test]
    fn bench_baseline_ratchet_passes_itself_and_catches_regressions() {
        let dir = std::env::temp_dir().join(format!("lattice-ratchet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json").to_string_lossy().into_owned();
        let bench_at = |baseline: Option<String>, link_bits: f64| {
            execute(Command::Bench(BenchArgs {
                rows: 16,
                cols: 24,
                steps: 4,
                seed: 3,
                depth: 2,
                shards: "1,2".into(),
                fault_rates: "0.02".into(),
                link_bits,
                grid: None,
                tier_bits: None,
                json: baseline.is_none(),
                out: Some(path.clone()),
                baseline,
                tolerance: 0.02,
            }))
        };
        let bench = |baseline: Option<String>| bench_at(baseline, 16.0);
        // Generate the artifact, then ratchet the identical run
        // against it: deterministic ticks, so it must pass.
        bench(None).unwrap();
        let out = bench(Some(path.clone())).unwrap();
        assert!(out.contains("ratchet: 12 configuration(s) within 2%"), "{out}");
        // The wire width is part of the configuration key: the same
        // sweep on a wider wire shares nothing with the baseline, so
        // the ratchet refuses the comparison instead of mis-ratcheting
        // faster link-bound numbers against slower ones.
        let err = bench_at(Some(path.clone()), 32.0).unwrap_err();
        assert!(err.0.contains("shares no configuration"), "{err}");
        // Baselines written before the per-row column still compare:
        // rows inherit the artifact's top-level link_bits.
        let doc = std::fs::read_to_string(&path).unwrap();
        assert!(doc.contains("\"link_bits\":16"), "rows must carry the wire width: {doc}");
        std::fs::write(&path, doc.replace(",\"link_bits\":16,", ",")).unwrap();
        let out = bench(Some(path.clone())).unwrap();
        assert!(out.contains("ratchet: 12 configuration(s) within 2%"), "{out}");
        // Inflate the baseline: every current number now "regresses".
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, doc.replace("\"sites_per_sec\":", "\"sites_per_sec\":9e99,\"was\":"))
            .unwrap();
        let err = bench(Some(path.clone())).unwrap_err();
        assert!(err.0.contains("regressed beyond"), "{err}");
        // Cost axes ratchet the other way: shrink the baseline's link
        // utilization and the identical run now reads as a regression.
        bench(None).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        std::fs::write(
            &path,
            doc.replace("\"link_utilization\":", "\"link_utilization\":0.0,\"was\":"),
        )
        .unwrap();
        let err = bench(Some(path.clone())).unwrap_err();
        assert!(err.0.contains("link_utilization"), "{err}");
        // A baseline from a disjoint sweep is refused, not vacuously passed.
        std::fs::write(
            &path,
            r#"{"results":[{"engine":"wsa","shards":64,"overlap":false,"sites_per_sec":1.0}]}"#,
        )
        .unwrap();
        let err = bench(Some(path.clone())).unwrap_err();
        assert!(err.0.contains("shares no configuration"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
