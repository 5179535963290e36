//! The complete system: host + memory + engine, over many passes.
//!
//! The paper's machines (figure 1) are a pipeline hanging off "a
//! general-purpose host machine for support": the host holds the
//! lattice in main memory and streams it through the engine, `k`
//! generations per pass, as many passes as the experiment needs. This
//! module ties together the engine simulators, the bandwidth-limited
//! [`HostLink`], and the pass loop, reporting end-to-end wall-clock
//! estimates — the quantity §8's "approximately 1 million site-updates
//! per second from the prototype" is about.

use crate::faults::{FaultCtx, FaultPlan, FaultStats};
use crate::memory::HostLink;
use crate::pipeline::{Pipeline, RunOptions};
use lattice_core::bits::Traffic;
use lattice_core::units::{
    u64_from_usize, usize_from_u64, BitsPerTick, Hz, Secs, Sites, SitesPerSec, Ticks,
};
use lattice_core::{checkpoint, Grid, LatticeError, Rule};

/// A host-attached lattice engine.
#[derive(Debug, Clone, Copy)]
pub struct HostSystem {
    /// The pipeline configuration (width, depth per pass).
    pub engine: Pipeline,
    /// The host's memory link.
    pub link: HostLink,
    /// Engine clock, Hz.
    pub clock_hz: f64,
}

impl HostSystem {
    /// The engine clock as a typed frequency.
    pub fn clock(&self) -> Hz {
        Hz::new(self.clock_hz)
    }
}

/// End-to-end run summary.
#[derive(Debug, Clone)]
pub struct SystemRun<S: lattice_core::State> {
    /// Final lattice.
    pub grid: Grid<S>,
    /// Generations computed.
    pub generations: u64,
    /// Passes through the engine.
    pub passes: u64,
    /// Engine ticks summed over passes.
    pub ticks: Ticks,
    /// Total host-memory traffic.
    pub memory_traffic: Traffic,
    /// Duty cycle imposed by the link (1.0 = never stalled).
    pub duty_cycle: f64,
    /// Estimated wall-clock time including stalls.
    pub seconds: Secs,
}

impl<S: lattice_core::State> SystemRun<S> {
    /// Realized update rate.
    pub fn updates_per_second(&self, sites: u64) -> SitesPerSec {
        Sites::new(self.generations.saturating_mul(sites)).per_sec(self.seconds)
    }
}

impl HostSystem {
    /// Runs `generations` of `rule` over `grid` in passes of the
    /// engine's depth (the final pass may be shallower), starting at
    /// generation `t0` (stochastic rules stamp chirality by absolute
    /// generation, so resuming a run must pass the right `t0`).
    ///
    /// A recovery run with nothing to recover:
    /// [`HostSystem::run_with_recovery`] with no fault plan, no audit
    /// and no budget, so it takes no checkpoint barrier.
    pub fn run<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
    ) -> Result<SystemRun<R::S>, LatticeError> {
        let none = RecoveryConfig { max_retries: 0, checkpoint_every: 1, allow_degraded: false };
        Ok(self.run_with_recovery(rule, grid, t0, generations, None, &none, |_, _| Ok(()))?.run)
    }
}

/// Recovery policy for [`HostSystem::run_with_recovery`].
#[derive(Debug, Clone, Copy)]
pub struct RecoveryConfig {
    /// Rollback-and-retry attempts per checkpoint window before the
    /// host escalates (degraded mode, or giving up).
    pub max_retries: u32,
    /// Passes between checkpoints (`1` = checkpoint every pass; larger
    /// values trade rollback distance for checkpoint bandwidth).
    pub checkpoint_every: u64,
    /// Whether the host may take a chip it has localized a permanent
    /// fault to out of service and continue at reduced pipeline depth.
    pub allow_degraded: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig { max_retries: 3, checkpoint_every: 1, allow_degraded: true }
    }
}

/// What the recovery machinery did during a run.
///
/// The farm's escalation ladder (`lattice-farm`) maintains the
/// invariant that every `detected` event is answered by exactly one
/// action counter — `retransmits` (link ARQ), `local_rollbacks`
/// (one board rewound), `rollbacks` (whole machine rewound), or
/// `boards_retired` (degraded re-partitioning) — so on a successful
/// run `detected == retransmits + local_rollbacks + rollbacks +
/// boards_retired`; a failed run leaves exactly one unanswered
/// detection. Host-level recovery (`HostSystem`) uses only the
/// original counters; the ladder fields stay zero there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Corruption detections (failed parity, audit, engine error, or a
    /// down worker).
    pub detected: u64,
    /// Rollbacks of the whole machine to the last checkpoint.
    pub rollbacks: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Total checkpoint bytes written.
    pub checkpoint_bytes: u64,
    /// Chips taken out of service (host degraded mode).
    pub bypassed_chips: u64,
    /// Halo frames retransmitted by link-level ARQ (farm ladder
    /// level 1: the cheapest answer to a detection).
    pub retransmits: u64,
    /// Single-board rollbacks that rewound one shard and replayed its
    /// buffered halos while its neighbors stalled (farm ladder level 2).
    pub local_rollbacks: u64,
    /// Boards retired by degraded re-partitioning (farm ladder
    /// level 4, after global rollback fails).
    pub boards_retired: u64,
}

/// A fault-tolerant run: the ordinary [`SystemRun`] plus what the fault
/// and recovery layers saw.
#[derive(Debug, Clone)]
pub struct FtRun<S: lattice_core::State> {
    /// The underlying run summary (grid, timing, traffic).
    pub run: SystemRun<S>,
    /// Fault events injected over the whole run, retries included.
    pub faults: FaultStats,
    /// Recovery actions taken.
    pub recovery: RecoveryStats,
    /// Chips still in service at the end (= configured depth unless
    /// degraded mode bypassed some).
    pub chips_in_service: usize,
}

/// Extracts the physical chip a corruption report localizes, if any.
/// Link-parity failures name their chip (`"chip N output link"`); audit
/// failures describe the whole lattice and cannot be localized.
fn suspect_chip(e: &LatticeError) -> Option<usize> {
    if let LatticeError::Corrupted { site, .. } = e {
        site.strip_prefix("chip ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|n| n.parse().ok())
    } else {
        None
    }
}

impl HostSystem {
    /// [`HostSystem::run`] hardened against hardware faults: periodic
    /// checkpoints, per-pass integrity checks, rollback-and-retry, and
    /// (optionally) degraded-mode operation.
    ///
    /// Per pass the host runs the engine with `plan`'s faults active at
    /// the current `(pass, attempt)` epoch, then applies `audit` to the
    /// pass's input and output lattices (e.g. a
    /// `lattice_gas::ConservationAudit` check, made into a closure so
    /// this crate stays gas-agnostic). Any engine error or audit
    /// violation triggers a rollback: the lattice and generation are
    /// restored from the last checkpoint (through the real
    /// [`checkpoint`] codec — the bytes a production host would have
    /// written to storage), the attempt counter bumps (re-seeding
    /// transient draws), and the window is retried up to
    /// [`RecoveryConfig::max_retries`] times. If retries are exhausted
    /// and the failure is localized to one chip, degraded mode takes
    /// that chip out of service and continues at reduced depth;
    /// otherwise the last error is returned.
    ///
    /// Checkpoint barriers are taken only when a rollback can restore
    /// them: with a retry budget or degraded mode allowed.
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_recovery<R: Rule>(
        &self,
        rule: &R,
        grid: &Grid<R::S>,
        t0: u64,
        generations: u64,
        plan: Option<&FaultPlan>,
        cfg: &RecoveryConfig,
        mut audit: impl FnMut(&Grid<R::S>, &Grid<R::S>) -> Result<(), LatticeError>,
    ) -> Result<FtRun<R::S>, LatticeError> {
        if cfg.checkpoint_every == 0 {
            return Err(LatticeError::InvalidConfig("checkpoint interval must be ≥ 1".into()));
        }
        let fault_base = plan.map(|p| p.stats()).unwrap_or_default();
        let mut chips: Vec<usize> = (0..self.engine.depth).collect();
        let mut current = grid.clone();
        let t_end = t0 + generations;
        let mut t_now = t0;
        let mut recovery = RecoveryStats::default();
        let mut attempt = 0u64; // bumped per rollback; re-seeds transients
        let mut retries_left = cfg.max_retries;
        // Committed passes, which is also the logical pass number
        // (fault-epoch key) of the next one.
        let mut passes = 0u64;
        let mut ticks = Ticks::ZERO;
        let mut memory = Traffic::new();
        let mut demand_sum = 0.0;

        let restorable = cfg.max_retries > 0 || cfg.allow_degraded;
        let barrier = |g: &Grid<R::S>, t: u64, recovery: &mut RecoveryStats| {
            let ckpt = checkpoint::save(g, Ticks::new(t));
            recovery.checkpoints += 1;
            recovery.checkpoint_bytes += u64_from_usize(ckpt.len());
            ckpt
        };
        let mut ckpt =
            if restorable { barrier(&current, t_now, &mut recovery) } else { Vec::new() };
        let mut passes_since_ckpt = 0u64;

        while t_now < t_end {
            if restorable && passes_since_ckpt >= cfg.checkpoint_every {
                ckpt = barrier(&current, t_now, &mut recovery);
                passes_since_ckpt = 0;
                retries_left = cfg.max_retries;
            }
            let depth = chips.len().min(usize_from_u64(t_end - t_now));
            let opts = RunOptions {
                faults: plan.map(|p| FaultCtx::for_shard(p, 0, passes, attempt)),
                chip_ids: Some(&chips[..depth]),
                ..RunOptions::default()
            };
            let outcome = Pipeline::wide(self.engine.width, depth)
                .run_opts(rule, &current, t_now, opts)
                .and_then(|report| audit(&current, &report.grid).map(|()| report));
            match outcome {
                Ok(report) => {
                    demand_sum += report.memory_bits_per_tick().get() * report.ticks.to_f64();
                    ticks += report.ticks;
                    memory.merge(report.memory_traffic);
                    current = report.grid;
                    t_now += u64_from_usize(depth);
                    passes += 1;
                    passes_since_ckpt += 1;
                }
                Err(e) => {
                    recovery.detected += 1;
                    if retries_left == 0 {
                        // Retry cannot clear a permanent fault; if the
                        // failure names a chip, take that chip out of
                        // service and keep going at reduced depth.
                        match suspect_chip(&e) {
                            Some(victim) if cfg.allow_degraded && chips.len() > 1 => {
                                chips.retain(|&c| c != victim);
                                recovery.bypassed_chips += 1;
                                retries_left = cfg.max_retries;
                            }
                            _ => return Err(e),
                        }
                    } else {
                        retries_left -= 1;
                    }
                    // Roll back through the real checkpoint codec.
                    let (g, t) = checkpoint::load::<R::S>(&ckpt)?;
                    current = g;
                    t_now = t.get();
                    attempt += 1;
                    recovery.rollbacks += 1;
                    passes_since_ckpt = 0;
                }
            }
        }

        // Average demand over the run vs what the link supplies.
        let avg_demand = if ticks.is_zero() {
            BitsPerTick::ZERO
        } else {
            BitsPerTick::new(demand_sum / ticks.to_f64())
        };
        let supply = BitsPerTick::new(self.link.bits_per_tick(self.clock_hz));
        let duty =
            if avg_demand <= BitsPerTick::ZERO { 1.0 } else { (supply / avg_demand).min(1.0) };
        let seconds = ticks.secs_at(Hz::new(self.clock_hz * duty));
        Ok(FtRun {
            run: SystemRun {
                grid: current,
                generations,
                passes,
                ticks,
                memory_traffic: memory,
                duty_cycle: duty,
                seconds,
            },
            faults: plan.map(|p| p.stats().since(fault_base)).unwrap_or_default(),
            recovery,
            chips_in_service: chips.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lattice_core::{evolve, Boundary, Shape};
    use lattice_gas::{init, FhpRule, FhpVariant};

    fn workload() -> (Grid<u8>, FhpRule) {
        let shape = Shape::grid2(32, 64).unwrap();
        let g = init::random_fhp(shape, FhpVariant::I, 0.3, 8, false).unwrap();
        (g, FhpRule::new(FhpVariant::I, 44))
    }

    #[test]
    fn multi_pass_is_bit_exact() {
        let (g, rule) = workload();
        let sys =
            HostSystem { engine: Pipeline::wide(2, 3), link: HostLink::new(1e9), clock_hz: 10e6 };
        // 7 generations = passes of 3 + 3 + 1, stitched with correct t0.
        let run = sys.run(&rule, &g, 0, 7).unwrap();
        let reference = evolve(&g, &rule, Boundary::null(), 0, 7);
        assert_eq!(run.grid, reference);
        assert_eq!(run.passes, 3);
        assert_eq!(run.generations, 7);
    }

    #[test]
    fn a_barrier_is_taken_only_when_a_rollback_can_restore_it() {
        let (g, rule) = workload();
        let sys =
            HostSystem { engine: Pipeline::wide(2, 2), link: HostLink::new(1e9), clock_hz: 10e6 };
        let run = |max_retries, allow_degraded| {
            let cfg = RecoveryConfig { max_retries, checkpoint_every: 1, allow_degraded };
            sys.run_with_recovery(&rule, &g, 0, 6, None, &cfg, |_, _| Ok(())).unwrap()
        };
        // Opening barrier, then one before each of passes 2 and 3.
        assert_eq!(run(1, false).recovery.checkpoints, 3);
        assert_eq!(run(0, true).recovery.checkpoints, 3);
        let bare = run(0, false);
        assert_eq!(bare.recovery.checkpoints, 0, "nothing can restore a barrier");
        assert_eq!(bare.recovery.checkpoint_bytes, 0);
        assert_eq!(bare.run.grid, sys.run(&rule, &g, 0, 6).unwrap().grid);
    }

    #[test]
    fn fast_link_runs_at_full_duty() {
        let (g, rule) = workload();
        let sys = HostSystem {
            engine: Pipeline::wide(2, 2),
            link: HostLink::new(40e6), // exactly the demand of P=2
            clock_hz: 10e6,
        };
        let run = sys.run(&rule, &g, 0, 4).unwrap();
        assert!(run.duty_cycle > 0.99, "{}", run.duty_cycle);
        // ≈ 20 M updates/s for the P = 2 chip, slightly less with fill.
        let ups = run.updates_per_second(32 * 64).get();
        assert!(ups > 15e6 && ups <= 40.1e6, "{ups}");
    }

    #[test]
    fn slow_link_derates_proportionally() {
        let (g, rule) = workload();
        let fast =
            HostSystem { engine: Pipeline::wide(2, 2), link: HostLink::new(40e6), clock_hz: 10e6 };
        let slow = HostSystem { link: HostLink::new(2e6), ..fast };
        let f = fast.run(&rule, &g, 0, 4).unwrap();
        let s = slow.run(&rule, &g, 0, 4).unwrap();
        assert_eq!(f.grid, s.grid, "bandwidth changes speed, never results");
        let ratio = f.updates_per_second(32 * 64) / s.updates_per_second(32 * 64);

        // §8's 20× derating, within fill-effect tolerance.
        assert!((18.0..=22.0).contains(&ratio), "derating {ratio}");
    }

    #[test]
    fn deeper_passes_cut_memory_traffic() {
        let (g, rule) = workload();
        let shallow =
            HostSystem { engine: Pipeline::wide(1, 1), link: HostLink::new(1e9), clock_hz: 10e6 };
        let deep = HostSystem { engine: Pipeline::wide(1, 6), ..shallow };
        let a = shallow.run(&rule, &g, 0, 6).unwrap();
        let b = deep.run(&rule, &g, 0, 6).unwrap();
        assert_eq!(a.grid, b.grid);
        // 6 passes vs 1: 6× the lattice traffic — the whole point of
        // pipeline depth (and the software mirror of the pebbling bound:
        // more on-chip state, fewer main-memory touches).
        assert_eq!(a.memory_traffic.total(), 6 * b.memory_traffic.total());
    }
}
