//! The recovery ladder: which level answers a failure, and the tally of
//! every answer.
//!
//! At machine scale the dominant cost of a transient upset is not the
//! flip but how far recovery propagates, so
//! [`LatticeFarm::run_with_recovery`](crate::LatticeFarm::run_with_recovery)
//! escalates through four levels, each containing the fault at the
//! layer that detected it:
//!
//! 1. **Link ARQ** — a parity failure on a halo frame retransmits just
//!    that frame ([`BoardLink::transmit_arq`](crate::BoardLink::transmit_arq));
//!    the wire never rewinds, so the retry draws fresh transient
//!    weather. ARQ stays in the exchange: it answers a frame before any
//!    [`BoardFailure`] exists.
//! 2. **Local rollback** — an engine/audit/watchdog failure on one
//!    board rewinds only that board to the top of the pass and replays
//!    its buffered inbound halos; neighbors stall, they don't rewind.
//! 3. **Global rollback** — when the local budget is exhausted (or the
//!    failure isn't localizable, like a machine-wide audit), all boards
//!    reload the last checkpoint barrier.
//! 4. **Degraded re-partitioning** — a board that exhausts the whole
//!    ladder is retired under a
//!    [`FarmDegradeConfig`](crate::FarmDegradeConfig): the lattice is
//!    re-partitioned onto the survivors (`lattice_core::shard`), a
//!    fresh barrier is taken, and the run continues slower but exact.
//!
//! Levels 2–4 are one pure function, [`climb`]: from a failure, whether
//! it can be replayed and the budgets left, it picks the action and
//! spends that level's budget. The session only applies the action.
//!
//! Every detection is answered by exactly one ladder action, so
//! `detected == retransmits + local_rollbacks + rollbacks +
//! boards_retired` on any successful run (see
//! [`lattice_engines_sim::RecoveryStats`]). [`book_arq`] and [`book`]
//! keep that tally.

use crate::farm::ShardStats;
use lattice_core::LatticeError;
use lattice_engines_sim::RecoveryStats;

/// A failure inside one pass attempt or resident run, localized when
/// possible.
pub(crate) struct BoardFailure {
    /// Slab index the failure is localized to; `None` for machine-wide
    /// failures (the global audit), which neither replay nor retire.
    pub(crate) slab: Option<usize>,
    pub(crate) error: LatticeError,
}

/// The ladder's answer to one failure: levels 2–4, or none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Level 2: slab `i`'s board alone rewinds to the top of the pass
    /// and replays its buffered halos.
    Replay(usize),
    /// Level 3: every board reloads the last checkpoint barrier.
    Rewind,
    /// Level 4: slab `i`'s board retires, and the barrier is
    /// re-partitioned onto the survivors.
    Retire(usize),
    /// No level is left: the failure fails the step.
    GiveUp,
}

/// The ladder budgets left when a failure is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Budgets {
    /// Local replays left to the failed board in this checkpoint window
    /// (level 2); unread for a failure with no slab.
    pub(crate) local: u32,
    /// Farm-wide rollbacks left in this checkpoint window (level 3).
    pub(crate) retries: u32,
    /// Boards that may still retire in this run (level 4).
    pub(crate) retired: usize,
    /// Live boards: the last one never retires.
    pub(crate) boards: usize,
}

/// Picks the level that answers a failure on `slab` (`None` for a
/// machine-wide one), and returns it with the budgets left after it:
/// every action but [`Action::GiveUp`] spends one unit of its own
/// level's budget. `replayable` is false for a resident run, which
/// committed nothing a board could replay from, so it skips level 2.
pub(crate) fn climb(slab: Option<usize>, replayable: bool, left: Budgets) -> (Action, Budgets) {
    match slab {
        Some(i) if replayable && left.local > 0 => {
            (Action::Replay(i), Budgets { local: left.local - 1, ..left })
        }
        _ if left.retries > 0 => (Action::Rewind, Budgets { retries: left.retries - 1, ..left }),
        Some(i) if left.retired > 0 && left.boards > 1 => {
            (Action::Retire(i), Budgets { retired: left.retired - 1, ..left })
        }
        _ => (Action::GiveUp, left),
    }
}

/// Books level 1: every retransmission is one detection ARQ already
/// answered. A frame whose ARQ budget runs out is the one unanswered
/// detection, booked by [`book`] when the ladder answers it.
pub(crate) fn book_arq(recovery: &mut RecoveryStats, retransmits: u32) {
    recovery.detected += u64::from(retransmits);
    recovery.retransmits += u64::from(retransmits);
}

/// Books one detection and the `action` that answered it, in the run's
/// tally and in the failed board's stats when the failure names one.
pub(crate) fn book(action: Action, recovery: &mut RecoveryStats, board: Option<&mut ShardStats>) {
    recovery.detected += 1;
    match action {
        Action::Replay(_) => {
            recovery.local_rollbacks += 1;
            if let Some(stats) = board {
                stats.local_rollbacks += 1;
            }
        }
        Action::Rewind => recovery.rollbacks += 1,
        Action::Retire(_) => {
            recovery.boards_retired += 1;
            if let Some(stats) = board {
                stats.retired = true;
            }
        }
        Action::GiveUp => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn left(local: u32, retries: u32, retired: usize, boards: usize) -> Budgets {
        Budgets { local, retries, retired, boards }
    }

    #[test]
    fn the_ladder_climbs_in_order() {
        use Action::{GiveUp, Replay, Retire, Rewind};
        // (slab, replayable, budgets left) → (action, budgets after).
        let table = [
            // Level 2 only when the failure replays and that board has
            // a local replay left.
            ((Some(1), true, left(2, 1, 1, 3)), (Replay(1), left(1, 1, 1, 3))),
            ((Some(1), true, left(0, 1, 1, 3)), (Rewind, left(0, 0, 1, 3))),
            // A resident-run failure skips level 2.
            ((Some(1), false, left(2, 1, 1, 3)), (Rewind, left(2, 0, 1, 3))),
            ((Some(1), false, left(2, 0, 1, 3)), (Retire(1), left(2, 0, 0, 3))),
            // A failure with no slab (the machine audit) never replays
            // and never retires.
            ((None, true, left(2, 1, 1, 3)), (Rewind, left(2, 0, 1, 3))),
            ((None, true, left(2, 0, 1, 3)), (GiveUp, left(2, 0, 1, 3))),
            // Retirement needs a budget and a board to spare.
            ((Some(0), true, left(0, 0, 1, 2)), (Retire(0), left(0, 0, 0, 2))),
            ((Some(0), true, left(0, 0, 1, 1)), (GiveUp, left(0, 0, 1, 1))),
            ((Some(0), true, left(0, 0, 0, 3)), (GiveUp, left(0, 0, 0, 3))),
        ];
        for ((slab, replayable, budgets), want) in table {
            assert_eq!(climb(slab, replayable, budgets), want, "{slab:?} {replayable} {budgets:?}");
        }
    }
}
