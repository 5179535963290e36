//! Loom-style exhaustive interleaving checks for the farm's
//! halo-barrier / link handshake.
//!
//! The real farm (crates/farm/src/farm.rs) runs each pass as:
//! compute on every board → send the halo frame over the board links
//! (level-1 ARQ retransmits a dropped frame) → barrier until every
//! inbound frame has been applied → commit the pass. The vendored
//! workspace carries no `loom` crate, so this file implements the same
//! discipline loom enforces — an exhaustive depth-first scheduler over
//! every interleaving of the per-board atomic steps — against a model
//! of that protocol, and asserts the invariants the farm's accounting
//! relies on:
//!
//! * **barrier safety** — no board commits pass `p` before applying
//!   all of its pass-`p` inbound frames, and no neighbor observes a
//!   pass-`p+1` frame while still exchanging pass `p`;
//! * **at-most-once delivery** — an ARQ retransmission never applies
//!   the same frame twice (sequence numbers are strictly increasing
//!   per link);
//! * **counter conservation** — every detected drop is answered by
//!   exactly one retransmission (`detected == retransmits`), the
//!   link-level slice of the recovery ladder's conservation law;
//! * **no deadlock** — every maximal interleaving ends with all
//!   boards `Done`.
//!
//! Tests are named `loom_*` so CI can select them. The default run
//! keeps the state space small (2 boards × 2 passes); building with
//! `RUSTFLAGS="--cfg loom"` widens exploration to 3 boards and lossy
//! links on every edge, the loom-style "exhaustive" configuration.
//!
//! A second model (`loom_overlap_*`) checks the *overlapped* exchange
//! discipline (`LatticeFarm::with_overlap`): each pass claims its
//! staged inbound frames at an arrival barrier, runs its boundary
//! sweeps, ships the *next* pass's frames while the interior sweep is
//! still running, and only then commits. The extra invariants are the
//! ones `HaloWindow` enforces in the real farm: a link window is one
//! frame deep (ship-ahead must wait for the receiver to drain the
//! previous tag), a staged frame's pass tag is only ever the
//! receiver's current or next pass, and no board leaves its arrival
//! barrier before claiming both staged frames.
//!
//! A third model (`loom_crew_*`) checks the step's board crew
//! (`crates/farm/src/crew.rs`): ticket-tagged dispatch and report
//! between the supervisor and its helper threads, a watchdog that may
//! lapse while a helper still works (its late answer arrives anyway),
//! helper death and replacement, and the join at step end. It asserts
//! that a stale result is never committed, every job is answered
//! exactly once, nothing deadlocks, and every helper is joined before
//! the step returns.
//!
//! A fourth model (`loom_mailbox_*`) checks the resident runs'
//! mailboxes (`crates/farm/src/resident.rs`): boards on a board grid
//! that each run a whole run of passes, trading frames through one-deep,
//! pass-tagged mailboxes, rows first and then columns, with a board that
//! may panic at any point of the first run and poison its mailboxes, and
//! a second run on the same mailboxes after it. It asserts that no board
//! imports a frame from another pass (a failed run's leftovers
//! included), that nothing deadlocks on any grid (a one-wide torus axis
//! wraps inside the board and has no mailbox), and that a panicking
//! board's poison reaches every board waiting on it.

use std::collections::{BTreeSet, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};

// ---------------------------------------------------------------------------
// The model: S boards on a ring, each exchanging one halo frame per
// pass with each neighbor over a directed link with at-most-once
// delivery and ARQ retransmission.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Phase {
    /// Update the owned slab (the worker body in `run_pass`).
    Compute,
    /// Push one halo frame onto each outbound link (the `tx.send`).
    SendHalo,
    /// Barrier: wait for both inbound frames of this pass (the
    /// supervisor's `rx.recv` loop + exchange barrier).
    AwaitHalo,
    /// Commit the pass and advance (accepting the reports).
    Commit,
    /// All passes finished.
    Done,
}

/// One directed link between neighboring boards.
#[derive(Clone, Hash, Debug, Default)]
struct Link {
    /// In-flight frame: `(pass, seq)` — the link holds at most one
    /// frame, like the farm's per-neighbor halo buffer.
    in_flight: Option<(u64, u64)>,
    /// Next sequence number to transmit.
    seq_tx: u64,
    /// Highest sequence number applied by the receiver.
    seq_rx: u64,
    /// Frames the fault plan will still drop on first transmission.
    drops_left: u32,
    /// Detected losses (receiver side parity failure in the farm).
    detected: u64,
    /// ARQ retransmissions performed.
    retransmits: u64,
    /// Frames applied by the receiver, for at-most-once checking.
    applied: Vec<(u64, u64)>,
}

#[derive(Clone, Hash, Debug)]
struct Board {
    phase: Phase,
    pass: u64,
    /// Inbound frames applied for the current pass (one per neighbor).
    applied_this_pass: usize,
}

#[derive(Clone, Hash, Debug)]
struct Farm {
    boards: Vec<Board>,
    /// `links[b]` is the directed link *into* board `b` from its left
    /// neighbor `(b + S - 1) % S`; with a ring in both directions the
    /// second entry is the link from the right neighbor.
    links: Vec<Link>,
    passes: u64,
}

impl Farm {
    fn new(shards: usize, passes: u64, lossy: &[usize]) -> Farm {
        let boards = (0..shards)
            .map(|_| Board { phase: Phase::Compute, pass: 0, applied_this_pass: 0 })
            .collect();
        // Two directed links into each board (from left and right
        // neighbors): 2S links, indexed `2b` (from left) and `2b + 1`
        // (from right).
        let mut links = vec![Link::default(); 2 * shards];
        for &l in lossy {
            links[l].drops_left = 1;
        }
        Farm { boards, links, passes }
    }

    fn inbound(&self, board: usize) -> [usize; 2] {
        [2 * board, 2 * board + 1]
    }

    /// The links board `b` transmits on: into its right neighbor's
    /// "from left" slot and its left neighbor's "from right" slot.
    fn outbound(&self, board: usize) -> [usize; 2] {
        let s = self.boards.len();
        [2 * ((board + 1) % s), 2 * ((board + s - 1) % s) + 1]
    }

    /// True when every board has finished the pass-`p` halo exchange —
    /// the supervisor's `while got < jobs.len()` collection barrier.
    fn exchange_complete(&self, pass: u64) -> bool {
        self.boards
            .iter()
            .all(|board| board.pass > pass || (board.pass == pass && board.applied_this_pass == 2))
    }

    /// True when board `b` has an enabled step.
    fn enabled(&self, b: usize) -> bool {
        match self.boards[b].phase {
            Phase::Compute | Phase::SendHalo => true,
            // Commit waits on the supervisor's global barrier: in the
            // real farm no board starts pass p+1 until every board's
            // pass-p report has been collected.
            Phase::Commit => self.exchange_complete(self.boards[b].pass),
            Phase::AwaitHalo => {
                // The barrier step is enabled when an inbound frame is
                // deliverable or everything already arrived.
                let want = self.boards[b].pass;
                self.boards[b].applied_this_pass == 2
                    || self
                        .inbound(b)
                        .iter()
                        .any(|&l| matches!(self.links[l].in_flight, Some((p, _)) if p == want))
            }
            Phase::Done => false,
        }
    }

    /// Executes one atomic step of board `b`. Steps are chosen to
    /// match the farm's observable atomicity: a channel send, a
    /// channel receive, a commit.
    fn step(&mut self, b: usize) {
        let pass = self.boards[b].pass;
        match self.boards[b].phase {
            Phase::Compute => self.boards[b].phase = Phase::SendHalo,
            Phase::SendHalo => {
                for l in self.outbound(b) {
                    let link = &mut self.links[l];
                    assert!(
                        link.in_flight.is_none(),
                        "halo frame overwritten in flight: the barrier leaked a pass"
                    );
                    if link.drops_left > 0 {
                        // The frame is lost; the receiver's parity
                        // check detects it and ARQ retransmits — in
                        // the farm this is one round trip, modeled as
                        // an immediate re-send with the next seq.
                        link.drops_left -= 1;
                        link.detected += 1;
                        link.retransmits += 1;
                    }
                    link.in_flight = Some((pass, link.seq_tx));
                    link.seq_tx += 1;
                }
                self.boards[b].phase = Phase::AwaitHalo;
            }
            Phase::AwaitHalo => {
                if self.boards[b].applied_this_pass == 2 {
                    self.boards[b].phase = Phase::Commit;
                    return;
                }
                for l in self.inbound(b) {
                    let link = &mut self.links[l];
                    if let Some((p, seq)) = link.in_flight {
                        if p == pass {
                            link.in_flight = None;
                            assert!(
                                seq >= link.seq_rx,
                                "stale retransmission applied twice (seq {seq} after {})",
                                link.seq_rx
                            );
                            link.seq_rx = seq + 1;
                            link.applied.push((p, seq));
                            self.boards[b].applied_this_pass += 1;
                            return;
                        }
                        // A frame from a *future* pass sitting on the
                        // link while we still await this pass would be
                        // a barrier violation by the sender.
                        assert!(
                            p > pass,
                            "link carries a frame for past pass {p} while board {b} awaits {pass}"
                        );
                        panic!(
                            "board {b} observed a pass-{p} frame while exchanging pass {pass}: \
                             the halo barrier leaked"
                        );
                    }
                }
            }
            Phase::Commit => {
                assert_eq!(
                    self.boards[b].applied_this_pass, 2,
                    "board {b} committed pass {pass} before its halo exchange finished"
                );
                self.boards[b].pass += 1;
                self.boards[b].applied_this_pass = 0;
                self.boards[b].phase =
                    if self.boards[b].pass == self.passes { Phase::Done } else { Phase::Compute };
            }
            Phase::Done => unreachable!("done boards are never scheduled"),
        }
    }

    /// Invariants that must hold in *every* reachable state.
    fn check(&self) {
        // Neighbors can never be more than one pass apart: the halo
        // barrier couples the ring.
        let min = self.boards.iter().map(|b| b.pass).min().unwrap_or(0);
        let max = self.boards.iter().map(|b| b.pass).max().unwrap_or(0);
        assert!(max - min <= 1, "halo barrier allowed boards {min} and {max} passes apart");
        for link in &self.links {
            assert_eq!(
                link.detected, link.retransmits,
                "link conservation broken: detected != retransmits"
            );
            // At-most-once: applied sequence numbers are unique.
            let unique: BTreeSet<_> = link.applied.iter().collect();
            assert_eq!(unique.len(), link.applied.len(), "a halo frame was applied twice");
        }
    }

    /// Invariants of a maximal (fully blocked) interleaving.
    fn check_final(&self) {
        for (b, board) in self.boards.iter().enumerate() {
            assert_eq!(board.phase, Phase::Done, "board {b} deadlocked in {:?}", board.phase);
            assert_eq!(board.pass, self.passes);
        }
        for (l, link) in self.links.iter().enumerate() {
            assert!(link.in_flight.is_none(), "link {l} still holds a frame after shutdown");
            assert_eq!(link.applied.len() as u64, self.passes, "link {l} lost a frame");
        }
    }
}

// ---------------------------------------------------------------------------
// The explorer: depth-first over every schedule, the discipline loom
// applies to real atomics. State spaces here are small enough to
// enumerate completely (no partial-order reduction needed).
// ---------------------------------------------------------------------------

/// Stateful model checker: depth-first over every interleaving with
/// visited-state deduplication, so the walk covers the full reachable
/// state graph (every state every schedule can produce) without
/// re-walking converged prefixes.
struct Explorer {
    visited: HashSet<u64>,
    /// Distinct reachable states checked.
    states: u64,
    /// Distinct maximal (fully blocked) states checked.
    terminals: u64,
}

impl Explorer {
    fn fingerprint(farm: &Farm) -> u64 {
        let mut h = DefaultHasher::new();
        farm.hash(&mut h);
        h.finish()
    }

    fn explore(&mut self, farm: &Farm) {
        if !self.visited.insert(Self::fingerprint(farm)) {
            return;
        }
        farm.check();
        self.states += 1;
        assert!(self.states < 50_000_000, "state budget exhausted — shrink the model");
        let runnable: Vec<usize> = (0..farm.boards.len()).filter(|&b| farm.enabled(b)).collect();
        if runnable.is_empty() {
            farm.check_final();
            self.terminals += 1;
            return;
        }
        for b in runnable {
            let mut next = farm.clone();
            next.step(b);
            self.explore(&next);
        }
    }
}

/// Runs the checker; returns the number of distinct reachable states.
fn run_model(shards: usize, passes: u64, lossy: &[usize]) -> u64 {
    let farm = Farm::new(shards, passes, lossy);
    let mut ex = Explorer { visited: HashSet::new(), states: 0, terminals: 0 };
    ex.explore(&farm);
    assert!(ex.terminals >= 1, "no maximal schedule reached");
    ex.states
}

// ---------------------------------------------------------------------------
// The always-on configurations: small enough for every CI run.
// ---------------------------------------------------------------------------

/// Two boards, two passes, clean links: the barrier must serialize the
/// passes in every interleaving.
#[test]
fn loom_halo_barrier_two_boards() {
    let states = run_model(2, 2, &[]);
    assert!(states >= 60, "explorer degenerated: only {states} states");
}

/// Two boards, one lossy link: ARQ must deliver exactly once and the
/// detected/retransmit counters must stay conserved in every state.
#[test]
fn loom_arq_retransmission_two_boards() {
    let states = run_model(2, 2, &[0]);
    assert!(states >= 60, "explorer degenerated: only {states} states");
}

/// A board pair where *both* directions of one edge drop a frame.
#[test]
fn loom_arq_bidirectional_loss() {
    let states = run_model(2, 1, &[0, 1]);
    assert!(states > 10, "explorer degenerated: only {states} states");
}

/// Sanity: the model's assertions have teeth. A sender that skips the
/// barrier (steps straight to the next pass's send) must be caught by
/// the in-flight overwrite assertion.
#[test]
fn loom_model_detects_injected_barrier_leak() {
    let result = std::panic::catch_unwind(|| {
        let mut farm = Farm::new(2, 2, &[]);
        // Board 0: compute, send — then force a second send without
        // awaiting the barrier, as a buggy farm would.
        farm.step(0);
        farm.step(0);
        farm.boards[0].phase = Phase::SendHalo;
        farm.step(0); // must assert: frame still in flight
    });
    assert!(result.is_err(), "the model failed to detect a barrier leak");
}

/// Sanity: double-applying a frame (a broken ARQ) must be caught.
#[test]
fn loom_model_detects_double_apply() {
    let result = std::panic::catch_unwind(|| {
        let mut link = Link { seq_rx: 5, ..Link::default() };
        link.in_flight = Some((0, 3)); // stale seq: already applied past it
        let mut farm = Farm::new(2, 1, &[]);
        farm.links[0] = link;
        farm.boards[0].phase = Phase::AwaitHalo;
        farm.step(0); // must assert: seq regressed
    });
    assert!(result.is_err(), "the model failed to detect a duplicate delivery");
}

// ---------------------------------------------------------------------------
// The overlapped model: ship-ahead staging with a two-phase sweep.
// Each pass: claim staged frames (arrival barrier) → boundary sweeps →
// ship next pass's frames → interior sweep → commit. Links are
// one-frame-deep tagged windows, exactly like `HaloWindow`.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum OPhase {
    /// Arrival barrier: claim both staged inbound frames of this pass.
    AwaitHalo,
    /// Boundary sweeps — after this the next pass's halo frames are
    /// fully determined.
    Boundary,
    /// Ship the next pass's frames onto the outbound windows (skipped
    /// on the final pass). One link per step, so the explorer
    /// interleaves partial ship-ahead with every neighbor state.
    SendNext,
    /// Interior sweep, running while the shipped frames sit staged.
    Interior,
    /// Commit the pass at the supervisor's global barrier.
    Commit,
    /// All passes finished.
    Done,
}

#[derive(Clone, Hash, Debug)]
struct OBoard {
    phase: OPhase,
    pass: u64,
    applied_this_pass: usize,
    /// Which outbound windows this pass's ship-ahead has filled.
    sent_next: [bool; 2],
}

#[derive(Clone, Hash, Debug)]
struct OverlapFarm {
    boards: Vec<OBoard>,
    links: Vec<Link>,
    passes: u64,
}

impl OverlapFarm {
    fn new(shards: usize, passes: u64, lossy: &[usize]) -> OverlapFarm {
        let boards = (0..shards)
            .map(|_| OBoard {
                phase: OPhase::AwaitHalo,
                pass: 0,
                applied_this_pass: 0,
                sent_next: [false; 2],
            })
            .collect();
        // Pass 0 has no previous pass to ship ahead from: the farm runs
        // it as a serialized exchange before the first arrival barrier,
        // so the model starts with every window already holding a
        // tag-0 frame.
        let mut links = vec![Link::default(); 2 * shards];
        for link in &mut links {
            link.in_flight = Some((0, 0));
            link.seq_tx = 1;
        }
        for &l in lossy {
            links[l].drops_left = 1;
        }
        OverlapFarm { boards, links, passes }
    }

    fn inbound(&self, board: usize) -> [usize; 2] {
        [2 * board, 2 * board + 1]
    }

    fn outbound(&self, board: usize) -> [usize; 2] {
        let s = self.boards.len();
        [2 * ((board + 1) % s), 2 * ((board + s - 1) % s) + 1]
    }

    fn exchange_complete(&self, pass: u64) -> bool {
        self.boards
            .iter()
            .all(|board| board.pass > pass || (board.pass == pass && board.applied_this_pass == 2))
    }

    fn enabled(&self, b: usize) -> bool {
        let board = &self.boards[b];
        match board.phase {
            OPhase::Boundary | OPhase::Interior => true,
            OPhase::Commit => self.exchange_complete(board.pass),
            OPhase::AwaitHalo => {
                board.applied_this_pass == 2
                    || self.inbound(b).iter().any(
                        |&l| matches!(self.links[l].in_flight, Some((p, _)) if p == board.pass),
                    )
            }
            OPhase::SendNext => {
                // The last pass ships nothing; otherwise a send step is
                // enabled once any unfilled outbound window is free —
                // `HaloWindow` is one frame deep, so ship-ahead waits
                // for the receiver to drain the previous tag.
                board.pass + 1 >= self.passes
                    || self
                        .outbound(b)
                        .iter()
                        .zip(board.sent_next)
                        .any(|(&l, sent)| !sent && self.links[l].in_flight.is_none())
            }
            OPhase::Done => false,
        }
    }

    fn step(&mut self, b: usize) {
        let pass = self.boards[b].pass;
        match self.boards[b].phase {
            OPhase::AwaitHalo => {
                if self.boards[b].applied_this_pass == 2 {
                    self.boards[b].phase = OPhase::Boundary;
                    return;
                }
                for l in self.inbound(b) {
                    let link = &mut self.links[l];
                    if let Some((p, seq)) = link.in_flight {
                        if p == pass {
                            link.in_flight = None;
                            assert!(
                                seq >= link.seq_rx,
                                "stale retransmission applied twice (seq {seq} after {})",
                                link.seq_rx
                            );
                            link.seq_rx = seq + 1;
                            link.applied.push((p, seq));
                            self.boards[b].applied_this_pass += 1;
                            return;
                        }
                        // A frame tagged for the *next* pass may sit
                        // staged while this pass still waits on its
                        // other window — that is the double-buffering
                        // working as designed. Anything else leaked.
                        assert!(
                            p == pass + 1,
                            "board {b} observed a pass-{p} frame while awaiting pass {pass}: \
                             the staged window leaked"
                        );
                    }
                }
            }
            OPhase::Boundary => self.boards[b].phase = OPhase::SendNext,
            OPhase::SendNext => {
                if pass + 1 < self.passes {
                    let outbound = self.outbound(b);
                    for (i, &l) in outbound.iter().enumerate() {
                        if self.boards[b].sent_next[i] {
                            continue;
                        }
                        let link = &mut self.links[l];
                        if link.in_flight.is_some() {
                            continue;
                        }
                        if link.drops_left > 0 {
                            link.drops_left -= 1;
                            link.detected += 1;
                            link.retransmits += 1;
                        }
                        link.in_flight = Some((pass + 1, link.seq_tx));
                        link.seq_tx += 1;
                        self.boards[b].sent_next[i] = true;
                        break;
                    }
                }
                let done_shipping =
                    pass + 1 >= self.passes || self.boards[b].sent_next == [true, true];
                if done_shipping {
                    self.boards[b].phase = OPhase::Interior;
                }
            }
            OPhase::Interior => self.boards[b].phase = OPhase::Commit,
            OPhase::Commit => {
                assert_eq!(
                    self.boards[b].applied_this_pass, 2,
                    "board {b} committed pass {pass} before claiming its staged frames"
                );
                self.boards[b].pass += 1;
                self.boards[b].applied_this_pass = 0;
                self.boards[b].sent_next = [false; 2];
                self.boards[b].phase = if self.boards[b].pass == self.passes {
                    OPhase::Done
                } else {
                    OPhase::AwaitHalo
                };
            }
            OPhase::Done => unreachable!("done boards are never scheduled"),
        }
    }

    fn check(&self) {
        let min = self.boards.iter().map(|b| b.pass).min().unwrap_or(0);
        let max = self.boards.iter().map(|b| b.pass).max().unwrap_or(0);
        assert!(max - min <= 1, "commit barrier allowed boards {min} and {max} passes apart");
        for (b, board) in self.boards.iter().enumerate() {
            // Past the arrival barrier, both staged frames are claimed.
            if !matches!(board.phase, OPhase::AwaitHalo | OPhase::Done) {
                assert_eq!(
                    board.applied_this_pass, 2,
                    "board {b} reached {:?} with an unclaimed staged frame",
                    board.phase
                );
            }
            // A staged frame's tag is only ever the receiver's current
            // or next pass — `HaloWindow::take` would reject anything
            // else as stale or a leak.
            for &l in &self.inbound(b) {
                if let Some((p, _)) = self.links[l].in_flight {
                    assert!(
                        p == board.pass || p == board.pass + 1,
                        "window into board {b} (pass {}) holds a pass-{p} frame",
                        board.pass
                    );
                }
            }
        }
        for link in &self.links {
            assert_eq!(
                link.detected, link.retransmits,
                "link conservation broken: detected != retransmits"
            );
            let unique: BTreeSet<_> = link.applied.iter().collect();
            assert_eq!(unique.len(), link.applied.len(), "a halo frame was applied twice");
        }
    }

    fn check_final(&self) {
        for (b, board) in self.boards.iter().enumerate() {
            assert_eq!(board.phase, OPhase::Done, "board {b} deadlocked in {:?}", board.phase);
            assert_eq!(board.pass, self.passes);
        }
        for (l, link) in self.links.iter().enumerate() {
            assert!(link.in_flight.is_none(), "window {l} still holds a frame after shutdown");
            assert_eq!(link.applied.len() as u64, self.passes, "window {l} lost a frame");
        }
    }
}

/// Runs the overlapped-model checker; returns distinct reachable states.
fn run_overlap_model(shards: usize, passes: u64, lossy: &[usize]) -> u64 {
    struct OExplorer {
        visited: HashSet<u64>,
        states: u64,
        terminals: u64,
    }
    impl OExplorer {
        fn explore(&mut self, farm: &OverlapFarm) {
            let mut h = DefaultHasher::new();
            farm.hash(&mut h);
            if !self.visited.insert(h.finish()) {
                return;
            }
            farm.check();
            self.states += 1;
            assert!(self.states < 50_000_000, "state budget exhausted — shrink the model");
            let runnable: Vec<usize> =
                (0..farm.boards.len()).filter(|&b| farm.enabled(b)).collect();
            if runnable.is_empty() {
                farm.check_final();
                self.terminals += 1;
                return;
            }
            for b in runnable {
                let mut next = farm.clone();
                next.step(b);
                self.explore(&next);
            }
        }
    }
    let farm = OverlapFarm::new(shards, passes, lossy);
    let mut ex = OExplorer { visited: HashSet::new(), states: 0, terminals: 0 };
    ex.explore(&farm);
    assert!(ex.terminals >= 1, "no maximal schedule reached");
    ex.states
}

/// Two boards, three passes, clean links: every interleaving of the
/// claim → boundary → ship → interior → commit handshake preserves the
/// window and barrier invariants.
#[test]
fn loom_overlap_two_boards() {
    let states = run_overlap_model(2, 3, &[]);
    assert!(states >= 100, "explorer degenerated: only {states} states");
}

/// Two boards with one lossy window: the staged transfer's ARQ must
/// deliver exactly once and keep detected == retransmits everywhere.
#[test]
fn loom_overlap_arq_staged_loss() {
    let states = run_overlap_model(2, 3, &[0]);
    assert!(states >= 100, "explorer degenerated: only {states} states");
}

/// Sanity: a window holding a frame from beyond the receiver's next
/// pass (the `HaloWindow` "leak" — a sender that ran ahead of the
/// commit barrier) must be caught by the tag invariant.
#[test]
fn loom_overlap_model_detects_window_leak() {
    let result = std::panic::catch_unwind(|| {
        let mut farm = OverlapFarm::new(2, 4, &[]);
        // Board 0 still awaits pass 0, but its left window is forced
        // to a pass-2 frame, as a sender two passes ahead would stage.
        farm.links[0].in_flight = Some((2, farm.links[0].seq_tx));
        farm.check();
    });
    assert!(result.is_err(), "the model failed to detect a leaked window tag");
}

/// Sanity: a board that skips its arrival barrier must be caught at
/// commit.
#[test]
fn loom_overlap_model_detects_skipped_barrier() {
    let result = std::panic::catch_unwind(|| {
        let mut farm = OverlapFarm::new(2, 2, &[]);
        farm.boards[0].phase = OPhase::Commit;
        farm.boards[1].phase = OPhase::Commit;
        farm.boards[1].applied_this_pass = 2;
        farm.step(0); // must assert: staged frames never claimed
    });
    assert!(result.is_err(), "the model failed to detect a skipped arrival barrier");
}

// ---------------------------------------------------------------------------
// The deep configuration, enabled with RUSTFLAGS="--cfg loom": three
// boards on a ring with losses on every inbound edge of board 0.
// ---------------------------------------------------------------------------

/// Three-board ring, exhaustive over the reachable state graph
/// (hundreds of distinct states; schedule count is astronomically
/// larger but converges onto them).
#[cfg(loom)]
#[test]
fn loom_halo_barrier_three_board_ring() {
    let states = run_model(3, 2, &[]);
    assert!(states >= 200, "explorer degenerated: only {states} states");
}

/// Three-board ring with a lossy edge in each direction at board 0.
#[cfg(loom)]
#[test]
fn loom_arq_three_board_ring_lossy() {
    let states = run_model(3, 1, &[0, 1]);
    assert!(states >= 100, "explorer degenerated: only {states} states");
}

/// Overlapped handshake on the three-board ring: the window and
/// arrival-barrier invariants under every interleaving of partial
/// ship-ahead across three boards.
#[cfg(loom)]
#[test]
fn loom_overlap_three_board_ring() {
    let states = run_overlap_model(3, 2, &[]);
    assert!(states >= 200, "explorer degenerated: only {states} states");
}

/// Overlapped three-board ring with losses on both windows into
/// board 0: staged ARQ under exhaustive interleaving.
#[cfg(loom)]
#[test]
fn loom_overlap_three_board_ring_lossy() {
    let states = run_overlap_model(3, 2, &[0, 1]);
    assert!(states >= 200, "explorer degenerated: only {states} states");
}

// ---------------------------------------------------------------------------
// The board crew model: one supervisor handing tagged jobs to the
// step's helper threads (`crates/farm/src/crew.rs`). Each pass the
// supervisor hands every helper slot a job under a fresh ticket, spawning
// a helper for a slot that has none, then collects answers from the
// shared report channel until every ticket is in or the watchdog lapses
// (a nondeterministic choice here, under a budget). An answer to a
// ticket no slot owes is a late result and is dropped. A board without
// a result is retried under a fresh ticket; a helper that died or
// missed the deadline is abandoned — its job channel closes, it finishes
// what it took and exits — and the slot's next job spawns a replacement.
// At step end the supervisor closes every job channel and joins every
// helper ever spawned. Helpers take a job, then answer it exactly once:
// with a result, or empty when the job dies, after which they exit.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum SupPhase {
    /// Hand the next slot lacking a committed result its job.
    Dispatch,
    /// Wait on the report channel (or time out).
    Collect,
    /// Commit every answered board; retry the rest.
    Commit,
    /// Close every job channel.
    Close,
    /// Join every helper ever spawned.
    Join,
    Done,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum HelperState {
    /// Blocked on its job channel.
    Idle,
    /// Running the job with this ticket.
    Working(u64),
    Exited,
}

#[derive(Clone, Hash, Debug)]
struct Helper {
    state: HelperState,
    /// Queued tickets on its job channel.
    queue: Vec<u64>,
    /// Whether the supervisor dropped the channel's sender.
    closed: bool,
}

#[derive(Clone, Hash, Debug)]
struct CrewModel {
    sup: SupPhase,
    pass: u64,
    passes: u64,
    /// Per slot: the live helper's index into `helpers`, if any.
    live: Vec<Option<usize>>,
    /// Per slot: the ticket its live helper owes.
    owes: Vec<Option<u64>>,
    /// Per slot: the ticket of the board's current job this pass, and
    /// whether its result is committed.
    current: Vec<Option<u64>>,
    committed: Vec<bool>,
    /// Per slot: the answer collected this round (true = a result).
    answered: Vec<Option<bool>>,
    helpers: Vec<Helper>,
    /// The shared report channel: `(ticket, has_result)`.
    reports: Vec<(u64, bool)>,
    /// Answers sent per ticket, for the exactly-once check.
    answers_sent: Vec<u8>,
    next_ticket: u64,
    deaths_left: u32,
    timeouts_left: u32,
    /// A broken supervisor that commits any answer, whoever owes it.
    ignore_tickets: bool,
}

impl CrewModel {
    fn new(slots: usize, passes: u64, deaths: u32, timeouts: u32) -> CrewModel {
        CrewModel {
            sup: SupPhase::Dispatch,
            pass: 0,
            passes,
            live: vec![None; slots],
            owes: vec![None; slots],
            current: vec![None; slots],
            committed: vec![false; slots],
            answered: vec![None; slots],
            helpers: Vec::new(),
            reports: Vec::new(),
            answers_sent: Vec::new(),
            next_ticket: 0,
            deaths_left: deaths,
            timeouts_left: timeouts,
            ignore_tickets: false,
        }
    }

    /// The slot still waiting for an answer this round.
    fn open(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.live.len()).filter(|&s| !self.committed[s] && self.answered[s].is_none())
    }

    /// Every enabled move: `0` the supervisor's, `1 + h` helper `h`'s,
    /// and the supervisor's timeout as a separate move.
    fn moves(&self) -> Vec<Move> {
        let mut out = Vec::new();
        let sup_enabled = match self.sup {
            SupPhase::Collect => !self.reports.is_empty() || self.open().next().is_none(),
            SupPhase::Join => self.helpers.iter().all(|h| h.state == HelperState::Exited),
            SupPhase::Done => false,
            _ => true,
        };
        if sup_enabled {
            out.push(Move::Supervisor);
        }
        if self.sup == SupPhase::Collect && self.timeouts_left > 0 && self.open().next().is_some() {
            out.push(Move::Timeout);
        }
        for (h, helper) in self.helpers.iter().enumerate() {
            let enabled = match helper.state {
                HelperState::Idle => !helper.queue.is_empty() || helper.closed,
                HelperState::Working(_) => true,
                HelperState::Exited => false,
            };
            if enabled {
                out.push(Move::Helper(h, false));
                if matches!(helper.state, HelperState::Working(_)) && self.deaths_left > 0 {
                    out.push(Move::Helper(h, true));
                }
            }
        }
        out
    }

    fn answer(&mut self, ticket: u64, has_result: bool) {
        self.answers_sent[usize::try_from(ticket).unwrap()] += 1;
        self.reports.push((ticket, has_result));
    }

    fn step(&mut self, m: Move) {
        match m {
            Move::Supervisor => self.step_supervisor(),
            Move::Timeout => {
                // The watchdog lapses: abandon every slot still owing an
                // answer this round.
                self.timeouts_left -= 1;
                for s in self.open().collect::<Vec<_>>() {
                    if let Some(h) = self.live[s].take() {
                        self.helpers[h].closed = true;
                    }
                    self.owes[s] = None;
                    self.answered[s] = Some(false);
                }
            }
            Move::Helper(h, dies) => {
                let helper = &mut self.helpers[h];
                match helper.state {
                    HelperState::Idle => {
                        if helper.queue.is_empty() {
                            helper.state = HelperState::Exited;
                        } else {
                            // Buffered jobs are delivered before the
                            // channel reports its sender gone.
                            let t = helper.queue.remove(0);
                            helper.state = HelperState::Working(t);
                        }
                    }
                    HelperState::Working(t) => {
                        if dies {
                            self.deaths_left -= 1;
                            self.helpers[h].state = HelperState::Exited;
                            self.answer(t, false);
                        } else {
                            self.helpers[h].state = HelperState::Idle;
                            self.answer(t, true);
                        }
                    }
                    HelperState::Exited => unreachable!("exited helpers are never scheduled"),
                }
            }
        }
    }

    fn step_supervisor(&mut self) {
        match self.sup {
            SupPhase::Dispatch => {
                let Some(s) =
                    (0..self.live.len()).find(|&s| !self.committed[s] && self.current[s].is_none())
                else {
                    self.sup = SupPhase::Collect;
                    return;
                };
                let ticket = self.next_ticket;
                self.next_ticket += 1;
                self.answers_sent.push(0);
                let h = match self.live[s] {
                    Some(h) if self.helpers[h].state != HelperState::Exited => h,
                    _ => {
                        self.helpers.push(Helper {
                            state: HelperState::Idle,
                            queue: Vec::new(),
                            closed: false,
                        });
                        self.helpers.len() - 1
                    }
                };
                self.live[s] = Some(h);
                self.helpers[h].queue.push(ticket);
                self.owes[s] = Some(ticket);
                self.current[s] = Some(ticket);
            }
            SupPhase::Collect => {
                if self.reports.is_empty() {
                    self.sup = SupPhase::Commit;
                    return;
                }
                let (ticket, has_result) = self.reports.remove(0);
                let owner = (0..self.owes.len()).find(|&s| self.owes[s] == Some(ticket));
                let owner = match (owner, self.ignore_tickets) {
                    (Some(s), _) => Some(s),
                    // The broken supervisor credits a late answer to
                    // whichever board is still waiting.
                    (None, true) => self.open().next(),
                    (None, false) => None,
                };
                let Some(s) = owner else { return };
                self.owes[s] = None;
                if !has_result {
                    self.live[s] = None;
                }
                self.answered[s] = Some(has_result);
                if has_result {
                    // What `Crew::collect` hands the pass is the answer
                    // to the board's current ticket, never an older one.
                    assert_eq!(
                        self.current[s],
                        Some(ticket),
                        "slot {s} accepted ticket {ticket}: a stale result reached the commit"
                    );
                }
            }
            SupPhase::Commit => {
                for s in 0..self.live.len() {
                    match self.answered[s].take() {
                        Some(true) => self.committed[s] = true,
                        // No result: the board is retried under a fresh
                        // ticket (a local rollback in the farm).
                        _ if !self.committed[s] => self.current[s] = None,
                        _ => {}
                    }
                }
                if self.committed.iter().all(|&c| c) {
                    self.pass += 1;
                    self.committed.fill(false);
                    self.current.fill(None);
                    self.sup =
                        if self.pass == self.passes { SupPhase::Close } else { SupPhase::Dispatch };
                } else {
                    self.sup = SupPhase::Dispatch;
                }
            }
            SupPhase::Close => {
                for h in &mut self.helpers {
                    h.closed = true;
                }
                self.live.fill(None);
                self.sup = SupPhase::Join;
            }
            SupPhase::Join => self.sup = SupPhase::Done,
            SupPhase::Done => unreachable!("a finished supervisor is never scheduled"),
        }
    }

    fn check(&self) {
        for (t, &n) in self.answers_sent.iter().enumerate() {
            assert!(n <= 1, "ticket {t} was answered {n} times");
        }
        for s in 0..self.live.len() {
            if let Some(h) = self.live[s] {
                assert!(!self.helpers[h].closed, "slot {s} hands jobs to a closed channel");
            }
            if let Some(t) = self.owes[s] {
                assert_eq!(
                    self.current[s],
                    Some(t),
                    "slot {s} owes a ticket it no longer waits on"
                );
            }
        }
        if self.sup == SupPhase::Done {
            assert!(
                self.helpers.iter().all(|h| h.state == HelperState::Exited),
                "the step returned before joining every helper"
            );
        }
    }

    fn check_final(&self) {
        assert_eq!(self.sup, SupPhase::Done, "supervisor deadlocked in {:?}", self.sup);
        assert_eq!(self.pass, self.passes);
        for (h, helper) in self.helpers.iter().enumerate() {
            assert_eq!(helper.state, HelperState::Exited, "helper {h} outlived the step");
            assert!(helper.queue.is_empty(), "helper {h} left a job unanswered");
        }
        // Every job ever handed out was answered, late ones included.
        assert!(self.answers_sent.iter().all(|&n| n == 1), "a job went unanswered");
    }
}

#[derive(Clone, Copy, Debug)]
enum Move {
    Supervisor,
    Timeout,
    /// Helper index, and whether it dies on its job.
    Helper(usize, bool),
}

/// Explores every interleaving of the crew model; returns the number of
/// distinct reachable states.
fn run_crew_model(model: CrewModel) -> u64 {
    fn explore(m: &CrewModel, seen: &mut HashSet<u64>, terminals: &mut u64) {
        let mut h = DefaultHasher::new();
        m.hash(&mut h);
        if !seen.insert(h.finish()) {
            return;
        }
        m.check();
        assert!(seen.len() < 5_000_000, "state budget exhausted — shrink the model");
        let moves = m.moves();
        if moves.is_empty() {
            m.check_final();
            *terminals += 1;
            return;
        }
        for mv in moves {
            let mut next = m.clone();
            next.step(mv);
            explore(&next, seen, terminals);
        }
    }
    let mut seen = HashSet::new();
    let mut terminals = 0;
    explore(&model, &mut seen, &mut terminals);
    assert!(terminals >= 1, "no maximal schedule reached");
    seen.len() as u64
}

/// One helper, three passes, clean: tagged dispatch and report, one
/// helper for the whole step, joined at its end.
#[test]
fn loom_crew_dispatch_and_join() {
    let states = run_crew_model(CrewModel::new(1, 3, 0, 0));
    assert!(states >= 20, "explorer degenerated: only {states} states");
}

/// Watchdog timeouts with late results: an abandoned helper still
/// answers its old ticket, and that answer is never committed.
#[test]
fn loom_crew_timeout_drops_late_results() {
    let states = run_crew_model(CrewModel::new(2, 2, 0, 1));
    assert!(states >= 1000, "explorer degenerated: only {states} states");
}

/// Helper deaths: a dead helper answers empty, its board is retried on
/// a replacement, and every helper is joined.
#[test]
fn loom_crew_death_and_replacement() {
    let states = run_crew_model(CrewModel::new(2, 2, 2, 0));
    assert!(states >= 200, "explorer degenerated: only {states} states");
}

/// Sanity: a supervisor that commits answers without checking their
/// ticket commits a late result somewhere in the state space.
#[test]
fn loom_crew_model_detects_a_committed_stale_result() {
    let result = std::panic::catch_unwind(|| {
        let mut model = CrewModel::new(1, 2, 0, 1);
        model.ignore_tickets = true;
        run_crew_model(model)
    });
    assert!(result.is_err(), "the model failed to detect a committed stale result");
}

/// Sanity: a step that returns without joining its helpers is caught.
#[test]
fn loom_crew_model_detects_a_skipped_join() {
    let result = std::panic::catch_unwind(|| {
        let mut model = CrewModel::new(1, 1, 0, 0);
        model.step(Move::Supervisor); // dispatch
        model.sup = SupPhase::Done;
        model.check();
    });
    assert!(result.is_err(), "the model failed to detect a skipped join");
}

/// The deep crew configurations: a death and a timeout in the same
/// step, and two timeouts, so a replacement helper can itself be
/// abandoned while its predecessor still works.
#[cfg(loom)]
#[test]
fn loom_crew_deaths_and_timeouts_together() {
    let states = run_crew_model(CrewModel::new(2, 2, 1, 1));
    assert!(states >= 10_000, "explorer degenerated: only {states} states");
}

#[cfg(loom)]
#[test]
fn loom_crew_two_timeouts() {
    let states = run_crew_model(CrewModel::new(2, 2, 0, 2));
    assert!(states >= 100_000, "explorer degenerated: only {states} states");
}

// ---------------------------------------------------------------------------
// The resident-run mailbox model (`crates/farm/src/resident.rs`). Each
// board of an R × C grid runs `passes` passes as one job: it computes,
// and between passes completes its halo in two hops, rows then columns:
// it posts its edge into each neighbour's mailbox on that axis, then
// takes each of its own. A mailbox holds one frame, tagged with its pass;
// tags never repeat within a step, and the second run's start past the
// first's. A post waits while the mailbox holds an untaken frame of its
// own run (a frame an earlier run left is overwritten); a take waits for
// its own pass's tag. A board that fails poisons every mailbox it posts
// to or takes from, for the rest of its run; a board that meets poison
// fails and poisons in turn. The supervisor starts the second run once
// every board of the first has finished or failed.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Act {
    Compute,
    /// Post this pass's frame into mailbox `m`.
    Post(usize),
    /// Take this pass's frame from mailbox `m`.
    Take(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Status {
    Running,
    Done,
    Failed,
}

#[derive(Clone, Hash, Debug)]
struct MailBoard {
    /// The board's actions in order, each with its pass.
    program: Vec<(u64, Act)>,
    pc: usize,
    status: Status,
}

#[derive(Clone, Copy, Hash, Debug, Default)]
struct Mbox {
    /// The tag of the untaken frame.
    full: Option<u64>,
    /// Waits on a tag below this fail.
    poisoned_below: u64,
}

#[derive(Clone, Hash, Debug)]
struct MailModel {
    boards: Vec<MailBoard>,
    mailboxes: Vec<Mbox>,
    /// Per board, the mailboxes it posts to or takes from.
    touches: Vec<Vec<usize>>,
    passes: u64,
    /// The run under way (0 or 1) and whether the supervisor finished.
    run: u64,
    finished: bool,
    panics_left: u32,
    /// A broken board that takes whatever frame waits, whatever its tag.
    ignore_tags: bool,
    /// A broken board that fails without poisoning its mailboxes.
    drop_poison: bool,
}

impl MailModel {
    /// Boards on an `r × c` grid; a one-wide torus axis wraps inside the
    /// board, so only an axis with two or more boards has links, and
    /// the null boundary has none past the grid's edge.
    fn new(r: usize, c: usize, periodic: bool, passes: u64, panics: u32) -> MailModel {
        let sides = |gr: usize, gc: usize| {
            let up = r > 1 && (periodic || gr > 0);
            let down = r > 1 && (periodic || gr + 1 < r);
            let left = c > 1 && (periodic || gc > 0);
            let right = c > 1 && (periodic || gc + 1 < c);
            // (side, has halo, neighbour): sides 0..4 are up, down,
            // left, right; the neighbour's side facing back is `s ^ 1`.
            [
                (0, up, ((gr + r - 1) % r) * c + gc),
                (1, down, ((gr + 1) % r) * c + gc),
                (2, left, gr * c + (gc + c - 1) % c),
                (3, right, gr * c + (gc + 1) % c),
            ]
        };
        let mut touches = vec![Vec::new(); r * c];
        let boards = (0..r * c)
            .map(|i| {
                let all = sides(i / c, i % c);
                for &(s, on, nbr) in &all {
                    if on {
                        touches[i].push(4 * i + s);
                        touches[i].push(4 * nbr + (s ^ 1));
                    }
                }
                MailBoard {
                    program: Self::program(i, &all, passes, 0),
                    pc: 0,
                    status: Status::Running,
                }
            })
            .collect();
        MailModel {
            boards,
            mailboxes: vec![Mbox::default(); 4 * r * c],
            touches,
            passes,
            run: 0,
            finished: false,
            panics_left: panics,
            ignore_tags: false,
            drop_poison: false,
        }
    }

    /// Board `i`'s actions for the run whose first tag is `tag0`.
    fn program(
        i: usize,
        sides: &[(usize, bool, usize); 4],
        passes: u64,
        tag0: u64,
    ) -> Vec<(u64, Act)> {
        let mut acts = Vec::new();
        for p in 0..passes {
            let tag = tag0 + p;
            acts.push((tag, Act::Compute));
            if p + 1 == passes {
                break;
            }
            for hop in [&sides[..2], &sides[2..]] {
                for &(s, on, nbr) in hop {
                    if on {
                        acts.push((tag, Act::Post(4 * nbr + (s ^ 1))));
                    }
                }
                for &(s, on, _) in hop {
                    if on {
                        acts.push((tag, Act::Take(4 * i + s)));
                    }
                }
            }
        }
        acts
    }

    fn tag0(&self) -> u64 {
        self.run * self.passes
    }

    /// Board `b` fails: it poisons every mailbox it touches for the rest
    /// of its run.
    fn fail(&mut self, b: usize) {
        self.boards[b].status = Status::Failed;
        if !self.drop_poison {
            let end = self.tag0() + self.passes;
            for &m in &self.touches[b] {
                self.mailboxes[m].poisoned_below = self.mailboxes[m].poisoned_below.max(end);
            }
        }
    }

    /// Whether board `b`'s next action can run (or meet poison).
    fn enabled(&self, b: usize) -> bool {
        let board = &self.boards[b];
        if board.status != Status::Running {
            return false;
        }
        let Some(&(tag, act)) = board.program.get(board.pc) else { return true };
        match act {
            Act::Compute => true,
            Act::Post(m) | Act::Take(m) if tag < self.mailboxes[m].poisoned_below => true,
            Act::Post(m) => self.mailboxes[m].full.is_none_or(|t| t < self.tag0()),
            Act::Take(m) if self.ignore_tags => self.mailboxes[m].full.is_some(),
            Act::Take(m) => self.mailboxes[m].full == Some(tag),
        }
    }

    fn step(&mut self, b: usize) {
        let (pc, tag0) = (self.boards[b].pc, self.tag0());
        let Some(&(tag, act)) = self.boards[b].program.get(pc) else {
            self.boards[b].status = Status::Done;
            return;
        };
        match act {
            Act::Post(m) | Act::Take(m) if tag < self.mailboxes[m].poisoned_below => {
                return self.fail(b);
            }
            Act::Compute => {}
            Act::Post(m) => self.mailboxes[m].full = Some(tag),
            Act::Take(m) => {
                let got = self.mailboxes[m].full.take();
                assert_eq!(
                    got,
                    Some(tag),
                    "board {b} imported a frame tagged {got:?} for pass tag {tag} (run from {tag0})"
                );
            }
        }
        self.boards[b].pc += 1;
    }

    /// Every enabled move: `(board, panics)`, and the supervisor's start
    /// of the second run as `None`.
    fn moves(&self) -> Vec<Option<(usize, bool)>> {
        let mut out = Vec::new();
        let settled = self.boards.iter().all(|b| b.status != Status::Running);
        if settled && !self.finished {
            out.push(None);
        }
        for b in (0..self.boards.len()).filter(|&b| self.enabled(b)) {
            out.push(Some((b, false)));
        }
        if self.run == 0 && self.panics_left > 0 {
            let running =
                self.boards.iter().enumerate().filter(|(_, x)| x.status == Status::Running);
            out.extend(running.map(|(b, _)| Some((b, true))));
        }
        out
    }

    fn apply(&mut self, mv: Option<(usize, bool)>) {
        match mv {
            None if self.run == 0 => {
                // The same actions on the same mailboxes, under the
                // second run's tags.
                self.run = 1;
                let passes = self.passes;
                for board in &mut self.boards {
                    let program = board.program.iter().map(|&(t, a)| (t + passes, a)).collect();
                    *board = MailBoard { program, pc: 0, status: Status::Running };
                }
            }
            None => self.finished = true,
            Some((b, true)) => {
                self.panics_left -= 1;
                self.fail(b);
            }
            Some((b, false)) => self.step(b),
        }
    }

    fn check_final(&self) {
        assert!(self.finished, "the supervisor never saw every board of run {} finish", self.run);
        for (b, board) in self.boards.iter().enumerate() {
            assert_eq!(board.status, Status::Done, "board {b} ended the retry {:?}", board.status);
        }
    }
}

/// Explores every interleaving of the mailbox model; returns the number
/// of distinct reachable states.
fn run_mail_model(model: MailModel) -> u64 {
    fn explore(m: &MailModel, seen: &mut HashSet<u64>, terminals: &mut u64) {
        let mut h = DefaultHasher::new();
        m.hash(&mut h);
        if !seen.insert(h.finish()) {
            return;
        }
        assert!(seen.len() < 5_000_000, "state budget exhausted — shrink the model");
        let moves = m.moves();
        if moves.is_empty() {
            m.check_final();
            *terminals += 1;
            return;
        }
        for mv in moves {
            let mut next = m.clone();
            next.apply(mv);
            explore(&next, seen, terminals);
        }
    }
    let mut seen = HashSet::new();
    let mut terminals = 0;
    explore(&model, &mut seen, &mut terminals);
    assert!(terminals >= 1, "no maximal schedule reached");
    seen.len() as u64
}

/// Two boards side by side under the null boundary: one link each way.
#[test]
fn loom_mailbox_two_boards_in_a_row() {
    let states = run_mail_model(MailModel::new(1, 2, false, 3, 1));
    assert!(states >= 100, "explorer degenerated: only {states} states");
}

/// farm-fine's grid: two board rows on the torus, whose up and down
/// neighbours are the same board over two links, and a one-wide column
/// axis that wraps inside each board.
#[test]
fn loom_mailbox_two_board_rows_on_the_torus() {
    let states = run_mail_model(MailModel::new(2, 1, true, 3, 1));
    assert!(states >= 100, "explorer degenerated: only {states} states");
}

/// One board on the torus: both axes wrap inside it, no mailbox at all.
#[test]
fn loom_mailbox_one_board_on_the_torus() {
    let states = run_mail_model(MailModel::new(1, 1, true, 3, 1));
    assert!(states >= 5, "explorer degenerated: only {states} states");
}

/// Sanity: a board that takes whatever frame waits imports a frame a
/// failed run left behind.
#[test]
fn loom_mailbox_model_detects_a_frame_of_another_pass() {
    let result = std::panic::catch_unwind(|| {
        let mut model = MailModel::new(1, 2, false, 2, 1);
        model.ignore_tags = true;
        run_mail_model(model)
    });
    assert!(result.is_err(), "the model failed to detect a frame of another pass");
}

/// Sanity: a board that fails without poisoning leaves its neighbour
/// waiting forever.
#[test]
fn loom_mailbox_model_detects_dropped_poison() {
    let result = std::panic::catch_unwind(|| {
        let mut model = MailModel::new(2, 1, true, 2, 1);
        model.drop_poison = true;
        run_mail_model(model)
    });
    assert!(result.is_err(), "the model failed to detect a neighbour left waiting");
}

/// The deep mailbox configurations: a 2 × 2 torus, whose column frames
/// carry the corners the row frames delivered, and three-board rings
/// on either axis.
#[cfg(loom)]
#[test]
fn loom_mailbox_two_by_two_torus() {
    let states = run_mail_model(MailModel::new(2, 2, true, 2, 1));
    assert!(states >= 1_000, "explorer degenerated: only {states} states");
}

#[cfg(loom)]
#[test]
fn loom_mailbox_three_board_rings() {
    for (r, c) in [(3, 1), (1, 3)] {
        let states = run_mail_model(MailModel::new(r, c, true, 2, 1));
        assert!(states >= 1_000, "explorer degenerated: only {states} states");
    }
}
