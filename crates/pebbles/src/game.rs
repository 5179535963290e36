//! The sequential red-blue pebble game (Hong & Kung, paper ref \[5\]).
//!
//! Rules (§7):
//!
//! 1. A pebble may be removed from a vertex at any time.
//! 2. A red pebble may be placed on any vertex that has a blue pebble.
//! 3. A blue pebble may be placed on any vertex that has a red pebble.
//! 4. If all immediate predecessors of a (non-input) vertex `v` are red
//!    pebbled, `v` may be red pebbled.
//!
//! "A vertex that is blue-pebbled represents the associated value's
//! presence in main memory. A red-pebbled vertex represents presence in
//! processor (chip) memory. Rules (2) and (3) represent I/O, and rule
//! (4) represents the computation of a new value."
//!
//! The game starts with the inputs blue-pebbled and ends when all
//! outputs are blue-pebbled; at most `S` red pebbles may be in play.
//! Every move is validated; `q` counts I/O moves (the paper's quantity).

use crate::graph::PebbleGraph;
use std::fmt;

/// A single pebble-game move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Rule 2: read — place a red pebble on a blue vertex.
    Read(usize),
    /// Rule 3: write — place a blue pebble on a red vertex.
    Write(usize),
    /// Rule 4: compute — red-pebble a vertex whose predecessors are all
    /// red.
    Compute(usize),
    /// Rule 4, slide form: compute `to` by *moving* the red pebble from
    /// predecessor `from` onto it (capacity-neutral). §7 discusses this
    /// explicitly: "lifting the red pebble from a supporting node and
    /// sliding it to one of the dependent nodes" — it models computing
    /// into a register that held an input.
    Slide {
        /// The predecessor whose red pebble moves.
        from: usize,
        /// The vertex being computed.
        to: usize,
    },
    /// Rule 1: remove the red pebble from a vertex.
    RemoveRed(usize),
    /// Rule 1: remove the blue pebble from a vertex.
    RemoveBlue(usize),
}

/// Errors from illegal moves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GameError {
    /// Rule-2 violation: vertex not blue.
    NotBlue(usize),
    /// Rule-3 violation: vertex not red.
    NotRed(usize),
    /// Rule-4 violation: a predecessor lacks a red pebble.
    PredNotRed {
        /// Vertex being computed.
        vertex: usize,
        /// The unpebbled predecessor.
        missing: usize,
    },
    /// Rule-4 on an input vertex (inputs are given, not computed).
    ComputeInput(usize),
    /// Red-pebble capacity `S` exceeded.
    CapacityExceeded {
        /// The capacity.
        s: usize,
    },
    /// Removing a pebble that is not there.
    NothingToRemove(usize),
    /// Vertex id out of range.
    BadVertex(usize),
}

impl fmt::Display for GameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GameError::NotBlue(v) => write!(f, "vertex {v} has no blue pebble to read"),
            GameError::NotRed(v) => write!(f, "vertex {v} has no red pebble to write"),
            GameError::PredNotRed { vertex, missing } => {
                write!(f, "cannot compute {vertex}: predecessor {missing} not red")
            }
            GameError::ComputeInput(v) => {
                write!(f, "vertex {v} is an input; inputs are read, not computed")
            }
            GameError::CapacityExceeded { s } => write!(f, "red pebble capacity S = {s} exceeded"),
            GameError::NothingToRemove(v) => write!(f, "vertex {v} has no such pebble"),
            GameError::BadVertex(v) => write!(f, "vertex {v} out of range"),
        }
    }
}

impl std::error::Error for GameError {}

/// Word-packed vertex set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    count: usize,
}

impl BitSet {
    pub(crate) fn new(n: usize) -> Self {
        BitSet { words: vec![0; n.div_ceil(64)], count: 0 }
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Inserts; returns true if newly inserted.
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        let w = &mut self.words[i / 64];
        let m = 1u64 << (i % 64);
        if *w & m != 0 {
            return false;
        }
        *w |= m;
        self.count += 1;
        true
    }

    /// Removes; returns true if present.
    pub(crate) fn remove(&mut self, i: usize) -> bool {
        let w = &mut self.words[i / 64];
        let m = 1u64 << (i % 64);
        if *w & m == 0 {
            return false;
        }
        *w &= !m;
        self.count -= 1;
        true
    }

    pub(crate) fn len(&self) -> usize {
        self.count
    }
}

/// A red-blue pebble game in progress on a graph.
///
/// ```
/// use lattice_pebbles::{Game, LatticeGraph, Move};
/// // 1-D lattice of 3 sites, one generation: vertices 0..3 are inputs,
/// // 3..6 the outputs.
/// let graph = LatticeGraph::new(1, 3, 1);
/// let mut game = Game::new(&graph, 4);
/// game.apply_all([
///     Move::Read(0), Move::Read(1), Move::Read(2),
///     Move::Compute(4),                  // center needs all three
///     Move::Slide { from: 0, to: 3 },    // edges reuse registers
///     Move::Slide { from: 2, to: 5 },
///     Move::Write(3), Move::Write(4), Move::Write(5),
/// ])?;
/// assert!(game.is_complete());
/// assert_eq!(game.io_moves(), 6); // 3 reads + 3 writes, the optimum
/// # Ok::<(), lattice_pebbles::GameError>(())
/// ```
pub struct Game<'g, G: PebbleGraph> {
    graph: &'g G,
    s: usize,
    red: BitSet,
    blue: BitSet,
    io_moves: u64,
    computations: u64,
    max_red_used: usize,
    scratch: Vec<usize>,
    log: Option<Vec<Move>>,
}

impl<'g, G: PebbleGraph> Game<'g, G> {
    /// Starts a game with red capacity `s`: inputs blue, no reds.
    pub fn new(graph: &'g G, s: usize) -> Self {
        let n = graph.n_vertices();
        let mut blue = BitSet::new(n);
        for v in graph.inputs() {
            blue.insert(v);
        }
        Game {
            graph,
            s,
            red: BitSet::new(n),
            blue,
            io_moves: 0,
            computations: 0,
            max_red_used: 0,
            scratch: Vec::new(),
            log: None,
        }
    }

    /// Enables move logging (for S-I/O-division and partition analysis;
    /// see [`crate::division`]). Call before playing.
    pub fn enable_log(&mut self) {
        self.log = Some(Vec::new());
    }

    /// The recorded move log, if logging was enabled.
    pub fn log(&self) -> Option<&[Move]> {
        self.log.as_deref()
    }

    /// The red-pebble capacity `S`.
    pub fn capacity(&self) -> usize {
        self.s
    }

    /// I/O moves so far (the paper's `q`).
    pub fn io_moves(&self) -> u64 {
        self.io_moves
    }

    /// Rule-4 (compute) moves so far.
    pub fn computations(&self) -> u64 {
        self.computations
    }

    /// Peak number of red pebbles in play.
    pub fn max_red_used(&self) -> usize {
        self.max_red_used
    }

    /// Current red-pebble count.
    pub fn red_count(&self) -> usize {
        self.red.len()
    }

    /// Whether `v` is red-pebbled.
    pub fn is_red(&self, v: usize) -> bool {
        self.red.contains(v)
    }

    /// Whether `v` is blue-pebbled.
    pub fn is_blue(&self, v: usize) -> bool {
        self.blue.contains(v)
    }

    /// True when every output carries a blue pebble (complete
    /// computation).
    pub fn is_complete(&self) -> bool {
        self.graph.outputs().iter().all(|&v| self.blue.contains(v))
    }

    fn check_vertex(&self, v: usize) -> Result<(), GameError> {
        if v >= self.graph.n_vertices() {
            Err(GameError::BadVertex(v))
        } else {
            Ok(())
        }
    }

    fn place_red(&mut self, v: usize) -> Result<(), GameError> {
        if !self.red.contains(v) && self.red.len() + 1 > self.s {
            return Err(GameError::CapacityExceeded { s: self.s });
        }
        self.red.insert(v);
        self.max_red_used = self.max_red_used.max(self.red.len());
        Ok(())
    }

    /// Applies one move.
    pub fn apply(&mut self, m: Move) -> Result<(), GameError> {
        self.apply_inner(m)?;
        if let Some(log) = &mut self.log {
            log.push(m);
        }
        Ok(())
    }

    fn apply_inner(&mut self, m: Move) -> Result<(), GameError> {
        match m {
            Move::Read(v) => {
                self.check_vertex(v)?;
                if !self.blue.contains(v) {
                    return Err(GameError::NotBlue(v));
                }
                self.place_red(v)?;
                self.io_moves += 1;
            }
            Move::Write(v) => {
                self.check_vertex(v)?;
                if !self.red.contains(v) {
                    return Err(GameError::NotRed(v));
                }
                self.blue.insert(v);
                self.io_moves += 1;
            }
            Move::Compute(v) => {
                self.check_vertex(v)?;
                if self.graph.is_input(v) {
                    return Err(GameError::ComputeInput(v));
                }
                let mut preds = std::mem::take(&mut self.scratch);
                self.graph.preds(v, &mut preds);
                let missing = preds.iter().find(|&&p| !self.red.contains(p)).copied();
                self.scratch = preds;
                if let Some(missing) = missing {
                    return Err(GameError::PredNotRed { vertex: v, missing });
                }
                self.place_red(v)?;
                self.computations += 1;
            }
            Move::Slide { from, to } => {
                self.check_vertex(from)?;
                self.check_vertex(to)?;
                if self.graph.is_input(to) {
                    return Err(GameError::ComputeInput(to));
                }
                let mut preds = std::mem::take(&mut self.scratch);
                self.graph.preds(to, &mut preds);
                let missing = preds.iter().find(|&&p| !self.red.contains(p)).copied();
                let from_is_pred = preds.contains(&from);
                self.scratch = preds;
                if let Some(missing) = missing {
                    return Err(GameError::PredNotRed { vertex: to, missing });
                }
                if !from_is_pred {
                    return Err(GameError::PredNotRed { vertex: to, missing: from });
                }
                self.red.remove(from);
                self.place_red(to).expect("slide is capacity-neutral");
                self.computations += 1;
            }
            Move::RemoveRed(v) => {
                self.check_vertex(v)?;
                if !self.red.remove(v) {
                    return Err(GameError::NothingToRemove(v));
                }
            }
            Move::RemoveBlue(v) => {
                self.check_vertex(v)?;
                if !self.blue.remove(v) {
                    return Err(GameError::NothingToRemove(v));
                }
            }
        }
        Ok(())
    }

    /// Applies a sequence of moves, stopping at the first error.
    pub fn apply_all(&mut self, moves: impl IntoIterator<Item = Move>) -> Result<(), GameError> {
        for m in moves {
            self.apply(m)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ExplicitDag;

    /// v2 = f(v0, v1); output v2.
    fn tiny() -> ExplicitDag {
        ExplicitDag::new(vec![vec![], vec![], vec![0, 1]], vec![2]).unwrap()
    }

    #[test]
    fn happy_path_counts_io() {
        let g = tiny();
        let mut game = Game::new(&g, 3);
        game.apply_all([Move::Read(0), Move::Read(1), Move::Compute(2), Move::Write(2)]).unwrap();
        assert!(game.is_complete());
        assert_eq!(game.io_moves(), 3);
        assert_eq!(game.computations(), 1);
        assert_eq!(game.max_red_used(), 3);
    }

    #[test]
    fn compute_requires_all_preds_red() {
        let g = tiny();
        let mut game = Game::new(&g, 3);
        game.apply(Move::Read(0)).unwrap();
        assert_eq!(
            game.apply(Move::Compute(2)),
            Err(GameError::PredNotRed { vertex: 2, missing: 1 })
        );
    }

    #[test]
    fn inputs_cannot_be_computed() {
        let g = tiny();
        let mut game = Game::new(&g, 3);
        assert_eq!(game.apply(Move::Compute(0)), Err(GameError::ComputeInput(0)));
    }

    #[test]
    fn capacity_is_enforced() {
        let g = tiny();
        let mut game = Game::new(&g, 1);
        game.apply(Move::Read(0)).unwrap();
        assert_eq!(game.apply(Move::Read(1)), Err(GameError::CapacityExceeded { s: 1 }));
        // Removing frees capacity.
        game.apply(Move::RemoveRed(0)).unwrap();
        game.apply(Move::Read(1)).unwrap();
        assert_eq!(game.red_count(), 1);
    }

    #[test]
    fn s2_blocks_plain_compute_on_tiny_graph() {
        // With S = 2, computing v2 = f(v0, v1) by *placement* requires a
        // third red pebble; and dropping a predecessor first loses a
        // required support. Only the slide form (see
        // slide_computes_without_extra_capacity) completes at S = 2 —
        // exactly the blockage §7's pink-pebble discussion describes.
        let g = tiny();
        let mut game = Game::new(&g, 2);
        game.apply_all([Move::Read(0), Move::Read(1)]).unwrap();
        assert_eq!(game.apply(Move::Compute(2)), Err(GameError::CapacityExceeded { s: 2 }));
        game.apply(Move::RemoveRed(0)).unwrap();
        assert_eq!(
            game.apply(Move::Compute(2)),
            Err(GameError::PredNotRed { vertex: 2, missing: 0 })
        );
    }

    #[test]
    fn read_requires_blue_write_requires_red() {
        let g = tiny();
        let mut game = Game::new(&g, 3);
        assert_eq!(game.apply(Move::Read(2)), Err(GameError::NotBlue(2)));
        assert_eq!(game.apply(Move::Write(2)), Err(GameError::NotRed(2)));
        assert_eq!(game.apply(Move::RemoveRed(2)), Err(GameError::NothingToRemove(2)));
        assert_eq!(game.apply(Move::Read(9)), Err(GameError::BadVertex(9)));
    }

    #[test]
    fn reread_after_spill_works() {
        let g = tiny();
        let mut game = Game::new(&g, 2);
        game.apply_all([
            Move::Read(0),
            Move::Write(0), // redundant but legal (already blue: blue stays)
            Move::RemoveRed(0),
            Move::Read(0),
        ])
        .unwrap();
        assert_eq!(game.io_moves(), 3);
    }

    #[test]
    fn slide_computes_without_extra_capacity() {
        // With S = 2 and no slide, the tiny graph is stuck (see
        // s2_forces_extra_io_on_tiny_graph); slide completes it.
        let g = tiny();
        let mut game = Game::new(&g, 2);
        game.apply_all([
            Move::Read(0),
            Move::Read(1),
            Move::Slide { from: 0, to: 2 },
            Move::Write(2),
        ])
        .unwrap();
        assert!(game.is_complete());
        assert_eq!(game.io_moves(), 3);
        assert_eq!(game.max_red_used(), 2);
        assert!(!game.is_red(0));
        assert!(game.is_red(2));
    }

    #[test]
    fn slide_validates_preds_and_source() {
        let g = tiny();
        let mut game = Game::new(&g, 3);
        game.apply(Move::Read(0)).unwrap();
        // Missing predecessor 1.
        assert!(matches!(
            game.apply(Move::Slide { from: 0, to: 2 }),
            Err(GameError::PredNotRed { vertex: 2, .. })
        ));
        game.apply(Move::Read(1)).unwrap();
        // Sliding from a non-predecessor is rejected.
        let dag2 = ExplicitDag::new(vec![vec![], vec![], vec![0], vec![0, 1]], vec![3]).unwrap();
        let mut g2 = Game::new(&dag2, 4);
        g2.apply_all([Move::Read(0), Move::Read(1), Move::Compute(2)]).unwrap();
        assert!(matches!(
            g2.apply(Move::Slide { from: 2, to: 3 }),
            Err(GameError::PredNotRed { vertex: 3, missing: 2 })
        ));
        // Sliding onto an input is rejected.
        assert!(matches!(
            game.apply(Move::Slide { from: 1, to: 0 }),
            Err(GameError::ComputeInput(0))
        ));
    }

    #[test]
    fn error_messages_render() {
        for e in [
            GameError::NotBlue(1),
            GameError::NotRed(2),
            GameError::PredNotRed { vertex: 3, missing: 1 },
            GameError::ComputeInput(0),
            GameError::CapacityExceeded { s: 4 },
            GameError::NothingToRemove(5),
            GameError::BadVertex(6),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
