//! The inter-board halo link: finite bandwidth, end-to-end stream
//! parity, and fault injection.
//!
//! Boards exchange halo columns once per pass over point-to-point links
//! that are slower than on-board wires — the same bandwidth wall §8
//! meets at the host/memory channel, moved up one packaging level. The
//! link model mirrors `lattice_engines_sim::memory`: a sustained
//! bits-per-tick capacity, with transfer time given by the closed-form
//! token-bucket result (`StallSim` agrees; tested). Integrity mirrors
//! the inter-chip links: sender and receiver each fold the halo stream
//! into a [`StreamParity`] word, so any single flipped, dropped, or
//! duplicated site surfaces as [`LatticeError::Corrupted`] naming the
//! board's link — the farm's rollback trigger.

use lattice_core::bits::{StreamParity, Traffic};
use lattice_core::units::{u64_from_usize, Bits, BitsPerTick, Ticks};
use lattice_core::{LatticeError, State};
use lattice_engines_sim::{Component, FaultCtx};

/// An inter-board link of finite sustained bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoardLink {
    /// Sustained capacity per engine clock tick;
    /// [`BitsPerTick::UNTHROTTLED`] models a link that is never the
    /// bottleneck.
    pub capacity: BitsPerTick,
}

impl BoardLink {
    /// A link supplying `bits_per_tick` bits per engine tick.
    pub fn new(bits_per_tick: f64) -> Self {
        assert!(bits_per_tick > 0.0, "link capacity must be positive");
        BoardLink { capacity: BitsPerTick::new(bits_per_tick) }
    }

    /// A link of the given typed capacity.
    pub fn with_capacity(capacity: BitsPerTick) -> Self {
        assert!(capacity > BitsPerTick::ZERO, "link capacity must be positive");
        BoardLink { capacity }
    }

    /// A link that never stalls the farm.
    pub fn unthrottled() -> Self {
        BoardLink { capacity: BitsPerTick::UNTHROTTLED }
    }

    /// A link specified like a [`lattice_engines_sim::HostLink`]:
    /// sustained bytes per second against the engine clock.
    pub fn from_bandwidth(bytes_per_second: f64, clock_hz: f64) -> Self {
        BoardLink::new(bytes_per_second * 8.0 / clock_hz)
    }

    /// Engine ticks the link occupies moving `bits`:
    /// `⌈bits / capacity⌉`, the closed-form result of the
    /// `sim::memory` token bucket. An unthrottled link is free.
    pub fn transfer_ticks(&self, bits: Bits) -> Ticks {
        self.capacity.ticks_to_move(bits)
    }

    /// Moves `sites` across the link into board `board`. The sender
    /// folds every site into a parity word as it serializes, the wire
    /// (optionally) corrupts under `faults` — a [`Component::Link`]
    /// fault context plus this link's physical chip id — and the
    /// receiver folds what arrived. A parity disagreement returns
    /// [`LatticeError::Corrupted`] naming the board's halo link;
    /// otherwise the received (possibly silently corrupted — parity is
    /// not ECC) sites are returned. `pos` is the link's running stream
    /// position (the transient-fault key) and `traffic` tallies `D`
    /// bits out of the sender and into the receiver per site.
    ///
    /// Without a fault context the wire cannot change a site, so the
    /// receiver's fold is the sender's and is not computed twice; the
    /// frame's traffic is billed once, `n · D` each way.
    pub fn transmit<S: State>(
        &self,
        sites: &[S],
        board: usize,
        faults: Option<(FaultCtx<'_>, usize)>,
        pos: &mut u64,
        traffic: &mut Traffic,
    ) -> Result<Vec<S>, LatticeError> {
        let n = sites.len();
        let mut sent = StreamParity::new();
        sent.absorb_slice(sites);
        traffic.record_out(u128::from(u64_from_usize(n)), S::BITS);
        traffic.record_in(u128::from(u64_from_usize(n)), S::BITS);
        let start = *pos;
        *pos += u64_from_usize(n);
        let Some((ctx, chip)) = faults else {
            return Ok(sites.to_vec());
        };
        let wire = ctx.stream(Component::Link, chip, 0);
        let out: Vec<S> =
            (start..).zip(sites).map(|(p, &site)| wire.corrupt_site(p, site)).collect();
        let mut recv = StreamParity::new();
        recv.absorb_slice(&out);
        if let Some(detail) = recv.mismatch(&sent) {
            return Err(LatticeError::Corrupted {
                site: format!("board {board} halo link"),
                detail,
            });
        }
        Ok(out)
    }

    /// [`BoardLink::transmit`] with link-level ARQ: a parity mismatch
    /// triggers a retransmission of the whole frame, up to `retries`
    /// times, before the failure is allowed to escalate off the link.
    ///
    /// Every attempt advances `pos` by the frame length (the wire does
    /// not rewind), so a retransmission sees fresh transient weather —
    /// which is exactly why ARQ clears soft errors — while a stuck-at
    /// link fault corrupts every attempt and exhausts the budget.
    /// `traffic` tallies every attempt: retransmitted bits are real
    /// bits. `retransmits` is set to the number of retransmissions used
    /// whether the call succeeds or not (`0` = first attempt was
    /// clean) — each one is a detected-and-absorbed parity failure, and
    /// the recovery ladder's accounting needs the count even when the
    /// budget exhausts. On `Err`, `retries + 1` attempts all failed and
    /// the failure escalates off the link.
    #[allow(clippy::too_many_arguments)]
    pub fn transmit_arq<S: State>(
        &self,
        sites: &[S],
        board: usize,
        faults: Option<(FaultCtx<'_>, usize)>,
        pos: &mut u64,
        traffic: &mut Traffic,
        retries: u32,
        retransmits: &mut u32,
    ) -> Result<Vec<S>, LatticeError> {
        *retransmits = 0;
        loop {
            match self.transmit(sites, board, faults, pos, traffic) {
                Ok(out) => return Ok(out),
                Err(_) if *retransmits < retries => *retransmits += 1,
                Err(e) => return Err(e),
            }
        }
    }
}

/// The receiver-side second in-flight buffer that makes overlapped
/// exchange possible: while a board is still consuming pass `n`'s halo
/// frame, the frame for pass `n + 1` — shipped during pass `n`'s
/// interior sweep — sits staged here until the arrival barrier at the
/// top of the next pass claims it.
///
/// The window is one pass deep (frame being consumed + one staged =
/// double buffering), and the discipline is enforced as structured
/// errors rather than debug assertions because a violation means the
/// farm's barrier accounting leaked, which the recovery ladder must see:
///
/// * [`HaloWindow::stage`] fails if a frame is already staged — a board
///   may never run two passes ahead of its neighbor.
/// * [`HaloWindow::take`] fails on a *future* tag (the sender skipped a
///   barrier). A *stale* tag is silently dropped and `None` returned:
///   that is the normal aftermath of a rollback, and the caller simply
///   re-transmits at the barrier, serialized.
///
/// ARQ interaction: frames are staged *after* [`BoardLink::transmit_arq`]
/// has delivered them, so a staged frame is already parity-clean and
/// carries the retransmission count its transfer burned; retransmitted
/// bits stretch the (overlapped) transfer, never the staged payload.
/// A rollback between staging and consumption invalidates the frame via
/// [`HaloWindow::invalidate`] — replayed passes draw a fresh attempt
/// epoch, so a stale frame's weather must never be replayed as new.
#[derive(Debug, Clone, Default)]
pub struct HaloWindow<T> {
    slot: Option<(u64, T)>,
}

impl<T> HaloWindow<T> {
    /// An empty window: nothing in flight.
    pub fn new() -> Self {
        HaloWindow { slot: None }
    }

    /// Stages the frame for `pass`. Fails if a frame is already in
    /// flight — the sender tried to run more than one pass ahead.
    pub fn stage(&mut self, pass: u64, frame: T) -> Result<(), LatticeError> {
        if let Some((staged, _)) = &self.slot {
            return Err(LatticeError::InvalidConfig(format!(
                "halo window leak: staging pass {pass} while pass {staged} is still in flight"
            )));
        }
        self.slot = Some((pass, frame));
        Ok(())
    }

    /// Claims the frame for `pass` at the arrival barrier. `Ok(None)`
    /// means no usable frame is staged (empty, or a stale frame from
    /// before a rollback, which is dropped) and the caller must
    /// transmit at the barrier instead. A frame tagged *later* than
    /// `pass` is a barrier leak and fails.
    pub fn take(&mut self, pass: u64) -> Result<Option<T>, LatticeError> {
        match self.slot.take() {
            None => Ok(None),
            Some((staged, frame)) if staged == pass => Ok(Some(frame)),
            Some((staged, _)) if staged < pass => Ok(None),
            Some((staged, _)) => Err(LatticeError::InvalidConfig(format!(
                "halo window leak: pass {pass} found a frame already staged for pass {staged}"
            ))),
        }
    }

    /// Drops any staged frame (rollback path). Returns whether a frame
    /// was discarded.
    pub fn invalidate(&mut self) -> bool {
        self.slot.take().is_some()
    }

    /// The pass tag of the staged frame, if any.
    pub fn staged_pass(&self) -> Option<u64> {
        self.slot.as_ref().map(|(p, _)| *p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lattice_engines_sim::{Fault, FaultKind, FaultPlan, StallSim};

    #[test]
    fn halo_window_is_one_pass_deep() {
        let mut w = HaloWindow::new();
        w.stage(1, "frame-1").unwrap();
        assert_eq!(w.staged_pass(), Some(1));
        let err = w.stage(2, "frame-2").unwrap_err();
        assert!(err.to_string().contains("halo window leak"), "{err}");
        assert_eq!(w.take(1).unwrap(), Some("frame-1"));
        // Consuming frees the slot for the next pass's frame.
        w.stage(2, "frame-2").unwrap();
        assert_eq!(w.take(2).unwrap(), Some("frame-2"));
        assert_eq!(w.take(3).unwrap(), None, "empty window means transmit at the barrier");
    }

    #[test]
    fn stale_frames_are_dropped_and_future_frames_are_leaks() {
        // A rollback rewound the farm past pass 4; the staged frame for
        // it is stale weather and must not be replayed.
        let mut w = HaloWindow::new();
        w.stage(4, vec![1u8, 2, 3]).unwrap();
        assert_eq!(w.take(7).unwrap(), None, "stale frame dropped, not delivered");
        assert_eq!(w.staged_pass(), None, "the drop also cleared the slot");

        // A frame from the future means a board skipped a barrier.
        w.stage(9, vec![9u8]).unwrap();
        let err = w.take(8).unwrap_err();
        assert!(err.to_string().contains("staged for pass 9"), "{err}");
    }

    #[test]
    fn invalidate_clears_the_rollback_path() {
        let mut w: HaloWindow<u32> = HaloWindow::new();
        assert!(!w.invalidate(), "nothing staged, nothing dropped");
        w.stage(2, 7).unwrap();
        assert!(w.invalidate());
        assert_eq!(w.take(2).unwrap(), None, "invalidated frames force a barrier transmit");
    }

    #[test]
    fn transfer_time_matches_the_stall_simulation() {
        // In the throttled regime (supply below one site per tick) the
        // closed form must agree with sim::memory's discrete token
        // bucket delivering 8-bit sites.
        for supply in [1.0f64, 3.0, 5.0, 7.5] {
            let link = BoardLink::new(supply);
            for n_sites in [1usize, 10, 64, 257] {
                let mut sim = StallSim::new(supply, 8.0);
                let mut ticks = 0u64;
                while sim.productive_ticks() < n_sites as u64 {
                    sim.tick();
                    ticks += 1;
                }
                let closed = link.transfer_ticks(Bits::for_items(n_sites, 8)).get();
                assert!(
                    closed.abs_diff(ticks) <= 1,
                    "supply {supply}, {n_sites} sites: closed {closed} vs sim {ticks}"
                );
            }
        }
    }

    #[test]
    fn unthrottled_and_empty_transfers_are_free() {
        let bits = |b: u128| Bits::new(b);
        assert_eq!(BoardLink::unthrottled().transfer_ticks(bits(1 << 40)), Ticks::ZERO);
        assert_eq!(BoardLink::new(16.0).transfer_ticks(bits(0)), Ticks::ZERO);
        assert_eq!(BoardLink::new(16.0).transfer_ticks(bits(160)), Ticks::new(10));
        assert_eq!(BoardLink::new(16.0).transfer_ticks(bits(161)), Ticks::new(11));
    }

    #[test]
    fn bandwidth_constructor_matches_hostlink_arithmetic() {
        // 40 MB/s at 10 MHz = 32 bits/tick, §8's prototype figure.
        let link = BoardLink::from_bandwidth(40e6, 10e6);
        assert!((link.capacity.get() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn clean_transmission_is_identity_and_counted() {
        let sites: Vec<u8> = (0..50).collect();
        let mut pos = 0u64;
        let mut traffic = Traffic::new();
        let got =
            BoardLink::unthrottled().transmit(&sites, 3, None, &mut pos, &mut traffic).unwrap();
        assert_eq!(got, sites);
        assert_eq!(pos, 50);
        assert_eq!(traffic.bits_in, 400);
        assert_eq!(traffic.bits_out, 400);
    }

    #[test]
    fn a_flipped_halo_site_trips_parity_and_names_the_board() {
        let plan = FaultPlan::new(9).with_fault(Fault {
            component: Component::Link,
            chip: Some(7),
            cell: None,
            kind: FaultKind::Transient { bit: 0, rate: 1.0 },
        });
        let ctx = FaultCtx::new(&plan);
        let sites: Vec<u8> = vec![0; 16];
        let mut pos = 0u64;
        let mut traffic = Traffic::new();
        let err = BoardLink::unthrottled()
            .transmit(&sites, 2, Some((ctx, 7)), &mut pos, &mut traffic)
            .unwrap_err();
        assert!(err.to_string().contains("board 2 halo link"), "{err}");
        assert!(plan.stats().link >= 1);

        // A fault bound to a different link's chip leaves this one clean.
        let mut pos2 = 0u64;
        let got = BoardLink::unthrottled()
            .transmit(&sites, 2, Some((ctx, 6)), &mut pos2, &mut traffic)
            .unwrap();
        assert_eq!(got, sites);
    }

    #[test]
    fn arq_absorbs_a_transient_and_advances_the_stream() {
        // Rate chosen so the first frame is corrupted under this seed
        // but a retransmission (fresh positions) comes through clean.
        let plan = FaultPlan::new(41).with_fault(Fault {
            component: Component::Link,
            chip: Some(3),
            cell: None,
            kind: FaultKind::Transient { bit: 2, rate: 0.02 },
        });
        let ctx = FaultCtx::new(&plan);
        let sites: Vec<u8> = (0..64).collect();
        let link = BoardLink::new(8.0);
        let mut pos = 0u64;
        let mut traffic = Traffic::new();
        let mut used = 0u32;
        let got = link
            .transmit_arq(&sites, 1, Some((ctx, 3)), &mut pos, &mut traffic, 8, &mut used)
            .unwrap();
        assert_eq!(got, sites, "the delivered frame is the clean one");
        assert!(used >= 1, "seed 41 at 0.02/site must corrupt the first frame");
        // The wire never rewinds: every attempt advanced the stream and
        // was billed as real traffic.
        assert_eq!(pos, (used as u64 + 1) * 64);
        assert_eq!(traffic.bits_out, (used as u64 + 1) as u128 * 64 * 8);

        // A clean link is byte-identical to plain transmit.
        let mut p0 = 0u64;
        let mut p1 = 0u64;
        let mut t = Traffic::new();
        let plain = link.transmit(&sites, 1, None, &mut p0, &mut t).unwrap();
        let arq = link.transmit_arq(&sites, 1, None, &mut p1, &mut t, 3, &mut used).unwrap();
        assert_eq!((plain, used, p0), (arq, 0, p1));
    }

    #[test]
    fn arq_budget_exhausts_on_a_stuck_link() {
        // A stuck-at fault corrupts every attempt: retransmission can
        // never clear it, so the error escalates after retries + 1 tries.
        let plan = FaultPlan::new(5).with_fault(Fault {
            component: Component::Link,
            chip: Some(9),
            cell: None,
            kind: FaultKind::StuckAt { bit: 0, value: true },
        });
        let ctx = FaultCtx::new(&plan);
        let sites: Vec<u8> = vec![0; 10];
        let mut pos = 0u64;
        let mut traffic = Traffic::new();
        let mut used = 0u32;
        let err = BoardLink::unthrottled()
            .transmit_arq(&sites, 0, Some((ctx, 9)), &mut pos, &mut traffic, 4, &mut used)
            .unwrap_err();
        assert!(err.to_string().contains("board 0 halo link"), "{err}");
        assert_eq!(used, 4, "every retry was burned before escalation");
        assert_eq!(pos, 5 * 10, "retries + 1 attempts all crossed the wire");
    }
}
