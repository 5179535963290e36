//! Property tests: every wire frame round-trips through the codec.
//!
//! Strategies generate every `Request` and `Response` variant with
//! adversarial field content (empty strings, control characters,
//! non-ASCII, extreme integers, awkward floats) and assert
//! `decode(encode(frame)) == frame` exactly — the daemon and client
//! never disagree about a frame they exchanged.

use lattice_serve::json;
use lattice_serve::protocol::{
    FaultSpec, Query, ReportFrame, Request, Response, SessionSpec, SessionStat, StatsFrame,
};
use proptest::{
    any, collection, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, Strategy,
};

/// A plausible session name (the daemon's validation is separate; the
/// codec must carry any string faithfully, so no charset restriction).
fn string_strategy() -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..12).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| match b % 6 {
                0 => '\\',
                1 => '"',
                2 => char::from(b % 0x20), // control chars
                3 => 'λ',                  // non-ASCII
                4 => char::from(b'a' + (b % 26)),
                _ => char::from(b'0' + (b % 10)),
            })
            .collect()
    })
}

/// A `u64` within the codec's documented 2^53 exact-integer window
/// (JSON numbers are f64-backed; larger integers are out of contract).
fn u53() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|n| n % (1u64 << 53))
}

/// An `i64` within ±2^53, the codec's exact signed window.
fn i53() -> impl Strategy<Value = i64> {
    any::<i64>().prop_map(|n| n % (1i64 << 53))
}

/// Finite f64 values, including negatives, zeros, and values with
/// long shortest-round-trip representations.
fn f64_strategy() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            // Map the non-finite draw to a representable fraction.
            (bits % 1_000_000_007) as f64 / 64.0
        }
    })
}

fn fault_strategy() -> impl Strategy<Value = Option<FaultSpec>> {
    prop_oneof![
        Just(None),
        ((u53(), u53(), u53(), u53()), (u53(), u53(), u53(), u53()), (u53(), u53(), 0usize..2))
            .prop_map(|((seed, link, stuck, wd), (mr, ar, lr, ret), (board, pass, kind))| {
                Some(FaultSpec {
                    seed: (seed % 2 == 0).then_some(seed),
                    link_rate: (link % 101) as f64 / 100.0,
                    stuck_link: (stuck % 3 == 0).then_some((stuck % 8) as usize),
                    watchdog_ms: (wd % 2 == 0).then_some(wd % 10_000),
                    max_retries: (mr % 8) as u32,
                    arq_retries: (ar % 8) as u32,
                    local_retries: (lr % 8) as u32,
                    max_retired: (ret % 4) as usize,
                    fail_board: (board % 8) as usize,
                    fail_pass: (pass % 2 == 0).then_some(pass % 1000),
                    fail_kind: ["die", "hang"][kind].to_string(),
                    hang_ms: board % 5000,
                })
            }),
    ]
}

fn spec_strategy() -> impl Strategy<Value = SessionSpec> {
    (
        (0usize..4, 1usize..200, 1usize..200, u53()),
        (1usize..8, 0usize..3, 1usize..5, 1usize..5, 1usize..5),
        (any::<bool>(), any::<bool>(), any::<bool>(), u53()),
        fault_strategy(),
    )
        .prop_map(
            |(
                (m, rows, cols, seed),
                (shards, e, width, slice_width, depth),
                (periodic, overlap, throttled, link),
                fault,
            )| {
                SessionSpec {
                    model: ["hpp", "fhp1", "fhp2", "fhp3"][m].to_string(),
                    rows,
                    cols,
                    seed,
                    density: (seed % 101) as f64 / 100.0,
                    shards,
                    engine: ["wsa", "spa", "wsa"][e].to_string(),
                    width,
                    slice_width,
                    depth,
                    periodic,
                    overlap,
                    link_bits: throttled.then_some((link % 100_000) as f64 / 8.0 + 0.125),
                    grid: (seed % 2 == 0)
                        .then_some(((seed % 5) as usize + 1, (link % 5) as usize + 1)),
                    tier_bits: (seed % 4 == 0).then_some((link % 977) as f64 / 4.0 + 0.25),
                    fault,
                }
            },
        )
}

fn query_strategy() -> impl Strategy<Value = Query> {
    prop_oneof![
        Just(Query::Report),
        Just(Query::Observables),
        (u53(), u53(), u53(), u53()).prop_map(|(a, b, c, d)| {
            Query::Region {
                row0: (a % 1000) as usize,
                col0: (b % 1000) as usize,
                rows: (c % 1000) as usize,
                cols: (d % 1000) as usize,
            }
        }),
    ]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        (string_strategy(), spec_strategy())
            .prop_map(|(session, spec)| Request::Create { session, spec }),
        (string_strategy(), u53(), prop_oneof![Just(None), string_strategy().prop_map(Some)])
            .prop_map(|(session, n, id)| Request::Step { session, n, id }),
        (string_strategy(), query_strategy())
            .prop_map(|(session, what)| Request::QueryReq { session, what }),
        string_strategy().prop_map(|session| Request::Checkpoint { session }),
        string_strategy().prop_map(|session| Request::Destroy { session }),
        u53().prop_map(|watch| Request::Stats { watch: watch.max(1) }),
        Just(Request::Shutdown),
    ]
}

fn report_strategy() -> impl Strategy<Value = ReportFrame> {
    (
        (string_strategy(), u53(), u53(), u53()),
        (u53(), u53(), u53(), u53()),
        (u53(), u53(), u53(), u53(), u53()),
        (f64_strategy(), f64_strategy()),
    )
        .prop_map(
            |(
                (session, time, passes, machine_ticks),
                (halo, over, rt, r),
                (rb, lrb, det, ret, ck),
                (sps, hbpt),
            )| {
                ReportFrame {
                    session,
                    time,
                    passes,
                    machine_ticks,
                    halo_ticks: halo,
                    overlapped_ticks: over,
                    retransmit_ticks: rt,
                    retransmits: r,
                    rollbacks: rb,
                    local_rollbacks: lrb,
                    detected: det,
                    boards_retired: ret,
                    checkpoints: ck,
                    sites_per_sec: sps,
                    halo_bits_per_tick: hbpt,
                }
            },
        )
}

fn stats_strategy() -> impl Strategy<Value = StatsFrame> {
    (
        collection::vec(
            (string_strategy(), 0usize..4, u53(), u53(), u53(), f64_strategy()).prop_map(
                |(session, st, time, passes, steps, link_demand)| SessionStat {
                    session,
                    state: ["live", "queued", "evicted", "poisoned"][st].to_string(),
                    time,
                    passes,
                    steps,
                    link_demand,
                },
            ),
            0..5,
        ),
        (u53(), u53(), u53(), u53()),
        (any::<bool>(), f64_strategy(), f64_strategy(), f64_strategy()),
        (u53(), u53()),
    )
        .prop_map(
            |(
                sessions,
                (live, queued, evicted, poisoned),
                (cap, capacity, admitted, util),
                (requests, steps_served),
            )| {
                StatsFrame {
                    sessions,
                    live,
                    queued,
                    evicted,
                    poisoned,
                    link_capacity: cap.then_some(capacity),
                    link_admitted: admitted,
                    utilization: util,
                    requests,
                    steps_served,
                }
            },
        )
}

/// Region frames: empty ones, widths on and off the 64-site word
/// boundary, and site values of every bit length 0..=8 (so every plane
/// count the encoder can choose).
fn region_strategy() -> impl Strategy<Value = Response> {
    (
        (string_strategy(), u53(), 0usize..6, 0usize..200),
        (0u32..=8, collection::vec(any::<u8>(), 0..256)),
    )
        .prop_map(|((session, time, rows, cols), (bits, bytes))| {
            let mask = ((1u16 << bits) - 1) as u8;
            let cells = (0..rows * cols)
                .map(|i| bytes.get(i % bytes.len().max(1)).copied().unwrap_or(0) & mask)
                .collect();
            Response::Region { session, time, row0: rows, col0: cols, rows, cols, cells }
        })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        (string_strategy(), any::<bool>())
            .prop_map(|(session, admitted)| Response::Created { session, admitted }),
        (string_strategy(), u53(), u53()).prop_map(|(session, time, passes)| Response::Stepped {
            session,
            time,
            passes
        }),
        report_strategy().prop_map(Response::Report),
        (string_strategy(), u53(), u53(), i53(), i53(), u53()).prop_map(
            |(session, time, mass, px, py, obstacles)| Response::Observables {
                session,
                time,
                mass,
                px,
                py,
                obstacles,
            }
        ),
        region_strategy(),
        (string_strategy(), u53())
            .prop_map(|(session, time)| Response::Checkpointed { session, time }),
        (string_strategy(), collection::vec(string_strategy(), 0..4))
            .prop_map(|(session, promoted)| Response::Destroyed { session, promoted }),
        stats_strategy().prop_map(Response::Stats),
        Just(Response::Bye),
        string_strategy().prop_map(|message| Response::Error { message }),
    ]
}

proptest! {
    #[test]
    fn every_request_frame_round_trips(req in request_strategy()) {
        let line = req.to_line();
        let back = Request::from_line(&line);
        prop_assert_eq!(back.as_ref(), Ok(&req), "line: {line}");
    }

    #[test]
    fn every_response_frame_round_trips(resp in response_strategy()) {
        let line = resp.to_line();
        let back = Response::from_line(&line);
        prop_assert_eq!(back.as_ref(), Ok(&resp), "line: {line}");
    }

    #[test]
    fn region_frames_round_trip_at_the_length_rule(resp in region_strategy()) {
        let line = resp.to_line();
        let back = Response::from_line(&line);
        prop_assert_eq!(back.as_ref(), Ok(&resp), "line: {line}");
        let Response::Region { rows, cols, cells, .. } = &resp else { unreachable!() };
        // Planes follow the checkpoint rule, and the hex length is
        // exactly what the header implies.
        let planes = (8 - cells.iter().fold(0u8, |a, &c| a | c).leading_zeros() as usize).max(1);
        let frame = json::parse(&line).unwrap();
        prop_assert_eq!(frame.get("planes").and_then(json::Value::as_usize), Some(planes));
        let sites = frame.get("sites").and_then(json::Value::as_str).unwrap_or_default();
        prop_assert_eq!(sites.len(), planes * rows * cols.div_ceil(64) * 16);
    }

    #[test]
    fn encoded_frames_are_single_lines(req in request_strategy(), resp in response_strategy()) {
        // The transport frames by newline, so an encoded frame must
        // never contain a literal one (escaping handles embedded \n).
        prop_assert!(!req.to_line().contains('\n'));
        prop_assert!(!resp.to_line().contains('\n'));
    }
}

/// A well-formed region frame with the given header fields and sites.
fn region_line(rows: &str, cols: &str, planes: &str, sites: &str) -> String {
    format!(
        r#"{{"ok":true,"kind":"region","session":"s","time":3,"row0":0,"col0":0,"rows":{rows},"cols":{cols},"planes":{planes},"sites":"{sites}"}}"#
    )
}

/// Decodes `line`, which must be rejected with an error naming `what`.
fn rejected(line: &str, what: &str) {
    match Response::from_line(line) {
        Err(e) => assert!(e.to_string().contains(what), "{e} should name {what:?}; line: {line}"),
        Ok(resp) => panic!("accepted {resp:?} from {line}"),
    }
}

#[test]
fn region_decoder_rejects_every_pinned_bad_frame() {
    // The reference: a 2×3 region at 2 planes, one word per plane row.
    let good = Response::Region {
        session: "s".into(),
        time: 3,
        row0: 0,
        col0: 0,
        rows: 2,
        cols: 3,
        cells: vec![1, 2, 3, 0, 1, 2],
    };
    let line = good.to_line();
    assert_eq!(
        line,
        region_line(
            "2",
            "3",
            "2",
            "00000000000000050000000000000002\
             00000000000000060000000000000004"
        )
    );
    assert_eq!(Response::from_line(&line), Ok(good));

    // rows × cols overflows the address space.
    rejected(&region_line("4294967296", "4294967296", "1", ""), "overflows");
    // A 2^40-row header with one word of payload: the length rule
    // refuses it before anything is allocated.
    rejected(&region_line("1099511627776", "1", "1", &"0".repeat(16)), "implies");
    // One nibble short, and one too many.
    let hex = "0000000000000005000000000000000200000000000000060000000000000004";
    rejected(&region_line("2", "3", "2", &hex[1..]), "implies");
    rejected(&region_line("2", "3", "2", &format!("{hex}0")), "implies");
    // Non-hex digits, uppercase included.
    for junk in ["g", "F", " ", "λ"] {
        let bad = format!("{junk}{}", &hex[junk.len()..]);
        rejected(&region_line("2", "3", "2", &bad), "region sites");
    }
    // Padding bits past the row's last site.
    rejected(&region_line("2", "3", "2", &format!("000000000000000d{}", &hex[16..])), "padding");
    // Planes outside 1..=8.
    rejected(&region_line("1", "1", "9", &"0".repeat(9 * 16)), "planes");
    rejected(&region_line("0", "0", "0", ""), "planes");
    // The obsolete number-array shape is refused by name.
    rejected(
        r#"{"ok":true,"kind":"region","session":"s","time":3,"row0":0,"col0":0,"rows":1,"cols":2,"cells":[1,2]}"#,
        "obsolete",
    );
}

/// The `sites` hex the region frame format states for `cells`, written
/// out site by site: planes in order, each plane's rows in order, each
/// row as ⌈cols/64⌉ words where bit `j` of word `w` is bit `p` of site
/// `64w + j`, every word as 16 lowercase hex digits, most significant
/// first.
fn stated_hex(cells: &[u8], cols: usize, planes: usize) -> String {
    let mut hex = String::new();
    for p in 0..planes {
        for row in cells.chunks(cols) {
            for w in 0..cols.div_ceil(64) {
                let word = (0..64)
                    .filter_map(|j| row.get(64 * w + j).map(|s| u64::from(s >> p & 1) << j))
                    .fold(0u64, |a, b| a | b);
                hex.push_str(&format!("{word:016x}"));
            }
        }
    }
    hex
}

#[test]
fn region_frames_carry_the_stated_hex() {
    // Sites of every bit length up to 8, on widths that fill whole
    // words and leave ragged ones, with a hashed pattern per site.
    for (rows, cols) in [(1, 1), (3, 64), (2, 70), (4, 130), (5, 200)] {
        for bits in [1u32, 4, 6, 8] {
            let mask = ((1u16 << bits) - 1) as u8;
            let cells: Vec<u8> = (0..rows * cols)
                .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8 & mask)
                .collect();
            let planes =
                (8 - cells.iter().fold(0u8, |a, &c| a | c).leading_zeros() as usize).max(1);
            let resp = Response::Region {
                session: "s".into(),
                time: 3,
                row0: 0,
                col0: 0,
                rows,
                cols,
                cells: cells.clone(),
            };
            let line = resp.to_line();
            let frame = json::parse(&line).unwrap();
            assert_eq!(frame.get("planes").and_then(json::Value::as_usize), Some(planes));
            let sites = frame.get("sites").and_then(json::Value::as_str).unwrap_or_default();
            assert_eq!(sites, stated_hex(&cells, cols, planes), "{rows}x{cols} at {bits} bits");
            assert_eq!(Response::from_line(&line), Ok(resp));
        }
    }
}
