//! Adversarial decoder properties: arbitrary byte junk, truncated
//! frames, and oversized inputs fed straight into `serve::json` and
//! `serve::protocol` never panic and always come back as a structured
//! error (or a valid frame) — the "a hostile peer cannot crash the
//! daemon" half of the transport-hardening contract, tested below the
//! socket.

use lattice_serve::json;
use lattice_serve::protocol::{Request, Response};
use proptest::{any, collection, prop_assert, prop_oneof, proptest, Just, Strategy};

/// Raw bytes forced through lossy UTF-8, as the transport would
/// deliver them after its own UTF-8 gate rejected the invalid case.
fn junk_strategy() -> impl Strategy<Value = String> {
    collection::vec(any::<u8>(), 0..256)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Near-miss frames: start from a valid encoding, then truncate,
/// duplicate, or splice bytes — the shapes a dropped connection or a
/// corrupted stream actually produces.
fn mangled_strategy() -> impl Strategy<Value = String> {
    let seeds = prop_oneof![
        Just(Request::Shutdown.to_line()),
        Just(Request::Step { session: "s".into(), n: 3, id: Some("id-1".into()) }.to_line()),
        Just(Request::Create { session: "s".into(), spec: Default::default() }.to_line()),
        Just(Response::Bye.to_line()),
        Just(Response::Error { message: "m".into() }.to_line()),
        Just(
            Response::Region {
                session: "s".into(),
                time: 1,
                row0: 0,
                col0: 0,
                rows: 2,
                cols: 70,
                cells: (0..140u8).collect(),
            }
            .to_line()
        ),
    ];
    (seeds, any::<u64>()).prop_map(|(line, salt)| {
        let cut = (salt as usize) % (line.len() + 1);
        match salt % 4 {
            0 => line[..cut].to_string(),                       // truncated
            1 => format!("{line}{line}"),                       // two frames, no newline
            2 => line.replace('"', ""),                         // quotes stripped
            _ => format!("{}{}", &line[..cut], "\u{0}garbage"), // spliced junk
        }
    })
}

/// Deeply nested input probing the parser's recursion guard.
fn deep_strategy() -> impl Strategy<Value = String> {
    (1usize..600).prop_map(|depth| {
        let mut s = String::new();
        for _ in 0..depth {
            s.push('[');
        }
        s.push('1');
        for _ in 0..depth {
            s.push(']');
        }
        s
    })
}

proptest! {
    #[test]
    fn json_parser_never_panics_on_junk(input in prop_oneof![
        junk_strategy(), mangled_strategy(), deep_strategy(),
    ]) {
        // Ok(value) or Err(ParseError) are both acceptable; a panic
        // would abort the proptest run and fail here.
        let _ = json::parse(&input);
    }

    #[test]
    fn frame_decoders_never_panic_and_errors_are_structured(input in prop_oneof![
        junk_strategy(), mangled_strategy(), deep_strategy(),
    ]) {
        if let Err(e) = Request::from_line(&input) {
            prop_assert!(!e.to_string().is_empty());
        }
        if let Err(e) = Response::from_line(&input) {
            prop_assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn oversized_numeric_and_string_fields_are_rejected_not_panicked(
        n in any::<u64>(),
        pad in 0usize..4096,
    ) {
        // Integers beyond 2^53 are out of the codec's exact window and
        // huge padding strings must be carried or rejected — never a
        // crash, and a decode failure must name the field.
        let line = format!(
            "{{\"op\":\"step\",\"session\":\"{}\",\"n\":{n}}}",
            "x".repeat(pad)
        );
        match Request::from_line(&line) {
            Ok(Request::Step { n: parsed, .. }) => prop_assert!(parsed == n),
            Ok(_) => prop_assert!(false, "decoded to a different op"),
            Err(e) => prop_assert!(e.to_string().contains('n')),
        }
    }
}
