//! `lattice-lint` — a workspace invariant checker for the
//! lattice-engines crates.
//!
//! The typed-units layer in `lattice_core::units` makes dimension
//! errors unrepresentable *where it is used*; this crate closes the
//! gaps the type system cannot see:
//!
//! * **raw-cast** — no raw `as` numeric casts in the model/accounting
//!   modules. Conversions must go through the named helpers in
//!   `core::units` (`f64_from_u64`, `u32_from_f64_floor`, …) so every
//!   narrowing is a visible, grep-able decision.
//! * **bare-float** — no new bare `f64` declarations in those same
//!   modules; dimensioned quantities carry `Secs`/`Hz`/`BitsPerTick`/…
//!   newtypes instead. Pre-existing, deliberate `f64`s (pure ratios,
//!   technology constants) are frozen in the baseline and may only
//!   shrink.
//! * **no-panic** — no `unwrap()` / `expect(` / `panic!` /
//!   `unreachable!` / `todo!` / `unimplemented!` in library crates
//!   outside test code. Fallible paths return `LatticeError`.
//! * **fs-write** — direct `std::fs` write/rename calls are confined
//!   to the audited durable-store module
//!   (`crates/core/src/checkpoint/store.rs`): every persistent byte
//!   must go through the store's write-to-temp + fsync + atomic-rename
//!   commit so crash atomicity is provable in one place. Reads are
//!   free.
//! * **raw-socket** — raw socket construction (`TcpListener::`,
//!   `TcpStream::`, …) is confined to the daemon's audited transport
//!   module (`crates/serve/src/transport.rs`): framing, flushing, and
//!   error mapping live in one place, and every other module speaks
//!   typed protocol frames through it.
//! * **counter-mutation** — the fault-recovery conservation set
//!   (`detected`, `retransmits`, `local_rollbacks`, `rollbacks`,
//!   `boards_retired`) may only be *mutated* inside the audited
//!   accounting modules: the farm's recovery ladder and pass accounts
//!   (`crates/farm/src/ladder.rs`, `crates/farm/src/pass.rs`) and
//!   `crates/sim/src/host.rs`, where the invariant
//!   `detected == retransmits + local_rollbacks + rollbacks +
//!   boards_retired` is maintained and asserted. Reads are free.
//!
//! Suppression is per-line and explicit: `// lattice-lint:
//! allow(rule)` on the offending line or the line above. Everything
//! else goes through the count-based ratchet baseline
//! (`lint-baseline.toml`): a file may never exceed its frozen count
//! for a rule, and shrinking the count below baseline is reported so
//! the baseline can be tightened.
//!
//! The checker is a hand-rolled lexer, not a proc-macro or `syn`
//! pass — the workspace builds offline with no registry access, so the
//! linter depends on nothing but `std`.

pub mod facts;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use lexer::{is_ident_char, lex};

/// The rules `lattice-lint` knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Raw `as` numeric cast in an audited model/accounting module.
    RawCast,
    /// Bare `f64` declaration in an audited model/accounting module.
    BareFloat,
    /// `unwrap()`/`expect(`/`panic!`/… in library code outside tests.
    NoPanic,
    /// Conservation-set counter mutated outside the audited modules.
    CounterMutation,
    /// `std::fs` write/rename call outside the audited durable-store
    /// module.
    FsWrite,
    /// Raw socket construction (`TcpListener::`/`TcpStream::`/…)
    /// outside the audited transport module.
    RawSocket,
    /// Wall-clock, environment, randomness, or default-hasher
    /// iteration in a result-affecting crate
    /// ([`rules::RESULT_AFFECTING`]).
    Determinism,
    /// Lock acquired against the declared global order
    /// ([`rules::LOCK_ORDER`]), an undeclared lock, or an acquisition
    /// cycle — a static deadlock guard over `serve` + `farm`.
    LockOrder,
    /// A `Request`/`Response` wire variant missing from the encoder,
    /// the decoder, or the test corpus.
    WireExhaustiveness,
}

impl Rule {
    /// Stable, user-facing rule name (used by `allow(...)` markers and
    /// the baseline file).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::RawCast => "raw-cast",
            Rule::BareFloat => "bare-float",
            Rule::NoPanic => "no-panic",
            Rule::CounterMutation => "counter-mutation",
            Rule::FsWrite => "fs-write",
            Rule::RawSocket => "raw-socket",
            Rule::Determinism => "determinism",
            Rule::LockOrder => "lock-order",
            Rule::WireExhaustiveness => "wire-exhaustiveness",
        }
    }

    /// Parses a rule name as written in an allow marker or baseline.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "raw-cast" => Some(Rule::RawCast),
            "bare-float" => Some(Rule::BareFloat),
            "no-panic" => Some(Rule::NoPanic),
            "counter-mutation" => Some(Rule::CounterMutation),
            "fs-write" => Some(Rule::FsWrite),
            "raw-socket" => Some(Rule::RawSocket),
            "determinism" => Some(Rule::Determinism),
            "lock-order" => Some(Rule::LockOrder),
            "wire-exhaustiveness" => Some(Rule::WireExhaustiveness),
            _ => None,
        }
    }

    /// All rules, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::RawCast,
        Rule::BareFloat,
        Rule::NoPanic,
        Rule::CounterMutation,
        Rule::FsWrite,
        Rule::RawSocket,
        Rule::Determinism,
        Rule::LockOrder,
        Rule::WireExhaustiveness,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule fired at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule that fired.
    pub rule: Rule,
    /// Path relative to the scanned root, with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.excerpt)
    }
}

impl Violation {
    /// One machine-readable ndjson record, consumed by CI to emit
    /// `::error file=…,line=…` annotations.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"violation\",\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.rule,
            json_escape(&self.file),
            self.line,
            json_escape(&self.excerpt)
        )
    }
}

/// Escapes a string for embedding in a JSON literal (hand-rolled — the
/// linter depends on nothing but `std`).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Fields of the fault-recovery conservation set. Mutations are legal
/// only inside [`COUNTER_AUDITED`].
pub const CONSERVATION_FIELDS: [&str; 5] =
    ["detected", "retransmits", "local_rollbacks", "rollbacks", "boards_retired"];

/// The only modules allowed to mutate the conservation set.
pub const COUNTER_AUDITED: [&str; 3] =
    ["crates/farm/src/ladder.rs", "crates/farm/src/pass.rs", "crates/sim/src/host.rs"];

/// The only module allowed to call `std::fs` write paths: the durable
/// checkpoint store, whose temp-file + fsync + rename commit is the
/// workspace's single audited crash-atomicity point.
pub const FS_AUDITED: [&str; 1] = ["crates/core/src/checkpoint/store.rs"];

/// The only module allowed to construct raw sockets: the daemon's
/// transport layer, where framing, flushing, and error mapping are
/// audited in one place. Everything else speaks typed protocol frames
/// through it.
pub const SOCKET_AUDITED: [&str; 1] = ["crates/serve/src/transport.rs"];

/// Model/accounting modules where `raw-cast` and `bare-float` apply:
/// everything that carries paper dimensions (α, β, γ, B, Γ, ticks,
/// bits, sites) through arithmetic.
pub const DIMENSIONED_MODULES: [&str; 4] =
    ["crates/vlsi/src/", "crates/farm/src/", "crates/sim/src/metrics.rs", "crates/sim/src/host.rs"];

const PANIC_MACROS: [&str; 4] = ["panic!", "unreachable!", "todo!", "unimplemented!"];

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// True when `path` (workspace-relative, `/`-separated) is library
/// source subject to `no-panic`: `crates/*/src/**`, excluding binary
/// targets, the bench harness, and the linter's own binary.
fn is_library_source(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !path.contains("/src/bin/")
        && !path.ends_with("/main.rs")
        && !path.starts_with("crates/bench/")
}

/// True when `path` is a dimension-carrying model/accounting module.
fn is_dimensioned_module(path: &str) -> bool {
    DIMENSIONED_MODULES.iter().any(
        |m| {
            if m.ends_with('/') {
                path.starts_with(m)
            } else {
                path == *m
            }
        },
    )
}

/// Reports raw `as <numeric>` casts on a blanked code line.
fn find_raw_casts(code: &str) -> bool {
    let mut search_from = 0;
    while let Some(rel) = code[search_from..].find(" as ") {
        let at = search_from + rel;
        search_from = at + 4;
        let after = code[at + 4..].trim_start();
        let ident: String = after.chars().take_while(|&c| is_ident_char(c)).collect();
        if NUMERIC_TYPES.contains(&ident.as_str()) {
            return true;
        }
    }
    false
}

/// Reports bare `f64` type ascriptions (`: f64`) on a blanked code
/// line. Function returns and casts are covered by `raw-cast` and the
/// units API; the declaration form is what lets an undimensioned
/// quantity take root.
fn find_bare_float(code: &str) -> bool {
    let mut search_from = 0;
    while let Some(rel) = code[search_from..].find(": f64") {
        let at = search_from + rel;
        search_from = at + 5;
        let end = at + 5;
        // `: f64>` (generic default), `: f64)` (param), `: f64,`,
        // `: f64;`, `: f64 ` all count; `: f64x` would not.
        if code[end..].chars().next().is_none_or(|c| !is_ident_char(c)) {
            return true;
        }
    }
    false
}

/// Reports panic-capable calls on a blanked code line.
fn find_panics(code: &str) -> bool {
    for needle in [".unwrap()", ".expect("] {
        if code.contains(needle) {
            return true;
        }
    }
    for mac in PANIC_MACROS {
        let mut search_from = 0;
        while let Some(rel) = code[search_from..].find(mac) {
            let at = search_from + rel;
            search_from = at + mac.len();
            let before_ok = at == 0 || !is_ident_char(code.as_bytes()[at - 1] as char);
            if before_ok {
                return true;
            }
        }
    }
    false
}

/// Reports `std::fs` write/rename calls on a blanked code line. Only
/// mutating entry points count — reads (`fs::read`, `read_dir`, …)
/// stay free — and the needle must be a call (`(` follows) whose path
/// segment starts cleanly (no ident char before), so `myfs::write(` or
/// `refs::rename(` do not fire.
fn find_fs_writes(code: &str) -> bool {
    const WRITE_CALLS: [&str; 10] = [
        "fs::write",
        "fs::rename",
        "fs::copy",
        "fs::remove_file",
        "fs::remove_dir_all",
        "fs::remove_dir",
        "fs::create_dir_all",
        "fs::create_dir",
        "File::create",
        "OpenOptions::new",
    ];
    for needle in WRITE_CALLS {
        let mut search_from = 0;
        while let Some(rel) = code[search_from..].find(needle) {
            let at = search_from + rel;
            search_from = at + needle.len();
            let before_ok = at == 0 || !is_ident_char(code.as_bytes()[at - 1] as char);
            let after_call = code[at + needle.len()..].trim_start().starts_with('(');
            if before_ok && after_call {
                return true;
            }
        }
    }
    false
}

/// Reports raw socket construction on a blanked code line. The needle
/// is a socket type's path segment followed by `::` (so an associated
/// call like `TcpStream::connect` or a fully qualified
/// `std::net::TcpListener::bind` fires), with a clean identifier
/// boundary before it so `MyTcpStream::` does not.
fn find_raw_sockets(code: &str) -> bool {
    const SOCKET_TYPES: [&str; 5] =
        ["TcpListener::", "TcpStream::", "UdpSocket::", "UnixListener::", "UnixStream::"];
    for needle in SOCKET_TYPES {
        let mut search_from = 0;
        while let Some(rel) = code[search_from..].find(needle) {
            let at = search_from + rel;
            search_from = at + needle.len();
            let before_ok = at == 0 || !is_ident_char(code.as_bytes()[at - 1] as char);
            if before_ok {
                return true;
            }
        }
    }
    false
}

/// Reports mutations (`=`, `+=`, `-=`, `*=`) of a conservation-set
/// field access on a blanked code line. Comparisons (`==`, `>=`, …)
/// and struct-literal initialisers (`detected: 0`) do not count.
fn find_counter_mutation(code: &str) -> bool {
    for field in CONSERVATION_FIELDS {
        let needle = format!(".{field}");
        let mut search_from = 0;
        while let Some(rel) = code[search_from..].find(&needle) {
            let at = search_from + rel;
            search_from = at + needle.len();
            let end = at + needle.len();
            // The match must be the whole field name.
            if code[end..].chars().next().is_some_and(is_ident_char) {
                continue;
            }
            let rest = code[end..].trim_start();
            let mutated = rest.starts_with("+=")
                || rest.starts_with("-=")
                || rest.starts_with("*=")
                || (rest.starts_with('=') && !rest.starts_with("=="));
            if mutated {
                return true;
            }
        }
    }
    false
}

/// Scans one file's source, returning violations with 1-based lines.
#[must_use]
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Violation> {
    let lines = lex(source);
    let originals: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();

    let library = is_library_source(rel_path);
    let dimensioned = is_dimensioned_module(rel_path);
    let counter_audited = COUNTER_AUDITED.contains(&rel_path);
    let fs_audited = FS_AUDITED.contains(&rel_path);
    let socket_audited = SOCKET_AUDITED.contains(&rel_path);
    let result_affecting = rules::is_result_affecting(rel_path);
    // File-level pre-pass: which bindings are default-hasher
    // containers whose iteration order is nondeterministic.
    let hash_names = if result_affecting {
        rules::collect_hash_names(&lines)
    } else {
        std::collections::BTreeSet::new()
    };

    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let fire = |rule: Rule, out: &mut Vec<Violation>| {
            if line.allows.contains(&rule) {
                return;
            }
            out.push(Violation {
                rule,
                file: rel_path.to_string(),
                line: idx + 1,
                excerpt: originals.get(idx).map_or(String::new(), |l| l.trim().to_string()),
            });
        };
        if dimensioned && find_raw_casts(&line.code) {
            fire(Rule::RawCast, &mut out);
        }
        if dimensioned && find_bare_float(&line.code) {
            fire(Rule::BareFloat, &mut out);
        }
        if library && find_panics(&line.code) {
            fire(Rule::NoPanic, &mut out);
        }
        if !counter_audited && find_counter_mutation(&line.code) {
            fire(Rule::CounterMutation, &mut out);
        }
        if !fs_audited && find_fs_writes(&line.code) {
            fire(Rule::FsWrite, &mut out);
        }
        if !socket_audited && find_raw_sockets(&line.code) {
            fire(Rule::RawSocket, &mut out);
        }
        if result_affecting
            && (rules::find_wall_clock(&line.code)
                || rules::find_hash_iteration(&line.code, &hash_names))
        {
            fire(Rule::Determinism, &mut out);
        }
    }
    out
}

/// Collects the `.rs` files under `root` that the linter audits:
/// `crates/*/src/**` and the workspace `src/`, skipping `vendor/`,
/// `target/`, and `tests/` directories.
#[must_use]
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates"), root.join("src")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "vendor" || name == "tests" || name == "benches" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// The extra wire-test corpus for the `wire-exhaustiveness` rule:
/// `crates/serve/tests/*.rs` (integration tests live outside the
/// `workspace_sources` walk, which skips `tests/` directories).
#[must_use]
pub fn wire_test_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(root.join("crates/serve/tests")) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().map(|e| e == "rs").unwrap_or(false) {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Scans a set of in-memory sources — the per-file rules on every
/// file, then the cross-file rules (`lock-order`,
/// `wire-exhaustiveness`) over the whole set — returning all
/// violations sorted by file, line, rule. `wire_tests` is the extra
/// test corpus for the wire rule. Exposed so self-tests can inject
/// synthetic workspaces.
#[must_use]
pub fn scan_sources(
    sources: &[(String, String)],
    wire_tests: &[(String, String)],
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (rel, text) in sources {
        out.extend(scan_source(rel, text));
    }
    let lexed: Vec<rules::LexedFile> =
        sources.iter().map(|(rel, text)| (rel.clone(), lex(text))).collect();
    let lexed_tests: Vec<rules::LexedFile> =
        wire_tests.iter().map(|(rel, text)| (rel.clone(), lex(text))).collect();
    out.extend(rules::analyze(&lexed, &lexed_tests));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// Scans the workspace rooted at `root`, returning all violations
/// (before baseline subtraction), sorted by file then line.
pub fn scan_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let read_rel = |path: &Path| -> Result<(String, String), String> {
        let rel = path
            .strip_prefix(root)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((rel, source))
    };
    let sources =
        workspace_sources(root).iter().map(|p| read_rel(p)).collect::<Result<Vec<_>, _>>()?;
    let wire_tests =
        wire_test_sources(root).iter().map(|p| read_rel(p)).collect::<Result<Vec<_>, _>>()?;
    Ok(scan_sources(&sources, &wire_tests))
}

/// Count-based ratchet baseline: frozen violation counts per
/// `(rule, file)`. A scan is clean when no pair exceeds its frozen
/// count; pairs under their count are reported as tightening
/// opportunities.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    counts: BTreeMap<(Rule, String), usize>,
}

impl Baseline {
    /// Builds a baseline that freezes exactly the given violations.
    #[must_use]
    pub fn freeze(violations: &[Violation]) -> Baseline {
        let mut counts = BTreeMap::new();
        for v in violations {
            *counts.entry((v.rule, v.file.clone())).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Frozen count for a `(rule, file)` pair.
    #[must_use]
    pub fn allowed(&self, rule: Rule, file: &str) -> usize {
        self.counts.get(&(rule, file.to_string())).copied().unwrap_or(0)
    }

    /// Number of frozen entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when nothing is frozen.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Parses the TOML subset written by [`Baseline::render`]:
    /// `[[entry]]` tables with `rule`, `file`, and `count` keys. (The
    /// workspace vendors no TOML parser, so the linter reads its own.)
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts = BTreeMap::new();
        let mut rule: Option<Rule> = None;
        let mut file: Option<String> = None;
        let mut count: Option<usize> = None;
        let flush = |rule: &mut Option<Rule>,
                     file: &mut Option<String>,
                     count: &mut Option<usize>,
                     counts: &mut BTreeMap<(Rule, String), usize>|
         -> Result<(), String> {
            match (rule.take(), file.take(), count.take()) {
                (None, None, None) => Ok(()),
                (Some(r), Some(f), Some(c)) => {
                    counts.insert((r, f), c);
                    Ok(())
                }
                _ => Err("incomplete [[entry]]: need rule, file, and count".to_string()),
            }
        };
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[entry]]" {
                flush(&mut rule, &mut file, &mut count, &mut counts)?;
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = value`: {line}", no + 1));
            };
            let key = key.trim();
            let value = value.trim();
            match key {
                "rule" => {
                    let name = value.trim_matches('"');
                    rule = Some(
                        Rule::from_name(name)
                            .ok_or_else(|| format!("line {}: unknown rule {name}", no + 1))?,
                    );
                }
                "file" => file = Some(value.trim_matches('"').to_string()),
                "count" => {
                    count = Some(
                        value
                            .parse()
                            .map_err(|e| format!("line {}: bad count {value}: {e}", no + 1))?,
                    );
                }
                other => return Err(format!("line {}: unknown key {other}", no + 1)),
            }
        }
        flush(&mut rule, &mut file, &mut count, &mut counts)?;
        Ok(Baseline { counts })
    }

    /// Renders the baseline in the TOML subset [`Baseline::parse`]
    /// reads, stable-sorted by (rule name, file) so regeneration never
    /// produces spurious diffs — the sort key is the *name*, not the
    /// enum ordinal, so inserting a `Rule` variant does not reshuffle
    /// the file.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# lattice-lint ratchet baseline: frozen violation counts per (rule, file).\n\
             # A file may never exceed its count; shrink a count when you burn one down.\n\
             # Regenerate with: cargo run -p lattice-lint -- --write-baseline\n",
        );
        let mut entries: Vec<(&Rule, &String, usize)> =
            self.counts.iter().map(|((r, f), c)| (r, f, *c)).collect();
        entries.sort_by_key(|(r, f, _)| (r.name(), f.as_str()));
        for (rule, file, count) in entries {
            out.push_str(&format!(
                "\n[[entry]]\nrule = \"{rule}\"\nfile = \"{file}\"\ncount = {count}\n"
            ));
        }
        out
    }
}

/// Outcome of checking a scan against a baseline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Violations in excess of the baseline — these fail the build.
    /// When a `(rule, file)` pair exceeds its frozen count, all of the
    /// pair's violations are listed (the linter cannot know which are
    /// the new ones).
    pub new_violations: Vec<Violation>,
    /// `(rule, file, frozen, current)` pairs now under their frozen
    /// count: the baseline can be tightened.
    pub slack: Vec<(Rule, String, usize, usize)>,
}

impl CheckReport {
    /// True when nothing exceeds the baseline.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.new_violations.is_empty()
    }
}

/// Checks violations against the ratchet baseline.
#[must_use]
pub fn check(violations: &[Violation], baseline: &Baseline) -> CheckReport {
    let mut by_pair: BTreeMap<(Rule, String), Vec<&Violation>> = BTreeMap::new();
    for v in violations {
        by_pair.entry((v.rule, v.file.clone())).or_default().push(v);
    }
    let mut report = CheckReport::default();
    for ((rule, file), found) in &by_pair {
        let frozen = baseline.allowed(*rule, file);
        if found.len() > frozen {
            report.new_violations.extend(found.iter().map(|v| (*v).clone()));
        } else if found.len() < frozen {
            report.slack.push((*rule, file.clone(), frozen, found.len()));
        }
    }
    for ((rule, file), frozen) in &baseline.counts {
        if *frozen > 0 && !by_pair.contains_key(&(*rule, file.clone())) {
            report.slack.push((*rule, file.clone(), *frozen, 0));
        }
    }
    report.slack.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- lexer ----

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let x = 1; // y as f64\nlet s = \"p as f64\";\n/* z as u32 */ let w = 2;\n";
        let lines = lex(src);
        assert!(!find_raw_casts(&lines[0].code));
        assert!(!find_raw_casts(&lines[1].code));
        assert!(!find_raw_casts(&lines[2].code));
    }

    #[test]
    fn string_continuations_keep_line_numbers_aligned() {
        // A `\`-newline continuation inside a string spans two source
        // lines; diagnostics below it must not shift up.
        let src = "let s = \"a \\\n   b\";\nlet t = 1;\nlet u = v.unwrap();\n";
        let v = scan_source("crates/gas/src/x.rs", src);
        let panics: Vec<_> = v.iter().filter(|v| v.rule == Rule::NoPanic).collect();
        assert_eq!(panics.len(), 1, "{v:?}");
        assert_eq!(panics[0].line, 4, "{panics:?}");
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let src = "let s = r#\"x.unwrap()\"#;\nlet c = '\"'; let d = x as u64;\n";
        let lines = lex(src);
        assert!(!find_panics(&lines[0].code));
        assert!(find_raw_casts(&lines[1].code), "{}", lines[1].code);
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x as _; y.unwrap() }\n";
        let lines = lex(src);
        assert!(find_panics(&lines[0].code), "{}", lines[0].code);
    }

    #[test]
    fn allow_marker_suppresses_same_and_next_line() {
        let src = "\
let a = p as f64; // lattice-lint: allow(raw-cast)
// lattice-lint: allow(raw-cast)
let b = q as f64;
let c = r as f64;
";
        let v = scan_source("crates/vlsi/src/x.rs", src);
        let casts: Vec<_> = v.iter().filter(|v| v.rule == Rule::RawCast).collect();
        assert_eq!(casts.len(), 1, "{casts:?}");
        assert_eq!(casts[0].line, 4);
    }

    #[test]
    fn cfg_test_mod_is_skipped() {
        let src = "\
pub fn lib() -> u64 { 1 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); let y = 1.0 as f64; }
}
pub fn tail(v: Option<u64>) -> u64 { v.unwrap() }
";
        let v = scan_source("crates/vlsi/src/x.rs", src);
        let panics: Vec<_> = v.iter().filter(|v| v.rule == Rule::NoPanic).collect();
        assert_eq!(panics.len(), 1, "{panics:?}");
        assert_eq!(panics[0].line, 7);
        assert!(v.iter().all(|v| v.rule != Rule::RawCast), "{v:?}");
    }

    // ---- rule detectors, one injected violation per category ----

    #[test]
    fn detects_injected_raw_cast() {
        let v = scan_source("crates/vlsi/src/wsa.rs", "pub fn f(p: u32) -> u64 { p as u64 }\n");
        assert!(v.iter().any(|v| v.rule == Rule::RawCast && v.line == 1), "{v:?}");
    }

    #[test]
    fn raw_cast_ignores_trait_casts_and_idents() {
        let clean = "let b = <R::S as State>::BITS; let alias = x as MyType; let basil = 1;\n";
        let v = scan_source("crates/vlsi/src/wsa.rs", clean);
        assert!(v.iter().all(|v| v.rule != Rule::RawCast), "{v:?}");
    }

    #[test]
    fn detects_injected_bare_float() {
        let v = scan_source("crates/farm/src/farm.rs", "pub struct S { pub secs: f64 }\n");
        assert!(v.iter().any(|v| v.rule == Rule::BareFloat), "{v:?}");
        // Outside the dimensioned modules the same line is fine.
        let v = scan_source("crates/gas/src/rule.rs", "pub struct S { pub secs: f64 }\n");
        assert!(v.iter().all(|v| v.rule != Rule::BareFloat), "{v:?}");
    }

    #[test]
    fn detects_injected_panics() {
        for (snippet, what) in [
            ("pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n", "unwrap"),
            ("pub fn f(v: Option<u8>) -> u8 { v.expect(\"set\") }\n", "expect"),
            ("pub fn f() { panic!(\"boom\") }\n", "panic"),
            ("pub fn f() { unreachable!() }\n", "unreachable"),
        ] {
            let v = scan_source("crates/gas/src/x.rs", snippet);
            assert!(v.iter().any(|v| v.rule == Rule::NoPanic), "{what}: {v:?}");
        }
        // Binaries and the bench harness are exempt.
        let v = scan_source("crates/bench/src/bin/t.rs", "fn main() { x.unwrap(); }\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn detects_injected_counter_mutation() {
        let bad = "fn f(r: &mut RecoveryStats) { r.detected += 1; }\n";
        let v = scan_source("crates/sim/src/audit.rs", bad);
        assert!(v.iter().any(|v| v.rule == Rule::CounterMutation), "{v:?}");
        // The audited modules may mutate freely.
        let v = scan_source("crates/sim/src/host.rs", bad);
        assert!(v.iter().all(|v| v.rule != Rule::CounterMutation), "{v:?}");
    }

    #[test]
    fn counter_reads_and_initialisers_are_free() {
        let src = "\
fn f(r: &RecoveryStats) -> bool { r.detected == r.rollbacks && r.retransmits >= 1 }
fn g() -> RecoveryStats { RecoveryStats { detected: 0, ..Default::default() } }
let ratio = ft.report.retransmits as f64 / passes;
";
        let v = scan_source("crates/gas/src/x.rs", src);
        assert!(v.iter().all(|v| v.rule != Rule::CounterMutation), "{v:?}");
    }

    #[test]
    fn detects_injected_fs_write_outside_the_store() {
        for snippet in [
            "fn f() { std::fs::write(\"x\", b\"y\").ok(); }\n",
            "fn f() { fs::rename(\"a\", \"b\").ok(); }\n",
            "fn f() { let _ = std::fs::File::create(\"x\"); }\n",
            "fn f() { let _ = std::fs::OpenOptions::new().append(true); }\n",
        ] {
            let v = scan_source("crates/gas/src/x.rs", snippet);
            assert!(v.iter().any(|v| v.rule == Rule::FsWrite), "{snippet}: {v:?}");
        }
        // Reads and lookalike paths stay free.
        for clean in [
            "fn f() { let _ = std::fs::read(\"x\"); fs::read_dir(\"d\").ok(); }\n",
            "fn f() { myfs::write(\"x\"); refs::rename(\"a\", \"b\"); }\n",
            "fn f() { let fs_write = 1; }\n",
        ] {
            let v = scan_source("crates/gas/src/x.rs", clean);
            assert!(v.iter().all(|v| v.rule != Rule::FsWrite), "{clean}: {v:?}");
        }
        // The audited store module is the one sanctioned call site.
        let v = scan_source(
            "crates/core/src/checkpoint/store.rs",
            "fn f() { fs::rename(\"a\", \"b\").ok(); }\n",
        );
        assert!(v.iter().all(|v| v.rule != Rule::FsWrite), "{v:?}");
    }

    #[test]
    fn detects_injected_raw_socket_outside_the_transport() {
        for snippet in [
            "fn f() { let _ = std::net::TcpListener::bind(\"127.0.0.1:0\"); }\n",
            "fn f() { let _ = TcpStream::connect(\"127.0.0.1:1\"); }\n",
            "fn f() { let _ = UdpSocket::bind(\"127.0.0.1:0\"); }\n",
            "fn f() { let _ = UnixStream::connect(\"/tmp/s\"); }\n",
        ] {
            let v = scan_source("crates/serve/src/daemon.rs", snippet);
            assert!(v.iter().any(|v| v.rule == Rule::RawSocket), "{snippet}: {v:?}");
        }
        // Lookalike identifiers and plain mentions stay free.
        for clean in [
            "fn f() { let _ = MyTcpStream::connect(\"x\"); }\n",
            "fn f(conn: TcpStream) -> TcpStream { conn }\n",
        ] {
            let v = scan_source("crates/serve/src/daemon.rs", clean);
            assert!(v.iter().all(|v| v.rule != Rule::RawSocket), "{clean}: {v:?}");
        }
        // The audited transport module is the one sanctioned call site.
        let v = scan_source(
            "crates/serve/src/transport.rs",
            "fn f() { let _ = TcpListener::bind(\"127.0.0.1:0\"); }\n",
        );
        assert!(v.iter().all(|v| v.rule != Rule::RawSocket), "{v:?}");
    }

    #[test]
    fn detects_injected_wall_clock_in_result_affecting_crate() {
        let bad = "pub fn stamp() -> Instant { Instant::now() }\n";
        let v = scan_source("crates/gas/src/fhp.rs", bad);
        assert!(v.iter().any(|v| v.rule == Rule::Determinism && v.line == 1), "{v:?}");
        // The daemon may read clocks freely — serve is not
        // result-affecting.
        let v = scan_source("crates/serve/src/daemon.rs", bad);
        assert!(v.iter().all(|v| v.rule != Rule::Determinism), "{v:?}");
        // And an allow marker confines an audited site.
        let marked = "// lattice-lint: allow(determinism)\nlet t = Instant::now();\n";
        let v = scan_source("crates/farm/src/farm.rs", marked);
        assert!(v.iter().all(|v| v.rule != Rule::Determinism), "{v:?}");
    }

    #[test]
    fn detects_injected_hash_iteration_in_result_affecting_crate() {
        let bad = "\
pub fn tally(xs: &[u32]) -> Vec<(u32, u32)> {
    let mut counts: HashMap<u32, u32> = HashMap::new();
    for &x in xs { *counts.entry(x).or_insert(0) += 1; }
    counts.into_iter().collect()
}
";
        let v = scan_source("crates/sim/src/host.rs", bad);
        let det: Vec<_> = v.iter().filter(|v| v.rule == Rule::Determinism).collect();
        assert_eq!(det.len(), 1, "{v:?}");
        assert_eq!(det[0].line, 4, "only the iteration fires, not insert/entry: {det:?}");
    }

    #[test]
    fn detects_injected_lock_inversion_through_scan_sources() {
        // The daemon's one real lock is `state`; a second lock taken
        // before it while holding it inverts the declared order
        // (`state` is outermost).
        let bad = "\
struct S { state: Arc<Mutex<A>>, audit_log: Arc<Mutex<B>> }
fn bad(state: &Mutex<A>, audit_log: &Mutex<B>) {
    let log = audit_log.lock();
    let st = state.lock();
}
";
        let v = scan_sources(&[("crates/serve/src/daemon.rs".to_string(), bad.to_string())], &[]);
        let lock: Vec<_> = v.iter().filter(|v| v.rule == Rule::LockOrder).collect();
        assert!(
            lock.iter().any(|v| v.excerpt.contains("not in the declared global lock order")),
            "`audit_log` is undeclared: {lock:?}"
        );
    }

    #[test]
    fn detects_injected_orphan_wire_variant_through_scan_sources() {
        let proto = "\
pub enum Request {
    Ping,
    Orphan,
}
impl Request {
    pub fn to_json(&self) -> Value {
        match self { Request::Ping => j(), Request::Orphan => j() }
    }
    pub fn from_json(v: &Value) -> Result<Request, E> { Ok(Request::Ping) }
}
";
        let tests = (
            "crates/serve/tests/codec.rs".to_string(),
            "fn t() { r(Request::Ping); }\n".to_string(),
        );
        let v = scan_sources(
            &[("crates/serve/src/protocol.rs".to_string(), proto.to_string())],
            &[tests],
        );
        let wire: Vec<_> = v.iter().filter(|v| v.rule == Rule::WireExhaustiveness).collect();
        assert_eq!(wire.len(), 1, "{v:?}");
        assert_eq!(wire[0].line, 3);
        assert!(
            wire[0].excerpt.contains("`Request::Orphan` missing from: decoder, test corpus"),
            "{wire:?}"
        );
    }

    #[test]
    fn workspace_has_no_unmarked_determinism_lock_or_wire_violations() {
        // The acceptance bar for the multi-pass analyzer: the three
        // cross-cutting rules hold at zero across the workspace — not
        // merely "no more than baseline".
        let root = workspace_root();
        let violations = scan_workspace(&root).expect("scan");
        let hard: Vec<_> = violations
            .iter()
            .filter(|v| {
                matches!(v.rule, Rule::Determinism | Rule::LockOrder | Rule::WireExhaustiveness)
            })
            .collect();
        assert!(hard.is_empty(), "analyzer rules must hold at zero: {hard:?}");
    }

    #[test]
    fn baseline_render_is_stable_sorted_by_rule_name_then_file() {
        let mk = |rule: Rule, file: &str| Violation {
            rule,
            file: file.into(),
            line: 1,
            excerpt: String::new(),
        };
        // `Determinism` sorts after `RawCast` by enum ordinal but
        // before it by name — the rendered file must use name order.
        let baseline = Baseline::freeze(&[
            mk(Rule::RawCast, "crates/vlsi/src/b.rs"),
            mk(Rule::Determinism, "crates/gas/src/z.rs"),
            mk(Rule::RawCast, "crates/vlsi/src/a.rs"),
        ]);
        let text = baseline.render();
        let order: Vec<usize> = [
            "rule = \"determinism\"",
            "file = \"crates/vlsi/src/a.rs\"",
            "file = \"crates/vlsi/src/b.rs\"",
        ]
        .iter()
        .map(|n| text.find(n).expect(n))
        .collect();
        assert!(order[0] < order[1] && order[1] < order[2], "{text}");
        assert_eq!(Baseline::parse(&text).expect("round trip"), baseline);
    }

    #[test]
    fn conservation_set_matches_recovery_ladder() {
        // The invariant the audited modules maintain:
        // detected = retransmits + local_rollbacks + rollbacks + boards_retired.
        assert_eq!(
            CONSERVATION_FIELDS,
            ["detected", "retransmits", "local_rollbacks", "rollbacks", "boards_retired"]
        );
        assert!(COUNTER_AUDITED.contains(&"crates/farm/src/ladder.rs"));
        assert!(COUNTER_AUDITED.contains(&"crates/sim/src/host.rs"));
    }

    // ---- baseline ----

    #[test]
    fn baseline_round_trips_through_render_and_parse() {
        let violations = vec![
            Violation {
                rule: Rule::NoPanic,
                file: "crates/gas/src/x.rs".into(),
                line: 3,
                excerpt: "x.unwrap()".into(),
            },
            Violation {
                rule: Rule::NoPanic,
                file: "crates/gas/src/x.rs".into(),
                line: 9,
                excerpt: "y.unwrap()".into(),
            },
            Violation {
                rule: Rule::BareFloat,
                file: "crates/vlsi/src/tech.rs".into(),
                line: 1,
                excerpt: "pub b: f64".into(),
            },
        ];
        let frozen = Baseline::freeze(&violations);
        let parsed = Baseline::parse(&frozen.render()).expect("round trip");
        assert_eq!(frozen, parsed);
        assert_eq!(parsed.allowed(Rule::NoPanic, "crates/gas/src/x.rs"), 2);
        assert_eq!(parsed.allowed(Rule::BareFloat, "crates/vlsi/src/tech.rs"), 1);
        assert_eq!(parsed.allowed(Rule::RawCast, "crates/gas/src/x.rs"), 0);
    }

    #[test]
    fn baseline_parse_rejects_garbage() {
        assert!(Baseline::parse("[[entry]]\nrule = \"no-panic\"\n").is_err());
        assert!(Baseline::parse("[[entry]]\nrule = \"bogus\"\nfile = \"x\"\ncount = 1\n").is_err());
        assert!(Baseline::parse("what even is this").is_err());
    }

    #[test]
    fn ratchet_blocks_growth_and_reports_slack() {
        let mk = |line: usize| Violation {
            rule: Rule::NoPanic,
            file: "crates/gas/src/x.rs".into(),
            line,
            excerpt: String::new(),
        };
        let baseline = Baseline::freeze(&[mk(1), mk(2)]);
        // Same count: clean, no slack.
        let r = check(&[mk(1), mk(5)], &baseline);
        assert!(r.is_clean() && r.slack.is_empty(), "{r:?}");
        // One more: dirty.
        let r = check(&[mk(1), mk(2), mk(3)], &baseline);
        assert_eq!(r.new_violations.len(), 3);
        // One fewer: clean with slack.
        let r = check(&[mk(1)], &baseline);
        assert!(r.is_clean());
        assert_eq!(r.slack, vec![(Rule::NoPanic, "crates/gas/src/x.rs".to_string(), 2, 1)]);
        // All burned down: slack reports the orphaned entry.
        let r = check(&[], &baseline);
        assert_eq!(r.slack, vec![(Rule::NoPanic, "crates/gas/src/x.rs".to_string(), 2, 0)]);
    }

    // ---- the workspace itself ----

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("root")
    }

    #[test]
    fn workspace_is_clean_against_committed_baseline() {
        let root = workspace_root();
        let text = fs::read_to_string(root.join("lint-baseline.toml")).expect("baseline file");
        let baseline = Baseline::parse(&text).expect("baseline parses");
        let violations = scan_workspace(&root).expect("scan");
        let report = check(&violations, &baseline);
        assert!(
            report.is_clean(),
            "new lint violations:\n{}",
            report.new_violations.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }

    #[test]
    fn audited_accounting_spines_carry_no_raw_casts() {
        // The acceptance bar for the typed-units refactor: the
        // dimension-carrying arithmetic in vlsi and farm has zero raw
        // casts — not merely "no more than baseline".
        let root = workspace_root();
        let violations = scan_workspace(&root).expect("scan");
        let casts: Vec<_> = violations
            .iter()
            .filter(|v| {
                v.rule == Rule::RawCast
                    && (v.file.starts_with("crates/vlsi/") || v.file.starts_with("crates/farm/"))
            })
            .collect();
        assert!(casts.is_empty(), "raw casts crept back into the model spine: {casts:?}");
    }
}
