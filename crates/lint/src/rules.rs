//! Pass 4 — the cross-cutting rules.
//!
//! Three rules that need more than one line (or one file) of context:
//!
//! * **determinism** — wall-clock, environment, and default-hasher
//!   iteration checks scoped to the result-affecting crates. The
//!   per-line needles run from [`scan_source`](crate::scan_source);
//!   this module owns the needle lists and the file-level hash-binding
//!   pre-pass.
//! * **lock-order** — a static deadlock guard over `crates/serve` +
//!   `crates/farm`: replay each function's lock events as a held-set
//!   simulation, propagate lock reach through the bare-name call
//!   graph, and fail on undeclared locks, inversions against
//!   [`LOCK_ORDER`], or cycles in the acquisition graph.
//! * **wire-exhaustiveness** — every `Request`/`Response` variant must
//!   appear in the encoder (`to_json`/`to_line`), the decoder
//!   (`from_json`/`from_line`), and the test corpus
//!   (`crates/serve/tests/` plus in-file `#[cfg(test)]` regions), so
//!   codec drift is a lint failure rather than a chaos-soak surprise.

use std::collections::{BTreeMap, BTreeSet};

use crate::facts::{self, boundary_matches, find_boundary, Event};
use crate::lexer::{is_ident_char, LexedLine};
use crate::parser::FnItem;
use crate::{Rule, Violation};

/// Crates whose outputs feed reported results: a nondeterministic
/// value anywhere here can reach a conservation check, a perf-ratchet
/// number, or a replayed chaos soak.
pub const RESULT_AFFECTING: [&str; 6] = [
    "crates/core/src/",
    "crates/gas/src/",
    "crates/sim/src/",
    "crates/farm/src/",
    "crates/pebbles/src/",
    "crates/vlsi/src/",
];

/// Crates the lock-order rule analyzes (the daemon and the worker
/// farm — the only places locks live).
pub const LOCK_SCOPE: [&str; 2] = ["crates/serve/src/", "crates/farm/src/"];

/// The declared global lock order, outermost first. Every lock in
/// [`LOCK_SCOPE`] must appear here, and no function may acquire a
/// lock while holding one that sorts after it: the daemon's
/// `ServerState`, then a resident-run mailbox's frame words
/// (`crates/farm/src/resident.rs`), held only to copy one frame.
pub const LOCK_ORDER: [&str; 2] = ["state", "frame"];

/// The wire-protocol module whose enums the exhaustiveness rule
/// audits.
pub const WIRE_PROTOCOL_FILE: &str = "crates/serve/src/protocol.rs";

/// The audited wire enums.
pub const WIRE_ENUMS: [&str; 2] = ["Request", "Response"];

/// Encoder / decoder method names (on the enum's own impl).
pub const WIRE_ENCODERS: [&str; 2] = ["to_json", "to_line"];
/// Decoder method names.
pub const WIRE_DECODERS: [&str; 2] = ["from_json", "from_line"];

/// Wall-clock / environment / randomness entry points banned from
/// result-affecting crates.
const WALL_CLOCK_NEEDLES: [&str; 8] = [
    "SystemTime::now",
    "Instant::now",
    "thread::sleep",
    "sleep_ms",
    "thread_rng",
    "from_entropy",
    "RandomState",
    "env::var",
];

const HASH_TYPE_NEEDLES: [&str; 4] = ["HashMap<", "HashMap::", "HashSet<", "HashSet::"];

const HASH_ITER_METHODS: [&str; 8] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
    ".retain(",
];

/// True when `path` sits in a result-affecting crate.
#[must_use]
pub fn is_result_affecting(path: &str) -> bool {
    RESULT_AFFECTING.iter().any(|p| path.starts_with(p))
}

/// True when `path` is in lock-order scope.
#[must_use]
pub fn is_lock_scope(path: &str) -> bool {
    LOCK_SCOPE.iter().any(|p| path.starts_with(p))
}

/// Reports a banned wall-clock / environment / randomness call on a
/// blanked code line.
#[must_use]
pub fn find_wall_clock(code: &str) -> bool {
    WALL_CLOCK_NEEDLES.iter().any(|n| find_boundary(code, n).is_some())
}

/// Collects the names bound to default-hasher `HashMap`/`HashSet`
/// values in non-test code: typed annotations (`name: HashMap<…>`)
/// and let bindings (`let name = HashMap::new()`).
#[must_use]
pub fn collect_hash_names(lines: &[LexedLine]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in lines {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let mut any = false;
        for needle in HASH_TYPE_NEEDLES {
            for at in boundary_matches(code, needle) {
                any = true;
                if let Some(name) = facts::annotated_name_before(code, at) {
                    out.insert(name);
                }
            }
        }
        if any {
            if let Some(name) = facts::let_binding_name(code) {
                out.insert(name);
            }
        }
    }
    out
}

/// Reports iteration over a default-hasher container on a blanked
/// code line: `name.iter()`-family method calls and `for … in name`
/// loops. Indexed lookups (`get`, `contains`, `insert`) stay free —
/// only *order* is nondeterministic.
#[must_use]
pub fn find_hash_iteration(code: &str, names: &BTreeSet<String>) -> bool {
    for name in names {
        for method in HASH_ITER_METHODS {
            let needle = format!("{name}{method}");
            // `map.iter()` and `self.map.iter()` both count;
            // `other_map.iter()` does not.
            if !boundary_matches(code, &needle).is_empty() {
                return true;
            }
        }
    }
    // `for x in map {` / `for (k, v) in &map {` / `… in self.map {`.
    if let Some(for_at) = find_boundary(code, "for ") {
        if let Some(in_rel) = code[for_at..].find(" in ") {
            let rest = code[for_at + in_rel + 4..].trim_start();
            let rest = rest.strip_prefix('&').unwrap_or(rest);
            let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
            let rest = rest.strip_prefix("self.").unwrap_or(rest);
            let ident: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if names.contains(&ident) {
                let tail = rest[ident.len()..].trim_start();
                if tail.is_empty() || tail.starts_with('{') {
                    return true;
                }
            }
        }
    }
    false
}

/// One lexed file addressed by its workspace-relative path.
pub type LexedFile = (String, Vec<LexedLine>);

/// Runs the cross-file rules (lock-order, wire-exhaustiveness) over
/// the lexed workspace. `wire_tests` is the extra test corpus
/// (`crates/serve/tests/*.rs`) that `workspace_sources` does not
/// collect. Allow markers are honored at the reported line.
#[must_use]
pub fn analyze(sources: &[LexedFile], wire_tests: &[LexedFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(lock_order_violations(sources, &LOCK_ORDER));
    out.extend(wire_violations(sources, wire_tests));
    out
}

/// Suppresses violations whose reported line carries an allow marker
/// for their rule.
fn honor_allows(violations: Vec<Violation>, sources: &[LexedFile]) -> Vec<Violation> {
    violations
        .into_iter()
        .filter(|v| {
            let Some((_, lines)) = sources.iter().find(|(p, _)| *p == v.file) else {
                return true;
            };
            lines.get(v.line - 1).map(|l| !l.allows.contains(&v.rule)).unwrap_or(true)
        })
        .collect()
}

// ---- lock-order ----

/// An acquisition edge: while holding `held`, `acquired` is taken (or
/// reachable through a call) at `file:line` (0-based line).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Edge {
    held: String,
    acquired: String,
    file: String,
    line: usize,
}

/// Checks the lock acquisition graph of `sources` against a declared
/// global order (outermost first). Exposed with the order as a
/// parameter so self-tests can inject synthetic orders.
#[must_use]
pub fn lock_order_violations(sources: &[LexedFile], declared: &[&str]) -> Vec<Violation> {
    let mut file_facts = Vec::new();
    let mut all_locks: BTreeSet<String> = BTreeSet::new();
    for (path, lines) in sources {
        if !is_lock_scope(path) {
            continue;
        }
        let f = facts::extract(lines);
        all_locks.extend(f.locks.iter().cloned());
        file_facts.push((path.clone(), f));
    }

    // Direct lock sets and the bare-name call graph.
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut known_fns: BTreeSet<String> = BTreeSet::new();
    for (_, f) in &file_facts {
        for fun in &f.fns {
            known_fns.insert(fun.item.name.clone());
            for ev in &fun.events {
                match ev {
                    Event::Acquire { lock, .. } => {
                        direct.entry(fun.item.name.clone()).or_default().insert(lock.clone());
                    }
                    Event::Call { callee, .. } => {
                        calls.entry(fun.item.name.clone()).or_default().insert(callee.clone());
                    }
                    Event::Drop { .. } => {}
                }
            }
        }
    }

    // Transitive lock reach per function, to a fixpoint.
    let mut reach: BTreeMap<String, BTreeSet<String>> = direct.clone();
    loop {
        let mut changed = false;
        for (caller, callees) in &calls {
            let mut add: BTreeSet<String> = BTreeSet::new();
            for callee in callees {
                if let Some(r) = reach.get(callee) {
                    add.extend(r.iter().cloned());
                }
            }
            if !add.is_empty() {
                let entry = reach.entry(caller.clone()).or_default();
                let before = entry.len();
                entry.extend(add);
                changed |= entry.len() != before;
            }
        }
        if !changed {
            break;
        }
    }

    // Held-set replay: collect acquisition edges.
    let mut edges: BTreeSet<Edge> = BTreeSet::new();
    let mut first_acquisition: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for (path, f) in &file_facts {
        for fun in &f.fns {
            // `guard binding -> lock` for currently held guards.
            let mut held: BTreeMap<String, String> = BTreeMap::new();
            for ev in &fun.events {
                match ev {
                    Event::Acquire { lock, guard, line } => {
                        first_acquisition
                            .entry(lock.clone())
                            .or_insert_with(|| (path.clone(), *line));
                        for h in held.values() {
                            if h != lock {
                                edges.insert(Edge {
                                    held: h.clone(),
                                    acquired: lock.clone(),
                                    file: path.clone(),
                                    line: *line,
                                });
                            }
                        }
                        if let Some(g) = guard {
                            held.insert(g.clone(), lock.clone());
                        }
                    }
                    Event::Drop { name, .. } => {
                        held.remove(name);
                    }
                    Event::Call { callee, line } => {
                        // Re-entry through a self-call would pair every
                        // held lock with itself; skip h == reached.
                        if let Some(reached) = reach.get(callee) {
                            for h in held.values() {
                                for l in reached {
                                    if l != h {
                                        edges.insert(Edge {
                                            held: h.clone(),
                                            acquired: l.clone(),
                                            file: path.clone(),
                                            line: *line,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    let order_index = |lock: &str| declared.iter().position(|d| *d == lock);

    let mut out = Vec::new();
    // Every acquired lock must be declared.
    for (lock, (file, line)) in &first_acquisition {
        if order_index(lock).is_none() {
            out.push(Violation {
                rule: Rule::LockOrder,
                file: file.clone(),
                line: line + 1,
                excerpt: format!(
                    "lock `{lock}` is not in the declared global lock order (DESIGN.md §17)"
                ),
            });
        }
    }
    // No edge may run against the declared order.
    for e in &edges {
        if let (Some(h), Some(a)) = (order_index(&e.held), order_index(&e.acquired)) {
            if h > a {
                out.push(Violation {
                    rule: Rule::LockOrder,
                    file: e.file.clone(),
                    line: e.line + 1,
                    excerpt: format!(
                        "acquires `{}` while holding `{}` — inverts the declared lock order",
                        e.acquired, e.held
                    ),
                });
            }
        }
    }
    // And the acquisition graph must be acyclic regardless of the
    // declared order (a cycle between two undeclared locks is a
    // deadlock even before anyone ranks them). Edges between declared
    // locks are excluded here: a cycle among totally ordered locks
    // always contains a descending edge, which the inversion check
    // above already reports.
    let undeclared_edges: BTreeSet<Edge> = edges
        .iter()
        .filter(|e| order_index(&e.held).is_none() || order_index(&e.acquired).is_none())
        .cloned()
        .collect();
    if let Some(cycle) = find_cycle(&undeclared_edges) {
        let anchor = edges.iter().find(|e| e.held == cycle[0] && e.acquired == cycle[1]).cloned();
        if let Some(e) = anchor {
            out.push(Violation {
                rule: Rule::LockOrder,
                file: e.file,
                line: e.line + 1,
                excerpt: format!("lock acquisition cycle: {}", cycle.join(" -> ")),
            });
        }
    }
    honor_allows(out, sources)
}

/// Finds one cycle in the acquisition edge graph, returned as
/// `[a, b, …, a]`.
fn find_cycle(edges: &BTreeSet<Edge>) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.held).or_default().insert(&e.acquired);
    }
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for start in nodes {
        // DFS from each node; a path back to `start` is a cycle.
        let mut stack = vec![(start, vec![start.to_string()])];
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            for next in adj.get(node).into_iter().flatten() {
                if *next == start {
                    let mut cycle = path.clone();
                    cycle.push(start.to_string());
                    return Some(cycle);
                }
                if seen.insert(next) {
                    let mut p = path.clone();
                    p.push((*next).to_string());
                    stack.push((*next, p));
                }
            }
        }
    }
    None
}

// ---- wire-exhaustiveness ----

/// True when `code` contains `token` with clean identifier boundaries
/// on both sides.
#[must_use]
pub fn contains_token(code: &str, token: &str) -> bool {
    boundary_matches(code, token).iter().any(|&at| {
        code[at + token.len()..].chars().next().map(|c| !is_ident_char(c)).unwrap_or(true)
    })
}

/// Line range (0-based, inclusive) helpers over fn bodies.
fn spans_of<'a>(fns: &'a [FnItem], enum_name: &str, names: &[&str]) -> Vec<&'a FnItem> {
    fns.iter()
        .filter(|f| {
            f.impl_type.as_deref() == Some(enum_name)
                && names.contains(&f.name.as_str())
                && f.body.is_some()
        })
        .collect()
}

fn token_in_spans(lines: &[LexedLine], spans: &[&FnItem], tokens: &[String]) -> bool {
    for f in spans {
        let Some((start, end)) = f.body else { continue };
        for line in lines.iter().take(end + 1).skip(start) {
            if tokens.iter().any(|t| contains_token(&line.code, t)) {
                return true;
            }
        }
    }
    false
}

/// Checks that every `Request`/`Response` variant appears in its
/// encoder, its decoder, and the test corpus.
#[must_use]
pub fn wire_violations(sources: &[LexedFile], wire_tests: &[LexedFile]) -> Vec<Violation> {
    let Some((proto_path, proto_lines)) =
        sources.iter().find(|(p, _)| p.ends_with(WIRE_PROTOCOL_FILE) || p == WIRE_PROTOCOL_FILE)
    else {
        return Vec::new();
    };
    let items = crate::parser::parse_items(proto_lines);
    let mut out = Vec::new();

    for enum_item in items.enums.iter().filter(|e| WIRE_ENUMS.contains(&e.name.as_str())) {
        let encoders = spans_of(&items.fns, &enum_item.name, &WIRE_ENCODERS);
        let decoders = spans_of(&items.fns, &enum_item.name, &WIRE_DECODERS);
        for (variant, line) in &enum_item.variants {
            let qualified = format!("{}::{variant}", enum_item.name);
            let tokens = [qualified.clone(), format!("Self::{variant}")];
            let in_encoder = token_in_spans(proto_lines, &encoders, &tokens);
            let in_decoder = token_in_spans(proto_lines, &decoders, &tokens);
            // Test corpus: the serve integration tests plus any
            // in-file `#[cfg(test)]` region in serve sources.
            let in_tests = wire_tests
                .iter()
                .flat_map(|(_, lines)| lines.iter())
                .any(|l| contains_token(&l.code, &qualified))
                || sources
                    .iter()
                    .filter(|(p, _)| p.starts_with("crates/serve/"))
                    .flat_map(|(_, lines)| lines.iter())
                    .any(|l| l.in_test && contains_token(&l.code, &qualified));
            let mut missing = Vec::new();
            if !in_encoder {
                missing.push("encoder");
            }
            if !in_decoder {
                missing.push("decoder");
            }
            if !in_tests {
                missing.push("test corpus");
            }
            if !missing.is_empty() {
                out.push(Violation {
                    rule: Rule::WireExhaustiveness,
                    file: proto_path.clone(),
                    line: line + 1,
                    excerpt: format!(
                        "wire variant `{qualified}` missing from: {}",
                        missing.join(", ")
                    ),
                });
            }
        }
    }
    honor_allows(out, sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn wall_clock_needles_fire_with_boundaries() {
        assert!(find_wall_clock("let t = Instant::now();"));
        assert!(find_wall_clock("std::thread::sleep(d);"));
        assert!(find_wall_clock("let h = RandomState::new();"));
        assert!(!find_wall_clock("let my_thread_sleep = 1;"));
        assert!(!find_wall_clock("instant_like::now_ish();"));
    }

    #[test]
    fn hash_iteration_fires_on_order_dependent_uses_only() {
        let lines = lex("let mut counts: HashMap<u32, u32> = HashMap::new();\n");
        let names = collect_hash_names(&lines);
        assert!(names.contains("counts"), "{names:?}");
        assert!(find_hash_iteration("for (k, v) in &counts {", &names));
        assert!(find_hash_iteration("let sum: u32 = counts.values().sum();", &names));
        assert!(find_hash_iteration("self.counts.iter().map(f)", &names));
        assert!(!find_hash_iteration("counts.insert(k, v);", &names));
        assert!(!find_hash_iteration("if counts.get(&k) == Some(&v) {", &names));
        assert!(!find_hash_iteration("for i in 0..counts.len() {", &names));
        assert!(!find_hash_iteration("for (k, v) in &other_counts {", &names));
    }

    fn lexed(files: &[(&str, &str)]) -> Vec<LexedFile> {
        files.iter().map(|(p, s)| (p.to_string(), lex(s))).collect()
    }

    #[test]
    fn inverted_lock_pair_is_reported() {
        let src = "\
struct S { state: Arc<Mutex<A>>, registry: Arc<Mutex<B>> }
fn good(state: &Mutex<A>, registry: &Mutex<B>) {
    let st = state.lock();
    let rg = registry.lock();
    drop(rg);
    drop(st);
}
fn bad(state: &Mutex<A>, registry: &Mutex<B>) {
    let rg = registry.lock();
    let st = state.lock();
}
";
        let sources = lexed(&[("crates/serve/src/daemon.rs", src)]);
        let v = lock_order_violations(&sources, &["state", "registry"]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 10);
        assert!(v[0].excerpt.contains("acquires `state` while holding `registry`"), "{v:?}");
    }

    #[test]
    fn lock_reach_flows_through_calls() {
        let src = "\
fn helper(registry: &Mutex<B>) {
    registry.lock().touch();
}
fn outer(state: &Mutex<A>, registry: &Mutex<B>) {
    let st = state.lock();
    helper(registry);
}
";
        let sources = lexed(&[("crates/serve/src/daemon.rs", src)]);
        // `state` before `registry` is fine…
        let v = lock_order_violations(&sources, &["state", "registry"]);
        assert!(v.is_empty(), "{v:?}");
        // …but with the opposite declared order the call edge inverts.
        let v = lock_order_violations(&sources, &["registry", "state"]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn undeclared_locks_and_cycles_are_reported() {
        let src = "\
fn a(x: &Mutex<A>, y: &Mutex<B>) {
    let gx = x.lock();
    let gy = y.lock();
}
fn b(x: &Mutex<A>, y: &Mutex<B>) {
    let gy = y.lock();
    let gx = x.lock();
}
";
        let sources = lexed(&[("crates/farm/src/farm.rs", src)]);
        let v = lock_order_violations(&sources, &["state"]);
        let undeclared: Vec<_> =
            v.iter().filter(|v| v.excerpt.contains("not in the declared")).collect();
        assert_eq!(undeclared.len(), 2, "{v:?}");
        assert!(
            v.iter().any(|v| v.excerpt.contains("cycle")),
            "cycle x->y->x should be reported: {v:?}"
        );
    }

    #[test]
    fn wire_orphan_variant_is_reported() {
        let proto = "\
pub enum Request {
    Ping,
    Orphan,
}
impl Request {
    pub fn to_json(&self) -> Value {
        match self { Request::Ping => json(), Request::Orphan => json() }
    }
    pub fn from_json(v: &Value) -> Result<Request, E> {
        Ok(Request::Ping)
    }
}
#[cfg(test)]
mod tests {
    fn t() { let _ = Request::Ping; }
}
";
        let sources = lexed(&[("crates/serve/src/protocol.rs", proto)]);
        let v = wire_violations(&sources, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert!(
            v[0].excerpt.contains("`Request::Orphan` missing from: decoder, test corpus"),
            "{v:?}"
        );
    }

    #[test]
    fn wire_test_corpus_counts_integration_tests() {
        let proto = "\
pub enum Response {
    Bye,
}
impl Response {
    pub fn to_line(&self) -> String { match self { Response::Bye => line() } }
    pub fn from_line(s: &str) -> Result<Response, E> { Ok(Response::Bye) }
}
";
        let sources = lexed(&[("crates/serve/src/protocol.rs", proto)]);
        // Without a corpus the variant is orphaned…
        let v = wire_violations(&sources, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        // …and an integration test mentioning it closes the gap.
        let tests = lexed(&[("crates/serve/tests/codec.rs", "fn t() { check(Response::Bye); }\n")]);
        let v = wire_violations(&sources, &tests);
        assert!(v.is_empty(), "{v:?}");
    }
}
