//! Project-specific static analysis for the redistrib workspace.
//!
//! The workspace's correctness story rests on a handful of invariants
//! that `rustc` cannot see: locks must go through the instrumented
//! [`sync`] wrappers, snapshot files must only be written by the
//! archive's atomic helpers, deterministic crates must not read the
//! wall clock, and floats must serialize as bit patterns. This crate is
//! `redistrib-lint`: a hand-rolled token scanner (no `syn` — the
//! workspace vendors zero dependencies) that walks the source tree and
//! enforces those invariants as named, suppressible rules.
//!
//! A violation prints `file:line rule message` and the binary exits
//! nonzero. Suppress a finding with a comment on the same line or the
//! line above: `// lint:allow(rule-name)` (comma-separate several).
//!
//! The scanner is deliberately token-based, not AST-based: every rule
//! is a short token-sequence or string-literal pattern scoped by file
//! path, which keeps the whole linter auditable in one sitting and
//! immune to parser drift across Rust editions. `#[cfg(test)]` modules
//! and the fixture tree are skipped.
//!
//! [`sync`]: ../redistrib_service/sync/index.html

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::Path;

/// The rule table: `(name, what it enforces)`. `redistrib-lint --list`
/// prints it; the README mirrors it.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-bare-lock-unwrap",
        "lock acquisitions must use the crate::sync ordered wrappers (lock/lock_recover), not \
         bare .lock().unwrap(); exempt: tests, benches, examples, sync.rs itself",
    ),
    (
        "no-raw-sync-in-service",
        "std::sync::Mutex/RwLock/Condvar must not be constructed in crates/service/src outside \
         sync.rs — every service lock carries a lockdep rank",
    ),
    (
        "fsync-discipline",
        ".snap/.tmp path literals are the archive's business: only archive.rs may name them, so \
         every snapshot write goes through the temp+fsync+rename helpers",
    ),
    (
        "no-wallclock-in-sim",
        "SystemTime::now/Instant::now are banned in crates/core, crates/sim and crates/online — \
         deterministic code takes time as an input",
    ),
    (
        "no-float-format-in-json",
        "float format specifiers ({:.N}, {:e}) are banned in crates/service/src outside json.rs \
         — f64 serialization routes through Json::bits() to stay byte-identical",
    ),
    (
        "no-raw-connect-in-router",
        "TcpStream::connect/connect_timeout are banned in crates/service/src except for one dial \
         site in pool.rs — every outbound connection gets the same deadlines, nodelay and \
         stale-resend rule",
    ),
];

/// One lint finding, displayed as `file:line rule message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule name (a key of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {} {}", self.file, self.line, self.rule, self.message)
    }
}

/// Token kinds the scanner distinguishes — just enough structure for
/// the rules' sequence patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation character (`::` is two `:` tokens).
    Punct(char),
    /// String literal (content without quotes, escapes undecoded —
    /// rules only substring-match).
    Str(String),
    /// Character literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
}

#[derive(Debug, Clone)]
struct Tok {
    line: u32,
    kind: TokKind,
}

/// Lexer output: the token stream plus the suppression map
/// (`lint:allow` comment line → suppressed rule names).
struct Lexed {
    toks: Vec<Tok>,
    suppress: BTreeMap<u32, BTreeSet<String>>,
}

fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut suppress: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    let mut i = 0;
    let mut line: u32 = 1;

    let is_ident_start = |c: u8| c.is_ascii_alphabetic() || c == b'_';
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let comment = &src[start..i];
                if let Some(at) = comment.find("lint:allow(") {
                    if let Some(end) = comment[at..].find(')') {
                        let inner = &comment[at + "lint:allow(".len()..at + end];
                        let rules = suppress.entry(line).or_default();
                        for rule in inner.split(',') {
                            rules.insert(rule.trim().to_string());
                        }
                    }
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comments, newline-aware.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                let (content, next, lines) = lex_string(src, i + 1);
                toks.push(Tok { line, kind: TokKind::Str(content) });
                line += lines;
                i = next;
            }
            b'\'' => {
                // Lifetime or char literal. `'` + ident-char not closed by
                // `'` is a lifetime; anything else is a char literal.
                if b.get(i + 1).is_some_and(|&c| is_ident_start(c)) && {
                    let mut j = i + 2;
                    while j < b.len() && is_ident(b[j]) {
                        j += 1;
                    }
                    b.get(j) != Some(&b'\'')
                } {
                    i += 1;
                    while i < b.len() && is_ident(b[i]) {
                        i += 1;
                    }
                    toks.push(Tok { line, kind: TokKind::Lifetime });
                } else {
                    i += 1;
                    if b.get(i) == Some(&b'\\') {
                        i += 2; // skip the escape lead and its payload head
                        while i < b.len() && b[i] != b'\'' {
                            i += 1;
                        }
                    } else {
                        // One (possibly multi-byte) char, then the quote.
                        while i < b.len() && b[i] != b'\'' {
                            i += 1;
                        }
                    }
                    i += 1; // closing quote
                    toks.push(Tok { line, kind: TokKind::Char });
                }
            }
            c if c.is_ascii_digit() => {
                while i < b.len() && is_ident(b[i]) {
                    i += 1;
                }
                toks.push(Tok { line, kind: TokKind::Num });
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident(b[i]) {
                    i += 1;
                }
                let word = &src[start..i];
                // Raw/byte string heads: r"..", r#".."#, b"..", br#".."#.
                let hashes_then_quote = |mut j: usize| {
                    let mut n = 0;
                    while b.get(j) == Some(&b'#') {
                        n += 1;
                        j += 1;
                    }
                    (b.get(j) == Some(&b'"')).then_some((n, j + 1))
                };
                if matches!(word, "r" | "br" | "b") {
                    if let Some((hashes, body)) = hashes_then_quote(i) {
                        if word == "b" && hashes > 0 {
                            // `b#` is not a string head; fall through.
                        } else {
                            let (content, next, lines) = lex_raw_string(src, body, hashes);
                            toks.push(Tok { line, kind: TokKind::Str(content) });
                            line += lines;
                            i = next;
                            continue;
                        }
                    }
                    if word == "b" && b.get(i) == Some(&b'\'') {
                        // Byte char b'x': reuse the char path next round.
                        toks.push(Tok { line, kind: TokKind::Ident(word.to_string()) });
                        continue;
                    }
                }
                toks.push(Tok { line, kind: TokKind::Ident(word.to_string()) });
            }
            c => {
                toks.push(Tok { line, kind: TokKind::Punct(c as char) });
                i += 1;
            }
        }
    }
    Lexed { toks, suppress }
}

/// Lexes a normal string body starting just past the opening quote.
/// Returns `(content, index past closing quote, newlines crossed)`.
fn lex_string(src: &str, mut i: usize) -> (String, usize, u32) {
    let b = src.as_bytes();
    let start = i;
    let mut lines = 0;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return (src[start..i].to_string(), i + 1, lines),
            b'\n' => {
                lines += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (src[start..].to_string(), i, lines)
}

/// Lexes a raw string body (`hashes` terminating `#`s) starting just
/// past the opening quote.
fn lex_raw_string(src: &str, mut i: usize, hashes: usize) -> (String, usize, u32) {
    let b = src.as_bytes();
    let start = i;
    let mut lines = 0;
    while i < b.len() {
        if b[i] == b'"'
            && b[i + 1..].iter().take(hashes).filter(|&&c| c == b'#').count() == hashes
        {
            return (src[start..i].to_string(), i + 1 + hashes, lines);
        }
        if b[i] == b'\n' {
            lines += 1;
        }
        i += 1;
    }
    (src[start..].to_string(), i, lines)
}

/// Marks the token index ranges belonging to `#[cfg(test)] mod … { … }`
/// items, which every rule skips.
fn test_mod_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let ident = |t: &Tok, s: &str| matches!(&t.kind, TokKind::Ident(w) if w == s);
    let punct = |t: &Tok, c: char| t.kind == TokKind::Punct(c);
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 7 < toks.len() {
        let attr = punct(&toks[i], '#')
            && punct(&toks[i + 1], '[')
            && ident(&toks[i + 2], "cfg")
            && punct(&toks[i + 3], '(')
            && ident(&toks[i + 4], "test")
            && punct(&toks[i + 5], ')')
            && punct(&toks[i + 6], ']');
        if !attr {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 7;
        // Skip any further attributes between cfg(test) and the item.
        while j < toks.len() && punct(&toks[j], '#') {
            let mut depth = 0;
            j += 1; // past '#'
            while j < toks.len() {
                if punct(&toks[j], '[') {
                    depth += 1;
                } else if punct(&toks[j], ']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Find the guarded item's opening brace and match it. This covers
        // `mod tests { … }` (the repo idiom) and any braced item.
        while j < toks.len() && !punct(&toks[j], '{') && !punct(&toks[j], ';') {
            j += 1;
        }
        if j < toks.len() && punct(&toks[j], '{') {
            let mut depth = 0;
            while j < toks.len() {
                if punct(&toks[j], '{') {
                    depth += 1;
                } else if punct(&toks[j], '}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
        }
        spans.push((start, j.min(toks.len())));
        i = j + 1;
    }
    spans
}

/// Splits the token stream into the segments outside `#[cfg(test)]`
/// items; sequence rules run per segment so a pattern can never
/// straddle a skipped region.
fn live_segments(toks: &[Tok]) -> Vec<&[Tok]> {
    let spans = test_mod_spans(toks);
    let mut segs = Vec::new();
    let mut at = 0;
    for (start, end) in spans {
        if start > at {
            segs.push(&toks[at..start]);
        }
        at = end + 1;
    }
    if at < toks.len() {
        segs.push(&toks[at..]);
    }
    segs
}

fn norm(path: &str) -> String {
    path.replace('\\', "/")
}

fn file_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Whether `no-bare-lock-unwrap` applies to this path: production code
/// only — tests, benches, examples and the sync layer itself are out.
fn bare_lock_applies(path: &str) -> bool {
    let p = norm(path);
    !(p.contains("/tests/")
        || p.starts_with("tests/")
        || p.contains("/benches/")
        || p.contains("crates/bench/")
        || p.contains("/examples/")
        || file_name(&p) == "sync.rs")
}

fn in_service_src(path: &str) -> bool {
    norm(path).contains("crates/service/src/")
}

fn in_deterministic_crate(path: &str) -> bool {
    let p = norm(path);
    ["crates/core/src/", "crates/sim/src/", "crates/online/src/"]
        .iter()
        .any(|prefix| p.contains(prefix))
}

/// Lints one file's source as if it lived at `path` (workspace-relative;
/// the path decides which rules apply). Suppressions are already
/// filtered out of the result.
#[must_use]
pub fn lint_source(path: &str, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let segs = live_segments(&lexed.toks);
    let mut out = Vec::new();

    let ident_in = |t: &Tok, set: &[&str]| match &t.kind {
        TokKind::Ident(w) => set.iter().any(|s| s == w).then(|| w.clone()),
        _ => None,
    };
    let punct = |t: &Tok, c: char| t.kind == TokKind::Punct(c);

    if bare_lock_applies(path) {
        // `.lock().unwrap()` and friends: `.` m `(` `)` `.` u `(`.
        const ACQUIRE: &[&str] =
            &["lock", "read", "write", "try_lock", "try_read", "try_write"];
        const FORCE: &[&str] = &["unwrap", "expect"];
        for seg in &segs {
            for w in seg.windows(7) {
                if punct(&w[0], '.')
                    && punct(&w[2], '(')
                    && punct(&w[3], ')')
                    && punct(&w[4], '.')
                    && punct(&w[6], '(')
                {
                    if let (Some(m), Some(u)) =
                        (ident_in(&w[1], ACQUIRE), ident_in(&w[5], FORCE))
                    {
                        out.push(Violation {
                            file: norm(path),
                            line: w[1].line,
                            rule: "no-bare-lock-unwrap",
                            message: format!(
                                "bare `.{m}().{u}()` — acquire through the `crate::sync` \
                                 ordered wrappers (`lock`, `lock_recover`, …) so the lockdep \
                                 tracker sees it and poisoning stays a typed error"
                            ),
                        });
                    }
                }
            }
        }
    }

    if in_service_src(path) && file_name(&norm(path)) != "sync.rs" {
        // `Mutex::new(` / `RwLock::new(` / `Condvar::new(`.
        const RAW: &[&str] = &["Mutex", "RwLock", "Condvar"];
        for seg in &segs {
            for w in seg.windows(5) {
                if punct(&w[1], ':') && punct(&w[2], ':') && punct(&w[4], '(') {
                    if let (Some(t), Some(_)) =
                        (ident_in(&w[0], RAW), ident_in(&w[3], &["new"]))
                    {
                        out.push(Violation {
                            file: norm(path),
                            line: w[0].line,
                            rule: "no-raw-sync-in-service",
                            message: format!(
                                "raw `std::sync::{t}` constructed in the service crate — use \
                                 `OrderedMutex`/`OrderedRwLock` from `crate::sync` so the lock \
                                 carries a lockdep rank"
                            ),
                        });
                    }
                }
            }
        }
    }

    if in_service_src(path) && file_name(&norm(path)) != "archive.rs" {
        for seg in &segs {
            for t in *seg {
                if let TokKind::Str(s) = &t.kind {
                    if s.contains(".snap") || s.contains(".tmp") {
                        out.push(Violation {
                            file: norm(path),
                            line: t.line,
                            rule: "fsync-discipline",
                            message: format!(
                                "string literal \"{s}\" names a snapshot/temp path outside \
                                 archive.rs — all `.snap`/`.tmp` writes must go through the \
                                 archive's temp+fsync+rename helpers"
                            ),
                        });
                    }
                }
            }
        }
    }

    if in_deterministic_crate(path) {
        const CLOCKS: &[&str] = &["Instant", "SystemTime"];
        for seg in &segs {
            for w in seg.windows(5) {
                if punct(&w[1], ':') && punct(&w[2], ':') && punct(&w[4], '(') {
                    if let (Some(t), Some(_)) =
                        (ident_in(&w[0], CLOCKS), ident_in(&w[3], &["now"]))
                    {
                        out.push(Violation {
                            file: norm(path),
                            line: w[0].line,
                            rule: "no-wallclock-in-sim",
                            message: format!(
                                "`{t}::now()` in a deterministic crate — simulated time is an \
                                 input; reading the wall clock makes replays diverge"
                            ),
                        });
                    }
                }
            }
        }
    }

    if in_service_src(path) && file_name(&norm(path)) != "json.rs" {
        for seg in &segs {
            for t in *seg {
                if let TokKind::Str(s) = &t.kind {
                    if s.contains("{:.") || s.contains("{:e") {
                        out.push(Violation {
                            file: norm(path),
                            line: t.line,
                            rule: "no-float-format-in-json",
                            message: format!(
                                "float format string \"{s}\" — serialize f64 through \
                                 `Json::bits()`; decimal formatting loses bits and breaks \
                                 byte-identical snapshot replay"
                            ),
                        });
                    }
                }
            }
        }
    }

    if in_service_src(path) {
        // `TcpStream::connect(` / `TcpStream::connect_timeout(`. The
        // first one in pool.rs is the crate's one dial site.
        const DIALS: &[&str] = &["connect", "connect_timeout"];
        let mut dial_site_unused = file_name(&norm(path)) == "pool.rs";
        for seg in &segs {
            for w in seg.windows(5) {
                if punct(&w[1], ':') && punct(&w[2], ':') && punct(&w[4], '(') {
                    if let (Some(_), Some(d)) =
                        (ident_in(&w[0], &["TcpStream"]), ident_in(&w[3], DIALS))
                    {
                        if dial_site_unused {
                            dial_site_unused = false;
                            continue;
                        }
                        out.push(Violation {
                            file: norm(path),
                            line: w[0].line,
                            rule: "no-raw-connect-in-router",
                            message: format!(
                                "raw `TcpStream::{d}` in the service crate — connect through \
                                 `pool.rs` (`ConnectionPool`, or `Conn::dial` for one-shot \
                                 calls), the crate's one dial site, so every connection gets \
                                 the same deadlines, nodelay and stale-resend rule"
                            ),
                        });
                    }
                }
            }
        }
    }

    // Apply `lint:allow` suppressions: a comment covers its own line and
    // the next one.
    out.retain(|v| {
        let allowed = |l: u32| {
            lexed
                .suppress
                .get(&l)
                .is_some_and(|rules| rules.contains(v.rule) || rules.contains("all"))
        };
        !(allowed(v.line) || (v.line > 1 && allowed(v.line - 1)))
    });
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Directories the workspace walk never descends into.
fn skip_dir(name: &str) -> bool {
    matches!(name, "vendor" | "target" | ".git" | "fixtures")
}

/// Lints every `.rs` file under `root` (the workspace checkout),
/// skipping `vendor/`, `target/`, `.git/` and fixture trees. Paths in
/// the result are relative to `root`.
///
/// # Errors
/// Propagates directory-walk I/O failures; unreadable individual files
/// become violations rather than errors.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in files {
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => out.extend(lint_source(&rel, &src)),
            Err(e) => out.push(Violation {
                file: rel,
                line: 0,
                rule: "no-bare-lock-unwrap",
                message: format!("unreadable source file: {e}"),
            }),
        }
    }
    Ok(out)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if !skip_dir(&name) {
                collect_rs_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel =
                path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_bare_lock_unwrap_with_exact_location() {
        let src = "fn f(m: &std::sync::Mutex<u32>) {\n    let g = m.lock().unwrap();\n}\n";
        let v = lint_source("crates/service/src/example.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].line, v[0].rule), (2, "no-bare-lock-unwrap"));
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "fn f(m: &std::sync::Mutex<u32>) {\n    // lint:allow(no-bare-lock-unwrap)\n    let g = m.lock().unwrap();\n    let i = m.lock().unwrap();\n    let h = m.lock().unwrap(); // lint:allow(no-bare-lock-unwrap)\n}\n";
        let v = lint_source("crates/core/src/example.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn f(m: &std::sync::Mutex<u32>) {\n        let g = m.lock().unwrap();\n    }\n}\n";
        assert!(lint_source("crates/core/src/example.rs", src).is_empty());
    }

    #[test]
    fn comments_strings_and_lifetimes_do_not_confuse_the_lexer() {
        let src = r##"
// a comment with Instant::now() inside
/* block with SystemTime::now( ) */
fn f<'a>(x: &'a str) -> char {
    let _s = "Instant::now()";
    let _r = r#"SystemTime::now()"#;
    '\n'
}
"##;
        assert!(lint_source("crates/sim/src/example.rs", src).is_empty());
    }

    #[test]
    fn wallclock_rule_is_scoped_to_deterministic_crates() {
        let src = "fn f() { let _t = std::time::Instant::now(); }\n";
        assert_eq!(lint_source("crates/sim/src/clock.rs", src).len(), 1);
        assert!(lint_source("crates/service/src/clock.rs", src).is_empty());
    }

    #[test]
    fn recover_acquisitions_pass() {
        let src = "fn f(m: &OrderedMutex<u32>) { let _g = m.lock_recover(); }\n";
        assert!(lint_source("crates/service/src/example.rs", src).is_empty());
    }
}
