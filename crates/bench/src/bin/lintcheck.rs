//! `lintcheck` — custom source lint for the workspace, run in CI.
//!
//! Scans library sources under `crates/*/src` (binaries, benches, and
//! test code are exempt) for:
//!
//! * `unwrap` — `.unwrap()` in non-test library code;
//! * `expect` — `.expect(...)` in non-test library code;
//! * `panic` — `panic!(...)` in non-test library code;
//! * `zero-fill` — `vec![0u8; n]` or `.resize(n, 0)` in non-test
//!   library code: a buffer that is about to be overwritten should be
//!   filled by appending to `Vec::with_capacity(n)`, not zeroed and
//!   then written again;
//! * `lock-in-loop` — acquiring a `Mutex` inside a loop while another
//!   lock guard bound outside the loop is still live (lock-ordering /
//!   contention smell);
//! * `item-after-test` — a top-level item without `#[cfg(test)]` after
//!   the file's first `#[cfg(test)]`: the walk stops at that attribute,
//!   so such an item would be neither linted nor counted;
//! * `doc-path` — a backticked `*.rs` name in README.md, DESIGN.md or
//!   EXPERIMENTS.md that names no file git tracks. A name matches a
//!   tracked path's trailing components, also with `crates/` and `src/`
//!   left out (`tiers/sim.rs`), and `*` matches within one component
//!   (`ablation_*.rs` must match at least one file). A bare name under a
//!   `### tapioca-<crate>` or `### tapioca (core)` heading must resolve
//!   inside that crate.
//!
//! Findings must either be fixed or justified in `lint-allow.txt` at
//! the workspace root, one entry per line:
//!
//! ```text
//! <rule> <path> -- <justification>
//! ```
//!
//! One entry covers every finding of its rule in its file. Several
//! entries for the same rule and file justify one site each, in file
//! order, and the last covers any further sites.
//!
//! Exit status is non-zero on any unjustified finding, and on any
//! stale allowlist entry (so justifications cannot outlive the code
//! they excuse). The summary also prints the non-test, non-comment code
//! lines per crate over the same walk (see `tapioca_bench::loc`).

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;

use tapioca_bench::loc::{code_lines_per_crate, library_sources, non_test_lines};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Finding {
    rule: &'static str,
    path: String,
    line: usize,
    excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}:{}  {}", self.rule, self.path, self.line, self.excerpt)
    }
}

/// Strip line comments and string literals so the patterns cannot
/// match inside either. Heuristic (no raw-string handling), which is
/// fine for a lint whose misses land in the allowlist with a reason.
fn sanitize(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            '\'' => {
                // char literal (or lifetime — a lifetime has no closing
                // quote within a couple of chars, so probe ahead).
                let probe: Vec<char> = chars.clone().take(3).collect();
                if probe.get(1) == Some(&'\'') || (probe.first() == Some(&'\\')) {
                    chars.next();
                    if probe.first() == Some(&'\\') {
                        chars.next();
                    }
                    chars.next();
                    out.push('\'');
                } else {
                    out.push('\'');
                }
            }
            _ => out.push(c),
        }
    }
    out
}

/// Whether `s` calls `.resize(<n>, 0)` (or `0u8`) on one line: the
/// zero-extend-then-overwrite form of `vec![0u8; n]`.
fn zero_resize(s: &str) -> bool {
    s.match_indices(".resize(").any(|(i, pat)| {
        let args = &s[i + pat.len()..];
        let mut depth = 0;
        let Some(end) = args.find(|c| {
            match c {
                '(' => depth += 1,
                ')' if depth == 0 => return true,
                ')' => depth -= 1,
                _ => {}
            }
            false
        }) else {
            return false;
        };
        args[..end].rsplit_once(',').is_some_and(|(_, v)| matches!(v.trim(), "0" | "0u8"))
    })
}

/// A `let`-bound guard acquisition: `let g = x.lock()...`.
fn binds_guard(s: &str) -> bool {
    s.contains("let ") && s.contains(".lock(")
}

fn opens_loop(s: &str) -> bool {
    let t = s.trim_start();
    (t.starts_with("for ") || t.starts_with("while ") || t.starts_with("loop")
        || t.contains(" for ")
        || t.contains(" while ")
        || t.contains(" loop "))
        && s.contains('{')
}

fn scan_file(root: &Path, path: &Path, findings: &mut Vec<Finding>) {
    let Ok(src) = std::fs::read_to_string(path) else { return };
    let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().to_string();
    scan_source(&rel, &src, findings);
}

fn scan_source(rel: &str, src: &str, findings: &mut Vec<Finding>) {
    // Guards held at (brace depth) and loops entered at (brace depth),
    // for the lock-in-loop rule.
    let mut depth: i64 = 0;
    let mut guards: Vec<i64> = Vec::new();
    let mut loops: Vec<i64> = Vec::new();
    for (i, raw) in non_test_lines(src).enumerate() {
        let line = sanitize(raw);
        let lineno = i + 1;
        let excerpt = raw.trim().chars().take(90).collect::<String>();
        for (rule, pat) in [
            ("unwrap", ".unwrap()"),
            ("expect", ".expect("),
            ("panic", "panic!("),
            ("zero-fill", "vec![0u8;"),
        ] {
            if line.contains(pat) || (rule == "zero-fill" && zero_resize(&line)) {
                findings.push(Finding { rule, path: rel.to_string(), line: lineno, excerpt: excerpt.clone() });
            }
        }
        // Lock-ordering smell: a lock acquired inside a loop while a
        // guard bound outside that loop is still live.
        let opens = opens_loop(&line);
        if line.contains(".lock(")
            && !binds_guard(&line)
            && !loops.is_empty()
            && guards.iter().any(|&g| loops.iter().any(|&l| g <= l))
        {
            findings.push(Finding {
                rule: "lock-in-loop",
                path: rel.to_string(),
                line: lineno,
                excerpt: excerpt.clone(),
            });
        }
        if opens {
            loops.push(depth);
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|&g| g < depth);
                    loops.retain(|&l| l < depth);
                }
                _ => {}
            }
        }
        if binds_guard(&line) {
            // A `let`-bound acquisition inside a loop while a guard
            // from outside the loop is live is the same smell.
            if guards.iter().any(|&g| loops.iter().any(|&l| g <= l)) {
                findings.push(Finding {
                    rule: "lock-in-loop",
                    path: rel.to_string(),
                    line: lineno,
                    excerpt,
                });
            }
            guards.push(depth);
        }
    }
    scan_test_tail(rel, src, findings);
}

/// `item-after-test` findings of `src`: top-level items that follow the
/// first `#[cfg(test)]` line (where [`non_test_lines`] stops) without
/// carrying `#[cfg(test)]` themselves.
fn scan_test_tail(rel: &str, src: &str, findings: &mut Vec<Finding>) {
    let mut depth: i64 = 0;
    let mut in_tail = false;
    // The attributes since the last top-level item include `#[cfg(test)]`.
    let mut test_attr = false;
    for (i, raw) in src.lines().enumerate() {
        let line = sanitize(raw);
        let t = line.trim();
        if raw.trim_start().starts_with("#[cfg(test)]") {
            in_tail = true;
            test_attr |= depth == 0;
        }
        let item = depth == 0
            && !raw.starts_with(char::is_whitespace)
            && !t.is_empty()
            && !t.starts_with(['#', '{', '}', ')', ']'])
            && !t.starts_with("where");
        if item {
            if in_tail && !test_attr {
                findings.push(Finding {
                    rule: "item-after-test",
                    path: rel.to_string(),
                    line: i + 1,
                    excerpt: raw.trim().chars().take(90).collect(),
                });
            }
            test_attr = false;
        }
        depth += line.matches('{').count() as i64 - line.matches('}').count() as i64;
    }
}

/// The documents whose backticked `*.rs` names must resolve.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The crate directory a `### tapioca-<crate>` or `### tapioca (core)`
/// heading describes.
fn heading_crate(heading: &str) -> Option<String> {
    let title = heading.strip_prefix("### tapioca")?;
    match title.strip_prefix('-') {
        Some(rest) => rest.split_whitespace().next().map(str::to_string),
        None => title.trim().eq("(core)").then(|| "core".to_string()),
    }
}

/// Whether glob `pat` (`*` matching any run of characters) matches `s`.
fn glob(pat: &str, s: &str) -> bool {
    match pat.split_once('*') {
        None => pat == s,
        Some((head, tail)) => s.strip_prefix(head).is_some_and(|rest| {
            rest.char_indices().map(|(i, _)| i).chain([rest.len()]).any(|i| glob(tail, &rest[i..]))
        }),
    }
}

/// Whether `name` matches the trailing components of tracked `path`,
/// as it stands or with `crates/` and then `src/` left out.
fn names_path(name: &str, path: &str) -> bool {
    let short = path.strip_prefix("crates/").unwrap_or(path);
    let shorter = short.replacen("/src/", "/", 1);
    [path, short, &shorter].iter().any(|p| {
        let (want, have): (Vec<&str>, Vec<&str>) = (name.split('/').collect(), p.split('/').collect());
        want.len() <= have.len()
            && want.iter().zip(&have[have.len() - want.len()..]).all(|(w, h)| glob(w, h))
    })
}

/// `doc-path` findings of document `rel` (text `doc`) against the
/// `tracked` file list.
fn scan_doc(rel: &str, doc: &str, tracked: &[String], findings: &mut Vec<Finding>) {
    let mut krate: Option<String> = None;
    let mut fenced = false;
    for (i, line) in doc.lines().enumerate() {
        if line.starts_with("```") {
            fenced = !fenced;
        }
        if fenced {
            continue;
        }
        if line.starts_with('#') {
            krate = heading_crate(line);
        }
        // Odd pieces between backticks are code spans; `name.rs:12`
        // cites a line.
        for span in line.split('`').skip(1).step_by(2) {
            let name = span.split(':').next().unwrap_or(span);
            let pathlike =
                name.chars().all(|c| c.is_ascii_alphanumeric() || "_-./*".contains(c));
            if !pathlike || !name.ends_with(".rs") {
                continue;
            }
            let within = krate.as_deref().filter(|_| !name.contains('/'));
            let resolves = tracked.iter().any(|path| {
                within.is_none_or(|k| path.starts_with(&format!("crates/{k}/")))
                    && names_path(name, path)
            });
            if !resolves {
                let place = within.map(|k| format!(" (in crates/{k})")).unwrap_or_default();
                findings.push(Finding {
                    rule: "doc-path",
                    path: rel.to_string(),
                    line: i + 1,
                    excerpt: format!("`{name}` names no tracked file{place}"),
                });
            }
        }
    }
}

/// The files git tracks under `root`, or `None` when git cannot list
/// them.
fn tracked_files(root: &Path) -> Option<Vec<String>> {
    let out = Command::new("git").arg("-C").arg(root).arg("ls-files").output().ok()?;
    let list = String::from_utf8_lossy(&out.stdout).lines().map(str::to_string).collect();
    out.status.success().then_some(list)
}

#[derive(Debug)]
struct Allow {
    rule: String,
    path: String,
    used: bool,
}

fn load_allowlist(root: &Path) -> Vec<Allow> {
    let Ok(text) = std::fs::read_to_string(root.join("lint-allow.txt")) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let body = l.split(" -- ").next().unwrap_or(l);
            let mut it = body.split_whitespace();
            let rule = it.next()?.to_string();
            let path = it.next()?.to_string();
            Some(Allow { rule, path, used: false })
        })
        .collect()
}

/// Match `findings` (in file order) against the allowlist: a finding
/// marks the first unused entry of its rule and file, or — with all of
/// them used — is covered by them anyway. Returns the findings no entry
/// covers; entries still unused afterwards are stale.
fn justify<'f>(findings: &'f [Finding], allows: &mut [Allow]) -> Vec<&'f Finding> {
    let mut denied = Vec::new();
    for f in findings {
        let mut matching =
            allows.iter_mut().filter(|a| a.rule == f.rule && a.path == f.path).peekable();
        if matching.peek().is_none() {
            denied.push(f);
        } else if let Some(a) = matching.find(|a| !a.used) {
            a.used = true;
        }
    }
    denied
}

fn main() {
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = if root.join("crates").is_dir() {
        root
    } else {
        // Allow running from a crate directory.
        root.ancestors()
            .find(|a| a.join("crates").is_dir())
            .map(Path::to_path_buf)
            .unwrap_or(root)
    };
    let mut findings = Vec::new();
    let sources = library_sources(&root);
    for path in &sources {
        scan_file(&root, path, &mut findings);
    }
    let mut bad = 0usize;
    match tracked_files(&root) {
        Some(tracked) => {
            for doc in DOCS {
                if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
                    scan_doc(doc, &text, &tracked, &mut findings);
                }
            }
        }
        None => {
            println!("DENY  doc-path: `git ls-files` failed, so no document was checked");
            bad += 1;
        }
    }
    let mut allows = load_allowlist(&root);
    for f in justify(&findings, &mut allows) {
        println!("DENY  {f}");
        bad += 1;
    }
    for a in &allows {
        if !a.used {
            println!("STALE allowlist entry: {} {}", a.rule, a.path);
            bad += 1;
        }
    }
    let loc = code_lines_per_crate(&root);
    let per_crate: Vec<String> = loc.iter().map(|(k, n)| format!("{k} {n}")).collect();
    println!(
        "lintcheck: {} non-test code lines ({})",
        loc.values().sum::<usize>(),
        per_crate.join(", ")
    );
    println!(
        "lintcheck: {} files, {} finding(s), {} allowlisted, {} problem(s)",
        sources.len(),
        findings.len(),
        findings.len() - bad.min(findings.len()),
        bad
    );
    if bad > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str) -> Vec<(&'static str, usize)> {
        let mut findings = Vec::new();
        scan_source("x.rs", src, &mut findings);
        findings.into_iter().map(|f| (f.rule, f.line)).collect()
    }

    #[test]
    fn flags_unwrap_expect_panic() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"why\");\n    panic!(\"no\");\n}\n";
        assert_eq!(rules(src), vec![("unwrap", 2), ("expect", 3), ("panic", 4)]);
    }

    #[test]
    fn flags_zero_fill_outside_comments_strings_and_tests() {
        let src = "fn f(n: usize) {\n    let a = vec![0u8; n];\n    \
                   let b = Vec::<u8>::with_capacity(n);\n    // vec![0u8; n]\n    \
                   let s = \"vec![0u8; n]\";\n    let c = vec![0u64; n];\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { let d = vec![0u8; 4]; }\n}\n";
        assert_eq!(rules(src), vec![("zero-fill", 2)]);
    }

    /// `.resize(n, 0)` zero-extends just as `vec![0u8; n]` zero-fills;
    /// a non-zero fill value, a nested call in the length and a
    /// commented-out call are told apart.
    #[test]
    fn flags_zero_resize() {
        let src = "fn f(v: &mut Vec<u8>, n: usize) {\n    v.resize(n, 0);\n    \
                   v.resize(v.len() + f(n, 1), 0u8);\n    v.resize(n, 7);\n    \
                   v.resize(g(n, 0), 1);\n    // v.resize(n, 0);\n    v.truncate(0);\n}\n";
        assert_eq!(rules(src), vec![("zero-fill", 2), ("zero-fill", 3)]);
        assert!(zero_resize("x.resize(n, 1); y.resize(m,0)"));
        assert!(!zero_resize("x.resize(n, 10)"));
    }

    /// Two entries for one rule and file justify one site each; a
    /// third is stale, and a lone entry covers every site of its file.
    #[test]
    fn entries_for_one_file_justify_one_site_each() {
        let src = "fn f(n: usize) {\n    let a = vec![0u8; n];\n    let b = vec![0u8; 2 * n];\n}\n";
        let mut findings = Vec::new();
        scan_source("x.rs", src, &mut findings);
        let entry = |rule: &str| Allow { rule: rule.into(), path: "x.rs".into(), used: false };
        let mut allows = vec![entry("zero-fill"), entry("zero-fill"), entry("zero-fill")];
        assert!(justify(&findings, &mut allows).is_empty());
        assert_eq!(allows.iter().map(|a| a.used).collect::<Vec<_>>(), [true, true, false]);
        let mut allows = vec![entry("zero-fill")];
        assert!(justify(&findings, &mut allows).is_empty());
        assert!(allows[0].used);
        let mut allows = vec![entry("expect")];
        assert_eq!(justify(&findings, &mut allows).len(), 2);
        assert!(!allows[0].used);
    }

    fn doc_findings(doc: &str) -> Vec<(usize, String)> {
        let tracked: Vec<String> = [
            "crates/core/src/sim_exec.rs",
            "crates/pfs/src/layout.rs",
            "crates/tiers/src/sim.rs",
            "crates/bench/src/bin/ablation_pipeline.rs",
            "tests/sim_golden.rs",
        ]
        .map(String::from)
        .to_vec();
        let mut findings = Vec::new();
        scan_doc("DESIGN.md", doc, &tracked, &mut findings);
        findings.into_iter().map(|f| (f.line, f.excerpt)).collect()
    }

    #[test]
    fn doc_paths_resolve_to_tracked_files() {
        let doc = "See `tests/sim_golden.rs`, `tiers/sim.rs:86` and `sim.rs`.\n\
                   The `ablation_*.rs` binaries; `core/sim_exec.rs`.\n\
                   ### tapioca-pfs\n- `layout.rs` — striping.\n\
                   ### tapioca (core)\n- `sim_exec.rs`, `crates/pfs/src/layout.rs`\n\
                   ```\n`stale.rs` in a code block\n```\n";
        assert_eq!(doc_findings(doc), []);
    }

    /// A bare name must resolve in the crate its heading describes, a
    /// glob must match something, and a path must exist.
    #[test]
    fn doc_paths_catch_stale_names() {
        let doc = "### tapioca (core)\n- `layout.rs` — gone from core.\n\
                   ## Experiments\n`layout.rs`, `fig*.rs`, `tests/golden.rs`, `tuning.rs`\n";
        assert_eq!(doc_findings(doc), [
            (2, "`layout.rs` names no tracked file (in crates/core)".to_string()),
            (4, "`fig*.rs` names no tracked file".to_string()),
            (4, "`tests/golden.rs` names no tracked file".to_string()),
            (4, "`tuning.rs` names no tracked file".to_string()),
        ]);
    }

    #[test]
    fn headings_name_their_crate() {
        assert_eq!(heading_crate("### tapioca-mpi (threads substrate)").as_deref(), Some("mpi"));
        assert_eq!(heading_crate("### tapioca (core)").as_deref(), Some("core"));
        assert_eq!(heading_crate("## Crate inventory"), None);
    }

    #[test]
    fn ignores_comments_and_strings() {
        let src = "fn f() {\n    // x.unwrap()\n    let s = \"panic!(oops)\";\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn stops_at_test_module() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(rules(src).is_empty());
    }

    /// A library item after test code is flagged wherever the first
    /// `#[cfg(test)]` sits; test-only items after it are not.
    #[test]
    fn flags_library_items_after_test_code() {
        let src = "struct A;\nimpl A {\n    #[cfg(test)]\n    fn t() {}\n}\n\
                   /// doc\nfn lib()\nwhere\n    A: Sized,\n{\n}\n\
                   #[cfg(test)]\n/// doc\nimpl A {\n    fn u() {}\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn g() {}\n}\n";
        assert_eq!(rules(src), vec![("item-after-test", 7)]);
        let tail = "fn lib() {}\n#[cfg(test)]\nimpl A {\n    fn u() {}\n}\n\
                    #[cfg(test)]\nmod tests {}\n";
        assert!(rules(tail).is_empty());
    }

    #[test]
    fn flags_lock_inside_loop_holding_guard() {
        let src = "fn f() {\n    let a = m.lock();\n    for x in xs {\n        n.lock();\n    }\n}\n";
        assert_eq!(rules(src), vec![("lock-in-loop", 4)]);
    }

    #[test]
    fn flags_bound_lock_inside_loop_holding_guard() {
        let src = "fn f() {\n    let a = m.lock();\n    for x in xs {\n        let b = n.lock();\n    }\n}\n";
        assert_eq!(rules(src), vec![("lock-in-loop", 4)]);
    }

    #[test]
    fn lock_in_loop_without_outer_guard_is_fine() {
        let src = "fn f() {\n    for x in xs {\n        let b = n.lock();\n    }\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn guard_dropped_before_loop_is_fine() {
        let src = "fn f() {\n    {\n        let a = m.lock();\n    }\n    for x in xs {\n        n.lock();\n    }\n}\n";
        assert!(rules(src).is_empty());
    }
}
