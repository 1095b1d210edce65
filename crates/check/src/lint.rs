//! The workspace concurrency-hygiene lint (`fg_check --lint`).
//!
//! Four rules aimed at keeping the synchronization story auditable,
//! and a fifth that keeps CI running the tests it says it runs:
//!
//! 1. **`raw-sync`** — no `std::sync::atomic` (or `core::…`) paths
//!    outside `crates/types/`, and no raw lock or channel path
//!    (`std::sync::{Mutex, RwLock, Condvar, mpsc}`, written `::Name` or
//!    inside a `{…}` import) in the shipped library crates — their
//!    in-file test modules included; `tests/`, `benches/`, this crate
//!    and the ledger keep `std` scaffolding. `fg_types::sync` is the
//!    one sanctioned gateway: a single import surface is what makes the
//!    other rules sufficient, and a single non-poisoning lock is what
//!    keeps a panicking holder from wedging whoever locks next.
//! 2. **`unsafe-safety`** — every line containing the `unsafe` keyword
//!    carries a justification: a `SAFETY:` comment (or a `# Safety`
//!    doc section for `unsafe fn` declarations) on the same line or in
//!    the directly-preceding run of comment/attribute lines.
//! 3. **`ordering-justify`** — every `Ordering::Relaxed` or
//!    `Ordering::SeqCst` carries an `ordering:` comment the same way.
//!    (`Acquire`/`Release`/`AcqRel` are the workspace default and need
//!    no per-site note; `Relaxed` weakens and `SeqCst` hides the real
//!    edge, so both must say why.)
//! 4. **`checked-imports`** — a file `fg_check` explores *as shipped*
//!    (the list is read from the mount, see [`mounted_files`]) reaches
//!    no `std::sync::` / `core::sync::` / `fg_types::sync` path: it
//!    would compile in both crates and put a lock the checker cannot
//!    see into a "checked" protocol. Every primitive is
//!    `super::sync::…`; `std::sync::Arc`, which shares ownership and
//!    carries no protocol, is the exception.
//! 5. **`ci-filters`** — every positional test filter of every
//!    `cargo test` line in `.github/workflows/ci.yml` selects at least
//!    one test. libtest keeps the tests whose path contains the filter
//!    and passes when none does, so a test renamed in the source and
//!    not in the workflow silently stops running there. A test's path
//!    is taken to be its file's module path, `tests` for an in-file
//!    test module, and the `fn` name (or a nested `mod`'s, which
//!    selects what is inside it); a file under a `tests/` directory is
//!    its own binary and contributes bare names.
//!
//! The scanner is line-based over a comment/string-stripped view of
//! each file: rule patterns inside string literals or comments never
//! fire, and justification keywords are only honoured inside
//! comments. That is deliberately simpler than a full parse — the
//! rules are about *adjacent documentation*, which is a line-level
//! property.

use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source line.
#[derive(Clone, Debug)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// A source line split into its code and comment parts, with string
/// literal contents blanked out of the code part.
#[derive(Default)]
pub(crate) struct SplitLine {
    pub(crate) code: String,
    comment: String,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Code,
    /// Inside `/* … */`, with nesting depth.
    Block(u32),
    /// Inside a `"…"` literal.
    Str,
    /// Inside a raw string; the payload is the closing hash count.
    RawStr(u32),
}

/// Splits a file into per-line (code, comment) parts. Line comments,
/// block comments and doc comments land in `comment`; string and char
/// literal contents are dropped from `code` so patterns inside them
/// cannot fire.
pub(crate) fn split_lines(src: &str) -> Vec<SplitLine> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    for raw in src.lines() {
        let b: Vec<char> = raw.chars().collect();
        let mut line = SplitLine::default();
        let mut i = 0;
        while i < b.len() {
            match mode {
                Mode::Block(depth) => {
                    if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        mode = if depth == 1 {
                            Mode::Code
                        } else {
                            Mode::Block(depth - 1)
                        };
                        i += 2;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(depth + 1);
                        i += 2;
                    } else {
                        line.comment.push(b[i]);
                        i += 1;
                    }
                }
                Mode::Str => {
                    if b[i] == '\\' {
                        i += 2; // skip the escaped char (may run off the line: \ at EOL)
                    } else if b[i] == '"' {
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if b[i] == '"' {
                        let avail = &b[i + 1..];
                        let n = hashes as usize;
                        if avail.len() >= n && avail[..n].iter().all(|&c| c == '#') {
                            mode = Mode::Code;
                            i += 1 + n;
                            continue;
                        }
                    }
                    i += 1;
                }
                Mode::Code => {
                    let c = b[i];
                    if c == '/' && b.get(i + 1) == Some(&'/') {
                        line.comment.push_str(&raw[char_byte_off(raw, i)..]);
                        i = b.len();
                    } else if c == '/' && b.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(1);
                        i += 2;
                    } else if c == '"' {
                        mode = Mode::Str;
                        i += 1;
                    } else if let Some(adv) = raw_str_open(&b[i..]) {
                        // r"…", r#"…"#, br#"…"# — count the hashes.
                        let hashes = b[i..i + adv].iter().filter(|&&c| c == '#').count();
                        mode = Mode::RawStr(hashes as u32);
                        i += adv;
                    } else if c == '\'' {
                        if let Some(adv) = char_literal(&b[i..]) {
                            i += adv; // 'x', '\n' — dropped like strings
                        } else {
                            line.code.push(c); // lifetime tick
                            i += 1;
                        }
                    } else {
                        line.code.push(c);
                        i += 1;
                    }
                }
            }
        }
        // A line comment ends at the newline.
        out.push(line);
    }
    out
}

/// Byte offset of char index `i` in `s` (lines are short; linear scan
/// is fine).
fn char_byte_off(s: &str, i: usize) -> usize {
    s.char_indices().nth(i).map_or(s.len(), |(o, _)| o)
}

/// If `b` starts a raw string opener (`r`/`br` + hashes + `"`),
/// returns its length in chars (through the opening quote).
fn raw_str_open(b: &[char]) -> Option<usize> {
    let mut i = 0;
    if b.first() == Some(&'b') {
        i += 1;
    }
    if b.get(i) != Some(&'r') {
        return None;
    }
    i += 1;
    while b.get(i) == Some(&'#') {
        i += 1;
    }
    if b.get(i) == Some(&'"') {
        Some(i + 1)
    } else {
        None
    }
}

/// If `b` starts a char literal (`'x'` or `'\…'`), returns its length
/// in chars; `None` means it is a lifetime tick.
fn char_literal(b: &[char]) -> Option<usize> {
    debug_assert_eq!(b.first(), Some(&'\''));
    if b.get(1) == Some(&'\\') {
        // Escape: scan to the closing quote.
        let mut i = 2;
        while i < b.len() && i < 12 {
            if b[i] == '\'' && !(i == 2 && b[2] == '\'') {
                return Some(i + 1);
            }
            i += 1;
        }
        // `'\'` alone is ill-formed; treat as escaped-quote literal.
        if b.get(2) == Some(&'\'') && b.get(3) == Some(&'\'') {
            return Some(4);
        }
        None
    } else if b.len() >= 3 && b[2] == '\'' && b[1] != '\'' {
        Some(3)
    } else {
        None
    }
}

/// True if the line is only an attribute (`#[…]` / `#![…]`) — these
/// may sit between a justifying comment and its code line.
fn is_attr_only(code: &str) -> bool {
    let t = code.trim();
    (t.starts_with("#[") || t.starts_with("#![")) && t.ends_with(']')
}

/// Searches the same line's comment, then the directly-preceding run
/// of comment-only/attribute-only lines, for any of `keys`.
fn justified(lines: &[SplitLine], idx: usize, keys: &[&str]) -> bool {
    let hit = |c: &str| keys.iter().any(|k| c.contains(k));
    if hit(&lines[idx].comment) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let code_blank = l.code.trim().is_empty();
        if code_blank && l.comment.trim().is_empty() {
            break; // blank line ends the run
        }
        if code_blank || is_attr_only(&l.code) {
            if hit(&l.comment) {
                return true;
            }
            continue; // still inside the comment/attribute run
        }
        break; // a code line ends the run
    }
    false
}

/// True for a word-boundary occurrence of `word` in `code`.
fn has_word(code: &str, word: &str) -> bool {
    let isw = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(p) = code[start..].find(word) {
        let at = start + p;
        let before_ok = at == 0 || !code[..at].chars().next_back().is_some_and(isw);
        let after = at + word.len();
        let after_ok = after >= code.len() || !code[after..].chars().next().is_some_and(isw);
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// The files `fg_check` explores as shipped, workspace-relative: the
/// targets of the `path` attributes in the source of [`crate::models`],
/// the one place that declares them.
pub fn mounted_files() -> Vec<String> {
    let targets = include_str!("models/mod.rs").lines().filter_map(|l| {
        let attr = l.trim().strip_prefix("#[")?.trim_start();
        let target = attr.strip_prefix("path")?.split('"').nth(1)?;
        // Relative to the declaring file's directory.
        let mut parts = vec!["crates", "check", "src", "models"];
        for seg in target.split('/') {
            match seg {
                ".." => drop(parts.pop()),
                seg => parts.push(seg),
            }
        }
        Some(parts.join("/"))
    });
    targets.collect()
}

/// The paths rule 4 keeps out of a mounted file.
const UNCHECKED: [&str; 3] = ["std::sync::", "core::sync::", "fg_types::sync"];

/// The crates rule 1 keeps raw locks and channels out of: the shipped
/// libraries, whose locks a panicking tenant or base read can unwind
/// through.
const SHIPPED: [&str; 8] = [
    "crates/graph/src/",
    "crates/format/src/",
    "crates/ssdsim/src/",
    "crates/safs/src/",
    "crates/core/src/",
    "crates/apps/src/",
    "crates/baselines/src/",
    "src/",
];

/// The `std::sync` names `fg_types::sync` stands in for (guards share
/// their lock's prefix).
const RAW_LOCKS: [&str; 4] = ["Mutex", "RwLock", "Condvar", "mpsc"];

/// The raw lock or channel `code` reaches through a `std::sync::` path,
/// in either form: `std::sync::Mutex`, `std::sync::{Arc, Mutex}`.
fn raw_lock(code: &str) -> Option<&'static str> {
    code.match_indices("std::sync::").find_map(|(at, path)| {
        let rest = &code[at + path.len()..];
        // One name follows the path, or a group of them.
        let (names, count) = match rest.strip_prefix('{') {
            Some(group) => (group.split('}').next().unwrap_or(group), usize::MAX),
            None => (rest, 1),
        };
        let mut names = names.split(',').take(count).map(str::trim_start);
        names.find_map(|n| RAW_LOCKS.into_iter().find(|raw| n.starts_with(raw)))
    })
}

/// Lints one file's source. `path_label` is the workspace-relative
/// path, used for reporting, for the `crates/types/` gateway exemption
/// of the raw-atomic rule and to tell a mounted file (rule 4).
pub fn lint_source(path_label: &str, src: &str) -> Vec<Violation> {
    let lines = split_lines(src);
    let mounted = mounted_files().iter().any(|f| f == path_label);
    let in_types = path_label.replace('\\', "/").starts_with("crates/types/");
    let shipped = SHIPPED.iter().any(|dir| path_label.starts_with(dir));
    let mut out = Vec::new();
    for (idx, l) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if !in_types
            && (l.code.contains("std::sync::atomic") || l.code.contains("core::sync::atomic"))
        {
            out.push(Violation {
                file: path_label.to_string(),
                line: lineno,
                rule: "raw-sync",
                msg: "raw `std::sync::atomic` path outside `fg_types` — go through \
                      `fg_types::sync` (the single audited gateway)"
                    .to_string(),
            });
        }
        if let Some(raw) = raw_lock(&l.code).filter(|_| shipped) {
            out.push(Violation {
                file: path_label.to_string(),
                line: lineno,
                rule: "raw-sync",
                msg: format!(
                    "raw `std::sync::{raw}` in a shipped crate — use `fg_types::sync`, \
                     whose locks do not poison and whose names `fg_check` can double"
                ),
            });
        }
        if has_word(&l.code, "unsafe") && !justified(&lines, idx, &["SAFETY:", "# Safety"]) {
            out.push(Violation {
                file: path_label.to_string(),
                line: lineno,
                rule: "unsafe-safety",
                msg: "`unsafe` without an adjacent `// SAFETY:` comment (or `# Safety` \
                      doc section)"
                    .to_string(),
            });
        }
        let unchecked = UNCHECKED.into_iter().find(|p| {
            let mut after = l.code.match_indices(p).map(|(i, _)| &l.code[i + p.len()..]);
            mounted && after.any(|rest| !rest.starts_with("Arc"))
        });
        if let Some(pat) = unchecked {
            out.push(Violation {
                file: path_label.to_string(),
                line: lineno,
                rule: "checked-imports",
                msg: format!(
                    "`{}` path in a file `fg_check` explores as shipped — name the \
                     primitive as `super::sync::…` so the checker's doubles see it",
                    pat
                ),
            });
        }
        for pat in ["Ordering::Relaxed", "Ordering::SeqCst"] {
            if l.code.contains(pat) && !justified(&lines, idx, &["ordering:"]) {
                out.push(Violation {
                    file: path_label.to_string(),
                    line: lineno,
                    rule: "ordering-justify",
                    msg: format!(
                        "`{}` without an adjacent `// ordering:` justification comment",
                        pat
                    ),
                });
            }
        }
    }
    out
}

/// The workflow rule 5 reads, workspace-relative.
const CI_WORKFLOW: &str = ".github/workflows/ci.yml";

/// Flags of `cargo test` (before `--`) and of libtest (after it) that
/// take the next word as their value — a word that is no filter.
const VALUE_FLAGS: [&str; 12] = [
    "-p",
    "--package",
    "--test",
    "--bench",
    "--example",
    "--bin",
    "--features",
    "--manifest-path",
    "--exclude",
    "-j",
    "--skip",
    "--test-threads",
];

/// The positional test filters of every `cargo test` command in a
/// workflow, each with the line its command starts on. A command runs
/// to the end of its line (continued over a trailing `\`) or to the
/// first shell operator; words holding a `$` are the shell's to expand
/// and are left alone.
fn ci_test_filters(ci: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut lines = ci.lines().enumerate();
    while let Some((idx, line)) = lines.next() {
        if line.trim_start().starts_with('#') {
            continue;
        }
        let mut cmd = line.to_string();
        while let Some(head) = cmd.strip_suffix('\\') {
            cmd = format!("{head} {}", lines.next().map_or("", |(_, l)| l));
        }
        for tail in cmd.split("cargo test").skip(1) {
            let mut words = tail
                .split_whitespace()
                .map(|w| w.trim_matches(['"', '\'']))
                .take_while(|w| ![";", "&&", "||", "|", ">", "done"].contains(w));
            while let Some(word) = words.next() {
                if VALUE_FLAGS.contains(&word) {
                    words.next();
                } else if !word.starts_with('-') && !word.contains('$') {
                    out.push((idx + 1, word.to_string()));
                }
            }
        }
    }
    out
}

/// Appends the test paths `label`'s functions and modules can have
/// (see rule 5).
fn test_paths(label: &str, src: &str, out: &mut Vec<String>) {
    let parts: Vec<&str> = label.trim_end_matches(".rs").split('/').collect();
    let Some(root) = parts.iter().rposition(|p| ["src", "tests"].contains(p)) else {
        return;
    };
    let mut module = parts[root + 1..].to_vec();
    if parts[root] == "tests" {
        module.remove(0); // the binary's name is not part of the path
    } else if ["lib", "main", "mod"].contains(module.last().unwrap_or(&"")) {
        module.pop();
    }
    // A nested module's name stands in for the tests inside it.
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    for line in split_lines(src) {
        let words = line.code.split(|c| !ident(c)).filter(|w| !w.is_empty());
        for pair in words.collect::<Vec<_>>().windows(2) {
            if ["fn", "mod"].contains(&pair[0]) {
                for test_mod in [&[][..], &["tests"]] {
                    let path = [&module[..], test_mod, &pair[1..]].concat();
                    out.push(path.join("::"));
                }
            }
        }
    }
}

/// Rule 5 over a workflow's text and the workspace's test paths.
pub fn lint_ci_filters(ci: &str, paths: &[String]) -> Vec<Violation> {
    let dangling = |(_, f): &(usize, String)| !paths.iter().any(|p| p.contains(f.as_str()));
    let violation = |(line, filter)| Violation {
        file: CI_WORKFLOW.to_string(),
        line,
        rule: "ci-filters",
        msg: format!(
            "test filter `{filter}` selects no test — no `fn` under a `src/` or `tests/` \
             tree has a path containing it, and a filter that matches nothing passes"
        ),
    };
    let filters = ci_test_filters(ci).into_iter();
    filters.filter(dangling).map(violation).collect()
}

/// Walks `root` for `.rs` files (skipping `target/`, `shims/`,
/// `.git/`) and lints each, then holds the CI workflow, if there is
/// one, to the tests they define. Violations are sorted by path and
/// line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    let mut paths = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let label = rel.to_string_lossy().replace('\\', "/");
        out.extend(lint_source(&label, &src));
        test_paths(&label, &src, &mut paths);
    }
    if let Ok(ci) = std::fs::read_to_string(root.join(CI_WORKFLOW)) {
        out.splice(0..0, lint_ci_filters(&ci, &paths));
    }
    Ok(out)
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "shims" || name == ".git" {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path.strip_prefix(root).unwrap_or(&path).to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(src: &str) -> Vec<&'static str> {
        lint_source("crates/demo/src/lib.rs", src)
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn raw_atomic_flagged_outside_types() {
        assert_eq!(rules("use std::sync::atomic::AtomicU64;\n"), ["raw-sync"]);
        assert!(lint_source(
            "crates/types/src/sync.rs",
            "use std::sync::atomic::AtomicU64;\n"
        )
        .is_empty());
    }

    #[test]
    fn raw_locks_and_channels_flagged_in_shipped_crates() {
        let shipped = |src: &str| lint_source("crates/safs/src/cache.rs", src).len();
        for src in [
            "use std::sync::Mutex;\n",
            "use std::sync::{Arc, RwLock};\n",
            "use std::sync::{Condvar, MutexGuard};\n",
            "let (tx, rx) = std::sync::mpsc::channel();\n",
            "#[cfg(test)]\nmod tests {\n    use std::sync::{mpsc, Arc};\n}\n",
        ] {
            assert_eq!(shipped(src), 1, "{src}");
            // Scaffolding outside the shipped crates keeps `std`.
            for label in ["tests/prop_serve.rs", "crates/check/src/sched.rs"] {
                assert!(lint_source(label, src).is_empty(), "{label}: {src}");
            }
        }
        // What carries no protocol, and the gateway itself, pass.
        assert_eq!(
            shipped("use std::sync::{Arc, Barrier, OnceLock, Weak};\n"),
            0
        );
        assert_eq!(shipped("use fg_types::sync::{Condvar, Mutex};\n"), 0);
        assert_eq!(shipped("// was: use std::sync::Mutex;\n"), 0);
        assert_eq!(shipped("f(std::sync::Arc::new(1), Mutex::new(2));\n"), 0);
    }

    #[test]
    fn ci_filters_must_select_a_test() {
        let mut paths = Vec::new();
        let delta = "fn helper() {}\nmod tests {\n    #[test]\n    fn apply_fetches_once() {}\n}\n";
        test_paths("crates/graph/src/delta/mod.rs", delta, &mut paths);
        test_paths(
            "crates/core/src/engine/pool.rs",
            "fn take() {}\n",
            &mut paths,
        );
        test_paths(
            "tests/prop_ingest.rs",
            "fn racing_ingest() {}\n",
            &mut paths,
        );
        test_paths("README.rs", "fn not_in_a_tree() {}\n", &mut paths);
        assert!(paths.contains(&"delta::tests::apply_fetches_once".to_string()));
        assert!(paths.contains(&"engine::pool::tests::take".to_string()));
        assert!(paths.contains(&"racing_ingest".to_string()));
        let ci = "\
      # cargo test --release -- a_comment_names_no_filter
      - name: Ingest stress
        env:
          PROPTEST_CASES: \"256\"
        run: |
          cargo test --release --test prop_ingest
          cargo test --release -p flashgraph --lib -- engine::pool --test-threads 2
          cargo test --release -p fg_graph --lib -- delta::tests::apply_ delta::tests::gone_with_its_api_
          for i in $(seq 20); do
            FG_SCALE=$scale cargo test -q -p flashgraph --lib \\
              pool::tests::gone \"$name\"
          done
          cargo test -q racing > log || cat log
";
        let found: Vec<_> = lint_ci_filters(ci, &paths)
            .into_iter()
            .map(|v| (v.line, v.rule, v.msg.split('`').nth(1).unwrap().to_string()))
            .collect();
        let want = [
            (
                8,
                "ci-filters",
                "delta::tests::gone_with_its_api_".to_string(),
            ),
            (10, "ci-filters", "pool::tests::gone".to_string()),
        ];
        assert_eq!(found, want);
    }

    #[test]
    fn raw_atomic_in_comment_or_string_ignored() {
        assert!(rules("// std::sync::atomic is banned here\n").is_empty());
        assert!(rules("let s = \"std::sync::atomic\";\n").is_empty());
    }

    #[test]
    fn unsafe_needs_safety() {
        assert_eq!(rules("unsafe { do_it() }\n"), ["unsafe-safety"]);
        assert!(rules("// SAFETY: justified.\nunsafe { do_it() }\n").is_empty());
        assert!(rules("unsafe { do_it() } // SAFETY: same line.\n").is_empty());
        // Doc `# Safety` section + attribute between comment and code.
        assert!(rules(
            "/// # Safety\n/// Caller holds the lock.\n#[inline]\npub unsafe fn f() {}\n"
        )
        .is_empty());
        // A blank line breaks the justification run.
        assert_eq!(
            rules("// SAFETY: too far away.\n\nunsafe { do_it() }\n"),
            ["unsafe-safety"]
        );
    }

    #[test]
    fn unsafe_word_boundary() {
        assert!(rules("let unsafety = 1;\n").is_empty());
        assert!(rules("call_unsafe_thing();\n").is_empty());
    }

    #[test]
    fn ordering_needs_justification() {
        assert_eq!(rules("x.load(Ordering::Relaxed);\n"), ["ordering-justify"]);
        assert_eq!(rules("x.load(Ordering::SeqCst);\n"), ["ordering-justify"]);
        assert!(rules("// ordering: statistic only.\nx.load(Ordering::Relaxed);\n").is_empty());
        // Acquire/Release are the default and need no comment.
        assert!(rules("x.load(Ordering::Acquire);\n").is_empty());
        assert!(rules("x.store(1, Ordering::Release);\n").is_empty());
    }

    #[test]
    fn strings_and_raw_strings_are_stripped() {
        assert!(rules("let s = \"unsafe Ordering::Relaxed\";\n").is_empty());
        assert!(rules("let s = r#\"unsafe { Ordering::SeqCst }\"#;\n").is_empty());
        // An escaped quote does not end the string early.
        assert!(rules("let s = \"\\\"unsafe\\\"\";\n").is_empty());
    }

    #[test]
    fn block_comments_and_lifetimes() {
        assert!(rules("/* unsafe Ordering::Relaxed */ let x = 1;\n").is_empty());
        assert!(rules("/* outer /* unsafe */ still comment */ let x = 1;\n").is_empty());
        // Lifetime ticks are not char literals; the code survives.
        assert_eq!(
            rules("fn f<'a>(x: &'a u8) { g(Ordering::Relaxed) }\n"),
            ["ordering-justify"]
        );
        assert!(rules("let c = 'u'; // just a char\n").is_empty());
    }

    #[test]
    fn justification_must_be_in_comment_not_code() {
        // The keyword inside code does not count.
        assert_eq!(
            rules("let ordering: u8 = 0; x.load(Ordering::Relaxed);\n"),
            ["ordering-justify"]
        );
    }
}
