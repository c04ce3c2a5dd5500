//! Drift guard: the canonical failpoint site list and the `hit("…")`
//! call sites in the source tree must stay in lockstep, both directions.
//!
//! * a site named at a call site but missing from
//!   [`failpoint::SITES`] would be invisible to the sweep suites — a
//!   fault path no test ever arms;
//! * a `SITES` entry with no call site is dead weight that makes the
//!   sweeps assert on nothing.
//!
//! The scan is textual on purpose (no proc macros, no build scripts):
//! every injection point in this workspace is written literally as
//! `failpoint::hit("<site>")`, and this test is what keeps that
//! convention honest.

use geoind_testkit::failpoint;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Recursively collect `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Extract every `failpoint::hit("<site>")` literal from `text`.
fn hit_sites(text: &str) -> Vec<String> {
    const NEEDLE: &str = "failpoint::hit(\"";
    let mut found = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find(NEEDLE) {
        rest = &rest[at + NEEDLE.len()..];
        if let Some(end) = rest.find('"') {
            found.push(rest[..end].to_string());
            rest = &rest[end..];
        }
    }
    found
}

#[test]
fn failpoint_sites_and_call_sites_agree_both_ways() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Production source only: the `src/` trees of every crate plus the
    // facade. Test code may arm sites but never defines new ones, and the
    // testkit's own module documents the API with example site names.
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    let crates = fs::read_dir(root.join("crates")).expect("crates/ exists");
    for entry in crates.flatten() {
        let src = entry.path().join("src");
        if entry.file_name() != "testkit" && src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(
        files.len() >= 10,
        "source scan found too few files — wrong root?"
    );

    let mut used: BTreeSet<String> = BTreeSet::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("source file is readable");
        for site in hit_sites(&text) {
            assert!(
                failpoint::SITES.contains(&site.as_str()),
                "{}: failpoint::hit(\"{site}\") is not in the canonical \
                 failpoint::SITES list — add it there so the fault sweeps cover it",
                file.display()
            );
            used.insert(site);
        }
    }

    let unused: Vec<&str> = failpoint::SITES
        .iter()
        .copied()
        .filter(|s| !used.contains(*s))
        .collect();
    assert!(
        unused.is_empty(),
        "SITES entries with no failpoint::hit call site in any crate: {unused:?} — \
         remove them or wire them in"
    );
}

/// The text between `start` and the next `end` after it in `text`.
fn between<'a>(text: &'a str, start: &str, end: &str) -> &'a str {
    let from = text
        .find(start)
        .unwrap_or_else(|| panic!("marker {start:?} not found"))
        + start.len();
    let len = text[from..]
        .find(end)
        .unwrap_or_else(|| panic!("no {end:?} after {start:?}"));
    &text[from..from + len]
}

/// The crash sweeps cover every journal site: each `serve.journal.*`,
/// `serve.snapshot.*` and `serve.wal.*` entry of [`failpoint::SITES`]
/// appears in `crash_replay.rs`'s `JOURNAL_SITES` list and in the journal
/// sweep loop of `scripts/ci.sh`. A site missing from either would be a
/// journal step no crash sweep ever faults.
#[test]
fn journal_sites_are_in_both_crash_sweeps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let replay = fs::read_to_string(root.join("crates/serve/tests/crash_replay.rs"))
        .expect("crash_replay.rs is readable");
    let listed = between(&replay, "const JOURNAL_SITES: &[&str] = &[", "];");
    let ci = fs::read_to_string(root.join("scripts/ci.sh")).expect("ci.sh is readable");
    let sweep = between(&ci, "== journal crash sweep", "; do");
    let (_, looped) = sweep
        .split_once("for fp in")
        .expect("the journal sweep is a `for fp in` loop");
    let looped: BTreeSet<&str> = looped
        .split(|c: char| c.is_whitespace() || c == '\\')
        .collect();
    let journal_sites: Vec<&str> = failpoint::SITES
        .iter()
        .copied()
        .filter(|s| {
            ["serve.journal.", "serve.snapshot.", "serve.wal."]
                .iter()
                .any(|prefix| s.starts_with(prefix))
        })
        .collect();
    assert!(!journal_sites.is_empty(), "no journal sites in SITES");
    for site in journal_sites {
        assert!(
            listed.contains(&format!("\"{site}\"")),
            "{site} is missing from JOURNAL_SITES in crates/serve/tests/crash_replay.rs"
        );
        assert!(
            looped.contains(site),
            "{site} is missing from the journal sweep loop in scripts/ci.sh"
        );
    }
}
