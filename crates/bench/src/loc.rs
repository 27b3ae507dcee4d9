//! The workspace's non-test library sources and their size: the walk
//! `lintcheck` lints and the per-crate line count it prints.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Collect `crates/*/src/**/*.rs`, skipping binary/bench/test sources.
pub fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "bin" | "benches" | "tests" | "examples" | "target")
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs")
                && name.as_ref() != "tests.rs"
                && path.to_string_lossy().contains("/src/")
            {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// The lines of `src` before its first `#[cfg(test)]` line (repo
/// convention: test code ends the file, which `lintcheck`'s
/// `item-after-test` rule enforces).
pub fn non_test_lines(src: &str) -> impl Iterator<Item = &str> {
    src.lines().take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
}

/// Non-test lines of `src` that are neither blank nor comment-only.
pub fn code_lines(src: &str) -> usize {
    non_test_lines(src).map(str::trim).filter(|l| !l.is_empty() && !l.starts_with("//")).count()
}

/// [`code_lines`] summed per crate directory under `root/crates`.
pub fn code_lines_per_crate(root: &Path) -> BTreeMap<String, usize> {
    let crates = root.join("crates");
    let mut out = BTreeMap::new();
    for path in library_sources(root) {
        let krate = path
            .strip_prefix(&crates)
            .ok()
            .and_then(|p| p.components().next())
            .map(|c| c.as_os_str().to_string_lossy().into_owned());
        if let (Some(krate), Ok(src)) = (krate, std::fs::read_to_string(&path)) {
            *out.entry(krate).or_insert(0) += code_lines(&src);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_not_comments_blanks_or_tests() {
        let src = "//! doc\n\nuse x;\n/// doc\nfn f() {\n    // why\n    g(); // trailing\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(code_lines(src), 4);
    }
}
