//! Build-parity guard and the run header.
//!
//! `[profile]` tables are only read from the manifest cargo was pointed at,
//! so this package carries its own copy of the root's `[profile.release]`.
//! A copy can drift; every run checks that it has not.

use crate::clock::Clock;
use std::collections::BTreeMap;
use std::path::Path;

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// The `key = value` lines of `[profile.release]` in a manifest.
pub fn release_profile(manifest: &str) -> BTreeMap<String, String> {
    let mut in_section = false;
    let mut out = BTreeMap::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_section = line == "[profile.release]";
        } else if in_section {
            if let Some((k, v)) = line.split_once('=') {
                out.insert(k.trim().to_string(), v.trim().to_string());
            }
        }
    }
    out
}

/// Panics unless this package's release profile equals the root's.
pub fn assert_release_profiles_match() {
    let read = |rel: &str| {
        let path = Path::new(MANIFEST_DIR).join(rel);
        std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
    };
    let (root, own) = (
        release_profile(&read("../Cargo.toml")),
        release_profile(&read("Cargo.toml")),
    );
    assert!(
        !root.is_empty(),
        "the root manifest has no [profile.release]"
    );
    assert_eq!(
        own, root,
        "benchmark/Cargo.toml [profile.release] differs from the root manifest's"
    );
}

/// The commit of the enclosing git checkout, if there is one (the driver's
/// checkout is not a repository).
fn git_commit() -> String {
    let git = Path::new(MANIFEST_DIR).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    }
}

pub fn print_header(clock: &Clock) {
    let commit = git_commit();
    println!("# rustc: {}", env!("BENCH_RUSTC_VERSION"));
    println!("# rustflags: {}", env!("BENCH_RUSTFLAGS"));
    println!(
        "# nproc: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("# timing source: {}", clock.source().name());
    println!(
        "# git commit: {}",
        if commit.is_empty() {
            "not a git checkout"
        } else {
            &commit
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parser_reads_only_the_release_section() {
        let manifest = "[package]\nname = \"x\"\n[profile.release]\ndebug = true # symbols\n# a comment\nlto = \"fat\"\n\ncodegen-units=1\n[profile.dev]\nopt-level = 1\n";
        let p = release_profile(manifest);
        assert_eq!(p.len(), 3);
        assert_eq!(p["debug"], "true");
        assert_eq!(p["lto"], "\"fat\"");
        assert_eq!(p["codegen-units"], "1");
    }

    #[test]
    fn this_package_builds_with_the_roots_release_profile() {
        assert_release_profiles_match();
    }
}
