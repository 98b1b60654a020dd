//! Size ratchet: the Rust line count outside `benchmark/` and `target/`
//! (`git ls-files '*.rs' ':!benchmark' | xargs cat | wc -l`) may fall but
//! not rise. A PR that needs more lines raises `CEILING` in the same diff
//! and says what the lines buy; one that deletes code lowers it.

use std::path::Path;

/// This tree's total when the ceiling was last moved.
const CEILING: usize = 30_316;

/// Lines in every `*.rs` file under `dir`.
fn count(dir: &Path) -> usize {
    let mut lines = 0;
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            lines += count(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("UTF-8 source file");
            lines += text.lines().count();
        }
    }
    lines
}

#[test]
fn rust_lines_stay_under_the_pinned_ceiling() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crates = vec!["src".into(), "tests".into(), "examples".into()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let name = entry.expect("directory entry").file_name();
        crates.push(format!("crates/{}", name.to_string_lossy()));
    }
    crates.sort();
    let mut total = 0;
    for name in &crates {
        let lines = count(&root.join(name));
        println!("{lines:>7}  {name}");
        total += lines;
    }
    println!("{total:>7}  total (ceiling {CEILING})");
    assert!(
        total <= CEILING,
        "{total} lines of Rust outside benchmark/ exceed the ceiling {CEILING}: \
         delete something, or raise CEILING in this PR and say what the lines buy"
    );
}
