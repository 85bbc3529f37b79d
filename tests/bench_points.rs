//! The committed benchmark points at the repo root are whole: every
//! `BENCH_NNNN.json` is a clean-tree result with its same-session parent
//! run (`BENCH_NNNN_parent.json`) and the driver's comparison of the pair
//! (`COMPARE_NNNN.txt`) beside it. No timing; `git_commit` is not
//! resolved, because a squash merge need not keep the measured hash.

use std::path::Path;

/// Parse one result file and check that it was measured on a clean tree.
fn check_result(path: &Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{}: missing or unreadable: {e}", path.display()));
    let doc =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: not JSON: {e}", path.display()));
    let status = doc
        .get("provenance")
        .and_then(|p| p.get("git_status"))
        .and_then(|s| s.as_str())
        .unwrap_or_else(|| panic!("{}: no provenance.git_status", path.display()));
    assert!(
        status.is_empty(),
        "{}: measured on a dirty tree (git_status {status:?})",
        path.display()
    );
}

#[test]
fn every_committed_point_is_a_clean_pair_with_its_comparison() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut points: Vec<String> = std::fs::read_dir(root)
        .expect("repo root is readable")
        .map(|e| e.expect("directory entry").file_name())
        .filter_map(|name| {
            let name = name.to_str()?;
            let n = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            (n.len() == 4 && n.bytes().all(|b| b.is_ascii_digit())).then(|| n.to_owned())
        })
        .collect();
    points.sort();
    assert!(!points.is_empty(), "no BENCH_NNNN.json at the repo root");
    for n in &points {
        check_result(&root.join(format!("BENCH_{n}.json")));
        check_result(&root.join(format!("BENCH_{n}_parent.json")));
        let compare = root.join(format!("COMPARE_{n}.txt"));
        assert!(compare.is_file(), "{}: missing", compare.display());
    }
}
