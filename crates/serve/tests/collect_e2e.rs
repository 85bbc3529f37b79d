//! The multi-process collector story: two real `rpx-serve` processes,
//! one `rpx-collect` invocation, one merged table.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

struct ServeProc {
    child: Child,
    addr: String,
}

impl ServeProc {
    fn spawn() -> ServeProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rpx-serve"))
            .args(["--workers", "1", "--fib", "16", "--duration-ms", "0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rpx-serve");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let first = lines
            .next()
            .expect("rpx-serve prints its address")
            .expect("readable stdout");
        let addr = first
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {first}"))
            .to_string();
        ServeProc { child, addr }
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn rpx_collect_merges_two_runtime_processes() {
    let a = ServeProc::spawn();
    let b = ServeProc::spawn();
    assert_ne!(a.addr, b.addr);

    // CSV merge via the real binary.
    let out = Command::new(env!("CARGO_BIN_EXE_rpx-collect"))
        .args([a.addr.as_str(), b.addr.as_str(), "--format", "csv"])
        .output()
        .expect("run rpx-collect");
    assert!(
        out.status.success(),
        "rpx-collect failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = String::from_utf8(out.stdout).expect("utf-8 csv");
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("source,metric,value"));
    let rows: Vec<&str> = lines.collect();
    assert!(
        rows.iter().any(|r| r.starts_with(&a.addr)),
        "rows from process A"
    );
    assert!(
        rows.iter().any(|r| r.starts_with(&b.addr)),
        "rows from process B"
    );
    // Both processes export the same metric families; the merge keys rows
    // by source so the aggregate keeps them apart.
    let metric_of = |row: &str| row.split(',').nth(1).unwrap_or("").to_string();
    let a_metrics: Vec<String> = rows
        .iter()
        .filter(|r| r.starts_with(&a.addr))
        .map(|r| metric_of(r))
        .collect();
    assert!(rows
        .iter()
        .filter(|r| r.starts_with(&b.addr))
        .any(|r| a_metrics.contains(&metric_of(r))));

    // JSON mode parses and carries both sources.
    let out = Command::new(env!("CARGO_BIN_EXE_rpx-collect"))
        .args([a.addr.as_str(), b.addr.as_str(), "--format", "json"])
        .output()
        .expect("run rpx-collect json");
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf-8 json");
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("parseable json");
    let sources: Vec<String> = (0..)
        .map_while(|i| parsed[i]["source"].as_str().map(str::to_string))
        .collect();
    assert!(sources.contains(&a.addr) && sources.contains(&b.addr));
}

#[test]
fn rpx_collect_fails_loudly_on_a_dead_endpoint() {
    let a = ServeProc::spawn();
    // A port nothing listens on: the collector must not emit a partial
    // aggregate pretending the dead process contributed.
    let out = Command::new(env!("CARGO_BIN_EXE_rpx-collect"))
        .args([a.addr.as_str(), "127.0.0.1:9", "--format", "csv"])
        .output()
        .expect("run rpx-collect");
    assert!(!out.status.success());
}

/// A bad value or a flag missing its value is refused before any scrape:
/// exit code 2, the usage line, nothing on stdout.
#[test]
fn rpx_collect_rejects_bad_arguments_with_the_usage_line() {
    let bad: [&[&str]; 5] = [
        &["--samples", "abc"],
        &["--interval-ms", "abc"],
        &["--out"],
        &["--samples"],
        &["--format", "xml"],
    ];
    for args in bad {
        // Nothing listens on port 1: a scrape would fail with exit 1.
        let out = Command::new(env!("CARGO_BIN_EXE_rpx-collect"))
            .arg("127.0.0.1:1")
            .args(args)
            .output()
            .expect("run rpx-collect");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: rpx-collect"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}
