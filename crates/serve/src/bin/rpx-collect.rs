//! Scrape N `rpx-serve` endpoints and emit one merged table.
//!
//! ```sh
//! rpx-collect 127.0.0.1:9100 127.0.0.1:9101 [--format csv|json]
//!             [--samples 1] [--interval-ms 1000] [--out FILE]
//! ```
//!
//! Each sample round scrapes every endpoint's `/metrics` and appends the
//! merged rows (`source,metric,value`). A failing endpoint aborts the
//! round with a non-zero exit — partial aggregates mislead.

use std::io::Write;
use std::time::Duration;

use rpx_serve::collect::{scrape_and_merge, Merged};

/// Refuse the command line: what was wrong, the usage line, exit code 2.
fn usage(why: &str) -> ! {
    eprintln!("rpx-collect: {why}");
    eprintln!(
        "usage: rpx-collect <endpoint>... [--format csv|json] [--samples N] [--interval-ms M] [--out FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut endpoints: Vec<String> = Vec::new();
    let mut format = "csv".to_string();
    let mut samples: u64 = 1;
    let mut interval_ms: u64 = 1000;
    let mut out_path: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let why = format!("bad or missing value for {arg}");
        let mut value = || it.next().unwrap_or_else(|| usage(&why));
        match arg.as_str() {
            "--format" => format = value(),
            "--samples" => samples = value().parse().unwrap_or_else(|_| usage(&why)),
            "--interval-ms" => interval_ms = value().parse().unwrap_or_else(|_| usage(&why)),
            "--out" => out_path = Some(value()),
            _ => endpoints.push(arg),
        }
    }
    if !matches!(format.as_str(), "csv" | "json") {
        usage(&format!("unknown format {format:?}"));
    }
    if endpoints.is_empty() {
        usage("no endpoint");
    }

    let mut merged = Merged::default();
    for round in 0..samples.max(1) {
        if round > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        match scrape_and_merge(&endpoints) {
            Ok(m) => merged.rows.extend(m.rows),
            Err(e) => {
                eprintln!("rpx-collect: {e}");
                std::process::exit(1);
            }
        }
    }

    let rendered = match format.as_str() {
        "json" => merged.to_json(),
        _ => merged.to_csv(),
    };
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, rendered) {
                eprintln!("rpx-collect: write {path}: {e}");
                std::process::exit(1);
            }
        }
        None => {
            let mut stdout = std::io::stdout();
            let _ = stdout.write_all(rendered.as_bytes());
        }
    }
}
