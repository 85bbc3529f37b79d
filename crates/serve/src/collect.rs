//! The multi-process collector: scrape N `rpx-serve` endpoints and merge
//! the expositions into one long table, `source,metric,value`. That is its
//! own schema, not the sampler's wide rows: a metric is an exposition line
//! head (`family{labels}`), and a row has no sequence or timestamp. Both
//! formats spell each value as the exposition does ([`text::push_value`]);
//! CSV follows RFC 4180 with the sampler's
//! [`CsvSink`](rpx_counters::sampler::CsvSink) escaping.

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rpx_counters::sampler::csv_escape;
use rpx_counters::text;
pub use rpx_counters::text::parse_exposition;

/// One merged reading.
#[derive(Debug, Clone)]
pub struct MergedRow {
    /// The endpoint the reading came from.
    pub source: String,
    /// Prometheus metric line head (`family{labels}`).
    pub metric: String,
    /// Sample value.
    pub value: f64,
}

/// Scrapes merged across processes.
#[derive(Debug, Default)]
pub struct Merged {
    /// All rows, source-major in scrape order.
    pub rows: Vec<MergedRow>,
}

impl Merged {
    /// RFC-4180 CSV: `source,metric,value` with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("source,metric,value\n");
        for row in &self.rows {
            let (source, metric) = (csv_escape(&row.source), csv_escape(&row.metric));
            let _ = write!(out, "{source},{metric},");
            text::push_value(&mut out, row.value);
            out.push('\n');
        }
        out
    }

    /// JSON array of `{source, metric, value}` objects; a value that is
    /// not finite is `null`.
    pub fn to_json(&self) -> String {
        let string = |s: &str| serde_json::to_string(s).expect("a string serializes");
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            let (source, metric) = (string(&row.source), string(&row.metric));
            out.push_str(if i == 0 { "{" } else { ",{" });
            let _ = write!(out, "\"source\":{source},\"metric\":{metric},\"value\":");
            if row.value.is_finite() {
                text::push_value(&mut out, row.value);
            } else {
                out.push_str("null");
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// Minimal HTTP/1.1 GET returning the response body.
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(io::Error::other(format!("scrape failed: {status}")));
    }
    Ok(body.to_string())
}

/// Scrape every endpoint's `/metrics` and merge the results. An endpoint
/// that fails to scrape is reported as an error — a collector that
/// silently omits a process produces misleading aggregates.
pub fn scrape_and_merge(endpoints: &[String]) -> io::Result<Merged> {
    let mut merged = Merged::default();
    for endpoint in endpoints {
        let body = http_get(endpoint, "/metrics")?;
        for (metric, value) in parse_exposition(&body) {
            merged.rows.push(MergedRow {
                source: endpoint.clone(),
                metric,
                value,
            });
        }
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parsing_skips_comments_and_keeps_labels() {
        let text = "# HELP rpx_a_b help\n# TYPE rpx_a_b counter\n\
                    rpx_a_b{instance=\"locality#0/worker-thread#1\"} 42\n\
                    rpx_a_b 7.5\nmalformed\n";
        let parsed = parse_exposition(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed[0].0,
            "rpx_a_b{instance=\"locality#0/worker-thread#1\"}"
        );
        assert_eq!(parsed[0].1, 42.0);
        assert_eq!(parsed[1].1, 7.5);
    }

    #[test]
    fn merged_csv_escapes_fields() {
        let merged = Merged {
            rows: vec![MergedRow {
                source: "127.0.0.1:9100".into(),
                metric: "rpx_x{params=\"w,5\"}".into(),
                value: 1.0,
            }],
        };
        let csv = merged.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "source,metric,value");
        // The metric contains a comma and quotes: RFC 4180 requires the
        // field quoted with inner quotes doubled.
        assert_eq!(
            csv.lines().nth(1).unwrap(),
            "127.0.0.1:9100,\"rpx_x{params=\"\"w,5\"\"}\",1"
        );
    }

    /// Both formats spell a value as the exposition line it was scraped
    /// from does: `42`, not `42.0`.
    #[test]
    fn merged_values_are_spelled_as_in_the_exposition() {
        for (value, spelled) in [(42.0, "42"), (0.5, "0.5"), (1e20, "100000000000000000000")] {
            let mut exposition = String::from("rpx_m ");
            text::push_value(&mut exposition, value);
            assert_eq!(exposition, format!("rpx_m {spelled}"));
            let parsed = parse_exposition(&exposition);
            let merged = Merged {
                rows: vec![MergedRow {
                    source: "a".into(),
                    metric: parsed[0].0.clone(),
                    value: parsed[0].1,
                }],
            };
            assert_eq!(
                merged.to_csv(),
                format!("source,metric,value\na,rpx_m,{spelled}\n")
            );
            assert_eq!(
                merged.to_json(),
                format!("[{{\"source\":\"a\",\"metric\":\"rpx_m\",\"value\":{spelled}}}]")
            );
        }
    }

    #[test]
    fn merged_json_is_parseable() {
        let merged = Merged {
            rows: vec![MergedRow {
                source: "a".into(),
                metric: "m".into(),
                value: 2.5,
            }],
        };
        let parsed: serde_json::Value = serde_json::from_str(&merged.to_json()).unwrap();
        assert_eq!(parsed[0]["source"], "a");
        assert_eq!(parsed[0]["value"], 2.5);
    }
}
