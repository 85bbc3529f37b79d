//! Command-line convenience layer, mirroring HPX's counter-related options:
//!
//! - `--rpx:print-counter=<name>` (repeatable, wildcards allowed)
//! - `--rpx:print-counter-interval=<ms>` (0 = only at shutdown)
//! - `--rpx:print-counter-destination=<path|->` (CSV file or stdout)
//! - `--rpx:print-counter-format=<csv|json>`
//! - `--rpx:list-counters` / `--rpx:list-counter-infos`
//! - `--rpx:reset-counters` (reset on every read)
//!
//! Unknown arguments pass through untouched so applications can layer their
//! own parsing on top, exactly like HPX applications do.

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;
use std::time::Duration;

use crate::error::CounterError;
use crate::registry::CounterRegistry;
use crate::sampler::{CsvSink, JsonSink, SampleSink, Sampler, SamplerConfig, Sampling};

/// Output format for `--rpx:print-counter-destination`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CounterFormat {
    /// Comma-separated values (default).
    #[default]
    Csv,
    /// One JSON object per line.
    Json,
}

/// Parsed counter-related command-line options.
#[derive(Debug, Clone, Default)]
pub struct CounterCliOptions {
    /// Counters to print (wildcards allowed).
    pub print_counters: Vec<String>,
    /// Periodic printing interval; `None` = once at shutdown only.
    pub interval: Option<Duration>,
    /// Destination path; `None` or `-` = stdout.
    pub destination: Option<String>,
    /// Output format.
    pub format: CounterFormat,
    /// List available counter names and exit.
    pub list_counters: bool,
    /// List counter metadata (name, kind, unit, help) and exit.
    pub list_counter_infos: bool,
    /// Reset counters on every read (per-interval deltas).
    pub reset_on_read: bool,
}

impl CounterCliOptions {
    /// Parse `--rpx:*` options out of `args`, returning the parsed options
    /// and the remaining (unconsumed) arguments.
    pub fn parse<I, S>(args: I) -> Result<(Self, Vec<String>), CounterError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut opts = CounterCliOptions::default();
        let mut rest = Vec::new();
        for arg in args {
            let a = arg.as_ref();
            if let Some(v) = a.strip_prefix("--rpx:print-counter=") {
                opts.print_counters.push(v.to_owned());
            } else if let Some(v) = a.strip_prefix("--rpx:print-counter-interval=") {
                let ms: u64 = v.parse().map_err(|_| {
                    CounterError::InvalidParameters(format!("bad interval `{v}` (milliseconds)"))
                })?;
                opts.interval = if ms == 0 {
                    None
                } else {
                    Some(Duration::from_millis(ms))
                };
            } else if let Some(v) = a.strip_prefix("--rpx:print-counter-destination=") {
                opts.destination = if v == "-" { None } else { Some(v.to_owned()) };
            } else if let Some(v) = a.strip_prefix("--rpx:print-counter-format=") {
                opts.format = match v {
                    "csv" => CounterFormat::Csv,
                    "json" => CounterFormat::Json,
                    other => {
                        return Err(CounterError::InvalidParameters(format!(
                            "unknown counter format `{other}` (expected csv or json)"
                        )))
                    }
                };
            } else if a == "--rpx:list-counters" {
                opts.list_counters = true;
            } else if a == "--rpx:list-counter-infos" {
                opts.list_counter_infos = true;
            } else if a == "--rpx:reset-counters" {
                opts.reset_on_read = true;
            } else {
                rest.push(a.to_owned());
            }
        }
        Ok((opts, rest))
    }

    /// Whether any counter output was requested.
    pub fn wants_output(&self) -> bool {
        !self.print_counters.is_empty() || self.list_counters || self.list_counter_infos
    }
}

/// Render the list of discoverable counter names (one per line).
pub fn render_counter_list(registry: &CounterRegistry) -> String {
    let mut names: Vec<String> = registry
        .discover_all()
        .iter()
        .map(|n| n.to_string())
        .collect();
    names.sort();
    let mut out = String::new();
    for n in names {
        let _ = writeln!(out, "{n}");
    }
    out
}

/// Render the counter-type metadata table.
pub fn render_counter_infos(registry: &CounterRegistry) -> String {
    let mut out = String::new();
    for info in registry.counter_types() {
        let _ = writeln!(
            out,
            "{}\t{:?}\t[{}]\t{}",
            info.name, info.kind, info.unit, info.help
        );
    }
    out
}

/// Everything needed to honour the parsed options during and after a run.
pub struct CounterCli {
    registry: Arc<CounterRegistry>,
    options: CounterCliOptions,
    sampler: Option<Sampler>,
}

impl CounterCli {
    /// Apply the options: print listings, start the periodic sampler if an
    /// interval was configured. Returns the driver that must be kept alive
    /// for the duration of the run.
    pub fn start(
        registry: Arc<CounterRegistry>,
        options: CounterCliOptions,
    ) -> Result<Self, CounterError> {
        if options.list_counters {
            print!("{}", render_counter_list(&registry));
        }
        if options.list_counter_infos {
            print!("{}", render_counter_infos(&registry));
        }
        let sampler = match (&options.interval, options.print_counters.is_empty()) {
            (Some(interval), false) => {
                let sink = make_sink(&options)?;
                let mut config = SamplerConfig::new(options.print_counters.clone(), *interval);
                config.reset_on_read = options.reset_on_read;
                Some(Sampler::start(&registry, config, sink)?)
            }
            _ => None,
        };
        Ok(CounterCli {
            registry,
            options,
            sampler,
        })
    }

    /// Finish the run: stop the sampler, or — when no interval was given —
    /// print the final values once (HPX prints at shutdown by default).
    pub fn finish(mut self) -> Result<(), CounterError> {
        if let Some(s) = self.sampler.take() {
            s.stop();
            return Ok(());
        }
        if self.options.print_counters.is_empty() {
            return Ok(());
        }
        // One tick of a sampler's engine and sink: the final read is
        // lock-free, accounted in the overhead counters like any other
        // batch, and guarded: a counter that panics prints as unavailable
        // instead of losing the whole shutdown report.
        let config = SamplerConfig::new(self.options.print_counters.clone(), Duration::ZERO);
        let sink = make_sink(&self.options)?;
        Sampling::new(&self.registry, &config, sink, Arc::default())?.tick();
        Ok(())
    }
}

fn make_sink(options: &CounterCliOptions) -> Result<Box<dyn SampleSink>, CounterError> {
    let out: Box<dyn std::io::Write + Send> = match &options.destination {
        None => Box::new(std::io::stdout()),
        Some(path) => Box::new(BufWriter::new(File::create(path).map_err(|e| {
            CounterError::CreationFailed(format!("cannot create `{path}`: {e}"))
        })?)),
    };
    Ok(match options.format {
        CounterFormat::Csv => Box::new(CsvSink::new(out)),
        CounterFormat::Json => Box::new(JsonSink::new(out)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_options_and_passes_rest() {
        let (opts, rest) = CounterCliOptions::parse([
            "--rpx:print-counter=/threads{locality#0/total}/time/average",
            "--rpx:print-counter=/threads{locality#0/total}/count/cumulative",
            "--rpx:print-counter-interval=100",
            "--rpx:print-counter-destination=out.csv",
            "--rpx:print-counter-format=json",
            "--rpx:reset-counters",
            "--app-arg",
            "positional",
        ])
        .unwrap();
        assert_eq!(opts.print_counters.len(), 2);
        assert_eq!(opts.interval, Some(Duration::from_millis(100)));
        assert_eq!(opts.destination.as_deref(), Some("out.csv"));
        assert_eq!(opts.format, CounterFormat::Json);
        assert!(opts.reset_on_read);
        assert_eq!(rest, vec!["--app-arg", "positional"]);
    }

    #[test]
    fn zero_interval_means_shutdown_only() {
        let (opts, _) = CounterCliOptions::parse(["--rpx:print-counter-interval=0"]).unwrap();
        assert_eq!(opts.interval, None);
    }

    #[test]
    fn stdout_destination_dash() {
        let (opts, _) = CounterCliOptions::parse(["--rpx:print-counter-destination=-"]).unwrap();
        assert_eq!(opts.destination, None);
    }

    #[test]
    fn bad_interval_rejected() {
        assert!(CounterCliOptions::parse(["--rpx:print-counter-interval=abc"]).is_err());
        assert!(CounterCliOptions::parse(["--rpx:print-counter-format=xml"]).is_err());
    }

    #[test]
    fn list_flags() {
        let (opts, _) =
            CounterCliOptions::parse(["--rpx:list-counters", "--rpx:list-counter-infos"]).unwrap();
        assert!(opts.list_counters);
        assert!(opts.list_counter_infos);
        assert!(opts.wants_output());
    }

    #[test]
    fn render_listing_contains_registered_counters() {
        let reg = CounterRegistry::new();
        reg.register_raw("/demo/value", "a demo", "1", Arc::new(|| 1));
        let listing = render_counter_list(&reg);
        assert!(listing.contains("/demo/value"));
        let infos = render_counter_infos(&reg);
        assert!(infos.contains("/demo/value"));
        assert!(infos.contains("a demo"));
    }

    #[test]
    fn cli_shutdown_print_to_file() {
        let reg = CounterRegistry::new();
        reg.register_raw("/demo/value", "h", "1", Arc::new(|| 41));
        let dir = std::env::temp_dir().join(format!("rpx-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("counters.csv");
        let (opts, _) = CounterCliOptions::parse([
            "--rpx:print-counter=/demo/value".to_string(),
            format!("--rpx:print-counter-destination={}", path.display()),
        ])
        .unwrap();
        let cli = CounterCli::start(reg, opts).unwrap();
        cli.finish().unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("/demo/value"));
        assert!(contents.contains(",41"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
