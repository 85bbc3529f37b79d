//! Prometheus text exposition (format version 0.0.4) for counter batches.
//!
//! Counter names are mangled deterministically: the wildcard-free *type
//! path* becomes the metric family (`/threads/time/cumulative` →
//! `rpx_threads_time_cumulative`), the instance and parameter text become
//! `instance`/`params` labels with Prometheus escaping (`\\`, `\"`,
//! `\n`). Two different canonical counter names can never collide into
//! the same (family, labels) pair because the mangling is injective on
//! `(type path, instance, params)` and those three reconstruct the
//! canonical name.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;

use rpx_counters::value::CounterKind;

use crate::engine::{ExportEntry, Sample};

/// Split a canonical counter name into (type path, instance, parameters):
/// `/threads{locality#0/worker-thread#1}/time/cumulative@w,5` →
/// `("/threads/time/cumulative", "locality#0/worker-thread#1", "w,5")`.
pub fn split_canonical(canonical: &str) -> (String, String, String) {
    let (body, params) = match canonical.split_once('@') {
        Some((b, p)) => (b, p),
        None => (canonical, ""),
    };
    let (type_path, instance) = match (body.find('{'), body.find('}')) {
        (Some(open), Some(close)) if close > open => {
            let mut t = body[..open].to_string();
            t.push_str(&body[close + 1..]);
            (t, body[open + 1..close].to_string())
        }
        _ => (body.to_string(), String::new()),
    };
    (type_path, instance, params.to_string())
}

/// Mangle a counter type path into a Prometheus metric family name:
/// `rpx` + the path with every non-alphanumeric byte as `_`.
pub fn metric_name(type_path: &str) -> String {
    let mut out = String::with_capacity(type_path.len() + 4);
    out.push_str("rpx");
    for c in type_path.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Prometheus label-value escaping: backslash, double quote, newline.
pub fn label_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Append `value` with HELP-text escaping: backslash and newline (quotes
/// are legal there).
fn push_help_escaped(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// What a canonical counter name contributes to every payload it appears
/// in: its metric family, and its sample line up to and including the
/// space before the value — `family{instance="…",params="…"} `, labels
/// escaped, braces omitted for a bare type-path counter. Both are pure
/// functions of the name, so the engine computes them once, when the
/// export entry is created.
pub(crate) fn resolve_exposition(canonical: &str) -> (String, String) {
    let (type_path, instance, params) = split_canonical(canonical);
    let family = metric_name(&type_path);
    let mut head = String::with_capacity(canonical.len() + 32);
    head.push_str(&family);
    let mut open = '{';
    for (label, value) in [("instance", &instance), ("params", &params)] {
        if !value.is_empty() {
            head.push(open);
            head.push_str(label);
            head.push_str("=\"");
            head.push_str(&label_escape(value));
            head.push('"');
            open = ',';
        }
    }
    if open == ',' {
        head.push('}');
    }
    head.push(' ');
    (family, head)
}

fn prom_type(kind: CounterKind) -> &'static str {
    match kind {
        CounterKind::MonotonicallyIncreasing | CounterKind::ElapsedTime => "counter",
        _ => "gauge",
    }
}

/// "No such sample" in a family's chain of batch indices.
const NONE: u32 = u32::MAX;

/// One metric family of a batch: the entry its header is taken from and
/// the chain of its ok samples — first and last batch index, the links
/// between them in `render`'s `next`.
struct Family<'a> {
    header: &'a ExportEntry,
    first: u32,
    last: u32,
}

/// Bytes reserved per sample line for the value and the newline; a longer
/// value only costs the payload a reallocation.
const VALUE_RESERVE: usize = 24;

/// Render a scrape batch as one exposition payload. Samples are grouped
/// by metric family, families sorted by name, samples in batch order;
/// HELP/TYPE are emitted once per family, from its first entry in the
/// batch. A failed sample emits no line — Prometheus has no "unavailable"
/// value — but its family header still appears.
///
/// Two passes, neither of which parses a name: the first chains the batch
/// indices of each entry's resolved family, the second appends each
/// sample's resolved line head and its value to one pre-sized `String`.
pub fn render(batch: &[(Arc<ExportEntry>, Sample)]) -> String {
    assert!(batch.len() < NONE as usize, "batch indices fit a u32");
    let mut families: BTreeMap<&str, Family> = BTreeMap::new();
    // next[i]: the batch index of the next ok sample of i's family.
    let mut next = vec![NONE; batch.len()];
    let mut bytes = 0;
    for (i, (entry, sample)) in batch.iter().enumerate() {
        let family = families.entry(&entry.family).or_insert_with(|| {
            bytes += "# HELP  \n# TYPE  counter\n".len()
                + 2 * entry.family.len()
                + entry.info.help.len();
            Family {
                header: entry,
                first: NONE,
                last: NONE,
            }
        });
        if !sample.ok {
            continue;
        }
        bytes += entry.head.len() + VALUE_RESERVE;
        match family.last {
            NONE => family.first = i as u32,
            last => next[last as usize] = i as u32,
        }
        family.last = i as u32;
    }
    let mut out = String::with_capacity(bytes);
    for (name, family) in &families {
        let info = &family.header.info;
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        push_help_escaped(&mut out, &info.help);
        out.push_str("\n# TYPE ");
        out.push_str(name);
        out.push(' ');
        out.push_str(prom_type(info.kind));
        out.push('\n');
        let mut i = family.first;
        while i != NONE {
            let (entry, sample) = &batch[i as usize];
            out.push_str(&entry.head);
            push_value(&mut out, sample.value);
            out.push('\n');
            i = next[i as usize];
        }
    }
    out
}

/// Prometheus floats: integral values render without a fraction so text
/// diffs and tests stay exact.
fn push_value(out: &mut String, v: f64) {
    let written = if v.fract() == 0.0 && v.abs() < 1e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    };
    written.expect("writing to a String cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SplitMix64;
    use rpx_counters::{CounterInfo, CounterName};

    #[test]
    fn split_canonical_extracts_all_parts() {
        assert_eq!(
            split_canonical("/threads{locality#0/worker-thread#1}/time/cumulative@w,5"),
            (
                "/threads/time/cumulative".to_string(),
                "locality#0/worker-thread#1".to_string(),
                "w,5".to_string()
            )
        );
        assert_eq!(
            split_canonical("/app/requests"),
            ("/app/requests".to_string(), String::new(), String::new())
        );
    }

    #[test]
    fn metric_names_are_mangled_deterministically() {
        assert_eq!(
            metric_name("/threads/time/cumulative"),
            "rpx_threads_time_cumulative"
        );
        assert_eq!(metric_name("/app/idle-rate"), "rpx_app_idle_rate");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// Random text over an alphabet that holds every character the
    /// exposition escapes or splits on, minus what `banned` names: the
    /// characters the counter-name grammar gives a meaning at this spot.
    fn random_text(rng: &mut SplitMix64, banned: &str) -> String {
        const ALPHABET: [char; 16] = [
            'a', 'Z', '7', '-', '_', '\\', '"', ',', '#', ' ', '\n', '{', '}', '/', '@', 'µ',
        ];
        let allowed: Vec<char> = ALPHABET
            .into_iter()
            .filter(|c| !banned.contains(*c))
            .collect();
        let len = 1 + rng.next_u64() % 8;
        (0..len)
            .map(|_| allowed[(rng.next_u64() % allowed.len() as u64) as usize])
            .collect()
    }

    /// A random canonical name of one of a few families: an instance of
    /// one to three parts (each optionally indexed), parameters, both or
    /// neither.
    fn random_canonical(rng: &mut SplitMix64) -> String {
        let mut name = format!("/obj{}", rng.next_u64() % 3);
        if !rng.next_u64().is_multiple_of(4) {
            let parts: Vec<String> = (0..1 + rng.next_u64() % 3)
                .map(|_| {
                    // `#` introduces the index, `/` the next part, `}`
                    // closes the block and `@` the parameters.
                    let part = random_text(rng, "#/}@");
                    match rng.next_u64() % 2 {
                        0 => part,
                        _ => format!("{part}#{}", rng.next_u64() % 100),
                    }
                })
                .collect();
            name += &format!("{{{}}}", parts.join("/"));
        }
        name += "/ctr";
        if rng.next_u64().is_multiple_of(2) {
            // Parameters are verbatim to the end of the name.
            name += &format!("@{}", random_text(rng, ""));
        }
        name
    }

    /// `parse_exposition(render(batch))` is the batch's ok samples: each
    /// comes back exactly once, under the head its entry resolved, with
    /// its value. Replay a failure with the `RPX_TEST_SEED` it prints.
    #[test]
    fn rendered_batches_parse_back_to_their_heads_and_values() {
        let seed = std::env::var("RPX_TEST_SEED")
            .ok()
            .and_then(|raw| match raw.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => raw.parse().ok(),
            })
            .unwrap_or(0x5eed);
        let mut rng = SplitMix64::seed_from_u64(seed);
        for round in 0..200 {
            let mut canonicals = std::collections::BTreeSet::new();
            for _ in 0..1 + rng.next_u64() % 12 {
                let name: CounterName = random_canonical(&mut rng)
                    .parse()
                    .unwrap_or_else(|e| panic!("RPX_TEST_SEED={seed:#x}: {e}"));
                canonicals.insert(name.canonical());
            }
            let batch: Vec<(Arc<ExportEntry>, Sample)> = canonicals
                .iter()
                .enumerate()
                .map(|(id, canonical)| {
                    let info = CounterInfo::new(canonical.clone(), CounterKind::Raw, "h", "1");
                    let entry = ExportEntry::new(id as u32, canonical, info, 1, 4);
                    let sample = Sample {
                        seq: 1,
                        timestamp_ns: 0,
                        value: (rng.next_u64() % 4_000) as f64 / 4.0 - 500.0,
                        ok: !rng.next_u64().is_multiple_of(5),
                    };
                    (Arc::new(entry), sample)
                })
                .collect();
            let mut expected: Vec<(String, f64)> = batch
                .iter()
                .filter(|(_, sample)| sample.ok)
                .map(|(entry, sample)| (entry.head.trim_end().to_owned(), sample.value))
                .collect();
            let payload = render(&batch);
            let mut parsed = crate::collect::parse_exposition(&payload);
            // Families are sorted in the payload; the batch is not.
            expected.sort_by(|a, b| a.0.cmp(&b.0));
            parsed.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(
                parsed, expected,
                "RPX_TEST_SEED={seed:#x}, round {round}: payload {payload:?}"
            );
        }
    }
}
