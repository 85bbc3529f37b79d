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

use std::fmt::Write;
use std::sync::Arc;

use crate::engine::{Batch, ExportEntry, Sample};
use crate::value::CounterKind;

/// Split a canonical counter name into slices (type path, instance,
/// parameters), the type path in the two pieces around the instance
/// block: `/threads{locality#0/worker-thread#1}/time/cumulative@w,5` →
/// `(["/threads", "/time/cumulative"], "locality#0/worker-thread#1", "w,5")`.
fn canonical_parts(canonical: &str) -> ([&str; 2], &str, &str) {
    let (body, params) = canonical.split_once('@').unwrap_or((canonical, ""));
    match (body.find('{'), body.find('}')) {
        (Some(open), Some(close)) if close > open => (
            [&body[..open], &body[close + 1..]],
            &body[open + 1..close],
            params,
        ),
        _ => ([body, ""], "", params),
    }
}

/// Append the Prometheus metric family name of a counter type path:
/// `rpx` + the path with every non-alphanumeric byte as `_`.
fn push_metric_name(out: &mut String, type_path: &[&str]) {
    out.push_str("rpx");
    for c in type_path.iter().flat_map(|piece| piece.chars()) {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
}

/// Append `value` with Prometheus label-value escaping: backslash,
/// double quote, newline.
fn push_label_escaped(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
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

/// Append what a canonical counter name contributes to every payload it
/// appears in: its sample line up to and including the space before the
/// value — `family{instance="…",params="…"} `, labels escaped, braces
/// omitted for a bare type-path counter. Returns the length of the line's
/// metric family, which is its prefix.
fn push_head(out: &mut String, canonical: &str) -> usize {
    let start = out.len();
    let (type_path, instance, params) = canonical_parts(canonical);
    push_metric_name(out, &type_path);
    let family = out.len() - start;
    let mut open = '{';
    for (label, value) in [("instance", instance), ("params", params)] {
        if !value.is_empty() {
            out.push(open);
            out.push_str(label);
            out.push_str("=\"");
            push_label_escaped(out, value);
            out.push('"');
            open = ',';
        }
    }
    if open == ',' {
        out.push('}');
    }
    out.push(' ');
    family
}

fn prom_type(kind: CounterKind) -> &'static str {
    match kind {
        CounterKind::MonotonicallyIncreasing | CounterKind::ElapsedTime => "counter",
        _ => "gauge",
    }
}

/// Bytes reserved per sample line for the value and the newline; a longer
/// value only costs the payload a reallocation.
const VALUE_RESERVE: usize = 24;

/// A byte range of [`Plan::arena`].
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// From `start` to the end of what `arena` holds so far.
    fn since(arena: &str, start: usize) -> Self {
        Span {
            start: start as u32,
            end: arena.len() as u32,
        }
    }
}

/// One metric family: its HELP/TYPE header and where its members end in
/// [`Plan::members`] (they start where the previous family's end).
struct PlanFamily {
    header: Span,
    members_end: u32,
}

/// One sample line: the export position of its sample and its head.
struct Member {
    position: u32,
    head: Span,
}

/// Everything a payload says about an export set apart from the values,
/// laid out in the order [`render`] writes it. Built once per published
/// handle list, with the rest of the engine's export set.
pub(crate) struct Plan {
    /// Each family's header, then its members' line heads, families in
    /// name order: `render` walks it front to back.
    arena: String,
    families: Vec<PlanFamily>,
    members: Vec<Member>,
}

impl Plan {
    /// The plan of `entries`, which are in export order.
    pub(crate) fn new(entries: &[Arc<ExportEntry>]) -> Self {
        // Heads in export order first; a head's family is its prefix.
        let mut heads = String::new();
        let mut lines = Vec::with_capacity(entries.len());
        for entry in entries {
            let start = heads.len();
            let family = push_head(&mut heads, &entry.canonical);
            lines.push((start, start + family, heads.len()));
        }
        let family_of = |i: u32| {
            let (start, family, _) = lines[i as usize];
            &heads[start..family]
        };
        let mut order: Vec<u32> = (0..entries.len() as u32).collect();
        // Stable, so export order survives within a family.
        order.sort_by(|&a, &b| family_of(a).cmp(family_of(b)));

        let mut arena = String::with_capacity(heads.len());
        let mut families = Vec::new();
        let mut members = Vec::with_capacity(entries.len());
        for group in order.chunk_by(|&a, &b| family_of(a) == family_of(b)) {
            let (name, info) = (family_of(group[0]), &entries[group[0] as usize].info);
            let start = arena.len();
            arena.push_str("# HELP ");
            arena.push_str(name);
            arena.push(' ');
            push_help_escaped(&mut arena, &info.help);
            arena.push_str("\n# TYPE ");
            arena.push_str(name);
            arena.push(' ');
            arena.push_str(prom_type(info.kind));
            arena.push('\n');
            let header = Span::since(&arena, start);
            for &i in group {
                let (start, _, end) = lines[i as usize];
                let at = arena.len();
                arena.push_str(&heads[start..end]);
                members.push(Member {
                    position: i,
                    head: Span::since(&arena, at),
                });
            }
            families.push(PlanFamily {
                header,
                members_end: members.len() as u32,
            });
        }
        assert!(arena.len() < u32::MAX as usize, "arena offsets fit a u32");
        Plan {
            arena,
            families,
            members,
        }
    }

    fn text(&self, span: Span) -> &str {
        &self.arena[span.start as usize..span.end as usize]
    }

    /// The payload of `samples`, one per entry in export order.
    fn render(&self, samples: &[Sample]) -> String {
        let mut out = String::with_capacity(self.arena.len() + self.members.len() * VALUE_RESERVE);
        let mut members = 0;
        for family in &self.families {
            out.push_str(self.text(family.header));
            let end = family.members_end as usize;
            for member in &self.members[members..end] {
                let sample = &samples[member.position as usize];
                if sample.ok {
                    out.push_str(self.text(member.head));
                    push_value(&mut out, sample.value);
                    out.push('\n');
                }
            }
            members = end;
        }
        out
    }
}

/// Render a scrape batch as one exposition payload. Families are sorted
/// by name, each with its HELP/TYPE header from its first entry in export
/// order, then the line of each ok member in export order; a failed
/// sample emits no line — Prometheus has no "unavailable" value — but its
/// family header still appears.
///
/// The walk follows a layout built once per export set: a header per
/// family, then the head, value and `\n` of each ok member. No name is
/// parsed and no entry is read.
pub fn render(batch: &Batch) -> String {
    batch.plan().render(batch.samples())
}

/// Parse a Prometheus text exposition into `(metric line head, value)`
/// pairs, skipping comments and malformed lines.
pub fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The value is the last whitespace-separated token; label values
        // may contain spaces, so split from the right.
        if let Some((metric, value)) = line.rsplit_once(char::is_whitespace) {
            if let Ok(v) = value.parse::<f64>() {
                out.push((metric.trim_end().to_string(), v));
            }
        }
    }
    out
}

/// Append a sample value: the one number formatter of the exposition,
/// the sampler's CSV cells and JSON readings, and `rpx-collect`'s merged
/// table. An integral value below 10^15 in magnitude renders as its
/// integer, digit by digit with no `core::fmt` (−0.0 as `0`); anything
/// else as `{v}`, so text diffs and tests stay exact.
pub fn push_value(out: &mut String, v: f64) {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        let (mut n, mut digits, mut at) = (v.abs() as u64, [0u8; 16], 16);
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        if v < 0.0 {
            out.push('-');
        }
        out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    } else {
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::hash::{DefaultHasher, Hash, Hasher};
    use std::sync::atomic::{AtomicU64, Ordering};

    use rand::SplitMix64;

    use crate::value::CounterStatus;
    use crate::{Counter, CounterInfo, CounterName, CounterRegistry, CounterValue};

    use crate::engine::ScrapeEngine;

    /// `(type path, instance, parameters)` of a canonical name.
    fn split_canonical(canonical: &str) -> (String, String, String) {
        let (type_path, instance, params) = canonical_parts(canonical);
        (type_path.concat(), instance.to_string(), params.to_string())
    }

    /// The metric family name of a type path.
    fn metric_name(type_path: &str) -> String {
        let mut out = String::new();
        push_metric_name(&mut out, &[type_path]);
        out
    }

    /// A label value, escaped.
    fn label_escape(value: &str) -> String {
        let mut out = String::new();
        push_label_escaped(&mut out, value);
        out
    }

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

    /// `count` random canonical names, each once, in random order.
    fn random_canonicals(rng: &mut SplitMix64, seed: u64, count: u64) -> Vec<String> {
        let mut unique = BTreeSet::new();
        for _ in 0..count {
            let name: CounterName = random_canonical(rng)
                .parse()
                .unwrap_or_else(|e| panic!("RPX_TEST_SEED={seed:#x}: {e}"));
            unique.insert(name.canonical());
        }
        let mut names: Vec<String> = unique.into_iter().collect();
        for i in (1..names.len()).rev() {
            names.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        names
    }

    /// The counter types the random names draw from. `/bad/ctr` panics.
    const TYPES: [(&str, CounterKind); 4] = [
        ("/obj0/ctr", CounterKind::Raw),
        ("/obj1/ctr", CounterKind::MonotonicallyIncreasing),
        ("/obj2/ctr", CounterKind::Average),
        ("/bad/ctr", CounterKind::Raw),
    ];

    /// A counter whose reading is a pure function of its name and the
    /// scrape round: a quarter-step value, or one time in five a failed
    /// evaluation.
    struct Scripted {
        info: CounterInfo,
        round: Arc<AtomicU64>,
    }

    impl Counter for Scripted {
        fn info(&self) -> CounterInfo {
            self.info.clone()
        }

        fn get_value_at(&self, _reset: bool, _now_ns: u64) -> CounterValue {
            if self.info.name.starts_with("/bad") {
                // Unwinds without running the panic hook: no test noise.
                std::panic::resume_unwind(Box::new("injected counter panic"));
            }
            let mut h = DefaultHasher::new();
            (self.round.load(Ordering::Relaxed), &self.info.name).hash(&mut h);
            let h = h.finish();
            if h.is_multiple_of(5) {
                return CounterValue {
                    status: CounterStatus::Invalid,
                    ..CounterValue::new(0, 0)
                };
            }
            CounterValue::scaled_by((h % 4_000) as i64 - 2_000, 4, 0)
        }
    }

    /// An engine exporting `canonicals` as [`Scripted`] counters, and the
    /// round they read. Each instance's help text names it, escapes
    /// included, so which member a family header comes from shows.
    fn scripted_engine(
        canonicals: &[String],
        shards: usize,
    ) -> (Arc<ScrapeEngine>, Arc<AtomicU64>) {
        let reg = CounterRegistry::new();
        let round = Arc::new(AtomicU64::new(0));
        for (type_path, kind) in TYPES {
            let round = round.clone();
            reg.register_type(
                CounterInfo::new(type_path, kind, "h", "1"),
                Arc::new(move |name: &CounterName, _| {
                    let canonical = name.canonical();
                    let help = format!("help of {canonical}\\ \"\n");
                    let info = CounterInfo::new(canonical, kind, help, "1");
                    let round = round.clone();
                    Ok(Arc::new(Scripted { info, round }) as Arc<dyn Counter>)
                }),
                None,
            );
        }
        let engine = ScrapeEngine::new(&reg, canonicals, shards, 4).expect("the names resolve");
        (engine, round)
    }

    /// The reference for `push_head`: a canonical name's metric family
    /// and its sample line up to the value, built piece by piece from
    /// the split, mangle and escape helpers above.
    fn resolve_exposition(canonical: &str) -> (String, String) {
        let (type_path, instance, params) = split_canonical(canonical);
        let family = metric_name(&type_path);
        let mut head = family.clone();
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

    /// "No such sample" in a family's chain of batch indices.
    const NONE: u32 = u32::MAX;

    /// One metric family of a batch: the entry its header is taken from
    /// and the chain of its ok samples.
    struct Family<'a> {
        header: &'a ExportEntry,
        first: u32,
        last: u32,
    }

    /// The two-pass renderer the plan replaced, kept as its reference:
    /// chain the batch indices of each family in a `BTreeMap` (HELP/TYPE
    /// from the family's first entry), then append each ok sample's head
    /// and value.
    fn reference_render(batch: &[(Arc<ExportEntry>, Sample)]) -> String {
        let resolved: Vec<(String, String)> = batch
            .iter()
            .map(|(entry, _)| resolve_exposition(&entry.canonical))
            .collect();
        let mut families: BTreeMap<&str, Family> = BTreeMap::new();
        let mut next = vec![NONE; batch.len()];
        for (i, (entry, sample)) in batch.iter().enumerate() {
            let family = families.entry(&resolved[i].0).or_insert(Family {
                header: entry,
                first: NONE,
                last: NONE,
            });
            if !sample.ok {
                continue;
            }
            match family.last {
                NONE => family.first = i as u32,
                last => next[last as usize] = i as u32,
            }
            family.last = i as u32;
        }
        let mut out = String::new();
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
                out.push_str(&resolved[i as usize].1);
                push_value(&mut out, batch[i as usize].1.value);
                out.push('\n');
                i = next[i as usize];
            }
        }
        out
    }

    /// `render` writes the reference renderer's bytes, over random export
    /// sets scraped several times: several families whose members differ
    /// in help text, every escaped character, failed samples and a
    /// panicking counter. Replay a failure with the `RPX_TEST_SEED` it
    /// prints.
    #[test]
    fn render_matches_the_two_pass_reference_byte_for_byte() {
        let seed = crate::engine::tests::test_seed();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let (mut failed, mut panicked, mut shared) = (0, 0, 0);
        for round in 0..100 {
            let count = 1 + rng.next_u64() % 24;
            let mut canonicals = random_canonicals(&mut rng, seed, count);
            if rng.next_u64().is_multiple_of(2) {
                canonicals.push("/bad/ctr".into());
            }
            let shards = 1 + (rng.next_u64() % 8) as usize;
            let (engine, scrape_round) = scripted_engine(&canonicals, shards);
            for scrape in 0..3 {
                scrape_round.store(rng.next_u64(), Ordering::Relaxed);
                let batch = engine.collect();
                let pairs: Vec<(Arc<ExportEntry>, Sample)> =
                    batch.iter().map(|(e, s)| (e.clone(), *s)).collect();
                assert_eq!(
                    render(&batch),
                    reference_render(&pairs),
                    "RPX_TEST_SEED={seed:#x}, round {round}, scrape {scrape}"
                );
                failed += pairs.iter().filter(|(_, s)| !s.ok).count();
                panicked += pairs
                    .iter()
                    .filter(|(e, _)| e.canonical == "/bad/ctr")
                    .count();
            }
            let families: BTreeSet<String> =
                canonicals.iter().map(|c| resolve_exposition(c).0).collect();
            shared += canonicals.len() - families.len();
        }
        assert!(
            failed > 0 && panicked > 0 && shared > 0,
            "RPX_TEST_SEED={seed:#x}: {failed} failed samples, {panicked} panicking reads, \
             {shared} family members past the first"
        );
    }

    /// `push_value` writes what `{}` writes, except that zero of either
    /// sign is `0`: over the ends of the integer fast path, the values
    /// past it, the non-finite ones and random ones. Replay a failure
    /// with the `RPX_TEST_SEED` it prints.
    #[test]
    fn push_value_matches_display_except_for_negative_zero() {
        let seed = crate::engine::tests::test_seed();
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut values = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15,
            -1e15,
            9_007_199_254_740_992.0, // 2^53
            0.5,
            -0.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        for _ in 0..10_000 {
            let r = rng.next_u64();
            values.push(match r % 4 {
                // Any bit pattern: subnormals, huge, NaN payloads.
                0 => f64::from_bits(rng.next_u64()),
                // An integer inside the fast path.
                1 => (rng.next_u64() % 2_000_000_000_000_000) as f64 - 1e15,
                // An integer of any digit count.
                2 => (rng.next_u64() >> (r % 64)) as f64 * if r & 64 == 0 { 1.0 } else { -1.0 },
                // A quarter step, as scaled counters read.
                _ => (rng.next_u64() % 1_000_000) as f64 / 4.0 - 125_000.0,
            });
        }
        for v in values {
            let mut out = String::from("x");
            push_value(&mut out, v);
            let expected = if v == 0.0 {
                "0".to_owned()
            } else {
                format!("{v}")
            };
            assert_eq!(
                out[1..],
                expected,
                "RPX_TEST_SEED={seed:#x}: {v:?} ({:#x})",
                v.to_bits()
            );
        }
    }

    /// `parse_exposition(render(batch))` is the batch's ok samples: each
    /// comes back exactly once, under the head its entry resolves to,
    /// with its value. Replay a failure with the `RPX_TEST_SEED` it
    /// prints.
    #[test]
    fn rendered_batches_parse_back_to_their_heads_and_values() {
        let seed = crate::engine::tests::test_seed();
        let mut rng = SplitMix64::seed_from_u64(seed);
        for round in 0..200 {
            let count = 1 + rng.next_u64() % 12;
            let canonicals = random_canonicals(&mut rng, seed, count);
            let (engine, scrape_round) = scripted_engine(&canonicals, 4);
            scrape_round.store(rng.next_u64(), Ordering::Relaxed);
            let batch = engine.collect();
            let mut expected: Vec<(String, f64)> = batch
                .iter()
                .filter(|(_, sample)| sample.ok)
                .map(|(entry, sample)| {
                    let head = resolve_exposition(&entry.canonical).1;
                    (head.trim_end().to_owned(), sample.value)
                })
                .collect();
            let payload = render(&batch);
            let mut parsed = parse_exposition(&payload);
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
