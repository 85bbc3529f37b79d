//! Parsing and formatting of performance-counter names.
//!
//! Counter names follow the HPX grammar:
//!
//! ```text
//! /objectname{parentinstancename#parentindex/instancename#instanceindex}/countername@parameters
//! ```
//!
//! The instance block (`{...}`) and the parameter suffix (`@...`) are
//! optional. The counter name proper (`countername`) may itself contain
//! slashes (e.g. `time/average`). Instance indices may be a concrete
//! number (`worker-thread#3`) or the wildcard `#*`, which expands to every
//! live instance when the name is resolved against a
//! [`registry::CounterRegistry`](crate::registry::CounterRegistry).
//!
//! # Examples
//!
//! ```
//! use rpx_counters::name::CounterName;
//!
//! let n: CounterName = "/threads{locality#0/worker-thread#1}/time/average"
//!     .parse()
//!     .unwrap();
//! assert_eq!(n.object, "threads");
//! assert_eq!(n.counter, "time/average");
//! assert_eq!(n.to_string(), "/threads{locality#0/worker-thread#1}/time/average");
//! ```

use std::fmt;
use std::str::FromStr;

use crate::error::CounterError;

/// An instance index: either a concrete instance or the `#*` wildcard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceIndex {
    /// A specific numbered instance, e.g. `worker-thread#3`.
    At(u32),
    /// The wildcard `#*`: all live instances of this kind.
    All,
}

impl fmt::Display for InstanceIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceIndex::At(i) => write!(f, "{i}"),
            InstanceIndex::All => write!(f, "*"),
        }
    }
}

/// One `name#index` component of an instance path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InstancePart {
    /// The instance kind, e.g. `locality`, `worker-thread`, or `total`.
    pub name: String,
    /// The optional `#index` suffix.
    pub index: Option<InstanceIndex>,
}

impl InstancePart {
    /// A named part without an index (e.g. `total`).
    pub fn plain(name: impl Into<String>) -> Self {
        InstancePart {
            name: name.into(),
            index: None,
        }
    }

    /// A named part with a concrete index (e.g. `worker-thread#3`).
    pub fn indexed(name: impl Into<String>, index: u32) -> Self {
        InstancePart {
            name: name.into(),
            index: Some(InstanceIndex::At(index)),
        }
    }

    /// A named part with the `#*` wildcard.
    pub fn wildcard(name: impl Into<String>) -> Self {
        InstancePart {
            name: name.into(),
            index: Some(InstanceIndex::All),
        }
    }

    /// Whether this part carries the `#*` wildcard.
    pub fn is_wildcard(&self) -> bool {
        matches!(self.index, Some(InstanceIndex::All))
    }

    fn parse(s: &str) -> Result<Self, CounterError> {
        if s.is_empty() {
            return Err(CounterError::invalid_name("empty instance part"));
        }
        match s.split_once('#') {
            None => Ok(InstancePart::plain(s)),
            Some((name, idx)) => {
                if name.is_empty() {
                    return Err(CounterError::invalid_name("instance part with empty name"));
                }
                if idx == "*" {
                    Ok(InstancePart::wildcard(name))
                } else {
                    let i: u32 = idx.parse().map_err(|_| {
                        CounterError::invalid_name(format!("bad instance index `{idx}`"))
                    })?;
                    Ok(InstancePart::indexed(name, i))
                }
            }
        }
    }
}

impl fmt::Display for InstancePart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if let Some(i) = &self.index {
            write!(f, "#{i}")?;
        }
        Ok(())
    }
}

/// The full instance path inside `{...}`: a parent part followed by zero or
/// more child parts, e.g. `locality#0/worker-thread#1` or `locality#0/total`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CounterInstance {
    /// The parent instance, conventionally `locality#N`.
    pub parent: InstancePart,
    /// Child instance parts below the parent (often a single one).
    pub children: Vec<InstancePart>,
}

impl CounterInstance {
    /// The aggregate instance for a locality: `locality#loc/total`.
    pub fn total(locality: u32) -> Self {
        CounterInstance {
            parent: InstancePart::indexed("locality", locality),
            children: vec![InstancePart::plain("total")],
        }
    }

    /// A per-worker instance: `locality#loc/worker-thread#w`.
    pub fn worker(locality: u32, worker: u32) -> Self {
        CounterInstance {
            parent: InstancePart::indexed("locality", locality),
            children: vec![InstancePart::indexed("worker-thread", worker)],
        }
    }

    /// Whether any component carries the `#*` wildcard.
    pub fn has_wildcard(&self) -> bool {
        self.parent.is_wildcard() || self.children.iter().any(|c| c.is_wildcard())
    }

    /// Whether this is the `total` aggregate instance (last child named `total`).
    pub fn is_total(&self) -> bool {
        self.children
            .last()
            .map(|c| c.name == "total" && c.index.is_none())
            .unwrap_or(false)
    }

    fn parse(s: &str) -> Result<Self, CounterError> {
        let mut parts = s.split('/');
        let parent = InstancePart::parse(
            parts
                .next()
                .ok_or_else(|| CounterError::invalid_name("empty instance"))?,
        )?;
        let children = parts
            .map(InstancePart::parse)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CounterInstance { parent, children })
    }
}

impl fmt::Display for CounterInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.parent)?;
        for c in &self.children {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

/// A fully structured counter name.
///
/// `CounterName` round-trips through its [`Display`](fmt::Display) and
/// [`FromStr`] implementations: `name.to_string().parse() == name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CounterName {
    /// The object (subsystem) the counter belongs to, e.g. `threads`.
    pub object: String,
    /// The optional instance path from the `{...}` block.
    pub instance: Option<CounterInstance>,
    /// The counter name proper; may contain slashes, e.g. `time/average`.
    pub counter: String,
    /// The optional `@parameters` suffix (verbatim, excluding the `@`).
    pub parameters: Option<String>,
}

impl CounterName {
    /// Build a name without instance or parameters, e.g. `/threads/time/average`.
    pub fn new(object: impl Into<String>, counter: impl Into<String>) -> Self {
        CounterName {
            object: object.into(),
            instance: None,
            counter: counter.into(),
            parameters: None,
        }
    }

    /// Attach an instance path.
    pub fn with_instance(mut self, instance: CounterInstance) -> Self {
        self.instance = Some(instance);
        self
    }

    /// Attach a parameter string (stored without the leading `@`).
    pub fn with_parameters(mut self, params: impl Into<String>) -> Self {
        self.parameters = Some(params.into());
        self
    }

    /// The *type path* of this counter: `/object/counter`, ignoring instance
    /// and parameters. Counter types are registered under this key.
    pub fn type_path(&self) -> String {
        format!("/{}/{}", self.object, self.counter)
    }

    /// Whether the name needs wildcard expansion before it can be resolved
    /// to concrete counter instances.
    pub fn has_wildcard(&self) -> bool {
        self.instance
            .as_ref()
            .map(CounterInstance::has_wildcard)
            .unwrap_or(false)
    }

    /// A copy of this name with the instance replaced.
    pub fn reinstantiate(&self, instance: CounterInstance) -> Self {
        CounterName {
            object: self.object.clone(),
            instance: Some(instance),
            counter: self.counter.clone(),
            parameters: self.parameters.clone(),
        }
    }

    /// The canonical string form (identical to `to_string`).
    pub fn canonical(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for CounterName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "/{}", self.object)?;
        if let Some(inst) = &self.instance {
            write!(f, "{{{inst}}}")?;
        }
        write!(f, "/{}", self.counter)?;
        if let Some(p) = &self.parameters {
            write!(f, "@{p}")?;
        }
        Ok(())
    }
}

impl FromStr for CounterName {
    type Err = CounterError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix('/')
            .ok_or_else(|| CounterError::invalid_name("counter name must start with `/`"))?;

        // Split off `@parameters` first: everything after the first `@`
        // belongs to the parameters, verbatim.
        let (body, parameters) = match rest.split_once('@') {
            Some((b, p)) => (b, Some(p.to_owned())),
            None => (rest, None),
        };

        // The object name runs to the first `{` (instance block) or `/`
        // (no instance block).
        let brace = body.find('{');
        let slash = body.find('/');
        let (object, instance, counter) = match (brace, slash) {
            (Some(b), _) if slash.map(|sl| b < sl).unwrap_or(true) => {
                let object = &body[..b];
                let close = body
                    .find('}')
                    .ok_or_else(|| CounterError::invalid_name("unterminated `{` in name"))?;
                if close < b {
                    return Err(CounterError::invalid_name("`}` before `{` in name"));
                }
                let instance = CounterInstance::parse(&body[b + 1..close])?;
                let tail = &body[close + 1..];
                let counter = tail.strip_prefix('/').ok_or_else(|| {
                    CounterError::invalid_name("expected `/countername` after instance block")
                })?;
                (object, Some(instance), counter)
            }
            (_, Some(sl)) => (&body[..sl], None, &body[sl + 1..]),
            // No `/` at all (a brace after a slash is caught above; a brace
            // with no slash falls into the first arm since its guard is
            // vacuously true when `slash` is `None`).
            _ => {
                return Err(CounterError::invalid_name(
                    "counter name must contain `/countername` after the object",
                ))
            }
        };

        if object.is_empty() {
            return Err(CounterError::invalid_name("empty object name"));
        }
        if counter.is_empty() {
            return Err(CounterError::invalid_name("empty counter name"));
        }
        if counter.contains(['{', '}']) || object.contains('}') {
            return Err(CounterError::invalid_name("stray brace in counter name"));
        }

        Ok(CounterName {
            object: object.to_owned(),
            instance,
            counter: counter.to_owned(),
            parameters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> CounterName {
        s.parse()
            .unwrap_or_else(|e| panic!("failed to parse `{s}`: {e}"))
    }

    #[test]
    fn parses_plain_name() {
        let n = parse("/threads/time/average");
        assert_eq!(n.object, "threads");
        assert_eq!(n.instance, None);
        assert_eq!(n.counter, "time/average");
        assert_eq!(n.parameters, None);
    }

    #[test]
    fn parses_total_instance() {
        let n = parse("/threads{locality#0/total}/count/cumulative");
        let inst = n.instance.unwrap();
        assert_eq!(inst.parent, InstancePart::indexed("locality", 0));
        assert_eq!(inst.children, vec![InstancePart::plain("total")]);
        assert!(inst.is_total());
    }

    #[test]
    fn parses_worker_instance() {
        let n = parse("/threads{locality#0/worker-thread#7}/idle-rate");
        let inst = n.instance.unwrap();
        assert!(!inst.is_total());
        assert_eq!(
            inst.children,
            vec![InstancePart::indexed("worker-thread", 7)]
        );
    }

    #[test]
    fn parses_wildcard_instance() {
        let n = parse("/threads{locality#0/worker-thread#*}/time/average");
        assert!(n.has_wildcard());
        assert!(!n.instance.unwrap().is_total());
    }

    #[test]
    fn parses_parameters_with_embedded_names() {
        let n = parse(
            "/arithmetics/divide@/threads{locality#0/total}/time/cumulative,\
             /threads{locality#0/total}/count/cumulative",
        );
        assert_eq!(n.object, "arithmetics");
        assert_eq!(n.counter, "divide");
        let p = n.parameters.unwrap();
        assert!(p.starts_with("/threads"));
        assert!(p.contains(','));
    }

    #[test]
    fn parameters_keep_at_signs() {
        let n = parse("/statistics/average@/papi/CYCLES@x,50");
        assert_eq!(n.parameters.as_deref(), Some("/papi/CYCLES@x,50"));
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "/threads/time/average",
            "/threads{locality#0/total}/time/average",
            "/threads{locality#0/worker-thread#3}/count/cumulative",
            "/threads{locality#0/worker-thread#*}/time/average-overhead",
            "/papi{locality#0/total}/OFFCORE_REQUESTS::ALL_DATA_RD",
            "/arithmetics/add@/a/b,/c/d",
            "/runtime{locality#1/total}/uptime",
        ] {
            let n = parse(s);
            assert_eq!(n.to_string(), s);
            let n2 = parse(&n.to_string());
            assert_eq!(n, n2);
        }
    }

    #[test]
    fn type_path_strips_instance_and_params() {
        let n = parse("/threads{locality#0/total}/time/average@p");
        assert_eq!(n.type_path(), "/threads/time/average");
    }

    #[test]
    fn rejects_bad_names() {
        for s in [
            "",
            "threads/time",
            "/",
            "/threads",
            "/threads{locality#0/time/average",
            "/threads{}/x",
            "/threads{locality#x}/y",
            "/{locality#0}/y",
            "/threads{locality#0}/",
        ] {
            assert!(s.parse::<CounterName>().is_err(), "`{s}` should not parse");
        }
    }

    #[test]
    fn reinstantiate_replaces_instance() {
        let n = parse("/threads{locality#0/worker-thread#*}/time/average");
        let c = n.reinstantiate(CounterInstance::worker(0, 4));
        assert_eq!(
            c.to_string(),
            "/threads{locality#0/worker-thread#4}/time/average"
        );
    }

    #[test]
    fn builders_compose() {
        let n = CounterName::new("threads", "time/average")
            .with_instance(CounterInstance::total(0))
            .with_parameters("x");
        assert_eq!(n.to_string(), "/threads{locality#0/total}/time/average@x");
    }
}
