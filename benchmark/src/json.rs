//! Small constructors over the in-tree `serde_json::Value` (the shim has
//! no `json!` macro and no `From` impls).

use serde_json::Value;

pub fn obj<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

pub fn num(v: f64) -> Value {
    Value::F64(v)
}

pub fn int(v: u64) -> Value {
    Value::U64(v)
}

/// `{"name": {"value": v, "unit": u}, ...}` — the shape the driver reads.
pub fn metric_map<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> Value {
    obj(metrics
        .into_iter()
        .map(|(name, value, unit)| (name, obj([("value", num(value)), ("unit", text(unit))]))))
}
