//! Shared helpers for the integration tests that read back JSON the
//! system emits (Chrome traces, the run log): panicking accessors over
//! the workspace parser, so an assertion names the field it missed.
//! Not every test uses every helper.
#![allow(dead_code)]

pub use dapple::core::json::{parse_json, Json};

/// The elements of an array value.
pub fn items(v: &Json) -> &[Json] {
    match v {
        Json::Arr(items) => items,
        other => panic!("expected array, got {other:?}"),
    }
}

/// Field `key` of object `o`.
pub fn field<'a>(o: &'a Json, key: &str) -> &'a Json {
    o.get(key)
        .unwrap_or_else(|| panic!("missing field {key:?} in {o:?}"))
}

/// Numeric field `key` of object `o`.
pub fn num(o: &Json, key: &str) -> f64 {
    field(o, key)
        .as_f64()
        .unwrap_or_else(|| panic!("field {key:?} is not a number in {o:?}"))
}

/// String field `key` of object `o`.
pub fn text<'a>(o: &'a Json, key: &str) -> &'a str {
    field(o, key)
        .as_str()
        .unwrap_or_else(|| panic!("field {key:?} is not a string in {o:?}"))
}
