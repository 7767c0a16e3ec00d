//! JSON emission for the result lines and files. Values are built as
//! the parser's own [`Json`] tree (`dapple_bench::diff`), so what the
//! harness writes is by construction what `compare` and `suite` read.

pub use dapple_bench::diff::{parse_json, Json};
use std::fmt::Write as _;

pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
    Json::Arr(items.into_iter().collect())
}

pub fn nums(values: &[f64]) -> Json {
    arr(values.iter().map(|&v| Json::Num(v)))
}

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// One-line rendering. Numbers keep every digit (`{}` on `f64` is the
/// shortest text that parses back to the same value); a non-finite
/// number has no JSON spelling and becomes `null`.
pub fn render(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Json) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_string(out, key);
                out.push_str(": ");
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_round_trips_through_the_parser() {
        let value = obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("value", Json::Num(1.203_456_789_012_345_6)),
            ("name", text("a \"quoted\"\\ line\nbreak\u{1}")),
            ("raw", nums(&[0.1, 2.5e-7, 3e12])),
            ("none", Json::Null),
        ]);
        let line = render(&value);
        assert!(!line.contains('\n'), "a result is one line: {line}");
        assert_eq!(parse_json(&line).unwrap(), value);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, "));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(
            render(&nums(&[f64::NAN, f64::INFINITY, 1.0])),
            "[null, null, 1]"
        );
    }
}
