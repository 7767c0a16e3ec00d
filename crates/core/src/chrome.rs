//! Shared Chrome Trace Event writer.
//!
//! Both the simulator (`dapple-sim`) and the real runtime (`dapple-engine`)
//! render their timelines as Chrome Trace Event JSON — the format consumed
//! by `chrome://tracing` and <https://ui.perfetto.dev>. The writer lives
//! here so the two exporters cannot drift: each side lowers its own task
//! records into [`ChromeEvent`]s and hands an iterator to
//! [`chrome_trace_json`]. Written by hand — no JSON dependency — with
//! strings escaped by [`crate::json::escape_into`].

use crate::json::escape_into;
use std::fmt::Write as _;

/// A typed value inside an event's `"args"` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ChromeArg {
    /// An integer argument (micro-batch index, byte count, replica, ...).
    Int(u64),
    /// A floating-point argument.
    Float(f64),
    /// A string argument, escaped on output.
    Str(String),
}

/// One complete (`"ph": "X"`) trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name shown on the slice (e.g. `F3`, `recvB1`, `AllReduce`).
    pub name: String,
    /// Category, used by trace viewers for coloring/filtering.
    pub cat: &'static str,
    /// Start timestamp in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds (clamped to zero on output).
    pub dur_us: f64,
    /// Process row — by convention the stage index.
    pub pid: usize,
    /// Thread row within the process — replica and/or comm lane.
    pub tid: usize,
    /// `"args"` entries, emitted in order. Empty means no `"args"` object.
    pub args: Vec<(&'static str, ChromeArg)>,
}

/// Serializes events as a Chrome Trace Event JSON array.
///
/// Only complete events are emitted (one object per [`ChromeEvent`]), so
/// the output is a plain JSON array loadable by Perfetto as-is.
pub fn chrome_trace_json(events: impl IntoIterator<Item = ChromeEvent>) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for e in events {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  {\"name\":\"");
        escape_into(&mut out, &e.name);
        let _ = write!(
            out,
            "\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{}",
            e.cat,
            e.ts_us,
            e.dur_us.max(0.0),
            e.pid,
            e.tid
        );
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":");
                match v {
                    ChromeArg::Int(n) => {
                        let _ = write!(out, "{n}");
                    }
                    ChromeArg::Float(f) => {
                        let _ = write!(out, "{f:.3}");
                    }
                    ChromeArg::Str(s) => {
                        out.push('"');
                        escape_into(&mut out, s);
                        out.push('"');
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> ChromeEvent {
        ChromeEvent {
            name: "F0".into(),
            cat: "forward",
            ts_us: 1.5,
            dur_us: 2.0,
            pid: 0,
            tid: 1,
            args: vec![
                ("micro", ChromeArg::Int(0)),
                ("bytes", ChromeArg::Int(4096)),
            ],
        }
    }

    #[test]
    fn renders_complete_event_with_args() {
        let json = chrome_trace_json([event()]);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains(r#""name":"F0""#));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""args":{"micro":0,"bytes":4096}"#));
    }

    #[test]
    fn empty_args_omits_args_object() {
        let mut e = event();
        e.args.clear();
        let json = chrome_trace_json([e]);
        assert!(!json.contains("args"));
    }

    #[test]
    fn negative_duration_clamps_to_zero() {
        let mut e = event();
        e.dur_us = -3.0;
        let json = chrome_trace_json([e]);
        assert!(json.contains(r#""dur":0.000"#));
    }

    #[test]
    fn strings_are_escaped() {
        let mut e = event();
        e.name = "a\"b\\c\nd".into();
        e.args = vec![("note", ChromeArg::Str("x\ty".into()))];
        let json = chrome_trace_json([e]);
        assert!(json.contains(r#"a\"b\\c\nd"#));
        assert!(json.contains(r#""note":"x\ty""#));
        // Balanced braces despite the escapes.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
