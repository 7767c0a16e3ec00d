//! Shared Chrome Trace Event writer.
//!
//! Both the simulator (`dapple-sim`) and the real runtime (`dapple-engine`)
//! render their timelines as Chrome Trace Event JSON — the format consumed
//! by `chrome://tracing` and <https://ui.perfetto.dev>. The writer lives
//! here so the two exporters cannot drift: each side lowers its own task
//! records into [`ChromeEvent`]s and hands an iterator to
//! [`chrome_trace_json`], which writes them with [`crate::json::Array`].

use crate::json::Array;

/// A typed value inside an event's `"args"` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ChromeArg {
    /// An integer argument (micro-batch index, byte count, replica, ...).
    Int(u64),
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
    let mut out = String::new();
    let mut array = Array::new(&mut out).rows();
    for e in events {
        array = array.object(|o| {
            let o = o
                .str("name", &e.name)
                .str("cat", e.cat)
                .str("ph", "X")
                .fixed("ts", e.ts_us, 3)
                .fixed("dur", e.dur_us.max(0.0), 3)
                .u64("pid", e.pid as u64)
                .u64("tid", e.tid as u64);
            if e.args.is_empty() {
                return o;
            }
            o.object("args", |args| {
                e.args
                    .iter()
                    .fold(args, |args, (k, ChromeArg::Int(n))| args.u64(k, *n))
            })
        });
    }
    array.end();
    out.push('\n');
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
        let json = chrome_trace_json([e]);
        assert!(json.contains(r#"a\"b\\c\nd"#));
        // Balanced braces despite the escapes.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
