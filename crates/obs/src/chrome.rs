//! Chrome trace-event JSON export.
//!
//! Renders a ring [`snapshot`](crate::snapshot) as the Chrome
//! trace-event format (the JSON array flavor wrapped in an object),
//! loadable in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//! Every span becomes one complete event (`"ph":"X"`) with
//! microsecond `ts`/`dur`, the span vocabulary name/category, and the
//! owning serve job id in `args`. Per-thread `thread_name` metadata
//! events label the tracks. The JSON is hand-rolled like every other
//! artifact this project emits — no serde in the workspace.

use crate::ring::SpanEvent;
use std::fmt::Write as _;

/// Renders span snapshots as Chrome trace-event JSON.
pub struct TraceSink;

impl TraceSink {
    /// Export the current global snapshot. With `window_ms`, only spans
    /// that ended within the last `window_ms` milliseconds (on the obs
    /// clock) are included — the `/trace?ms=N` contract.
    pub fn chrome_json(window_ms: Option<u64>) -> String {
        let mut events = crate::snapshot();
        if let Some(ms) = window_ms {
            let cutoff = crate::now_us().saturating_sub(ms.saturating_mul(1000));
            events.retain(|e| e.t1_us >= cutoff);
        }
        Self::render(&events)
    }

    /// Render an explicit event list (snapshot already taken).
    pub fn render(events: &[SpanEvent]) -> String {
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        // One thread_name metadata event per distinct tid so Perfetto
        // labels the tracks; events are (t0, tid)-sorted, so a tid's
        // first appearance is where its metadata goes.
        let mut named: Vec<u64> = Vec::new();
        for e in events {
            if !named.contains(&e.tid) {
                named.push(e.tid);
                if !first {
                    out.push(',');
                }
                first = false;
                let label = if e.thread.is_empty() {
                    format!("thread-{}", e.tid)
                } else {
                    e.thread.clone()
                };
                let _ = write!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":",
                    e.tid
                );
                crate::json::write_string(&mut out, &label);
                out.push_str("}}");
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"job\":{}}}}}",
                e.id.name(),
                e.id.category(),
                e.t0_us,
                e.dur_us(),
                e.tid,
                e.job
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanId;

    fn ev(id: SpanId, t0: u64, t1: u64, job: u64, tid: u64, thread: &str) -> SpanEvent {
        SpanEvent {
            id,
            t0_us: t0,
            t1_us: t1,
            job,
            tid,
            thread: thread.to_string(),
        }
    }

    #[test]
    fn renders_complete_events_with_metadata() {
        let events = vec![
            ev(SpanId::QueueWait, 100, 250, 7, 1, "serve-worker-0"),
            ev(SpanId::OocCompute, 260, 900, 7, 1, "serve-worker-0"),
            ev(SpanId::OocPrefetch, 270, 800, 7, 2, "ooc-io"),
        ];
        let json = TraceSink::render(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"queue_wait\",\"cat\":\"serve\""));
        assert!(json.contains("\"ts\":260,\"dur\":640"));
        assert!(json.contains("\"args\":{\"job\":7}"));
        // one metadata event per tid, not per span
        assert_eq!(json.matches("thread_name").count(), 2);
        assert!(json.contains("\"args\":{\"name\":\"ooc-io\"}"));
    }

    #[test]
    fn empty_snapshot_is_still_a_document() {
        assert_eq!(
            TraceSink::render(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn thread_names_are_escaped() {
        let events = vec![ev(SpanId::NetDecode, 0, 1, 0, 3, "we\"ird\\name\n")];
        let json = TraceSink::render(&events);
        assert!(json.contains("we\\\"ird\\\\name\\n"));
    }
}
