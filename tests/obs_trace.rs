//! Property-based well-formedness tests for the Chrome trace-event
//! exporter (`stencil_obs::TraceSink`): arbitrary span batches —
//! any vocabulary id, any timestamps, any job tag — must render to a
//! document the project's own JSON parser accepts, with every
//! Perfetto-required field present on every event.

use proptest::prelude::*;
use stencil_lab::obs::json::{parse, Value};
use stencil_lab::obs::{self, SpanId, TraceSink};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn chrome_export_is_well_formed_json(
        spans in prop::collection::vec(
            (0usize..SpanId::ALL.len(), 0u64..1_000_000, 0u64..10_000, 0u64..64),
            1..40,
        ),
    ) {
        obs::set_enabled(true);
        for &(idx, t0, dur, job) in &spans {
            obs::record_for_job(SpanId::ALL[idx], 900_000 + job, t0, t0 + dur);
        }
        obs::set_enabled(false);

        let text = TraceSink::chrome_json(None);
        let doc = parse(&text).expect("trace document parses");
        prop_assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms")
        );
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents is an array");
        let mut complete = 0usize;
        for ev in events {
            match ev.get("ph").and_then(Value::as_str) {
                Some("X") => {
                    complete += 1;
                    // the Perfetto-required surface of a complete event
                    prop_assert!(ev.get("name").and_then(Value::as_str).is_some());
                    prop_assert!(ev.get("cat").and_then(Value::as_str).is_some());
                    prop_assert!(ev.get("ts").and_then(Value::as_num).is_some());
                    prop_assert!(ev.get("dur").and_then(Value::as_num).is_some());
                    prop_assert!(ev.get("pid").and_then(Value::as_num).is_some());
                    prop_assert!(ev.get("tid").and_then(Value::as_num).is_some());
                }
                Some("M") => {
                    prop_assert_eq!(
                        ev.get("name").and_then(Value::as_str),
                        Some("thread_name")
                    );
                }
                other => prop_assert!(false, "unexpected phase {other:?}"),
            }
        }
        // the rings are process-global and this binary's earlier
        // iterations leave their spans behind, so the document holds at
        // least this iteration's batch
        prop_assert!(complete >= spans.len());
    }
}
