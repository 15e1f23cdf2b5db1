//! Property-based well-formedness tests for the Chrome trace-event
//! exporter (`stencil_obs::TraceSink`): arbitrary span batches —
//! any vocabulary id, any timestamps, any job tag — must render to a
//! document the project's own JSON parser accepts, with every
//! Perfetto-required field present on every event. The batches are
//! seeded `SplitMix64` draws; a failing case names its index and batch.

use stencil_lab::faults::SplitMix64;
use stencil_lab::obs::json::{parse, Value};
use stencil_lab::obs::{self, SpanId, TraceSink};

#[test]
fn chrome_export_is_well_formed_json() {
    let mut rng = SplitMix64::new(32);
    for case in 0..32 {
        let spans: Vec<(usize, u64, u64, u64)> = (0..rng.range(1..40))
            .map(|_| {
                let idx = rng.below(SpanId::ALL.len());
                let [t0, dur, job] = [1_000_000, 10_000, 64].map(|n| rng.next_u64() % n);
                (idx, t0, dur, job)
            })
            .collect();
        let inputs = format!("case {case}: spans={spans:?}");
        obs::set_enabled(true);
        for &(idx, t0, dur, job) in &spans {
            obs::record_for_job(SpanId::ALL[idx], 900_000 + job, t0, t0 + dur);
        }
        obs::set_enabled(false);

        let text = TraceSink::chrome_json(None);
        let doc = parse(&text).expect("trace document parses");
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Value::as_str),
            Some("ms"),
            "{inputs}"
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
                    for key in ["name", "cat"] {
                        let text = ev.get(key).and_then(Value::as_str);
                        assert!(text.is_some(), "{inputs}: {key}");
                    }
                    for key in ["ts", "dur", "pid", "tid"] {
                        let num = ev.get(key).and_then(Value::as_num);
                        assert!(num.is_some(), "{inputs}: {key}");
                    }
                }
                Some("M") => {
                    assert_eq!(
                        ev.get("name").and_then(Value::as_str),
                        Some("thread_name"),
                        "{inputs}"
                    );
                }
                other => panic!("{inputs}: unexpected phase {other:?}"),
            }
        }
        // the rings are process-global and this binary's earlier
        // iterations leave their spans behind, so the document holds at
        // least this iteration's batch
        assert!(complete >= spans.len(), "{inputs}");
    }
}
