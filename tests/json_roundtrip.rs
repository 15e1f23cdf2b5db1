//! Property-based round-trip tests for the hand-rolled JSON
//! implementation (`stencil_obs::json`) — the single writer/parser
//! behind the tuning cache, the benchmark dumps, the serve manifest
//! and the serve metrics surface. One implementation, so one property
//! suite covers every artifact: escapes, unicode, nested structures,
//! number edge cases, and the serve stats document itself.

use proptest::prelude::*;
use std::collections::BTreeMap;
use stencil_lab::obs::json::{parse, Value};
use stencil_lab::serve::{PlanTelemetry, StatsSnapshot, TenantCounters};

/// Map sampled code points onto `char`s, biasing toward the cases the
/// writer must escape: quotes, backslashes, control characters, and
/// multi-byte unicode.
fn chars_from(codes: &[u32]) -> String {
    codes
        .iter()
        .map(|&c| match c % 8 {
            0 => '"',
            1 => '\\',
            2 => char::from_u32(c % 0x20).unwrap_or('\u{1}'), // control
            3 => '\n',
            4 => '\t',
            _ => char::from_u32(0x20 + c % 0x2ff0).unwrap_or('\u{fffd}'),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn strings_with_escapes_round_trip(codes in prop::collection::vec(0u32..0x3000, 0..24)) {
        let v = Value::Str(chars_from(&codes));
        prop_assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn finite_numbers_round_trip_exactly(
        frac in -1.0e15f64..1.0e15,
        scale in 0u32..8,
        int in -9_007_199_254_740_992i64..9_007_199_254_740_992,
    ) {
        // fractional values across magnitudes (the shortest-float
        // writer must re-parse to the identical bits)...
        let scaled = frac * (10f64).powi(scale as i32 * 4 - 16);
        for n in [scaled, frac, int as f64, -0.0, 0.0] {
            let v = Value::Num(n);
            let back = parse(&v.pretty()).unwrap();
            prop_assert_eq!(back.as_num().unwrap().to_bits(), n.to_bits(), "{}", n);
        }
    }

    #[test]
    fn nested_arrays_and_objects_round_trip(
        nums in prop::collection::vec(-1.0e9f64..1.0e9, 0..6),
        key_codes in prop::collection::vec(0u32..0x3000, 1..10),
        depth in 1usize..5,
    ) {
        // depth-nested object/array alternation with awkward keys
        let mut v = Value::Arr(nums.iter().map(|&n| Value::Num(n)).collect());
        for level in 0..depth {
            let mut m = BTreeMap::new();
            m.insert(chars_from(&key_codes), v.clone());
            m.insert(format!("level{level}"), Value::Bool(level % 2 == 0));
            m.insert("null".into(), Value::Null);
            v = if level % 2 == 0 {
                Value::Obj(m)
            } else {
                Value::Arr(vec![Value::Obj(m), v])
            };
        }
        let text = v.pretty();
        prop_assert_eq!(parse(&text).unwrap(), v);
        // and the writer is deterministic: re-serialize == serialize
        prop_assert_eq!(parse(&text).unwrap().pretty(), text);
    }

    #[test]
    fn serve_stats_dumps_round_trip(
        counters in prop::collection::vec(0u64..1_000_000_000, 20),
        mean in 0.0f64..1.0e9,
        warn_codes in prop::collection::vec(0u32..0x3000, 0..12),
        tenant_codes in prop::collection::vec(0u32..0x3000, 1..10),
        tenant_counters in prop::collection::vec(0u64..1_000_000_000, 3),
        plan_counters in prop::collection::vec(0u64..1_000_000_000, 4),
    ) {
        // the serve metrics document uses the same writer; any counter
        // values and any warning text must survive the trip
        let snap = StatsSnapshot {
            jobs_submitted: counters[0],
            jobs_rejected: counters[1],
            jobs_completed: counters[2],
            jobs_failed: counters[3],
            jobs_shed: counters[5] ^ counters[6],
            jobs_quarantined: counters[7] ^ counters[8],
            queue_depth: counters[4],
            plan_hits: counters[5],
            plan_misses: counters[6],
            warm_loaded: counters[7],
            cold_fallbacks: counters[8],
            cold_recoveries: counters[16],
            batches: counters[9],
            batched_jobs: counters[10],
            max_batch: counters[11],
            sharded_jobs: counters[12],
            shards_executed: counters[13],
            ooc_jobs: counters[12] ^ counters[13],
            ooc_bytes_read: counters[14] ^ counters[0],
            ooc_bytes_written: counters[15] ^ counters[1],
            ooc_prefetch_hits: counters[16] ^ counters[2],
            ooc_prefetch_misses: counters[17] ^ counters[3],
            ooc_stall_us: counters[18] ^ counters[4],
            ooc_io_retries: counters[19] ^ counters[5],
            surface_pool_hits: counters[9] ^ counters[10],
            surface_pool_misses: counters[10] ^ counters[11],
            surface_pool_held_bytes: counters[11] ^ counters[12],
            p50_us: counters[14],
            p99_us: counters[15],
            mean_us: mean,
            tuner_probes: counters[0] ^ counters[1],
            swaps: counters[17],
            challenges: counters[18],
            challenges_rejected: counters[19],
            warnings: vec![chars_from(&warn_codes)],
            // awkward tenant names (quotes, control chars, unicode)
            // must survive as object keys too
            tenants: BTreeMap::from([(
                chars_from(&tenant_codes),
                TenantCounters {
                    submitted: tenant_counters[0],
                    rejected: tenant_counters[1],
                    completed: tenant_counters[2],
                },
            )]),
            // registry keys contain '|' and arbitrary shape tokens —
            // the per-plan telemetry rows must survive them as keys
            plans: BTreeMap::from([(
                chars_from(&tenant_codes) + "|small|static|pooled",
                PlanTelemetry {
                    samples: plan_counters[0],
                    p50_us: plan_counters[1],
                    p99_us: plan_counters[2],
                    epoch: plan_counters[3],
                    queue_us: plan_counters[0] ^ plan_counters[1],
                    compute_us: plan_counters[1] ^ plan_counters[2],
                    io_us: plan_counters[2] ^ plan_counters[3],
                    overlap_us: plan_counters[3] ^ plan_counters[0],
                },
            )]),
        };
        let text = snap.to_json().pretty();
        let back = StatsSnapshot::from_json(&parse(&text).unwrap()).unwrap();
        prop_assert_eq!(back, snap);
    }
}

/// Pin the stats document's key set: dashboards and scrapers parse this
/// schema, so adding or renaming a key must be a conscious, test-visible
/// change here.
#[test]
fn serve_stats_json_schema_is_pinned() {
    let snap = StatsSnapshot {
        tenants: BTreeMap::from([("acme".to_string(), TenantCounters::default())]),
        plans: BTreeMap::from([(
            "sig|small|static|pooled".to_string(),
            PlanTelemetry::default(),
        )]),
        ..StatsSnapshot::from_json(
            &parse(
                &stencil_lab::serve::ServeStats::new()
                    .snapshot()
                    .to_json()
                    .pretty(),
            )
            .unwrap(),
        )
        .unwrap()
    };
    let doc = snap.to_json();
    let Value::Obj(m) = &doc else {
        panic!("stats document must be an object")
    };
    let keys: Vec<&str> = m.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "batched_jobs",
            "batches",
            "challenges",
            "challenges_rejected",
            "cold_fallbacks",
            "cold_recoveries",
            "jobs_completed",
            "jobs_failed",
            "jobs_quarantined",
            "jobs_rejected",
            "jobs_shed",
            "jobs_submitted",
            "max_batch",
            "mean_us",
            "ooc_bytes_read",
            "ooc_bytes_written",
            "ooc_io_retries",
            "ooc_jobs",
            "ooc_prefetch_hits",
            "ooc_prefetch_misses",
            "ooc_stall_us",
            "p50_us",
            "p99_us",
            "plan_hit_ratio",
            "plan_hits",
            "plan_misses",
            "plans",
            "queue_depth",
            "sharded_jobs",
            "shards_executed",
            "surface_pool_held_bytes",
            "surface_pool_hits",
            "surface_pool_misses",
            "swaps",
            "tenants",
            "tuner_probes",
            "warm_loaded",
            "warnings",
        ]
    );
    let Some(Value::Obj(rows)) = m.get("tenants") else {
        panic!("tenants must be an object keyed by tenant name")
    };
    let Some(Value::Obj(row)) = rows.get("acme") else {
        panic!("tenant rows must be objects")
    };
    let row_keys: Vec<&str> = row.keys().map(String::as_str).collect();
    assert_eq!(row_keys, ["completed", "rejected", "submitted"]);
    let Some(Value::Obj(rows)) = m.get("plans") else {
        panic!("plans must be an object keyed by registry key")
    };
    let Some(Value::Obj(row)) = rows.get("sig|small|static|pooled") else {
        panic!("plan telemetry rows must be objects")
    };
    let row_keys: Vec<&str> = row.keys().map(String::as_str).collect();
    assert_eq!(
        row_keys,
        [
            "compute_us",
            "epoch",
            "io_us",
            "overlap_us",
            "p50_us",
            "p99_us",
            "queue_us",
            "samples",
        ]
    );
}
