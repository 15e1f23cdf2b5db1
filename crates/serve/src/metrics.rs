//! The service's stats surface: lock-free counters, a log-bucketed
//! latency histogram, and two renderings of one [`StatsSnapshot`] — the
//! pinned JSON document (through [`stencil_obs::json`], the one writer
//! and parser behind every artifact the project emits) and the
//! Prometheus text exposition.
//!
//! **A metric is one row of a table; the JSON key is the field name.**
//! The `serve_metrics!` invocation below declares each scalar once —
//! field, `counter|gauge`, Prometheus series, one-line HELP (which is
//! also the field's rustdoc) — and the [`ServeStats`] atomics, the
//! [`StatsSnapshot`] fields, `snapshot()`, `to_json`, `from_json` and
//! the exposition's scalar block all expand from that row;
//! `labelled_rows!` does the same for the per-tenant and per-plan row
//! types. Adding a metric is one row plus the place that increments it
//! (plus the deliberate schema pin in `tests/json_roundtrip.rs`).
//!
//! Everything on the hot path is an atomic increment; the only lock is
//! around the (rare, capped) operator warning list. A [`StatsSnapshot`]
//! is a plain-data copy taken at a point in time — cheap enough to poll
//! from a metrics scraper loop.

use crate::adapt::telemetry::TrafficMap;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use stencil_obs::json::Value;
use stencil_runtime::sync::Mutex;

/// Number of log2 latency buckets (bucket `i` counts samples with
/// `floor(log2(us)) == i`; 63 covers every representable duration).
const BUCKETS: usize = 64;

/// Most operator warnings retained before older ones are dropped — the
/// list is a diagnostic surface, not a log sink.
const MAX_WARNINGS: usize = 64;

/// Log2-bucketed latency histogram over microseconds.
///
/// Quantiles are read as the upper bound of the bucket the rank falls
/// in — at most 2x off, which is the right fidelity for a p99 gauge
/// that must cost one atomic add per sample.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one latency sample.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - us.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds: upper bound of
    /// the bucket holding that rank, 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        // rank against the buckets actually scanned, not the separate
        // `count` counter: under concurrent record()s (all Relaxed) the
        // counter can run ahead of a bucket increment, and a rank no
        // bucket covers would return a nonsense sentinel
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        unreachable!("rank <= total, so some scanned bucket covers it")
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Sum of all recorded samples, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the per-bucket counts (bucket `i` holds
    /// samples with `floor(log2(us)) == i`, i.e. upper bound
    /// `2^(i+1) - 1` µs) — the Prometheus `_bucket` series source.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// The Prometheus `# TYPE` of a table row, checked at compile time.
macro_rules! kind {
    (counter) => {
        "counter"
    };
    (gauge) => {
        "gauge"
    };
}

/// Declares a labelled row type (one row per tenant, per plan): the
/// struct, its JSON object in both directions, and its Prometheus
/// families. Row grammar: `field: counter|gauge "series" "HELP",` — the
/// HELP line is also the field's rustdoc, and `///` lines above a row
/// are appended to it.
macro_rules! labelled_rows {
    (
        $(#[$meta:meta])*
        $name:ident by $label:literal {
            $($(#[$note:meta])* $field:ident: $kind:ident $series:literal $help:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $(#[doc = $help] $(#[$note])* pub $field: u64,)*
        }

        impl $name {
            fn to_json(self) -> Value {
                Value::Obj(BTreeMap::from([
                    $((stringify!($field).to_string(), Value::Num(self.$field as f64)),)*
                ]))
            }

            fn from_json(row: &Value) -> Option<Self> {
                Some(Self { $($field: counter(row, stringify!($field))?,)* })
            }

            /// One family per field, one series per row — and nothing,
            /// not even HELP/TYPE headers, while there are no rows.
            fn render(out: &mut String, rows: &BTreeMap<String, Self>) {
                if rows.is_empty() {
                    return;
                }
                let rows: Vec<_> = rows.iter().map(|(key, row)| (escape_label(key), row)).collect();
                $(
                    family(out, $series, kind!($kind), $help);
                    for (label, row) in &rows {
                        let _ = writeln!(out, "{}{{{}=\"{label}\"}} {}", $series, $label, row.$field);
                    }
                )*
            }
        }
    };
}

labelled_rows! {
    /// Per-tenant admission counters, maintained by the network front end
    /// and exported inside the [`StatsSnapshot`] JSON.
    TenantCounters by "tenant" {
        submitted: counter "stencil_tenant_submitted_total" "Jobs this tenant got accepted into the queue.",
        rejected: counter "stencil_tenant_rejected_total" "Submissions refused (quota or queue backpressure).",
        completed: counter "stencil_tenant_completed_total" "Jobs completed for this tenant.",
    }
}

labelled_rows! {
    /// Per-plan (registry-key) latency telemetry inside a
    /// [`StatsSnapshot`] — what the `/metrics` scrape surface exposes per
    /// serving plan. Times are microseconds.
    PlanTelemetry by "plan" {
        /// Lifetime count, not the decider's hot-key window.
        samples: counter "stencil_plan_samples_total" "Latency samples recorded under the registry key.",
        p50_us: gauge "stencil_plan_latency_p50_microseconds" "Median latency under the registry key.",
        p99_us: gauge "stencil_plan_latency_p99_microseconds" "99th-percentile latency under the registry key.",
        /// The generation that served the latest sample.
        epoch: gauge "stencil_plan_epoch" "Plan generation serving the key (bumps on hot-swap).",
        queue_us: counter "stencil_plan_queue_microseconds_total" "Total time the key's jobs waited in the queue.",
        compute_us: counter "stencil_plan_compute_microseconds_total" "Total time the key's jobs spent computing.",
        io_us: counter "stencil_plan_io_microseconds_total" "Total time the key's jobs were blocked on IO.",
        overlap_us: counter "stencil_plan_overlap_microseconds_total" "Total IO hidden under the key's compute.",
    }
}

/// Declares the scalar metrics and expands everything that enumerates
/// them: both structs, `snapshot()`, the JSON document in both
/// directions and the exposition's scalar block.
///
/// * `counted` rows are `AtomicU64` fields of [`ServeStats`],
///   incremented where the event happens:
///   `field: counter|gauge "series" "HELP",`.
/// * `sampled` rows have no atomic: `snapshot()` evaluates their
///   expression (over the `ServeStats` bound to the name in the
///   parentheses). The `: kind "series"` part is optional — a row
///   without it is JSON-only.
///
/// The HELP line is also the field's rustdoc; `///` lines above a row
/// are appended to it.
macro_rules! serve_metrics {
    (
        counted {
            $($(#[$cnote:meta])* $c:ident: $ckind:ident $cseries:literal $chelp:literal,)*
        }
        sampled($stats:ident) {
            $($(#[$snote:meta])* $s:ident $(: $skind:ident $sseries:literal)? $shelp:literal = $sample:expr,)*
        }
    ) => {
        /// Live counters of a running service. Shared (`Arc`) between the
        /// submission side, the executor workers, and the registry.
        #[derive(Default)]
        pub struct ServeStats {
            $(#[doc = $chelp] $(#[$cnote])* pub $c: AtomicU64,)*
            /// End-to-end job latency (submit to completion, queue wait
            /// included).
            pub latency: LatencyHistogram,
            /// Per-registry-key latency telemetry (the adaptive retuning
            /// decider's hot-key input), recorded alongside `latency` for
            /// every executed job.
            pub traffic: TrafficMap,
            warnings: Mutex<Vec<String>>,
            /// Per-tenant admission counters (network front end). Rarely
            /// contended: one writer (the poll loop) plus snapshot readers.
            tenants: Mutex<BTreeMap<String, TenantCounters>>,
        }

        /// Plain-data copy of [`ServeStats`] at a point in time.
        #[derive(Debug, Clone, PartialEq)]
        pub struct StatsSnapshot {
            $(#[doc = $chelp] $(#[$cnote])* pub $c: u64,)*
            $(#[doc = $shelp] $(#[$snote])* pub $s: u64,)*
            /// Mean end-to-end latency, microseconds.
            pub mean_us: f64,
            /// Operator warnings accumulated so far (oldest dropped past a
            /// cap).
            pub warnings: Vec<String>,
            /// Per-tenant admission counters keyed by tenant name (empty when
            /// the service runs without the network front end).
            pub tenants: BTreeMap<String, TenantCounters>,
            /// Per-plan latency telemetry keyed by registry key (empty until a
            /// job completes).
            pub plans: BTreeMap<String, PlanTelemetry>,
        }

        impl ServeStats {
            /// Point-in-time copy of every counter (plus the installed tuner's
            /// probe counter — a read-only gauge; tuner *warnings* are drained
            /// onto the stats surface by the registry's warm-up, the one place
            /// a bad cache first becomes visible, so concurrent services never
            /// steal each other's lines).
            pub fn snapshot(&self) -> StatsSnapshot {
                let $stats = self;
                StatsSnapshot {
                    $($c: self.$c.load(Ordering::Relaxed),)*
                    $($s: $sample,)*
                    mean_us: self.latency.mean_us(),
                    warnings: self.warnings.lock().clone(),
                    tenants: self.tenants.lock().clone(),
                    plans: self.plan_rows(),
                }
            }

            /// Render the full stats surface in the Prometheus text exposition
            /// format (version 0.0.4): every counter as a `_total` series, the
            /// gauges, the end-to-end latency histogram as native cumulative
            /// `_bucket` series (log2 upper bounds, matching
            /// [`LatencyHistogram`]'s buckets), per-tenant admission counters
            /// and per-plan latency/timeline series with escaped label values.
            /// Everything but the histogram buckets comes from one
            /// [`snapshot`](Self::snapshot), the reading the JSON document
            /// renders too. Served by the net front end at
            /// `/metrics?format=prometheus`; the pinned JSON document at
            /// `/metrics` is untouched.
            pub fn prometheus(&self) -> String {
                let snap = self.snapshot();
                let mut out = String::with_capacity(4096);
                $(scalar(&mut out, $cseries, kind!($ckind), $chelp, snap.$c);)*
                $($(scalar(&mut out, $sseries, kind!($skind), $shelp, snap.$s);)?)*
                render_histogram(
                    &mut out,
                    "stencil_job_latency_microseconds",
                    "End-to-end job latency (submit to completion).",
                    &self.latency,
                );
                TenantCounters::render(&mut out, &snap.tenants);
                PlanTelemetry::render(&mut out, &snap.plans);
                out
            }

            /// `(field, kind, series, cell)` of every counted row, for the
            /// test that walks the table.
            #[cfg(test)]
            fn counted_rows(&self) -> Vec<(&'static str, &'static str, &'static str, &AtomicU64)> {
                vec![$((stringify!($c), kind!($ckind), $cseries, &self.$c),)*]
            }
        }

        impl StatsSnapshot {
            /// Serialize through the project's hand-rolled JSON writer.
            pub fn to_json(&self) -> Value {
                Value::Obj(BTreeMap::from([
                    $((stringify!($c).to_string(), Value::Num(self.$c as f64)),)*
                    $((stringify!($s).to_string(), Value::Num(self.$s as f64)),)*
                    ("plan_hit_ratio".to_string(), Value::Num(self.hit_ratio())),
                    ("mean_us".to_string(), Value::Num(self.mean_us)),
                    (
                        "warnings".to_string(),
                        Value::Arr(self.warnings.iter().cloned().map(Value::Str).collect()),
                    ),
                    ("tenants".to_string(), rows_to_json(&self.tenants, TenantCounters::to_json)),
                    ("plans".to_string(), rows_to_json(&self.plans, PlanTelemetry::to_json)),
                ]))
            }

            /// Rebuild a snapshot from its [`StatsSnapshot::to_json`] document
            /// (`None` on schema mismatch) — lets tests and dashboards
            /// round-trip the dump through the shared parser.
            pub fn from_json(doc: &Value) -> Option<Self> {
                Some(Self {
                    $($c: counter(doc, stringify!($c))?,)*
                    $($s: counter(doc, stringify!($s))?,)*
                    mean_us: doc.get("mean_us")?.as_num()?,
                    warnings: doc
                        .get("warnings")?
                        .as_arr()?
                        .iter()
                        .map(|v| v.as_str().map(str::to_string))
                        .collect::<Option<Vec<_>>>()?,
                    tenants: rows_from_json(doc.get("tenants")?, TenantCounters::from_json)?,
                    plans: rows_from_json(doc.get("plans")?, PlanTelemetry::from_json)?,
                })
            }
        }
    };
}

serve_metrics! {
    counted {
        jobs_submitted: counter "stencil_jobs_submitted_total" "Jobs accepted into the queue.",
        /// (`try_submit` on a full queue.)
        jobs_rejected: counter "stencil_jobs_rejected_total" "Jobs refused by backpressure.",
        jobs_completed: counter "stencil_jobs_completed_total" "Jobs completed successfully.",
        jobs_failed: counter "stencil_jobs_failed_total" "Jobs that failed at execution.",
        /// Counted apart from failures: the job never ran.
        jobs_shed: counter "stencil_jobs_shed_total" "Jobs shed at dequeue because their deadline had passed.",
        /// A key is quarantined after repeated worker panics.
        jobs_quarantined: counter "stencil_jobs_quarantined_total" "Submissions rejected on a panic-quarantined plan key.",
        queue_depth: gauge "stencil_queue_depth" "Current submission queue depth.",
        plan_hits: counter "stencil_plan_hits_total" "Registry lookups resolved by an already-compiled plan.",
        plan_misses: counter "stencil_plan_misses_total" "Registry lookups that had to compile.",
        warm_loaded: counter "stencil_warm_loaded_total" "Plans compiled during manifest warm-up.",
        /// Warm-up or submit compiles under a measured tuning mode that
        /// found a cold tune cache or no tuner; each one also pushes a
        /// warning line.
        cold_fallbacks: counter "stencil_cold_fallbacks_total" "Compiles that fell back to the static cost model.",
        /// That is, after the tune cache was re-warmed while the service
        /// was running.
        cold_recoveries: counter "stencil_cold_recoveries_total" "Cold keys upgraded to their measured plan at runtime.",
        /// A batch of one still counts.
        batches: counter "stencil_batches_total" "Same-plan batches drained from the queue.",
        batched_jobs: counter "stencil_batched_jobs_total" "Jobs that rode in a batch of two or more.",
        max_batch: gauge "stencil_max_batch" "Largest batch drained so far.",
        sharded_jobs: counter "stencil_sharded_jobs_total" "Jobs executed through the domain sharder.",
        shards_executed: counter "stencil_shards_executed_total" "Sub-domain slabs executed in total.",
        /// (Oversized 3D domains above the configured threshold.)
        ooc_jobs: counter "stencil_ooc_jobs_total" "Jobs routed through the out-of-core streaming executor.",
        ooc_bytes_read: counter "stencil_ooc_bytes_read_total" "Payload bytes OOC jobs read from their slab stores.",
        ooc_bytes_written: counter "stencil_ooc_bytes_written_total" "Payload bytes OOC jobs wrote to their slab stores.",
        ooc_prefetch_hits: counter "stencil_ooc_prefetch_hits_total" "OOC window loads already resident when the sweep asked.",
        ooc_prefetch_misses: counter "stencil_ooc_prefetch_misses_total" "OOC window loads the sweep had to wait for.",
        ooc_stall_us: counter "stencil_ooc_stall_microseconds_total" "Microseconds OOC sweeps spent stalled on IO.",
        /// Each increment is one re-attempt, with backoff, that succeeded
        /// or fed the next backoff step.
        ooc_io_retries: counter "stencil_ooc_io_retries_total" "Transient IO faults OOC slab stores absorbed by retrying.",
        swaps: counter "stencil_swaps_total" "Registry entries hot-swapped by the retuning decider.",
        challenges: counter "stencil_challenges_total" "Challenger sessions the decider started.",
        /// Lost, margin-short, no verdict, or the winner failed to
        /// compile.
        challenges_rejected: counter "stencil_challenges_rejected_total" "Challenges that did not end in a swap.",
    }
    sampled(stats) {
        /// Process-wide, 0 when none is installed. Flat across a
        /// warm-started service — the "zero probe runs" contract made
        /// observable.
        tuner_probes: counter "stencil_tuner_probes_total" "Probe sweeps the installed measured tuner has run."
            = stencil_tune::installed_auto().map_or(0, |t| t.probe_count()),
        p50_us "Median end-to-end latency, microseconds." = stats.latency.quantile_us(0.50),
        p99_us "99th-percentile end-to-end latency, microseconds." = stats.latency.quantile_us(0.99),
    }
}

impl std::fmt::Debug for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeStats")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

impl ServeStats {
    /// Fresh zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a one-line operator warning (cold starts, corrupt tune
    /// cache, foreign-ISA invalidation, ...). Capped: past the
    /// retention limit the oldest lines are dropped.
    pub fn warn(&self, line: impl Into<String>) {
        let mut w = self.warnings.lock();
        if w.len() >= MAX_WARNINGS {
            w.remove(0);
        }
        w.push(line.into());
    }

    /// Update `tenant`'s admission counters in place (creating the row
    /// on first touch).
    pub fn tenant_update(&self, tenant: &str, f: impl FnOnce(&mut TenantCounters)) {
        let mut map = self.tenants.lock();
        f(map.entry(tenant.to_string()).or_default());
    }

    /// Fold one OOC run's store counters into the service-wide OOC IO
    /// surface (each serve-routed OOC job streams through its own
    /// transient store, so the per-run counters accumulate here).
    pub fn record_ooc(&self, s: &stencil_ooc::StoreStats) {
        let ld = Ordering::Relaxed;
        self.ooc_bytes_read.fetch_add(s.bytes_read, ld);
        self.ooc_bytes_written.fetch_add(s.bytes_written, ld);
        self.ooc_prefetch_hits.fetch_add(s.prefetch_hit, ld);
        self.ooc_prefetch_misses.fetch_add(s.prefetch_miss, ld);
        self.ooc_stall_us.fetch_add(s.stall_us, ld);
        self.ooc_io_retries.fetch_add(s.io_retries, ld);
    }

    /// Record a drained batch of `n` same-plan jobs.
    pub fn record_batch(&self, n: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if n > 1 {
            self.batched_jobs.fetch_add(n as u64, Ordering::Relaxed);
        }
        self.max_batch.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// One [`PlanTelemetry`] row per registry key that has served a job.
    fn plan_rows(&self) -> BTreeMap<String, PlanTelemetry> {
        self.traffic
            .entries()
            .into_iter()
            .map(|(key, t)| {
                let tl = t.timeline_totals();
                let row = PlanTelemetry {
                    samples: t.latency.count(),
                    p50_us: t.latency.quantile_us(0.50),
                    p99_us: t.latency.quantile_us(0.99),
                    epoch: t.epoch(),
                    queue_us: tl.queue_us,
                    compute_us: tl.compute_us,
                    io_us: tl.io_us,
                    overlap_us: tl.overlap_us,
                };
                (key, row)
            })
            .collect()
    }
}

impl StatsSnapshot {
    /// Registry hit ratio in `[0, 1]` (1.0 when there were no lookups).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            1.0
        } else {
            self.plan_hits as f64 / total as f64
        }
    }
}

/// The counter under `key` of a JSON object. Counters must be
/// non-negative integers: a saturating `as` cast would silently repair
/// corrupt documents instead of rejecting them.
fn counter(doc: &Value, key: &str) -> Option<u64> {
    doc.get(key)
        .and_then(Value::as_num)
        .filter(|&v| v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64)
        .map(|v| v as u64)
}

/// A `{label: row}` JSON object from a map of labelled rows.
fn rows_to_json<T: Copy>(rows: &BTreeMap<String, T>, row: fn(T) -> Value) -> Value {
    Value::Obj(rows.iter().map(|(k, r)| (k.clone(), row(*r))).collect())
}

/// The inverse of [`rows_to_json`]: `None` unless `v` is an object and
/// every row parses.
fn rows_from_json<T>(v: &Value, row: fn(&Value) -> Option<T>) -> Option<BTreeMap<String, T>> {
    let Value::Obj(rows) = v else { return None };
    rows.iter()
        .map(|(k, r)| Some((k.clone(), row(r)?)))
        .collect()
}

/// The `# HELP` / `# TYPE` header of one metric family.
fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// One unlabelled single-value family.
fn scalar(out: &mut String, name: &str, kind: &str, help: &str, v: u64) {
    family(out, name, kind, help);
    let _ = writeln!(out, "{name} {v}");
}

/// Render one [`LatencyHistogram`] as native Prometheus histogram
/// series: cumulative `_bucket{le="..."}` rows at the log2 upper
/// bounds, the mandatory `+Inf` bucket, `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, help: &str, h: &LatencyHistogram) {
    let counts = h.bucket_counts();
    let total: u64 = counts.iter().sum();
    family(out, name, "histogram", help);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += c;
        // the final bucket's log2 upper bound exceeds u64: that is the
        // +Inf bucket below
        if i + 1 < BUCKETS {
            // only emit buckets up to the last non-empty one (plus
            // +Inf): 64 series per scrape is noise when traffic spans
            // three decades
            if c == 0 && cum == total {
                continue;
            }
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cum}",
                1u128 << (i + 1) as u32
            );
        }
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
    let _ = writeln!(out, "{name}_sum {}", h.sum_us());
    let _ = writeln!(out, "{name}_count {total}");
}

/// Escape a Prometheus label value (backslash, quote, newline).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = LatencyHistogram::default();
        for us in [10u64, 20, 40, 80, 5000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_us(0.5);
        assert!((16..=64).contains(&p50), "p50={p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 >= 4096, "p99={p99}");
        assert!(h.mean_us() > 0.0);
        // empty histogram is all zeros
        let e = LatencyHistogram::default();
        assert_eq!(e.quantile_us(0.99), 0);
        assert_eq!(e.mean_us(), 0.0);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let s = ServeStats::new();
        s.jobs_submitted.store(7, Ordering::Relaxed);
        s.plan_hits.store(3, Ordering::Relaxed);
        s.plan_misses.store(1, Ordering::Relaxed);
        s.warn("cold start: cache miss under key \"x|y\"");
        s.latency.record(Duration::from_micros(300));
        s.tenant_update("acme", |t| {
            t.submitted = 5;
            t.completed = 4;
        });
        s.tenant_update("initech", |t| t.rejected += 2);
        s.swaps.store(1, Ordering::Relaxed);
        s.challenges.store(3, Ordering::Relaxed);
        s.challenges_rejected.store(2, Ordering::Relaxed);
        s.ooc_jobs.store(1, Ordering::Relaxed);
        s.record_ooc(&stencil_ooc::StoreStats {
            bytes_read: 4096,
            bytes_written: 2048,
            prefetch_hit: 3,
            prefetch_miss: 1,
            stall_us: 77,
            io_us: 130,
            io_retries: 2,
        });
        s.jobs_shed.store(2, Ordering::Relaxed);
        s.jobs_quarantined.store(1, Ordering::Relaxed);
        s.traffic.record(
            "sig|small|static|pooled",
            Duration::from_micros(120),
            4,
            stencil_obs::Timeline {
                queue_us: 5,
                compute_us: 100,
                io_us: 15,
                overlap_us: 8,
            },
            || vec![64, 64],
        );
        let snap = s.snapshot();
        let text = snap.to_json().pretty();
        let back = StatsSnapshot::from_json(&stencil_obs::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert!((back.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(back.warnings.len(), 1);
        assert_eq!(back.tenants.len(), 2);
        assert_eq!(back.tenants["acme"].completed, 4);
        assert_eq!(back.tenants["initech"].rejected, 2);
        let plan = &back.plans["sig|small|static|pooled"];
        assert_eq!(plan.samples, 1);
        assert_eq!(plan.epoch, 4);
        assert!(plan.p50_us >= 120);
        assert_eq!((plan.queue_us, plan.compute_us), (5, 100));
        assert_eq!((plan.io_us, plan.overlap_us), (15, 8));
        assert_eq!(back.ooc_bytes_read, 4096);
        assert_eq!(back.ooc_bytes_written, 2048);
        assert_eq!(back.ooc_prefetch_hits, 3);
        assert_eq!(back.ooc_prefetch_misses, 1);
        assert_eq!(back.ooc_stall_us, 77);
        assert_eq!(back.ooc_io_retries, 2);
    }

    #[test]
    fn from_json_rejects_corrupt_tenant_rows() {
        let s = ServeStats::new();
        s.tenant_update("t", |c| c.submitted = 1);
        let mut doc = s.snapshot().to_json();
        if let Value::Obj(m) = &mut doc {
            if let Some(Value::Obj(rows)) = m.get_mut("tenants") {
                if let Some(Value::Obj(row)) = rows.get_mut("t") {
                    row.insert("submitted".into(), Value::Num(-1.0));
                }
            }
        }
        assert!(StatsSnapshot::from_json(&doc).is_none());
        // the tenants key is part of the schema, not optional
        let mut missing = s.snapshot().to_json();
        if let Value::Obj(m) = &mut missing {
            m.remove("tenants");
        }
        assert!(StatsSnapshot::from_json(&missing).is_none());
        // so is the per-plan telemetry map, and its rows are validated
        // like the tenant rows
        let mut no_plans = s.snapshot().to_json();
        if let Value::Obj(m) = &mut no_plans {
            m.remove("plans");
        }
        assert!(StatsSnapshot::from_json(&no_plans).is_none());
        s.traffic.record(
            "k",
            Duration::from_micros(10),
            0,
            stencil_obs::Timeline::default(),
            Vec::new,
        );
        let mut bad_plan = s.snapshot().to_json();
        if let Value::Obj(m) = &mut bad_plan {
            if let Some(Value::Obj(rows)) = m.get_mut("plans") {
                if let Some(Value::Obj(row)) = rows.get_mut("k") {
                    row.insert("epoch".into(), Value::Num(1.5));
                }
            }
        }
        assert!(StatsSnapshot::from_json(&bad_plan).is_none());
    }

    #[test]
    fn from_json_rejects_non_integer_counters() {
        let base = ServeStats::new().snapshot().to_json();
        let corrupt = |field: &str, v: f64| {
            let mut doc = base.clone();
            if let Value::Obj(m) = &mut doc {
                m.insert(field.to_string(), Value::Num(v));
            }
            StatsSnapshot::from_json(&doc)
        };
        assert!(StatsSnapshot::from_json(&base).is_some());
        // negative and fractional counters are corruption, not values
        // to be silently saturated
        assert!(corrupt("jobs_submitted", -3.0).is_none());
        assert!(corrupt("p99_us", 2.5).is_none());
        assert!(corrupt("batches", 1e300).is_none());
    }

    /// `ServeStats::prometheus()` for the state
    /// `prometheus_exposition_matches_golden` sets up, captured before
    /// the renderers became table-driven.
    const GOLDEN_EXPOSITION: &str = "\
# HELP stencil_jobs_submitted_total Jobs accepted into the queue.
# TYPE stencil_jobs_submitted_total counter
stencil_jobs_submitted_total 5
# HELP stencil_jobs_rejected_total Jobs refused by backpressure.
# TYPE stencil_jobs_rejected_total counter
stencil_jobs_rejected_total 0
# HELP stencil_jobs_completed_total Jobs completed successfully.
# TYPE stencil_jobs_completed_total counter
stencil_jobs_completed_total 4
# HELP stencil_jobs_failed_total Jobs that failed at execution.
# TYPE stencil_jobs_failed_total counter
stencil_jobs_failed_total 1
# HELP stencil_jobs_shed_total Jobs shed at dequeue because their deadline had passed.
# TYPE stencil_jobs_shed_total counter
stencil_jobs_shed_total 0
# HELP stencil_jobs_quarantined_total Submissions rejected on a panic-quarantined plan key.
# TYPE stencil_jobs_quarantined_total counter
stencil_jobs_quarantined_total 0
# HELP stencil_queue_depth Current submission queue depth.
# TYPE stencil_queue_depth gauge
stencil_queue_depth 2
# HELP stencil_plan_hits_total Registry lookups resolved by an already-compiled plan.
# TYPE stencil_plan_hits_total counter
stencil_plan_hits_total 0
# HELP stencil_plan_misses_total Registry lookups that had to compile.
# TYPE stencil_plan_misses_total counter
stencil_plan_misses_total 0
# HELP stencil_warm_loaded_total Plans compiled during manifest warm-up.
# TYPE stencil_warm_loaded_total counter
stencil_warm_loaded_total 0
# HELP stencil_cold_fallbacks_total Compiles that fell back to the static cost model.
# TYPE stencil_cold_fallbacks_total counter
stencil_cold_fallbacks_total 0
# HELP stencil_cold_recoveries_total Cold keys upgraded to their measured plan at runtime.
# TYPE stencil_cold_recoveries_total counter
stencil_cold_recoveries_total 0
# HELP stencil_batches_total Same-plan batches drained from the queue.
# TYPE stencil_batches_total counter
stencil_batches_total 0
# HELP stencil_batched_jobs_total Jobs that rode in a batch of two or more.
# TYPE stencil_batched_jobs_total counter
stencil_batched_jobs_total 0
# HELP stencil_max_batch Largest batch drained so far.
# TYPE stencil_max_batch gauge
stencil_max_batch 0
# HELP stencil_sharded_jobs_total Jobs executed through the domain sharder.
# TYPE stencil_sharded_jobs_total counter
stencil_sharded_jobs_total 0
# HELP stencil_shards_executed_total Sub-domain slabs executed in total.
# TYPE stencil_shards_executed_total counter
stencil_shards_executed_total 0
# HELP stencil_ooc_jobs_total Jobs routed through the out-of-core streaming executor.
# TYPE stencil_ooc_jobs_total counter
stencil_ooc_jobs_total 0
# HELP stencil_ooc_bytes_read_total Payload bytes OOC jobs read from their slab stores.
# TYPE stencil_ooc_bytes_read_total counter
stencil_ooc_bytes_read_total 0
# HELP stencil_ooc_bytes_written_total Payload bytes OOC jobs wrote to their slab stores.
# TYPE stencil_ooc_bytes_written_total counter
stencil_ooc_bytes_written_total 0
# HELP stencil_ooc_prefetch_hits_total OOC window loads already resident when the sweep asked.
# TYPE stencil_ooc_prefetch_hits_total counter
stencil_ooc_prefetch_hits_total 0
# HELP stencil_ooc_prefetch_misses_total OOC window loads the sweep had to wait for.
# TYPE stencil_ooc_prefetch_misses_total counter
stencil_ooc_prefetch_misses_total 0
# HELP stencil_ooc_stall_microseconds_total Microseconds OOC sweeps spent stalled on IO.
# TYPE stencil_ooc_stall_microseconds_total counter
stencil_ooc_stall_microseconds_total 0
# HELP stencil_ooc_io_retries_total Transient IO faults OOC slab stores absorbed by retrying.
# TYPE stencil_ooc_io_retries_total counter
stencil_ooc_io_retries_total 0
# HELP stencil_swaps_total Registry entries hot-swapped by the retuning decider.
# TYPE stencil_swaps_total counter
stencil_swaps_total 0
# HELP stencil_challenges_total Challenger sessions the decider started.
# TYPE stencil_challenges_total counter
stencil_challenges_total 0
# HELP stencil_challenges_rejected_total Challenges that did not end in a swap.
# TYPE stencil_challenges_rejected_total counter
stencil_challenges_rejected_total 0
# HELP stencil_tuner_probes_total Probe sweeps the installed measured tuner has run.
# TYPE stencil_tuner_probes_total counter
stencil_tuner_probes_total 0
# HELP stencil_job_latency_microseconds End-to-end job latency (submit to completion).
# TYPE stencil_job_latency_microseconds histogram
stencil_job_latency_microseconds_bucket{le=\"2\"} 0
stencil_job_latency_microseconds_bucket{le=\"4\"} 0
stencil_job_latency_microseconds_bucket{le=\"8\"} 0
stencil_job_latency_microseconds_bucket{le=\"16\"} 0
stencil_job_latency_microseconds_bucket{le=\"32\"} 0
stencil_job_latency_microseconds_bucket{le=\"64\"} 0
stencil_job_latency_microseconds_bucket{le=\"128\"} 0
stencil_job_latency_microseconds_bucket{le=\"256\"} 0
stencil_job_latency_microseconds_bucket{le=\"512\"} 1
stencil_job_latency_microseconds_bucket{le=\"1024\"} 1
stencil_job_latency_microseconds_bucket{le=\"2048\"} 1
stencil_job_latency_microseconds_bucket{le=\"4096\"} 1
stencil_job_latency_microseconds_bucket{le=\"8192\"} 2
stencil_job_latency_microseconds_bucket{le=\"+Inf\"} 2
stencil_job_latency_microseconds_sum 5300
stencil_job_latency_microseconds_count 2
# HELP stencil_tenant_submitted_total Jobs this tenant got accepted into the queue.
# TYPE stencil_tenant_submitted_total counter
stencil_tenant_submitted_total{tenant=\"ac\\\"me\"} 3
# HELP stencil_tenant_rejected_total Submissions refused (quota or queue backpressure).
# TYPE stencil_tenant_rejected_total counter
stencil_tenant_rejected_total{tenant=\"ac\\\"me\"} 0
# HELP stencil_tenant_completed_total Jobs completed for this tenant.
# TYPE stencil_tenant_completed_total counter
stencil_tenant_completed_total{tenant=\"ac\\\"me\"} 0
# HELP stencil_plan_samples_total Latency samples recorded under the registry key.
# TYPE stencil_plan_samples_total counter
stencil_plan_samples_total{plan=\"heat3d|large|static|pooled\"} 1
# HELP stencil_plan_latency_p50_microseconds Median latency under the registry key.
# TYPE stencil_plan_latency_p50_microseconds gauge
stencil_plan_latency_p50_microseconds{plan=\"heat3d|large|static|pooled\"} 128
# HELP stencil_plan_latency_p99_microseconds 99th-percentile latency under the registry key.
# TYPE stencil_plan_latency_p99_microseconds gauge
stencil_plan_latency_p99_microseconds{plan=\"heat3d|large|static|pooled\"} 128
# HELP stencil_plan_epoch Plan generation serving the key (bumps on hot-swap).
# TYPE stencil_plan_epoch gauge
stencil_plan_epoch{plan=\"heat3d|large|static|pooled\"} 2
# HELP stencil_plan_queue_microseconds_total Total time the key's jobs waited in the queue.
# TYPE stencil_plan_queue_microseconds_total counter
stencil_plan_queue_microseconds_total{plan=\"heat3d|large|static|pooled\"} 1
# HELP stencil_plan_compute_microseconds_total Total time the key's jobs spent computing.
# TYPE stencil_plan_compute_microseconds_total counter
stencil_plan_compute_microseconds_total{plan=\"heat3d|large|static|pooled\"} 2
# HELP stencil_plan_io_microseconds_total Total time the key's jobs were blocked on IO.
# TYPE stencil_plan_io_microseconds_total counter
stencil_plan_io_microseconds_total{plan=\"heat3d|large|static|pooled\"} 3
# HELP stencil_plan_overlap_microseconds_total Total IO hidden under the key's compute.
# TYPE stencil_plan_overlap_microseconds_total counter
stencil_plan_overlap_microseconds_total{plan=\"heat3d|large|static|pooled\"} 4
";

    #[test]
    fn prometheus_exposition_matches_golden() {
        let s = ServeStats::new();
        s.jobs_submitted.store(5, Ordering::Relaxed);
        s.jobs_completed.store(4, Ordering::Relaxed);
        s.jobs_failed.store(1, Ordering::Relaxed);
        s.queue_depth.store(2, Ordering::Relaxed);
        s.latency.record(Duration::from_micros(300));
        s.latency.record(Duration::from_micros(5000));
        s.tenant_update("ac\"me", |t| t.submitted = 3);
        s.traffic.record(
            "heat3d|large|static|pooled",
            Duration::from_micros(120),
            2,
            stencil_obs::Timeline {
                queue_us: 1,
                compute_us: 2,
                io_us: 3,
                overlap_us: 4,
            },
            || vec![8, 8, 8],
        );
        let text = s.prometheus();

        // the whole document, byte for byte (300us -> le=512, 5000us ->
        // le=8192; trailing empty buckets are elided)
        assert_eq!(text, GOLDEN_EXPOSITION, "exposition drifted:\n{text}");

        // exposition hygiene: every non-comment line is `name[{labels}] value`
        for line in text.lines() {
            assert!(!line.is_empty());
            if !line.starts_with('#') {
                assert!(line.starts_with("stencil_"), "bad series line: {line}");
                assert!(line.rsplit(' ').next().unwrap().parse::<f64>().is_ok());
            }
        }
        // a fresh service with no tenants or plans renders no labeled
        // series at all (and no dangling HELP/TYPE headers)
        let empty = ServeStats::new().prometheus();
        assert!(!empty.contains("stencil_tenant_"));
        assert!(!empty.contains("stencil_plan_samples_total"));
        assert!(empty.contains("stencil_job_latency_microseconds_bucket{le=\"+Inf\"} 0\n"));
    }

    #[test]
    fn every_counted_row_reaches_both_formats() {
        let s = ServeStats::new();
        let rows = s.counted_rows();
        for (i, (.., cell)) in rows.iter().enumerate() {
            cell.store(1000 + i as u64, Ordering::Relaxed);
        }
        let snap = s.snapshot();
        let doc = snap.to_json();
        let text = s.prometheus();
        for (i, (field, kind, series, _)) in rows.iter().enumerate() {
            let v = 1000 + i as u64;
            assert_eq!(doc.get(field).and_then(Value::as_num), Some(v as f64));
            assert!(
                text.contains(&format!("# TYPE {series} {kind}\n{series} {v}\n")),
                "{field}: {series} {v} missing or mistyped:\n{text}"
            );
        }
        assert_eq!(StatsSnapshot::from_json(&doc), Some(snap));
    }

    #[test]
    fn warning_list_is_capped() {
        let s = ServeStats::new();
        for i in 0..(MAX_WARNINGS + 10) {
            s.warn(format!("w{i}"));
        }
        let snap = s.snapshot();
        assert_eq!(snap.warnings.len(), MAX_WARNINGS);
        assert_eq!(
            snap.warnings.last().unwrap(),
            &format!("w{}", MAX_WARNINGS + 9)
        );
    }

    #[test]
    fn batch_counters_track_sizes() {
        let s = ServeStats::new();
        s.record_batch(1);
        s.record_batch(4);
        s.record_batch(2);
        let snap = s.snapshot();
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.batched_jobs, 6);
        assert_eq!(snap.max_batch, 4);
    }
}
