//! `stencil-bench compare`: the perf regression gate. Re-run a harness
//! binary with `--json`, then compare the fresh dump against the
//! committed host-stamped baseline cell by cell:
//!
//! ```sh
//! stencil-bench compare BENCH_fig8.json=fig8-smoke.json \
//!                       BENCH_table2.json=table2-smoke.json \
//!                       [--threshold 0.35] [--foreign-threshold 0.90]
//! ```
//!
//! Each positional argument is a `baseline=current` pair. A comparison
//! fails (exit code 1) when a baseline cell is missing from the
//! current dump, is no longer finite/positive, or regressed by more
//! than the noise threshold.
//!
//! Baselines are host-stamped, and absolute rates do not transfer
//! between machines (or between `--paper` and `--smoke` problem
//! sizes). When the current dump's host fingerprint differs from the
//! baseline's, the gate therefore relaxes to the `--foreign-threshold`
//! (default: fail only on a >90% collapse — shape, coverage and
//! sanity still enforced); on the same host/ISA the strict
//! `--threshold` applies (default: fail on a >35% drop, comfortably
//! above run-to-run noise for the smoke sizes).

use stencil_obs::json::{self, Value};

struct Gate {
    threshold: f64,
    foreign_threshold: f64,
    pairs: Vec<(String, String)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: compare BASELINE=CURRENT [BASELINE=CURRENT ...] \
         [--threshold F] [--foreign-threshold F]"
    );
    std::process::exit(2);
}

fn parse_args() -> Gate {
    let mut gate = Gate {
        threshold: 0.35,
        foreign_threshold: 0.90,
        pairs: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                gate.threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--foreign-threshold" => {
                gate.foreign_threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            pair => match pair.split_once('=') {
                Some((b, c)) if !b.is_empty() && !c.is_empty() => {
                    gate.pairs.push((b.to_string(), c.to_string()));
                }
                _ => usage(),
            },
        }
    }
    if gate.pairs.is_empty() {
        usage();
    }
    gate
}

fn load(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("compare: cannot read {path}: {e}");
        std::process::exit(2);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("compare: {path} is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn host_stamp(doc: &Value) -> (String, String) {
    let host = doc.get("host");
    let get = |k: &str| {
        host.and_then(|h| h.get(k))
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    (get("hostname"), get("isa"))
}

/// Flatten a dump into ((table, row, col), value) cells.
fn cells(doc: &Value) -> Vec<((String, String, String), Option<f64>)> {
    let mut out = Vec::new();
    let Some(tables) = doc.get("tables").and_then(Value::as_arr) else {
        return out;
    };
    for t in tables {
        let title = t
            .get("title")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(cs) = t.get("cells").and_then(Value::as_arr) else {
            continue;
        };
        for c in cs {
            let row = c.get("row").and_then(Value::as_str).unwrap_or("?").into();
            let col = c.get("col").and_then(Value::as_str).unwrap_or("?").into();
            out.push((
                (title.clone(), row, col),
                c.get("value").and_then(Value::as_num),
            ));
        }
    }
    out
}

/// Cells whose values are throughputs where "lower = worse": every
/// cell of the fig/table dumps (GFLOP/s or speedup grids) except the
/// ooc store-stats table, which mixes deterministic IO volumes with
/// timing-variable prefetch counters — byte counts, not rates, so
/// coverage-checked only.
fn is_rate_cell(table: &str) -> bool {
    let t = table.to_lowercase();
    !(t.contains("ooc") && t.contains("stats"))
}

fn main() {
    let gate = parse_args();
    let mut failures = 0usize;
    let mut compared = 0usize;
    for (bpath, cpath) in &gate.pairs {
        let baseline = load(bpath);
        let current = load(cpath);
        let (bh, bisa) = host_stamp(&baseline);
        let (ch, cisa) = host_stamp(&current);
        let same_host = (&bh, &bisa) == (&ch, &cisa);
        let threshold = if same_host {
            gate.threshold
        } else {
            gate.foreign_threshold
        };
        println!(
            "comparing {cpath} against {bpath}: baseline host {bh}/{bisa}, current {ch}/{cisa} \
             -> {} gate (fail below {:.0}% of baseline)",
            if same_host { "strict" } else { "foreign-host" },
            (1.0 - threshold) * 100.0
        );
        let cur: std::collections::BTreeMap<_, _> = cells(&current).into_iter().collect();
        let mut pair_compared = 0usize;
        for (key, bval) in cells(&baseline) {
            let (t, r, c) = &key;
            let label = format!("{t} / {r} / {c}");
            let Some(bval) = bval else { continue }; // unsupported in baseline
            compared += 1;
            pair_compared += 1;
            let Some(&Some(cval)) = cur.get(&key) else {
                println!("  FAIL {label}: cell missing from current dump");
                failures += 1;
                continue;
            };
            if !cval.is_finite() {
                println!("  FAIL {label}: current value is not finite");
                failures += 1;
                continue;
            }
            if !is_rate_cell(t) {
                continue;
            }
            if bval > 0.0 && cval < bval * (1.0 - threshold) {
                println!(
                    "  FAIL {label}: {cval:.3} is {:.0}% below baseline {bval:.3}",
                    (1.0 - cval / bval) * 100.0
                );
                failures += 1;
            }
        }
        // an empty comparison is a broken baseline (filtered run,
        // missing tables), not a pass — a gate that checks nothing
        // must not stay green
        if pair_compared == 0 {
            println!("  FAIL {bpath}: baseline contributed no comparable cells");
            failures += 1;
        }
    }
    println!("compare: {compared} cell(s) checked, {failures} failure(s)");
    if failures > 0 {
        std::process::exit(1);
    }
}
