//! The whole-benchmark commands. `--all` runs every workload in a process
//! of its own, untraced and then traced, prints every metric and writes
//! `results.json`; `--repeat-check` runs the untraced benchmark twice and
//! holds the two against the committed bounds.

use crate::json::{self, Value};
use crate::metrics::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// What the commands need from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Bound per end-to-end metric: the share of the first value by which
    /// the second may differ.
    pub bounds: Vec<(String, f64)>,
}

impl BenchmarkSpec {
    /// Read `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json lacks run_seconds")?;
        let bounds = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .ok_or("BENCHMARK.json lacks end_to_end")?
            .iter()
            .map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
        Ok(BenchmarkSpec {
            run_seconds,
            bounds,
        })
    }
}

/// The result object of one run, as read back from a child's last line or
/// from `results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(value, unit)` by metric name.
    pub metrics: BTreeMap<String, (f64, String)>,
}

impl RunResult {
    /// Parse a result object.
    pub fn from_value(v: &Value) -> Option<Self> {
        let count = |k: &str| v.get(k).and_then(Value::as_f64).map(|n| n as u64);
        let metrics = v
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit")?.as_str()?.to_string();
                Some((name.clone(), (m.get("value")?.as_f64()?, unit)))
            })
            .collect::<Option<_>>()?;
        Some(RunResult {
            correct: matches!(v.get("correct")?, Value::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    /// The result object again.
    pub fn to_value(&self) -> Value {
        let metrics = self.metrics.iter().map(|(name, (value, unit))| {
            let m = Value::obj([
                ("value", Value::Num(*value)),
                ("unit", Value::str(unit.as_str())),
            ]);
            (name.clone(), m)
        });
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
    }
}

/// Run one workload in a child process of this executable and read the
/// result object off the last line of its standard output. The child's
/// other output goes to standard error.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    // wait_with_output reads the pipe to its end and reaps the child
    let output = child.wait_with_output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    lines.iter().for_each(|l| eprintln!("{l}"));
    let result = json::parse(last)
        .ok()
        .as_ref()
        .and_then(RunResult::from_value)
        .ok_or(format!(
            "the {workload} run ({}) printed no result object",
            output.status
        ))?;
    Ok(result)
}

/// Print the metrics of one run; a traced run reports 0 for the layers that
/// do nothing on its workload, and those are left out here.
fn print_metrics(title: &str, r: &RunResult) {
    println!("{title}: {} operations, {} failed", r.attempted, r.failed);
    for (name, (value, unit)) in r.metrics.iter().filter(|(_, m)| m.0 != 0.0) {
        println!("  {name:<44} {value:>16.6} {unit}");
    }
}

/// `--all`: every workload untraced, then traced; every metric printed by
/// name; `results.json` written. `Ok(false)` when any operation failed.
pub fn run_all(seed: u64, seconds: f64, out_dir: &Path) -> Result<bool, String> {
    let mut workloads = Vec::new();
    let mut correct = true;
    for w in WORKLOADS {
        let untraced = run_child(w, seed, seconds, false, out_dir)?;
        print_metrics(&format!("{w} end to end (untraced run)"), &untraced);
        let traced = run_child(w, seed, seconds, true, out_dir)?;
        print_metrics(&format!("{w} per layer (traced run)"), &traced);
        correct &= untraced.correct && traced.correct;
        workloads.push((
            w,
            Value::obj([
                ("end_to_end", untraced.to_value()),
                ("per_layer", traced.to_value()),
            ]),
        ));
    }
    let doc = Value::obj([
        ("host", crate::host::stamp()),
        ("seed", Value::Num(seed as f64)),
        ("run_seconds", Value::Num(seconds)),
        ("workloads", Value::obj(workloads)),
    ]);
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join("results.json");
    std::fs::write(&path, doc.to_json() + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(correct)
}

/// One line of the repeat check: does the second value stay within `bound`
/// of the first?
pub fn within(first: f64, second: f64, bound: f64) -> bool {
    (second / first - 1.0).abs() <= bound
}

/// `--repeat-check`: the whole untraced benchmark twice on the same build.
/// Prints both values and their ratio per metric and workload; `Ok(false)`
/// when a pair differs by more than the metric's committed bound or an
/// operation failed.
pub fn repeat_check(
    spec: &BenchmarkSpec,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<bool, String> {
    let mut passes = Vec::new();
    for _ in 0..2 {
        let pass = WORKLOADS
            .iter()
            .map(|w| run_child(w, seed, seconds, false, out_dir))
            .collect::<Result<Vec<_>, _>>()?;
        passes.push(pass);
    }
    let mut ok = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "ratio", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&passes[0][i], &passes[1][i]);
        ok &= a.correct && b.correct;
        for (name, bound) in &spec.bounds {
            let value = |r: &RunResult| {
                r.metrics
                    .get(name)
                    .map(|m| m.0)
                    .ok_or(format!("{w} did not report {name}"))
            };
            let (x, y) = (value(a)?, value(b)?);
            let fine = within(x, y, *bound);
            ok &= fine;
            println!(
                "{w:<14} {name:<14} {x:>14.4} {y:>14.4} {:>8.4} {bound:>6} {}",
                y / x,
                if fine { "" } else { "OUT OF BOUND" }
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Outcome;

    #[test]
    fn results_round_trip_through_json() {
        let mut o = Outcome::default();
        o.op(None);
        o.op(Some("cell: wrong bits".into()));
        for (name, _) in crate::metrics::END_TO_END {
            o.set(name, 1.0 / 3.0 + name.len() as f64);
        }
        let line = o.result_line(false).to_json();
        let read = RunResult::from_value(&json::parse(&line).unwrap()).unwrap();
        assert_eq!((read.correct, read.attempted, read.failed), (false, 2, 1));
        assert_eq!(
            read.metrics["mupd_s"],
            (1.0 / 3.0 + 6.0, "Mupd/s".to_string())
        );
        assert_eq!(read.metrics.len(), crate::metrics::END_TO_END.len());
        // and through results.json
        let doc = Value::obj([("workloads", Value::obj([("w", read.to_value())]))]);
        let back = json::parse(&doc.to_json()).unwrap();
        let again = RunResult::from_value(back.get("workloads").unwrap().get("w").unwrap());
        assert_eq!(again, Some(read));
        assert_eq!(RunResult::from_value(&Value::Null), None);
    }

    #[test]
    fn the_repeat_check_holds_both_directions_to_the_bound() {
        assert!(within(100.0, 104.9, 0.05) && within(100.0, 95.1, 0.05));
        assert!(!within(100.0, 105.1, 0.05) && !within(100.0, 94.9, 0.05));
    }

    #[test]
    fn benchmark_json_loads() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = BenchmarkSpec::load(&path).unwrap();
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        let names: Vec<&str> = spec.bounds.iter().map(|(n, _)| n.as_str()).collect();
        let own: Vec<&str> = crate::metrics::END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, own);
        assert!(BenchmarkSpec::load(Path::new("/nonexistent/BENCHMARK.json")).is_err());
    }
}
