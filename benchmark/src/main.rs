//! Command line of the benchmark; `run.sh` builds and calls it.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload and
//!   prints the result object as the last line of standard output (the
//!   driver's protocol).
//! * `--all` runs every workload in a process of its own, untraced and then
//!   traced, prints every metric and writes `results.json`.
//! * `--repeat-check` runs the untraced benchmark twice and fails when the
//!   two disagree by more than a committed bound.

use std::path::PathBuf;
use std::process::ExitCode;
use stencil_benchmark::{ledger, metrics::Outcome, run_workload, RunArgs, Scale};

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out_dir: PathBuf,
    benchmark_json: PathBuf,
    all: bool,
    repeat_check: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        benchmark_json: PathBuf::from("BENCHMARK.json"),
        all: false,
        repeat_check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => cli.out_dir = PathBuf::from(value()?),
            "--benchmark-json" => cli.benchmark_json = PathBuf::from(value()?),
            "--all" => cli.all = true,
            "--repeat-check" => cli.repeat_check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn print_outcome(args: &RunArgs, out: &Outcome) {
    println!(
        "{} seed {} {} s trace {} [{} threads, {}]",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.threads,
        stencil_simd::backend_summary()
    );
    for (what, n) in &out.samples {
        println!("  samples: {n} {what}");
    }
    for (name, unit) in Outcome::expected(args.trace) {
        if let Some(v) = out.values.get(&name) {
            println!("  {name:<44} {v:>16.6} {unit}");
        }
    }
    println!(
        "  operations: {} attempted, {} failed",
        out.attempted, out.failed
    );
    println!("{}", out.result_line(args.trace).to_json());
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("stencil-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // BENCHMARK.json is read only for what the command line leaves open
    let spec = if cli.seconds.is_none() || cli.repeat_check {
        match ledger::BenchmarkSpec::load(&cli.benchmark_json) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("stencil-benchmark: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };
    let seconds = cli
        .seconds
        .or(spec.as_ref().map(|s| s.run_seconds))
        .expect("given or read");
    if cli.all || cli.repeat_check {
        let done = match &spec {
            Some(spec) if cli.repeat_check => {
                ledger::repeat_check(spec, cli.seed, seconds, &cli.out_dir)
            }
            _ => ledger::run_all(cli.seed, seconds, &cli.out_dir),
        };
        return match done {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("stencil-benchmark: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = cli.workload else {
        eprintln!("stencil-benchmark: give --workload, --all or --repeat-check");
        return ExitCode::from(2);
    };
    // out-of-core stores go under the output directory, never outside the
    // checkout: the store layer puts transient files in the temp directory
    let tmp = cli.out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("stencil-benchmark: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    // single-threaded here: no other thread reads the environment yet
    std::env::set_var("TMPDIR", &tmp);
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        out_dir: cli.out_dir,
        threads: stencil_runtime::available_parallelism(),
        scale: Scale::Full,
    };
    match run_workload(&args) {
        Ok(out) => {
            print_outcome(&args, &out);
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("stencil-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
