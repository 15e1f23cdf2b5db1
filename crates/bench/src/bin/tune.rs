//! `stencil-bench tune`: pre-warm the per-host tuning cache for the
//! paper's Table-1 kernels and print the chosen-vs-model comparison —
//! where the probes agree with the §3.2 cost model, and where the real
//! machine overrules it.
//!
//! Run once per machine (or per ISA build); afterwards every
//! `Tuning::Measured`/`Tuning::CacheOnly` compile of these kernels is a
//! warm cache lookup. `--smoke` shrinks the probe budget for CI, which
//! still exercises the full probe→persist→reuse path end-to-end.

use stencil_bench::{Args, Table};
use stencil_core::tune::{auto_method, auto_tiling};
use stencil_core::{kernels, Method, Solver, Tiling, Tuning, Width};
use stencil_tune::cache::{method_str, tiling_str};

fn main() {
    let args = Args::parse();
    // --smoke: tiny probe budget unless the caller pinned one; set
    // before install() so the tuner picks it up from the environment
    if args.quick && std::env::var("STENCIL_TUNE_BUDGET_MS").is_err() {
        std::env::set_var("STENCIL_TUNE_BUDGET_MS", "120");
    }
    let tuner = stencil_tune::install();
    let threads = args.threads();
    let width = Width::native_max();
    println!(
        "stencil-bench tune — measured autotuning, {threads} threads ({})",
        stencil_simd::backend_summary()
    );
    println!("cache: {}", tuner.cache_path().display());

    let mut tab = Table::new("tune (chosen vs model)", "mixed: tb / Mpts-s / flags");
    println!(
        "{:<8} | {:>18} | {:>18} | {:>5} | {:>9} | source",
        "kernel", "model", "tuned", "width", "Mpts/s"
    );
    println!("{}", "-".repeat(84));
    let mut disagreements = 0usize;
    for (_, name, pattern) in kernels::NAMED {
        let p = pattern();
        if !args.wants(name) {
            continue;
        }
        let model_m = auto_method(&p, width, Tiling::Auto);
        let model_t = auto_tiling(p.dims(), threads);
        let before = tuner.probe_count();
        let solver = Solver::new(p.clone())
            .method(Method::Auto)
            .tiling(Tiling::Auto)
            .threads(threads)
            .tuning(Tuning::Measured);
        let plan = match solver.compile() {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("{name}: tuning failed: {e}");
                continue;
            }
        };
        let probes_run = tuner.probe_count() - before;
        let entry = tuner.lookup(&solver.tune_request());
        let rate_m = entry.as_ref().map(|e| e.rate / 1e6).unwrap_or(f64::NAN);
        let agree = plan.method() == model_m;
        if !agree {
            disagreements += 1;
        }
        println!(
            "{:<8} | {:>18} | {:>18} | {:>5} | {:>9.1} | {}",
            name,
            format!("{}+{}", method_str(model_m), tiling_str(model_t)),
            format!(
                "{}+{}",
                method_str(plan.method()),
                tiling_str(plan.tiling())
            ),
            plan.width().lanes(),
            rate_m,
            if probes_run > 0 {
                format!("probed ({probes_run} sweeps)")
            } else {
                "cache".to_string()
            },
        );
        let tb = |t: Tiling| match t {
            Tiling::Tessellate { time_block } => Some(time_block as f64),
            _ => None,
        };
        tab.put(name, "model_tb", tb(model_t));
        tab.put(name, "tuned_tb", tb(plan.tiling()));
        tab.put(name, "tuned_width", Some(plan.width().lanes() as f64));
        tab.put(name, "probe_Mpts_s", entry.as_ref().map(|e| e.rate / 1e6));
        tab.put(
            name,
            "agrees_with_model",
            Some(if agree { 1.0 } else { 0.0 }),
        );
        tab.put(name, "probe_sweeps", Some(probes_run as f64));
    }
    println!(
        "\n{} of the linear Table-1 kernels overrule the cost model on this host \
         (APOP / Game of Life are nonlinear — no linear pattern to tune).",
        disagreements
    );
    if let Some(path) = &args.json {
        Table::dump_json(&[&tab], path).expect("write json");
        eprintln!("wrote {path}");
    }
}
