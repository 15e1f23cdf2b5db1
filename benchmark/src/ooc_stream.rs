//! `ooc_stream`: a domain four times the memory budget streamed through
//! the file-backed slab store. `box3d27p` is the cheapest kernel per byte,
//! so `ooc::store` and `ooc::stream` do most of the work; every pass reads
//! *and* writes the domain. The store files live under the run's output
//! directory and stay in the page cache: this is page-cache IO, and no
//! disk figure is claimed from it.

use crate::field::{self, BitHash};
use crate::metrics::Outcome;
use crate::rng::SplitMix64;
use crate::spans::{scoped, Tracer};
use crate::stats::{fastest, median};
use crate::{micro, RunArgs, Scale};
use std::time::Instant;
use stencil_core::{kernels, Method, Plan, Solver, Tiling, Tuning};
use stencil_grid::Grid3D;
use stencil_ooc::{run_streaming_grid, OocConfig, SlabStore, StreamReport};
use stencil_runtime::PoolHandle;
use stencil_serve::JobDomain;

/// Steps of one streamed run: one pass, with a halo of four planes a side.
const STEPS: usize = 4;

/// Tall and thin: many z-slab windows at a small per-plane cost. 30 MiB
/// against a budget of 7.5 MiB gives 40 windows of 36 planes, 28 of them
/// interior; a larger domain would leave a run too few jobs. Not 32 MiB:
/// that is glibc's largest mmap threshold, and a grid of exactly that size
/// is allocated one way or the other from process to process — set-up time
/// follows.
fn extents(scale: Scale) -> [usize; 3] {
    match scale {
        Scale::Full => [960, 64, 64],
        Scale::Tiny => [1024, 16, 16],
    }
}

struct Streamed {
    plan: Plan,
    grid: Grid3D,
    cfg: OocConfig,
    want: BitHash,
}

impl Streamed {
    fn set_up(args: &RunArgs) -> Self {
        let [nz, ny, nx] = extents(args.scale);
        let mut rng = SplitMix64::new(args.seed, 20);
        let JobDomain::D3(grid) = field::random(&[nz, ny, nx], &mut rng) else {
            unreachable!("three extents make a 3D grid")
        };
        let plan = Solver::new(kernels::box3d27p())
            .method(Method::Folded { m: 2 })
            .tiling(Tiling::None)
            .pool(PoolHandle::shared(args.threads))
            .tuning(Tuning::Static)
            .compile()
            .expect("folded block-free compiles for box3d27p");
        let domain_bytes = grid.stride_z() * 8 * nz;
        let cfg = OocConfig {
            budget_bytes: domain_bytes / 4,
            steps_per_pass: 0,
            prefetch: true,
        };
        Streamed {
            plan,
            grid,
            cfg,
            want: BitHash::new(),
        }
    }

    fn updates(&self) -> f64 {
        (self.grid.nz() * self.grid.ny() * self.grid.nx() * STEPS) as f64
    }

    /// One streamed run: spill, stream `STEPS` steps, materialize.
    fn stream(&self) -> Result<(Grid3D, StreamReport), String> {
        let (out, report) = run_streaming_grid(&self.plan, &self.grid, STEPS, &self.cfg)
            .map_err(|e| e.to_string())?;
        if report.resident_bytes > self.cfg.budget_bytes {
            return Err(format!(
                "accounted residency {} exceeds the budget {}",
                report.resident_bytes, self.cfg.budget_bytes
            ));
        }
        Ok((out, report))
    }

    /// Verify: the resident run against the scalar-plan reference, and one
    /// streamed run against the resident run bit for bit (the promise of
    /// the streaming executor).
    fn verify(&mut self, out: &mut Outcome) {
        let resident = self
            .plan
            .run_3d(&self.grid, STEPS)
            .expect("3D plan, 3D grid");
        let resident = JobDomain::D3(resident);
        let input = JobDomain::D3(self.grid.clone());
        let want = field::scalar_reference(&self.plan, &input, STEPS);
        let diff = field::rel_max_diff(&resident, &want);
        out.op((diff.is_nan() || diff > field::TOLERANCE)
            .then(|| format!("resident run differs from the scalar reference by {diff:e}")));
        self.want = BitHash::of(&resident);
        out.op(match self.stream() {
            Ok((got, _)) => (BitHash::of(&JobDomain::D3(got)) != self.want)
                .then(|| "streamed bits differ from the resident run".to_string()),
            Err(e) => Some(e),
        });
    }

    /// Streamed runs until `budget_s` has passed (at least `min_runs`):
    /// seconds per run and the report of each.
    fn measure(
        &self,
        budget_s: f64,
        min_runs: usize,
        tracer: Option<&Tracer>,
        out: &mut Outcome,
    ) -> (Vec<f64>, Vec<StreamReport>) {
        let start = Instant::now();
        let (mut times, mut reports) = (Vec::new(), Vec::new());
        let mut op_id = 0;
        while op_id < min_runs as u64 || start.elapsed().as_secs_f64() < budget_s {
            op_id += 1;
            let op = tracer.map(|tr| tr.begin("stream_run", None, op_id));
            let t0 = Instant::now();
            let done = scoped(tracer, "ooc.run_streaming_grid", op, op_id, || {
                self.stream()
            });
            let secs = t0.elapsed().as_secs_f64();
            if let (Some(tr), Some(op)) = (tracer, op) {
                tr.end(op);
                tr.fold_obs(&stencil_obs::snapshot(), op);
                stencil_obs::clear();
            }
            match done {
                Ok((got, report)) => {
                    times.push(secs);
                    reports.push(report);
                    out.op((BitHash::of(&JobDomain::D3(got)) != self.want)
                        .then(|| "streamed bits differ from the resident run".to_string()));
                }
                // an error repeats: one failed operation says it all
                Err(e) => {
                    out.op(Some(e));
                    break;
                }
            }
        }
        assert!(
            !times.is_empty(),
            "no streamed run succeeded: {:?}",
            out.failures
        );
        (times, reports)
    }
}

/// Transient slab stores of this process still in the temp directory.
fn transient_stores() -> usize {
    let prefix = format!("stencil-ooc-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
                .count()
        })
        .unwrap_or(0)
}

/// Run the workload as the driver asks.
pub fn run(args: &RunArgs, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let stores_before = transient_stores();
    let mut w = crate::repeat_set_up(&mut out, 25, || Streamed::set_up(args));
    let t0 = Instant::now();
    w.verify(&mut out);
    eprintln!("verify_s {:.3}", t0.elapsed().as_secs_f64());
    let min_runs = args.scale.min_rounds();
    match tracer {
        None => {
            let (times, reports) = w.measure(args.seconds, min_runs, None, &mut out);
            eprintln!("  {:?}", reports.last());
            eprintln!(
                "  {} runs: fastest {:.3} ms, median {:.3} ms",
                times.len(),
                fastest(&times) * 1e3,
                median(&times) * 1e3
            );
            out.samples.insert("jobs".into(), times.len() as u64);
            // the fastest run: other tenants of the host only add time
            let rate = w.updates() / fastest(&times) / 1e6;
            out.set("mupd_s", rate);
            out.set("mupd_s_3d", rate);
            // the benchmark holds the input, the output and the reference
            // hash resident; the streaming executor's own share is
            // ooc.resident_bytes
            out.set("peak_rss_mib", crate::host::peak_rss_mib());
        }
        Some(tr) => traced(args, &w, tr, &mut out),
    }
    drop(w);
    let pool = PoolHandle::shared(args.threads);
    out.op((pool.strong_count() != 2)
        .then(|| format!("{} pool handles outlive the plan", pool.strong_count())));
    out.op((transient_stores() != stores_before).then(|| {
        format!(
            "transient slab stores left in {}",
            std::env::temp_dir().display()
        )
    }));
    out
}

fn traced(args: &RunArgs, w: &Streamed, tr: &Tracer, out: &mut Outcome) {
    let s = args.seconds;
    let min_runs = args.scale.min_rounds();
    let (times, reports) = w.measure(s * 0.35, min_runs, None, out);
    let wall = fastest(&times);
    let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
    crate::job_latency(&ms, out);
    stencil_obs::set_enabled(true);
    stencil_obs::clear();
    let (traced_times, _) = w.measure(s * 0.25, min_runs, Some(tr), out);
    stencil_obs::set_enabled(false);
    out.set(
        "obs.traced_overhead_share.ooc_stream",
        fastest(&traced_times) / wall - 1.0,
    );

    // the counts repeat exactly from run to run; the shares are medians
    let last = reports.last().expect("at least one streamed run");
    out.set("ooc.bytes_read", last.stats.bytes_read as f64);
    out.set("ooc.bytes_written", last.stats.bytes_written as f64);
    out.set("ooc.passes", last.passes as f64);
    out.set("ooc.windows_per_pass", last.windows_per_pass as f64);
    out.set("ooc.resident_bytes", last.resident_bytes as f64);
    out.set(
        "ooc.io_retries",
        reports.iter().map(|r| r.stats.io_retries).sum::<u64>() as f64,
    );
    let share = |f: &dyn Fn(&StreamReport) -> f64| {
        let shares: Vec<f64> = reports
            .iter()
            .zip(&times)
            .map(|(r, t)| f(r) / (t * 1e6))
            .collect();
        median(&shares)
    };
    out.set("ooc.io_blocked_share", share(&|r| r.io_blocked_us as f64));
    out.set("ooc.io_overlap_share", share(&|r| r.io_overlap_us as f64));
    let (hit, miss) = reports.iter().fold((0, 0), |(h, m), r| {
        (h + r.stats.prefetch_hit, m + r.stats.prefetch_miss)
    });
    out.set(
        "ooc.prefetch_hit_ratio",
        hit as f64 / (hit + miss).max(1) as f64,
    );

    let loop_s = micro::loop_seconds(s);
    let resident = micro::per_call_s(loop_s, || w.plan.run_3d(&w.grid, STEPS).expect("3D plan"));
    // deliberately not end to end: a faster kernel lowers it
    out.set("ooc.stream_eff", resident / wall);
    store_micro(loop_s, args, w, out);
}

/// `ooc.*_gbs`: the store's four data paths called directly, each moving
/// the whole domain once.
fn store_micro(loop_s: f64, args: &RunArgs, w: &Streamed, out: &mut Outcome) {
    let (nz, ny, nx) = (w.grid.nz(), w.grid.ny(), w.grid.nx());
    let bytes = (nz * ny * nx * 8) as f64;
    let path = args
        .out_dir
        .join(format!("micro-{}.slab", std::process::id()));
    let radius = w.plan.pattern().radius();
    let s = micro::per_call_s(loop_s, || {
        SlabStore::create(&path, &w.grid, radius).expect("spill")
    });
    out.set("ooc.spill_gbs", bytes / s / 1e9);
    let store = SlabStore::create(&path, &w.grid, radius).expect("spill");
    let mut window = Grid3D::zeros(nz, ny, nx);
    let mut scratch = Vec::new();
    let s = micro::per_call_s(loop_s, || {
        store
            .read_window(store.surface(), 0, nz, &mut window, &mut scratch)
            .expect("read")
    });
    out.set("ooc.read_window_gbs", bytes / s / 1e9);
    let s = micro::per_call_s(loop_s, || {
        store
            .write_planes(1 - store.surface(), 0, &w.grid, 0, nz)
            .expect("write")
    });
    out.set("ooc.write_planes_gbs", bytes / s / 1e9);
    let s = micro::per_call_s(loop_s, || store.to_grid().expect("materialize"));
    out.set("ooc.to_grid_gbs", bytes / s / 1e9);
    drop(store);
    let _ = std::fs::remove_file(&path);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ooc_stream_dry_run_reports_its_metrics() {
        let _one_at_a_time = crate::dry_run_lock();
        let args = RunArgs::dry_run();
        std::fs::create_dir_all(&args.out_dir).unwrap();
        let out = run(&args, None);
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        for (name, _) in crate::metrics::END_TO_END {
            assert!(out.values[name] > 0.0, "{name}");
        }
        let tracer = Tracer::new();
        let out = run(&args, Some(&tracer));
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        for name in [
            "ooc.spill_gbs",
            "ooc.read_window_gbs",
            "ooc.write_planes_gbs",
            "ooc.to_grid_gbs",
            "ooc.bytes_read",
            "ooc.bytes_written",
            "ooc.passes",
            "ooc.windows_per_pass",
            "ooc.resident_bytes",
            "ooc.stream_eff",
        ] {
            assert!(out.values[name] > 0.0, "{name}");
        }
        assert!(
            out.values["ooc.windows_per_pass"] > 1.0,
            "the domain exceeds the budget"
        );
        assert!(tracer.self_times().contains_key("ooc.run_streaming_grid"));
        std::fs::remove_dir_all(&args.out_dir).unwrap();
    }
}
