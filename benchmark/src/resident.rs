//! The two resident workloads: `blockfree_1t` (one thread, no tiling,
//! working set within L2 — the paper's Fig. 8 regime) and `tiled_mt`
//! (`Method::Auto` + `Tiling::Auto` on a shared pool, working set far
//! beyond L2 — the Fig. 9 regime, and the path default users take).

use crate::field::{self, BitHash};
use crate::metrics::Outcome;
use crate::rng::SplitMix64;
use crate::spans::{scoped, Tracer};
use crate::stats::{fastest, median};
use crate::{micro, RunArgs, Scale};
use std::time::Instant;
use stencil_core::{Method, Plan, Solver, Tiling, Tuning};
use stencil_runtime::PoolHandle;
use stencil_serve::manifest::kernel_by_name;
use stencil_serve::JobDomain;

/// Which of the two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `blockfree_1t`
    Blockfree,
    /// `tiled_mt`
    Tiled,
}

/// One kernel at one frozen size. `steps` is even (the folded methods fuse
/// two) and small: long enough to time, short enough for the scalar
/// reference of the verify phase and for dozens of rounds in a run.
struct Spec {
    kernel: &'static str,
    extents: &'static [usize],
    steps: usize,
}

const fn spec(kernel: &'static str, extents: &'static [usize], steps: usize) -> Spec {
    Spec {
        kernel,
        extents,
        steps,
    }
}

fn specs(kind: Kind, scale: Scale) -> Vec<Spec> {
    match (kind, scale) {
        // Working set (two surfaces) <= L2 = 2 MiB per core: 0.8, 1.6 and
        // 1.7 MiB. Few steps per execution: a repetition of 2 to 4 ms still
        // finds a slice of time the host's other tenants leave undisturbed.
        (Kind::Blockfree, Scale::Full) => vec![
            spec("heat1d", &[48_000], 300),
            spec("d1p5", &[48_000], 250),
            spec("heat2d", &[320, 320], 14),
            spec("box2d9p", &[320, 320], 36),
            spec("heat3d", &[48, 48, 48], 4),
            spec("box3d27p", &[48, 48, 48], 6),
        ],
        // 7-16 MiB per grid and twice that with the second surface: 7 to 16
        // times the 2 MiB L2 of a core, within the 260 MiB LLC — which is
        // shared with other tenants of the host, so no bandwidth figure is
        // claimed from this workload. Steps are one full tessellate round
        // of the tiling `Tiling::Auto` resolves to (time block x fold 2).
        // Larger grids would leave a run too few rounds.
        (Kind::Tiled, Scale::Full) => vec![
            spec("heat1d", &[2_097_152], 64),
            spec("d1p5", &[2_097_152], 64),
            spec("heat2d", &[1024, 1024], 16),
            spec("box2d9p", &[1024, 1024], 16),
            spec("gb", &[1024, 1024], 16),
            spec("heat3d", &[96, 96, 96], 8),
            spec("box3d27p", &[96, 96, 96], 8),
        ],
        (Kind::Blockfree, Scale::Tiny) => vec![
            spec("heat1d", &[512], 4),
            spec("d1p5", &[512], 4),
            spec("heat2d", &[40, 40], 4),
            spec("box2d9p", &[40, 40], 4),
            spec("heat3d", &[24, 24, 24], 2),
            spec("box3d27p", &[24, 24, 24], 2),
        ],
        (Kind::Tiled, Scale::Tiny) => vec![
            spec("heat1d", &[4096], 4),
            spec("d1p5", &[4096], 4),
            spec("heat2d", &[96, 96], 4),
            spec("box2d9p", &[96, 96], 4),
            spec("gb", &[96, 96], 4),
            spec("heat3d", &[40, 40, 40], 2),
            spec("box3d27p", &[40, 40, 40], 2),
        ],
    }
}

/// Which phase of a run measures a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    /// The workload's own cells: the only ones an untraced run has.
    Main,
    /// `tiled_mt` traced: the resolved method without tiling.
    Blockfree,
    /// `tiled_mt` traced: what `Method::Auto` gives a single thread.
    Single,
    /// `tiled_mt` traced: a candidate method under the resolved tiling.
    Candidate,
}

/// One measured cell: a compiled plan on one of the workload's grids.
struct Cell {
    /// `<kernel>.<method>` on `blockfree_1t`, `<kernel>` on `tiled_mt`.
    name: String,
    group: Group,
    kernel: &'static str,
    dims: usize,
    plan: Plan,
    steps: usize,
    /// Point updates of one execution.
    updates: f64,
    want: BitHash,
    /// Seconds per execution, one entry per round.
    times: Vec<f64>,
}

impl Cell {
    fn new(name: String, group: Group, spec: &Spec, plan: Plan) -> Self {
        Cell {
            name,
            group,
            kernel: spec.kernel,
            dims: spec.extents.len(),
            plan,
            steps: spec.steps,
            updates: (spec.extents.iter().product::<usize>() * spec.steps) as f64,
            want: BitHash::new(),
            times: Vec::new(),
        }
    }

    /// Seconds of the fastest execution. The fastest and not the median:
    /// other tenants of the host only ever add time, and the median of a
    /// run follows their load where the fastest repeats (between runs of
    /// one commit the medians spread by 0.14-0.19, the fastest by 0.02-0.06).
    fn best_s(&self) -> f64 {
        fastest(&self.times)
    }

    fn mupd_s(&self) -> f64 {
        self.updates / self.best_s() / 1e6
    }
}

/// The workload after set-up: one grid per dimensionality, shared by the
/// cells of that dimensionality, and the compiled plans.
struct Resident {
    grids: Vec<JobDomain>,
    /// The cells, main group first.
    cells: Vec<Cell>,
}

fn solver(kind: Kind, spec: &Spec, method: Method, threads: usize) -> Solver {
    let pattern = kernel_by_name(spec.kernel).expect("a Table-1 kernel");
    match kind {
        Kind::Blockfree => Solver::new(pattern)
            .method(method)
            .tiling(Tiling::None)
            .threads(1),
        Kind::Tiled => Solver::new(pattern)
            .method(method)
            .tiling(Tiling::Auto)
            .pool(PoolHandle::shared(threads))
            .domain_hint(spec.extents),
    }
    .tuning(Tuning::Static)
}

/// The methods `core.cost.auto_agrees` holds `Method::Auto` against.
const CANDIDATES: [Method; 3] = [
    Method::MultipleLoads,
    Method::TransposeLayout,
    Method::Folded { m: 2 },
];

impl Resident {
    /// Set-up: seeded grids (generation is also their first touch) and
    /// every plan compiled.
    fn set_up(kind: Kind, scale: Scale, seed: u64, threads: usize) -> Self {
        let specs = specs(kind, scale);
        let mut grids: Vec<JobDomain> = Vec::new();
        let mut cells = Vec::new();
        for spec in &specs {
            if !grids.iter().any(|g| g.extents() == spec.extents) {
                let mut rng = SplitMix64::new(seed, spec.extents.len() as u64);
                grids.push(field::random(spec.extents, &mut rng));
            }
            let compile = |m| {
                solver(kind, spec, m, threads)
                    .compile()
                    .expect("cell compiles")
            };
            match kind {
                Kind::Blockfree => {
                    for (label, m) in [
                        ("xlayout", Method::TransposeLayout),
                        ("fold2", Method::Folded { m: 2 }),
                    ] {
                        let name = format!("{}.{label}", spec.kernel);
                        cells.push(Cell::new(name, Group::Main, spec, compile(m)));
                    }
                }
                Kind::Tiled => cells.push(Cell::new(
                    spec.kernel.to_string(),
                    Group::Main,
                    spec,
                    compile(Method::Auto),
                )),
            }
        }
        Resident { grids, cells }
    }

    /// The variants behind `core.tile.*`, `runtime.pool.scaling_eff` and
    /// `core.cost.auto_agrees`: each cell of `tiled_mt` re-compiled
    /// block-free, single-threaded, and with each candidate method under
    /// the tiling `Tiling::Auto` resolved to — all on the same grids.
    fn add_tiled_variants(&mut self, scale: Scale, threads: usize) {
        let specs = specs(Kind::Tiled, scale);
        for (i, s) in specs.iter().enumerate() {
            let (method, tiling) = (self.cells[i].plan.method(), self.cells[i].plan.tiling());
            let tiled = |m: Method| solver(Kind::Tiled, s, m, threads).tiling(tiling).compile();
            let blockfree = solver(Kind::Tiled, s, method, threads)
                .tiling(Tiling::None)
                .compile()
                .expect("the resolved method compiles block-free");
            let single = solver(Kind::Tiled, s, Method::Auto, threads)
                .threads(1)
                .compile()
                .expect("auto compiles for one thread");
            let name = |tag: &str| format!("{}#{tag}", s.kernel);
            self.cells
                .push(Cell::new(name("blockfree"), Group::Blockfree, s, blockfree));
            self.cells
                .push(Cell::new(name("single"), Group::Single, s, single));
            let auto = tiled(method).expect("the resolved plan compiles again");
            self.cells
                .push(Cell::new(name("auto"), Group::Candidate, s, auto));
            for (c, cand) in CANDIDATES.iter().enumerate() {
                // a candidate the tiling does not admit is no alternative
                if let Ok(plan) = tiled(*cand) {
                    self.cells
                        .push(Cell::new(name(&c.to_string()), Group::Candidate, s, plan));
                }
            }
        }
    }

    fn grid_of<'g>(grids: &'g [JobDomain], cell: &Cell) -> &'g JobDomain {
        grids
            .iter()
            .find(|g| g.extents().len() == cell.dims)
            .expect("one grid per dimensionality")
    }

    /// Verify: execute every cell once, compare it with the scalar-plan
    /// reference of the same input, and keep its bit hash — every measured
    /// repetition must reproduce it. Cells of one kernel that fold alike
    /// share a reference, and one reference is alive at a time.
    fn verify(&mut self, out: &mut Outcome) {
        let key = |c: &Cell| (c.kernel, c.plan.m().max(1));
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        order.sort_by_key(|&i| key(&self.cells[i]));
        let mut reference: Option<((&'static str, usize), JobDomain)> = None;
        for i in order {
            let cell = &mut self.cells[i];
            let grid = Self::grid_of(&self.grids, cell);
            let got = field::run(&cell.plan, grid, cell.steps);
            cell.want = BitHash::of(&got);
            if reference.as_ref().map(|(k, _)| *k) != Some(key(cell)) {
                drop(reference.take()); // free the old one first
                let want = field::scalar_reference(&cell.plan, grid, cell.steps);
                reference = Some((key(cell), want));
            }
            let (_, want) = reference.as_ref().expect("just computed");
            let diff = field::rel_max_diff(&got, want);
            out.op((diff.is_nan() || diff > field::TOLERANCE).then(|| {
                format!(
                    "{}: differs from the scalar reference by {diff:e} ({:?}, {:?})",
                    cell.name,
                    cell.plan.method(),
                    cell.plan.tiling()
                )
            }));
        }
    }

    /// Execute whole rounds — every cell of `group` once per round, in a
    /// seeded order — until `budget_s` has passed and `min_rounds` are
    /// done. Interleaved, so that a noisy stretch of the shared host lands
    /// on one repetition of each cell and not on every repetition of one.
    /// Returns the rounds run.
    fn measure(
        &mut self,
        group: Group,
        budget_s: f64,
        min_rounds: usize,
        rng: &mut SplitMix64,
        tracer: Option<&Tracer>,
        out: &mut Outcome,
    ) -> usize {
        let start = Instant::now();
        let mut order: Vec<usize> = (0..self.cells.len())
            .filter(|&i| self.cells[i].group == group)
            .collect();
        let mut rounds = 0;
        let mut op_id = 0u64;
        while rounds < min_rounds || start.elapsed().as_secs_f64() < budget_s {
            rng.shuffle(&mut order);
            for &i in &order {
                let cell = &mut self.cells[i];
                let grid = Self::grid_of(&self.grids, cell);
                op_id += 1;
                let op = tracer.map(|tr| tr.begin(&cell.name, None, op_id));
                let t0 = Instant::now();
                let got = scoped(tracer, "core.plan.run", op, op_id, || {
                    field::run(&cell.plan, grid, cell.steps)
                });
                let secs = t0.elapsed().as_secs_f64();
                let ok = scoped(tracer, "bench.check", op, op_id, || {
                    BitHash::of(&got) == cell.want
                });
                if let (Some(tr), Some(op)) = (tracer, op) {
                    tr.end(op);
                    tr.fold_obs(&stencil_obs::snapshot(), op);
                    stencil_obs::clear();
                }
                cell.times.push(secs);
                out.op((!ok).then(|| format!("{}: output bits changed between runs", cell.name)));
            }
            rounds += 1;
        }
        rounds
    }

    fn group(&self, group: Group) -> impl Iterator<Item = &Cell> {
        self.cells.iter().filter(move |c| c.group == group)
    }

    /// `Σ updates / Σ fastest cell time` over the cells of `group` that
    /// `keep` selects, in 10^6 updates per second; `None` when there are
    /// none.
    fn rate(&self, group: Group, keep: impl Fn(&Cell) -> bool) -> Option<f64> {
        let cells: Vec<&Cell> = self.group(group).filter(|c| keep(c)).collect();
        if cells.is_empty() {
            return None;
        }
        let updates: f64 = cells.iter().map(|c| c.updates).sum();
        let secs: f64 = cells.iter().map(|c| c.best_s()).sum();
        Some(updates / secs / 1e6)
    }

    /// Sum of the main cells' fastest times: one undisturbed round.
    fn round_s(&self) -> f64 {
        self.group(Group::Main).map(Cell::best_s).sum()
    }

    /// Every execution time of the main cells, in milliseconds.
    fn pooled_ms(&self) -> Vec<f64> {
        self.group(Group::Main)
            .flat_map(|c| c.times.iter().map(|s| s * 1e3))
            .collect()
    }
}

fn set_up_timed(kind: Kind, args: &RunArgs, out: &mut Outcome) -> Resident {
    // a set-up of half a millisecond needs many repetitions for its
    // fastest to be found; one of 8 ms does not
    let count = match kind {
        Kind::Blockfree => 199,
        Kind::Tiled => 9,
    };
    crate::repeat_set_up(out, count, || {
        Resident::set_up(kind, args.scale, args.seed, args.threads)
    })
}

/// Run the workload as the driver asks: untraced for the end-to-end
/// metrics, traced for the per-layer ones.
pub fn run(kind: Kind, args: &RunArgs, tracer: Option<&Tracer>) -> Outcome {
    let mut out = Outcome::default();
    let mut w = set_up_timed(kind, args, &mut out);
    if tracer.is_some() && kind == Kind::Tiled {
        w.add_tiled_variants(args.scale, args.threads);
    }
    let t0 = Instant::now();
    w.verify(&mut out);
    eprintln!("verify_s {:.3}", t0.elapsed().as_secs_f64());
    let mut rng = SplitMix64::new(args.seed, 100);
    let min_rounds = args.scale.min_rounds();
    match tracer {
        None => {
            let rounds = w.measure(
                Group::Main,
                args.seconds,
                min_rounds,
                &mut rng,
                None,
                &mut out,
            );
            for c in w.group(Group::Main) {
                eprintln!(
                    "  {:<18} fastest {:>8.3} ms, median {:>8.3} ms {:>9.1} Mupd/s ({:?}, {:?})",
                    c.name,
                    c.best_s() * 1e3,
                    median(&c.times) * 1e3,
                    c.mupd_s(),
                    c.plan.method(),
                    c.plan.tiling()
                );
            }
            out.samples.insert("rounds".into(), rounds as u64);
            out.set("mupd_s", w.rate(Group::Main, |_| true).expect("cells"));
            out.set(
                "mupd_s_3d",
                w.rate(Group::Main, |c| c.dims == 3).expect("3D cells"),
            );
            out.set("peak_rss_mib", crate::host::peak_rss_mib());
        }
        Some(tr) => traced(kind, args, &mut w, &mut rng, tr, &mut out),
    }
    // leak check: every plan gone, only this handle and the shared
    // registry's clone of the pool remain
    let pool = PoolHandle::shared(args.threads);
    drop(w);
    out.op((pool.strong_count() != 2)
        .then(|| format!("{} pool handles outlive the plans", pool.strong_count())));
    out
}

/// The traced run: the main cells first untraced, then traced (the ratio is
/// the tracing overhead), and the micro-timings and variants behind the
/// layer metrics this workload owns.
fn traced(
    kind: Kind,
    args: &RunArgs,
    w: &mut Resident,
    rng: &mut SplitMix64,
    tr: &Tracer,
    out: &mut Outcome,
) {
    let min_rounds = args.scale.min_rounds();
    let s = args.seconds;
    let (name, share) = match kind {
        Kind::Blockfree => ("blockfree_1t", 0.38),
        Kind::Tiled => ("tiled_mt", 0.17),
    };
    w.measure(Group::Main, s * share, min_rounds, rng, None, out);
    let untraced_round = w.round_s();
    crate::job_latency(&w.pooled_ms(), out);
    for d in [1usize, 2] {
        if let Some(r) = w.rate(Group::Main, |c| c.dims == d) {
            out.set(format!("mupd_s_{d}d"), r);
        }
    }
    let tiled_rate = w.rate(Group::Main, |_| true).expect("cells");
    let main: Vec<(String, &'static str, f64, usize)> = w
        .group(Group::Main)
        .map(|c| (c.name.clone(), c.kernel, c.mupd_s(), c.plan.m().max(1)))
        .collect();
    w.cells.iter_mut().for_each(|c| c.times.clear());
    stencil_obs::set_enabled(true);
    stencil_obs::clear();
    w.measure(Group::Main, s * share, min_rounds, rng, Some(tr), out);
    stencil_obs::set_enabled(false);
    out.set(
        format!("obs.traced_overhead_share.{name}"),
        w.round_s() / untraced_round - 1.0,
    );
    let loop_s = micro::loop_seconds(s);
    match kind {
        Kind::Blockfree => {
            let stream = micro::host_stream_gbs(loop_s, args.scale);
            let fma = micro::host_peak_fma_gflops(loop_s);
            out.set("host.stream_gbs", stream);
            out.set("host.peak_fma_gflops", fma);
            micro::simd(loop_s, out);
            micro::obs_span(loop_s, out);
            for k in crate::metrics::KERNELS {
                let p = kernel_by_name(k).expect("a Table-1 kernel");
                let auto = Solver::new(p.clone()).method(Method::Auto);
                out.set(
                    format!("core.plan.compile_us.{k}"),
                    micro::per_call_s(loop_s, || auto.compile().expect("auto compiles")) * 1e6,
                );
                let m = auto.compile().expect("auto compiles").m().max(1);
                out.set(
                    format!("core.kernel.{k}.flops_per_upd"),
                    (2 * p.points()) as f64,
                );
                out.set(
                    format!("core.kernel.{k}.bytes_per_upd_computed"),
                    16.0 / m as f64,
                );
            }
            for (cell, kernel, mupd, m) in main {
                let flops = (2 * kernel_by_name(kernel).expect("kernel").points()) as f64;
                // computed traffic: one read and one write of 8 B per point
                // per sweep, a sweep advancing m steps; cache misses ignored
                let bytes = 16.0 / m as f64;
                let roof = fma.min(stream * flops / bytes);
                out.set(format!("core.kernel.{cell}.mupd_s"), mupd);
                out.set(
                    format!("core.kernel.{cell}.roofline_frac"),
                    mupd * 1e6 * flops / 1e9 / roof,
                );
            }
        }
        Kind::Tiled => {
            micro::grid(loop_s, args, out);
            micro::pool_dispatch(loop_s, args.threads, out);
            w.measure(Group::Blockfree, s * 0.14, min_rounds, rng, None, out);
            w.measure(Group::Single, s * 0.14, min_rounds, rng, None, out);
            w.measure(Group::Candidate, s * 0.2, min_rounds, rng, None, out);
            let cell = |name: String| w.cells.iter().find(|c| c.name == name);
            let mut agrees = 0;
            for (kernel, _, mupd, _) in &main {
                out.set(format!("core.tiled.{kernel}.mupd_s"), *mupd);
                let blockfree = cell(format!("{kernel}#blockfree")).expect("variant");
                out.set(
                    format!("core.tile.tiled_over_blockfree.{kernel}"),
                    mupd / blockfree.mupd_s(),
                );
                let auto = cell(format!("{kernel}#auto")).expect("variant").best_s();
                let best = (0..CANDIDATES.len())
                    .filter_map(|c| cell(format!("{kernel}#{c}")))
                    .map(Cell::best_s)
                    .fold(f64::INFINITY, f64::min);
                // within 2 %: a tie between methods is not a wrong choice
                agrees += usize::from(auto <= best * 1.02);
            }
            out.set("core.cost.auto_agrees", agrees as f64 / main.len() as f64);
            let single = w.rate(Group::Single, |_| true).expect("cells");
            out.set(
                "runtime.pool.scaling_eff",
                tiled_rate / (args.threads as f64 * single),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dry(kind: Kind, trace: bool) -> Outcome {
        let _one_at_a_time = crate::dry_run_lock();
        let args = RunArgs::dry_run();
        let tracer = Tracer::new();
        let out = run(kind, &args, trace.then_some(&tracer));
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert_eq!(trace, !tracer.is_empty());
        out
    }

    #[test]
    fn blockfree_dry_run_reports_its_metrics() {
        let out = dry(Kind::Blockfree, false);
        // 12 verified cells, 12 per round, the leak check
        assert!(out.attempted > 12 + 12);
        for (name, _) in crate::metrics::END_TO_END {
            assert!(out.values[name] > 0.0, "{name}");
        }
        let out = dry(Kind::Blockfree, true);
        for name in [
            "mupd_s_1d",
            "mupd_s_2d",
            "job_p50_ms",
            "job_p95_ms",
            "host.stream_gbs",
            "host.peak_fma_gflops",
            "simd.transpose4_ns",
            "core.plan.compile_us.gb",
            "core.kernel.heat3d.fold2.mupd_s",
            "core.kernel.d1p5.xlayout.roofline_frac",
            "core.kernel.box3d27p.flops_per_upd",
            "obs.span_ns",
        ] {
            assert!(out.values[name] > 0.0, "{name}");
        }
        assert!(out
            .values
            .contains_key("obs.traced_overhead_share.blockfree_1t"));
        // the control: no pool, serve, net or ooc metric on this workload
        assert!(!out.values.keys().any(|k| {
            ["runtime.", "serve.", "net.", "ooc."]
                .iter()
                .any(|p| k.starts_with(p))
        }));
    }

    #[test]
    fn tiled_dry_run_reports_its_metrics() {
        let out = dry(Kind::Tiled, false);
        assert!(out.attempted > 7 + 7);
        assert!(out.values["mupd_s"] > 0.0 && out.values["mupd_s_3d"] > 0.0);
        let out = dry(Kind::Tiled, true);
        for name in [
            "grid.first_touch_gbs",
            "grid.to_dense_gbs",
            "core.tiled.gb.mupd_s",
            "core.tile.tiled_over_blockfree.heat1d",
            "runtime.pool.dispatch_us",
            "runtime.pool.scaling_eff",
        ] {
            assert!(out.values[name] > 0.0, "{name}");
        }
        assert!((0.0..=1.0).contains(&out.values["core.cost.auto_agrees"]));
    }
}
