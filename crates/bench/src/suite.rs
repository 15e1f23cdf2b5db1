//! The shared benchmark suite behind `fig9`, `fig10` and `table3`:
//! the nine Table-1 benchmarks x the five methods of Fig. 9/10.
//!
//! The harness follows the library's compile-once/run-many discipline:
//! each (benchmark, method) cell compiles a [`Plan`] once and reuses it
//! across `sizes.reps` repetitions (reporting the best time), and every
//! cell of a sweep shares one [`PoolHandle`] so worker threads are
//! spawned once per thread-count, not once per cell.

use crate::measure;
use crate::workload;
use std::time::Duration;
use stencil_core::exec::{apop, dlt, life, reorg};
use stencil_core::tile::{split, tessellate, tile_width};
use stencil_core::{kernels, Domain, Method, Pattern, Plan, Solver, Tiling, Tuning, Width};
use stencil_grid::{Grid1D, Grid2D, PingPong};
use stencil_runtime::PoolHandle;
use stencil_simd::{NativeF64x4, NativeF64x8, SimdF64, WithSimd};

/// The nine benchmarks of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchId {
    /// 1D 3-point heat.
    Heat1D,
    /// 1D 5-point.
    D1P5,
    /// American put option pricing (1D3P, two arrays, max).
    Apop,
    /// 2D 5-point heat.
    Heat2D,
    /// 2D 9-point box.
    Box2D9P,
    /// Game of Life.
    Life,
    /// General (asymmetric) 2D box.
    Gb,
    /// 3D 7-point heat.
    Heat3D,
    /// 3D 27-point box.
    Box3D27P,
}

impl BenchId {
    /// All nine, in Table-1 order.
    pub const ALL: [BenchId; 9] = [
        BenchId::Heat1D,
        BenchId::D1P5,
        BenchId::Apop,
        BenchId::Heat2D,
        BenchId::Box2D9P,
        BenchId::Life,
        BenchId::Gb,
        BenchId::Heat3D,
        BenchId::Box3D27P,
    ];

    /// Paper name.
    pub fn name(self) -> &'static str {
        match self {
            BenchId::Heat1D => "1D-Heat",
            BenchId::D1P5 => "1D5P",
            BenchId::Apop => "APOP",
            BenchId::Heat2D => "2D-Heat",
            BenchId::Box2D9P => "2D9P",
            BenchId::Life => "Game of Life",
            BenchId::Gb => "GB",
            BenchId::Heat3D => "3D-Heat",
            BenchId::Box3D27P => "3D27P",
        }
    }

    /// Spatial dimensionality.
    pub fn dims(self) -> usize {
        match self {
            BenchId::Heat1D | BenchId::D1P5 | BenchId::Apop => 1,
            BenchId::Heat3D | BenchId::Box3D27P => 3,
            _ => 2,
        }
    }

    /// Linear pattern, when the kernel is linear.
    pub fn pattern(self) -> Option<Pattern> {
        match self {
            BenchId::Heat1D => Some(kernels::heat1d()),
            BenchId::D1P5 => Some(kernels::d1p5()),
            BenchId::Heat2D => Some(kernels::heat2d()),
            BenchId::Box2D9P => Some(kernels::box2d9p()),
            BenchId::Gb => Some(kernels::gb()),
            BenchId::Heat3D => Some(kernels::heat3d()),
            BenchId::Box3D27P => Some(kernels::box3d27p()),
            BenchId::Apop | BenchId::Life => None,
        }
    }

    /// Flops per point per time step (multiply-accumulate counting).
    pub fn flops_per_point(self) -> usize {
        match self {
            BenchId::Apop => 7,  // 3 madds + max
            BenchId::Life => 16, // 8 neighbour adds + rule
            other => 2 * other.pattern().unwrap().points(),
        }
    }
}

/// The methods compared in Fig. 9/10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodId {
    /// Split tiling over DLT layout (SDSL).
    Sdsl,
    /// Tessellate tiling + straightforward vectorization (Yuan).
    Tess,
    /// Ours: register transpose pipeline, single step.
    Our,
    /// Ours with temporal folding m = 2.
    Our2,
    /// Ours m = 2 on 8-lane vectors (AVX-512).
    Our2W8,
}

impl MethodId {
    /// All five, in figure order.
    pub const ALL: [MethodId; 5] = [
        MethodId::Sdsl,
        MethodId::Tess,
        MethodId::Our,
        MethodId::Our2,
        MethodId::Our2W8,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MethodId::Sdsl => "SDSL",
            MethodId::Tess => "Tessellation",
            MethodId::Our => "Our",
            MethodId::Our2 => "Our (2 steps)",
            MethodId::Our2W8 => "Our (2, AVX-512)",
        }
    }
}

/// Problem sizes for one suite run.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// 1D grid points.
    pub n1: usize,
    /// 2D grid (ny, nx).
    pub n2: (usize, usize),
    /// 3D grid (nz, ny, nx).
    pub n3: (usize, usize, usize),
    /// Time steps per dimensionality.
    pub t1: usize,
    /// 2D time steps.
    pub t2: usize,
    /// 3D time steps.
    pub t3: usize,
    /// Tessellation/split time blocks per dimensionality.
    pub tb1: usize,
    /// 2D time block.
    pub tb2: usize,
    /// 3D time block.
    pub tb3: usize,
    /// Timed repetitions per cell, sharing one compiled plan; the best
    /// time is reported.
    pub reps: usize,
    /// Resolve the tiling of linear cells through the measured tuner
    /// (`Tiling::Auto` + [`Tuning::Measured`], method and width still
    /// pinned per cell) instead of the hand-set `tb*` fields; SDSL cells,
    /// which no plan runs, keep the hand-set time block. Requires
    /// an installed tuner (`stencil_tune::install()`); the `--tuned`
    /// flag on `fig9`/`table3` sets both up.
    pub tuned: bool,
}

impl Sizes {
    /// Laptop-scale defaults (minutes for the whole suite).
    pub fn default_scaled() -> Self {
        Self {
            n1: 2_097_152,
            n2: (1024, 1024),
            n3: (96, 96, 96),
            t1: 200,
            t2: 100,
            t3: 50,
            tb1: 50,
            tb2: 12,
            tb3: 6,
            reps: 2,
            tuned: false,
        }
    }

    /// CI smoke sizes (seconds). Two repetitions so plan reuse stays
    /// exercised even in smoke runs.
    pub fn quick() -> Self {
        Self {
            n1: 131_072,
            n2: (128, 128),
            n3: (32, 32, 32),
            t1: 24,
            t2: 12,
            t3: 8,
            tb1: 8,
            tb2: 4,
            tb3: 3,
            reps: 2,
            tuned: false,
        }
    }

    /// The paper's Table-1 sizes (hours on a laptop).
    pub fn paper() -> Self {
        Self {
            n1: 10_240_000,
            n2: (5000, 5000),
            n3: (400, 400, 400),
            t1: 1000,
            t2: 1000,
            t3: 1000,
            tb1: 500,
            tb2: 50,
            tb3: 10,
            reps: 1,
            tuned: false,
        }
    }

    /// Pick by flags.
    pub fn from_flags(paper: bool, quick: bool) -> Self {
        if paper {
            Self::paper()
        } else if quick {
            Self::quick()
        } else {
            Self::default_scaled()
        }
    }
}

/// Run one (benchmark, method) cell on the shared `pool`; `None` when
/// the method does not support the benchmark (mirroring the paper's
/// "-"). The cell's configuration is compiled once and run
/// `sizes.reps` times; the best time is reported.
pub fn run_one(
    bench: BenchId,
    method: MethodId,
    pool: &PoolHandle,
    sizes: &Sizes,
) -> Option<(f64, Duration)> {
    if method == MethodId::Our2W8 && !stencil_simd::HAS_AVX512 {
        return None;
    }
    let flops = bench.flops_per_point();
    match bench {
        BenchId::Apop => run_apop(method, pool, sizes)
            .map(|d| (measure::gflops(sizes.n1, sizes.t1, flops, d), d)),
        BenchId::Life => run_life(method, pool, sizes).map(|d| {
            let (ny, nx) = sizes.n2;
            (measure::gflops(ny * nx, sizes.t2, flops, d), d)
        }),
        linear => {
            let p = linear.pattern().unwrap();
            let (n3z, n3y, n3x) = sizes.n3;
            // (extents, steps, time block) of this cell's dimensionality
            let (hint, t, tb) = match linear.dims() {
                1 => (vec![sizes.n1], sizes.t1, sizes.tb1),
                2 => (vec![sizes.n2.0, sizes.n2.1], sizes.t2, sizes.tb2),
                _ => (vec![n3z, n3y, n3x], sizes.t3, sizes.tb3),
            };
            // under --tuned, the hand-set time block gives way to the
            // measured tuner (method and width stay pinned — the figure
            // compares methods, the tuner only picks their tiling); the
            // domain hint keys the cache by this run's shape class
            let (tiling, tuning) = if sizes.tuned {
                (Tiling::Auto, Tuning::Measured)
            } else {
                (Tiling::Tessellate { time_block: tb }, Tuning::Static)
            };
            // compile once; every repetition reuses the folded kernel
            // and the shared pool. SDSL is the paper's baseline, not a
            // plan method: its cells call split tiling directly.
            let plan = plan_method(method).map(|m| {
                Solver::new(p.clone())
                    .method(m)
                    .tiling(tiling)
                    .tuning(tuning)
                    .domain_hint(&hint)
                    .width(if method == MethodId::Our2W8 {
                        Width::W8
                    } else {
                        Width::W4
                    })
                    .pool(pool.clone())
                    .compile()
                    .expect("suite configurations are valid")
            });
            let (plan, reps) = (plan.as_ref(), sizes.reps);
            let d = match linear.dims() {
                1 => time_cell(plan, &workload::random_1d(sizes.n1, 42), t, reps, |pp| {
                    split::sweep_1d::<NativeF64x4>(pool, pp, &p, tb, t)
                }),
                2 => {
                    let g = workload::random_2d(sizes.n2.0, sizes.n2.1, 42);
                    time_cell(plan, &g, t, reps, |pp| {
                        split::sweep_2d::<NativeF64x4>(pool, pp, &p, tb, t)
                    })
                }
                _ => {
                    let g = workload::random_3d(n3z, n3y, n3x, 42);
                    time_cell(plan, &g, t, reps, |pp| {
                        split::sweep_3d::<NativeF64x4>(pool, pp, &p, tb, t)
                    })
                }
            };
            Some((measure::gflops(hint.iter().product(), t, flops, d), d))
        }
    }
}

/// The best of `reps` timed runs of `t` steps from `g`: on the cell's
/// plan, or, for SDSL, which no plan runs, through `sdsl` — its direct
/// entry — on a pair cloned from `g`.
fn time_cell<D: Domain>(
    plan: Option<&Plan>,
    g: &D,
    t: usize,
    reps: usize,
    sdsl: impl Fn(&mut PingPong<D>),
) -> Duration {
    measure::best_of(reps, || match plan {
        Some(plan) => plan.run(g, t).unwrap(),
        None => {
            let mut pp = PingPong::new(g.clone());
            sdsl(&mut pp);
            pp.into_current()
        }
    })
    .1
}

/// The plan method of a Fig.-9 column under tessellate tiling; `None`
/// for SDSL, the baseline no plan runs.
fn plan_method(method: MethodId) -> Option<Method> {
    match method {
        MethodId::Sdsl => None,
        MethodId::Tess => Some(Method::MultipleLoads),
        MethodId::Our => Some(Method::TransposeLayout),
        MethodId::Our2 | MethodId::Our2W8 => Some(Method::Folded { m: 2 }),
    }
}

fn run_apop(method: MethodId, pool: &PoolHandle, sizes: &Sizes) -> Option<Duration> {
    let ap = apop::Apop::new(sizes.n1, 50.0, 100.0 / sizes.n1 as f64);
    let pay = ap.payoff.as_slice().to_vec();
    let taps = ap.taps.to_vec();
    let t = sizes.t1;
    let tb = sizes.tb1;
    match method {
        MethodId::Sdsl => None, // not expressible in SDSL (paper: "-")
        MethodId::Tess => Some(
            measure::best_of(sizes.reps, || {
                let mut pp = PingPong::new(ap.initial_values());
                tessellate::run_1d(
                    pool,
                    &mut pp,
                    1,
                    1,
                    tile_width(&[], 1, tb),
                    tb,
                    t,
                    &|s: &[f64], d: &mut [f64], lo, hi| {
                        apop::step_range_scalar(s, d, &taps, &pay, lo, hi)
                    },
                );
                pp.into_current()
            })
            .1,
        ),
        MethodId::Our => Some(apop_tess::<NativeF64x4>(pool, &ap, tb, t, sizes.reps)),
        MethodId::Our2 => Some(apop_tess_folded::<NativeF64x4>(
            pool, &ap, 2, tb, t, sizes.reps,
        )),
        MethodId::Our2W8 => Some(apop_tess_folded::<NativeF64x8>(
            pool, &ap, 2, tb, t, sizes.reps,
        )),
    }
}

fn apop_tess<V: SimdF64>(
    pool: &PoolHandle,
    ap: &apop::Apop,
    tb: usize,
    t: usize,
    reps: usize,
) -> Duration {
    let pay = ap.payoff.as_slice().to_vec();
    let taps = ap.taps.to_vec();
    measure::best_of(reps, || {
        let mut pp = PingPong::new(ap.initial_values());
        tessellate::run_1d(
            pool,
            &mut pp,
            1,
            1,
            tile_width(&[], 1, tb),
            tb,
            t,
            &|s: &[f64], d: &mut [f64], lo, hi| apop::step_range::<V>(s, d, &taps, &pay, lo, hi),
        );
        pp.into_current()
    })
    .1
}

fn apop_tess_folded<V: SimdF64>(
    pool: &PoolHandle,
    ap: &apop::Apop,
    m: usize,
    tb: usize,
    t: usize,
    reps: usize,
) -> Duration {
    // the folded taps are planned once, outside the timed repetitions
    let pay = ap.payoff.as_slice().to_vec();
    let folded = stencil_core::folding::fold(&ap.linear_pattern(), m);
    let taps = folded.weights().to_vec();
    let rr = folded.radius();
    measure::best_of(reps, || {
        let mut pp = PingPong::new(ap.initial_values());
        tessellate::run_1d(
            pool,
            &mut pp,
            rr,
            rr,
            tile_width(&[], rr, tb),
            tb,
            t / m,
            &|s: &[f64], d: &mut [f64], lo, hi| {
                apop::step_folded_range::<V>(s, d, &taps, &pay, lo, hi)
            },
        );
        pp.into_current()
    })
    .1
}

fn run_life(method: MethodId, pool: &PoolHandle, sizes: &Sizes) -> Option<Duration> {
    let (ny, nx) = sizes.n2;
    let g = life::random_soup(ny, nx, 42);
    let t = sizes.t2;
    let tb = sizes.tb2;
    match method {
        MethodId::Sdsl => None, // nonlinear rule not expressible in SDSL
        MethodId::Tess => Some(
            measure::best_of(sizes.reps, || {
                let mut pp = PingPong::new(g.clone());
                tessellate::run_2d_at(
                    pool,
                    &mut pp,
                    1,
                    1,
                    tile_width(&[g.nx()], 1, tb),
                    tb,
                    t,
                    0,
                    &|s: &Grid2D, d: &mut Grid2D, ys, xs| life::step_range_scalar(s, d, ys, xs),
                );
                pp.into_current()
            })
            .1,
        ),
        MethodId::Our => Some(life_tess::<NativeF64x4>(pool, &g, tb, t, sizes.reps)),
        MethodId::Our2 => Some(life_tess2::<NativeF64x4>(pool, &g, tb, t, sizes.reps)),
        MethodId::Our2W8 => Some(life_tess2::<NativeF64x8>(pool, &g, tb, t, sizes.reps)),
    }
}

fn life_tess<V: SimdF64>(
    pool: &PoolHandle,
    g: &Grid2D,
    tb: usize,
    t: usize,
    reps: usize,
) -> Duration {
    measure::best_of(reps, || {
        let mut pp = PingPong::new(g.clone());
        tessellate::run_2d_at(
            pool,
            &mut pp,
            1,
            1,
            tile_width(&[g.nx()], 1, tb),
            tb,
            t,
            0,
            &|s: &Grid2D, d: &mut Grid2D, ys, xs| life::step_range::<V>(s, d, ys, xs),
        );
        pp.into_current()
    })
    .1
}

fn life_tess2<V: SimdF64>(
    pool: &PoolHandle,
    g: &Grid2D,
    tb: usize,
    t: usize,
    reps: usize,
) -> Duration {
    measure::best_of(reps, || {
        let mut pp = PingPong::new(g.clone());
        // fused double generation: reff = 2 per inner step
        tessellate::run_2d_at(
            pool,
            &mut pp,
            2,
            2,
            tile_width(&[g.nx()], 2, tb),
            tb,
            t / 2,
            0,
            &|s: &Grid2D, d: &mut Grid2D, ys, xs| life::step2_range::<V>(s, d, ys, xs),
        );
        pp.into_current()
    })
    .1
}

/// Block-free single-thread methods of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockFreeMethod {
    /// One unaligned load per tap.
    MultipleLoads,
    /// Aligned loads + shuffles.
    DataReorg,
    /// Global dimension-lifted transpose.
    Dlt,
    /// Local transpose layout (ours).
    Our,
    /// Ours + temporal folding m = 2.
    Our2,
}

impl BlockFreeMethod {
    /// All five, in figure order.
    pub const ALL: [BlockFreeMethod; 5] = [
        BlockFreeMethod::MultipleLoads,
        BlockFreeMethod::DataReorg,
        BlockFreeMethod::Dlt,
        BlockFreeMethod::Our,
        BlockFreeMethod::Our2,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BlockFreeMethod::MultipleLoads => "Multiple Loads",
            BlockFreeMethod::DataReorg => "Data Reorganization",
            BlockFreeMethod::Dlt => "DLT",
            BlockFreeMethod::Our => "Our",
            BlockFreeMethod::Our2 => "Our (2 steps)",
        }
    }

    /// The single-thread block-free 1D-Heat sweep of this method at 4
    /// lanes, built once: `fig8`/`table2` reuse it across every problem
    /// size and step count. The `Solver` methods run a compiled plan;
    /// Data Reorganization and DLT, the baselines no plan runs, call
    /// their executors' entries directly, on the backend a plan's
    /// kernels run on.
    pub fn sweep_1d_heat(self) -> Sweep1d {
        let p = kernels::heat1d();
        let method = match self {
            BlockFreeMethod::DataReorg => return direct_1d(p, Baseline::DataReorg),
            BlockFreeMethod::Dlt => return direct_1d(p, Baseline::Dlt),
            BlockFreeMethod::MultipleLoads => Method::MultipleLoads,
            BlockFreeMethod::Our => Method::TransposeLayout,
            BlockFreeMethod::Our2 => Method::Folded { m: 2 },
        };
        let plan = Solver::new(p)
            .method(method)
            .width(Width::W4)
            .threads(1)
            .compile()
            .expect("block-free 1D-Heat configurations are valid");
        Box::new(move |g, t| plan.run_1d(g, t).unwrap())
    }
}

/// One Fig.-8 method: `t` steps of 1D-Heat from a grid, into a new one.
pub type Sweep1d = Box<dyn Fn(&Grid1D, usize) -> Grid1D>;

/// The block-free baselines no plan runs.
#[derive(Clone, Copy)]
enum Baseline {
    DataReorg,
    Dlt,
}

/// A baseline's pair entry, run by [`stencil_simd::dispatch`] at 4 lanes
/// on the backend the plans of its figure run on.
struct BaselineSweep<'a> {
    baseline: Baseline,
    pp: &'a mut PingPong<Grid1D>,
    p: &'a Pattern,
    t: usize,
}

impl WithSimd for BaselineSweep<'_> {
    type Output = ();

    #[inline(always)]
    fn run<V: SimdF64>(self) {
        let Self { baseline, pp, p, t } = self;
        match baseline {
            Baseline::DataReorg => reorg::sweep_1d::<V>(pp, p, t),
            Baseline::Dlt => dlt::sweep_1d::<V>(pp, p, t),
        }
    }
}

/// A baseline's [`Sweep1d`]: its pair entry on a pair cloned from the
/// grid.
fn direct_1d(p: Pattern, baseline: Baseline) -> Sweep1d {
    Box::new(move |g, t| {
        let mut pp = PingPong::new(g.clone());
        let sweep = BaselineSweep {
            baseline,
            pp: &mut pp,
            p: &p,
            t,
        };
        stencil_simd::dispatch(4, sweep);
        pp.into_current()
    })
}

/// One Fig.-8 cell on a pre-built sweep (see
/// [`BlockFreeMethod::sweep_1d_heat`]): block-free single-thread
/// 1D-Heat at size `n` for `t` steps; returns GFLOP/s.
pub fn run_blockfree_1d_with(sweep: &Sweep1d, n: usize, t: usize) -> f64 {
    let flops = 2 * kernels::heat1d().points();
    let g = workload::random_1d(n, 7);
    let (_, d) = measure::time_once(|| sweep(&g, t));
    measure::gflops(n, t, flops, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_flops() {
        for b in BenchId::ALL {
            assert!(b.flops_per_point() >= 6, "{}", b.name());
        }
    }

    #[test]
    fn quick_suite_smoke() {
        // every supported (bench, method) cell runs and yields a finite
        // positive throughput at quick sizes, all cells sharing one pool
        let sizes = Sizes::quick();
        let pool = PoolHandle::new(2);
        for b in BenchId::ALL {
            for m in [MethodId::Tess, MethodId::Our, MethodId::Our2] {
                let out = run_one(b, m, &pool, &sizes);
                let (gf, _) = out.expect("supported combo");
                assert!(gf > 0.0 && gf.is_finite(), "{} {}", b.name(), m.name());
            }
        }
    }

    #[test]
    fn sdsl_support_matrix_matches_paper() {
        let sizes = Sizes::quick();
        let pool = PoolHandle::new(1);
        // SDSL: linear kernels only
        assert!(run_one(BenchId::Apop, MethodId::Sdsl, &pool, &sizes).is_none());
        assert!(run_one(BenchId::Life, MethodId::Sdsl, &pool, &sizes).is_none());
        assert!(run_one(BenchId::Heat1D, MethodId::Sdsl, &pool, &sizes).is_some());
        assert!(run_one(BenchId::Heat3D, MethodId::Sdsl, &pool, &sizes).is_some());
    }

    #[test]
    fn blockfree_methods_run() {
        for m in BlockFreeMethod::ALL {
            let sweep = m.sweep_1d_heat();
            // same sweep, two sizes — no recompilation between cells
            for n in [2048usize, 4096] {
                let gf = run_blockfree_1d_with(&sweep, n, 10);
                assert!(gf > 0.0, "{} n={n}", m.name());
            }
        }
    }
}
