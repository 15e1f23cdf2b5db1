//! The conformance harness: one seeded generator over the plan
//! configuration product, and one oracle for every route a plan runs.
//!
//! A *cell* is a kernel and a [`PlanConfig`] `{ method, tiling, width,
//! ring3 }` compiled at a thread count; a *case* is a cell on one grid (an
//! extent class) for one step count. The oracle has three checks:
//!
//! 0. `PlanConfig::validate` accepts exactly the cells that compile, with
//!    the same error;
//! 1. tolerance against `exec/scalar.rs`, within `1e-11 × max(1,
//!    |reference|)`: the whole grid against the scalar sweeps of the
//!    plan's own legs — `t / m` of the folded pattern, then `t % m` plain
//!    ones — (bit for bit for a scalar-lane 3D register plan, which runs
//!    through them; 2D one-step vector methods also under
//!    `1e-13` relative L2), and with a tail the interior `t * r` inside
//!    every face against `t` plain steps; a grid without an interior comes
//!    back unchanged;
//! 2. bit-identity with `plan.run` on every route of that one plan.
//!
//! The [`CHEAP`] routes run on every case. The [`SAMPLED`] ones (and
//! [`Route::Fault`], from `chaos.rs` under its lock) run on every case of
//! a slice that names them, and otherwise on a seeded sample covering every
//! (dims × method × tiling), every (dims × extent) and every axis value.
//! [`Report::uncovered`] lists each (axis value × route) a route could
//! have taken and did not.
//!
//! A [`Slice`] narrows the product: a filter axis (dims, kernels, methods,
//! tilings, widths, rings) keeps the listed values, a drawn axis (threads,
//! extents, steps) runs every listed value, and an empty axis is the whole
//! axis — drawn per cell by the generator for the drawn ones. A new axis
//! value is one line in its list below.

#![allow(dead_code, unused_macros)] // every suite uses the part its slices name

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use stencil_lab::core::exec::{dlt, reorg, scalar};
use stencil_lab::core::slab::{pass_quantum, shard_geometry, SLAB_ALIGN};
use stencil_lab::core::tile::split;
use stencil_lab::core::{folding, kernels};
pub use stencil_lab::faults::SplitMix64;
use stencil_lab::faults::{self, Failpoint};
use stencil_lab::grid::rel_l2_error;
use stencil_lab::ooc::{self, OocConfig, SlabStore};
use stencil_lab::serve::net::{
    round_steps, JobEvent, NetClient, NetConfig, NetServer, SubmitHeader,
};
use stencil_lab::serve::registry::PlanShape;
use stencil_lab::serve::{shard, ShardPolicy};
use stencil_lab::simd::{NativeF64x4, NativeF64x8, SimdF64};
use stencil_lab::tune::probe::Budget;
use stencil_lab::{
    AutoTuner, Domain, Grid1D, Grid2D, Grid3D, JobDomain, JobSpec, Method, Pattern, PingPong, Plan,
    PlanConfig, PlanRegistry, PoolHandle, Ring3, ServeConfig, Solver, StencilService, ThreadPool,
    Tiling, Tuning, Width,
};

/// The product's seed: one number replays every draw.
pub const SEED: u64 = 0x5EED_C0DE;

pub const METHODS: &[Method] = &[
    Method::Scalar,
    Method::MultipleLoads,
    Method::TransposeLayout,
    Method::Folded { m: 0 },
    Method::Folded { m: 1 },
    Method::Folded { m: 2 },
    Method::Folded { m: 3 },
    Method::Folded { m: 9 },
    Method::Auto,
];
pub const TILINGS: &[Tiling] = &[
    Tiling::None,
    Tiling::Tessellate { time_block: 0 },
    Tiling::Tessellate { time_block: 2 },
    Tiling::Tessellate { time_block: 3 },
];
pub const WIDTHS: &[Width] = &[Width::W1, Width::W4, Width::W8];
/// 3D ring moves: the static default, the smallest, a deep one, one out
/// of bounds.
pub const RINGS: &[Option<Ring3>] = &[
    None,
    Some(Ring3 { depth: 1, slab: 1 }),
    Some(Ring3 { depth: 6, slab: 3 }),
    Some(Ring3 { depth: 0, slab: 4 }),
];
pub const THREADS: &[usize] = &[1, 2, 4];
/// The classes drawn per cell; [`Extent::Tiles3`] goes to one drawn cell
/// per (dims × tessellate tiling).
pub const EXTENTS: &[Extent] = &[
    Extent::Aligned,
    Extent::Ragged,
    Extent::NoInterior,
    Extent::OneTile,
];
pub const STEPS: &[Steps] = &[Steps::Folds(2, 0), Steps::Folds(2, 1)];

/// Table 1's kernels, the radius-2 3D ones, and a seeded asymmetric
/// pattern per dimensionality.
pub fn kernels() -> Vec<(&'static str, Pattern)> {
    let mut rng = SplitMix64::new(SEED);
    let mut taps = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.next_f64() / n as f64).collect() };
    vec![
        ("heat1d", kernels::heat1d()),
        ("d1p5", kernels::d1p5()),
        ("apop_linear", kernels::apop_linear()),
        ("asym1d", Pattern::new_1d(&taps(5))),
        ("heat2d", kernels::heat2d()),
        ("box2d9p", kernels::box2d9p()),
        ("life_count", kernels::life_count()),
        ("gb", kernels::gb()),
        ("asym2d", Pattern::new_2d(1, &taps(9))),
        ("heat3d", kernels::heat3d()),
        ("box3d27p", kernels::box3d27p()),
        ("box3d125p", kernels::box3d125p()),
        ("star3d_r2", kernels::star3d_r2()),
        ("asym3d", Pattern::new_3d(1, &taps(27))),
    ]
}

/// Grid shape classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// Innermost extent a multiple of every lane count.
    Aligned,
    /// Innermost extent a multiple of no lane count.
    Ragged,
    /// One drawn axis of `1`, `2r` or `2R` cells: no interior.
    NoInterior,
    /// `2R + 1` per axis: one interior cell, one tile, under a vector.
    OneTile,
    /// At least three tiles under the production width rule (2D: four,
    /// so two- and three-slab seams fall mid-tile).
    Tiles3,
    /// An outer axis off the slab alignment that two and three shards
    /// cut into slabs (101 rows, 29 planes). Only where a slice pins it.
    Deep,
}

/// Step counts; the product draws `2m` (folded steps only) and `2m + 1`
/// (a `t % m` tail too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steps {
    /// `t = k m + tail`.
    Folds(usize, usize),
    /// `t = m (2 tb + 1) + 1`, `tb` 2 when block-free: several time
    /// blocks and a tail.
    Rounds,
    /// `t` itself, whatever `m`.
    Exact(usize),
}

/// What a check compares a plan's run with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// Check 1: `exec/scalar.rs`.
    Scalar,
    /// The pair entry at origin 0 on a NaN-poisoned scratch surface.
    Pair,
    /// The pair entry at origins 0 and 7, twice on one pair: the second
    /// run's scratch surface holds what the first left there.
    Reuse,
    /// The resolved config on another thread count.
    Threads,
    /// A recompile from `plan.config()`.
    Recompile,
    /// A tessellated cell's block-free twin.
    Twin,
    /// The baselines no plan runs (data reorganization, DLT, SDSL split
    /// tiling), on the grids of a `Scalar` cell, to tolerance.
    Baselines,
    /// An open method or tiling under every tuning mode; `CacheOnly`
    /// replays `Measured` bit for bit.
    Tuned,
    /// `shard::lane_plans` + `run_sharded_*`, owned and borrowed.
    Shard,
    /// Streamed through a named and an unnamed slab store.
    Stream,
    /// The in-process `StencilService`, resident and sharding.
    Service,
    /// `NetServer` + `NetClient`, in one round and in several.
    Wire,
    /// Streamed, killed by a hard store fault, resumed.
    Fault,
}

pub const CHEAP: &[Route] = &[
    Route::Scalar,
    Route::Pair,
    Route::Threads,
    Route::Recompile,
    Route::Twin,
    Route::Baselines,
];
/// The routes that share process state — the servers, the installed
/// tuner, the failpoints, the multi-window flag — and run on the slice's
/// own thread.
const SERIAL: &[Route] = &[
    Route::Tuned,
    Route::Stream,
    Route::Service,
    Route::Wire,
    Route::Fault,
];
pub const SAMPLED: &[Route] = &[
    Route::Reuse,
    Route::Tuned,
    Route::Shard,
    Route::Stream,
    Route::Service,
    Route::Wire,
];

/// A part of the product; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub dims: &'static [usize],
    pub kernels: &'static [&'static str],
    pub methods: &'static [Method],
    pub tilings: &'static [Tiling],
    pub widths: &'static [Width],
    pub rings: &'static [Option<Ring3>],
    pub threads: &'static [usize],
    pub extents: &'static [Extent],
    pub steps: &'static [Steps],
    /// Empty: [`CHEAP`] and [`SAMPLED`].
    pub routes: &'static [Route],
}

impl Slice {
    pub const ALL: Slice = Slice {
        dims: &[],
        kernels: &[],
        methods: &[],
        tilings: &[],
        widths: &[],
        rings: &[],
        threads: &[],
        extents: &[],
        steps: &[],
        routes: &[],
    };

    /// Run the slice; panics on the first check that fails, naming the
    /// case.
    pub fn check(&self) -> Report {
        Run::new(*self).go()
    }
}

/// `check!(axis: [values], ..)`: the slice with those axes pinned, checked.
macro_rules! check {
    ($($axis:ident: [$($v:expr),* $(,)?]),* $(,)?) => {
        $crate::conformance::Slice {
            $($axis: &[$($v),*],)*
            ..$crate::conformance::Slice::ALL
        }
        .check()
    };
}

/// What a slice ran.
#[derive(Debug, Default)]
pub struct Report {
    pub accepted: usize,
    pub rejected: usize,
    pub cases: usize,
    pub sampled: usize,
    /// Cases the sharding service ran in more than one slab.
    pub sharded: usize,
    /// `"{axis value} × {route}"` a route could have taken and did not.
    pub uncovered: Vec<String>,
}

fn or_all<T>(axis: &'static [T], full: &'static [T]) -> &'static [T] {
    if axis.is_empty() {
        full
    } else {
        axis
    }
}

pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The largest `|want - got|` over cells at least `band` inside every face
/// (`extents` outermost first): folding widens the Dirichlet band from `r`
/// to `m r` and the discrepancy grows by `r` a step, so only those cells
/// compare with `t` plain steps at `band = t r`.
fn interior_diff(want: &[f64], got: &[f64], extents: &[usize], band: usize) -> f64 {
    let inside = |mut i: usize| {
        extents.iter().rev().all(|&n| {
            let c = i % n;
            i /= n;
            c >= band && c + band < n
        })
    };
    let pairs = want.iter().zip(got).enumerate().filter(|(i, _)| inside(*i));
    pairs.fold(0.0, |a, (_, (w, g))| a.max((w - g).abs()))
}

/// The agreement bound, relative to the reference's largest value
/// (`life_count` grows as `8^t`).
fn tolerance(want: &[f64]) -> f64 {
    1e-11 * want.iter().fold(1.0f64, |a, v| a.max(v.abs()))
}

fn assert_close(want: &[f64], got: &[f64], ctx: &str) {
    let worst = interior_diff(want, got, &[want.len()], 0);
    assert!(worst <= tolerance(want), "{ctx}: diff {worst:e}");
}

/// Budget capping streamed windows at about `planes` resident planes.
pub fn budget_for(ny: usize, nx: usize, planes: usize, prefetch: bool) -> usize {
    let residency = match prefetch {
        true => ooc::RESIDENT_WINDOWS_PREFETCH,
        false => ooc::RESIDENT_WINDOWS_SYNC,
    };
    planes * Grid3D::zeros(1, ny, nx).stride_z() * 8 * residency
}

/// The 3D field of the streamed and chaos checks.
pub fn workload(nz: usize, ny: usize, nx: usize) -> Grid3D {
    Grid3D::from_fn(nz, ny, nx, |z, y, x| {
        ((z * 37 + y * 11 + x * 5) % 23) as f64 * 0.25 - 2.0
    })
}

/// A slab-store path no other check uses.
fn store_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("stencil-conf-{}-{n}.slab", std::process::id()))
}

/// A budget that streams `g` in two windows a pass — one where the halos
/// leave no room for two — a pass per plan quantum.
fn two_windows(plan: &Plan, g: &Grid3D, prefetch: bool) -> OocConfig {
    let (nz, ny, nx) = (g.nz(), g.ny(), g.nx());
    let s = pass_quantum(plan, &[nz, ny, nx]);
    let (halo, _) = shard_geometry(plan, s, nz, &[ny, nx]);
    let planes = nz.div_ceil(2) + 2 * halo + 2 * SLAB_ALIGN + 1;
    OocConfig {
        budget_bytes: budget_for(ny, nx, planes, prefetch),
        steps_per_pass: s,
        prefetch,
    }
}

/// Install a private-cache measured tuner once per test binary.
fn tuner_ready() {
    static T: OnceLock<()> = OnceLock::new();
    T.get_or_init(|| {
        let path = std::env::temp_dir().join(format!("stencil-conf-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let t = AutoTuner::with_cache_path(path).budget(Budget::from_millis(120));
        stencil_lab::core::tune::install_tuner(Box::leak(Box::new(t)));
    });
}

/// What the routes need of a grid of each dimensionality.
pub trait TestGrid: Domain + Send + Sync {
    fn make(extents: &[usize], f: impl FnMut() -> f64) -> Self;
    /// The logical cells, outermost axis first.
    fn dense(&self) -> Vec<f64>;
    /// Every cell, padding included.
    fn cells(&mut self) -> &mut [f64];
    fn scalar(pp: &mut PingPong<Self>, p: &Pattern, t: usize);
    fn job(self) -> JobDomain;
    /// `t` steps of the split-tiling baseline at time block `tb`.
    fn split<V: SimdF64>(&self, pool: &ThreadPool, p: &Pattern, tb: usize, t: usize) -> Self;
    /// The block-free baselines, which exist in 1D only.
    fn baselines(&self, _p: &Pattern, _w: Width, _t: usize) -> Vec<Self> {
        Vec::new()
    }
    // The routes below exist for some dimensionalities only;
    // `Case::applies` never sends a grid of another one here.
    /// `t` steps in `shards` slabs, through every entry.
    fn sharded(&self, _lanes: &[Plan], _t: usize, _shards: usize) -> Vec<Self> {
        unreachable!("a {}D grid does not shard", Self::DIMS)
    }
    /// Streamed through a named and an unnamed store, and whether one had
    /// two windows and two passes.
    fn streamed(&self, _plan: &Plan, _t: usize, _prefetch: bool) -> (Vec<Self>, bool) {
        unreachable!("a {}D grid does not stream", Self::DIMS)
    }
    /// Resumed after a hard store fault.
    fn resumed(&self, _plan: &Plan, _t: usize) -> Self {
        unreachable!("a {}D grid does not stream", Self::DIMS)
    }
    fn poisoned(&self) -> Self {
        let mut g = self.clone();
        g.cells().fill(f64::NAN);
        g
    }
}

fn sweep<D: Domain>(g: &D, t: usize, f: impl FnOnce(&mut PingPong<D>, usize)) -> D {
    let mut pp = PingPong::new(g.clone());
    f(&mut pp, t);
    pp.into_current()
}

fn job_dense(d: JobDomain) -> Vec<f64> {
    match d {
        JobDomain::D1(g) => g.dense(),
        JobDomain::D2(g) => g.dense(),
        JobDomain::D3(g) => g.dense(),
    }
}

impl TestGrid for Grid1D {
    fn make(e: &[usize], mut f: impl FnMut() -> f64) -> Self {
        Grid1D::from_fn(e[0], |_| f())
    }
    fn dense(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }
    fn cells(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
    fn scalar(pp: &mut PingPong<Self>, p: &Pattern, t: usize) {
        scalar::sweep_1d(pp, p, t)
    }
    fn job(self) -> JobDomain {
        JobDomain::D1(self)
    }
    fn split<V: SimdF64>(&self, pool: &ThreadPool, p: &Pattern, tb: usize, t: usize) -> Self {
        sweep(self, t, |pp, t| split::sweep_1d::<V>(pool, pp, p, tb, t))
    }
    fn baselines(&self, p: &Pattern, w: Width, t: usize) -> Vec<Self> {
        match w {
            Width::W8 => [reorg::sweep_1d::<NativeF64x8>, dlt::sweep_1d::<NativeF64x8>],
            _ => [reorg::sweep_1d::<NativeF64x4>, dlt::sweep_1d::<NativeF64x4>],
        }
        .map(|f| sweep(self, t, |pp, t| f(pp, p, t)))
        .into()
    }
}

impl TestGrid for Grid2D {
    fn make(e: &[usize], mut f: impl FnMut() -> f64) -> Self {
        Grid2D::from_fn(e[0], e[1], |_, _| f())
    }
    fn dense(&self) -> Vec<f64> {
        self.to_dense()
    }
    fn cells(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
    fn scalar(pp: &mut PingPong<Self>, p: &Pattern, t: usize) {
        scalar::sweep_2d(pp, p, t)
    }
    fn job(self) -> JobDomain {
        JobDomain::D2(self)
    }
    fn split<V: SimdF64>(&self, pool: &ThreadPool, p: &Pattern, tb: usize, t: usize) -> Self {
        sweep(self, t, |pp, t| split::sweep_2d::<V>(pool, pp, p, tb, t))
    }
    fn sharded(&self, lanes: &[Plan], t: usize, shards: usize) -> Vec<Self> {
        vec![shard::run_sharded_2d_owned(lanes, self.clone(), t, shards).unwrap()]
    }
}

impl TestGrid for Grid3D {
    fn make(e: &[usize], mut f: impl FnMut() -> f64) -> Self {
        Grid3D::from_fn(e[0], e[1], e[2], |_, _, _| f())
    }
    fn dense(&self) -> Vec<f64> {
        self.to_dense()
    }
    fn cells(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
    fn scalar(pp: &mut PingPong<Self>, p: &Pattern, t: usize) {
        scalar::sweep_3d(pp, p, t)
    }
    fn job(self) -> JobDomain {
        JobDomain::D3(self)
    }
    fn split<V: SimdF64>(&self, pool: &ThreadPool, p: &Pattern, tb: usize, t: usize) -> Self {
        sweep(self, t, |pp, t| split::sweep_3d::<V>(pool, pp, p, tb, t))
    }
    fn sharded(&self, lanes: &[Plan], t: usize, shards: usize) -> Vec<Self> {
        vec![
            shard::run_sharded_3d(lanes, self, t, shards).unwrap(),
            shard::run_sharded_3d_owned(lanes, self.clone(), t, shards).unwrap(),
        ]
    }
    fn streamed(&self, plan: &Plan, t: usize, prefetch: bool) -> (Vec<Self>, bool) {
        let (mut runs, mut multi) = (Vec::new(), false);
        for (named, prefetch) in [(true, prefetch), (false, !prefetch)] {
            let (cfg, path) = (two_windows(plan, self, prefetch), store_path());
            let run = match named {
                true => ooc::run_streaming_grid_resumable(plan, self, t, &cfg, &path),
                false => ooc::run_streaming_grid(plan, self, t, &cfg),
            };
            let (out, report) = run.unwrap();
            assert!(!path.exists(), "a finished named store is removed");
            assert!(report.resident_bytes <= cfg.budget_bytes, "{report:?}");
            multi |= report.windows_per_pass >= 2 && report.passes >= 2;
            runs.push(out);
        }
        (runs, multi)
    }
    fn resumed(&self, plan: &Plan, t: usize) -> Self {
        let (cfg, path) = (two_windows(plan, self, false), store_path());
        let store = SlabStore::create(&path, self, plan.pattern().radius()).unwrap();
        ooc::run_streaming(plan, &store, plan.m(), &cfg).unwrap();
        // every sync fails past the retry budget: the attempt dies mid-job
        // with the typed transient error and leaves its store behind
        faults::arm_probability(Failpoint::OocFsync, 1.0, SEED);
        faults::set_enabled(true);
        let died = ooc::run_streaming(plan, &store, t - plan.m(), &cfg);
        faults::disarm_all();
        faults::set_enabled(false);
        drop(store);
        assert!(died
            .expect_err("a hard fault fails the attempt")
            .is_transient());
        assert!(path.exists(), "the interrupted store survives for resume");
        let (got, _) = ooc::run_streaming_grid_resumable(plan, self, t, &cfg, &path).unwrap();
        assert!(!path.exists(), "a successful resume removes the store");
        got
    }
}

/// An accepted cell: a kernel and the configuration it compiled under at
/// a thread count.
struct Cell {
    kernel: &'static str,
    pattern: Pattern,
    config: PlanConfig,
    plan: Plan,
    threads: usize,
}

/// One cell on one grid for one step count.
struct Case {
    at: Arc<Cell>,
    extent: Extent,
    steps: Steps,
    t: usize,
    extents: Vec<usize>,
    seed: u64,
}

impl std::ops::Deref for Case {
    type Target = Cell;
    fn deref(&self) -> &Cell {
        &self.at
    }
}

impl Case {
    fn dims(&self) -> usize {
        self.pattern.dims()
    }

    /// The axis values this case stands for.
    fn values(&self) -> Vec<String> {
        let c = &self.config;
        let ring = match self.dims() {
            3 => format!("{:?}", c.ring3),
            _ => "-".into(),
        };
        vec![
            format!("dims {}", self.dims()),
            format!("kernel {}", self.kernel),
            format!("method {:?}", c.method),
            format!("tiling {:?}", c.tiling),
            format!("width {:?}", c.width),
            format!("ring {ring}"),
            format!("threads {}", self.threads),
            format!("extent {:?}", self.extent),
            format!("steps {:?}", self.steps),
        ]
    }

    fn ctx(&self) -> String {
        let (c, resolved, e, t) = (self.config, self.plan.config(), &self.extents, self.t);
        format!(
            "{} {c:?} threads {} {:?} {e:?} t {t} (resolved {resolved:?})",
            self.kernel, self.threads, self.extent
        )
    }

    /// No interior under the plan's band: an axis within `2r`, or within
    /// `2R` when only folded steps run.
    fn no_interior(&self) -> bool {
        let (r, rr) = (self.pattern.radius(), self.plan.effective_radius());
        let folded_only = self.t.is_multiple_of(self.plan.m());
        let thin = |&e: &usize| e <= 2 * r || e <= 2 * rr && folded_only;
        self.extents.iter().any(thin)
    }

    /// Whether `route` exists for this case: the one gate, for the
    /// coverage universe and for the dispatch alike. The tuning modes and
    /// the reused pair stay off three-tile grids (the debug build's cost).
    fn applies(&self, route: Route) -> bool {
        let c = &self.config;
        let tiled = matches!(c.tiling, Tiling::Tessellate { .. });
        match route {
            Route::Twin => tiled,
            Route::Baselines => {
                let aligned = self.extents.last().unwrap().is_multiple_of(8) && !self.no_interior();
                let scalar = c.method == Method::Scalar && c.width != Width::W1;
                scalar && aligned && (tiled || self.dims() == 1)
            }
            Route::Tuned => {
                let open = c.method == Method::Auto || c.tiling == Tiling::Auto;
                open && self.extent != Extent::Tiles3
            }
            Route::Reuse => self.extent != Extent::Tiles3,
            Route::Shard => self.dims() > 1,
            Route::Stream | Route::Fault => self.dims() == 3,
            _ => true,
        }
    }

    /// The field: one per extents, so references carry across cells.
    fn grid<D: TestGrid>(&self) -> D {
        let seed = self
            .extents
            .iter()
            .fold(SEED, |h, &e| h.rotate_left(17) ^ e as u64);
        let mut rng = SplitMix64::new(seed);
        D::make(&self.extents, || 2.0 * rng.next_f64() - 1.0)
    }
}

/// The slice's cells in product order. A ring move is an axis of the 3D
/// plans that may run the register pipeline; the out-of-bounds ring goes
/// to every cell, where `validate` must refuse it.
fn cells(s: &Slice) -> Vec<(&'static str, Pattern, PlanConfig)> {
    let mut out = Vec::new();
    for (kernel, p) in kernels() {
        let dims = p.dims();
        if !s.dims.is_empty() && !s.dims.contains(&dims)
            || !s.kernels.is_empty() && !s.kernels.contains(&kernel)
        {
            continue;
        }
        for &method in or_all(s.methods, METHODS) {
            let moves = dims == 3 && (method.is_register() || method == Method::Auto);
            for &tiling in or_all(s.tilings, TILINGS) {
                for &width in or_all(s.widths, WIDTHS) {
                    let rings = or_all(s.rings, RINGS).iter();
                    for &ring3 in rings.filter(|r| moves || !r.is_some_and(|r| r.valid())) {
                        let config = PlanConfig {
                            method,
                            tiling,
                            width,
                            ring3,
                        };
                        out.push((kernel, p.clone(), config));
                    }
                }
            }
        }
    }
    out
}

/// The sharding service's policy: every 2D/3D job whose outer axis holds
/// two slabs of at least 8 layers and `2 t r + 1`.
const SHARDING: ShardPolicy = ShardPolicy {
    min_points: 1,
    max_shards: 3,
    min_slab: 8,
};

struct Servers {
    /// Never shards; its service is the in-process resident route too.
    net: NetServer,
    client: NetClient,
    sharding: StencilService,
    sharded_jobs: u64,
    shards_executed: u64,
    wire_jobs: u64,
}

impl Servers {
    fn start() -> Self {
        let cfg = |shard| ServeConfig {
            threads: 2,
            workers: 2,
            queue_capacity: 16,
            tuning: Tuning::Static,
            shard,
            ..ServeConfig::default()
        };
        let never = ShardPolicy {
            min_points: usize::MAX,
            ..SHARDING
        };
        let net = NetServer::start(StencilService::start(cfg(never)), NetConfig::default());
        let net = net.unwrap();
        Self {
            client: NetClient::connect(net.addr(), "conformance").unwrap(),
            net,
            sharding: StencilService::start(cfg(SHARDING)),
            sharded_jobs: 0,
            shards_executed: 0,
            wire_jobs: 0,
        }
    }

    /// Check the services' counters and shut them down.
    fn close(self) {
        let stats = self.sharding.shutdown();
        let sharded = (stats.sharded_jobs, stats.shards_executed);
        assert_eq!(
            sharded,
            (self.sharded_jobs, self.shards_executed),
            "sharding service"
        );
        self.client.bye().unwrap();
        let stats = self.net.shutdown();
        let tenant = stats
            .tenants
            .get("conformance")
            .map(|t| (t.submitted, t.completed));
        let wire = self.wire_jobs;
        assert_eq!(tenant.unwrap_or_default(), (wire, wire), "tenant counters");
    }
}

/// Make `svc` serve `spec` with `plan`'s configuration; returns the shard
/// count it resolves.
fn install(svc: &StencilService, plan: &Plan, spec: &JobSpec) -> usize {
    let (_, shards) = svc.plan_for(spec).unwrap();
    let shape = match shards {
        1 => PlanShape::Pooled,
        _ => PlanShape::BlockFree,
    };
    let extents = spec.domain.extents();
    let key = PlanRegistry::key(&spec.pattern, Some(&extents), Tuning::Static, shape);
    let solver = Solver::new(spec.pattern.clone()).with_config(plan.config());
    let twin = solver.pool(plan.pool().clone()).compile().unwrap();
    svc.registry().swap_plan(&key, Arc::new(twin));
    shards
}

struct Run {
    slice: Slice,
    rng: SplitMix64,
    report: Report,
    universe: BTreeSet<(String, Route)>,
    covered: BTreeSet<(String, Route)>,
    servers: Option<Servers>,
    multi_window: bool,
    /// Scalar references by (kernel, extents, fold factor, steps); fold
    /// factor 0 is `t` plain steps.
    refs: HashMap<(&'static str, Vec<usize>, usize, usize), Vec<f64>>,
}

impl Run {
    fn new(slice: Slice) -> Self {
        Self {
            slice,
            rng: SplitMix64::new(SEED),
            report: Report::default(),
            universe: BTreeSet::new(),
            covered: BTreeSet::new(),
            servers: None,
            multi_window: false,
            refs: HashMap::new(),
        }
    }

    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    /// The listed values, or one drawn from `full`.
    fn draw<T: Copy>(&mut self, axis: &'static [T], full: &'static [T]) -> Vec<T> {
        match axis {
            [] => vec![full[self.below(full.len())]],
            _ => axis.to_vec(),
        }
    }

    fn go(mut self) -> Report {
        let s = self.slice;
        let routes = match s.routes {
            [] => [CHEAP, SAMPLED].concat(),
            named => named.to_vec(),
        };
        let mut cases = Vec::new();
        // with extents drawn: one tiles3 case per (dims × tessellate
        // tiling), on a vector register cell reservoir-drawn from the
        // group; (group, seen, pick)
        let mut wide: Vec<((usize, Tiling), u64, usize)> = Vec::new();
        for (kernel, pattern, config) in cells(&s) {
            for threads in self.draw(s.threads, THREADS) {
                let solver = Solver::new(pattern.clone()).with_config(config);
                let compiled = solver.pool(PoolHandle::shared(threads)).compile();
                // check 0
                let predicted = config.validate(&pattern).err();
                let msg = format!("{kernel} {config:?}: validate vs compile");
                assert_eq!(predicted.as_ref(), compiled.as_ref().err(), "{msg}");
                let Ok(plan) = compiled else {
                    self.report.rejected += 1;
                    continue;
                };
                self.report.accepted += 1;
                let tiled = matches!(config.tiling, Tiling::Tessellate { .. });
                let vector = plan.method().is_register() && config.width != Width::W1;
                let group = (pattern.dims(), config.tiling);
                let cell = Arc::new(Cell {
                    kernel,
                    pattern: pattern.clone(),
                    config,
                    plan,
                    threads,
                });
                if s.extents.is_empty() && tiled && vector {
                    let at = wide.iter().position(|w| w.0 == group).unwrap_or_else(|| {
                        wide.push((group, 0, 0));
                        wide.len() - 1
                    });
                    wide[at].1 += 1;
                    if self.rng.next_u64().is_multiple_of(wide[at].1) {
                        wide[at].2 = cases.len();
                    }
                }
                for extent in self.draw(s.extents, EXTENTS) {
                    for steps in self.draw(s.steps, STEPS) {
                        cases.push(self.case(&cell, extent, steps));
                    }
                }
            }
        }
        for (_, _, i) in wide {
            let (cell, steps) = (Arc::clone(&cases[i].at), cases[i].steps);
            cases.push(self.case(&cell, Extent::Tiles3, steps));
        }
        self.report.cases = cases.len();
        for c in &cases {
            for &r in routes.iter().filter(|&&r| c.applies(r)) {
                self.universe.extend(c.values().into_iter().map(|v| (v, r)));
            }
        }
        // every case's cheap routes, and a named slice's routes that share
        // no process state, on two threads, each with its own reference
        // cache; a failing case re-raises its panic here
        let lanes = |r: &Route| CHEAP.contains(r) || !s.routes.is_empty() && !SERIAL.contains(r);
        let (cheap, sampled): (Vec<Route>, Vec<Route>) = routes.iter().copied().partition(lanes);
        std::thread::scope(|scope| {
            let lanes: Vec<_> = (0..2)
                .map(|lane| {
                    let (cases, cheap) = (&cases, &cheap);
                    scope.spawn(move || {
                        let mut run = Run::new(s);
                        cases
                            .iter()
                            .skip(lane)
                            .step_by(2)
                            .for_each(|c| run.dispatch(c, cheap));
                        run.covered
                    })
                })
                .collect();
            for lane in lanes {
                let covered = lane.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                self.covered.extend(covered);
            }
        });
        if !s.routes.is_empty() {
            for c in &cases {
                self.dispatch(c, &sampled);
            }
        } else {
            // the sample: in a seeded order, a case joins when it covers a
            // key no earlier one did
            let mut order: Vec<usize> = (0..cases.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, self.below(i + 1));
            }
            let mut keys = BTreeSet::new();
            for c in order.into_iter().map(|i| &cases[i]) {
                let mut fresh = false;
                for &r in sampled.iter().filter(|&&r| c.applies(r)) {
                    let (d, m, t, e) = (c.dims(), c.config.method, c.config.tiling, c.extent);
                    let groups = [format!("{r:?} {d} {m:?} {t:?}"), format!("{r:?} {d} {e:?}")];
                    let values = c.values().into_iter().map(|v| format!("{r:?} {v}"));
                    for key in groups.into_iter().chain(values) {
                        fresh |= keys.insert(key);
                    }
                }
                if fresh {
                    self.report.sampled += 1;
                    self.dispatch(c, &sampled);
                }
            }
        }
        if self.covered.iter().any(|k| k.1 == Route::Stream) {
            assert!(
                self.multi_window,
                "no streamed case had two windows and two passes"
            );
        }
        if let Some(servers) = self.servers.take() {
            servers.close();
        }
        let uncovered = self.universe.difference(&self.covered);
        self.report.uncovered = uncovered.map(|(v, r)| format!("{v} × {r:?}")).collect();
        println!("conformance: {:?}", self.report);
        self.report
    }

    fn case(&mut self, cell: &Arc<Cell>, extent: Extent, steps: Steps) -> Case {
        let (dims, r) = (cell.pattern.dims(), cell.pattern.radius());
        let (rr, m) = (cell.plan.effective_radius(), cell.plan.m());
        let pick = |e: [&[usize]; 3]| e[dims - 1].to_vec();
        let extents = match extent {
            Extent::Aligned => pick([&[256], &[36, 40], &[24, 10, 16]]),
            Extent::Ragged => pick([&[251], &[33, 37], &[15, 11, 13]]),
            Extent::Tiles3 => pick([&[139_073], &[64, 4096], &[34, 64, 66]]),
            Extent::Deep => pick([&[1024], &[101, 72], &[29, 14, 18]]),
            Extent::OneTile => vec![2 * rr + 1; dims],
            Extent::NoInterior => {
                let mut e = pick([&[256], &[16, 40], &[16, 10, 16]]);
                let axis = self.below(dims);
                e[axis] = [1, 2 * r, 2 * rr][self.below(3)];
                e
            }
        };
        let t = match (steps, cell.config.tiling) {
            (Steps::Folds(k, tail), _) => k * m + tail,
            (Steps::Exact(t), _) => t,
            (Steps::Rounds, Tiling::Tessellate { time_block }) => m * (2 * time_block + 1) + 1,
            (Steps::Rounds, _) => 5 * m + 1,
        };
        let seed = self.rng.next_u64();
        Case {
            at: Arc::clone(cell),
            extent,
            steps,
            t,
            extents,
            seed,
        }
    }

    fn recompile(&self, c: &Case, threads: usize) -> Plan {
        let solver = Solver::new(c.pattern.clone()).with_config(c.plan.config());
        let compiled = solver.pool(PoolHandle::shared(threads)).compile();
        compiled.unwrap_or_else(|e| panic!("{}: recompile: {e}", c.ctx()))
    }

    /// Every route of `routes` that applies to `c`; a panic inside the
    /// library is re-raised naming the case.
    fn dispatch(&mut self, c: &Case, routes: &[Route]) {
        let routes: Vec<Route> = routes.iter().copied().filter(|&r| c.applies(r)).collect();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match c.dims() {
            1 => self.check::<Grid1D>(c, &routes),
            2 => self.check::<Grid2D>(c, &routes),
            _ => self.check::<Grid3D>(c, &routes),
        }));
        if run.is_err() {
            panic!("{}: failed on {routes:?} (the panic above)", c.ctx());
        }
    }

    /// `exec/scalar.rs` on `g` as a plan of fold factor `m` steps it:
    /// `t / m` sweeps of the folded pattern, then `t % m` plain ones; `t`
    /// plain ones for `m == 0`. One sweep per grid and count.
    fn reference<D: TestGrid>(&mut self, c: &Case, g: &D, m: usize) -> Vec<f64> {
        let key = (c.kernel, c.extents.clone(), m, c.t);
        let (p, t) = (&c.pattern, c.t);
        let legs = || {
            let folded = match m {
                0 => g.clone(),
                _ => sweep(g, t / m, |pp, s| D::scalar(pp, &folding::fold(p, m), s)),
            };
            sweep(&folded, t.checked_rem(m).unwrap_or(t), |pp, s| {
                D::scalar(pp, p, s)
            })
            .dense()
        };
        self.refs.entry(key).or_insert_with(legs).clone()
    }

    /// Check 1 for a plan of fold factor `m`: the whole grid against its
    /// legs, and with a tail the interior `t r` against `t` plain steps.
    fn agrees<D: TestGrid>(&mut self, c: &Case, g: &D, m: usize, got: &[f64], what: &str) {
        let ctx = format!("{}: {what}", c.ctx());
        assert_close(&self.reference(c, g, m), got, &ctx);
        if !c.t.is_multiple_of(m) {
            let want = self.reference(c, g, 0);
            let diff = interior_diff(&want, got, &c.extents, c.t * c.pattern.radius());
            assert!(
                diff <= tolerance(&want),
                "{ctx}: t plain steps: diff {diff:e}"
            );
        }
    }

    /// Every route of `routes` on case `c`.
    fn check<D: TestGrid>(&mut self, c: &Case, routes: &[Route]) {
        let ctx = c.ctx();
        let (p, plan, t, config) = (&c.pattern, &c.plan, c.t, c.config);
        let g: D = c.grid();
        let out = plan.run(&g, t).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let want = out.dense();
        let same = |got: &[f64], what: &str| assert!(bits(got) == bits(&want), "{ctx}: {what}");
        for &route in routes {
            match route {
                Route::Scalar if c.no_interior() => {
                    same(&g.dense(), "no interior: the grid itself");
                }
                Route::Scalar => {
                    let legs = self.reference(c, &g, plan.m());
                    let lanes = config.width == Width::W1 && plan.method().is_register();
                    if lanes && c.dims() == 3 {
                        same(&legs, "scalar lanes: exec/scalar.rs bits");
                    }
                    let one_step = [Method::MultipleLoads, Method::TransposeLayout];
                    if c.dims() == 2 && one_step.contains(&plan.method()) {
                        let rel = rel_l2_error(&want, &legs);
                        assert!(rel < 1e-13, "{ctx}: relative L2 {rel:e}");
                    }
                    self.agrees(c, &g, plan.m(), &want, "scalar");
                }
                Route::Pair => {
                    let mut pair = PingPong::from_pair(g.clone(), g.poisoned());
                    plan.run_pair_at(&mut pair, t, 0).unwrap();
                    same(&pair.current().dense(), "pair entry, poisoned scratch");
                }
                Route::Reuse => {
                    // what `run` sweeps, at `origin`: the pair entry on a
                    // pair made from the grid; 1D grids and block-free
                    // plans ignore the origin
                    let at = |g: &D, origin: usize| match origin {
                        0 => plan.run(g, t).unwrap(),
                        _ => sweep(g, t, |pp, t| plan.run_pair_at(pp, t, origin).unwrap()),
                    };
                    let at_0 = [out.clone(), at(&out, 0)];
                    let at_7 = match c.dims() == 1 || plan.tiling() == Tiling::None {
                        true => at_0.clone(),
                        false => {
                            let once = at(&g, 7);
                            let twice = at(&once, 7);
                            [once, twice]
                        }
                    };
                    for (origin, [once, twice]) in [(0, at_0), (7, at_7)] {
                        let mut pair = PingPong::from_pair(g.clone(), g.poisoned());
                        for (run, want) in [once, twice].iter().enumerate() {
                            plan.run_pair_at(&mut pair, t, origin).unwrap();
                            let what = format!("pair entry at {origin}, run {}", run + 1);
                            let got = pair.current().dense();
                            assert!(bits(&got) == bits(&want.dense()), "{ctx}: {what}");
                        }
                    }
                }
                Route::Threads => {
                    let other = |n: &usize| *n != c.threads;
                    let mut others: Vec<usize> =
                        self.slice.threads.iter().copied().filter(other).collect();
                    if others.is_empty() {
                        let all: Vec<usize> = THREADS.iter().copied().filter(other).collect();
                        others.push(all[(c.seed % all.len() as u64) as usize]);
                    }
                    for n in others {
                        let got = self.recompile(c, n).run(&g, t).unwrap();
                        same(&got.dense(), &format!("{n} threads"));
                    }
                }
                Route::Recompile => {
                    let resolved = plan.config();
                    assert_eq!(resolved.validate(p), Ok(()), "{ctx}");
                    if config.method != Method::Auto && config.tiling != Tiling::Auto {
                        let ring3 = plan.ring3();
                        assert_eq!(resolved, PlanConfig { ring3, ..config }, "{ctx}");
                    }
                    let got = self.recompile(c, c.threads).run(&g, t).unwrap();
                    same(&got.dense(), "recompiled");
                }
                Route::Twin => {
                    let tiling = Tiling::None;
                    let solver =
                        Solver::new(p.clone()).with_config(PlanConfig { tiling, ..config });
                    let free = solver.pool(plan.pool().clone()).compile().unwrap();
                    let got = free.run(&g, t).unwrap().dense();
                    // 1D: the block-free register route is the transpose
                    // layout; 2D: inverted tips below a vector run scalar
                    let exempt = plan.method().is_register() && c.dims() < 3;
                    if free.method() == plan.method() && !exempt {
                        same(&got, "block-free twin bits");
                    }
                    assert_close(&got, &want, &format!("{ctx}: block-free twin"));
                }
                Route::Baselines => {
                    let mut outs = g.baselines(p, config.width, t);
                    if let Tiling::Tessellate { time_block: tb } = config.tiling {
                        outs.push(match config.width {
                            Width::W8 => g.split::<NativeF64x8>(plan.pool(), p, tb, t),
                            _ => g.split::<NativeF64x4>(plan.pool(), p, tb, t),
                        });
                    }
                    let plain = self.reference(c, &g, 0);
                    for out in &outs {
                        assert_close(&plain, &out.dense(), &format!("{ctx}: baseline"));
                    }
                }
                Route::Tuned => {
                    tuner_ready();
                    let mut measured = None;
                    for mode in [Tuning::Static, Tuning::Measured, Tuning::CacheOnly] {
                        let solver = Solver::new(p.clone()).with_config(config).tuning(mode);
                        let solver = solver.domain_hint(&c.extents).pool(plan.pool().clone());
                        let tuned = solver.compile().unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_ne!(tuned.method(), Method::Auto, "{ctx}");
                        assert_ne!(tuned.tiling(), Tiling::Auto, "{ctx}");
                        let out = tuned.run(&g, t).unwrap().dense();
                        self.agrees(c, &g, tuned.m(), &out, &format!("{mode:?}"));
                        match mode {
                            Tuning::Measured => measured = Some(bits(&out)),
                            Tuning::CacheOnly => assert!(measured == Some(bits(&out)), "{ctx}"),
                            Tuning::Static => {}
                        }
                    }
                }
                Route::Shard => {
                    // two and three slabs: their seams fall at different
                    // phases of the tile width
                    let lanes = shard::lane_plans(plan, 3).unwrap();
                    for shards in [2, 3] {
                        for got in g.sharded(&lanes, t, shards) {
                            same(&got.dense(), &format!("{shards} shards"));
                        }
                    }
                }
                Route::Stream => {
                    let (runs, multi) = g.streamed(plan, t, c.seed.is_multiple_of(2));
                    for got in &runs {
                        same(&got.dense(), "streamed");
                    }
                    self.multi_window |= multi;
                }
                Route::Fault => same(&g.resumed(plan, t).dense(), "resumed after a fault"),
                Route::Service => {
                    let srv = self.servers.get_or_insert_with(Servers::start);
                    for (svc, sharding) in [(srv.net.service(), false), (&srv.sharding, true)] {
                        let spec = JobSpec::new(p.clone(), g.clone().job(), t);
                        let shards = install(svc, plan, &spec);
                        assert!(
                            sharding || shards == 1,
                            "{ctx}: the resident service sharded"
                        );
                        let done = svc.submit(spec).unwrap().wait().unwrap();
                        assert_eq!(done.shards, shards, "{ctx}");
                        if shards > 1 {
                            srv.sharded_jobs += 1;
                            srv.shards_executed += shards as u64;
                            self.report.sharded += 1;
                        }
                        let what = format!("service, {shards} shards");
                        same(&job_dense(done.output), &what);
                    }
                }
                Route::Wire => {
                    let srv = self.servers.get_or_insert_with(Servers::start);
                    let spec = JobSpec::new(p.clone(), g.clone().job(), t);
                    install(srv.net.service(), plan, &spec);
                    // one round, then two or three (no more than the steps)
                    // with progress frames between; a multi-round job is
                    // bit-stable for its own step partition, so the
                    // reference chunks identically
                    for rounds in [1, 2 + (c.seed % 2) as usize] {
                        let header = SubmitHeader {
                            id: 0,
                            name: c.kernel.into(),
                            pattern: p.clone(),
                            extents: c.extents.clone(),
                            steps: t,
                            rounds,
                            tuning: None,
                            deadline_ms: None,
                        };
                        let id = srv.client.submit(header, &g.dense()).unwrap();
                        let mut progress = Vec::new();
                        let out = loop {
                            match srv.client.next_event(id).unwrap() {
                                JobEvent::Progress { round, rounds } => {
                                    progress.push((round, rounds))
                                }
                                JobEvent::Done(out) => break out,
                            }
                        };
                        srv.wire_jobs += 1;
                        let chunks = round_steps(t, rounds);
                        let n = chunks.len() as u64;
                        let expected: Vec<(u64, u64)> = (1..n).map(|i| (i, n)).collect();
                        assert_eq!((progress, &out.extents), (expected, &c.extents), "{ctx}");
                        let reference = chunks
                            .iter()
                            .fold(g.clone(), |g, &s| plan.run(&g, s).unwrap());
                        let what = format!("{ctx}: wire, {rounds} rounds");
                        assert!(bits(&out.data) == bits(&reference.dense()), "{what}");
                    }
                }
            }
            self.covered
                .extend(c.values().into_iter().map(|v| (v, route)));
        }
    }
}
