//! Domain sharding: split a large 2D/3D job into halo-correct
//! sub-domain slabs along the outermost axis, execute the slabs in
//! parallel, and stitch the interiors back — **bit-identical** to the
//! unsharded run.
//!
//! The geometry arithmetic (why slab execution is exact, halo widening
//! under tessellate tiling, slab alignment) lives in
//! [`stencil_core::slab`] — it is shared with the out-of-core streaming
//! executor (`stencil-ooc`), which marches the same halo-widened slabs
//! through a file-backed window instead of across worker threads. This
//! module keeps the serving-side concerns: the [`ShardPolicy`] that
//! decides when sharding pays, per-slab single-thread lane plans, and
//! the scatter/stitch executors.
//!
//! One body (`run_slabs`) runs the slabs of a 2D or a 3D grid; the
//! entries differ only in where the interiors are stitched. The service
//! owns its job's grid and calls the `_owned` entries: the fan-out copies
//! every slab out of the grid (slabs read it concurrently), and only
//! then are the advanced interiors stitched back into that same grid —
//! no second grid is allocated. The borrowed 3D entry stitches into a
//! fresh zeroed grid and leaves the input alone.
//!
//! Each slab runs on its own single-thread [`Plan`] (same pattern,
//! method, tiling, width and z-ring geometry as the source plan) so
//! the slabs really execute concurrently — a shared pool would
//! serialize them. A slab is one surface of the pair its lane sweeps
//! ([`Plan::run_pair_at`]); the other needs no contents.

use stencil_core::{Domain, Plan, PlanError, Solver};
use stencil_grid::{Grid2D, Grid3D, PingPong};

pub use stencil_core::slab::{
    effective_shards, interior_ranges, shard_geometry, shardable, slab_bounds, SLAB_ALIGN,
};

/// When and how much to shard. The service consults this per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Shard only jobs with at least this many grid points (small
    /// domains fit a cache and lose more to halo duplication than they
    /// gain from slab parallelism).
    pub min_points: usize,
    /// Upper bound on slabs per job (normally the machine's core
    /// count).
    pub max_shards: usize,
    /// A slab's interior must keep at least this many outer-axis
    /// layers *and* at least `2 * halo + 1` layers, or the shard count
    /// is reduced — halo work must never dominate.
    pub min_slab: usize,
}

impl Default for ShardPolicy {
    fn default() -> Self {
        Self {
            min_points: 1 << 20,
            max_shards: stencil_runtime::available_parallelism(),
            min_slab: 16,
        }
    }
}

impl ShardPolicy {
    /// How many slabs to cut a domain of `points` total points and
    /// `outer` outermost-axis extent into, for a run whose halo is
    /// `halo` layers. Returns 1 (do not shard) when the domain is too
    /// small or the halo too deep to amortize.
    pub fn shards_for(&self, points: usize, outer: usize, halo: usize) -> usize {
        if points < self.min_points || self.max_shards <= 1 {
            return 1;
        }
        let min_interior = self.min_slab.max(2 * halo + 1);
        (outer / min_interior.max(1)).clamp(1, self.max_shards)
    }
}

/// Compile `lanes` single-thread clones of `plan`'s configuration —
/// one per concurrent slab, so parallel slab runs never contend for a
/// pool. The service's registry caches the returned set per plan key.
pub fn lane_plans(plan: &Plan, lanes: usize) -> Result<Vec<Plan>, PlanError> {
    // lanes execute the exact configuration the source plan resolved,
    // its (possibly tuned) z-ring geometry included
    let lane = Solver::new(plan.pattern().clone())
        .with_config(plan.config())
        .threads(1);
    (0..lanes.max(1)).map(|_| lane.compile()).collect()
}

/// What the one shard body needs of a grid it cuts along its outermost
/// axis.
trait Sharded: Domain + Send + Sync {
    /// The extents, outermost first.
    fn extents(&self) -> Vec<usize>;
    /// A zeroed grid of `outer` layers of this one's shape.
    fn zeroed(&self, outer: usize) -> Self;
    /// Copy `n` outer layers of `src`, from its layer `from`, to this
    /// grid's layer `to` on.
    fn copy_layers(&mut self, src: &Self, from: usize, to: usize, n: usize);
}

impl Sharded for Grid2D {
    fn extents(&self) -> Vec<usize> {
        vec![self.ny(), self.nx()]
    }
    fn zeroed(&self, outer: usize) -> Self {
        Grid2D::zeros(outer, self.nx())
    }
    fn copy_layers(&mut self, src: &Self, from: usize, to: usize, n: usize) {
        for i in 0..n {
            self.row_mut(to + i).copy_from_slice(src.row(from + i));
        }
    }
}

impl Sharded for Grid3D {
    fn extents(&self) -> Vec<usize> {
        vec![self.nz(), self.ny(), self.nx()]
    }
    fn zeroed(&self, outer: usize) -> Self {
        Grid3D::zeros(outer, self.ny(), self.nx())
    }
    fn copy_layers(&mut self, src: &Self, from: usize, to: usize, n: usize) {
        for i in 0..n {
            for y in 0..self.ny() {
                self.row_mut(to + i, y)
                    .copy_from_slice(src.row(from + i, y));
            }
        }
    }
}

/// An advanced slab: its interior `[lo, hi)`, its first layer's global
/// index, and its grid.
struct Slab<G> {
    lo: usize,
    hi: usize,
    origin: usize,
    grid: G,
}

/// The one shard body: run `t` steps of the lanes' plan on `grid` as
/// parallel halo slabs along its outer axis. The slabs are copied out of
/// `grid` inside the fan-out, so once this returns nothing reads `grid`
/// any more and the caller may stitch into it.
fn run_slabs<G: Sharded>(
    lanes: &[Plan],
    grid: &G,
    t: usize,
    shards: usize,
) -> Result<Vec<Slab<G>>, PlanError> {
    assert!(!lanes.is_empty(), "need at least one lane plan");
    let extents = grid.extents();
    let outer = extents[0];
    let shards = shards.clamp(1, lanes.len());
    let (halo, min_span) = shard_geometry(&lanes[0], t, outer, &extents[1..]);
    let r_eff = lanes[0].effective_radius();
    let shards = effective_shards(outer, shards, halo, r_eff, min_span);
    let ranges = interior_ranges(outer, shards);
    let mut slots: Vec<Option<Result<Slab<G>, PlanError>>> =
        (0..ranges.len()).map(|_| None).collect();
    let run_slab = |lo: usize, hi: usize, lane: &Plan| {
        let (slab_lo, slab_hi) = slab_bounds(lo, hi, outer, halo, r_eff);
        let layers = slab_hi - slab_lo;
        let mut slab = grid.zeroed(layers);
        slab.copy_layers(grid, slab_lo, 0, layers);
        // the slab is one surface of the pair the lane sweeps, and its
        // global origin anchors tessellate tile phase
        let mut pair = PingPong::from_pair(slab, grid.zeroed(layers));
        lane.run_pair_at(&mut pair, t, slab_lo)?;
        Ok(Slab {
            lo,
            hi,
            origin: slab_lo,
            grid: pair.into_current(),
        })
    };
    let _fanout = stencil_obs::span(stencil_obs::SpanId::ShardFanout);
    std::thread::scope(|scope| {
        let mut work = slots.iter_mut().zip(&ranges).zip(lanes);
        // the coordinator runs the last slab itself instead of idling
        // at the scope barrier: one fewer spawn, no oversubscription
        let inline = work.next_back();
        for ((slot, &(lo, hi)), lane) in work {
            let run_slab = &run_slab;
            scope.spawn(move || *slot = Some(run_slab(lo, hi, lane)));
        }
        if let Some(((slot, &(lo, hi)), lane)) = inline {
            *slot = Some(run_slab(lo, hi, lane));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every slab thread writes its slot"))
        .collect()
}

/// Stitch every slab's interior into `out`.
fn stitch<G: Sharded>(out: &mut G, slabs: Vec<Slab<G>>) {
    let _join = stencil_obs::span(stencil_obs::SpanId::ShardJoin);
    for s in slabs {
        out.copy_layers(&s.grid, s.lo - s.origin, s.lo, s.hi - s.lo);
    }
}

/// Run `t` steps of `plan` on `grid` as parallel halo slabs and stitch
/// the result back into the grid the caller gives up once the fan-out
/// has copied the slabs out of it, so no output grid is allocated —
/// bit-identical to `plan.run_2d(&grid, t)`.
///
/// `lanes` supplies one single-thread plan per concurrent slab (see
/// [`lane_plans`]); the number of slabs executed is
/// `min(requested shards, lanes.len(), ny)`, further degraded by
/// [`effective_shards`] when the outer axis is too short to give every
/// worker an aligned slab of its own or the tessellate minimum span
/// binds. With one slab this degenerates to a plain run on `lanes[0]`.
pub fn run_sharded_2d_owned(
    lanes: &[Plan],
    mut grid: Grid2D,
    t: usize,
    shards: usize,
) -> Result<Grid2D, PlanError> {
    let slabs = run_slabs(lanes, &grid, t, shards)?;
    stitch(&mut grid, slabs);
    Ok(grid)
}

/// [`run_sharded_2d_owned`] in 3D, slabs along `z`, stitched into a new
/// grid: bit-identical to `plan.run_3d(grid, t)`, and `grid` is left
/// alone.
pub fn run_sharded_3d(
    lanes: &[Plan],
    grid: &Grid3D,
    t: usize,
    shards: usize,
) -> Result<Grid3D, PlanError> {
    let slabs = run_slabs(lanes, grid, t, shards)?;
    let mut out = Grid3D::zeros(grid.nz(), grid.ny(), grid.nx());
    stitch(&mut out, slabs);
    Ok(out)
}

/// [`run_sharded_3d`] stitched back into the grid the caller gives up,
/// as [`run_sharded_2d_owned`] does.
pub fn run_sharded_3d_owned(
    lanes: &[Plan],
    mut grid: Grid3D,
    t: usize,
    shards: usize,
) -> Result<Grid3D, PlanError> {
    let slabs = run_slabs(lanes, &grid, t, shards)?;
    stitch(&mut grid, slabs);
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::{kernels, Method, Tiling};

    fn bits2d(g: &Grid2D) -> Vec<u64> {
        g.to_dense().iter().map(|v| v.to_bits()).collect()
    }

    fn bits3d(g: &Grid3D) -> Vec<u64> {
        g.to_dense().iter().map(|v| v.to_bits()).collect()
    }

    fn sharded_2d(lanes: &[Plan], g: &Grid2D, t: usize, shards: usize) -> Grid2D {
        run_sharded_2d_owned(lanes, g.clone(), t, shards).unwrap()
    }

    /// Both 3D entries, held to each other: the owned one stitches into
    /// the grid it is given, the borrowed one into a new grid.
    fn sharded_3d(lanes: &[Plan], g: &Grid3D, t: usize, shards: usize) -> Grid3D {
        let borrowed = run_sharded_3d(lanes, g, t, shards).unwrap();
        let owned = run_sharded_3d_owned(lanes, g.clone(), t, shards).unwrap();
        assert_eq!(bits3d(&borrowed), bits3d(&owned), "owned vs borrowed");
        owned
    }

    #[test]
    fn policy_declines_small_or_halo_dominated_jobs() {
        let p = ShardPolicy {
            min_points: 1000,
            max_shards: 8,
            min_slab: 4,
        };
        assert_eq!(p.shards_for(999, 100, 1), 1, "too few points");
        assert_eq!(p.shards_for(10_000, 100, 40), 1, "halo swallows the slab");
        assert!(p.shards_for(10_000, 100, 1) > 1);
        assert!(p.shards_for(10_000, 100, 1) <= 8);
    }

    #[test]
    fn sharded_2d_is_bit_identical_across_methods() {
        // deliberately awkward extent (97 rows: not a lane multiple, so
        // the full run has a scalar top-remainder the edge slab must
        // reproduce) across both executor families
        let g = Grid2D::from_fn(97, 60, |y, x| ((y * 31 + x * 7) % 23) as f64 * 0.5);
        let t = 5;
        for (method, tiling, threads) in [
            (Method::Scalar, Tiling::None, 1),
            (
                Method::MultipleLoads,
                Tiling::Tessellate { time_block: 2 },
                3,
            ),
            (Method::MultipleLoads, Tiling::Spatial { block: (8, 16) }, 2),
            (Method::TransposeLayout, Tiling::None, 1),
            (Method::Folded { m: 2 }, Tiling::None, 1),
        ] {
            let plan = Solver::new(kernels::box2d9p())
                .method(method)
                .tiling(tiling)
                .threads(threads)
                .compile()
                .unwrap();
            assert!(shardable(&plan), "{method:?}/{tiling:?}");
            let want = plan.run_2d(&g, t).unwrap();
            let lanes = lane_plans(&plan, 3).unwrap();
            for shards in [1, 2, 3] {
                let got = sharded_2d(&lanes, &g, t, shards);
                assert_eq!(
                    bits2d(&want),
                    bits2d(&got),
                    "{method:?}/{tiling:?} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_3d_is_bit_identical() {
        let g = Grid3D::from_fn(26, 12, 16, |z, y, x| ((z * 5 + y * 3 + x) % 11) as f64);
        for (method, tiling, threads) in [
            (
                Method::MultipleLoads,
                Tiling::Tessellate { time_block: 2 },
                2,
            ),
            (Method::Folded { m: 2 }, Tiling::None, 1),
        ] {
            let plan = Solver::new(kernels::heat3d())
                .method(method)
                .tiling(tiling)
                .threads(threads)
                .compile()
                .unwrap();
            assert!(shardable(&plan), "{method:?}/{tiling:?}");
            let want = plan.run_3d(&g, 4).unwrap();
            let lanes = lane_plans(&plan, 2).unwrap();
            let got = sharded_3d(&lanes, &g, 4, 2);
            assert_eq!(bits3d(&want), bits3d(&got), "{method:?}/{tiling:?}");
        }
    }

    #[test]
    fn non_shardable_configurations_are_refused() {
        // DLT transforms the whole array
        let plan = Solver::new(kernels::heat2d())
            .method(Method::Dlt)
            .tiling(Tiling::Split { time_block: 2 })
            .compile()
            .unwrap();
        assert!(!shardable(&plan));
        // 1D has no outer axis to cut
        let plan1d = Solver::new(kernels::heat1d()).compile().unwrap();
        assert!(!shardable(&plan1d));
    }

    #[test]
    fn sharded_register_pipelines_under_tessellate_are_bit_identical() {
        // the origin-anchored tile geometry: register plans now shard
        // under tessellate tiling, bit for bit, with the widened halo
        let g = Grid2D::from_fn(203, 72, |y, x| ((y * 29 + x * 11) % 31) as f64 * 0.25);
        let t = 6;
        for (method, tb) in [
            (Method::Folded { m: 2 }, 2usize),
            (Method::TransposeLayout, 3),
        ] {
            let plan = Solver::new(kernels::box2d9p())
                .method(method)
                .tiling(Tiling::Tessellate { time_block: tb })
                .threads(2)
                .compile()
                .unwrap();
            assert!(shardable(&plan), "{method:?}");
            let want = plan.run_2d(&g, t).unwrap();
            let lanes = lane_plans(&plan, 4).unwrap();
            for shards in [1usize, 2, 3, 4] {
                let got = sharded_2d(&lanes, &g, t, shards);
                assert_eq!(bits2d(&want), bits2d(&got), "{method:?} shards={shards}");
            }
        }
    }

    #[test]
    fn sharded_3d_zring_under_tessellate_is_bit_identical() {
        // the z-ring pipeline sharded along z under tessellate tiling —
        // the combination this PR exists for
        let g = Grid3D::from_fn(96, 20, 24, |z, y, x| ((z * 13 + y * 7 + x * 3) % 17) as f64);
        for (p, m, t) in [
            (kernels::heat3d(), 2usize, 4usize),
            (kernels::box3d27p(), 2, 5), // odd t: exercises the unfolded tail rounds
        ] {
            let plan = Solver::new(p)
                .method(Method::Folded { m })
                .tiling(Tiling::Tessellate { time_block: 2 })
                .threads(2)
                .compile()
                .unwrap();
            assert!(shardable(&plan));
            let want = plan.run_3d(&g, t).unwrap();
            let lanes = lane_plans(&plan, 3).unwrap();
            for shards in [2usize, 3] {
                let got = sharded_3d(&lanes, &g, t, shards);
                assert_eq!(bits3d(&want), bits3d(&got), "shards={shards} t={t}");
            }
        }
    }

    #[test]
    fn sharded_2d_on_a_grid_the_width_rule_cuts_is_bit_identical() {
        // every grid above is one tile under the production width rule,
        // so its lanes never meet a tile edge. 4096-wide rows leave 16 of
        // them in a tile's budget: fold2 at time block 4 runs at that
        // width as its floor (tips below a vector take the scalar path),
        // the transpose layout at twice its floor of 6 — nine tiles along
        // the 136 rows, and lanes whose halo is the real tile width. The
        // general box and an inexact field: with dyadic weights and data
        // every path is exact and a halo too short would go unnoticed
        let g = Grid2D::from_fn(136, 4096, |y, x| (y as f64 * 0.37 + x as f64 * 0.011).sin());
        for (method, tb, t) in [
            (Method::Folded { m: 2 }, 4usize, 7usize), // odd t: tail rounds too
            (Method::TransposeLayout, 3, 4),
        ] {
            let plan = Solver::new(kernels::gb())
                .method(method)
                .tiling(Tiling::Tessellate { time_block: tb })
                .threads(2)
                .compile()
                .unwrap();
            assert_eq!(shard_geometry(&plan, t, 136, &[4096]).0, t + 16);
            let want = plan.run_2d(&g, t).unwrap();
            let lanes = lane_plans(&plan, 3).unwrap();
            for shards in [2usize, 3] {
                let got = sharded_2d(&lanes, &g, t, shards);
                assert_eq!(bits2d(&want), bits2d(&got), "{method:?} shards={shards}");
            }
        }
    }

    #[test]
    fn sharded_3d_across_tile_edges_needs_only_the_classic_halo() {
        // 64 x 66 planes: fold2 at time block 4 tiles z at its floor of 16
        // planes, so 56 planes are four tiles and every lane crosses tile
        // edges the full run does not cut where the lane does. The lanes
        // carry no tessellate widening (halo = t * r): z-only tiles keep y
        // and x whole, and the ring kernel's bits do not depend on how z
        // is partitioned. Odd t: the tail rounds run the m = 1 kernel.
        let g = Grid3D::from_fn(56, 64, 66, |z, y, x| {
            (z as f64 * 0.41 + y as f64 * 0.23 + x as f64 * 0.07).sin()
        });
        let t = 5;
        let plan = Solver::new(kernels::heat3d())
            .method(Method::Folded { m: 2 })
            .tiling(Tiling::Tessellate { time_block: 4 })
            .threads(2)
            .compile()
            .unwrap();
        assert_eq!(shard_geometry(&plan, t, 56, &[64, 66]), (t, 0));
        let want = plan.run_3d(&g, t).unwrap();
        let lanes = lane_plans(&plan, 3).unwrap();
        for shards in [2usize, 3] {
            let got = sharded_3d(&lanes, &g, t, shards);
            assert_eq!(bits3d(&want), bits3d(&got), "shards={shards}");
        }
    }

    #[test]
    fn span_guard_sheds_shards_instead_of_diverging() {
        // a domain too small for the requested shard count under the
        // widened tessellate halo must still be bit-exact (fewer slabs
        // are executed, never wrong ones)
        let g = Grid3D::from_fn(28, 16, 20, |z, y, x| ((z + y * 3 + x) % 7) as f64);
        let plan = Solver::new(kernels::heat3d())
            .method(Method::Folded { m: 2 })
            .tiling(Tiling::Tessellate { time_block: 4 })
            .compile()
            .unwrap();
        let want = plan.run_3d(&g, 6).unwrap();
        let lanes = lane_plans(&plan, 4).unwrap();
        let got = sharded_3d(&lanes, &g, 6, 4);
        assert_eq!(bits3d(&want), bits3d(&got));
    }

    #[test]
    fn short_outer_axis_degrades_workers_not_slab_geometry() {
        // nz < SLAB_ALIGN * workers: the aligned slab starts of
        // neighbouring shards collapse, so each worker would re-run
        // (almost) the whole domain for a sliver of interior. The
        // effective shard count must degrade to one aligned slab per
        // worker — and the stitched result must stay bit-exact.
        let nz = 20;
        let workers = 4;
        assert!(nz < SLAB_ALIGN * workers);
        assert_eq!(effective_shards(nz, workers, 2, 1, 0), nz / SLAB_ALIGN);
        // below a single aligned slab the job is not sharded at all
        assert_eq!(effective_shards(6, workers, 1, 1, 0), 1);

        let g = Grid3D::from_fn(nz, 18, 24, |z, y, x| ((z * 7 + y * 5 + x) % 13) as f64);
        for (method, tiling) in [
            (Method::Folded { m: 2 }, Tiling::None),
            (Method::MultipleLoads, Tiling::Tessellate { time_block: 2 }),
        ] {
            let plan = Solver::new(kernels::heat3d())
                .method(method)
                .tiling(tiling)
                .compile()
                .unwrap();
            let want = plan.run_3d(&g, 4).unwrap();
            let lanes = lane_plans(&plan, workers).unwrap();
            let got = sharded_3d(&lanes, &g, 4, workers);
            assert_eq!(bits3d(&want), bits3d(&got), "{method:?}/{tiling:?}");
        }
    }

    #[test]
    fn lane_plans_inherit_the_ring_geometry() {
        let plan = Solver::new(kernels::box3d27p())
            .method(Method::Folded { m: 2 })
            .ring3(stencil_core::Ring3 { depth: 5, slab: 3 })
            .compile()
            .unwrap();
        let lanes = lane_plans(&plan, 2).unwrap();
        for lane in &lanes {
            assert_eq!(lane.ring3(), plan.ring3());
        }
    }
}
