//! Candidate generation for the probe search.
//!
//! Exhaustive search over method × width × time block × spatial tiles
//! would cost seconds per compile; instead the §3.2 op-collect cost
//! model ranks the methods first (the same model `Method::Auto` uses
//! statically), the generator keeps the top-K, and each kept method
//! gets a small *neighborhood* of tiling parameters around the static
//! default. The probe harness walks the list in order and stops when
//! its time budget runs out, so the best-predicted configurations are
//! always measured first and an exhausted budget degrades toward the
//! cost model's own choice rather than toward noise.
//!
//! Everything here is *policy* — which configurations are worth a
//! probe, in which order. Which ones a pattern admits is
//! [`PlanConfig::validate`]'s call alone: the generator proposes, the
//! rule table filters, so an emitted candidate always compiles.

use stencil_core::tune::{auto_tiling, default_time_block};
use stencil_core::{cost, kernels, Method, Pattern, PlanConfig, Ring3, Tiling, Width};

/// One concrete configuration the probe harness can compile and time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The configuration: no axis open, and `ring3` is `Some` only for
    /// a 3D register method whose geometry departs from the static
    /// [`Ring3::auto`] default (`None` = that default).
    pub config: PlanConfig,
    /// The cost-model score that ranked this candidate's method
    /// (higher = predicted better); kept for reporting.
    pub score: f64,
}

/// Rank the methods the executors support for `p` by the cost model's
/// predicted arithmetic saving, best first. The absolute numbers only
/// order the search — the probes decide.
pub fn ranked_methods(p: &Pattern) -> Vec<(Method, f64)> {
    let mut out: Vec<(Method, f64)> = Vec::new();
    // Temporal folding saves `profitability` arithmetic per folded
    // update (Eq. 3) — the model's headline prediction.
    out.push((Method::Folded { m: 2 }, cost::profitability(p, 2)));
    // Single-step register pipeline: shifts reuse only (Fig. 6).
    out.push((Method::TransposeLayout, cost::shift_reuse_profitability(p)));
    // The baseline every figure normalizes to.
    out.push((Method::MultipleLoads, 1.0));
    if p.dims() == 1 {
        // DLT's aligned loads beat multiple-loads only when shuffles
        // dominate — rank it just above the baseline so a probe gets a
        // chance at it in 1D, where the SDSL configuration exists.
        out.push((Method::Dlt, 1.05));
    }
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    out
}

/// Width-aware method ranking: [`ranked_methods`] plus a `Folded { m: 3 }`
/// probe wherever `p` admits it at `width`. The m = 3 fold saves more
/// arithmetic than m = 2 whenever its wider counterpart schedule still
/// fits the registers, but only a probe can tell whether the extra
/// register pressure pays off on a given host — so it enters the
/// measured search, never the static resolver.
pub fn ranked_methods_at(p: &Pattern, width: Width) -> Vec<(Method, f64)> {
    let mut out = ranked_methods(p);
    let fold3 = PlanConfig {
        method: Method::Folded { m: 3 },
        tiling: Tiling::Auto,
        width,
        ring3: None,
    };
    if fold3.validate(p).is_ok() {
        out.push((fold3.method, cost::profitability(p, 3)));
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    }
    out
}

/// The time-block neighborhood around the static default: the default
/// and its halvings/doublings, deduplicated, nearest-first.
fn time_blocks(dims: usize) -> Vec<usize> {
    let d = default_time_block(dims);
    let mut out = vec![d, d / 2, d * 2, d * 4];
    out.retain(|&tb| tb >= 1);
    out.dedup();
    out
}

/// Widths to probe: the requested width, plus 4 lanes when 8 were
/// requested — AVX-512 downclocking makes "wider" and "faster" distinct
/// questions, which is much of why measured tuning exists.
fn widths(requested: Width) -> Vec<Width> {
    match requested {
        Width::W8 => vec![Width::W8, Width::W4],
        w => vec![w],
    }
}

/// Z-ring geometry candidates for one 3D register method: the static
/// default (`None`, resolved to [`Ring3::auto`] at compile time) plus
/// two neighborhood moves — a shallow/narrow pane for cache-tight hosts
/// and a deep/wide one for bandwidth-bound ones. Non-3D or non-register
/// configurations have no ring axis.
fn rings_for(method: Method, dims: usize, fixed_ring: Option<Ring3>) -> Vec<Option<Ring3>> {
    if dims != 3 || !method.is_register() {
        // the ring axis only exists for 3D register pipelines: a pinned
        // ring must not leak onto methods that cannot execute one (the
        // [`Candidate::config`] "None elsewhere" contract)
        return vec![None];
    }
    if let Some(r) = fixed_ring {
        return vec![Some(r)];
    }
    vec![
        None,
        Some(Ring3 { depth: 4, slab: 2 }),
        Some(Ring3 { depth: 16, slab: 8 }),
    ]
}

/// Generate the ordered candidate list for a tuning `request`.
///
/// The axes `request` pins (a concrete method or tiling, a `Some` ring)
/// are kept as they are: only the open ones are searched. The 3D
/// register methods additionally search the z-ring axes (z-strip depth
/// × x-slab width: the static default plus two neighborhood moves).
/// `top_k` bounds how many cost-model-ranked methods enter the search
/// (the budget usually bites first); methods the pinned axes rule out
/// do not count against it, so a request that validates always has a
/// candidate.
pub fn generate(p: &Pattern, request: &PlanConfig, threads: usize, top_k: usize) -> Vec<Candidate> {
    let dims = p.dims();
    let admits = |config: &PlanConfig| config.validate(p).is_ok();
    let methods: Vec<(Method, f64)> = match (request.method, request.tiling) {
        // split tiling admits only DLT (the SDSL configuration) in any
        // dimensionality, which the ranked list omits for 2D/3D
        (Method::Auto, Tiling::Split { .. }) => vec![(Method::Dlt, f64::NAN)],
        (Method::Auto, _) => ranked_methods_at(p, request.width)
            .into_iter()
            .filter(|&(method, _)| admits(&PlanConfig { method, ..*request }))
            .take(top_k.max(1))
            .collect(),
        (m, _) => vec![(m, f64::NAN)],
    };
    // Width is only an open axis on full-auto requests: a caller who
    // pinned the method is comparing configurations (e.g. the fig9
    // AVX-512 column) and must get exactly the width they asked for.
    let widths = if request.method == Method::Auto {
        widths(request.width)
    } else {
        vec![request.width]
    };
    let mut out = Vec::new();
    for (method, score) in methods {
        let tilings: Vec<Tiling> = match request.tiling {
            Tiling::Auto => tilings_for(method, dims, threads),
            t => vec![t],
        };
        for tiling in tilings {
            // the width neighborhood can narrow below what a deep fold
            // needs (m = 3 at 8 lanes does not fit 4): the rule table
            // drops those per width
            for &width in &widths {
                for ring3 in rings_for(method, dims, request.ring3) {
                    let config = PlanConfig {
                        method,
                        tiling,
                        width,
                        ring3,
                    };
                    if admits(&config) {
                        out.push(Candidate { config, score });
                    }
                }
            }
        }
    }
    out
}

/// Hill-climb neighborhood around an `incumbent` configuration — the
/// challenger generator for online retuning. Unlike [`generate`], which
/// searches outward from the *cost model's* ranking, this searches
/// outward from a configuration that already won a probe: the incumbent
/// itself first (a fresh measurement under today's conditions), then
/// every single-axis move — time block halved/doubled, z-ring
/// depth/slab halved/doubled, the width narrowed — and finally the
/// top-ranked *other* methods, at the incumbent's tiling where the rule
/// table admits it and at their natural tiling otherwise (DLT pairs
/// with split tiling). The method alternates deliberately ignore
/// probe-history dominance: a dominated method re-enters here, so a
/// changed machine or drifted workload gets its periodic re-probe for
/// free.
pub fn neighborhood(
    p: &Pattern,
    incumbent: &PlanConfig,
    threads: usize,
    top_k: usize,
) -> Vec<Candidate> {
    let dims = p.dims();
    let mut out: Vec<Candidate> = Vec::new();
    let mut push = |config: PlanConfig, score: f64| {
        // dedup on the configuration only: the same move can be reached
        // with different (or NaN) scores
        if config.validate(p).is_ok() && !out.iter().any(|e| e.config == config) {
            out.push(Candidate { config, score });
        }
    };
    let mut step = |config: PlanConfig| push(config, f64::NAN);
    step(*incumbent);
    // single-axis tiling moves
    let tb_moves = |tb: usize| [tb * 2, tb / 2].into_iter().filter(|&t| t >= 1);
    let tilings: Vec<Tiling> = match incumbent.tiling {
        Tiling::Tessellate { time_block } => tb_moves(time_block)
            .map(|time_block| Tiling::Tessellate { time_block })
            .collect(),
        Tiling::Split { time_block } => tb_moves(time_block)
            .map(|time_block| Tiling::Split { time_block })
            .collect(),
        Tiling::Spatial { block: (a, b) } => {
            [(a * 2, b), (a.max(2) / 2, b), (a, b * 2), (a, b.max(2) / 2)]
                .map(|block| Tiling::Spatial { block })
                .into()
        }
        // block-free incumbent: tiling at the static default is the
        // one move on this axis
        Tiling::None | Tiling::Auto => vec![Tiling::Tessellate {
            time_block: default_time_block(dims),
        }],
    };
    for tiling in tilings {
        step(PlanConfig {
            tiling,
            ..*incumbent
        });
    }
    // single-axis z-ring moves (3D register methods only)
    for ring3 in match incumbent.ring3 {
        Some(r) => vec![
            Some(Ring3 {
                depth: r.depth * 2,
                ..r
            }),
            Some(Ring3 {
                depth: r.depth.max(2) / 2,
                ..r
            }),
            Some(Ring3 {
                slab: r.slab * 2,
                ..r
            }),
            Some(Ring3 {
                slab: r.slab.max(2) / 2,
                ..r
            }),
        ],
        None => rings_for(incumbent.method, dims, None),
    } {
        step(PlanConfig {
            ring3,
            ..*incumbent
        });
    }
    // width narrowing (the W8-vs-W4 downclocking question, revisited)
    if incumbent.width == Width::W8 {
        step(PlanConfig {
            width: Width::W4,
            ..*incumbent
        });
    }
    // method alternates where the incumbent runs — a block-free key
    // compares block-free methods — including methods the probe history
    // has marked dominated
    for (method, score) in ranked_methods_at(p, incumbent.width)
        .into_iter()
        .take(top_k.max(1))
    {
        if method == incumbent.method {
            continue;
        }
        for ring3 in rings_for(method, dims, None) {
            let at = |tiling| PlanConfig {
                method,
                tiling,
                width: incumbent.width,
                ring3,
            };
            let config = Some(at(incumbent.tiling))
                .filter(|c| c.validate(p).is_ok())
                .unwrap_or_else(|| at(auto_tiling(dims, method, threads)));
            push(config, score);
        }
    }
    out
}

/// Tiling candidates for one method: its natural pairing first, then
/// the neighborhood moves. Proposals only — the rule table drops what
/// the dimensionality does not admit (block-free DLT beyond 1D, spatial
/// blocking in 1D).
fn tilings_for(method: Method, dims: usize, threads: usize) -> Vec<Tiling> {
    let time_blocks = time_blocks(dims).into_iter();
    if method == Method::Dlt {
        // DLT pairs with split tiling (SDSL), then runs block-free.
        return time_blocks
            .map(|time_block| Tiling::Split { time_block })
            .chain([Tiling::None])
            .collect();
    }
    let mut out: Vec<Tiling> = time_blocks
        .map(|time_block| Tiling::Tessellate { time_block })
        .collect();
    // Block-free is competitive single-threaded and for small grids.
    if threads == 1 {
        out.push(Tiling::None);
    }
    // Plain spatial blocking, for the vector/scalar kernel families:
    // two representative tile shapes.
    if matches!(method, Method::MultipleLoads | Method::Scalar) {
        out.push(Tiling::Spatial { block: (8, 64) });
        out.push(Tiling::Spatial { block: (16, 128) });
    }
    out
}

/// Every candidate list is non-trivial for the Table-1 kernels; used by
/// tests and kept here so the invariant lives next to the generator.
pub fn table1_patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("1D-Heat", kernels::heat1d()),
        ("1D5P", kernels::d1p5()),
        ("2D-Heat", kernels::heat2d()),
        ("2D9P", kernels::box2d9p()),
        ("GB", kernels::gb()),
        ("3D-Heat", kernels::heat3d()),
        ("3D27P", kernels::box3d27p()),
        ("3D125P", kernels::box3d125p()),
        ("3DStar-R2", kernels::star3d_r2()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::open_config as open;
    use stencil_core::tune::TuneRequest;
    use stencil_core::{Solver, Tuning};

    #[test]
    fn cost_model_seeds_a_profitable_leader() {
        // the top-ranked method always predicts a real saving, and the
        // paper's showcase kernels (dense boxes, where folding shines)
        // put temporal folding first; 3D-Heat legitimately ranks
        // shifts-reuse above folding (sparse star, deep column reuse)
        for (name, p) in table1_patterns() {
            let ranked = ranked_methods(&p);
            assert!(ranked[0].1 > 1.0, "{name}");
            assert!(
                ranked
                    .iter()
                    .any(|&(m, s)| m == Method::Folded { m: 2 } && s > 1.0),
                "{name}: folding must be in the pool"
            );
        }
        for p in [kernels::box2d9p(), kernels::box3d27p()] {
            assert_eq!(ranked_methods(&p)[0].0, Method::Folded { m: 2 });
        }
    }

    #[test]
    fn generator_respects_fixed_axes() {
        let p = kernels::heat2d();
        let request = PlanConfig {
            method: Method::TransposeLayout,
            ..open(Width::W4)
        };
        let only_tiling = generate(&p, &request, 4, 3);
        assert!(!only_tiling.is_empty());
        assert!(only_tiling
            .iter()
            .all(|c| c.config.method == Method::TransposeLayout));
        let request = PlanConfig {
            tiling: Tiling::Tessellate { time_block: 6 },
            ..open(Width::W4)
        };
        let only_method = generate(&p, &request, 4, 3);
        assert!(!only_method.is_empty());
        assert!(only_method
            .iter()
            .all(|c| c.config.tiling == Tiling::Tessellate { time_block: 6 }));
    }

    #[test]
    fn every_candidate_compiles() {
        // a candidate that does not compile is a generator bug: the
        // rule table filtered it, and the rule table is what compiles
        for (name, p) in table1_patterns() {
            for threads in [1, 4] {
                let generated = generate(&p, &open(Width::native_max()), threads, 4);
                assert!(!generated.is_empty(), "{name}");
                let incumbent = Solver::new(p.clone())
                    .method(Method::Auto)
                    .tiling(Tiling::Auto)
                    .threads(threads)
                    .compile()
                    .unwrap()
                    .config();
                let moves = neighborhood(&p, &incumbent, threads, 4);
                assert_eq!(moves[0].config, incumbent, "{name}");
                for c in generated.iter().chain(&moves) {
                    let plan = Solver::new(p.clone())
                        .with_config(c.config)
                        .compile()
                        .unwrap_or_else(|e| panic!("{name}: {c:?} -> {e}"));
                    // the ring axis exists for 3D register methods only
                    if c.config.ring3.is_some() {
                        assert!(p.dims() == 3 && c.config.method.is_register(), "{c:?}");
                        assert_eq!(plan.ring3(), c.config.ring3);
                    }
                }
            }
        }
    }

    #[test]
    fn method_alternates_of_a_block_free_incumbent_survive_a_block_free_pin() {
        // alternates proposed at the tessellated `auto_tiling` of a
        // two-thread pool all contradict a request that pins block-free
        // sweeps, and the challenge would drop every one before probing
        let p = kernels::heat2d();
        let request = PlanConfig {
            tiling: Tiling::None,
            ..open(Width::W4)
        };
        let incumbent = Solver::new(p.clone())
            .with_config(request)
            .threads(2)
            .compile()
            .unwrap()
            .config();
        assert_eq!(incumbent.tiling, Tiling::None);
        let req = TuneRequest {
            pattern: &p,
            config: request,
            threads: 2,
            domain_hint: None,
            mode: Tuning::Measured,
        };
        let moves = neighborhood(&p, &incumbent, 2, 4);
        assert!(
            moves
                .iter()
                .any(|c| req.admits(&c.config) && c.config.method != incumbent.method),
            "{moves:?}"
        );
    }

    #[test]
    fn a_request_that_validates_always_has_a_candidate() {
        // pinned axes that rule out the top-ranked methods must not
        // starve the search: spatial blocking admits none of the
        // register methods the cost model ranks first
        let spatial = Tiling::Spatial { block: (8, 64) };
        for p in [kernels::heat2d(), kernels::box3d27p()] {
            let request = PlanConfig {
                tiling: spatial,
                ..open(Width::W4)
            };
            request.validate(&p).unwrap();
            let cands = generate(&p, &request, 4, 3);
            assert!(!cands.is_empty(), "dims {}", p.dims());
            assert!(cands.iter().all(|c| c.config.tiling == spatial));
        }
        // ...and one that does not validate has none to waste a probe on
        let request = PlanConfig {
            tiling: spatial,
            ..open(Width::W4)
        };
        assert!(generate(&kernels::heat1d(), &request, 4, 3).is_empty());
    }

    #[test]
    fn fixed_split_tiling_yields_dlt_candidates_in_any_dimension() {
        // regression: split tiling admits only DLT, which the ranked
        // method list omits for 2D/3D — the generator must still
        // produce compilable candidates (the SDSL configuration)
        for p in [kernels::heat1d(), kernels::heat2d(), kernels::heat3d()] {
            let request = PlanConfig {
                tiling: Tiling::Split { time_block: 4 },
                ..open(Width::W4)
            };
            let cands = generate(&p, &request, 4, 3);
            assert!(!cands.is_empty(), "dims {}", p.dims());
            assert!(cands.iter().all(|c| c.config.method == Method::Dlt));
            for c in &cands {
                Solver::new(p.clone())
                    .with_config(c.config)
                    .compile()
                    .unwrap();
            }
        }
    }

    #[test]
    fn spatial_candidates_only_in_2d_plus_and_vector_family() {
        let c1 = generate(&kernels::heat1d(), &open(Width::W4), 4, 4);
        assert!(c1
            .iter()
            .all(|c| !matches!(c.config.tiling, Tiling::Spatial { .. })));
        let c2 = generate(&kernels::heat2d(), &open(Width::W4), 4, 4);
        assert!(c2
            .iter()
            .filter(|c| matches!(c.config.tiling, Tiling::Spatial { .. }))
            .all(|c| matches!(c.config.method, Method::MultipleLoads | Method::Scalar)));
    }

    #[test]
    fn folded_m3_enters_the_pool_by_radius_and_width() {
        let has_m3 = |p: &Pattern, w: Width| {
            generate(p, &open(w), 4, 8)
                .iter()
                .any(|c| c.config.method == Method::Folded { m: 3 })
        };
        // 1D cap is one radius cell per lane: heat1d (r = 1) folds to
        // radius 3, which fits 4 and 8 lanes alike...
        assert!(has_m3(&kernels::heat1d(), Width::W4));
        assert!(has_m3(&kernels::heat1d(), Width::W8));
        // ...while d1p5 (r = 2) folds to radius 6 — beyond 4 lanes,
        // within 8: the candidate must appear and disappear with width.
        assert!(!has_m3(&kernels::d1p5(), Width::W4));
        assert!(has_m3(&kernels::d1p5(), Width::W8));
        // the deeper 3D fold window (MAX_R3 = 4) admits three-step
        // folds of the radius-1 star at vector widths...
        assert!(has_m3(&kernels::heat3d(), Width::W8));
        assert!(has_m3(&kernels::heat3d(), Width::W4));
        // ...but a radius-2 box at m = 3 reaches radius 6, beyond it
        assert!(!has_m3(&kernels::box3d125p(), Width::W8));
        // the width neighborhood narrows per candidate: m = 3 of d1p5
        // is offered at 8 lanes and never at 4 — so each one compiles
        for c in generate(&kernels::d1p5(), &open(Width::W8), 4, 8) {
            if c.config.method == (Method::Folded { m: 3 }) {
                assert_eq!(c.config.width, Width::W8);
                Solver::new(kernels::d1p5())
                    .with_config(c.config)
                    .compile()
                    .unwrap();
            }
        }
    }

    #[test]
    fn width_neighborhood_narrows_from_w8() {
        let c = generate(&kernels::heat1d(), &open(Width::W8), 1, 1);
        assert!(c.iter().any(|x| x.config.width == Width::W8));
        assert!(c.iter().any(|x| x.config.width == Width::W4));
        let c4 = generate(&kernels::heat1d(), &open(Width::W4), 1, 1);
        assert!(c4.iter().all(|x| x.config.width == Width::W4));
    }

    #[test]
    fn ring_axis_searched_only_for_3d_register_methods() {
        let folded = |c: &&Candidate| matches!(c.config.method, Method::Folded { .. });
        let vector = |c: &&Candidate| c.config.method == Method::MultipleLoads;
        // 3D register candidates carry ring neighborhood moves...
        let c3 = generate(&kernels::heat3d(), &open(Width::W4), 4, 4);
        assert!(c3.iter().filter(folded).any(|c| c.config.ring3.is_some()));
        assert!(c3.iter().filter(folded).any(|c| c.config.ring3.is_none()));
        // ...the vector family and lower dimensionalities never do
        assert!(c3.iter().filter(vector).all(|c| c.config.ring3.is_none()));
        let c2 = generate(&kernels::heat2d(), &open(Width::W4), 4, 4);
        assert!(c2.iter().all(|c| c.config.ring3.is_none()));
        // a pinned ring collapses the axis...
        let pinned = PlanConfig {
            ring3: Some(Ring3 { depth: 6, slab: 3 }),
            ..open(Width::W4)
        };
        let cp = generate(&kernels::heat3d(), &pinned, 4, 4);
        assert!(cp
            .iter()
            .filter(|c| c.config.method.is_register())
            .all(|c| c.config.ring3 == pinned.ring3));
        // ...but never leaks onto methods (or dimensionalities) that
        // cannot execute a ring
        assert!(cp.iter().filter(vector).all(|c| c.config.ring3.is_none()));
        let cp2 = generate(&kernels::heat2d(), &pinned, 4, 4);
        assert!(cp2.iter().all(|c| c.config.ring3.is_none()));
    }

    #[test]
    fn deeper_fold_window_keeps_m2_selectable_for_radius2_3d() {
        // the MAX_R3 = 4 window exists so folded m = 2 stays available
        // for radius-2 3D stencils (folded radius 4)
        let p = kernels::box3d125p();
        let fold = |m: usize, width: Width| PlanConfig {
            method: Method::Folded { m },
            ..open(width)
        };
        fold(2, Width::W4).validate(&p).unwrap();
        fold(2, Width::W8).validate(&p).unwrap();
        assert!(
            fold(3, Width::W8).validate(&p).is_err(),
            "radius 6 exceeds the window"
        );
        let cands = generate(&p, &open(Width::W4), 4, 8);
        let mut m2 = cands
            .iter()
            .filter(|c| c.config.method == Method::Folded { m: 2 })
            .peekable();
        assert!(m2.peek().is_some());
        // and every emitted m = 2 candidate compiles with its ring
        for c in m2 {
            let plan = Solver::new(p.clone())
                .with_config(c.config)
                .compile()
                .unwrap();
            assert!(plan.ring3().is_some());
        }
    }
}
