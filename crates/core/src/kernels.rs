//! The nine benchmark stencils of the paper (Table 1) plus their
//! experiment parameters.
//!
//! Star stencils: 1D-Heat, 2D-Heat, 3D-Heat. Box stencils: 1D5P, 2D9P,
//! 3D27P. Real-world kernels: APOP (American put option pricing, 1D3P
//! over two arrays), Game of Life (8-neighbour automaton), GB (general
//! box: 9 distinct weights, the paper's stress test for folding).

use crate::pattern::Pattern;

/// 1D 3-point heat stencil: `0.25, 0.5, 0.25`.
pub fn heat1d() -> Pattern {
    Pattern::new_1d(&[0.25, 0.5, 0.25])
}

/// 1D 5-point stencil (radius 2), binomial weights.
pub fn d1p5() -> Pattern {
    Pattern::new_1d(&[0.0625, 0.25, 0.375, 0.25, 0.0625])
}

/// Linear part of the APOP binomial update (1D 3-point): the `max` with
/// the payoff array is applied by the APOP executor on top of this.
pub fn apop_linear() -> Pattern {
    // risk-neutral binomial weights with a discount factor < 1
    Pattern::new_1d(&[0.4975, 0.0, 0.4975])
}

/// 2D 5-point heat stencil (star): center 0.5, axis neighbours 0.125.
pub fn heat2d() -> Pattern {
    Pattern::new_2d(1, &[0.0, 0.125, 0.0, 0.125, 0.5, 0.125, 0.0, 0.125, 0.0])
}

/// 2D 9-point box stencil, uniform weight 1/9 (Fig. 5's kernel).
pub fn box2d9p() -> Pattern {
    Pattern::new_2d(1, &[1.0 / 9.0; 9])
}

/// Neighbour-count pattern for Game of Life: 8 ones, zero center.
/// The automaton rule itself is nonlinear and lives in the Life executor.
pub fn life_count() -> Pattern {
    Pattern::new_2d(1, &[1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0])
}

/// GB — general box: an asymmetric 2D9P stencil with 9 distinct weights
/// (the paper's stress test: no column of the folding matrix is a
/// multiple of another).
pub fn gb() -> Pattern {
    Pattern::new_2d(1, &[0.01, 0.03, 0.05, 0.07, 0.53, 0.11, 0.09, 0.06, 0.05])
}

/// 3D 7-point heat stencil (star): center 0.4, axis neighbours 0.1.
pub fn heat3d() -> Pattern {
    let mut w = vec![0.0; 27];
    let idx = |dz: usize, dy: usize, dx: usize| dz * 9 + dy * 3 + dx;
    w[idx(1, 1, 1)] = 0.4;
    for (dz, dy, dx) in [
        (0, 1, 1),
        (2, 1, 1),
        (1, 0, 1),
        (1, 2, 1),
        (1, 1, 0),
        (1, 1, 2),
    ] {
        w[idx(dz, dy, dx)] = 0.1;
    }
    Pattern::new_3d(1, &w)
}

/// 3D 27-point box stencil, uniform weight 1/27.
pub fn box3d27p() -> Pattern {
    Pattern::new_3d(1, &[1.0 / 27.0; 27])
}

/// 3D 125-point box stencil (radius 2), uniform weight 1/125 — the
/// larger-radius 3D workload the deeper fold window (`MAX_R3 = 4`)
/// exists for: folded `m = 2` reaches radius 4 and stays separable.
pub fn box3d125p() -> Pattern {
    Pattern::new_3d(2, &[1.0 / 125.0; 125])
}

/// 3D 13-point star stencil of radius 2: center 0.4, axis neighbours
/// 0.08 at distance 1 and 0.02 at distance 2. The radius-2 *star*
/// companion to [`box3d125p`] — same deep fold window (folded `m = 2`
/// reaches radius 4 = `MAX_R3`), but load-bound like [`heat3d`], so it
/// stresses the ring pipeline's plane reuse rather than its arithmetic.
pub fn star3d_r2() -> Pattern {
    let mut w = vec![0.0; 125];
    let idx = |dz: usize, dy: usize, dx: usize| dz * 25 + dy * 5 + dx;
    w[idx(2, 2, 2)] = 0.4;
    for (axis, weight) in [(1usize, 0.08), (2usize, 0.02)] {
        for (dz, dy, dx) in [
            (2 - axis, 2, 2),
            (2 + axis, 2, 2),
            (2, 2 - axis, 2),
            (2, 2 + axis, 2),
            (2, 2, 2 - axis),
            (2, 2, 2 + axis),
        ] {
            w[idx(dz, dy, dx)] = weight;
        }
    }
    Pattern::new_3d(2, &w)
}

/// A kernel by name: `(short, paper, pattern)`. The short name is what
/// manifests, the wire protocol and the conformance harness use; the
/// paper name is what Table 1 prints.
pub type Named = (&'static str, &'static str, fn() -> Pattern);

/// Table 1's linear kernels and the radius-2 3D pair, in table order.
/// APOP and Game of Life are not here: their patterns are only the
/// linear part of a nonlinear update.
pub const NAMED: [Named; 9] = [
    ("heat1d", "1D-Heat", heat1d),
    ("d1p5", "1D5P", d1p5),
    ("heat2d", "2D-Heat", heat2d),
    ("box2d9p", "2D9P", box2d9p),
    ("gb", "GB", gb),
    ("heat3d", "3D-Heat", heat3d),
    ("box3d27p", "3D27P", box3d27p),
    ("box3d125p", "3D125P", box3d125p),
    ("star3d_r2", "3DStar-R2", star3d_r2),
];

/// The pattern of a [`NAMED`] short name, or of `star3d`, an alias of
/// `heat3d` (the 3D heat star).
pub fn by_name(name: &str) -> Option<Pattern> {
    let name = if name == "star3d" { "heat3d" } else { name };
    NAMED.iter().find(|k| k.0 == name).map(|k| (k.2)())
}

/// One row of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct BenchmarkSpec {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Nonzero points of the stencil.
    pub points: usize,
    /// Problem size per spatial dimension (paper column "Problem Size"
    /// without the trailing time-step factor).
    pub problem_size: &'static [usize],
    /// Total time steps (the paper fixes T = 1000).
    pub time_steps: usize,
    /// Blocking size per spatial dimension (last entry = time block).
    pub blocking: &'static [usize],
}

/// The nine rows of Table 1.
pub fn table1() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec {
            name: "1D-Heat",
            points: 3,
            problem_size: &[10_240_000],
            time_steps: 1000,
            blocking: &[2000, 1000],
        },
        BenchmarkSpec {
            name: "1D5P",
            points: 5,
            problem_size: &[10_240_000],
            time_steps: 1000,
            blocking: &[2000, 500],
        },
        BenchmarkSpec {
            name: "APOP",
            points: 6,
            problem_size: &[10_240_000],
            time_steps: 1000,
            blocking: &[2000, 500],
        },
        BenchmarkSpec {
            name: "2D-Heat",
            points: 5,
            problem_size: &[5000, 5000],
            time_steps: 1000,
            blocking: &[200, 200, 50],
        },
        BenchmarkSpec {
            name: "2D9P",
            points: 9,
            problem_size: &[5000, 5000],
            time_steps: 1000,
            blocking: &[120, 128, 60],
        },
        BenchmarkSpec {
            name: "Game of Life",
            points: 8,
            problem_size: &[5000, 5000],
            time_steps: 1000,
            blocking: &[200, 200, 50],
        },
        BenchmarkSpec {
            name: "GB",
            points: 9,
            problem_size: &[5000, 5000],
            time_steps: 1000,
            blocking: &[200, 200, 50],
        },
        BenchmarkSpec {
            name: "3D-Heat",
            points: 7,
            problem_size: &[400, 400, 400],
            time_steps: 1000,
            blocking: &[20, 20, 10],
        },
        BenchmarkSpec {
            name: "3D27P",
            points: 27,
            problem_size: &[400, 400, 400],
            time_steps: 1000,
            blocking: &[20, 20, 10],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Shape;

    #[test]
    fn point_counts_match_table1() {
        assert_eq!(heat1d().points(), 3);
        assert_eq!(d1p5().points(), 5);
        assert_eq!(heat2d().points(), 5);
        assert_eq!(box2d9p().points(), 9);
        assert_eq!(life_count().points(), 8);
        assert_eq!(gb().points(), 9);
        assert_eq!(heat3d().points(), 7);
        assert_eq!(box3d27p().points(), 27);
        assert_eq!(box3d125p().points(), 125);
        assert_eq!(star3d_r2().points(), 13);
    }

    #[test]
    fn shapes() {
        assert_eq!(heat1d().shape(), Shape::Star);
        assert_eq!(heat2d().shape(), Shape::Star);
        assert_eq!(heat3d().shape(), Shape::Star);
        assert_eq!(star3d_r2().shape(), Shape::Star);
        assert_eq!(box2d9p().shape(), Shape::Box);
        assert_eq!(gb().shape(), Shape::Box);
        assert_eq!(box3d27p().shape(), Shape::Box);
        assert_eq!(box3d125p().shape(), Shape::Box);
    }

    #[test]
    fn stability_mass() {
        // averaging kernels: weight sum 1 keeps sweeps bounded
        for p in [
            heat1d(),
            d1p5(),
            heat2d(),
            box2d9p(),
            heat3d(),
            box3d27p(),
            box3d125p(),
            star3d_r2(),
        ] {
            assert!((p.weight_sum() - 1.0).abs() < 1e-12, "{p:?}");
        }
        // GB is a weighted average too
        assert!((gb().weight_sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gb_is_asymmetric() {
        assert!(!gb().is_symmetric());
        assert!(box2d9p().is_symmetric());
    }

    #[test]
    fn table1_has_nine_rows() {
        let t = table1();
        assert_eq!(t.len(), 9);
        assert_eq!(t[0].problem_size, &[10_240_000]);
        assert_eq!(t[8].points, 27);
        assert!(t.iter().all(|b| b.time_steps == 1000));
    }
}
