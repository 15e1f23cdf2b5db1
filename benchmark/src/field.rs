//! Grids of any dimensionality behind one type (`stencil_serve`'s
//! [`JobDomain`]): seeded generation, running a plan, and the correctness
//! oracle — a scalar-plan reference within a tolerance plus a bit hash for
//! the paths that promise bit-identity.

use crate::rng::SplitMix64;
use stencil_core::{Method, Pattern, Plan, Solver};
use stencil_grid::{Grid1D, Grid2D, Grid3D};
use stencil_serve::JobDomain;

/// Largest absolute deviation from the scalar reference that still counts
/// as correct, relative to the reference's largest magnitude (the bound the
/// workspace's own cross-executor tests use).
pub const TOLERANCE: f64 = 1e-10;

/// A grid of `extents` (outermost first) filled from `rng`, uniform in
/// `[0, 1)`.
pub fn random(extents: &[usize], rng: &mut SplitMix64) -> JobDomain {
    match *extents {
        [n] => JobDomain::D1(Grid1D::from_fn(n, |_| rng.unit_f64())),
        [ny, nx] => JobDomain::D2(Grid2D::from_fn(ny, nx, |_, _| rng.unit_f64())),
        [nz, ny, nx] => JobDomain::D3(Grid3D::from_fn(nz, ny, nx, |_, _, _| rng.unit_f64())),
        _ => panic!("grids have one to three dimensions"),
    }
}

/// The logical rows (padding excluded) in row-major order.
pub fn rows(d: &JobDomain) -> Vec<&[f64]> {
    match d {
        JobDomain::D1(g) => vec![g.as_slice()],
        JobDomain::D2(g) => (0..g.ny()).map(|y| g.row(y)).collect(),
        JobDomain::D3(g) => (0..g.nz())
            .flat_map(|z| (0..g.ny()).map(move |y| g.row(z, y)))
            .collect(),
    }
}

/// Dense row-major copy (what goes on the wire).
pub fn to_dense(d: &JobDomain) -> Vec<f64> {
    let mut out = Vec::with_capacity(d.points());
    rows(d)
        .into_iter()
        .for_each(|row| out.extend_from_slice(row));
    out
}

/// Length of the innermost axis.
fn row_len(extents: &[usize]) -> usize {
    *extents.last().expect("at least one axis")
}

/// Hash of the raw `f64` bits, row by row. Four independent lanes inside a
/// row keep it near memory speed; the row results are chained, so the hash
/// of a padded grid equals the hash of its dense copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitHash(u64);

const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl BitHash {
    /// Hash of no rows.
    pub fn new() -> Self {
        BitHash(0x243F_6A88_85A3_08D3)
    }

    /// Absorb one row.
    pub fn push_row(&mut self, row: &[f64]) {
        let mut lanes = [K, K.rotate_left(16), K.rotate_left(32), K.rotate_left(48)];
        let mut chunks = row.chunks_exact(4);
        for c in &mut chunks {
            for (l, v) in lanes.iter_mut().zip(c) {
                *l = (l.rotate_left(5) ^ v.to_bits()).wrapping_mul(K);
            }
        }
        for (l, v) in lanes.iter_mut().zip(chunks.remainder()) {
            *l = (l.rotate_left(5) ^ v.to_bits()).wrapping_mul(K);
        }
        for l in lanes {
            self.0 = (self.0.rotate_left(7) ^ l).wrapping_mul(K);
        }
    }

    /// Hash of a whole grid.
    pub fn of(d: &JobDomain) -> Self {
        let mut h = Self::new();
        rows(d).into_iter().for_each(|row| h.push_row(row));
        h
    }

    /// Hash of a dense row-major buffer with the given extents.
    pub fn of_dense(extents: &[usize], data: &[f64]) -> Self {
        let mut h = Self::new();
        data.chunks(row_len(extents).max(1))
            .for_each(|row| h.push_row(row));
        h
    }
}

impl Default for BitHash {
    fn default() -> Self {
        Self::new()
    }
}

/// Run `t` steps of `plan` on `d`.
pub fn run(plan: &Plan, d: &JobDomain, t: usize) -> JobDomain {
    let done = match d {
        JobDomain::D1(g) => plan.run_1d(g, t).map(JobDomain::D1),
        JobDomain::D2(g) => plan.run_2d(g, t).map(JobDomain::D2),
        JobDomain::D3(g) => plan.run_3d(g, t).map(JobDomain::D3),
    };
    done.expect("the benchmark pairs every plan with a grid of its dimensionality")
}

fn scalar_plan(p: &Pattern) -> Plan {
    Solver::new(p.clone())
        .method(Method::Scalar)
        .compile()
        .expect("the scalar method compiles for every pattern")
}

/// What `plan.run(d, t)` must compute, by `Method::Scalar` plans alone: a
/// plan that folds `m` steps advances `t / m` times by the folded pattern Λ
/// and `t % m` times by the base pattern, with the boundary band frozen at
/// each pattern's own radius — so that is the sequence the reference runs.
pub fn scalar_reference(plan: &Plan, d: &JobDomain, t: usize) -> JobDomain {
    let m = plan.m().max(1);
    let mut out = run(&scalar_plan(plan.folded()), d, t / m);
    if !t.is_multiple_of(m) {
        out = run(&scalar_plan(plan.pattern()), &out, t % m);
    }
    out
}

/// Largest `|a - b|` over the grid, as a share of the largest `|b|` (at
/// least 1). NaN when any compared value is.
pub fn rel_max_diff(a: &JobDomain, b: &JobDomain) -> f64 {
    assert_eq!(a.extents(), b.extents(), "compared grids differ in shape");
    let (mut diff, mut scale, mut nan) = (0.0f64, 1.0f64, false);
    for (ra, rb) in rows(a).into_iter().zip(rows(b)) {
        for (x, y) in ra.iter().zip(rb) {
            let d = (x - y).abs();
            // f64::max drops NaN; a NaN output must fail the check
            nan |= d.is_nan();
            diff = diff.max(d);
            scale = scale.max(y.abs());
        }
    }
    if nan {
        f64::NAN
    } else {
        diff / scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_core::kernels;

    #[test]
    fn hash_sees_every_bit_and_ignores_padding() {
        let mut rng = SplitMix64::new(5, 0);
        // 13 columns: the row stride is padded, the dense copy is not
        let g = random(&[7, 13], &mut rng);
        let dense = to_dense(&g);
        assert_eq!(dense.len(), 7 * 13);
        assert_eq!(BitHash::of(&g), BitHash::of_dense(&[7, 13], &dense));
        for i in [0, 12, 13, 90] {
            let mut flipped = dense.clone();
            flipped[i] = f64::from_bits(flipped[i].to_bits() ^ 1);
            assert_ne!(
                BitHash::of_dense(&[7, 13], &flipped),
                BitHash::of(&g),
                "{i}"
            );
        }
        let mut swapped = dense.clone();
        swapped.swap(3, 4);
        assert_ne!(BitHash::of_dense(&[7, 13], &swapped), BitHash::of(&g));
        assert_ne!(BitHash::of_dense(&[13, 7], &dense), BitHash::of(&g));
    }

    #[test]
    fn folded_plans_are_checked_against_the_folded_scalar_sequence() {
        let mut rng = SplitMix64::new(1, 0);
        let g = random(&[40, 44], &mut rng);
        for (method, t) in [
            (Method::TransposeLayout, 5),
            (Method::Folded { m: 2 }, 6),
            (Method::Folded { m: 2 }, 7),
        ] {
            let plan = Solver::new(kernels::heat2d())
                .method(method)
                .compile()
                .unwrap();
            let got = run(&plan, &g, t);
            let want = scalar_reference(&plan, &g, t);
            assert!(rel_max_diff(&got, &want) < TOLERANCE, "{method:?} t={t}");
        }
    }
}
