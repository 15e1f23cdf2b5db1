//! 2D kernel microbenchmark: multiload vs the folded register pipeline
//! (per-pass nominal GFLOP/s; the m=2 rows count both fused steps).
use std::time::Instant;
use stencil_core::exec::{folded, multiload};
use stencil_core::kernels;
use stencil_grid::Grid2D;
use stencil_simd::NativeF64x4;

fn bench(name: &str, n: usize, flops_per_call: f64, reps: usize, mut f: impl FnMut()) {
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    let dt = t0.elapsed().as_secs_f64() / reps as f64;
    println!(
        "{name:<26} n={n:>5}^2  {:>8.2} GFLOP/s(nominal)",
        flops_per_call / dt / 1e9
    );
}

fn main() {
    for n in [256usize, 1024] {
        let reps = (1024 * 1024 * 24 / (n * n)).max(2);
        for p in [
            ("2D9P", kernels::box2d9p()),
            ("2D-Heat", kernels::heat2d()),
            ("GB", kernels::gb()),
        ] {
            let (name, p) = p;
            let g = Grid2D::from_fn(n, n, |y, x| ((y * 31 + x) % 101) as f64);
            let mut a = g.clone();
            let mut b = g.clone();
            let flops1 = (2 * p.points() * n * n) as f64;
            // the range kernels over the interior a band of `r` leaves
            let inner = |r: usize| (r..n - r, r..n - r);
            bench(&format!("{name} multiload"), n, flops1, reps, || {
                let (ys, xs) = inner(p.radius());
                multiload::step_range_2d::<NativeF64x4>(&a, &mut b, &p, ys, xs);
                std::mem::swap(&mut a, &mut b);
            });
            let k1 = folded::FoldedKernel::new(&p, 1);
            bench(&format!("{name} folded m=1"), n, flops1, reps, || {
                let (ys, xs) = inner(k1.radius());
                folded::step_range_2d::<NativeF64x4>(&k1, &a, &mut b, ys, xs);
                std::mem::swap(&mut a, &mut b);
            });
            let k2 = folded::FoldedKernel::new(&p, 2);
            bench(&format!("{name} folded m=2"), n, flops1 * 2.0, reps, || {
                let (ys, xs) = inner(k2.radius());
                folded::step_range_2d::<NativeF64x4>(&k2, &a, &mut b, ys, xs);
                std::mem::swap(&mut a, &mut b);
            });
        }
        println!();
    }
}
