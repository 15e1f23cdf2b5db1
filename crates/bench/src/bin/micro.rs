//! 1D step-kernel microbenchmark across working-set sizes (L1 to memory):
//! the per-method cost model behind Fig. 8, one step call per rep.
use std::time::Instant;
use stencil_core::exec::{dlt, folded, multiload, reorg, scalar, xlayout};
use stencil_core::kernels;
use stencil_grid::Grid1D;
use stencil_simd::{NativeF64x4, SimdF64};

fn bench(name: &str, n: usize, reps: usize, mut f: impl FnMut()) {
    // warmup
    f();
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    let dt = t0.elapsed().as_secs_f64() / reps as f64;
    println!(
        "{name:<22} n={n:>9}  {:>8.2} GFLOP/s  {:>6.3} cyc/pt@3GHz",
        n as f64 * 6.0 / dt / 1e9,
        dt * 3e9 / n as f64
    );
}

fn main() {
    let p = kernels::heat1d();
    let taps = p.weights().to_vec();
    for n in [4000usize, 64_000, 1_048_576, 8_388_608] {
        let reps = (64_000_000 / n).max(3);
        let g = Grid1D::from_fn(n, |i| (i % 101) as f64);
        let mut a = g.clone();
        let mut b = g.clone();
        bench("scalar", n, reps, || {
            scalar::step_1d(a.as_slice(), b.as_mut_slice(), &taps);
            std::mem::swap(&mut a, &mut b);
        });
        bench("multiload", n, reps, || {
            multiload::step_1d::<NativeF64x4>(a.as_slice(), b.as_mut_slice(), &taps);
            std::mem::swap(&mut a, &mut b);
        });
        bench("reorg", n, reps, || {
            reorg::step_1d::<NativeF64x4>(a.as_slice(), b.as_mut_slice(), &taps);
            std::mem::swap(&mut a, &mut b);
        });
        bench("xlayout(step only)", n, reps, || {
            xlayout::step_x::<NativeF64x4>(a.as_slice(), b.as_mut_slice(), &taps);
            std::mem::swap(&mut a, &mut b);
        });
        bench("folded-squares m=1", n, reps, || {
            folded::step_1d::<NativeF64x4>(a.as_slice(), b.as_mut_slice(), &taps);
            std::mem::swap(&mut a, &mut b);
        });
        let f2 = stencil_core::folding::fold(&p, 2).weights().to_vec();
        bench("folded-squares m=2", n, reps, || {
            folded::step_1d::<NativeF64x4>(a.as_slice(), b.as_mut_slice(), &f2);
            std::mem::swap(&mut a, &mut b);
        });
        // dlt steady state (transform outside: the step reads any data
        // in the lifted view at the same cost)
        bench("dlt(step only)", n, reps, || {
            let cols = n / NativeF64x4::LANES;
            dlt::step_dlt_range::<NativeF64x4>(
                a.as_slice(),
                b.as_mut_slice(),
                &taps,
                cols,
                0,
                cols,
            );
            std::mem::swap(&mut a, &mut b);
        });
        println!();
    }
}
