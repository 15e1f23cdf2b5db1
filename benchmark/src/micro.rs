//! Micro-timings behind the per-layer metrics: each calls one public
//! function of a layer directly in a short loop.

use crate::metrics::Outcome;
use crate::stats::median;
use crate::{RunArgs, Scale};
use std::hint::black_box;
use std::time::Instant;
use stencil_grid::Grid3D;
use stencil_runtime::PoolHandle;
use stencil_simd::{assemble, transpose, NativeF64x4, SimdF64};

/// How long one micro-timing loops, given the run's `--seconds`: a
/// quarter of a second at the committed 20 s, next to nothing in a dry run.
pub fn loop_seconds(run_seconds: f64) -> f64 {
    (run_seconds / 80.0).clamp(0.002, 0.25)
}

const BATCHES: usize = 5;

/// Seconds per call of `f`: the batch is doubled until it lasts a fifth of
/// `loop_s`, then the median of five batches is taken.
pub fn per_call_s<R>(loop_s: f64, mut f: impl FnMut() -> R) -> f64 {
    let mut batch = |n: u64| {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        t0.elapsed().as_secs_f64()
    };
    let mut n = 1u64;
    while batch(n) < loop_s / BATCHES as f64 && n < 1 << 40 {
        n *= 2;
    }
    let times: Vec<f64> = (0..BATCHES).map(|_| batch(n) / n as f64).collect();
    median(&times)
}

/// `host.stream_gbs`: a one-thread triad `a = b + s * c` over three arrays
/// of 64 MiB, counting 24 B per element (write-allocate traffic ignored).
/// The arrays exceed L2 by far but not four times the shared 260 MiB LLC,
/// so this is the bandwidth the kernels can see, not a DRAM figure.
pub fn host_stream_gbs(loop_s: f64, scale: Scale) -> f64 {
    let n = match scale {
        Scale::Full => 8 << 20,
        Scale::Tiny => 64 << 10,
    };
    let (b, c) = (vec![1.5f64; n], vec![0.25f64; n]);
    let mut a = vec![0.0f64; n];
    let s = per_call_s(loop_s, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 3.0 * *c;
        }
        black_box(&mut a);
    });
    (3 * n * 8) as f64 / s / 1e9
}

/// `host.peak_fma_gflops`: eight independent `mul_add` chains on the
/// 4-lane native vector, one thread.
pub fn host_peak_fma_gflops(loop_s: f64) -> f64 {
    const ITERS: usize = 4096;
    let s = per_call_s(loop_s, || {
        let x = NativeF64x4::splat(black_box(0.999_999));
        let y = NativeF64x4::splat(black_box(1e-9));
        let mut acc = [NativeF64x4::splat(1.0); 8];
        for _ in 0..ITERS {
            for a in &mut acc {
                *a = a.mul_add(x, y);
            }
        }
        acc
    });
    (ITERS * 8 * NativeF64x4::LANES * 2) as f64 / s / 1e9
}

/// `simd.*`: the in-register transpose, the blocked rectangular transpose
/// and the assembled neighbour vector.
pub fn simd(loop_s: f64, out: &mut Outcome) {
    let mut set = [NativeF64x4::splat(1.0); 4];
    for (i, v) in set.iter_mut().enumerate() {
        *v = NativeF64x4::from_slice(&[i as f64, 1.0, 2.0, 3.0]);
    }
    out.set(
        "simd.transpose4_ns",
        per_call_s(loop_s, || {
            NativeF64x4::transpose(black_box(&mut set));
        }) * 1e9,
    );
    let (rows, cols) = (512, 512);
    let src: Vec<f64> = (0..rows * cols).map(|i| i as f64).collect();
    let mut dst = vec![0.0; rows * cols];
    let s = per_call_s(loop_s, || {
        transpose::transpose_rect::<NativeF64x4>(black_box(&src), &mut dst, rows, cols)
    });
    out.set(
        "simd.transpose_rect_gbs",
        (2 * rows * cols * 8) as f64 / s / 1e9,
    );
    let (prev, next) = (set, set);
    out.set(
        "simd.assemble_ns",
        per_call_s(loop_s, || {
            // offset -1 from vector 0 crosses into the previous set: the
            // one-shuffle case the transpose layout pays 2r times per set
            assemble::neighbor_vector(black_box(&set), &prev, &next, 0, black_box(-1))
        }) * 1e9,
    );
}

/// `obs.span_ns`: one `stencil_obs` span, created and dropped with tracing
/// on.
pub fn obs_span(loop_s: f64, out: &mut Outcome) {
    stencil_obs::set_enabled(true);
    let s = per_call_s(loop_s, || {
        drop(stencil_obs::span(stencil_obs::SpanId::WorkerJob))
    });
    stencil_obs::set_enabled(false);
    stencil_obs::clear();
    out.set("obs.span_ns", s * 1e9);
}

/// `grid.*`: parallel first touch of a 128 MiB grid, and its dense copy
/// (one read and one write per element).
pub fn grid(loop_s: f64, args: &RunArgs, out: &mut Outcome) {
    let n = match args.scale {
        Scale::Full => 256,
        Scale::Tiny => 24,
    };
    let bytes = (n * n * n * 8) as f64;
    let s = per_call_s(loop_s, || Grid3D::zeros_parallel(n, n, n, args.threads));
    out.set("grid.first_touch_gbs", bytes / s / 1e9);
    let g = Grid3D::zeros_parallel(n, n, n, args.threads);
    let s = per_call_s(loop_s, || g.to_dense());
    out.set("grid.to_dense_gbs", 2.0 * bytes / s / 1e9);
}

/// `runtime.pool.dispatch_us`: an empty static parallel-for on the shared
/// pool, round trip.
pub fn pool_dispatch(loop_s: f64, threads: usize, out: &mut Outcome) {
    let pool = PoolHandle::shared(threads);
    let s = per_call_s(loop_s, || {
        stencil_runtime::parallel::parallel_for_static(&pool, threads, &|r| {
            black_box(r);
        })
    });
    out.set("runtime.pool.dispatch_us", s * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_time_grows_with_the_work() {
        let work = |n: u64| move || (0..n).fold(0u64, |a, i| black_box(a ^ i));
        let (short, long) = (per_call_s(0.01, work(100)), per_call_s(0.01, work(10_000)));
        assert!(short > 0.0 && long > 10.0 * short, "{short} {long}");
    }
}
