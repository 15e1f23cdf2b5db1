//! Conway's Game of Life on the vectorized stencil engine: a glider gun
//! rendered as ASCII, then a large random soup timed with the scalar,
//! vectorized and fused-two-step kernels under tessellate tiling.
//!
//! ```sh
//! cargo run --release --example game_of_life
//! ```

use std::time::Instant;
use stencil_lab::core::exec::life;
use stencil_lab::core::tile::{tessellate, tile_width};
use stencil_lab::runtime::PoolHandle;
use stencil_lab::simd::NativeF64x4;
use stencil_lab::{Grid2D, PingPong};

/// Gosper glider gun cells (row, col) offsets.
const GUN: [(usize, usize); 36] = [
    (5, 1),
    (5, 2),
    (6, 1),
    (6, 2),
    (3, 13),
    (3, 14),
    (4, 12),
    (4, 16),
    (5, 11),
    (5, 17),
    (6, 11),
    (6, 15),
    (6, 17),
    (6, 18),
    (7, 11),
    (7, 17),
    (8, 12),
    (8, 16),
    (9, 13),
    (9, 14),
    (1, 25),
    (2, 23),
    (2, 25),
    (3, 21),
    (3, 22),
    (4, 21),
    (4, 22),
    (5, 21),
    (5, 22),
    (6, 23),
    (6, 25),
    (7, 25),
    (3, 35),
    (3, 36),
    (4, 35),
    (4, 36),
];

fn render(g: &Grid2D, rows: usize, cols: usize) -> String {
    let mut out = String::new();
    for y in 0..rows.min(g.ny()) {
        for x in 0..cols.min(g.nx()) {
            out.push(if g[(y, x)] > 0.5 { 'o' } else { '.' });
        }
        out.push('\n');
    }
    out
}

fn main() {
    // 1. Glider gun demo
    let mut gun = Grid2D::zeros(48, 80);
    for &(y, x) in &GUN {
        gun[(y + 2, x + 2)] = 1.0;
    }
    let after = life::sweep::<NativeF64x4>(&gun, 60);
    println!("Gosper glider gun after 60 generations:");
    println!("{}", render(&after, 40, 78));

    // 2. Throughput on a large soup, three kernels
    let (ny, nx) = (1024, 1024);
    let t = 100;
    let soup = life::random_soup(ny, nx, 42);
    // one shareable pool handle, reused by all three timed kernels
    let pool = PoolHandle::new(stencil_lab::runtime::available_parallelism().min(8));
    let cells = (ny * nx * t) as f64;

    let t0 = Instant::now();
    let mut pp = PingPong::new(soup.clone());
    tessellate::run_2d(
        &pool,
        &mut pp,
        1,
        1,
        tile_width(&[nx], 1, 8),
        8,
        t,
        &|s: &Grid2D, d: &mut Grid2D, ys, xs| life::step_range_scalar(s, d, ys, xs),
    );
    let scalar_out = pp.into_current();
    println!(
        "scalar + tessellation : {:>7.1} Mcells/s",
        cells / t0.elapsed().as_secs_f64() / 1e6
    );

    let t0 = Instant::now();
    let mut pp = PingPong::new(soup.clone());
    tessellate::run_2d(
        &pool,
        &mut pp,
        1,
        1,
        tile_width(&[nx], 1, 8),
        8,
        t,
        &|s: &Grid2D, d: &mut Grid2D, ys, xs| life::step_range::<NativeF64x4>(s, d, ys, xs),
    );
    let vec_out = pp.into_current();
    println!(
        "SIMD   + tessellation : {:>7.1} Mcells/s",
        cells / t0.elapsed().as_secs_f64() / 1e6
    );

    let t0 = Instant::now();
    let mut pp = PingPong::new(soup.clone());
    tessellate::run_2d(
        &pool,
        &mut pp,
        2,
        2,
        tile_width(&[nx], 2, 8),
        8,
        t / 2,
        &|s: &Grid2D, d: &mut Grid2D, ys, xs| life::step2_range::<NativeF64x4>(s, d, ys, xs),
    );
    println!(
        "fused 2-step          : {:>7.1} Mcells/s",
        cells / t0.elapsed().as_secs_f64() / 1e6
    );

    // scalar and SIMD paths must agree exactly (binary states)
    let err = stencil_lab::grid::max_abs_diff(&scalar_out.to_dense(), &vec_out.to_dense());
    println!("scalar vs SIMD agreement: max |diff| = {err}");
    assert_eq!(err, 0.0);
}
