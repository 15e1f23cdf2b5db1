//! Overhead guard for the tracing subsystem: recording spans into the
//! per-worker rings must be cheap enough that leaving tracing enabled
//! on an otherwise idle exporter (nothing scraping `/trace`) does not
//! measurably slow a tiled plan run down.
//!
//! `best_of` takes the minimum over several runs, so the comparison is
//! against each configuration's noise floor rather than its mean — the
//! standard way to make a wall-clock guard stable in CI.

use std::time::Duration;
use stencil_bench::measure::best_of;
use stencil_core::{kernels, Solver, Tiling};
use stencil_grid::Grid2D;

fn timed_tiled_run(reps: usize) -> Duration {
    // two tiles of 409 rows: the tessellate tiling drives the worker
    // pool (a one-tile stage would run on the calling thread), so every
    // round crosses the instrumented `WorkerJob` span sites
    let grid = Grid2D::from_fn(480, 160, |y, x| ((y * 7 + x * 3) % 23) as f64);
    let plan = Solver::new(kernels::heat2d())
        .tiling(Tiling::Tessellate { time_block: 2 })
        .threads(1)
        .compile()
        .expect("tiled plan compiles");
    let (out, elapsed) = best_of(reps, || plan.run_2d(&grid, 8).expect("run"));
    assert_eq!(out.ny(), 480);
    elapsed
}

#[test]
fn enabled_but_idle_tracing_stays_within_noise_of_disabled() {
    const REPS: usize = 7;

    stencil_obs::set_enabled(false);
    let disabled = timed_tiled_run(REPS);

    stencil_obs::set_enabled(true);
    stencil_obs::clear();
    let enabled = timed_tiled_run(REPS);
    let recorded = stencil_obs::snapshot()
        .iter()
        .filter(|e| e.id == stencil_obs::SpanId::WorkerJob)
        .count();
    stencil_obs::set_enabled(false);

    // the enabled run must actually have exercised the recording path,
    // otherwise this guard measures nothing
    assert!(
        recorded > 0,
        "the tiled run must record worker_job spans while tracing is enabled"
    );

    // generous bound: ring writes are a few atomics per span, so even on
    // a noisy single-core CI host the best-of floor stays well inside
    // 1.5x + 2 ms of the disabled floor
    let bound = disabled.mul_f64(1.5) + Duration::from_millis(2);
    assert!(
        enabled <= bound,
        "enabled-but-idle tracing too slow: disabled {disabled:?}, enabled {enabled:?} \
         (bound {bound:?}, {recorded} spans recorded)"
    );
}
