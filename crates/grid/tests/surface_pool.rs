//! The surface pool through the public constructors: a recycled buffer
//! never shows its previous owner's bytes, padding included.
//!
//! The pool is process-wide, so the tests in this binary take one lock
//! to keep each other's buffers out of the pool they observe.

use std::sync::Mutex;
use stencil_grid::pool::{POOL_CAP_BYTES, POOL_MIN_BYTES};
use stencil_grid::{pool_stats, AlignedBuf, Grid2D, Grid3D};

static SERIAL: Mutex<()> = Mutex::new(());

/// The lock, taken on an empty pool: a take larger than the cap can
/// hold misses, and a miss releases every held block.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    drop(AlignedBuf::zeroed(POOL_CAP_BYTES / 8 + 1));
    assert_eq!(pool_stats().held_bytes, 0);
    guard
}

/// Doubles in `mib` MiB.
fn mib(mib: usize) -> usize {
    mib * (1 << 20) / 8
}

/// Drop a NaN-filled buffer of `len` doubles into the pool and return
/// where it lived.
fn poison(len: usize) -> *const f64 {
    let mut b = AlignedBuf::zeroed(len);
    b.fill(f64::NAN);
    b.as_ptr()
}

#[test]
fn a_recycled_zeros_is_all_zero_padding_included() {
    let _g = serial();
    // 2D: a NaN surface of another shape, then a padded grid on its block
    let at = poison(mib(3));
    let hits = pool_stats().hits;
    let g = Grid2D::zeros(401, 397);
    assert!(g.stride() > g.nx(), "the grid has padding");
    assert_eq!(g.as_ptr(), at, "the grid took the poisoned block");
    assert_eq!(pool_stats().hits, hits + 1);
    assert!(g.as_slice().iter().all(|&v| v.to_bits() == 0));
    assert_eq!(g, Grid2D::from_fn(401, 397, |_, _| 0.0));
    drop(g);
    // 3D, and the parallel first-touch constructor on a recycled block
    let at = poison(mib(9));
    let g = Grid3D::zeros_parallel(100, 101, 99, 4);
    assert_eq!(g.as_slice().as_ptr(), at);
    assert!(g.as_slice().iter().all(|&v| v.to_bits() == 0));
    drop(g);
    let at = poison(mib(9));
    let g = Grid3D::zeros(100, 101, 99);
    assert_eq!(g.as_slice().as_ptr(), at);
    assert!(g.as_slice().iter().all(|&v| v.to_bits() == 0));
}

#[test]
fn a_recycled_clone_equals_its_source_bit_for_bit() {
    let _g = serial();
    let mut src = Grid2D::from_fn(390, 411, |y, x| (y * 411 + x) as f64 * 0.5 - 7.0);
    // non-zero padding must be copied too
    let last = src.as_slice().len() - 1;
    src.as_mut_slice()[last] = -3.25;
    let at = poison(mib(2));
    let copy = src.clone();
    assert_eq!(
        copy.as_slice().as_ptr(),
        at,
        "the clone took the poisoned block"
    );
    assert_eq!(copy, src);
    let bits = |g: &Grid2D| g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&copy), bits(&src));
    let flat = AlignedBuf::from_slice(src.as_slice());
    assert_eq!(flat.as_slice(), src.as_slice());
}

#[test]
fn held_bytes_stay_under_the_cap() {
    let _g = serial();
    let bufs: Vec<AlignedBuf> = (0..6).map(|_| AlignedBuf::zeroed(mib(16))).collect();
    drop(bufs);
    let held = pool_stats().held_bytes as usize;
    assert!(held <= POOL_CAP_BYTES, "{held}");
    assert!(held >= POOL_MIN_BYTES);
    // a take too large for any held block releases them all
    let big = AlignedBuf::zeroed(mib(17));
    assert_eq!(pool_stats().held_bytes, 0);
    assert!(big.iter().all(|&v| v == 0.0));
}
