//! Sweep executors.
//!
//! Each submodule implements one of the vectorization schemes the paper
//! evaluates (Fig. 8):
//!
//! | module        | paper name            | data organization |
//! |---------------|----------------------|-------------------|
//! | [`scalar`]    | (reference)          | none |
//! | [`multiload`] | Multiple Loads       | one unaligned load per tap |
//! | [`reorg`]     | Data Reorganization  | aligned loads + per-tap shuffles |
//! | [`dlt`]       | DLT                  | global dimension-lifted transpose |
//! | [`xlayout`]   | Our                  | local transpose layout (§2.2) |
//! | [`folded`]    | Our (m steps)        | register transpose + computation folding (§3.3) |
//! | [`folded3d`]  | Our (m steps, 3D)    | z-ring plane rotation + folding (dedicated 3D pipeline) |
//! | [`apop`]      | APOP benchmark       | two-array 1D3P with early-exercise max |
//! | [`life`]      | Game of Life         | 8-neighbour count + branchless rule |
//!
//! All step functions take explicit index ranges so the tiling layer can
//! drive them over arbitrary tile regions: a plan runs every method's
//! range kernel through the one tiling driver, block-free being the one
//! tile of the whole interior. The whole-grid sweeps left are the scalar
//! reference ([`scalar`]), the 1D transpose layout ([`xlayout`], which
//! relayouts the whole grid and so has no tiles) and the baselines.
//!
//! [`reorg`] and [`dlt`] are comparison baselines: no
//! [`Plan`](crate::Plan) routes to them, and the figures call their
//! sweeps directly.

pub mod apop;
pub mod dlt;
pub mod folded;
pub mod folded3d;
pub mod life;
pub mod multiload;
pub mod reorg;
pub mod scalar;
pub mod xlayout;

use std::cell::UnsafeCell;

/// True when some axis of `extents` has no interior under a Dirichlet
/// band `band` cells wide (`n <= 2 * band`): the grid is all band and
/// every step is the identity. The one statement of the rule every
/// sweep, full-step helper and tiling driver applies to such a grid — a
/// sweep or driver advances its pair's step count and writes nothing
/// (both surfaces agree on the band), a full-step helper copies its
/// source.
pub(crate) fn all_band(extents: &[usize], band: usize) -> bool {
    extents.iter().any(|&n| n <= 2 * band)
}

/// Dispatch a kernel implementation on the tap count, monomorphizing the
/// common stencil sizes so LLVM sees constant trip counts — full
/// unrolling plus register allocation of the tap window, worth 3-7x on
/// the hot loops. `T = 0` selects the dynamic-length fallback path
/// inside the implementation (`tap_count::<T>(taps)`).
macro_rules! dispatch_taps {
    ($impl_fn:ident, $V:ty, $taps:expr, ($($arg:expr),*)) => {{
        let taps: &[f64] = $taps;
        match taps.len() {
            3 => $impl_fn::<$V, 3>($($arg),*),
            5 => $impl_fn::<$V, 5>($($arg),*),
            7 => $impl_fn::<$V, 7>($($arg),*),
            9 => $impl_fn::<$V, 9>($($arg),*),
            11 => $impl_fn::<$V, 11>($($arg),*),
            13 => $impl_fn::<$V, 13>($($arg),*),
            17 => $impl_fn::<$V, 17>($($arg),*),
            _ => $impl_fn::<$V, 0>($($arg),*),
        }
    }};
}
pub(crate) use dispatch_taps;

/// Effective tap count for a `dispatch_taps` monomorphization.
#[inline(always)]
pub(crate) fn tap_count<const T: usize>(taps: &[f64]) -> usize {
    if T == 0 {
        taps.len()
    } else {
        debug_assert_eq!(taps.len(), T);
        T
    }
}

/// A `Sync` wrapper handing out raw mutable access to a slice for
/// *disjoint* parallel writes (each tile writes only its own region).
///
/// # Safety contract
/// Callers must guarantee that concurrent `slice_mut` regions never
/// overlap; the tiling layer's region disjointness provides this.
pub struct SharedMut<'a> {
    data: &'a UnsafeCell<[f64]>,
}

// SAFETY: see the struct-level contract; all synchronization is
// structural (disjoint regions + pool barriers).
unsafe impl Sync for SharedMut<'_> {}
unsafe impl Send for SharedMut<'_> {}

impl<'a> SharedMut<'a> {
    /// Wrap an exclusive slice.
    pub fn new(slice: &'a mut [f64]) -> Self {
        // SAFETY: &mut [f64] -> &UnsafeCell<[f64]> is the blessed cast.
        let data = unsafe { &*(slice as *mut [f64] as *const UnsafeCell<[f64]>) };
        Self { data }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        // Reading the length off the fat pointer needs no dereference.
        let ptr: *mut [f64] = self.data.get();
        ptr.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw mutable view of the whole slice.
    ///
    /// # Safety
    /// The caller must only touch a region no other thread touches
    /// concurrently.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self) -> &mut [f64] {
        &mut *self.data.get()
    }

    /// Shared view of the whole slice.
    ///
    /// # Safety
    /// The caller must not read a region another thread writes
    /// concurrently.
    pub unsafe fn slice(&self) -> &[f64] {
        &*self.data.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_mut_disjoint_writes() {
        let mut v = vec![0.0f64; 100];
        {
            let sm = SharedMut::new(&mut v);
            std::thread::scope(|s| {
                for part in 0..4 {
                    let sm = &sm;
                    s.spawn(move || {
                        // SAFETY: parts are disjoint 25-element regions.
                        let sl = unsafe { sm.slice_mut() };
                        for x in &mut sl[part * 25..(part + 1) * 25] {
                            *x = part as f64;
                        }
                    });
                }
            });
            assert_eq!(sm.len(), 100);
        }
        assert_eq!(v[0], 0.0);
        assert_eq!(v[99], 3.0);
        assert_eq!(v[50], 2.0);
    }
}
