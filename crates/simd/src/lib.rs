//! # stencil-simd
//!
//! SIMD substrate for the stencil library: a lane-generic `f64` vector
//! trait ([`SimdF64`]), three backends (portable, AVX2, AVX-512F), the
//! paper's two-stage in-register `vl x vl` matrix transpose
//! ([`transpose`]), and the blend-plus-circular-shift *assembled vector*
//! operations used by the transpose layout ([`assemble`]).
//!
//! ## Backends
//!
//! * [`portable::PF64x4`] / [`portable::PF64x8`] — `[f64; N]` wrappers with
//!   `#[inline(always)]` per-lane operations. With `-C target-cpu=native`
//!   LLVM lowers these to the same vector instructions as the intrinsic
//!   backends in almost all cases; they are also the fallback on
//!   non-x86_64 targets.
//! * `avx2::F64x4` — `__m256d` wrappers, compiled only when the build
//!   statically enables `avx2`. The workspace sets no target features,
//!   so a default build has the portable backends only; `RUSTFLAGS="-C
//!   target-feature=+avx2,+fma"` (what `benchmark/run.sh` sets where the
//!   CPU has both) or `-C target-cpu=native` enables this one.
//!   Implements the paper's `permute2f128` + `unpackhi/lo` transpose
//!   (Fig. 3) and the `blend` + lane-rotate assembled vectors (Fig. 2).
//! * `avx512::F64x8` — `__m512d` wrappers for the AVX-512 experiments,
//!   compiled only when `avx512f` is statically enabled.
//!
//! Width selection for kernels happens through the type aliases
//! [`NativeF64x4`] and [`NativeF64x8`]: the widest *statically available*
//! implementation of the requested lane count.
//!
//! ## Relation to the paper
//!
//! Section 2.3 argues that a `vl x vl` register transpose of `f64` via
//! single-cycle non-parameter unpack instructions (2 stages on AVX2, 3 on
//! AVX-512) beats both in-lane 4-stage schemes and shuffle-immediate
//! schemes. [`cost`] encodes that instruction/latency accounting so the
//! claim is checkable as a unit test rather than folklore.
//!
//! ```
//! use stencil_simd::{NativeF64x4, SimdF64};
//!
//! // A 4x4 in-register transpose: row i, lane j  ->  row j, lane i.
//! let mut rows: Vec<NativeF64x4> = (0..4)
//!     .map(|i| NativeF64x4::from_slice(&[0.0, 1.0, 2.0, 3.0].map(|x| x + 10.0 * i as f64)))
//!     .collect();
//! NativeF64x4::transpose(&mut rows);
//! assert_eq!(rows[1].to_vec(), vec![1.0, 11.0, 21.0, 31.0]);
//! ```

// Offset-indexed loops are the domain idiom here (windows, tiles, taps);
// iterators would hide the math.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod assemble;
pub mod cost;
pub mod portable;
pub mod transpose;
pub mod vector;

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub mod avx2;

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub mod avx512;

pub use vector::SimdF64;

/// Widest statically-available 4-lane `f64` vector type.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
pub type NativeF64x4 = avx2::F64x4;
/// Widest statically-available 4-lane `f64` vector type.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
pub type NativeF64x4 = portable::PF64x4;

/// Widest statically-available 8-lane `f64` vector type.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub type NativeF64x8 = avx512::F64x8;
/// Widest statically-available 8-lane `f64` vector type.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
pub type NativeF64x8 = portable::PF64x8;

/// True when the AVX2 backend was compiled in (static feature detection).
pub const HAS_AVX2: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx2"));

/// True when the AVX-512F backend was compiled in.
pub const HAS_AVX512: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx512f"));

/// Human-readable description of the active backends, for bench banners.
pub fn backend_summary() -> String {
    format!(
        "4-lane: {}, 8-lane: {}",
        if HAS_AVX2 { "AVX2" } else { "portable" },
        if HAS_AVX512 { "AVX-512F" } else { "portable" }
    )
}
