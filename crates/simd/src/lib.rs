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
//!   `#[inline(always)]` per-lane operations: the correctness oracle of
//!   the intrinsic backends, and the fallback on CPUs (and targets)
//!   without them.
//! * `avx2::F64x4` — `__m256d` wrappers. Implements the paper's
//!   `permute2f128` + `unpackhi/lo` transpose (Fig. 3) and the `blend` +
//!   lane-rotate assembled vectors (Fig. 2).
//! * `avx512::F64x8` — `__m512d` wrappers: the 3-stage 8×8 transpose and
//!   one-`valignq` assembled vectors.
//!
//! Every x86_64 build compiles all three. Which one runs is decided at
//! run time: [`Isa::detected`] reads CPUID, and [`dispatch`] runs a
//! [`WithSimd`] operation at 4 lanes on AVX2 + FMA and at 8 lanes on
//! AVX-512F where the CPU has them, on the portable backend otherwise
//! ([`isa`] has the details and the soundness argument).
//!
//! [`NativeF64x4`] and [`NativeF64x8`] keep their build-time meaning for
//! direct kernel calls: the intrinsic type where the build enables its
//! features statically (`RUSTFLAGS="-C target-feature=+avx2,+fma"`, what
//! `benchmark/run.sh` sets where the CPU has both), the portable type
//! otherwise.
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
pub mod isa;
pub mod portable;
pub mod transpose;
pub mod vector;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;

pub use isa::{dispatch, Isa, WithSimd};
pub use vector::SimdF64;

/// 4-lane `f64` vector type of direct kernel calls: AVX2 where the build
/// enables `avx2` and `fma` statically.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
pub type NativeF64x4 = avx2::F64x4;
/// 4-lane `f64` vector type of direct kernel calls: AVX2 where the build
/// enables `avx2` and `fma` statically.
#[cfg(not(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
)))]
pub type NativeF64x4 = portable::PF64x4;

/// 8-lane `f64` vector type of direct kernel calls: AVX-512F where the
/// build enables `avx512f` statically.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub type NativeF64x8 = avx512::F64x8;
/// 8-lane `f64` vector type of direct kernel calls: AVX-512F where the
/// build enables `avx512f` statically.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
pub type NativeF64x8 = portable::PF64x8;

/// True when [`NativeF64x4`] is the AVX2 type (static features).
pub const HAS_AVX2: bool = cfg!(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
));

/// True when [`NativeF64x8`] is the AVX-512F type (static features).
pub const HAS_AVX512: bool = cfg!(all(target_arch = "x86_64", target_feature = "avx512f"));

/// The backends [`dispatch`] runs on this CPU, for bench banners and
/// result stamps.
pub fn backend_summary() -> String {
    let isa = Isa::detected();
    format!("4-lane: {}, 8-lane: {}", isa.backend(4), isa.backend(8))
}
