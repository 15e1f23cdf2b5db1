//! Run-time instruction-set detection and the one place a kernel enters
//! an intrinsic backend.
//!
//! Every x86_64 build compiles every backend. [`Isa::detected`] reads
//! CPUID once (std caches `is_x86_feature_detected!`), and [`dispatch`]
//! runs a [`WithSimd`] operation at the requested lane count on the
//! widest backend the CPU has: inside a `#[target_feature]` entry, so
//! the operation's generic kernels — all `#[inline(always)]` down to the
//! intrinsics — compile into that entry with the feature enabled.
//!
//! The intrinsic vector types are private to this crate and built only
//! below an entry (or, through [`NativeF64x4`](crate::NativeF64x4) and
//! [`NativeF64x8`](crate::NativeF64x8), in a build that enables their
//! features statically): their safe methods execute instructions a CPU
//! without the feature does not have.

use crate::portable::{PF64x4, PF64x8};
use crate::SimdF64;

/// The widest SIMD instruction set of this CPU that a backend uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// No intrinsic backend: the portable one at every width.
    Portable,
    /// AVX2 + FMA: `__m256d` at 4 lanes.
    Avx2,
    /// AVX-512F with AVX2 + FMA: `__m512d` at 8 lanes, `__m256d` at 4.
    Avx512,
}

impl Isa {
    /// The instruction set of the CPU this runs on.
    pub fn detected() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return if is_x86_feature_detected!("avx512f") {
                Isa::Avx512
            } else {
                Isa::Avx2
            };
        }
        Isa::Portable
    }

    /// The backend [`dispatch`] runs `lanes`-wide operations on.
    pub fn backend(self, lanes: usize) -> &'static str {
        match (self, lanes) {
            (Isa::Avx2 | Isa::Avx512, 4) => "AVX2",
            (Isa::Avx512, 8) => "AVX-512F",
            _ => "portable",
        }
    }

    /// Short label: `avx512f`, `avx2` or `portable`.
    pub fn label(self) -> &'static str {
        match self {
            Isa::Portable => "portable",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512f",
        }
    }
}

/// An operation written once over the vector type it runs at (pulp's
/// `WithSimd` pattern): [`dispatch`] picks the type and the entry.
///
/// `run` and everything it calls should be `#[inline(always)]`: a
/// function left out of line is compiled without the entry's features,
/// and the intrinsics inside it become calls.
pub trait WithSimd {
    /// What the operation returns.
    type Output;
    /// Run at vector type `V`.
    fn run<V: SimdF64>(self) -> Self::Output;
}

/// Run `op` at `lanes` lanes (1, 4 or 8) on the widest backend the CPU
/// has: AVX2 at 4 lanes and AVX-512F at 8 where [`Isa::detected`] says
/// so, the portable backend (or `f64` at one lane) otherwise.
///
/// # Panics
/// On any other lane count.
pub fn dispatch<Op: WithSimd>(lanes: usize, op: Op) -> Op::Output {
    #[cfg(target_arch = "x86_64")]
    match (lanes, Isa::detected()) {
        // SAFETY: the CPU has every feature the entry enables.
        (4, Isa::Avx2 | Isa::Avx512) => return unsafe { x86::avx2(op) },
        // SAFETY: as above.
        (8, Isa::Avx512) => return unsafe { x86::avx512(op) },
        _ => {}
    }
    match lanes {
        1 => op.run::<f64>(),
        4 => op.run::<PF64x4>(),
        8 => op.run::<PF64x8>(),
        _ => panic!("no {lanes}-lane backend"),
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::WithSimd;

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn avx2<Op: WithSimd>(op: Op) -> Op::Output {
        op.run::<crate::avx2::F64x4>()
    }

    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) fn avx512<Op: WithSimd>(op: Op) -> Op::Output {
        op.run::<crate::avx512::F64x8>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Lanes;
    impl WithSimd for Lanes {
        type Output = usize;
        fn run<V: SimdF64>(self) -> usize {
            V::LANES
        }
    }

    #[test]
    fn dispatch_runs_the_requested_width() {
        for lanes in [1, 4, 8] {
            assert_eq!(dispatch(lanes, Lanes), lanes);
        }
    }

    #[test]
    fn detection_is_stable_and_agrees_with_the_static_features() {
        let isa = Isa::detected();
        assert_eq!(isa, Isa::detected());
        // a build that enables a feature statically runs only where it exists
        if crate::HAS_AVX512 {
            assert_eq!(isa, Isa::Avx512);
        } else if crate::HAS_AVX2 {
            assert!(isa >= Isa::Avx2);
        }
    }
}
