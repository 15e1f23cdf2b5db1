//! # stencil-bench
//!
//! Harness regenerating every table and figure of the paper's evaluation
//! (§4). Each binary prints the same rows/series the paper reports:
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `table1` | Table 1 — benchmark parameters |
//! | `fig8` | Fig. 8 — single-thread block-free GFLOP/s across storage levels, T and 10T |
//! | `table2` | Table 2 — relative improvement per storage level |
//! | `fig9` | Fig. 9 — multicore cache-blocking GFLOP/s + speedups (AVX2 & AVX-512) |
//! | `fig10` | Fig. 10 — scalability vs cores |
//! | `fig3d` | dedicated 3D z-ring pipeline — block-free + tessellate, with a radius-2 fold and a tuner probe |
//! | `table3` | Table 3 — speedup over single core |
//! | `costmodel` | §3.2 collects & profitability indices (90/25/9, 3.6/10, 2.25) |
//! | `ablation` | folding factor, time-block, scheduling and transpose-scheme ablations |
//! | `tune` | pre-warm the per-host tuning cache (Table-1 kernels), chosen-vs-model report |
//! | `fig_ooc` | out-of-core streaming: resident vs streaming vs streaming+prefetch at a quarter-domain budget |
//! | `micro`, `micro2d` | 1D step-kernel cost across working-set sizes; 2D multiload vs the folded register pipeline |
//! | `compare` | perf regression gate: fresh `--json` dumps vs committed baselines |
//!
//! The served, wire and out-of-core *system* paths are measured by the
//! repo's `benchmark/` package (`benchmark/run.sh`), not from here.
//!
//! Default problem sizes are scaled to finish on a laptop; pass `--paper`
//! for the Table-1 sizes and `--quick` for CI smoke runs. All binaries
//! accept `--json <path>` to dump machine-readable results.
//!
//! ```
//! use stencil_bench::{gflops, Table};
//! use std::time::Duration;
//!
//! let mut t = Table::new("demo", "GFLOP/s");
//! // 1M points x 10 steps x 5 flops in 25 ms = 2 GFLOP/s.
//! let rate = gflops(1_000_000, 10, 5, Duration::from_millis(25));
//! t.put("1D-Heat", "scalar", Some(rate));
//! assert_eq!(t.get("1D-Heat", "scalar"), Some(2.0));
//! ```

// Offset-indexed loops are the domain idiom here (windows, tiles, taps);
// iterators would hide the math.
#![allow(clippy::needless_range_loop)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod measure;
pub mod report;
pub mod suite;
pub mod workload;

pub use config::Args;
pub use measure::gflops;
pub use report::Table;
