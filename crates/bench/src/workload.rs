//! Workload generators: reproducible random grids, drawn from the
//! workspace's one seeded generator ([`SplitMix64`], from
//! `stencil-faults`).

use stencil_faults::SplitMix64;
use stencil_grid::{Grid1D, Grid2D, Grid3D};

/// Seeded uniform random 1D grid in `[0, 1)`.
pub fn random_1d(n: usize, seed: u64) -> Grid1D {
    let mut rng = SplitMix64::new(seed);
    Grid1D::from_fn(n, |_| rng.next_f64())
}

/// Seeded uniform random 2D grid in `[0, 1)`.
pub fn random_2d(ny: usize, nx: usize, seed: u64) -> Grid2D {
    let mut rng = SplitMix64::new(seed);
    Grid2D::from_fn(ny, nx, |_, _| rng.next_f64())
}

/// Seeded uniform random 3D grid in `[0, 1)`.
pub fn random_3d(nz: usize, ny: usize, nx: usize, seed: u64) -> Grid3D {
    let mut rng = SplitMix64::new(seed);
    Grid3D::from_fn(nz, ny, nx, |_, _, _| rng.next_f64())
}

/// Gaussian bump initial condition (smooth, physical-looking heat
/// profile) for examples and demos.
pub fn gaussian_1d(n: usize, center: f64, sigma: f64) -> Grid1D {
    Grid1D::from_fn(n, |i| {
        let x = i as f64 / n as f64 - center;
        (-x * x / (2.0 * sigma * sigma)).exp()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_by_seed() {
        let a = random_1d(100, 7);
        let b = random_1d(100, 7);
        let c = random_1d(100, 8);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn values_in_unit_interval() {
        let g = random_2d(10, 10, 3);
        assert!(g.to_dense().iter().all(|&v| (0.0..1.0).contains(&v)));
        let h = random_3d(4, 5, 6, 9);
        assert!(h.to_dense().iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn gaussian_peaks_at_center() {
        let g = gaussian_1d(101, 0.5, 0.1);
        let peak = g
            .as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!((48..=52).contains(&peak));
    }
}
