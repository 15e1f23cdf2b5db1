//! Jacobi ping-pong buffer pair.
//!
//! Jacobi-style stencils keep two arrays, one for odd and one for even
//! time levels (paper §3.3, "Conventionally the stencil of Jacobi style is
//! implemented with two arrays"). `PingPong` owns both and tracks which
//! one holds the latest time level. Tiled executors rely on the *two
//! latest* levels being available simultaneously — the tessellation
//! correctness argument uses exactly that property.
//!
//! A pair is the unit every sweep works on: a compiled plan advances one
//! in place (`Plan::run_pair_at` in `stencil-core`, in every
//! dimensionality), so a caller that owns its grid and a scratch surface
//! of the same shape — a recycled buffer is fine — runs without
//! allocating, and `Plan::run` is that entry on a pair of its input's
//! clone and a zeroed scratch surface, both taken from the surface pool
//! ([`crate::pool`]).

/// A pair of equally-shaped buffers with a parity pointer.
#[derive(Clone, Debug)]
pub struct PingPong<G> {
    bufs: [G; 2],
    /// Index of the buffer holding the most recent time level.
    cur: usize,
    /// Number of completed swaps (== time steps advanced for whole-grid
    /// sweeps).
    steps: usize,
}

impl<G> PingPong<G> {
    /// Create from an initial state; the second buffer starts as a clone.
    pub fn new(initial: G) -> Self
    where
        G: Clone,
    {
        let other = initial.clone();
        Self {
            bufs: [initial, other],
            cur: 0,
            steps: 0,
        }
    }

    /// Create from two explicit buffers (must be equally shaped; the
    /// caller guarantees it).
    pub fn from_pair(current: G, scratch: G) -> Self {
        Self {
            bufs: [current, scratch],
            cur: 0,
            steps: 0,
        }
    }

    /// The buffer holding the latest time level.
    #[inline(always)]
    pub fn current(&self) -> &G {
        &self.bufs[self.cur]
    }

    /// The buffer holding the previous time level.
    #[inline(always)]
    pub fn previous(&self) -> &G {
        &self.bufs[1 - self.cur]
    }

    /// Borrow `(src, dst)` = (latest level, buffer to write the next
    /// level into).
    #[inline(always)]
    pub fn src_dst(&mut self) -> (&G, &mut G) {
        let (a, b) = self.bufs.split_at_mut(1);
        if self.cur == 0 {
            (&a[0], &mut b[0])
        } else {
            (&b[0], &mut a[0])
        }
    }

    /// Mutable access to both buffers as `(current, previous)`.
    #[inline(always)]
    pub fn both_mut(&mut self) -> (&mut G, &mut G) {
        let (a, b) = self.bufs.split_at_mut(1);
        if self.cur == 0 {
            (&mut a[0], &mut b[0])
        } else {
            (&mut b[0], &mut a[0])
        }
    }

    /// Flip parity after writing a full step into the scratch buffer.
    #[inline(always)]
    pub fn swap(&mut self) {
        self.cur = 1 - self.cur;
        self.steps += 1;
    }

    /// Advance parity by `m` steps at once (used by folded executors that
    /// write the `t+m` level directly into the scratch buffer: the buffer
    /// flip is still a single swap, but the logical step count moves by
    /// `m`; `m = 0` flips to a copy of the same level in another layout).
    #[inline(always)]
    pub fn swap_folded(&mut self, m: usize) {
        self.cur = 1 - self.cur;
        self.steps += m;
    }

    /// Completed logical time steps.
    #[inline(always)]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Consume and return the buffer holding the latest level.
    pub fn into_current(self) -> G {
        self.into_pair().0
    }

    /// Consume and return both buffers as `(current, previous)`.
    pub fn into_pair(self) -> (G, G) {
        let [a, b] = self.bufs;
        if self.cur == 0 {
            (a, b)
        } else {
            (b, a)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grid1D;

    #[test]
    fn swap_tracks_parity_and_steps() {
        let g = Grid1D::from_fn(4, |i| i as f64);
        let mut pp = PingPong::new(g);
        assert_eq!(pp.steps(), 0);
        {
            let (src, dst) = pp.src_dst();
            for i in 0..4 {
                dst[i] = src[i] + 1.0;
            }
        }
        pp.swap();
        assert_eq!(pp.steps(), 1);
        assert_eq!(pp.current()[2], 3.0);
        assert_eq!(pp.previous()[2], 2.0);
    }

    #[test]
    fn folded_swap_counts_m_steps() {
        let mut pp = PingPong::new(Grid1D::zeros(2));
        pp.swap_folded(2);
        pp.swap_folded(2);
        assert_eq!(pp.steps(), 4);
    }

    #[test]
    fn into_current_returns_latest() {
        let mut pp = PingPong::new(Grid1D::zeros(3));
        {
            let (_, dst) = pp.src_dst();
            dst[0] = 9.0;
        }
        pp.swap();
        let g = pp.into_current();
        assert_eq!(g[0], 9.0);
    }
}
