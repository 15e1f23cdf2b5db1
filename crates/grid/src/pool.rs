//! The surface pool: one process-wide, bounded free list under every
//! [`AlignedBuf`](crate::AlignedBuf).
//!
//! A run clones its input into a pair, the resident route sweeps on a
//! scratch surface, a wire job decodes into a fresh grid — and each drops
//! its surfaces when it is done. Left to the allocator, the next run
//! asks for the same bytes again and pays for them again: a large block
//! comes back from the kernel as untouched pages and faults in on first
//! write, or glibc trims the top of its heap and hands the pages back.
//! The pool keeps the freed blocks instead:
//!
//! * **Give.** A dropped buffer of at least [`POOL_MIN_BYTES`] goes back
//!   to the pool while the pool's held bytes stay within
//!   [`POOL_CAP_BYTES`]; a buffer that would push it over is freed.
//! * **Take.** A new buffer of at least [`POOL_MIN_BYTES`] takes the
//!   smallest held block that fits (best fit, keyed by capacity, not by
//!   shape: a freed 16 MiB surface may serve an 8 MiB grid, as the
//!   allocator's own holes would), unless the block is more than
//!   [`POOL_FIT_RATIO`] times the buffer. A take that finds no fitting block
//!   frees everything the pool holds before it allocates, so a shift to
//!   larger grids reuses the freed bytes through the allocator rather than
//!   stacking new blocks beside idle ones.
//!
//! Buffers below [`POOL_MIN_BYTES`] skip the pool: the allocator's own
//! free lists serve them without page faults. No constructor hands out a
//! previous owner's bytes: every take is zero-filled or fully overwritten
//! before it is seen, padding included.

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::aligned::ALIGN;

/// Most bytes the pool holds at once: one pair of the benchmark's
/// largest resident grid (2 × 16 MiB), so a run of it finds both
/// surfaces held, and far below the 128 MiB first-touch grid it times.
/// No more: a held block cannot serve the allocator's other requests
/// (the wire path's frame buffers, say), so what the pool keeps idle
/// adds to the peak RSS of a process whose jobs mix sizes. On a 2-core
/// host the served workload's peak RSS median rose 8 % over the
/// pool-less build at a 64 MiB cap and 6 % at this one.
pub const POOL_CAP_BYTES: usize = 32 << 20;

/// Smallest buffer, in bytes, that goes through the pool; smaller ones
/// are allocated and freed directly.
pub const POOL_MIN_BYTES: usize = 1 << 20;

/// Largest ratio of a held block's capacity to the buffer it may serve.
/// Unlike an allocator's hole, a block is not split, so the rest of it
/// stays resident and unused for the buffer's life. 4 lets the
/// benchmark's 7 MiB grids reuse its 16 MiB ones and keeps its 2 MiB
/// served grids off them.
pub const POOL_FIT_RATIO: usize = 4;

/// The pool's counters since the process started ([`pool_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served by a held block.
    pub hits: u64,
    /// Takes that found no fitting block and allocated.
    pub misses: u64,
    /// Bytes of the blocks the pool holds now.
    pub held_bytes: u64,
}

/// The process-wide pool's counters.
pub fn pool_stats() -> PoolStats {
    POOL.stats()
}

/// One heap block: room for `cap` doubles behind its first
/// [`ALIGN`]-aligned address.
pub(crate) struct Block {
    base: NonNull<u8>,
    cap: usize,
}

// SAFETY: a Block is the sole owner of its allocation.
unsafe impl Send for Block {}

impl Block {
    /// A fresh block for `cap > 0` doubles, zero-filled when `zeroed`.
    fn alloc(cap: usize, zeroed: bool) -> Self {
        let layout = Self::layout(cap);
        // SAFETY: the layout has non-zero size.
        let base = unsafe {
            match zeroed {
                true => alloc_zeroed(layout),
                false => alloc(layout),
            }
        };
        let Some(base) = NonNull::new(base) else {
            handle_alloc_error(layout)
        };
        Self { base, cap }
    }

    /// `cap` doubles plus the slack [`Block::data`] may skip. The block
    /// is requested at `f64` alignment and aligned by hand: glibc's
    /// `memalign` trims its over-allocation, so the hole a freed block
    /// leaves would be too small for the next block of the same size.
    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(
            cap * core::mem::size_of::<f64>() + ALIGN,
            core::mem::align_of::<f64>(),
        )
        .expect("buffer too large for layout")
    }

    fn bytes(&self) -> usize {
        self.cap * core::mem::size_of::<f64>()
    }

    /// First [`ALIGN`]-aligned address of the block; `cap` doubles fit
    /// behind it.
    pub(crate) fn data(&self) -> *mut f64 {
        let skip = (ALIGN - self.base.as_ptr() as usize % ALIGN) % ALIGN;
        // SAFETY: `skip < ALIGN`, the slack `layout` adds.
        unsafe { self.base.as_ptr().add(skip) }.cast::<f64>()
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        // SAFETY: `base` was allocated with this layout.
        unsafe { dealloc(self.base.as_ptr(), Self::layout(self.cap)) };
    }
}

/// What a take starts from.
pub(crate) enum Fill {
    /// Contents unspecified; the caller writes every double it exposes.
    Any,
    /// All zero.
    Zero,
}

/// A bounded best-fit free list of [`Block`]s.
pub(crate) struct Pool {
    /// The held blocks and their total bytes.
    free: Mutex<(Vec<Block>, usize)>,
    cap_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The one pool every [`AlignedBuf`](crate::AlignedBuf) takes from and
/// gives back to.
pub(crate) static POOL: Pool = Pool::new(POOL_CAP_BYTES);

impl Pool {
    const fn new(cap_bytes: usize) -> Self {
        Self {
            free: Mutex::new((Vec::new(), 0)),
            cap_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A block for at least `len > 0` doubles. `fill` says what a fresh
    /// allocation must hold; a held block comes back as its last owner
    /// left it, and the second value says which one this is (`true`:
    /// recycled).
    pub(crate) fn take(&self, len: usize, fill: Fill) -> (Block, bool) {
        if len * core::mem::size_of::<f64>() < POOL_MIN_BYTES {
            return (Block::alloc(len, matches!(fill, Fill::Zero)), false);
        }
        let mut free = self.lock();
        let best = (free.0.iter().enumerate())
            .filter(|(_, b)| b.cap >= len && b.cap <= POOL_FIT_RATIO * len)
            .min_by_key(|(_, b)| b.cap)
            .map(|(i, _)| i);
        if let Some(i) = best {
            let block = free.0.swap_remove(i);
            free.1 -= block.bytes();
            drop(free);
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (block, true);
        }
        // release on miss: the held bytes go back to the allocator
        // before it is asked for more
        let released = std::mem::take(&mut free.0);
        free.1 = 0;
        drop(free);
        drop(released);
        self.misses.fetch_add(1, Ordering::Relaxed);
        (Block::alloc(len, matches!(fill, Fill::Zero)), false)
    }

    /// Hold `block` for a later take, or free it when it is below
    /// [`POOL_MIN_BYTES`] or would push the held bytes past the cap.
    pub(crate) fn give(&self, block: Block) {
        let bytes = block.bytes();
        if bytes < POOL_MIN_BYTES {
            return;
        }
        let mut free = self.lock();
        if free.1 + bytes <= self.cap_bytes {
            free.1 += bytes;
            free.0.push(block);
        }
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            held_bytes: self.lock().1 as u64,
        }
    }

    /// The free list. No code under the lock panics, so a poisoned lock
    /// still guards a consistent list.
    fn lock(&self) -> std::sync::MutexGuard<'_, (Vec<Block>, usize)> {
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = (1 << 20) / 8;

    fn take(pool: &Pool, len: usize) -> Block {
        pool.take(len, Fill::Any).0
    }

    #[test]
    fn a_block_given_back_is_taken_again() {
        let pool = Pool::new(8 << 20);
        let a = take(&pool, 2 * MIB);
        let at = a.data();
        pool.give(a);
        let (b, recycled) = pool.take(2 * MIB, Fill::Zero);
        assert!(recycled);
        assert_eq!(b.data(), at, "the same allocation");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.held_bytes), (1, 1, 0));
    }

    #[test]
    fn best_fit_picks_the_smallest_block_that_fits() {
        let pool = Pool::new(16 << 20);
        let blocks = [4, 2, 3].map(|m| take(&pool, m * MIB));
        let at = blocks.each_ref().map(Block::data);
        blocks.into_iter().for_each(|b| pool.give(b));
        // 2.5 MiB: the 3 MiB block, not the 4 MiB one
        let b = take(&pool, 5 * MIB / 2);
        assert_eq!((b.data(), b.cap), (at[2], 3 * MIB));
        // exactly 2 MiB fits the 2 MiB block
        assert_eq!(take(&pool, 2 * MIB).data(), at[1]);
        assert_eq!(pool.stats().held_bytes, 4 << 20);
    }

    #[test]
    fn a_block_serves_no_buffer_more_than_the_fit_ratio_smaller() {
        let pool = Pool::new(16 << 20);
        let big = take(&pool, 8 * MIB);
        let at = big.data();
        pool.give(big);
        // 8 MiB for 2 MiB: exactly the ratio
        let b = take(&pool, 2 * MIB);
        assert_eq!(b.data(), at);
        pool.give(b);
        // 8 MiB for 1.5 MiB: past it, so a miss, which releases the block
        let (small, recycled) = pool.take(3 * MIB / 2, Fill::Zero);
        assert!(!recycled);
        assert_eq!(small.cap, 3 * MIB / 2);
        assert_eq!(pool.stats().held_bytes, 0);
    }

    #[test]
    fn the_cap_holds() {
        let pool = Pool::new(5 << 20);
        let blocks: Vec<Block> = (0..4).map(|_| take(&pool, 2 * MIB)).collect();
        blocks.into_iter().for_each(|b| pool.give(b));
        // two 2 MiB blocks fit under 5 MiB; the third and fourth are freed
        assert_eq!(pool.stats().held_bytes, 4 << 20);
        // a block above the cap is never held
        pool.give(take(&pool, 6 * MIB));
        assert!(pool.stats().held_bytes <= 5 << 20);
    }

    #[test]
    fn small_blocks_skip_the_pool() {
        let pool = Pool::new(8 << 20);
        let (a, recycled) = pool.take(MIB - 1, Fill::Zero);
        assert!(!recycled);
        pool.give(a);
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn a_miss_releases_everything_the_pool_holds() {
        let pool = Pool::new(16 << 20);
        let (a, b) = (take(&pool, 2 * MIB), take(&pool, 3 * MIB));
        pool.give(a);
        pool.give(b);
        assert_eq!(pool.stats().held_bytes, 5 << 20);
        let (big, recycled) = pool.take(4 * MIB, Fill::Zero);
        assert!(!recycled);
        assert_eq!(pool.stats().held_bytes, 0, "released on the miss");
        assert_eq!(pool.stats().misses, 3);
        pool.give(big);
        assert_eq!(pool.stats().held_bytes, 4 << 20);
    }

    #[test]
    fn eight_threads_take_and_give_concurrently() {
        let pool = Pool::new(12 << 20);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..200 {
                        let len = (1 + (t + i) % 3) * MIB;
                        let (b, _) = pool.take(len, Fill::Any);
                        assert!(b.cap >= len);
                        // SAFETY: the block holds `cap` doubles and is
                        // this thread's alone until it is given back.
                        unsafe {
                            let d = b.data();
                            d.write(t as f64);
                            d.add(len - 1).write(i as f64);
                            assert_eq!((d.read(), d.add(len - 1).read()), (t as f64, i as f64));
                        }
                        pool.give(b);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 8 * 200);
        assert!(s.held_bytes <= 12 << 20);
        let (free, held) = &*pool.lock();
        assert_eq!(*held, free.iter().map(Block::bytes).sum::<usize>());
    }
}
