//! 64-byte-aligned heap buffer of `f64`.
//!
//! Vector sets in the transpose layout must sit on vector-width
//! boundaries (the paper aligns each set to 32 bytes; we align every
//! buffer to 64 so both AVX2 and AVX-512 sets are aligned and no buffer
//! straddles a cache line unnecessarily).

use crate::pool::{Block, Fill, POOL};

/// Cache-line alignment used for all grid storage.
pub const ALIGN: usize = 64;

/// Below this many bytes [`AlignedBuf::zeroed_parallel`] falls back to
/// the serial [`AlignedBuf::zeroed`]: thread spawn costs more than the
/// page touches save.
pub const FIRST_TOUCH_MIN_BYTES: usize = 1 << 22;

/// A heap-allocated, 64-byte aligned, fixed-length `f64` buffer.
///
/// Its block comes from the surface pool ([`crate::pool`]) and goes back
/// to it on drop: a buffer of at least [`crate::pool::POOL_MIN_BYTES`]
/// takes the smallest held block that fits, so a run's pair, a resident
/// job's scratch surface or a decoded wire grid reuses the pages the
/// previous one faulted in, and the pool's byte cap
/// ([`crate::pool::POOL_CAP_BYTES`]) bounds what it keeps idle. A block
/// may be larger than the buffer; only `len` doubles are ever visible,
/// and every constructor writes all of them before handing the buffer
/// out.
pub struct AlignedBuf {
    ptr: *mut f64,
    len: usize,
    /// The block `ptr` points into; `None` for an empty buffer.
    block: Option<Block>,
}

// SAFETY: AlignedBuf owns its allocation exclusively; &AlignedBuf only
// hands out shared slices, &mut hands out exclusive slices.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// A buffer of `len` doubles on a block from the pool; `Fill::Any`
    /// leaves the contents unspecified, so the caller writes all `len`
    /// doubles before any is read. The second value is `true` when the
    /// block was recycled, that is, when `Fill::Zero` did not zero it.
    fn take(len: usize, fill: Fill) -> (Self, bool) {
        let (block, recycled) = match len {
            0 => (None, false),
            _ => {
                let (block, recycled) = POOL.take(len, fill);
                (Some(block), recycled)
            }
        };
        let dangling = core::ptr::NonNull::<f64>::dangling().as_ptr();
        let ptr = block.as_ref().map_or(dangling, Block::data);
        (Self { ptr, len, block }, recycled)
    }

    /// A zero-initialized buffer of `len` doubles.
    pub fn zeroed(len: usize) -> Self {
        let (buf, recycled) = Self::take(len, Fill::Zero);
        if recycled {
            // SAFETY: valid for `len` writes; f64 zero is all zero bytes.
            unsafe { core::ptr::write_bytes(buf.ptr, 0, len) };
        }
        buf
    }

    /// A zero-initialized buffer of `len` doubles, written from `workers`
    /// threads in disjoint cache-line-aligned chunks.
    ///
    /// A fresh block is untouched memory: the first write faults each
    /// page in on the writing thread's NUMA node. A single-threaded
    /// zeroing loop therefore serializes the allocation *and* homes every
    /// page on one node — this variant writes the zeros from the threads
    /// that will sweep the data, so first-touch placement lands where the
    /// work is. Falls back to [`Self::zeroed`] below
    /// [`FIRST_TOUCH_MIN_BYTES`] or for a single worker. The contents are
    /// identical to `zeroed` either way.
    pub fn zeroed_parallel(len: usize, workers: usize) -> Self {
        let workers = workers.max(1).min(len / (ALIGN / 8) + 1);
        if workers == 1 || len * core::mem::size_of::<f64>() < FIRST_TOUCH_MIN_BYTES {
            return Self::zeroed(len);
        }
        let (buf, _) = Self::take(len, Fill::Any);
        let ptr = buf.ptr;
        // chunk starts stay 64-byte aligned so no two workers share a
        // cache line (or a page, for page-aligned allocations)
        let per = len.div_ceil(workers).next_multiple_of(ALIGN / 8);
        struct SendPtr(*mut f64);
        // SAFETY: each worker writes a disjoint chunk of the allocation.
        unsafe impl Send for SendPtr {}
        std::thread::scope(|scope| {
            for w in 1..workers {
                let lo = (per * w).min(len);
                let hi = (per * (w + 1)).min(len);
                if lo >= hi {
                    break;
                }
                // SAFETY: [lo, hi) chunks are disjoint and in-bounds.
                let chunk = SendPtr(unsafe { ptr.add(lo) });
                scope.spawn(move || {
                    let chunk = chunk;
                    // SAFETY: valid for hi - lo writes; f64 zero is the
                    // all-zero-bytes pattern.
                    unsafe { core::ptr::write_bytes(chunk.0, 0, hi - lo) };
                });
            }
            // SAFETY: chunk 0 is this thread's own disjoint range.
            unsafe { core::ptr::write_bytes(ptr, 0, per.min(len)) };
        });
        buf
    }

    /// Allocate and initialize from a function of the index.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        let mut buf = Self::zeroed(len);
        for (i, slot) in buf.as_mut_slice().iter_mut().enumerate() {
            *slot = f(i);
        }
        buf
    }

    /// Allocate and copy from a slice: one `memcpy` into the block.
    pub fn from_slice(src: &[f64]) -> Self {
        let (buf, _) = Self::take(src.len(), Fill::Any);
        // SAFETY: the block holds `len` doubles and cannot overlap `src`,
        // which is borrowed while the block is exclusively ours.
        unsafe { core::ptr::copy_nonoverlapping(src.as_ptr(), buf.ptr, src.len()) };
        buf
    }

    /// Number of doubles.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared slice of the whole buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: ptr valid for len elements by construction.
        unsafe { core::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Exclusive slice of the whole buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: ptr valid for len elements; &mut self gives exclusivity.
        unsafe { core::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// Raw const pointer to element 0.
    #[inline(always)]
    pub fn as_ptr(&self) -> *const f64 {
        self.ptr
    }

    /// Raw mut pointer to element 0.
    #[inline(always)]
    pub fn as_mut_ptr(&mut self) -> *mut f64 {
        self.ptr
    }

    /// Fill with a constant.
    pub fn fill(&mut self, v: f64) {
        self.as_mut_slice().fill(v);
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if let Some(block) = self.block.take() {
            POOL.give(block);
        }
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl core::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "AlignedBuf(len={})", self.len)
    }
}

impl core::ops::Deref for AlignedBuf {
    type Target = [f64];
    #[inline(always)]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl core::ops::DerefMut for AlignedBuf {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        let b = AlignedBuf::zeroed(1000);
        assert_eq!(b.len(), 1000);
        assert!(b.iter().all(|&x| x == 0.0));
        assert_eq!(b.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn from_fn_and_clone() {
        let b = AlignedBuf::from_fn(17, |i| i as f64 * 2.0);
        assert_eq!(b[16], 32.0);
        let c = b.clone();
        assert_eq!(b, c);
        assert_ne!(b.as_ptr(), c.as_ptr());
    }

    #[test]
    fn empty_buffer() {
        let b = AlignedBuf::zeroed(0);
        assert!(b.is_empty());
        assert_eq!(b.as_slice(), &[] as &[f64]);
        let _ = b.clone();
    }

    #[test]
    fn mutation_through_deref() {
        let mut b = AlignedBuf::zeroed(8);
        b[3] = 7.0;
        b.fill(1.5);
        assert!(b.iter().all(|&x| x == 1.5));
    }

    #[test]
    fn zeroed_parallel_matches_zeroed() {
        // above the fallback threshold: really touched in parallel
        let len = FIRST_TOUCH_MIN_BYTES / 8 + 1;
        for workers in [1, 2, 3, 8] {
            let b = AlignedBuf::zeroed_parallel(len, workers);
            assert_eq!(b.len(), len);
            assert_eq!(b.as_ptr() as usize % ALIGN, 0, "workers={workers}");
            assert!(b.iter().all(|&x| x == 0.0), "workers={workers}");
        }
        // below it: serial fallback, same contents
        let b = AlignedBuf::zeroed_parallel(100, 4);
        assert!(b.iter().all(|&x| x == 0.0));
        assert!(AlignedBuf::zeroed_parallel(0, 4).is_empty());
    }

    #[test]
    fn many_allocations_stay_aligned() {
        for len in 1..100 {
            let b = AlignedBuf::zeroed(len);
            assert_eq!(b.as_ptr() as usize % ALIGN, 0, "len={len}");
        }
    }
}
