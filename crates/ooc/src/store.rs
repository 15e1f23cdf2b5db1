//! The file-backed slab store.
//!
//! ## On-disk format (version 1)
//!
//! A hand-rolled chunked binary layout, everything little-endian:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "STNCLOOC"
//!      8     4  version (u32, = 1)
//!     12     4  dirty   (u32, 0 clean / 1 mid-pass)
//!     16     8  nz      (u64)
//!     24     8  ny      (u64)
//!     32     8  nx      (u64)
//!     40     8  radius  (u64, stencil radius of the producing plan)
//!     48     8  round   (u64, time steps fully applied to `surface`)
//!     56     8  surface (u64, 0 or 1: which payload copy is current)
//!     64     —  payload: two surfaces, each nz plane chunks of
//!               ny*nx raw f64 (unpadded, row-major within a plane)
//! ```
//!
//! The payload is a file-level pingpong: a streaming pass reads slab
//! windows from the current surface and writes advanced interiors to
//! the other, so a window write can never clobber halo planes a later
//! window still needs to read. [`SlabStore::commit_pass`] flips the
//! surface and advances `round` only after the data is synced.
//!
//! The `dirty` flag brackets every pass: it is raised (and synced)
//! before the first write of a pass and cleared by the commit. A
//! process that dies mid-pass leaves it set, and [`SlabStore::open`]
//! reports the store as [`OocError::Crashed`] with the last committed
//! round instead of silently resuming mixed-round data —
//! [`SlabStore::recover`] rolls such a store back to that committed
//! round (the interrupted pass only ever wrote the other surface, so
//! the rollback is metadata-only) and the job can resume. Truncation is
//! caught by checking the file length against the header shape.
//!
//! ## Named and unnamed stores
//!
//! A sync buys one thing: that a process which opens the file *after a
//! crash* finds what was written. A **named** store ([`SlabStore::create`],
//! [`SlabStore::open`], [`SlabStore::recover`]) has such readers — anyone
//! holding its path — so every pass syncs the raised dirty flag before its
//! first payload write and the payload before its commit. An **unnamed**
//! store ([`SlabStore::unnamed`]) is unlinked before its first payload
//! byte: no path leads to it, in this process or a later one, a crash (or
//! `kill -9`) leaves nothing behind for the kernel to keep, and dropping it
//! releases its pages. It has no reader to sync for, so
//! `sync_payload` — the one place that asks — returns at once. Everything
//! else is the same code on both: the header is still written and the
//! dirty flag still brackets each pass (a reader of the open handle sees a
//! well-formed version-1 file), and reads, writes, the retry loop and the
//! failpoints do not know which kind they serve.
//!
//! A named store also holds an exclusive lock on its file for as long as
//! the handle lives, so one live store has one writer: [`SlabStore::create`],
//! [`SlabStore::open`] and [`SlabStore::recover`] on a path another handle
//! holds return [`OocError::Busy`] and leave the file alone. An unnamed
//! store has no path to contend for and takes no lock.
//!
//! ## Moving planes
//!
//! A window grid whose rows are unpadded (`stride_y == nx`) holds planes
//! `[z0, z1)` as the same contiguous little-endian bytes the file does,
//! so [`SlabStore::read_window`], [`SlabStore::write_planes`] — and with
//! them [`SlabStore::create`] and [`SlabStore::to_grid`] — issue their
//! one positioned read or write **directly on the grid's memory**: each
//! byte moves once, nothing is staged. Padded rows (and big-endian
//! hosts) keep the row codec, plane by plane through a staging buffer of
//! one plane, never a window. The format is the same either way.
//!
//! Every read, write and fsync runs behind a bounded retry loop with
//! exponential backoff ([`IO_RETRY_MAX`], [`IO_RETRY_BASE_US`]):
//! transient-classified `io::ErrorKind`s are absorbed (counted in
//! [`StoreStats::io_retries`]) instead of aborting a multi-minute
//! streamed job, and the `ooc_read` / `ooc_write` / `ooc_fsync`
//! failpoints (`stencil-faults`) inject into exactly that path.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use stencil_faults::Failpoint;
use stencil_grid::Grid3D;

use crate::error::OocError;

/// First 8 bytes of every slab store.
pub const MAGIC: [u8; 8] = *b"STNCLOOC";
/// Current format version.
pub const VERSION: u32 = 1;
const HEADER_LEN: u64 = 64;

/// Most transient-failure retries per IO operation before the error is
/// surfaced to the caller.
pub const IO_RETRY_MAX: u32 = 4;
/// First backoff sleep; doubles on every further retry of the same
/// operation (50, 100, 200, 400 us).
pub const IO_RETRY_BASE_US: u64 = 50;

/// IO error kinds worth retrying: the OS-level "try again" family. Real
/// data errors (truncation, permission, corruption) surface immediately.
fn transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// Cumulative IO counters of a [`SlabStore`], snapshotted by
/// [`SlabStore::stats`].
///
/// `bytes_read` / `bytes_written` are deterministic functions of the
/// streaming geometry (domain, budget, pass schedule); the prefetch
/// hit/miss split and the stall time depend on IO/compute timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Payload bytes read from the file.
    pub bytes_read: u64,
    /// Payload bytes written to the file.
    pub bytes_written: u64,
    /// Window loads that were already resident when the sweep asked.
    pub prefetch_hit: u64,
    /// Window loads the sweep had to wait for.
    pub prefetch_miss: u64,
    /// Microseconds the sweep spent stalled on IO.
    pub stall_us: u64,
    /// Microseconds spent inside window reads/writes (wall time of the
    /// transfer + codec, on whichever thread issued them; a grid job's
    /// final pass also counts landing its planes in the result). Under
    /// prefetch this exceeds `stall_us` — the difference is IO the
    /// pipeline hid under compute.
    pub io_us: u64,
    /// Transient IO failures absorbed by the bounded retry/backoff
    /// loop (each count is one re-attempt of a read, write or fsync).
    pub io_retries: u64,
}

#[derive(Default)]
struct StatsCell {
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    prefetch_hit: AtomicU64,
    prefetch_miss: AtomicU64,
    stall_us: AtomicU64,
    io_us: AtomicU64,
    io_retries: AtomicU64,
}

/// A 3D grid backed by a file instead of resident memory.
///
/// Windows move through [`read_window`](Self::read_window) /
/// [`write_planes`](Self::write_planes), both `&self` (positioned
/// pread/pwrite — no shared cursor), so a background IO thread and the
/// sweep thread can use one store concurrently.
pub struct SlabStore {
    file: File,
    /// `None`: unlinked at creation, so nothing can ever reopen it.
    path: Option<PathBuf>,
    nz: usize,
    ny: usize,
    nx: usize,
    radius: usize,
    round: AtomicU64,
    surface: AtomicU64,
    stats: StatsCell,
}

/// Take the exclusive lock a named store holds for its lifetime (it goes
/// with the handle's file): a second handle on a live store would
/// truncate, roll back or interleave passes under the first. A file
/// system without locks serves the store unlocked, as before locks.
fn lock(file: &File, path: &Path) -> Result<(), OocError> {
    match file.try_lock() {
        Ok(()) => Ok(()),
        Err(std::fs::TryLockError::WouldBlock) => Err(OocError::Busy {
            path: path.to_path_buf(),
        }),
        Err(std::fs::TryLockError::Error(e)) if e.kind() == std::io::ErrorKind::Unsupported => {
            Ok(())
        }
        Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
    }
}

impl SlabStore {
    /// Create a store at `path` holding `grid` as round-0 data of
    /// surface 0. An existing file is truncated — once this handle holds
    /// its lock: a store another handle still holds is
    /// [`OocError::Busy`] and left alone.
    pub fn create(path: &Path, grid: &Grid3D, radius: usize) -> Result<Self, OocError> {
        // truncated below, once this handle holds the lock
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        lock(&file, path)?;
        file.set_len(0)?;
        Self::seed(file, Some(path.to_path_buf()), grid, radius)
    }

    /// [`create`](Self::create) for a store nobody will reopen: the file
    /// briefly has the name `at` (which must not belong to a live store)
    /// and is unlinked before it has a length — see the module docs.
    pub fn unnamed(at: &Path, grid: &Grid3D, radius: usize) -> Result<Self, OocError> {
        // what a killed process of an earlier build left under a recycled
        // pid; `create_new`, so no live name is ever truncated through
        let _ = std::fs::remove_file(at);
        let mut fresh = OpenOptions::new();
        let file = fresh.read(true).write(true).create_new(true).open(at)?;
        std::fs::remove_file(at)?;
        Self::seed(file, None, grid, radius)
    }

    fn seed(
        file: File,
        path: Option<PathBuf>,
        grid: &Grid3D,
        radius: usize,
    ) -> Result<Self, OocError> {
        let store = Self {
            file,
            path,
            nz: grid.nz(),
            ny: grid.ny(),
            nx: grid.nx(),
            radius,
            round: AtomicU64::new(0),
            surface: AtomicU64::new(0),
            stats: StatsCell::default(),
        };
        store.file.set_len(HEADER_LEN + 2 * store.surface_bytes())?;
        store.write_header(false)?;
        let written = store.stats.bytes_written.load(Ordering::Relaxed);
        let io = store.stats.io_us.load(Ordering::Relaxed);
        store.write_planes(0, 0, grid, 0, grid.nz())?;
        // seeding the store is not streaming traffic
        store.stats.bytes_written.store(written, Ordering::Relaxed);
        store.stats.io_us.store(io, Ordering::Relaxed);
        store.sync_payload()?;
        Ok(store)
    }

    /// Open an existing store, validating magic, version, shape-implied
    /// length and the crash flag.
    pub fn open(path: &Path) -> Result<Self, OocError> {
        Self::open_impl(path, false)
    }

    /// Open a store, rolling it back to its last committed surface and
    /// round if a crash left it dirty mid-pass.
    ///
    /// Recovery is metadata-only: the file-level ping-pong guarantees an
    /// interrupted pass only ever wrote to the *non-committed* surface,
    /// so the committed payload is intact and clearing the dirty flag
    /// (synced) is sufficient. A clean store opens unchanged, so this
    /// is safe to use as the default open for resumable jobs.
    pub fn recover(path: &Path) -> Result<Self, OocError> {
        let store = Self::open_impl(path, true)?;
        store.write_header(false)?;
        store.sync_payload()?;
        Ok(store)
    }

    fn open_impl(path: &Path, allow_dirty: bool) -> Result<Self, OocError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        lock(&file, path)?;
        let mut head = [0u8; HEADER_LEN as usize];
        let found = file.metadata()?.len();
        if found < HEADER_LEN {
            return Err(OocError::Truncated {
                expected: HEADER_LEN,
                found,
            });
        }
        file.read_exact_at(&mut head, 0)?;
        if head[..8] != MAGIC {
            return Err(OocError::BadMagic);
        }
        let u32_at = |o: usize| u32::from_le_bytes(head[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(head[o..o + 8].try_into().unwrap());
        let version = u32_at(8);
        if version != VERSION {
            return Err(OocError::BadVersion { found: version });
        }
        let store = Self {
            file,
            path: Some(path.to_path_buf()),
            nz: u64_at(16) as usize,
            ny: u64_at(24) as usize,
            nx: u64_at(32) as usize,
            radius: u64_at(40) as usize,
            round: AtomicU64::new(u64_at(48)),
            surface: AtomicU64::new(u64_at(56)),
            stats: StatsCell::default(),
        };
        let expected = HEADER_LEN + 2 * store.surface_bytes();
        if found < expected {
            return Err(OocError::Truncated { expected, found });
        }
        if u32_at(12) != 0 && !allow_dirty {
            return Err(OocError::Crashed {
                round: store.round.load(Ordering::Relaxed),
            });
        }
        Ok(store)
    }

    /// Run `op` with bounded retry and exponential backoff on
    /// transient-classified errors; failpoint `fp` is consulted before
    /// every attempt, so injected faults exercise the identical retry
    /// path a real transient fault would.
    fn retry_io(
        &self,
        fp: Failpoint,
        mut op: impl FnMut() -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut delay_us = IO_RETRY_BASE_US;
        let mut attempts = 0u32;
        loop {
            let r = if stencil_faults::should_fire(fp) {
                Err(stencil_faults::injected_io_error(fp))
            } else {
                op()
            };
            match r {
                Ok(()) => return Ok(()),
                Err(e) if transient(e.kind()) && attempts < IO_RETRY_MAX => {
                    attempts += 1;
                    self.stats.io_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_micros(delay_us));
                    delay_us = delay_us.saturating_mul(2);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// `sync_data` behind the retry/backoff loop and the `ooc_fsync`
    /// failpoint — for a store a later process can reopen. An unnamed
    /// store owes a crash nothing (module docs), failpoint included.
    fn sync_payload(&self) -> Result<(), OocError> {
        if self.path.is_none() {
            return Ok(());
        }
        self.retry_io(Failpoint::OocFsync, || self.file.sync_data())?;
        Ok(())
    }

    /// Domain shape `(nz, ny, nx)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.nz, self.ny, self.nx)
    }

    /// Stencil radius recorded at creation.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Time steps fully applied to the current surface.
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// Which payload surface (0/1) holds the current data.
    pub fn surface(&self) -> u64 {
        self.surface.load(Ordering::Relaxed)
    }

    /// Path of the backing file; `None` for an unnamed store.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Unpadded bytes of one z plane in the file.
    pub fn plane_file_bytes(&self) -> usize {
        self.ny * self.nx * 8
    }

    #[cfg(test)]
    fn staging_bytes(&self) -> usize {
        staging_bytes(self.ny, self.nx)
    }

    fn surface_bytes(&self) -> u64 {
        self.nz as u64 * self.plane_file_bytes() as u64
    }

    fn offset(&self, surface: u64, z: usize) -> u64 {
        debug_assert!(surface < 2 && z <= self.nz);
        HEADER_LEN + surface * self.surface_bytes() + (z * self.plane_file_bytes()) as u64
    }

    fn write_header(&self, dirty: bool) -> Result<(), OocError> {
        let mut head = [0u8; HEADER_LEN as usize];
        head[..8].copy_from_slice(&MAGIC);
        head[8..12].copy_from_slice(&VERSION.to_le_bytes());
        head[12..16].copy_from_slice(&u32::from(dirty).to_le_bytes());
        for (o, v) in [
            (16, self.nz as u64),
            (24, self.ny as u64),
            (32, self.nx as u64),
            (40, self.radius as u64),
            (48, self.round.load(Ordering::Relaxed)),
            (56, self.surface.load(Ordering::Relaxed)),
        ] {
            head[o..o + 8].copy_from_slice(&v.to_le_bytes());
        }
        self.retry_io(Failpoint::OocWrite, || self.file.write_all_at(&head, 0))?;
        Ok(())
    }

    /// Read planes `[z0, z1)` of `surface` into `out`, which must be a
    /// `(z1 - z0) x ny x nx` grid. One positioned read lands in `out`'s
    /// memory when its rows are unpadded; otherwise `scratch` stages one
    /// plane at a time and is reused across calls.
    pub fn read_window(
        &self,
        surface: u64,
        z0: usize,
        z1: usize,
        out: &mut Grid3D,
        scratch: &mut Vec<u8>,
    ) -> Result<(), OocError> {
        assert!(z0 <= z1 && z1 <= self.nz, "window out of range");
        assert_eq!(
            (out.nz(), out.ny(), out.nx()),
            (z1 - z0, self.ny, self.nx),
            "window grid shape mismatch"
        );
        let t0 = std::time::Instant::now();
        let pb = self.plane_file_bytes();
        let offset = self.offset(surface, z0);
        if file_layout(out) {
            let bytes = f64_bytes_mut(&mut out.as_mut_slice()[..(z1 - z0) * self.ny * self.nx]);
            self.retry_io(Failpoint::OocRead, || {
                self.file.read_exact_at(bytes, offset)
            })?;
        } else {
            scratch.resize(pb, 0);
            for z in 0..z1 - z0 {
                let at = offset + (z * pb) as u64;
                self.retry_io(Failpoint::OocRead, || self.file.read_exact_at(scratch, at))?;
                for y in 0..self.ny {
                    bytes_to_f64(
                        &scratch[y * self.nx * 8..][..self.nx * 8],
                        out.row_mut(z, y),
                    );
                }
            }
        }
        self.stats
            .bytes_read
            .fetch_add(((z1 - z0) * pb) as u64, Ordering::Relaxed);
        self.note_io(t0.elapsed());
        Ok(())
    }

    /// Write local planes `[z_lo, z_hi)` of `grid` to `surface`,
    /// landing at global plane `z_global + (z - z_lo)`: one positioned
    /// write straight from `grid`'s memory when its rows are unpadded,
    /// plane by plane through a one-plane staging buffer otherwise.
    pub fn write_planes(
        &self,
        surface: u64,
        z_global: usize,
        grid: &Grid3D,
        z_lo: usize,
        z_hi: usize,
    ) -> Result<(), OocError> {
        assert!(
            z_lo <= z_hi && z_hi <= grid.nz(),
            "plane range out of range"
        );
        assert!(z_global + (z_hi - z_lo) <= self.nz, "write past the domain");
        assert_eq!((grid.ny(), grid.nx()), (self.ny, self.nx), "shape mismatch");
        let t0 = std::time::Instant::now();
        let pb = self.plane_file_bytes();
        let offset = self.offset(surface, z_global);
        if file_layout(grid) {
            let plane = self.ny * self.nx;
            let bytes = f64_bytes(&grid.as_slice()[z_lo * plane..z_hi * plane]);
            self.retry_io(Failpoint::OocWrite, || {
                self.file.write_all_at(bytes, offset)
            })?;
        } else {
            let mut stage: Vec<u8> = vec![0; pb];
            for z in z_lo..z_hi {
                for y in 0..self.ny {
                    f64_to_bytes(grid.row(z, y), &mut stage[y * self.nx * 8..][..self.nx * 8]);
                }
                let at = offset + ((z - z_lo) * pb) as u64;
                self.retry_io(Failpoint::OocWrite, || self.file.write_all_at(&stage, at))?;
            }
        }
        self.stats
            .bytes_written
            .fetch_add(((z_hi - z_lo) * pb) as u64, Ordering::Relaxed);
        self.note_io(t0.elapsed());
        Ok(())
    }

    /// Mark the store dirty ahead of a pass's first payload write. The
    /// flag is synced so a crash at any later point is detectable.
    pub fn begin_pass(&self) -> Result<(), OocError> {
        self.write_header(true)?;
        self.sync_payload()
    }

    /// Conclude a pass that advanced the *other* surface by `steps`:
    /// sync the payload, flip the current surface, bump the round and
    /// clear the dirty flag. If the process dies before the final
    /// header write lands, the old header still says dirty — the store
    /// stays crash-detectable, never silently wrong.
    pub fn commit_pass(&self, steps: u64) -> Result<(), OocError> {
        self.sync_payload()?;
        self.surface.fetch_xor(1, Ordering::Relaxed);
        self.round.fetch_add(steps, Ordering::Relaxed);
        self.write_header(false)?;
        Ok(())
    }

    /// Materialize the whole current surface as a resident grid.
    pub fn to_grid(&self) -> Result<Grid3D, OocError> {
        let mut g = Grid3D::zeros(self.nz, self.ny, self.nx);
        let read = self.stats.bytes_read.load(Ordering::Relaxed);
        let io = self.stats.io_us.load(Ordering::Relaxed);
        let mut scratch = Vec::new();
        self.read_window(self.surface(), 0, self.nz, &mut g, &mut scratch)?;
        // materialization is not streaming traffic
        self.stats.bytes_read.store(read, Ordering::Relaxed);
        self.stats.io_us.store(io, Ordering::Relaxed);
        Ok(g)
    }

    /// Snapshot the cumulative IO counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.stats.bytes_written.load(Ordering::Relaxed),
            prefetch_hit: self.stats.prefetch_hit.load(Ordering::Relaxed),
            prefetch_miss: self.stats.prefetch_miss.load(Ordering::Relaxed),
            stall_us: self.stats.stall_us.load(Ordering::Relaxed),
            io_us: self.stats.io_us.load(Ordering::Relaxed),
            io_retries: self.stats.io_retries.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_prefetch(&self, hit: bool) {
        let c = if hit {
            &self.stats.prefetch_hit
        } else {
            &self.stats.prefetch_miss
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_stall(&self, us: u64) {
        self.stats.stall_us.fetch_add(us, Ordering::Relaxed);
    }

    pub(crate) fn note_io(&self, d: std::time::Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.stats.io_us.fetch_add(us, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for SlabStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SlabStore({}x{}x{} r{} round={} surface={} at {:?})",
            self.nz,
            self.ny,
            self.nx,
            self.radius,
            self.round(),
            self.surface(),
            self.path
        )
    }
}

/// Bytes of the one-plane staging buffer a window of `ny x nx` planes
/// moves through — 0 when it moves directly (unpadded rows). A function
/// of the shape, so a run can be sized before its store exists.
pub(crate) fn staging_bytes(ny: usize, nx: usize) -> usize {
    if file_layout(&Grid3D::zeros(0, ny, nx)) {
        0
    } else {
        ny * nx * 8
    }
}

/// True when `g`'s planes lie in memory exactly as the file holds them:
/// unpadded rows (planes `[z0, z1)` are then one contiguous run of
/// `ny * nx` doubles each) on a little-endian host.
fn file_layout(g: &Grid3D) -> bool {
    cfg!(target_endian = "little") && g.stride_y() == g.nx()
}

/// The bytes of `s`, for IO straight out of a grid (see [`file_layout`]).
fn f64_bytes(s: &[f64]) -> &[u8] {
    // SAFETY: `s` is valid for `size_of_val(s)` bytes of reads, u8 has
    // no alignment requirement, and the view borrows `s`.
    unsafe { core::slice::from_raw_parts(s.as_ptr().cast(), core::mem::size_of_val(s)) }
}

/// The bytes of `s`, for IO straight into a grid (see [`file_layout`]).
fn f64_bytes_mut(s: &mut [f64]) -> &mut [u8] {
    // SAFETY: as `f64_bytes`, for writes too; every bit pattern is an
    // f64, so whatever the read leaves behind is a valid `s`.
    unsafe { core::slice::from_raw_parts_mut(s.as_mut_ptr().cast(), core::mem::size_of_val(s)) }
}

/// Decode one little-endian file row (the staged path).
fn bytes_to_f64(src: &[u8], dst: &mut [f64]) {
    debug_assert_eq!(src.len(), dst.len() * 8);
    #[cfg(target_endian = "little")]
    f64_bytes_mut(dst).copy_from_slice(src);
    #[cfg(target_endian = "big")]
    for (i, v) in dst.iter_mut().enumerate() {
        *v = f64::from_le_bytes(src[i * 8..i * 8 + 8].try_into().unwrap());
    }
}

/// Encode one row as the file holds it (the staged path).
fn f64_to_bytes(src: &[f64], dst: &mut [u8]) {
    debug_assert_eq!(src.len() * 8, dst.len());
    #[cfg(target_endian = "little")]
    dst.copy_from_slice(f64_bytes(src));
    #[cfg(target_endian = "big")]
    for (i, v) in src.iter().enumerate() {
        dst[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "stencil-ooc-test-{}-{name}.slab",
            std::process::id()
        ));
        p
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn roundtrip_create_open_to_grid() {
        let path = tmp("roundtrip");
        let _c = Cleanup(path.clone());
        let g = Grid3D::from_fn(7, 5, 11, |z, y, x| (z * 100 + y * 16 + x) as f64 * 0.25);
        let store = SlabStore::create(&path, &g, 2).unwrap();
        assert_eq!(store.shape(), (7, 5, 11));
        assert_eq!(store.round(), 0);
        drop(store);
        let store = SlabStore::open(&path).unwrap();
        assert_eq!(store.radius(), 2);
        let back = store.to_grid().unwrap();
        assert_eq!(g.to_dense(), back.to_dense());
    }

    #[test]
    fn windows_scatter_and_gather_with_padding() {
        let path = tmp("windows");
        let _c = Cleanup(path.clone());
        // nx = 11 forces padded rows in Grid3D but unpadded file planes
        let g = Grid3D::from_fn(9, 4, 11, |z, y, x| (z * 67 + y * 13 + x) as f64);
        let store = SlabStore::create(&path, &g, 1).unwrap();
        let mut win = Grid3D::zeros(4, 4, 11);
        let mut scratch = Vec::new();
        store.read_window(0, 3, 7, &mut win, &mut scratch).unwrap();
        for z in 0..4 {
            for y in 0..4 {
                assert_eq!(win.row(z, y), g.row(z + 3, y), "z={z} y={y}");
            }
        }
        // write two interior planes of the window to the other surface
        store.write_planes(1, 4, &win, 1, 3).unwrap();
        let mut out = Grid3D::zeros(2, 4, 11);
        store.read_window(1, 4, 6, &mut out, &mut scratch).unwrap();
        for z in 0..2 {
            for y in 0..4 {
                assert_eq!(out.row(z, y), g.row(z + 4, y));
            }
        }
        let s = store.stats();
        assert_eq!(
            s.bytes_read,
            (4 + 2) as u64 * store.plane_file_bytes() as u64
        );
        assert_eq!(s.bytes_written, 2 * store.plane_file_bytes() as u64);
    }

    #[test]
    fn windows_move_directly_or_through_one_staged_plane() {
        // unpadded rows (nx = 16) take the direct path, padded ones
        // (nx = 11) the staged one; partial plane ranges either way
        for nx in [16usize, 11] {
            let path = tmp(&format!("direct{nx}"));
            let _c = Cleanup(path.clone());
            let g = Grid3D::from_fn(9, 4, nx, |z, y, x| (z * 67 + y * 13 + x) as f64 - 0.5);
            let store = SlabStore::create(&path, &g, 1).unwrap();
            let pb = store.plane_file_bytes();
            assert_eq!(
                store.stats(),
                StoreStats::default(),
                "seeding is not traffic"
            );
            let direct = nx == 16;
            assert_eq!(store.staging_bytes(), if direct { 0 } else { pb });

            let mut win = Grid3D::zeros(4, 4, nx);
            win.as_mut_slice().fill(f64::NAN);
            let mut scratch = Vec::new();
            store.read_window(0, 3, 7, &mut win, &mut scratch).unwrap();
            for (z, y) in (0..4).flat_map(|z| (0..4).map(move |y| (z, y))) {
                assert_eq!(win.row(z, y), g.row(z + 3, y), "nx={nx} z={z} y={y}");
            }
            // z_lo > 0, z_hi < nz, landing away from where they came from
            store.write_planes(1, 5, &win, 1, 3).unwrap();
            let mut out = Grid3D::zeros(2, 4, nx);
            store.read_window(1, 5, 7, &mut out, &mut scratch).unwrap();
            for (z, y) in (0..2).flat_map(|z| (0..4).map(move |y| (z, y))) {
                assert_eq!(out.row(z, y), g.row(z + 4, y), "nx={nx} z={z} y={y}");
            }
            let stats = store.stats();
            assert_eq!(stats.bytes_read, 6 * pb as u64, "nx={nx}");
            assert_eq!(stats.bytes_written, 2 * pb as u64, "nx={nx}");
            if direct {
                assert_eq!(scratch.capacity(), 0, "the direct path stages nothing");
            } else {
                assert!(scratch.capacity() <= pb, "at most one plane is staged");
            }
            // surface 0 is untouched by the writes to surface 1
            let back = store.to_grid().unwrap();
            let bits = |g: &Grid3D| g.to_dense().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back), bits(&g), "nx={nx}");
            assert_eq!(store.stats(), stats, "materializing is not traffic");
        }
    }

    #[test]
    fn an_unnamed_store_round_trips_without_a_directory_entry() {
        // a directory of its own, so its listing is this test's alone
        let dir = tmp("unnamed").with_extension("d");
        std::fs::create_dir_all(&dir).unwrap();
        let entries = || std::fs::read_dir(&dir).unwrap().count();
        let bits = |g: &Grid3D| g.to_dense().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // direct (nx = 16) and staged (nx = 11) moves
        for nx in [16usize, 11] {
            let at = dir.join(format!("brief{nx}.slab"));
            // a leftover under the brief name is replaced, never reused
            std::fs::write(&at, b"left by a killed process").unwrap();
            let g = Grid3D::from_fn(9, 4, nx, |z, y, x| (z * 67 + y * 13 + x) as f64 - 0.5);
            let store = SlabStore::unnamed(&at, &g, 1).unwrap();
            assert_eq!(store.path(), None);
            assert_eq!(
                entries(),
                0,
                "nx={nx}: the name is gone while the store lives"
            );
            assert_eq!(
                store.stats(),
                StoreStats::default(),
                "seeding is not traffic"
            );
            assert_eq!(bits(&store.to_grid().unwrap()), bits(&g), "nx={nx}");

            // one pass through the same protocol a named store runs
            let mut win = Grid3D::zeros(4, 4, nx);
            let mut scratch = Vec::new();
            store.read_window(0, 3, 7, &mut win, &mut scratch).unwrap();
            for (z, y) in (0..4).flat_map(|z| (0..4).map(move |y| (z, y))) {
                assert_eq!(win.row(z, y), g.row(z + 3, y), "nx={nx} z={z} y={y}");
            }
            let next = Grid3D::from_fn(9, 4, nx, |z, y, x| -((z * 5 + y * 3 + x) as f64));
            store.begin_pass().unwrap();
            store.write_planes(1, 0, &next, 0, 5).unwrap();
            store.write_planes(1, 5, &next, 5, 9).unwrap();
            store.commit_pass(3).unwrap();
            assert_eq!((store.round(), store.surface()), (3, 1));
            assert_eq!(bits(&store.to_grid().unwrap()), bits(&next), "nx={nx}");
            assert_eq!(entries(), 0);
        }
        std::fs::remove_dir(&dir).unwrap();
    }

    #[test]
    fn commit_flips_surface_and_advances_round() {
        let path = tmp("commit");
        let _c = Cleanup(path.clone());
        let g = Grid3D::zeros(4, 3, 3);
        let store = SlabStore::create(&path, &g, 1).unwrap();
        store.begin_pass().unwrap();
        store.write_planes(1, 0, &g, 0, 4).unwrap();
        store.commit_pass(6).unwrap();
        assert_eq!((store.round(), store.surface()), (6, 1));
        drop(store);
        let store = SlabStore::open(&path).unwrap();
        assert_eq!((store.round(), store.surface()), (6, 1));
    }

    #[test]
    fn open_detects_bad_magic_version_truncation_and_crash() {
        let g = Grid3D::zeros(4, 3, 3);

        let path = tmp("magic");
        let _c = Cleanup(path.clone());
        std::fs::write(&path, b"definitely not a slab store").unwrap();
        assert!(matches!(
            SlabStore::open(&path),
            Err(OocError::Truncated { .. })
        ));
        let mut junk = vec![0u8; 200];
        junk[..8].copy_from_slice(b"NOTSTNCL");
        std::fs::write(&path, &junk).unwrap();
        assert!(matches!(SlabStore::open(&path), Err(OocError::BadMagic)));

        let path = tmp("version");
        let _c = Cleanup(path.clone());
        SlabStore::create(&path, &g, 1).unwrap();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.write_all_at(&99u32.to_le_bytes(), 8).unwrap();
        assert!(matches!(
            SlabStore::open(&path),
            Err(OocError::BadVersion { found: 99 })
        ));

        let path = tmp("trunc");
        let _c = Cleanup(path.clone());
        SlabStore::create(&path, &g, 1).unwrap();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(100).unwrap();
        drop(f);
        match SlabStore::open(&path) {
            Err(OocError::Truncated { expected, found }) => {
                assert_eq!(found, 100);
                assert!(expected > 100);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }

        let path = tmp("crash");
        let _c = Cleanup(path.clone());
        let store = SlabStore::create(&path, &g, 1).unwrap();
        store.begin_pass().unwrap();
        drop(store); // died mid-pass: commit never ran
        assert!(matches!(
            SlabStore::open(&path),
            Err(OocError::Crashed { round: 0 })
        ));
    }

    #[test]
    fn recover_rolls_a_dirty_store_back_to_the_committed_round() {
        let path = tmp("recover");
        let _c = Cleanup(path.clone());
        let g = Grid3D::from_fn(5, 4, 6, |z, y, x| (z * 31 + y * 7 + x) as f64);
        let store = SlabStore::create(&path, &g, 1).unwrap();
        // one committed pass so the recovery target is non-trivial
        store.begin_pass().unwrap();
        store.write_planes(1, 0, &g, 0, 5).unwrap();
        store.commit_pass(3).unwrap();
        // a second pass dies after scribbling on the non-committed surface
        store.begin_pass().unwrap();
        let junk = Grid3D::from_fn(5, 4, 6, |_, _, _| -1.0);
        store.write_planes(0, 0, &junk, 0, 5).unwrap();
        drop(store);
        assert!(matches!(
            SlabStore::open(&path),
            Err(OocError::Crashed { round: 3 })
        ));
        // the bytes on disk are the version-1 layout of the module docs,
        // written out here by hand: a store any earlier build left behind
        // is this file, byte for byte
        let le = |g: &Grid3D| -> Vec<u8> {
            let cells = g.to_dense();
            cells.iter().flat_map(|v| v.to_le_bytes()).collect()
        };
        let mut want = b"STNCLOOC".to_vec();
        want.extend(1u32.to_le_bytes()); // version
        want.extend(1u32.to_le_bytes()); // dirty: died mid-pass
        for field in [5u64, 4, 6, 1, 3, 1] {
            want.extend(field.to_le_bytes()); // nz ny nx radius round surface
        }
        want.extend(le(&junk)); // surface 0: the interrupted pass
        want.extend(le(&g)); // surface 1: committed at round 3
        assert_eq!(std::fs::read(&path).unwrap(), want);
        std::fs::write(&path, &want).unwrap();
        let store = SlabStore::recover(&path).unwrap();
        assert_eq!((store.round(), store.surface()), (3, 1));
        assert_eq!(store.to_grid().unwrap().to_dense(), g.to_dense());
        drop(store);
        // recovery persisted: a plain open succeeds and agrees
        let store = SlabStore::open(&path).unwrap();
        assert_eq!((store.round(), store.surface()), (3, 1));
        // recover on a clean store is an identity open
        drop(store);
        let store = SlabStore::recover(&path).unwrap();
        assert_eq!(store.to_grid().unwrap().to_dense(), g.to_dense());
    }
}
