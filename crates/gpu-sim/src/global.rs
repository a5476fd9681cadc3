//! Simulated global memory.
//!
//! A [`GlobalBuffer`] is the device DRAM: every block of every kernel can
//! read and write it, and data written by one block becomes visible to
//! another only through the synchronization primitives in [`crate::sync`]
//! (exactly the CUDA contract). Device-side accessors are *accounted*: they
//! take the calling block's [`launch::BlockCtx`](crate::launch::BlockCtx) and
//! charge element counts and effective traffic bytes to its counters.
//!
//! Accounting distinguishes the two patterns that matter for the paper:
//!
//! * **coalesced** — a warp touches consecutive addresses; each element
//!   costs its own width in traffic.
//! * **strided** — a warp walks a column of a row-major matrix; each
//!   element drags a wider slice of its DRAM sector through the bus
//!   ([`DeviceConfig::strided_bytes_per_elem`](crate::device::DeviceConfig::strided_bytes_per_elem)).
//!
//! Host-side accessors (`host_*`, [`GlobalBuffer::to_vec`]) charge no
//! counters: they model `cudaMemcpy` of inputs/outputs, which the paper
//! excludes from all timings. On the host they still cost wall time, so
//! each transfer makes at most one pass over its elements:
//!
//! * [`GlobalBuffer::zeroed`] makes none. It allocates with
//!   `alloc_zeroed`, so a fresh mapping arrives as the kernel's zero pages
//!   and each page faults in on the device's first write to it.
//! * [`GlobalBuffer::from_slice`] copies the host data once into an
//!   uninitialised allocation; its page faults land in that copy.
//! * [`GlobalBuffer::to_vec`] copies once into uninitialised capacity;
//!   its page faults land in that copy, on the destination.
//!
//! All three advise their fresh allocation for huge pages before the
//! first touch (`advise_huge_pages`), so a large transfer faults in one
//! 2 MiB page at a time instead of one 4 KiB page at a time.

use crate::device::WARP;
use crate::elem::{AtomBacking, DeviceElem};
use crate::launch::BlockCtx;
use std::sync::atomic::{AtomicBool, Ordering};

/// When set, every bulk global-memory operation executes its *scalar
/// expansion* — the per-element accessor calls it is documented to be
/// equivalent to — instead of the batched fast path. Data movement and
/// charged counters must come out identical either way; the counter-parity
/// test flips this switch to prove it. Process-global because it is a test
/// instrument, not a tuning knob.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Force (or stop forcing) the scalar expansion of every bulk operation.
pub fn set_force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// Whether bulk operations are currently forced onto their scalar paths.
#[inline(always)]
pub fn force_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed)
}

/// Ask the kernel to back a host allocation of at least 4 MiB with
/// transparent huge pages.
///
/// Two costs shrink. Large simulated device buffers are walked tile by
/// tile with a row-length stride between consecutive rows, so with 4 KiB
/// pages every row of every tile touches a fresh TLB entry. And every
/// fresh 4 KiB page costs a minor fault on first touch: a 64 MiB transfer
/// into 4 KiB pages takes over 16 000 of them, into 2 MiB pages 32.
/// `MADV_HUGEPAGE` (the default THP policy on most hosts is `madvise`)
/// cuts both by up to 512x. The advice is issued before first touch so
/// the pages fault in huge; only whole 2 MiB-aligned ranges inside the
/// allocation are advised. Failures (other platforms, THP disabled) are
/// silently ignored — this is purely a performance hint and never affects
/// results or counters.
fn advise_huge_pages(ptr: *const u8, bytes: usize) {
    #[cfg(target_os = "linux")]
    {
        const HUGE_PAGE: usize = 2 * 1024 * 1024;
        const MADV_HUGEPAGE: i32 = 14;
        extern "C" {
            fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
        }
        if bytes < 2 * HUGE_PAGE {
            return;
        }
        let lo = (ptr as usize + HUGE_PAGE - 1) & !(HUGE_PAGE - 1);
        let hi = (ptr as usize + bytes) & !(HUGE_PAGE - 1);
        if hi > lo {
            // SAFETY: [lo, hi) is a page-aligned subrange of the live
            // allocation [ptr, ptr + bytes); MADV_HUGEPAGE does not alter
            // the mapping's contents or validity.
            unsafe {
                madvise(lo as *mut core::ffi::c_void, hi - lo, MADV_HUGEPAGE);
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (ptr, bytes);
}

/// A typed allocation in simulated device global memory.
pub struct GlobalBuffer<T: DeviceElem> {
    data: Box<[T::Atom]>,
    len: usize,
}

impl<T: DeviceElem> GlobalBuffer<T> {
    /// Allocate `len` elements, zero-initialized (as `cudaMemset(0)`).
    ///
    /// No host pass: the zeroes come from `alloc_zeroed`, and on a fresh
    /// mapping they fault in lazily on the device's first write.
    pub fn zeroed(len: usize) -> Self {
        // SAFETY: `AtomBacking`'s contract makes the all-zero bit pattern a
        // valid `T::Atom`, so the zeroed allocation is fully initialised.
        let data = unsafe { Box::<[T::Atom]>::new_zeroed_slice(len).assume_init() };
        advise_huge_pages(data.as_ptr() as *const u8, std::mem::size_of_val(&*data));
        let buf = GlobalBuffer { data, len };
        // The zero bit pattern is `T::zero()` for every supported element
        // type; make that explicit anyway.
        debug_assert!(len == 0 || buf.host_read(0) == T::zero());
        buf
    }

    /// Allocate and fill from host data (models host-to-device copy): one
    /// copy into an uninitialised allocation.
    pub fn from_slice(src: &[T]) -> Self {
        let mut data = Box::<[T::Atom]>::new_uninit_slice(src.len());
        advise_huge_pages(data.as_ptr() as *const u8, std::mem::size_of_val(&*data));
        T::store_uninit(&mut data, src);
        // SAFETY: `store_uninit` initialised every word of `data`.
        let data = unsafe { data.assume_init() };
        GlobalBuffer { data, len: src.len() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Host-side read (not accounted).
    #[inline]
    pub fn host_read(&self, i: usize) -> T {
        T::from_bits(self.data[i].load_bits())
    }

    /// Host-side write (not accounted).
    #[inline]
    pub fn host_write(&self, i: usize, v: T) {
        self.data[i].store_bits(v.to_bits());
    }

    /// Copy the whole buffer back to the host (models device-to-host copy):
    /// one copy into uninitialised capacity.
    pub fn to_vec(&self) -> Vec<T> {
        let mut v = Vec::with_capacity(self.len);
        advise_huge_pages(v.as_ptr() as *const u8, self.len * std::mem::size_of::<T>());
        T::load_uninit(&self.data, &mut v.spare_capacity_mut()[..self.len]);
        // SAFETY: `load_uninit` initialised the first `self.len` elements,
        // and the capacity is at least `self.len`.
        unsafe { v.set_len(self.len) };
        v
    }

    /// Host-side bulk fill.
    pub fn host_fill(&self, v: T) {
        T::fill_slice(&self.data, v);
    }

    // ------------------------------------------------------------------
    // Device-side, accounted accessors.
    // ------------------------------------------------------------------

    /// Read one element as part of a coalesced warp access.
    #[inline]
    pub fn read(&self, ctx: &mut BlockCtx, i: usize) -> T {
        ctx.stats.charge_global_read(1, T::BYTES);
        T::from_bits(self.data[i].load_bits())
    }

    /// Write one element as part of a coalesced warp access.
    #[inline]
    pub fn write(&self, ctx: &mut BlockCtx, i: usize, v: T) {
        ctx.stats.charge_global_write(1, T::BYTES);
        self.data[i].store_bits(v.to_bits());
    }

    /// Read one element as part of a strided warp access (column walk of a
    /// row-major matrix).
    #[inline]
    pub fn read_strided(&self, ctx: &mut BlockCtx, i: usize) -> T {
        ctx.stats.charge_strided_read(1, ctx.strided_bytes(T::BYTES));
        T::from_bits(self.data[i].load_bits())
    }

    /// Write one element as part of a strided warp access.
    #[inline]
    pub fn write_strided(&self, ctx: &mut BlockCtx, i: usize, v: T) {
        ctx.stats.charge_strided_write(1, ctx.strided_bytes(T::BYTES));
        self.data[i].store_bits(v.to_bits());
    }

    /// Coalesced bulk read of `dst.len()` consecutive elements starting at
    /// `offset`. Charges counters once per call; the data moves through
    /// [`DeviceElem::load_slice`], a `memcpy` for the built-in element
    /// types (see the data-race contract in [`crate::elem`]).
    pub fn load_row(&self, ctx: &mut BlockCtx, offset: usize, dst: &mut [T]) {
        if force_scalar() {
            for (k, d) in dst.iter_mut().enumerate() {
                *d = self.read(ctx, offset + k);
            }
            return;
        }
        let n = dst.len() as u64;
        ctx.stats.charge_global_read(n, n * T::BYTES);
        T::load_slice(&self.data[offset..offset + dst.len()], dst);
    }

    /// Physical write of consecutive elements with no accounting. The
    /// caller must already have charged the equivalent bulk store;
    /// crate-internal building block for fused compute+store paths.
    #[inline]
    pub(crate) fn store_row_raw(&self, offset: usize, src: &[T]) {
        T::store_slice(&self.data[offset..offset + src.len()], src);
    }

    /// Coalesced bulk write of consecutive elements starting at `offset`.
    pub fn store_row(&self, ctx: &mut BlockCtx, offset: usize, src: &[T]) {
        if force_scalar() {
            for (k, &v) in src.iter().enumerate() {
                self.write(ctx, offset + k, v);
            }
            return;
        }
        let n = src.len() as u64;
        ctx.stats.charge_global_write(n, n * T::BYTES);
        T::store_slice(&self.data[offset..offset + src.len()], src);
    }

    /// Strided bulk read: `dst.len()` elements at `start`, `start+stride`,
    /// `start+2*stride`, ...
    pub fn load_col(&self, ctx: &mut BlockCtx, start: usize, stride: usize, dst: &mut [T]) {
        if force_scalar() {
            for (k, d) in dst.iter_mut().enumerate() {
                *d = self.read_strided(ctx, start + k * stride.max(1));
            }
            return;
        }
        let n = dst.len() as u64;
        ctx.stats.charge_strided_read(n, n * ctx.strided_bytes(T::BYTES));
        if dst.is_empty() {
            return;
        }
        let src = &self.data[start..=start + (dst.len() - 1) * stride.max(1)];
        for (d, a) in dst.iter_mut().zip(src.iter().step_by(stride.max(1))) {
            *d = T::from_bits(a.load_bits());
        }
    }

    /// Strided bulk write, the mirror of [`GlobalBuffer::load_col`].
    pub fn store_col(&self, ctx: &mut BlockCtx, start: usize, stride: usize, src: &[T]) {
        if force_scalar() {
            for (k, &v) in src.iter().enumerate() {
                self.write_strided(ctx, start + k * stride.max(1), v);
            }
            return;
        }
        let n = src.len() as u64;
        ctx.stats.charge_strided_write(n, n * ctx.strided_bytes(T::BYTES));
        if src.is_empty() {
            return;
        }
        let dst = &self.data[start..=start + (src.len() - 1) * stride.max(1)];
        for (a, &v) in dst.iter().step_by(stride.max(1)).zip(src) {
            a.store_bits(v.to_bits());
        }
    }

    /// Coalesced 2-D bulk read: `rows` rows of `row_len` consecutive
    /// elements, starting `stride` apart, packed row-major into `dst`
    /// (`dst.len()` must equal `rows * row_len`). Accounting is exactly
    /// `rows` [`GlobalBuffer::load_row`] calls charged in one bump.
    pub fn load_2d(&self, ctx: &mut BlockCtx, offset: usize, stride: usize, row_len: usize, dst: &mut [T]) {
        assert_eq!(dst.len() % row_len.max(1), 0, "dst must hold whole rows");
        if force_scalar() {
            for (r, chunk) in dst.chunks_exact_mut(row_len.max(1)).enumerate() {
                for (k, d) in chunk.iter_mut().enumerate() {
                    *d = self.read(ctx, offset + r * stride + k);
                }
            }
            return;
        }
        let n = dst.len() as u64;
        ctx.stats.charge_global_read(n, n * T::BYTES);
        for (r, chunk) in dst.chunks_exact_mut(row_len.max(1)).enumerate() {
            let base = offset + r * stride;
            T::load_slice(&self.data[base..base + chunk.len()], chunk);
        }
    }

    /// Coalesced 2-D bulk write, the mirror of [`GlobalBuffer::load_2d`].
    pub fn store_2d(&self, ctx: &mut BlockCtx, offset: usize, stride: usize, row_len: usize, src: &[T]) {
        assert_eq!(src.len() % row_len.max(1), 0, "src must hold whole rows");
        if force_scalar() {
            for (r, chunk) in src.chunks_exact(row_len.max(1)).enumerate() {
                for (k, &v) in chunk.iter().enumerate() {
                    self.write(ctx, offset + r * stride + k, v);
                }
            }
            return;
        }
        let n = src.len() as u64;
        ctx.stats.charge_global_write(n, n * T::BYTES);
        for (r, chunk) in src.chunks_exact(row_len.max(1)).enumerate() {
            let base = offset + r * stride;
            T::store_slice(&self.data[base..base + chunk.len()], chunk);
        }
    }

    /// Batched warp gather: `dst[k] = self[indices[k]]`. Charged exactly
    /// like `indices.len()` scalar [`GlobalBuffer::read`] calls, with one
    /// contiguity classification per warp-sized chunk of the index slice
    /// (instead of per element) selecting between a `memcpy` fast path and
    /// an element loop. The caller decides coalesced-vs-strided semantics
    /// by choosing this or a `load_col`, exactly as with the scalar
    /// accessors.
    pub fn gather(&self, ctx: &mut BlockCtx, indices: &[usize], dst: &mut [T]) {
        assert_eq!(indices.len(), dst.len(), "gather length mismatch");
        if force_scalar() {
            for (d, &i) in dst.iter_mut().zip(indices) {
                *d = self.read(ctx, i);
            }
            return;
        }
        let n = indices.len() as u64;
        ctx.stats.charge_global_read(n, n * T::BYTES);
        for (idx, out) in indices.chunks(WARP).zip(dst.chunks_mut(WARP)) {
            let first = idx[0];
            if crate::simd::is_contiguous_run(idx) {
                T::load_slice(&self.data[first..first + idx.len()], out);
            } else {
                for (d, &i) in out.iter_mut().zip(idx) {
                    *d = T::from_bits(self.data[i].load_bits());
                }
            }
        }
    }

    /// Batched warp scatter: `self[indices[k]] = src[k]`, the mirror of
    /// [`GlobalBuffer::gather`]. Indices within one warp chunk must be
    /// distinct (a real warp scatter to a duplicated address has undefined
    /// winner; callers in the simulator never do it).
    pub fn scatter(&self, ctx: &mut BlockCtx, indices: &[usize], src: &[T]) {
        assert_eq!(indices.len(), src.len(), "scatter length mismatch");
        if force_scalar() {
            for (&v, &i) in src.iter().zip(indices) {
                self.write(ctx, i, v);
            }
            return;
        }
        let n = indices.len() as u64;
        ctx.stats.charge_global_write(n, n * T::BYTES);
        for (idx, vals) in indices.chunks(WARP).zip(src.chunks(WARP)) {
            let first = idx[0];
            if crate::simd::is_contiguous_run(idx) {
                T::store_slice(&self.data[first..first + idx.len()], vals);
            } else {
                for (&v, &i) in vals.iter().zip(idx) {
                    self.data[i].store_bits(v.to_bits());
                }
            }
        }
    }

    /// Accounted device-side `memset`: fill `len` elements starting at
    /// `offset` with `v`. Charges exactly like a `store_row` of `len`
    /// elements (each thread writes one coalesced element).
    pub fn fill(&self, ctx: &mut BlockCtx, offset: usize, len: usize, v: T) {
        if force_scalar() {
            for k in 0..len {
                self.write(ctx, offset + k, v);
            }
            return;
        }
        ctx.stats.charge_global_write(len as u64, len as u64 * T::BYTES);
        T::fill_slice(&self.data[offset..offset + len], v);
    }

    /// Accounted device-side copy between buffers: `len` elements from
    /// `src` starting at `src_offset` into `self` at `dst_offset`. Charges
    /// `len` coalesced reads plus `len` coalesced writes — bit-identical to
    /// a `load_row`/`store_row` pair — but moves raw bits without staging
    /// through a host-side `T` buffer.
    pub fn copy_from(
        &self,
        ctx: &mut BlockCtx,
        dst_offset: usize,
        src: &GlobalBuffer<T>,
        src_offset: usize,
        len: usize,
    ) {
        if force_scalar() {
            for k in 0..len {
                let v = src.read(ctx, src_offset + k);
                self.write(ctx, dst_offset + k, v);
            }
            return;
        }
        let n = len as u64;
        ctx.stats.charge_global_read(n, n * T::BYTES);
        ctx.stats.charge_global_write(n, n * T::BYTES);
        T::copy_slice(&self.data[dst_offset..dst_offset + len], &src.data[src_offset..src_offset + len]);
    }

    /// Accounted in-buffer copy (`cudaMemcpyDeviceToDevice` within one
    /// allocation). Source and destination ranges must not overlap — the
    /// simulated warp order of an overlapping device copy is undefined, so
    /// it is rejected instead of silently corrupting.
    pub fn copy_within(&self, ctx: &mut BlockCtx, src_offset: usize, dst_offset: usize, len: usize) {
        assert!(
            src_offset + len <= dst_offset || dst_offset + len <= src_offset || len == 0,
            "copy_within ranges [{src_offset}, +{len}) and [{dst_offset}, +{len}) overlap"
        );
        if force_scalar() {
            for k in 0..len {
                let v = self.read(ctx, src_offset + k);
                self.write(ctx, dst_offset + k, v);
            }
            return;
        }
        let n = len as u64;
        ctx.stats.charge_global_read(n, n * T::BYTES);
        ctx.stats.charge_global_write(n, n * T::BYTES);
        T::copy_slice(&self.data[dst_offset..dst_offset + len], &self.data[src_offset..src_offset + len]);
    }

    /// Device `atomicAdd`: atomically add `v` to element `i`, returning the
    /// previous value. Implemented as a CAS loop over the bit pattern, like
    /// CUDA's software atomics for types without hardware support.
    pub fn atomic_add(&self, ctx: &mut BlockCtx, i: usize, v: T) -> T {
        ctx.stats.atomic_ops += 1;
        let slot = &self.data[i];
        let mut cur = slot.load_bits();
        loop {
            let old = T::from_bits(cur);
            let new = old.add(v).to_bits();
            match slot.compare_exchange_bits(cur, new) {
                Ok(_) => return old,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl<T: DeviceElem> std::fmt::Debug for GlobalBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GlobalBuffer<{}>[{}]", std::any::type_name::<T>(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::launch::{ExecMode, Gpu, LaunchConfig};

    fn gpu() -> Gpu {
        Gpu::new(DeviceConfig::tiny()).with_mode(ExecMode::Sequential)
    }

    #[test]
    fn zeroed_and_host_roundtrip() {
        let b = GlobalBuffer::<u32>::zeroed(16);
        assert_eq!(b.len(), 16);
        assert_eq!(b.host_read(7), 0);
        b.host_write(7, 99);
        assert_eq!(b.host_read(7), 99);
    }

    #[test]
    fn from_slice_to_vec_roundtrip() {
        let src = vec![1.5f32, -2.0, 0.0, 7.25];
        let b = GlobalBuffer::from_slice(&src);
        assert_eq!(b.to_vec(), src);
    }

    #[test]
    fn device_reads_are_counted() {
        let g = gpu();
        let b = GlobalBuffer::from_slice(&[10u32, 20, 30, 40]);
        let m = g.launch(LaunchConfig::new("t", 1, 32), |ctx| {
            let v = b.read(ctx, 2);
            assert_eq!(v, 30);
            b.write(ctx, 0, v + 1);
        });
        assert_eq!(m.stats.global_reads, 1);
        assert_eq!(m.stats.global_writes, 1);
        assert_eq!(m.stats.bytes_read, 4);
        assert_eq!(m.stats.bytes_written, 4);
        assert_eq!(b.host_read(0), 31);
    }

    #[test]
    fn strided_access_charges_more_bytes() {
        let g = gpu();
        let b = GlobalBuffer::<u32>::zeroed(64);
        let m = g.launch(LaunchConfig::new("t", 1, 32), |ctx| {
            let mut dst = vec![0u32; 8];
            b.load_col(ctx, 0, 8, &mut dst);
            b.store_col(ctx, 1, 8, &dst);
        });
        assert_eq!(m.stats.global_reads, 8);
        assert_eq!(m.stats.strided_reads, 8);
        let strided = DeviceConfig::tiny().strided_bytes_per_elem as u64;
        assert_eq!(m.stats.bytes_read, 8 * strided);
        assert_eq!(m.stats.bytes_written, 8 * strided);
    }

    #[test]
    fn bulk_row_ops_move_data() {
        let g = gpu();
        let b = GlobalBuffer::from_slice(&(0..32u32).collect::<Vec<_>>());
        let out = GlobalBuffer::<u32>::zeroed(32);
        g.launch(LaunchConfig::new("copy", 1, 32), |ctx| {
            let mut tmp = vec![0u32; 32];
            b.load_row(ctx, 0, &mut tmp);
            out.store_row(ctx, 0, &tmp);
        });
        assert_eq!(out.to_vec(), (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn fill_charges_like_store_row() {
        let g = gpu();
        let b = GlobalBuffer::<u32>::zeroed(64);
        let m = g.launch(LaunchConfig::new("fill", 1, 32), |ctx| {
            b.fill(ctx, 8, 16, 7);
        });
        assert_eq!(m.stats.global_writes, 16);
        assert_eq!(m.stats.bytes_written, 16 * 4);
        assert_eq!(m.stats.global_reads, 0);
        let v = b.to_vec();
        assert!(v[..8].iter().all(|&x| x == 0));
        assert!(v[8..24].iter().all(|&x| x == 7));
        assert!(v[24..].iter().all(|&x| x == 0));
    }

    #[test]
    fn copy_from_charges_one_read_one_write_per_element() {
        let g = gpu();
        let src = GlobalBuffer::from_slice(&(0..32u64).collect::<Vec<_>>());
        let dst = GlobalBuffer::<u64>::zeroed(32);
        let m = g.launch(LaunchConfig::new("copy", 1, 32), |ctx| {
            dst.copy_from(ctx, 4, &src, 0, 20);
        });
        assert_eq!(m.stats.global_reads, 20);
        assert_eq!(m.stats.global_writes, 20);
        assert_eq!(m.stats.bytes_read, 20 * 8);
        assert_eq!(m.stats.bytes_written, 20 * 8);
        assert_eq!(dst.to_vec()[4..24], (0..20u64).collect::<Vec<_>>()[..]);
    }

    #[test]
    fn copy_within_moves_disjoint_ranges() {
        let g = gpu();
        let b = GlobalBuffer::from_slice(&(0..16u32).collect::<Vec<_>>());
        let m = g.launch(LaunchConfig::new("cw", 1, 32), |ctx| {
            b.copy_within(ctx, 0, 8, 8);
        });
        assert_eq!(m.stats.global_reads, 8);
        assert_eq!(m.stats.global_writes, 8);
        assert_eq!(b.to_vec(), vec![0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn copy_within_rejects_overlap() {
        let g = gpu();
        let b = GlobalBuffer::<u32>::zeroed(16);
        g.launch(LaunchConfig::new("cw", 1, 32), |ctx| {
            b.copy_within(ctx, 0, 4, 8);
        });
    }

    #[test]
    fn tile_2d_ops_match_per_row_accounting() {
        let g = gpu();
        // An 8x8 matrix; read a 3x4 tile at (2, 1), write it back at (5, 4).
        let b = GlobalBuffer::from_slice(&(0..64u32).collect::<Vec<_>>());
        let m = g.launch(LaunchConfig::new("2d", 1, 32), |ctx| {
            let mut tile = vec![0u32; 12];
            b.load_2d(ctx, 2 * 8 + 1, 8, 4, &mut tile);
            assert_eq!(tile, vec![17, 18, 19, 20, 25, 26, 27, 28, 33, 34, 35, 36]);
            b.store_2d(ctx, 5 * 8 + 4, 8, 4, &tile);
        });
        // Same counters as 3 load_row + 3 store_row calls of width 4.
        assert_eq!(m.stats.global_reads, 12);
        assert_eq!(m.stats.global_writes, 12);
        assert_eq!(m.stats.bytes_read, 12 * 4);
        assert_eq!(m.stats.bytes_written, 12 * 4);
        assert_eq!(b.host_read(5 * 8 + 4), 17);
        assert_eq!(b.host_read(7 * 8 + 7), 36);
    }

    #[test]
    fn gather_scatter_match_scalar_expansion() {
        let g = gpu();
        let b = GlobalBuffer::from_slice(&(0..128u32).map(|v| v * 3).collect::<Vec<_>>());
        let out = GlobalBuffer::<u32>::zeroed(128);
        // Mixed pattern: one contiguous warp chunk, one diagonal-strided
        // chunk, plus a partial tail — both classification branches run.
        let mut indices: Vec<usize> = (8..40).collect();
        indices.extend((0..32).map(|k| k * 3));
        indices.extend([5usize, 99, 17]);
        let run = |scalar: bool| {
            set_force_scalar(scalar);
            let m = g.launch(LaunchConfig::new("gs", 1, 32), |ctx| {
                let mut vals = vec![0u32; indices.len()];
                b.gather(ctx, &indices, &mut vals);
                for (k, &i) in indices.iter().enumerate() {
                    assert_eq!(vals[k], (i as u32) * 3);
                }
                let dsts: Vec<usize> = indices.iter().map(|&i| 127 - i).collect();
                out.scatter(ctx, &dsts, &vals);
            });
            set_force_scalar(false);
            m.stats.deterministic()
        };
        let batched = run(false);
        let scalar = run(true);
        assert_eq!(batched, scalar);
        assert_eq!(batched.global_reads, 67);
        assert_eq!(batched.global_writes, 67);
        assert_eq!(batched.bytes_read, 67 * 4);
        for &i in &indices {
            assert_eq!(out.host_read(127 - i), (i as u32) * 3);
        }
    }

    #[test]
    fn force_scalar_bulk_ops_charge_identically() {
        let g = gpu();
        let b = GlobalBuffer::from_slice(&(0..256u32).collect::<Vec<_>>());
        let dst = GlobalBuffer::<u32>::zeroed(256);
        let body = |ctx: &mut BlockCtx| {
            let mut row = vec![0u32; 24];
            b.load_row(ctx, 3, &mut row);
            dst.store_row(ctx, 10, &row);
            let mut col = vec![0u32; 7];
            b.load_col(ctx, 2, 16, &mut col);
            dst.store_col(ctx, 4, 16, &col);
            let mut tile = vec![0u32; 12];
            b.load_2d(ctx, 17, 16, 4, &mut tile);
            dst.store_2d(ctx, 33, 16, 4, &tile);
            dst.fill(ctx, 100, 9, 7);
            dst.copy_from(ctx, 120, &b, 60, 11);
            dst.copy_within(ctx, 120, 140, 11);
        };
        let batched = g.launch(LaunchConfig::new("bulk", 1, 32), body);
        let snapshot = dst.to_vec();
        dst.host_fill(0);
        set_force_scalar(true);
        let scalar = g.launch(LaunchConfig::new("scalar", 1, 32), body);
        set_force_scalar(false);
        assert_eq!(batched.stats.deterministic(), scalar.stats.deterministic());
        assert_eq!(dst.to_vec(), snapshot);
    }

    #[test]
    fn atomic_add_returns_previous() {
        let g = gpu();
        let b = GlobalBuffer::<u32>::zeroed(1);
        let m = g.launch(LaunchConfig::new("atomics", 4, 32), |ctx| {
            let prev = b.atomic_add(ctx, 0, 10);
            assert!(prev.is_multiple_of(10));
        });
        assert_eq!(b.host_read(0), 40);
        assert_eq!(m.stats.atomic_ops, 4);
    }

    #[test]
    fn atomic_add_f32() {
        let g = gpu();
        let b = GlobalBuffer::<f32>::zeroed(1);
        g.launch(LaunchConfig::new("atomics", 8, 32), |ctx| {
            b.atomic_add(ctx, 0, 0.5f32);
        });
        assert_eq!(b.host_read(0), 4.0);
    }

    #[test]
    fn host_fill() {
        let b = GlobalBuffer::<i64>::zeroed(10);
        b.host_fill(-3);
        assert!(b.to_vec().iter().all(|&v| v == -3));
    }

    /// Elements in the large transfer tests: above the 4 MiB huge-page
    /// advice threshold for every element width, and not a multiple of
    /// 2 MiB, so both the advised middle and the unadvised tail are hit.
    const LARGE: usize = (1 << 20) + 12_345;

    fn assert_zeroed_large<T: DeviceElem>() {
        let v = GlobalBuffer::<T>::zeroed(LARGE).to_vec();
        assert_eq!(v.len(), LARGE);
        let zero = T::zero().to_bits();
        assert!(v.iter().all(|x| x.to_bits() == zero), "zeroed buffer holds a non-zero element");
    }

    #[test]
    fn zeroed_large_buffers_read_all_zero() {
        assert_zeroed_large::<u32>();
        assert_zeroed_large::<u64>();
        assert_zeroed_large::<f32>();
        assert_zeroed_large::<f64>();
    }

    #[test]
    fn from_slice_to_vec_roundtrips_large_buffers_exactly() {
        let ints: Vec<u32> = (0..LARGE as u32).map(|k| k.wrapping_mul(0x9E37_79B9)).collect();
        assert_eq!(GlobalBuffer::from_slice(&ints).to_vec(), ints);
        // Every bit pattern survives, NaN payloads and negative zero too.
        let floats: Vec<f64> =
            (0..LARGE as u64).map(|k| f64::from_bits(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect();
        let back = GlobalBuffer::from_slice(&floats).to_vec();
        assert!(back.iter().map(|x| x.to_bits()).eq(floats.iter().map(|x| x.to_bits())));
    }

    /// Minor page faults taken so far by the calling thread (`minflt`, the
    /// 10th field of `/proc/thread-self/stat`).
    #[cfg(target_os = "linux")]
    fn thread_minor_faults() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("read /proc/thread-self/stat");
        // The command name (field 2) may hold spaces; count from after it.
        let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
        rest.split_whitespace().nth(7).and_then(|f| f.parse().ok()).expect("minflt field")
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn large_download_faults_in_huge_pages() {
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled").unwrap_or_default();
        if !(thp.contains("[always]") || thp.contains("[madvise]")) {
            eprintln!("skipped: transparent huge pages are not enabled for madvised memory ({})", thp.trim());
            return;
        }
        let len = 64 << 20 >> 2; // 64 MiB of u32
        let buf = GlobalBuffer::<u32>::zeroed(len);
        buf.host_fill(7);
        let before = thread_minor_faults();
        let v = buf.to_vec();
        let faults = thread_minor_faults() - before;
        assert!(v.len() == len && v[0] == 7 && v[len - 1] == 7);
        // 4 KiB pages would take 16 384 faults; 2 MiB pages take 32.
        assert!(faults < 4096, "64 MiB download took {faults} minor faults");
    }
}
