//! Allocation tracking: an opt-in counting wrapper around the system
//! allocator (the `obs-alloc` feature).
//!
//! When the feature is on, this module installs a
//! [`#[global_allocator]`](std::alloc::GlobalAlloc) that counts every
//! allocation, the bytes requested, the live-byte level, and the peak
//! live-byte watermark — four relaxed atomics per allocation, cheap
//! enough to profile with but **not** free, which is why the feature is
//! off by default.
//!
//! Per-stage attribution: when `obs-alloc` is on, every span guard
//! captures the alloc/byte totals at entry and records the deltas as
//! `alloc.allocs{stage}` / `alloc.bytes{stage}` counters at exit, so
//! allocation cost shows up next to wall time in the manifest and the
//! `profile` hot-stage table. The deltas are process-wide: a stage's
//! numbers include allocations made by concurrently running stages on
//! other threads (exact in sequential runs, an upper bound in parallel
//! ones — same caveat as summed wall time). Nested spans double-count
//! their children, again like wall time.
//!
//! The peak watermark is global (allocation peaks are a property of the
//! whole heap, not of one stage); [`reset_peak`] rebases it to the
//! current live level so a run can measure "peak during this region".

use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Point-in-time allocation totals since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of allocations (`alloc` + `realloc` calls).
    pub allocs: u64,
    /// Total bytes requested across those allocations.
    pub bytes: u64,
    /// Bytes currently live (allocated minus freed).
    pub live_bytes: u64,
    /// Highest `live_bytes` seen since process start or [`reset_peak`].
    pub peak_bytes: u64,
}

/// Current allocation totals (all zero unless the crate was built with
/// the `obs-alloc` feature, which installs the counting allocator).
#[must_use]
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
    }
}

/// Rebases the peak watermark to the current live level, so the next
/// [`stats`] reports the peak of the region that follows.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Counting allocator delegating to [`std::alloc::System`].
///
/// Public so the wrapper is nameable/testable; it only becomes the
/// process allocator under the `obs-alloc` feature.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn on_alloc(size: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        // Lossy max: a concurrent higher watermark may win the race,
        // which is fine — PEAK only ever moves toward the true maximum.
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    #[inline]
    fn on_dealloc(size: usize) {
        // Saturating: a dealloc observed before its alloc's add lands
        // (relaxed ordering) must not wrap the gauge.
        let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(size as u64))
        });
    }
}

// SAFETY: delegates verbatim to `System`; the counters are side effects
// that never influence the returned pointers or layouts.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = unsafe { std::alloc::System.alloc(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) };
        Self::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { std::alloc::System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::on_alloc(new_size);
            Self::on_dealloc(layout.size());
        }
        p
    }
}

#[cfg(feature = "obs-alloc")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(feature = "obs-alloc")]
    fn counting_allocator_observes_a_vec() {
        let before = stats();
        let v: Vec<u64> = Vec::with_capacity(4096);
        let after = stats();
        drop(v);
        assert!(after.allocs > before.allocs, "no allocation counted");
        assert!(after.bytes >= before.bytes + 4096 * 8, "bytes not counted");
        assert!(after.peak_bytes >= after.live_bytes.saturating_sub(1));
    }

    #[test]
    #[cfg(feature = "obs-alloc")]
    fn reset_peak_rebases_to_live() {
        let _spike: Vec<u8> = vec![0; 1 << 16];
        drop(_spike);
        reset_peak();
        let s = stats();
        assert!(
            s.peak_bytes <= s.live_bytes + (1 << 12),
            "peak {} far above live {} right after reset",
            s.peak_bytes,
            s.live_bytes
        );
    }

    #[test]
    #[cfg(not(feature = "obs-alloc"))]
    fn stats_are_zero_without_the_feature() {
        assert_eq!(stats(), AllocStats::default());
    }
}
