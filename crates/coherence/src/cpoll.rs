//! The cpoll checker's region rule (Fig. 3).
//!
//! During initialization the framework allocates the request buffers (or the
//! pointer buffer, at scale) in one contiguous *cpoll region* and registers
//! it with the checker in the accelerator's coherence controller, which pins
//! it in the local cache. An invalidation inside the region then maps to its
//! ring by simple address arithmetic — which is why monitoring a single
//! region is "trivially scalable". The designs charge that discovery as
//! timing only ([`Notifier::Cpoll`](crate::Notifier::Cpoll)); this module
//! keeps the registration rule (local-cache capacity, overlap, ring
//! geometry) that decides between pinned rings and the pointer buffer.

use std::ops::Range;

/// Errors from region registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CpollError {
    /// The region would overflow the accelerator's pinnable local cache.
    CacheOverflow {
        /// Bytes requested (including already-registered regions).
        requested: u64,
        /// Bytes of pinnable local cache available.
        capacity: u64,
    },
    /// The region overlaps an already-registered region.
    Overlap,
    /// `ring_bytes` was zero or did not divide the region size.
    BadGeometry,
}

impl std::fmt::Display for CpollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpollError::CacheOverflow { requested, capacity } => write!(
                f,
                "cpoll region of {requested} B cannot be pinned in {capacity} B of local cache; \
                 use a pointer buffer (Fig. 3(c))"
            ),
            CpollError::Overlap => write!(f, "region overlaps an existing cpoll region"),
            CpollError::BadGeometry => {
                write!(f, "ring size must be nonzero and divide the region size")
            }
        }
    }
}

impl std::error::Error for CpollError {}

/// The cpoll checker in the accelerator coherence controller's datapath.
///
/// ```
/// use rambda_coherence::{CpollChecker, CpollError};
///
/// // 64 KB of pinnable cache: 16 rings of 1 KB fit, 16 rings of 1 MB do not.
/// let mut checker = CpollChecker::new(64 * 1024);
/// checker.register(0x1000, 16 * 1024, 1024).unwrap();
/// let err = checker.register(1 << 30, 16 << 20, 1 << 20).unwrap_err();
/// assert!(matches!(err, CpollError::CacheOverflow { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct CpollChecker {
    cache_capacity: u64,
    pinned_bytes: u64,
    regions: Vec<Range<u64>>,
}

impl CpollChecker {
    /// Creates a checker backed by `cache_capacity` bytes of pinnable local
    /// cache (64 KB in the prototype, Tab. II).
    pub fn new(cache_capacity: u64) -> Self {
        CpollChecker { cache_capacity, pinned_bytes: 0, regions: Vec::new() }
    }

    /// Registers a contiguous cpoll region of `bytes` at `base`, divided
    /// into rings of `ring_bytes` each, and pins it in the local cache.
    ///
    /// # Errors
    ///
    /// * [`CpollError::CacheOverflow`] if the pinned total would exceed the
    ///   local cache — the prototype limitation that motivates the pointer
    ///   buffer.
    /// * [`CpollError::Overlap`] if the region overlaps an existing one.
    /// * [`CpollError::BadGeometry`] if `ring_bytes` is zero or does not
    ///   divide `bytes`.
    pub fn register(&mut self, base: u64, bytes: u64, ring_bytes: u64) -> Result<(), CpollError> {
        if ring_bytes == 0 || bytes == 0 || !bytes.is_multiple_of(ring_bytes) {
            return Err(CpollError::BadGeometry);
        }
        if self.pinned_bytes + bytes > self.cache_capacity {
            return Err(CpollError::CacheOverflow {
                requested: self.pinned_bytes + bytes,
                capacity: self.cache_capacity,
            });
        }
        let end = base + bytes;
        if self.regions.iter().any(|r| base < r.end && r.start < end) {
            return Err(CpollError::Overlap);
        }
        self.regions.push(base..end);
        self.pinned_bytes += bytes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_capacity_limits_pinning() {
        // The prototype's 64 KB cache cannot pin 16 rings of 1 MB: this is
        // exactly the scalability limitation that motivates Fig. 3(c).
        let mut c = CpollChecker::new(64 * 1024);
        let err = c.register(0, 16 << 20, 1 << 20).unwrap_err();
        assert!(matches!(err, CpollError::CacheOverflow { .. }));
        assert!(!format!("{err}").is_empty());

        // A 16-ring pointer buffer (4 B each, line-padded to 64 B) fits fine.
        c.register(0, 16 * 64, 64).unwrap();
    }

    #[test]
    fn overlap_rejected() {
        let mut c = CpollChecker::new(1 << 20);
        c.register(0, 4096, 1024).unwrap();
        assert_eq!(c.register(2048, 4096, 1024).unwrap_err(), CpollError::Overlap);
        c.register(4096, 4096, 1024).unwrap();
    }

    #[test]
    fn bad_geometry_rejected() {
        let mut c = CpollChecker::new(1 << 20);
        assert_eq!(c.register(0, 1000, 0).unwrap_err(), CpollError::BadGeometry);
        assert_eq!(c.register(0, 1000, 333).unwrap_err(), CpollError::BadGeometry);
    }
}
