//! Negative fixture for `cargo xtask analyze`: R3 has no carve-out. This
//! crate, once the one allowed to hold `unsafe`, breaks R3 twice — an
//! `unsafe` block that a SAFETY comment does not excuse, and no
//! `#![forbid(unsafe_code)]` attribute. Never compiled.

/// Reads the first byte.
pub fn read_first(bytes: &[u8]) -> u8 {
    // SAFETY: the emptiness check guarantees len >= 1.
    if bytes.is_empty() { 0 } else { unsafe { *bytes.as_ptr() } }
}
