//! Negative fixture for `cargo xtask analyze`: the unsafe-permitted crate
//! breaking R3 — an `unsafe` block with no `// SAFETY:` comment, and no
//! `#![deny(unsafe_op_in_unsafe_fn)]` attribute. Never compiled.

/// Reads the first byte twice: once behind a SAFETY comment, once not.
pub fn read_first(bytes: &[u8]) -> u8 {
    // SAFETY: caller-visible bounds check above guarantees len >= 1.
    let ok = if bytes.is_empty() { 0 } else { unsafe { *bytes.as_ptr() } };
    let bad = unsafe { *bytes.as_ptr().add(0) };
    ok.wrapping_add(bad)
}
