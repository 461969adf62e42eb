//! Cross-crate integration tests live next to this stub:
//! `end_to_end_kvs.rs`, `txn_consistency.rs`, `adaptive_ddio.rs`,
//! `determinism.rs` and the other `[[test]]` targets in `Cargo.toml`.
