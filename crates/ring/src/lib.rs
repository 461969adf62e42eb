//! Empty placeholder. The simulator models Rambda's rings, credits and
//! pointer buffer as timing only (DESIGN.md §1); this package stays, with no
//! code and no dependencies, only because `perfbench/Cargo.lock` lists it
//! through `rambda`'s dependency. The next benchmark change removes both.

#![forbid(unsafe_code)]
