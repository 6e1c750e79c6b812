//! The counting global allocator behind the workspace's allocation
//! contracts: `qnbench` installs it to report allocations per `predict`,
//! and `tests/contracts.rs` installs it to enforce allocation-free
//! steady-state inference and zero-copy mapped loading.

pub mod counting_alloc;
