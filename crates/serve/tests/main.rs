//! The `serve` integration test binary. Each suite stays in its own
//! file and builds here as a module, so the whole set shares one process
//! and prices the quick cost table once. A new suite is not built
//! (`autotests = false`) until it is listed below.

mod causal;
mod chaos_serving;
mod equivalence;
mod policy;
mod serving;
mod telemetry;
