//! Umbrella crate for the DD-DGMS reproduction workspace.
//!
//! This package exists so that workspace-level integration tests
//! (`tests/`) and runnable examples (`examples/`) can exercise every
//! subsystem crate through one dependency set. The actual library code
//! lives in the `crates/` members; see [`dd_dgms`] for the facade that
//! wires them together.

pub use analyze;
pub use clinical_types;
pub use dd_dgms;
pub use discri;
pub use etl;
pub use kb;
pub use mining;
pub use obs;
pub use olap;
pub use optimize;
pub use predict;
pub use serve;
pub use viz;
pub use warehouse;
