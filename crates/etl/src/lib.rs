#![warn(missing_docs)]

//! Data transformation for the DD-DGMS pipeline.
//!
//! Implements the "Data Transformation" component of the paper's
//! architecture (§IV) and its three clinical-specific concerns, plus
//! the cleaning step the trial applies first (§V.A: "Data
//! transformation initiated with the replacement of missing values,
//! erroneous values and records"):
//!
//! * [`clean`] — plausibility-range based cleaning of erroneous
//!   values and handling of missing measurements.
//! * [`discretise`] — conversion of continuous clinical measures to
//!   ranges: clinician-supplied schemes (the paper's Table I) where
//!   available, otherwise algorithmic top-down (equal-width,
//!   entropy/MDLP) or bottom-up (ChiMerge) methods per Kotsiantis &
//!   Kanellopoulos \[17\].
//! * [`temporal`] — temporal abstraction: qualitative state and trend
//!   descriptions derived from time-stamped measurements \[18\].
//! * [`cardinality`] — visit-level abstraction distinguishing repeat
//!   attendances of the same patient.
//! * [`pipeline`] — the composed transformation applied before
//!   warehouse loading.

pub mod cardinality;
pub mod clean;
pub mod discretise;
pub mod pipeline;
pub mod temporal;

pub use cardinality::CardinalityProfile;
pub use clean::{Cleaner, CleaningReport, CleaningRules};
pub use discretise::{
    chimerge::ChiMerge, clinical::table1_schemes, clinical::ClinicalScheme,
    equal_frequency::EqualFrequency, equal_width::EqualWidth, mdlp::Mdlp, Bins, Discretiser,
};
pub use pipeline::{PipelineReport, TransformPipeline};
pub use temporal::{abstract_trends, StateAbstraction, Trend, TrendAbstraction};
