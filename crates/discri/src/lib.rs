#![warn(missing_docs)]

//! Synthetic DiScRi cohort generator.
//!
//! The paper's trial (Section V) runs over the Diabetes Screening
//! Complications Research Initiative (DiScRi) dataset: a regional
//! Australian screening programme with **273 attributes** recorded
//! over **~2500 attendances** of **~900 patients** across ten years.
//! That dataset is proprietary, so this crate generates a statistically
//! faithful synthetic stand-in (see DESIGN.md §2 for the substitution
//! argument). The generator is fully deterministic given a seed.
//!
//! The effects the paper reports are *built into* the generator so the
//! downstream DD-DGMS pipeline can rediscover them:
//!
//! * **Fig. 5 shape** — diabetes prevalence rises with age; males
//!   dominate the 70–75 sub-group, females the 75–80 sub-group, and the
//!   proportion of diabetic females drops substantially past 78.
//! * **Fig. 6 shape** — among hypertensives aged 70–80, the
//!   "5–10 years since diagnosis" band dips relative to neighbouring
//!   age groups.
//! * **§V insight (AWSum, ref \[9\])** — absent knee/ankle reflexes
//!   combined with a mid-range fasting blood glucose is strongly
//!   predictive of diabetes (latent pre-clinical neuropathy).
//! * **Time-course structure** — each patient follows a noisy
//!   monotone Normal → PreDiabetic → Diabetic phase trajectory across
//!   visits, giving the prediction component something to learn.
//!
//! The output is a wide [`clinical_types::Table`] (one row per
//! attendance, 273 columns) plus the typed [`Patient`] roster.

pub mod attributes;
pub mod config;
pub mod generator;
pub mod patient;
pub mod stats;

pub use attributes::{
    attribute_catalogue, cohort_schema, data_dictionary, AttributeGroup, AttributeSpec,
};
pub use config::CohortConfig;
pub use generator::{generate, Cohort};
pub use patient::{DiseasePhase, Gender, Patient};
pub use stats::CohortStats;
