//! The dimensional model: facts, dimensions, hierarchies.
//!
//! §III of the paper, after Kimball \[10\] and Agrawal et al. \[12\]: a
//! subject-oriented star structure in which a fact table of numeric
//! measures is linked to dimension tables of descriptive attributes,
//! some of which form drill-down hierarchies.

use clinical_types::{Error, Result};
use std::collections::HashSet;

/// An ordered drill-down path inside one dimension, coarsest level
/// first (e.g. `Age_Band` → `Age_SubGroup`). Fig. 5's "two levels of
/// granularity" is exactly a two-level hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    /// Hierarchy name (e.g. `"AgeGroups"`).
    pub name: String,
    /// Attribute names from coarsest to finest.
    pub levels: Vec<String>,
}

impl Hierarchy {
    /// Build a hierarchy.
    pub fn new(name: impl Into<String>, levels: Vec<&str>) -> Self {
        Hierarchy {
            name: name.into(),
            levels: levels.into_iter().map(String::from).collect(),
        }
    }

    /// The level one step finer than `level`, if any.
    pub fn drill_down_from(&self, level: &str) -> Option<&str> {
        let pos = self.levels.iter().position(|l| l == level)?;
        self.levels.get(pos + 1).map(String::as_str)
    }

    /// The level one step coarser than `level`, if any.
    pub fn roll_up_from(&self, level: &str) -> Option<&str> {
        let pos = self.levels.iter().position(|l| l == level)?;
        pos.checked_sub(1).map(|i| self.levels[i].as_str())
    }
}

/// One dimension: a named set of descriptive attributes plus its
/// hierarchies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionDef {
    /// Dimension name as it appears in Figs. 1 and 3.
    pub name: String,
    /// Attribute (column) names this dimension owns.
    pub attributes: Vec<String>,
    /// Drill-down hierarchies over those attributes.
    pub hierarchies: Vec<Hierarchy>,
}

impl DimensionDef {
    /// Dimension without hierarchies.
    pub fn new(name: impl Into<String>, attributes: Vec<&str>) -> Self {
        DimensionDef {
            name: name.into(),
            attributes: attributes.into_iter().map(String::from).collect(),
            hierarchies: Vec::new(),
        }
    }

    /// Attach a hierarchy (levels must be attributes of the dimension).
    pub fn with_hierarchy(mut self, hierarchy: Hierarchy) -> Self {
        self.hierarchies.push(hierarchy);
        self
    }

    /// Whether the dimension owns `attribute`.
    pub fn has_attribute(&self, attribute: &str) -> bool {
        self.attributes.iter().any(|a| a == attribute)
    }
}

/// The fact table definition: measures plus degenerate (identifier)
/// columns kept on the fact itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactDef {
    /// Fact name (the paper's "Medical Measures").
    pub name: String,
    /// Numeric measure column names.
    pub measures: Vec<String>,
    /// Degenerate dimension columns stored inline (patient id,
    /// visit number, test date).
    pub degenerate: Vec<String>,
}

impl FactDef {
    /// Build a fact definition.
    pub fn new(name: impl Into<String>, measures: Vec<&str>, degenerate: Vec<&str>) -> Self {
        FactDef {
            name: name.into(),
            measures: measures.into_iter().map(String::from).collect(),
            degenerate: degenerate.into_iter().map(String::from).collect(),
        }
    }
}

/// A validated star schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarSchema {
    /// The fact table definition.
    pub fact: FactDef,
    /// The dimensions linked to the fact.
    pub dimensions: Vec<DimensionDef>,
}

impl StarSchema {
    /// Build and validate: dimension names unique, no attribute owned
    /// by two dimensions or by both a dimension and the fact, and
    /// every hierarchy level owned by its dimension.
    pub fn new(fact: FactDef, dimensions: Vec<DimensionDef>) -> Result<Self> {
        let mut dim_names = HashSet::new();
        for d in &dimensions {
            if !dim_names.insert(d.name.as_str()) {
                return Err(Error::invalid(format!("duplicate dimension `{}`", d.name)));
            }
        }
        let mut owners: HashSet<&str> = HashSet::new();
        for d in &dimensions {
            for a in &d.attributes {
                if !owners.insert(a.as_str()) {
                    return Err(Error::invalid(format!(
                        "attribute `{a}` owned by more than one dimension"
                    )));
                }
            }
            for h in &d.hierarchies {
                for level in &h.levels {
                    if !d.has_attribute(level) {
                        return Err(Error::invalid(format!(
                            "hierarchy `{}` level `{level}` is not an attribute of dimension `{}`",
                            h.name, d.name
                        )));
                    }
                }
            }
        }
        for m in fact.measures.iter().chain(&fact.degenerate) {
            if owners.contains(m.as_str()) {
                return Err(Error::invalid(format!(
                    "column `{m}` is both a fact column and a dimension attribute"
                )));
            }
        }
        Ok(StarSchema { fact, dimensions })
    }

    /// Dimension by name.
    pub fn dimension(&self, name: &str) -> Result<&DimensionDef> {
        self.dimensions
            .iter()
            .find(|d| d.name == name)
            .ok_or_else(|| Error::invalid(format!("unknown dimension `{name}`")))
    }

    /// The dimension owning `attribute`, if any.
    pub fn dimension_of_attribute(&self, attribute: &str) -> Option<&DimensionDef> {
        self.dimensions.iter().find(|d| d.has_attribute(attribute))
    }

    /// Render the star as indented text (used by the schema example).
    pub fn describe(&self) -> String {
        let mut s = format!("Fact: {}\n", self.fact.name);
        s.push_str(&format!(
            "  measures: {}\n  degenerate: {}\n",
            self.fact.measures.join(", "),
            self.fact.degenerate.join(", ")
        ));
        for d in &self.dimensions {
            s.push_str(&format!("Dimension: {}\n", d.name));
            s.push_str(&format!("  attributes: {}\n", d.attributes.join(", ")));
            for h in &d.hierarchies {
                s.push_str(&format!(
                    "  hierarchy {}: {}\n",
                    h.name,
                    h.levels.join(" > ")
                ));
            }
        }
        s
    }
}

/// The paper's Fig. 1: the generic Clinical Data Warehouse model —
/// a Medical Measures fact with Personal Information, Medical
/// Condition, Fasting Bloods and Limb Health dimensions.
pub fn fig1_model() -> StarSchema {
    StarSchema::new(
        FactDef::new(
            "Medical Measures",
            vec!["FBG", "LyingDBPAverage"],
            vec!["PatientId"],
        ),
        vec![
            DimensionDef::new("Personal Information", vec!["Gender", "Age_Band"]),
            DimensionDef::new(
                "Medical Condition",
                vec!["DiabetesStatus", "HypertensionStatus"],
            ),
            DimensionDef::new("Fasting Bloods", vec!["FBG_Band"]),
            DimensionDef::new("Limb Health", vec!["KneeReflexRight", "AnkleReflexRight"]),
        ],
    )
    .expect("Fig. 1 model is well-formed") // lint:allow(no-panic, "static Fig. 1 model, validated in tests")
}

/// The paper's Fig. 3: the dimensional model used in the DiScRi trial
/// — the Fig. 1 dimensions plus Exercise Routine, Blood Pressure, ECG
/// and the Cardinality dimension, with the Age drill-down hierarchy
/// that Figs. 5–6 exercise.
pub fn discri_model() -> StarSchema {
    let age_hierarchy = Hierarchy::new("AgeGroups", vec!["Age_Band", "Age_SubGroup"]);
    let ht_hierarchy = Hierarchy::new("HTYears", vec!["DiagnosticHTYears_Band"]);
    StarSchema::new(
        FactDef::new(
            "Medical Measures",
            vec![
                "Age",
                "FBG",
                "HbA1c",
                "BMI",
                "TotalCholesterol",
                "HDL",
                "LDL",
                "Triglycerides",
                "LyingSBPAverage",
                "LyingDBPAverage",
                "StandingSBP",
                "StandingDBP",
                "RestingHeartRate",
                "OrthostaticSBPDrop",
                "QRSDuration",
                "QTInterval",
                "QTc",
                "PRInterval",
                "SDNN",
                "EwingHRRatio3015",
                "EwingValsalvaRatio",
                "EwingHandGrip",
                "EwingDeepBreathingHRV",
                "VibrationPerception",
                "AnkleBrachialIndex",
                "ExerciseMinutesPerWeek",
                "SedentaryHoursPerDay",
                "WeightKg",
                "WaistHipRatio",
                "DiagnosticHTYears",
                "DiabetesDurationYears",
            ],
            vec!["PatientId", "VisitNo", "TestDate"],
        ),
        vec![
            DimensionDef::new(
                "Personal Information",
                vec![
                    "Gender",
                    "FamilyHistoryDiabetes",
                    "FamilyHistoryCVD",
                    "Smoker",
                    "EducationYears",
                    "Age_Band",
                    "Age_SubGroup",
                ],
            )
            .with_hierarchy(age_hierarchy),
            DimensionDef::new(
                "Medical Condition",
                vec![
                    "DiabetesStatus",
                    "HypertensionStatus",
                    "OnGlucoseMedication",
                    "MedicationCount",
                    "DiagnosticHTYears_Band",
                    "BMI_Band",
                ],
            )
            .with_hierarchy(ht_hierarchy),
            DimensionDef::new(
                "Fasting Bloods",
                vec!["FBG_Band", "FBG_Trend", "HbA1c_Band"],
            ),
            DimensionDef::new(
                "Limb Health",
                vec![
                    "KneeReflexRight",
                    "KneeReflexLeft",
                    "AnkleReflexRight",
                    "AnkleReflexLeft",
                    "FootPulses",
                    "MonofilamentScore",
                ],
            ),
            DimensionDef::new(
                "Exercise Routine",
                vec!["ActivityType", "ExerciseSessionsPerWeek"],
            ),
            DimensionDef::new("Blood Pressure", vec!["LyingDBPAverage_Band"]),
            DimensionDef::new("ECG", vec!["QTc_Band", "SDNN_Band"]),
            DimensionDef::new(
                "Cardinality",
                vec!["DerivedVisitNo", "PatientVisitCount", "VisitKind"],
            ),
        ],
    )
    .expect("Fig. 3 model is well-formed") // lint:allow(no-panic, "static Fig. 3 model, validated in tests")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_has_the_four_paper_dimensions() {
        let m = fig1_model();
        let names: Vec<&str> = m.dimensions.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "Personal Information",
                "Medical Condition",
                "Fasting Bloods",
                "Limb Health"
            ]
        );
        assert_eq!(m.fact.name, "Medical Measures");
    }

    #[test]
    fn discri_model_adds_cardinality_and_four_more() {
        let m = discri_model();
        let names: Vec<&str> = m.dimensions.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names.len(), 8);
        for required in [
            "Personal Information",
            "Medical Condition",
            "Fasting Bloods",
            "Limb Health",
            "Exercise Routine",
            "Blood Pressure",
            "ECG",
            "Cardinality",
        ] {
            assert!(names.contains(&required), "missing dimension {required}");
        }
    }

    #[test]
    fn age_hierarchy_supports_fig5_drilldown() {
        let m = discri_model();
        let pi = m.dimension("Personal Information").unwrap();
        let h = &pi.hierarchies[0];
        assert_eq!(h.drill_down_from("Age_Band"), Some("Age_SubGroup"));
        assert_eq!(h.roll_up_from("Age_SubGroup"), Some("Age_Band"));
        assert_eq!(h.drill_down_from("Age_SubGroup"), None);
        assert_eq!(h.roll_up_from("Age_Band"), None);
    }

    #[test]
    fn duplicate_attribute_ownership_rejected() {
        let r = StarSchema::new(
            FactDef::new("F", vec![], vec![]),
            vec![
                DimensionDef::new("A", vec!["X"]),
                DimensionDef::new("B", vec!["X"]),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn fact_dimension_column_clash_rejected() {
        let r = StarSchema::new(
            FactDef::new("F", vec!["X"], vec![]),
            vec![DimensionDef::new("A", vec!["X"])],
        );
        assert!(r.is_err());
    }

    #[test]
    fn hierarchy_levels_must_be_owned() {
        let r = StarSchema::new(
            FactDef::new("F", vec![], vec![]),
            vec![DimensionDef::new("A", vec!["X"])
                .with_hierarchy(Hierarchy::new("H", vec!["X", "Y"]))],
        );
        assert!(r.is_err());
    }

    #[test]
    fn duplicate_dimension_names_rejected() {
        let r = StarSchema::new(
            FactDef::new("F", vec![], vec![]),
            vec![
                DimensionDef::new("A", vec!["X"]),
                DimensionDef::new("A", vec!["Y"]),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn dimension_lookup_by_attribute() {
        let m = discri_model();
        let d = m.dimension_of_attribute("FBG_Band").unwrap();
        assert_eq!(d.name, "Fasting Bloods");
        assert!(m.dimension_of_attribute("FBG").is_none()); // a measure
    }

    #[test]
    fn describe_renders_star() {
        let text = discri_model().describe();
        assert!(text.contains("Fact: Medical Measures"));
        assert!(text.contains("Dimension: Cardinality"));
        assert!(text.contains("hierarchy AgeGroups: Age_Band > Age_SubGroup"));
    }
}
