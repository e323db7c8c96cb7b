//! Field and schema definitions.

use crate::error::{Error, Result};
use crate::value::{DataType, Value};
use std::collections::HashMap;

/// One named, typed field of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    /// Attribute name (e.g. `"FBG"`, `"LyingDBPAverage"`).
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// Whether `Null` (a missing measurement) is accepted.
    pub nullable: bool,
}

impl FieldDef {
    /// A nullable field — the common case for clinical measurements,
    /// which are frequently missing.
    pub fn nullable(name: impl Into<String>, dtype: DataType) -> Self {
        FieldDef {
            name: name.into(),
            dtype,
            nullable: true,
        }
    }

    /// A required (non-nullable) field — identifiers, dates.
    pub fn required(name: impl Into<String>, dtype: DataType) -> Self {
        FieldDef {
            name: name.into(),
            dtype,
            nullable: false,
        }
    }

    /// Validate a single value against this field.
    pub fn check(&self, value: &Value) -> Result<()> {
        if value.is_null() {
            if self.nullable {
                return Ok(());
            }
            return Err(Error::UnexpectedNull(self.name.clone()));
        }
        if value.conforms_to(self.dtype) {
            Ok(())
        } else {
            Err(Error::TypeMismatch {
                field: self.name.clone(),
                expected: self.dtype.to_string(),
                got: format!("{value:?}"),
            })
        }
    }
}

/// An ordered collection of fields with O(1) name lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<FieldDef>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Build a schema. Duplicate field names are rejected.
    pub fn new(fields: Vec<FieldDef>) -> Result<Self> {
        let mut by_name = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if by_name.insert(f.name.clone(), i).is_some() {
                return Err(Error::invalid(format!("duplicate field `{}`", f.name)));
            }
        }
        Ok(Schema { fields, by_name })
    }

    /// Empty schema (useful as a builder seed).
    pub fn empty() -> Self {
        Schema {
            fields: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Append a field, rejecting duplicates.
    pub fn push(&mut self, field: FieldDef) -> Result<()> {
        if self.by_name.contains_key(&field.name) {
            return Err(Error::invalid(format!("duplicate field `{}`", field.name)));
        }
        self.by_name.insert(field.name.clone(), self.fields.len());
        self.fields.push(field);
        Ok(())
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Fields in declaration order.
    pub fn fields(&self) -> &[FieldDef] {
        &self.fields
    }

    /// Index of a field by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| Error::UnknownField(name.to_string()))
    }

    /// Field definition by name.
    pub fn field(&self, name: &str) -> Result<&FieldDef> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// Field definition by position.
    pub fn field_at(&self, idx: usize) -> Option<&FieldDef> {
        self.fields.get(idx)
    }

    /// Whether a field with `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Validate a full row of values against this schema.
    pub fn check_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.fields.len() {
            return Err(Error::ArityMismatch {
                expected: self.fields.len(),
                got: values.len(),
            });
        }
        for (f, v) in self.fields.iter().zip(values) {
            f.check(v)?;
        }
        Ok(())
    }

    /// Projection of this schema onto the named fields, in the given
    /// order.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for n in names {
            fields.push(self.field(n)?.clone());
        }
        Schema::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::date::Date;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            FieldDef::required("PatientId", DataType::Int),
            FieldDef::required("TestDate", DataType::Date),
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("Gender", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_fields() {
        let r = Schema::new(vec![
            FieldDef::nullable("FBG", DataType::Float),
            FieldDef::nullable("FBG", DataType::Float),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn index_and_lookup() {
        let s = demo_schema();
        assert_eq!(s.index_of("FBG").unwrap(), 2);
        assert!(s.contains("Gender"));
        assert!(matches!(s.index_of("Nope"), Err(Error::UnknownField(_))));
    }

    #[test]
    fn check_row_validates_types_and_nulls() {
        let s = demo_schema();
        let ok = vec![
            Value::Int(1),
            Value::Date(Date::new(2013, 1, 5).unwrap()),
            Value::Null,
            Value::Text("F".into()),
        ];
        assert!(s.check_row(&ok).is_ok());

        let null_in_required = vec![
            Value::Null,
            Value::Date(Date::new(2013, 1, 5).unwrap()),
            Value::Null,
            Value::Null,
        ];
        assert!(matches!(
            s.check_row(&null_in_required),
            Err(Error::UnexpectedNull(f)) if f == "PatientId"
        ));

        let wrong_type = vec![
            Value::Int(1),
            Value::Text("2013-01-05".into()),
            Value::Null,
            Value::Null,
        ];
        assert!(matches!(
            s.check_row(&wrong_type),
            Err(Error::TypeMismatch { .. })
        ));

        assert!(matches!(
            s.check_row(&[Value::Int(1)]),
            Err(Error::ArityMismatch {
                expected: 4,
                got: 1
            })
        ));
    }

    #[test]
    fn int_accepted_where_float_declared() {
        let s = demo_schema();
        let row = vec![
            Value::Int(1),
            Value::Date(Date::new(2013, 1, 5).unwrap()),
            Value::Int(6), // FBG declared Float
            Value::Null,
        ];
        assert!(s.check_row(&row).is_ok());
    }

    #[test]
    fn projection_preserves_order() {
        let s = demo_schema();
        let p = s.project(&["Gender", "PatientId"]).unwrap();
        assert_eq!(p.fields()[0].name, "Gender");
        assert_eq!(p.fields()[1].name, "PatientId");
        assert!(s.project(&["Missing"]).is_err());
    }

    #[test]
    fn push_extends_and_indexes() {
        let mut s = Schema::empty();
        s.push(FieldDef::nullable("A", DataType::Int)).unwrap();
        s.push(FieldDef::nullable("B", DataType::Int)).unwrap();
        assert_eq!(s.index_of("B").unwrap(), 1);
        assert!(s.push(FieldDef::nullable("A", DataType::Int)).is_err());
    }
}
