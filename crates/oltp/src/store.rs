//! The heap row store.

use crate::encoding::{decode_row, encode_row};
use clinical_types::{Error, Record, Result, Schema, Value};
use obs::{LockRank, RankedRwLock};
use std::sync::Arc;

/// Stable identifier of a row within a [`RowStore`] (its heap slot).
pub type RowId = u64;

#[derive(Debug)]
struct Slot {
    /// `None` marks a tombstone (deleted row).
    payload: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct Heap {
    slots: Vec<Slot>,
    live: usize,
}

/// An in-memory heap of schema-validated rows with tombstone deletes.
///
/// Concurrency model: a single reader–writer lock over the heap —
/// plenty for the clinical-workstation scale the paper targets, and
/// simple to reason about. Secondary indexes live *outside* the store
/// (see [`crate::index`]) and are maintained by the caller or by
/// [`crate::QueryEngine`].
#[derive(Debug, Clone)]
pub struct RowStore {
    schema: Arc<Schema>,
    heap: Arc<RankedRwLock<Heap>>,
}

impl RowStore {
    /// Empty store over `schema`.
    pub fn new(schema: Schema) -> Self {
        RowStore {
            schema: Arc::new(schema),
            heap: Arc::new(RankedRwLock::new(
                LockRank::Heap,
                "oltp.heap",
                Heap::default(),
            )),
        }
    }

    /// The store's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Insert a validated row; returns its id.
    pub fn insert(&self, record: Record) -> Result<RowId> {
        self.schema.check_row(record.values())?;
        let payload = encode_row(&record);
        let mut heap = self.heap.write();
        let id = heap.slots.len() as RowId;
        heap.slots.push(Slot {
            payload: Some(payload),
        });
        heap.live += 1;
        Ok(id)
    }

    /// Fetch a row by id (`None` if deleted or never allocated).
    pub fn get(&self, id: RowId) -> Result<Option<Record>> {
        let heap = self.heap.read();
        match heap.slots.get(id as usize).and_then(|s| s.payload.as_ref()) {
            Some(bytes) => Ok(Some(decode_row(bytes)?)),
            None => Ok(None),
        }
    }

    /// Replace a row in place; returns the previous version.
    pub fn update(&self, id: RowId, record: Record) -> Result<Record> {
        self.schema.check_row(record.values())?;
        let mut heap = self.heap.write();
        let slot = heap
            .slots
            .get_mut(id as usize)
            .ok_or_else(|| Error::invalid(format!("row {id} does not exist")))?;
        let old = slot
            .payload
            .as_ref()
            .ok_or_else(|| Error::invalid(format!("row {id} is deleted")))?;
        let previous = decode_row(old)?;
        slot.payload = Some(encode_row(&record));
        Ok(previous)
    }

    /// Tombstone a row; returns the deleted version.
    pub fn delete(&self, id: RowId) -> Result<Record> {
        let mut heap = self.heap.write();
        let slot = heap
            .slots
            .get_mut(id as usize)
            .ok_or_else(|| Error::invalid(format!("row {id} does not exist")))?;
        let old = slot
            .payload
            .take()
            .ok_or_else(|| Error::invalid(format!("row {id} is already deleted")))?;
        heap.live -= 1;
        decode_row(&old)
    }

    /// Number of live (non-deleted) rows.
    pub fn len(&self) -> usize {
        self.heap.read().live
    }

    /// True if no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total allocated slots including tombstones.
    pub fn capacity(&self) -> usize {
        self.heap.read().slots.len()
    }

    /// Materialise all live rows as `(id, record)` pairs.
    ///
    /// Snapshot semantics: the heap lock is held for the duration of
    /// the copy, so the result is a consistent point-in-time view.
    pub fn scan(&self) -> Result<Vec<(RowId, Record)>> {
        let heap = self.heap.read();
        let mut out = Vec::with_capacity(heap.live);
        for (i, slot) in heap.slots.iter().enumerate() {
            if let Some(bytes) = &slot.payload {
                out.push((i as RowId, decode_row(bytes)?));
            }
        }
        Ok(out)
    }

    /// Visit all live rows without materialising them into a vector.
    pub fn for_each(&self, mut f: impl FnMut(RowId, &Record)) -> Result<()> {
        let heap = self.heap.read();
        for (i, slot) in heap.slots.iter().enumerate() {
            if let Some(bytes) = &slot.payload {
                f(i as RowId, &decode_row(bytes)?);
            }
        }
        Ok(())
    }

    /// Value of `column` in row `id`.
    pub fn value(&self, id: RowId, column: &str) -> Result<Value> {
        let idx = self.schema.index_of(column)?;
        let record = self
            .get(id)?
            .ok_or_else(|| Error::invalid(format!("row {id} does not exist")))?;
        Ok(record.values()[idx].clone())
    }

    /// Bulk-load a [`clinical_types::Table`] with matching schema.
    pub fn load_table(&self, table: &clinical_types::Table) -> Result<Vec<RowId>> {
        if table.schema() != self.schema.as_ref() {
            return Err(Error::invalid("table schema differs from store schema"));
        }
        table
            .rows()
            .iter()
            .map(|r| self.insert(r.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinical_types::{DataType, FieldDef};

    fn demo_store() -> RowStore {
        let schema = Schema::new(vec![
            FieldDef::required("Id", DataType::Int),
            FieldDef::nullable("FBG", DataType::Float),
        ])
        .unwrap();
        RowStore::new(schema)
    }

    fn rec(id: i64, fbg: Option<f64>) -> Record {
        Record::new(vec![Value::Int(id), fbg.into()])
    }

    #[test]
    fn insert_get_round_trip() {
        let store = demo_store();
        let id = store.insert(rec(1, Some(5.5))).unwrap();
        assert_eq!(store.get(id).unwrap().unwrap(), rec(1, Some(5.5)));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn insert_validates_schema() {
        let store = demo_store();
        let bad = Record::new(vec![Value::Null, Value::Null]);
        assert!(store.insert(bad).is_err());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn update_returns_previous_version() {
        let store = demo_store();
        let id = store.insert(rec(1, Some(5.0))).unwrap();
        let old = store.update(id, rec(1, Some(6.2))).unwrap();
        assert_eq!(old, rec(1, Some(5.0)));
        assert_eq!(store.get(id).unwrap().unwrap(), rec(1, Some(6.2)));
    }

    #[test]
    fn delete_tombstones_and_undelete_restores() {
        let store = demo_store();
        let id = store.insert(rec(1, None)).unwrap();
        let deleted = store.delete(id).unwrap();
        assert_eq!(deleted, rec(1, None));
        assert_eq!(store.get(id).unwrap(), None);
        assert_eq!(store.len(), 0);
        assert_eq!(store.capacity(), 1);
    }

    #[test]
    fn double_delete_fails() {
        let store = demo_store();
        let id = store.insert(rec(1, None)).unwrap();
        store.delete(id).unwrap();
        assert!(store.delete(id).is_err());
        assert!(store.update(id, rec(1, None)).is_err());
    }

    #[test]
    fn missing_row_operations_fail() {
        let store = demo_store();
        assert!(store.get(5).unwrap().is_none());
        assert!(store.delete(5).is_err());
        assert!(store.update(5, rec(1, None)).is_err());
    }

    #[test]
    fn scan_skips_tombstones() {
        let store = demo_store();
        let a = store.insert(rec(1, None)).unwrap();
        let b = store.insert(rec(2, None)).unwrap();
        let c = store.insert(rec(3, None)).unwrap();
        store.delete(b).unwrap();
        let rows = store.scan().unwrap();
        let ids: Vec<RowId> = rows.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![a, c]);
    }

    #[test]
    fn value_accessor() {
        let store = demo_store();
        let id = store.insert(rec(7, Some(6.1))).unwrap();
        assert_eq!(store.value(id, "FBG").unwrap(), Value::Float(6.1));
        assert!(store.value(id, "Nope").is_err());
    }

    #[test]
    fn concurrent_inserts_from_clones() {
        let store = demo_store();
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    s.insert(rec(t * 100 + i, None)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 400);
    }

    #[test]
    fn load_table_checks_schema() {
        let store = demo_store();
        let other = Schema::new(vec![FieldDef::required("X", DataType::Int)]).unwrap();
        let t = clinical_types::Table::new(other);
        assert!(store.load_table(&t).is_err());
    }
}
