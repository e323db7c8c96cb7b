//! The thread-safe knowledge base.

use crate::finding::{Finding, FindingStatus, Source};
use clinical_types::{Error, Result};
use std::collections::HashMap;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[derive(Debug, Default)]
struct Inner {
    findings: Vec<Finding>,
    by_statement: HashMap<String, usize>,
    next_id: u64,
}

/// Accumulates findings from every DD-DGMS component; clonable handle
/// over shared state so the facade can hand it to all components.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    inner: Arc<RwLock<Inner>>,
    /// Evidence count at which a candidate becomes validated
    /// (the "sufficient data-based evidence" threshold).
    validation_threshold: u32,
}

impl KnowledgeBase {
    /// Knowledge base validating findings after `validation_threshold`
    /// independent observations.
    pub fn new(validation_threshold: u32) -> Self {
        KnowledgeBase {
            inner: Arc::default(),
            validation_threshold: validation_threshold.max(1),
        }
    }

    // A poisoned lock is recovered, not propagated: mutations under
    // the guard only index, push and store fields, so there is no
    // half-applied state for a later reader to trip over.
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Record evidence for a statement. A new statement becomes a
    /// candidate finding; a repeated statement gains an evidence count
    /// (keeping the strongest strength) and is auto-validated at the
    /// threshold. Returns the finding id.
    pub fn add_evidence(
        &self,
        statement: &str,
        source: Source,
        strength: f64,
        tags: &[&str],
    ) -> Result<u64> {
        if statement.trim().is_empty() {
            return Err(Error::invalid("a finding needs a non-empty statement"));
        }
        if !(0.0..=f64::MAX).contains(&strength) {
            return Err(Error::invalid("evidence strength must be non-negative"));
        }
        let mut inner = self.write();
        if let Some(&idx) = inner.by_statement.get(statement) {
            let threshold = self.validation_threshold;
            let f = &mut inner.findings[idx];
            f.evidence_count += 1;
            f.strength = f.strength.max(strength);
            for t in tags {
                if !f.tags.iter().any(|x| x == t) {
                    f.tags.push((*t).to_string());
                }
            }
            if f.status == FindingStatus::Candidate && f.evidence_count >= threshold {
                f.status = FindingStatus::Validated;
            }
            return Ok(f.id);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let status = if self.validation_threshold <= 1 {
            FindingStatus::Validated
        } else {
            FindingStatus::Candidate
        };
        let finding = Finding {
            id,
            statement: statement.to_string(),
            source,
            evidence_count: 1,
            strength,
            tags: tags.iter().map(|t| t.to_string()).collect(),
            status,
            related: Vec::new(),
        };
        let slot = inner.findings.len();
        inner.by_statement.insert(statement.to_string(), slot);
        inner.findings.push(finding);
        Ok(id)
    }

    /// Promote a validated finding into guideline material.
    pub fn promote(&self, id: u64) -> Result<()> {
        let mut inner = self.write();
        let f = inner
            .findings
            .iter_mut()
            .find(|f| f.id == id)
            .ok_or_else(|| Error::invalid(format!("no finding #{id}")))?;
        if f.status != FindingStatus::Validated {
            return Err(Error::invalid(format!(
                "finding #{id} is {}, only validated findings can be promoted",
                f.status
            )));
        }
        f.status = FindingStatus::Promoted;
        Ok(())
    }

    /// Link two findings as related concepts (bidirectional).
    pub fn link(&self, a: u64, b: u64) -> Result<()> {
        if a == b {
            return Err(Error::invalid("cannot link a finding to itself"));
        }
        let mut inner = self.write();
        let ia = inner
            .findings
            .iter()
            .position(|f| f.id == a)
            .ok_or_else(|| Error::invalid(format!("no finding #{a}")))?;
        let ib = inner
            .findings
            .iter()
            .position(|f| f.id == b)
            .ok_or_else(|| Error::invalid(format!("no finding #{b}")))?;
        if !inner.findings[ia].related.contains(&b) {
            inner.findings[ia].related.push(b);
        }
        if !inner.findings[ib].related.contains(&a) {
            inner.findings[ib].related.push(a);
        }
        Ok(())
    }

    /// Finding by id.
    pub fn get(&self, id: u64) -> Option<Finding> {
        self.read().findings.iter().find(|f| f.id == id).cloned()
    }

    /// All findings at a status.
    pub fn by_status(&self, status: FindingStatus) -> Vec<Finding> {
        self.read()
            .findings
            .iter()
            .filter(|f| f.status == status)
            .cloned()
            .collect()
    }

    /// All findings carrying a tag.
    pub fn by_tag(&self, tag: &str) -> Vec<Finding> {
        self.read()
            .findings
            .iter()
            .filter(|f| f.tags.iter().any(|t| t == tag))
            .cloned()
            .collect()
    }

    /// Total findings.
    pub fn len(&self) -> usize {
        self.read().findings.len()
    }

    /// True when no findings exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialise to a line-based text format (one `key\tvalue…` record
    /// per finding) — dependency-free persistence.
    pub fn export_text(&self) -> String {
        let inner = self.read();
        let mut out = String::new();
        for f in &inner.findings {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                f.id,
                f.status,
                f.source,
                f.evidence_count,
                f.strength,
                f.tags.join(","),
                f.related
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
                f.statement.replace('\n', " "),
            ));
        }
        out
    }

    /// Rebuild a knowledge base from [`Self::export_text`] output.
    pub fn import_text(text: &str, validation_threshold: u32) -> Result<KnowledgeBase> {
        let kb = KnowledgeBase::new(validation_threshold);
        {
            let mut inner = kb.write();
            for (line_no, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let parts: Vec<&str> = line.splitn(8, '\t').collect();
                if parts.len() != 8 {
                    return Err(Error::invalid(format!(
                        "malformed KB record on line {}",
                        line_no + 1
                    )));
                }
                let bad =
                    |what: &str| Error::invalid(format!("bad {what} on line {}", line_no + 1));
                let id: u64 = parts[0].parse().map_err(|_| bad("id"))?;
                let status = match parts[1] {
                    "candidate" => FindingStatus::Candidate,
                    "validated" => FindingStatus::Validated,
                    "promoted" => FindingStatus::Promoted,
                    _ => return Err(bad("status")),
                };
                let source = Source::parse(parts[2]).ok_or_else(|| bad("source"))?;
                let evidence_count: u32 = parts[3].parse().map_err(|_| bad("evidence count"))?;
                let strength: f64 = parts[4].parse().map_err(|_| bad("strength"))?;
                let tags: Vec<String> = if parts[5].is_empty() {
                    Vec::new()
                } else {
                    parts[5].split(',').map(String::from).collect()
                };
                let related: Vec<u64> = if parts[6].is_empty() {
                    Vec::new()
                } else {
                    parts[6]
                        .split(',')
                        .map(|x| x.parse().map_err(|_| bad("related id")))
                        .collect::<Result<_>>()?
                };
                let statement = parts[7].to_string();
                let slot = inner.findings.len();
                inner.by_statement.insert(statement.clone(), slot);
                inner.next_id = inner.next_id.max(id + 1);
                inner.findings.push(Finding {
                    id,
                    statement,
                    source,
                    evidence_count,
                    strength,
                    tags,
                    status,
                    related,
                });
            }
        }
        Ok(kb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evidence_accumulates_and_validates() {
        let kb = KnowledgeBase::new(3);
        let id = kb
            .add_evidence(
                "reflex+glucose predicts diabetes",
                Source::Analytics,
                0.8,
                &["diabetes"],
            )
            .unwrap();
        assert_eq!(kb.get(id).unwrap().status, FindingStatus::Candidate);
        kb.add_evidence(
            "reflex+glucose predicts diabetes",
            Source::Reporting,
            0.7,
            &["neuropathy"],
        )
        .unwrap();
        assert_eq!(kb.get(id).unwrap().status, FindingStatus::Candidate);
        let id2 = kb
            .add_evidence(
                "reflex+glucose predicts diabetes",
                Source::Prediction,
                0.9,
                &[],
            )
            .unwrap();
        assert_eq!(id, id2, "same statement must dedupe");
        let f = kb.get(id).unwrap();
        assert_eq!(f.status, FindingStatus::Validated);
        assert_eq!(f.evidence_count, 3);
        assert_eq!(f.strength, 0.9, "keeps the strongest evidence");
        assert!(f.tags.contains(&"diabetes".to_string()));
        assert!(f.tags.contains(&"neuropathy".to_string()));
    }

    #[test]
    fn threshold_one_validates_immediately() {
        let kb = KnowledgeBase::new(1);
        let id = kb.add_evidence("x", Source::Clinician, 1.0, &[]).unwrap();
        assert_eq!(kb.get(id).unwrap().status, FindingStatus::Validated);
    }

    #[test]
    fn promotion_requires_validation() {
        let kb = KnowledgeBase::new(2);
        let id = kb.add_evidence("x", Source::Reporting, 0.5, &[]).unwrap();
        assert!(kb.promote(id).is_err());
        kb.add_evidence("x", Source::Reporting, 0.5, &[]).unwrap();
        kb.promote(id).unwrap();
        assert_eq!(kb.get(id).unwrap().status, FindingStatus::Promoted);
        // Double promotion fails (already promoted, not validated).
        assert!(kb.promote(id).is_err());
        assert!(kb.promote(999).is_err());
    }

    #[test]
    fn linking_is_bidirectional_and_idempotent() {
        let kb = KnowledgeBase::new(1);
        let a = kb.add_evidence("a", Source::Analytics, 1.0, &[]).unwrap();
        let b = kb.add_evidence("b", Source::Analytics, 1.0, &[]).unwrap();
        kb.link(a, b).unwrap();
        kb.link(a, b).unwrap();
        assert_eq!(kb.get(a).unwrap().related, vec![b]);
        assert_eq!(kb.get(b).unwrap().related, vec![a]);
        assert!(kb.link(a, a).is_err());
        assert!(kb.link(a, 42).is_err());
    }

    #[test]
    fn queries_by_status_and_tag() {
        let kb = KnowledgeBase::new(2);
        kb.add_evidence("one", Source::Reporting, 0.5, &["t1"])
            .unwrap();
        kb.add_evidence("two", Source::Reporting, 0.5, &["t1", "t2"])
            .unwrap();
        kb.add_evidence("two", Source::Reporting, 0.5, &[]).unwrap();
        assert_eq!(kb.by_status(FindingStatus::Candidate).len(), 1);
        assert_eq!(kb.by_status(FindingStatus::Validated).len(), 1);
        assert_eq!(kb.by_tag("t1").len(), 2);
        assert_eq!(kb.by_tag("t2").len(), 1);
        assert_eq!(kb.by_tag("t3").len(), 0);
    }

    #[test]
    fn rejects_bad_evidence() {
        let kb = KnowledgeBase::new(1);
        assert!(kb.add_evidence("  ", Source::Reporting, 0.5, &[]).is_err());
        assert!(kb.add_evidence("x", Source::Reporting, -1.0, &[]).is_err());
    }

    #[test]
    fn text_round_trip() {
        let kb = KnowledgeBase::new(2);
        let a = kb
            .add_evidence("finding A", Source::Analytics, 0.8, &["diabetes", "risk"])
            .unwrap();
        let b = kb
            .add_evidence("finding B", Source::Prediction, 0.6, &[])
            .unwrap();
        kb.add_evidence("finding A", Source::Reporting, 0.9, &[])
            .unwrap();
        kb.link(a, b).unwrap();

        let text = kb.export_text();
        let restored = KnowledgeBase::import_text(&text, 2).unwrap();
        assert_eq!(restored.len(), 2);
        let fa = restored.get(a).unwrap();
        assert_eq!(fa, kb.get(a).unwrap());
        assert_eq!(restored.get(b).unwrap(), kb.get(b).unwrap());
        // New evidence continues to dedupe after import.
        let id = restored
            .add_evidence("finding A", Source::Clinician, 0.1, &[])
            .unwrap();
        assert_eq!(id, a);
        assert_eq!(restored.get(a).unwrap().evidence_count, 3);
    }

    #[test]
    fn import_rejects_malformed_lines() {
        assert!(KnowledgeBase::import_text("not a record", 1).is_err());
        assert!(KnowledgeBase::import_text("1\tbogus\tanalytics\t1\t0.5\t\t\tX", 1).is_err());
    }

    #[test]
    fn concurrent_evidence_is_safe() {
        let kb = KnowledgeBase::new(100);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let kb = kb.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    kb.add_evidence("shared", Source::Analytics, 0.5, &[])
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let f = &kb.by_tag("")[..]; // no tag — use get by status
        let _ = f;
        let all = kb.by_status(FindingStatus::Validated);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].evidence_count, 400);
    }
}
