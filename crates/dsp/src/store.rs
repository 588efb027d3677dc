//! Encrypted document and protected-rule storage.

use std::collections::BTreeMap;

use sdds_sync::sync::Arc;

use sdds_wire::{SecureDocument, WireError};

/// One stored document: its encrypted body plus the protected rule sets of the
/// subjects allowed to ask for it (the DSP cannot read either).
#[derive(Debug, Clone)]
pub struct DocumentRecord {
    /// The encrypted document.
    pub document: SecureDocument,
    /// Protected rule blobs, keyed by subject name. Opaque to the DSP, and
    /// `Arc`-shared so serving one is a refcount bump, not a copy.
    pub rules: BTreeMap<String, Arc<[u8]>>,
    /// Upload counter (bumped on every replacement).
    pub revision: u64,
}

/// The DSP's storage back-end.
#[derive(Debug, Default)]
pub struct DspStore {
    documents: BTreeMap<String, DocumentRecord>,
}

impl DspStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        DspStore::default()
    }

    /// Uploads (or replaces) a document, keeping any stored rule blobs.
    ///
    /// Keeping the blobs is only sound when the replacement has the same
    /// schema as the original (a content refresh): protected rules reference
    /// the document's tag vocabulary, so a replace that changes the schema
    /// must use [`DspStore::put_document_with`] with
    /// `clear_rules_on_replace = true` or the stale blobs of the previous
    /// schema keep being served.
    pub fn put_document(&mut self, document: SecureDocument) {
        self.put_document_with(document, false);
    }

    /// Uploads (or replaces) a document, choosing what happens to the
    /// protected rule blobs already stored for it. The revision is bumped on
    /// every replacement either way, so a subscriber can detect that its
    /// cached rules may predate the current document.
    pub fn put_document_with(&mut self, document: SecureDocument, clear_rules_on_replace: bool) {
        let id = document.header.doc_id.clone();
        match self.documents.get_mut(&id) {
            Some(record) => {
                record.document = document;
                record.revision += 1;
                if clear_rules_on_replace {
                    record.rules.clear();
                }
            }
            None => {
                self.documents.insert(
                    id,
                    DocumentRecord {
                        document,
                        rules: BTreeMap::new(),
                        revision: 0,
                    },
                );
            }
        }
    }

    /// Stores the protected rule blob of `subject` for `doc_id`. The blob
    /// is opaque bytes here (`&ProtectedRules` converts into it).
    pub fn put_rules(
        &mut self,
        doc_id: &str,
        subject: &str,
        rules: impl Into<Arc<[u8]>>,
    ) -> Result<(), WireError> {
        let record = self
            .documents
            .get_mut(doc_id)
            .ok_or_else(|| WireError::NotFound {
                doc_id: doc_id.to_owned(),
            })?;
        record.rules.insert(subject.to_owned(), rules.into());
        Ok(())
    }

    /// Looks up a document record.
    pub fn get(&self, doc_id: &str) -> Option<&DocumentRecord> {
        self.documents.get(doc_id)
    }

    /// Lists stored document ids.
    pub fn document_ids(&self) -> Vec<String> {
        self.documents.keys().cloned().collect()
    }

    /// Total ciphertext bytes stored (documents only).
    pub fn stored_bytes(&self) -> usize {
        self.documents
            .values()
            .map(|r| r.document.ciphertext_len())
            .sum()
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_core::rule::RuleSet;
    use sdds_core::secdoc::SecureDocumentBuilder;
    use sdds_core::session::ProtectedRules;
    use sdds_crypto::SecretKey;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    fn document(id: &str) -> SecureDocument {
        let doc = generator::hospital(
            &HospitalProfile {
                patients: 2,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        );
        SecureDocumentBuilder::new(id, SecretKey::derive(b"s", "k")).build(&doc)
    }

    #[test]
    fn put_get_and_revisions() {
        let mut store = DspStore::new();
        assert!(store.is_empty());
        store.put_document(document("a"));
        store.put_document(document("b"));
        assert_eq!(store.len(), 2);
        assert_eq!(store.document_ids(), vec!["a", "b"]);
        assert_eq!(store.get("a").unwrap().revision, 0);
        store.put_document(document("a"));
        assert_eq!(store.get("a").unwrap().revision, 1);
        assert!(store.get("zzz").is_none());
        assert!(store.stored_bytes() > 0);
    }

    #[test]
    fn replace_semantics_pin_rule_blob_survival_and_clearing() {
        let key = SecretKey::derive(b"s", "rules");
        let sealed = ProtectedRules::seal(&RuleSet::parse("+, doctor, //patient").unwrap(), &key);

        // Default replace: a content refresh keeps the stored blobs and bumps
        // the revision.
        let mut store = DspStore::new();
        store.put_document(document("a"));
        store.put_rules("a", "doctor", &sealed).unwrap();
        store.put_document(document("a"));
        let record = store.get("a").unwrap();
        assert_eq!(record.revision, 1);
        assert_eq!(record.rules.len(), 1, "refresh keeps the rule blobs");

        // Schema-changing replace: the caller opts into clearing, so no stale
        // blob of the previous schema can be served afterwards.
        store.put_document_with(document("a"), true);
        let record = store.get("a").unwrap();
        assert_eq!(record.revision, 2, "revision bumps on every replacement");
        assert!(record.rules.is_empty(), "stale rule blobs are dropped");

        // First upload through the explicit path behaves like a plain insert.
        store.put_document_with(document("b"), true);
        assert_eq!(store.get("b").unwrap().revision, 0);
    }

    #[test]
    fn rules_are_stored_per_subject_as_opaque_blobs() {
        let mut store = DspStore::new();
        store.put_document(document("a"));
        let rules = RuleSet::parse("+, doctor, //patient").unwrap();
        let sealed = ProtectedRules::seal(&rules, &SecretKey::derive(b"s", "rules"));
        store.put_rules("a", "doctor", &sealed).unwrap();
        assert!(store.put_rules("nope", "doctor", &sealed).is_err());
        let record = store.get("a").unwrap();
        assert_eq!(record.rules.len(), 1);
        assert_eq!(record.rules["doctor"][..], sealed.encode()[..]);
    }
}
