//! Comparison points of the evaluation.
//!
//! Three baselines back the experiments:
//!
//! * [`authorized_view_oracle`] — a tree-based (non-streaming) computation of
//!   the authorized view with the exact semantics of the streaming engine. It
//!   is the correctness oracle of the property tests **and** the evaluation
//!   component of the DOM baseline,
//! * [`DomBaseline`] — the "materialise on the terminal" strategy the paper
//!   rules out: fetch everything, decrypt everything, build a DOM, evaluate on
//!   it. Functionally equivalent, but it transfers and decrypts the whole
//!   document and its working set is the whole document — incompatible with a
//!   1 KiB SOE (experiment E9) and, worse, it runs *outside* the SOE,
//! * [`StaticEncryptionScheme`] — the server-side encryption approach of the
//!   related work ([1, 6] in the paper): the document is partitioned into
//!   equivalence classes of the access-control rules, each class encrypted
//!   under its own key, and users receive the keys of the classes they may
//!   read. Changing the rules then forces re-encryption and key redistribution
//!   (experiment E7), which is precisely the rigidity the SOE approach removes.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use sdds_crypto::SecretKey;
use sdds_xml::{Document, Event, NodeData, NodeId};

use crate::conflict::{resolve, AccessPolicy, Decision, DirectRule};
use crate::error::CoreError;
use crate::query::Query;
use crate::rule::{RuleSet, Subject};
use crate::secdoc::{decrypt_chunk, document_cipher, integrity_key, verify_chunk, SecureDocument};
use crate::skipindex::decode::decode_all;
use sdds_card::CostLedger;

/// Computes, for every element of `doc`, the rules of `subject` applying
/// directly to it.
fn direct_rules_per_node(
    doc: &Document,
    rules: &RuleSet,
    subject: &Subject,
) -> HashMap<NodeId, Vec<DirectRule>> {
    let mut map: HashMap<NodeId, Vec<DirectRule>> = HashMap::new();
    for rule in rules.for_subject(subject) {
        for node in sdds_xpath::evaluate(doc, &rule.object) {
            map.entry(node).or_default().push(DirectRule {
                rule: rule.id,
                sign: rule.sign,
            });
        }
    }
    map
}

/// Tree-based computation of the authorized view (the oracle).
///
/// Semantics (identical to the streaming engine):
/// * an element is *delivered* when its resolved decision is Permit **and** it
///   lies in the query scope (the query scope of a node is "the query matches
///   the node or one of its ancestors"; without a query every node is in
///   scope),
/// * a delivered element keeps its attributes and its direct text,
/// * an element that is not delivered but has a delivered descendant appears
///   as bare structural scaffolding (tag only),
/// * everything else is absent from the view.
pub fn authorized_view_oracle(
    doc: &Document,
    rules: &RuleSet,
    subject: &Subject,
    query: Option<&Query>,
    policy: &AccessPolicy,
) -> Vec<Event> {
    let Some(root) = doc.root() else {
        return Vec::new();
    };
    let direct = direct_rules_per_node(doc, rules, subject);
    let query_matches: BTreeSet<NodeId> = match query {
        Some(q) => sdds_xpath::evaluate(doc, &q.path).into_iter().collect(),
        None => BTreeSet::new(),
    };

    // Top-down: decisions and scope.
    let mut delivered: BTreeMap<NodeId, bool> = BTreeMap::new();
    compute_delivered(
        doc,
        root,
        None,
        query.is_none(),
        &direct,
        &query_matches,
        policy,
        &mut delivered,
    );

    // Bottom-up: which elements are needed (delivered or ancestor of a
    // delivered element).
    let mut needed: BTreeSet<NodeId> = BTreeSet::new();
    for (&node, &is_delivered) in &delivered {
        if is_delivered {
            needed.insert(node);
            for ancestor in doc.ancestors(node) {
                needed.insert(ancestor);
            }
        }
    }

    let mut events = Vec::new();
    emit_view(doc, root, &delivered, &needed, &mut events);
    events
}

#[allow(clippy::too_many_arguments)]
fn compute_delivered(
    doc: &Document,
    node: NodeId,
    inherited: Option<Decision>,
    parent_in_scope: bool,
    direct: &HashMap<NodeId, Vec<DirectRule>>,
    query_matches: &BTreeSet<NodeId>,
    policy: &AccessPolicy,
    delivered: &mut BTreeMap<NodeId, bool>,
) {
    if !matches!(doc.data(node), NodeData::Element { .. }) {
        return;
    }
    let empty = Vec::new();
    let node_direct = direct.get(&node).unwrap_or(&empty);
    let decision = resolve(policy, node_direct, inherited);
    let in_scope = parent_in_scope || query_matches.contains(&node);
    delivered.insert(node, decision.is_permit() && in_scope);
    for child in doc.children(node) {
        compute_delivered(
            doc,
            *child,
            Some(decision),
            in_scope,
            direct,
            query_matches,
            policy,
            delivered,
        );
    }
}

fn emit_view(
    doc: &Document,
    node: NodeId,
    delivered: &BTreeMap<NodeId, bool>,
    needed: &BTreeSet<NodeId>,
    events: &mut Vec<Event>,
) {
    match doc.data(node) {
        NodeData::Text(text) => {
            let parent_delivered = doc
                .parent(node)
                .and_then(|p| delivered.get(&p).copied())
                .unwrap_or(false);
            if parent_delivered {
                events.push(Event::Text(text.clone()));
            }
        }
        NodeData::Element { name, attrs } => {
            if !needed.contains(&node) {
                return;
            }
            let is_delivered = delivered.get(&node).copied().unwrap_or(false);
            let name: Arc<str> = Arc::from(name.as_str());
            events.push(Event::Open {
                name: Arc::clone(&name),
                attrs: if is_delivered {
                    attrs.clone()
                } else {
                    Vec::new()
                },
            });
            for child in doc.children(node) {
                emit_view(doc, *child, delivered, needed, events);
            }
            events.push(Event::Close(name));
        }
    }
}

/// Result of a DOM-baseline run.
#[derive(Debug, Clone)]
pub struct DomBaselineReport {
    /// The authorized view (identical to the streaming engine's output).
    pub view: Vec<Event>,
    /// Cost counters: the whole document is transferred and decrypted.
    pub ledger: CostLedger,
    /// Working-set estimate of the materialised document, in bytes. This is
    /// what must fit in memory *wherever* the evaluation runs; it exceeds any
    /// smart-card RAM by orders of magnitude.
    pub materialized_bytes: usize,
}

/// The "fetch + decrypt + materialise + evaluate" baseline (experiment E9).
#[derive(Debug, Clone, Copy, Default)]
pub struct DomBaseline;

impl DomBaseline {
    /// Runs the baseline for `subject` over a secure document.
    pub fn run(
        document: &SecureDocument,
        key: &SecretKey,
        rules: &RuleSet,
        subject: &Subject,
        query: Option<&Query>,
        policy: &AccessPolicy,
    ) -> Result<DomBaselineReport, CoreError> {
        document.header.verify(key)?;
        let mut ledger = CostLedger::new();
        let cipher = document_cipher(key);
        let integrity = integrity_key(key);
        let mut plaintext = Vec::with_capacity(document.header.plaintext_len as usize);
        for index in 0..document.chunk_count() {
            // lint: infallible — `index` ranges over `chunk_count()`.
            let (chunk, tag) = document.sealed_chunk(index).expect("index in range");
            verify_chunk(&integrity, &document.header, index as u32, &chunk, &tag)?;
            ledger
                .channel
                .record_exchange(chunk.len() + tag.encoded_len(), 0);
            ledger.record_hash(chunk.len());
            let mut clear = chunk.to_vec();
            decrypt_chunk(&cipher, &document.header, index as u32, &mut clear);
            ledger.record_decrypt(clear.len());
            plaintext.extend(clear);
        }
        let events = decode_all(&plaintext, document.header.recursive_bitmaps)?;
        ledger.record_events(events.len());
        let doc = Document::from_events(&events)?;
        // Rough but honest materialisation estimate: every event of the
        // document plus the per-node bookkeeping of the arena.
        let materialized_bytes = events.iter().map(Event::serialized_len).sum::<usize>()
            + doc.len() * 3 * std::mem::size_of::<usize>();
        let view = authorized_view_oracle(&doc, rules, subject, query, policy);
        let produced: usize = view.iter().map(Event::serialized_len).sum();
        ledger.channel.record_exchange(0, produced);
        Ok(DomBaselineReport {
            view,
            ledger,
            materialized_bytes,
        })
    }
}

// ---------------------------------------------------------------------------
// Server-side static encryption baseline
// ---------------------------------------------------------------------------

/// Cost of adapting a statically encrypted document to a policy change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleChangeCost {
    /// Bytes that must be re-encrypted at the server (or by the owner).
    pub bytes_reencrypted: usize,
    /// Number of equivalence classes whose key changed.
    pub classes_rekeyed: usize,
    /// Number of (user, key) deliveries needed to redistribute keys.
    pub keys_redistributed: usize,
}

/// The key-per-equivalence-class encryption scheme of the related work.
#[derive(Debug, Clone)]
pub struct StaticEncryptionScheme {
    /// For every element (in document order), the set of subjects allowed to
    /// read it under the policy the scheme was built for.
    node_access: Vec<(NodeId, BTreeSet<Subject>, usize)>,
    /// Equivalence classes: distinct subject sets, each with its own key.
    classes: Vec<BTreeSet<Subject>>,
    /// Current key generation of each class (bumped when re-encrypted).
    key_generation: Vec<u64>,
}

impl StaticEncryptionScheme {
    /// Builds the scheme for `doc` under `rules` (all subjects of the rule
    /// set), using the same decision semantics as the SOE approach.
    pub fn build(doc: &Document, rules: &RuleSet, policy: &AccessPolicy) -> Self {
        let subjects = rules.subjects();
        let mut node_access: Vec<(NodeId, BTreeSet<Subject>, usize)> = Vec::new();
        let mut per_subject_delivered: Vec<(Subject, BTreeMap<NodeId, bool>)> = Vec::new();
        for subject in &subjects {
            let direct = direct_rules_per_node(doc, rules, subject);
            let mut delivered = BTreeMap::new();
            if let Some(root) = doc.root() {
                compute_delivered(
                    doc,
                    root,
                    None,
                    true,
                    &direct,
                    &BTreeSet::new(),
                    policy,
                    &mut delivered,
                );
            }
            per_subject_delivered.push((subject.clone(), delivered));
        }
        for node in doc.all_elements() {
            let readers: BTreeSet<Subject> = per_subject_delivered
                .iter()
                .filter(|(_, delivered)| delivered.get(&node).copied().unwrap_or(false))
                .map(|(s, _)| s.clone())
                .collect();
            let size = doc
                .subtree_events(node)
                .iter()
                .map(Event::serialized_len)
                .sum::<usize>()
                / doc.subtree_element_count(node).max(1);
            node_access.push((node, readers, size));
        }
        let mut classes: Vec<BTreeSet<Subject>> = Vec::new();
        for (_, readers, _) in &node_access {
            if !classes.contains(readers) {
                classes.push(readers.clone());
            }
        }
        let key_generation = vec![0; classes.len()];
        StaticEncryptionScheme {
            node_access,
            classes,
            key_generation,
        }
    }

    /// Number of equivalence classes (hence encryption keys) of the scheme.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of keys each subject must hold.
    pub fn keys_held_by(&self, subject: &Subject) -> usize {
        self.classes.iter().filter(|c| c.contains(subject)).count()
    }

    /// Applies a policy change: the document is re-analysed under `new_rules`
    /// and every element whose reader set changed forces its class to be
    /// re-encrypted and the new key to be redistributed to its readers.
    pub fn apply_rule_change(
        &mut self,
        doc: &Document,
        new_rules: &RuleSet,
        policy: &AccessPolicy,
    ) -> RuleChangeCost {
        let new_scheme = StaticEncryptionScheme::build(doc, new_rules, policy);
        let old: HashMap<NodeId, &BTreeSet<Subject>> = self
            .node_access
            .iter()
            .map(|(n, readers, _)| (*n, readers))
            .collect();
        let mut touched_classes: BTreeSet<usize> = BTreeSet::new();
        let mut bytes = 0usize;
        for (node, readers, size) in &new_scheme.node_access {
            let changed = old.get(node).map(|r| *r != readers).unwrap_or(true);
            if changed {
                bytes += size;
                if let Some(class_idx) = new_scheme.classes.iter().position(|c| c == readers) {
                    touched_classes.insert(class_idx);
                }
            }
        }
        let keys_redistributed: usize = touched_classes
            .iter()
            .map(|&c| new_scheme.classes[c].len())
            .sum();
        let cost = RuleChangeCost {
            bytes_reencrypted: bytes,
            classes_rekeyed: touched_classes.len(),
            keys_redistributed,
        };
        // Adopt the new layout.
        for &c in &touched_classes {
            if let Some(generation) = self.key_generation.get_mut(c) {
                *generation += 1;
            }
        }
        self.node_access = new_scheme.node_access;
        self.classes = new_scheme.classes;
        self.key_generation.resize(self.classes.len(), 0);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvaluatorConfig, StreamingEvaluator};
    use crate::rule::Sign;
    use crate::secdoc::SecureDocumentBuilder;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
    use sdds_xml::{writer, Parser};

    fn rules() -> RuleSet {
        RuleSet::parse(
            "+, doctor, //patient\n\
             -, doctor, //patient/ssn\n\
             +, secretary, //patient/name\n\
             +, researcher, //diagnosis",
        )
        .unwrap()
    }

    fn doc() -> Document {
        generator::hospital(
            &HospitalProfile {
                patients: 4,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        )
    }

    #[test]
    fn oracle_matches_streaming_evaluator_on_the_medical_folder() {
        let doc = doc();
        let events = Parser::parse_all(&doc.to_xml()).unwrap();
        for subject in ["doctor", "secretary", "researcher", "nobody"] {
            let config = EvaluatorConfig::new(rules(), subject);
            let (streaming, _) = StreamingEvaluator::evaluate_all(&config, &events).unwrap();
            let oracle = authorized_view_oracle(
                &doc,
                &rules(),
                &Subject::new(subject),
                None,
                &AccessPolicy::paper(),
            );
            assert_eq!(
                writer::to_string(&streaming),
                writer::to_string(&oracle),
                "streaming and oracle views differ for {subject}"
            );
        }
    }

    #[test]
    fn oracle_respects_queries() {
        let doc = doc();
        let query = Query::parse("//patient/name").unwrap();
        let view = authorized_view_oracle(
            &doc,
            &rules(),
            &Subject::new("doctor"),
            Some(&query),
            &AccessPolicy::paper(),
        );
        let text = writer::to_string(&view);
        assert!(text.contains("<name>"));
        assert!(!text.contains("<report>"));
        assert!(!text.contains("<ssn>"));
    }

    #[test]
    fn oracle_on_empty_document_is_empty() {
        let empty = Document::new();
        assert!(authorized_view_oracle(
            &empty,
            &rules(),
            &Subject::new("doctor"),
            None,
            &AccessPolicy::paper()
        )
        .is_empty());
    }

    #[test]
    fn dom_baseline_is_functionally_equivalent_but_pays_full_cost() {
        let doc = doc();
        let key = SecretKey::derive(b"community", "documents");
        let secure = SecureDocumentBuilder::new("folder", key.clone()).build(&doc);
        let subject = Subject::new("secretary");
        let report = DomBaseline::run(
            &secure,
            &key,
            &rules(),
            &subject,
            None,
            &AccessPolicy::paper(),
        )
        .unwrap();
        // Same view as the oracle (and hence as the streaming engine).
        let oracle = authorized_view_oracle(&doc, &rules(), &subject, None, &AccessPolicy::paper());
        assert_eq!(writer::to_string(&report.view), writer::to_string(&oracle));
        // Full transfer and decryption.
        assert_eq!(
            report.ledger.bytes_decrypted as u64,
            secure.header.plaintext_len
        );
        assert!(report.ledger.channel.bytes_to_card as u64 >= secure.header.plaintext_len);
        assert_eq!(report.ledger.bytes_skipped, 0);
        // The materialised working set dwarfs a 1 KiB card RAM.
        assert!(report.materialized_bytes > 2 * 1024);
        // Tampering is still detected.
        let wrong = SecretKey::derive(b"other", "documents");
        assert!(DomBaseline::run(
            &secure,
            &wrong,
            &rules(),
            &subject,
            None,
            &AccessPolicy::paper()
        )
        .is_err());
    }

    #[test]
    fn static_encryption_builds_equivalence_classes() {
        let doc = doc();
        let scheme = StaticEncryptionScheme::build(&doc, &rules(), &AccessPolicy::paper());
        // At least: {doctor}, {doctor, secretary} (names), {doctor, researcher}
        // (diagnosis), {} (ssn, root scaffolding...).
        assert!(scheme.class_count() >= 3);
        assert!(scheme.keys_held_by(&Subject::new("doctor")) >= 2);
        assert!(scheme.keys_held_by(&Subject::new("secretary")) >= 1);
        assert_eq!(scheme.keys_held_by(&Subject::new("nobody")), 0);
    }

    #[test]
    fn rule_changes_force_reencryption_in_the_static_scheme_only() {
        let doc = doc();
        let policy = AccessPolicy::paper();
        let mut scheme = StaticEncryptionScheme::build(&doc, &rules(), &policy);

        // The same change, seen by the SOE approach, costs nothing on the
        // document side: only a new protected rule set is shipped.
        let mut new_rules = rules();
        new_rules
            .push(Sign::Deny, "secretary", "//patient/name")
            .unwrap();

        let cost = scheme.apply_rule_change(&doc, &new_rules, &policy);
        assert!(
            cost.bytes_reencrypted > 0,
            "reader sets of name elements changed"
        );
        assert!(cost.classes_rekeyed >= 1);
        assert!(cost.keys_redistributed >= 1);

        // An identical policy produces no cost.
        let cost = scheme.apply_rule_change(&doc, &new_rules, &policy);
        assert_eq!(cost, RuleChangeCost::default());
    }
}
