//! Parameterised synthetic document generators.
//!
//! The paper's evaluation uses real corpora (hospital records for the medical
//! scenario, community/agenda documents for collaborative sharing, and
//! append-only streams for selective dissemination). Those corpora are not
//! redistributable, so this module generates synthetic documents with the same
//! structural profiles — what matters to the access-control engine and the
//! skip index is structure only: tag vocabulary, nesting depth, fan-out,
//! subtree sizes and text ratio. All generators are seeded and deterministic.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::Attribute;
use crate::tree::{Document, NodeId};

/// Common knobs shared by all generators.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// RNG seed; the same seed always yields the same document.
    pub seed: u64,
    /// Approximate number of bytes of text per leaf text node.
    pub text_len: usize,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0xB0DA_2005,
            text_len: 24,
        }
    }
}

fn rng_for(cfg: &GeneratorConfig, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(cfg.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

const WORDS: &[&str] = &[
    "analysis",
    "protocol",
    "routine",
    "confidential",
    "urgent",
    "review",
    "pending",
    "archive",
    "summary",
    "detail",
    "internal",
    "external",
    "draft",
    "final",
    "standard",
    "extended",
];

fn random_text(rng: &mut SmallRng, approx_len: usize) -> String {
    let mut s = String::with_capacity(approx_len + 12);
    while s.len() < approx_len {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    s
}

fn random_date(rng: &mut SmallRng) -> String {
    format!(
        "{:04}-{:02}-{:02}",
        rng.gen_range(1998..2006),
        rng.gen_range(1..13),
        rng.gen_range(1..29)
    )
}

fn person_name(rng: &mut SmallRng) -> String {
    const FIRST: &[&str] = &[
        "Luc", "Marie", "Paul", "Anne", "Jean", "Claire", "Hugo", "Lea",
    ];
    const LAST: &[&str] = &[
        "Durand", "Martin", "Bernard", "Petit", "Moreau", "Garcia", "Roux",
    ];
    format!(
        "{} {}",
        FIRST[rng.gen_range(0..FIRST.len())],
        LAST[rng.gen_range(0..LAST.len())]
    )
}

/// Profile of a hospital / medical-folder document.
///
/// ```text
/// hospital
///   patient*            (attribute id)
///     name, ssn, address
///     diagnosis
///       item*           (attribute sensitive="true|false")
///     acts
///       act*            (attribute type)
///         date, physician, report
///     prescriptions
///       prescription*   (drug, dosage)
/// ```
#[derive(Debug, Clone)]
pub struct HospitalProfile {
    /// Number of `patient` elements.
    pub patients: usize,
    /// Diagnosis items per patient.
    pub diagnosis_items: usize,
    /// Medical acts per patient.
    pub acts: usize,
    /// Prescriptions per patient.
    pub prescriptions: usize,
}

impl Default for HospitalProfile {
    fn default() -> Self {
        HospitalProfile {
            patients: 20,
            diagnosis_items: 3,
            acts: 4,
            prescriptions: 2,
        }
    }
}

/// Generates a hospital document.
pub fn hospital(profile: &HospitalProfile, cfg: &GeneratorConfig) -> Document {
    let mut rng = rng_for(cfg, 1);
    let mut doc = Document::new();
    let root = doc.create_root("hospital");
    for p in 0..profile.patients {
        let patient = doc.add_element_with(
            root,
            "patient",
            vec![Attribute::new("id", format!("P{p:05}"))],
        );
        let name = doc.add_element(patient, "name");
        let pname = person_name(&mut rng);
        doc.add_text(name, pname);
        let ssn = doc.add_element(patient, "ssn");
        doc.add_text(ssn, format!("{:09}", rng.gen_range(0..999_999_999u64)));
        let addr = doc.add_element(patient, "address");
        doc.add_text(addr, random_text(&mut rng, cfg.text_len));

        let diagnosis = doc.add_element(patient, "diagnosis");
        for _ in 0..profile.diagnosis_items {
            let item = doc.add_element_with(
                diagnosis,
                "item",
                vec![Attribute::new(
                    "sensitive",
                    if rng.gen_bool(0.3) { "true" } else { "false" },
                )],
            );
            doc.add_text(item, random_text(&mut rng, cfg.text_len));
        }

        let acts = doc.add_element(patient, "acts");
        for _ in 0..profile.acts {
            let act = doc.add_element_with(
                acts,
                "act",
                vec![Attribute::new(
                    "type",
                    ["consultation", "surgery", "radiology"][rng.gen_range(0..3)],
                )],
            );
            let date = doc.add_element(act, "date");
            doc.add_text(date, random_date(&mut rng));
            let phys = doc.add_element(act, "physician");
            doc.add_text(phys, person_name(&mut rng));
            let report = doc.add_element(act, "report");
            doc.add_text(report, random_text(&mut rng, cfg.text_len * 3));
        }

        let prescriptions = doc.add_element(patient, "prescriptions");
        for _ in 0..profile.prescriptions {
            let pr = doc.add_element(prescriptions, "prescription");
            let drug = doc.add_element(pr, "drug");
            doc.add_text(drug, random_text(&mut rng, 10));
            let dosage = doc.add_element(pr, "dosage");
            doc.add_text(dosage, format!("{} mg", rng.gen_range(5..500)));
        }
    }
    doc
}

/// Profile of a community / collaborative-work document (demo application 1).
///
/// ```text
/// community
///   member*              (attribute id)
///     name
///     contact { email, phone }
///     projects
///       project*         (attribute status)
///         title, budget
///         notes { note* }
///     agenda
///       meeting*         (attribute private)
///         date, subject, participants
/// ```
#[derive(Debug, Clone)]
pub struct CommunityProfile {
    /// Number of community members.
    pub members: usize,
    /// Projects per member.
    pub projects: usize,
    /// Notes per project.
    pub notes: usize,
    /// Meetings per member.
    pub meetings: usize,
}

impl Default for CommunityProfile {
    fn default() -> Self {
        CommunityProfile {
            members: 10,
            projects: 3,
            notes: 4,
            meetings: 5,
        }
    }
}

/// Generates a community document.
pub fn community(profile: &CommunityProfile, cfg: &GeneratorConfig) -> Document {
    let mut rng = rng_for(cfg, 2);
    let mut doc = Document::new();
    let root = doc.create_root("community");
    for m in 0..profile.members {
        let member = doc.add_element_with(
            root,
            "member",
            vec![Attribute::new("id", format!("M{m:03}"))],
        );
        let name = doc.add_element(member, "name");
        doc.add_text(name, person_name(&mut rng));
        let contact = doc.add_element(member, "contact");
        let email = doc.add_element(contact, "email");
        doc.add_text(email, format!("user{m}@example.org"));
        let phone = doc.add_element(contact, "phone");
        doc.add_text(
            phone,
            format!("+33 1 39 63 {:02} {:02}", m % 100, (m * 7) % 100),
        );

        let projects = doc.add_element(member, "projects");
        for _ in 0..profile.projects {
            let project = doc.add_element_with(
                projects,
                "project",
                vec![Attribute::new(
                    "status",
                    ["active", "draft", "closed"][rng.gen_range(0..3)],
                )],
            );
            let title = doc.add_element(project, "title");
            doc.add_text(title, random_text(&mut rng, 16));
            let budget = doc.add_element(project, "budget");
            doc.add_text(budget, format!("{}", rng.gen_range(1_000..100_000)));
            let notes = doc.add_element(project, "notes");
            for _ in 0..profile.notes {
                let note = doc.add_element(notes, "note");
                doc.add_text(note, random_text(&mut rng, cfg.text_len * 2));
            }
        }

        let agenda = doc.add_element(member, "agenda");
        for _ in 0..profile.meetings {
            let meeting = doc.add_element_with(
                agenda,
                "meeting",
                vec![Attribute::new(
                    "private",
                    if rng.gen_bool(0.4) { "true" } else { "false" },
                )],
            );
            let date = doc.add_element(meeting, "date");
            doc.add_text(date, random_date(&mut rng));
            let subject = doc.add_element(meeting, "subject");
            doc.add_text(subject, random_text(&mut rng, 20));
            let participants = doc.add_element(meeting, "participants");
            doc.add_text(participants, person_name(&mut rng));
        }
    }
    doc
}

/// Profile of a flat, wide catalog document (worst case for the skip index: a
/// shallow structure whose subtrees are all alike).
#[derive(Debug, Clone)]
pub struct CatalogProfile {
    /// Number of products.
    pub products: usize,
}

impl Default for CatalogProfile {
    fn default() -> Self {
        CatalogProfile { products: 100 }
    }
}

/// Generates a catalog document.
pub fn catalog(profile: &CatalogProfile, cfg: &GeneratorConfig) -> Document {
    let mut rng = rng_for(cfg, 3);
    let mut doc = Document::new();
    let root = doc.create_root("catalog");
    for i in 0..profile.products {
        let product = doc.add_element_with(
            root,
            "product",
            vec![Attribute::new("sku", format!("SKU{i:06}"))],
        );
        let name = doc.add_element(product, "name");
        doc.add_text(name, random_text(&mut rng, 12));
        let price = doc.add_element(product, "price");
        doc.add_text(
            price,
            format!("{}.{:02}", rng.gen_range(1..500), rng.gen_range(0..100)),
        );
        let desc = doc.add_element(product, "description");
        doc.add_text(desc, random_text(&mut rng, cfg.text_len * 2));
        let stock = doc.add_element(product, "stock");
        doc.add_text(stock, format!("{}", rng.gen_range(0..1000)));
    }
    doc
}

/// Profile of a dissemination stream (demo application 2): an append-only
/// sequence of items, each belonging to a channel and carrying a rating — the
/// natural targets of subscriber-specific access rules (e.g. parental control).
#[derive(Debug, Clone)]
pub struct StreamProfile {
    /// Number of items in the stream.
    pub items: usize,
    /// Size of the opaque payload (simulating multimedia content metadata).
    pub payload_len: usize,
    /// Channel names items are drawn from.
    pub channels: Vec<String>,
}

impl Default for StreamProfile {
    fn default() -> Self {
        StreamProfile {
            items: 50,
            payload_len: 256,
            channels: vec![
                "news".into(),
                "sports".into(),
                "finance".into(),
                "movies".into(),
            ],
        }
    }
}

/// Generates a dissemination stream document.
pub fn stream(profile: &StreamProfile, cfg: &GeneratorConfig) -> Document {
    let mut rng = rng_for(cfg, 4);
    let mut doc = Document::new();
    let root = doc.create_root("stream");
    for i in 0..profile.items {
        let channel = &profile.channels[rng.gen_range(0..profile.channels.len())];
        let rating = rng.gen_range(0..=18u32);
        let item = doc.add_element_with(
            root,
            "item",
            vec![
                Attribute::new("seq", format!("{i}")),
                Attribute::new("channel", channel.clone()),
            ],
        );
        let title = doc.add_element(item, "title");
        doc.add_text(title, random_text(&mut rng, 18));
        let rating_el = doc.add_element(item, "rating");
        doc.add_text(rating_el, format!("{rating}"));
        let summary = doc.add_element(item, "summary");
        doc.add_text(summary, random_text(&mut rng, cfg.text_len * 2));
        let payload = doc.add_element(item, "payload");
        doc.add_text(payload, random_text(&mut rng, profile.payload_len));
    }
    doc
}

/// Profile of a random recursive document with a bounded tag vocabulary, used
/// by property tests and by the depth sweeps of experiment E4.
#[derive(Debug, Clone)]
pub struct RandomProfile {
    /// Target number of element nodes (approximate).
    pub elements: usize,
    /// Maximum nesting depth.
    pub max_depth: usize,
    /// Maximum element children per node.
    pub max_fanout: usize,
    /// Tag vocabulary size (tags are `t0`, `t1`, ...).
    pub vocabulary: usize,
    /// Probability that a leaf carries a text node.
    pub text_probability: f64,
}

impl Default for RandomProfile {
    fn default() -> Self {
        RandomProfile {
            elements: 200,
            max_depth: 8,
            max_fanout: 5,
            vocabulary: 12,
            text_probability: 0.7,
        }
    }
}

/// Generates a random recursive document.
pub fn random(profile: &RandomProfile, cfg: &GeneratorConfig) -> Document {
    let mut rng = rng_for(cfg, 5);
    let mut doc = Document::new();
    let root = doc.create_root("root");
    let mut remaining = profile.elements.saturating_sub(1);
    // Frontier of (node, depth) still allowed to receive children.
    let mut frontier: Vec<(NodeId, usize)> = vec![(root, 1)];
    while remaining > 0 && !frontier.is_empty() {
        let idx = rng.gen_range(0..frontier.len());
        let (parent, depth) = frontier[idx];
        if depth >= profile.max_depth {
            frontier.swap_remove(idx);
            continue;
        }
        let fanout = rng.gen_range(1..=profile.max_fanout).min(remaining);
        for _ in 0..fanout {
            let tag = format!("t{}", rng.gen_range(0..profile.vocabulary));
            let child = doc.add_element(parent, &tag);
            if rng.gen_bool(profile.text_probability) {
                doc.add_text(child, random_text(&mut rng, cfg.text_len));
            }
            frontier.push((child, depth + 1));
            remaining -= 1;
            if remaining == 0 {
                break;
            }
        }
        frontier.swap_remove(idx);
    }
    doc
}

/// Generates a document forming a single deep chain `<c1><c2>...<cN>text</cN>...</c1>`,
/// used by the RAM-budget experiment (depth is the only driver of the token
/// stack size in the streaming evaluator).
pub fn deep_chain(depth: usize, cfg: &GeneratorConfig) -> Document {
    let mut rng = rng_for(cfg, 6);
    let mut doc = Document::new();
    let root = doc.create_root("c1");
    let mut cur = root;
    for level in 2..=depth.max(1) {
        cur = doc.add_element(cur, format!("c{level}"));
    }
    doc.add_text(cur, random_text(&mut rng, cfg.text_len));
    doc
}

/// Named generator selector used by the bench harness configuration files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// Medical records (deep, regular, sensitive content).
    Hospital,
    /// Collaborative community document.
    Community,
    /// Flat product catalog.
    Catalog,
    /// Dissemination stream.
    Stream,
}

impl Corpus {
    /// Generates a document of roughly `target_elements` element nodes.
    pub fn generate(self, target_elements: usize, cfg: &GeneratorConfig) -> Document {
        match self {
            // Each patient subtree has ~(5 + items + 4*acts + 1 + 3*presc) elements.
            Corpus::Hospital => {
                let per_patient = 5 + 3 + 4 * 4 + 1 + 3 * 2 + 1;
                hospital(
                    &HospitalProfile {
                        patients: (target_elements / per_patient).max(1),
                        ..HospitalProfile::default()
                    },
                    cfg,
                )
            }
            Corpus::Community => {
                let per_member = 6 + 3 * (4 + 4) + 1 + 5 * 4;
                community(
                    &CommunityProfile {
                        members: (target_elements / per_member).max(1),
                        ..CommunityProfile::default()
                    },
                    cfg,
                )
            }
            Corpus::Catalog => catalog(
                &CatalogProfile {
                    products: (target_elements / 5).max(1),
                },
                cfg,
            ),
            Corpus::Stream => stream(
                &StreamProfile {
                    items: (target_elements / 5).max(1),
                    ..StreamProfile::default()
                },
                cfg,
            ),
        }
    }

    /// All corpora, for sweeps.
    pub fn all() -> [Corpus; 4] {
        [
            Corpus::Hospital,
            Corpus::Community,
            Corpus::Catalog,
            Corpus::Stream,
        ]
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Corpus::Hospital => "hospital",
            Corpus::Community => "community",
            Corpus::Catalog => "catalog",
            Corpus::Stream => "stream",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::is_well_formed;
    use crate::stats::DocStats;

    #[test]
    fn hospital_document_is_well_formed_and_deterministic() {
        let cfg = GeneratorConfig::default();
        let d1 = hospital(&HospitalProfile::default(), &cfg);
        let d2 = hospital(&HospitalProfile::default(), &cfg);
        assert_eq!(d1.to_xml(), d2.to_xml());
        assert!(is_well_formed(&d1.to_events()));
        let stats = DocStats::from_events(&d1.to_events());
        assert!(stats.tag_histogram.contains_key("patient"));
        assert_eq!(stats.tag_histogram["patient"], 20);
        assert!(stats.max_depth >= 4);
    }

    #[test]
    fn different_seed_changes_content_not_structure() {
        let d1 = hospital(&HospitalProfile::default(), &GeneratorConfig::default());
        let d2 = hospital(
            &HospitalProfile::default(),
            &GeneratorConfig {
                seed: 42,
                ..GeneratorConfig::default()
            },
        );
        assert_ne!(d1.to_xml(), d2.to_xml());
        let s1 = DocStats::from_events(&d1.to_events());
        let s2 = DocStats::from_events(&d2.to_events());
        assert_eq!(s1.elements, s2.elements);
        assert_eq!(s1.max_depth, s2.max_depth);
    }

    #[test]
    fn community_catalog_stream_are_well_formed() {
        let cfg = GeneratorConfig::default();
        for events in [
            community(&CommunityProfile::default(), &cfg).to_events(),
            catalog(&CatalogProfile::default(), &cfg).to_events(),
            stream(&StreamProfile::default(), &cfg).to_events(),
        ] {
            assert!(is_well_formed(&events));
            assert!(!events.is_empty());
        }
    }

    #[test]
    fn random_respects_bounds() {
        let profile = RandomProfile {
            elements: 300,
            max_depth: 6,
            max_fanout: 4,
            vocabulary: 5,
            text_probability: 0.5,
        };
        let doc = random(&profile, &GeneratorConfig::default());
        let stats = DocStats::from_events(&doc.to_events());
        assert!(stats.max_depth <= 6);
        assert!(stats.max_fanout <= 4);
        assert!(stats.elements <= 300);
        assert!(stats.distinct_tags <= 6); // vocabulary + the root tag
    }

    #[test]
    fn deep_chain_has_requested_depth() {
        let doc = deep_chain(32, &GeneratorConfig::default());
        let stats = DocStats::from_events(&doc.to_events());
        assert_eq!(stats.max_depth, 32);
        assert_eq!(stats.elements, 32);
        let doc = deep_chain(1, &GeneratorConfig::default());
        assert_eq!(DocStats::from_events(&doc.to_events()).max_depth, 1);
    }

    #[test]
    fn corpus_generate_targets_size() {
        let cfg = GeneratorConfig::default();
        for corpus in Corpus::all() {
            let doc = corpus.generate(2_000, &cfg);
            let stats = DocStats::from_events(&doc.to_events());
            assert!(
                stats.elements > 500,
                "{} produced only {} elements",
                corpus.name(),
                stats.elements
            );
            assert!(is_well_formed(&doc.to_events()));
        }
    }

    #[test]
    fn stream_items_carry_channel_and_rating() {
        let doc = stream(&StreamProfile::default(), &GeneratorConfig::default());
        let root = doc.root().unwrap();
        let items: Vec<_> = doc.element_children(root).collect();
        assert_eq!(items.len(), 50);
        for item in items {
            let attrs = doc.attributes(item);
            assert!(attrs.iter().any(|a| &*a.name == "channel"));
            let kids: Vec<_> = doc
                .element_children(item)
                .filter_map(|c| doc.element_name(c).map(str::to_owned))
                .collect();
            assert!(kids.contains(&"rating".to_owned()));
            assert!(kids.contains(&"payload".to_owned()));
        }
    }
}
