//! Demonstration application 1: collaborative work within a community.
//!
//! "The first application deals with collaborative works among a community of
//! users" (§3). A community (family, friends, research team) shares documents
//! through an untrusted DSP; every member holds a smart card personalised for
//! them; the sharing policy is user-specific and changes over time — which is
//! exactly what static encryption schemes handle poorly (§1) and what the SOE
//! approach makes cheap: a policy change is just a new protected rule set.
//!
//! The workspace is a thin scenario layer over the facade: one
//! [`Publisher`] for the community, one [`Client`] per member access, and the
//! shared sharded service underneath — the very same serving path the
//! multi-client scheduler of E10 exercises.

use sdds_card::{CardProfile, CostModel, LatencyBreakdown};
use sdds_core::rule::{RuleSet, Sign, Subject};
use sdds_xml::Document;

use crate::client::{Client, Publisher};
use crate::error::SddsError;

/// Per-member outcome of one access to the shared document.
#[derive(Debug, Clone)]
pub struct MemberAccess {
    /// Member name.
    pub member: String,
    /// Authorized view delivered by the member's card.
    pub view: String,
    /// Bytes served by the DSP for this access (header, chunks, rule blob).
    pub bytes_from_dsp: usize,
    /// Simulated latency of the access on the e-gate cost model.
    pub latency: LatencyBreakdown,
}

/// A collaborative workspace: one community document, one trusted rule
/// issuer, one shared DSP service, one card per member.
pub struct CollaborativeWorkspace {
    publisher: Publisher,
    doc_id: String,
    card_profile: CardProfile,
}

impl CollaborativeWorkspace {
    /// Creates a workspace: publishes `document` (encrypted) on a fresh
    /// service under the community's document key and installs the initial
    /// policy.
    pub fn new(
        community_secret: &[u8],
        doc_id: &str,
        document: &Document,
        initial_rules: RuleSet,
        card_profile: CardProfile,
    ) -> Result<Self, SddsError> {
        let publisher = Publisher::builder(community_secret)
            .rules(initial_rules)
            .build()?;
        publisher.publish(doc_id, document)?;
        Ok(CollaborativeWorkspace {
            publisher,
            doc_id: doc_id.to_owned(),
            card_profile,
        })
    }

    /// The community's publisher (policy, service handle, statistics).
    pub fn publisher(&self) -> &Publisher {
        &self.publisher
    }

    /// Members named in the current policy.
    pub fn members(&self) -> Vec<Subject> {
        self.publisher.subjects()
    }

    /// Changes the policy: adds a rule for `member` and re-syncs the
    /// protected blobs at the DSP. Nothing happens to the stored document —
    /// no re-encryption, no key redistribution.
    pub fn grant(&mut self, member: &str, sign: Sign, object: &str) -> Result<(), SddsError> {
        self.publisher.grant(member, sign, object)
    }

    /// One member accesses the shared document (optionally through a query).
    pub fn access(&self, member: &str, query: Option<&str>) -> Result<MemberAccess, SddsError> {
        let mut builder = Client::builder(member).card_profile(self.card_profile);
        if let Some(q) = query {
            builder = builder.query(q);
        }
        let client = builder.provision(&self.publisher)?;
        self.publisher.service().reset_stats();
        let mut session = client.connect(&self.doc_id)?;
        let view = session.run()?.to_owned();
        Ok(MemberAccess {
            member: member.to_owned(),
            view,
            bytes_from_dsp: self.publisher.stats().bytes_served,
            latency: session.terminal().latency(&CostModel::egate()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_xml::generator::{self, CommunityProfile, GeneratorConfig};

    fn workspace() -> CollaborativeWorkspace {
        let doc = generator::community(
            &CommunityProfile {
                members: 3,
                ..CommunityProfile::default()
            },
            &GeneratorConfig::default(),
        );
        let rules = RuleSet::parse(
            "+, alice, /community\n\
             -, alice, //budget\n\
             +, bob, //member/name\n\
             +, bob, //project/title",
        )
        .unwrap();
        CollaborativeWorkspace::new(
            b"research-team",
            "team-doc",
            &doc,
            rules,
            CardProfile::modern_secure_element(),
        )
        .unwrap()
    }

    #[test]
    fn members_see_their_own_views() {
        let ws = workspace();
        assert_eq!(ws.members().len(), 2);
        let alice = ws.access("alice", None).unwrap();
        assert!(alice.view.contains("<project"));
        assert!(!alice.view.contains("<budget>"));
        assert!(alice.bytes_from_dsp > 0);
        assert!(alice.latency.total().as_secs_f64() > 0.0);

        let bob = ws.access("bob", None).unwrap();
        assert!(bob.view.contains("<title>"));
        assert!(!bob.view.contains("<note>"));
        assert!(bob.view.len() < alice.view.len());

        // An outsider gets an empty view.
        let eve = ws.access("eve", None).unwrap();
        assert!(eve.view.is_empty());
    }

    #[test]
    fn policy_changes_take_effect_without_touching_the_document() {
        let mut ws = workspace();
        let stored_before = ws.publisher().service().store().stored_bytes();
        let before = ws.access("bob", None).unwrap();
        assert!(!before.view.contains("<budget>"));

        ws.grant("bob", Sign::Permit, "//project/budget").unwrap();
        let after = ws.access("bob", None).unwrap();
        assert!(after.view.contains("<budget>"));
        // The encrypted document at the DSP did not change at all.
        assert_eq!(
            ws.publisher().service().store().stored_bytes(),
            stored_before
        );
        assert_eq!(ws.publisher().service().revision("team-doc"), Some(0));
    }

    #[test]
    fn queries_restrict_member_views() {
        let ws = workspace();
        let access = ws.access("alice", Some("//member/name")).unwrap();
        assert!(access.view.contains("<name>"));
        assert!(!access.view.contains("<project"));
    }
}
