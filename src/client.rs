//! The top-level facade of the workspace: [`Publisher`] and [`Client`].
//!
//! The paper's §3 proxy promises applications "an XML API independent of the
//! underlying protocols (JDBC, APDU)". These two types are that API:
//!
//! * a [`Publisher`] is the trusted side of a community — it owns the master
//!   secrets and the access policy, encrypts documents onto the (untrusted,
//!   sharded) [`DspService`], and keeps the protected per-subject rule blobs
//!   stored there in sync with the policy;
//! * a [`Client`] is one user's terminal + smart card — built by
//!   [`Client::builder`], which wires the simulated PKI, the card hardware
//!   profile and a `DspService` handle, and provisioned against a publisher.
//!
//! Every pull goes through the *same* serving path, whatever the deployment
//! size: a 1-shard service behind a single-user demo and a 16-shard service
//! behind a scheduler fleet serve byte-identical views (pinned by
//! `tests/facade_equivalence.rs`). Applications choose between the full card
//! path ([`Client::authorized_view`], APDUs and all) and the incremental
//! event iterator ([`Client::open_stream`] → [`ViewStream`]).

use sdds_sync::sync::{Arc, Mutex, MutexExt};
use std::collections::BTreeSet;

use sdds_card::CardProfile;
use sdds_core::engine::{EngineConfig, SecureEvaluationSession, DEFAULT_DOC_KEY_ID, RULES_KEY_ID};
use sdds_core::evaluator::EvaluatorConfig;
use sdds_core::rule::{RuleSet, Sign, Subject};
use sdds_core::secdoc::SecureDocumentBuilder;
use sdds_core::session::{KeyProvisioning, ProtectedRules, TrustedServer};
use sdds_core::{AccessPolicy, Query};
use sdds_crypto::SecretKey;
use sdds_dsp::{DspService, ServerStats};
use sdds_obs::ObsSnapshot;
use sdds_proxy::{CardSession, SimulatedPki, Terminal};
use sdds_xml::Document;

use crate::error::SddsError;
use crate::stream::ViewStream;

/// What [`Publisher::publish`] reports back about an upload.
#[derive(Debug, Clone, Copy)]
pub struct PublishReceipt {
    /// Encrypted chunks the document was cut into.
    pub chunks: usize,
    /// Bytes of embedded skip index.
    pub index_bytes: usize,
    /// Upload revision at the DSP (0 for a first upload).
    pub revision: u64,
}

/// Builder for a [`Publisher`].
#[derive(Debug)]
pub struct PublisherBuilder {
    community_secret: Vec<u8>,
    rules: RuleSet,
    shards: usize,
    replicate: Option<usize>,
    chunk_size: Option<usize>,
}

impl PublisherBuilder {
    /// Number of shards of the backing [`DspService`] (default 1 — the
    /// single-tenant layout; a fleet deployment raises this, and nothing else
    /// about the API changes). `0` is rejected by [`PublisherBuilder::build`]
    /// with [`SddsError::Config`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Pins every published document to `copies` serving shards: the service
    /// clones it so reads spread over the copies (hot-document replication —
    /// the E10 hot-document experiment's knob). Clamped to the shard count;
    /// republishing re-replicates the new revision after invalidating the
    /// old clones. Default: no replication.
    pub fn replicate(mut self, copies: usize) -> Self {
        self.replicate = Some(copies);
        self
    }

    /// Initial access policy of the community.
    pub fn rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// Chunk size of published documents (default: the secure-document
    /// builder's default).
    pub fn chunk_size(mut self, bytes: usize) -> Self {
        self.chunk_size = Some(bytes);
        self
    }

    /// Builds the publisher over a fresh service.
    ///
    /// Fails with [`SddsError::Config`] on impossible configurations
    /// (`.shards(0)`, `.replicate(0)`) — the lower-level `ShardedStore::new`
    /// documents a silent clamp for the same input, but an application that
    /// explicitly asked for zero shards almost certainly mis-computed its
    /// deployment size, and the facade says so at build time.
    pub fn build(self) -> Result<Publisher, SddsError> {
        if self.shards == 0 {
            return Err(SddsError::Config(
                "shards must be at least 1 (a zero-shard service cannot store anything)".into(),
            ));
        }
        if self.replicate == Some(0) {
            return Err(SddsError::Config(
                "replicate(0) would serve documents from no shard; use 1 for a single copy".into(),
            ));
        }
        let pki = SimulatedPki::new(&self.community_secret);
        Ok(Publisher {
            server: TrustedServer::new(&self.community_secret, self.rules),
            pki,
            service: Arc::new(DspService::new(self.shards)),
            replicate: self.replicate,
            chunk_size: self.chunk_size,
            known_subjects: Mutex::new(BTreeSet::new()),
        })
    }
}

/// The trusted side of a community: master secrets, access policy, and the
/// handle to the untrusted sharded [`DspService`] the encrypted documents and
/// protected rule blobs live on.
#[derive(Debug)]
pub struct Publisher {
    server: TrustedServer,
    pki: SimulatedPki,
    service: Arc<DspService>,
    /// Serving copies every published document is pinned to (hot-document
    /// replication); `None` leaves documents on their home shard only.
    replicate: Option<usize>,
    chunk_size: Option<usize>,
    /// Subjects that were provisioned at least once (possibly outside the
    /// policy, with an empty rule subset): their blobs are refreshed on every
    /// publish / policy change so a later pull finds them at the DSP.
    known_subjects: Mutex<BTreeSet<String>>,
}

impl Publisher {
    /// Starts building a publisher for the community identified by
    /// `community_secret`.
    pub fn builder(community_secret: &[u8]) -> PublisherBuilder {
        PublisherBuilder {
            community_secret: community_secret.to_vec(),
            rules: RuleSet::new(),
            shards: 1,
            replicate: None,
            chunk_size: None,
        }
    }

    /// Convenience constructor: a 1-shard publisher with an initial policy.
    pub fn new(community_secret: &[u8], rules: RuleSet) -> Self {
        Publisher::builder(community_secret)
            .rules(rules)
            .build()
            // lint: infallible — the builder only errors on an explicit
            // out-of-range shard count, which this path never sets.
            .expect("the default publisher configuration is valid")
    }

    /// The trusted server (master secrets, raw policy access).
    pub fn server(&self) -> &TrustedServer {
        &self.server
    }

    /// The community's simulated PKI.
    pub fn pki(&self) -> &SimulatedPki {
        &self.pki
    }

    /// The shared service handle (clone it into schedulers and clients).
    pub fn service(&self) -> &Arc<DspService> {
        &self.service
    }

    /// Current access policy.
    pub fn rules(&self) -> &RuleSet {
        self.server.rules()
    }

    /// Subjects named in the current policy.
    pub fn subjects(&self) -> Vec<Subject> {
        self.server.rules().subjects()
    }

    /// Merged serving statistics of the service.
    pub fn stats(&self) -> ServerStats {
        self.service.stats()
    }

    /// A point-in-time telemetry snapshot of the shared service: serving
    /// counters and latency histograms per shard, scheduler activity,
    /// card-session traffic and the labelled error tallies. Render it with
    /// [`ObsSnapshot::to_json`] or [`ObsSnapshot::to_prometheus`].
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.service.obs_snapshot()
    }

    /// Every subject whose protected rules must be kept on the DSP: the
    /// policy's subjects plus every subject provisioned so far.
    fn served_subjects(&self) -> Vec<Subject> {
        let mut names: BTreeSet<String> = self
            .server
            .rules()
            .subjects()
            .into_iter()
            .map(|s| s.name().to_owned())
            .collect();
        names.extend(self.known_subjects.lock_np().iter().cloned());
        names.into_iter().map(Subject::new).collect()
    }

    /// Encrypts `document` and uploads it (with the protected rule blobs of
    /// every known subject) to the service. Re-publishing under the same id
    /// replaces the document and bumps its revision — sessions opened on the
    /// previous revision fail with [`SddsError::StaleRevision`] on their
    /// next fetch instead of reading torn state. With
    /// [`PublisherBuilder::replicate`], the uploaded revision is pinned to
    /// that many serving shards.
    pub fn publish(&self, doc_id: &str, document: &Document) -> Result<PublishReceipt, SddsError> {
        let mut builder = SecureDocumentBuilder::new(doc_id, self.server.document_key());
        if let Some(chunk_size) = self.chunk_size {
            builder = builder.chunk_size(chunk_size);
        }
        let (secure, stats) = builder.build_with_stats(document);
        let receipt = PublishReceipt {
            chunks: secure.chunk_count(),
            index_bytes: stats.index_bytes,
            revision: self.service.revision(doc_id).map_or(0, |r| r + 1),
        };
        self.service.put_document(secure);
        for subject in self.served_subjects() {
            self.service.put_rules(
                doc_id,
                subject.name(),
                &self.server.protected_rules_for(&subject),
            )?;
        }
        // Pin only documents that are not replicated yet (whatever put the
        // single copy there): a republish of an already-pinned document is
        // re-replicated by the store itself (invalidate → new revision →
        // re-clone), so pinning again would just redo that work.
        if let Some(copies) = self.replicate {
            if copies > 1 && self.service.replica_shards(doc_id).len() == 1 {
                self.service.pin_replicas(doc_id, copies)?;
            }
        }
        Ok(receipt)
    }

    /// Changes the policy — adds a `<sign, subject, object>` rule — and
    /// refreshes every protected rule blob stored at the DSP. Nothing happens
    /// to the published documents: no re-encryption, no key redistribution.
    pub fn grant(&mut self, subject: &str, sign: Sign, object: &str) -> Result<(), SddsError> {
        self.server.rules_mut().push(sign, subject, object)?;
        self.sync_rules()
    }

    /// Mutable access to the trusted server, e.g. to edit the policy through
    /// [`TrustedServer::rules_mut`] in ways [`Publisher::grant`] does not
    /// cover (rule removal, bulk edits). Call [`Publisher::sync_rules`]
    /// afterwards so the blobs stored at the DSP reflect the new policy.
    pub fn server_mut(&mut self) -> &mut TrustedServer {
        &mut self.server
    }

    /// Re-seals the protected rule blob of every known subject, once per
    /// subject, and stores it for every stored document (called
    /// automatically by [`Publisher::grant`]; call it directly after editing
    /// the policy through [`Publisher::server_mut`]). A subject's blob does
    /// not depend on the document, so every document shares one copy.
    pub fn sync_rules(&self) -> Result<(), SddsError> {
        let blobs: Vec<(Subject, Arc<[u8]>)> = self
            .served_subjects()
            .into_iter()
            .map(|subject| {
                let blob = Arc::from(&self.server.protected_rules_for(&subject));
                (subject, blob)
            })
            .collect();
        for doc_id in self.service.store().document_ids() {
            for (subject, blob) in &blobs {
                self.service
                    .put_rules(&doc_id, subject.name(), Arc::clone(blob))?;
            }
        }
        Ok(())
    }

    /// Registers `subject` as provisioned: uploads its protected rules (the
    /// — possibly empty — subset of the policy that concerns it) for every
    /// document stored on `service` — the service the client will actually
    /// pull from, which may differ from the publisher's own — and remembers
    /// it for future publishes and syncs.
    fn register(&self, subject: &Subject, service: &Arc<DspService>) -> Result<(), SddsError> {
        let newly_known = self
            .known_subjects
            .lock_np()
            .insert(subject.name().to_owned());
        // On the publisher's own service the blobs of already-known subjects
        // are kept current by `publish` and `sync_rules`: nothing to redo.
        // A foreign service is outside that maintenance loop, so it is
        // (re)filled on every provision.
        if Arc::ptr_eq(service, &self.service) && !newly_known {
            return Ok(());
        }
        let blob: Arc<[u8]> = Arc::from(&self.server.protected_rules_for(subject));
        for doc_id in service.store().document_ids() {
            service.put_rules(&doc_id, subject.name(), Arc::clone(&blob))?;
        }
        Ok(())
    }
}

/// Builder for a [`Client`]: subject, card profile, optional query and
/// policy, and (optionally) an explicit service handle.
#[derive(Debug)]
pub struct ClientBuilder {
    subject: Subject,
    profile: CardProfile,
    service: Option<Arc<DspService>>,
    query: Option<String>,
    open_policy: bool,
}

impl ClientBuilder {
    /// Card hardware profile (default: the modern secure element).
    pub fn card_profile(mut self, profile: CardProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Connects to an explicit service handle instead of the publisher's own
    /// (e.g. a replica service holding the same community's documents). The
    /// subject's protected rule blobs are uploaded to **that** service at
    /// provision time, since that is where its pull sessions will fetch them;
    /// unlike the publisher's own service, a foreign one is not refreshed by
    /// later [`Publisher::publish`] / [`Publisher::grant`] calls — re-provision
    /// after a policy change.
    pub fn service(mut self, service: Arc<DspService>) -> Self {
        self.service = Some(service);
        self
    }

    /// Registers a query: views are intersected with it (§2.1).
    pub fn query(mut self, query: impl Into<String>) -> Self {
        self.query = Some(query.into());
        self
    }

    /// Selects the open-world conflict policy (dissemination scenarios where
    /// only prohibitions filter content). Default: the paper's closed world.
    pub fn open_policy(mut self, open: bool) -> Self {
        self.open_policy = open;
        self
    }

    /// Provisions the client against `publisher`: derives the card transport
    /// key from the community PKI, obtains the wrapped document and rule keys
    /// and a protected-rules snapshot, and registers the subject so its rule
    /// blobs are stored at the DSP (pull sessions fetch them from there).
    pub fn provision(self, publisher: &Publisher) -> Result<Client, SddsError> {
        if let Some(query) = &self.query {
            // Fail at build time, not at first use.
            Query::parse(query)?;
        }
        let subject = self.subject;
        let service = self
            .service
            .unwrap_or_else(|| Arc::clone(publisher.service()));
        publisher.register(&subject, &service)?;
        let transport_key = publisher.pki().card_transport_key(&subject);
        Ok(Client {
            doc_key: publisher
                .server()
                .provision_document_key(&subject, DEFAULT_DOC_KEY_ID),
            rules_key: publisher
                .server()
                .provision_rules_key(&subject, RULES_KEY_ID),
            rules_blob: publisher.server().protected_rules_for(&subject).encode(),
            service,
            subject,
            transport_key,
            profile: self.profile,
            query: self.query,
            open_policy: self.open_policy,
        })
    }
}

/// One user's terminal + smart card, provisioned for a community.
///
/// A client is cheap to keep around: it holds the provisioning material (the
/// PKI transport key and the wrapped keys), not a live card session. Each
/// access issues a fresh personalised card, exactly like the demo terminals
/// of the paper; the cost ledgers of one access are read off the session that
/// served it ([`Client::connect`] + [`CardSession::run`]).
pub struct Client {
    subject: Subject,
    transport_key: SecretKey,
    profile: CardProfile,
    service: Arc<DspService>,
    doc_key: KeyProvisioning,
    rules_key: KeyProvisioning,
    rules_blob: Vec<u8>,
    query: Option<String>,
    open_policy: bool,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("subject", &self.subject)
            .field("query", &self.query)
            .field("open_policy", &self.open_policy)
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Starts building a client for `subject`.
    pub fn builder(subject: impl Into<String>) -> ClientBuilder {
        ClientBuilder {
            subject: Subject::new(subject),
            profile: CardProfile::modern_secure_element(),
            service: None,
            query: None,
            open_policy: false,
        }
    }

    /// The subject this client's card is personalised for.
    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// The service handle this client pulls from.
    pub fn service(&self) -> &Arc<DspService> {
        &self.service
    }

    /// A point-in-time telemetry snapshot of the service this client pulls
    /// from (see [`Publisher::obs_snapshot`]).
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.service.obs_snapshot()
    }

    /// The card hardware profile of this client.
    pub fn card_profile(&self) -> CardProfile {
        self.profile
    }

    /// Issues and provisions a fresh terminal + card: keys installed, query
    /// and policy registered. Rules are **not** installed — a pull session
    /// fetches them from the DSP at session start (the paper stores them
    /// there precisely so any terminal can serve any card).
    pub fn terminal(&self) -> Result<Terminal, SddsError> {
        let mut terminal = Terminal::issue_card(
            self.subject.name(),
            self.transport_key.clone(),
            self.profile,
        );
        terminal.set_open_policy(self.open_policy);
        terminal.install_key(&self.doc_key)?;
        terminal.install_key(&self.rules_key)?;
        if let Some(query) = &self.query {
            terminal.set_query(query)?;
        }
        Ok(terminal)
    }

    /// Like [`Client::terminal`], but additionally installs the
    /// provision-time protected-rules snapshot on the card. This is the
    /// push-mode configuration (selective dissemination): items arrive over a
    /// broadcast channel, there is no DSP in the loop, so the card must
    /// already hold its rules.
    pub fn terminal_with_rules(&self) -> Result<Terminal, SddsError> {
        let mut terminal = self.terminal()?;
        terminal.install_rules(&self.rules_blob)?;
        Ok(terminal)
    }

    /// Connects a fresh card to the shared service for one document pull.
    /// Drive the session yourself ([`CardSession::run`]), or submit it to a
    /// [`sdds_dsp::service::SessionScheduler`] along with other clients'.
    pub fn connect(&self, doc_id: impl Into<String>) -> Result<CardSession, SddsError> {
        Ok(self
            .terminal()?
            .connect_shared(Arc::clone(&self.service), doc_id))
    }

    /// Pulls `doc_id` through the full card path (Figure 1: header → chunk
    /// requests → APDUs → reassembled view) and returns the authorized XML
    /// view.
    pub fn authorized_view(&self, doc_id: &str) -> Result<String, SddsError> {
        Ok(self.connect(doc_id)?.run_to_completion()?)
    }

    /// Opens an incremental pull session: a [`ViewStream`] iterating over the
    /// authorized [`sdds_xml::Event`]s of `doc_id`, fetching encrypted chunks
    /// from the service on demand (skipped subtrees are never transferred).
    ///
    /// The SOE runs in-process here — same engine, same keys, same protected
    /// rules (fetched from the DSP and authenticated like the card does),
    /// same RAM budget — so the stream is byte-identical to the card path,
    /// without APDU framing. Use it when the application wants events as they
    /// decrypt instead of one final `String`.
    pub fn open_stream(&self, doc_id: &str) -> Result<ViewStream, SddsError> {
        let doc_key = self.doc_key.unwrap_key(&self.transport_key)?;
        let rules_key = self.rules_key.unwrap_key(&self.transport_key)?;
        // The header fetch pins the upload revision; every later fetch of
        // this stream carries it, so a mid-stream republish is a typed
        // `SddsError::StaleRevision`, never a tag mismatch.
        let (header, revision) = self.service.fetch_header_pinned(doc_id)?;
        let blob = self
            .service
            .fetch_rules_pinned(doc_id, self.subject.name(), revision)?;
        let rules = ProtectedRules::decode(&blob)?.open(&rules_key, None)?;

        let mut evaluator = EvaluatorConfig::new(rules, self.subject.name());
        if self.open_policy {
            evaluator = evaluator.with_policy(AccessPolicy::open());
        }
        if let Some(query) = &self.query {
            evaluator = evaluator.with_query(Query::parse(query)?);
        }
        let config = EngineConfig::new(evaluator).with_ram_budget(self.profile.ram_bytes);
        let session = SecureEvaluationSession::open(header, doc_key, config)?;
        Ok(ViewStream::new(
            Arc::clone(&self.service),
            doc_id.to_owned(),
            revision,
            session,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_core::baseline::authorized_view_oracle;
    use sdds_xml::writer;

    fn rules() -> RuleSet {
        RuleSet::parse(
            "+, doctor, //patient\n-, doctor, //patient/ssn\n+, secretary, //patient/name",
        )
        .unwrap()
    }

    fn hospital() -> Document {
        sdds_xml::generator::hospital(
            &sdds_xml::generator::HospitalProfile {
                patients: 3,
                ..sdds_xml::generator::HospitalProfile::default()
            },
            &sdds_xml::generator::GeneratorConfig::default(),
        )
    }

    #[test]
    fn publish_provision_and_pull_through_the_facade() {
        let publisher = Publisher::new(b"hospital-2005", rules());
        let doc = hospital();
        let receipt = publisher.publish("folders", &doc).unwrap();
        assert!(receipt.chunks > 0);
        assert_eq!(receipt.revision, 0);

        let client = Client::builder("doctor").provision(&publisher).unwrap();
        let view = client.authorized_view("folders").unwrap();
        let oracle = authorized_view_oracle(
            &doc,
            &rules(),
            &Subject::new("doctor"),
            None,
            &AccessPolicy::paper(),
        );
        assert_eq!(view, writer::to_string(&oracle));
        assert!(view.contains("<patient"));
        assert!(!view.contains("<ssn>"));
        // The service counted the rules blob and the chunks.
        let stats = publisher.stats();
        assert!(stats.rule_blobs_served >= 1);
        assert!(stats.chunks_served > 0);
    }

    #[test]
    fn out_of_policy_subjects_get_an_empty_view_not_an_error() {
        let publisher = Publisher::new(b"hospital-2005", rules());
        publisher.publish("folders", &hospital()).unwrap();
        let outsider = Client::builder("outsider").provision(&publisher).unwrap();
        assert_eq!(outsider.authorized_view("folders").unwrap(), "");
    }

    #[test]
    fn republish_bumps_the_revision_and_keeps_serving() {
        let publisher = Publisher::new(b"hospital-2005", rules());
        let doc = hospital();
        assert_eq!(publisher.publish("folders", &doc).unwrap().revision, 0);
        assert_eq!(publisher.publish("folders", &doc).unwrap().revision, 1);
        assert_eq!(publisher.service().revision("folders"), Some(1));
        let client = Client::builder("doctor").provision(&publisher).unwrap();
        assert!(!client.authorized_view("folders").unwrap().is_empty());
    }

    #[test]
    fn grants_reach_already_provisioned_subjects_via_the_dsp() {
        let mut publisher = Publisher::new(b"hospital-2005", rules());
        publisher.publish("folders", &hospital()).unwrap();
        let nurse = Client::builder("nurse").provision(&publisher).unwrap();
        assert_eq!(nurse.authorized_view("folders").unwrap(), "");
        // The grant re-syncs the protected blobs at the DSP; the very same
        // client (no re-provisioning) picks the new rules up on its next
        // pull, because pull sessions fetch rules from the DSP.
        publisher
            .grant("nurse", Sign::Permit, "//patient/name")
            .unwrap();
        let view = nurse.authorized_view("folders").unwrap();
        assert!(view.contains("<name>"));
        // And the stored document was never touched.
        assert_eq!(publisher.service().revision("folders"), Some(0));
    }

    #[test]
    fn a_grant_seals_each_subjects_blob_once_for_every_document() {
        let mut publisher = Publisher::new(b"hospital-2005", rules());
        let doc = hospital();
        let doc_ids = ["folders", "archive", "ward"];
        for doc_id in doc_ids {
            publisher.publish(doc_id, &doc).unwrap();
        }
        // A provisioned subject outside the policy is served too.
        Client::builder("nurse").provision(&publisher).unwrap();
        publisher
            .grant("nurse", Sign::Permit, "//patient/name")
            .unwrap();
        let server = publisher.server();
        let version = server.rules().version();
        for subject in ["doctor", "secretary", "nurse"].map(Subject::new) {
            let expected = server.protected_rules_for(&subject).encode();
            let mut subset = server.rules().subset_for(&subject);
            subset.set_version(version);
            let served: Vec<Arc<[u8]>> = doc_ids
                .iter()
                .map(|doc_id| {
                    publisher
                        .service()
                        .fetch_rules(doc_id, subject.name())
                        .unwrap()
                })
                .collect();
            for blob in &served {
                assert_eq!(blob[..], expected[..], "{}", subject.name());
                assert!(Arc::ptr_eq(blob, &served[0]), "sealed once, shared");
                let opened = ProtectedRules::decode(blob)
                    .unwrap()
                    .open(&server.rules_key(), Some(version))
                    .unwrap();
                assert_eq!(opened, subset);
            }
        }
    }

    #[test]
    fn explicit_service_handles_get_the_subjects_rule_blobs() {
        // A replica service of the same community (same secret, hence same
        // document and sealing keys) holds the document but not the doctor's
        // rule blob — provisioning with an explicit `.service(...)` must put
        // the blob where the client will actually pull from.
        let primary = Publisher::new(b"hospital-2005", rules());
        let doc = hospital();
        primary.publish("folders", &doc).unwrap();
        let replica = Publisher::builder(b"hospital-2005").build().unwrap(); // empty policy
        replica.publish("folders", &doc).unwrap();

        let client = Client::builder("doctor")
            .service(Arc::clone(replica.service()))
            .provision(&primary)
            .unwrap();
        let view = client.authorized_view("folders").unwrap();
        assert!(view.contains("<patient"));
        assert!(!view.contains("<ssn>"));
        // The pull really happened on the replica, not on the primary.
        assert!(replica.stats().chunks_served > 0);
        assert_eq!(primary.stats().chunks_served, 0);
    }

    #[test]
    fn queries_and_bad_queries_are_handled_at_build_time() {
        let publisher = Publisher::new(b"hospital-2005", rules());
        publisher.publish("folders", &hospital()).unwrap();
        assert!(Client::builder("doctor")
            .query("//patient[")
            .provision(&publisher)
            .is_err());
        let client = Client::builder("doctor")
            .query("//patient/name")
            .provision(&publisher)
            .unwrap();
        let view = client.authorized_view("folders").unwrap();
        assert!(view.contains("<name>"));
        assert!(!view.contains("<report>"));
    }
}
