//! The SOE engine: fetch → integrity-check → decrypt → parse → evaluate,
//! under the card's constraints.
//!
//! Three layers are provided:
//!
//! * [`SecureEvaluationSession`] — the incremental state machine that consumes
//!   encrypted chunks one at a time, drives the [`TokenReader`], asks for the
//!   *next chunk it actually needs* (which is how skipping translates into
//!   fewer transferred bytes), feeds the streaming evaluator and exposes the
//!   authorized events. The reader decrypts a verified chunk on demand, a
//!   keystream block ahead of the token it decodes, so the skipped bytes of
//!   a fetched chunk are never decrypted. It is transport-agnostic: tests
//!   and benches drive it with [`run_local`].
//! * [`Soe`] — the card-resident state of one subject around that session:
//!   the unwrapped keys, the authenticated rules (never older than the
//!   installed ones), the query and the policy; each session runs under the
//!   RAM budget of the hardware it is opened on. It is the one SOE of the
//!   workspace: the card and the terminal's in-process SOE both drive one.
//! * [`AccessControlApplet`] — the APDU codec of a [`Soe`], implementing
//!   [`sdds_card::Applet`], i.e. what is actually "installed on the card" in
//!   the demonstrator architecture (Figure 3): key provisioning, rule refresh,
//!   query registration, session management, chunk push and output retrieval.

use std::sync::Arc;

use sdds_card::apdu::{ins, Apdu, ApduResponse, StatusWord};
use sdds_card::{Applet, CardError, CostLedger, SmartCard};
use sdds_crypto::{Aes128, CryptoError, PolyAesKey, SecretKey};
use sdds_xml::{Event, TagDict};
use sdds_xpath::tagset::PathSignature;

use crate::assembler::ViewSink;
use crate::conflict::{AccessPolicy, Decision};
use crate::error::CoreError;
use crate::evaluator::{EvaluatorConfig, EvaluatorStats, StreamingEvaluator};
use crate::query::Query;
use crate::rule::{RuleSet, Sign, Subject};
use crate::secdoc::{
    decrypt_chunk, document_cipher, integrity_key, verify_chunk, verify_header, ChunkKeystream,
    ChunkTag, DocumentHeader, SecureDocument, TAG_LEN,
};
use crate::session::{KeyProvisioning, ProtectedRules};
use crate::skipindex::decode::{ReadResult, TokenEvent, TokenReader};
use sdds_wire::WireError;

/// Configuration of a secure evaluation session.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Evaluator configuration (rules, subject, query, policy).
    pub evaluator: EvaluatorConfig,
    /// Honour subtree summaries and skip irrelevant subtrees. Disabling this
    /// is the *no skip index* baseline of experiment E2.
    pub use_skip_index: bool,
    /// Secure working-memory budget enforced on the session (`None` in the
    /// unconstrained test profile). The e-gate applet budget is 1024 bytes.
    pub ram_budget: Option<usize>,
}

impl EngineConfig {
    /// Creates a configuration with the skip index enabled and no RAM budget.
    pub fn new(evaluator: EvaluatorConfig) -> Self {
        EngineConfig {
            evaluator,
            use_skip_index: true,
            ram_budget: None,
        }
    }

    /// Disables the skip index.
    pub fn without_skip_index(mut self) -> Self {
        self.use_skip_index = false;
        self
    }

    /// Sets the RAM budget.
    pub fn with_ram_budget(mut self, bytes: usize) -> Self {
        self.ram_budget = Some(bytes);
        self
    }
}

/// What the session needs next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRequest {
    /// The ciphertext of this chunk (with its tag).
    NeedChunk(u32),
    /// The document is fully processed.
    Done,
}

/// Statistics of a finished (or running) session.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Cost counters: bytes transferred, hashed (every fetched byte),
    /// decrypted (the keystream bytes actually run: the dictionary chunks
    /// whole, then what the reader decoded), skipped, and events.
    pub ledger: CostLedger,
    /// Evaluator statistics (available after the document ends).
    pub evaluator: Option<EvaluatorStats>,
    /// Subtrees skipped thanks to the index.
    pub skipped_subtrees: usize,
    /// Chunks actually supplied to the card.
    pub chunks_fetched: usize,
    /// Chunks never requested because they fell entirely inside skips.
    pub chunks_skipped: usize,
    /// Peak secure-RAM footprint observed (evaluator + reader window).
    pub peak_ram_bytes: usize,
}

/// The incremental SOE session.
pub struct SecureEvaluationSession {
    header: DocumentHeader,
    /// The document's chunk cipher, scheduled once at open; the raw key is
    /// not kept past the header check.
    cipher: Aes128,
    /// The document's chunk-tag key (two Poly1305 lanes and their AES
    /// keys), scheduled once at open next to the cipher.
    integrity: PolyAesKey,
    config: EngineConfig,
    evaluator: Option<StreamingEvaluator>,
    reader: Option<TokenReader>,
    /// Accumulates the first plaintext bytes until the dictionary is complete.
    dict_buf: Vec<u8>,
    /// `(sign, signature)` per installed rule, in engine order; built when the
    /// dictionary becomes available.
    rule_signatures: Vec<(Sign, PathSignature)>,
    query_signature: Option<PathSignature>,
    /// Authorized events not yet taken by the driver — the session's one
    /// output channel.
    output: Vec<Event>,
    stats: SessionStats,
    next_chunk: u32,
    last_supplied_chunk: Option<u32>,
    done: bool,
    /// Skip decisions checked against the allocating oracle.
    #[cfg(test)]
    skip_checks: usize,
}

impl std::fmt::Debug for SecureEvaluationSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureEvaluationSession")
            .field("doc_id", &self.header.doc_id)
            .field("next_chunk", &self.next_chunk)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl SecureEvaluationSession {
    /// Opens a session: verifies the document header under `key`, schedules
    /// the chunk cipher and the chunk-tag key, and prepares the evaluator.
    pub fn open(
        header: DocumentHeader,
        key: SecretKey,
        config: EngineConfig,
    ) -> Result<Self, CoreError> {
        let keys = key.deriver();
        verify_header(&header, &keys)?;
        let evaluator = StreamingEvaluator::new(&config.evaluator)?;
        Ok(SecureEvaluationSession {
            header,
            cipher: document_cipher(&keys),
            integrity: integrity_key(&keys),
            config,
            evaluator: Some(evaluator),
            reader: None,
            dict_buf: Vec::new(),
            rule_signatures: Vec::new(),
            query_signature: None,
            output: Vec::new(),
            stats: SessionStats::default(),
            next_chunk: 0,
            last_supplied_chunk: None,
            done: false,
            #[cfg(test)]
            skip_checks: 0,
        })
    }

    /// Document header of the session.
    pub fn header(&self) -> &DocumentHeader {
        &self.header
    }

    /// What the session needs next.
    pub fn next_request(&self) -> SessionRequest {
        if self.done {
            SessionRequest::Done
        } else {
            SessionRequest::NeedChunk(self.next_chunk)
        }
    }

    /// Running statistics.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// True once the whole document has been processed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Takes the authorized events produced so far. A driver that drains
    /// the session after every chunk should prefer
    /// [`SecureEvaluationSession::exchange_chunk`], which keeps the buffers.
    pub fn take_output(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.output)
    }

    /// Accounts one chunk transfer on the session ledger (`wire_bytes` served
    /// to the SOE, `produced_bytes` of authorized output shipped back) — the
    /// channel-side counterpart of [`SecureEvaluationSession::supply_chunk`].
    pub fn record_exchange(&mut self, wire_bytes: usize, produced_bytes: usize) {
        self.stats
            .ledger
            .channel
            .record_exchange(wire_bytes, produced_bytes);
    }

    /// Serves one chunk request as one channel exchange: supplies the chunk
    /// and its tag, hands the events it released over in `buffer` and
    /// accounts the exchange on the session ledger. Returns its `(wire,
    /// produced)` bytes: the chunk and its tag in, the serialized events out.
    ///
    /// `buffer`'s old allocation (emptied) is kept for the next chunk's
    /// events: a driver that alternates one buffer with the session's never
    /// regrows either.
    pub fn exchange_chunk(
        &mut self,
        index: u32,
        ciphertext: &[u8],
        tag: &ChunkTag,
        buffer: &mut Vec<Event>,
    ) -> Result<(usize, usize), CoreError> {
        self.supply_chunk(index, ciphertext, tag)?;
        buffer.clear();
        std::mem::swap(&mut self.output, buffer);
        let wire = ciphertext.len() + tag.encoded_len();
        let produced = buffer.iter().map(Event::serialized_len).sum();
        self.record_exchange(wire, produced);
        Ok((wire, produced))
    }

    /// Finishes the session and returns the final statistics.
    pub fn finish(mut self) -> Result<(Vec<Event>, SessionStats), CoreError> {
        if !self.done {
            return Err(CoreError::BadState {
                message: "the document has not been fully processed".into(),
            });
        }
        let output = std::mem::take(&mut self.output);
        Ok((output, self.stats))
    }

    /// Current secure-RAM footprint: the reader window, the evaluator's
    /// running counters and the dictionary buffer, each read in O(1).
    fn current_ram(&self) -> usize {
        self.ram_with(
            self.evaluator
                .as_ref()
                .map(StreamingEvaluator::ram_bytes)
                .unwrap_or(0),
        )
    }

    /// [`Self::current_ram`] with the evaluator's share recounted from
    /// scratch: the oracle the running counters are tested against.
    #[cfg(test)]
    fn recount_ram(&self) -> usize {
        self.ram_with(
            self.evaluator
                .as_ref()
                .map(StreamingEvaluator::recount_ram_bytes)
                .unwrap_or(0),
        )
    }

    fn ram_with(&self, evaluator: usize) -> usize {
        let reader = self
            .reader
            .as_ref()
            .map(TokenReader::window_bytes)
            .unwrap_or(0);
        reader + evaluator + self.dict_buf.len()
    }

    /// Samples the footprint into the peak and enforces the budget on the
    /// same sample, so a session that succeeds never peaked over its budget.
    /// Runs after every event and at every chunk end.
    fn sample_ram(&mut self) -> Result<(), CoreError> {
        let current = self.current_ram();
        #[cfg(test)]
        assert_eq!(current, self.recount_ram(), "running RAM counters drifted");
        self.stats.peak_ram_bytes = self.stats.peak_ram_bytes.max(current);
        if let Some(budget) = self.config.ram_budget {
            if current > budget {
                return Err(CardError::RamExceeded {
                    requested: current,
                    in_use: current,
                    budget,
                }
                .into());
            }
        }
        Ok(())
    }

    /// Supplies one encrypted chunk with its tag. Returns the number of
    /// authorized events now waiting in
    /// [`SecureEvaluationSession::take_output`].
    pub fn supply_chunk(
        &mut self,
        index: u32,
        ciphertext: &[u8],
        tag: &ChunkTag,
    ) -> Result<usize, CoreError> {
        let mut output = std::mem::take(&mut self.output);
        let supplied = self.supply_chunk_into(index, ciphertext, tag, &mut output);
        self.output = output;
        supplied.map(|_| self.output.len())
    }

    /// [`SecureEvaluationSession::supply_chunk`], delivering the authorized
    /// events the chunk releases to `out` instead of the session's output
    /// channel, borrowed from the decrypted window where they were decoded.
    /// Returns how many events it delivered.
    pub fn supply_chunk_into(
        &mut self,
        index: u32,
        ciphertext: &[u8],
        tag: &ChunkTag,
        out: &mut impl ViewSink,
    ) -> Result<usize, CoreError> {
        if self.done {
            return Err(CoreError::BadState {
                message: "session already finished".into(),
            });
        }
        if index != self.next_chunk {
            return Err(CoreError::BadState {
                message: format!(
                    "expected chunk {} but received chunk {index}",
                    self.next_chunk
                ),
            });
        }
        if self.last_supplied_chunk == Some(index) {
            return Err(CoreError::BadState {
                message: format!("chunk {index} supplied twice"),
            });
        }

        // 1. Integrity: the tag must bind this ciphertext to this document
        //    build, this position and the authenticated chunk count. Nothing
        //    of a chunk enters the session before its tag checks.
        verify_chunk(&self.integrity, &self.header, index, ciphertext, tag)?;
        self.stats.ledger.record_hash(ciphertext.len());
        self.stats.chunks_fetched += 1;
        self.last_supplied_chunk = Some(index);
        let chunk_start = u64::from(index) * u64::from(self.header.chunk_size);

        // 2. Hand the verified ciphertext to the reader, which deciphers it
        //    on demand as it decodes (a skip leaves the rest ciphertext); the
        //    chunks holding the dictionary are decrypted whole into its
        //    buffer.
        if let Some(reader) = self.reader.as_mut() {
            reader.supply_ciphertext(chunk_start, ciphertext)?;
        } else {
            let at = self.dict_buf.len();
            self.dict_buf.extend_from_slice(ciphertext);
            decrypt_chunk(&self.cipher, &self.header, index, &mut self.dict_buf[at..]);
            self.stats.ledger.record_decrypt(ciphertext.len());
            if (self.dict_buf.len() as u64) < self.header.tokens_start {
                self.next_chunk += 1;
                self.sample_ram()?;
                return Ok(0);
            }
            let dict_bytes = &self.dict_buf[..self.header.tokens_start as usize];
            let (dict, _) = TagDict::decode(dict_bytes).ok_or_else(|| CoreError::BadDocument {
                message: "cannot decode the tag dictionary".into(),
            })?;
            self.build_signatures(&dict);
            let mut reader = TokenReader::new(
                dict,
                self.header.tokens_start,
                self.header.plaintext_len,
                self.header.recursive_bitmaps,
            );
            reader.supply(
                self.header.tokens_start,
                &self.dict_buf[self.header.tokens_start as usize..],
            )?;
            self.dict_buf.clear();
            self.reader = Some(reader);
        }

        // 3. Pump the reader, then book the keystream bytes it ran, failed
        //    or not.
        let before = self.events_out();
        let pumped = self.pump(out);
        if let Some(reader) = self.reader.as_mut() {
            self.stats.ledger.record_decrypt(reader.take_revealed());
        }
        pumped?;
        self.sample_ram()?;
        Ok(self.events_out() - before)
    }

    /// Authorized events delivered so far.
    fn events_out(&self) -> usize {
        match (&self.evaluator, &self.stats.evaluator) {
            (Some(evaluator), _) => evaluator.events_out(),
            (None, Some(stats)) => stats.events_out,
            (None, None) => 0,
        }
    }

    /// Builds, for every installed rule and for the query, the tag-set
    /// satisfiability signature used by the skip decision.
    fn build_signatures(&mut self, dict: &TagDict) {
        let config = &self.config.evaluator;
        self.rule_signatures = config
            .rules
            .for_subject(&config.subject)
            .map(|r| (r.sign, PathSignature::build(&r.object, dict)))
            .collect();
        self.query_signature = config
            .query
            .as_ref()
            .map(|q| PathSignature::build(&q.path, dict));
    }

    /// Runs the reader until it needs the next chunk or the document ends,
    /// moving every decoded event through the evaluator and delivering the
    /// authorized ones to `out`.
    fn pump(&mut self, out: &mut impl ViewSink) -> Result<(), CoreError> {
        loop {
            let result = self
                .reader
                .as_mut()
                // lint: infallible — `pump` is only reached from `step`,
                // which bails out earlier when the reader is finished.
                .expect("pump requires a reader")
                .next_token_with(&ChunkKeystream::new(&self.cipher, &self.header))?;
            match result {
                ReadResult::Token(TokenEvent::Event(event)) => {
                    let evaluator = self.evaluator.as_mut().ok_or_else(|| CoreError::BadState {
                        message: "event received after the evaluator finished".into(),
                    })?;
                    self.stats.ledger.record_events(1);
                    evaluator.push(event, out);
                    self.sample_ram()?;
                }
                ReadResult::Token(TokenEvent::Summary { content_len }) => {
                    let skip = self.config.use_skip_index && self.can_skip();
                    #[cfg(test)]
                    if self.config.use_skip_index {
                        assert_eq!(skip, self.can_skip_oracle(), "skip decision drifted");
                        self.skip_checks += 1;
                    }
                    if skip {
                        // lint: infallible — same guard as the `pump` entry.
                        let reader = self.reader.as_mut().expect("reader present");
                        reader.skip(content_len)?;
                        self.stats.ledger.record_skip(content_len as usize);
                        self.stats.skipped_subtrees += 1;
                    }
                }
                ReadResult::NeedData => {
                    let needed = self
                        .reader
                        .as_ref()
                        // lint: infallible — same guard as the `pump` entry.
                        .expect("reader present")
                        .needed_offset();
                    let target_chunk = (needed / u64::from(self.header.chunk_size)) as u32;
                    // Chunks strictly between the last supplied one and the
                    // target were skipped entirely.
                    if let Some(last) = self.last_supplied_chunk {
                        if target_chunk > last + 1 {
                            self.stats.chunks_skipped += (target_chunk - last - 1) as usize;
                        }
                    }
                    self.next_chunk = target_chunk;
                    break;
                }
                ReadResult::End => {
                    self.done = true;
                    let evaluator = self.evaluator.take().ok_or_else(|| CoreError::BadState {
                        message: "evaluator already finished".into(),
                    })?;
                    self.stats.evaluator = Some(evaluator.finish()?);
                    break;
                }
            }
        }
        Ok(())
    }

    /// Skip decision for the subtree of the reader's last summary (§2.3:
    /// "detect rules and queries that cannot apply inside a given subtree,
    /// with the expected benefit to skip this subtree if it turns out to be
    /// forbidden or irrelevant wrt the query"). It walks the engine's active
    /// positions in place and allocates nothing.
    fn can_skip(&self) -> bool {
        let (Some(evaluator), Some(reader)) = (&self.evaluator, &self.reader) else {
            return false;
        };
        let tags = reader.summary_tags();
        // Any pending decision or unresolved predicate could be influenced by
        // the content of the subtree: stay conservative and read it.
        if evaluator.has_pending() {
            return false;
        }
        let Some((decision, in_scope)) = evaluator.current_context() else {
            return false;
        };
        let engine = evaluator.engine();
        // Could the query newly select nodes inside the subtree?
        let query_may_match_inside = self.query_signature.as_ref().is_some_and(|signature| {
            engine.any_query_position(|position| signature.satisfiable_in(position, tags))
        });
        if !(in_scope || query_may_match_inside) {
            // Nothing inside can belong to the query result.
            return true;
        }
        if decision.is_permit() {
            // Content inside is (at least partly) deliverable.
            return false;
        }
        debug_assert_eq!(decision, Decision::Deny);
        // Denied context: content inside becomes deliverable only if a positive
        // rule reaches its final state inside the subtree.
        !engine.any_rule_position(|rule, position| {
            self.rule_signatures
                .get(rule)
                .is_some_and(|(sign, signature)| {
                    *sign == Sign::Permit && signature.satisfiable_in(position, tags)
                })
        })
    }

    /// [`Self::can_skip`] over the engine's positions collected into vectors
    /// first: the form the in-place walk is checked against.
    #[cfg(test)]
    fn can_skip_oracle(&self) -> bool {
        let (Some(evaluator), Some(reader)) = (&self.evaluator, &self.reader) else {
            return false;
        };
        let tags = reader.summary_tags();
        if evaluator.has_pending() {
            return false;
        }
        let Some((decision, in_scope)) = evaluator.current_context() else {
            return false;
        };
        let query_may_match_inside = match &self.query_signature {
            Some(signature) => evaluator
                .engine()
                .active_query_positions()
                .iter()
                .any(|&p| signature.satisfiable_in(p, tags)),
            None => false,
        };
        if !(in_scope || query_may_match_inside) {
            return true;
        }
        if decision.is_permit() {
            return false;
        }
        let positions = evaluator.engine().active_positions();
        !self
            .rule_signatures
            .iter()
            .zip(positions.iter())
            .filter(|((sign, _), _)| *sign == Sign::Permit)
            .any(|((_, signature), rule_positions)| {
                rule_positions
                    .iter()
                    .any(|&p| signature.satisfiable_in(p, tags))
            })
    }
}

/// Drives a session against an in-memory [`SecureDocument`], accounting the
/// transfer of each served chunk + tag on the session ledger. This is the
/// path used by unit tests and by the benches that do not need the APDU layer.
pub fn run_local(
    document: &SecureDocument,
    session: &mut SecureEvaluationSession,
) -> Result<Vec<Event>, CoreError> {
    let mut output = Vec::new();
    let mut produced = Vec::new();
    while let SessionRequest::NeedChunk(index) = session.next_request() {
        let (chunk, tag) =
            document
                .sealed_chunk(index as usize)
                .ok_or_else(|| CoreError::BadDocument {
                    message: format!("chunk {index} out of range"),
                })?;
        session.exchange_chunk(index, &chunk, &tag, &mut produced)?;
        output.append(&mut produced);
    }
    Ok(output)
}

/// Convenience wrapper: opens a session, runs it locally and returns the
/// authorized view plus the final statistics.
pub fn evaluate_secure_document(
    document: &SecureDocument,
    key: &SecretKey,
    config: EngineConfig,
) -> Result<(Vec<Event>, SessionStats), CoreError> {
    let mut session = SecureEvaluationSession::open(document.header.clone(), key.clone(), config)?;
    let mut events = run_local(document, &mut session)?;
    let (mut rest, stats) = session.finish()?;
    events.append(&mut rest);
    Ok((events, stats))
}

// ---------------------------------------------------------------------------
// The SOE
// ---------------------------------------------------------------------------

/// Identifier of the document key in a key provisioning message.
pub const DEFAULT_DOC_KEY_ID: u32 = 1;
/// Identifier of the rule-protection key in a key provisioning message.
pub const RULES_KEY_ID: u32 = 2;
/// The card-resident state of one subject's SOE (Figure 3: "Access rights
/// evaluator", "Integrity control", "Decryption" and "Keys" inside the smart
/// card): the unwrapped keys, the installed rules, the query, the policy
/// and the open evaluation session. Each session runs under the RAM budget
/// of the hardware it is opened on.
///
/// Both transports drive one: the [`AccessControlApplet`] decodes APDUs
/// into these calls, and the terminal proxy's in-process SOE calls them
/// directly.
pub struct Soe {
    subject: Subject,
    /// Transport key personalised at issuance (simulated PKI).
    transport_key: SecretKey,
    doc_key: Option<SecretKey>,
    rules_key: Option<SecretKey>,
    /// The installed rules, shared with every session opened over them.
    rules: Option<Arc<RuleSet>>,
    /// The registered query, shared the same way.
    query: Option<Arc<Query>>,
    policy: AccessPolicy,
    session: Option<SecureEvaluationSession>,
}

impl std::fmt::Debug for Soe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soe")
            .field("subject", &self.subject)
            .field("has_session", &self.session.is_some())
            .finish_non_exhaustive()
    }
}

impl Soe {
    /// An SOE personalised for `subject`, holding no key, no rules and no
    /// query yet, whose sessions run under the paper's policy.
    pub fn new(subject: Subject, transport_key: SecretKey) -> Self {
        Soe {
            subject,
            transport_key,
            doc_key: None,
            rules_key: None,
            rules: None,
            query: None,
            policy: AccessPolicy::paper(),
            session: None,
        }
    }

    /// The subject the SOE was issued to.
    pub fn subject(&self) -> &Subject {
        &self.subject
    }

    /// The installed rules, if any.
    pub fn rules(&self) -> Option<&RuleSet> {
        self.rules.as_deref()
    }

    /// The open session, if any.
    pub fn session(&self) -> Option<&SecureEvaluationSession> {
        self.session.as_ref()
    }

    /// Unwraps a provisioned key under the transport key and keeps it as
    /// the document key ([`DEFAULT_DOC_KEY_ID`]) or the rule-protection key
    /// ([`RULES_KEY_ID`]); any other id is an unknown key.
    pub fn install_key(&mut self, provisioning: &KeyProvisioning) -> Result<(), CoreError> {
        let key = provisioning.unwrap_key(&self.transport_key)?;
        let slot = match provisioning.key_id {
            DEFAULT_DOC_KEY_ID => &mut self.doc_key,
            RULES_KEY_ID => &mut self.rules_key,
            key_id => return Err(CryptoError::UnknownKey { key_id }.into()),
        };
        *slot = Some(key);
        Ok(())
    }

    /// Authenticates an encoded protected rule blob under the rule key,
    /// without installing it. A blob older than the installed rules is
    /// refused (rollback protection).
    pub fn open_rules(&self, blob: &[u8]) -> Result<RuleSet, CoreError> {
        let protected = ProtectedRules::decode(blob)?;
        let key = self.rules_key.as_ref().ok_or(CryptoError::UnknownKey {
            key_id: RULES_KEY_ID,
        })?;
        let minimum = self.rules.as_ref().map(|rules| rules.version());
        protected.open(key, minimum)
    }

    /// Installs rules [`Soe::open_rules`] authenticated; their version is
    /// the floor of the next blob.
    pub fn install_rules(&mut self, rules: RuleSet) {
        self.rules = Some(Arc::new(rules));
    }

    /// Registers the query later sessions intersect their view with.
    pub fn set_query(&mut self, query: Query) {
        self.query = Some(Arc::new(query));
    }

    /// Selects the conflict-resolution policy of later sessions.
    pub fn set_policy(&mut self, policy: AccessPolicy) {
        self.policy = policy;
    }

    /// Opens an evaluation session over `header` with the installed rules,
    /// the query and the policy, under `ram_budget` bytes of secure RAM. A
    /// failed open keeps the previous session.
    pub fn open(&mut self, header: DocumentHeader, ram_budget: usize) -> Result<(), CoreError> {
        let rules = self.rules.clone().ok_or_else(|| CoreError::BadState {
            message: "no rules installed".into(),
        })?;
        let key = self.doc_key.clone().ok_or(CryptoError::UnknownKey {
            key_id: DEFAULT_DOC_KEY_ID,
        })?;
        let mut evaluator =
            EvaluatorConfig::new(rules, self.subject.name()).with_policy(self.policy);
        if let Some(query) = &self.query {
            evaluator = evaluator.with_query(Arc::clone(query));
        }
        let config = EngineConfig::new(evaluator).with_ram_budget(ram_budget);
        self.session = Some(SecureEvaluationSession::open(header, key, config)?);
        Ok(())
    }

    /// What the open session needs next.
    pub fn next_request(&self) -> Result<SessionRequest, CoreError> {
        Ok(self.session.as_ref().ok_or_else(not_open)?.next_request())
    }

    /// Supplies one chunk with its tag to the open session, delivering the
    /// events it releases to `out` (see
    /// [`SecureEvaluationSession::supply_chunk_into`]).
    pub fn push_chunk(
        &mut self,
        index: u32,
        ciphertext: &[u8],
        tag: &ChunkTag,
        out: &mut impl ViewSink,
    ) -> Result<usize, CoreError> {
        let session = self.session.as_mut().ok_or_else(not_open)?;
        session.supply_chunk_into(index, ciphertext, tag, out)
    }

    /// Serves one chunk request as one accounted channel exchange (see
    /// [`SecureEvaluationSession::exchange_chunk`]).
    pub fn exchange_chunk(
        &mut self,
        index: u32,
        ciphertext: &[u8],
        tag: &ChunkTag,
        buffer: &mut Vec<Event>,
    ) -> Result<(usize, usize), CoreError> {
        let session = self.session.as_mut().ok_or_else(not_open)?;
        session.exchange_chunk(index, ciphertext, tag, buffer)
    }

    /// Ends the open session, processed or not, and returns its remaining
    /// events and final statistics once the document was fully processed.
    pub fn finish(&mut self) -> Result<(Vec<Event>, SessionStats), CoreError> {
        self.session.take().ok_or_else(not_open)?.finish()
    }
}

fn not_open() -> CoreError {
    CoreError::BadState {
        message: "no open SOE session".into(),
    }
}

// ---------------------------------------------------------------------------
// APDU applet
// ---------------------------------------------------------------------------

/// Bytes before the ciphertext in a `PUSH_CHUNK` payload: the chunk index
/// (4, little-endian) and the chunk's tag.
pub const PUSH_CHUNK_PREFIX: usize = 4 + TAG_LEN;

/// The on-card access-control applet: the APDU codec of a [`Soe`]. It
/// reassembles fragmented payloads, renders the released events into the
/// output buffer `GET_OUTPUT` pages through, maps SOE errors to status words,
/// charges the installed rules to the card's EEPROM and, at `CLOSE_SESSION`,
/// records the session's own counters on the card ledger.
pub struct AccessControlApplet {
    soe: Soe,
    /// Reassembly buffer for fragmented `PUT_RULES` payloads.
    rules_buf: Vec<u8>,
    /// Reassembly buffer for fragmented `PUSH_CHUNK` payloads, emptied and
    /// reused for every chunk.
    chunk_buf: Vec<u8>,
    /// Authorized output awaiting `GET_OUTPUT`: each `PUSH_CHUNK` renders
    /// the events it releases straight into it, as compact XML.
    output_text: String,
    /// Cursor into `output_text`.
    output_pos: usize,
}

impl std::fmt::Debug for AccessControlApplet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessControlApplet")
            .field("soe", &self.soe)
            .finish_non_exhaustive()
    }
}

impl AccessControlApplet {
    /// Creates an applet personalised for `subject`. Its sessions run under
    /// the RAM budget of the card it is installed on.
    pub fn new(subject: impl Into<String>, transport_key: SecretKey) -> Self {
        AccessControlApplet {
            soe: Soe::new(Subject::new(subject), transport_key),
            rules_buf: Vec::new(),
            chunk_buf: Vec::new(),
            output_text: String::new(),
            output_pos: 0,
        }
    }

    fn status_for(error: &CoreError) -> StatusWord {
        match error {
            CoreError::Crypto(CryptoError::UnknownKey { .. }) => StatusWord::NOT_FOUND,
            CoreError::Crypto(_) => StatusWord::SECURITY_NOT_SATISFIED,
            CoreError::Card(CardError::RamExceeded { .. })
            | CoreError::Card(CardError::EepromExceeded { .. }) => StatusWord::MEMORY_FAILURE,
            CoreError::Card(_) => StatusWord::CONDITIONS_NOT_SATISFIED,
            CoreError::BadDocument { .. }
            | CoreError::Xml(_)
            | CoreError::Wire(WireError::BadHeader(_)) => StatusWord::WRONG_LENGTH,
            CoreError::BadState { .. } | CoreError::Wire(_) => StatusWord::CONDITIONS_NOT_SATISFIED,
            CoreError::UnsupportedRule { .. } | CoreError::Parse(_) => StatusWord::NOT_FOUND,
        }
    }

    /// The SOE error a refusal status stands for, where it names one:
    /// `status_for` answers `SECURITY_NOT_SATISFIED` to exactly the failed
    /// integrity checks, so a terminal reports them as the in-process SOE
    /// does. Any other status stays the card's refusal.
    pub fn error_for(status: StatusWord) -> Option<CoreError> {
        (status == StatusWord::SECURITY_NOT_SATISFIED).then(|| {
            CryptoError::IntegrityFailure {
                context: "data sent to the card's SOE".into(),
            }
            .into()
        })
    }

    fn respond(result: Result<(), CoreError>) -> ApduResponse {
        match result {
            Ok(()) => ApduResponse::ok_empty(),
            Err(e) => ApduResponse::error(Self::status_for(&e)),
        }
    }

    fn handle_put_key(&mut self, command: &Apdu) -> ApduResponse {
        Self::respond(
            KeyProvisioning::decode(&command.data)
                .and_then(|provisioning| self.soe.install_key(&provisioning)),
        )
    }

    fn handle_put_rules(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        self.rules_buf.extend_from_slice(&command.data);
        if command.p1 == 1 {
            // More fragments follow.
            return ApduResponse::ok_empty();
        }
        let payload = std::mem::take(&mut self.rules_buf);
        let rules = match self.soe.open_rules(&payload) {
            Ok(rules) => rules,
            Err(e) => return ApduResponse::error(Self::status_for(&e)),
        };
        // Rules live in EEPROM (persistent across sessions): new rules take
        // the place of the installed ones only once they are charged.
        let previous = self.soe.rules().map_or(0, RuleSet::storage_bytes);
        let eeprom = card.eeprom();
        eeprom.free(previous);
        if let Err(e) = eeprom.store(rules.storage_bytes()) {
            // The installed rules stay in force, and so does their charge:
            // it fitted until now.
            let _ = eeprom.store(previous);
            return ApduResponse::error(Self::status_for(&e.into()));
        }
        self.soe.install_rules(rules);
        ApduResponse::ok_empty()
    }

    fn handle_put_query(&mut self, command: &Apdu) -> ApduResponse {
        match std::str::from_utf8(&command.data)
            .map_err(|_| ())
            .and_then(|text| Query::parse(text).map_err(|_| ()))
        {
            Ok(query) => {
                self.soe.set_query(query);
                ApduResponse::ok_empty()
            }
            Err(()) => ApduResponse::error(StatusWord::NOT_FOUND),
        }
    }

    fn handle_open_session(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        let header = match DocumentHeader::decode(&command.data) {
            Ok(h) => h,
            Err(_) => return ApduResponse::error(StatusWord::WRONG_LENGTH),
        };
        // P2 selects the conflict-resolution default: 0 = closed world (the
        // paper's policy), 1 = open world (used by dissemination scenarios
        // where only negative rules carve content out).
        self.soe.set_policy(if command.p2 == 1 {
            AccessPolicy::open()
        } else {
            AccessPolicy::paper()
        });
        let opened = self.soe.open(header, card.profile().ram_bytes);
        if opened.is_ok() {
            card.reset_session();
            self.output_text.clear();
            self.output_pos = 0;
            self.chunk_buf.clear();
        }
        Self::respond(opened)
    }

    fn handle_next_request(&mut self) -> ApduResponse {
        match self.soe.next_request() {
            Ok(SessionRequest::NeedChunk(i)) => ApduResponse::ok(&i.to_le_bytes()),
            Ok(SessionRequest::Done) => ApduResponse::ok(&u32::MAX.to_le_bytes()),
            Err(e) => ApduResponse::error(Self::status_for(&e)),
        }
    }

    fn handle_push_chunk(&mut self, command: &Apdu) -> ApduResponse {
        let Some(session) = self.soe.session() else {
            return ApduResponse::error(StatusWord::CONDITIONS_NOT_SATISFIED);
        };
        // Payload layout: chunk index (4), tag (32), ciphertext — at most one
        // chunk of the open document, so the reassembly buffer stays bounded
        // whatever the terminal sends.
        let limit = PUSH_CHUNK_PREFIX + session.header().chunk_size as usize;
        if self.chunk_buf.len() + command.data.len() > limit {
            self.chunk_buf.clear();
            return ApduResponse::error(StatusWord::WRONG_LENGTH);
        }
        self.chunk_buf.extend_from_slice(&command.data);
        if command.p1 == 1 {
            return ApduResponse::ok_empty();
        }
        let response = Self::supply_payload(&mut self.soe, &self.chunk_buf, &mut self.output_text);
        self.chunk_buf.clear();
        match response {
            Ok(()) => {
                let available = (self.output_text.len() - self.output_pos) as u32;
                ApduResponse::ok(&available.to_le_bytes())
            }
            Err(status) => ApduResponse::error(status),
        }
    }

    /// Supplies one reassembled `PUSH_CHUNK` payload — chunk index (4), tag
    /// (32), ciphertext — to the SOE, which renders the events it releases
    /// onto `output`. On failure `output` is left as it was.
    fn supply_payload(
        soe: &mut Soe,
        payload: &[u8],
        output: &mut String,
    ) -> Result<(), StatusWord> {
        let (Some(index), Some(tag)) = (payload.get(..4), payload.get(4..PUSH_CHUNK_PREFIX)) else {
            return Err(StatusWord::WRONG_LENGTH);
        };
        // lint: infallible — both slices were taken at their exact widths.
        let index = u32::from_le_bytes(index.try_into().expect("4 bytes"));
        let tag = ChunkTag::from_bytes(tag.try_into().expect("tag")); // lint: infallible — see above
        let ciphertext = &payload[PUSH_CHUNK_PREFIX..];
        let rendered = output.len();
        soe.push_chunk(index, ciphertext, &tag, output)
            .map(|_| ())
            .map_err(|e| {
                output.truncate(rendered);
                Self::status_for(&e)
            })
    }

    fn handle_get_output(&mut self) -> ApduResponse {
        let available = &self.output_text.as_bytes()[self.output_pos..];
        let take = available.len().min(250);
        self.output_pos += take;
        ApduResponse::ok(&available[..take])
    }

    /// Closes the session, processed or not (a terminal may abort one),
    /// records its counters on the card ledger and answers with its
    /// statistics.
    fn handle_close_session(&mut self, card: &mut SmartCard) -> ApduResponse {
        let Some(stats) = self.soe.session().map(SecureEvaluationSession::stats) else {
            return ApduResponse::error(StatusWord::CONDITIONS_NOT_SATISFIED);
        };
        // The session's decrypted, hashed, processed and skipped counts; its
        // channel meter is empty here, since the card runtime meters the
        // APDUs themselves.
        card.ledger().merge(&stats.ledger);
        let mut data = [0u8; 20];
        for (field, value) in data.chunks_exact_mut(4).zip([
            stats.ledger.bytes_decrypted,
            stats.ledger.bytes_skipped,
            stats.skipped_subtrees,
            stats.chunks_fetched,
            stats.peak_ram_bytes,
        ]) {
            field.copy_from_slice(&(value as u32).to_le_bytes());
        }
        // An unprocessed session fails `finish`; it ends all the same.
        let _ = self.soe.finish();
        self.output_text.clear();
        self.output_pos = 0;
        ApduResponse::ok(&data)
    }
}

impl Applet for AccessControlApplet {
    fn process(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        match command.ins {
            ins::PUT_KEY => self.handle_put_key(command),
            ins::PUT_RULES => self.handle_put_rules(card, command),
            ins::PUT_QUERY => self.handle_put_query(command),
            ins::OPEN_SESSION => self.handle_open_session(card, command),
            ins::NEXT_REQUEST => self.handle_next_request(),
            ins::PUSH_CHUNK => self.handle_push_chunk(command),
            ins::GET_OUTPUT => self.handle_get_output(),
            ins::CLOSE_SESSION => self.handle_close_session(card),
            _ => ApduResponse::error(StatusWord::INS_NOT_SUPPORTED),
        }
    }

    fn name(&self) -> &str {
        "sdds-access-control"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::authorized_view_oracle;
    use crate::conflict::AccessPolicy;
    use crate::secdoc::SecureDocumentBuilder;
    use crate::skipindex::encode::EncoderConfig;
    use sdds_crypto::CryptoError;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};
    use sdds_xml::{writer, Document};

    fn key() -> SecretKey {
        SecretKey::derive(b"community", "documents")
    }

    fn hospital_doc(patients: usize) -> Document {
        generator::hospital(
            &HospitalProfile {
                patients,
                ..HospitalProfile::default()
            },
            &GeneratorConfig::default(),
        )
    }

    fn medical_rules() -> RuleSet {
        RuleSet::parse(
            "+, doctor, //patient\n\
             -, doctor, //patient/ssn\n\
             +, secretary, //patient/name\n\
             +, secretary, //patient/address",
        )
        .unwrap()
    }

    fn config_for(subject: &str) -> EngineConfig {
        EngineConfig::new(EvaluatorConfig::new(medical_rules(), subject))
    }

    #[test]
    fn secure_evaluation_matches_plaintext_evaluation() {
        let doc = hospital_doc(6);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let (events, stats) =
            evaluate_secure_document(&secure, &key(), config_for("doctor")).unwrap();
        // Oracle: evaluate the same rules on the plaintext tree.
        let expected = authorized_view_oracle(
            &doc,
            &medical_rules(),
            &Subject::new("doctor"),
            None,
            &AccessPolicy::paper(),
        );
        assert_eq!(writer::to_string(&events), writer::to_string(&expected));
        assert!(stats.chunks_fetched > 0);
        assert!(stats.evaluator.is_some());
    }

    #[test]
    fn skip_index_reduces_transferred_and_decrypted_bytes_for_restrictive_subjects() {
        let doc = hospital_doc(20);
        let secure = SecureDocumentBuilder::new("folder", key())
            .encoder_config(EncoderConfig {
                min_index_bytes: 32,
                ..EncoderConfig::default()
            })
            .build(&doc);

        // The secretary sees only names and addresses: most of each patient
        // subtree (acts, reports, prescriptions) is skippable.
        let (with_index, with_stats) =
            evaluate_secure_document(&secure, &key(), config_for("secretary")).unwrap();
        let (without_index, without_stats) = evaluate_secure_document(
            &secure,
            &key(),
            config_for("secretary").without_skip_index(),
        )
        .unwrap();

        assert_eq!(
            writer::to_string(&with_index),
            writer::to_string(&without_index),
            "skipping must not change the authorized view"
        );
        assert!(with_stats.skipped_subtrees > 0);
        assert!(with_stats.ledger.bytes_skipped > 0);
        assert!(
            with_stats.ledger.bytes_decrypted < without_stats.ledger.bytes_decrypted,
            "with index {} should decrypt less than without {}",
            with_stats.ledger.bytes_decrypted,
            without_stats.ledger.bytes_decrypted
        );
        assert!(with_stats.chunks_fetched < without_stats.chunks_fetched);
        assert!(with_stats.chunks_skipped > 0);
    }

    #[test]
    fn unknown_subject_skips_nearly_everything() {
        let doc = hospital_doc(10);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let (events, stats) =
            evaluate_secure_document(&secure, &key(), config_for("intruder")).unwrap();
        assert!(events.is_empty());
        assert!(stats.ledger.bytes_skipped > 0);
        assert!(stats.chunks_fetched < secure.chunk_count());
    }

    #[test]
    fn query_restricts_what_is_fetched() {
        let doc = hospital_doc(12);
        let secure = SecureDocumentBuilder::new("folder", key())
            .encoder_config(EncoderConfig {
                min_index_bytes: 32,
                ..EncoderConfig::default()
            })
            .build(&doc);
        let mut config = config_for("doctor");
        config.evaluator = config
            .evaluator
            .with_query(Query::parse("//patient/name").unwrap());
        let (events, stats) = evaluate_secure_document(&secure, &key(), config).unwrap();
        let text = writer::to_string(&events);
        assert!(text.contains("<name>"));
        assert!(!text.contains("<report>"));
        // The query makes most of the document irrelevant: plenty of skipping.
        assert!(stats.skipped_subtrees > 0);

        // Oracle agreement.
        let expected = authorized_view_oracle(
            &doc,
            &medical_rules(),
            &Subject::new("doctor"),
            Some(&Query::parse("//patient/name").unwrap()),
            &AccessPolicy::paper(),
        );
        assert_eq!(text, writer::to_string(&expected));
    }

    #[test]
    fn wrong_key_fails_at_open() {
        let doc = hospital_doc(2);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let wrong = SecretKey::derive(b"other", "documents");
        assert!(
            SecureEvaluationSession::open(secure.header.clone(), wrong, config_for("doctor"))
                .is_err()
        );
    }

    /// A folder whose text depends on `revision` at equal length, so its
    /// revisions share their geometry and differ in content and nonce.
    fn folder_revision(revision: u8) -> Document {
        let mut xml = String::from("<folder>");
        for i in 0..12 {
            xml.push_str(&format!(
                "<patient><name>patient {i:02}</name><ssn>{revision}-{i:04}</ssn>\
                 <report>report {i:02} of revision {revision}</report></patient>"
            ));
        }
        xml.push_str("</folder>");
        Document::parse(&xml).unwrap()
    }

    fn is_integrity_failure<T: std::fmt::Debug>(result: &Result<T, CoreError>) -> bool {
        matches!(
            result,
            Err(CoreError::Crypto(CryptoError::IntegrityFailure { .. }))
        )
    }

    /// Opens a doctor session on `secure` and supplies genuine chunks until
    /// the session asks for a chunk `stop` accepts; returns that index.
    fn session_at(
        secure: &SecureDocument,
        stop: impl Fn(u32) -> bool,
    ) -> (SecureEvaluationSession, u32) {
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config_for("doctor"))
                .unwrap();
        loop {
            let SessionRequest::NeedChunk(index) = session.next_request() else {
                panic!("the session ended before the probed chunk");
            };
            if stop(index) {
                return (session, index);
            }
            let (chunk, tag) = secure.sealed_chunk(index as usize).unwrap();
            session.supply_chunk(index, &chunk, &tag).unwrap();
        }
    }

    #[test]
    fn tampered_chunk_is_rejected_during_the_session() {
        let doc = hospital_doc(3);
        let secure = SecureDocumentBuilder::new("folder", key())
            .chunk_size(128)
            .build(&doc);
        // Past the dictionary, so a chunk's plaintext would go to the reader.
        let (mut session, index) = session_at(&secure, |i| i == 2);
        let window = |session: &SecureEvaluationSession| {
            let reader = session.reader.as_ref().expect("dictionary complete");
            (reader.needed_offset(), reader.window_bytes())
        };
        let before = window(&session);
        let (chunk, tag) = secure.sealed_chunk(index as usize).unwrap();
        // A bit flip in the ciphertext.
        let mut flipped = chunk.to_vec();
        flipped[0] ^= 0x01;
        assert!(is_integrity_failure(
            &session.supply_chunk(index, &flipped, &tag)
        ));
        // A bit flip in either 16-byte half (either lane) of the tag.
        for byte in [0, TAG_LEN - 1] {
            let mut bytes = *tag.as_bytes();
            bytes[byte] ^= 0x80;
            assert!(is_integrity_failure(&session.supply_chunk(
                index,
                &chunk,
                &ChunkTag::from_bytes(bytes)
            )));
        }
        // The tag of another position does not vouch for this one.
        let (_, other_tag) = secure.sealed_chunk((index + 1) as usize).unwrap();
        assert!(is_integrity_failure(
            &session.supply_chunk(index, &chunk, &other_tag)
        ));
        // No byte of a rejected chunk entered the window, and the session
        // still ends in the oracle view.
        assert_eq!(window(&session), before);
        session.supply_chunk(index, &chunk, &tag).unwrap();
        let mut events = session.take_output();
        events.extend(run_local(&secure, &mut session).unwrap());
        let (rest, _) = session.finish().unwrap();
        events.extend(rest);
        let expected = authorized_view_oracle(
            &doc,
            &medical_rules(),
            &Subject::new("doctor"),
            None,
            &AccessPolicy::paper(),
        );
        assert_eq!(writer::to_string(&events), writer::to_string(&expected));
    }

    #[test]
    fn relabelled_or_reordered_chunks_fail_integrity_not_decoding() {
        // At every position the session asks for, serve the next chunk
        // instead: with its own tag, or with the requested chunk's tag.
        // Each must stop at the integrity step — never reach decryption and
        // fail as `BadDocument`.
        let doc = hospital_doc(6);
        let secure = SecureDocumentBuilder::new("folder", key())
            .chunk_size(128)
            .build(&doc);
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config_for("doctor"))
                .unwrap();
        let mut probed = 0;
        while let SessionRequest::NeedChunk(index) = session.next_request() {
            let i = index as usize;
            let (chunk, tag) = secure.sealed_chunk(i).unwrap();
            if let Some((next, next_tag)) = secure.sealed_chunk(i + 1) {
                for tag in [next_tag, tag] {
                    let result = session.supply_chunk(index, &next, &tag);
                    assert!(
                        is_integrity_failure(&result),
                        "chunk {} served as {index}: {result:?}",
                        i + 1
                    );
                }
                probed += 1;
            }
            session.supply_chunk(index, &chunk, &tag).unwrap();
        }
        assert!(probed > 10, "only {probed} positions probed");
        // The rejected attempts left no trace: the view is the genuine one.
        let (events, _) = session.finish().unwrap();
        let (expected, _) =
            evaluate_secure_document(&secure, &key(), config_for("doctor")).unwrap();
        assert_eq!(writer::to_string(&events), writer::to_string(&expected));
    }

    #[test]
    fn chunks_spliced_from_another_document_or_revision_fail_integrity() {
        // The same content under another id, and the previous revision of
        // the same id: one publisher key, one geometry, so only the tag's
        // binding to the document and its nonce can tell the chunks apart.
        let current = SecureDocumentBuilder::new("folder", key())
            .chunk_size(128)
            .build(&folder_revision(2));
        let other = SecureDocumentBuilder::new("annex", key())
            .chunk_size(128)
            .build(&folder_revision(2));
        let previous = SecureDocumentBuilder::new("folder", key())
            .chunk_size(128)
            .build(&folder_revision(1));
        assert_eq!(previous.header.chunk_count, current.header.chunk_count);
        assert!(current.chunk_count() > 4);
        for source in [&other, &previous] {
            let (mut session, index) = session_at(&current, |i| i >= 2);
            let (chunk, tag) = source.sealed_chunk(index as usize).unwrap();
            assert!(is_integrity_failure(
                &session.supply_chunk(index, &chunk, &tag)
            ));
        }
    }

    #[test]
    fn a_truncated_last_chunk_fails_integrity() {
        let secure = SecureDocumentBuilder::new("folder", key())
            .chunk_size(128)
            .build(&folder_revision(0));
        let last = secure.header.chunk_count - 1;
        let (mut session, index) = session_at(&secure, |i| i == last);
        let (chunk, tag) = secure.sealed_chunk(index as usize).unwrap();
        assert!(is_integrity_failure(&session.supply_chunk(
            index,
            &chunk[..chunk.len() - 1],
            &tag
        )));
        assert!(is_integrity_failure(&session.supply_chunk(
            index,
            &[],
            &tag
        )));
        session.supply_chunk(index, &chunk, &tag).unwrap();
        assert!(session.is_done());
    }

    #[test]
    fn out_of_order_chunks_are_rejected() {
        let doc = hospital_doc(3);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config_for("doctor"))
                .unwrap();
        let (chunk, tag) = secure.sealed_chunk(1).unwrap();
        assert!(session.supply_chunk(1, &chunk, &tag).is_err());
    }

    #[test]
    fn ram_budget_violation_is_reported() {
        let doc = hospital_doc(5);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let config = config_for("doctor").with_ram_budget(64); // absurdly small
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config).unwrap();
        let result = run_local(&secure, &mut session);
        assert!(matches!(
            result,
            Err(CoreError::Card(CardError::RamExceeded { .. }))
        ));
    }

    #[test]
    fn ram_budget_is_enforced_where_the_peak_is_sampled() {
        // A session that succeeds never peaked over its budget: one byte
        // under the unconstrained peak fails, the peak itself passes.
        let doc = hospital_doc(8);
        for chunk_size in [64, 256] {
            let secure = SecureDocumentBuilder::new("folder", key())
                .chunk_size(chunk_size)
                .build(&doc);
            for subject in ["doctor", "secretary"] {
                let ctx = format!("{subject}, chunks of {chunk_size} B");
                let (_, free) =
                    evaluate_secure_document(&secure, &key(), config_for(subject)).unwrap();
                let peak = free.peak_ram_bytes;
                let under = config_for(subject).with_ram_budget(peak - 1);
                assert!(
                    matches!(
                        evaluate_secure_document(&secure, &key(), under),
                        Err(CoreError::Card(CardError::RamExceeded { .. }))
                    ),
                    "{ctx}"
                );
                let at = config_for(subject).with_ram_budget(peak);
                let (_, stats) = evaluate_secure_document(&secure, &key(), at).unwrap();
                assert_eq!(stats.peak_ram_bytes, peak, "{ctx}");
            }
        }
    }

    #[test]
    fn session_stats_report_progress() {
        let doc = hospital_doc(4);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config_for("doctor"))
                .unwrap();
        assert!(!session.is_done());
        assert_eq!(session.header().doc_id, "folder");
        run_local(&secure, &mut session).unwrap();
        assert!(session.is_done());
        assert_eq!(session.next_request(), SessionRequest::Done);
        let (_, stats) = session.finish().unwrap();
        assert!(stats.peak_ram_bytes > 0);
        assert!(stats.ledger.events_processed > 0);
        assert!(stats.ledger.channel.total_bytes() > 0);
    }

    #[test]
    fn finishing_an_unfinished_session_is_an_error() {
        let doc = hospital_doc(2);
        let secure = SecureDocumentBuilder::new("folder", key()).build(&doc);
        let session =
            SecureEvaluationSession::open(secure.header.clone(), key(), config_for("doctor"))
                .unwrap();
        assert!(session.finish().is_err());
    }

    // -- On-demand decryption ---------------------------------------------

    /// What a traced read did: the chunks it fetched, the ranges its reader
    /// deciphered and skipped (absolute offsets), and its statistics.
    struct TracedRead {
        fetched: Vec<u32>,
        revealed: Vec<std::ops::Range<u64>>,
        skipped: Vec<std::ops::Range<u64>>,
        stats: SessionStats,
    }

    /// Reads `secure` to the end as `subject`, keeping the reader's trace.
    fn traced_read(secure: &SecureDocument, key: SecretKey, subject: &str) -> TracedRead {
        use crate::skipindex::decode::Trace;
        let mut session =
            SecureEvaluationSession::open(secure.header.clone(), key, config_for(subject)).unwrap();
        let mut fetched = Vec::new();
        while let SessionRequest::NeedChunk(index) = session.next_request() {
            let (chunk, tag) = secure.sealed_chunk(index as usize).unwrap();
            session.supply_chunk(index, &chunk, &tag).unwrap();
            fetched.push(index);
        }
        let trace = session.reader.as_ref().unwrap().trace.clone();
        let ranges = |kind: Trace| -> Vec<_> {
            trace
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, range)| range.clone())
                .collect()
        };
        let (revealed, skipped) = (ranges(Trace::Revealed), ranges(Trace::Skipped));
        let (_, stats) = session.finish().unwrap();
        TracedRead {
            fetched,
            revealed,
            skipped,
            stats,
        }
    }

    /// The keystream blocks `range` touches: 16-byte blocks counted from
    /// each chunk's start, a chunk's last block possibly short.
    fn keystream_blocks(
        range: &std::ops::Range<u64>,
        chunk_size: u64,
    ) -> Vec<std::ops::Range<u64>> {
        let mut blocks = Vec::new();
        let mut at = range.start;
        while at < range.end {
            let chunk_start = at / chunk_size * chunk_size;
            let start = chunk_start + (at - chunk_start) / 16 * 16;
            let end = (start + 16).min(chunk_start + chunk_size);
            blocks.push(start..end);
            at = end;
        }
        blocks
    }

    /// The chunks whose plaintext holds the tag dictionary: the SOE
    /// decrypts them whole.
    fn dictionary_chunks(secure: &SecureDocument) -> u32 {
        let header = &secure.header;
        header.tokens_start.div_ceil(u64::from(header.chunk_size)) as u32
    }

    /// A hospital folder with summaries from 16 bytes, so many subtrees are
    /// skippable at every chunk size.
    fn indexed_folder(
        key: SecretKey,
        chunk_size: usize,
        recursive_bitmaps: bool,
    ) -> SecureDocument {
        SecureDocumentBuilder::new("folder", key)
            .chunk_size(chunk_size)
            .encoder_config(EncoderConfig {
                min_index_bytes: 16,
                recursive_bitmaps,
                ..EncoderConfig::default()
            })
            .build(&hospital_doc(8))
    }

    #[test]
    fn no_keystream_block_inside_a_skip_is_ever_computed() {
        for chunk_size in [64usize, 100, 128, 250, 256, 512] {
            for recursive_bitmaps in [true, false] {
                let case = format!("chunk {chunk_size}, recursive {recursive_bitmaps}");
                let secure = indexed_folder(key(), chunk_size, recursive_bitmaps);
                let read = traced_read(&secure, key(), "secretary");
                // Every deciphered byte is booked, and nothing else: the
                // dictionary chunks whole, then what the reader revealed.
                let eager: usize = (0..dictionary_chunks(&secure))
                    .map(|i| secure.chunk(i as usize).unwrap().len())
                    .sum();
                let revealed: u64 = read.revealed.iter().map(|r| r.end - r.start).sum();
                assert_eq!(
                    read.stats.ledger.bytes_decrypted,
                    eager + revealed as usize,
                    "{case}"
                );
                let mut avoidable = 0;
                for skip in &read.skipped {
                    let inside = |block: &std::ops::Range<u64>| {
                        skip.start <= block.start && block.end <= skip.end
                    };
                    for range in &read.revealed {
                        for block in keystream_blocks(range, chunk_size as u64) {
                            assert!(
                                !inside(&block),
                                "{case}: block {block:?} lies in the skip {skip:?}"
                            );
                        }
                    }
                    avoidable += keystream_blocks(skip, chunk_size as u64)
                        .iter()
                        .filter(|block| {
                            inside(block)
                                && read
                                    .fetched
                                    .contains(&((block.start / chunk_size as u64) as u32))
                        })
                        .count();
                }
                // The check had blocks to avoid: skipped bytes of fetched
                // chunks stayed ciphertext.
                assert!(avoidable > 0, "{case}");
                assert!(
                    read.stats.ledger.bytes_decrypted < read.stats.ledger.bytes_hashed,
                    "{case}"
                );
            }
        }
    }

    // -- Applet level ------------------------------------------------------

    mod applet {
        use super::*;
        use crate::session::TrustedServer;
        use sdds_card::apdu::fragments;
        use sdds_card::{CardProfile, CardRuntime};

        /// A card of `profile` carrying the applet `server` issued to
        /// `subject`.
        fn card(
            server: &TrustedServer,
            subject: &Subject,
            profile: CardProfile,
        ) -> CardRuntime<AccessControlApplet> {
            let transport_key = server.transport_key_for(subject);
            let applet = AccessControlApplet::new(subject.name(), transport_key);
            CardRuntime::new(profile, applet)
        }

        /// Terminal-side driver for the applet (a miniature proxy used by the
        /// tests; the full proxy lives in `sdds-proxy`).
        fn provision(
            runtime: &mut CardRuntime<AccessControlApplet>,
            server: &TrustedServer,
            subject: &Subject,
        ) {
            let doc_key = server.provision_document_key(subject, DEFAULT_DOC_KEY_ID);
            runtime
                .exchange_expect_ok(&Apdu::new(ins::PUT_KEY, 0, 0, doc_key.encode()).unwrap())
                .unwrap();
            let rules_key = server.provision_rules_key(subject, RULES_KEY_ID);
            runtime
                .exchange_expect_ok(&Apdu::new(ins::PUT_KEY, 0, 0, rules_key.encode()).unwrap())
                .unwrap();
            let protected = server.protected_rules_for(subject).encode();
            for (frag, more) in fragments(&[&protected]) {
                runtime
                    .exchange_expect_ok(&Apdu::with_data(ins::PUT_RULES, u8::from(more), 0, frag))
                    .unwrap();
            }
        }

        /// Pushes one chunk in `PUSH_CHUNK` framing; returns the status of
        /// the last fragment.
        fn push_chunk(
            runtime: &mut CardRuntime<AccessControlApplet>,
            index: u32,
            chunk: &[u8],
            tag: &ChunkTag,
        ) -> StatusWord {
            let mut status = StatusWord::OK;
            for (frag, more) in fragments(&[&index.to_le_bytes(), tag.as_bytes(), chunk]) {
                status = runtime
                    .exchange(&Apdu::with_data(ins::PUSH_CHUNK, u8::from(more), 0, frag))
                    .status;
            }
            status
        }

        /// Provisions a doctor card and opens a session on `secure`.
        fn doctor_card(
            server: &TrustedServer,
            secure: &SecureDocument,
        ) -> CardRuntime<AccessControlApplet> {
            let subject = Subject::new("doctor");
            let mut runtime = card(server, &subject, CardProfile::unconstrained());
            provision(&mut runtime, server, &subject);
            runtime
                .exchange_expect_ok(
                    &Apdu::new(ins::OPEN_SESSION, 0, 0, secure.header.encode()).unwrap(),
                )
                .unwrap();
            runtime
        }

        /// Pushes genuine chunks until the card asks for one `stop` accepts.
        fn card_at(
            runtime: &mut CardRuntime<AccessControlApplet>,
            secure: &SecureDocument,
            stop: impl Fn(u32) -> bool,
        ) -> u32 {
            loop {
                let next = runtime
                    .exchange_expect_ok(&Apdu::simple(ins::NEXT_REQUEST, 0, 0))
                    .unwrap();
                let index = u32::from_le_bytes(next[..4].try_into().unwrap());
                assert_ne!(index, u32::MAX, "the session ended before the probed chunk");
                if stop(index) {
                    return index;
                }
                let (chunk, tag) = secure.sealed_chunk(index as usize).unwrap();
                assert_eq!(push_chunk(runtime, index, &chunk, &tag), StatusWord::OK);
            }
        }

        fn run_document(
            runtime: &mut CardRuntime<AccessControlApplet>,
            secure: &SecureDocument,
        ) -> String {
            runtime
                .exchange_expect_ok(
                    &Apdu::new(ins::OPEN_SESSION, 0, 0, secure.header.encode()).unwrap(),
                )
                .unwrap();
            loop {
                let next = runtime
                    .exchange_expect_ok(&Apdu::simple(ins::NEXT_REQUEST, 0, 0))
                    .unwrap();
                let index = u32::from_le_bytes(next[..4].try_into().unwrap());
                if index == u32::MAX {
                    break;
                }
                let (chunk, tag) = secure.sealed_chunk(index as usize).unwrap();
                assert_eq!(push_chunk(runtime, index, &chunk, &tag), StatusWord::OK);
                // The applet serialised what the chunk released; the
                // session keeps no second copy of it.
                let session = runtime.applet().soe.session().unwrap();
                assert!(
                    session.output.is_empty(),
                    "undelivered events after chunk {index}"
                );
            }
            let mut text = Vec::new();
            loop {
                let part = runtime
                    .exchange_expect_ok(&Apdu::simple(ins::GET_OUTPUT, 0, 0))
                    .unwrap();
                if part.is_empty() {
                    break;
                }
                text.extend_from_slice(&part);
            }
            runtime
                .exchange_expect_ok(&Apdu::simple(ins::CLOSE_SESSION, 0, 0))
                .unwrap();
            String::from_utf8(text).unwrap()
        }

        #[test]
        fn a_flipped_bit_the_soe_never_decrypts_still_fails_the_card_and_the_session() {
            let server = TrustedServer::new(b"community", medical_rules());
            let subject = Subject::new("secretary");
            let secure = indexed_folder(server.document_key(), 128, true);
            let read = traced_read(&secure, server.document_key(), "secretary");
            // A byte of a fetched chunk past the dictionary that lies in a
            // skip, in a keystream block the reader never computed.
            let never_decrypted = |pos: &u64| {
                let chunk = (pos / 128) as u32;
                chunk >= dictionary_chunks(&secure)
                    && read.fetched.contains(&chunk)
                    && read
                        .revealed
                        .iter()
                        .all(|r| keystream_blocks(r, 128).iter().all(|b| !b.contains(pos)))
            };
            let pos = read
                .skipped
                .iter()
                .flat_map(|skip| skip.clone())
                .find(never_decrypted)
                .expect("a skipped byte of a fetched chunk");
            let (index, at) = ((pos / 128) as usize, (pos % 128) as usize);
            let mut chunks: Vec<_> = (0..secure.chunk_count())
                .map(|i| secure.sealed_chunk(i).unwrap())
                .collect();
            let mut flipped = chunks[index].0.to_vec();
            flipped[at] ^= 0x01;
            chunks[index].0 = flipped.into();
            let (chunks, tags) = chunks.into_iter().unzip();
            let tampered = SecureDocument::new(secure.header.clone(), chunks, tags);

            // The in-process session ...
            let mut session = SecureEvaluationSession::open(
                tampered.header.clone(),
                server.document_key(),
                config_for("secretary"),
            )
            .unwrap();
            assert!(is_integrity_failure(&run_local(&tampered, &mut session)));
            // ... and the card refuse the chunk when it arrives.
            let mut runtime = card(&server, &subject, CardProfile::unconstrained());
            provision(&mut runtime, &server, &subject);
            runtime
                .exchange_expect_ok(
                    &Apdu::new(ins::OPEN_SESSION, 0, 0, tampered.header.encode()).unwrap(),
                )
                .unwrap();
            card_at(&mut runtime, &tampered, |i| i as usize == index);
            let (chunk, tag) = tampered.sealed_chunk(index).unwrap();
            let status = push_chunk(&mut runtime, index as u32, &chunk, &tag);
            assert!(matches!(
                AccessControlApplet::error_for(status),
                Some(CoreError::Crypto(CryptoError::IntegrityFailure { .. }))
            ));
        }

        #[test]
        fn full_apdu_round_trip_produces_the_authorized_view() {
            let server = TrustedServer::new(b"community", medical_rules());
            let subject = Subject::new("secretary");
            let doc = hospital_doc(3);
            let secure = SecureDocumentBuilder::new("folder", server.document_key()).build(&doc);
            // The modern profile gives the session enough applet RAM for a
            // 512-byte chunk plus the evaluator working set.
            let mut runtime = card(&server, &subject, CardProfile::modern_secure_element());
            provision(&mut runtime, &server, &subject);
            let view = run_document(&mut runtime, &secure);

            let expected = authorized_view_oracle(
                &doc,
                &medical_rules(),
                &subject,
                None,
                &AccessPolicy::paper(),
            );
            assert_eq!(view, writer::to_string(&expected));
            assert!(view.contains("<name>"));
            assert!(!view.contains("<ssn>"));
            // Channel accounting happened at the APDU layer.
            assert!(runtime.card().ledger_ref().channel.apdu_exchanges > 10);
            assert!(runtime.card().ledger_ref().channel.bytes_to_card > 1000);
        }

        #[test]
        fn applet_session_holds_no_delivered_events() {
            // The doctor sees most of the folder, so nearly every PUSH_CHUNK
            // releases events; `run_document` checks after each one that
            // the session's output channel was drained into the APDU text.
            let server = TrustedServer::new(b"community", medical_rules());
            let subject = Subject::new("doctor");
            let doc = hospital_doc(4);
            let secure = SecureDocumentBuilder::new("folder", server.document_key()).build(&doc);
            let mut runtime = card(&server, &subject, CardProfile::unconstrained());
            provision(&mut runtime, &server, &subject);
            let view = run_document(&mut runtime, &secure);
            let expected = authorized_view_oracle(
                &doc,
                &medical_rules(),
                &subject,
                None,
                &AccessPolicy::paper(),
            );
            assert_eq!(view, writer::to_string(&expected));
            assert!(secure.chunk_count() > 2);
        }

        #[test]
        fn applet_refuses_sessions_without_rules_or_keys() {
            let server = TrustedServer::new(b"community", medical_rules());
            let subject = Subject::new("doctor");
            let doc = hospital_doc(1);
            let secure = SecureDocumentBuilder::new("folder", server.document_key()).build(&doc);
            let mut runtime = card(&server, &subject, CardProfile::modern_secure_element());
            // No rules installed yet.
            let resp = runtime
                .exchange(&Apdu::new(ins::OPEN_SESSION, 0, 0, secure.header.encode()).unwrap());
            assert_eq!(resp.status, StatusWord::CONDITIONS_NOT_SATISFIED);
            // Unknown instruction.
            let resp = runtime.exchange(&Apdu::simple(0x99, 0, 0));
            assert_eq!(resp.status, StatusWord::INS_NOT_SUPPORTED);
            // NEXT_REQUEST without a session.
            let resp = runtime.exchange(&Apdu::simple(ins::NEXT_REQUEST, 0, 0));
            assert_eq!(resp.status, StatusWord::CONDITIONS_NOT_SATISFIED);
        }

        #[test]
        fn rules_that_overflow_the_eeprom_are_refused_and_the_installed_ones_stay() {
            let mut server = TrustedServer::new(b"community", medical_rules());
            let subject = Subject::new("doctor");
            let installed = server.protected_rules_for(&subject);
            let installed_bytes = installed
                .open(&server.rules_key(), None)
                .unwrap()
                .storage_bytes();
            // The card's EEPROM holds exactly the installed rules.
            let profile = CardProfile {
                eeprom_bytes: installed_bytes,
                ..CardProfile::unconstrained()
            };
            let mut runtime = card(&server, &subject, profile);
            provision(&mut runtime, &server, &subject);
            assert_eq!(runtime.card_mut().eeprom().in_use(), installed_bytes);
            // A newer rule set that hides the names no longer fits.
            for object in ["//patient/name", "//patient/address", "//patient/phone"] {
                server
                    .rules_mut()
                    .push(Sign::Deny, "doctor", object)
                    .unwrap();
            }
            let put_rules = |runtime: &mut CardRuntime<AccessControlApplet>, blob: &[u8]| {
                let mut last = ApduResponse::ok_empty();
                for (frag, more) in fragments(&[blob]) {
                    last =
                        runtime.exchange(&Apdu::with_data(ins::PUT_RULES, u8::from(more), 0, frag));
                }
                last.status
            };
            let newer = server.protected_rules_for(&subject).encode();
            assert_eq!(put_rules(&mut runtime, &newer), StatusWord::MEMORY_FAILURE);
            // The installed rules keep their charge and their version floor,
            // and the next session runs under them.
            assert_eq!(runtime.card_mut().eeprom().in_use(), installed_bytes);
            assert_eq!(put_rules(&mut runtime, &installed.encode()), StatusWord::OK);
            assert_eq!(runtime.card_mut().eeprom().in_use(), installed_bytes);
            let doc = hospital_doc(2);
            let secure = SecureDocumentBuilder::new("folder", server.document_key()).build(&doc);
            let view = run_document(&mut runtime, &secure);
            let expected = authorized_view_oracle(
                &doc,
                &medical_rules(),
                &subject,
                None,
                &AccessPolicy::paper(),
            );
            assert_eq!(view, writer::to_string(&expected));
            assert!(view.contains("<name>"));
        }

        #[test]
        fn only_a_failed_integrity_check_reads_back_as_an_soe_error() {
            let integrity = CoreError::from(CryptoError::IntegrityFailure {
                context: "chunk 3".into(),
            });
            let status = AccessControlApplet::status_for(&integrity);
            assert!(matches!(
                AccessControlApplet::error_for(status),
                Some(CoreError::Crypto(CryptoError::IntegrityFailure { .. }))
            ));
            for other in [
                CoreError::from(CryptoError::UnknownKey { key_id: 1 }),
                CoreError::BadState {
                    message: "no rules".into(),
                },
            ] {
                let status = AccessControlApplet::status_for(&other);
                assert!(AccessControlApplet::error_for(status).is_none(), "{other}");
            }
        }

        #[test]
        fn applet_rejects_rules_from_a_foreign_community() {
            let server = TrustedServer::new(b"community", medical_rules());
            let other = TrustedServer::new(b"other-community", medical_rules());
            let subject = Subject::new("doctor");
            let mut runtime = card(&server, &subject, CardProfile::modern_secure_element());
            // Provision legitimate keys.
            let rules_key = server.provision_rules_key(&subject, RULES_KEY_ID);
            runtime
                .exchange_expect_ok(&Apdu::new(ins::PUT_KEY, 0, 0, rules_key.encode()).unwrap())
                .unwrap();
            // Rules sealed by the other community do not verify.
            let foreign = other.protected_rules_for(&subject).encode();
            let mut last = ApduResponse::ok_empty();
            for (frag, more) in fragments(&[&foreign]) {
                last = runtime.exchange(&Apdu::with_data(ins::PUT_RULES, u8::from(more), 0, frag));
            }
            assert_eq!(last.status, StatusWord::SECURITY_NOT_SATISFIED);
        }

        #[test]
        fn spliced_or_truncated_pushes_fail_the_integrity_check() {
            let server = TrustedServer::new(b"community", medical_rules());
            let build = |id: &str, revision: u8| {
                SecureDocumentBuilder::new(id, server.document_key())
                    .chunk_size(128)
                    .build(&folder_revision(revision))
            };
            let current = build("folder", 2);
            let last = current.header.chunk_count - 1;
            for source in [build("annex", 2), build("folder", 1)] {
                let mut runtime = doctor_card(&server, &current);
                let index = card_at(&mut runtime, &current, |i| i >= 2);
                let (chunk, tag) = source.sealed_chunk(index as usize).unwrap();
                assert_eq!(
                    push_chunk(&mut runtime, index, &chunk, &tag),
                    StatusWord::SECURITY_NOT_SATISFIED
                );
            }
            let mut runtime = doctor_card(&server, &current);
            let index = card_at(&mut runtime, &current, |i| i == last);
            let (chunk, tag) = current.sealed_chunk(index as usize).unwrap();
            assert_eq!(
                push_chunk(&mut runtime, index, &chunk[..chunk.len() - 1], &tag),
                StatusWord::SECURITY_NOT_SATISFIED
            );
            assert_eq!(
                push_chunk(&mut runtime, index, &chunk, &tag),
                StatusWord::OK
            );
        }

        #[test]
        fn push_chunk_reassembly_is_bounded_by_one_chunk() {
            let server = TrustedServer::new(b"community", medical_rules());
            let secure = SecureDocumentBuilder::new("folder", server.document_key())
                .chunk_size(128)
                .build(&folder_revision(0));
            let mut runtime = doctor_card(&server, &secure);
            let limit = PUSH_CHUNK_PREFIX + 128;
            let fragment =
                |more: u8, len: usize| Apdu::new(ins::PUSH_CHUNK, more, 0, vec![0u8; len]).unwrap();
            // Fragments up to index + tag + one chunk are accepted...
            let first = runtime.exchange(&fragment(1, 100));
            assert_eq!(first.status, StatusWord::OK);
            let second = runtime.exchange(&fragment(1, limit - 100));
            assert_eq!(second.status, StatusWord::OK);
            // ...and the first byte beyond is refused, not buffered.
            let over = runtime.exchange(&fragment(1, 1));
            assert_eq!(over.status, StatusWord::WRONG_LENGTH);
            assert!(runtime.applet().chunk_buf.is_empty());
            // A payload too short to hold the index and the tag is refused.
            let short = runtime.exchange(&fragment(0, PUSH_CHUNK_PREFIX - 1));
            assert_eq!(short.status, StatusWord::WRONG_LENGTH);
            // The session still takes the genuine chunk afterwards.
            let (chunk, tag) = secure.sealed_chunk(0).unwrap();
            assert_eq!(push_chunk(&mut runtime, 0, &chunk, &tag), StatusWord::OK);
        }
    }
}

/// Seeded property: the skip decision that walks the engine's positions in
/// place decides every summary exactly as the oracle that first collects
/// them into vectors.
///
/// A lost skip leaves the view correct and only makes it slower, so the
/// oracle tests of the view cannot see one; this property compares the
/// decisions themselves. The session asserts the agreement at every summary
/// in test builds; here the four medical subjects run with and without a
/// query, over documents, chunk sizes and index granularities drawn per
/// case. Runs `SDDS_PROP_CASES` cases (default 64); a failure names its
/// case, which reproduces exactly.
#[cfg(test)]
mod skip_props {
    use sdds_crypto::SecretKey;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    use super::{run_local, EngineConfig, SecureEvaluationSession};
    use crate::evaluator::ram_props::{cases, rules, Rng, QUERIES, SUBJECTS};
    use crate::evaluator::EvaluatorConfig;
    use crate::query::Query;
    use crate::rule::RuleSet;
    use crate::secdoc::SecureDocumentBuilder;
    use crate::skipindex::encode::EncoderConfig;

    /// The benchmark's medical policy: no predicate is pending, so every
    /// skip decision reaches the walk over the rule positions.
    fn plain_rules() -> RuleSet {
        RuleSet::parse(
            "+, doctor, //patient\n\
             -, doctor, //patient/ssn\n\
             +, secretary, //patient/name\n\
             +, secretary, //patient/address\n\
             +, researcher, //diagnosis\n\
             +, auditor, //acts/act[@type = \"surgery\"]/report",
        )
        .unwrap()
    }

    #[test]
    fn in_place_skip_decisions_match_the_position_vectors() {
        let key = SecretKey::derive(b"skip-props", "documents");
        let (mut checks, mut skips) = (0, 0);
        for case in 0..cases() {
            let mut rng = Rng(case.wrapping_mul(0x9E37) ^ 0x5EC7);
            let doc = generator::hospital(
                &HospitalProfile {
                    patients: 1 + rng.below(6) as usize,
                    ..HospitalProfile::default()
                },
                &GeneratorConfig {
                    seed: rng.next(),
                    ..GeneratorConfig::default()
                },
            );
            let chunk_size = [64, 128, 256][rng.below(3) as usize];
            let min_index_bytes = [16, 32, 64][rng.below(3) as usize];
            let secure = SecureDocumentBuilder::new("folder", key.clone())
                .chunk_size(chunk_size)
                .encoder_config(EncoderConfig {
                    min_index_bytes,
                    ..EncoderConfig::default()
                })
                .build(&doc);
            let policy = if rng.below(2) == 0 {
                plain_rules()
            } else {
                rules()
            };
            let query = QUERIES[rng.below(QUERIES.len() as u64) as usize];
            for subject in SUBJECTS {
                for query in [None, Some(query)] {
                    let ctx = format!(
                        "case {case}: {subject}, query {query:?}, chunks of {chunk_size} B, \
                         index from {min_index_bytes} B"
                    );
                    let mut evaluator = EvaluatorConfig::new(policy.clone(), subject);
                    if let Some(q) = query {
                        evaluator = evaluator.with_query(Query::parse(q).unwrap());
                    }
                    let mut session = SecureEvaluationSession::open(
                        secure.header.clone(),
                        key.clone(),
                        EngineConfig::new(evaluator),
                    )
                    .unwrap();
                    run_local(&secure, &mut session).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    checks += session.skip_checks;
                    skips += session.stats().skipped_subtrees;
                }
            }
        }
        // Both outcomes were decided, many times.
        assert!(skips > 0, "no subtree was skipped");
        assert!(checks > skips, "no summarised subtree was read");
    }
}
