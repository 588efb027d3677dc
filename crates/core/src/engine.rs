//! The SOE engine: fetch → integrity-check → decrypt → parse → evaluate,
//! under the card's constraints.
//!
//! Two layers are provided:
//!
//! * [`SecureEvaluationSession`] — the incremental state machine that consumes
//!   encrypted chunks one at a time, drives the [`TokenReader`], asks for the
//!   *next chunk it actually needs* (which is how skipping translates into
//!   fewer transferred and decrypted bytes), feeds the streaming evaluator and
//!   exposes the authorized events. It is transport-agnostic: tests and
//!   benches drive it with [`run_local`], the demonstrator drives it through
//!   APDUs.
//! * [`AccessControlApplet`] — the APDU front-end implementing
//!   [`sdds_card::Applet`], i.e. what is actually "installed on the card" in
//!   the demonstrator architecture (Figure 3): key provisioning, rule refresh,
//!   query registration, session management, chunk push and output retrieval.

use std::sync::Arc;

use sdds_card::apdu::{ins, Apdu, ApduResponse, StatusWord};
use sdds_card::{Applet, CardError, CostLedger, SmartCard};
use sdds_crypto::{Aes128, KeyId, PolyAesKey, SecretKey};
use sdds_xml::{Event, TagDict};
use sdds_xpath::tagset::PathSignature;

use crate::assembler::ViewSink;
use crate::conflict::Decision;
use crate::error::CoreError;
use crate::evaluator::{EvaluatorConfig, EvaluatorStats, StreamingEvaluator};
use crate::query::Query;
use crate::rule::{RuleSet, Sign, Subject};
use crate::secdoc::{
    decrypt_chunk, document_cipher, integrity_key, verify_chunk, verify_header, ChunkTag,
    DocumentHeader, SecureDocument, TAG_LEN,
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
    /// Cost counters (bytes transferred, decrypted, hashed, skipped, events).
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
    /// the session after every [`SecureEvaluationSession::supply_chunk`]
    /// should prefer [`SecureEvaluationSession::swap_output`], which keeps
    /// the buffers.
    pub fn take_output(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.output)
    }

    /// Hands the authorized events produced so far over in `buffer`, and
    /// keeps `buffer`'s old allocation (emptied) for the next chunk's
    /// events: a driver that alternates one buffer with the session's never
    /// regrows either.
    pub fn swap_output(&mut self, buffer: &mut Vec<Event>) {
        buffer.clear();
        std::mem::swap(&mut self.output, buffer);
    }

    /// Accounts one chunk transfer on the session ledger (`wire_bytes` served
    /// to the SOE, `produced_bytes` of authorized output shipped back) — the
    /// channel-side counterpart of [`SecureEvaluationSession::supply_chunk`]
    /// used by drivers outside this crate (e.g. the facade's `ViewStream`),
    /// mirroring what [`run_local`] records.
    pub fn record_exchange(&mut self, wire_bytes: usize, produced_bytes: usize) {
        self.stats
            .ledger
            .channel
            .record_exchange(wire_bytes, produced_bytes);
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
        self.stats.ledger.record_decrypt(ciphertext.len());
        self.stats.chunks_fetched += 1;
        self.last_supplied_chunk = Some(index);
        let chunk_start = u64::from(index) * u64::from(self.header.chunk_size);

        // 2. Decrypt in place where the plaintext is read: the reader's window,
        //    or the dictionary buffer while the dictionary is incomplete.
        let (cipher, header) = (&self.cipher, &self.header);
        let decrypt = |window: &mut [u8]| {
            window.copy_from_slice(ciphertext);
            decrypt_chunk(cipher, header, index, window);
        };
        if let Some(reader) = self.reader.as_mut() {
            reader.supply_with(chunk_start, ciphertext.len(), decrypt)?;
        } else {
            let at = self.dict_buf.len();
            self.dict_buf.resize(at + ciphertext.len(), 0);
            decrypt(&mut self.dict_buf[at..]);
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

        // 3. Pump the reader.
        let before = self.events_out();
        self.pump(out)?;
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
                .next_token()?;
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
    loop {
        match session.next_request() {
            SessionRequest::Done => break,
            SessionRequest::NeedChunk(index) => {
                let (chunk, tag) = document.sealed_chunk(index as usize).ok_or_else(|| {
                    CoreError::BadDocument {
                        message: format!("chunk {index} out of range"),
                    }
                })?;
                let wire = chunk.len() + tag.encoded_len();
                session.supply_chunk(index, &chunk, &tag)?;
                session.swap_output(&mut produced);
                let produced_len: usize = produced.iter().map(Event::serialized_len).sum();
                session
                    .stats
                    .ledger
                    .channel
                    .record_exchange(wire, produced_len);
                output.append(&mut produced);
            }
        }
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
// APDU applet
// ---------------------------------------------------------------------------

/// Identifier under which the document key is expected in the card key ring
/// when `P1` of `OPEN_SESSION` does not say otherwise.
pub const DEFAULT_DOC_KEY_ID: u32 = 1;
/// Identifier of the rule-protection key in the card key ring.
pub const RULES_KEY_ID: u32 = 2;
/// Bytes before the ciphertext in a `PUSH_CHUNK` payload: the chunk index
/// (4, little-endian) and the chunk's tag.
pub const PUSH_CHUNK_PREFIX: usize = 4 + TAG_LEN;

/// The on-card access-control applet (Figure 3: "Access rights evaluator",
/// "Integrity control", "Decryption", "Keys" inside the smart card).
pub struct AccessControlApplet {
    /// Subject the card was issued to.
    subject: Subject,
    /// Transport key personalised at issuance (simulated PKI).
    transport_key: SecretKey,
    /// Rules installed via `PUT_RULES`, shared with every session opened
    /// over them.
    rules: Option<Arc<RuleSet>>,
    /// Query registered via `PUT_QUERY`, shared the same way.
    query: Option<Arc<Query>>,
    /// Whether to use the skip index.
    use_skip_index: bool,
    /// Active session.
    session: Option<SecureEvaluationSession>,
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
            .field("subject", &self.subject)
            .field("has_session", &self.session.is_some())
            .finish_non_exhaustive()
    }
}

impl AccessControlApplet {
    /// Creates an applet personalised for `subject`.
    pub fn new(subject: impl Into<String>, transport_key: SecretKey) -> Self {
        AccessControlApplet {
            subject: Subject::new(subject),
            transport_key,
            rules: None,
            query: None,
            use_skip_index: true,
            session: None,
            rules_buf: Vec::new(),
            chunk_buf: Vec::new(),
            output_text: String::new(),
            output_pos: 0,
        }
    }

    /// Disables the skip index for subsequent sessions (baseline runs).
    pub fn set_use_skip_index(&mut self, enabled: bool) {
        self.use_skip_index = enabled;
    }

    /// Statistics of the active session, if any.
    pub fn session_stats(&self) -> Option<&SessionStats> {
        self.session.as_ref().map(SecureEvaluationSession::stats)
    }

    fn status_for(error: &CoreError) -> StatusWord {
        match error {
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

    fn handle_put_key(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        match KeyProvisioning::decode(&command.data) {
            Ok(provisioning) => match provisioning.unwrap_key(&self.transport_key) {
                Ok(key) => {
                    if card
                        .keys()
                        .install(KeyId(provisioning.key_id), key)
                        .is_err()
                    {
                        return ApduResponse::error(StatusWord::MEMORY_FAILURE);
                    }
                    ApduResponse::ok_empty()
                }
                Err(_) => ApduResponse::error(StatusWord::SECURITY_NOT_SATISFIED),
            },
            Err(_) => ApduResponse::error(StatusWord::WRONG_LENGTH),
        }
    }

    fn handle_put_rules(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        self.rules_buf.extend_from_slice(&command.data);
        if command.p1 == 1 {
            // More fragments follow.
            return ApduResponse::ok_empty();
        }
        let payload = std::mem::take(&mut self.rules_buf);
        let protected = match ProtectedRules::decode(&payload) {
            Ok(p) => p,
            Err(_) => return ApduResponse::error(StatusWord::WRONG_LENGTH),
        };
        let rules_key = match card.keys_ref().get(KeyId(RULES_KEY_ID)) {
            Ok(k) => k.clone(),
            Err(_) => return ApduResponse::error(StatusWord::NOT_FOUND),
        };
        let minimum = self.rules.as_ref().map(|rules| rules.version());
        match protected.open(&rules_key, minimum) {
            Ok(rules) => {
                // Rules live in EEPROM (persistent across sessions).
                if let Some(previous) = &self.rules {
                    card.eeprom().free(previous.storage_bytes());
                }
                if card.eeprom().store(rules.storage_bytes()).is_err() {
                    return ApduResponse::error(StatusWord::MEMORY_FAILURE);
                }
                self.rules = Some(Arc::new(rules));
                ApduResponse::ok_empty()
            }
            Err(e) => ApduResponse::error(Self::status_for(&e)),
        }
    }

    fn handle_put_query(&mut self, command: &Apdu) -> ApduResponse {
        match std::str::from_utf8(&command.data)
            .map_err(|_| ())
            .and_then(|text| Query::parse(text).map_err(|_| ()))
        {
            Ok(query) => {
                self.query = Some(Arc::new(query));
                ApduResponse::ok_empty()
            }
            Err(()) => ApduResponse::error(StatusWord::NOT_FOUND),
        }
    }

    fn handle_open_session(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        let Some(rules) = self.rules.as_ref().map(Arc::clone) else {
            return ApduResponse::error(StatusWord::CONDITIONS_NOT_SATISFIED);
        };
        let header = match DocumentHeader::decode(&command.data) {
            Ok(h) => h,
            Err(_) => return ApduResponse::error(StatusWord::WRONG_LENGTH),
        };
        let key_id = if command.p1 == 0 {
            DEFAULT_DOC_KEY_ID
        } else {
            u32::from(command.p1)
        };
        let key = match card.keys_ref().get(KeyId(key_id)) {
            Ok(k) => k.clone(),
            Err(_) => return ApduResponse::error(StatusWord::NOT_FOUND),
        };
        let mut evaluator_config = EvaluatorConfig::new(rules, self.subject.name());
        // P2 selects the conflict-resolution default: 0 = closed world (the
        // paper's policy), 1 = open world (used by dissemination scenarios
        // where only negative rules carve content out).
        if command.p2 == 1 {
            evaluator_config = evaluator_config.with_policy(crate::conflict::AccessPolicy::open());
        }
        if let Some(query) = &self.query {
            evaluator_config = evaluator_config.with_query(Arc::clone(query));
        }
        let mut config =
            EngineConfig::new(evaluator_config).with_ram_budget(card.profile().ram_bytes);
        config.use_skip_index = self.use_skip_index;
        match SecureEvaluationSession::open(header, key, config) {
            Ok(session) => {
                card.reset_session();
                self.session = Some(session);
                self.output_text.clear();
                self.output_pos = 0;
                self.chunk_buf.clear();
                ApduResponse::ok_empty()
            }
            Err(e) => ApduResponse::error(Self::status_for(&e)),
        }
    }

    fn handle_next_request(&mut self) -> ApduResponse {
        let Some(session) = &self.session else {
            return ApduResponse::error(StatusWord::CONDITIONS_NOT_SATISFIED);
        };
        let value = match session.next_request() {
            SessionRequest::NeedChunk(i) => i,
            SessionRequest::Done => u32::MAX,
        };
        ApduResponse::ok(&value.to_le_bytes())
    }

    fn handle_push_chunk(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        let Some(session) = self.session.as_mut() else {
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
        let response = Self::supply_payload(session, card, &self.chunk_buf, &mut self.output_text);
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
    /// (32), ciphertext — to the session, which renders the events it
    /// releases onto `output`. On failure `output` is left as it was.
    fn supply_payload(
        session: &mut SecureEvaluationSession,
        card: &mut SmartCard,
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
        match session.supply_chunk_into(index, ciphertext, &tag, output) {
            Ok(delivered) => {
                // Mirror the session ledger into the card ledger so that card
                // level reports include on-card crypto work.
                card.ledger().record_decrypt(ciphertext.len());
                card.ledger().record_hash(ciphertext.len());
                card.ledger().record_events(delivered);
                Ok(())
            }
            Err(e) => {
                output.truncate(rendered);
                Err(Self::status_for(&e))
            }
        }
    }

    fn handle_get_output(&mut self) -> ApduResponse {
        let available = &self.output_text.as_bytes()[self.output_pos..];
        let take = available.len().min(250);
        self.output_pos += take;
        ApduResponse::ok(&available[..take])
    }

    fn handle_close_session(&mut self) -> ApduResponse {
        match self.session.take() {
            Some(session) => {
                let stats = session.stats();
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
                self.output_text.clear();
                self.output_pos = 0;
                ApduResponse::ok(&data)
            }
            None => ApduResponse::error(StatusWord::CONDITIONS_NOT_SATISFIED),
        }
    }
}

impl Applet for AccessControlApplet {
    fn process(&mut self, card: &mut SmartCard, command: &Apdu) -> ApduResponse {
        match command.ins {
            ins::PUT_KEY => self.handle_put_key(card, command),
            ins::PUT_RULES => self.handle_put_rules(card, command),
            ins::PUT_QUERY => self.handle_put_query(command),
            ins::OPEN_SESSION => self.handle_open_session(card, command),
            ins::NEXT_REQUEST => self.handle_next_request(),
            ins::PUSH_CHUNK => self.handle_push_chunk(card, command),
            ins::GET_OUTPUT => self.handle_get_output(),
            ins::CLOSE_SESSION => self.handle_close_session(),
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

    // -- Applet level ------------------------------------------------------

    mod applet {
        use super::*;
        use crate::session::TrustedServer;
        use sdds_card::apdu::fragments;
        use sdds_card::{CardProfile, CardRuntime};

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
            let applet = AccessControlApplet::new("doctor", server.transport_key_for(&subject));
            let mut runtime = CardRuntime::new(CardProfile::unconstrained(), applet);
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
                let session = runtime.applet().session.as_ref().unwrap();
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
        fn full_apdu_round_trip_produces_the_authorized_view() {
            let server = TrustedServer::new(b"community", medical_rules());
            let subject = Subject::new("secretary");
            let doc = hospital_doc(3);
            let secure = SecureDocumentBuilder::new("folder", server.document_key()).build(&doc);

            let applet = AccessControlApplet::new("secretary", server.transport_key_for(&subject));
            // The modern profile gives the session enough applet RAM for a
            // 512-byte chunk plus the evaluator working set.
            let mut runtime = CardRuntime::new(CardProfile::modern_secure_element(), applet);
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
            let applet = AccessControlApplet::new("doctor", server.transport_key_for(&subject));
            let mut runtime = CardRuntime::new(CardProfile::unconstrained(), applet);
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
            let applet = AccessControlApplet::new("doctor", server.transport_key_for(&subject));
            let mut runtime = CardRuntime::new(CardProfile::modern_secure_element(), applet);
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
        fn applet_rejects_rules_from_a_foreign_community() {
            let server = TrustedServer::new(b"community", medical_rules());
            let other = TrustedServer::new(b"other-community", medical_rules());
            let subject = Subject::new("doctor");
            let applet = AccessControlApplet::new("doctor", server.transport_key_for(&subject));
            let mut runtime = CardRuntime::new(CardProfile::modern_secure_element(), applet);
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
