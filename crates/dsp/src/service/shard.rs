//! FNV-sharded, concurrently accessible document store with hot-document
//! replication.
//!
//! The single-tenant [`DspStore`] sits behind one `&mut self` API: every
//! request of every client serializes on the same structure, which is exactly
//! the bottleneck the E10 experiment measures. [`ShardedStore`] splits the
//! document space over `N` shards keyed by the FNV-1a hash of the document id;
//! each shard holds its own [`DspStore`] behind its own `RwLock`, so requests
//! for documents on different shards proceed concurrently.
//!
//! **Serving takes the shard's *read* lock.** The only state a serve mutates
//! is its shard's serving counters, and those are relaxed atomics (the
//! shard's [`ShardObs`] cells) — so same-shard readers proceed concurrently too,
//! and only the write paths (`put_document`, rule-blob sync, replication,
//! `reset_stats`) take the write lock. The DSP is a read-mostly content
//! server: millions of card-holders pull, publishers rarely push.
//!
//! **Hot documents replicate.** A single document all clients hammer still
//! queues on one shard's serial capacity, whatever the shard count. The store
//! therefore keeps a replica directory: a document that is pinned
//! ([`ShardedStore::pin_replicas`], reachable through the facade's
//! `Publisher::builder().replicate(n)`) gets read-only clones on further
//! shards, and
//! reads spread over the copies deterministically (chunk index / subject hash
//! picks the copy, so per-shard accounting is interleaving independent).
//! Republishing **invalidates the clones before the new revision lands** and
//! re-replicates pinned documents afterwards, so a replica can never serve a
//! revision its home shard has abandoned; a reader that raced the
//! invalidation falls back to the home shard. On top of that, every fetch can
//! carry a **pinned revision** (its `pinned` argument): a mismatch — e.g. a
//! republish in the middle of a card session — returns the typed
//! [`WireError::StaleRevision`] instead of letting chunks of the new upload
//! fail their tag check against the old header.
//!
//! Global statistics are the per-shard counters summed on read
//! ([`ShardedStore::stats`]).

use sdds_sync::sync::atomic::{AtomicUsize, Ordering};
use sdds_sync::sync::{Arc, RwLock, RwLockExt};
use std::collections::HashMap;

use sdds_wire::{ChunkTag, DocumentHeader, SecureDocument, WireError};

use crate::obs::{ServeObs, ServerStats, ShardObs};
use crate::store::{DocumentRecord, DspStore};

// ---------------------------------------------------------------------------
// The one serving path of the workspace: every header, chunk and rule blob —
// from a home shard or a replica — is served and accounted by these helpers,
// on the serving shard's counters.
// ---------------------------------------------------------------------------

/// Rejects a serve whose session pinned a revision the record no longer has.
fn check_revision(record: &DocumentRecord, pinned: Option<u64>) -> Result<(), WireError> {
    match pinned {
        Some(rev) if record.revision != rev => Err(WireError::StaleRevision {
            doc_id: record.document.header.doc_id.clone(),
            pinned: rev,
            current: record.revision,
        }),
        _ => Ok(()),
    }
}

/// Serves a document header out of `record`, accounting it on `obs`.
fn serve_header(
    record: &DocumentRecord,
    obs: &ShardObs,
    pinned: Option<u64>,
) -> Result<DocumentHeader, WireError> {
    check_revision(record, pinned)?;
    // One header fetch per card session (the SOE caches it); chunk serves, the
    // per-event path, share ciphertext without copying.
    let header = record.document.header.clone();
    obs.count_header(header.encoded_len());
    Ok(header)
}

/// Serves one encrypted chunk and its tag out of `record`.
///
/// Nothing is copied or built: the returned [`Arc`] aliases the stored
/// chunk and the tag is a 32-byte `Copy`, so the per-event cost is a
/// refcount bump regardless of the chunk size.
fn serve_chunk(
    record: &DocumentRecord,
    obs: &ShardObs,
    index: u32,
    pinned: Option<u64>,
) -> Result<(Arc<[u8]>, ChunkTag), WireError> {
    check_revision(record, pinned)?;
    let doc_id = &record.document.header.doc_id;
    let (chunk, tag) = record
        .document
        .sealed_chunk(index as usize)
        .ok_or_else(|| WireError::ChunkOutOfRange {
            doc_id: doc_id.clone(),
            index,
        })?;
    obs.count_chunk(chunk.len() + tag.encoded_len());
    Ok((chunk, tag))
}

/// Serves the protected rule blob of `subject` out of `record`. The blob is
/// `Arc`-shared with the store, so a serve never copies it.
fn serve_rules(
    record: &DocumentRecord,
    obs: &ShardObs,
    subject: &str,
    pinned: Option<u64>,
) -> Result<Arc<[u8]>, WireError> {
    check_revision(record, pinned)?;
    let blob = record
        .rules
        .get(subject)
        .ok_or_else(|| WireError::NoRulesForSubject {
            doc_id: record.document.header.doc_id.clone(),
            subject: subject.to_owned(),
        })?;
    obs.count_rules(blob.len());
    Ok(Arc::clone(blob))
}

/// FNV-1a over the document id — stable and good enough to spread ids of
/// the form `folder-<n>` evenly over a handful of shards. It is the
/// workspace's FNV-1a hasher of the XML crate, written out here so the DSP
/// depends on no cleartext-side crate
/// (`shard_placement_matches_the_workspace_fnv1a` pins the equality).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Replica directory entry of one document.
#[derive(Debug)]
struct ReplicaEntry {
    /// Shards serving this document; `shards[0]` is the home shard, the rest
    /// hold read-only clones. Clone staleness needs no revision bookkeeping
    /// here: republishing physically removes the clones before the new
    /// revision lands, and pinned fetches check the served record itself.
    shards: Vec<usize>,
    /// Replication degree requested by the publisher pin; the document
    /// re-replicates to it after every republish.
    pinned: usize,
}

/// One shard: a plain store and read-only clones of hot documents homed on
/// *other* shards (its serving counters live in the store's [`ServeObs`]).
/// Clones of one document share one heap allocation (`Arc`) until a
/// rule-blob sync diverges them.
#[derive(Debug, Default)]
struct Shard {
    store: DspStore,
    replicas: HashMap<String, Arc<DocumentRecord>>,
}

/// A document store sharded by FNV of the document id, with optional
/// hot-document replication (see the module docs).
#[derive(Debug)]
pub struct ShardedStore {
    shards: Vec<RwLock<Shard>>,
    /// Replica directory: which shards serve which document. Lock order is
    /// always directory → shard, and serves drop the directory lock before
    /// taking a shard lock, so the two levels cannot deadlock.
    directory: RwLock<HashMap<String, ReplicaEntry>>,
    /// Documents currently serving from more than one shard. The serve fast
    /// path checks this before touching the directory lock, so a store with
    /// no replication shares no routing state between shards at all.
    replicated: AtomicUsize,
    /// Serving telemetry: the per-shard byte accounting the capacity model
    /// reads (counted on detached bundles too), plus latency spans, routing
    /// and error counters, which only live bundles record.
    obs: ServeObs,
}

impl ShardedStore {
    /// Creates a store with `shards` shards. A count of `0` is **clamped to
    /// 1** — a store with no shards cannot hold anything, so the degenerate
    /// request silently becomes the single-tenant layout (the facade's
    /// `Publisher::builder().shards(0)` rejects it at build time instead;
    /// `zero_shards_clamps_to_one` pins the clamp).
    pub fn new(shards: usize) -> Self {
        let count = shards.max(1);
        ShardedStore {
            shards: (0..count).map(|_| RwLock::new(Shard::default())).collect(),
            directory: RwLock::new(HashMap::new()),
            replicated: AtomicUsize::new(0),
            obs: ServeObs::detached(count),
        }
    }

    /// Attaches registry-backed serving telemetry (see
    /// [`crate::obs::DspObs`]), so the registry snapshot reports the same
    /// counters [`ShardedStore::stats`] sums. Call at construction time,
    /// before any document is served.
    pub fn with_obs(self, obs: ServeObs) -> Self {
        ShardedStore { obs, ..self }
    }

    /// The serving telemetry handles.
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index of the home shard owning `doc_id`.
    pub fn shard_of(&self, doc_id: &str) -> usize {
        (fnv1a(doc_id.as_bytes()) % self.shards.len() as u64) as usize
    }

    /// Shards currently serving `doc_id` (home first). A single-element
    /// answer means the document is not replicated.
    pub fn replica_shards(&self, doc_id: &str) -> Vec<usize> {
        self.directory
            .read_np()
            .get(doc_id)
            .map(|entry| entry.shards.clone())
            .unwrap_or_else(|| vec![self.shard_of(doc_id)])
    }

    /// Picks the shard that serves this request: the home shard, unless the
    /// document is replicated — then `salt` (chunk index, subject hash)
    /// selects a copy, deterministically per request, so per-shard byte
    /// accounting does not depend on thread interleaving.
    fn route(&self, doc_id: &str, salt: u64) -> usize {
        // Fast path: with nothing replicated anywhere, readers never touch
        // the (global) directory lock — shards stay fully independent.
        if self.replicated.load(Ordering::Relaxed) == 0 {
            return self.shard_of(doc_id);
        }
        let directory = self.directory.read_np();
        match directory.get(doc_id) {
            Some(entry) if entry.shards.len() > 1 => {
                entry.shards[(salt % entry.shards.len() as u64) as usize]
            }
            _ => self.shard_of(doc_id),
        }
    }

    /// Serves one request under a shard **read** lock: routed to a replica
    /// when the document is hot, falling back to the home shard when the
    /// routed clone vanished (republish invalidation won the race).
    fn serve<T>(
        &self,
        doc_id: &str,
        salt: u64,
        serve: impl Fn(&DocumentRecord, &ShardObs) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let started = if self.obs.live {
            self.obs.recorder.now_nanos()
        } else {
            0
        };
        let home = self.shard_of(doc_id);
        let routed = self.route(doc_id, salt);
        let (served, served_on) = self.serve_routed(doc_id, home, routed, serve);
        self.obs
            .finish_serve(served_on, started, served.as_ref().err());
        served
    }

    /// The routing body of [`ShardedStore::serve`], split out so the serve
    /// wrapper can account latency and errors against the shard that
    /// actually answered (returned alongside the result).
    fn serve_routed<T>(
        &self,
        doc_id: &str,
        home: usize,
        routed: usize,
        serve: impl Fn(&DocumentRecord, &ShardObs) -> Result<T, WireError>,
    ) -> (Result<T, WireError>, usize) {
        if routed != home {
            let shard = self.shards[routed].read_np();
            if let Some(record) = shard.replicas.get(doc_id) {
                let served = serve(record.as_ref(), self.obs.shard(routed));
                drop(shard);
                if self.obs.live {
                    self.obs.shard(routed).replica_routes.inc();
                }
                return (served, routed);
            }
        }
        let shard = self.shards[home].read_np();
        let Some(record) = shard.store.get(doc_id) else {
            return (
                Err(WireError::NotFound {
                    doc_id: doc_id.to_owned(),
                }),
                home,
            );
        };
        let served = serve(record, self.obs.shard(home));
        drop(shard);
        (served, home)
    }

    /// Clones `doc_id` so `copies` shards serve it (clamped to `[1,
    /// shard_count]`), with the replica directory write lock held: one deep
    /// clone of the home record, shared by every copy behind an `Arc`,
    /// installed on the following shards (wrapping), then the new route and
    /// the pin degree are published. No-op for unknown documents.
    ///
    /// Holding the directory lock across the installation is deliberate: it
    /// serializes replication against republish invalidation, which is what
    /// makes "a clone can never serve an abandoned revision" a lock-order
    /// argument instead of a data race. Writes are rare on this read-mostly
    /// server, and the held-lock work is one record clone plus `copies`
    /// `Arc` clones.
    fn replicate_locked(
        &self,
        directory: &mut HashMap<String, ReplicaEntry>,
        doc_id: &str,
        copies: usize,
    ) {
        let copies = copies.clamp(1, self.shards.len());
        let home = self.shard_of(doc_id);
        let record = {
            let shard = self.shards[home].read_np();
            match shard.store.get(doc_id) {
                Some(record) => Arc::new(record.clone()),
                None => return,
            }
        };
        let mut shards = vec![home];
        for offset in 1..copies {
            let target = (home + offset) % self.shards.len();
            self.shards[target]
                .write_np()
                .replicas
                .insert(doc_id.to_owned(), Arc::clone(&record));
            shards.push(target);
        }
        let entry = directory.entry(doc_id.to_owned()).or_insert(ReplicaEntry {
            shards: vec![home],
            pinned: copies,
        });
        if entry.shards.len() <= 1 && shards.len() > 1 {
            self.replicated.fetch_add(1, Ordering::Relaxed);
        }
        entry.shards = shards;
        entry.pinned = copies;
    }

    /// Removes every clone of `doc_id` and routes readers back to the home
    /// shard, with the directory write lock held. Returns the pin degree so
    /// a republish can re-replicate.
    fn invalidate_locked(
        &self,
        directory: &mut HashMap<String, ReplicaEntry>,
        doc_id: &str,
    ) -> Option<usize> {
        let entry = directory.get_mut(doc_id)?;
        for &shard in entry.shards.iter().skip(1) {
            self.shards[shard].write_np().replicas.remove(doc_id);
        }
        if entry.shards.len() > 1 {
            self.replicated.fetch_sub(1, Ordering::Relaxed);
        }
        entry.shards.truncate(1);
        Some(entry.pinned)
    }

    /// Pins `doc_id` to `copies` serving shards (clamped to `[1,
    /// shard_count]`): replicates immediately and re-replicates after every
    /// republish. Fails with [`WireError::NotFound`] for unknown documents.
    pub fn pin_replicas(&self, doc_id: &str, copies: usize) -> Result<(), WireError> {
        if !self.contains(doc_id) {
            return Err(WireError::NotFound {
                doc_id: doc_id.to_owned(),
            });
        }
        let mut directory = self.directory.write_np();
        self.invalidate_locked(&mut directory, doc_id);
        self.replicate_locked(&mut directory, doc_id, copies);
        Ok(())
    }

    /// Uploads (or replaces) a document on its shard, keeping stored rule
    /// blobs (see [`DspStore::put_document`]).
    ///
    /// Replicas are invalidated **before** the new revision lands (readers
    /// route back to the home shard for the duration), and pinned documents
    /// re-replicate the new revision afterwards — so no clone ever serves a
    /// revision the home shard has abandoned.
    pub fn put_document(&self, document: SecureDocument) {
        let doc_id = document.header.doc_id.clone();
        let mut directory = self.directory.write_np();
        let pinned = self.invalidate_locked(&mut directory, &doc_id);
        self.shards[self.shard_of(&doc_id)]
            .write_np()
            .store
            .put_document(document);
        if let Some(copies) = pinned {
            self.replicate_locked(&mut directory, &doc_id, copies);
        }
    }

    /// Stores the protected rule blob of `subject` for `doc_id` — on the
    /// home shard and on every replica, so a routed rule fetch cannot see a
    /// blob older than the home shard's. All copies share one allocation.
    pub fn put_rules(
        &self,
        doc_id: &str,
        subject: &str,
        rules: impl Into<Arc<[u8]>>,
    ) -> Result<(), WireError> {
        let rules: Arc<[u8]> = rules.into();
        let directory = self.directory.read_np();
        self.shards[self.shard_of(doc_id)]
            .write_np()
            .store
            .put_rules(doc_id, subject, Arc::clone(&rules))?;
        if let Some(entry) = directory.get(doc_id) {
            for &shard in entry.shards.iter().skip(1) {
                if let Some(record) = self.shards[shard].write_np().replicas.get_mut(doc_id) {
                    // Clones share one allocation until a sync diverges them;
                    // `make_mut` copies-on-write for this shard only.
                    Arc::make_mut(record)
                        .rules
                        .insert(subject.to_owned(), Arc::clone(&rules));
                }
            }
        }
        Ok(())
    }

    /// Fetches a document header together with the upload revision it
    /// belongs to, for a session to pin: later fetches carrying that
    /// revision as `pinned` fail with [`WireError::StaleRevision`] if the
    /// document is republished mid-session.
    ///
    /// `salt` picks the copy of a replicated document. Sessions carry
    /// distinct salts (`crate::DspService::next_session_salt`), so identical
    /// header requests from different sessions spread over a hot document's
    /// replicas instead of all queueing on one copy; `0` always routes to the
    /// same copy.
    pub fn fetch_header(
        &self,
        doc_id: &str,
        pinned: Option<u64>,
        salt: u64,
    ) -> Result<(DocumentHeader, u64), WireError> {
        self.serve(doc_id, salt, |record, obs| {
            serve_header(record, obs, pinned).map(|header| (header, record.revision))
        })
    }

    /// Fetches one encrypted chunk and its tag, failing with
    /// [`WireError::StaleRevision`] when `pinned` is set and the serving
    /// record no longer has that revision.
    ///
    /// Replicated documents route chunk `i` to copy `(salt + i + 1) %
    /// copies` — the `+ 1` keeps the first chunk of an unsalted session off
    /// the home copy, which already serves its header.
    pub fn fetch_chunk(
        &self,
        doc_id: &str,
        index: u32,
        pinned: Option<u64>,
        salt: u64,
    ) -> Result<(Arc<[u8]>, ChunkTag), WireError> {
        self.serve(
            doc_id,
            salt.wrapping_add(u64::from(index) + 1),
            |record, obs| serve_chunk(record, obs, index, pinned),
        )
    }

    /// Fetches the protected rule blob of `subject` for `doc_id`, failing
    /// with [`WireError::StaleRevision`] when `pinned` is set and the serving
    /// record no longer has that revision. Replicated documents route by
    /// `salt` plus the subject hash.
    pub fn fetch_rules(
        &self,
        doc_id: &str,
        subject: &str,
        pinned: Option<u64>,
        salt: u64,
    ) -> Result<Arc<[u8]>, WireError> {
        self.serve(
            doc_id,
            salt.wrapping_add(fnv1a(subject.as_bytes())),
            |record, obs| serve_rules(record, obs, subject, pinned),
        )
    }

    /// Merged statistics of every shard: the per-shard counters summed.
    pub fn stats(&self) -> ServerStats {
        self.shard_snapshots()
            .fold(ServerStats::default(), |total, shard| ServerStats {
                requests: total.requests + shard.requests,
                bytes_served: total.bytes_served + shard.bytes_served,
                chunks_served: total.chunks_served + shard.chunks_served,
                rule_blobs_served: total.rule_blobs_served + shard.rule_blobs_served,
                rule_bytes_served: total.rule_bytes_served + shard.rule_bytes_served,
            })
    }

    /// Per-shard statistics, indexed by shard (the capacity model reads the
    /// busiest shard off this).
    pub fn shard_stats(&self) -> Vec<ServerStats> {
        self.shard_snapshots().collect()
    }

    /// Each shard's serving counters, read under the shard's read lock.
    fn shard_snapshots(&self) -> impl Iterator<Item = ServerStats> + '_ {
        self.shards.iter().enumerate().map(|(index, shard)| {
            let _shard = shard.read_np();
            self.obs.shard(index).stats()
        })
    }

    /// Resets the statistics of every shard, each under its shard's write
    /// lock so no in-flight serve is torn across the reset.
    pub fn reset_stats(&self) {
        for (index, shard) in self.shards.iter().enumerate() {
            let _shard = shard.write_np();
            self.obs.shard(index).reset_stats();
        }
    }

    /// Upload revision of `doc_id` (`None` when the document is not stored).
    pub fn revision(&self, doc_id: &str) -> Option<u64> {
        self.shards[self.shard_of(doc_id)]
            .read_np()
            .store
            .get(doc_id)
            .map(|record| record.revision)
    }

    /// True when `doc_id` is stored on its home shard.
    pub fn contains(&self, doc_id: &str) -> bool {
        self.revision(doc_id).is_some()
    }

    /// Ids of every stored document, across shards (sorted; replicas are not
    /// inventory and are not listed).
    pub fn document_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.read_np().store.document_ids())
            .collect();
        ids.sort();
        ids
    }

    /// Number of stored documents, across shards (replicas not counted).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read_np().store.len()).sum()
    }

    /// True when no shard stores any document.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total ciphertext bytes stored, across shards (replicas not counted).
    pub fn stored_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read_np().store.stored_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_core::rule::RuleSet;
    use sdds_core::secdoc::{integrity_key, verify_chunk, SecureDocumentBuilder};
    use sdds_core::session::ProtectedRules;
    use sdds_crypto::SecretKey;
    use sdds_xml::generator::{self, GeneratorConfig, HospitalProfile};

    /// Whether `tag` vouches for `chunk` as chunk `index` of the document
    /// `header` describes, under the key every test document is built with.
    fn tag_verifies(header: &DocumentHeader, index: u32, chunk: &[u8], tag: &ChunkTag) -> bool {
        let integrity = integrity_key(&SecretKey::derive(b"s", "k").deriver());
        verify_chunk(&integrity, header, index, chunk, tag).is_ok()
    }

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

    fn sealed_rules(expr: &str) -> ProtectedRules {
        ProtectedRules::seal(
            &RuleSet::parse(expr).unwrap(),
            &SecretKey::derive(b"s", "rules"),
        )
    }

    #[test]
    fn shard_placement_matches_the_workspace_fnv1a() {
        use std::hash::Hasher;
        let store = ShardedStore::new(7);
        for id in [
            "",
            "a",
            "folder-0",
            "folder-41",
            "doc-3",
            "hospital",
            "é-folder",
        ] {
            let mut reference = sdds_xml::symbols::Fnv1a::default();
            reference.write(id.as_bytes());
            assert_eq!(fnv1a(id.as_bytes()), reference.finish(), "{id:?}");
            assert_eq!(store.shard_of(id), (reference.finish() % 7) as usize);
        }
    }

    #[test]
    fn documents_spread_over_shards_and_serve_like_one_store() {
        let store = ShardedStore::new(4);
        assert_eq!(store.shard_count(), 4);
        assert!(store.is_empty());
        for i in 0..16 {
            store.put_document(document(&format!("doc-{i}")));
        }
        assert_eq!(store.len(), 16);
        assert_eq!(store.document_ids().len(), 16);
        assert!(store.stored_bytes() > 0);
        // At least two distinct shards hold documents (FNV spreads 16 ids).
        let occupied: Vec<usize> = (0..16)
            .map(|i| store.shard_of(&format!("doc-{i}")))
            .collect();
        assert!(occupied.iter().any(|&s| s != occupied[0]));

        let (header, _) = store.fetch_header("doc-3", None, 0).unwrap();
        let (chunk, tag) = store.fetch_chunk("doc-3", 0, None, 0).unwrap();
        assert!(tag_verifies(&header, 0, &chunk, &tag));
        assert!(store.fetch_header("doc-99", None, 0).is_err());
        assert!(store.fetch_chunk("doc-3", 9999, None, 0).is_err());
    }

    #[test]
    fn missing_objects_get_typed_errors() {
        let store = ShardedStore::new(2);
        store.put_document(document("here"));
        assert!(matches!(
            store.fetch_header("gone", None, 0),
            Err(WireError::NotFound { doc_id }) if doc_id == "gone"
        ));
        assert!(matches!(
            store.fetch_rules("here", "stranger", None, 0),
            Err(WireError::NoRulesForSubject { doc_id, subject })
                if doc_id == "here" && subject == "stranger"
        ));
    }

    #[test]
    fn pinned_fetches_reject_a_republished_revision() {
        let store = ShardedStore::new(2);
        store.put_document(document("doc"));
        let (header, revision) = store.fetch_header("doc", None, 0).unwrap();
        assert_eq!(revision, 0);
        let (chunk, tag) = store.fetch_chunk("doc", 0, Some(revision), 0).unwrap();
        assert!(tag_verifies(&header, 0, &chunk, &tag));

        store.put_document(document("doc"));
        assert!(matches!(
            store.fetch_chunk("doc", 0, Some(revision), 0),
            Err(WireError::StaleRevision {
                pinned: 0,
                current: 1,
                ..
            })
        ));
        // A fresh pin serves the new revision.
        let (_, revision) = store.fetch_header("doc", None, 0).unwrap();
        assert_eq!(revision, 1);
        assert!(store.fetch_chunk("doc", 0, Some(revision), 0).is_ok());
    }

    #[test]
    fn per_shard_stats_merge_on_read() {
        let store = ShardedStore::new(4);
        for i in 0..8 {
            store.put_document(document(&format!("doc-{i}")));
        }
        store
            .put_rules("doc-0", "doctor", &sealed_rules("+, doctor, //patient"))
            .unwrap();

        for i in 0..8 {
            store.fetch_header(&format!("doc-{i}"), None, 0).unwrap();
            store.fetch_chunk(&format!("doc-{i}"), 0, None, 0).unwrap();
        }
        let blob = store.fetch_rules("doc-0", "doctor", None, 0).unwrap();

        let merged = store.stats();
        assert_eq!(merged.requests, 17);
        assert_eq!(merged.chunks_served, 8);
        assert_eq!(merged.rule_blobs_served, 1);
        assert_eq!(merged.rule_bytes_served, blob.len());
        // The merge really is the sum of the per-shard counters.
        let per_shard = store.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(
            per_shard.iter().map(|s| s.requests).sum::<usize>(),
            merged.requests
        );
        assert_eq!(
            per_shard.iter().map(|s| s.bytes_served).sum::<usize>(),
            merged.bytes_served
        );

        store.reset_stats();
        assert_eq!(store.stats(), ServerStats::default());
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let store = ShardedStore::new(0);
        assert_eq!(store.shard_count(), 1);
        store.put_document(document("only"));
        assert_eq!(store.shard_of("only"), 0);
        assert!(store.fetch_header("only", None, 0).is_ok());
    }

    #[test]
    fn pinned_replicas_spread_serving_over_shards() {
        let store = ShardedStore::new(8);
        store.put_document(document("hot"));
        assert_eq!(store.replica_shards("hot").len(), 1);
        store.pin_replicas("hot", 4).unwrap();
        let serving = store.replica_shards("hot");
        assert_eq!(serving.len(), 4);
        assert_eq!(serving[0], store.shard_of("hot"));

        let (header, _) = store.fetch_header("hot", None, 0).unwrap();
        for index in 0..header.chunk_count {
            let (chunk, tag) = store.fetch_chunk("hot", index, None, 0).unwrap();
            assert!(tag_verifies(&header, index, &chunk, &tag));
        }
        // More than one shard accounted traffic for the single document.
        let active = store
            .shard_stats()
            .iter()
            .filter(|s| s.requests > 0)
            .count();
        assert!(active > 1, "replication must spread serving, got {active}");
        // The spread is deterministic: chunk index picks the copy.
        let first_round = store.shard_stats();
        store.reset_stats();
        store.fetch_header("hot", None, 0).unwrap();
        for index in 0..header.chunk_count {
            store.fetch_chunk("hot", index, None, 0).unwrap();
        }
        assert_eq!(store.shard_stats(), first_round);

        // Replicas are not inventory.
        assert_eq!(store.len(), 1);
        assert_eq!(store.document_ids(), vec!["hot"]);

        assert!(matches!(
            store.pin_replicas("gone", 4),
            Err(WireError::NotFound { .. })
        ));
    }

    #[test]
    fn session_salts_spread_identical_header_fetches_over_replicas() {
        let store = ShardedStore::new(8);
        store.put_document(document("hot"));
        store.pin_replicas("hot", 4).unwrap();
        let serving = store.replica_shards("hot");
        assert_eq!(serving.len(), 4);

        // Unsalted: every identical header fetch queues on the same copy.
        for _ in 0..16 {
            store.fetch_header("hot", None, 0).unwrap();
        }
        let unsalted = store
            .shard_stats()
            .iter()
            .filter(|s| s.requests > 0)
            .count();
        assert_eq!(unsalted, 1, "salt 0 always routes to one copy");

        // Salted per session: the same request spreads over every copy.
        store.reset_stats();
        for salt in 0..16u64 {
            store.fetch_header("hot", None, salt).unwrap();
        }
        let stats = store.shard_stats();
        let active: Vec<usize> = serving.iter().map(|&shard| stats[shard].requests).collect();
        assert!(
            active.iter().all(|&requests| requests > 0),
            "16 salts over 4 copies must hit every copy, got {active:?}"
        );
        assert_eq!(active.iter().sum::<usize>(), 16);
    }

    #[test]
    fn republish_invalidates_replicas_and_repins_the_new_revision() {
        let store = ShardedStore::new(4);
        store.put_document(document("hot"));
        store.pin_replicas("hot", 4).unwrap();
        assert_eq!(store.replica_shards("hot").len(), 4);

        store.put_document(document("hot"));
        assert_eq!(store.revision("hot"), Some(1));
        // Pinned documents re-replicate the new revision...
        assert_eq!(store.replica_shards("hot").len(), 4);
        // ...and every copy serves it: a pinned fetch at the new revision
        // succeeds whichever copy the route picks.
        for index in 0..4 {
            assert!(store.fetch_chunk("hot", index, Some(1), 0).is_ok());
        }
        // The old pin is stale on every copy.
        for index in 0..4 {
            assert!(matches!(
                store.fetch_chunk("hot", index, Some(0), 0),
                Err(WireError::StaleRevision { .. })
            ));
        }
    }

    #[test]
    fn rule_blob_sync_reaches_replicas() {
        let store = ShardedStore::new(4);
        store.put_document(document("hot"));
        store.pin_replicas("hot", 4).unwrap();
        // Blobs are stored *after* replication here: the sync must reach
        // every copy, or subjects provisioned late would see NoRules on
        // fetches routed to a replica.
        let sealed = sealed_rules("+, doctor, //patient");
        let subjects: Vec<String> = (0..12).map(|i| format!("subject-{i}")).collect();
        for subject in &subjects {
            store.put_rules("hot", subject, &sealed).unwrap();
        }
        for subject in &subjects {
            assert_eq!(
                store.fetch_rules("hot", subject, None, 0).unwrap()[..],
                sealed.encode()[..],
                "routed rule fetch for `{subject}` must see the synced blob"
            );
        }
        // The subject hash really routed rule traffic to more than one copy.
        let serving_shards = store
            .shard_stats()
            .iter()
            .filter(|s| s.rule_blobs_served > 0)
            .count();
        assert!(serving_shards > 1, "got {serving_shards} serving shard(s)");
    }
}
