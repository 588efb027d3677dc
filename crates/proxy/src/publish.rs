//! Publisher side of push-based selective dissemination (demo application 2,
//! experiment E6).
//!
//! The publisher turns each stream item (a small XML fragment: title, rating,
//! channel, payload) into an independent secure document and broadcasts it to
//! every subscriber over an unsecured channel. Subscribers cannot choose what
//! they receive — selection happens in their SOE, which evaluates the
//! subscriber-specific access rules (e.g. parental-control rules on the
//! rating) and delivers only the authorized part, in a streaming fashion
//! compatible with the real-time requirement of the scenario.
//!
//! This module lives on the **trusted** side of the architecture: the channel
//! holds the community key and sees the cleartext stream. What crosses the
//! trust boundary is only the encrypted [`StreamItem`] — the untrusted DSP
//! fan-out ([`sdds_dsp::FanOutDisseminator`]) never handles anything else,
//! and the compiler keeps it that way: the DSP crate depends only on the
//! key-free `sdds-wire` crate.

use sdds_sync::sync::Arc;

use sdds_core::secdoc::SecureDocumentBuilder;
use sdds_core::skipindex::encode::EncoderConfig;
use sdds_crypto::SecretKey;
use sdds_dsp::StreamItem;
use sdds_xml::{Document, NodeId};

/// A push channel: publisher side.
#[derive(Debug)]
pub struct DisseminationChannel {
    name: String,
    key: SecretKey,
    chunk_size: usize,
    encoder: EncoderConfig,
    next_sequence: u64,
    /// Published history, reference counted so fan-out mailboxes can share
    /// the very allocation the publisher keeps (one ciphertext in memory per
    /// item, however many subscribers hold it).
    published: Vec<Arc<StreamItem>>,
}

impl DisseminationChannel {
    /// Creates a channel encrypted under `key`.
    pub fn new(name: impl Into<String>, key: SecretKey) -> Self {
        DisseminationChannel {
            name: name.into(),
            key,
            chunk_size: 256,
            encoder: EncoderConfig {
                // Items are small; index even small subtrees so the SOE can
                // skip the (comparatively large) payload of filtered items.
                min_index_bytes: 32,
                ..EncoderConfig::default()
            },
            next_sequence: 0,
            published: Vec::new(),
        }
    }

    /// Channel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Key the subscribers' SOEs must hold.
    pub fn key(&self) -> &SecretKey {
        &self.key
    }

    /// Publishes one item. `item_root` must be an element of `catalog` (an
    /// item is re-packaged as a standalone single-item document).
    pub fn publish(&mut self, catalog: &Document, item_root: NodeId) -> Arc<StreamItem> {
        let events = catalog.subtree_events(item_root);
        // lint: infallible — `subtree_events` of a parsed document always
        // yields a balanced, single-rooted event stream.
        let item_doc = Document::from_events(&events).expect("subtree is well formed");
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        let doc_id = format!("{}#{}", self.name, sequence);
        let secure = SecureDocumentBuilder::new(doc_id, self.key.clone())
            .chunk_size(self.chunk_size)
            .encoder_config(self.encoder)
            .build(&item_doc);
        let plaintext_len = item_doc.to_xml().len();
        let item = Arc::new(StreamItem {
            sequence,
            document: secure,
            plaintext_len,
        });
        self.published.push(Arc::clone(&item));
        item
    }

    /// Publishes every element child of the root of `stream_doc` (convenience
    /// for the generators, whose stream documents are `<stream><item/>...`).
    pub fn publish_all(&mut self, stream_doc: &Document) -> usize {
        let Some(root) = stream_doc.root() else {
            return 0;
        };
        let items: Vec<NodeId> = stream_doc.element_children(root).collect();
        for item in &items {
            self.publish(stream_doc, *item);
        }
        items.len()
    }

    /// Items published so far (what a late subscriber would replay).
    pub fn published(&self) -> &[Arc<StreamItem>] {
        &self.published
    }

    /// Total ciphertext bytes broadcast.
    pub fn broadcast_bytes(&self) -> usize {
        self.published
            .iter()
            .map(|i| i.document.ciphertext_len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_core::conflict::AccessPolicy;
    use sdds_core::engine::{evaluate_secure_document, EngineConfig};
    use sdds_core::evaluator::EvaluatorConfig;
    use sdds_core::rule::RuleSet;
    use sdds_xml::generator::{self, GeneratorConfig, StreamProfile};
    use sdds_xml::writer;

    #[test]
    fn published_items_are_individually_decodable_by_subscribers() {
        let key = SecretKey::derive(b"broadcast", "channel-1");
        let mut channel = DisseminationChannel::new("news-feed", key.clone());
        let stream = generator::stream(
            &StreamProfile {
                items: 10,
                ..StreamProfile::default()
            },
            &GeneratorConfig::default(),
        );
        let published = channel.publish_all(&stream);
        assert_eq!(published, 10);
        assert_eq!(channel.published().len(), 10);
        assert!(channel.broadcast_bytes() > 0);
        assert_eq!(channel.name(), "news-feed");

        // A parental-control subscriber: items rated above 12 are filtered out
        // inside the child's SOE, everything else is delivered.
        let rules = RuleSet::parse("-, child, //item[rating > 12]").unwrap();
        let mut allowed = 0usize;
        let mut blocked = 0usize;
        for item in channel.published() {
            let config = EngineConfig::new(
                EvaluatorConfig::new(rules.clone(), "child").with_policy(AccessPolicy::open()),
            );
            let (view, stats) =
                evaluate_secure_document(&item.document, channel.key(), config).unwrap();
            let text = writer::to_string(&view);
            if text.is_empty() {
                blocked += 1;
                // Blocked items still never reveal their payload.
                assert!(!text.contains("payload"));
            } else {
                allowed += 1;
                assert!(text.contains("<title>"));
            }
            assert!(stats.ledger.bytes_decrypted > 0);
        }
        assert!(allowed > 0, "some items should pass the filter");
        assert!(blocked > 0, "some items should be blocked");
        assert_eq!(allowed + blocked, 10);
    }

    #[test]
    fn sequence_numbers_are_monotonic() {
        let key = SecretKey::derive(b"broadcast", "c");
        let mut channel = DisseminationChannel::new("c", key);
        let stream = generator::stream(
            &StreamProfile {
                items: 3,
                ..StreamProfile::default()
            },
            &GeneratorConfig::default(),
        );
        channel.publish_all(&stream);
        let seqs: Vec<u64> = channel.published().iter().map(|i| i.sequence).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert!(channel.published()[0].plaintext_len > 0);
        assert!(channel.published()[0]
            .document
            .header
            .doc_id
            .starts_with("c#"));
    }
}
