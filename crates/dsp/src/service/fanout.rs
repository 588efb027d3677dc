//! Multi-subscriber dissemination without per-subscriber encryption.
//!
//! The paper's dissemination scenario (§3, application 2) broadcasts each
//! encrypted stream item over an unsecured channel; *selection happens in the
//! subscriber's SOE*, not at the publisher. The consequence — the reason the
//! architecture scales to many subscribers — is that the publisher encrypts
//! each item **once**, regardless of how many subscribers receive it: access
//! differentiation costs nothing at publication time because it is carried by
//! the per-subscriber protected rules, not by per-subscriber ciphertexts.
//!
//! The trust boundary runs through the middle of the scenario, and this
//! module sits on the untrusted side of it: the proxy-side
//! `sdds_proxy::DisseminationChannel` holds the key, encrypts each item once,
//! and hands the DSP an `Arc<StreamItem>` — [`FanOutDisseminator`] merely
//! clones that [`Arc`] into every subscriber mailbox. It cannot re-encrypt,
//! inspect or differentiate the stream because it never holds a key or a
//! cleartext byte: this crate cannot even name one, since it depends on the
//! ciphertext tier (`sdds-wire`) alone.
//! The property test in `tests/fanout_properties.rs` pins the scaling claim:
//! the fanned-out ciphertext is byte-identical to what M independent unicast
//! channels would have produced, and the publisher's encryption count stays
//! equal to the number of published items no matter how many subscribers are
//! attached.

use sdds_sync::sync::Arc;
use std::collections::VecDeque;

use crate::dissemination::StreamItem;

/// Handle to one subscriber's mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriberId(usize);

/// One subscriber: a name (the subject whose rules its SOE enforces) and the
/// queue of items broadcast since it joined.
#[derive(Debug)]
struct Subscriber {
    subject: String,
    mailbox: VecDeque<Arc<StreamItem>>,
}

/// DSP-side fan-out of one broadcast channel: ciphertext in, ciphertext out.
#[derive(Debug)]
pub struct FanOutDisseminator {
    name: String,
    /// Broadcast history, in delivery order — what a late subscriber missed.
    delivered: Vec<Arc<StreamItem>>,
    subscribers: Vec<Subscriber>,
}

impl FanOutDisseminator {
    /// Creates the fan-out for a broadcast channel named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        FanOutDisseminator {
            name: name.into(),
            delivered: Vec::new(),
            subscribers: Vec::new(),
        }
    }

    /// Channel name this fan-out serves.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches a subscriber; it receives items delivered from now on.
    pub fn subscribe(&mut self, subject: impl Into<String>) -> SubscriberId {
        self.subscribers.push(Subscriber {
            subject: subject.into(),
            mailbox: VecDeque::new(),
        });
        SubscriberId(self.subscribers.len() - 1)
    }

    /// Number of attached subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Subject of a subscriber.
    pub fn subject_of(&self, id: SubscriberId) -> &str {
        &self.subscribers[id.0].subject
    }

    /// Delivers one already-encrypted item to every subscriber mailbox. The
    /// history and every mailbox hold the same allocation — the DSP never
    /// copies, let alone re-encrypts, the item.
    pub fn deliver(&mut self, item: Arc<StreamItem>) {
        for subscriber in &mut self.subscribers {
            subscriber.mailbox.push_back(Arc::clone(&item));
        }
        self.delivered.push(item);
    }

    /// Delivers a batch of items (a publisher's `published()` history, say);
    /// returns the number delivered.
    pub fn deliver_all(&mut self, items: &[Arc<StreamItem>]) -> usize {
        for item in items {
            self.deliver(Arc::clone(item));
        }
        items.len()
    }

    /// Drains the mailbox of one subscriber.
    pub fn drain(&mut self, id: SubscriberId) -> Vec<Arc<StreamItem>> {
        self.subscribers[id.0].mailbox.drain(..).collect()
    }

    /// Items currently queued for one subscriber.
    pub fn queued(&self, id: SubscriberId) -> usize {
        self.subscribers[id.0].mailbox.len()
    }

    /// Every item delivered so far, in delivery order.
    pub fn delivered(&self) -> &[Arc<StreamItem>] {
        &self.delivered
    }

    /// Ciphertext bytes that crossed the broadcast medium. A broadcast
    /// channel carries each item once — this does **not** scale with the
    /// subscriber count, unlike M unicasts which would ship
    /// `broadcast_bytes() * M`.
    pub fn broadcast_bytes(&self) -> usize {
        self.delivered
            .iter()
            .map(|i| i.document.ciphertext_len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_core::secdoc::SecureDocumentBuilder;
    use sdds_crypto::SecretKey;
    use sdds_xml::Document;

    /// An encrypted stream item, as the proxy-side publisher would hand over.
    fn item(sequence: u64) -> Arc<StreamItem> {
        let doc = Document::parse(&format!("<item><title>t{sequence}</title></item>")).unwrap();
        let plaintext_len = doc.to_xml().len();
        let key = SecretKey::derive(b"fanout-test", "k");
        let document = SecureDocumentBuilder::new(format!("feed#{sequence}"), key).build(&doc);
        Arc::new(StreamItem {
            sequence,
            document,
            plaintext_len,
        })
    }

    #[test]
    fn one_ciphertext_per_item_regardless_of_subscribers() {
        let mut fanout = FanOutDisseminator::new("feed");
        let subscribers: Vec<SubscriberId> =
            (0..32).map(|i| fanout.subscribe(format!("s{i}"))).collect();
        assert_eq!(fanout.subscriber_count(), 32);
        let items: Vec<Arc<StreamItem>> = (0..5).map(item).collect();
        let delivered = fanout.deliver_all(&items);
        assert_eq!(delivered, 5);
        assert_eq!(
            fanout.delivered().len(),
            5,
            "one ciphertext per item, not 5*32"
        );
        for id in subscribers {
            assert_eq!(fanout.queued(id), 5);
        }
        let one_copy: usize = items.iter().map(|i| i.document.ciphertext_len()).sum();
        assert_eq!(fanout.broadcast_bytes(), one_copy);
    }

    #[test]
    fn every_mailbox_shares_the_same_ciphertext_allocation() {
        let mut fanout = FanOutDisseminator::new("feed");
        let a = fanout.subscribe("alice");
        let b = fanout.subscribe("bob");
        assert_eq!(fanout.subject_of(a), "alice");
        for seq in 0..3 {
            fanout.deliver(item(seq));
        }
        let from_a = fanout.drain(a);
        let from_b = fanout.drain(b);
        assert_eq!(fanout.queued(a), 0);
        for (x, y) in from_a.iter().zip(from_b.iter()) {
            // Not just equal bytes: literally the same allocation.
            assert!(Arc::ptr_eq(x, y));
        }
        // Three Arcs outstanding per item: the delivery history and the two
        // drained vectors all share one allocation.
        assert_eq!(Arc::strong_count(&from_a[0]), 3);
        assert!(Arc::ptr_eq(&from_a[0], &fanout.delivered()[0]));
    }

    #[test]
    fn late_subscribers_receive_only_later_items() {
        let mut fanout = FanOutDisseminator::new("feed");
        let early = fanout.subscribe("early");
        let items: Vec<Arc<StreamItem>> = (0..4).map(item).collect();
        fanout.deliver(Arc::clone(&items[0]));
        fanout.deliver(Arc::clone(&items[1]));
        let late = fanout.subscribe("late");
        fanout.deliver(Arc::clone(&items[2]));
        fanout.deliver(Arc::clone(&items[3]));
        assert_eq!(fanout.queued(early), 4);
        assert_eq!(fanout.queued(late), 2);
        let got: Vec<u64> = fanout.drain(late).iter().map(|i| i.sequence).collect();
        assert_eq!(got, vec![2, 3]);
        assert_eq!(fanout.name(), "feed");
    }
}
