//! Demonstration application 2: selective dissemination of streams.
//!
//! "The second one deals with the selective dissemination of multimedia
//! streams through unsecured channels" (§3). The publisher broadcasts every
//! encrypted item to every subscriber; each subscriber's SOE filters the
//! stream against that subscriber's rules (channel subscriptions, parental
//! control on ratings) with a per-item latency that must stay compatible with
//! the stream rate — experiment E6 measures exactly that.
//!
//! Push mode has no DSP in the loop, so each subscriber's card is
//! provisioned through [`crate::Client`] like a pull client (key wraps,
//! unwrapped on the card) and holds its own sealed rule blob up front
//! ([`crate::Client::terminal_with_rules`]). Every broadcast item then runs
//! through that card's SOE over APDUs ([`sdds_proxy::Terminal::evaluate_local`]),
//! which authenticates the rules, checks every chunk's tag and meters the
//! item's work on the card ledger.

use std::time::Duration;

use sdds_card::CardProfile;
use sdds_core::conflict::AccessPolicy;
use sdds_core::rule::{RuleSet, Subject};
use sdds_proxy::DisseminationChannel;
use sdds_xml::Document;

use crate::client::{Client, Publisher};
use crate::error::SddsError;

/// Per-subscriber outcome of consuming the whole stream.
#[derive(Debug, Clone)]
pub struct SubscriberReport {
    /// Subscriber name.
    pub subscriber: String,
    /// Items delivered (at least partially visible).
    pub items_delivered: usize,
    /// Items entirely filtered out by the subscriber's rules.
    pub items_blocked: usize,
    /// Simulated time the subscriber's card spends on the whole stream under
    /// its profile's cost model: the sum of the per-item latencies.
    pub total_latency: Duration,
    /// Largest per-item latency: one item's transfer, integrity check,
    /// decryption and evaluation on the card, as its ledger meters them
    /// between `OPEN_SESSION` and `CLOSE_SESSION`.
    pub max_item_latency: Duration,
    /// Bytes the subscriber's SOE skipped thanks to the index, summed over
    /// the stream.
    pub bytes_skipped: usize,
}

impl SubscriberReport {
    /// True if every item was processed within `deadline` (the stream period).
    pub fn meets_real_time(&self, deadline: Duration) -> bool {
        self.max_item_latency <= deadline
    }
}

/// The dissemination application: one publisher, many subscribers.
pub struct DisseminationApp {
    publisher: Publisher,
    channel: DisseminationChannel,
    card_profile: CardProfile,
}

impl DisseminationApp {
    /// Creates the application and publishes every item of `stream_doc`.
    pub fn new(
        community_secret: &[u8],
        stream_doc: &Document,
        subscriber_rules: RuleSet,
        card_profile: CardProfile,
    ) -> Self {
        let publisher = Publisher::builder(community_secret)
            .rules(subscriber_rules)
            .build()
            // lint: infallible — the builder only errors on an explicit
            // out-of-range shard count, which this path never sets.
            .expect("the dissemination publisher configuration is valid");
        let mut channel = DisseminationChannel::new("broadcast", publisher.server().document_key());
        channel.publish_all(stream_doc);
        DisseminationApp {
            publisher,
            channel,
            card_profile,
        }
    }

    /// The publisher's channel.
    pub fn channel(&self) -> &DisseminationChannel {
        &self.channel
    }

    /// The community publisher (policy and keys).
    pub fn publisher(&self) -> &Publisher {
        &self.publisher
    }

    /// Subscribers named in the policy.
    pub fn subscribers(&self) -> Vec<Subject> {
        self.publisher.subjects()
    }

    /// Runs the whole stream through the subscriber's card (full APDU path)
    /// and reports per-item outcomes. `policy` selects the default
    /// decision: parental-control subscribers use [`AccessPolicy::open`] (only
    /// their prohibitions filter the stream), subscription-based subscribers
    /// use the closed world of the paper.
    pub fn consume_with_card(
        &self,
        subscriber: &str,
        policy: AccessPolicy,
    ) -> Result<SubscriberReport, SddsError> {
        let client = Client::builder(subscriber)
            .card_profile(self.card_profile)
            .open_policy(policy == AccessPolicy::open())
            .provision(&self.publisher)?;
        let mut terminal = client.terminal_with_rules()?;
        let mut report = SubscriberReport {
            subscriber: subscriber.to_owned(),
            items_delivered: 0,
            items_blocked: 0,
            total_latency: Duration::ZERO,
            max_item_latency: Duration::ZERO,
            bytes_skipped: 0,
        };
        let model = terminal.cost_model();
        for item in self.channel.published() {
            let view = terminal.evaluate_local(&item.document)?;
            // Each item opens its own card session, which restarts the card
            // ledger: after the item it holds that item's work alone.
            let item_latency = terminal.latency(&model).total();
            report.total_latency += item_latency;
            report.max_item_latency = report.max_item_latency.max(item_latency);
            report.bytes_skipped += terminal.card_ledger().bytes_skipped;
            if view.is_empty() {
                report.items_blocked += 1;
            } else {
                report.items_delivered += 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdds_core::baseline::authorized_view_oracle;
    use sdds_xml::generator::{self, GeneratorConfig, StreamProfile};
    use sdds_xml::writer;

    fn stream(items: usize) -> Document {
        generator::stream(
            &StreamProfile {
                items,
                payload_len: 64,
                ..StreamProfile::default()
            },
            &GeneratorConfig::default(),
        )
    }

    fn app(stream: &Document) -> DisseminationApp {
        // Parental control for "kid" (open world: blocks items rated above 12)
        // and a channel subscription for "trader" (closed world: only the
        // finance channel is granted).
        let rules = RuleSet::parse(
            "-, kid, //item[rating > 12]\n\
             +, trader, //item[@channel = \"finance\"]",
        )
        .unwrap();
        DisseminationApp::new(
            b"broadcast-2005",
            stream,
            rules,
            CardProfile::modern_secure_element(),
        )
    }

    #[test]
    fn parental_control_filters_in_the_subscribers_card() {
        let app = app(&stream(8));
        assert_eq!(app.subscribers().len(), 2);
        assert_eq!(app.channel().published().len(), 8);
        let report = app.consume_with_card("kid", AccessPolicy::open()).unwrap();
        assert_eq!(report.items_delivered + report.items_blocked, 8);
        assert!(report.items_delivered > 0);
        assert!(report.items_blocked > 0);
        assert!(report.total_latency > Duration::ZERO);
        assert!(report.max_item_latency <= report.total_latency);
        assert!(report.bytes_skipped > 0, "blocked payloads are skipped");
    }

    #[test]
    fn channel_subscription_filters_by_attribute() {
        let app = app(&stream(12));
        let report = app
            .consume_with_card("trader", AccessPolicy::paper())
            .unwrap();
        assert_eq!(report.items_delivered + report.items_blocked, 12);
        assert!(
            report.items_blocked > 0,
            "non-finance items must be blocked"
        );
        // Real-time check: each item must be processed faster than a (slow)
        // one-item-per-ten-seconds stream on the card's cost model.
        assert!(report.meets_real_time(Duration::from_secs(10)));
    }

    #[test]
    fn every_card_view_is_the_oracle_view_of_its_item() {
        let stream = stream(6);
        let app = app(&stream);
        let root = stream.root().unwrap();
        let items: Vec<Document> = stream
            .element_children(root)
            .map(|item| Document::from_events(&stream.subtree_events(item)).unwrap())
            .collect();
        for (subscriber, policy) in [
            ("kid", AccessPolicy::open()),
            ("trader", AccessPolicy::paper()),
        ] {
            // The card `consume_with_card` provisions, item by item.
            let mut terminal = Client::builder(subscriber)
                .card_profile(app.card_profile)
                .open_policy(policy == AccessPolicy::open())
                .provision(app.publisher())
                .and_then(|client| client.terminal_with_rules())
                .unwrap();
            let views: Vec<String> = app
                .channel()
                .published()
                .iter()
                .map(|item| terminal.evaluate_local(&item.document).unwrap())
                .collect();
            let report = app.consume_with_card(subscriber, policy).unwrap();
            assert_eq!(views.len(), items.len());
            for (i, (view, item)) in views.iter().zip(&items).enumerate() {
                let oracle = authorized_view_oracle(
                    item,
                    app.publisher().rules(),
                    &Subject::new(subscriber),
                    None,
                    &policy,
                );
                assert_eq!(*view, writer::to_string(&oracle), "{subscriber}, item {i}");
            }
            let delivered = views.iter().filter(|view| !view.is_empty()).count();
            assert_eq!(report.items_delivered, delivered, "{subscriber}");
            assert_eq!(
                report.items_blocked,
                views.len() - delivered,
                "{subscriber}"
            );
        }
    }

    #[test]
    fn the_stream_latency_is_the_sum_of_its_items() {
        // Two identical items cost the card the same: the stream's total is
        // twice the worst item, not the last item's ledger.
        let item =
            r#"<item channel="news"><title>t</title><rating>7</rating><payload>p</payload></item>"#;
        let stream = Document::parse(&format!("<stream>{item}{item}</stream>")).unwrap();
        let report = app(&stream)
            .consume_with_card("kid", AccessPolicy::open())
            .unwrap();
        assert_eq!(report.items_delivered, 2);
        assert!(report.max_item_latency > Duration::ZERO);
        assert_eq!(report.total_latency, 2 * report.max_item_latency);
    }
}
