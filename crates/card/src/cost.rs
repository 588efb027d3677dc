//! Cost model and latency accounting of the SOE.
//!
//! The experiments of the paper are dominated by three cost components: the
//! transfer of (parts of) the encrypted document to the card, its decryption
//! and integrity checking inside the card, and the evaluation of the rule
//! automata. Wall-clock time measured on a workstation does not reflect the
//! relative weight of these components on a smart card, so every operation of
//! the embedded engine is *accounted* here and converted to simulated time
//! with per-profile rates. The benches report both the raw counters (exact,
//! hardware independent) and the simulated breakdown.

use std::time::Duration;

use crate::channel::{ChannelMeter, ChannelModel};

/// Throughput parameters of the card's processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Channel parameters.
    pub channel: ChannelModel,
    /// On-card symmetric decryption throughput, bytes per second.
    pub decrypt_bytes_per_second: f64,
    /// On-card hashing (integrity) throughput, bytes per second.
    pub hash_bytes_per_second: f64,
    /// Parsing + automata evaluation throughput, events per second.
    pub events_per_second: f64,
}

impl CostModel {
    /// The e-gate profile of the demo (§3): 2 KB/s channel, a crypto
    /// co-processor around 100 KB/s for 3DES-class decryption, ~50 KB/s
    /// hashing, and an evaluation rate of about 20 000 events/s measured for
    /// the C prototype on the cycle-accurate card simulator of \[2\].
    pub fn egate() -> Self {
        CostModel {
            channel: ChannelModel::egate(),
            decrypt_bytes_per_second: 100_000.0,
            hash_bytes_per_second: 50_000.0,
            events_per_second: 20_000.0,
        }
    }

    /// A modern secure element: faster channel and crypto, same architecture.
    pub fn modern_secure_element() -> Self {
        CostModel {
            channel: ChannelModel::usb(),
            decrypt_bytes_per_second: 5_000_000.0,
            hash_bytes_per_second: 2_000_000.0,
            events_per_second: 500_000.0,
        }
    }
}

fn time_at_rate(amount: f64, rate: f64) -> Duration {
    if rate.is_finite() && rate > 0.0 {
        Duration::from_secs_f64(amount / rate)
    } else {
        Duration::ZERO
    }
}

/// Raw counters accumulated by a card session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostLedger {
    /// Channel counters.
    pub channel: ChannelMeter,
    /// Bytes decrypted inside the SOE.
    pub bytes_decrypted: usize,
    /// Bytes hashed for integrity checking inside the SOE.
    pub bytes_hashed: usize,
    /// Parsing/evaluation events processed (open + value + close).
    pub events_processed: usize,
    /// Bytes of encrypted document that were *skipped* thanks to the index
    /// (never transferred nor decrypted).
    pub bytes_skipped: usize,
}

impl CostLedger {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Records decryption of `bytes`.
    pub fn record_decrypt(&mut self, bytes: usize) {
        self.bytes_decrypted += bytes;
    }

    /// Records hashing of `bytes`.
    pub fn record_hash(&mut self, bytes: usize) {
        self.bytes_hashed += bytes;
    }

    /// Records `count` evaluation events.
    pub fn record_events(&mut self, count: usize) {
        self.events_processed += count;
    }

    /// Records `bytes` skipped thanks to the index.
    pub fn record_skip(&mut self, bytes: usize) {
        self.bytes_skipped += bytes;
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        self.channel.merge(&other.channel);
        self.bytes_decrypted += other.bytes_decrypted;
        self.bytes_hashed += other.bytes_hashed;
        self.events_processed += other.events_processed;
        self.bytes_skipped += other.bytes_skipped;
    }

    /// Converts the counters to a latency breakdown under `model`.
    pub fn breakdown(&self, model: &CostModel) -> LatencyBreakdown {
        LatencyBreakdown {
            transfer: self.channel.elapsed(&model.channel),
            decryption: time_at_rate(self.bytes_decrypted as f64, model.decrypt_bytes_per_second),
            integrity: time_at_rate(self.bytes_hashed as f64, model.hash_bytes_per_second),
            evaluation: time_at_rate(self.events_processed as f64, model.events_per_second),
        }
    }
}

/// Simulated latency split by cost component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Time on the terminal↔card channel.
    pub transfer: Duration,
    /// Time decrypting inside the SOE.
    pub decryption: Duration,
    /// Time hashing for integrity inside the SOE.
    pub integrity: Duration,
    /// Time parsing and evaluating rule automata.
    pub evaluation: Duration,
}

impl LatencyBreakdown {
    /// Total simulated latency.
    pub fn total(&self) -> Duration {
        self.transfer + self.decryption + self.integrity + self.evaluation
    }

    /// Fraction of the total spent on the channel, in `[0, 1]`.
    pub fn transfer_share(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.transfer.as_secs_f64() / total
        }
    }

    /// Renders a compact `a/b/c/d` millisecond summary for the harness output.
    pub fn summary_ms(&self) -> String {
        format!(
            "transfer {:.1} ms / decrypt {:.1} ms / integrity {:.1} ms / eval {:.1} ms (total {:.1} ms)",
            self.transfer.as_secs_f64() * 1e3,
            self.decryption.as_secs_f64() * 1e3,
            self.integrity.as_secs_f64() * 1e3,
            self.evaluation.as_secs_f64() * 1e3,
            self.total().as_secs_f64() * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_uses_model_rates() {
        let mut ledger = CostLedger::new();
        ledger.channel.record_exchange(2048, 0);
        ledger.record_decrypt(100_000);
        ledger.record_hash(50_000);
        ledger.record_events(20_000);
        let b = ledger.breakdown(&CostModel::egate());
        // Each component should be roughly one second under the e-gate rates.
        assert!((b.decryption.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((b.integrity.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!((b.evaluation.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!(b.transfer.as_secs_f64() > 0.9);
        assert!(b.total() > Duration::from_secs(3));
        assert!(b.transfer_share() > 0.2 && b.transfer_share() < 0.3);
        assert!(b.summary_ms().contains("total"));
    }

    #[test]
    fn ledgers_merge_componentwise() {
        let mut a = CostLedger::new();
        a.record_decrypt(10);
        a.record_skip(5);
        a.channel.record_exchange(1, 2);
        let mut b = CostLedger::new();
        b.record_decrypt(20);
        b.record_events(7);
        a.merge(&b);
        assert_eq!(a.bytes_decrypted, 30);
        assert_eq!(a.events_processed, 7);
        assert_eq!(a.bytes_skipped, 5);
        assert_eq!(a.channel.total_bytes(), 3);
    }

    #[test]
    fn modern_profile_is_faster_than_egate() {
        let mut ledger = CostLedger::new();
        ledger.channel.record_exchange(100_000, 1000);
        ledger.record_decrypt(100_000);
        ledger.record_events(50_000);
        let old = ledger.breakdown(&CostModel::egate()).total();
        let new = ledger
            .breakdown(&CostModel::modern_secure_element())
            .total();
        assert!(new < old);
    }

    #[test]
    fn empty_ledger_has_zero_breakdown() {
        let b = CostLedger::new().breakdown(&CostModel::egate());
        assert_eq!(b.total(), Duration::ZERO);
        assert_eq!(b.transfer_share(), 0.0);
    }
}
