//! Terminal ↔ card communication channel model.
//!
//! The e-gate card of the demo exchanges data at roughly **2 KB/s** over the
//! APDU link, which together with on-card decryption is one of "the two
//! limiting factors of the target architecture" (§2.3). The channel model
//! converts transferred bytes and APDU round-trips into simulated time and
//! keeps byte counters in both directions, so that every experiment can report
//! "bytes shipped to the card" and "time spent on the wire" exactly.

use std::time::Duration;

use crate::apdu::MAX_SHORT_APDU_DATA;

/// Static parameters of a channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelModel {
    /// Sustained throughput, bytes per second.
    pub bytes_per_second: f64,
    /// Fixed latency charged per APDU exchange (command + response pair).
    pub per_apdu_latency: Duration,
}

impl ChannelModel {
    /// The e-gate profile of the demo: 2 KB/s, 2 ms per exchange, short APDUs.
    pub fn egate() -> Self {
        ChannelModel {
            bytes_per_second: 2048.0,
            per_apdu_latency: Duration::from_millis(2),
        }
    }

    /// A contact-less / USB-class channel (two orders of magnitude faster),
    /// used in the ablation that asks how much of the skip-index benefit
    /// remains when the channel stops being the bottleneck.
    pub fn usb() -> Self {
        ChannelModel {
            bytes_per_second: 1_000_000.0,
            per_apdu_latency: Duration::from_micros(100),
        }
    }

    /// Time needed to push `bytes` through the channel in `apdus` exchanges.
    pub fn transfer_time(&self, bytes: usize, apdus: usize) -> Duration {
        let wire = if self.bytes_per_second.is_finite() && self.bytes_per_second > 0.0 {
            Duration::from_secs_f64(bytes as f64 / self.bytes_per_second)
        } else {
            Duration::ZERO
        };
        wire + self.per_apdu_latency * apdus as u32
    }

    /// Number of short APDUs needed to move `bytes` of payload in one
    /// direction.
    pub fn apdus_for(&self, bytes: usize) -> usize {
        if bytes == 0 {
            1
        } else {
            bytes.div_ceil(MAX_SHORT_APDU_DATA)
        }
    }
}

/// Byte and APDU counters of a session.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelMeter {
    /// Payload bytes sent from the terminal to the card.
    pub bytes_to_card: usize,
    /// Payload bytes sent from the card to the terminal.
    pub bytes_from_card: usize,
    /// Number of APDU exchanges.
    pub apdu_exchanges: usize,
}

impl ChannelMeter {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        ChannelMeter::default()
    }

    /// Records one exchange of `to_card` payload bytes and `from_card`
    /// response bytes.
    pub fn record_exchange(&mut self, to_card: usize, from_card: usize) {
        self.bytes_to_card += to_card;
        self.bytes_from_card += from_card;
        self.apdu_exchanges += 1;
    }

    /// Total payload bytes in both directions.
    pub fn total_bytes(&self) -> usize {
        self.bytes_to_card + self.bytes_from_card
    }

    /// Simulated time spent on the wire under `model`.
    pub fn elapsed(&self, model: &ChannelModel) -> Duration {
        model.transfer_time(self.total_bytes(), self.apdu_exchanges)
    }

    /// Merges another meter into this one (used when aggregating sessions).
    pub fn merge(&mut self, other: &ChannelMeter) {
        self.bytes_to_card += other.bytes_to_card;
        self.bytes_from_card += other.bytes_from_card;
        self.apdu_exchanges += other.apdu_exchanges;
    }
}

/// Coalesces several queued request/response transfers into shared APDU
/// batches.
///
/// The per-request accounting of [`ChannelMeter`] charges every logical
/// exchange its own APDU round-trip, even when the payload is far below
/// [`MAX_SHORT_APDU_DATA`] — the dominant cost of serving many small
/// chunk requests on a high-latency link. A `BatchedChannel` instead queues
/// the pending transfers and, on [`BatchedChannel::flush`], packs the queued
/// bytes of each direction into as few APDUs as the payload cap allows,
/// charging one [`ChannelModel::per_apdu_latency`] per *batch APDU* instead of
/// one per request. The multi-client DSP service uses this for its
/// scheduled serving loop: all chunk pushes of one scheduler quantum ride
/// one batch.
///
/// Byte counters are identical to per-request accounting (batching never
/// changes *what* is transferred, only how many round-trips carry it); the
/// saving is visible in [`ChannelMeter::apdu_exchanges`] and in the simulated
/// elapsed time.
#[derive(Debug, Clone)]
pub struct BatchedChannel {
    model: ChannelModel,
    /// Queued `(to_card, from_card)` transfers awaiting the next flush.
    pending: Vec<(usize, usize)>,
    meter: ChannelMeter,
    batches: usize,
    /// APDU exchanges a per-request accounting would have charged.
    unbatched_apdus: usize,
}

impl BatchedChannel {
    /// Creates an empty batching meter over `model`.
    pub fn new(model: ChannelModel) -> Self {
        BatchedChannel {
            model,
            pending: Vec::new(),
            meter: ChannelMeter::new(),
            batches: 0,
            unbatched_apdus: 0,
        }
    }

    /// The channel model batches are charged against.
    pub fn model(&self) -> &ChannelModel {
        &self.model
    }

    /// Queues one logical request of `to_card` command bytes and `from_card`
    /// response bytes for the next batch.
    pub fn queue(&mut self, to_card: usize, from_card: usize) {
        self.pending.push((to_card, from_card));
    }

    /// Number of requests waiting for the next flush.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Flushes the queued requests as one batch and returns the simulated
    /// time of that batch. A no-op returning zero when nothing is queued.
    pub fn flush(&mut self) -> Duration {
        if self.pending.is_empty() {
            return Duration::ZERO;
        }
        let mut to_total = 0usize;
        let mut from_total = 0usize;
        for (to_card, from_card) in self.pending.drain(..) {
            to_total += to_card;
            from_total += from_card;
            // What per-request accounting would have charged: every request is
            // at least one exchange, fragmented on its larger direction.
            self.unbatched_apdus += self
                .model
                .apdus_for(to_card)
                .max(self.model.apdus_for(from_card));
        }
        // One exchange carries up to `MAX_SHORT_APDU_DATA` each way, so the batch
        // needs as many exchanges as its larger direction.
        let apdus = self
            .model
            .apdus_for(to_total)
            .max(self.model.apdus_for(from_total));
        self.batches += 1;
        self.meter.bytes_to_card += to_total;
        self.meter.bytes_from_card += from_total;
        self.meter.apdu_exchanges += apdus;
        self.model.transfer_time(to_total + from_total, apdus)
    }

    /// Byte and APDU counters accumulated by flushed batches.
    pub fn meter(&self) -> &ChannelMeter {
        &self.meter
    }

    /// Batches flushed so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// APDU exchanges saved versus charging every request its own exchange.
    pub fn apdus_saved(&self) -> usize {
        self.unbatched_apdus
            .saturating_sub(self.meter.apdu_exchanges)
    }

    /// Total simulated time of everything flushed so far.
    pub fn elapsed(&self) -> Duration {
        self.meter.elapsed(&self.model)
    }

    /// Simulated time the same transfers would have cost without batching.
    pub fn unbatched_elapsed(&self) -> Duration {
        self.model
            .transfer_time(self.meter.total_bytes(), self.unbatched_apdus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn egate_is_two_kilobytes_per_second() {
        let m = ChannelModel::egate();
        let t = m.transfer_time(2048, 0);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        // 10 APDUs add 20 ms.
        let t = m.transfer_time(0, 10);
        assert_eq!(t, Duration::from_millis(20));
    }

    #[test]
    fn apdu_count_rounds_up() {
        let m = ChannelModel::egate();
        assert_eq!(m.apdus_for(0), 1);
        assert_eq!(m.apdus_for(1), 1);
        assert_eq!(m.apdus_for(255), 1);
        assert_eq!(m.apdus_for(256), 2);
        assert_eq!(m.apdus_for(1000), 4);
    }

    #[test]
    fn meter_accumulates_and_merges() {
        let mut a = ChannelMeter::new();
        a.record_exchange(100, 20);
        a.record_exchange(255, 0);
        assert_eq!(a.bytes_to_card, 355);
        assert_eq!(a.bytes_from_card, 20);
        assert_eq!(a.apdu_exchanges, 2);
        assert_eq!(a.total_bytes(), 375);

        let mut b = ChannelMeter::new();
        b.record_exchange(5, 5);
        a.merge(&b);
        assert_eq!(a.total_bytes(), 385);
        assert_eq!(a.apdu_exchanges, 3);

        let elapsed = a.elapsed(&ChannelModel::egate());
        assert!(elapsed > Duration::from_millis(6));
    }

    #[test]
    fn usb_is_faster_than_egate() {
        let bytes = 100_000;
        let egate = ChannelModel::egate();
        let usb = ChannelModel::usb();
        assert!(usb.transfer_time(bytes, 10) < egate.transfer_time(bytes, 10));
    }

    #[test]
    fn batching_small_requests_shares_apdus() {
        // Eight 60-byte requests: per-request accounting pays 8 exchanges,
        // one batch packs 480 bytes into ceil(480/255) = 2 exchanges.
        let mut batched = BatchedChannel::new(ChannelModel::egate());
        for _ in 0..8 {
            batched.queue(60, 0);
        }
        assert_eq!(batched.queued(), 8);
        let time = batched.flush();
        assert_eq!(batched.queued(), 0);
        assert_eq!(batched.batches(), 1);
        assert_eq!(batched.meter().apdu_exchanges, 2);
        assert_eq!(batched.meter().bytes_to_card, 480);
        assert_eq!(batched.apdus_saved(), 6);
        assert!(time < batched.unbatched_elapsed());
        assert_eq!(time, batched.elapsed());
    }

    #[test]
    fn batch_exchanges_follow_the_larger_direction() {
        let mut batched = BatchedChannel::new(ChannelModel::egate());
        batched.queue(10, 600); // responses dominate: ceil(600/255) = 3
        batched.queue(10, 0);
        batched.flush();
        assert_eq!(batched.meter().apdu_exchanges, 3);
        assert_eq!(batched.meter().bytes_from_card, 600);
        assert_eq!(batched.meter().bytes_to_card, 20);
    }

    #[test]
    fn empty_flush_is_free_and_byte_totals_match_per_request_accounting() {
        let mut batched = BatchedChannel::new(ChannelModel::egate());
        assert_eq!(batched.flush(), Duration::ZERO);
        assert_eq!(batched.batches(), 0);

        let mut per_request = ChannelMeter::new();
        for (to, from) in [(100, 20), (255, 0), (5, 5)] {
            batched.queue(to, from);
            per_request.record_exchange(to, from);
        }
        batched.flush();
        // Batching never changes what is transferred, only the round-trips.
        assert_eq!(batched.meter().total_bytes(), per_request.total_bytes());
        assert!(batched.meter().apdu_exchanges <= per_request.apdu_exchanges);
    }
}
