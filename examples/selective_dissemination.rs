//! Demo application 2: selective dissemination of a stream over an unsecured
//! channel (push mode), with parental control and channel subscriptions
//! enforced inside each subscriber's smart card — through the facade-based
//! app of `sdds::apps::dissem`.
//!
//! Run with: `cargo run --example selective_dissemination`

use std::time::Duration;

use sdds::apps::dissem::DisseminationApp;
use sdds::{AccessPolicy, CardProfile, RuleSet, SddsError};
use sdds_xml::generator::{self, GeneratorConfig, StreamProfile};

fn main() -> Result<(), SddsError> {
    // A broadcast stream of items (news, sports, finance, movies) carrying a
    // rating and an opaque payload.
    let stream = generator::stream(
        &StreamProfile {
            items: 20,
            payload_len: 128,
            ..StreamProfile::default()
        },
        &GeneratorConfig::default(),
    );

    // Subscriber-specific policies:
    //  * the child: open world minus anything rated above 12 (parental control),
    //  * the trader: closed world, only the finance channel is subscribed.
    let rules = RuleSet::parse(
        "-, child, //item[rating > 12]\n\
         +, trader, //item[@channel = \"finance\"]",
    )?;

    let app = DisseminationApp::new(b"broadcast-2005", &stream, rules, CardProfile::egate());
    println!(
        "publisher broadcast {} encrypted items ({} bytes in total)",
        app.channel().published().len(),
        app.channel().broadcast_bytes()
    );

    let child = app.consume_with_card("child", AccessPolicy::open())?;
    let trader = app.consume_with_card("trader", AccessPolicy::paper())?;

    for report in [&child, &trader] {
        println!(
            "\nsubscriber `{}`: {} items delivered, {} blocked",
            report.subscriber, report.items_delivered, report.items_blocked
        );
        println!(
            "  worst per-item latency on the e-gate model: {:.1} ms (total {:.1} s)",
            report.max_item_latency.as_secs_f64() * 1e3,
            report.total_latency.as_secs_f64()
        );
        println!(
            "  sustains a 1 item/2s stream in real time: {}",
            report.meets_real_time(Duration::from_secs(2))
        );
    }
    println!(
        "\nbytes skipped inside the trader's SOE thanks to the index: {}",
        trader.bytes_skipped
    );
    Ok(())
}
