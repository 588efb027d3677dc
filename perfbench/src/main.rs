//! Command line: `sdds-perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints a table of every metric with its unit and sample count, then, as
//! the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). A traced run also writes its spans to
//! `.bench_out/spans-<workload>.csv`.

use std::path::PathBuf;
use std::process::ExitCode;

use sdds_perfbench::stats::{json_number, result_json};
use sdds_perfbench::workloads::{self, Config, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("sdds-perfbench: {e}");
            eprintln!(
                "usage: sdds-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let cfg = Config::standard(args.seed, args.seconds, args.trace);
    let report = match workloads::run(args.workload, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("sdds-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in metrics {
        println!(
            "{:<34} {:>18} {:<6} n={}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    println!(
        "# cpu stolen by the hypervisor: {:.2}% of running time",
        report.stolen_share * 100.0
    );
    if !args.trace {
        println!(
            "# reference job: {:.3} us (1st percentile, n={}); timings scaled by {:.4}",
            report.reference_us, report.reference_samples, report.scale
        );
    }
    if let Some(e) = &report.first_error {
        eprintln!("sdds-perfbench: first failure: {e}");
    }
    if args.trace {
        // One file per workload, replaced by its next traced run.
        let path = PathBuf::from(".bench_out").join(format!("spans-{}.csv", args.workload.name()));
        if let Err(e) = report.spans.write_csv(&path) {
            eprintln!("sdds-perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        result_json(report.correct, report.attempted, report.failed, metrics)
    );
    ExitCode::SUCCESS
}
