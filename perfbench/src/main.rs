//! The repository benchmark. One command runs a named workload, checks the
//! program's outputs, and prints every metric by name and unit:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload org_ed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones from a separate traced run and writes its spans under
//! `perfbench/traces/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. See
//! `perfbench/README.md` for the workloads and what each metric predicts.

mod batch;
mod report;
mod service;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;
use trace::Tracer;
use workload::{Sizes, Workload};

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    sizes: Sizes,
}

const USAGE: &str = "usage: perfbench --workload <org_ed|media_fms_dup|service_mixed> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut sizes) =
        (None, DEFAULT_SEED, 10.0, false, Sizes::full());
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--tiny" => sizes = Sizes::tiny(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds: Duration::from_secs_f64(seconds), trace, sizes })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let trace_id = format!("{name}-seed{}-{}", args.seed, std::process::id());
    let mut tracer = Tracer::new(args.trace, trace_id);
    let mut report = Report::default();
    println!(
        "perfbench: workload {name}, seed {}, {:?} measured, trace {}, {} CPUs available",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let sizes = &args.sizes;
    let corpora = workload::corpora(args.workload, args.seed, sizes);
    match args.workload {
        Workload::OrgEd | Workload::MediaFmsDup => batch::run(
            args.workload,
            &corpora,
            sizes,
            args.seed,
            args.seconds,
            &mut tracer,
            &mut report,
        ),
        Workload::ServiceMixed => {
            service::run(&corpora, sizes, args.seed, args.seconds, &mut tracer, &mut report)
        }
    }
    if args.trace {
        for (layer, self_s) in tracer.self_times() {
            report.note(format!("self time {layer:<28} {self_s:>12.6} s"));
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{name}-seed{}.jsonl", args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => report.note(format!("{} spans written to {}", tracer.len(), path.display())),
            Err(e) => report.note(format!("spans not written to {}: {e}", path.display())),
        }
    }
    report.finish(args.trace);
    ExitCode::SUCCESS
}
