//! One benchmark for the temu stack.
//!
//! ```text
//! perfbench --workload <fig6_dfs|thermal_mega|served_sweeps> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one workload in this process, checks its outputs against
//! computations made apart from the program, and prints every metric by
//! name with its unit and sample count. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`. A failed check exits non-zero.

mod emu;
mod layers;
mod served;
mod stats;

use emu::{Kind, Res};
use layers::Layers;
use stats::{host_calib_ms, print_calib, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
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

fn run(args: &Args, report: &mut Report) -> Res<()> {
    let kind = match args.workload.as_str() {
        "fig6_dfs" => Some(Kind::Fig6),
        "thermal_mega" => Some(Kind::Mega),
        "served_sweeps" => None,
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    let calib = host_calib_ms();
    print_calib(&calib);
    if !args.trace {
        return match kind {
            Some(kind) => emu::run_e2e(kind, args.seed, args.seconds, report),
            None => served::run(args.seed, args.seconds, served::FULL, None, report),
        };
    }
    let mut layers = Layers::default();
    match kind {
        Some(kind) => {
            emu::run_traced(kind, args.seed, args.seconds, &mut layers, report)?;
            // A short served stream covers the sweep, serve and fleet
            // layers, which the window loop does not reach; its window and
            // state spans are left out, as they time other scenarios.
            let mut probe = Layers::default();
            served::run(
                args.seed,
                args.seconds,
                served::PROBE,
                Some(&mut probe),
                report,
            )?;
            layers.take_serving(probe);
        }
        None => served::run(
            args.seed,
            args.seconds,
            served::FULL,
            Some(&mut layers),
            report,
        )?,
    }
    layers.print_spans();
    layers.report(report, &calib);
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    report.print();
    if !report.correct() {
        std::process::exit(1);
    }
}
