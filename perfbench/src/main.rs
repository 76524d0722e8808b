//! The benchmark's command line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mpeg-closed|live-micro|serve-shed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes (gate results, deadline accounting, sample counts), then
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A traced run also writes its spans under
//! `perfbench/out/`. Exits non-zero, printing no result, when a gate
//! fails or the arguments are wrong.

use std::process::ExitCode;

use sqm_perfbench::{run, Settings, WORKLOADS};

const USAGE: &str = "usage: sqm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<(String, Settings), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut settings = Settings {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out_dir: Some("perfbench/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => settings.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                settings.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(settings.seconds > 0.0 && settings.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                settings.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| {
        format!(
            "--workload is required (one of {})\n{USAGE}",
            WORKLOADS.join(", ")
        )
    })?;
    Ok((workload, settings))
}

fn main() -> ExitCode {
    let (workload, settings) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&workload, settings) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}
