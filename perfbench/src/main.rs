//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A human-readable summary goes to standard error. Exits 0 when every
//! output check passed, 1 when one failed, and 2 on bad arguments.

use moqo_perfbench::{run_workload, RunConfig, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <ladder|traffic|interactive> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(config.seconds.is_finite() && config.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok((workload, config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run_workload(&workload, &config).expect("workload name validated");
    let [protocol, deadline, fold_gap, check] = result.ledger.by_kind;
    eprintln!(
        "{workload} seed={} trace={} nproc={}: attempted {} failed {} \
         (protocol {protocol}, deadline {deadline}, fold gap {fold_gap}, check {check})",
        config.seed,
        config.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        result.ledger.attempted,
        result.ledger.failed,
    );
    for v in &result.ledger.violations {
        eprintln!("check failed: {v}");
    }
    println!("{}", result.json_line());
    if result.ledger.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
