//! ddbench: the repository's benchmark. Five fixed-work workloads, one
//! closed-loop client, six end-to-end metrics, and a traced run that
//! apportions the time to the layers. See `README.md`.

mod data;
mod decks;
mod env;
mod harness;
mod metrics;
mod repeat;
mod rng;
mod stats;
mod trace;
mod workloads;

use harness::{Args, Ctx};
use std::process::ExitCode;
use workloads::serve::Mode;

/// What `BENCHMARK.json` passes as `--seconds`.
pub const RUN_SECONDS: u64 = 10;

const USAGE: &str = "usage:
  ddbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]
      run one workload; the last line of output is its result
  ddbench all [--seed <n>] [--seconds <n>]
      every workload, untraced then traced; prints every metric with its unit
  ddbench repeat [--runs <n>] [--seed <n>] [--seconds <n>]
      every workload <n> times (default 5); prints median and spread of each
      end-to-end metric and exits 1 when a spread exceeds the metric's bound
  ddbench manifest
      print BENCHMARK.json
workloads: olap_scan serve_miss serve_hot refresh_rw trial_guide";

/// `--key value` pairs after the optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Flags(flags))
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.text(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("`--{name} {v}` is not a whole number")),
            None => Ok(default),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option `--{k}`")),
            None => Ok(()),
        }
    }
}

fn run_workload(args: Args) -> Result<u8, String> {
    env::pin_to_one_cpu();
    let mut ctx = Ctx::new(args);
    let timed = match ctx.args.workload.as_str() {
        "olap_scan" => workloads::olap_scan::run(&mut ctx),
        "serve_miss" => workloads::serve::run(&mut ctx, Mode::Miss),
        "serve_hot" => workloads::serve::run(&mut ctx, Mode::Hot),
        "refresh_rw" => workloads::refresh_rw::run(&mut ctx),
        "trial_guide" => workloads::trial_guide::run(&mut ctx),
        other => return Err(format!("unknown workload `{other}`")),
    };
    ctx.finish(&timed);
    Ok(0)
}

/// The exit code, or a usage error.
fn dispatch(args: &[String]) -> Result<u8, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(word) if !word.starts_with("--") => (word, &args[1..]),
        _ => ("run", args),
    };
    let flags = Flags::parse(rest)?;
    let seed = flags.number("seed", 1)?;
    let seconds = flags.number("seconds", RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    match command {
        "run" => {
            flags.only(&["workload", "seed", "seconds", "trace"])?;
            let workload = flags.text("workload").ok_or("--workload is required")?;
            let trace = match flags.number("trace", 0)? {
                0 => false,
                1 => true,
                _ => return Err("--trace takes 0 or 1".to_string()),
            };
            run_workload(Args {
                workload: workload.to_string(),
                seed,
                seconds,
                trace,
            })
        }
        "all" => {
            flags.only(&["seed", "seconds"])?;
            Ok(repeat::all(seed, seconds))
        }
        "repeat" => {
            flags.only(&["runs", "seed", "seconds"])?;
            Ok(repeat::repeat(
                flags.number("runs", 5)? as usize,
                seed,
                seconds,
            ))
        }
        "manifest" => {
            flags.only(&[])?;
            print!("{}", metrics::pretty(&metrics::manifest(RUN_SECONDS)));
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("ddbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
