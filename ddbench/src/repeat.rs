//! `all` and `repeat`: run workloads as child processes, one process
//! per run as the driver does, and read back the result lines.

use crate::harness::Ctx;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use obs::Json;
use std::process::{Command, Stdio};

struct RunResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
    detail: Option<Json>,
}

fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let last = lines.next().ok_or("no output")?;
    let result = Json::parse(last).ok_or("the last line is not JSON")?;
    let detail = lines.next().and_then(Json::parse);
    let metrics = match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                (name.clone(), value, unit.to_string())
            })
            .collect(),
        _ => return Err("result has no metrics".to_string()),
    };
    let number = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    Ok(RunResult {
        correct: result.get("correct") == Some(&Json::Bool(true)),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics,
        detail,
    })
}

/// Every workload once untraced and once traced; every metric by name
/// with its unit.
pub fn all(seed: u64, seconds: u64) -> u8 {
    let mut ok = true;
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        for trace in [false, true] {
            match run_child(workload, seed, seconds, trace) {
                Ok(run) => {
                    ok &= run.correct;
                    if !trace {
                        if let Some(env) = run.detail.as_ref().and_then(|d| d.get("environment")) {
                            println!("   environment {}", env.render());
                        }
                        if let Some(lat) = run.detail.as_ref().and_then(|d| d.get("op_latency_ms"))
                        {
                            println!("   op_latency_ms {}", lat.render());
                        }
                    }
                    println!(
                        "   {} run: correct {} attempted {} failed {} failed_share {}",
                        if trace { "traced" } else { "untraced" },
                        run.correct,
                        run.attempted,
                        run.failed,
                        run.failed / run.attempted.max(1.0),
                    );
                    if let Some(Json::Str(what)) =
                        run.detail.as_ref().and_then(|d| d.get("first_failure"))
                    {
                        println!("   first failure: {what}");
                    }
                    for (name, value, unit) in &run.metrics {
                        println!("   {workload:<12} {name:<34} {value:>16.6} {unit}");
                    }
                }
                Err(e) => {
                    ok = false;
                    println!("   run failed: {e}");
                }
            }
        }
    }
    println!(
        "{} end-to-end and {} layer metrics per workload; a layer time at the span floor (tens of ns) means the workload never enters that layer",
        END_TO_END.len(),
        PER_LAYER.len()
    );
    u8::from(!ok)
}

/// Every workload `runs` times on the same seed, so the spread is the
/// machine's and not the data's; median and spread of each end-to-end
/// metric; exit 1 when `(max - min) / median` exceeds the metric's
/// bound or any run was wrong.
pub fn repeat(runs: usize, seed: u64, seconds: u64) -> u8 {
    if runs < 2 {
        eprintln!("ddbench: repeat needs at least 2 runs");
        return 2;
    }
    let mut ok = true;
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<14} {:>14} {:>8} {:>8} {:>6}  unit",
        "workload", "metric", "median", "range", "iqr", "bound"
    );
    for (workload, _) in WORKLOADS {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for r in 0..runs {
            match run_child(workload, seed, seconds, false) {
                Ok(run) => {
                    if !run.correct {
                        ok = false;
                        println!(
                            "{workload} run {r}: {} of {} ops failed",
                            run.failed, run.attempted
                        );
                    }
                    for (k, m) in END_TO_END.iter().enumerate() {
                        if let Some((_, value, _)) =
                            run.metrics.iter().find(|(n, _, _)| n == m.name)
                        {
                            samples[k].push(*value);
                        }
                    }
                }
                Err(e) => {
                    ok = false;
                    println!("{workload} run {r}: {e}");
                }
            }
        }
        for (m, values) in END_TO_END.iter().zip(&samples) {
            if values.len() < 2 {
                continue;
            }
            let median = stats::median(values);
            let range = stats::range_spread(values);
            let iqr = stats::quartile_spread(values);
            let over = range > m.bound;
            ok &= !over;
            println!(
                "{workload:<12} {:<14} {median:>14.6} {range:>8.4} {iqr:>8.4} {:>6.2}  {}{}",
                m.name,
                m.bound,
                m.unit,
                if over { "  OVER BOUND" } else { "" }
            );
            rows.push(Json::obj([
                ("workload", Json::from(workload)),
                ("metric", Json::from(m.name)),
                ("unit", Json::from(m.unit)),
                ("median", Json::Float(median)),
                ("range_over_median", Json::Float(range)),
                ("iqr_over_median", Json::Float(iqr)),
                ("bound", Json::Float(m.bound)),
                (
                    "values",
                    Json::Arr(values.iter().map(|v| Json::Float(*v)).collect()),
                ),
            ]));
        }
    }
    // BENCHMARK.json has a fixed set of keys, so the measured spreads
    // go beside the traces instead.
    let path = Ctx::target_dir().join("repeat.json");
    let report = Json::obj([
        ("runs", Json::from(runs)),
        ("seed", Json::from(seed)),
        ("seconds", Json::from(seconds)),
        ("spreads", Json::Arr(rows)),
    ]);
    match std::fs::write(&path, crate::metrics::pretty(&report)) {
        Ok(()) => println!("spreads written to {}", path.display()),
        Err(e) => eprintln!("ddbench: could not write {}: {e}", path.display()),
    }
    u8::from(!ok)
}
