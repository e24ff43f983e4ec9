//! End-to-end, layer-attributed benchmark of RobuSTore through the public
//! `System` / `Client` API.
//!
//! ```text
//! e2ebench --workload <bulk-mem|small-file|straggler-open|all>
//!          --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` runs the workload untraced and prints the end-to-end
//! metrics. `--trace 1` runs it twice with the same seed, untraced and
//! with the `TimedBackend` installed, for half the time each, and prints
//! the per-layer metrics and the tracing overhead. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`.
//! `--workload all` runs the three workloads in turn and prefixes each
//! metric with its workload. The package README describes the workloads,
//! checks and metrics.

mod device;
mod gen;
mod harness;
mod metrics;
mod replay;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::Metric;
use workloads::{Settings, WORKLOADS};

/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One workload's result: metrics plus verification outcome.
struct Result1 {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn run_workload(name: &str, args: &Args, settings: &Settings) -> Result1 {
    if !args.trace {
        let o = workloads::run(name, settings, false, args.seconds, SETUPS);
        println!(
            "# {name} seed={} (untraced)\n# {}",
            args.seed,
            metrics::detail(&o)
        );
        let h = &o.harness;
        return Result1 {
            metrics: metrics::end_to_end(&o),
            attempted: h.attempted,
            failed: h.failed,
            errors: h.errors.clone(),
        };
    }
    let half = args.seconds / 2.0;
    // Only the untraced op sequence and counts outlive the untraced run,
    // so the two deployments are never in memory together.
    let (base_sequence, base_attempted, base_failed, base_errors) = {
        let h = workloads::run(name, settings, false, half, 1).harness;
        (h.sequence, h.attempted, h.failed, h.errors)
    };
    let traced = workloads::run(name, settings, true, half, 1);
    println!(
        "# {name} seed={} (traced)\n# {}",
        args.seed,
        metrics::detail(&traced)
    );
    let metrics = metrics::per_layer(&base_sequence, &traced, &settings.work_dir);
    let t = &traced.harness;
    Result1 {
        metrics,
        attempted: base_attempted + t.attempted,
        failed: base_failed + t.failed,
        errors: base_errors
            .into_iter()
            .chain(t.errors.iter().cloned())
            .collect(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = WorkDir(
        std::env::current_dir()
            .expect("current directory is readable")
            .join(".bench_work")
            .join(std::process::id().to_string()),
    );
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("e2ebench: cannot create {}: {e}", work.0.display());
        return ExitCode::from(2);
    }
    let settings = Settings {
        seed: args.seed,
        tiny: args.tiny,
        work_dir: work.0.clone(),
    };
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let mut all = Result1 {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    for name in &names {
        let mut r = run_workload(name, &args, &settings);
        if names.len() > 1 {
            for m in &mut r.metrics {
                m.0 = format!("{name}/{}", m.0);
            }
        }
        all.metrics.extend(r.metrics);
        all.attempted += r.attempted;
        all.failed += r.failed;
        all.errors.extend(r.errors);
    }
    for e in &all.errors {
        eprintln!("e2ebench: verification failed: {e}");
    }
    let finite = all.metrics.iter().all(|m| m.1.is_finite());
    if !finite {
        eprintln!("e2ebench: a metric had no samples");
    }
    let correct = all.errors.is_empty() && all.failed == 0 && all.attempted > 0 && finite;
    println!("{}", result_line(correct, &all));
    ExitCode::SUCCESS
}

fn result_line(correct: bool, r: &Result1) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}
