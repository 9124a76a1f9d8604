//! The repo's one benchmark. See `README.md` beside this package.
//!
//! `rcqa-benchmark run --workload <name|all> --seed <u64> [--seconds S]
//! [--trace [0|1]] [--repeat N] [--smoke] [--ops N]`
//!
//! Prints every metric by name with its unit and sample count, then — as the
//! last line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero on a wrong answer.

mod alloc;
mod calib;
mod metrics;
mod model;
mod oracle;
mod probes;
mod shadow;
mod stats;
mod trace;
mod workloads;

use metrics::{Metric, Metrics, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use workloads::{Params, Report};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: rcqa-benchmark run --workload <name|all> --seed <u64> \
[--seconds S] [--trace [0|1]] [--repeat N] [--smoke] [--ops N]
workloads: analytic_cold serve_read_heavy serve_write_heavy serve_sharded";

struct Cli {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    smoke: bool,
    max_ops: Option<u64>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        repeat: 1,
        smoke: false,
        max_ops: None,
    };
    let mut it = args.iter().peekable();
    if it.next().map(String::as_str) != Some("run") {
        return Err("the first argument must be `run`".into());
    }
    fn value<'a>(
        it: &mut impl Iterator<Item = &'a String>,
        flag: &str,
    ) -> Result<&'a String, String> {
        it.next().ok_or(format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("{flag}: `{raw}` is not a number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                cli.workloads = if name == "all" {
                    workloads::NAMES.to_vec()
                } else {
                    let known = workloads::NAMES.iter().find(|n| *n == name);
                    vec![*known.ok_or(format!("unknown workload `{name}`"))?]
                };
            }
            "--seed" => cli.seed = number(value(&mut it, flag)?, flag)?,
            "--seconds" => {
                cli.seconds = number(value(&mut it, flag)?, flag)?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--repeat" => cli.repeat = number::<usize>(value(&mut it, flag)?, flag)?.max(1),
            "--ops" => cli.max_ops = Some(number(value(&mut it, flag)?, flag)?),
            "--smoke" => cli.smoke = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                cli.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

/// One invocation's result for one workload: the metrics to report, and the
/// counts for the result line.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
}

fn describe(workload: &str, report: &Report) {
    println!(
        "# {workload}: attempted {} failed {} ops_digest {:016x} answers_digest {:016x}",
        report.attempted, report.failed, report.ops_digest, report.answers_digest
    );
    println!("# {workload}: measured-phase {:?}", report.stats);
}

/// An untraced run: the end-to-end metrics.
fn untraced(workload: &str, p: &Params) -> Outcome {
    let report = workloads::run(workload, p).expect("workload names are checked when parsed");
    describe(workload, &report);
    Outcome {
        metrics: report.metrics,
        attempted: report.attempted,
        failed: report.failed,
    }
}

/// A traced invocation: the workload once untraced and once with the span
/// recorder on, each for half the time, then the layer probes. End-to-end
/// numbers (and the tails reported per layer) come from the untraced half;
/// the difference in throughput between the halves is the tracing overhead.
fn traced(workload: &str, p: &Params) -> std::io::Result<Outcome> {
    let half = Params {
        seconds: p.seconds / 2.0,
        traced: false,
        ..p.clone()
    };
    let base = workloads::run(workload, &half).expect("workload names are checked when parsed");
    describe(workload, &base);
    let with_spans = Params {
        traced: true,
        ..half
    };
    let spans = workloads::run(workload, &with_spans).expect("checked above");
    describe(workload, &spans);
    let mut metrics = probes::run(p);
    // Shadow shares exist only in the traced half; everything else is taken
    // from the untraced one.
    metrics.extend(spans.metrics);
    metrics.extend(base.metrics);
    let overhead = 1.0 - spans.ops_per_s_sans_shadow / metrics["ops_per_s"].value;
    metrics::put(&mut metrics, "trace_overhead_share", overhead, "ratio", 2);
    if let Some(recorder) = &spans.recorder {
        let path = p.out_dir.join(format!("trace-{workload}.json"));
        recorder.write_json(&path)?;
        for (name, ns) in recorder.self_time_by_name() {
            println!("# {workload} self time {name} = {} ms", ns as f64 / 1e6);
        }
        println!(
            "# {} spans written to {}",
            recorder.spans().len(),
            path.display()
        );
    }
    Ok(Outcome {
        metrics,
        attempted: base.attempted + spans.attempted,
        failed: base.failed + spans.failed,
    })
}

fn print_metrics(workload: &str, metrics: &Metrics) {
    for (name, m) in metrics {
        println!(
            "{workload} {name} = {} {} (n={})",
            m.value, m.unit, m.samples
        );
    }
}

/// The result line: exactly the metrics of `table`. A per-layer metric a
/// workload has no part in reads 0; an end-to-end metric must have been
/// measured.
fn result_line(
    table: &[(&str, &'static str)],
    outcome: &Outcome,
    strict: bool,
) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in table {
        let value = match outcome.metrics.get(*name) {
            Some(Metric { value, .. }) if value.is_finite() => *value,
            Some(_) => return Err(format!("{name} is not a finite number")),
            None if strict => {
                return Err(format!(
                    "{name} could not be measured: too few ops of its class; raise --seconds"
                ))
            }
            None => 0.0,
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

/// `--repeat N`: N runs on seeds `seed..seed+N`, then median and quartiles
/// per metric — what the bounds in `BENCHMARK.json` were set from.
fn calibrate(workload: &'static str, cli: &Cli, p: &Params) -> Result<u64, String> {
    let mut values: std::collections::BTreeMap<String, (Vec<f64>, &'static str)> =
        Default::default();
    let mut failed = 0;
    for i in 0..cli.repeat {
        let p = Params {
            seed: cli.seed + i as u64,
            ..p.clone()
        };
        let outcome = if cli.traced {
            traced(workload, &p).map_err(|e| e.to_string())?
        } else {
            untraced(workload, &p)
        };
        failed += outcome.failed;
        for (name, m) in outcome.metrics {
            values
                .entry(name)
                .or_insert((Vec::new(), m.unit))
                .0
                .push(m.value);
        }
    }
    println!(
        "# {workload}: {} runs, seeds {}..{}",
        cli.repeat,
        cli.seed,
        cli.seed + cli.repeat as u64
    );
    for (name, (v, unit)) in &values {
        match stats::quartiles(v) {
            Some([q1, q2, q3]) => println!(
                "{workload} {name}: median {q2} {unit}, quartiles [{q1}, {q3}], spread {:.4} (runs={})",
                (q3 - q1) / q2,
                v.len()
            ),
            None => println!("{workload} {name}: {} {unit} (runs={})", v[0], v.len()),
        }
        let runs: Vec<String> = v.iter().map(|x| format!("{x:.4e}")).collect();
        println!("#   runs: {}", runs.join(" "));
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let p = Params {
        seed: cli.seed,
        seconds: cli.seconds,
        max_ops: cli.max_ops,
        facts: if cli.smoke { 10_000 } else { 100_000 },
        traced: cli.traced,
        // Inside the package, so inside the checkout wherever it is run from.
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    println!(
        "# rcqa-benchmark seed {} seconds {} facts {} threads {}",
        p.seed,
        p.seconds,
        p.facts,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut failed = 0;
    for workload in &cli.workloads {
        if cli.repeat > 1 {
            match calibrate(workload, &cli, &p) {
                Ok(f) => failed += f,
                Err(e) => {
                    eprintln!("{workload}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            continue;
        }
        let (outcome, table) = if cli.traced {
            match traced(workload, &p) {
                Ok(outcome) => (outcome, PER_LAYER),
                Err(e) => {
                    eprintln!("{workload}: writing the trace failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            (untraced(workload, &p), END_TO_END)
        };
        print_metrics(workload, &outcome.metrics);
        match result_line(table, &outcome, !cli.traced) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("{workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
        failed += outcome.failed;
    }
    if failed > 0 {
        eprintln!("{failed} ops failed or answered wrongly");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation_and_the_human_one() {
        let cli = parse(&args(
            "run --workload serve_sharded --seed 9 --seconds 15 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (cli.workloads.as_slice(), cli.seed, cli.traced),
            (&["serve_sharded"][..], 9, false)
        );
        let cli = parse(&args("run --workload all --seed 3 --trace 1")).unwrap();
        assert!(cli.traced && cli.workloads.len() == 4);
        let cli = parse(&args(
            "run --workload analytic_cold --trace --repeat 5 --smoke",
        ))
        .unwrap();
        assert!(cli.traced && cli.smoke && cli.repeat == 5);
        assert!(parse(&args("run --workload nope")).is_err());
        assert!(parse(&args("--workload all")).is_err());
        assert!(parse(&args("run --seed 1")).is_err());
        assert!(parse(&args("run --workload all --seconds 0")).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let mut metrics = Metrics::new();
        for (name, unit) in END_TO_END {
            metrics::put(&mut metrics, name, 1.5, unit, 3);
        }
        let mut outcome = Outcome {
            metrics,
            attempted: 7,
            failed: 0,
        };
        let line = result_line(END_TO_END, &outcome, true).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // A per-layer metric the workload has no part in reads 0 ...
        let line = result_line(PER_LAYER, &outcome, false).unwrap();
        assert_eq!(line.matches("\"value\": 0,").count(), PER_LAYER.len());
        // ... an end-to-end metric that was not measured is an error.
        outcome.metrics.remove("restart_s");
        assert!(result_line(END_TO_END, &outcome, true).is_err());
        outcome.failed = 1;
        assert!(result_line(PER_LAYER, &outcome, false)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }
}
