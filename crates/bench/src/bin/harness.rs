//! The experiment harness: regenerates the paper's experiment reports
//! (E1–E10).
//!
//! Usage:
//!   cargo run -p rcqa-bench --bin harness --release             # E1–E10
//!   cargo run -p rcqa-bench --bin harness --release -- e3 e9    # selected ones
//!   cargo run -p rcqa-bench --bin harness --release -- --help   # list modes
//!
//! Unknown experiment names are rejected with a non-zero exit code and the
//! mode listing. Performance is not measured here: that is the job of the
//! repo's one benchmark (`BENCHMARK.json` + the `benchmark/` package).

use std::process::ExitCode;

/// One experiment mode: name, one-line description, report generator.
type Mode = (&'static str, &'static str, fn() -> String);

/// Every experiment mode, in the order a no-argument run prints them.
const MODES: &[Mode] = &[
    (
        "e1",
        "Fig. 1 + introduction query g0 (GLB = 70)",
        rcqa_bench::e1,
    ),
    (
        "e2",
        "Fig. 2 / Example 3.1: attack graph of q0",
        rcqa_bench::e2,
    ),
    (
        "e3",
        "Fig. 3-5 / Section 6.1: ∀embeddings M0, GLB = 9, rewriting",
        rcqa_bench::e3,
    ),
    (
        "e4",
        "Examples 4.1 / 4.4: ∀embeddings over dbStock",
        rcqa_bench::e4,
    ),
    (
        "e5",
        "Separation decision (Theorems 1.1, 5.5, 6.1, 7.10, 7.11)",
        rcqa_bench::e5,
    ),
    (
        "e6",
        "GLB(SUM) scaling: rewriting vs MaxSAT vs exact enumeration",
        || rcqa_bench::format_e6(&rcqa_bench::e6(&[25, 50, 100, 200, 400, 800], 25)),
    ),
    ("e7", "Sensitivity to the inconsistency ratio", || {
        rcqa_bench::e7(&[0.0, 0.05, 0.1, 0.2, 0.4])
    }),
    (
        "e8",
        "GROUP BY range semantics via the SQL session facade",
        rcqa_bench::e8,
    ),
    (
        "e9",
        "Section 7.3: refuting the Caggforest claim",
        rcqa_bench::e9,
    ),
    (
        "e10",
        "MIN/MAX bounds and rewriting-size growth",
        rcqa_bench::e10,
    ),
];

fn known(arg: &str) -> bool {
    MODES.iter().any(|(name, _, _)| *name == arg)
}

fn help_text() -> String {
    let mut out = String::from(
        "usage: harness [MODE ...]\n\nWith no MODE, runs every mode (the paper experiments). Modes:\n\n",
    );
    for (name, desc, _) in MODES {
        out.push_str(&format!("  {name:<4} {desc}\n"));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();

    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        print!("{}", help_text());
        return ExitCode::SUCCESS;
    }

    let unknown: Vec<&String> = args.iter().filter(|a| !known(a)).collect();
    if !unknown.is_empty() {
        for arg in &unknown {
            eprintln!("error: unknown experiment mode {arg:?}");
        }
        eprintln!();
        print!("{}", help_text());
        return ExitCode::from(2);
    }

    println!("rcqa experiment harness — reproduction of PODS 2024 \"Computing Range");
    println!("Consistent Answers to Aggregation Queries via Rewriting\"\n");

    for (name, _, report) in MODES {
        if args.is_empty() || args.iter().any(|a| a == name) {
            println!("{}", report());
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_table_is_exactly_the_paper_experiments() {
        let names: Vec<&str> = MODES.iter().map(|(name, _, _)| *name).collect();
        let paper: Vec<String> = (1..=10).map(|i| format!("e{i}")).collect();
        assert_eq!(names, paper);
        // The retired timing modes and their aliases are unknown, like any
        // other misspelling.
        assert!(["groupby", "shard", "e11", "e19", "e99"]
            .iter()
            .all(|mode| !known(mode)));
        // `--help` lists one line per mode and nothing else mode-shaped.
        let help = help_text();
        assert_eq!(help.lines().filter(|l| l.starts_with("  e")).count(), 10);
    }
}
