//! `obs_report` — ingest NDJSON run manifests/traces/spans and either
//! summarize them for humans or diff two of them for machines.
//!
//! ```text
//! obs_report summary [--top <n>] <file> [<file>...]
//! obs_report diff <baseline> <candidate>
//! obs_report attribution [--top <n>] <file> [<file>...]
//! ```
//!
//! `summary` prints run identity, counter/histogram/trace/span
//! inventories, the top-`n` counters and `profile.*` work leaves, the
//! profile tree, and per-trace statistics for every run document found
//! in the given files.
//!
//! `diff` compares every golden channel of two files exactly — counters
//! (the `profile.*` work accounting included), integer and float
//! histograms, traces, spans and span elisions — matching run documents
//! by experiment name and spans by stable id. It exits 0 when every
//! channel matches and 1 on any drift, missing channel, or unmatched
//! run — the CI regression gate.
//!
//! `attribution` renders the span-tree rollup of each run: the top-`n`
//! self-work spans, the critical path (heaviest-total descent from the
//! heaviest root), and the per-path work-share table.

use std::process::ExitCode;

use rcs_obs::report::{self, RunDoc};

fn usage() -> ! {
    eprintln!(
        "usage:\n  obs_report summary [--top <n>] <file> [<file>...]\n  obs_report diff \
         <baseline> <candidate>\n  obs_report attribution [--top <n>] <file> [<file>...]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Vec<RunDoc> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("obs_report: cannot read {path}: {err}");
            std::process::exit(2);
        }
    };
    match report::parse_ndjson(&text) {
        Ok(docs) => docs,
        Err(err) => {
            eprintln!("obs_report: {path}: {err}");
            std::process::exit(2);
        }
    }
}

/// Parses `[--top <n>] <file>...` argument tails (shared by `summary`
/// and `attribution`).
fn parse_top_and_files(rest: &[String]) -> (usize, Vec<String>) {
    let mut top = 10usize;
    let mut files = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => {
                let Some(spec) = it.next() else { usage() };
                let Ok(n) = spec.parse::<usize>() else {
                    usage()
                };
                if n == 0 {
                    usage();
                }
                top = n;
            }
            _ if arg.starts_with("--") => usage(),
            _ => files.push(arg.clone()),
        }
    }
    if files.is_empty() {
        usage();
    }
    (top, files)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((mode, rest)) = args.split_first() else {
        usage();
    };
    match mode.as_str() {
        "summary" => {
            let (top, files) = parse_top_and_files(rest);
            for path in &files {
                let docs = load(path);
                print!("{}", report::summary_top(&docs, top));
            }
            ExitCode::SUCCESS
        }
        "diff" => {
            let [baseline, candidate] = rest else { usage() };
            if baseline.starts_with("--") || candidate.starts_with("--") {
                usage();
            }
            let diff = report::diff_docs(&load(baseline), &load(candidate));
            print!("{}", diff.render());
            if diff.has_regressions() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "attribution" => {
            let (top, files) = parse_top_and_files(rest);
            for path in &files {
                let docs = load(path);
                print!("{}", report::attribution(&docs, top));
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
