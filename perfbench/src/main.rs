//! `perfbench`: the rcs-sim benchmark.
//!
//! ```text
//! perfbench --workload <regen|query_cold|query_hot|all> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! perfbench fingerprints
//! ```
//!
//! A plain run (`--trace 0`) prints the end-to-end metrics; a traced run
//! (`--trace 1`) prints the per-layer metrics and the tracing overhead,
//! and writes its spans to `<out>/spans_<workload>.ndjson`. The last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is 0 only when every output check passed.
//! See `README.md` beside this package.

mod calib;
mod fingerprint;
mod host;
mod inputs;
mod layers;
mod stats;
mod tracer;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use workloads::{cold::Cold, hot::Hot, regen::Regen, Config, Report, END_TO_END, PER_LAYER};

const USAGE: &str = "usage: perfbench --workload <regen|query_cold|query_hot|all> --seed <n> \
--seconds <s> --trace <0|1> [--out <dir>]\n       perfbench fingerprints";

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["regen", "query_cold", "query_hot"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Worker threads of each workload's engine calls.
fn threads(workload: &str) -> usize {
    if workload == "query_cold" {
        host::nproc().min(2)
    } else {
        1
    }
}

fn run_one(workload: &str, a: &Args, start: Instant) -> Report {
    let cfg = Config {
        seed: a.seed,
        seconds: a.seconds,
        threads: threads(workload),
    };
    match workload {
        "regen" => workloads::run::<Regen>(&cfg, a.trace, start),
        "query_cold" => workloads::run::<Cold>(&cfg, a.trace, start),
        _ => workloads::run::<Hot>(&cfg, a.trace, start),
    }
}

/// `value` as JSON: finite numbers as Rust prints them (all digits,
/// round-trip exact), anything else as 0.
fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

/// The metric list a result reports: end-to-end or per-layer.
fn metric_list(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn metrics_json(r: &Report, trace: bool, prefix: &str) -> String {
    metric_list(trace)
        .iter()
        .map(|(name, unit)| {
            let v = r.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{prefix}{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn print_human(workload: &str, a: &Args, r: &Report, stamp: &host::Stamp) {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== perfbench {workload} (seed {}, {} s, {}) ==",
        a.seed,
        a.seconds,
        if a.trace { "traced" } else { "plain" }
    );
    let _ = writeln!(
        s,
        "host: nproc={} cpu={:?} rustc={:?} profile={} commit={} seed={} threads={}",
        stamp.nproc,
        stamp.cpu,
        stamp.rustc,
        stamp.profile,
        stamp.commit,
        a.seed,
        threads(workload)
    );
    let _ = writeln!(s, "{:<30} {:>16}  {:<6}", "metric", "value", "unit");
    for (name, unit) in metric_list(a.trace) {
        let v = r.metrics.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(s, "{name:<30} {v:>16.6}  {unit:<6}");
    }
    let frac = workloads::ratio(r.failed as f64, r.attempted as f64);
    let _ = writeln!(
        s,
        "{:<30} {frac:>16.6}  {:<6} ({} of {} attempted)",
        "failed_frac", "ratio", r.failed, r.attempted
    );
    for n in &r.notes {
        let _ = writeln!(s, "note: {n}");
    }
    let _ = writeln!(
        s,
        "note: first timed operation {:.4} s after process start",
        r.first_op_at_s
    );
    for p in &r.problems {
        let _ = writeln!(s, "MISMATCH: {p}");
    }
    if let Some(t) = &r.tracer {
        let _ = writeln!(
            s,
            "{:<28} {:>8} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, roll) in t.rollup() {
            let _ = writeln!(
                s,
                "{name:<28} {:>8} {:>14.3} {:>14.3}",
                roll.count,
                roll.total_ns as f64 * 1e-6,
                roll.self_ns as f64 * 1e-6
            );
        }
    }
    print!("{s}");
}

/// Writes the spans and a result record (stamp, metrics, notes) under
/// the output directory.
fn write_out(workload: &str, a: &Args, r: &Report, stamp: &host::Stamp) -> std::io::Result<()> {
    std::fs::create_dir_all(&a.out)?;
    if let Some(t) = &r.tracer {
        let path = a.out.join(format!("spans_{workload}.ndjson"));
        t.write_ndjson(&path)?;
        println!("spans: {} ({} spans)", path.display(), t.spans().len());
    }
    let notes: Vec<String> = r.notes.iter().map(|n| format!("{n:?}")).collect();
    let record = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"threads\": {}, \
\"host\": {{\"nproc\": {}, \"cpu\": {:?}, \"rustc\": {:?}, \"profile\": {:?}, \"commit\": {:?}}}, \
\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"notes\": [{}]}}\n",
        a.seed,
        json_num(a.seconds),
        u8::from(a.trace),
        threads(workload),
        stamp.nproc,
        stamp.cpu,
        stamp.rustc,
        stamp.profile,
        stamp.commit,
        r.attempted,
        r.failed,
        metrics_json(r, a.trace, ""),
        notes.join(", ")
    );
    let name = format!(
        "result_{workload}_{}.json",
        if a.trace { "traced" } else { "plain" }
    );
    std::fs::write(a.out.join(name), record)
}

fn fingerprints() {
    print!("{}", workloads::regen::fingerprint().render("regen.pass"));
    let one = workloads::cold::reference(1);
    let many = workloads::cold::reference(host::nproc().min(2));
    assert_eq!(
        one, many,
        "query_cold reference differs across thread counts"
    );
    print!("{}", one.render("query_cold.ref_batch"));
    let (pre, batch) = workloads::hot::reference();
    print!("{}", pre.render("query_hot.prewarm"));
    print!("{}", batch.render("query_hot.ref_batch"));
}

fn main() {
    let start = Instant::now();
    // `regen` is the single-threaded baseline; the query workloads pass
    // their thread counts explicitly, so this pins only `regen`.
    std::env::set_var(layers::parallel::THREADS_ENV, "1");

    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("fingerprints") {
        fingerprints();
        return;
    }
    let a = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let stamp = host::Stamp::read();
    let names: Vec<&str> = if a.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };

    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for w in &names {
        let r = run_one(w, &a, start);
        print_human(w, &a, &r, &stamp);
        if let Err(e) = write_out(w, &a, &r, &stamp) {
            eprintln!(
                "perfbench: cannot write results under {}: {e}",
                a.out.display()
            );
        }
        attempted += r.attempted;
        failed += r.failed;
        let prefix = if names.len() > 1 {
            format!("{w}.")
        } else {
            String::new()
        };
        metrics.push(metrics_json(&r, a.trace, &prefix));
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload query_hot --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("query_hot", 7, 10.0, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--trace 2").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--seed").is_err());
    }

    #[test]
    fn benchmark_json_names_every_metric_the_binary_reports() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                spec.contains(&format!("\"name\": \"{w}\"")),
                "BENCHMARK.json lacks {w}"
            );
        }
    }

    /// A minimal-length run of each workload, plain and traced, passes
    /// every output check and reports every metric.
    #[test]
    fn smoke_run_of_each_workload_passes() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let a = Args {
                    workload: w.into(),
                    seed: 3,
                    seconds: 0.0,
                    trace,
                    out: PathBuf::new(),
                };
                let r = run_one(w, &a, Instant::now());
                assert_eq!(r.failed, 0, "{w} trace={trace}: {:?}", r.problems);
                assert!(r.attempted > 0);
                for (name, _) in metric_list(trace) {
                    let v = r.metrics.get(name).copied();
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{w} trace={trace}: {name} = {v:?}"
                    );
                }
            }
        }
    }
}
