//! The RevEAL attack benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <profile|attack|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! records a span around every call the benchmark makes into a layer and
//! reports per-layer self time, counts, tracing overhead and closure. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the full result and the spans are
//! written under `perfbench/out/`. The exit code is 0 only when every
//! correctness check passed. See `perfbench/METRICS.md`.

mod attack;
mod common;
mod openloop;
mod profile;
mod serve;
mod span;
mod stats;

use std::fmt::Write as _;
use std::path::Path;

use common::{Outcome, Seeds, END_TO_END, PER_LAYER};
use span::Tracer;

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["profile", "attack", "serve"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Topology and provenance, as a JSON object.
fn provenance(args: &Args, seeds: &Seeds) -> String {
    let (profile_runs, degree) = common::workload_shape();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {}, \"pinned_seed\": {}, \"trace\": {}, \"seconds\": {}, \
\"scale\": \"standard\", \"ring_degree\": {degree}, \"profile_runs\": {profile_runs}, \"noise_sampler\": \"marsaglia_polar\", \
\"nproc\": {}, \"available_parallelism\": {}, \"reveal_threads_env\": {}, \"par_threads\": {}, \"serve_workers\": {}, \
\"spawn_cost_ns\": {:.1}, \"git_commit\": \"{}\"}}",
        args.workload,
        seeds.given,
        seeds.held_out,
        common::MASTER_SEED,
        u8::from(args.trace),
        args.seconds,
        common::nproc(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        std::env::var("REVEAL_THREADS").map_or_else(|_| "null".to_string(), |v| format!("\"{}\"", v.escape_default())),
        reveal_par::max_threads(),
        common::serve_workers(),
        reveal_par::spawn_cost_ns(),
        common::git_commit(),
    )
}

fn metric_json(out: &Outcome, catalogue: &[(&'static str, &'static str)]) -> String {
    let fields: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let value = out.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A JSON array of strings.
fn json_strings(lines: &[String]) -> String {
    let quoted: Vec<String> = lines
        .iter()
        .map(|line| {
            let mut q = String::from("\"");
            for c in line.chars() {
                match c {
                    '"' => q.push_str("\\\""),
                    '\\' => q.push_str("\\\\"),
                    c if c.is_control() => {
                        let _ = write!(q, "\\u{:04x}", u32::from(c));
                    }
                    c => q.push(c),
                }
            }
            q.push('"');
            q
        })
        .collect();
    format!("[{}]", quoted.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).expect("create perfbench/out");

    let seeds = Seeds::new(args.seed);
    let mut tracer = Tracer::new(args.trace);
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "profile" => profile::run(&args, &mut tracer, &mut out),
        "attack" => attack::run(&args, &mut tracer, &mut out),
        _ => serve::run(&args, &mut tracer, &mut out, &out_dir),
    }
    if !out.values.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", common::peak_rss_mb());
    }
    out.set(
        "success_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    if !out.values.contains_key("par.threads") {
        out.set("par.threads", reveal_par::max_threads() as f64);
    }
    out.set("par.spawn_cost_ns", reveal_par::spawn_cost_ns());

    let provenance = provenance(&args, &seeds);
    let correct = out.problems.is_empty();
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;

    let mut text = format!(
        "perfbench {} seed {} (held-out {})\n",
        args.workload, seeds.given, seeds.held_out
    );
    let _ = writeln!(text, "provenance {provenance}");
    for line in &out.notes {
        let _ = writeln!(text, "  {line}");
    }
    let shown: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in shown {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(text, "  {name:<28} {value:>14.6} {unit}");
    }
    let _ = writeln!(
        text,
        "  {:<28} {failed_frac:>14.6} ratio ({} of {} failed)",
        "failed_frac", out.failed, out.attempted
    );
    for p in &out.problems {
        let _ = writeln!(text, "  FAILED: {p}");
    }
    print!("{text}");

    let metrics = metric_json(&out, shown);
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let full = format!(
        "{{\"provenance\": {provenance}, \"failed_frac\": {failed_frac}, \"end_to_end\": {}, \"per_layer\": {}, \"notes\": {}, \"problems\": {}}}\n",
        metric_json(&out, &END_TO_END),
        metric_json(&out, &PER_LAYER),
        json_strings(&out.notes),
        json_strings(&out.problems),
    );
    std::fs::write(out_dir.join(format!("{stem}.json")), full).expect("write result");
    if args.trace {
        std::fs::write(
            out_dir.join(format!("{stem}-spans.jsonl")),
            tracer.to_jsonl(),
        )
        .expect("write spans");
    }
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` declares, in order.
    fn declared(section: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let names =
            |c: &[(&str, &str)]| c.iter().map(|(n, _)| (*n).to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(&END_TO_END));
        assert_eq!(declared("per_layer"), names(&PER_LAYER));
        assert_eq!(declared("workloads"), WORKLOADS.map(String::from).to_vec());
    }

    #[test]
    fn result_strings_are_json_escaped() {
        let lines = vec!["a\"b\\c\nd".to_string(), "σ = 0".to_string()];
        assert_eq!(json_strings(&lines), r#"["a\"b\\c\u000ad", "σ = 0"]"#);
        assert_eq!(json_strings(&[]), "[]");
    }

    #[test]
    fn every_layer_metric_names_a_layer() {
        for (name, _) in PER_LAYER {
            let layer = name.split('.').next().expect("dotted name");
            assert!(
                common::LAYERS.contains(&layer) || layer == "par",
                "{name} names no layer"
            );
        }
    }
}
