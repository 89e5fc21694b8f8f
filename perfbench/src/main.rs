//! The qof benchmark: one command, two workloads.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with nothing
//! but the benchmark's own clock around each call; with `--trace 1` it
//! wraps every call into the program's public entry points in a span, keeps
//! the spans in memory, writes them to `out/` when it ends, and reports the
//! per-layer metrics. Either way every answer is checked, and the last line
//! of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.

mod client;
mod ingest;
mod oracle;
mod run;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use run::Ctx;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["serve", "ingest"];

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("add_p50_ms", "ms"),
    ("add_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_corpus_byte", "B/B"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.p50_us", "us"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.lookups", "count"),
    ("engine.setup_ms", "ms"),
    ("engine.universe_regions", "count"),
    ("index.p50_ms", "ms"),
    ("index.word_probes_per_query", "count"),
    ("index.match_points_per_query", "count"),
    ("index.regions_consumed_per_query", "count"),
    ("index.candidates_per_result", "ratio"),
    ("index.results", "count"),
    ("phase.index_candidates_ms", "ms"),
    ("phase.content_join_ms", "ms"),
    ("phase.parse_filter_ms", "ms"),
    ("phase.projection_ms", "ms"),
    ("phase.outside_ms", "ms"),
    ("parse.bytes_per_query", "B"),
    ("parse.nodes_per_query", "count"),
    ("db.objects_per_query", "count"),
    ("exec.content_bytes_per_query", "B"),
    ("subexpr_cache.hit_ratio", "ratio"),
    ("subexpr_cache.lookups", "count"),
    ("subexpr_cache.evictions", "count"),
    ("qofx.persist_s", "s"),
    ("qofx.open_s", "s"),
    ("word_lookup.p50_us", "us"),
    ("add.first_query_ms", "ms"),
    ("server.engine_p50_ms", "ms"),
    ("server.outside_engine_p50_ms", "ms"),
    ("server.response_bytes_per_query", "B"),
    ("trace.query_p50_ms", "ms"),
    ("reference.full_load_ms", "ms"),
    ("reference.grep_scan_ms", "ms"),
    ("trace.spans", "count"),
];

/// Where runs leave their span files and scratch data: `out/` beside this
/// package's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("seconds must lie in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Formats the result line, insisting that `metrics` holds exactly the
/// declared metrics of the mode, each a finite number.
fn result_line(
    ctx: &Ctx,
    metrics: &BTreeMap<&'static str, f64>,
    declared: &[(&str, &str)],
) -> Result<String, String> {
    let names: Vec<&str> = metrics.keys().copied().collect();
    let mut want: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    want.sort_unstable();
    if names != want {
        return Err(format!("reported metrics {names:?} differ from the declared {want:?}"));
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ctx.correct(),
        ctx.attempted,
        ctx.failed
    );
    for (i, (name, unit)) in declared.iter().enumerate() {
        let v = metrics[name];
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!("{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
    }
    out.push_str("}}");
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run_workload(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_workload(args: &Args) -> Result<String, String> {
    let mut ctx = Ctx::new(args)?;
    let outcome = match args.workload.as_str() {
        "serve" => serve::run(&mut ctx),
        "ingest" => ingest::run(&mut ctx),
        other => Err(format!("unknown workload `{other}`")),
    };
    let written = ctx.finish();
    for note in &ctx.notes {
        eprintln!("perfbench: {note}");
    }
    outcome?;
    written?;
    if args.trace {
        result_line(&ctx, &ctx.layers.metrics(), PER_LAYER)
    } else {
        result_line(&ctx, &ctx.e2e.metrics(), END_TO_END)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_pat::json::{get_arr, get_str, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
            .expect("valid JSON")
    }

    /// `(name, field)` of every entry of the list `key`.
    fn declared(doc: &Json, key: &str, field: &str) -> Vec<(String, String)> {
        get_arr(doc.as_obj().expect("an object"), key)
            .expect("a list")
            .iter()
            .map(|m| {
                let m = m.as_obj().expect("an object");
                (get_str(m, "name").unwrap(), get_str(m, field).unwrap())
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end", "unit"), owned(END_TO_END));
        assert_eq!(declared(&doc, "per_layer", "unit"), owned(PER_LAYER));
        let workloads: Vec<String> =
            declared(&doc, "workloads", "why").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn both_metric_sets_cover_their_declarations() {
        let e2e = run::E2e::default().metrics();
        let layers = run::Layers::default().metrics();
        fn names(m: &BTreeMap<&'static str, f64>) -> Vec<&'static str> {
            m.keys().copied().collect()
        }
        let mut want_e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let mut want_layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        want_e2e.sort_unstable();
        want_layers.sort_unstable();
        assert_eq!(names(&e2e), want_e2e);
        assert_eq!(names(&layers), want_layers);
    }

    #[test]
    fn args_are_validated() {
        let a = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload serve --seed 7 --seconds 2 --trace 1")).unwrap();
        assert_eq!((ok.workload.as_str(), ok.seed, ok.seconds, ok.trace), ("serve", 7, 2.0, true));
        assert!(parse_args(&a("--workload ingest")).is_ok());
        assert!(parse_args(&a("--workload nope")).is_err());
        assert!(parse_args(&a("--workload serve --trace 2")).is_err());
        assert!(parse_args(&a("--workload serve --seconds 0")).is_err());
        assert!(parse_args(&a("--seed 1")).is_err());
    }
}
