//! What every workload shares: the run context (operation counts, the
//! tracer, scratch directory), the end-to-end and per-layer accumulators,
//! and the timed calls into the program's public entry points.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use qof_core::{FileDatabase, QueryResult, QueryTrace, RunStats};
use qof_grammar::StructuringSchema;
use qof_pat::Engine;
use qof_text::Corpus;

use crate::oracle::{check_full_load, Expected, Proj, Shape};
use crate::spans::Tracer;
use crate::stats::{median, p95, ratio};
use crate::{out_dir, Args};

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end samples of one untraced run.
#[derive(Debug, Default)]
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub query_ms: Vec<f64>,
    /// Operations completed in the measured phase, and the seconds that
    /// phase took as the caller saw it.
    pub ops: u64,
    pub busy_s: f64,
    pub add_ms: Vec<f64>,
    /// The p95 of each window of consecutive samples, where a workload
    /// cuts its samples into windows; the reported p95 is then their
    /// median, so that a pause of the host within one window does not
    /// decide the run's tail.
    pub query_p95_windows: Vec<f64>,
    pub add_p95_windows: Vec<f64>,
    /// Peak resident memory at the end of the measured phase, before the
    /// run's closing cross-checks.
    pub peak_rss_mb: f64,
    pub stored_ratio: f64,
}

impl E2e {
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("setup_s", median(&self.setup_s)),
            ("query_p50_ms", median(&self.query_ms)),
            ("query_p95_ms", windowed_p95(&self.query_p95_windows, &self.query_ms)),
            (
                "throughput_ops_s",
                if self.busy_s > 0.0 { self.ops as f64 / self.busy_s } else { 0.0 },
            ),
            ("add_p50_ms", median(&self.add_ms)),
            ("add_p95_ms", windowed_p95(&self.add_p95_windows, &self.add_ms)),
            ("peak_rss_mb", self.peak_rss_mb),
            ("stored_bytes_per_corpus_byte", self.stored_ratio),
        ])
    }
}

/// The median of per-window p95s, or the p95 of all samples where no
/// window was filled.
fn windowed_p95(windows: &[f64], samples: &[f64]) -> f64 {
    if windows.is_empty() {
        p95(samples)
    } else {
        median(windows)
    }
}

/// The p95 of every whole window of `size` consecutive samples.
pub fn window_p95s(samples: &[f64], size: usize) -> impl Iterator<Item = f64> + '_ {
    samples.chunks_exact(size).map(p95)
}

/// Per-layer samples and counts of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub plan_us: Vec<f64>,
    pub plan_hits: u64,
    pub plan_lookups: u64,
    pub engine_setup_ms: Vec<f64>,
    pub universe_regions: u64,
    pub index_ms: Vec<f64>,
    pub queries: u64,
    pub run: RunTotals,
    /// Per query: index-candidates, content-join, parse-filter,
    /// projection, and the rest of `total_nanos`.
    pub phase_ms: [Vec<f64>; 5],
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub cache_evictions: u64,
    pub persist_s: Vec<f64>,
    pub open_s: Vec<f64>,
    pub word_lookup_us: Vec<f64>,
    pub first_query_ms: Vec<f64>,
    pub engine_total_ms: Vec<f64>,
    pub outside_engine_ms: Vec<f64>,
    pub response_bytes: u64,
    pub responses: u64,
    pub caller_ms: Vec<f64>,
    pub full_load_ms: Vec<f64>,
    pub grep_ms: Vec<f64>,
    pub spans: u64,
}

/// Sums of `RunStats` counters over the traced queries.
#[derive(Debug, Default)]
pub struct RunTotals {
    pub word_probes: u64,
    pub match_points: u64,
    pub regions_consumed: u64,
    pub candidates: u64,
    pub results: u64,
    pub parse_bytes: u64,
    pub parse_nodes: u64,
    pub objects: u64,
    pub content_bytes: u64,
}

const PHASES: [&str; 4] = ["index-candidates", "content-join", "parse-filter", "projection"];

impl Layers {
    /// Folds in one executed query's trace and counters.
    pub fn absorb(&mut self, trace: &QueryTrace, stats: &RunStats) {
        self.queries += 1;
        let r = &mut self.run;
        r.word_probes += stats.eval.word_probes;
        r.match_points += stats.eval.match_points;
        r.regions_consumed += stats.eval.regions_consumed;
        r.candidates += stats.candidates as u64;
        r.results += stats.results as u64;
        r.parse_bytes += stats.parse.bytes_scanned;
        r.parse_nodes += stats.parse.nodes_built;
        r.objects += stats.db.objects_created;
        r.content_bytes += stats.content_bytes;
        let mut inside = 0u64;
        for (i, name) in PHASES.iter().enumerate() {
            let nanos: u64 = trace.phases.iter().filter(|p| p.name == *name).map(|p| p.nanos).sum();
            inside += nanos;
            self.phase_ms[i].push(nanos as f64 / 1e6);
        }
        self.phase_ms[4].push(trace.total_nanos.saturating_sub(inside) as f64 / 1e6);
    }

    /// Records one call as its caller saw it: the caller's latency and the
    /// engine time the program reported for it.
    pub fn caller(&mut self, latency_ms: f64, engine_ms: f64) {
        self.caller_ms.push(latency_ms);
        self.engine_total_ms.push(engine_ms);
        self.outside_engine_ms.push(latency_ms - engine_ms);
        self.responses += 1;
    }

    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let q = self.queries;
        let r = &self.run;
        BTreeMap::from([
            ("plan.p50_us", median(&self.plan_us)),
            ("plan_cache.hit_ratio", ratio(self.plan_hits, self.plan_lookups)),
            ("plan_cache.lookups", self.plan_lookups as f64),
            ("engine.setup_ms", median(&self.engine_setup_ms)),
            ("engine.universe_regions", self.universe_regions as f64),
            ("index.p50_ms", median(&self.index_ms)),
            ("index.word_probes_per_query", ratio(r.word_probes, q)),
            ("index.match_points_per_query", ratio(r.match_points, q)),
            ("index.regions_consumed_per_query", ratio(r.regions_consumed, q)),
            ("index.candidates_per_result", ratio(r.candidates, r.results)),
            ("index.results", r.results as f64),
            ("phase.index_candidates_ms", median(&self.phase_ms[0])),
            ("phase.content_join_ms", median(&self.phase_ms[1])),
            ("phase.parse_filter_ms", median(&self.phase_ms[2])),
            ("phase.projection_ms", median(&self.phase_ms[3])),
            ("phase.outside_ms", median(&self.phase_ms[4])),
            ("parse.bytes_per_query", ratio(r.parse_bytes, q)),
            ("parse.nodes_per_query", ratio(r.parse_nodes, q)),
            ("db.objects_per_query", ratio(r.objects, q)),
            ("exec.content_bytes_per_query", ratio(r.content_bytes, q)),
            ("subexpr_cache.hit_ratio", ratio(self.cache_hits, self.cache_lookups)),
            ("subexpr_cache.lookups", self.cache_lookups as f64),
            ("subexpr_cache.evictions", self.cache_evictions as f64),
            ("qofx.persist_s", median(&self.persist_s)),
            ("qofx.open_s", median(&self.open_s)),
            ("word_lookup.p50_us", median(&self.word_lookup_us)),
            ("add.first_query_ms", median(&self.first_query_ms)),
            ("server.engine_p50_ms", median(&self.engine_total_ms)),
            ("server.outside_engine_p50_ms", median(&self.outside_engine_ms)),
            ("server.response_bytes_per_query", ratio(self.response_bytes, self.responses)),
            ("trace.query_p50_ms", median(&self.caller_ms)),
            ("reference.full_load_ms", median(&self.full_load_ms)),
            ("reference.grep_scan_ms", median(&self.grep_ms)),
            ("trace.spans", self.spans as f64),
        ])
    }
}

/// The state of one run.
pub struct Ctx {
    pub args: Args,
    /// Present in the traced run only.
    pub tracer: Option<Tracer>,
    pub e2e: E2e,
    pub layers: Layers,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations whose answer was wrong (the rest raised errors).
    pub wrong: u64,
    /// Whole-run checks that failed (e.g. answers after a reopen).
    pub broken: u64,
    pub notes: Vec<String>,
    /// Set while traced queries only probe the layers below the caller
    /// (the `serve` workload takes caller-side and cache figures from its
    /// HTTP load instead).
    pub probe_only: bool,
    /// Scratch directory for `.qofx` files and the query log; removed
    /// when the run ends.
    pub tmp: PathBuf,
    next_op: u64,
}

impl Ctx {
    pub fn new(args: &Args) -> Result<Ctx, String> {
        let tmp = out_dir().join(format!("tmp-{}-{}", args.workload, std::process::id()));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        Ok(Ctx {
            args: args.clone(),
            tracer: args.trace.then(|| Tracer::new(Instant::now())),
            e2e: E2e::default(),
            layers: Layers::default(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            broken: 0,
            notes: Vec::new(),
            probe_only: false,
            tmp,
            next_op: 0,
        })
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.broken == 0
    }

    pub fn seed(&self) -> u64 {
        self.args.seed
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < 20 {
            self.notes.push(msg);
        }
    }

    /// Counts one operation whose answer was checked.
    pub fn checked(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            self.wrong += 1;
            self.note(format!("wrong answer to {what}: {e}"));
        }
    }

    /// Counts one operation that raised an error.
    pub fn errored(&mut self, what: &str, err: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        self.note(format!("{what} failed: {err}"));
    }

    /// Records a whole-run check that does not count as an operation.
    pub fn invariant(&mut self, what: &str, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.broken += 1;
            self.note(format!("{what}: {e}"));
        }
    }

    /// Writes the span file (traced run) and removes the scratch directory.
    pub fn finish(&mut self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.tmp);
        let Some(tracer) = self.tracer.as_mut() else { return Ok(()) };
        let path =
            out_dir().join(format!("spans-{}-seed{}.json", self.args.workload, self.args.seed));
        tracer.write(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        self.layers.spans = tracer.len() as u64;
        eprintln!("perfbench: {} spans written to {}", tracer.len(), path.display());
        Ok(())
    }

    pub fn tmp_path(&self, name: &str) -> PathBuf {
        self.tmp.join(name)
    }

    /// Runs `f` as one span of the traced run (a root span when `parent`
    /// is 0), or just times it.
    pub fn span<T>(&mut self, name: &str, parent: u64, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        match self.tracer.as_mut() {
            Some(t) => t.time(name, parent, op, f),
            None => timed(f),
        }
    }

    /// Runs one query and checks its answer; returns the caller's latency
    /// in milliseconds when the query ran and answered correctly.
    ///
    /// Untraced, the only call is `FileDatabase::query`. Traced, the same
    /// query is also parsed, planned and given a fresh engine, the answer
    /// comes from `query_traced` (whose phases become child spans), and
    /// then its index phase runs alone; each call has its own span.
    pub fn query(
        &mut self,
        db: &FileDatabase,
        text: &str,
        check: impl FnOnce(&QueryResult) -> Result<(), String>,
    ) -> Option<f64> {
        let outcome =
            if self.traced() { self.traced_query(db, text) } else { untraced_query(db, text) };
        match outcome {
            Ok((result, ms)) => {
                let verdict = check(&result);
                let ok = verdict.is_ok();
                self.checked(text, verdict);
                ok.then_some(ms)
            }
            Err(e) => {
                self.errored(text, e);
                None
            }
        }
    }

    fn traced_query(
        &mut self,
        db: &FileDatabase,
        text: &str,
    ) -> Result<(QueryResult, f64), String> {
        let op = self.next_op();
        let Ctx { tracer, layers, .. } = self;
        let tr = tracer.as_mut().expect("traced run");
        let root = tr.open();
        let (parsed, _) =
            tr.time("qof_core::parse_query", root.id, op, || qof_core::parse_query(text));
        parsed.map_err(|e| e.to_string())?;
        let before = db.plan_cache_stats();
        let (plan, secs) = tr.time("FileDatabase::plan", root.id, op, || db.plan(text));
        let after = db.plan_cache_stats();
        plan.map_err(|e| e.to_string())?;
        layers.plan_us.push(secs * 1e6);
        let (engine, secs) = tr.time("Engine::new", root.id, op, || {
            Engine::new(db.corpus(), db.word_index(), db.instance())
        });
        layers.universe_regions = engine.universe().len() as u64;
        drop(engine);
        layers.engine_setup_ms.push(secs * 1e3);
        let cache_before = db.cache_stats();
        let call = tr.open();
        let outcome = db.query_traced(text);
        tr.close(call, "FileDatabase::query_traced", root.id, op);
        let end_ns = tr.now_ns();
        let cache_after = db.cache_stats();
        let (result, trace) = outcome.map_err(|e| e.to_string())?;
        for p in &trace.phases {
            let start = call.start_ns + p.start_nanos;
            tr.record(&format!("phase:{}", p.name), call.id, op, start, start + p.nanos);
        }
        // The index phase alone, after the full query so that the
        // subexpression-cache figures above are the full query's own.
        let (index, secs) =
            tr.time("FileDatabase::query_regions", root.id, op, || db.query_regions(text));
        index.map_err(|e| e.to_string())?;
        layers.index_ms.push(secs * 1e3);
        tr.close(root, "query", 0, op);
        let ms = (end_ns - call.start_ns) as f64 / 1e6;
        layers.absorb(&trace, &result.stats);
        if self.probe_only {
            return Ok((result, ms));
        }
        layers.plan_hits += after.hits - before.hits;
        layers.plan_lookups += (after.hits + after.misses) - (before.hits + before.misses);
        layers.caller(ms, trace.total_nanos as f64 / 1e6);
        let hits = cache_after.hits.saturating_sub(cache_before.hits);
        let misses = cache_after.misses.saturating_sub(cache_before.misses);
        layers.cache_hits += hits;
        layers.cache_lookups += hits + misses;
        layers.cache_evictions += cache_after.evictions.saturating_sub(cache_before.evictions);
        Ok((result, ms))
    }

    /// `FileDatabase::add_file`, timed; `None` if it failed.
    pub fn add_file(&mut self, db: &mut FileDatabase, name: &str, text: &str) -> Option<f64> {
        let op = self.next_op();
        let (outcome, secs) =
            self.span("FileDatabase::add_file", 0, op, || db.add_file(name, text));
        match outcome {
            Ok(()) => {
                self.attempted += 1;
                Some(secs * 1e3)
            }
            Err(e) => {
                self.errored(&format!("add_file {name}"), e);
                None
            }
        }
    }

    /// Persists `db` to a `.qofx` file and reopens it, timing both calls.
    /// Returns the reopened database and the file's size in bytes.
    pub fn persist_and_open(
        &mut self,
        db: &FileDatabase,
        schema: StructuringSchema,
        name: &str,
    ) -> Result<(FileDatabase, u64), String> {
        let path = self.tmp_path(name);
        let op = self.next_op();
        let (bytes, persist_s) = self.span("FileDatabase::persist", 0, op, || db.persist(&path));
        let bytes = bytes.map_err(|e| format!("persist {}: {e}", path.display()))?;
        let (opened, open_s) =
            self.span("FileDatabase::open", 0, op, || FileDatabase::open(&path, schema));
        let opened = opened.map_err(|e| format!("open {}: {e}", path.display()))?;
        self.layers.persist_s.push(persist_s);
        self.layers.open_s.push(open_s);
        Ok((opened, bytes))
    }

    /// Checks a sample query through `baseline::FullLoad` (one operation)
    /// and keeps its time as the reference for the index path.
    pub fn full_load(
        &mut self,
        corpus: &Corpus,
        schema: &StructuringSchema,
        shape: Shape,
        proj: Proj,
        text: &str,
        want: &Expected,
    ) {
        let op = self.next_op();
        let (verdict, secs) = self.span("baseline::FullLoad", 0, op, || {
            check_full_load(corpus, schema, shape, proj, text, want)
        });
        self.layers.full_load_ms.push(secs * 1e3);
        self.checked(&format!("FullLoad {text}"), verdict);
    }

    /// Traced run only: times word-index lookups and a grep-style scan of
    /// the whole corpus for the same words.
    pub fn probe_words(&mut self, db: &FileDatabase, words: &[&str]) {
        if !self.traced() {
            return;
        }
        for w in words {
            let op = self.next_op();
            let (n, secs) =
                self.span("WordLookup::positions", 0, op, || db.word_index().positions(w).len());
            std::hint::black_box(n);
            self.layers.word_lookup_us.push(secs * 1e6);
        }
        for w in words.iter().take(3) {
            let op = self.next_op();
            let ((lines, secs), _) =
                self.span("grep scan", 0, op, || qof_bench::grep_scan(db.corpus(), w));
            std::hint::black_box(lines);
            self.layers.grep_ms.push(secs * 1e3);
        }
    }
}

fn untraced_query(db: &FileDatabase, text: &str) -> Result<(QueryResult, f64), String> {
    let t = Instant::now();
    let result = db.query(text);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    result.map(|r| (r, ms)).map_err(|e| e.to_string())
}

/// `.qofx` bytes per byte of corpus text.
pub fn stored_ratio(qofx_bytes: u64, corpus: &Corpus) -> f64 {
    qofx_bytes as f64 / f64::from(corpus.len()).max(1.0)
}
