//! `serve`: the only workload that crosses HTTP/TCP and the server's
//! always-traced path (query log, flight recorder, workload table, cost
//! calibration). `qof_server::serve` runs over a database opened from a
//! `.qofx` file (3,200 references in 8 files) with the subexpression cache
//! on and the query log written to a file. A warm-up pass checks every
//! query's answer and fills the server's caches; then two keep-alive
//! connections send an E11-style query mix in a closed loop through the
//! benchmark's own client (one write per request, `TCP_NODELAY`). Before
//! the server starts, `add_file` on the served `.qofx` is timed in process.

use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::time::{Duration, Instant};

use qof_core::{ExecOptions, FileDatabase};
use qof_corpus::bibtex::{self, BibtexTruth};
use qof_corpus::{Rng, StdRng, LAST_NAMES};
use qof_grammar::IndexSpec;
use qof_server::{serve, QueryLog, ServerConfig, ServerHandle, DEFAULT_QLOG_KEEP};

use crate::client::HttpClient;
use crate::oracle::{
    self, check_response, check_result, corpus_of, mix, BibQuery, Expected, File, Proj, Shape,
};
use crate::run::{peak_rss_mib, stored_ratio, window_p95s, Ctx};
use crate::spans::Tracer;

const FILES: usize = 8;
const REFS_PER_FILE: usize = 400;
const NAME_POOL: usize = 12;
/// Seeded draws of the query mix, so that no one draw of constants
/// decides a run's figures.
const MIXES: usize = 16;
/// Key lookups added to each draw of the E11 mix. The caller's latencies
/// fall into one band per query: responses of a few KiB wait about 40 ms
/// (the server's several small writes meet the client's delayed ACK),
/// large ones do not, and the CPU-bound bands widen and narrow with the
/// host's speed. With E11's six queries alone the median lies where the
/// third and the fourth band meet and jumps from run to run; with three
/// key lookups, five of nine queries have small responses and the median
/// lies near the lower edge of their band.
const KEY_LOOKUPS: usize = 3;
/// Client connections, one thread each: no more than the two CPUs the
/// benchmark is sized for.
const CONNECTIONS: usize = 2;
/// Passes of the in-process layer probe over the mix (traced run).
const PROBE_PASSES: usize = 3;
/// Set-up rounds timed before the load and again after it, so that the
/// median does not rest on one moment of a shared host.
const SETUP_ROUNDS: usize = 50;
/// The write path: cycles that each reopen the served `.qofx` and add one
/// untimed file (the first add after an open moves the database into
/// memory, a one-time cost `ingest` measures) and then `CYCLE_ADDS` timed
/// ones of `ADD_REFS` references each, so the corpus grows by at most 42
/// references. A first, untimed cycle warms the allocator (its adds all
/// land on fresh pages and take about 2.5× longer); `ADD_CYCLES` timed
/// ones follow: 400 timed adds, so that twenty lie beyond the p95.
const ADD_CYCLES: usize = 20;
const CYCLE_ADDS: usize = 20;
const ADD_REFS: usize = 2;
/// `add_p95_ms` is the median of the p95s of windows of this many timed
/// adds (two cycles; 10 windows); `query_p95_ms` that of windows of
/// `QUERY_WINDOW_PASSES` passes over the mix on one connection (288
/// requests, about three windows per connection in 40 s). Over all samples
/// at once, a pause of the host of a few hundred milliseconds within a run
/// decided its p95: in ten runs the add p95 read 2.3–2.6 ms in seven and
/// 4.1–13.2 ms in three.
const ADD_WINDOW: usize = 2 * CYCLE_ADDS;
const QUERY_WINDOW_PASSES: usize = 2;

fn year(rng: &mut StdRng) -> String {
    (1970 + rng.random_range(0..25)).to_string()
}

/// The E11 workload (`qof_bench::PARALLEL_WORKLOAD`) with seeded
/// constants: point lookups, a content join and overlapping conditions
/// the subexpression cache can share; plus `KEY_LOOKUPS` key lookups.
fn query_mix(rng: &mut StdRng) -> Vec<BibQuery> {
    let mut mix: Vec<BibQuery> = (0..KEY_LOOKUPS)
        .map(|_| BibQuery::KeyObjects(format!("Key{:06}", rng.random_range(0..REFS_PER_FILE))))
        .collect();
    let mut name = || LAST_NAMES[rng.random_range(0..NAME_POOL)].to_owned();
    let (a, b) = (name(), name());
    let y = year(rng);
    mix.extend([
        BibQuery::AuthorObjects(a.clone()),
        BibQuery::EditorIsAuthor,
        BibQuery::YearObjects(y.clone()),
        BibQuery::AuthorKeys(a.clone()),
        BibQuery::AuthorYearKeys(a.clone(), y),
        BibQuery::EditorOrAuthorObjects(a, b),
    ]);
    mix
}

/// One query of the mix with its text and expected answer.
struct Planned {
    text: String,
    proj: Proj,
    want: Expected,
}

/// What one connection's closed loop saw.
#[derive(Default)]
struct Load {
    latency_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    response_bytes: u64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
    tracer: Option<Tracer>,
}

/// The part of a `/query` body that is the same on every run of the same
/// query: everything but the `id` and `total_nanos` fields.
fn answer_part(body: &str) -> Option<(&str, &str)> {
    let results = body.find("\"results\":")?;
    let nanos = body.find(",\"total_nanos\":")?;
    let values = body.find(",\"values\":")?;
    Some((&body[results..nanos], &body[values..]))
}

fn total_nanos(body: &str) -> Option<f64> {
    let rest = &body[body.find("\"total_nanos\":")? + "\"total_nanos\":".len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

fn note(load: &mut Load, msg: String) {
    if load.notes.len() < 10 {
        load.notes.push(msg);
    }
}

fn connect(addr: SocketAddr, load: &mut Load) -> Option<HttpClient> {
    HttpClient::connect(addr)
        .map_err(|e| {
            load.attempted += 1;
            load.failed += 1;
            note(load, format!("connect: {e}"));
        })
        .ok()
}

/// The warm-up: one untimed pass over the mix on a connection of its own.
/// It checks each query's answer against the truth and fills the server's
/// plan and subexpression caches, so the timed load meets the same cache
/// state however many passes it makes. Returns each query's checked answer
/// (its [`answer_part`]s joined), `None` where the check failed.
fn warm_up(addr: SocketAddr, mix: &[Planned], load: &mut Load) -> Vec<Option<String>> {
    let Some(mut client) = connect(addr, load) else { return vec![None; mix.len()] };
    let mut checked = Vec::with_capacity(mix.len());
    for q in mix {
        load.attempted += 1;
        let verdict = match client.send("POST", "/query", &q.text) {
            Ok(ex) if ex.status == 200 => match answer_part(&ex.body) {
                Some(part) => check_response(&ex.body, q.proj, &q.want)
                    .map(|()| format!("{}{}", part.0, part.1)),
                None => Err("response lacks results, values or total_nanos".to_owned()),
            },
            Ok(ex) => Err(format!("HTTP {} {}", ex.status, ex.body)),
            Err(e) => Err(e),
        };
        match verdict {
            Ok(answer) => checked.push(Some(answer)),
            Err(e) => {
                load.failed += 1;
                load.wrong += 1;
                note(load, format!("wrong answer to {}: {e}", q.text));
                checked.push(None);
            }
        }
    }
    checked
}

/// One connection's closed loop: whole passes over the mix, starting at
/// `offset`, until `budget` has passed. Every response must repeat the
/// warm-up's checked answer to its query.
fn closed_loop(
    addr: SocketAddr,
    mix: &[Planned],
    checked: &[Option<String>],
    offset: usize,
    budget: Duration,
    tracer: Option<Tracer>,
    op_base: u64,
) -> Load {
    let mut load = Load { tracer, ..Load::default() };
    let Some(mut client) = connect(addr, &mut load) else { return load };
    let started = Instant::now();
    let mut op = op_base;
    while started.elapsed() < budget {
        for k in 0..mix.len() {
            let i = (k + offset) % mix.len();
            let q = &mix[i];
            op += 1;
            load.attempted += 1;
            let root = load.tracer.as_mut().map(Tracer::open);
            let sent = client.send("POST", "/query", &q.text);
            let ex = match sent {
                Ok(ex) if ex.status == 200 => ex,
                Ok(ex) => {
                    load.failed += 1;
                    note(&mut load, format!("{}: HTTP {} {}", q.text, ex.status, ex.body));
                    continue;
                }
                Err(e) => {
                    load.failed += 1;
                    note(&mut load, format!("{}: {e}", q.text));
                    return load;
                }
            };
            if let (Some(t), Some(root)) = (load.tracer.as_mut(), root) {
                let wrote = root.start_ns + ex.write.as_nanos() as u64;
                let read = root.start_ns + ex.latency.as_nanos() as u64;
                t.record("client write", root.id, op, root.start_ns, wrote);
                t.record("client read", root.id, op, wrote, read);
                t.record("POST /query", 0, op, root.start_ns, read);
            }
            let verdict = match (answer_part(&ex.body), &checked[i]) {
                (Some(part), Some(seen)) => {
                    if part.0.len() + part.1.len() == seen.len()
                        && seen.starts_with(part.0)
                        && seen.ends_with(part.1)
                    {
                        Ok(())
                    } else {
                        Err("answer differs from the warm-up's checked answer".to_owned())
                    }
                }
                (Some(_), None) => Err("the warm-up found this query's answer wrong".to_owned()),
                (None, _) => Err("response lacks results, values or total_nanos".to_owned()),
            };
            if let Err(e) = verdict {
                load.failed += 1;
                load.wrong += 1;
                note(&mut load, format!("wrong answer to {}: {e}", q.text));
                continue;
            }
            load.latency_ms.push(ex.latency.as_secs_f64() * 1e3);
            load.engine_ms.push(total_nanos(&ex.body).unwrap_or(0.0) / 1e6);
            load.response_bytes += ex.bytes as u64;
        }
    }
    load
}

/// `FileDatabase::open` plus server start: the set-up being measured.
fn start(qofx: &Path, log: &Path) -> Result<ServerHandle, String> {
    let db = open(qofx)?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let log =
        QueryLog::rotating(log, 0, DEFAULT_QLOG_KEEP).map_err(|e| format!("query log: {e}"))?;
    serve(db, listener, log, &ServerConfig::default()).map_err(|e| format!("serve: {e}"))
}

fn open(qofx: &Path) -> Result<FileDatabase, String> {
    Ok(FileDatabase::open(qofx, bibtex::schema())
        .map_err(|e| format!("open {}: {e}", qofx.display()))?
        .with_exec_options(ExecOptions { threads: 1, cache: true }))
}

/// Runs `q` against `db` and checks it against the truth of `files`.
fn query_checked(
    ctx: &mut Ctx,
    db: &FileDatabase,
    files: &[File<BibtexTruth>],
    q: &BibQuery,
) -> Option<f64> {
    let want = q.expect(files);
    let proj = q.proj();
    ctx.query(db, &q.text(), |r| check_result(db.corpus(), Shape::Bibtex, proj, r, &want))
}

/// The write path on the served corpus. The server has no write endpoint,
/// so files are added to the served `.qofx` reopened in process; each
/// timed add is followed by a checked lookup of a key the new file holds,
/// the first query to see it.
struct Writes {
    added: Vec<File<BibtexTruth>>,
    rng: StdRng,
}

impl Writes {
    fn new(seed: u64) -> Writes {
        let added = (0..=CYCLE_ADDS)
            .map(|j| {
                let name = format!("added{j}.bib");
                oracle::bibtex_file(mix(seed, 2_000 + j as u64), name, ADD_REFS, NAME_POOL)
            })
            .collect();
        Writes { added, rng: StdRng::seed_from_u64(mix(seed, 3_000)) }
    }

    /// One cycle; its adds are timed when `timed` is set.
    fn cycle(
        &mut self,
        ctx: &mut Ctx,
        qofx: &Path,
        files: &[File<BibtexTruth>],
        timed: bool,
    ) -> Result<(), String> {
        let mut db = open(qofx)?;
        for (j, file) in self.added.iter().enumerate() {
            let ms = ctx
                .add_file(&mut db, &file.name, &file.text)
                .ok_or_else(|| format!("add_file {} failed", file.name))?;
            if j == 0 {
                continue;
            }
            if timed {
                ctx.e2e.add_ms.push(ms);
            }
            let key = format!("Key{:06}", self.rng.random_range(0..ADD_REFS));
            let q = BibQuery::KeyObjects(key);
            let want = q.expect(files.iter().chain(&self.added[..=j]));
            let got = ctx.query(&db, &q.text(), |r| {
                check_result(db.corpus(), Shape::Bibtex, Proj::Objects, r, &want)
            });
            if let Some(ms) = got {
                ctx.layers.first_query_ms.push(ms);
            }
        }
        Ok(())
    }
}

/// Starts a server `SETUP_ROUNDS` times, timing each start, and keeps the
/// last one running.
fn setup_burst(ctx: &mut Ctx, qofx: &Path, log: &Path) -> Result<ServerHandle, String> {
    let mut server = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(h) = server.take() {
            ServerHandle::shutdown(h);
        }
        let op = ctx.next_op();
        let (handle, secs) =
            ctx.span("FileDatabase::open + qof_server::serve", 0, op, || start(qofx, log));
        server = Some(handle?);
        ctx.e2e.setup_s.push(secs);
    }
    server.ok_or_else(|| "no set-up ran".to_owned())
}

/// A counter's value in Prometheus exposition text.
fn prom(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed();
    let files = oracle::bibtex_files(seed, "refs", FILES, REFS_PER_FILE, NAME_POOL);
    let built = FileDatabase::build(corpus_of(&files), bibtex::schema(), IndexSpec::full())
        .map_err(|e| format!("index build: {e}"))?;
    let (reopened, bytes) = ctx.persist_and_open(&built, bibtex::schema(), "serve.qofx")?;
    ctx.e2e.stored_ratio = stored_ratio(bytes, built.corpus());
    drop((built, reopened));
    let qofx = ctx.tmp_path("serve.qofx");
    let log = ctx.tmp_path("query.log");

    // The write path runs before the server starts: after the HTTP load
    // the heap holds the server's freed caches, and the adds' corpus
    // clones then took a time that varied from run to run with the
    // allocator's state.
    // Its checked lookups run in process: traced, they stay out of the
    // caller and cache figures, which are the HTTP load's.
    let mut writes = Writes::new(seed);
    ctx.probe_only = true;
    for cycle in 0..=ADD_CYCLES {
        writes.cycle(ctx, &qofx, &files, cycle > 0)?;
    }
    ctx.probe_only = false;
    ctx.e2e.add_p95_windows = window_p95s(&ctx.e2e.add_ms, ADD_WINDOW).collect();

    let server = setup_burst(ctx, &qofx, &log)?;
    let addr = server.addr();

    let mut rng = StdRng::seed_from_u64(mix(seed, 1_000));
    let queries: Vec<BibQuery> = (0..MIXES).flat_map(|_| query_mix(&mut rng)).collect();
    let planned: Vec<Planned> = queries
        .iter()
        .map(|q| Planned { text: q.text(), proj: q.proj(), want: q.expect(&files) })
        .collect();
    let budget = Duration::from_secs_f64(ctx.args.seconds);
    let traced = ctx.traced();
    let mut warm = Load::default();
    let checked = warm_up(addr, &planned, &mut warm);
    let origin = Instant::now();
    let started = Instant::now();
    let loads: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (planned, checked) = (&planned, &checked);
                // Disjoint span and operation ids per connection.
                let base = (c as u64 + 1) << 40;
                let tracer = traced.then(|| Tracer::with_ids_from(origin, base));
                let offset = c * 3;
                s.spawn(move || closed_loop(addr, planned, checked, offset, budget, tracer, base))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
    });
    ctx.e2e.busy_s = started.elapsed().as_secs_f64();

    let mut requests = 0;
    for load in std::iter::once(warm).chain(loads) {
        requests += load.attempted;
        ctx.attempted += load.attempted;
        ctx.failed += load.failed;
        ctx.wrong += load.wrong;
        ctx.notes.extend(load.notes);
        ctx.e2e.ops += load.latency_ms.len() as u64;
        for (&lat, &eng) in load.latency_ms.iter().zip(&load.engine_ms) {
            ctx.layers.caller(lat, eng);
        }
        ctx.layers.response_bytes += load.response_bytes;
        let window = QUERY_WINDOW_PASSES * planned.len();
        ctx.e2e.query_p95_windows.extend(window_p95s(&load.latency_ms, window));
        ctx.e2e.query_ms.extend(load.latency_ms);
        if let (Some(t), Some(mine)) = (ctx.tracer.as_mut(), load.tracer) {
            t.absorb(mine);
        }
    }

    // Server-side figures, read the way a scraper would.
    let metrics = HttpClient::connect(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.send("GET", "/metrics", ""))
        .map(|ex| ex.body)?;
    let (hits, misses) = (
        prom(&metrics, "qof_plan_cache_hits_total"),
        prom(&metrics, "qof_plan_cache_misses_total"),
    );
    ctx.layers.plan_hits += hits;
    ctx.layers.plan_lookups += hits + misses;
    let (hits, misses) =
        (prom(&metrics, "qof_cache_hits_total"), prom(&metrics, "qof_cache_misses_total"));
    ctx.layers.cache_hits += hits;
    ctx.layers.cache_lookups += hits + misses;
    ctx.layers.cache_evictions += prom(&metrics, "qof_cache_evictions_total");
    let logged = server.log_lines_written();
    ctx.invariant(
        "query log",
        if logged == requests {
            Ok(())
        } else {
            Err(format!("{logged} lines for {requests} queries"))
        },
    );
    server.shutdown();
    setup_burst(ctx, &qofx, &log)?.shutdown();
    ctx.e2e.peak_rss_mb = peak_rss_mib();

    // Below the HTTP layer: the same mix in process, over the same `.qofx`
    // and options, for the planner, engine and executor figures.
    let db = open(&qofx)?;
    if traced {
        ctx.probe_only = true;
        for _ in 0..PROBE_PASSES {
            for q in &queries {
                query_checked(ctx, &db, &files, q);
            }
        }
        ctx.probe_only = false;
    }
    ctx.probe_words(&db, &["Key000001", LAST_NAMES[0], "1982"]);
    drop(db);

    // The same answers through `baseline::FullLoad`.
    let corpus = corpus_of(&files);
    for q in &planned[..2] {
        ctx.full_load(&corpus, &bibtex::schema(), Shape::Bibtex, q.proj, &q.text, &q.want);
    }
    drop(corpus);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_part_drops_only_the_varying_fields() {
        let a = r#"{"id":1,"results":2,"candidates":2,"exact_index":true,"total_nanos":123,"values":["x"]}"#;
        let b = r#"{"id":9,"results":2,"candidates":2,"exact_index":true,"total_nanos":4567,"values":["x"]}"#;
        assert_eq!(answer_part(a), answer_part(b));
        assert_eq!(total_nanos(b), Some(4567.0));
        assert_eq!(answer_part(r#"{"error":"x"}"#), None);
    }

    #[test]
    fn prometheus_counters_are_read_by_exact_name() {
        let text = "# HELP x\nqof_cache_hits_total 12\nqof_cache_hits_total_other 3\n";
        assert_eq!(prom(text, "qof_cache_hits_total"), 12);
        assert_eq!(prom(text, "qof_cache_misses_total"), 0);
    }
}
