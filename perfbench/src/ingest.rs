//! `ingest`: writes beside reads. A code corpus (its RIG is cyclic, so
//! direct-caller queries need `⊃d` and the universe forest) is opened from
//! `.qofx`; then, round after round, a seeded source file is added with
//! `add_file` and direct- and any-depth-caller queries run against the
//! grown corpus. Each add extends the word index, refreshes the statistics
//! and invalidates both caches; the first add after an open also moves the
//! database from the `.qofx` pages to memory. Rounds come in cycles of
//! `CYCLE_ADDS`, each starting from the reopened `.qofx`, so the corpus a
//! round sees depends on its place in the cycle and not on how many rounds
//! fit in the run. The run ends with `persist`, a reopen and a re-check of
//! every distinct query it issued.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use qof_core::{ExecOptions, FileDatabase};
use qof_corpus::code;
use qof_corpus::{Rng, StdRng};
use qof_grammar::IndexSpec;

use crate::oracle::{self, check_result, code_file, corpus_of, mix, CodeQuery, Proj, Shape};
use crate::run::{peak_rss_mib, stored_ratio, Ctx};

const FILES: usize = 8;
const FUNCTIONS: usize = 400;
/// Timed opens of the `.qofx` at the start of each cycle (the set-up
/// being measured); the cycle runs on the last one.
const CYCLE_OPENS: usize = 10;
/// Functions in each added file.
const ADD_FUNCTIONS: usize = 60;
/// Files added in one cycle, before the `.qofx` is reopened.
const CYCLE_ADDS: usize = 40;
/// Callees are drawn from the added file's first `CALLEES` functions,
/// whose names every file of the corpus shares; this bounds the distinct
/// queries re-checked after the reopen at twice this number.
const CALLEES: usize = 24;

/// Opens the `.qofx` `CYCLE_OPENS` times, timing each open, and keeps the
/// last database.
fn open(ctx: &mut Ctx, path: &Path) -> Result<FileDatabase, String> {
    let mut db = None;
    for _ in 0..CYCLE_OPENS {
        drop(db.take());
        let op = ctx.next_op();
        let (opened, secs) =
            ctx.span("FileDatabase::open", 0, op, || FileDatabase::open(path, code::schema()));
        db = Some(opened.map_err(|e| format!("open {}: {e}", path.display()))?);
        ctx.e2e.setup_s.push(secs);
    }
    db.ok_or_else(|| "no set-up ran".to_owned())
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed();
    let files = oracle::code_files(seed, "src", FILES, FUNCTIONS);
    let built = FileDatabase::build(corpus_of(&files), code::schema(), IndexSpec::full())
        .map_err(|e| format!("index build: {e}"))?;
    let (reopened, bytes) = ctx.persist_and_open(&built, code::schema(), "ingest.qofx")?;
    ctx.e2e.stored_ratio = stored_ratio(bytes, built.corpus());
    drop((built, reopened));
    let qofx = ctx.tmp_path("ingest.qofx");

    let added: Vec<_> = (0..CYCLE_ADDS)
        .map(|j| code_file(mix(seed, 5_000 + j as u64), format!("added{j}.src"), ADD_FUNCTIONS))
        .collect();
    let mut rng = StdRng::seed_from_u64(mix(seed, 1_000));
    let mut issued = BTreeSet::new();
    let budget = Duration::from_secs_f64(ctx.args.seconds);
    let started = Instant::now();
    let db = loop {
        let mut db = open(ctx, &qofx)?.with_exec_options(ExecOptions { threads: 1, cache: true });
        for (j, file) in added.iter().enumerate() {
            let mut callee = || file.truth.functions[rng.random_range(0..CALLEES)].name.clone();
            let (a, b) = (callee(), callee());
            let ms = ctx
                .add_file(&mut db, &file.name, &file.text)
                .ok_or_else(|| format!("add_file {} failed", file.name))?;
            ctx.e2e.add_ms.push(ms);
            ctx.e2e.ops += 1;
            ctx.e2e.busy_s += ms / 1e3;
            let queries = [
                CodeQuery::DirectCallers(a.clone()),
                CodeQuery::AnyDepthCallers(a),
                CodeQuery::DirectCallers(b.clone()),
                CodeQuery::AnyDepthCallers(b),
            ];
            for (i, q) in queries.into_iter().enumerate() {
                let want = q.expect(files.iter().chain(&added[..=j]));
                let got = ctx.query(&db, &q.text(), |r| {
                    check_result(db.corpus(), Shape::Code, Proj::Objects, r, &want)
                });
                if let Some(ms) = got {
                    ctx.e2e.query_ms.push(ms);
                    ctx.e2e.ops += 1;
                    ctx.e2e.busy_s += ms / 1e3;
                    if i == 0 {
                        ctx.layers.first_query_ms.push(ms);
                    }
                }
                issued.insert(q);
            }
        }
        if started.elapsed() >= budget {
            break db;
        }
    };
    ctx.e2e.peak_rss_mb = peak_rss_mib();
    let files: Vec<_> = files.into_iter().chain(added).collect();

    // Everything added must survive `persist` and a reopen.
    let (reopened, _) = ctx.persist_and_open(&db, code::schema(), "ingest-final.qofx")?;
    drop(db);
    for q in &issued {
        let want = q.expect(&files);
        ctx.query(&reopened, &q.text(), |r| {
            check_result(reopened.corpus(), Shape::Code, Proj::Objects, r, &want)
        });
    }
    for q in issued.iter().take(2) {
        let want = q.expect(&files);
        ctx.full_load(
            reopened.corpus(),
            reopened.schema(),
            Shape::Code,
            Proj::Objects,
            &q.text(),
            &want,
        );
    }
    let callee = files[0].truth.functions[0].name.clone();
    ctx.probe_words(&reopened, &["call", "if", &callee]);
    Ok(())
}
