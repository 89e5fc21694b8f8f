//! Seeded inputs and the answers they must produce, computed from the
//! generators' ground truth (`BibtexTruth`, `CodeTruth`) and never from the
//! index path. Keys and function names repeat across the files of one
//! corpus, so every answer is compared as a set of `(file, key)` pairs.

use std::collections::BTreeSet;

use qof_core::baseline::{run_baseline, BaselineMode};
use qof_core::QueryResult;
use qof_corpus::bibtex::{self, BibtexConfig, BibtexTruth, RefTruth};
use qof_corpus::code::{self, CodeConfig, CodeTruth, FunctionTruth};
use qof_db::Value;
use qof_grammar::StructuringSchema;
use qof_pat::json::{get_arr, get_u64, Json};
use qof_text::{Corpus, CorpusBuilder};

/// One generated file: its name, text and ground truth.
pub struct File<T> {
    pub name: String,
    pub text: String,
    pub truth: T,
}

/// `n` seeded BibTeX files of `refs` references each, named `{prefix}{i}.bib`.
/// Same shape as `qof_bench::multi_file_bibtex`, but seeded by the run and
/// keeping the truth.
pub fn bibtex_files(
    seed: u64,
    prefix: &str,
    n: usize,
    refs: usize,
    name_pool: usize,
) -> Vec<File<BibtexTruth>> {
    (0..n)
        .map(|i| bibtex_file(mix(seed, i as u64), format!("{prefix}{i}.bib"), refs, name_pool))
        .collect()
}

/// One seeded BibTeX file.
pub fn bibtex_file(seed: u64, name: String, refs: usize, name_pool: usize) -> File<BibtexTruth> {
    let cfg = BibtexConfig { n_refs: refs, seed, name_pool, ..Default::default() };
    let (text, truth) = bibtex::generate(&cfg);
    File { name, text, truth }
}

/// `n` seeded source files of `functions` functions each.
pub fn code_files(seed: u64, prefix: &str, n: usize, functions: usize) -> Vec<File<CodeTruth>> {
    (0..n).map(|i| code_file(mix(seed, i as u64), format!("{prefix}{i}.src"), functions)).collect()
}

/// One seeded source file whose `if` blocks nest up to three deep.
pub fn code_file(seed: u64, name: String, functions: usize) -> File<CodeTruth> {
    let cfg =
        CodeConfig { n_functions: functions, seed, stmts: (1, 4), max_depth: 3, if_percent: 40 };
    let (text, truth) = code::generate(&cfg);
    File { name, text, truth }
}

/// A per-file seed: the run's seed and the file's slot, well mixed
/// (splitmix64's finalizer) so neighbouring seeds share no files.
pub fn mix(seed: u64, slot: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(slot.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn corpus_of<T>(files: &[File<T>]) -> Corpus {
    let mut b = CorpusBuilder::new();
    for f in files {
        b.add_file(f.name.clone(), &f.text);
    }
    b.build()
}

/// What a query returns: whole objects, or the key attribute's values
/// (which the executor sorts and de-duplicates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proj {
    Objects,
    Keys,
}

/// The BibTeX queries the workloads issue. Each knows its text, which
/// references it selects and what it projects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BibQuery {
    /// `SELECT r` by citation key.
    KeyObjects(String),
    /// `SELECT r.Key` by author last name and year.
    AuthorYearKeys(String, String),
    /// `SELECT r` by author last name.
    AuthorObjects(String),
    /// `SELECT r.Key` by author last name.
    AuthorKeys(String),
    /// `SELECT r` by year.
    YearObjects(String),
    /// `SELECT r` with an editor named `.0` or an author named `.1`.
    EditorOrAuthorObjects(String, String),
    /// `SELECT r` where an editor's last name equals an author's (a
    /// content join, `qof_bench::EDITOR_IS_AUTHOR`).
    EditorIsAuthor,
}

impl BibQuery {
    pub fn text(&self) -> String {
        use BibQuery::*;
        match self {
            KeyObjects(k) => format!("SELECT r FROM References r WHERE r.Key = \"{k}\""),
            AuthorYearKeys(a, y) => format!(
                "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"{a}\" AND r.Year = \"{y}\""
            ),
            AuthorObjects(a) => {
                format!("SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"{a}\"")
            }
            AuthorKeys(a) => {
                format!("SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"{a}\"")
            }
            YearObjects(y) => format!("SELECT r FROM References r WHERE r.Year = \"{y}\""),
            EditorOrAuthorObjects(e, a) => format!(
                "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = \"{e}\" OR r.Authors.Name.Last_Name = \"{a}\""
            ),
            EditorIsAuthor => qof_bench::EDITOR_IS_AUTHOR.to_owned(),
        }
    }

    fn selects(&self, r: &RefTruth) -> bool {
        use BibQuery::*;
        let author = |n: &str| r.authors.iter().any(|(_, l)| l == n);
        let editor = |n: &str| r.editors.iter().any(|(_, l)| l == n);
        match self {
            KeyObjects(k) => &r.key == k,
            AuthorYearKeys(a, y) => author(a) && &r.year == y,
            AuthorObjects(a) | AuthorKeys(a) => author(a),
            YearObjects(y) => &r.year == y,
            EditorOrAuthorObjects(e, a) => editor(e) || author(a),
            EditorIsAuthor => r.editors.iter().any(|(_, e)| author(e)),
        }
    }

    pub fn proj(&self) -> Proj {
        use BibQuery::*;
        match self {
            AuthorYearKeys(..) | AuthorKeys(_) => Proj::Keys,
            _ => Proj::Objects,
        }
    }

    /// The expected answer over `files`, in corpus order.
    pub fn expect<'a>(&self, files: impl IntoIterator<Item = &'a File<BibtexTruth>>) -> Expected {
        let mut e = Expected::default();
        for f in files {
            for r in f.truth.refs.iter().filter(|r| self.selects(r)) {
                e.pairs.insert((f.name.clone(), r.key.clone()));
                e.keys.push(r.key.clone());
                if self.proj() == Proj::Keys {
                    e.values.insert(r.key.clone());
                }
            }
        }
        e.keys.sort();
        e
    }
}

/// The source-code queries: callers of a function, directly (`⊃d` through
/// the statement cycle) or at any depth (a `+` closure).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CodeQuery {
    DirectCallers(String),
    AnyDepthCallers(String),
}

impl CodeQuery {
    pub fn text(&self) -> String {
        match self {
            CodeQuery::DirectCallers(c) => {
                format!("SELECT f FROM Functions f WHERE f.Body.Stmt.Callee = \"{c}\"")
            }
            CodeQuery::AnyDepthCallers(c) => {
                format!("SELECT f FROM Functions f WHERE f.Stmt+.Callee = \"{c}\"")
            }
        }
    }

    fn selects(&self, f: &FunctionTruth) -> bool {
        match self {
            CodeQuery::DirectCallers(c) => f.direct_calls.contains(c),
            CodeQuery::AnyDepthCallers(c) => f.all_calls.contains(c),
        }
    }

    pub fn expect<'a>(&self, files: impl IntoIterator<Item = &'a File<CodeTruth>>) -> Expected {
        let mut e = Expected::default();
        for file in files {
            for f in file.truth.functions.iter().filter(|f| self.selects(f)) {
                e.pairs.insert((file.name.clone(), f.name.clone()));
                e.keys.push(f.name.clone());
            }
        }
        e.keys.sort();
        e
    }
}

/// An expected answer: the selected `(file, key)` pairs, the sorted keys
/// (with repeats, one per selected object), and for attribute projections
/// the de-duplicated projected values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    pub pairs: BTreeSet<(String, String)>,
    pub keys: Vec<String>,
    pub values: BTreeSet<String>,
}

/// Which schema a corpus follows: where a view region's key sits in its
/// text, and which object field holds it.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Bibtex,
    Code,
}

impl Shape {
    fn key_field(self) -> &'static str {
        match self {
            Shape::Bibtex => "Key",
            Shape::Code => "FnName",
        }
    }

    /// The key of the view region whose text is `text`, read from the
    /// text itself (`@INCOLLECTION{Key000001,` / `fn name_1 () {`).
    fn key_in(self, text: &str) -> Option<&str> {
        let text = text.trim_start();
        match self {
            Shape::Bibtex => text.strip_prefix("@INCOLLECTION{")?.split(',').next(),
            Shape::Code => text.strip_prefix("fn")?.split_whitespace().next(),
        }
    }
}

/// Checks an in-process answer: the result regions must be exactly the
/// expected `(file, key)` pairs, and the values must carry the expected
/// keys (objects) or projected values (attributes).
pub fn check_result(
    corpus: &Corpus,
    shape: Shape,
    proj: Proj,
    got: &QueryResult,
    want: &Expected,
) -> Result<(), String> {
    if got.stats.results != want.pairs.len() {
        return Err(format!("{} results, expected {}", got.stats.results, want.pairs.len()));
    }
    let mut pairs = BTreeSet::new();
    for region in &got.regions {
        let file = corpus
            .file_of(region.start)
            .and_then(|id| corpus.file(id))
            .ok_or_else(|| format!("result region at {} lies in no file", region.start))?;
        let key = shape
            .key_in(corpus.slice(region.span()))
            .ok_or_else(|| format!("result region at {} is not a view object", region.start))?;
        pairs.insert((file.name.clone(), key.to_owned()));
    }
    if pairs != want.pairs {
        let missing = want.pairs.difference(&pairs).next();
        let extra = pairs.difference(&want.pairs).next();
        return Err(format!("wrong (file, key) set: missing {missing:?}, unexpected {extra:?}"));
    }
    check_values(shape, proj, &got.values, want)
}

fn check_values(shape: Shape, proj: Proj, values: &[Value], want: &Expected) -> Result<(), String> {
    match proj {
        Proj::Objects => {
            let mut keys: Vec<String> = values
                .iter()
                .map(|v| {
                    v.field(shape.key_field()).and_then(Value::as_str).unwrap_or("").to_owned()
                })
                .collect();
            keys.sort();
            if keys != want.keys {
                return Err(format!(
                    "object keys differ: {} objects, expected {}",
                    keys.len(),
                    want.keys.len()
                ));
            }
        }
        Proj::Keys => {
            let got: BTreeSet<String> = values.iter().map(value_text).collect();
            if got.len() != values.len() || got != want.values {
                return Err(format!(
                    "projected values differ: {} values, expected {}",
                    values.len(),
                    want.values.len()
                ));
            }
        }
    }
    Ok(())
}

fn value_text(v: &Value) -> String {
    v.as_str().map_or_else(|| v.to_string(), str::to_owned)
}

/// Checks a `POST /query` response body: its result count, and the keys
/// of the returned objects (the rendered tuples carry `Key: "…"`) or its
/// projected values (rendered as quoted strings).
pub fn check_response(body: &str, proj: Proj, want: &Expected) -> Result<(), String> {
    let doc = Json::parse(body)?;
    let doc = doc.as_obj().ok_or("response is not a JSON object")?;
    let results = get_u64(doc, "results")?;
    if results as usize != want.pairs.len() {
        return Err(format!("{results} results, expected {}", want.pairs.len()));
    }
    let values: Vec<&str> =
        get_arr(doc, "values")?.iter().map(|v| v.as_str().unwrap_or("")).collect();
    match proj {
        Proj::Objects => {
            let mut keys: Vec<String> = values
                .iter()
                .map(|v| {
                    v.split_once("Key: \"")
                        .and_then(|(_, rest)| rest.split('"').next())
                        .unwrap_or("")
                        .to_owned()
                })
                .collect();
            keys.sort();
            if keys != want.keys {
                return Err(format!(
                    "object keys differ: {} objects, expected {}",
                    keys.len(),
                    want.keys.len()
                ));
            }
        }
        Proj::Keys => {
            let got: BTreeSet<String> =
                values.iter().map(|v| v.trim_matches('"').to_owned()).collect();
            if got.len() != values.len() || got != want.values {
                return Err(format!(
                    "projected values differ: {} values, expected {}",
                    values.len(),
                    want.values.len()
                ));
            }
        }
    }
    Ok(())
}

/// Runs `text` through `baseline::FullLoad` (parse and load the whole
/// corpus, then evaluate) and checks its answer against the same
/// expectation the index path is held to.
pub fn check_full_load(
    corpus: &Corpus,
    schema: &StructuringSchema,
    shape: Shape,
    proj: Proj,
    text: &str,
    want: &Expected,
) -> Result<(), String> {
    let b = run_baseline(corpus, schema, text, BaselineMode::FullLoad)
        .map_err(|e| format!("baseline failed: {e}"))?;
    let values: Vec<Value> = b
        .values
        .iter()
        .map(|v| match v {
            Value::Ref(oid) => b.db.deref(*oid).cloned().unwrap_or_else(|| v.clone()),
            other => other.clone(),
        })
        .collect();
    match proj {
        Proj::Objects => check_values(shape, proj, &values, want),
        Proj::Keys => {
            let got: BTreeSet<String> = values.iter().map(value_text).collect();
            if got == want.values {
                Ok(())
            } else {
                Err(format!(
                    "baseline values differ: {} values, expected {}",
                    got.len(),
                    want.values.len()
                ))
            }
        }
    }
    .map_err(|e| format!("FullLoad baseline: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_core::FileDatabase;
    use qof_grammar::IndexSpec;

    fn tiny_bib() -> (Vec<File<BibtexTruth>>, FileDatabase) {
        let files = bibtex_files(3, "t", 3, 25, 6);
        let db =
            FileDatabase::build(corpus_of(&files), bibtex::schema(), IndexSpec::full()).unwrap();
        (files, db)
    }

    #[test]
    fn bibtex_answers_match_generator_truth() {
        let (files, db) = tiny_bib();
        let r0 = &files[0].truth.refs[0];
        let author = r0.authors[0].1.clone();
        let queries = [
            BibQuery::KeyObjects("Key000007".into()),
            BibQuery::AuthorYearKeys(author.clone(), r0.year.clone()),
            BibQuery::AuthorObjects(author.clone()),
            BibQuery::AuthorKeys(author.clone()),
            BibQuery::YearObjects(r0.year.clone()),
            BibQuery::EditorOrAuthorObjects(author.clone(), "Tompa".into()),
            BibQuery::EditorIsAuthor,
        ];
        for q in &queries {
            let want = q.expect(&files);
            let got = db.query(&q.text()).unwrap();
            check_result(db.corpus(), Shape::Bibtex, q.proj(), &got, &want).unwrap();
            check_full_load(db.corpus(), db.schema(), Shape::Bibtex, q.proj(), &q.text(), &want)
                .unwrap();
        }
        // A key repeats in every file: one (file, key) pair per file.
        assert_eq!(BibQuery::KeyObjects("Key000007".into()).expect(&files).pairs.len(), 3);
    }

    #[test]
    fn a_wrong_answer_is_caught() {
        let (files, db) = tiny_bib();
        let q = BibQuery::KeyObjects("Key000001".into());
        let got = db.query(&q.text()).unwrap();
        // Expecting the answer over fewer files than were indexed.
        let short = q.expect(&files[..2]);
        assert!(check_result(db.corpus(), Shape::Bibtex, q.proj(), &got, &short).is_err());
        // Another key's answer has the right count but the wrong pairs.
        let other = BibQuery::KeyObjects("Key000002".into()).expect(&files);
        assert!(check_result(db.corpus(), Shape::Bibtex, q.proj(), &got, &other).is_err());
    }

    #[test]
    fn code_answers_match_generator_truth() {
        let files = code_files(5, "c", 2, 30);
        let db = FileDatabase::build(corpus_of(&files), code::schema(), IndexSpec::full()).unwrap();
        let mut checked = 0;
        for f in files[0].truth.functions.iter().take(10) {
            for q in [
                CodeQuery::DirectCallers(f.name.clone()),
                CodeQuery::AnyDepthCallers(f.name.clone()),
            ] {
                let want = q.expect(&files);
                let got = db.query(&q.text()).unwrap();
                check_result(db.corpus(), Shape::Code, Proj::Objects, &got, &want).unwrap();
                check_full_load(
                    db.corpus(),
                    db.schema(),
                    Shape::Code,
                    Proj::Objects,
                    &q.text(),
                    &want,
                )
                .unwrap();
                checked += want.pairs.len();
            }
        }
        assert!(checked > 0, "some function has callers");
    }

    #[test]
    fn response_check_reads_rendered_values() {
        let want = Expected {
            pairs: [("a.bib".to_owned(), "K1".to_owned()), ("b.bib".to_owned(), "K1".to_owned())]
                .into(),
            keys: vec!["K1".into(), "K1".into()],
            values: ["K1".to_owned()].into(),
        };
        check_response(r#"{"results":2,"values":["\"K1\""]}"#, Proj::Keys, &want).unwrap();
        let objs = r#"{"results":2,"values":["tuple(Key: \"K1\")","tuple(Key: \"K1\")"]}"#;
        check_response(objs, Proj::Objects, &want).unwrap();
        let short = r#"{"results":1,"values":["tuple(Key: \"K1\")"]}"#;
        assert!(check_response(short, Proj::Objects, &want).is_err());
        assert!(check_response(r#"{"error":"x"}"#, Proj::Objects, &want).is_err());
    }

    #[test]
    fn seeds_make_distinct_reproducible_files() {
        let a = bibtex_files(1, "f", 2, 5, 60);
        let b = bibtex_files(1, "f", 2, 5, 60);
        let c = bibtex_files(2, "f", 2, 5, 60);
        assert_eq!(a[0].text, b[0].text);
        assert_ne!(a[0].text, a[1].text);
        assert_ne!(a[0].text, c[0].text);
    }
}
