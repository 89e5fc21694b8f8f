//! In-memory spans for the traced run, written out as one JSON file when
//! the run ends. Each span wraps one call into a public entry point of the
//! program (or is a `QueryTrace` phase reported by the call it sits under).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: u64,
    op: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// A span that has started but not ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    pub start_ns: u64,
}

/// Collects spans. Ids are unique per tracer; a parent of 0 marks a root.
/// Tracers of concurrent callers share one origin and disjoint id ranges
/// (see [`Tracer::with_ids_from`]), so their spans merge into one file.
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer::with_ids_from(origin, 1)
    }

    /// A tracer whose span ids start at `first_id`.
    pub fn with_ids_from(origin: Instant, first_id: u64) -> Tracer {
        Tracer { origin, next_id: first_id, spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts a span whose id its children can name as their parent.
    pub fn open(&mut self) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open { id, start_ns: self.now_ns() }
    }

    /// Ends `open` now.
    pub fn close(&mut self, open: Open, name: &str, parent: u64, op: u64) {
        let end_ns = self.now_ns();
        self.push(open, name, parent, op, end_ns);
    }

    /// Records a span whose bounds were measured elsewhere (a
    /// `QueryTrace` phase, placed on this tracer's time axis).
    pub fn record(&mut self, name: &str, parent: u64, op: u64, start_ns: u64, end_ns: u64) {
        let open = Open { id: self.next_id, start_ns };
        self.next_id += 1;
        self.push(open, name, parent, op, end_ns);
    }

    fn push(&mut self, open: Open, name: &str, parent: u64, op: u64, end_ns: u64) {
        self.spans.push(Span {
            id: open.id,
            parent,
            op,
            name: name.to_owned(),
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span; returns its result and duration in seconds.
    pub fn time<T>(&mut self, name: &str, parent: u64, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open();
        let out = f();
        self.close(open, name, parent, op);
        let last = self.spans.last().expect("span just pushed");
        (out, (last.end_ns - last.start_ns) as f64 / 1e9)
    }

    /// Moves `other`'s spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span, ordered by start time, as a JSON document.
    pub fn write(&mut self, path: &Path) -> std::io::Result<()> {
        self.spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.id,
                s.parent,
                s.op,
                quote(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// `s` as a quoted JSON string.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_pat::json::{get_arr, get_str, get_u64, Json};

    #[test]
    fn quote_round_trips() {
        let s = "a\"b\\c\nd\u{1}";
        assert_eq!(Json::parse(&quote(s)).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn nested_spans_link_to_their_parent_and_write_valid_json() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open();
        let (v, secs) = t.time("child", root.id, 7, || 41 + 1);
        t.record("phase", root.id, 7, root.start_ns, root.start_ns + 5);
        t.close(root, "op", 0, 7);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert_eq!(t.len(), 3);
        let dir = crate::out_dir().join(format!("test-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.json");
        t.write(&path).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans: Vec<_> = get_arr(doc.as_obj().unwrap(), "spans")
            .unwrap()
            .iter()
            .map(|s| s.as_obj().unwrap())
            .collect();
        assert_eq!(spans.len(), 3);
        let name = |s: &[(String, Json)]| get_str(s, "name").unwrap();
        let root = spans.iter().find(|s| name(s) == "op").unwrap();
        let root_id = get_u64(root, "id").unwrap();
        for s in spans.iter().filter(|s| name(s) != "op") {
            assert_eq!(get_u64(s, "parent").unwrap(), root_id);
        }
    }
}
