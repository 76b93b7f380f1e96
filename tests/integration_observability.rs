//! Integration tests for the observability stack: the flight recorder on
//! the database lifecycle, the runtime-tunable slow-query threshold, the
//! one-command diagnostics bundle, the telemetry name grammar, and three
//! incident drills that answer DESIGN.md §13's questions from the bundle's
//! text alone.

use std::time::Duration;
use xseq::datagen::{XmarkGenerator, XmarkOptions};
use xseq::telemetry::{AttrValue, SpanId};
use xseq::xml::{write_document, SymbolTable, ValueMode};
use xseq::{Database, DatabaseBuilder, Severity, TraceConfig};

fn small_db() -> xseq::Database {
    DatabaseBuilder::new()
        .build_from_xml([
            "<project><research><loc>newyork</loc></research></project>",
            "<project><develop><loc>boston</loc></develop></project>",
        ])
        .expect("corpus indexes")
}

#[test]
fn lifecycle_lands_in_the_flight_recorder() {
    let mut db = small_db();
    let id = db
        .insert_document("<project><audit/></project>")
        .expect("doc parses");
    db.remove_document(id);
    db.compact();
    let names: Vec<&str> = db.events().events().iter().map(|e| e.name).collect();
    for expected in ["ingest.build", "compact.finish"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
    // Per-document traffic is counted and timed by histograms, not journaled.
    assert!(!names
        .iter()
        .any(|n| n.starts_with("ingest.") && *n != "ingest.build"));
    let snap = db.metrics();
    assert_eq!(
        snap.histogram("update.insert").expect("registered").count,
        1
    );
    assert_eq!(
        snap.histogram("update.remove").expect("registered").count,
        1
    );
    // Sequence numbers are strictly increasing in recorded order.
    let seqs: Vec<u64> = db.events().events().iter().map(|e| e.seq).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    // …and the journal round-trips through JSONL, one line per event.
    assert_eq!(db.events().to_jsonl().lines().count(), names.len());
}

#[test]
fn slow_query_threshold_is_runtime_tunable_and_flight_recorded() {
    let db = small_db();
    // Untraced databases start disarmed: no threshold, no query.slow.
    assert_eq!(db.slow_query_threshold(), None);
    db.query_xpath("/project//loc").expect("query parses");
    assert!(db.events().events().iter().all(|e| e.name != "query.slow"));
    // Arm at zero: every query is now slow, and the change itself is an
    // event.
    db.set_slow_query_threshold(Duration::ZERO);
    assert_eq!(db.slow_query_threshold(), Some(Duration::ZERO));
    db.query_xpath("/project//loc").expect("query parses");
    let events = db.events().events();
    assert!(events
        .iter()
        .any(|e| e.name == "config.slow_query_threshold"));
    let slow: Vec<_> = events.iter().filter(|e| e.name == "query.slow").collect();
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].severity, Severity::Warn);
    assert_eq!(slow[0].message, "/project//loc");
}

#[test]
fn tracer_threshold_moves_in_lockstep() {
    let db = DatabaseBuilder::new()
        .trace_config(TraceConfig {
            slow_threshold: Duration::from_secs(5),
            ..TraceConfig::default()
        })
        .build_from_xml(["<a><b/></a>"])
        .expect("corpus indexes");
    // Armed from the trace config.
    assert_eq!(db.slow_query_threshold(), Some(Duration::from_secs(5)));
    assert!(db.slow_queries().is_empty());
    // Lowering it to zero routes every traced query into the slow log AND
    // the flight recorder.
    db.set_slow_query_threshold(Duration::ZERO);
    db.query_xpath("/a/b").expect("query parses");
    assert_eq!(db.slow_queries().len(), 1);
    assert!(db.events().events().iter().any(|e| e.name == "query.slow"));
}

/// `n` XMark records as XML text, ready for `insert_document`.
fn xmark_xml(n: usize) -> Vec<String> {
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    XmarkGenerator::new(17, XmarkOptions::default())
        .generate(n, &mut symbols)
        .iter()
        .map(|doc| write_document(doc, &symbols))
        .collect()
}

/// An insert stream must not evict the milestones: per-document events
/// used to turn the 256-slot journal over every few milliseconds.
#[test]
fn milestones_survive_an_insert_stream() {
    let xml = xmark_xml(2_001);
    let mut db = DatabaseBuilder::new()
        .build_from_xml([xml[0].as_str()])
        .expect("corpus indexes");
    for doc in &xml[1..] {
        db.insert_document(doc).expect("record parses");
    }
    db.compact();
    let names: Vec<&str> = db.events().events().iter().map(|e| e.name).collect();
    for expected in ["ingest.build", "compact.tier.finish", "compact.finish"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
}

#[test]
fn diagnostics_bundle_is_complete_and_self_describing() {
    let dir = std::env::temp_dir().join(format!("xseq-diag-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = DatabaseBuilder::new()
        .trace_config(TraceConfig {
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        })
        .build_from_xml(["<a><b>boston</b></a>", "<a><c/></a>"])
        .expect("corpus indexes");
    db.query_xpath("/a/b").expect("query parses");
    db.insert_document("<a><d/></a>").expect("doc parses");
    db.compact();
    let report = db.diagnostics(&dir).expect("bundle writes");
    assert_eq!(report.dir, dir);
    assert_eq!(
        report.files,
        vec![
            "metrics.json",
            "stats.txt",
            "workload.json",
            "traces_slow.json",
            "events.jsonl",
            "manifest.json",
        ]
    );
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("bundle dir lists")
        .map(|e| {
            e.expect("entry reads")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    written.sort();
    let mut listed: Vec<&str> = report.files.clone();
    listed.sort_unstable();
    assert_eq!(written, listed, "exactly the listed files are on disk");
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest reads");
    for key in [
        "\"version\"",
        "\"sequencing\":\"probability\"",
        "\"shards\":1",
        "\"docs\":3",
        "\"tracing\":true",
        "\"slow_threshold_ns\":0",
        "\"files\":[\"metrics.json\"",
    ] {
        assert!(manifest.contains(key), "manifest misses {key}: {manifest}");
    }
    // The journal artifact carries the same events the live journal holds.
    let jsonl = std::fs::read_to_string(dir.join("events.jsonl")).expect("journal reads");
    assert_eq!(jsonl.lines().count(), db.events().events().len());
    assert!(jsonl.contains("\"name\":\"compact.finish\""));
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn sharded_diagnostics_enumerate_every_shard() {
    let dir = std::env::temp_dir().join(format!("xseq-diag-sh-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = DatabaseBuilder::new()
        .shards(3)
        .build_from_xml(["<a><b/></a>", "<a><c/></a>", "<a><d/></a>", "<a><e/></a>"])
        .expect("corpus indexes");
    db.insert_document("<a><f/></a>").expect("doc parses");
    db.query_xpath("/a/b").expect("query parses");
    db.diagnostics(&dir).expect("bundle writes");
    let stats = std::fs::read_to_string(dir.join("stats.txt")).expect("stats reads");
    assert!(stats.starts_with("database: 5 docs"), "{stats}");
    assert!(stats.contains("3 shard(s)"), "{stats}");
    for s in 0..3 {
        assert!(stats.contains(&format!("shard {s}:")), "{stats}");
    }
    let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest reads");
    assert!(manifest.contains("\"shards\":3"), "{manifest}");
    assert!(manifest.contains("\"docs\":5"), "{manifest}");
    // The per-shard overlay gauges reach the exporter beside the sums.
    let metrics = std::fs::read_to_string(dir.join("metrics.json")).expect("metrics reads");
    assert!(
        metrics.contains("\"index.shard0.delta.sequences\""),
        "{metrics}"
    );
    assert!(metrics.contains("\"index.delta.sequences\""), "{metrics}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// Registered metric families: the first dot-segment of every registry
/// metric name must be one of these.  Extending the exported namespace
/// means extending this list in the same change — which is the point.
const METRIC_FAMILIES: &[&str] = &[
    "index", "memory", "query", "sequence", "storage", "update", "xml",
];

/// True when `name` matches the telemetry grammar `seg(.seg)*` with
/// `seg = [a-z][a-z0-9_]*` — metric, span and event names alike.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            let mut chars = seg.chars();
            matches!(chars.next(), Some('a'..='z'))
                && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
        })
}

#[test]
fn span_name_grammar() {
    for good in [
        "index.search",
        "a",
        "xml.parse",
        "storage.pool.hits",
        "a_b.c9",
    ] {
        assert!(valid_name(good), "{good}");
    }
    for bad in ["", "Index.search", "a..b", "a.", ".a", "a-b", "9a", "a.B"] {
        assert!(!valid_name(bad), "{bad}");
    }
}

/// Every name one database registers through the whole pipeline — build,
/// traced queries, a batch, an insert, a removal, a compaction and a
/// diagnostics bundle — follows the grammar, and every metric opens a
/// registered family.
#[test]
fn every_name_a_full_pipeline_registers_follows_the_grammar() {
    let dir = std::env::temp_dir().join(format!("xseq-names-it-{}", std::process::id()));
    let mut db = DatabaseBuilder::new()
        .profiling(true)
        .trace_config(TraceConfig {
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        })
        .build_from_xml(["<a><b>boston</b></a>", "<a><c/></a>"])
        .expect("corpus indexes");
    db.query_xpath("/a/b[text='boston']").expect("query parses");
    db.query_batch(&["/a/c", "//b", "/a/*"]);
    let id = db.insert_document("<a><d/></a>").expect("doc parses");
    db.remove_document(id);
    db.compact();
    db.diagnostics(&dir).expect("bundle writes");
    std::fs::remove_dir_all(&dir).expect("cleanup");

    let metrics = db.metrics_registry().names();
    for name in &metrics {
        assert!(
            valid_name(name),
            "metric name {name:?} violates the grammar"
        );
        let family = name.split('.').next().unwrap_or("");
        assert!(
            METRIC_FAMILIES.contains(&family),
            "metric name {name:?} opens a family outside {METRIC_FAMILIES:?}; \
             extend METRIC_FAMILIES deliberately"
        );
    }
    // Not vacuous: the run reaches every registered family.
    for family in METRIC_FAMILIES {
        assert!(
            metrics.iter().any(|m| m.starts_with(&format!("{family}."))),
            "no metric of family {family} in {metrics:?}"
        );
    }
    let traces = db.slow_queries();
    assert!(
        !traces.is_empty(),
        "every traced query is slow at threshold 0"
    );
    for span in traces.iter().flat_map(|t| &t.spans) {
        assert!(
            valid_name(span.name),
            "span name {:?} violates the grammar",
            span.name
        );
    }
    let events = db.events().events();
    assert!(!events.is_empty(), "the lifecycle is journaled");
    for event in &events {
        assert!(
            valid_name(event.name),
            "event name {:?} violates the grammar",
            event.name
        );
    }
}

/// A query's record reconciles with its wall clock, at 1 and 3 shards over
/// a live overlay (a memtable, a run and a tombstone in every shard): its
/// steps follow one another without overlap, each traced phase's spans sum
/// to its `QueryStats` field exactly, every span lies inside its parent,
/// the root's `unattributed_ns` is its duration minus the phases, and the
/// rows of `explain()` add up to the wall time.  The third input, untraced
/// at 4 threads over 3 shards, checks that a query is one thread's work
/// whatever the pool width: its steps are ordered and disjoint too.
#[test]
fn traced_phases_reconcile_with_the_wall_clock() {
    const PHASES: [&str; 6] = [
        "query.parse",
        "index.plan",
        "delta.view",
        "index.search",
        "index.gather",
        "unattributed",
    ];
    for (shards, threads, traced) in [(1, 1, true), (3, 1, true), (3, 4, false)] {
        let base: Vec<String> = (0..12)
            .map(|i| format!("<a><b>x{}</b><c/></a>", i % 3))
            .collect();
        let builder = DatabaseBuilder::new()
            .threads(threads)
            .shards(shards)
            .memtable_limit(2)
            .tier_ratio(64);
        let builder = if traced {
            builder.trace_config(TraceConfig::default())
        } else {
            builder
        };
        let mut db = builder
            .build_from_xml(base.iter().map(String::as_str))
            .expect("corpus indexes");
        let live = |db: &Database, s: usize| {
            let delta = db.shard_index(s).delta();
            let memtable = delta.delta_view().segment_count() > delta.run_count();
            delta.run_count() > 0 && memtable && !db.shard_index(s).tombstones().is_empty()
        };
        for i in 0.. {
            if (0..shards).all(|s| live(&db, s)) {
                break;
            }
            assert!(i < 100, "every shard's overlay comes alive");
            db.insert_document(&format!("<a><b>y{i}</b><d/></a>"))
                .expect("doc parses");
            db.remove_document(i);
        }
        for expr in ["/a/b", "//b[text='x1']", "/a/*", "//d", "/a/zzz"] {
            let what = format!("{expr} at {shards} shard(s), {threads} thread(s)");
            let out = db.query_xpath_full(expr).expect("query parses");
            for pair in out.steps.windows(2) {
                let (prev, next) = (&pair[0], &pair[1]);
                assert!(
                    next.start >= prev.start + Duration::from_nanos(prev.ns),
                    "{} starts before {} ends: {what}",
                    next.phase,
                    prev.phase
                );
            }
            let st = &out.stats;
            let phases = st.parse_ns + st.plan_ns + st.view_ns + st.search_ns + st.gather_ns;
            let unattributed = st.total_ns.checked_sub(phases);
            let unattributed = unattributed.expect("the phases fit in the wall time");
            let explain = out.explain();
            let lines: Vec<&str> = explain.lines().skip(1).take(PHASES.len()).collect();
            let mut pct = 0.0;
            for (line, name) in lines.iter().zip(PHASES) {
                assert!(line.trim_start().starts_with(name), "{line}: {what}");
                let share = line.split('(').nth(1).and_then(|p| p.split('%').next());
                let share: f64 = share.and_then(|p| p.trim().parse().ok()).expect("a share");
                pct += share;
            }
            assert!((pct - 100.0).abs() < 0.35, "rows sum to {pct}%: {what}");

            let Some(trace) = out.trace.as_ref() else {
                assert!(!traced, "traced: {what}");
                continue;
            };
            let phase = |name: &str| -> u64 {
                let spans = trace.spans.iter().filter(|s| s.name.starts_with(name));
                spans.map(|s| s.duration_ns()).sum()
            };
            assert_eq!(phase("query.parse"), st.parse_ns, "{what}");
            assert_eq!(phase("index.plan"), st.plan_ns, "{what}");
            assert_eq!(phase("delta.view"), st.view_ns, "{what}");
            assert_eq!(
                phase("sequence.encode"),
                0,
                "queries sequence nothing: {what}"
            );
            assert_eq!(phase("trie.descent"), st.search_ns, "{what}");
            assert_eq!(phase("index.gather"), st.gather_ns, "{what}");
            let parses = trace.spans.iter().filter(|s| s.name == "query.parse");
            assert_eq!(parses.count(), shards, "every shard parses: {what}");
            // Each shard that searched reads its answer out once, and
            // several shards' answers are unioned once more.
            let gathers = trace.spans.iter().filter(|s| s.name == "index.gather");
            let searched = trace
                .spans
                .iter()
                .filter(|s| s.name == "index.plan")
                .count();
            let union = usize::from(shards > 1);
            assert_eq!(gathers.count(), searched + union, "{what}");

            let root = trace.root();
            assert_eq!((root.end_ns, trace.total_ns), (st.total_ns, st.total_ns));
            for span in &trace.spans[1..] {
                let parent = trace.span(span.parent.expect("only the root is parentless"));
                assert!(
                    parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                    "{} escapes {}: {what}",
                    span.name,
                    parent.name
                );
            }
            let traced_phases: u64 = trace.spans[1..]
                .iter()
                .filter(|s| s.parent == Some(SpanId(0)))
                .map(|s| s.duration_ns())
                .sum();
            assert_eq!(traced_phases, phases, "{what}");
            let attr = |key: &str| root.attrs.iter().find(|(k, _)| *k == key);
            assert_eq!(
                attr("unattributed_ns"),
                Some(&("unattributed_ns", AttrValue::U64(unattributed))),
                "{what}"
            );
            assert!(attr("untraced_variants").is_none(), "under the cap: {what}");
        }
    }
}

// ---------------------------------------------------------------------------
// Incident drills: each builds one query shape, writes the diagnostics
// bundle, and answers its question from the bundle's text alone — the
// Chrome JSON of `traces_slow.json`, `metrics.json` and `events.jsonl` —
// never from a live type (DESIGN.md §13).  They assert work counts, which
// are deterministic, and never which phase is largest by time.
// ---------------------------------------------------------------------------

/// A JSON value as the bundle spells it; numbers keep their digits.
#[derive(Debug)]
enum Json {
    Lit,
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let (b, mut i) = (text.as_bytes(), 0);
        let v = Json::value(b, &mut i);
        assert!(text[i..].trim().is_empty(), "trailing data at byte {i}");
        v
    }

    fn value(b: &[u8], i: &mut usize) -> Json {
        while b[*i].is_ascii_whitespace() {
            *i += 1;
        }
        let start = *i;
        *i += 1;
        match b[start] {
            b'{' | b'[' => {
                let close = if b[start] == b'{' { b'}' } else { b']' };
                let mut items = Vec::new();
                loop {
                    while b[*i].is_ascii_whitespace() || b[*i] == b',' {
                        *i += 1;
                    }
                    if b[*i] == close {
                        *i += 1;
                        break;
                    }
                    let key = match close {
                        b'}' => match Json::value(b, i) {
                            Json::Str(k) => {
                                *i += 1; // the `:`
                                k
                            }
                            other => panic!("object key {other:?}"),
                        },
                        _ => String::new(),
                    };
                    items.push((key, Json::value(b, i)));
                }
                if close == b'}' {
                    Json::Obj(items)
                } else {
                    Json::Arr(items.into_iter().map(|(_, v)| v).collect())
                }
            }
            b'"' => {
                let mut out = Vec::new();
                while b[*i] != b'"' {
                    if b[*i] == b'\\' {
                        *i += 1;
                        out.push(match b[*i] {
                            b'n' => b'\n',
                            b't' => b'\t',
                            b'r' => b'\r',
                            c => c,
                        });
                    } else {
                        out.push(b[*i]);
                    }
                    *i += 1;
                }
                *i += 1;
                Json::Str(String::from_utf8(out).expect("utf-8"))
            }
            b't' | b'f' | b'n' => {
                while b[*i].is_ascii_alphabetic() {
                    *i += 1;
                }
                Json::Lit
            }
            _ => {
                while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'.' | b'-' | b'e' | b'+') {
                    *i += 1;
                }
                Json::Num(String::from_utf8(b[start..*i].to_vec()).expect("ascii"))
            }
        }
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn at(&self, key: &str) -> &Json {
        self.get(key)
            .unwrap_or_else(|| panic!("no `{key}` in {self:?}"))
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn u64(&self) -> u64 {
        match self {
            Json::Num(n) => n.parse().unwrap_or_else(|_| panic!("not a count: {n}")),
            other => panic!("not a number: {other:?}"),
        }
    }

    /// A Chrome `ts` / `dur`: microseconds with a three-digit nanosecond
    /// fraction, read back exactly.
    fn ns(&self) -> u64 {
        match self {
            Json::Num(n) => n.replace('.', "").parse().expect("µs.ns"),
            other => panic!("not a number: {other:?}"),
        }
    }
}

/// The three artifacts a drill reads.
struct Bundle {
    traces: Json,
    metrics: Json,
    events: Vec<Json>,
}

impl Bundle {
    /// Writes `db`'s diagnostics bundle and reads it back as text.
    fn write(db: &Database, drill: &str) -> Bundle {
        let dir = std::env::temp_dir().join(format!("xseq-drill-{drill}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        db.diagnostics(&dir).expect("bundle writes");
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("artifact reads");
        let bundle = Bundle {
            traces: Json::parse(&read("traces_slow.json")),
            metrics: Json::parse(&read("metrics.json")),
            events: read("events.jsonl").lines().map(Json::parse).collect(),
        };
        std::fs::remove_dir_all(&dir).expect("cleanup");
        bundle
    }

    /// The one retained trace of `expr`, as its Chrome trace events.
    fn trace(&self, expr: &str) -> &[Json] {
        let mut found = self
            .traces
            .items()
            .iter()
            .filter(|t| t.at("otherData").at("query").str() == expr);
        let trace = found
            .next()
            .unwrap_or_else(|| panic!("no slow trace of {expr}"));
        assert!(found.next().is_none(), "{expr} ran once");
        trace.at("traceEvents").items()
    }

    /// A counter's or gauge's value in `metrics.json`.
    fn metric(&self, name: &str) -> u64 {
        self.metrics.at(name).at("value").u64()
    }
}

/// The events of `trace` named `name`.
fn named<'a>(trace: &'a [Json], name: &str) -> Vec<&'a Json> {
    trace
        .iter()
        .filter(|e| e.at("name").str() == name)
        .collect()
}

/// An attribute of a trace event.
fn arg(event: &Json, key: &str) -> u64 {
    event.at("args").at(key).u64()
}

/// The reconciliation a reader can do with the artifact alone: the root's
/// children — every span but the zero-length `search.*` events riding on a
/// descent — plus the root's `unattributed_ns` sum to the root's duration.
fn assert_reconciles(trace: &[Json]) {
    let (root, rest) = trace.split_first().expect("a root span");
    assert_eq!(root.at("name").str(), "query");
    let mut children = 0;
    for span in rest {
        if span.at("name").str().starts_with("search.") {
            assert_eq!(span.at("dur").ns(), 0, "events are zero-length");
        } else {
            children += span.at("dur").ns();
        }
    }
    let unattributed = arg(root, "unattributed_ns");
    assert_eq!(children + unattributed, root.at("dur").ns(), "{root:?}");
}

/// A database at one shard whose every query is traced and retained.
fn drill_builder() -> DatabaseBuilder {
    DatabaseBuilder::new().shards(1).trace_config(TraceConfig {
        slow_threshold: Duration::ZERO,
        ..TraceConfig::default()
    })
}

/// Planning-heavy: `//*//*` over a 40-deep chain plans one assignment per
/// (ancestor, descendant) pair, 780 of them, past the trace's variant cap.
/// The artifact still accounts for every one: traced descents plus the
/// root's `untraced_variants`.
#[test]
fn drill_planning_heavy_query() {
    let chain = format!("{}{}", "<a>".repeat(40), "</a>".repeat(40));
    let db = drill_builder()
        .build_from_xml([chain.as_str(), "<a/>"])
        .expect("corpus indexes");
    db.query_xpath("//*//*").expect("query parses");
    let bundle = Bundle::write(&db, "plan");
    let trace = bundle.trace("//*//*");
    let plan = named(trace, "index.plan");
    assert_eq!(plan.len(), 1, "one shard plans once");
    let instantiations = arg(plan[0], "instantiations");
    assert_eq!(instantiations, 40 * 39 / 2);
    assert_eq!(arg(&trace[0], "plan_truncated"), 0);
    let descents = named(trace, "trie.descent").len() as u64;
    let untraced = arg(&trace[0], "untraced_variants");
    assert_eq!(descents + untraced, instantiations);
    assert_eq!(bundle.metric("index.plan.instantiations"), instantiations);
    assert_reconciles(trace);
}

/// Answer-heavy over an overlay: 126 inserts at memtable limit 2 and tier
/// ratio 4 leave 63 cuts folded into runs by base-4 carries — 3 + 3 + 3 =
/// 9 runs after 15 + 3 merges, an empty memtable — and 13 tombstones.
/// Every overlay run is one `trie.descent.delta`, the gather answers what
/// the root says, and the gauges and merge events match the build.
#[test]
fn drill_answer_heavy_query_over_an_overlay() {
    let base = ["<a><b/></a>"; 4];
    let mut db = drill_builder()
        .memtable_limit(2)
        .tier_ratio(4)
        .build_from_xml(base)
        .expect("corpus indexes");
    for i in 0..126 {
        db.insert_document(&format!("<a><b/><c{}/></a>", i % 5))
            .expect("doc parses");
    }
    for id in (0..130).step_by(10) {
        assert!(db.remove_document(id), "{id} is live");
    }
    db.query_xpath("/a/b").expect("query parses");
    let bundle = Bundle::write(&db, "overlay");
    assert_eq!(bundle.metric("index.delta.runs"), 9);
    assert_eq!(bundle.metric("index.tombstones"), 13);
    let merges = bundle.events.iter();
    let merges = merges.filter(|e| e.at("name").str() == "compact.tier.finish");
    assert_eq!(merges.count(), 15 + 3);
    let trace = bundle.trace("/a/b");
    assert_eq!(named(trace, "trie.descent").len(), 1, "one assignment");
    assert_eq!(named(trace, "trie.descent.delta").len(), 9, "one per run");
    let gather = named(trace, "index.gather");
    assert_eq!(gather.len(), 1);
    assert_eq!(arg(gather[0], "docs"), 130 - 13);
    assert_eq!(arg(gather[0], "docs"), arg(&trace[0], "docs"));
    assert_reconciles(trace);
}

/// Answer-bound: `/article/author` over 300 DBLP records is one concrete
/// path, so one `trie.descent` does all the work; its `candidates` and
/// `docs` are the query's, and the registry's work counters agree with
/// the descent's attributes and events.
#[test]
fn drill_answer_bound_query() {
    let mut symbols = SymbolTable::with_value_mode(ValueMode::Intern);
    let xml: Vec<String> = xseq::datagen::DblpGenerator::new(7)
        .generate(300, &mut symbols)
        .iter()
        .map(|doc| write_document(doc, &symbols))
        .collect();
    let db = drill_builder()
        .build_from_xml(xml.iter().map(String::as_str))
        .expect("corpus indexes");
    db.query_xpath("/article/author").expect("query parses");
    let bundle = Bundle::write(&db, "answer");
    let trace = bundle.trace("/article/author");
    let descent = named(trace, "trie.descent");
    assert_eq!(descent.len(), 1, "one assignment, one segment");
    let docs = arg(descent[0], "docs");
    assert!(docs > 0, "some records are articles");
    assert_eq!(docs, arg(&trace[0], "docs"));
    assert_eq!(arg(named(trace, "index.gather")[0], "docs"), docs);
    let candidates = arg(descent[0], "candidates");
    assert_eq!(candidates, arg(&trace[0], "candidates"));
    assert_eq!(bundle.metric("index.search.candidates"), candidates);
    let completions = arg(named(trace, "search.completions")[0], "count");
    assert!(completions > 0);
    assert_eq!(bundle.metric("index.search.completions"), completions);
    let probes = arg(named(trace, "search.link_probes")[0], "count");
    assert!(probes > 0);
    assert_eq!(bundle.metric("index.search.link_probes"), probes);
    let rejections = named(trace, "search.sibling_cover_checks");
    let rejections = arg(rejections[0], "rejections");
    assert_eq!(bundle.metric("index.search.cover_rejections"), rejections);
    assert_reconciles(trace);
}
