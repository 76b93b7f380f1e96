//! The three phases of a run — ingest, query, update — timed end to end
//! through `xseq`'s `Database` API, with one caller in a closed loop: the
//! next call is issued only after the previous one returned.
//!
//! Every result is checked against the oracle, always outside the timed
//! windows; a disagreement is a failed operation, never a panic.

use crate::alloc::count_live_bytes;
use crate::calib::{factor, Host};
use crate::stats::{median, quantile, sorted};
use crate::workload::{
    splitmix, Class, Expect, Inputs, Phase, Spec, INSERTS_PER_BATCH, QUERIES_PER_BATCH,
    REMOVES_PER_BATCH, SEGMENTS,
};
use std::hint::black_box;
use std::time::{Duration, Instant};
use xseq::{CompactionReport, Database, DatabaseBuilder, DocId, Error};

/// Worker threads wherever a pool is used: `min(nproc, 4)`.
pub fn pool_threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds a database from the first `docs` base documents the way an
/// embedding application would: XML text in, one shard, `threads` workers.
pub fn build(inputs: &Inputs, docs: usize, threads: usize) -> Result<Database, Error> {
    DatabaseBuilder::new()
        .threads(threads)
        .shards(1)
        .build_from_xml(inputs.base_xml[..docs].iter().map(String::as_str))
}

/// Operations attempted and failed, with the first few failures described.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first: Vec<String>,
}

impl Checks {
    /// Counts one operation; `what` describes it when it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first.len() < 8 {
                self.first.push(what());
            }
        }
    }

    /// Counts one query and checks its result against the oracle.
    pub fn query(&mut self, class: &str, got: &Result<Vec<DocId>, Error>, want: Expect) {
        let ok = matches!(got, Ok(ids) if Expect::of(ids) == want);
        self.op(ok, || match got {
            Ok(ids) => format!(
                "query {class}: {} ids, oracle expects {}",
                ids.len(),
                want.len
            ),
            Err(e) => format!("query {class}: {e}"),
        });
    }
}

/// What every phase of a run works with: the inputs, the host-speed probes
/// and the failure accounting.
pub struct Run<'a> {
    pub inputs: &'a Inputs,
    pub host: Host,
    pub checks: Checks,
}

impl<'a> Run<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Run {
            inputs,
            host: Host::default(),
            checks: Checks::default(),
        }
    }
}

/// The `Database` calls the query and update phases make.  The untraced run
/// makes them directly ([`Direct`]); the traced run wraps each one in a span
/// and replays it stage by stage through the layers' public functions.
pub trait Calls {
    fn query(&mut self, db: &Database, class: &Class) -> Result<Vec<DocId>, Error> {
        db.query_xpath(&class.expr)
    }
    fn insert(&mut self, db: &mut Database, xml: &str) -> Result<DocId, Error> {
        db.insert_document(xml)
    }
    fn remove(&mut self, db: &mut Database, id: DocId) -> bool {
        db.remove_document(id)
    }
    fn compact(&mut self, db: &mut Database) -> CompactionReport {
        db.compact()
    }
}

/// Calls with nothing in between: what the end-to-end metrics time.
pub struct Direct;

impl Calls for Direct {}

/// Paces the rounds of one time slice: always one round, then more while
/// the deadline is further away than half the round just finished.  A probe
/// has no deadline and runs exactly one round.
struct Pace {
    deadline: Option<Instant>,
    last_start: Option<Instant>,
}

impl Pace {
    fn until(deadline: Option<Instant>) -> Pace {
        Pace {
            deadline,
            last_start: None,
        }
    }

    fn another_round(&mut self) -> bool {
        let now = Instant::now();
        let go = match (self.last_start, self.deadline) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(start), Some(deadline)) => now + (now - start) / 2 < deadline,
        };
        self.last_start = Some(now);
        go
    }
}

// ---------------------------------------------------------------- ingest --

#[derive(Debug, Default)]
pub struct IngestSamples {
    /// Documents per second of each `threads(1)` build, at reference speed
    /// (see [`crate::calib`]) like every time and rate sampled here.
    pub serial: Vec<f64>,
    /// Documents per second of each `threads(pool_threads())` build.
    pub parallel: Vec<f64>,
    /// Trie nodes of the index over the rounds' documents (identical across
    /// builds, or a failure).
    pub nodes: usize,
}

/// Rounds of `build_from_xml` over the first `docs` base documents,
/// alternating one thread and the pool, each database dropped before the
/// next build.
pub fn ingest_rounds(run: &mut Run, docs: usize, deadline: Option<Instant>, s: &mut IngestSamples) {
    let Run {
        inputs,
        host,
        checks,
    } = run;
    let mut timed_build = |threads: usize, nodes: &mut usize| {
        let t0 = Instant::now();
        let db = black_box(build(inputs, docs, threads));
        let rate = docs as f64 / t0.elapsed().as_secs_f64();
        checks.op(check_build(&db, docs, nodes), || {
            format!("build_from_xml threads({threads})")
        });
        rate
    };
    let mut pace = Pace::until(deadline);
    let mut k0 = host.probe();
    while pace.another_round() {
        let rate = timed_build(1, &mut s.nodes);
        let k1 = host.probe();
        s.serial.push(rate / factor(k0, k1));
        let rate = timed_build(pool_threads(), &mut s.nodes);
        k0 = host.probe();
        s.parallel.push(rate / factor(k1, k0));
    }
}

/// A build is right when it succeeded, holds every document, and has the
/// node count every other build of the same input had (0: none seen yet).
pub fn check_build(db: &Result<Database, Error>, docs: usize, nodes: &mut usize) -> bool {
    let Ok(db) = db else { return false };
    let n = db.index().node_count();
    if *nodes == 0 {
        *nodes = n;
    }
    db.len() == docs && n == *nodes
}

// ----------------------------------------------------------------- query --

/// The single-caller samples of one round: wall time (at reference speed
/// once the round is complete) and class per call.
#[derive(Debug, Default)]
pub struct Round {
    pub lat_ns: Vec<u64>,
    pub class: Vec<usize>,
}

impl Round {
    fn push(&mut self, ns: u64, class: usize) {
        self.lat_ns.push(ns);
        self.class.push(class);
    }

    /// Brings the samples from position `from` on to reference speed.
    fn calibrate(&mut self, from: usize, factor: f64) {
        for ns in &mut self.lat_ns[from..] {
            *ns = (*ns as f64 * factor) as u64;
        }
    }

    /// Queries per second of timed query time: the mean, so heavy classes
    /// count.
    pub fn qps(&self) -> f64 {
        self.lat_ns.len() as f64 / (self.lat_ns.iter().sum::<u64>() as f64 / 1e9)
    }

    /// Median latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        quantile(&sorted(&self.lat_ns), 0.5) as f64 / 1e3
    }
}

#[derive(Debug, Default)]
pub struct QuerySamples {
    /// Per round: every single-caller `query_xpath` call.
    pub rounds: Vec<Round>,
    /// Per round: queries per second of one `query_batch` call.
    pub batch_qps: Vec<f64>,
}

/// How many queries one round issues one by one and in one batch.
#[derive(Debug, Clone, Copy)]
pub struct RoundSize {
    pub singles: usize,
    pub batch: usize,
}

/// Rounds of single-caller queries followed by one `query_batch` over the
/// database's pool.  `db` must be freshly built over the first `docs` base
/// documents.
pub fn query_rounds(
    run: &mut Run,
    calls: &mut impl Calls,
    (db, docs): (&Database, usize),
    size: RoundSize,
    deadline: Option<Instant>,
    s: &mut QuerySamples,
) {
    let Run {
        inputs,
        host,
        checks,
    } = run;
    let expect = inputs.base_expect(docs);
    let single_list = inputs.query_round(size.singles);
    let batch_list = inputs.query_round(size.batch);
    let batch_exprs: Vec<&str> = batch_list
        .iter()
        .map(|&c| inputs.classes[c].expr.as_str())
        .collect();
    let mut pace = Pace::until(deadline);
    let mut k0 = host.probe();
    while pace.another_round() {
        if !single_list.is_empty() {
            let mut round = Round::default();
            for &c in &single_list {
                let class = &inputs.classes[c];
                let t0 = Instant::now();
                let got = black_box(calls.query(db, black_box(class)));
                round.push(t0.elapsed().as_nanos() as u64, c);
                checks.query(class.name, &got, expect[c]);
            }
            let k1 = host.probe();
            round.calibrate(0, factor(k0, k1));
            k0 = k1;
            s.rounds.push(round);
        }
        let t0 = Instant::now();
        let got = black_box(db.query_batch(black_box(&batch_exprs)));
        let secs = t0.elapsed().as_secs_f64();
        let k1 = host.probe();
        s.batch_qps
            .push(batch_exprs.len() as f64 / secs / factor(k0, k1));
        k0 = k1;
        for (&c, got) in batch_list.iter().zip(&got) {
            checks.query(inputs.classes[c].name, got, expect[c]);
        }
    }
}

/// One untimed pass over every class, single and batched, so that lazy
/// set-up inside the database is done before the first timed call.
pub fn warm_up(db: &Database, inputs: &Inputs) {
    let exprs: Vec<&str> = inputs.classes.iter().map(|c| c.expr.as_str()).collect();
    for expr in &exprs {
        let _ = black_box(db.query_xpath(expr));
    }
    let _ = black_box(db.query_batch(&exprs));
}

// ---------------------------------------------------------------- update --

/// The oracle's model of the live documents while the update stream runs.
#[derive(Debug)]
pub struct Model {
    /// Per current document id: the classes it matches.
    mask: Vec<u32>,
    alive: Vec<bool>,
    live: usize,
    pub expect: Vec<Expect>,
}

impl Model {
    /// The model of a database freshly built over the first `docs` base
    /// documents.
    pub fn of_base(inputs: &Inputs, docs: usize) -> Model {
        Model {
            mask: inputs.base_mask[..docs].to_vec(),
            alive: vec![true; docs],
            live: docs,
            expect: inputs.base_expect(docs),
        }
    }

    /// The id the database must mint for the next insert.
    pub fn next_id(&self) -> DocId {
        self.mask.len() as DocId
    }

    pub fn insert(&mut self, mask: u32) {
        let id = self.next_id();
        self.for_classes(mask, |e| e.add(id));
        self.mask.push(mask);
        self.alive.push(true);
        self.live += 1;
    }

    /// The first live id at or after `r mod len`, wrapping around.
    pub fn victim(&self, r: u64) -> DocId {
        let n = self.mask.len();
        let start = (r % n as u64) as usize;
        (0..n)
            .map(|i| (start + i) % n)
            .find(|&i| self.alive[i])
            .expect("the update stream never removes every document") as DocId
    }

    pub fn remove(&mut self, id: DocId) {
        self.alive[id as usize] = false;
        self.live -= 1;
        self.for_classes(self.mask[id as usize], |e| e.remove(id));
    }

    fn for_classes(&mut self, mask: u32, mut f: impl FnMut(&mut Expect)) {
        for (c, e) in self.expect.iter_mut().enumerate() {
            if mask & (1 << c) != 0 {
                f(e);
            }
        }
    }

    /// Follows a compaction's renumbering and re-derives every expectation
    /// from the surviving documents.  False when the report disagrees with
    /// the model: a live document dropped, a dead one kept, or ids not dense.
    pub fn compact(&mut self, report: &CompactionReport) -> bool {
        if report.remap.len() != self.mask.len() || report.docs_after != self.live {
            return false;
        }
        let mut mask = Vec::with_capacity(self.live);
        for (old, new) in report.remap.iter().enumerate() {
            match (self.alive[old], new) {
                (true, Some(new)) if *new as usize == mask.len() => mask.push(self.mask[old]),
                (false, None) => {}
                _ => return false,
            }
        }
        self.expect = vec![Expect::default(); self.expect.len()];
        self.mask = Vec::new();
        self.alive = Vec::new();
        self.live = 0;
        for m in mask {
            self.insert(m);
        }
        true
    }
}

#[derive(Debug, Default)]
pub struct UpdateSamples {
    /// Per pass: inserts + removes applied per second of update time, the
    /// median of the pass's three segments.
    pub docs_per_s: Vec<f64>,
    /// Per pass: wall time of `compact()`, the median of its three calls.
    pub compact_s: Vec<f64>,
    /// Per pass: every query interleaved with the updates.
    pub rounds: Vec<Round>,
    /// Tier merges drained by `run_pending_merges()` itself.
    pub merges: usize,
    /// Trie nodes after the last compaction of the last pass.
    pub nodes: usize,
}

/// One pass over the first `batches` batches of the update stream on `db`,
/// which must be freshly built over the first `docs` base documents:
/// batches of inserts, removes, a merge drain and queries, with `compact()`
/// after each third.
pub fn update_pass(
    run: &mut Run,
    calls: &mut impl Calls,
    (db, docs): (&mut Database, usize),
    batches: usize,
    s: &mut UpdateSamples,
) {
    let Run {
        inputs,
        host,
        checks,
    } = run;
    let mut model = Model::of_base(inputs, docs);
    let queries = inputs.stream_round(batches * QUERIES_PER_BATCH);
    let per_segment = batches / SEGMENTS;
    let mut round = Round::default();
    let (mut rates, mut compacts) = (Vec::new(), Vec::new());
    let mut k0 = host.probe();
    for segment in 0..SEGMENTS {
        let mut update_ns = 0u64;
        let first_sample = round.lat_ns.len();
        for b in segment * per_segment..(segment + 1) * per_segment {
            let first = b * INSERTS_PER_BATCH;
            let xmls = &inputs.stream_xml[first..first + INSERTS_PER_BATCH];
            // Victims are live before this batch, so they can be chosen
            // before the timed window opens.
            let mut victims: Vec<DocId> = (0..REMOVES_PER_BATCH as u64)
                .map(|i| model.victim(splitmix(inputs.seed ^ ((b as u64) << 8 | i) ^ 0x5eed)))
                .collect();
            victims.sort_unstable();
            victims.dedup();

            let t0 = Instant::now();
            let ids: Vec<Result<DocId, Error>> =
                xmls.iter().map(|xml| calls.insert(db, xml)).collect();
            let removed: Vec<bool> = victims.iter().map(|&v| calls.remove(db, v)).collect();
            s.merges += db.run_pending_merges();
            update_ns += t0.elapsed().as_nanos() as u64;

            for (i, id) in ids.iter().enumerate() {
                let want = model.next_id();
                checks.op(matches!(id, Ok(id) if *id == want), || {
                    format!("insert_document returned {id:?}, expected id {want}")
                });
                model.insert(inputs.stream_mask[first + i]);
            }
            for (&v, &fresh) in victims.iter().zip(&removed) {
                checks.op(fresh, || format!("remove_document({v}) found nothing"));
                model.remove(v);
            }

            let first_q = b * QUERIES_PER_BATCH;
            for &c in &queries[first_q..first_q + QUERIES_PER_BATCH] {
                let class = &inputs.classes[c];
                let t0 = Instant::now();
                let got = black_box(calls.query(db, black_box(class)));
                round.push(t0.elapsed().as_nanos() as u64, c);
                checks.query(class.name, &got, model.expect[c]);
            }
        }
        let k1 = host.probe();
        let applied = per_segment * (INSERTS_PER_BATCH + REMOVES_PER_BATCH);
        rates.push(applied as f64 / (update_ns as f64 / 1e9) / factor(k0, k1));
        round.calibrate(first_sample, factor(k0, k1));

        let t0 = Instant::now();
        let report = black_box(calls.compact(db));
        let secs = t0.elapsed().as_secs_f64();
        k0 = host.probe();
        compacts.push(secs * factor(k1, k0));
        checks.op(model.compact(&report), || {
            format!(
                "compact(): {} -> {} documents disagrees with the model",
                report.docs_before, report.docs_after
            )
        });
    }
    s.docs_per_s.push(median(&rates));
    s.compact_s.push(median(&compacts));
    s.rounds.push(round);
    s.nodes = db.index().node_count();
}

/// Full integrity verification, counted as one operation.
pub fn verify(db: &mut Database, checks: &mut Checks) {
    let report = db.verify_integrity();
    checks.op(report.is_clean(), || {
        format!("verify_integrity: {}", report.summary())
    });
}

// ------------------------------------------------------------------ run ---

/// Set-up: data generation, XML serialisation, oracle answers, and for the
/// query and update workloads the build plus one warm-up pass.
pub fn prepare(spec: Spec, seed: u64, checks: &mut Checks) -> (Inputs, Option<Database>) {
    let inputs = Inputs::generate(spec, seed);
    if spec.focus == Phase::Ingest {
        return (inputs, None);
    }
    let db = build(&inputs, spec.base_docs, pool_threads());
    checks.op(db.is_ok(), || "build_from_xml (set-up)".into());
    let db = db.ok();
    if let Some(db) = &db {
        warm_up(db, &inputs);
    }
    (inputs, db)
}

/// Everything one untraced run sampled.
pub struct Samples {
    pub inputs: Inputs,
    pub host: Host,
    pub setup_s: Vec<f64>,
    /// Trie nodes, live heap bytes and `stats().memory.total_bytes()` of the
    /// full base database built in the memory round.
    pub nodes: usize,
    pub db_bytes: usize,
    pub stats_bytes: usize,
    pub ingest: IngestSamples,
    pub query: QuerySamples,
    pub update: UpdateSamples,
    pub checks: Checks,
}

/// How often set-up is repeated in one run; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// A run cycles through its three phases this many times, so that every
/// metric's samples are spread over the whole run and a few seconds of
/// interference from outside the machine hit only some of them.
pub const CYCLES: usize = 5;

/// Runs the workload untraced: set-up three times, one memory round, then
/// [`CYCLES`] cycles of ingest, query and update.  In every cycle the focus
/// phase repeats its round for a fifth of `seconds`; the other two phases
/// run one half-size round over half the base documents.
pub fn run(spec: Spec, seed: u64, seconds: f64, started: Instant) -> Samples {
    let mut checks = Checks::default();
    let mut host = Host::default();
    let mut setup_s = Vec::new();
    // The first set-up counts from process start; the probe before it is
    // taken after it instead, so that nothing precedes the first set-up.
    let mut prepared = prepare(spec, seed, &mut checks);
    let secs = started.elapsed().as_secs_f64();
    let mut k0 = host.probe();
    setup_s.push(secs * factor(k0, k0));
    for _ in 1..SETUPS {
        drop(prepared);
        let t0 = Instant::now();
        prepared = prepare(spec, seed, &mut checks);
        let secs = t0.elapsed().as_secs_f64();
        let k1 = host.probe();
        setup_s.push(secs * factor(k0, k1));
        k0 = k1;
    }
    let (inputs, mut db) = prepared;
    let mut run = Run {
        inputs: &inputs,
        host,
        checks,
    };
    let threads = pool_threads();
    let all = spec.base_docs;
    let slice = |phase: Phase| {
        let share = Duration::from_secs_f64(seconds / CYCLES as f64);
        (spec.focus == phase).then(|| Instant::now() + share)
    };

    // The memory round: one untimed build with the counting allocator on.
    let mut nodes = 0;
    let (built, db_bytes) = count_live_bytes(|| build(&inputs, all, threads));
    run.checks.op(check_build(&built, all, &mut nodes), || {
        "build_from_xml (memory round)".into()
    });
    let stats_bytes = built
        .as_ref()
        .map_or(0, |db| db.stats().memory.total_bytes());
    if db.is_none() {
        db = built.ok();
    }

    let mut ingest = IngestSamples::default();
    let mut query = QuerySamples::default();
    let mut update = UpdateSamples::default();
    let round = RoundSize {
        // On the update workload the reported query latencies come from the
        // queries interleaved with the writes, so its query phase only
        // batches.
        singles: if spec.focus == Phase::Update {
            0
        } else {
            spec.sized(Phase::Query, spec.singles)
        },
        batch: spec.sized(Phase::Query, spec.batch),
    };
    let mut last_updated = None;
    for _ in 0..CYCLES {
        let docs = spec.sized(Phase::Ingest, all);
        ingest_rounds(&mut run, docs, slice(Phase::Ingest), &mut ingest);
        if let Some(db) = &db {
            let deadline = slice(Phase::Query);
            query_rounds(
                &mut run,
                &mut Direct,
                (db, all),
                round,
                deadline,
                &mut query,
            );
        }
        let mut pace = Pace::until(slice(Phase::Update));
        let docs = spec.sized(Phase::Update, all);
        let batches = spec.sized(Phase::Update, spec.stream_batches);
        while pace.another_round() {
            // Every pass starts from a fresh database, built outside the
            // timed windows.
            let fresh = build(&inputs, docs, threads);
            run.checks
                .op(fresh.is_ok(), || "build_from_xml (update pass)".into());
            let Ok(mut fresh) = fresh else { break };
            update_pass(
                &mut run,
                &mut Direct,
                (&mut fresh, docs),
                batches,
                &mut update,
            );
            last_updated = Some(fresh);
        }
    }
    if let Some(mut db) = last_updated {
        verify(&mut db, &mut run.checks);
    }
    let Run { host, checks, .. } = run;
    Samples {
        inputs,
        host,
        setup_s,
        nodes,
        db_bytes,
        stats_bytes,
        ingest,
        query,
        update,
        checks,
    }
}
