//! The four workloads: what each one generates, which queries it mixes with
//! which weights, and the oracle answers every timed result is checked
//! against.  `WORKLOADS.md` records why each exists.
//!
//! Everything here is set-up: the program under test later receives only the
//! XML text and XPath strings produced here.

use xseq::datagen::xmark::q3_constants;
use xseq::datagen::{queries, DblpGenerator, XmarkGenerator, XmarkOptions};
use xseq::xml::matcher::structure_match;
use xseq::xml::{write_document, Document, SymbolTable, ValueMode};
use xseq::{parse_xpath_readonly, DocId};

/// Which generator feeds a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Xmark,
    Dblp,
}

/// The three phases every run goes through; one of them is a workload's focus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Ingest,
    Query,
    Update,
}

/// One update batch: this many inserts, removes and queries, in that order.
pub const INSERTS_PER_BATCH: usize = 32;
pub const REMOVES_PER_BATCH: usize = 4;
pub const QUERIES_PER_BATCH: usize = 8;
/// `compact()` runs after each third of the update stream.
pub const SEGMENTS: usize = 3;

/// Static description of a workload at `--scale 1`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// The phase that gets the measuring time; the other two run as short
    /// probes at half size.
    pub focus: Phase,
    /// Documents in the base database.
    pub base_docs: usize,
    /// Batches in one pass over the update stream (a multiple of three).
    pub stream_batches: usize,
    /// Queries in one single-caller round, and in one `query_batch` call.
    pub singles: usize,
    pub batch: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "xmark_query",
        why: "// and * over a value-interned path table: index.plan is most of every query, ingest layers idle",
        kind: Kind::Xmark,
        focus: Phase::Query,
        base_docs: 20_000,
        stream_batches: 96,
        singles: 300,
        batch: 150,
    },
    Spec {
        name: "dblp_query",
        why: "trivial plans, so Algorithm 1's descent, link probes and result collection do the work",
        kind: Kind::Dblp,
        focus: Phase::Query,
        base_docs: 30_000,
        stream_batches: 96,
        singles: 600,
        batch: 300,
    },
    Spec {
        name: "bulk_ingest",
        why: "parse, estimate, encode, sort/load and freeze do all the work; only place build cost and size are the focus",
        kind: Kind::Xmark,
        focus: Phase::Ingest,
        base_docs: 20_000,
        stream_batches: 96,
        singles: 300,
        batch: 150,
    },
    Spec {
        name: "update_mix",
        why: "writes beside reads: queries over frozen + memtable + runs - tombstones, merges and compactions re-freeze",
        kind: Kind::Xmark,
        focus: Phase::Update,
        base_docs: 10_000,
        stream_batches: 192,
        singles: 600,
        batch: 16_000,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The spec at `scale`: every size shrinks, none below what one round
    /// needs.
    pub fn scaled(mut self, scale: f64) -> Spec {
        let s = |n: usize, min: usize| ((n as f64 * scale).round() as usize).max(min);
        self.base_docs = s(self.base_docs, 64);
        // At least ten batches per segment, so that even the smallest stream
        // cuts enough memtables between compactions for a tier merge.
        self.stream_batches = s(self.stream_batches, SEGMENTS * 10).next_multiple_of(SEGMENTS * 2);
        self.singles = s(self.singles, 40);
        self.batch = s(self.batch, 20);
        self
    }

    /// Sizes of a phase: full when it is the focus, half when it is a probe.
    pub fn sized(&self, phase: Phase, n: usize) -> usize {
        if self.focus == phase {
            n
        } else {
            n / 2
        }
    }
}

/// One query class: an expression with its share of the query-phase mix and
/// of the queries interleaved with updates (either may be zero).
#[derive(Debug, Clone)]
pub struct Class {
    pub name: &'static str,
    pub expr: String,
    pub weight: u32,
    pub stream_weight: u32,
}

fn class(name: &'static str, expr: impl Into<String>, weight: u32, stream_weight: u32) -> Class {
    Class {
        name,
        expr: expr.into(),
        weight,
        stream_weight,
    }
}

/// The XMark classes.  Query-phase weights put the median inside `interest`
/// (a plan-bound `//` class, 30..60% by latency rank) and the p99 inside
/// `increase` (search-bound, 96..100%), never on a boundary between classes.
fn xmark_classes(docs: &[Document], st: &SymbolTable) -> Vec<Class> {
    let (person, date) =
        q3_constants(docs, st).unwrap_or_else(|| ("person0".into(), "01/01/2000".into()));
    let from = first_text(docs, st, &["item", "mailbox", "mail", "from"])
        .unwrap_or_else(|| "person0".into());
    vec![
        class("name", "/site/person/name", 10, 30),
        class(
            "q3",
            format!("//closed_auction[seller/person='{person}']/date[text='{date}']"),
            10,
            0,
        ),
        class(
            "incategory",
            "//item[incategory='category3'][location='Germany']/name",
            10,
            0,
        ),
        class(
            "interest",
            "//person[profile/interest='category1']/address/city[text='Paris']",
            30,
            0,
        ),
        class("q2", queries::XMARK_Q2, 10, 0),
        class("q1", queries::XMARK_Q1, 10, 0),
        class("anyseller", format!("//*[seller/person='{person}']"), 8, 0),
        class("bidderdate", "/site/open_auction/bidder/date", 4, 0),
        class("mailfrom", format!("/site//mail[from='{from}']"), 4, 0),
        class(
            "increase",
            "/site/*/bidder[increase='5.00']/personref",
            4,
            0,
        ),
        // Child-axis classes for the queries interleaved with updates: their
        // plans are trivial, so what they cost is the search over every
        // segment the update stream has produced.  Stream weights put the
        // median inside `germany` (20..60%) and the p99 inside `name`.
        class(
            "seller",
            format!("/site/closed_auction[seller/person='{person}']/date"),
            0,
            10,
        ),
        class("germany", "/site/item[location='Germany']/name", 0, 40),
        class("age", "/site/person/profile/age[text='32']", 0, 20),
    ]
}

/// The DBLP classes: Table 8 Q1–Q4, four more exact paths, and one
/// expression naming a value no document holds.
fn dblp_classes() -> Vec<Class> {
    vec![
        class("nosuch", "/article[journal='NoSuchJournal']/title", 4, 10),
        class("year", "/inproceedings[year='1999']/booktitle", 12, 20),
        class("q2", queries::DBLP_Q2, 14, 10),
        class("school", "/phdthesis/school", 10, 30),
        class(
            "authoryear",
            "/inproceedings[author='David'][year='2001']/title",
            6,
            30,
        ),
        class("q1", queries::DBLP_Q1, 22, 0),
        class("author", "/article/author", 14, 0),
        class("q3", queries::DBLP_Q3, 16, 0),
        class("q4", queries::DBLP_Q4, 2, 0),
    ]
}

/// Text of the first value found by walking `steps` below the root of any
/// document — a constant that is certain to exist in this seeded data set.
fn first_text(docs: &[Document], st: &SymbolTable, steps: &[&str]) -> Option<String> {
    let names: Vec<_> = steps
        .iter()
        .map(|s| st.lookup_designator(s))
        .collect::<Option<_>>()?;
    'doc: for doc in docs {
        let mut node = doc.root()?;
        for &name in &names {
            match doc
                .children(node)
                .iter()
                .find(|&&c| doc.sym(c).as_elem() == Some(name))
            {
                Some(&c) => node = c,
                None => continue 'doc,
            }
        }
        let value = doc.children(node).first()?;
        let v = doc.sym(*value).as_value()?;
        return st.values.resolve(v).map(str::to_owned);
    }
    None
}

/// What the oracle expects of one result list: its length and an
/// order-independent checksum of its ids.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    pub len: usize,
    pub sum: u64,
}

fn id_hash(id: DocId) -> u64 {
    splitmix(u64::from(id) + 1)
}

impl Expect {
    pub fn of(ids: &[DocId]) -> Expect {
        Expect {
            len: ids.len(),
            sum: ids
                .iter()
                .fold(0u64, |acc, &id| acc.wrapping_add(id_hash(id))),
        }
    }

    pub fn add(&mut self, id: DocId) {
        self.len += 1;
        self.sum = self.sum.wrapping_add(id_hash(id));
    }

    pub fn remove(&mut self, id: DocId) {
        self.len -= 1;
        self.sum = self.sum.wrapping_sub(id_hash(id));
    }
}

/// The splitmix64 finalizer: the benchmark's only source of pseudo-randomness.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything a run feeds the program under test, plus the oracle's answers.
#[derive(Debug)]
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    pub base_xml: Vec<String>,
    pub base_bytes: usize,
    /// Documents the update stream inserts, in order.
    pub stream_xml: Vec<String>,
    pub classes: Vec<Class>,
    /// Per base / stream document: bit `c` is set when it matches class `c`.
    pub base_mask: Vec<u32>,
    pub stream_mask: Vec<u32>,
}

impl Inputs {
    /// Generates the inputs of `spec` from `seed`; the same seed gives the
    /// same inputs.
    pub fn generate(spec: Spec, seed: u64) -> Inputs {
        let stream_docs = spec.stream_batches * INSERTS_PER_BATCH;
        let mut st = SymbolTable::with_value_mode(ValueMode::Intern);
        let (base, stream) = match spec.kind {
            Kind::Xmark => (
                XmarkGenerator::new(splitmix(seed), XmarkOptions::default())
                    .generate(spec.base_docs, &mut st),
                XmarkGenerator::new(splitmix(seed ^ 1), XmarkOptions::default())
                    .generate(stream_docs, &mut st),
            ),
            Kind::Dblp => (
                DblpGenerator::new(splitmix(seed)).generate(spec.base_docs, &mut st),
                DblpGenerator::new(splitmix(seed ^ 1)).generate(stream_docs, &mut st),
            ),
        };
        let classes = match spec.kind {
            Kind::Xmark => xmark_classes(&base, &st),
            Kind::Dblp => dblp_classes(),
        };
        assert!(classes.len() <= 32, "class masks are 32 bits wide");
        let patterns: Vec<_> = classes
            .iter()
            .map(|c| {
                parse_xpath_readonly(&c.expr, &st)
                    .unwrap_or_else(|e| panic!("class {} does not parse: {e}", c.name))
            })
            .collect();
        let mask = |doc: &Document| {
            patterns.iter().enumerate().fold(0u32, |m, (c, p)| match p {
                Some(p) if structure_match(p, doc) => m | 1 << c,
                _ => m,
            })
        };
        let base_mask = base.iter().map(mask).collect();
        let stream_mask = stream.iter().map(mask).collect();
        let base_xml: Vec<String> = base.iter().map(|d| write_document(d, &st)).collect();
        let stream_xml = stream.iter().map(|d| write_document(d, &st)).collect();
        Inputs {
            spec,
            seed,
            base_bytes: base_xml.iter().map(String::len).sum(),
            base_xml,
            stream_xml,
            classes,
            base_mask,
            stream_mask,
        }
    }

    /// The oracle's answer for every class over a database freshly built
    /// from the first `docs` base documents, where document `i` has id `i`.
    pub fn base_expect(&self, docs: usize) -> Vec<Expect> {
        let mut expect = vec![Expect::default(); self.classes.len()];
        for (id, &mask) in self.base_mask[..docs].iter().enumerate() {
            for (c, e) in expect.iter_mut().enumerate() {
                if mask & (1 << c) != 0 {
                    e.add(id as DocId);
                }
            }
        }
        expect
    }

    /// One round of `n` query-phase class indices.  The update workload's
    /// query phase draws from the same mix as its interleaved queries.
    pub fn query_round(&self, n: usize) -> Vec<usize> {
        if self.spec.focus == Phase::Update {
            return self.stream_round(n);
        }
        interleave(
            &self.classes.iter().map(|c| c.weight).collect::<Vec<_>>(),
            n,
        )
    }

    /// `n` class indices for the queries interleaved with updates.
    pub fn stream_round(&self, n: usize) -> Vec<usize> {
        let weights: Vec<u32> = self.classes.iter().map(|c| c.stream_weight).collect();
        interleave(&weights, n)
    }
}

/// A deterministic weighted interleaving (smooth weighted round-robin): in
/// every window of `sum(weights)` picks, class `i` appears `weights[i]`
/// times, spread evenly.
pub fn interleave(weights: &[u32], n: usize) -> Vec<usize> {
    let total: i64 = weights.iter().map(|&w| i64::from(w)).sum();
    assert!(total > 0, "a mix needs at least one weighted class");
    let mut credit = vec![0i64; weights.len()];
    (0..n)
        .map(|_| {
            for (c, &w) in credit.iter_mut().zip(weights) {
                *c += i64::from(w);
            }
            let pick = (0..weights.len())
                .max_by_key(|&i| (credit[i], std::cmp::Reverse(i)))
                .expect("weights is not empty");
            credit[pick] -= total;
            pick
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_keeps_the_weights() {
        let picks = interleave(&[3, 0, 1], 40);
        assert_eq!(picks.iter().filter(|&&p| p == 0).count(), 30);
        assert_eq!(picks.iter().filter(|&&p| p == 1).count(), 0);
        assert_eq!(picks.iter().filter(|&&p| p == 2).count(), 10);
    }

    #[test]
    fn same_seed_same_inputs() {
        let spec = find("xmark_query").unwrap().scaled(0.01);
        let a = Inputs::generate(spec, 7);
        let b = Inputs::generate(spec, 7);
        assert_eq!(a.base_xml, b.base_xml);
        assert_eq!(a.stream_xml, b.stream_xml);
        assert_eq!(a.base_mask, b.base_mask);
        assert_ne!(a.base_xml, Inputs::generate(spec, 8).base_xml);
    }

    #[test]
    fn checksum_is_order_free_and_incremental() {
        let mut e = Expect::of(&[5, 9, 2]);
        assert_eq!(e, Expect::of(&[2, 5, 9]));
        e.remove(9);
        e.add(11);
        assert_eq!(e, Expect::of(&[11, 2, 5]));
    }
}
