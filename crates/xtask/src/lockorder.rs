//! Lock-order deadlock detection (`cargo xtask analyze`, rule
//! `lock-order`).
//!
//! The pass is lexical but scope-aware:
//!
//! 1. **Registry** — every declaration of the shape `name: Mutex<…>` /
//!    `name: RwLock<…>` (struct field, static, local, or parameter)
//!    registers the lock `crate:name`.  Identity is the declared name
//!    scoped by crate: two fields with one name in one crate merge, which
//!    over-approximates (may report an impossible interleaving) but never
//!    under-approximates.
//! 2. **Acquisitions** — `recv.lock()`, `recv.read()`, `recv.write()`
//!    where `recv`'s last identifier is a registered lock.  A guard is
//!    held to the end of its `let` statement's enclosing block, or to the
//!    end of the statement for borrow-and-drop temporaries — the same
//!    approximation a reviewer applies reading the code.
//! 3. **Propagation** — while a guard is held, every call resolved by
//!    [`FunctionIndex`] contributes the callee's transitive lock set, so
//!    `a.lock(); helper()` sees the locks `helper` takes.
//! 4. **Digraph** — edge `A → B` when `B` is acquired while `A` is held,
//!    each edge carrying a *witness*: the acquisition path (file:line of
//!    the held acquisition, the call chain if any, file:line of the inner
//!    acquisition).  Cycles fail the build, reporting every edge's
//!    witness — for the classic AB/BA deadlock that is exactly the two
//!    acquisition paths.
//! 5. **Canonical order** — edges between locks named in
//!    [`CANONICAL_LOCK_ORDER`] must agree with the declared order
//!    (DESIGN.md §14.2), so a violation is caught even before a full
//!    cycle exists in the code.
//!
//! Per-element lock vectors (`slots[i].lock()`) are registered but exempt
//! from *self*-cycle reporting: two acquisitions of `slots[i]`/`slots[j]`
//! are distinct instances.

use crate::graph::FunctionIndex;
use crate::lexer::TokKind;
use crate::lint::Finding;
use crate::scan::{Function, SourceFile};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The workspace's declared lock hierarchy, outermost first: a thread
/// holding a lock may only acquire locks strictly *later* in this list.
/// Locks absent from the list are leaves (they may be acquired under any
/// listed lock but must not wrap one).
pub const CANONICAL_LOCK_ORDER: &[&str] = &[
    "storage:pool",    // buffer pool — held across page faults in the descent
    "schema:inner",    // workload recorder — one flush per query, after search
    "telemetry:items", // the retention buffer behind the flight recorder and trace logs
];

#[derive(Debug, Clone)]
struct Acquisition {
    lock: String,
    /// Raw token index of the receiver's `.`.
    pos: usize,
    /// Raw token index at which the guard is (approximately) dropped.
    hold_end: usize,
    line: u32,
    indexed: bool,
}

/// `crate:name` sets declared as `Mutex<…>`/`RwLock<…>`.
fn lock_registry(files: &[SourceFile]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for file in files {
        let code: Vec<usize> = crate::lexer::code_tokens(&file.tokens)
            .map(|(i, _)| i)
            .collect();
        for (k, &ix) in code.iter().enumerate() {
            let text = file.text(ix);
            if text != "Mutex" && text != "RwLock" {
                continue;
            }
            // must open a type: `Mutex<` (skip `Mutex::new`, `use … Mutex`)
            if code.get(k + 1).is_none_or(|&nx| file.text(nx) != "<") {
                continue;
            }
            // walk back over type-path tokens to the `name :` that declares
            // it; stop at statement/scope punctuation
            let mut j = k;
            let mut hops = 0;
            while j > 0 && hops < 8 {
                j -= 1;
                hops += 1;
                let t = file.text(code[j]);
                match t {
                    "<" | ">" | "&" | "," | "'" => continue,
                    ":" => {
                        // `::` path separator vs declaration colon
                        if j > 0 && file.text(code[j - 1]) == ":" {
                            j -= 1;
                            continue;
                        }
                        if j > 0 && file.tokens[code[j - 1]].kind == TokKind::Ident {
                            let name = file.text(code[j - 1]);
                            out.insert(format!("{}:{}", file.crate_name, name));
                        }
                        break;
                    }
                    _ if file.tokens[code[j]].kind == TokKind::Ident => continue,
                    _ => break,
                }
            }
        }
    }
    out
}

/// Brace depth and paren/bracket depth per body position.
fn depths(file: &SourceFile, body: &[usize]) -> (Vec<i32>, Vec<i32>) {
    let mut brace = Vec::with_capacity(body.len());
    let mut group = Vec::with_capacity(body.len());
    let (mut b, mut g) = (0i32, 0i32);
    for &ix in body {
        match file.text(ix) {
            "{" => {
                brace.push(b);
                group.push(g);
                b += 1;
            }
            "}" => {
                b -= 1;
                brace.push(b);
                group.push(g);
            }
            "(" | "[" => {
                brace.push(b);
                group.push(g);
                g += 1;
            }
            ")" | "]" => {
                g -= 1;
                brace.push(b);
                group.push(g);
            }
            _ => {
                brace.push(b);
                group.push(g);
            }
        }
    }
    (brace, group)
}

/// The receiver's last identifier before the `.` at body position `dot`,
/// plus whether an index expression was skipped on the way.
fn receiver(file: &SourceFile, body: &[usize], dot: usize) -> Option<(String, bool)> {
    let mut j = dot;
    let mut indexed = false;
    while j > 0 {
        j -= 1;
        let text = file.text(body[j]);
        match text {
            "]" => {
                indexed = true;
                let mut depth = 1;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match file.text(body[j]) {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
            }
            _ if file.tokens[body[j]].kind == TokKind::Ident => {
                return Some((text.to_string(), indexed));
            }
            _ => return None,
        }
    }
    None
}

/// Lock acquisitions in `f`'s body, with hold ranges.
fn acquisitions(file: &SourceFile, f: &Function, registry: &BTreeSet<String>) -> Vec<Acquisition> {
    let body: Vec<usize> = file
        .body_tokens_of(f)
        .filter(|&ix| !file.tokens[ix].is_comment())
        .collect();
    let (brace, group) = depths(file, &body);
    let mut out = Vec::new();
    for k in 0..body.len() {
        if file.text(body[k]) != "." {
            continue;
        }
        let is_acquire = matches!(file.text(body[k + 1]), "lock" | "read" | "write")
            && k + 3 < body.len()
            && file.text(body[k + 2]) == "("
            && file.text(body[k + 3]) == ")";
        if k + 3 >= body.len() || !is_acquire {
            continue;
        }
        let Some((name, indexed)) = receiver(file, &body, k) else {
            continue;
        };
        let lock = format!("{}:{}", file.crate_name, name);
        if !registry.contains(&lock) {
            continue;
        }
        let db = brace[k];
        // statement start: nearest earlier `;`/`{`/`}` at this brace depth
        // outside any group
        let stmt_start = (0..k)
            .rev()
            .find(|&p| {
                brace[p] == db && group[p] == 0 && matches!(file.text(body[p]), ";" | "{" | "}")
            })
            .map_or(0, |p| p + 1);
        let stmt_text = |p: usize| file.text(body[p]);
        let let_at = (stmt_start..k)
            .find(|&p| file.tokens[body[p]].kind == TokKind::Ident && stmt_text(p) == "let");
        // `if let`/`while let`/`match` scrutinee temporaries live to the
        // end of the construct (its block, plus any `else` chain) — not
        // to the enclosing block, and not just to a `;`.
        let scrutinee = (stmt_start..k).any(|p| {
            file.tokens[body[p]].kind == TokKind::Ident
                && match stmt_text(p) {
                    "if" | "while" => let_at.is_some_and(|l| l > p),
                    "match" | "for" => true,
                    _ => false,
                }
        });
        let block_close = (k..body.len())
            .find(|&q| brace[q] < db)
            .unwrap_or(body.len() - 1);
        let hold_end = if scrutinee {
            // first block of the construct, then follow `else` chains
            let mut close = (k..body.len())
                .find(|&q| brace[q] == db && stmt_text(q) == "}")
                .unwrap_or(block_close);
            while body.get(close + 1).is_some() && stmt_text(close + 1) == "else" {
                close = (close + 1..body.len())
                    .find(|&q| brace[q] == db && stmt_text(q) == "}")
                    .unwrap_or(block_close);
            }
            close
        } else if let_at.is_some() {
            block_close
        } else {
            (k..body.len())
                .find(|&q| brace[q] == db && group[q] == 0 && stmt_text(q) == ";")
                .unwrap_or(block_close)
        };
        out.push(Acquisition {
            lock,
            pos: body[k],
            hold_end: body[hold_end],
            line: file.tokens[body[k]].line,
            indexed,
        });
    }
    out
}

/// Runs the analysis over `files`, reporting cycle and canonical-order
/// findings.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let registry = lock_registry(files);
    let index = FunctionIndex::build(files);

    // per-function direct acquisitions and call sites
    type Trace = Vec<String>;
    let mut direct: HashMap<(usize, usize), Vec<Acquisition>> = HashMap::new();
    let mut lock_sets: HashMap<(usize, usize), BTreeMap<String, Trace>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.functions.iter().enumerate() {
            if f.in_tests {
                continue;
            }
            let acqs = acquisitions(file, f, &registry);
            let mut set = BTreeMap::new();
            for a in &acqs {
                set.entry(a.lock.clone()).or_insert_with(|| {
                    vec![format!(
                        "{}:{}: `{}` acquired in {}",
                        file.rel_path,
                        a.line,
                        a.lock,
                        index.label((fi, gi))
                    )]
                });
            }
            direct.insert((fi, gi), acqs);
            lock_sets.insert((fi, gi), set);
        }
    }

    // fixpoint: fold callees' lock sets into callers'
    let mut calls: HashMap<(usize, usize), Vec<crate::graph::CallSite>> = HashMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.functions.iter().enumerate() {
            if f.in_tests {
                continue;
            }
            calls.insert((fi, gi), index.calls_in(fi, f));
        }
    }
    loop {
        let mut changed = false;
        let ids: Vec<(usize, usize)> = lock_sets.keys().copied().collect();
        for id in ids {
            let mut additions: Vec<(String, Trace)> = Vec::new();
            for c in &calls[&id] {
                for &t in &c.targets {
                    let Some(callee_set) = lock_sets.get(&t) else {
                        continue;
                    };
                    for (lock, trace) in callee_set {
                        if !lock_sets[&id].contains_key(lock)
                            && !additions.iter().any(|(l, _)| l == lock)
                        {
                            let mut tr = vec![format!(
                                "{}:{}: {} calls {}",
                                files[id.0].rel_path,
                                c.line,
                                index.label(id),
                                index.label(t)
                            )];
                            tr.extend(trace.iter().cloned());
                            additions.push((lock.clone(), tr));
                        }
                    }
                }
            }
            if !additions.is_empty() {
                let set = lock_sets.get_mut(&id).expect("id came from lock_sets");
                for (lock, tr) in additions {
                    set.insert(lock, tr);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // edges with witnesses
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String), Trace> = BTreeMap::new();
    for (&id, acqs) in &direct {
        let file = &files[id.0];
        for (i, a) in acqs.iter().enumerate() {
            let held_from = vec![format!(
                "{}:{}: `{}` acquired in {}",
                file.rel_path,
                a.line,
                a.lock,
                index.label(id)
            )];
            // direct nesting inside the same function
            for b in acqs.iter().skip(i + 1) {
                if b.pos > a.hold_end {
                    continue;
                }
                if a.lock == b.lock {
                    if !a.indexed && !b.indexed {
                        findings.push(Finding {
                            file: file.rel_path.clone(),
                            line: b.line,
                            rule: "lock-order",
                            message: format!(
                                "self-deadlock: `{}` re-acquired while already held\n  {}\n  {}:{}: `{}` acquired again (still held)",
                                a.lock, held_from[0], file.rel_path, b.line, b.lock
                            ),
                        });
                    }
                    continue;
                }
                let mut w = held_from.clone();
                w.push(format!(
                    "{}:{}: `{}` acquired while `{}` held",
                    file.rel_path, b.line, b.lock, a.lock
                ));
                edges.entry((a.lock.clone(), b.lock.clone())).or_insert(w);
            }
            // locks taken by calls made while the guard is held
            for c in &calls[&id] {
                if c.tok <= a.pos || c.tok > a.hold_end {
                    continue;
                }
                for &t in &c.targets {
                    let Some(callee_set) = lock_sets.get(&t) else {
                        continue;
                    };
                    for (lock, trace) in callee_set {
                        if *lock == a.lock {
                            continue; // same instance re-entry is reported
                                      // by the callee's own self check
                        }
                        let mut w = held_from.clone();
                        w.push(format!(
                            "{}:{}: {} calls {} (guard `{}` still held)",
                            file.rel_path,
                            c.line,
                            index.label(id),
                            index.label(t),
                            a.lock
                        ));
                        w.extend(trace.iter().cloned());
                        edges.entry((a.lock.clone(), lock.clone())).or_insert(w);
                    }
                }
            }
        }
    }

    // canonical-order conformance
    for ((a, b), witness) in &edges {
        let (pa, pb) = (
            CANONICAL_LOCK_ORDER.iter().position(|l| l == a),
            CANONICAL_LOCK_ORDER.iter().position(|l| l == b),
        );
        if let (Some(pa), Some(pb)) = (pa, pb) {
            if pa >= pb {
                findings.push(finding_at(witness, "lock-order", format!(
                    "canonical-order violation: `{b}` (rank {pb}) acquired under `{a}` (rank {pa}); the declared hierarchy is {}\n{}",
                    CANONICAL_LOCK_ORDER.join(" < "),
                    witness.join("\n  ")
                )));
            }
        } else if pa.is_none() && pb.is_some() {
            findings.push(finding_at(witness, "lock-order", format!(
                "canonical-order violation: hierarchy lock `{b}` acquired under leaf lock `{a}` (leaves must not wrap hierarchy locks)\n{}",
                witness.join("\n  ")
            )));
        }
    }

    // cycles: DFS over the digraph, reporting each cycle once with every
    // edge's witness path
    let mut nodes: BTreeSet<&String> = BTreeSet::new();
    for (a, b) in edges.keys() {
        nodes.insert(a);
        nodes.insert(b);
    }
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in &nodes {
        let mut stack = vec![(*start, vec![(*start).clone()])];
        while let Some((node, path)) = stack.pop() {
            for ((a, b), _) in edges.range((node.clone(), String::new())..) {
                if a != node {
                    break;
                }
                if b == *start {
                    // canonical form: rotate so the smallest lock leads
                    let mut cyc = path.clone();
                    let min = cyc
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.as_str())
                        .map_or(0, |(i, _)| i);
                    cyc.rotate_left(min);
                    if reported.insert(cyc.clone()) {
                        let mut msg = format!("deadlock cycle: {} -> {}", path.join(" -> "), start);
                        for w in 0..path.len() {
                            let from = &path[w];
                            let to = if w + 1 < path.len() {
                                &path[w + 1]
                            } else {
                                start
                            };
                            if let Some(witness) = edges.get(&(from.clone(), to.clone())) {
                                msg.push_str(&format!(
                                    "\n  witness {from} -> {to}:\n    {}",
                                    witness.join("\n    ")
                                ));
                            }
                        }
                        let first = edges
                            .get(&(path[0].clone(), path.get(1).unwrap_or(start).clone()))
                            .cloned()
                            .unwrap_or_default();
                        findings.push(finding_at(&first, "lock-order", msg));
                    }
                } else if !path.contains(b) {
                    let mut p = path.clone();
                    p.push(b.clone());
                    stack.push((b, p));
                }
            }
        }
    }

    findings.sort_by(|x, y| (&x.file, x.line).cmp(&(&y.file, y.line)));
    findings.dedup();
    findings
}

/// Anchors a finding at the first witness line's `file:line`.
fn finding_at(witness: &[String], rule: &'static str, message: String) -> Finding {
    let (file, line) = witness
        .first()
        .and_then(|w| {
            let mut it = w.splitn(3, ':');
            let f = it.next()?.to_string();
            let l = it.next()?.parse().ok()?;
            Some((f, l))
        })
        .unwrap_or_else(|| ("<unknown>".to_string(), 0));
    Finding {
        file,
        line,
        rule,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let files: Vec<SourceFile> = srcs.iter().map(|(p, s)| SourceFile::scan(p, s)).collect();
        check(&files)
    }

    const DEADLOCK: &str = r#"
        use std::sync::Mutex;
        pub struct S { a: Mutex<u32>, b: Mutex<u32> }
        impl S {
            pub fn ab(&self) -> u32 {
                let ga = self.a.lock().expect("a");
                let gb = self.b.lock().expect("b");
                *ga + *gb
            }
            pub fn ba(&self) -> u32 {
                let gb = self.b.lock().expect("b");
                let ga = self.a.lock().expect("a");
                *ga + *gb
            }
        }
    "#;

    #[test]
    fn ab_ba_cycle_reports_both_witness_paths() {
        let f = analyze(&[("crates/demo/src/lib.rs", DEADLOCK)]);
        let cycles: Vec<_> = f
            .iter()
            .filter(|f| f.message.starts_with("deadlock cycle"))
            .collect();
        assert_eq!(cycles.len(), 1, "{f:?}");
        let msg = &cycles[0].message;
        assert!(msg.contains("witness demo:a -> demo:b"), "{msg}");
        assert!(msg.contains("witness demo:b -> demo:a"), "{msg}");
        assert!(
            msg.contains("`demo:b` acquired while `demo:a` held"),
            "{msg}"
        );
        assert!(
            msg.contains("`demo:a` acquired while `demo:b` held"),
            "{msg}"
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = r#"
            use std::sync::Mutex;
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                pub fn ab(&self) -> u32 {
                    let ga = self.a.lock().expect("a");
                    let gb = self.b.lock().expect("b");
                    *ga + *gb
                }
                pub fn ab_again(&self) -> u32 {
                    let ga = self.a.lock().expect("a");
                    let gb = self.b.lock().expect("b");
                    *ga - *gb
                }
            }
        "#;
        assert!(analyze(&[("crates/demo/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn statement_temporaries_do_not_hold() {
        // guard dies at the `;` — the second lock is not nested
        let src = r#"
            use std::sync::Mutex;
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                pub fn seq(&self) {
                    *self.a.lock().expect("a") += 1;
                    *self.b.lock().expect("b") += 1;
                }
                pub fn seq_rev(&self) {
                    *self.b.lock().expect("b") += 1;
                    *self.a.lock().expect("a") += 1;
                }
            }
        "#;
        assert!(analyze(&[("crates/demo/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn cross_function_cycle_via_calls() {
        let src = r#"
            use std::sync::Mutex;
            pub struct S { a: Mutex<u32>, b: Mutex<u32> }
            impl S {
                fn take_b(&self) -> u32 { *self.b.lock().expect("b") }
                fn take_a(&self) -> u32 { *self.a.lock().expect("a") }
                pub fn ab(&self) -> u32 {
                    let ga = self.a.lock().expect("a");
                    *ga + self.take_b()
                }
                pub fn ba(&self) -> u32 {
                    let gb = self.b.lock().expect("b");
                    *gb + self.take_a()
                }
            }
        "#;
        let f = analyze(&[("crates/demo/src/lib.rs", src)]);
        let cycle = f
            .iter()
            .find(|f| f.message.starts_with("deadlock cycle"))
            .expect("cycle found");
        assert!(
            cycle.message.contains("calls demo::S::take_b"),
            "{}",
            cycle.message
        );
    }

    #[test]
    fn self_deadlock_and_indexed_exemption() {
        let src = r#"
            use std::sync::Mutex;
            pub struct S { a: Mutex<u32> }
            impl S {
                pub fn nested(&self) -> u32 {
                    let g1 = self.a.lock().expect("a");
                    let g2 = self.a.lock().expect("a again");
                    *g1 + *g2
                }
            }
            pub fn per_element(v: &[Mutex<u32>]) -> u32 {
                let g1 = v[0].lock().expect("0");
                let g2 = v[1].lock().expect("1");
                *g1 + *g2
            }
        "#;
        let f = analyze(&[("crates/demo/src/lib.rs", src)]);
        let selfs: Vec<_> = f
            .iter()
            .filter(|f| f.message.starts_with("self-deadlock"))
            .collect();
        assert_eq!(
            selfs.len(),
            1,
            "indexed locks exempt, field locks not: {f:?}"
        );
    }

    #[test]
    fn canonical_order_violation_is_reported_without_a_cycle() {
        // schema:inner wrapping storage:pool inverts the declared hierarchy
        let schema = r#"
            use std::sync::Mutex;
            pub struct R { inner: Mutex<u32> }
            impl R {
                pub fn record(&self, p: &xseq_storage::P) {
                    let g = self.inner.lock().expect("inner");
                    p.touch();
                    let _ = *g;
                }
            }
        "#;
        let storage = r#"
            use std::sync::Mutex;
            pub struct P { pool: Mutex<u32> }
            impl P {
                pub fn touch(&self) { *self.pool.lock().expect("pool") += 1; }
            }
        "#;
        let f = analyze(&[
            ("crates/schema/src/lib.rs", schema),
            ("crates/storage/src/lib.rs", storage),
        ]);
        assert!(
            f.iter()
                .any(|f| f.message.contains("canonical-order violation")),
            "{f:?}"
        );
    }

    #[test]
    fn if_let_scrutinee_guard_dies_with_the_construct() {
        // the read guard in the `if let` scrutinee is dropped when the
        // construct ends (Rust 2021 temporary rules), so the write that
        // follows is NOT a self-deadlock — the classic read-then-upgrade
        // registry shape must stay clean
        let src = r#"
            use std::sync::RwLock;
            pub struct S { inner: RwLock<u32> }
            impl S {
                pub fn get_or_insert(&self) -> u32 {
                    if let Some(v) = self.inner.read().ok().map(|g| *g).filter(|v| *v != 0) {
                        return v;
                    }
                    let mut w = self.inner.write().expect("inner");
                    *w += 1;
                    *w
                }
            }
        "#;
        assert!(analyze(&[("crates/demo/src/lib.rs", src)]).is_empty());
    }

    #[test]
    fn sync_primitive_methods_do_not_resolve_into_the_call_graph() {
        // `recorder` here is a std Mutex — its `.lock()` must not resolve
        // to demo::Recorder::lock (a real method that takes demo:inner),
        // which would fabricate a demo:leaf -> demo:inner edge
        let src = r#"
            use std::sync::Mutex;
            pub struct Recorder { inner: Mutex<u32> }
            impl Recorder {
                pub fn lock(&self) -> u32 { *self.inner.lock().expect("inner") }
            }
            pub struct S { leaf: Mutex<u32>, recorder: Mutex<u32> }
            impl S {
                pub fn tick(&self) -> u32 {
                    let g = self.leaf.lock().expect("leaf");
                    *g + *self.recorder.lock().expect("recorder")
                }
            }
        "#;
        let f = analyze(&[("crates/demo/src/lib.rs", src)]);
        assert!(
            !f.iter().any(|f| f.message.contains("Recorder::lock")),
            "{f:?}"
        );
    }

    #[test]
    fn registry_finds_fields_locals_params_and_statics() {
        let src = r#"
            use std::sync::{Mutex, RwLock};
            static GLOBAL: Mutex<u32> = Mutex::new(0);
            pub struct S { field: RwLock<u32> }
            pub fn f(param: &Mutex<u8>) {
                let local: Vec<Mutex<u8>> = Vec::new();
                let _ = (param, local);
            }
        "#;
        let files = vec![SourceFile::scan("crates/demo/src/lib.rs", src)];
        let reg = lock_registry(&files);
        for name in ["demo:GLOBAL", "demo:field", "demo:param", "demo:local"] {
            assert!(reg.contains(name), "{name} in {reg:?}");
        }
    }
}
