//! `cargo xtask diagcheck <dir>` — validate a diagnostics bundle as
//! written by `Database::diagnostics` / `repro --diag`.
//!
//! Checks, per artifact:
//!
//! * every required file is present and readable;
//! * every `*.json` artifact parses as exactly one well-formed JSON value
//!   (a dep-free recursive-descent validator — no serde in this repo);
//! * `events.jsonl` parses line by line, one JSON object per event;
//! * `manifest.json` carries the provenance keys downstream tooling
//!   relies on.
//!
//! Returns findings rather than failing fast, so CI reports everything
//! wrong with a bundle at once.

use std::path::Path;

/// The six artifacts a bundle consists of.
const REQUIRED: &[&str] = &[
    "metrics.json",
    "stats.txt",
    "workload.json",
    "traces_slow.json",
    "events.jsonl",
    "manifest.json",
];

/// Validates the bundle at `dir`; an empty vec means clean.
pub fn check_bundle(dir: &Path) -> Vec<String> {
    let mut findings = Vec::new();
    for name in REQUIRED {
        let path = dir.join(name);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                findings.push(format!("{name}: unreadable: {e}"));
                continue;
            }
        };
        match *name {
            "stats.txt" => {
                if !text.starts_with("database:") {
                    findings.push(format!("{name}: missing the stats header line"));
                } else if !text.contains("shard(s)") {
                    findings.push(format!("{name}: header missing the shard count"));
                }
            }
            "events.jsonl" => {
                for (no, line) in text.lines().enumerate() {
                    if !line.starts_with('{') {
                        findings.push(format!("{name}:{}: event is not a JSON object", no + 1));
                    } else if let Err(e) = validate_json(line) {
                        findings.push(format!("{name}:{}: {e}", no + 1));
                    }
                }
            }
            "manifest.json" => match validate_json(&text) {
                Err(e) => findings.push(format!("{name}: {e}")),
                Ok(()) => {
                    for key in ["\"version\"", "\"sequencing\"", "\"shards\"", "\"files\""] {
                        if !text.contains(key) {
                            findings.push(format!("{name}: missing the {key} key"));
                        }
                    }
                }
            },
            _ => {
                if let Err(e) = validate_json(&text) {
                    findings.push(format!("{name}: {e}"));
                }
            }
        }
    }
    findings
}

/// Validates that `text` is exactly one well-formed JSON value — a
/// dep-free recursive-descent pass that keeps nothing but a cursor.
pub fn validate_json(text: &str) -> Result<(), String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    p.ws();
    p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > 64 {
            return Err("nesting deeper than 64 levels".into());
        }
        match self.b.get(self.i) {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, self.i)),
            None => Err(format!("unexpected end of input at byte {}", self.i)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.i += 1; // the `{` the caller saw
        self.ws();
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            if !self.eat(b':') {
                return Err(format!("expected `:` at byte {}", self.i));
            }
            self.ws();
            self.value(depth + 1)?;
            self.ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(());
            }
            return Err(format!("expected `,` or `}}` at byte {}", self.i));
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.i += 1; // the `[` the caller saw
        self.ws();
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            self.ws();
            self.value(depth + 1)?;
            self.ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(());
            }
            return Err(format!("expected `,` or `]` at byte {}", self.i));
        }
    }

    fn string(&mut self) -> Result<(), String> {
        if !self.eat(b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => match self.b.get(self.i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => self.i += 1,
                    Some(b'u') => {
                        self.i += 1;
                        for _ in 0..4 {
                            match self.b.get(self.i) {
                                Some(h) if h.is_ascii_hexdigit() => self.i += 1,
                                _ => return Err(format!("bad \\u escape at byte {}", self.i)),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", self.i)),
                },
                0x00..=0x1f => return Err(format!("raw control byte in string at {}", self.i - 1)),
                _ => {}
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.i;
        let _ = self.eat(b'-');
        if self.digits() == 0 {
            return Err(format!("malformed number at byte {start}"));
        }
        if self.eat(b'.') && self.digits() == 0 {
            return Err(format!("malformed number at byte {start}"));
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(format!("malformed number at byte {start}"));
            }
        }
        Ok(())
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.b.get(self.i), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        self.i - start
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validator_accepts_well_formed_json() {
        for ok in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "\"a \\\"quoted\\\" string with \\u00e9\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"d\"}",
            " { \"spaced\" : [ 1 , 2 ] } ",
        ] {
            assert_eq!(validate_json(ok), Ok(()), "rejected {ok}");
        }
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} trailing",
            "{'single':1}",
            "{\"raw\ncontrol\":1}",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn bundle_check_reports_missing_and_malformed_artifacts() {
        let dir = std::env::temp_dir().join(format!("xseq-diagcheck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A minimal, fully valid bundle…
        let valid: &[(&str, &str)] = &[
            ("metrics.json", "{\"metrics\":{}}"),
            ("stats.txt", "database: 1 docs | 2 paths | 1 shard(s)\n"),
            ("workload.json", "{\"queries\":0}"),
            ("traces_slow.json", "[]"),
            ("events.jsonl", "{\"seq\":1,\"name\":\"ingest.build\"}\n"),
            (
                "manifest.json",
                "{\"version\":\"0.1.0\",\"sequencing\":\"probability\",\"shards\":1,\"files\":[]}",
            ),
        ];
        for (name, contents) in valid {
            std::fs::write(dir.join(name), contents).unwrap();
        }
        assert_eq!(check_bundle(&dir), Vec::<String>::new());
        // …then break three artifacts three different ways.
        std::fs::write(dir.join("traces_slow.json"), "[{broken").unwrap();
        std::fs::write(dir.join("stats.txt"), "no header here\n").unwrap();
        std::fs::remove_file(dir.join("events.jsonl")).unwrap();
        let findings = check_bundle(&dir);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().any(|f| f.starts_with("traces_slow.json:")));
        assert!(findings.iter().any(|f| f.starts_with("events.jsonl:")));
        assert!(findings.iter().any(|f| f.starts_with("stats.txt:")));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
