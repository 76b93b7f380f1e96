//! The paper's query workloads, verbatim.
//!
//! Table 4 (XMark) and Table 8 (DBLP) list the path expressions the
//! evaluation runs; they are reproduced here as constants so the benchmark
//! harness and the documentation agree on exactly what is measured.  The
//! strings parse with [`xseq_xml::parse_xpath_readonly`].

/// Table 4, Q1: branching + `//` + two value predicates.  The paper prints
/// `…/mail/date…`, but the XMark DTD nests `mail` under `mailbox`; the
/// expression here follows the DTD so the query is satisfiable.
pub const XMARK_Q1: &str =
    "/site//item[location='United States']/mailbox/mail/date[text='07/05/2000']";

/// Table 4, Q2: `//` + `*` wildcard + value predicate.
pub const XMARK_Q2: &str = "/site//person/*/age[text='32']";

/// Table 4, Q3: `//` root + nested path predicate + value predicate.
pub const XMARK_Q3: &str = "//closed_auction[seller/person='person11304']/date[text='12/15/1999']";

/// All Table 4 queries in order.
pub const XMARK_QUERIES: &[(&str, &str)] = &[("Q1", XMARK_Q1), ("Q2", XMARK_Q2), ("Q3", XMARK_Q3)];

/// Table 8, Q1: plain path.
pub const DBLP_Q1: &str = "/inproceedings/title";

/// Table 8, Q2: value predicate on an attribute-like field (the paper
/// writes `/book/[key='Maier]` with a stray slash and an unclosed quote —
/// normalized here).
pub const DBLP_Q2: &str = "/book/[key='Maier']/author";

/// Table 8, Q3: `*` root step + text predicate.
pub const DBLP_Q3: &str = "/*/author[text='David']";

/// Table 8, Q4: `//` root + text predicate.
pub const DBLP_Q4: &str = "//author[text='David']";

/// All Table 8 queries in order.
pub const DBLP_QUERIES: &[(&str, &str)] = &[
    ("Q1", DBLP_Q1),
    ("Q2", DBLP_Q2),
    ("Q3", DBLP_Q3),
    ("Q4", DBLP_Q4),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_lists_are_complete() {
        assert_eq!(XMARK_QUERIES.len(), 3);
        assert_eq!(DBLP_QUERIES.len(), 4);
    }

    #[test]
    fn q1_follows_the_dtd() {
        assert!(XMARK_Q1.contains("/mailbox/mail/"));
    }
}
