//! Quickstart: index a handful of XML documents and run structured queries.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Demonstrates the core loop of the paper: documents become constraint
//! sequences, queries become tree patterns, and tree patterns are answered
//! holistically — including the Figure 4 case where naïve subsequence
//! matching would return a false alarm.

use xseq::{DatabaseBuilder, Sequencing};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Figure 1 project document, plus variations.
    let docs = [
        r#"<project name="xml">
             <research><manager>tom</manager><location>newyork</location></research>
             <develop>
               <manager>johnson</manager>
               <unit><manager>mary</manager><name>GUI</name></unit>
               <unit><name>engine</name></unit>
               <location>boston</location>
             </develop>
           </project>"#,
        r#"<project name="db">
             <research><location>boston</location></research>
           </project>"#,
        r#"<project name="web">
             <develop><location>seattle</location><manager>kim</manager></develop>
           </project>"#,
        // Figure 4's false-alarm shape: two units, one with a manager, one
        // with a name — NOT one unit with both.
        r#"<project name="infra">
             <develop>
               <unit><manager>lee</manager></unit>
               <unit><name>ops</name></unit>
             </develop>
           </project>"#,
    ];

    let mut db = DatabaseBuilder::new()
        .sequencing(Sequencing::Probability)
        .build_from_xml(docs)?;

    println!(
        "indexed {} documents, {} trie nodes",
        db.len(),
        db.index().node_count()
    );
    println!();

    let queries = [
        // the paper's Section 3.1 example query
        "/project[research[location='newyork']]/develop[location='boston']",
        // simple paths
        "/project/research/location",
        "//location[text='boston']",
        // wildcards
        "/project/*/location",
        "//manager",
        // the Figure 4 trap: a unit with BOTH a manager and a name.
        // Document 3 has manager and name in *different* units and must not
        // be returned; document 0's GUI unit has both.
        "//unit[manager][name]",
    ];

    for q in queries {
        let outcome = db.query_xpath_full(q)?;
        println!("{q}");
        println!(
            "  -> docs {:?}   ({} instantiations, {} candidates examined, {} sibling-cover rejections)",
            outcome.docs,
            outcome.stats.instantiations,
            outcome.stats.search.candidates,
            outcome.stats.search.cover_rejections,
        );
    }

    // dynamic insertion
    let id =
        db.insert_document("<project><research><location>tokyo</location></research></project>")?;
    println!();
    println!(
        "inserted doc {id}; //location[text='tokyo'] -> {:?}",
        db.query_xpath("//location[text='tokyo']")?
    );

    Ok(())
}
