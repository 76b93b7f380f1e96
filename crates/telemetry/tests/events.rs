//! Integration tests for the flight recorder: multi-thread journal
//! retention/ordering (mirroring the slow-log tests) and the JSONL export.

use xseq_telemetry::{Event, EventJournal, Severity};

#[test]
fn event_journal_retention_under_thread_load() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 100;
    const CAPACITY: usize = 32;
    let journal = EventJournal::new(CAPACITY);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let journal = &journal;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    journal.record(
                        Event::new("ingest.insert")
                            .severity(Severity::Debug)
                            .attr("thread", t as u64)
                            .attr("i", i as u64),
                    );
                }
            });
        }
    });
    let total = (THREADS * PER_THREAD) as u64;
    let counts = journal.counts();
    assert_eq!(counts.recorded, total, "no record lost");
    assert_eq!(counts.by_severity, [total, 0, 0, 0]);
    let events = journal.events();
    assert_eq!(
        events.len(),
        CAPACITY,
        "journal settles at exactly its capacity"
    );
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), CAPACITY, "retained events are distinct");
    for e in &events {
        assert_eq!(e.name, "ingest.insert");
        assert_eq!(e.severity, Severity::Debug);
        assert_eq!(e.attrs.len(), 2, "structure survives contention");
        assert!((1..=total).contains(&e.seq));
    }
    // Reads are stable and non-destructive.
    assert_eq!(journal.events().len(), CAPACITY);
}

#[test]
fn single_writer_ordering_is_preserved() {
    let journal = EventJournal::new(4);
    for i in 0..10u64 {
        journal.record(Event::new("compact.start").attr("round", i));
    }
    let events = journal.events();
    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![7, 8, 9, 10], "oldest first, newest retained");
    let rounds: Vec<u64> = events
        .iter()
        .map(|e| match &e.attrs[0].1 {
            xseq_telemetry::AttrValue::U64(v) => *v,
            other => panic!("unexpected attr {other:?}"),
        })
        .collect();
    assert_eq!(rounds, vec![6, 7, 8, 9]);
}

#[test]
fn jsonl_export_is_line_per_event() {
    let journal = EventJournal::new(8);
    journal.record(Event::new("ingest.build").attr("docs", 3u64));
    journal.record(
        Event::new("integrity.violation")
            .severity(Severity::Error)
            .message("node count drift"),
    );
    let jsonl = journal.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("{\"seq\":1,"));
    assert!(lines[0].contains("\"name\":\"ingest.build\""));
    assert!(lines[1].contains("\"severity\":\"error\""));
    assert!(lines[1].contains("\"message\":\"node count drift\""));
    for l in &lines {
        assert!(l.starts_with('{') && l.ends_with('}'));
    }
}
