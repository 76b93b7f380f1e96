//! Lint fixture: flight-recorder event names violating the grammar.
//! `Event::new("compact.start")` in this comment must not fire.

use xseq_telemetry::{Event, EventJournal, Severity};

pub fn emit(journal: &EventJournal) {
    journal.record(Event::new("Compact.Start")); // bad: uppercase segments
    journal.record(Event::new("compact..finish")); // bad: empty segment
    journal.record(Event::new("compact.start")); // good
    journal.record(Event::new("compact.tier.start")); // good: background tier merge
    journal.record(Event::new("compact.tier.finish")); // good: background tier merge
    journal.record(
        Event::new("query.slow") // good
            .severity(Severity::Warn)
            .message("Event::new(\"Not.A.Name\") inside a string must not fire"),
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_region_is_exempt() {
        let _ = super::emit;
        let _bad_but_ignored = xseq_telemetry::Event::new("Ignored.In.Tests");
    }
}
