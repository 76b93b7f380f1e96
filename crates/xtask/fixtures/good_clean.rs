//! Lint fixture: clean library code — exercises every rule in its
//! passing form.  Must produce zero findings.

pub fn head(v: &[u32]) -> Option<u32> {
    v.first().copied()
}

pub fn register(t: &dyn Telemetry) {
    t.start_span("query.execute");
    t.counter("index.lookups_total");
    t.histogram("query.latency.path_search");
    t.record(Event::new("compact.start"));
}

pub trait Telemetry {
    fn start_span(&self, name: &str);
    fn counter(&self, name: &str);
    fn histogram(&self, name: &str);
    fn record(&self, event: Event);
}

pub struct Event(&'static str);

impl Event {
    pub fn new(name: &'static str) -> Self {
        Event(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_not_checked_in_tests() {
        struct T;
        impl Telemetry for T {
            fn start_span(&self, _: &str) {}
            fn counter(&self, _: &str) {}
            fn histogram(&self, _: &str) {}
            fn record(&self, _: Event) {}
        }
        T.counter("Scratch.Name");
    }
}
