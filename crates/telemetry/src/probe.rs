//! Where emitted [`Event`]s go: the [`TraceRecorder`], a bounded ring
//! buffer that keeps the most recent events and exports them as JSON
//! lines. With no recorder attached, emission is short-circuited before
//! an event is even built.

use std::collections::VecDeque;

use crate::event::Event;

/// A bounded ring buffer of events with JSON-lines export.
///
/// When full, the oldest event is dropped (and counted) so the recorder
/// always holds the most recent window — the useful end of a trace when a
/// run misbehaves late.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    events: VecDeque<Event>,
    recorded: u64,
    dropped: u64,
}

impl TraceRecorder {
    /// A recorder keeping at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest if the buffer is full.
    pub fn record(&mut self, event: Event) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
        self.recorded += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events observed (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained event count per kind tag, in first-seen order.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for e in &self.events {
            let kind = e.kind();
            if let Some(slot) = counts.iter_mut().find(|(k, _)| *k == kind) {
                slot.1 += 1;
            } else {
                counts.push((kind, 1));
            }
        }
        counts
    }

    /// The retained events as JSON lines (one compact object per line,
    /// trailing newline when non-empty). Deterministic: same events in,
    /// same bytes out.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json().to_string_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_window() {
        let mut r = TraceRecorder::new(2);
        for at in 0..5 {
            r.record(Event::Refresh { at });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 3);
        let ats: Vec<u64> = r.events().map(|e| e.at()).collect();
        assert_eq!(ats, vec![3, 4], "oldest evicted first");
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let mut r = TraceRecorder::new(8);
        r.record(Event::Refresh { at: 1 });
        r.record(Event::FullRefresh { at: 2 });
        let text = r.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert!(text.starts_with("{\"kind\":\"refresh\",\"at\":1}"));
    }

    #[test]
    fn kind_counts_aggregate() {
        let mut r = TraceRecorder::new(8);
        r.record(Event::Refresh { at: 1 });
        r.record(Event::Refresh { at: 2 });
        r.record(Event::FullRefresh { at: 3 });
        assert_eq!(r.kind_counts(), vec![("refresh", 2), ("full_refresh", 1)]);
    }
}
