//! The saved trace format: one `trace_header` record carrying the
//! recorder's bookkeeping (capacity, totals, drops), then one compact
//! JSON object per event ([`TraceRecorder::to_jsonl`]). [`saved_trace`]
//! writes it — `rrs forensics --out` and campaign `--trace` cells both
//! call it — and [`parse_jsonl`] reads it back into [`Event`]s. A raw
//! event stream without the header parses too, but its drops are unknown.
//!
//! [`TraceRecorder::to_jsonl`]: rrs_telemetry::TraceRecorder::to_jsonl

use rrs_json::Json;
use rrs_telemetry::{Event, Telemetry};

/// The bookkeeping record a saved trace starts with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceHeader {
    /// Total events the recorder observed (retained + dropped).
    pub events_recorded: u64,
    /// Events evicted to stay within the ring capacity. Non-zero means
    /// the trace is a suffix of the run, not the whole run.
    pub events_dropped: u64,
    /// Ring-buffer capacity of the recorder that produced the trace.
    pub capacity: u64,
}

/// The stable `kind` tag of the header record.
pub const TRACE_HEADER_KIND: &str = "trace_header";

impl TraceHeader {
    /// The header as the JSON-lines record the CLI writes (`kind` first,
    /// like every event line, so line-oriented consumers need one rule).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("kind".to_string(), Json::str(TRACE_HEADER_KIND)),
            (
                "events_recorded".to_string(),
                Json::u64(self.events_recorded),
            ),
            ("events_dropped".to_string(), Json::u64(self.events_dropped)),
            ("capacity".to_string(), Json::u64(self.capacity)),
        ])
    }

    /// Parses a header record.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/malformed field.
    pub fn from_json(json: &Json) -> Result<TraceHeader, String> {
        let field = |name: &str| -> Result<u64, String> {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("trace_header missing u64 field {name:?}"))
        };
        Ok(TraceHeader {
            events_recorded: field("events_recorded")?,
            events_dropped: field("events_dropped")?,
            capacity: field("capacity")?,
        })
    }
}

/// `spine`'s trace in the saved format: its header (the recorder held at
/// most `capacity` events), then the retained events, one per line.
pub fn saved_trace(spine: &Telemetry, capacity: usize) -> String {
    let header = TraceHeader {
        events_recorded: spine.events_recorded(),
        events_dropped: spine.events_dropped(),
        capacity: capacity as u64,
    };
    let mut text = header.to_json().to_string_compact();
    text.push('\n');
    text.push_str(&spine.trace_jsonl().unwrap_or_default());
    text
}

/// A parsed trace: the events plus the optional header record.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// The header, when the file carried one.
    pub header: Option<TraceHeader>,
    /// The events, in file order (which is emission order).
    pub events: Vec<Event>,
}

/// Parses a JSON-lines trace (raw, or with a `trace_header` first line).
/// Blank lines are skipped.
///
/// # Errors
///
/// Returns `"line N: <reason>"` for the first malformed or unknown line,
/// or a message for a duplicated header.
pub fn parse_jsonl(text: &str) -> Result<ParsedTrace, String> {
    let mut out = ParsedTrace::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let n = idx + 1;
        let json = Json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        if json.get("kind").and_then(Json::as_str) == Some(TRACE_HEADER_KIND) {
            if out.header.is_some() {
                return Err(format!("line {n}: duplicate trace_header record"));
            }
            if !out.events.is_empty() {
                return Err(format!("line {n}: trace_header after event lines"));
            }
            out.header = Some(TraceHeader::from_json(&json).map_err(|e| format!("line {n}: {e}"))?);
            continue;
        }
        out.events
            .push(Event::from_json(&json).map_err(|e| format!("line {n}: {e}"))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_event_lines_parse() {
        let text = "{\"kind\":\"refresh\",\"at\":1}\n{\"kind\":\"activation\",\"at\":2,\"bank\":0,\"row\":7}\n";
        let t = parse_jsonl(text).unwrap();
        assert!(t.header.is_none());
        assert_eq!(t.events.len(), 2);
        assert_eq!(
            t.events[1],
            Event::Activation {
                at: 2,
                bank: 0,
                row: 7
            }
        );
    }

    #[test]
    fn header_round_trips() {
        let h = TraceHeader {
            events_recorded: 100,
            events_dropped: 36,
            capacity: 64,
        };
        let mut text = h.to_json().to_string_compact();
        text.push('\n');
        text.push_str("{\"kind\":\"refresh\",\"at\":9}\n");
        let t = parse_jsonl(&text).unwrap();
        assert_eq!(t.header, Some(h));
        assert_eq!(t.events, vec![Event::Refresh { at: 9 }]);
    }

    /// A saved trace starts with its header, then holds the retained
    /// recorded − dropped events.
    #[test]
    fn saved_traces_lead_with_the_header() {
        let spine = Telemetry::with_trace(3);
        (0..5).for_each(|at| spine.emit(Event::Refresh { at }));
        let t = parse_jsonl(&saved_trace(&spine, 3)).unwrap();
        let header = t.header.expect("a saved trace has a header");
        assert_eq!((header.events_recorded, header.events_dropped), (5, 2));
        assert_eq!(header.capacity, 3);
        assert_eq!(t.events, [2, 3, 4].map(|at| Event::Refresh { at }));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "{\"kind\":\"refresh\",\"at\":1}\nnot json\n";
        assert!(parse_jsonl(bad).unwrap_err().starts_with("line 2:"));
        let unknown = "{\"kind\":\"warp\",\"at\":1}\n";
        assert!(parse_jsonl(unknown).unwrap_err().contains("warp"));
        let dup = "{\"kind\":\"trace_header\",\"events_recorded\":1,\"events_dropped\":0,\"capacity\":4}\n\
                   {\"kind\":\"trace_header\",\"events_recorded\":1,\"events_dropped\":0,\"capacity\":4}\n";
        assert!(parse_jsonl(dup).unwrap_err().contains("duplicate"));
        let late = "{\"kind\":\"refresh\",\"at\":1}\n\
                    {\"kind\":\"trace_header\",\"events_recorded\":1,\"events_dropped\":0,\"capacity\":4}\n";
        assert!(parse_jsonl(late).unwrap_err().contains("after event"));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let t = parse_jsonl("\n{\"kind\":\"refresh\",\"at\":1}\n\n").unwrap();
        assert_eq!(t.events.len(), 1);
    }
}
