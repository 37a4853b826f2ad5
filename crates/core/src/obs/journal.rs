//! The frame-scoped structured event journal.
//!
//! A journal is an ordered sequence of [`JournalEvent`]s, each tagged
//! with the frame in which it occurred, the subsystem that raised it, a
//! stable kind string, and a free-form JSON payload. The on-disk format
//! is JSON Lines: one compact JSON object per line, in journal order,
//! so artifacts stream, `grep`, and diff naturally.
//!
//! The kind vocabulary used by [`System`](crate::system::System) is
//! documented in `DESIGN.md` (§ Observability); nothing in this module
//! restricts kinds to that vocabulary — the journal is a transport, not
//! a schema enforcer.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use serde_json::Value;

/// The architectural element that raised an event (the boxes of
/// Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subsystem {
    /// The environment / monitoring applications (trigger sources).
    Env,
    /// The SCRAM kernel.
    Scram,
    /// The surrounding system: frame boundaries, stable-storage
    /// commits, signal delivery.
    System,
    /// An application.
    App,
    /// The time-triggered bus (membership service).
    Bus,
    /// The real-time executive (timing failures).
    Rtos,
    /// The fail-stop platform (fault injections, processor failures).
    Failstop,
}

impl Subsystem {
    /// The canonical lowercase name used in serialized journals.
    pub fn as_str(self) -> &'static str {
        match self {
            Subsystem::Env => "env",
            Subsystem::Scram => "scram",
            Subsystem::System => "system",
            Subsystem::App => "app",
            Subsystem::Bus => "bus",
            Subsystem::Rtos => "rtos",
            Subsystem::Failstop => "failstop",
        }
    }

    /// Parses the canonical name back into a subsystem.
    pub fn parse(s: &str) -> Option<Subsystem> {
        Some(match s {
            "env" => Subsystem::Env,
            "scram" => Subsystem::Scram,
            "system" => Subsystem::System,
            "app" => Subsystem::App,
            "bus" => Subsystem::Bus,
            "rtos" => Subsystem::Rtos,
            "failstop" => Subsystem::Failstop,
            _ => return None,
        })
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One journal entry: `(frame, subsystem, kind, payload)`.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// The frame during which the event occurred.
    pub frame: u64,
    /// The subsystem that raised it.
    pub subsystem: Subsystem,
    /// A stable, kebab-case event kind (e.g. `"trigger-accepted"`).
    pub kind: String,
    /// Structured detail; `Value::Null` when the kind says it all.
    pub payload: Value,
}

impl JournalEvent {
    /// The event as a JSON value — the same object shape
    /// [`to_json_line`](JournalEvent::to_json_line) prints.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            (Value::Str("frame".into()), Value::U64(self.frame)),
            (
                Value::Str("subsystem".into()),
                Value::Str(self.subsystem.as_str().into()),
            ),
            (Value::Str("kind".into()), Value::Str(self.kind.clone())),
            (Value::Str("payload".into()), self.payload.clone()),
        ])
    }

    /// Reconstructs an event from the value shape produced by
    /// [`to_value`](JournalEvent::to_value).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn from_value(value: &Value) -> Result<JournalEvent, String> {
        let frame = value
            .get("frame")
            .and_then(Value::as_u64)
            .ok_or("journal event is missing a numeric `frame`")?;
        let subsystem = value
            .get("subsystem")
            .and_then(Value::as_str)
            .and_then(Subsystem::parse)
            .ok_or("journal event is missing a known `subsystem`")?;
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("journal event is missing a string `kind`")?
            .to_owned();
        let payload = value.get("payload").cloned().unwrap_or(Value::Null);
        Ok(JournalEvent {
            frame,
            subsystem,
            kind,
            payload,
        })
    }

    /// Appends the event to `out` as one compact JSON line (no trailing
    /// newline): the object [`to_value`](JournalEvent::to_value)
    /// describes, written straight from the fields. `kind` and `payload`
    /// go through `serde_json`'s own renderer, straight into `out`
    /// ([`serde_json::write_str_into`], [`serde_json::write_value_into`]):
    /// no copy of the payload and no temporary string.
    ///
    /// Infallible by construction: journaling runs inside the frame hot
    /// path, and no payload — non-finite floats, non-string map keys,
    /// control characters — may ever abort a model-check run through a
    /// serialization panic.
    pub fn write_json_line(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"frame\":{},\"subsystem\":\"{}\",\"kind\":",
            self.frame, self.subsystem
        );
        serde_json::write_str_into(out, &self.kind);
        out.push_str(",\"payload\":");
        serde_json::write_value_into(out, &self.payload);
        out.push('}');
    }

    /// The event as one compact JSON line (no trailing newline); see
    /// [`write_json_line`](JournalEvent::write_json_line).
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json_line(&mut line);
        line
    }
}

/// One line of a sectioned JSON-Lines journal. A fleet journal puts a
/// `{"system":N,"seed":N}` header before each sampled system's events;
/// a single system's journal is events only.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalLine {
    /// A section header: the events that follow, up to the next
    /// header, belong to this system.
    Header {
        /// Fleet-wide system index.
        system: u64,
        /// The system's derived seed.
        seed: u64,
    },
    /// One journal event.
    Event(JournalEvent),
}

impl JournalLine {
    /// Parses one line: an object with a `system` and no `kind` is a
    /// section header, anything else must be an event.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    pub fn parse(line: &str) -> Result<JournalLine, String> {
        let value: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        match value.get("system") {
            Some(system) if value.get("kind").is_none() => Ok(JournalLine::Header {
                system: system
                    .as_u64()
                    .ok_or("section header without a numeric `system`")?,
                seed: value
                    .get("seed")
                    .and_then(Value::as_u64)
                    .ok_or("section header without a numeric `seed`")?,
            }),
            _ => JournalEvent::from_value(&value).map(JournalLine::Event),
        }
    }

    /// Appends the line to `out`, trailing newline included.
    pub fn write(&self, out: &mut String) {
        match self {
            JournalLine::Header { system, seed } => {
                let _ = writeln!(out, "{{\"system\":{system},\"seed\":{seed}}}");
            }
            JournalLine::Event(event) => {
                event.write_json_line(out);
                out.push('\n');
            }
        }
    }
}

impl serde::Serialize for JournalEvent {
    fn to_content(&self) -> Value {
        self.to_value()
    }
}

impl serde::Deserialize for JournalEvent {
    fn from_content(content: &Value) -> Result<Self, serde::DeError> {
        JournalEvent::from_value(content).map_err(serde::DeError::custom)
    }
}

impl serde::Serialize for Journal {
    fn to_content(&self) -> Value {
        Value::Seq(self.events.iter().map(JournalEvent::to_value).collect())
    }
}

impl serde::Deserialize for Journal {
    fn from_content(content: &Value) -> Result<Self, serde::DeError> {
        let Value::Seq(items) = content else {
            return Err(serde::DeError::custom("journal must be a JSON array"));
        };
        let mut journal = Journal::new();
        for item in items {
            journal.push(JournalEvent::from_value(item).map_err(serde::DeError::custom)?);
        }
        Ok(journal)
    }
}

impl fmt::Display for JournalEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{} [{}] {}", self.frame, self.subsystem, self.kind)?;
        if !self.payload.is_null() {
            write!(f, " {}", serde_json::to_string_infallible(&self.payload))?;
        }
        Ok(())
    }
}

/// An append-only, frame-ordered event journal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    events: Vec<JournalEvent>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends an event built from its parts.
    pub fn record(
        &mut self,
        frame: u64,
        subsystem: Subsystem,
        kind: impl Into<String>,
        payload: Value,
    ) {
        self.events.push(JournalEvent {
            frame,
            subsystem,
            kind: kind.into(),
            payload,
        });
    }

    /// Appends a pre-built event.
    pub fn push(&mut self, event: JournalEvent) {
        self.events.push(event);
    }

    /// All events, oldest first.
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Removes every event, oldest first, keeping the journal's
    /// capacity for the events that follow.
    pub(crate) fn drain(&mut self) -> std::vec::Drain<'_, JournalEvent> {
        self.events.drain(..)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind, in order.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a JournalEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// Events raised by one subsystem, in order.
    pub fn of_subsystem(&self, subsystem: Subsystem) -> impl Iterator<Item = &JournalEvent> {
        self.events.iter().filter(move |e| e.subsystem == subsystem)
    }

    /// Serializes the whole journal as JSON Lines (one event per line,
    /// trailing newline included when nonempty).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            event.write_json_line(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parses a one-system JSON-Lines journal. Blank lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns `(line_number, description)` for the first malformed
    /// line or section header (1-based).
    pub fn from_json_lines(text: &str) -> Result<Journal, (usize, String)> {
        let mut journal = Journal::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match JournalLine::parse(line).map_err(|e| (i + 1, e))? {
                JournalLine::Event(event) => journal.push(event),
                JournalLine::Header { .. } => {
                    return Err((i + 1, "section header in a one-system journal".into()))
                }
            }
        }
        Ok(journal)
    }

    /// Computes the aggregate summary.
    pub fn summary(&self) -> JournalSummary {
        let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
        let mut by_subsystem: BTreeMap<String, usize> = BTreeMap::new();
        for event in &self.events {
            *by_kind.entry(event.kind.clone()).or_insert(0) += 1;
            *by_subsystem
                .entry(event.subsystem.as_str().to_owned())
                .or_insert(0) += 1;
        }
        JournalSummary {
            events: self.events.len(),
            first_frame: self.events.iter().map(|e| e.frame).min(),
            last_frame: self.events.iter().map(|e| e.frame).max(),
            by_kind,
            by_subsystem,
        }
    }

    /// Compares two journals event by event.
    pub fn diff(&self, other: &Journal) -> JournalDiff {
        let first_divergence = self
            .events
            .iter()
            .zip(&other.events)
            .position(|(a, b)| a != b)
            .or_else(|| {
                (self.events.len() != other.events.len())
                    .then(|| self.events.len().min(other.events.len()))
            });
        let mut kinds: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for e in &self.events {
            kinds.entry(e.kind.clone()).or_insert((0, 0)).0 += 1;
        }
        for e in &other.events {
            kinds.entry(e.kind.clone()).or_insert((0, 0)).1 += 1;
        }
        kinds.retain(|_, (a, b)| a != b);
        JournalDiff {
            len_a: self.events.len(),
            len_b: other.events.len(),
            first_divergence,
            kind_deltas: kinds,
        }
    }
}

/// Aggregate view of a journal: counts per kind and subsystem plus the
/// covered frame range.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct JournalSummary {
    /// Total events recorded.
    pub events: usize,
    /// Lowest frame that raised an event.
    pub first_frame: Option<u64>,
    /// Highest frame that raised an event.
    pub last_frame: Option<u64>,
    /// Events per kind.
    pub by_kind: BTreeMap<String, usize>,
    /// Events per subsystem.
    pub by_subsystem: BTreeMap<String, usize>,
}

impl fmt::Display for JournalSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} events", self.events)?;
        if let (Some(first), Some(last)) = (self.first_frame, self.last_frame) {
            writeln!(f, "frames {first}..={last}")?;
        }
        writeln!(f, "by subsystem:")?;
        for (subsystem, n) in &self.by_subsystem {
            writeln!(f, "  {subsystem:<9} {n}")?;
        }
        writeln!(f, "by kind:")?;
        for (kind, n) in &self.by_kind {
            writeln!(f, "  {kind:<22} {n}")?;
        }
        Ok(())
    }
}

/// The result of diffing two journals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalDiff {
    /// Events in the left journal.
    pub len_a: usize,
    /// Events in the right journal.
    pub len_b: usize,
    /// Index of the first differing event (0-based), `None` if the
    /// journals are identical.
    pub first_divergence: Option<usize>,
    /// Kinds whose event counts differ: `kind -> (left, right)`.
    pub kind_deltas: BTreeMap<String, (usize, usize)>,
}

impl JournalDiff {
    /// Returns `true` when the journals are event-for-event identical.
    pub fn identical(&self) -> bool {
        self.first_divergence.is_none()
    }
}

impl fmt::Display for JournalDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.identical() {
            return write!(f, "journals identical ({} events)", self.len_a);
        }
        writeln!(
            f,
            "journals differ: {} vs {} events, first divergence at event {}",
            self.len_a,
            self.len_b,
            self.first_divergence.expect("divergent diff has an index"),
        )?;
        for (kind, (a, b)) in &self.kind_deltas {
            writeln!(f, "  {kind:<22} {a} vs {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Journal {
        let mut j = Journal::new();
        j.record(0, Subsystem::System, "frame-start", Value::Null);
        j.record(
            1,
            Subsystem::Scram,
            "trigger-accepted",
            serde_json::json!({"from": "full", "target": "safe"}),
        );
        j.record(
            1,
            Subsystem::Scram,
            "phase-entered",
            serde_json::json!({"phase": "halt"}),
        );
        j
    }

    /// The one writer against the generic `to_value` rendering it must
    /// equal byte for byte.
    fn assert_writer_matches_value_rendering(event: &JournalEvent) {
        assert_eq!(
            event.to_json_line(),
            serde_json::to_string_infallible(&event.to_value()),
            "{event:?}"
        );
    }

    #[test]
    fn json_lines_round_trip() {
        let j = sample();
        let text = j.to_json_lines();
        assert_eq!(text.lines().count(), 3);
        let back = Journal::from_json_lines(&text).unwrap();
        assert_eq!(back, j);
        j.events()
            .iter()
            .for_each(assert_writer_matches_value_rendering);

        // A sectioned journal reads back line by line and re-emits
        // byte-identical.
        let mut sectioned = String::new();
        for (system, seed) in [(0, 61415), (4, u64::MAX)] {
            JournalLine::Header { system, seed }.write(&mut sectioned);
            sectioned.push_str(&text);
        }
        let mut rewritten = String::new();
        for line in sectioned.lines() {
            JournalLine::parse(line).unwrap().write(&mut rewritten);
        }
        assert_eq!(rewritten, sectioned);
        assert!(sectioned.starts_with("{\"system\":0,\"seed\":61415}\n"));
        assert_eq!(
            JournalLine::parse(text.lines().next().unwrap()).unwrap(),
            JournalLine::Event(j.events()[0].clone())
        );
    }

    #[test]
    fn blank_lines_skipped_and_errors_located() {
        let j = sample();
        let text = format!("\n{}\n\n", j.to_json_lines());
        assert_eq!(Journal::from_json_lines(&text).unwrap().len(), 3);
        let err = Journal::from_json_lines("{\"frame\": 1}\n").unwrap_err();
        assert_eq!(err.0, 1);
        assert!(err.1.contains("subsystem"));
        let err = Journal::from_json_lines("{}").unwrap_err();
        assert!(err.1.contains("frame"));
        assert!(Journal::from_json_lines("not json").is_err());
        // A truncated line or a header without its seed fails loudly.
        let line = j.events()[1].to_json_line();
        assert!(JournalLine::parse(&line[..line.len() - 3]).is_err());
        let err = JournalLine::parse("{\"system\":3}").unwrap_err();
        assert!(err.contains("seed"));
        let err = Journal::from_json_lines("{\"system\":3,\"seed\":1}").unwrap_err();
        assert_eq!(err, (1, "section header in a one-system journal".into()));
    }

    #[test]
    fn pathological_payloads_never_panic() {
        // The frame hot path must survive any payload a subsystem (or a
        // bug in one) can produce: non-finite floats, non-string map
        // keys, control characters, deep nesting.
        let payloads = [
            Value::F64(f64::NAN),
            Value::F64(f64::INFINITY),
            Value::F64(f64::NEG_INFINITY),
            Value::Map(vec![
                (Value::U64(7), Value::Str("numeric key".into())),
                (Value::Null, Value::Bool(true)),
                (Value::Seq(vec![Value::U64(1), Value::U64(2)]), Value::Null),
            ]),
            Value::Str("control \u{0} chars \u{1b} and \"quotes\"\n".into()),
            (0..64).fold(Value::Null, |inner, _| Value::Seq(vec![inner])),
        ];
        for payload in payloads {
            for kind in ["pathological", "needs \"escaping\" \\ \u{7}\n"] {
                let event = JournalEvent {
                    frame: 3,
                    subsystem: Subsystem::App,
                    kind: kind.into(),
                    payload: payload.clone(),
                };
                assert_writer_matches_value_rendering(&event);
                let _ = event.to_string(); // Display takes the same path.
            }
        }
        // Non-finite floats render as null, so the line still parses.
        let nan = JournalEvent {
            frame: 0,
            subsystem: Subsystem::Env,
            kind: "nan".into(),
            payload: Value::F64(f64::NAN),
        };
        let back = Journal::from_json_lines(&nan.to_json_line()).unwrap();
        assert_eq!(back.events()[0].payload, Value::Null);
    }

    #[test]
    fn filters_by_kind_and_subsystem() {
        let j = sample();
        assert_eq!(j.of_kind("phase-entered").count(), 1);
        assert_eq!(j.of_subsystem(Subsystem::Scram).count(), 2);
        assert_eq!(j.of_subsystem(Subsystem::Bus).count(), 0);
    }

    #[test]
    fn summary_counts_kinds_and_frames() {
        let s = sample().summary();
        assert_eq!(s.events, 3);
        assert_eq!(s.first_frame, Some(0));
        assert_eq!(s.last_frame, Some(1));
        assert_eq!(s.by_kind["trigger-accepted"], 1);
        assert_eq!(s.by_subsystem["scram"], 2);
        let text = s.to_string();
        assert!(text.contains("3 events"));
        assert!(text.contains("frames 0..=1"));
        let empty = Journal::new().summary();
        assert_eq!(empty.first_frame, None);
        assert!(empty.to_string().contains("0 events"));
    }

    #[test]
    fn diff_detects_divergence_and_identity() {
        let a = sample();
        let same = a.diff(&sample());
        assert!(same.identical());
        assert!(same.to_string().contains("identical"));

        let mut b = sample();
        b.record(2, Subsystem::Scram, "completed", Value::Null);
        let d = a.diff(&b);
        assert!(!d.identical());
        assert_eq!(d.first_divergence, Some(3));
        assert_eq!(d.kind_deltas["completed"], (0, 1));
        assert!(d.to_string().contains("3 vs 4 events"));

        let mut c = sample();
        c.events[1].kind = "trigger-rejected".into();
        let d = a.diff(&c);
        assert_eq!(d.first_divergence, Some(1));
        assert_eq!(d.kind_deltas["trigger-accepted"], (1, 0));
    }

    #[test]
    fn event_display_is_compact() {
        let j = sample();
        let line = j.events()[1].to_string();
        assert!(line.starts_with("@1 [scram] trigger-accepted"));
        assert!(line.contains("\"target\":\"safe\""));
        assert_eq!(j.events()[0].to_string(), "@0 [system] frame-start");
    }

    #[test]
    fn subsystem_names_round_trip() {
        for s in [
            Subsystem::Env,
            Subsystem::Scram,
            Subsystem::System,
            Subsystem::App,
            Subsystem::Bus,
            Subsystem::Rtos,
            Subsystem::Failstop,
        ] {
            assert_eq!(Subsystem::parse(s.as_str()), Some(s));
            assert_eq!(s.to_string(), s.as_str());
        }
        assert_eq!(Subsystem::parse("kernel"), None);
    }
}
