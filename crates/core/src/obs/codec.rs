//! Compact length-prefixed binary journal encoding.
//!
//! JSON-Lines remains the journal's *interchange* format — every tool
//! that wants text can get it via `arfs-trace fleet decode` — but at
//! fleet scale the per-event `to_json_line` cost on the frame loop and
//! the ~3× size blow-up of textual framing are measurable. This module
//! defines the wire format the fleet's sampled cells encode their journal
//! sections in:
//!
//! ```text
//! journal   := MAGIC record*
//! MAGIC     := "ARFSJB01" (8 bytes)
//! record    := tag:u8 len:u32le body[len]
//! tag 1     := system header — body = system:u64le seed:u64le
//! tag 2     := event — body = frame:u64le subsystem:u8
//!                              kind_len:u16le kind[kind_len]
//!                              payload[..]   (compact JSON; empty = null)
//! ```
//!
//! Every record is self-delimiting, so a reader can skip unknown tags
//! (forward compatibility) and a truncated file fails loudly at the
//! first short read instead of silently dropping a suffix. The payload
//! stays compact JSON rather than a bespoke binary value encoding: it
//! is the cold part of an event (most payloads are small or null), and
//! reusing the JSON value model keeps the decode path byte-for-byte
//! faithful to the JSON-Lines form — a CI gate holds the two in
//! agreement on a golden fixture.

use std::io::Read;

use crate::obs::journal::{JournalEvent, Subsystem};
use serde_json::Value;

/// File magic identifying a binary ARFS journal, version 01.
pub const MAGIC: [u8; 8] = *b"ARFSJB01";

/// Record tag: per-system section header.
pub const TAG_SYSTEM: u8 = 1;
/// Record tag: one journal event.
pub const TAG_EVENT: u8 = 2;

/// Sanity cap on a single record's body length (64 MiB); a longer
/// length prefix means a corrupt or non-journal file.
const MAX_RECORD_LEN: u32 = 64 << 20;

fn subsystem_code(s: Subsystem) -> u8 {
    match s {
        Subsystem::Env => 0,
        Subsystem::Scram => 1,
        Subsystem::System => 2,
        Subsystem::App => 3,
        Subsystem::Bus => 4,
        Subsystem::Rtos => 5,
        Subsystem::Failstop => 6,
    }
}

fn subsystem_from_code(code: u8) -> Option<Subsystem> {
    Some(match code {
        0 => Subsystem::Env,
        1 => Subsystem::Scram,
        2 => Subsystem::System,
        3 => Subsystem::App,
        4 => Subsystem::Bus,
        5 => Subsystem::Rtos,
        6 => Subsystem::Failstop,
        _ => return None,
    })
}

fn push_record(out: &mut Vec<u8>, tag: u8, body: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
}

/// Appends the file magic.
pub fn encode_magic(out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
}

/// Appends a per-system section header record.
pub fn encode_system_header(out: &mut Vec<u8>, system: u64, seed: u64) {
    let mut body = [0u8; 16];
    body[..8].copy_from_slice(&system.to_le_bytes());
    body[8..].copy_from_slice(&seed.to_le_bytes());
    push_record(out, TAG_SYSTEM, &body);
}

/// Appends one event record.
pub fn encode_event(out: &mut Vec<u8>, event: &JournalEvent) {
    let kind = event.kind.as_bytes();
    let kind_len = kind.len().min(u16::MAX as usize);
    let mut body = Vec::with_capacity(11 + kind_len + 16);
    body.extend_from_slice(&event.frame.to_le_bytes());
    body.push(subsystem_code(event.subsystem));
    body.extend_from_slice(&(kind_len as u16).to_le_bytes());
    body.extend_from_slice(&kind[..kind_len]);
    if event.payload != Value::Null {
        body.extend_from_slice(serde_json::to_string_infallible(&event.payload).as_bytes());
    }
    push_record(out, TAG_EVENT, &body);
}

/// Returns `true` if the byte prefix identifies a binary ARFS journal.
pub fn looks_binary(prefix: &[u8]) -> bool {
    prefix.len() >= MAGIC.len() && prefix[..MAGIC.len()] == MAGIC
}

/// One decoded record.
#[derive(Debug, Clone, PartialEq)]
pub enum BinaryRecord {
    /// A per-system section header: events that follow (until the next
    /// header) belong to this system.
    System {
        /// Fleet-wide system index.
        system: u64,
        /// The system's derived seed.
        seed: u64,
    },
    /// One journal event.
    Event(JournalEvent),
}

/// Streaming reader over a binary journal: an iterator of records that
/// never materializes the whole file.
pub struct BinaryJournalReader<R: Read> {
    inner: R,
    /// Set once the magic has been consumed (or rejected).
    started: bool,
    /// A fatal error was already yielded; iteration is over.
    failed: bool,
}

impl<R: Read> BinaryJournalReader<R> {
    /// Wraps a reader positioned at the start of the magic.
    pub fn new(inner: R) -> Self {
        BinaryJournalReader {
            inner,
            started: false,
            failed: false,
        }
    }

    /// Wraps a reader whose magic has already been consumed (e.g. after
    /// sniffing the format).
    pub fn after_magic(inner: R) -> Self {
        BinaryJournalReader {
            inner,
            started: true,
            failed: false,
        }
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), String> {
        self.inner
            .read_exact(buf)
            .map_err(|e| format!("truncated binary journal: {e}"))
    }

    fn next_record(&mut self) -> Option<Result<BinaryRecord, String>> {
        if !self.started {
            self.started = true;
            let mut magic = [0u8; 8];
            if let Err(e) = self.read_exact(&mut magic) {
                return Some(Err(e));
            }
            if magic != MAGIC {
                return Some(Err(format!(
                    "not a binary ARFS journal (magic {magic:02x?})"
                )));
            }
        }
        let mut tag = [0u8; 1];
        match self.inner.read(&mut tag) {
            Ok(0) => return None,
            Ok(_) => {}
            Err(e) => return Some(Err(format!("read error: {e}"))),
        }
        let mut len_bytes = [0u8; 4];
        if let Err(e) = self.read_exact(&mut len_bytes) {
            return Some(Err(e));
        }
        let len = u32::from_le_bytes(len_bytes);
        if len > MAX_RECORD_LEN {
            return Some(Err(format!("record length {len} exceeds sanity cap")));
        }
        let mut body = vec![0u8; len as usize];
        if let Err(e) = self.read_exact(&mut body) {
            return Some(Err(e));
        }
        Some(decode_record(tag[0], &body))
    }
}

fn decode_record(tag: u8, body: &[u8]) -> Result<BinaryRecord, String> {
    match tag {
        TAG_SYSTEM => {
            if body.len() != 16 {
                return Err(format!(
                    "system header body is {} bytes, want 16",
                    body.len()
                ));
            }
            let mut u = [0u8; 8];
            u.copy_from_slice(&body[..8]);
            let system = u64::from_le_bytes(u);
            u.copy_from_slice(&body[8..]);
            let seed = u64::from_le_bytes(u);
            Ok(BinaryRecord::System { system, seed })
        }
        TAG_EVENT => {
            if body.len() < 11 {
                return Err(format!("event body is {} bytes, want >= 11", body.len()));
            }
            let mut u = [0u8; 8];
            u.copy_from_slice(&body[..8]);
            let frame = u64::from_le_bytes(u);
            let subsystem = subsystem_from_code(body[8])
                .ok_or_else(|| format!("unknown subsystem code {}", body[8]))?;
            let kind_len = u16::from_le_bytes([body[9], body[10]]) as usize;
            if body.len() < 11 + kind_len {
                return Err("event kind overruns record body".to_owned());
            }
            let kind = std::str::from_utf8(&body[11..11 + kind_len])
                .map_err(|e| format!("event kind is not UTF-8: {e}"))?
                .to_owned();
            let payload_bytes = &body[11 + kind_len..];
            let payload = if payload_bytes.is_empty() {
                Value::Null
            } else {
                let text = std::str::from_utf8(payload_bytes)
                    .map_err(|e| format!("event payload is not UTF-8: {e}"))?;
                serde_json::from_str(text).map_err(|e| format!("event payload: {e}"))?
            };
            Ok(BinaryRecord::Event(JournalEvent {
                frame,
                subsystem,
                kind,
                payload,
            }))
        }
        other => Err(format!("unknown record tag {other}")),
    }
}

impl<R: Read> Iterator for BinaryJournalReader<R> {
    type Item = Result<BinaryRecord, String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let item = self.next_record();
        if matches!(item, Some(Err(_))) {
            self.failed = true;
        }
        item
    }
}

/// An owned binary journal, serialized through serde as a hex string so
/// fleet reports stay plain JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalBytes(pub Vec<u8>);

impl JournalBytes {
    /// The raw bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` when no journal was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

fn hex_value(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

impl serde::Serialize for JournalBytes {
    fn to_content(&self) -> Value {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut text = String::with_capacity(self.0.len() * 2);
        for &byte in &self.0 {
            text.push(HEX[(byte >> 4) as usize] as char);
            text.push(HEX[(byte & 0xf) as usize] as char);
        }
        Value::Str(text)
    }
}

impl serde::Deserialize for JournalBytes {
    fn from_content(value: &Value) -> Result<Self, serde::DeError> {
        let text = match value {
            Value::Str(s) => s,
            _ => return Err(serde::DeError::custom("JournalBytes: expected hex string")),
        };
        let bytes = text.as_bytes();
        if bytes.len() % 2 != 0 {
            return Err(serde::DeError::custom(
                "JournalBytes: odd-length hex string",
            ));
        }
        let mut out = Vec::with_capacity(bytes.len() / 2);
        for pair in bytes.chunks_exact(2) {
            let hi = hex_value(pair[0]).ok_or_else(|| {
                serde::DeError::custom(format!("JournalBytes: bad hex digit {:?}", pair[0] as char))
            })?;
            let lo = hex_value(pair[1]).ok_or_else(|| {
                serde::DeError::custom(format!("JournalBytes: bad hex digit {:?}", pair[1] as char))
            })?;
            out.push((hi << 4) | lo);
        }
        Ok(JournalBytes(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent {
                frame: 0,
                subsystem: Subsystem::System,
                kind: "frame-start".to_owned(),
                payload: Value::Null,
            },
            JournalEvent {
                frame: 3,
                subsystem: Subsystem::Scram,
                kind: "trigger-accepted".to_owned(),
                payload: serde_json::json!({
                    "from": "full-service",
                    "target": "safe-service",
                    "interrupted": false,
                }),
            },
            JournalEvent {
                frame: u64::MAX,
                subsystem: Subsystem::Failstop,
                kind: "fault-injected".to_owned(),
                payload: serde_json::json!({"processor": 2}),
            },
        ]
    }

    #[test]
    fn events_round_trip_through_the_binary_codec() {
        let events = sample_events();
        let mut bytes = Vec::new();
        encode_magic(&mut bytes);
        encode_system_header(&mut bytes, 7, 0xDEAD_BEEF);
        for event in &events {
            encode_event(&mut bytes, event);
        }
        assert!(looks_binary(&bytes));

        let records: Result<Vec<BinaryRecord>, String> =
            BinaryJournalReader::new(bytes.as_slice()).collect();
        let records = records.expect("decodes");
        assert_eq!(records.len(), events.len() + 1);
        assert_eq!(
            records[0],
            BinaryRecord::System {
                system: 7,
                seed: 0xDEAD_BEEF
            }
        );
        for (record, event) in records[1..].iter().zip(&events) {
            assert_eq!(record, &BinaryRecord::Event(event.clone()));
        }
    }

    #[test]
    fn every_subsystem_survives_the_code_mapping() {
        for s in [
            Subsystem::Env,
            Subsystem::Scram,
            Subsystem::System,
            Subsystem::App,
            Subsystem::Bus,
            Subsystem::Rtos,
            Subsystem::Failstop,
        ] {
            assert_eq!(subsystem_from_code(subsystem_code(s)), Some(s));
        }
        assert_eq!(subsystem_from_code(200), None);
    }

    #[test]
    fn truncated_journals_fail_loudly() {
        let mut bytes = Vec::new();
        encode_magic(&mut bytes);
        encode_event(&mut bytes, &sample_events()[1]);
        bytes.truncate(bytes.len() - 3);
        let records: Vec<_> = BinaryJournalReader::new(bytes.as_slice()).collect();
        assert_eq!(records.len(), 1);
        assert!(records[0].as_ref().unwrap_err().contains("truncated"));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let bytes = b"not-a-journal".to_vec();
        let mut reader = BinaryJournalReader::new(bytes.as_slice());
        let err = reader.next().unwrap().unwrap_err();
        assert!(err.contains("magic"));
        assert!(reader.next().is_none(), "fatal errors end iteration");
    }

    #[test]
    fn journal_bytes_round_trip_as_hex() {
        let original = JournalBytes(vec![0x00, 0xff, 0x41, 0x52, 0x46, 0x53]);
        let content = original.to_content();
        assert_eq!(content, Value::Str("00ff41524653".to_owned()));
        let back = JournalBytes::from_content(&content).expect("parses");
        assert_eq!(back, original);
        assert!(JournalBytes::from_content(&Value::Str("0g".to_owned())).is_err());
        assert!(JournalBytes::from_content(&Value::Str("abc".to_owned())).is_err());
    }
}
