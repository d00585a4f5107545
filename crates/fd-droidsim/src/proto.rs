//! The device-agent wire protocol: length-prefixed JSONL frames.
//!
//! One frame is one request or one reply:
//!
//! ```text
//! <decimal payload length> SP <payload JSON> LF
//! ```
//!
//! The payload is a compact-serialized [`Envelope`] — a request id plus
//! an [`AgentRequest`] or [`AgentResponse`] body. The length prefix is
//! the authoritative framing (the trailing newline is a human-debugging
//! courtesy and is verified, not searched for), the id lets the client
//! detect replies to the wrong request, and every decode failure is a
//! typed [`ProtoError`] carrying enough context to reproduce.
//!
//! The decoder ([`FrameBuffer`]) is deliberately paranoid: headers are
//! bounded, lengths are capped at [`MAX_FRAME_LEN`] before any
//! allocation, and arbitrary bytes can never panic it — it is wired into
//! `fd-fuzz` as a mutation target.

use crate::device::DeviceConfig;
use crate::error::DeviceError;
use crate::faults::{FaultLog, FaultRecord};
use crate::monitor::ApiInvocation;
use crate::outcome::{EventOutcome, UiSignature};
use crate::screen::VisibleWidget;
use crate::ScreenObservation;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Hard cap on one frame's payload length. Packed containers travel
/// hex-encoded inside install requests, so the cap is generous — but it
/// exists, so a corrupt length field can never drive an allocation.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Longest accepted decimal length header (10 digits ≫ [`MAX_FRAME_LEN`]).
const MAX_HEADER_DIGITS: usize = 10;

/// A typed wire-protocol failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The length header is empty or contains a non-digit byte.
    BadLength {
        /// The offending header bytes, lossily rendered.
        header: String,
    },
    /// The length header names a payload longer than [`MAX_FRAME_LEN`].
    TooLarge {
        /// The declared payload length.
        len: usize,
    },
    /// The frame is not terminated by the newline the length prefix
    /// promised.
    MissingNewline,
    /// The payload is not valid JSON of the expected shape.
    BadJson {
        /// The parser's diagnostic.
        detail: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadLength { header } => write!(f, "bad frame length header '{header}'"),
            ProtoError::TooLarge { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            ProtoError::MissingNewline => write!(f, "frame not terminated by newline"),
            ProtoError::BadJson { detail } => {
                write!(f, "frame payload is not valid JSON: {detail}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// One frame's payload: a request id plus a body.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<T> {
    /// Monotonic per-session request id; replies echo it.
    pub id: u64,
    /// The request or response body.
    pub body: T,
}

// The vendored serde derive does not handle generic types, so the
// envelope's impls are written out by hand: `{"body": …, "id": n}`.
// Frames take the streaming methods in both directions; the tree
// methods are their reference, which `decode_payload_checked` holds the
// stream to (the fuzz targets run it on every mutant).
impl<T: Serialize> Serialize for Envelope<T> {
    fn to_value(&self) -> serde::Value {
        let mut map = serde::value::Map::new();
        map.insert("id".to_string(), self.id.to_value());
        map.insert("body".to_string(), self.body.to_value());
        serde::Value::Object(map)
    }

    fn write_json(&self, out: &mut String) {
        // Keys in the tree render's sorted order.
        out.push_str("{\"body\":");
        self.body.write_json(out);
        out.push_str(",\"id\":");
        self.id.write_json(out);
        out.push('}');
    }
}

impl<T: Deserialize> Deserialize for Envelope<T> {
    fn from_value(value: &serde::Value) -> Result<Self, serde::de::DeError> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::de::DeError::custom("expected envelope object"))?;
        let id = obj.get("id").map(u64::from_value).transpose()?;
        let body = obj.get("body").map(T::from_value).transpose()?;
        Envelope::assemble(id, body)
    }

    fn from_json(parser: &mut serde::value::JsonParser<'_>) -> Result<Self, serde::de::DeError> {
        use serde::de::DeError;
        if parser.peek_byte() != Some(b'{') {
            return Err(DeError::custom("expected envelope object"));
        }
        parser.begin_object().map_err(DeError)?;
        let (mut id, mut body) = (None, None);
        let mut first = true;
        // A repeated key keeps its last value, as the tree's object does
        // (though here an earlier copy must decode too).
        while let Some(key) = parser.object_key(first).map_err(DeError)? {
            first = false;
            match &*key {
                "id" => id = Some(u64::from_json(parser)?),
                "body" => body = Some(T::from_json(parser)?),
                _ => parser.skip_value().map_err(DeError)?,
            }
        }
        Envelope::assemble(id, body)
    }
}

impl<T> Envelope<T> {
    /// The envelope of the decoded fields, or the missing one named
    /// (`id` is checked first on both decode paths).
    fn assemble(id: Option<u64>, body: Option<T>) -> Result<Self, serde::de::DeError> {
        let id = id.ok_or_else(|| serde::de::DeError::custom("envelope missing 'id'"))?;
        let body = body.ok_or_else(|| serde::de::DeError::custom("envelope missing 'body'"))?;
        Ok(Envelope { id, body })
    }
}

/// Everything a client can ask a device agent to do — the wire mirror of
/// [`crate::DeviceApi`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AgentRequest {
    /// Wipe device state and install an app from hex-encoded packed
    /// container bytes.
    Install {
        /// The packed container, hex-encoded (binary-safe in JSON).
        container_hex: String,
        /// Device configuration (denied permissions, fault plan).
        config: DeviceConfig,
    },
    /// [`crate::DeviceApi::launch`].
    Launch,
    /// [`crate::DeviceApi::am_start`].
    AmStart {
        /// The component name.
        component: String,
    },
    /// [`crate::DeviceApi::click`].
    Click {
        /// The widget's resource id.
        id: String,
    },
    /// [`crate::DeviceApi::enter_text`].
    EnterText {
        /// The widget's resource id.
        id: String,
        /// The text to type.
        text: String,
    },
    /// [`crate::DeviceApi::dismiss_overlay`].
    DismissOverlay,
    /// [`crate::DeviceApi::back`].
    Back,
    /// [`crate::DeviceApi::swipe_open_drawer`].
    SwipeOpenDrawer,
    /// [`crate::DeviceApi::reflect_switch_fragment`].
    ReflectSwitchFragment {
        /// The fragment class to switch to.
        fragment: String,
    },
    /// [`crate::DeviceApi::observe`].
    Observe,
    /// [`crate::DeviceApi::signature`].
    Signature,
    /// [`crate::DeviceApi::visible_widgets`].
    VisibleWidgets,
    /// [`crate::DeviceApi::stack_depth`].
    StackDepth,
    /// [`crate::DeviceApi::is_crashed`].
    IsCrashed,
    /// [`crate::DeviceApi::crash_site`].
    CrashSite,
    /// [`crate::DeviceApi::invocations`].
    Invocations,
    /// [`crate::DeviceApi::fault_records_since`].
    FaultRecordsSince {
        /// First record index to return.
        from: usize,
    },
    /// [`crate::DeviceApi::fault_log`].
    FaultLog,
    /// [`crate::DeviceApi::faults_injected`].
    FaultsInjected,
    /// [`crate::DeviceApi::clock`].
    Clock,
    /// [`crate::DeviceApi::advance_clock`].
    AdvanceClock {
        /// Ticks to add.
        ticks: u64,
    },
    /// [`crate::DeviceApi::reset`].
    Reset,
    /// [`crate::DeviceApi::grant`].
    Grant {
        /// The permission to grant.
        permission: String,
    },
    /// [`crate::DeviceApi::revoke`].
    Revoke {
        /// The permission to revoke.
        permission: String,
    },
    /// Liveness probe.
    Ping,
    /// Orderly shutdown; the agent replies and exits its serve loop.
    Shutdown,
}

/// Everything an agent can answer with. Each variant mirrors the return
/// type of the corresponding [`AgentRequest`]; `Result` payloads carry
/// app-level [`DeviceError`]s (an agent that is *working* still reports
/// the simulated device's own failures faithfully).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum AgentResponse {
    /// Reply to [`AgentRequest::Install`]; the error string is the
    /// decompile failure, if any.
    Installed(Result<(), String>),
    /// Reply to any event-injection request.
    Outcome(Result<EventOutcome, DeviceError>),
    /// Reply to requests that return nothing on success.
    Unit(Result<(), DeviceError>),
    /// Reply to [`AgentRequest::Observe`].
    Observation(Result<Option<ScreenObservation>, DeviceError>),
    /// Reply to [`AgentRequest::Signature`] and [`AgentRequest::CrashSite`].
    Signature(Result<Option<UiSignature>, DeviceError>),
    /// Reply to [`AgentRequest::VisibleWidgets`].
    Widgets(Result<Vec<VisibleWidget>, DeviceError>),
    /// Reply to [`AgentRequest::IsCrashed`].
    Flag(Result<bool, DeviceError>),
    /// Reply to [`AgentRequest::Invocations`].
    Invocations(Result<Vec<ApiInvocation>, DeviceError>),
    /// Reply to [`AgentRequest::FaultRecordsSince`].
    FaultRecords(Result<Vec<FaultRecord>, DeviceError>),
    /// Reply to [`AgentRequest::FaultLog`].
    FaultLog(Result<FaultLog, DeviceError>),
    /// Reply to counting requests ([`AgentRequest::StackDepth`],
    /// [`AgentRequest::FaultsInjected`]).
    Count(Result<usize, DeviceError>),
    /// Reply to [`AgentRequest::Clock`].
    Clock(Result<u64, DeviceError>),
    /// Reply to [`AgentRequest::Ping`].
    Pong,
    /// Reply to [`AgentRequest::Shutdown`].
    Bye,
}

/// Encodes one frame: `len SP payload LF`. The payload is streamed
/// compact JSON; no `Value` tree is built.
pub fn encode_frame<T: Serialize>(envelope: &Envelope<T>) -> Vec<u8> {
    let payload = serde_json::to_vec(envelope).expect("protocol envelopes always serialize");
    frame(&payload)
}

/// Frames an already-rendered payload: `len SP payload LF`. For a
/// sender that splices stored JSON into a payload instead of encoding a
/// typed envelope.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(format!("{} ", payload.len()).as_bytes());
    out.extend_from_slice(payload);
    out.push(b'\n');
    out
}

/// Decodes a frame payload into a typed envelope, streaming straight
/// from the text.
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<Envelope<T>, ProtoError> {
    serde_json::from_slice(payload).map_err(|e| ProtoError::BadJson { detail: e.to_string() })
}

/// Decodes a frame payload through a `Value` tree: the reference
/// [`decode_payload`] must agree with, for [`decode_payload_checked`].
fn decode_payload_via_tree<T: Deserialize>(payload: &[u8]) -> Result<Envelope<T>, ProtoError> {
    let bad = |detail: String| ProtoError::BadJson { detail };
    let text = std::str::from_utf8(payload).map_err(|e| bad(format!("invalid utf-8: {e}")))?;
    let value = serde::Value::parse_json(text).map_err(bad)?;
    Envelope::from_value(&value).map_err(|e| bad(e.to_string()))
}

/// [`decode_payload`], checked against a decode through a `Value` tree
/// (the envelope's `from_value`): both paths must decode envelopes that
/// encode to the same frame, or both refuse the payload.
///
/// # Panics
///
/// When the two paths disagree. This is the differential oracle the
/// fuzz targets and tests run; the frame path never calls it.
pub fn decode_payload_checked<T: Serialize + Deserialize>(
    payload: &[u8],
) -> Result<Envelope<T>, ProtoError> {
    let streamed = decode_payload::<T>(payload);
    let tree = decode_payload_via_tree::<T>(payload);
    match (&streamed, &tree) {
        (Ok(a), Ok(b)) => assert!(
            encode_frame(a) == encode_frame(b),
            "streamed and tree decodes differ on a {}-byte payload",
            payload.len()
        ),
        (Err(_), Err(_)) => {}
        (a, b) => panic!(
            "streamed decode {} but tree decode {} on a {}-byte payload",
            if a.is_ok() { "accepts" } else { "refuses" },
            if b.is_ok() { "accepts" } else { "refuses" },
            payload.len()
        ),
    }
    streamed
}

/// An incremental, panic-free frame decoder: push raw bytes in, pull
/// complete frame payloads out. This is the component `fd-fuzz` mutates.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Bytes currently buffered but not yet consumed as frames.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame's payload, `Ok(None)` if more bytes
    /// are needed, or a typed error if the buffered prefix can never be
    /// a frame (the connection should then be torn down — resyncing a
    /// corrupt length-prefixed stream is guesswork).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        // Header: 1..=MAX_HEADER_DIGITS digits, then a space.
        let mut digits = 0usize;
        let mut len = 0usize;
        loop {
            match self.buf.get(digits) {
                None => {
                    // Incomplete header — but only if it could still
                    // become valid.
                    if digits > MAX_HEADER_DIGITS {
                        return Err(ProtoError::BadLength {
                            header: String::from_utf8_lossy(&self.buf[..digits]).into_owned(),
                        });
                    }
                    return Ok(None);
                }
                Some(b' ') if digits > 0 => break,
                Some(b) if b.is_ascii_digit() && digits < MAX_HEADER_DIGITS => {
                    len = len * 10 + (b - b'0') as usize;
                    digits += 1;
                }
                Some(_) => {
                    let end = (digits + 1).min(self.buf.len()).min(MAX_HEADER_DIGITS + 1);
                    return Err(ProtoError::BadLength {
                        header: String::from_utf8_lossy(&self.buf[..end]).into_owned(),
                    });
                }
            }
        }
        if len > MAX_FRAME_LEN {
            return Err(ProtoError::TooLarge { len });
        }
        let start = digits + 1;
        let end = start + len;
        if self.buf.len() < end + 1 {
            return Ok(None); // payload + newline not all here yet
        }
        if self.buf[end] != b'\n' {
            return Err(ProtoError::MissingNewline);
        }
        let payload = self.buf[start..end].to_vec();
        self.buf.drain(..end + 1);
        Ok(Some(payload))
    }
}

/// Decodes every complete frame in `bytes` as an [`AgentRequest`]
/// envelope — the whole-pipeline entry the fuzz harness drives, covering
/// the framing layer and the JSON layer in one call.
pub fn decode_request_stream(bytes: &[u8]) -> Result<Vec<Envelope<AgentRequest>>, ProtoError> {
    let mut fb = FrameBuffer::new();
    fb.push(bytes);
    let mut out = Vec::new();
    while let Some(payload) = fb.next_frame()? {
        out.push(decode_payload::<AgentRequest>(&payload)?);
    }
    Ok(out)
}

/// The lowercase hex digit of each nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's nibble value as a hex digit (either case), or
/// [`NOT_HEX`].
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// [`HEX_VALUES`]' mark for a byte that is no hex digit.
const NOT_HEX: u8 = 0xff;

/// Hex-encodes bytes (lowercase) — how packed containers travel inside
/// JSON frames.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = vec![0u8; bytes.len() * 2];
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair[0] = HEX_DIGITS[usize::from(b >> 4)];
        pair[1] = HEX_DIGITS[usize::from(b & 0xf)];
    }
    String::from_utf8(out).expect("hex digits are ASCII")
}

/// Decodes lowercase/uppercase hex back to bytes.
pub fn from_hex(s: &str) -> Result<Vec<u8>, ProtoError> {
    let bytes = s.as_bytes();
    if bytes.len() % 2 != 0 {
        return Err(ProtoError::BadJson { detail: "odd-length hex string".to_string() });
    }
    let mut out = vec![0u8; bytes.len() / 2];
    for (byte, pair) in out.iter_mut().zip(bytes.chunks_exact(2)) {
        let (hi, lo) = (HEX_VALUES[usize::from(pair[0])], HEX_VALUES[usize::from(pair[1])]);
        if hi == NOT_HEX || lo == NOT_HEX {
            let bad = if hi == NOT_HEX { pair[0] } else { pair[1] };
            return Err(ProtoError::BadJson { detail: format!("non-hex byte 0x{bad:02x}") });
        }
        *byte = (hi << 4) | lo;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let env = Envelope { id: 7, body: AgentRequest::Click { id: "go".to_string() } };
        let bytes = encode_frame(&env);
        let mut fb = FrameBuffer::new();
        fb.push(&bytes);
        let payload = fb.next_frame().expect("valid").expect("complete");
        let back: Envelope<AgentRequest> = decode_payload(&payload).expect("parses");
        assert_eq!(back, env);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let env = Envelope { id: 1, body: AgentRequest::Ping };
        let bytes = encode_frame(&env);
        let mut fb = FrameBuffer::new();
        for cut in 0..bytes.len() {
            let mut partial = FrameBuffer::new();
            partial.push(&bytes[..cut]);
            assert_eq!(partial.next_frame().expect("prefix is never an error"), None, "cut {cut}");
        }
        fb.push(&bytes);
        fb.push(&bytes);
        assert!(fb.next_frame().unwrap().is_some());
        assert!(fb.next_frame().unwrap().is_some());
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn corrupt_headers_are_typed_errors() {
        let mut fb = FrameBuffer::new();
        fb.push(b"xyz 123\n");
        assert!(matches!(fb.next_frame(), Err(ProtoError::BadLength { .. })));

        let mut fb = FrameBuffer::new();
        fb.push(b"99999999999 {}\n"); // 11 digits: header too long
        assert!(matches!(fb.next_frame(), Err(ProtoError::BadLength { .. })));

        let mut fb = FrameBuffer::new();
        fb.push(format!("{} {{}}\n", MAX_FRAME_LEN + 1).as_bytes());
        assert!(matches!(fb.next_frame(), Err(ProtoError::TooLarge { .. })));

        let mut fb = FrameBuffer::new();
        fb.push(b"2 {}X"); // length says 2, terminator is not newline
        assert!(matches!(fb.next_frame(), Err(ProtoError::MissingNewline)));
    }

    #[test]
    fn bad_json_is_a_typed_error() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"5 {!!!}\n");
        assert!(matches!(decode_request_stream(&bytes), Err(ProtoError::BadJson { .. })));
    }

    #[test]
    fn hex_roundtrips() {
        let data: Vec<u8> = (0..=255u8).collect();
        let hex = to_hex(&data);
        for (b, pair) in data.iter().zip(hex.as_bytes().chunks_exact(2)) {
            assert_eq!(pair, format!("{b:02x}").as_bytes(), "lowercase, two digits per byte");
        }
        assert_eq!(from_hex(&hex).expect("lowercase roundtrips"), data);
        assert_eq!(from_hex(&hex.to_uppercase()).expect("uppercase roundtrips"), data);
        let bad = |s: &str| match from_hex(s) {
            Err(ProtoError::BadJson { detail }) => detail,
            other => panic!("{s:?} decoded to {other:?}"),
        };
        assert_eq!(bad("abc"), "odd-length hex string");
        for b in (0..0x80u8).filter(|b| !b.is_ascii_hexdigit()) {
            let text = format!("a{}", char::from(b));
            assert_eq!(bad(&text), format!("non-hex byte 0x{b:02x}"));
        }
        assert_eq!(bad("zz"), "non-hex byte 0x7a");
        assert_eq!(bad("\u{e9}"), "non-hex byte 0xc3", "the first byte of a UTF-8 pair");
    }

    #[test]
    fn every_request_serializes_and_parses() {
        let reqs = vec![
            AgentRequest::Install {
                container_hex: "00ff".to_string(),
                config: DeviceConfig::default(),
            },
            AgentRequest::Launch,
            AgentRequest::AmStart { component: "a.B".to_string() },
            AgentRequest::EnterText { id: "f".to_string(), text: "x".to_string() },
            AgentRequest::FaultRecordsSince { from: 3 },
            AgentRequest::AdvanceClock { ticks: 50 },
            AgentRequest::Shutdown,
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let env = Envelope { id: i as u64, body: req };
            let bytes = encode_frame(&env);
            let parsed = decode_request_stream(&bytes).expect("valid stream");
            assert_eq!(parsed, vec![env]);
        }
    }
}
