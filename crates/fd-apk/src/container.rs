//! The binary APK container — the reproduction's stand-in for the APK zip.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! magic   4 bytes  "FAPK"
//! version u16      currently 1
//! flags   u16      bit 0: packer-protected
//! then 4 length-prefixed sections (u32 length + payload):
//!   1. manifest   JSON-encoded [`Manifest`]
//!   2. classes    UTF-8 smali text (all classes, printer output)
//!   3. layouts    JSON-encoded Vec<Layout>
//!   4. meta       JSON-encoded [`AppMeta`]
//! ```
//!
//! [`decompile`] is the Apktool + jd-core stage of the paper's pipeline:
//! it unpacks the container and re-parses the smali text, producing the
//! same [`AndroidApp`] the packer consumed (resources are re-interned,
//! matching `aapt`'s determinism). A container with the packer flag set
//! refuses to decompile with [`ApkError::Packed`], reproducing the apps
//! the paper had to exclude.

use crate::app::{AndroidApp, AppMeta};
use crate::error::{ApkError, CorruptCause};
use crate::layout::Layout;
use crate::manifest::Manifest;
use bytes::{BufMut, Bytes, BytesMut};
use fd_smali::{parser, printer, ClassDef, ClassPool};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"FAPK";
const VERSION: u16 = 1;
const FLAG_PACKED: u16 = 0b1;

/// [`pack`] under a span on `tracer` ([`fd_trace::Phase::Pack`]).
pub fn pack_traced(app: &AndroidApp, tracer: &fd_trace::Tracer) -> Bytes {
    let _span = tracer.span(fd_trace::Phase::Pack, "pack");
    pack(app)
}

/// [`decompile`] under a span on `tracer` ([`fd_trace::Phase::Decompile`]),
/// with a [`fd_trace::Phase::DecodeSection`] sub-span per section
/// ([`ContainerView::decode_traced`]) and one for
/// [`AppView::into_app`]. With a disabled tracer this *is* `decompile` —
/// same code path, zero records.
pub fn decompile_traced(bytes: &Bytes, tracer: &fd_trace::Tracer) -> Result<AndroidApp, ApkError> {
    let _decompile = tracer.span(fd_trace::Phase::Decompile, "decompile");
    let view = ContainerView::parse(bytes)?.decode_traced(tracer)?;
    let _section = tracer.span(fd_trace::Phase::DecodeSection, "into-app");
    Ok(view.into_app())
}

/// Serializes an app into the binary container.
pub fn pack(app: &AndroidApp) -> Bytes {
    let mut buf = BytesMut::new();
    pack_into(app, &mut buf);
    buf.freeze()
}

/// [`pack`] into a caller-owned buffer (cleared first), so loops packing
/// or digesting a whole corpus reuse one container allocation instead of
/// one per app. The bytes written are exactly [`pack`]'s.
pub fn pack_into(app: &AndroidApp, buf: &mut BytesMut) {
    buf.clear();
    buf.put_slice(MAGIC);
    buf.put_u16(VERSION);
    let packed = app.meta.packed;
    buf.put_u16(if packed { FLAG_PACKED } else { 0 });

    // Sections render one at a time into a single scratch buffer and are
    // framed straight into `buf` — one temporary for the whole container
    // instead of one owned buffer per section.
    let mut scratch = String::new();

    serde::Serialize::write_json(&app.manifest, &mut scratch);
    frame_section(buf, scratch.as_bytes(), packed);

    scratch.clear();
    for (i, class) in app.classes.iter().enumerate() {
        if i > 0 {
            // `join("\n")` heritage: a blank separator line between
            // classes (each class already ends with its own newline).
            scratch.push('\n');
        }
        printer::print_class_into(&mut scratch, class);
    }
    frame_section(buf, scratch.as_bytes(), packed);

    scratch.clear();
    let layouts: Vec<&Layout> = app.layouts.values().map(|layout| &**layout).collect();
    serde::Serialize::write_json(&layouts, &mut scratch);
    frame_section(buf, scratch.as_bytes(), packed);

    scratch.clear();
    serde::Serialize::write_json(&app.meta, &mut scratch);
    frame_section(buf, scratch.as_bytes(), packed);
}

/// Appends one length-prefixed section.
fn frame_section(buf: &mut BytesMut, section: &[u8], scramble: bool) {
    buf.put_u32(section.len() as u32);
    if scramble {
        // Packer protection: scramble payloads so that even a reader
        // that ignores the flag cannot recover the contents.
        buf.extend(section.iter().map(|b| b ^ 0xa5));
    } else {
        buf.put_slice(section);
    }
}

/// Bounds-checked reader over the container bytes. Every read either
/// succeeds or returns a typed [`ApkError`] carrying the byte offset it
/// failed at; nothing in the decode path can index past the end.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` bytes, or reports exactly how short the stream is.
    fn take(&mut self, n: usize) -> Result<&'a [u8], ApkError> {
        if self.remaining() < n {
            return Err(ApkError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u16(&mut self) -> Result<u16, ApkError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ApkError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads one `u32 length + payload` section, validating the length
    /// field against what actually remains.
    fn section(&mut self, name: &'static str) -> Result<&'a [u8], ApkError> {
        let field_offset = self.pos;
        let declared = self.u32()? as usize;
        if declared > self.remaining() {
            return Err(ApkError::BadLengthField {
                section: name,
                offset: field_offset,
                declared,
                available: self.remaining(),
            });
        }
        self.take(declared)
    }
}

/// A zero-copy view of a validated container: the four section payloads
/// as borrowed slices into the input buffer.
///
/// [`ContainerView::parse`] checks the envelope — magic, version, packer
/// flag, section framing, trailing bytes — without touching the payload
/// contents; [`ContainerView::decode`] then parses every section into an
/// [`AppView`]. Nothing is copied out of the buffer: the section
/// accessors return `&'a [u8]`/`&'a str` slices, and the parsers work
/// directly on them. [`decompile`] wraps the pair for callers that want
/// the owned, indexed [`AndroidApp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContainerView<'a> {
    manifest: &'a [u8],
    classes: &'a [u8],
    layouts: &'a [u8],
    meta: &'a [u8],
}

impl<'a> ContainerView<'a> {
    /// Validates the container envelope and locates the four sections.
    ///
    /// Error precedence matches the historical `decompile` exactly:
    /// magic, then version, then the packer flag, then each section's
    /// framing in order, then trailing bytes.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ApkError> {
        let mut cur = Cursor::new(bytes);
        let magic = cur.take(4)?;
        if magic != MAGIC {
            return Err(ApkError::BadMagic);
        }
        let version = cur.u16()?;
        if version != VERSION {
            return Err(ApkError::UnsupportedVersion(version));
        }
        let flags = cur.u16()?;
        if flags & FLAG_PACKED != 0 {
            return Err(ApkError::Packed);
        }

        let manifest = cur.section("manifest")?;
        let classes = cur.section("classes")?;
        let layouts = cur.section("layouts")?;
        let meta = cur.section("meta")?;
        if cur.remaining() > 0 {
            return Err(ApkError::Corrupt {
                section: "meta",
                cause: CorruptCause::TrailingBytes { count: cur.remaining() },
            });
        }
        Ok(ContainerView { manifest, classes, layouts, meta })
    }

    /// The raw manifest JSON payload.
    pub fn manifest_bytes(&self) -> &'a [u8] {
        self.manifest
    }

    /// The raw classes payload (UTF-8 smali text when well-formed).
    pub fn classes_bytes(&self) -> &'a [u8] {
        self.classes
    }

    /// The raw layouts JSON payload.
    pub fn layouts_bytes(&self) -> &'a [u8] {
        self.layouts
    }

    /// The raw meta JSON payload.
    pub fn meta_bytes(&self) -> &'a [u8] {
        self.meta
    }

    /// The classes section as text, validating UTF-8.
    pub fn classes_str(&self) -> Result<&'a str, ApkError> {
        std::str::from_utf8(self.classes)
            .map_err(|e| ApkError::Corrupt { section: "classes", cause: CorruptCause::Utf8(e) })
    }

    /// Parses every section, in the same order (and with the same error
    /// precedence) as the historical `decompile`: manifest JSON, classes
    /// UTF-8, smali, layouts JSON, meta JSON.
    pub fn decode(&self) -> Result<AppView<'a>, ApkError> {
        self.decode_traced(&fd_trace::Tracer::disabled())
    }

    /// [`ContainerView::decode`] with one
    /// [`fd_trace::Phase::DecodeSection`] span per section: `manifest`,
    /// `classes`, `layouts`, `meta`.
    pub fn decode_traced(&self, tracer: &fd_trace::Tracer) -> Result<AppView<'a>, ApkError> {
        let section = |name| tracer.span(fd_trace::Phase::DecodeSection, name);
        let manifest: Manifest = {
            let _section = section("manifest");
            serde_json::from_slice(self.manifest).map_err(|e| ApkError::Corrupt {
                section: "manifest",
                cause: CorruptCause::Json(e),
            })?
        };
        let (classes_text, classes) = {
            let _section = section("classes");
            let text = self.classes_str()?;
            (text, parser::parse_classes(text)?)
        };
        let layouts: Vec<Layout> = {
            let _section = section("layouts");
            serde_json::from_slice(self.layouts).map_err(|e| ApkError::Corrupt {
                section: "layouts",
                cause: CorruptCause::Json(e),
            })?
        };
        let meta: AppMeta = {
            let _section = section("meta");
            serde_json::from_slice(self.meta)
                .map_err(|e| ApkError::Corrupt { section: "meta", cause: CorruptCause::Json(e) })?
        };
        Ok(AppView { manifest, classes, classes_text, layouts, meta })
    }
}

/// A fully decoded container, before owned indexing: classes as the
/// parsed list (names interned, not yet a [`ClassPool`]), layouts in
/// section order (not yet keyed by name), and no resource table. This is
/// everything decoding proper has to do; [`AppView::into_app`] adds the
/// indexes for callers that explore the app.
#[derive(Clone, Debug, PartialEq)]
pub struct AppView<'a> {
    /// The manifest.
    pub manifest: Manifest,
    /// All parsed classes, in section order.
    pub classes: Vec<ClassDef>,
    /// The classes section text the classes were parsed from.
    pub classes_text: &'a str,
    /// All layouts, in section order.
    pub layouts: Vec<Layout>,
    /// Store metadata.
    pub meta: AppMeta,
}

impl AppView<'_> {
    /// Builds the owned, indexed [`AndroidApp`]: class pool, layout map,
    /// and the re-interned resource table (matching `aapt` determinism).
    pub fn into_app(self) -> AndroidApp {
        let classes: ClassPool = self.classes.into_iter().collect();
        let mut app = AndroidApp {
            manifest: self.manifest,
            classes,
            layouts: self.layouts.into_iter().map(|l| (l.name.clone(), Arc::new(l))).collect(),
            resources: crate::ResourceTable::new(),
            meta: self.meta,
        };
        app.finalize_resources();
        app
    }
}

/// Unpacks and decompiles a container back into an [`AndroidApp`].
///
/// This is the reproduction's Apktool + jd-core stage: the classes section
/// is genuine text that is re-parsed by [`fd_smali::parser`]. The decode
/// path is total: any input — truncated, bit-flipped, length-corrupted —
/// yields `Ok` or a typed [`ApkError`], never a panic (property-tested in
/// `tests/container_prop.rs` and fuzzed by `fd-fuzz`).
///
/// Thin wrapper over the borrowed path:
/// [`ContainerView::parse`] → [`ContainerView::decode`] →
/// [`AppView::into_app`], run as [`decompile_traced`] with tracing off.
pub fn decompile(bytes: &Bytes) -> Result<AndroidApp, ApkError> {
    decompile_traced(bytes, &fd_trace::Tracer::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Widget, WidgetKind};
    use crate::manifest::ActivityDecl;
    use fd_smali::{ClassDef, MethodDef, ResRef, Stmt};

    fn sample_app(packed: bool) -> AndroidApp {
        let mut app = AndroidApp::new(
            Manifest::new("com.example")
                .with_activity(ActivityDecl::new("com.example.Main").launcher()),
        )
        .with_layout(Layout::new(
            "main",
            Widget::new(WidgetKind::Group)
                .with_child(Widget::new(WidgetKind::Button).with_id("go")),
        ));
        app.classes.insert(
            ClassDef::new("com.example.Main", fd_smali::well_known::ACTIVITY).with_method(
                MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("main"))),
            ),
        );
        app.meta = AppMeta { category: "Tools".into(), downloads: 50_000, packed };
        app.finalize_resources();
        app
    }

    #[test]
    fn pack_decompile_roundtrip() {
        let app = sample_app(false);
        let bytes = pack(&app);
        let back = decompile(&bytes).unwrap();
        assert_eq!(back, app);
    }

    #[test]
    fn packed_app_refuses_decompilation() {
        let app = sample_app(true);
        let bytes = pack(&app);
        assert_eq!(decompile(&bytes), Err(ApkError::Packed));
    }

    #[test]
    fn bad_magic_detected() {
        let mut raw = pack(&sample_app(false)).to_vec();
        raw[0] = b'Z';
        assert_eq!(decompile(&Bytes::from(raw)), Err(ApkError::BadMagic));
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let full = pack(&sample_app(false));
        for cut in 0..full.len() {
            let raw = Bytes::copy_from_slice(&full[..cut]);
            assert!(
                matches!(
                    decompile(&raw),
                    Err(ApkError::Truncated { .. })
                        | Err(ApkError::BadLengthField { .. })
                        | Err(ApkError::Corrupt { .. })
                        | Err(ApkError::BadMagic)
                ),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn truncation_errors_carry_offsets() {
        let full = pack(&sample_app(false));
        // Cut inside the fixed header: a Truncated error at offset 0.
        match decompile(&Bytes::copy_from_slice(&full[..3])) {
            Err(ApkError::Truncated { offset: 0, needed: 4, available: 3 }) => {}
            other => panic!("expected header truncation, got {other:?}"),
        }
        // Cut inside the first length field (header is 8 bytes).
        match decompile(&Bytes::copy_from_slice(&full[..9])) {
            Err(ApkError::Truncated { offset: 8, needed: 4, available: 1 }) => {}
            other => panic!("expected length-field truncation, got {other:?}"),
        }
        // Cut inside the first payload: the length field is intact but
        // over-declares, reported against the manifest section.
        match decompile(&Bytes::copy_from_slice(&full[..14])) {
            Err(ApkError::BadLengthField {
                section: "manifest", offset: 8, available: 2, ..
            }) => {}
            other => panic!("expected manifest length error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_field_is_rejected_per_section() {
        // Corrupting each section's length field to u32::MAX reports that
        // section by name with the field's own offset.
        let full = pack(&sample_app(false)).to_vec();
        let mut field_offset = 8;
        for section in ["manifest", "classes", "layouts", "meta"] {
            let declared =
                u32::from_be_bytes(full[field_offset..field_offset + 4].try_into().unwrap())
                    as usize;
            let mut raw = full.clone();
            raw[field_offset..field_offset + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            match decompile(&Bytes::from(raw)) {
                Err(ApkError::BadLengthField { section: s, offset, .. }) => {
                    assert_eq!(s, section);
                    assert_eq!(offset, field_offset);
                }
                other => panic!("expected {section} length error, got {other:?}"),
            }
            field_offset += 4 + declared;
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut raw = pack(&sample_app(false)).to_vec();
        raw.extend_from_slice(b"junk");
        match decompile(&Bytes::from(raw)) {
            Err(ApkError::Corrupt {
                section: "meta",
                cause: CorruptCause::TrailingBytes { count: 4 },
            }) => {}
            other => panic!("expected trailing-bytes error, got {other:?}"),
        }
    }

    #[test]
    fn view_sections_are_borrowed_slices() {
        let app = sample_app(false);
        let bytes = pack(&app);
        let view = ContainerView::parse(&bytes).unwrap();
        // Every accessor points into the original buffer — zero copies.
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        for section in
            [view.manifest_bytes(), view.classes_bytes(), view.layouts_bytes(), view.meta_bytes()]
        {
            assert!(range.contains(&(section.as_ptr() as usize)));
        }
        assert_eq!(view.classes_str().unwrap().as_bytes(), view.classes_bytes());
    }

    #[test]
    fn view_decode_matches_decompile() {
        let app = sample_app(false);
        let bytes = pack(&app);
        let view = ContainerView::parse(&bytes).unwrap().decode().unwrap();
        assert_eq!(view.clone().into_app(), decompile(&bytes).unwrap());
        assert_eq!(view.manifest, app.manifest);
        assert_eq!(view.meta, app.meta);
    }

    #[test]
    fn future_version_rejected() {
        let mut raw = pack(&sample_app(false)).to_vec();
        raw[5] = 9; // version low byte
        assert_eq!(decompile(&Bytes::from(raw)), Err(ApkError::UnsupportedVersion(9)));
    }

    #[test]
    fn corrupt_manifest_reported() {
        let app = sample_app(false);
        let mut raw = pack(&app).to_vec();
        // Flip a byte inside the manifest JSON payload (section starts at 12).
        raw[13] ^= 0xff;
        assert!(matches!(
            decompile(&Bytes::from(raw)),
            Err(ApkError::Corrupt { section: "manifest", .. })
        ));
    }

    #[test]
    fn traced_decompile_nests_one_span_per_section() {
        use fd_trace::{Phase, Trace, TraceClock, TraceConfig, TraceRecord, TraceSummary, Tracer};
        let bytes = pack(&sample_app(false));
        let tracer = Tracer::new(&TraceConfig::on(), TraceClock::start(), 0);
        let traced = decompile_traced(&bytes, &tracer).unwrap();
        assert_eq!(traced, decompile(&bytes).unwrap());
        let mut trace = Trace::new("decode sections");
        trace.absorb(tracer.finish());
        let spans: Vec<_> = trace
            .records
            .iter()
            .filter_map(|r| match r {
                TraceRecord::Span(span) => Some(span),
                _ => None,
            })
            .collect();
        let outer: Vec<_> = spans.iter().filter(|s| s.phase == Phase::Decompile).collect();
        assert_eq!(outer.len(), 1, "one Decompile span");
        let (start, end) = (outer[0].wall_start_us, outer[0].wall_start_us + outer[0].wall_dur_us);
        let sections: Vec<&str> = spans
            .iter()
            .filter(|s| s.phase == Phase::DecodeSection)
            .inspect(|s| {
                let (s_start, s_end) = (s.wall_start_us, s.wall_start_us + s.wall_dur_us);
                assert!(start <= s_start && s_end <= end, "{} nests in Decompile", s.name);
            })
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(sections, ["manifest", "classes", "layouts", "meta", "into-app"]);
        assert_eq!(spans.len(), 1 + sections.len(), "no other spans");
        // The sections are detail: the top-level total is the Decompile
        // span alone.
        assert!(!Phase::DecodeSection.is_top_level());
        assert_eq!(TraceSummary::compute(&trace).top_level_phase_total_us(), outer[0].wall_dur_us);
    }
}
