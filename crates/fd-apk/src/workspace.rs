//! Apktool-style project directories.
//!
//! `apktool d app.apk` produces a directory with the manifest, smali
//! sources and resources; analysts edit it and `apktool b` rebuilds the
//! APK. This module provides the same workflow for the reproduction's
//! containers:
//!
//! ```text
//! <dir>/
//!   AndroidManifest.json        the manifest
//!   apktool.json                app metadata (category, downloads, packer)
//!   smali/<package path>/<Class>.smali    one textual class per file
//!   res/layout/<name>.json      one layout per file
//! ```
//!
//! [`unpack`] writes the directory from an [`AndroidApp`]; [`load`] reads
//! it back (re-parsing every `.smali` file). Unpack → load is lossless.

use crate::app::{AndroidApp, AppMeta};
use crate::error::ApkError;
use crate::layout::Layout;
use crate::manifest::Manifest;
use fd_smali::{parser, printer};
use std::path::Path;
use std::sync::Arc;

/// An I/O or format error while reading/writing a project directory.
#[derive(Debug)]
pub enum WorkspaceError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A JSON file failed to parse.
    Json(String, serde_json::Error),
    /// A smali file failed to parse.
    Smali(String, fd_smali::ParseError),
    /// A value failed to serialize while writing the directory.
    Serialize(String, serde_json::Error),
    /// The container being unpacked failed to decompile.
    Apk(ApkError),
}

impl std::fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkspaceError::Io(e) => write!(f, "workspace I/O error: {e}"),
            WorkspaceError::Json(file, e) => write!(f, "{file}: {e}"),
            WorkspaceError::Smali(file, e) => write!(f, "{file}: {e}"),
            WorkspaceError::Serialize(what, e) => write!(f, "cannot serialize {what}: {e}"),
            WorkspaceError::Apk(e) => write!(f, "container does not decompile: {e}"),
        }
    }
}

impl std::error::Error for WorkspaceError {}

impl From<std::io::Error> for WorkspaceError {
    fn from(e: std::io::Error) -> Self {
        WorkspaceError::Io(e)
    }
}

impl From<ApkError> for WorkspaceError {
    fn from(e: ApkError) -> Self {
        WorkspaceError::Apk(e)
    }
}

fn to_pretty<T: serde::Serialize>(what: &str, value: &T) -> Result<String, WorkspaceError> {
    serde_json::to_string_pretty(value).map_err(|e| WorkspaceError::Serialize(what.to_string(), e))
}

/// Writes the decompiled app as an apktool-style directory.
pub fn unpack(app: &AndroidApp, dir: &Path) -> Result<(), WorkspaceError> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("AndroidManifest.json"), to_pretty("manifest", &app.manifest)?)?;
    std::fs::write(dir.join("apktool.json"), to_pretty("app metadata", &app.meta)?)?;

    let smali_root = dir.join("smali");
    for class in app.classes.iter() {
        let rel: String = class.name.as_str().replace('.', "/");
        let path = smali_root.join(format!("{rel}.smali"));
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, printer::print_class(class))?;
    }

    let layout_root = dir.join("res").join("layout");
    std::fs::create_dir_all(&layout_root)?;
    for layout in app.layouts.values() {
        std::fs::write(
            layout_root.join(format!("{}.json", layout.name)),
            to_pretty("layout", layout)?,
        )?;
    }
    Ok(())
}

fn collect_smali(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_smali(&path, out)?;
        } else if path.extension().map(|e| e == "smali").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Loads an apktool-style directory back into an [`AndroidApp`]
/// (re-parsing every smali file) and re-interns the resource table.
pub fn load(dir: &Path) -> Result<AndroidApp, WorkspaceError> {
    let manifest_path = dir.join("AndroidManifest.json");
    let manifest: Manifest = serde_json::from_str(&std::fs::read_to_string(&manifest_path)?)
        .map_err(|e| WorkspaceError::Json(manifest_path.display().to_string(), e))?;
    let meta_path = dir.join("apktool.json");
    let meta: AppMeta = if meta_path.exists() {
        serde_json::from_str(&std::fs::read_to_string(&meta_path)?)
            .map_err(|e| WorkspaceError::Json(meta_path.display().to_string(), e))?
    } else {
        AppMeta::default()
    };

    let mut app = AndroidApp::new(manifest);
    app.meta = meta;

    let mut smali_files = Vec::new();
    collect_smali(&dir.join("smali"), &mut smali_files)?;
    smali_files.sort();
    for path in smali_files {
        let text = std::fs::read_to_string(&path)?;
        let classes = parser::parse_classes(&text)
            .map_err(|e| WorkspaceError::Smali(path.display().to_string(), e))?;
        for class in classes {
            app.classes.insert(class);
        }
    }

    let layout_dir = dir.join("res").join("layout");
    if layout_dir.exists() {
        let mut paths: Vec<_> = std::fs::read_dir(&layout_dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        paths.sort();
        for path in paths {
            if path.extension().map(|e| e == "json").unwrap_or(false) {
                let layout: Layout = serde_json::from_str(&std::fs::read_to_string(&path)?)
                    .map_err(|e| WorkspaceError::Json(path.display().to_string(), e))?;
                app.layouts.insert(layout.name.clone(), Arc::new(layout));
            }
        }
    }

    app.finalize_resources();
    Ok(app)
}

/// Convenience: unpack a packed container file's contents to a directory.
/// A malformed container surfaces as [`WorkspaceError::Apk`] with the
/// typed decode error (byte offsets intact) instead of a smuggled I/O
/// error.
pub fn unpack_container(bytes: &bytes::Bytes, dir: &Path) -> Result<(), WorkspaceError> {
    let app = crate::decompile(bytes)?;
    unpack(&app, dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Widget, WidgetKind};
    use crate::manifest::ActivityDecl;
    use fd_smali::{well_known, ClassDef, MethodDef, ResRef, Stmt};

    fn sample() -> AndroidApp {
        let mut app = AndroidApp::new(
            Manifest::new("ws.demo").with_activity(ActivityDecl::new("ws.demo.Main").launcher()),
        );
        app.layouts.insert(
            "main".into(),
            Arc::new(Layout::new(
                "main",
                Widget::new(WidgetKind::Group)
                    .with_child(Widget::new(WidgetKind::Button).with_id("go")),
            )),
        );
        app.classes.insert(ClassDef::new("ws.demo.Main", well_known::ACTIVITY).with_method(
            MethodDef::new("onCreate").push(Stmt::SetContentView(ResRef::layout("main"))),
        ));
        app.classes.insert(ClassDef::new("ws.demo.sub.Helper", well_known::OBJECT));
        app.meta.category = "Tools".into();
        app.meta.downloads = 1_000_000;
        app.finalize_resources();
        app
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fd-ws-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn unpack_load_is_lossless() {
        let app = sample();
        let dir = tmpdir("roundtrip");
        unpack(&app, &dir).expect("unpack");
        // The expected files exist.
        assert!(dir.join("AndroidManifest.json").exists());
        assert!(dir.join("smali/ws/demo/Main.smali").exists());
        assert!(dir.join("smali/ws/demo/sub/Helper.smali").exists());
        assert!(dir.join("res/layout/main.json").exists());

        let back = load(&dir).expect("load");
        assert_eq!(back, app);
    }

    #[test]
    fn edited_smali_is_picked_up_on_load() {
        // The analyst workflow: unpack, edit a class, rebuild.
        let app = sample();
        let dir = tmpdir("edit");
        unpack(&app, &dir).expect("unpack");
        let path = dir.join("smali/ws/demo/sub/Helper.smali");
        let patched = std::fs::read_to_string(&path).unwrap().replace(
            ".end class",
            ".method public injected()\n    finish\n.end method\n.end class",
        );
        std::fs::write(&path, patched).unwrap();

        let back = load(&dir).expect("load");
        assert!(back.classes.get("ws.demo.sub.Helper").unwrap().method("injected").is_some());
    }

    #[test]
    fn malformed_smali_reports_the_file() {
        let app = sample();
        let dir = tmpdir("bad");
        unpack(&app, &dir).expect("unpack");
        std::fs::write(dir.join("smali/ws/demo/Main.smali"), "this is not smali").unwrap();
        match load(&dir) {
            Err(WorkspaceError::Smali(file, _)) => assert!(file.contains("Main.smali")),
            other => panic!("expected smali error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_container_reports_typed_apk_error() {
        let dir = tmpdir("apk-err");
        match unpack_container(&bytes::Bytes::from_static(b"FAPK\x00\x01"), &dir) {
            Err(WorkspaceError::Apk(ApkError::Truncated { offset: 6, .. })) => {}
            other => panic!("expected typed truncation, got {other:?}"),
        }
    }

    #[test]
    fn container_unpack_roundtrip() {
        let app = sample();
        let bytes = crate::pack(&app);
        let dir = tmpdir("container");
        unpack_container(&bytes, &dir).expect("unpack container");
        assert_eq!(load(&dir).unwrap(), app);
    }
}
