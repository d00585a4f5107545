//! Symbolic resource references (`@id/login_button`, `@layout/main`).
//!
//! Android identifies resources by a unique numeric resource-ID; the
//! decompiled code and layout files reference them symbolically. The
//! paper's Algorithm 3 (resource dependency) matches the IDs that appear
//! in both layouts and code. In this reproduction the symbolic form plays
//! the role of the numeric ID; `fd-apk`'s resource table assigns the
//! numeric values when an app is packed.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// The namespace a resource reference lives in, mirroring the `R.<kind>`
/// classes of a real app.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResKind {
    /// A widget identifier (`R.id.*`).
    Id,
    /// A layout file (`R.layout.*`).
    Layout,
    /// A menu resource (`R.menu.*`).
    Menu,
    /// A string resource (`R.string.*`).
    String,
}

impl ResKind {
    /// The lowercase namespace token used in the textual syntax.
    pub fn token(self) -> &'static str {
        match self {
            ResKind::Id => "id",
            ResKind::Layout => "layout",
            ResKind::Menu => "menu",
            ResKind::String => "string",
        }
    }

    /// Parses the namespace token.
    pub fn from_token(tok: &str) -> Option<Self> {
        Some(match tok {
            "id" => ResKind::Id,
            "layout" => ResKind::Layout,
            "menu" => ResKind::Menu,
            "string" => ResKind::String,
            _ => return None,
        })
    }
}

/// A resource entry name: a widget or container id (`login_button`), a
/// layout name (`lay_main`), a drawer id.
///
/// Backed by `Arc<str>`, like [`crate::ClassName`]: the same id travels
/// from the decoded layout and code through the simulator's screens,
/// the widgets it reports, the driver's operations and UI signatures,
/// and the static phase's maps, and each hop is a refcount bump rather
/// than a copy. It serializes as a plain string and dereferences to
/// `str`, so maps keyed by it are looked up with a `&str`.
///
/// # Example
///
/// ```
/// use fd_smali::ResName;
/// use std::collections::BTreeMap;
///
/// let id = ResName::new("login_button");
/// let mut owners = BTreeMap::new();
/// owners.insert(id.clone(), "LoginActivity");
/// assert_eq!(owners.get("login_button"), Some(&"LoginActivity"));
/// assert_eq!(id, "login_button");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ResName(Arc<str>);

impl ResName {
    /// Creates a name, copying it once into the shared buffer.
    pub fn new(name: impl AsRef<str>) -> Self {
        ResName(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for ResName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for ResName {
    /// Prints the name quoted, as `str` does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for ResName {
    /// Honours width and alignment, as `str` does.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(&self.0)
    }
}

impl From<&str> for ResName {
    fn from(s: &str) -> Self {
        ResName(Arc::from(s))
    }
}

impl From<String> for ResName {
    fn from(s: String) -> Self {
        ResName(Arc::from(s))
    }
}

impl Borrow<str> for ResName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq<&str> for ResName {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

/// A symbolic resource reference, printed as `@kind/name`.
///
/// # Example
///
/// ```
/// use fd_smali::{ResKind, ResRef};
///
/// let r = ResRef::id("login_button");
/// assert_eq!(r.kind, ResKind::Id);
/// assert_eq!(r.to_string(), "@id/login_button");
/// assert_eq!(ResRef::parse("@id/login_button"), Some(r));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ResRef {
    /// The resource namespace.
    pub kind: ResKind,
    /// The symbolic entry name.
    pub name: ResName,
}

impl ResRef {
    /// Creates a reference in the given namespace.
    pub fn new(kind: ResKind, name: impl Into<ResName>) -> Self {
        ResRef { kind, name: name.into() }
    }

    /// Shorthand for an `@id/...` reference.
    pub fn id(name: impl Into<ResName>) -> Self {
        ResRef::new(ResKind::Id, name)
    }

    /// Shorthand for an `@layout/...` reference.
    pub fn layout(name: impl Into<ResName>) -> Self {
        ResRef::new(ResKind::Layout, name)
    }

    /// Shorthand for an `@menu/...` reference.
    pub fn menu(name: impl Into<ResName>) -> Self {
        ResRef::new(ResKind::Menu, name)
    }

    /// Parses the `@kind/name` form.
    pub fn parse(s: &str) -> Option<Self> {
        let (kind, name) = Self::split(s)?;
        Some(ResRef::new(kind, name))
    }

    /// Splits the `@kind/name` form into its namespace and the borrowed
    /// name, accepting exactly what [`ResRef::parse`] accepts without
    /// allocating the name.
    pub fn split(s: &str) -> Option<(ResKind, &str)> {
        let rest = s.strip_prefix('@')?;
        let (kind, name) = rest.split_once('/')?;
        if name.is_empty() {
            return None;
        }
        Some((ResKind::from_token(kind)?, name))
    }
}

impl fmt::Display for ResRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}/{}", self.kind.token(), self.name)
    }
}

impl fmt::Debug for ResRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ResRef({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        for r in [
            ResRef::id("a"),
            ResRef::layout("main"),
            ResRef::menu("drawer"),
            ResRef::new(ResKind::String, "title"),
        ] {
            assert_eq!(ResRef::parse(&r.to_string()), Some(r));
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(ResRef::parse("id/a"), None);
        assert_eq!(ResRef::parse("@id"), None);
        assert_eq!(ResRef::parse("@id/"), None);
        assert_eq!(ResRef::parse("@nope/a"), None);
    }
}
