//! Class and method names, with conversions between the dotted Java form
//! (`com.example.MainActivity`) and the smali descriptor form
//! (`Lcom/example/MainActivity;`).

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A fully-qualified class name in dotted Java form.
///
/// Inner classes use the `$` separator, as in real dex files
/// (`com.example.MainActivity$1`).
///
/// # Example
///
/// ```
/// use fd_smali::ClassName;
///
/// let name = ClassName::new("com.example.MainActivity$1");
/// assert_eq!(name.simple_name(), "MainActivity$1");
/// assert_eq!(name.package(), "com.example");
/// assert_eq!(name.outer_class().unwrap().as_str(), "com.example.MainActivity");
/// assert_eq!(name.descriptor(), "Lcom/example/MainActivity$1;");
/// ```
///
/// Backed by `Arc<str>`: cloning a name (which the parser, the static
/// phase and the explorer all do constantly) is a refcount bump, not an
/// allocation, and the smali parser's interner makes repeated mentions of
/// the same class share one buffer.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ClassName(Arc<str>);

impl ClassName {
    /// Creates a class name from its dotted Java form, copying it once
    /// into the shared buffer.
    pub fn new(dotted: impl AsRef<str>) -> Self {
        ClassName(Arc::from(dotted.as_ref()))
    }

    /// Parses a smali descriptor such as `Lcom/example/Foo;`.
    ///
    /// Returns `None` if the string is not a well-formed `L…;` descriptor.
    pub fn from_descriptor(desc: &str) -> Option<Self> {
        let inner = desc.strip_prefix('L')?.strip_suffix(';')?;
        if inner.is_empty() || inner.contains('.') {
            return None;
        }
        Some(ClassName(Arc::from(inner.replace('/', "."))))
    }

    /// The dotted Java form, e.g. `com.example.Foo`.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The smali descriptor form, e.g. `Lcom/example/Foo;`.
    pub fn descriptor(&self) -> String {
        format!("L{};", self.0.replace('.', "/"))
    }

    /// The unqualified name after the last `.`.
    pub fn simple_name(&self) -> &str {
        self.0.rsplit('.').next().unwrap_or(&self.0)
    }

    /// The package prefix, or `""` for the default package.
    pub fn package(&self) -> &str {
        match self.0.rfind('.') {
            Some(idx) => &self.0[..idx],
            None => "",
        }
    }

    /// For an inner class (`Foo$Bar`, `Foo$1`), the enclosing class name.
    pub fn outer_class(&self) -> Option<ClassName> {
        let dollar = self.0.rfind('$')?;
        Some(ClassName(Arc::from(&self.0[..dollar])))
    }

    /// Whether this names an inner class (contains `$` in its simple name).
    pub fn is_inner(&self) -> bool {
        self.simple_name().contains('$')
    }

    /// The synthetic name of the `n`-th anonymous inner class, as javac
    /// would emit it (`Foo$1`, `Foo$2`, …).
    pub fn anonymous_inner(&self, n: usize) -> ClassName {
        ClassName(Arc::from(format!("{}${}", self.0, n)))
    }
}

impl fmt::Debug for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassName({})", self.0)
    }
}

impl fmt::Display for ClassName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ClassName {
    fn from(s: &str) -> Self {
        ClassName::new(s)
    }
}

impl From<String> for ClassName {
    fn from(s: String) -> Self {
        ClassName::new(s)
    }
}

impl Borrow<str> for ClassName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// A method name within a class, e.g. `onCreate` or `<init>`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct MethodName(Arc<str>);

impl MethodName {
    /// Creates a method name, copying it once into the shared buffer.
    pub fn new(name: impl AsRef<str>) -> Self {
        MethodName(Arc::from(name.as_ref()))
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The constructor name, `<init>`.
    pub fn ctor() -> Self {
        MethodName(Arc::from("<init>"))
    }

    /// Whether this is the constructor.
    pub fn is_ctor(&self) -> bool {
        self.0.as_ref() == "<init>"
    }
}

impl fmt::Debug for MethodName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MethodName({})", self.0)
    }
}

impl fmt::Display for MethodName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for MethodName {
    fn from(s: &str) -> Self {
        MethodName::new(s)
    }
}

impl From<String> for MethodName {
    fn from(s: String) -> Self {
        MethodName::new(s)
    }
}

impl Borrow<str> for MethodName {
    fn borrow(&self) -> &str {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_roundtrip() {
        let n = ClassName::new("com.example.MainActivity");
        assert_eq!(n.descriptor(), "Lcom/example/MainActivity;");
        assert_eq!(ClassName::from_descriptor(&n.descriptor()), Some(n));
    }

    #[test]
    fn from_descriptor_rejects_malformed() {
        assert_eq!(ClassName::from_descriptor("com.example.Foo"), None);
        assert_eq!(ClassName::from_descriptor("Lcom/example/Foo"), None);
        assert_eq!(ClassName::from_descriptor("L;"), None);
        assert_eq!(ClassName::from_descriptor("Lcom.example.Foo;"), None);
    }

    #[test]
    fn simple_name_and_package() {
        let n = ClassName::new("com.example.Foo");
        assert_eq!(n.simple_name(), "Foo");
        assert_eq!(n.package(), "com.example");
        let d = ClassName::new("Default");
        assert_eq!(d.simple_name(), "Default");
        assert_eq!(d.package(), "");
    }

    #[test]
    fn inner_class_relationships() {
        let outer = ClassName::new("com.example.Main");
        let inner = outer.anonymous_inner(1);
        assert_eq!(inner.as_str(), "com.example.Main$1");
        assert!(inner.is_inner());
        assert!(!outer.is_inner());
        assert_eq!(inner.outer_class(), Some(outer));
    }

    #[test]
    fn nested_inner_class_outer_is_nearest() {
        let n = ClassName::new("a.B$C$1");
        assert_eq!(n.outer_class().unwrap().as_str(), "a.B$C");
    }

    #[test]
    fn method_name_ctor() {
        assert!(MethodName::ctor().is_ctor());
        assert!(!MethodName::new("onCreate").is_ctor());
    }
}
