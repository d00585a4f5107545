//! The §VII-A corpus study: 217 popular apps, fragment usage, and the
//! packer-protected exclusions.

use fd_appgen::GeneratedApp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The study's findings.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StudyResult {
    /// Apps examined.
    pub total: usize,
    /// Apps that use Fragment components.
    pub fragment_users: usize,
    /// Apps that could not be decompiled (packer-protected).
    pub packed: usize,
    /// Per category: (apps, fragment users).
    pub per_category: BTreeMap<String, (usize, usize)>,
}

impl StudyResult {
    /// Fragment usage in percent.
    pub fn usage_pct(&self) -> f64 {
        self.fragment_users as f64 / self.total.max(1) as f64 * 100.0
    }
}

/// Analyzes the corpus the way the paper's preliminary code analysis did:
/// pack each app, attempt decompilation (packer-protected apps fail and
/// are counted as excluded), and scan the decompiled class pool for
/// Fragment subclasses.
pub fn corpus_study(corpus: &[GeneratedApp]) -> StudyResult {
    let mut result = StudyResult {
        total: corpus.len(),
        fragment_users: 0,
        packed: 0,
        per_category: BTreeMap::new(),
    };
    for gen in corpus {
        let entry = result.per_category.entry(gen.app.meta.category.clone()).or_insert((0, 0));
        entry.0 += 1;

        // Honest pipeline: go through the container.
        let bytes = fd_apk::pack(&gen.app);
        let app = match fd_apk::decompile(&bytes) {
            Ok(app) => app,
            Err(fd_apk::ApkError::Packed) => {
                result.packed += 1;
                // The paper still counts packed apps in the usage study's
                // denominator but cannot analyze them further; usage is
                // judged on what could be analyzed. We follow the same
                // practice: packed apps count as non-users here.
                continue;
            }
            Err(other) => panic!("corpus app failed to decompile: {other}"),
        };
        let uses = app.classes.iter().any(|c| app.classes.is_fragment_class(c.name.as_str()));
        if uses {
            result.fragment_users += 1;
            entry.1 += 1;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_appgen::corpus;

    #[test]
    fn study_reports_91_percent_usage() {
        let corpus = corpus::corpus_217(1);
        let result = corpus_study(&corpus);
        assert_eq!(result.total, 217);
        // Packed apps cannot be inspected; a few fragment users hide
        // behind packers, so the measured rate sits at ≈91% minus the
        // packed ones that would have counted.
        assert!(
            (88.0..=92.0).contains(&result.usage_pct()),
            "usage {:.1}% not ≈91%",
            result.usage_pct()
        );
        assert_eq!(result.packed, corpus::PACKED_APPS);
        assert_eq!(result.per_category.len(), 27);
    }
}
