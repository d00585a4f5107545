//! Integration tests asserting the paper's headline numbers end to end —
//! the executable form of EXPERIMENTS.md.

use fragdroid_repro::report::table1::{averages, run_table1, PAPER_TABLE1};
use fragdroid_repro::report::table2::build_table2;

#[test]
fn headline_numbers_reproduce() {
    // Table I.
    let results = run_table1();
    let rows: Vec<_> = results.iter().map(|(r, _)| r.clone()).collect();
    for row in &rows {
        let (_, (pa_v, pa_s), (pf_v, pf_s), _) =
            PAPER_TABLE1.iter().find(|(p, ..)| *p == row.package).expect("paper row");
        assert_eq!(row.activities.sum, *pa_s, "{}: activity sum", row.package);
        assert_eq!(row.fragments.sum, *pf_s, "{}: fragment sum", row.package);
        assert_eq!(row.activities.visited, *pa_v, "{}: activity visited", row.package);
        assert_eq!(row.fragments.visited, *pf_v, "{}: fragment visited", row.package);
    }
    let (a, f, fiva) = averages(&rows);
    assert!((a - 71.94).abs() < 1.0, "activity average {a:.2}% vs paper 71.94%");
    assert!((f - 66.0).abs() < 1.0, "fragment average {f:.2}% vs paper 66%");
    assert!(fiva > 50.0, "paper: fragments-in-visited average is 'more than 50%'");
    // "for a third of tested apps, this coverage rate has reached 100%"
    let full = rows.iter().filter(|r| r.fragments_in_visited.rate() >= 100.0).count();
    assert!(full * 3 >= rows.len(), "{full}/15 apps at 100% fiva; paper says ≥ a third");

    // Table II, from the same runs.
    let reports: Vec<_> = results.into_iter().map(|(row, rep)| (row.package, rep)).collect();
    let t2 = build_table2(&reports);
    assert_eq!(t2.distinct_apis(), 46);
    assert_eq!(t2.total_invocations, 269);
    assert!((t2.fragment_share() - 0.49).abs() < 0.02);
    assert!(t2.missed_by_activity_tools() >= 0.096);
}

#[test]
fn corpus_study_reproduces() {
    let corpus = fragdroid_repro::appgen::corpus::corpus_217(1);
    let study = fragdroid_repro::report::study::corpus_study(&corpus);
    assert_eq!(study.total, 217);
    assert!((study.usage_pct() - 91.0).abs() < 1.0, "usage {:.1}%", study.usage_pct());
    assert_eq!(study.per_category.len(), 27);
}

/// The committed `EXPERIMENTS-generated.md` is exactly what a fresh run
/// of every experiment renders, so no number it prints can drift.
#[test]
fn generated_experiments_match_the_committed_file() {
    let committed = std::fs::read_to_string(fd_bench::GENERATED_FILE)
        .expect("EXPERIMENTS-generated.md is committed at the workspace root");
    let fresh = fd_bench::generate().markdown();
    if committed == fresh {
        return;
    }
    // Padding the shorter text makes the search end: texts that differ
    // differ by the longer one's last line at the latest.
    fn padded(text: &str) -> impl Iterator<Item = &str> {
        text.split('\n').chain(std::iter::repeat("<end of file>"))
    }
    let (line, (old, new)) = padded(&committed)
        .zip(padded(&fresh))
        .enumerate()
        .find(|(_, (old, new))| old != new)
        .expect("texts that differ differ on some line");
    panic!(
        "EXPERIMENTS-generated.md is stale; regenerate it with `{}`.\n\
         First difference, line {}:\n  committed: {old}\n  generated: {new}",
        fd_bench::REGENERATE,
        line + 1,
    );
}
