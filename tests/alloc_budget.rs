//! Allocation budgets for the explore loop and for ingest (decode plus
//! static extraction), as counts. A counting global allocator tallies
//! the allocations this test's own thread makes while FragDroid runs the
//! 15 Table I apps, and the tests bound them per injected event and per
//! app. The simulator and the driver are deterministic, so
//! the count repeats exactly from run to run; no timing is involved.
//!
//! The bound sits just above the measured value. A run (static phase
//! included) once cost 38.9 allocations per event here, when every UI
//! signature, widget id and monitor record was copied as owned strings;
//! it costs 18.7 with shared resource names and a held signature. A
//! change that brings copies back fails this test; one that removes more
//! lets the bound come down.

use fragdroid_repro::apk;
use fragdroid_repro::appgen::paper_apps::all_paper_apps;
use fragdroid_repro::stat;
use fragdroid_repro::tool::{FragDroid, FragDroidConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations per injected event may not exceed this.
const MAX_ALLOCS_PER_EVENT: f64 = 19.0;

/// Allocations per Table I app that decode plus static extraction may
/// not exceed. They cost 1,805 per app when every statement pass built
/// its own class sets, the resource table was grown one probe and two
/// tree inserts at a time and each name was copied twice; 611.5 with the
/// code index, the bulk-built table and interned resource names.
const MAX_ALLOCS_PER_INGEST: f64 = 620.0;

thread_local! {
    /// Allocations (and reallocations) made by this thread. Const
    /// initialized and without a destructor, so touching it from the
    /// allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread. Other tests' threads are
/// counted in their own cells, so they never disturb this one.
struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn table1_explore_stays_within_its_allocation_budget() {
    let tool = FragDroid::new(FragDroidConfig::default());
    let apps = all_paper_apps();
    let (mut allocs, mut events) = (0u64, 0u64);
    for (_, gen) in &apps {
        let before = allocations();
        let report = tool.run(&gen.app, &gen.known_inputs);
        allocs += allocations() - before;
        events += report.events_injected as u64;
    }
    assert!(events > 1_000, "the Table I apps inject events: {events}");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event <= MAX_ALLOCS_PER_EVENT,
        "{allocs} allocations over {events} events = {per_event:.2} per event, \
         over the budget of {MAX_ALLOCS_PER_EVENT}"
    );
}

#[test]
fn table1_ingest_stays_within_its_allocation_budget() {
    let apps = all_paper_apps();
    let containers: Vec<_> = apps.iter().map(|(_, gen)| apk::pack(&gen.app)).collect();
    let mut allocs = 0u64;
    for ((_, gen), bytes) in apps.iter().zip(&containers) {
        let before = allocations();
        let app = apk::decompile(bytes).expect("Table I apps decode");
        let info = stat::extract(&app, &gen.known_inputs);
        allocs += allocations() - before;
        drop((app, info));
    }
    let per_app = allocs as f64 / apps.len() as f64;
    assert!(
        per_app <= MAX_ALLOCS_PER_INGEST,
        "{allocs} allocations over {} apps = {per_app:.1} per app, \
         over the budget of {MAX_ALLOCS_PER_INGEST}",
        apps.len()
    );
}
