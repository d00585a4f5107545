//! Corpus scale-out baseline: generate a sharded on-disk corpus, stream
//! it back through the lazy reader, and digest it as four shard slices —
//! the three stages of the `gen-corpus` → `CorpusReader` → shard-merge
//! pipeline — at 10k and 100k tiny apps. Written to `BENCH_corpus.json`
//! so a regression in the streaming hot path (shard encode, index-backed
//! fetch, digest fold) shows up as a diff.
//!
//! The peak-RSS proxy (`VmHWM` from `/proc/self/status`) is recorded per
//! size but deliberately not gated: its job is to document that the
//! reader streams in O(1 app) memory — the 100k corpus must not move it
//! materially past the 10k one.
//!
//! ```text
//! cargo run --release -p fd-bench --bin bench_corpus_stream [sizes...]
//! ```

use fd_apk::corpus::CorpusReader;
use fd_appgen::stream::{write_corpus, StreamConfig};
use fragdroid::{CorpusSource, ShardSlice};
use serde::Serialize;
use std::time::Instant;

/// Shards in the digest pass (the CI smoke's split).
const SHARDS: usize = 4;

/// What `BENCH_corpus.json` records for one corpus size.
#[derive(Serialize)]
struct SizeStats {
    /// Apps in this corpus.
    apps: usize,
    /// Apps generated and packed to disk per second.
    generate_apps_per_second: f64,
    /// Apps fetched and container-decoded back off disk per second.
    stream_apps_per_second: f64,
    /// Apps digest-folded across the four shard slices per second.
    shard_digest_apps_per_second: f64,
    /// Total bytes of the shard files on disk.
    corpus_bytes: u64,
    /// Mean container size, bytes.
    bytes_per_app: u64,
    /// `VmHWM` after this size finished, MiB (monotonic per process;
    /// bounded growth from 10k to 100k is the O(1)-memory evidence).
    peak_rss_mib: f64,
}

#[derive(Serialize)]
struct BenchCorpus {
    /// `available_parallelism` of the host the figures come from.
    nproc: usize,
    /// Per-app size profile used.
    profile: String,
    /// Shard slices in the digest pass.
    shards: usize,
    /// One record per corpus size, ascending.
    sizes: Vec<SizeStats>,
}

/// `VmHWM` (peak resident set) of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn throughput(apps: usize, wall: std::time::Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        apps as f64 / secs
    } else {
        0.0
    }
}

fn bench_size(apps: usize, dir: &std::path::Path) -> SizeStats {
    // Stage 1: generate. One app resident at a time, shards of 1024.
    let config = StreamConfig::tiny(apps, 7);
    let started = Instant::now();
    let manifest = write_corpus(dir, &config).expect("bench corpus dir is writable");
    let generate_apps_per_second = throughput(apps, started.elapsed());
    assert_eq!(manifest.apps, apps);

    let corpus_bytes: u64 = manifest
        .shards
        .iter()
        .map(|s| std::fs::metadata(dir.join(&s.file)).map(|m| m.len()).unwrap_or(0))
        .sum();

    // Stage 2: stream the whole corpus back through the lazy reader,
    // decoding every container (the suite's per-app ingest work).
    let reader = CorpusReader::open(dir).expect("bench corpus reopens");
    let started = Instant::now();
    let mut decoded = 0usize;
    let mut packed = 0usize;
    for i in 0..reader.len() {
        let (container, _inputs) = reader.fetch(i).expect("indexed fetch");
        match fd_apk::decompile(&bytes::Bytes::from(container)) {
            Ok(_) => decoded += 1,
            // The profile plants a realistic share of packer-protected
            // apps; their typed rejection is part of the ingest work.
            Err(fd_apk::ApkError::Packed) => packed += 1,
            Err(other) => panic!("entry {i}: unexpected decode failure {other}"),
        }
    }
    let stream_apps_per_second = throughput(apps, started.elapsed());
    assert_eq!(decoded + packed, apps, "every entry decodes or is a typed rejection");

    // Stage 3: the shard-coordinator digest pass — each of the four
    // slices streams and digest-folds its own sub-range.
    let started = Instant::now();
    for index in 0..SHARDS {
        let slice = ShardSlice::new(&reader, SHARDS, index).expect("valid split");
        slice.digest().expect("shard slice digests");
    }
    let shard_digest_apps_per_second = throughput(apps, started.elapsed());

    SizeStats {
        apps,
        generate_apps_per_second,
        stream_apps_per_second,
        shard_digest_apps_per_second,
        corpus_bytes,
        bytes_per_app: if apps > 0 { corpus_bytes / apps as u64 } else { 0 },
        peak_rss_mib: peak_rss_mib(),
    }
}

fn main() {
    let args: Vec<usize> =
        std::env::args().skip(1).map(|a| a.parse().expect("sizes are app counts")).collect();
    let sizes = if args.is_empty() { vec![10_000, 100_000] } else { args };

    let scratch = std::env::temp_dir().join(format!("fd-bench-corpus-{}", std::process::id()));
    let mut records = Vec::new();
    for apps in sizes {
        let dir = scratch.join(format!("corpus-{apps}"));
        std::fs::create_dir_all(&dir).expect("create bench corpus dir");
        eprintln!("bench_corpus_stream: {apps} apps ...");
        records.push(bench_size(apps, &dir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bench = BenchCorpus { nproc, profile: "tiny".to_string(), shards: SHARDS, sizes: records };
    let json = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    std::fs::write("BENCH_corpus.json", &json).expect("write BENCH_corpus.json");
    println!("{json}");
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!("wrote BENCH_corpus.json");
}
