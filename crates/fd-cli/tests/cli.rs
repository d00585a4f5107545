//! CLI integration tests: drive the subcommand dispatcher end to end
//! against real files in a temp directory.

use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fd-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

#[test]
fn gen_then_info_then_run_roundtrip() {
    let out = tmp("app.fapk");
    let out_str = out.to_str().unwrap();

    fd_cli::run(&argv(&["gen", out_str, "--template", "quickstart"])).expect("gen");
    assert!(out.exists(), "container written");
    let inputs = PathBuf::from(format!("{out_str}.inputs.json"));
    assert!(inputs.exists(), "inputs file written");

    // The generated container decompiles and matches the template.
    let app = fd_cli::load_app(out_str).expect("load");
    assert_eq!(app.package(), "com.example.quickstart");

    // Inputs file parses to the known gate secret.
    let map = fd_cli::load_inputs(Some(inputs.to_str().unwrap())).expect("inputs");
    assert_eq!(map.get("input_settings_0").map(String::as_str), Some("pin-1234"));

    // Full pipeline subcommands succeed.
    fd_cli::run(&argv(&["info", out_str])).expect("info");
    fd_cli::run(&argv(&["dot", out_str])).expect("dot");
    fd_cli::run(&argv(&["dump", out_str])).expect("dump");
    fd_cli::run(&argv(&["run", out_str, "--inputs", inputs.to_str().unwrap(), "--budget", "5000"]))
        .expect("run");
    fd_cli::run(&argv(&["static", out_str])).expect("static");
}

#[test]
fn gen_random_respects_seed_and_size() {
    let a = tmp("rand-a.fapk");
    let b = tmp("rand-b.fapk");
    for out in [&a, &b] {
        fd_cli::run(&argv(&[
            "gen",
            out.to_str().unwrap(),
            "--random",
            "--seed",
            "9",
            "--size",
            "5",
        ]))
        .expect("gen random");
    }
    // Same seed → identical bytes.
    assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    let app = fd_cli::load_app(a.to_str().unwrap()).unwrap();
    assert_eq!(app.manifest.activities.len(), 5);
}

/// `gen` refuses a flag its choice of app would ignore: `--seed` or
/// `--size` without `--random`, `--template` with it. Nothing is written.
#[test]
fn gen_refuses_flags_its_choice_of_app_ignores() {
    let out = tmp("ignored-flags.fapk");
    let path = out.to_str().unwrap();
    for (flags, says) in [
        (&["--size", "3"][..], "--size applies to --random apps"),
        (&["--seed", "3"][..], "--seed applies to --random apps"),
        (&["--template", "fig1-tabs", "--seed", "3"][..], "--seed applies to --random apps"),
        (&["--template", "fig1-tabs", "--random"][..], "--template and --random each pick"),
    ] {
        let _ = std::fs::remove_file(&out);
        let err = fd_cli::run(&[argv(&["gen", path]), argv(flags)].concat())
            .expect_err("an ignored flag is refused");
        assert_eq!(err.exit_code(), 1, "{flags:?}");
        assert!(err.to_string().contains(says), "{flags:?}: {err}");
        assert!(!out.exists(), "{flags:?} wrote an app");
    }
}

/// `--seed` picks the in-memory corpus, so next to `--corpus DIR` it is
/// refused before any work, like a non-zero `--limit`.
#[test]
fn seed_is_refused_with_an_on_disk_corpus() {
    let dir = tmp("seeded-elsewhere");
    let dir = dir.to_str().unwrap();
    let corpus = argv(&["corpus", "--corpus", dir, "--seed", "99"]);
    let dispatch = argv(&["dispatch", "--connect", "127.0.0.1:1", "--corpus", dir, "--seed", "99"]);
    for command in [corpus, dispatch] {
        let err = fd_cli::run(&command).expect_err("--seed with --corpus is refused");
        assert_eq!(err.exit_code(), 1, "{command:?}");
        assert!(
            err.to_string().contains("--seed applies to the in-memory corpus"),
            "{command:?}: {err}"
        );
    }
}

#[test]
fn errors_are_reported_not_panicked() {
    assert!(fd_cli::run(&argv(&["frobnicate"])).is_err());
    assert!(fd_cli::run(&argv(&["info", "/nonexistent/x.fapk"])).is_err());
    assert!(fd_cli::run(&argv(&["gen", tmp("t.fapk").to_str().unwrap(), "--template", "nope"]))
        .is_err());
    // Bad inputs file.
    let bad = tmp("bad.json");
    std::fs::write(&bad, "{ not json").unwrap();
    assert!(fd_cli::load_inputs(Some(bad.to_str().unwrap())).is_err());
    // Help and templates are fine with no further args.
    assert!(fd_cli::run(&argv(&["help"])).is_ok());
    assert!(fd_cli::run(&argv(&["templates"])).is_ok());
    assert!(fd_cli::run(&[]).is_ok());
}

#[test]
fn trace_out_writes_both_sinks_and_trace_summarizes_them() {
    let apk = tmp("traced.fapk");
    let trace_path = tmp("run-trace.jsonl");
    let apk_str = apk.to_str().unwrap();
    let trace_str = trace_path.to_str().unwrap();
    fd_cli::run(&argv(&["gen", apk_str, "--template", "quickstart"])).expect("gen");
    fd_cli::run(&argv(&[
        "run",
        apk_str,
        "--budget",
        "5000",
        "--fault-rate",
        "0.2",
        "--fault-seed",
        "7",
        "--trace-out",
        trace_str,
    ]))
    .expect("traced run");

    // JSONL sink parses and covers the whole pipeline.
    let jsonl = std::fs::read_to_string(&trace_path).expect("jsonl written");
    let trace = fd_trace::Trace::from_jsonl(&jsonl).expect("jsonl parses");
    let summary = fd_trace::TraceSummary::compute(&trace);
    assert!(summary.spans > 0, "spans recorded");
    assert!(summary.events_dispatched > 0, "dispatches recorded");
    for phase in ["decompile", "static", "explore"] {
        assert!(summary.phase_totals_us.contains_key(phase), "phase {phase} traced");
    }

    // Chrome sink is valid trace_event JSON with complete events.
    let chrome_raw =
        std::fs::read_to_string(format!("{trace_str}.chrome.json")).expect("chrome written");
    let chrome: serde_json::Value = serde_json::from_str(&chrome_raw).expect("chrome parses");
    match chrome {
        serde_json::Value::Object(root) => {
            assert!(
                matches!(root.get("traceEvents"), Some(serde_json::Value::Array(a)) if !a.is_empty())
            );
        }
        other => panic!("chrome root must be an object, got {other:?}"),
    }

    // The trace subcommand reads the capture back in both output modes.
    fd_cli::run(&argv(&["trace", trace_str])).expect("trace renders");
    fd_cli::run(&argv(&["trace", trace_str, "--json"])).expect("trace --json");
    // A malformed file is an error, not a panic.
    let bad = tmp("bad-trace.jsonl");
    std::fs::write(&bad, "{ not json\n").unwrap();
    assert!(fd_cli::run(&argv(&["trace", bad.to_str().unwrap()])).is_err());
}

#[test]
fn corpus_trace_out_captures_suite_and_app_spans() {
    let trace_path = tmp("corpus-trace.jsonl");
    let trace_str = trace_path.to_str().unwrap();
    fd_cli::run(&argv(&[
        "corpus",
        "--limit",
        "4",
        "--workers",
        "2",
        "--fault-rate",
        "0.25",
        "--trace-out",
        trace_str,
        "--json",
    ]))
    .expect("traced corpus");
    let jsonl = std::fs::read_to_string(&trace_path).expect("jsonl written");
    let trace = fd_trace::Trace::from_jsonl(&jsonl).expect("jsonl parses");
    let summary = fd_trace::TraceSummary::compute(&trace);
    assert!(summary.phase_totals_us.contains_key("suite"), "coordinator span present");
    assert_eq!(summary.slowest_apps.len().min(4), summary.slowest_apps.len());
    assert!(!summary.slowest_apps.is_empty(), "per-app spans present");
    assert!(summary.app_total_us > 0);
}

#[test]
fn unpack_edit_repack_workflow() {
    let apk = tmp("wf.fapk");
    let dir = tmp("wf-project");
    let rebuilt = tmp("wf-rebuilt.fapk");
    fd_cli::run(&argv(&["gen", apk.to_str().unwrap(), "--template", "fig1-tabs"])).unwrap();
    fd_cli::run(&argv(&["unpack", apk.to_str().unwrap(), "--out", dir.to_str().unwrap()])).unwrap();
    assert!(dir.join("smali/fig1/manga/Reader.smali").exists());
    fd_cli::run(&argv(&["repack", dir.to_str().unwrap(), "--out", rebuilt.to_str().unwrap()]))
        .unwrap();
    // The rebuilt container decompiles to the identical app.
    let a = fd_cli::load_app(apk.to_str().unwrap()).unwrap();
    let b = fd_cli::load_app(rebuilt.to_str().unwrap()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn replay_and_java_subcommands() {
    let apk = tmp("rr.fapk");
    fd_cli::run(&argv(&["gen", apk.to_str().unwrap(), "--template", "fig2-drawer"])).unwrap();

    // Record a session programmatically, save it, replay through the CLI.
    let app = fd_cli::load_app(apk.to_str().unwrap()).unwrap();
    let mut rec = fd_droidsim::Recorder::new(fd_droidsim::Device::new(app));
    rec.step(fd_droidsim::Op::Launch).unwrap();
    rec.step(fd_droidsim::Op::Click("hamburger_gallery".into())).unwrap();
    let trace = rec.finish();
    let trace_path = tmp("session.json");
    std::fs::write(&trace_path, trace.to_json()).unwrap();
    fd_cli::run(&argv(&["replay", apk.to_str().unwrap(), trace_path.to_str().unwrap()]))
        .expect("faithful replay");

    // A tampered trace fails with a divergence error.
    let mut bad = trace.clone();
    if let Some(sig) = &mut bad.steps[1].after {
        let state = fd_droidsim::UiState {
            activity: "fig2.wallpapers.Ghost".into(),
            ..fd_droidsim::UiState::clone(sig)
        };
        *sig = fd_droidsim::UiSignature::new(state);
    }
    let bad_path = tmp("bad-session.json");
    std::fs::write(&bad_path, bad.to_json()).unwrap();
    let err = fd_cli::run(&argv(&["replay", apk.to_str().unwrap(), bad_path.to_str().unwrap()]))
        .expect_err("divergence must be reported");
    assert!(err.to_string().contains("DIVERGED"));

    // Java emission runs.
    fd_cli::run(&argv(&["java", apk.to_str().unwrap()])).expect("java emission");
}

#[test]
fn malformed_containers_get_the_rejected_exit_code_and_a_byte_offset() {
    // Truncated header: typed rejection, exit code 2, offset in the message.
    let truncated = tmp("truncated.fapk");
    std::fs::write(&truncated, b"FAPK\x00\x01").unwrap();
    let err = fd_cli::run(&argv(&["info", truncated.to_str().unwrap()])).unwrap_err();
    assert_eq!(err.exit_code(), 2, "rejected input has its own exit code: {err}");
    let msg = err.to_string();
    assert!(msg.contains("rejected input"), "{msg}");
    assert!(msg.contains("truncated"), "{msg}");
    assert!(msg.contains("byte 6"), "{msg}");

    // Garbage bytes: still a quarantine, not a crash or generic failure.
    let garbage = tmp("garbage.fapk");
    std::fs::write(&garbage, b"definitely not a container").unwrap();
    let err = fd_cli::run(&argv(&["run", garbage.to_str().unwrap()])).unwrap_err();
    assert_eq!(err.exit_code(), 2);
    assert!(err.to_string().contains("magic"), "{err}");

    // A missing file is a tool failure (exit 1), not a quarantine.
    let err = fd_cli::run(&argv(&["info", "/nonexistent/x.fapk"])).unwrap_err();
    assert_eq!(err.exit_code(), 1);
    // So is an unknown subcommand.
    let err = fd_cli::run(&argv(&["frobnicate"])).unwrap_err();
    assert_eq!(err.exit_code(), 1);
}

#[test]
fn fuzz_subcommand_runs_clean_deterministic_campaigns() {
    let out = tmp("fuzz-repros");
    let _ = std::fs::remove_dir_all(&out);
    fd_cli::run(&argv(&["fuzz", "--seed", "4", "--mutants", "90", "--out", out.to_str().unwrap()]))
        .expect("campaign is clean");
    // Clean campaign leaves no reproducers behind.
    let entries = std::fs::read_dir(&out).map(|it| it.count()).unwrap_or(0);
    assert_eq!(entries, 0);

    // JSON mode and a single-target campaign also run.
    fd_cli::run(&argv(&["fuzz", "--seed", "4", "--mutants", "30", "--json"])).expect("json mode");
    fd_cli::run(&argv(&["fuzz", "--mutants", "30", "--target", "smali"])).expect("one target");

    // A bogus target is a usage failure.
    let err = fd_cli::run(&argv(&["fuzz", "--target", "bogus"])).unwrap_err();
    assert_eq!(err.exit_code(), 1);
    assert!(err.to_string().contains("bogus"), "{err}");
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn fuzz_trace_out_records_the_fuzz_phase() {
    let trace_path = tmp("fuzz-trace.jsonl");
    fd_cli::run(&argv(&[
        "fuzz",
        "--seed",
        "2",
        "--mutants",
        "30",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]))
    .expect("traced campaign");
    let jsonl = std::fs::read_to_string(&trace_path).expect("jsonl written");
    let trace = fd_trace::Trace::from_jsonl(&jsonl).expect("jsonl parses");
    let summary = fd_trace::TraceSummary::compute(&trace);
    assert!(summary.phase_totals_us.contains_key("fuzz"), "fuzz span present");
}

#[test]
fn corpus_checkpoint_resume_reproduces_the_uninterrupted_digest() {
    let journal = tmp("cli-resume.ckpt");
    let journal2 = tmp("cli-uninterrupted.ckpt");
    for j in [&journal, &journal2] {
        let _ = std::fs::remove_file(j);
    }
    let base = [
        "corpus",
        "--seed",
        "5",
        "--limit",
        "8",
        "--fault-rate",
        "0.25",
        "--flake-retries",
        "2",
        "--workers",
        "2",
    ];

    // Interrupted at a 3-app budget, then resumed to completion.
    let mut first: Vec<String> = argv(&base);
    first.extend(argv(&["--checkpoint", journal.to_str().unwrap(), "--app-budget", "3"]));
    fd_cli::run(&first).expect("budgeted run");
    assert!(journal.exists(), "journal written");

    let mut second: Vec<String> = argv(&base);
    second.extend(argv(&["--checkpoint", journal.to_str().unwrap(), "--resume"]));
    fd_cli::run(&second).expect("resume completes");

    // The same invocation uninterrupted.
    let mut reference: Vec<String> = argv(&base);
    reference.extend(argv(&["--checkpoint", journal2.to_str().unwrap()]));
    fd_cli::run(&reference).expect("uninterrupted run");

    // Both journals end with identical outcome records (the journal *is*
    // the determinism surface; stdout goes to the test harness).
    let strip_timing = |raw: String| -> Vec<String> {
        raw.lines()
            .filter(|l| l.contains("\"Outcome\"") || l.contains("\"Flakes\""))
            .map(|l| l.split_once(' ').map(|(_, json)| json.to_string()).unwrap_or_default())
            // The metrics half of each record carries wall-clock timings
            // that legitimately differ run to run; compare the outcome
            // payloads only.
            .map(|json| json.split("\"outcome\":").nth(1).map(str::to_string).unwrap_or(json))
            .collect()
    };
    let a = strip_timing(std::fs::read_to_string(&journal).expect("journal a"));
    let b = strip_timing(std::fs::read_to_string(&journal2).expect("journal b"));
    assert!(!a.is_empty());
    assert_eq!(a.len(), b.len(), "same number of journaled records");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&journal2);
}

#[test]
fn checkpoint_errors_map_to_exit_code_3() {
    let journal = tmp("cli-exit3.ckpt");
    let _ = std::fs::remove_file(&journal);
    let base = ["corpus", "--seed", "2", "--limit", "3", "--workers", "1"];

    let mut first: Vec<String> = argv(&base);
    first.extend(argv(&["--checkpoint", journal.to_str().unwrap()]));
    fd_cli::run(&first).expect("first run");

    // Re-running without --resume refuses to overwrite: exit code 3.
    let err = fd_cli::run(&first).unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err}");
    assert!(err.to_string().contains("--resume"), "{err}");

    // Resuming with a different invocation (other seed) is a fingerprint
    // mismatch: exit code 3.
    let mut other: Vec<String> = argv(&["corpus", "--seed", "3", "--limit", "3", "--workers", "1"]);
    other.extend(argv(&["--checkpoint", journal.to_str().unwrap(), "--resume"]));
    let err = fd_cli::run(&other).unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err}");
    assert!(err.to_string().contains("fingerprint"), "{err}");

    // A corrupted journal is caught: exit code 3.
    let mut bytes = std::fs::read(&journal).expect("journal readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&journal, &bytes).expect("rewrite journal");
    let mut resume: Vec<String> = argv(&base);
    resume.extend(argv(&["--checkpoint", journal.to_str().unwrap(), "--resume"]));
    let err = fd_cli::run(&resume).unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err}");

    // Usage errors stay exit code 1: --resume without --checkpoint.
    let err = fd_cli::run(&argv(&["corpus", "--limit", "2", "--resume"])).unwrap_err();
    assert_eq!(err.exit_code(), 1, "{err}");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn run_with_checkpoint_and_flake_retries_works() {
    let out = tmp("ck-app.fapk");
    let out_str = out.to_str().unwrap();
    fd_cli::run(&argv(&["gen", out_str, "--template", "quickstart"])).expect("gen");
    let inputs = format!("{out_str}.inputs.json");

    let journal = tmp("cli-run.ckpt");
    let _ = std::fs::remove_file(&journal);
    fd_cli::run(&argv(&[
        "run",
        out_str,
        "--inputs",
        &inputs,
        "--checkpoint",
        journal.to_str().unwrap(),
        "--flake-retries",
        "2",
    ]))
    .expect("checkpointed single run");
    assert!(journal.exists(), "single-app journal written");

    // Resume restores the journaled outcome without re-running.
    fd_cli::run(&argv(&[
        "run",
        out_str,
        "--inputs",
        &inputs,
        "--checkpoint",
        journal.to_str().unwrap(),
        "--resume",
        "--flake-retries",
        "2",
    ]))
    .expect("resumed single run");
    let _ = std::fs::remove_file(&journal);
}

/// The command table is the CLI's one flag vocabulary: every declared
/// flag parses, `help` lists exactly the declared flags, and anything
/// else (a misspelled or foreign flag, a valued flag without a value, a
/// wrong positional count) is refused with exit code 1 before any work.
#[test]
fn the_command_table_governs_parsing_and_help() {
    use fd_cli::args::{parse, Kind};
    let help = fd_cli::help();
    for cmd in fd_cli::cmds::COMMANDS {
        let positionals: Vec<String> = cmd.positionals.iter().map(|p| p.to_string()).collect();
        let with = |extra: &[&str]| [positionals.clone(), argv(extra)].concat();
        for (flag, kind) in cmd.declared() {
            let value = match kind {
                Kind::Bare => None,
                Kind::U32 | Kind::U64 | Kind::Usize => Some("7"),
                Kind::Fraction => Some("0.5"),
                Kind::Text(_) => Some("x"),
            };
            let key = format!("--{flag}");
            let line = with(&[key.as_str()].into_iter().chain(value).collect::<Vec<_>>());
            let parsed = parse(cmd, &line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert_eq!(parsed.opt(flag), Some(value.unwrap_or("")), "{line:?}");
            if value.is_some() {
                for line in [with(&[&key]), with(&[&key, "--json"])] {
                    let err = fd_cli::run(&[vec![cmd.name.to_string()], line].concat());
                    let err = err.expect_err("a valued flag needs its value");
                    assert_eq!(err.exit_code(), 1);
                    assert!(err.to_string().contains(&format!("'fragdroid {}'", cmd.name)));
                    assert!(err.to_string().contains(&format!("{key} expects a value")), "{err}");
                }
            }
        }
        let misspelled = [vec![cmd.name.to_string()], with(&["--jsn"])].concat();
        let err = fd_cli::run(&misspelled).expect_err("an undeclared flag is refused");
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains(&format!("'fragdroid {}' has no flag --jsn", cmd.name)));
        let extra = [vec![cmd.name.to_string()], with(&["extra"])].concat();
        let err = fd_cli::run(&extra).expect_err("one positional too many is refused");
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("extra"), "{err}");

        // `help` lists the command's declared flags, no more, no fewer.
        let block = help
            .split("\n  fragdroid ")
            .find(|block| block.split_whitespace().next() == Some(cmd.name))
            .unwrap_or_else(|| panic!("help has no entry for {}", cmd.name));
        let listed: Vec<&str> = block
            .split_whitespace()
            .filter_map(|word| word.strip_prefix("[--"))
            .map(|word| word.trim_end_matches(']'))
            .collect();
        let declared: Vec<&str> = cmd.declared().map(|(flag, _)| flag).collect();
        assert_eq!(listed, declared, "help for {}", cmd.name);
    }

    // The misspellings that used to run a different experiment.
    let err = fd_cli::run(&argv(&["corpus", "--limit", "3", "--corpus-dir", "/nonexistent"]));
    assert!(err.unwrap_err().to_string().contains("no flag --corpus-dir"));
    let dispatch = ["dispatch", "--connect", "127.0.0.1:1", "--backend", "subprocess"];
    assert!(fd_cli::run(&argv(&dispatch)).unwrap_err().to_string().contains("no flag --backend"));
    let dispatch = ["dispatch", "--connect", "127.0.0.1:1", "--lease-timeout-ms", "5"];
    let err = fd_cli::run(&argv(&dispatch)).expect_err("leases have no clock to set");
    assert_eq!(err.exit_code(), 1);
    assert!(err.to_string().contains("no flag --lease-timeout-ms"), "{err}");
    let cwd = tmp("no-resume-journal");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).expect("mkdir");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fragdroid"))
        .args(["corpus", "--limit", "2", "--checkpoint", "--resume"])
        .current_dir(&cwd)
        .output()
        .expect("spawn fragdroid");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--checkpoint expects a value"));
    assert!(out.stdout.is_empty(), "nothing ran");
    assert_eq!(std::fs::read_dir(&cwd).expect("list cwd").count(), 0, "no journal named --resume");
}
