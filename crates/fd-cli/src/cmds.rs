//! The subcommand table and the handlers it names.

use crate::args::{Command, Flag, Kind::*, Parsed};
use crate::{load_app, load_app_traced, load_inputs, write_trace, CliError};
use fragdroid::{FragDroid, FragDroidConfig};

/// The engine flags every command that runs or checks apps shares.
pub(crate) const ENGINE: &[Flag] =
    &[("budget", Usize), ("deadline-ms", U64), ("fault-rate", Fraction), ("fault-seed", U64)];
/// The device backend of a command that runs apps itself.
pub(crate) const BACKEND: &[Flag] = &[("backend", Text("in-process|subprocess|mock-adb"))];
/// The corpus a suite command runs (`Parsed::corpus_source`).
pub(crate) const CORPUS: &[Flag] = &[("seed", U64), ("limit", Usize), ("corpus", Text("DIR"))];
/// A checkpoint journal and resuming from it.
pub(crate) const JOURNAL: &[Flag] = &[("checkpoint", Text("J")), ("resume", Bare)];
/// Flake triage: how often a failed app is retried.
pub(crate) const FLAKES: &[Flag] = &[("flake-retries", Usize)];
/// `--trace-out T.jsonl` (`Parsed::trace_out`).
pub(crate) const TRACE: &[Flag] = &[("trace-out", Text("T.jsonl"))];

/// `--inputs F`: the widget-ID → value JSON of an app's gate secrets.
const INPUTS: &[Flag] = &[("inputs", Text("F"))];
/// `--json`: machine-readable output.
const JSON: &[Flag] = &[("json", Bare)];
/// The container positional of the single-app commands.
const APP: &[&str] = &["<app.fapk>"];

/// One table entry: name, positionals, flag groups, `help` prose, handler.
const fn cmd(
    name: &'static str,
    positionals: &'static [&'static str],
    flags: &'static [&'static [Flag]],
    summary: &'static str,
    handler: fn(&Parsed) -> Result<(), CliError>,
) -> Command {
    Command { name, positionals, flags, summary, handler }
}

/// Every subcommand, in `help` order: parsing, `help` and dispatch all
/// read this table.
pub const COMMANDS: &[Command] = &[
    cmd(
        "gen",
        &["<out.fapk>"],
        &[&[("template", Text("NAME")), ("random", Bare), ("seed", U64), ("size", Usize)]],
        "write a template app (see 'templates'; default quickstart) or, with --random, a \
         seeded one of --size activities and fragments, plus <out.fapk>.inputs.json",
        gen,
    ),
    cmd("info", APP, &[], "manifest, classes, layouts, metadata", info),
    cmd("static", APP, &[INPUTS], "static extraction as JSON", static_info),
    cmd("dot", APP, &[], "initial AFTM as Graphviz DOT", dot),
    cmd(
        "run",
        APP,
        &[INPUTS, JSON, &[("find-api", Text("g/n"))], ENGINE, BACKEND, JOURNAL, FLAKES, TRACE],
        "full exploration + coverage report; with --checkpoint or --flake-retries the app \
         runs as a one-app corpus on the suite runner",
        run,
    ),
    cmd("dump", APP, &[], "launch and print the UI hierarchy", dump),
    cmd("unpack", APP, &[&[("out", Text("DIR"))]], "apktool-style decompile to --out", unpack),
    cmd("repack", &["<DIR>"], &[&[("out", Text("app.fapk"))]], "rebuild a container", repack),
    cmd("replay", &["<app.fapk>", "<trace.json>"], &[], "replay a recorded session", replay),
    cmd("java", APP, &[INPUTS], "emit the generated Robotium test class", java),
    cmd(
        "corpus",
        &[],
        &[
            CORPUS,
            &[("workers", Usize), ("app-budget", Usize), ("agent-die-after", U64), ("merge", Bare)],
            &[("shards", Usize), ("shard-index", Usize)],
            JSON,
            ENGINE,
            BACKEND,
            JOURNAL,
            FLAKES,
            TRACE,
        ],
        "run the synthetic 217 (or the gen-corpus directory --corpus) on the suite runner; \
         journal to J, --resume it, or stop after --app-budget fresh apps; \
         --agent-die-after kills each lane's first subprocess agent after N requests; \
         --shards with --shard-index runs one shard to J.shard-I-of-N, with --merge \
         combines the shard journals into the single-run report and outcome digest",
        corpus,
    ),
    cmd(
        "gen-corpus",
        &["<DIR>"],
        &[&[
            ("apps", Usize),
            ("seed", U64),
            ("profile", Text("tiny|paper")),
            ("shard-size", Usize),
        ]],
        "write a seeded synthetic corpus to DIR as sharded packed containers + manifest",
        gen_corpus,
    ),
    cmd(
        "serve",
        &[],
        &[
            &[("workers", Usize), ("listen", Text("ADDR")), ("journal", Text("J"))],
            &[("queue-cap", Usize), ("max-conns", Usize)],
            &[("idle-timeout-ms", U64), ("write-timeout-ms", U64)],
            ENGINE,
            BACKEND,
            TRACE,
        ],
        "job queue: run submitted containers and answer polls with the bytes 'run --json' \
         prints, over stdin/stdout or, with --listen unix:PATH|HOST:PORT, many socket \
         sessions (bounded queue, connection cap, idle timeouts, drain on Shutdown); \
         --journal makes admission crash-safe across restarts",
        serve,
    ),
    cmd(
        "submit",
        APP,
        &[
            &[("connect", Text("ADDR")), ("job", U64)],
            INPUTS,
            &[("async", Bare), ("timeout-ms", U64), ("retries", U32), ("chaos-seed", U64)],
        ],
        "submit one container to a serve socket (--connect is required) with retry and \
         backoff and print its report, or with --async only await the durable accept; \
         job ids are idempotent resubmission keys",
        submit,
    ),
    cmd(
        "dispatch",
        &[],
        &[
            &[("connect", Text("ADDR[,ADDR...]"))],
            CORPUS,
            &[("shards", Usize)],
            JOURNAL,
            &[("heartbeat-ms", U64), ("stall-timeout-ms", U64)],
            &[("quarantine-after", U32), ("quarantine-backoff-ms", U64)],
            &[("job-timeout-ms", U64), ("job-retries", U32)],
            &[("jitter-seed", U64), ("chaos-seed", U64)],
            JSON,
            ENGINE,
            TRACE,
        ],
        "farm coordinator: shard the corpus across the serve endpoints --connect (required) \
         under leases, heartbeats, quarantine and reassignment, merge the outcomes they \
         return to the unsharded outcome digest, and print Table 1 plus a per-worker \
         summary; --checkpoint journals coordinator progress for --resume; the endpoints \
         must run the same engine flags",
        dispatch,
    ),
    cmd(
        "device-agent",
        &[],
        &[&[("die-after", U64)]],
        "serve the device wire protocol on stdin/stdout for the subprocess backend",
        device_agent,
    ),
    cmd(
        "fuzz",
        &[],
        &[
            &[("seed", U64), ("mutants", U64), ("target", Text("T[,T...]")), ("out", Text("DIR"))],
            JSON,
            TRACE,
        ],
        "deterministic ingestion-frontier fuzz campaign over the targets container, smali, \
         json, protocol, corpus, serve and dispatch; fails if any mutant panics",
        fuzz,
    ),
    cmd("trace", &["<trace.jsonl>"], &[JSON], "per-phase/per-app profile of a trace", trace),
    cmd("templates", &[], &[], "list template names for 'gen'", templates),
];

fn templates(_: &Parsed) -> Result<(), CliError> {
    println!("quickstart\nfig1-tabs\nfig2-drawer");
    Ok(())
}

/// The child end of the subprocess backend. `--die-after N` makes the
/// agent vanish without replying to request `N` (the install is request
/// 0): the deterministic SIGKILL stand-in of the kill-injection runs.
fn device_agent(p: &Parsed) -> Result<(), CliError> {
    let die_after = p.opt_num("die-after")?;
    let (stdin, stdout) = (std::io::stdin().lock(), std::io::stdout().lock());
    fd_droidsim::serve(stdin, stdout, fd_droidsim::AgentOptions { die_after })
        .map_err(|e| CliError::Failure(format!("device-agent: {e}")))
}

/// A suite run's metrics as the one-line JSON `--json` prints.
fn metrics_json(run: &fragdroid::SuiteRun) -> Result<String, String> {
    run.metrics.to_json().map_err(|e| format!("cannot serialize metrics: {e}"))
}

/// Pretty-serializes with the error propagated instead of panicking, so a
/// CLI failure is a message, not a crash.
fn to_pretty_json<T: serde::Serialize>(what: &str, value: &T) -> Result<String, String> {
    serde_json::to_string_pretty(value).map_err(|e| format!("cannot serialize {what}: {e}"))
}

fn gen(p: &Parsed) -> Result<(), CliError> {
    let out = p.arg(0);
    let seed = p.num("seed", 42)?;
    let random = p.flag("random");
    for flag in ["seed", "size"] {
        if !random && p.opt(flag).is_some() {
            return Err(format!("--{flag} applies to --random apps; a template is fixed").into());
        }
    }
    if random && p.opt("template").is_some() {
        return Err("--template and --random each pick the app; give one".into());
    }
    let generated = if random {
        let size = p.num("size", 8)?;
        let config = fd_appgen::random::GenConfig {
            activities: size,
            fragments: size,
            ..fd_appgen::random::GenConfig::default()
        };
        fd_appgen::random::generate("cli.generated", &config, seed)
    } else {
        match p.opt("template").unwrap_or("quickstart") {
            "quickstart" => fd_appgen::templates::quickstart(),
            "fig1-tabs" => fd_appgen::templates::tabbed_categories(),
            "fig2-drawer" => fd_appgen::templates::nav_drawer_wallpapers(),
            other => {
                return Err(format!("unknown template '{other}' (see 'fragdroid templates')").into())
            }
        }
    };
    let bytes = fd_apk::pack(&generated.app);
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    let inputs_path = format!("{out}.inputs.json");
    let inputs = to_pretty_json("inputs", &generated.known_inputs)?;
    std::fs::write(&inputs_path, inputs).map_err(|e| format!("cannot write {inputs_path}: {e}"))?;
    println!(
        "wrote {out} ({} bytes, {} activities, {} classes) and {inputs_path}",
        bytes.len(),
        generated.app.manifest.activities.len(),
        generated.app.classes.len(),
    );
    Ok(())
}

fn info(p: &Parsed) -> Result<(), CliError> {
    let app = load_app(p.arg(0))?;
    println!("package:    {}", app.package());
    println!("category:   {}", app.meta.category);
    println!("downloads:  {}", app.meta.downloads_band());
    let stats = fd_apk::app_stats(&app);
    println!(
        "classes:    {} ({} activities, {} fragments)",
        stats.classes, stats.activity_classes, stats.fragment_classes
    );
    println!("methods:    {} ({} statements)", stats.methods, stats.statements);
    println!(
        "layouts:    {} ({} widgets, {} clickable)",
        stats.layouts, stats.widgets, stats.clickable_widgets
    );
    println!("resources:  {}", stats.resources);
    println!("sensitive call sites: {}", stats.sensitive_call_sites);
    println!("activities:");
    for decl in &app.manifest.activities {
        let launcher = if decl.is_launcher() { "  [launcher]" } else { "" };
        println!("  {}{}", decl.name, launcher);
    }
    println!("fragments:");
    for class in app.classes.iter().filter(|c| app.classes.is_fragment_class(c.name.as_str())) {
        println!("  {}", class.name.as_str());
    }
    Ok(())
}

fn static_info(p: &Parsed) -> Result<(), CliError> {
    let app = load_app(p.arg(0))?;
    let inputs = load_inputs(p.opt("inputs"))?;
    let info = fd_static::extract(&app, &inputs);
    println!("{}", to_pretty_json("static info", &info)?);
    Ok(())
}

fn dot(p: &Parsed) -> Result<(), CliError> {
    let app = load_app(p.arg(0))?;
    let info = fd_static::extract(&app, &Default::default());
    print!("{}", fd_aftm::dot::to_dot(&info.aftm));
    Ok(())
}

fn run(p: &Parsed) -> Result<(), CliError> {
    let (trace_out, trace_config) = p.trace_out();
    let tracer = fd_trace::Tracer::new(&trace_config, fd_trace::TraceClock::start(), 0);
    let app = load_app_traced(p.arg(0), &tracer)?;
    let inputs = load_inputs(p.opt("inputs"))?;
    let mut config = p.engine_config()?;
    if let Some(spec) = p.opt("find-api") {
        let (group, name) = spec
            .split_once('/')
            .ok_or_else(|| format!("--find-api expects '<group>/<name>', got '{spec}'"))?;
        config = config.find_api(group, name);
    }
    let checkpoint_path = p.opt("checkpoint");
    let resume = p.flag("resume");
    let flake_retries = p.num("flake-retries", 0)?;
    if resume && checkpoint_path.is_none() {
        return Err("--resume requires --checkpoint <path>".into());
    }
    let (report, suite_records) = if checkpoint_path.is_some() || flake_retries > 0 {
        // Route the single app through the checkpointed suite runner as a
        // one-slot corpus: the journal, resume and flake semantics are
        // identical to `corpus`.
        let opts =
            checkpoint_path.map(|path| fragdroid::CheckpointOptions::new(path).with_resume(resume));
        let slot = vec![(app.clone(), inputs.clone())];
        let suite = fragdroid::Suite {
            trace: trace_config,
            flake_retries,
            ..fragdroid::Suite::new(&config, 1)
        };
        let (run, suite_trace) = match &opts {
            Some(opts) => {
                let (done, trace) = suite.run_checkpointed(&slot, opts)?;
                (done.run, trace)
            }
            None => suite.run(&slot),
        };
        if let Some(flakes) = run.metrics.flake_summary.as_ref().filter(|f| !f.apps.is_empty()) {
            eprintln!(
                "flake triage: {} deterministic, {} flaky ({} retries each)",
                flakes.deterministic, flakes.flaky, flakes.retries
            );
        }
        let report = match run.outcomes.into_iter().next() {
            Some(outcome) => match outcome {
                fragdroid::AppOutcome::Panicked { message } => {
                    return Err(CliError::Failure(format!("run panicked: {message}")))
                }
                other => other.into_report().ok_or("run produced no report")?,
            },
            None => return Err("checkpointed run completed no apps".into()),
        };
        (report, suite_trace.records)
    } else {
        (FragDroid::new(config).run_traced(&app, &inputs, &tracer), Vec::new())
    };
    if let Some(out) = trace_out {
        let mut trace = fd_trace::Trace::new(&format!("fragdroid run {}", app.package()));
        trace.absorb(tracer.finish());
        trace.records.extend(suite_records);
        write_trace(Some(out), &trace)?;
    }

    if p.flag("json") {
        println!("{}", to_pretty_json("report", &report)?);
        return Ok(());
    }
    let a = report.activity_coverage();
    let f = report.fragment_coverage();
    let v = report.fragments_in_visited_coverage();
    println!("activities:            {}/{} ({:.1}%)", a.visited, a.sum, a.rate());
    println!("fragments:             {}/{} ({:.1}%)", f.visited, f.sum, f.rate());
    println!("frags in visited acts: {}/{} ({:.1}%)", v.visited, v.sum, v.rate());
    println!("test cases:            {}", report.test_cases_run);
    println!("events:                {}", report.events_injected);
    println!("crashes:               {}", report.crashes);
    if let Some(detail) = &report.infra_failure {
        println!("device infra failure:  {detail} (not an app crash)");
    }
    if report.faults_injected > 0 || report.retries > 0 {
        println!("faults injected:       {}", report.faults_injected);
        println!("retries:               {}", report.retries);
        println!(
            "recovered crashes:     {}/{} distinct signatures",
            report.recovered_crashes,
            report.crash_reports.len()
        );
    }
    let (total, frag, frag_only) = report.api_relation_counts();
    println!(
        "sensitive API relations: {total} ({frag} fragment-associated, {frag_only} fragment-only)"
    );
    for inv in &report.api_invocations {
        let caller = match &inv.caller {
            fd_droidsim::Caller::Activity(a) => format!("A:{}", a.simple_name()),
            fd_droidsim::Caller::Fragment { fragment, host } => {
                format!("F:{} (in {})", fragment.simple_name(), host.simple_name())
            }
        };
        println!("  {}/{} ← {caller}", inv.group, inv.name);
    }
    Ok(())
}

fn unpack(p: &Parsed) -> Result<(), CliError> {
    let app = load_app(p.arg(0))?;
    let out = p.opt("out").ok_or("missing --out directory")?;
    fd_apk::workspace::unpack(&app, std::path::Path::new(out)).map_err(|e| e.to_string())?;
    println!("unpacked {} to {out}", app.package());
    Ok(())
}

fn repack(p: &Parsed) -> Result<(), CliError> {
    let dir = p.arg(0);
    let out = p.opt("out").ok_or("missing --out file")?;
    let app = fd_apk::workspace::load(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    let problems = app.validate();
    if !problems.is_empty() {
        return Err(format!("rebuilt app is malformed:\n  {}", problems.join("\n  ")).into());
    }
    let bytes = fd_apk::pack(&app);
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("repacked {} ({} bytes) to {out}", app.package(), bytes.len());
    Ok(())
}

fn replay(p: &Parsed) -> Result<(), CliError> {
    let (app, trace_path) = (load_app(p.arg(0))?, p.arg(1));
    let raw = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let trace = fd_droidsim::Trace::from_json(&raw)
        .map_err(|e| format!("bad trace file {trace_path}: {e}"))?;
    let mut device = fd_droidsim::Device::new(app);
    match fd_droidsim::replay(&mut device, &trace) {
        fd_droidsim::ReplayOutcome::Faithful => {
            println!("FAITHFUL: all {} steps reproduced their recorded states", trace.steps.len());
            Ok(())
        }
        fd_droidsim::ReplayOutcome::Diverged { index, expected, actual } => {
            Err(CliError::Failure(format!(
                "DIVERGED at step {index}: expected {:?}, got {:?}",
                expected.map(|s| s.to_string()),
                actual.map(|s| s.to_string())
            )))
        }
        fd_droidsim::ReplayOutcome::Rejected { index, error } => {
            Err(CliError::Failure(format!("REJECTED at step {index}: {error}")))
        }
    }
}

fn java(p: &Parsed) -> Result<(), CliError> {
    let app = load_app(p.arg(0))?;
    let inputs = load_inputs(p.opt("inputs"))?;
    let report = FragDroid::new(FragDroidConfig::default()).run(&app, &inputs);
    print!("{}", report.to_robotium_java());
    Ok(())
}

/// Every app goes in as packed FAPK bytes: the ingestion frontier
/// quarantines what it refuses (packer-protected apps included) instead of
/// the command pre-filtering them.
fn corpus(p: &Parsed) -> Result<(), CliError> {
    let corpus = p.corpus_source()?;
    let source = &*corpus;
    let total = fragdroid::CorpusSource::len(source);

    let config = p.engine_config()?;
    let backend = config.backend;
    // Shard-split arguments: `--shards N --shard-index I` runs one shard
    // (journaling to `<checkpoint>.shard-I-of-N`); `--shards N --merge`
    // folds the per-shard journals back into the single-run report.
    let shards = p.num("shards", 0)?;
    let shard_index = p.opt_num::<usize>("shard-index")?;
    let merge = p.flag("merge");
    let checkpoint_path = p.opt("checkpoint");
    if (shard_index.is_some() || merge) && shards == 0 {
        return Err("--shard-index/--merge require --shards <N>".into());
    }
    if shards > 0 && checkpoint_path.is_none() {
        return Err("--shards requires --checkpoint <path> (the journal base)".into());
    }
    if merge && shard_index.is_some() {
        return Err("--merge and --shard-index are mutually exclusive".into());
    }
    if shards > 0 && !merge && shard_index.is_none() {
        return Err("--shards requires --shard-index <I> (run one shard) or --merge".into());
    }
    if let Some(index) = shard_index.filter(|&index| index >= shards) {
        return Err(format!("--shard-index {index} out of range for {shards} shards").into());
    }

    let workers = match p.num("workers", 0)? {
        0 => fragdroid::suite::engine::default_workers(total),
        workers => workers,
    };
    let agent_die_after = p.num("agent-die-after", 0)?;
    if agent_die_after > 0 && backend != fd_droidsim::DeviceBackend::Subprocess {
        return Err("--agent-die-after requires --backend subprocess".into());
    }
    // Kill-injection: lane generation 0 gets an agent that hangs up after
    // N requests; the replacement generations are healthy, so the pool's
    // retry/quarantine machinery — not luck — must carry the suite home.
    let pool = if agent_die_after > 0 {
        let lanes = workers.min(total.max(1)).max(1);
        Some(fragdroid::DevicePool::with_factory(
            lanes,
            Box::new(move |_lane, generation| {
                let extra = if generation == 0 {
                    vec!["--die-after".to_string(), agent_die_after.to_string()]
                } else {
                    Vec::new()
                };
                Box::new(fd_droidsim::SubprocessDevice::spawn_cli(extra))
                    as Box<dyn fd_droidsim::DeviceApi>
            }),
        ))
    } else {
        None
    };
    let (trace_out, trace_config) = p.trace_out();

    let resume = p.flag("resume");
    let flake_retries = p.num("flake-retries", 0)?;
    let app_budget = p.num("app-budget", 0)?;
    if resume && checkpoint_path.is_none() {
        return Err("--resume requires --checkpoint <path>".into());
    }
    if app_budget > 0 && checkpoint_path.is_none() {
        return Err("--app-budget requires --checkpoint <path>".into());
    }

    // Merge mode runs no devices: it fingerprints each shard's slice,
    // loads the per-shard journals, and reassembles the single-run
    // report. Any missing/incomplete/mismatched journal is exit code 4.
    if merge {
        let base = std::path::Path::new(checkpoint_path.expect("checked with --shards above"));
        let (merged, trace) =
            fragdroid::merge_shards(source, &config, flake_retries, base, shards, &trace_config)?;
        write_trace(trace_out, &trace)?;
        if p.flag("json") {
            println!("{}", metrics_json(&merged.run)?);
            return Ok(());
        }
        print!("{}", fd_report::render_shard_merge(&merged));
        return Ok(());
    }

    let suite = fragdroid::Suite {
        trace: trace_config,
        pool: pool.as_ref(),
        flake_retries,
        ..fragdroid::Suite::new(&config, workers)
    };
    let opts = checkpoint_path.map(|path| fragdroid::CheckpointOptions {
        app_budget: (app_budget > 0).then_some(app_budget),
        ..fragdroid::CheckpointOptions::new(path).with_resume(resume)
    });
    let journaled = |(done, trace): (fragdroid::CheckpointedSuite, fd_trace::Trace)| {
        let progress = Some((done.resumed, done.fresh, done.remaining(), done.torn_tail_bytes));
        (done.run, trace, progress)
    };
    let (run, trace, progress) = match (&opts, shard_index) {
        (Some(opts), Some(index)) => {
            journaled(fragdroid::run_shard(&suite, source, opts, shards, index)?)
        }
        (Some(opts), None) => journaled(suite.run_checkpointed(source, opts)?),
        (None, _) => {
            let (run, trace) = suite.run(source);
            // A flake-triaged run prints the progress line a journaled
            // one does: nothing resumed, nothing remaining.
            let progress = (flake_retries > 0).then_some((0, run.outcomes.len(), 0, 0));
            (run, trace, progress)
        }
    };
    write_trace(trace_out, &trace)?;

    if p.flag("json") {
        println!("{}", metrics_json(&run)?);
        return Ok(());
    }
    let (mut acts, mut acts_sum, mut frags, mut frags_sum) = (0, 0, 0, 0);
    let (mut panicked, mut deadline, mut rejected) = (0usize, 0usize, 0usize);
    let (mut faults, mut retries, mut crashes, mut recovered) = (0usize, 0usize, 0usize, 0usize);
    for outcome in &run.outcomes {
        match outcome {
            fragdroid::AppOutcome::Panicked { .. } => panicked += 1,
            fragdroid::AppOutcome::Rejected { .. } => rejected += 1,
            other => {
                if matches!(other, fragdroid::AppOutcome::DeadlineExceeded(_)) {
                    deadline += 1;
                }
                let report = other.report().expect("run outcome has a report");
                let a = report.activity_coverage();
                let f = report.fragment_coverage();
                acts += a.visited;
                acts_sum += a.sum;
                frags += f.visited;
                frags_sum += f.sum;
                faults += report.faults_injected;
                retries += report.retries;
                crashes += report.crashes;
                recovered += report.recovered_crashes;
            }
        }
    }
    let m = &run.metrics;
    let expected = match shard_index {
        Some(index) => {
            let range = fragdroid::shard_range(total, shards, index)?;
            println!(
                "shard:       {index}/{shards} (corpus entries {}..{})",
                range.start, range.end
            );
            range.len()
        }
        None => total,
    };
    println!(
        "apps:        {}/{} ({} rejected, {} panicked, {} hit deadline)",
        run.outcomes.len(),
        expected,
        rejected,
        panicked,
        deadline
    );
    println!("activities:  {acts}/{acts_sum}");
    println!("fragments:   {frags}/{frags_sum}");
    if config.faults_armed() {
        println!("faults:      {faults} injected, {retries} retries");
        println!("crashes:     {crashes} ({recovered} recovered)");
    }
    println!(
        "wall time:   {:.2}s on {} workers ({:.0}% utilized)",
        m.wall_ms as f64 / 1000.0,
        m.workers,
        m.worker_utilization * 100.0
    );
    if let Some((resumed, fresh, remaining, torn)) = progress {
        let torn_note =
            if torn > 0 { format!(", {torn} torn bytes dropped") } else { String::new() };
        println!("checkpoint:  {resumed} resumed, {fresh} fresh, {remaining} remaining{torn_note}");
    }
    if let Some(flakes) = &m.flake_summary {
        println!(
            "flake triage: {} deterministic, {} flaky (of {} failed apps, {} retries each)",
            flakes.deterministic,
            flakes.flaky,
            flakes.apps.len(),
            flakes.retries
        );
    }
    if m.device_incidents > 0 {
        println!(
            "device pool: {} infrastructure incidents absorbed (backend {})",
            m.device_incidents,
            backend.name()
        );
    }
    // The timing-free fingerprint of what the suite found; CI diffs this
    // line between an interrupted+resumed run and an uninterrupted one.
    // A shard run's digest covers only its slice, so it is labeled
    // distinctly — the corpus-wide line comes from `--merge`.
    if progress.map_or(true, |(_, _, remaining, _)| remaining == 0) {
        match shard_index {
            Some(index) => {
                println!("shard {index}/{shards} outcome digest: {:#018x}", run.outcome_digest())
            }
            None => println!("outcome digest: {:#018x}", run.outcome_digest()),
        }
    }
    Ok(())
}

fn gen_corpus(p: &Parsed) -> Result<(), CliError> {
    let dir = p.arg(0);
    let profile = match p.opt("profile") {
        None => fd_appgen::stream::Profile::Tiny,
        Some(name) => fd_appgen::stream::Profile::parse(name)?,
    };
    let config = fd_appgen::stream::StreamConfig {
        apps: p.num("apps", 1_000)?,
        seed: p.num("seed", 1)?,
        profile,
        shard_size: p.num("shard-size", 1_024)?,
    };
    let manifest = fd_appgen::stream::write_corpus(std::path::Path::new(dir), &config)
        .map_err(|e| format!("cannot write corpus to {dir}: {e}"))?;
    println!(
        "wrote {} apps ({} profile) to {dir} in {} shards of ≤{}",
        manifest.apps,
        manifest.profile,
        manifest.shards.len(),
        config.shard_size,
    );
    println!("corpus digest: {}", manifest.corpus_digest);
    Ok(())
}

fn serve(p: &Parsed) -> Result<(), CliError> {
    let config = p.engine_config()?;
    let defaults = fragdroid::ServeOptions::default();
    let options = fragdroid::ServeOptions {
        workers: p.num("workers", 1)?,
        config,
        queue_cap: p.num("queue-cap", defaults.queue_cap)?,
        max_connections: p.num("max-conns", defaults.max_connections)?,
        idle_timeout_ms: p.num("idle-timeout-ms", defaults.idle_timeout_ms)?,
        write_timeout_ms: p.num("write-timeout-ms", defaults.write_timeout_ms)?,
        journal: p.opt("journal").map(std::path::PathBuf::from),
    };
    let (trace_out, trace_config) = p.trace_out();
    let trace = match p.opt("listen") {
        None => {
            let (stdin, stdout) = (std::io::stdin().lock(), std::io::stdout().lock());
            fragdroid::serve(stdin, stdout, &options, &trace_config)?
        }
        Some(spec) => {
            let addr = fragdroid::ListenAddr::parse(spec)?;
            let listener = fragdroid::ServeListener::bind(&addr)?;
            // The resolved address (a `:0` bind picks a port) goes to
            // stdout first so scripts can read where to connect.
            println!("serve: listening on {}", listener.local_addr());
            use std::io::Write as _;
            std::io::stdout().flush().ok();
            let summary = fragdroid::serve_listener(listener, &options, &trace_config)?;
            print!("{}", fd_report::render_serve_incidents(&summary.incidents));
            summary.trace
        }
    };
    write_trace(trace_out, &trace)?;
    Ok(())
}

fn submit(p: &Parsed) -> Result<(), CliError> {
    let path = p.arg(0);
    let spec = p.opt("connect").ok_or("submit requires --connect ADDR")?;
    let addr = fragdroid::ListenAddr::parse(spec)?;
    let job = p.num("job", 1)?;
    let inputs = load_inputs(p.opt("inputs"))?;
    let raw =
        std::fs::read(path).map_err(|e| CliError::Failure(format!("cannot read {path}: {e}")))?;
    let container_hex = fd_droidsim::proto::to_hex(&raw);
    let mut client = fragdroid::SubmitClient::new(addr)
        .with_deadline(std::time::Duration::from_millis(p.num("timeout-ms", 60_000)?))
        .with_max_attempts(p.num("retries", 8)?);
    if let Some(seed) = p.opt_num("chaos-seed")? {
        client = client.with_chaos(fragdroid::ChaosConfig::from_seed(seed));
    }
    if p.flag("async") {
        client.submit_async(job, &container_hex, &inputs)?;
        println!("job {job} accepted");
        return Ok(());
    }
    match client.submit(job, &container_hex, &inputs)? {
        fragdroid::JobOutcome::Report { report } => {
            println!("{}", to_pretty_json("report", &report)?)
        }
        fragdroid::JobOutcome::Rejected { reason } => return Err(CliError::Rejected(reason)),
    }
    Ok(())
}

fn dispatch(p: &Parsed) -> Result<(), CliError> {
    let spec = p.opt("connect").ok_or("dispatch requires --connect ADDR[,ADDR...]")?;
    let endpoints = spec.split(',').map(str::trim).filter(|part| !part.is_empty());
    let endpoints = endpoints.map(fragdroid::ListenAddr::parse).collect::<Result<_, _>>()?;
    let corpus = p.corpus_source()?;

    // The digest-parity config: the engine flags the endpoints run with.
    // Execution happens on the endpoints, so there is no `--backend`.
    let config = p.engine_config()?;

    let ms = std::time::Duration::from_millis;
    let mut options = fragdroid::DispatchOptions::new(endpoints);
    options.shards = p.num("shards", 0)?;
    options.journal = p.opt("checkpoint").map(std::path::PathBuf::from);
    options.resume = p.flag("resume");
    options.heartbeat_interval = ms(p.num("heartbeat-ms", 250)?);
    options.stall_timeout = ms(p.num("stall-timeout-ms", 300_000)?);
    options.quarantine_after = p.num("quarantine-after", 3)?;
    options.quarantine_backoff = ms(p.num("quarantine-backoff-ms", 500)?);
    options.job_deadline = ms(p.num("job-timeout-ms", 60_000)?);
    options.job_attempts = p.num("job-retries", 8)?;
    options.jitter_seed = p.num("jitter-seed", options.jitter_seed)?;
    options.chaos = p.opt_num("chaos-seed")?.map(fragdroid::ChaosConfig::from_seed);

    let (trace_out, trace_config) = p.trace_out();

    let run = fragdroid::dispatch(&*corpus, &config, &options, &trace_config)?;
    write_trace(trace_out, &run.trace)?;

    if p.flag("json") {
        let metrics = metrics_json(&run.merged.run)?;
        let summary = serde_json::to_string(&run.summary)
            .map_err(|e| format!("cannot serialize dispatch summary: {e}"))?;
        println!("{{\"metrics\":{metrics},\"dispatch\":{summary}}}");
        return Ok(());
    }

    // Table 1 straight from the merged run — no second pass over the
    // corpus — then the quarantine and farm appendices, and finally the
    // digest line CI diffs against the unsharded reference.
    let (rows, rejected) = fd_report::table1_rows_from_run(&run.merged.run);
    print!("{}", fd_report::render_table1(&rows));
    print!("{}", fd_report::render_rejections(&rejected));
    print!("{}", fd_report::render_dispatch_summary(&run.summary));
    println!("outcome digest: {:#018x}", run.merged.run.outcome_digest());
    Ok(())
}

fn fuzz(p: &Parsed) -> Result<(), CliError> {
    let targets = match p.opt("target") {
        None => fd_fuzz::Target::ALL.to_vec(),
        Some(spec) => spec
            .split(',')
            .map(|name| {
                fd_fuzz::Target::parse(name.trim()).ok_or_else(|| {
                    format!(
                        "unknown fuzz target '{name}' \
                         (container, smali, json, protocol, corpus, serve, dispatch)"
                    )
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    let config = fd_fuzz::FuzzConfig {
        seed: p.num("seed", 1)?,
        mutants: p.num("mutants", 1_000)?,
        targets,
        out_dir: p.opt("out").map(std::path::PathBuf::from),
    };
    let (trace_out, trace_config) = p.trace_out();
    let tracer = fd_trace::Tracer::new(&trace_config, fd_trace::TraceClock::start(), 0);
    let report = fd_fuzz::run_campaign_traced(&config, &tracer);
    if let Some(out) = trace_out {
        let mut trace = fd_trace::Trace::new("fragdroid fuzz");
        trace.absorb(tracer.finish());
        write_trace(Some(out), &trace)?;
    }

    if p.flag("json") {
        println!("{}", report.to_json().map_err(|e| format!("cannot serialize report: {e}"))?);
    } else {
        println!("fuzz: seed {}, {} mutants", report.seed, report.executed);
        for (name, stats) in &report.per_target {
            println!(
                "  {:<10} {} executed: {} ok, {} rejected, {} violations",
                name, stats.executed, stats.ok, stats.rejected, stats.violations
            );
        }
        println!("digest:     {:#018x}", report.outcome_digest);
        for violation in &report.violations {
            println!(
                "  VIOLATION {}[case {}]: {} ({} bytes, minimized to {}{})",
                violation.target,
                violation.case,
                violation.message,
                violation.input_bytes,
                violation.minimized_bytes,
                violation
                    .reproducer
                    .as_deref()
                    .map(|p| format!(", saved to {p}"))
                    .unwrap_or_default()
            );
        }
    }
    if !report.is_clean() {
        return Err(CliError::Failure(format!(
            "panic-free invariant violated by {} of {} mutants",
            report.violations.len(),
            report.executed
        )));
    }
    Ok(())
}

fn trace(p: &Parsed) -> Result<(), CliError> {
    let path = p.arg(0);
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace =
        fd_trace::Trace::from_jsonl(&raw).map_err(|e| format!("bad trace file {path}: {e}"))?;
    let summary = fd_trace::TraceSummary::compute(&trace);
    if p.flag("json") {
        println!("{}", to_pretty_json("trace summary", &summary)?);
    } else {
        print!("{}", summary.render());
    }
    Ok(())
}

fn dump(p: &Parsed) -> Result<(), CliError> {
    let app = load_app(p.arg(0))?;
    let mut device = fd_droidsim::Device::new(app);
    device.launch().map_err(|e| format!("launch failed: {e}"))?;
    match device.current() {
        Some(screen) => {
            print!("{}", fd_droidsim::dump_hierarchy(screen));
            Ok(())
        }
        None => Err(CliError::Failure(format!(
            "app force-closed at launch: {}",
            device.crash_reason().unwrap_or("unknown")
        ))),
    }
}
