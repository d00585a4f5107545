//! The subcommand declarations and the parser that reads argv against
//! them: positionals plus `--flag value` / bare `--flag` options, each
//! flag declared with the kind of value it takes.

use crate::CliError;
use std::collections::BTreeMap;
use std::str::FromStr;

/// The kind of value a flag takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// No value: the flag is present or absent.
    Bare,
    /// A whole number that fits 32 bits.
    U32,
    /// A whole number that fits 64 bits.
    U64,
    /// A whole number that fits `usize`.
    Usize,
    /// A number in `[0, 1]`.
    Fraction,
    /// Any text; the payload is its placeholder in the usage line.
    Text(&'static str),
}

/// One declared flag: its name without the `--`, and its value kind.
pub type Flag = (&'static str, Kind);

/// One subcommand: everything parsing, `help` and dispatch read.
pub struct Command {
    /// The subcommand name, e.g. `run`.
    pub name: &'static str,
    /// Placeholders of the positional arguments, all required, in order.
    pub positionals: &'static [&'static str],
    /// The accepted flags, as groups (shared ones are reused).
    pub flags: &'static [&'static [Flag]],
    /// What the command does, for `help`.
    pub summary: &'static str,
    /// Runs the command on its parsed arguments.
    pub handler: fn(&Parsed) -> Result<(), CliError>,
}

impl Command {
    /// Every declared flag, in declaration order.
    pub fn declared(&self) -> impl Iterator<Item = Flag> + '_ {
        self.flags.iter().flat_map(|group| group.iter().copied())
    }

    /// The usage line's words: name, positionals, then every flag in
    /// brackets with its value placeholder.
    pub(crate) fn usage(&self) -> Vec<String> {
        let mut words = vec![format!("fragdroid {}", self.name)];
        words.extend(self.positionals.iter().map(|p| p.to_string()));
        words.extend(self.declared().map(|(name, kind)| match kind {
            Kind::Bare => format!("[--{name}]"),
            Kind::Fraction => format!("[--{name} R]"),
            Kind::Text(placeholder) => format!("[--{name} {placeholder}]"),
            Kind::U32 | Kind::U64 | Kind::Usize => format!("[--{name} N]"),
        }));
        words
    }
}

/// Parsed arguments: the positional values in order, and the options.
#[derive(Debug, Default)]
pub struct Parsed {
    /// Positional arguments, in order; their count is the declared one.
    positional: Vec<String>,
    /// `--key value` options; bare flags map to an empty string.
    options: BTreeMap<String, String>,
}

/// Parses `argv` against `cmd`'s declaration. Refuses an undeclared
/// flag, a valued flag with no value (or another `--flag` in its
/// place), a value of the wrong kind and a wrong positional count.
pub fn parse(cmd: &Command, argv: &[String]) -> Result<Parsed, String> {
    let name = cmd.name;
    let mut parsed = Parsed::default();
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let Some(key) = arg.strip_prefix("--") else {
            parsed.positional.push(arg.clone());
            continue;
        };
        let (_, kind) = cmd.declared().find(|(flag, _)| *flag == key).ok_or_else(|| {
            format!("'fragdroid {name}' has no flag --{key} (see 'fragdroid help')")
        })?;
        let value = match kind {
            Kind::Bare => String::new(),
            _ => match iter.next() {
                Some(value) if !value.starts_with("--") => value.clone(),
                _ => return Err(format!("'fragdroid {name}': --{key} expects a value")),
            },
        };
        match kind {
            Kind::U32 => number::<u32>(key, &value).map(drop)?,
            Kind::U64 => number::<u64>(key, &value).map(drop)?,
            Kind::Usize => number::<usize>(key, &value).map(drop)?,
            Kind::Fraction => fraction(key, &value).map(drop)?,
            Kind::Bare | Kind::Text(_) => {}
        }
        parsed.options.insert(key.to_string(), value);
    }
    if parsed.positional.len() != cmd.positionals.len() {
        let expected = match cmd.positionals {
            [] => "no positional arguments".to_string(),
            placeholders => placeholders.join(" "),
        };
        return Err(format!("'fragdroid {name}' takes {expected}, got {:?}", parsed.positional));
    }
    Ok(parsed)
}

/// `value` as a number of the flag's width `T`.
fn number<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| {
        let bits = 8 * std::mem::size_of::<T>();
        format!("--{key} expects a whole number that fits {bits} bits, got '{value}'")
    })
}

/// `value` as a number in `[0, 1]`.
fn fraction(key: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(parsed) if (0.0..=1.0).contains(&parsed) => Ok(parsed),
        _ => Err(format!("--{key} expects a number in [0, 1], got '{value}'")),
    }
}

impl Parsed {
    /// The `index`th positional argument.
    pub fn arg(&self, index: usize) -> &str {
        self.positional.get(index).map_or("", String::as_str)
    }

    /// An option's value, if present.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a bare flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// A numeric option at its declared width, with a default.
    pub fn num<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.opt(key).map_or(Ok(default), |value| number(key, value))
    }

    /// An optional numeric option: `None` when absent.
    pub fn opt_num<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.opt(key).map(|value| number(key, value)).transpose()
    }

    /// The engine config of the engine flags: `--budget N` events
    /// (default 40 000), `--deadline-ms N` per app (0: none),
    /// `--fault-rate R` with `--fault-seed N` (default 1), and, where the
    /// command declares it, `--backend B` (default in-process).
    pub fn engine_config(&self) -> Result<fragdroid::FragDroidConfig, String> {
        let mut config = fragdroid::FragDroidConfig {
            event_budget: self.num("budget", 40_000)?,
            ..fragdroid::FragDroidConfig::default()
        };
        if let Some(name) = self.opt("backend") {
            config.backend = fd_droidsim::DeviceBackend::parse(name).ok_or_else(|| {
                format!("unknown backend '{name}' (in-process, subprocess, mock-adb)")
            })?;
        }
        let deadline_ms = self.num("deadline-ms", 0)?;
        if deadline_ms > 0 {
            config = config.with_deadline(std::time::Duration::from_millis(deadline_ms));
        }
        let fault_rate = self.opt("fault-rate").map_or(Ok(0.0), |v| fraction("fault-rate", v))?;
        if fault_rate > 0.0 {
            config = config.with_faults(self.num("fault-seed", 1)?, fault_rate);
        }
        Ok(config)
    }

    /// The corpus a suite command runs: the on-disk `gen-corpus`
    /// directory `--corpus DIR`, streamed entry by entry (memory stays
    /// O(1 app)), or the in-memory synthetic 217 of `--seed` (default 1)
    /// cut to its first `--limit` apps (0 keeps them all). `--seed` and
    /// a non-zero `--limit` are refused with `--corpus`.
    pub fn corpus_source(&self) -> Result<Box<dyn fragdroid::CorpusSource>, String> {
        let seed = self.num("seed", 1)?;
        let limit = self.num("limit", 0)?;
        if let Some(dir) = self.opt("corpus") {
            if limit > 0 {
                return Err("--limit applies to the in-memory corpus; \
                            slice an on-disk corpus with --shards"
                    .into());
            }
            if self.opt("seed").is_some() {
                return Err("--seed applies to the in-memory corpus; \
                            an on-disk corpus was seeded by gen-corpus --seed"
                    .into());
            }
            let reader = fd_apk::CorpusReader::open(std::path::Path::new(dir))
                .map_err(|e| format!("cannot open corpus {dir}: {e}"))?;
            return Ok(Box::new(reader));
        }
        let mut apps: Vec<fragdroid::suite::SuiteContainer> = fd_appgen::corpus::corpus_217(seed)
            .into_iter()
            .map(|g| (fd_apk::pack(&g.app), g.known_inputs))
            .collect();
        if limit > 0 {
            apps.truncate(limit);
        }
        Ok(Box::new(apps))
    }

    /// `--trace-out T.jsonl`: the path to write the trace to, and tracing
    /// on — or no path and tracing off.
    pub fn trace_out(&self) -> (Option<&str>, fd_trace::TraceConfig) {
        match self.opt("trace-out") {
            Some(out) => (Some(out), fd_trace::TraceConfig::on()),
            None => (None, fd_trace::TraceConfig::off()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmds::{BACKEND, ENGINE};

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn noop(_: &Parsed) -> Result<(), CliError> {
        Ok(())
    }

    /// A command declaring every kind, and the engine and backend groups.
    const PROBE: Command = Command {
        name: "probe",
        positionals: &["<app.fapk>"],
        flags: &[
            &[
                ("json", Kind::Bare),
                ("retries", Kind::U32),
                ("seed", Kind::U64),
                ("limit", Kind::Usize),
                ("out", Kind::Text("DIR")),
            ],
            ENGINE,
            BACKEND,
        ],
        summary: "",
        handler: noop,
    };

    #[test]
    fn parses_positionals_and_options() {
        let p = parse(&PROBE, &argv("app.fapk --seed 7 --json")).unwrap();
        assert_eq!(p.arg(0), "app.fapk");
        assert_eq!(p.num("seed", 0u64).unwrap(), 7);
        assert_eq!(p.opt_num::<u64>("limit"), Ok(None));
        assert!(p.flag("json"));
        assert!(parse(&PROBE, &argv("app.fapk --seed x")).is_err());
    }

    #[test]
    fn engine_config_reads_every_engine_flag() {
        let config = |line: &str| {
            let parsed = parse(&PROBE, &argv(&format!("app.fapk {line}"))).unwrap();
            parsed.engine_config().map(|config| format!("{config:?}"))
        };
        let default = fragdroid::FragDroidConfig::default();
        assert_eq!(config(""), Ok(format!("{default:?}")));
        let flags = "--budget 5000 --deadline-ms 600000 --fault-rate 0.25 --fault-seed 7";
        let expected = fragdroid::FragDroidConfig { event_budget: 5000, ..default }
            .with_deadline(std::time::Duration::from_millis(600_000))
            .with_faults(7, 0.25);
        assert_eq!(config(flags), Ok(format!("{expected:?}")));
        let subprocess = expected.with_backend(fd_droidsim::DeviceBackend::Subprocess);
        assert_eq!(config(&format!("{flags} --backend subprocess")), Ok(format!("{subprocess:?}")));
        let bogus = config("--backend adb").unwrap_err();
        assert!(bogus.starts_with("unknown backend 'adb'"), "{bogus}");
    }

    #[test]
    fn fractions_stay_in_the_unit_interval() {
        for good in ["0", "0.25", "1"] {
            let p = parse(&PROBE, &argv(&format!("app.fapk --fault-rate {good}"))).unwrap();
            assert_eq!(p.opt("fault-rate"), Some(good));
        }
        for bad in ["1.5", "-0.1", "x"] {
            let err = parse(&PROBE, &argv(&format!("app.fapk --fault-rate {bad}"))).unwrap_err();
            assert!(err.contains("in [0, 1]"), "{err}");
        }
    }

    /// Every numeric width refuses the first value past its maximum
    /// instead of truncating it.
    #[test]
    fn numbers_keep_their_declared_width() {
        let widths = [
            ("retries", u64::from(u32::MAX).to_string(), "4294967296", 32),
            ("seed", u64::MAX.to_string(), "18446744073709551616", 64),
            ("limit", usize::MAX.to_string(), "18446744073709551616", usize::BITS),
        ];
        for (flag, max, over, bits) in widths {
            let p = parse(&PROBE, &argv(&format!("app.fapk --{flag} {max}"))).unwrap();
            assert_eq!(p.opt(flag), Some(max.as_str()));
            let err = parse(&PROBE, &argv(&format!("app.fapk --{flag} {over}"))).unwrap_err();
            assert!(err.contains(&format!("--{flag}")) && err.contains(&format!("{bits} bits")));
            assert!(parse(&PROBE, &argv(&format!("app.fapk --{flag} -1"))).is_err());
        }
        let p = parse(&PROBE, &argv("app.fapk --retries 4294967295")).unwrap();
        assert_eq!(p.num("retries", 0u32), Ok(u32::MAX));
    }
}
