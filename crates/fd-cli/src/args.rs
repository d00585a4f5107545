//! Tiny hand-rolled argument parsing: one positional path plus
//! `--flag value` / bare `--flag` options.

use std::collections::BTreeMap;

/// Parsed arguments: the positional values in order, and the options.
#[derive(Debug, Default)]
pub struct Parsed {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// `--key value` options; bare flags map to an empty string.
    pub options: BTreeMap<String, String>,
}

/// Flags that take no value.
const BARE_FLAGS: &[&str] = &["random", "json", "resume", "merge", "async"];

/// Parses `argv` into positionals and options.
pub fn parse(argv: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed::default();
    let mut iter = argv.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(key) = arg.strip_prefix("--") {
            if BARE_FLAGS.contains(&key) {
                parsed.options.insert(key.to_string(), String::new());
            } else {
                let value = iter.next().ok_or_else(|| format!("option --{key} expects a value"))?;
                parsed.options.insert(key.to_string(), value.clone());
            }
        } else {
            parsed.positional.push(arg.clone());
        }
    }
    Ok(parsed)
}

impl Parsed {
    /// The single required positional argument.
    pub fn one_path(&self, what: &str) -> Result<&str, String> {
        match self.positional.as_slice() {
            [p] => Ok(p),
            [] => Err(format!("missing {what}")),
            _ => Err(format!("expected exactly one {what}")),
        }
    }

    /// An option's value, if present.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a bare flag is present.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// A numeric option with a default.
    pub fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got '{v}'")),
        }
    }

    /// An optional numeric option: `None` when absent.
    pub fn opt_num(&self, key: &str) -> Result<Option<u64>, String> {
        self.opt(key).map(|_| self.num(key, 0)).transpose()
    }

    /// The engine config every command that runs or checks apps shares:
    /// `--budget N` events (default 40 000), `--deadline-ms N` per app
    /// (0: none), `--fault-rate R` with `--fault-seed N` (default 1), and,
    /// when `devices` is set, `--backend <in-process|subprocess|mock-adb>`
    /// (default in-process).
    pub fn engine_config(&self, devices: bool) -> Result<fragdroid::FragDroidConfig, String> {
        let mut config = fragdroid::FragDroidConfig {
            event_budget: self.num("budget", 40_000)? as usize,
            ..fragdroid::FragDroidConfig::default()
        };
        if let (true, Some(name)) = (devices, self.opt("backend")) {
            config.backend = fd_droidsim::DeviceBackend::parse(name).ok_or_else(|| {
                format!("unknown backend '{name}' (in-process, subprocess, mock-adb)")
            })?;
        }
        let deadline_ms = self.num("deadline-ms", 0)?;
        if deadline_ms > 0 {
            config = config.with_deadline(std::time::Duration::from_millis(deadline_ms));
        }
        let fault_rate = self.fraction("fault-rate", 0.0)?;
        if fault_rate > 0.0 {
            config = config.with_faults(self.num("fault-seed", 1)?, fault_rate);
        }
        Ok(config)
    }

    /// A fractional option with a default, constrained to `[0, 1]`.
    pub fn fraction(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => {
                let parsed: f64 = v
                    .parse()
                    .map_err(|_| format!("--{key} expects a number in [0, 1], got '{v}'"))?;
                if !(0.0..=1.0).contains(&parsed) {
                    return Err(format!("--{key} expects a number in [0, 1], got '{v}'"));
                }
                Ok(parsed)
            }
        }
    }

    /// The corpus a suite command runs: the on-disk `gen-corpus`
    /// directory `--corpus DIR`, streamed entry by entry (memory stays
    /// O(1 app)), or the in-memory synthetic 217 of `--seed` (default 1)
    /// cut to its first `--limit` apps (0 keeps them all).
    pub fn corpus_source(&self) -> Result<Box<dyn fragdroid::CorpusSource>, String> {
        let seed = self.num("seed", 1)?;
        let limit = self.num("limit", 0)? as usize;
        if let Some(dir) = self.opt("corpus") {
            if limit > 0 {
                return Err("--limit applies to the in-memory corpus; \
                            slice an on-disk corpus with --shards"
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

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_and_options() {
        let p = parse(&argv(&["app.fapk", "--seed", "7", "--json"])).unwrap();
        assert_eq!(p.one_path("container").unwrap(), "app.fapk");
        assert_eq!(p.num("seed", 0).unwrap(), 7);
        assert!(p.flag("json"));
        assert!(!p.flag("random"));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&argv(&["--seed"])).is_err());
    }

    #[test]
    fn bad_number_is_an_error() {
        let p = parse(&argv(&["--seed", "x"])).unwrap();
        assert!(p.num("seed", 0).is_err());
    }

    #[test]
    fn opt_num_is_none_some_or_an_error() {
        let p = parse(&argv(&["--shard-index", "3", "--chaos-seed", "x"])).unwrap();
        assert_eq!(p.opt_num("absent"), Ok(None));
        assert_eq!(p.opt_num("shard-index"), Ok(Some(3)));
        assert_eq!(p.opt_num("chaos-seed"), Err("--chaos-seed expects a number, got 'x'".into()));
    }

    #[test]
    fn engine_config_reads_every_engine_flag() {
        let config = |line: &str, devices| {
            let parsed = parse(&argv(&line.split_whitespace().collect::<Vec<_>>())).unwrap();
            parsed.engine_config(devices).map(|config| format!("{config:?}"))
        };
        let default = fragdroid::FragDroidConfig::default();
        assert_eq!(config("", true), Ok(format!("{default:?}")));
        let flags = "--budget 5000 --deadline-ms 600000 --fault-rate 0.25 --fault-seed 7 \
                     --backend subprocess";
        let expected = fragdroid::FragDroidConfig { event_budget: 5000, ..default }
            .with_deadline(std::time::Duration::from_millis(600_000))
            .with_faults(7, 0.25);
        assert_eq!(config(flags, false), Ok(format!("{expected:?}")), "no backend");
        let subprocess = expected.with_backend(fd_droidsim::DeviceBackend::Subprocess);
        assert_eq!(config(flags, true), Ok(format!("{subprocess:?}")));
        let bogus = config("--backend adb", true).unwrap_err();
        assert!(bogus.starts_with("unknown backend 'adb'"), "{bogus}");
        assert!(config("--backend adb", false).is_ok());
    }

    #[test]
    fn fraction_enforces_unit_interval() {
        let p = parse(&argv(&["--fault-rate", "0.25"])).unwrap();
        assert_eq!(p.fraction("fault-rate", 0.0).unwrap(), 0.25);
        assert_eq!(p.fraction("absent", 0.1).unwrap(), 0.1);
        let over = parse(&argv(&["--fault-rate", "1.5"])).unwrap();
        assert!(over.fraction("fault-rate", 0.0).is_err());
        let junk = parse(&argv(&["--fault-rate", "x"])).unwrap();
        assert!(junk.fraction("fault-rate", 0.0).is_err());
    }

    #[test]
    fn one_path_rejects_extra_positionals() {
        let p = parse(&argv(&["a", "b"])).unwrap();
        assert!(p.one_path("container").is_err());
    }
}
