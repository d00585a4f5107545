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
