//! Front-end configuration, parsed in one place.
//!
//! The library crates read no environment variable: every driver takes its
//! executor and search configuration as arguments. The examples and the
//! integration tests are the edge that turns command-line flags and
//! `MIRS_*` variables into those arguments, through this module. A
//! malformed flag or variable, or a value flag given without its value,
//! ends the program with a message that names it.

use harness::cache::ScheduleCache;
use harness::sweep::SweepExecutor;
use mirs::{SearchConfig, SearchStrategyKind};
use std::str::FromStr;
use vliw::MachineConfig;

/// The process environment as the variable lookup the library's
/// `from_vars` parsers take.
fn env_var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The search configuration `MIRS_STRATEGY` and `MIRS_PRUNE` select
/// ([`SearchConfig::from_vars`]).
#[must_use]
pub fn env_search() -> SearchConfig {
    SearchConfig::from_vars(env_var)
}

/// The sweep executor `MIRS_JOBS` sizes ([`SweepExecutor::from_vars`]).
#[must_use]
pub fn env_executor() -> SweepExecutor {
    SweepExecutor::from_vars(env_var)
}

/// The schedule cache at `MIRS_CACHE_DIR`, disabled when the variable is
/// unset ([`ScheduleCache::from_vars`]).
#[must_use]
pub fn env_cache() -> ScheduleCache {
    ScheduleCache::from_vars(env_var)
}

/// The variable `name` as a count, or `default` when it is unset.
#[must_use]
pub fn env_usize(name: &str, default: usize) -> usize {
    env_var(name).map_or(default, |v| {
        v.trim().parse().unwrap_or_else(|_| {
            fail(&format!(
                "{name}={v:?} is not a count (expected 0, 1, 2, ...)"
            ))
        })
    })
}

/// Value of `--NAME X` (also accepted as `--NAME=X`), if present.
#[must_use]
pub fn flag_arg(name: &str) -> Option<String> {
    find_flag(&std::env::args().skip(1).collect::<Vec<_>>(), name).unwrap_or_else(|e| fail(&e))
}

/// Whether the bare flag `--NAME` is present.
#[must_use]
pub fn flag_set(name: &str) -> bool {
    let long = format!("--{name}");
    std::env::args().skip(1).any(|a| a == long)
}

/// `--NAME X` parsed as a `T`, if present.
#[must_use]
pub fn flag_parse<T: FromStr>(name: &str) -> Option<T> {
    flag_arg(name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| fail(&format!("--{name} {v:?} is not a valid value")))
    })
}

/// A strategy name as `--strategy` spells it.
fn parse_strategy(name: &str) -> SearchStrategyKind {
    SearchStrategyKind::parse(name).unwrap_or_else(|| {
        let expected = SearchStrategyKind::ALL.map(SearchStrategyKind::label);
        fail(&format!(
            "unknown strategy '{name}' (expected {})",
            expected.join("|")
        ))
    })
}

/// The comma-separated `--strategy a,b,…` list, if given.
#[must_use]
pub fn strategies_flag() -> Option<Vec<SearchStrategyKind>> {
    flag_arg("strategy").map(|list| list.split(',').map(parse_strategy).collect())
}

/// The environment's search configuration with the strategy a
/// `--strategy NAME` flag names, when one is given.
#[must_use]
pub fn search() -> SearchConfig {
    let env = env_search();
    match flag_arg("strategy") {
        Some(name) => SearchConfig {
            strategy: parse_strategy(&name),
            ..env
        },
        None => env,
    }
}

/// A `--jobs N` executor, or the one `MIRS_JOBS` sizes.
#[must_use]
pub fn executor() -> SweepExecutor {
    flag_parse("jobs").map_or_else(env_executor, SweepExecutor::new)
}

/// The paper machine a `KxR` name (`2x32`: two clusters of 32 registers)
/// describes.
#[must_use]
pub fn paper_config(spec: &str) -> MachineConfig {
    fn bad(spec: &str) -> ! {
        fail(&format!("bad config '{spec}' (expected KxR, e.g. 2x32)"))
    }
    let (k, regs) = spec
        .trim()
        .split_once(['x', 'X'])
        .unwrap_or_else(|| bad(spec));
    let k: u32 = k.parse().unwrap_or_else(|_| bad(spec));
    let regs: u32 = regs.parse().unwrap_or_else(|_| bad(spec));
    MachineConfig::paper_config(k, regs)
        .unwrap_or_else(|e| fail(&format!("invalid config '{spec}': {e}")))
}

/// Value of `--NAME X` or `--NAME=X` in `args`; an error when `--NAME`
/// is the last argument or another flag follows it.
fn find_flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if *a == long {
            return match it.next() {
                Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
                _ => Err(format!("{long} needs a value")),
            };
        }
        if let Some(v) = a.strip_prefix(&prefixed) {
            return Ok(Some(v.to_string()));
        }
    }
    Ok(None)
}

/// Print `msg` and end the program with the usage-error status.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_are_found_in_both_spellings() {
        let args: Vec<String> = ["--jobs", "4", "--strategy=linear,exact", "--quiet"]
            .map(String::from)
            .to_vec();
        assert_eq!(find_flag(&args, "jobs"), Ok(Some("4".into())));
        assert_eq!(
            find_flag(&args, "strategy"),
            Ok(Some("linear,exact".into()))
        );
        assert_eq!(find_flag(&args, "loops"), Ok(None));
        // A value flag given last, or with another flag in its value's place.
        let needs = |flag: &str| Err(format!("--{flag} needs a value"));
        assert_eq!(find_flag(&args, "quiet"), needs("quiet"));
        let args = ["--cache-dir", "--quiet"].map(String::from);
        assert_eq!(find_flag(&args, "cache-dir"), needs("cache-dir"));
    }
}
