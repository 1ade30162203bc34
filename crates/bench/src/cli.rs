//! Shared harness argument parsing.
//!
//! Every harness binary funnels `std::env::args` through here, so all
//! twelve get the same `--help`/`-h` text, the same environment-knob
//! summary, and a hard error (exit 2) on unknown arguments — instead of
//! silently ignoring them or panicking on a bad index.

use std::fmt::Write as _;

/// What parsing decided, before any process exit.
#[derive(Debug, PartialEq, Eq)]
pub enum Parsed {
    /// Run the harness with these positional arguments.
    Run(Vec<String>),
    /// `--help`/`-h`: print usage and exit 0.
    Help,
    /// An argument the harness does not take (flag or unexpected
    /// positional): print the message + usage to stderr and exit 2.
    Error(String),
}

/// A harness's argument surface: a name, a one-line description, and at
/// most one repeatable positional.
#[derive(Debug)]
pub struct Cli {
    name: &'static str,
    about: &'static str,
    positional: Option<(&'static str, &'static str)>,
}

impl Cli {
    /// A harness taking no arguments.
    pub fn new(name: &'static str, about: &'static str) -> Self {
        Cli { name, about, positional: None }
    }

    /// Declare a repeatable positional argument (metavar + help line).
    pub fn positional(mut self, metavar: &'static str, help: &'static str) -> Self {
        self.positional = Some((metavar, help));
        self
    }

    /// The full usage text.
    pub fn usage(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{} — {}", self.name, self.about);
        let _ = writeln!(s);
        match self.positional {
            Some((meta, _)) => {
                let _ = writeln!(s, "usage: {} [{meta}...]", self.name);
            }
            None => {
                let _ = writeln!(s, "usage: {}", self.name);
            }
        }
        if let Some((meta, help)) = self.positional {
            let _ = writeln!(s);
            let _ = writeln!(s, "arguments:");
            let _ = writeln!(s, "  {meta:<18} {help}");
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "options:");
        let _ = writeln!(s, "  -h, --help         print this help and exit");
        let _ = writeln!(s);
        let _ = writeln!(s, "environment (docs/HARNESSES.md):");
        let _ = writeln!(s, "  XSSD_BENCH_THREADS sweep worker count (1 = sequential oracle)");
        let _ = writeln!(s, "  XSSD_RESULTS_DIR   where results/<name>.json is written");
        s
    }

    /// Classify raw arguments (everything after argv[0]). Pure, so tests
    /// can drive it without a process exit.
    pub fn parse<S: AsRef<str>>(&self, args: &[S]) -> Parsed {
        let mut positionals = Vec::new();
        for a in args {
            let a = a.as_ref();
            match a {
                "-h" | "--help" => return Parsed::Help,
                _ if a.starts_with('-') => {
                    return Parsed::Error(format!("unknown option `{a}`"));
                }
                _ if self.positional.is_none() => {
                    return Parsed::Error(format!("unexpected argument `{a}`"));
                }
                _ => positionals.push(a.to_string()),
            }
        }
        Parsed::Run(positionals)
    }

    /// Parse the process arguments; print help / usage errors and exit
    /// as appropriate, otherwise return the positionals.
    pub fn run(&self) -> Vec<String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match self.parse(&args) {
            Parsed::Run(p) => p,
            Parsed::Help => {
                print!("{}", self.usage());
                std::process::exit(0);
            }
            Parsed::Error(msg) => {
                eprintln!("{}: {msg}", self.name);
                eprint!("{}", self.usage());
                std::process::exit(2);
            }
        }
    }
}

/// Argument surface of a harness with no positionals: handles
/// `--help`, rejects everything else.
pub fn no_args(name: &'static str, about: &'static str) {
    let _ = Cli::new(name, about).run();
}

/// Argument surface of a harness taking a list of u64 seeds; returns
/// `default` when none are given.
pub fn seed_list(
    name: &'static str,
    about: &'static str,
    help: &'static str,
    default: u64,
) -> Vec<u64> {
    let cli = Cli::new(name, about).positional("seed", help);
    let raw = cli.run();
    if raw.is_empty() {
        return vec![default];
    }
    raw.iter()
        .map(|s| {
            s.parse::<u64>().unwrap_or_else(|_| {
                eprintln!("{name}: seed `{s}` is not a u64");
                eprint!("{}", cli.usage());
                std::process::exit(2);
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_short_and_long() {
        let cli = Cli::new("x", "y");
        assert_eq!(cli.parse(&["-h"]), Parsed::Help);
        assert_eq!(cli.parse(&["--help"]), Parsed::Help);
        // Help wins even after valid positionals.
        let cli = Cli::new("x", "y").positional("seed", "s");
        assert_eq!(cli.parse(&["7", "--help"]), Parsed::Help);
    }

    #[test]
    fn unknown_flags_and_unexpected_positionals_error() {
        let cli = Cli::new("x", "y");
        assert!(matches!(cli.parse(&["--bogus"]), Parsed::Error(_)));
        assert!(matches!(cli.parse(&["17"]), Parsed::Error(_)));
        let with_pos = Cli::new("x", "y").positional("seed", "s");
        assert!(matches!(with_pos.parse(&["--bogus"]), Parsed::Error(_)));
        assert_eq!(with_pos.parse(&["17", "42"]), Parsed::Run(vec!["17".into(), "42".into()]));
    }

    #[test]
    fn usage_names_the_harness_and_knobs() {
        let u = Cli::new("fig_ycsb", "YCSB mixes x backends").usage();
        assert!(u.contains("fig_ycsb"));
        assert!(u.contains("XSSD_BENCH_THREADS"));
        assert!(u.contains("--help"));
    }
}
