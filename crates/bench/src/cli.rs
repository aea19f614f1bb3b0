//! The one flag parser of the harness's command-line tools (`analyze`,
//! `graphlint`, `dashboard`, `engine_bench`, `profile`).
//!
//! Each tool names the switches and the valued flags it takes, and
//! whether it takes one positional operand. Any other argument, or a
//! valued flag without its value, is a usage error: the
//! tool prints the error and its usage and exits 2. So a script that
//! still passes a deleted flag fails instead of running as if the flag
//! were absent.

use sycl_sim::{quirks::apps, PlatformId};

/// The flags one tool accepts.
pub struct Cli {
    /// The usage line printed with a usage error.
    pub usage: &'static str,
    /// Whether the tool takes one optional positional operand.
    pub operand: bool,
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags followed by exactly one value.
    pub options: &'static [&'static str],
}

/// The flags given on one command line, in order, and the operand.
#[derive(Debug, Default)]
pub struct Flags {
    given: Vec<(&'static str, Option<String>)>,
    operand: Option<String>,
}

impl Cli {
    /// Parse `args`, the command line without the program name.
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Flags, String> {
        let mut args = args.into_iter();
        let mut flags = Flags::default();
        while let Some(arg) = args.next() {
            if let Some(&name) = self.switches.iter().find(|&&s| s == arg) {
                flags.given.push((name, None));
            } else if let Some(&name) = self.options.iter().find(|&&s| s == arg) {
                match args.next() {
                    Some(value) if !value.starts_with("--") => {
                        flags.given.push((name, Some(value)))
                    }
                    _ => return Err(format!("{name} needs a value")),
                }
            } else if self.operand && flags.operand.is_none() && !arg.starts_with('-') {
                flags.operand = Some(arg);
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    /// Parse the process's command line, exiting on a usage error.
    pub fn from_env(&self) -> Flags {
        self.parse(std::env::args().skip(1))
            .unwrap_or_else(|e| self.fail(&e))
    }

    /// Print `error` and the usage, and exit 2.
    pub fn fail(&self, error: &str) -> ! {
        eprintln!("error: {error}\nusage: {}", self.usage);
        std::process::exit(2);
    }

    /// The `--platform` value, A100 when absent. An unknown label is a
    /// usage error.
    pub fn platform(&self, flags: &Flags) -> PlatformId {
        match flags.value("--platform") {
            None => PlatformId::A100,
            Some(label) => PlatformId::parse(label)
                .unwrap_or_else(|| self.fail(&format!("unknown platform {label:?}"))),
        }
    }

    /// The app `--app` names, or every app when it is absent. An
    /// unknown name is a usage error.
    pub fn apps(&self, flags: &Flags) -> Vec<&'static str> {
        let Some(name) = flags.value("--app") else {
            return apps::ALL.to_vec();
        };
        match apps::ALL.into_iter().find(|&a| a == name) {
            Some(app) => vec![app],
            None => self.fail(&format!(
                "unknown app {name:?}; expected one of {}",
                apps::ALL.join(", ")
            )),
        }
    }
}

impl Flags {
    /// Was switch `name` given?
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value of the first `name` flag given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The positional operand, if one was given.
    pub fn operand(&self) -> Option<&str> {
        self.operand.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        usage: "tool [--app <name>] [--deny-warnings]",
        operand: false,
        switches: &["--deny-warnings"],
        options: &["--app"],
    };

    fn parse(args: &[&str]) -> Result<Flags, String> {
        CLI.parse(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn known_flags_parse_in_any_order() {
        let flags = parse(&["--deny-warnings", "--app", "rtm"]).unwrap();
        assert!(flags.has("--deny-warnings"));
        assert_eq!(flags.value("--app"), Some("rtm"));
        let none = parse(&[]).unwrap();
        assert!(!none.has("--deny-warnings"));
        assert_eq!(none.value("--app"), None);
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        let err = |args: &[&str]| parse(args).unwrap_err();
        assert!(err(&["--smoke", "--app", "rtm"]).contains("--smoke"));
        assert!(err(&["rtm"]).contains("rtm"));
        assert!(err(&["--app"]).contains("--app needs a value"));
        assert!(err(&["--app", "--deny-warnings"]).contains("--app needs a value"));
    }

    #[test]
    fn a_tool_with_an_operand_takes_exactly_one() {
        let cli = Cli {
            operand: true,
            ..CLI
        };
        let parse = |args: &[&str]| cli.parse(args.iter().map(|a| (*a).to_owned()));
        let flags = parse(&["--deny-warnings", "rtm"]).unwrap();
        assert_eq!(flags.operand(), Some("rtm"));
        assert!(flags.has("--deny-warnings"));
        assert_eq!(parse(&[]).unwrap().operand(), None);
        assert!(parse(&["rtm", "acoustic"])
            .unwrap_err()
            .contains("acoustic"));
        assert!(parse(&["rtm", "--bogus"]).unwrap_err().contains("--bogus"));
    }
}
