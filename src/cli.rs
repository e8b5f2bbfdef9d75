//! The front door shared by `mapa-sched` and `mapa-agent`: each
//! subcommand declares its flags once, as the synopsis the usage text
//! prints, and parsing and the typed getters read that same table — so a
//! flag a subcommand does not list is refused, and the usage cannot drift
//! from what the parser accepts. What a command prints goes through
//! [`out!`](crate::out) and [`outln!`](crate::outln), so a reader that
//! stops early ends it quietly.

use std::borrow::Borrow;
use std::fmt;
use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;

/// `print!` for a command's output, through [`cli::write_stdout`](crate::cli::write_stdout).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for a command's output, through [`cli::write_stdout`](crate::cli::write_stdout).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes a command's output to standard output. When the reader has
/// gone (`mapa-sched machines | head -1`) the command ends there, quietly
/// and with exit status 0, as a tool that `SIGPIPE` stops would; any
/// other write failure panics, as `print!` does.
pub fn write_stdout(args: fmt::Arguments) {
    if let Err(e) = io::stdout().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// One subcommand: its name and its synopsis, which is also its flag
/// table. An entry starts at each word opening with `<`, `--` or `[--`:
/// `<operand>` (at most one), `--flag VALUE` (required), `[--flag VALUE]`,
/// `[--flag VALUE]...` (repeatable, every value kept; of any other flag
/// the last value wins) or `[--flag]` (a switch).
pub type Command = (&'static str, &'static str);

/// A binary's whole command line.
#[derive(Debug)]
pub struct Cli {
    /// The binary's name.
    pub program: &'static str,
    /// Its subcommands, in usage order.
    pub commands: &'static [Command],
    /// `(label, names)` lists printed under the synopsis — what the
    /// by-name flags accept.
    pub choices: &'static [(&'static str, &'static [&'static str])],
    /// Free text closing the usage.
    pub footer: &'static str,
}

/// A parsed invocation of one subcommand.
#[derive(Debug)]
pub struct Args {
    /// The subcommand that was invoked.
    pub command: &'static str,
    /// Its operand; `Some` whenever the subcommand's synopsis has one.
    pub operand: Option<String>,
    table: Vec<String>,
    given: Vec<(String, String)>,
}

fn entries(synopsis: &str) -> Vec<String> {
    let mut entries: Vec<String> = Vec::new();
    for word in synopsis.split_whitespace() {
        match entries.last_mut() {
            Some(entry) if !word.starts_with(['<', '-']) && !word.starts_with("[--") => {
                *entry = format!("{entry} {word}");
            }
            _ => entries.push(word.to_string()),
        }
    }
    entries
}

/// An entry's flag name and, unless it is a switch, its value placeholder.
fn declared(entry: &str) -> (&str, Option<&str>) {
    let bare = entry.trim_end_matches("...");
    let bare = bare.strip_prefix('[').map_or(bare, |b| &b[..b.len() - 1]);
    match bare.split_once(' ') {
        Some((name, value)) => (name, Some(value)),
        None => (bare, None),
    }
}

impl Cli {
    /// The usage text: one wrapped synopsis per subcommand, the choice
    /// lists, the footer.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut out = String::from("usage:\n");
        for (name, synopsis) in self.commands {
            let head = format!("  {} {name}", self.program);
            let mut line = head.clone();
            for entry in entries(synopsis) {
                if line.len() > head.len() && line.len() + 1 + entry.len() > 78 {
                    out.push_str(&line);
                    out.push('\n');
                    line = " ".repeat(head.len());
                }
                line.push(' ');
                line.push_str(&entry);
            }
            out.push_str(&line);
            out.push('\n');
        }
        out.push('\n');
        for (label, names) in self.choices {
            out.push_str(&format!("{label}: {}\n", names.join(" | ")));
        }
        out + self.footer + "\n"
    }

    /// Parses `argv` (without the program name) against the tables.
    /// `Ok(None)` is a request for help (`help` or `--help`).
    ///
    /// # Errors
    /// A message naming the subcommand and the offending word: an unknown
    /// command or flag, a flag without its value, a stray argument, a
    /// missing operand or required flag.
    pub fn parse(&'static self, argv: &[String]) -> Result<Option<Args>, String> {
        let (name, rest) = argv.split_first().ok_or("no command given")?;
        if name == "help" || name == "--help" {
            return Ok(None);
        }
        let command = self.commands.iter().find(|(c, _)| c == name);
        let &(cmd, synopsis) = command.ok_or_else(|| format!("unknown command '{name}'"))?;
        let mut args = Args {
            command: cmd,
            operand: None,
            table: entries(synopsis),
            given: Vec::new(),
        };
        let takes_operand = args.table.iter().any(|e| e.starts_with('<'));
        let mut words = rest.iter();
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                if !takes_operand || args.operand.is_some() {
                    return Err(format!("{cmd}: unexpected argument '{word}'"));
                }
                args.operand = Some(word.clone());
                continue;
            }
            let mut flags = args.table.iter().map(|e| declared(e));
            let flag = flags.find(|(f, _)| f == word);
            let (_, value) = flag.ok_or_else(|| format!("{cmd}: unknown flag '{word}'"))?;
            let value = match value {
                None => String::new(),
                Some(placeholder) => words
                    .next()
                    .ok_or_else(|| format!("{cmd}: {word} needs a value ({placeholder})"))?
                    .clone(),
            };
            args.given.push((word.clone(), value));
        }
        for entry in &args.table {
            let missing = match entry.strip_prefix('<') {
                Some(_) => args.operand.is_none(),
                None => !entry.starts_with('[') && !args.has(declared(entry).0),
            };
            if missing {
                return Err(format!("{cmd} needs {entry}"));
            }
        }
        Ok(Some(args))
    }

    /// The whole of a binary's `main`: parse, print the usage on `help`
    /// (exit 0) or on a command line the tables refuse (exit 1), run the
    /// subcommand otherwise. A failure of the subcommand itself — an
    /// unreadable file, an infeasible request — prints its message alone.
    pub fn main(&'static self, run: impl FnOnce(&Args) -> Result<(), String>) -> ExitCode {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let failure = match self.parse(&argv) {
            Ok(None) => {
                write_stdout(format_args!("{}", self.usage()));
                return ExitCode::SUCCESS;
            }
            Ok(Some(args)) => match run(&args) {
                Ok(()) => return ExitCode::SUCCESS,
                Err(message) => message,
            },
            Err(message) => format!("{message}\n{}", self.usage().trim_end()),
        };
        eprintln!("error: {failure}");
        ExitCode::FAILURE
    }
}

impl Args {
    /// Every value given for the flag, in command-line order (an empty
    /// string per occurrence of a switch).
    ///
    /// # Panics
    /// On a flag the subcommand's table does not declare.
    pub fn all<'a>(&'a self, name: &'a str) -> impl DoubleEndedIterator<Item = &'a str> {
        let known = self.table.iter().any(|e| declared(e).0 == name);
        assert!(known, "{name} is not in the {} table", self.command);
        let given = self.given.iter().filter(move |(n, _)| n == name);
        given.map(|(_, v)| v.as_str())
    }

    /// Whether the flag was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.all(name).next().is_some()
    }

    /// The flag's value as typed.
    #[must_use]
    pub fn str<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.all(name).next_back()
    }

    /// The value of a flag the table marks required.
    #[must_use]
    pub fn required<'a>(&'a self, name: &'a str) -> &'a str {
        let value = self.str(name);
        value.expect("parse refuses a missing required flag")
    }

    /// The flag's value parsed as `T`, `None` when the flag is absent.
    ///
    /// # Errors
    /// Names the flag and echoes the text that did not parse.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |text: &str| {
            let invalid = |_| format!("{name}: '{text}' is not a valid value");
            text.parse().map_err(invalid)
        };
        self.str(name).map(parse).transpose()
    }
}

/// Resolves `name` through one of the `*_by_name` functions; the one
/// place an unknown name is turned into a message listing the known ones.
///
/// # Errors
/// `unknown <what> '<name>' (choose from: a | b | …)`.
pub fn choose<T>(
    what: &str,
    name: &str,
    by_name: impl FnOnce(&str) -> Option<T>,
    names: &[impl Borrow<str>],
) -> Result<T, String> {
    let names = names.join(" | ");
    by_name(name).ok_or_else(|| format!("unknown {what} '{name}' (choose from: {names})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    static CLI: Cli = Cli {
        program: "prog",
        commands: &[
            (
                "run",
                "--machine NAME [--count N] [--fast] [--gap S]
                 [--partition GPU:SLICES,...[;degraded]]...",
            ),
            ("show", "<file> [--lease ID]"),
        ],
        choices: &[("machines", &["a", "b"])],
        footer: "see the docs",
    };

    fn parse(words: &[&str]) -> Result<Option<Args>, String> {
        let argv: Vec<String> = words.iter().map(ToString::to_string).collect();
        CLI.parse(&argv)
    }

    #[test]
    fn values_switches_and_repeatables_read_back_typed() {
        let words = [
            "run",
            "--partition",
            "0:2",
            "--machine",
            "m",
            "--fast",
            "--count",
            "7",
            "--partition",
            "none",
            "--count",
            "9",
        ];
        let args = parse(&words).unwrap().unwrap();
        assert_eq!(args.command, "run");
        assert_eq!(args.required("--machine"), "m");
        assert_eq!(args.get::<usize>("--count"), Ok(Some(9)), "last one wins");
        assert!(args.has("--fast"));
        assert_eq!(args.all("--partition").collect::<Vec<_>>(), ["0:2", "none"]);
        let bare = parse(&["run", "--machine", "m"]).unwrap().unwrap();
        assert!(!bare.has("--fast"));
        assert_eq!(bare.get::<usize>("--count"), Ok(None));
        assert_eq!(bare.all("--partition").count(), 0);
        // A value is taken as typed, even when it looks like a flag.
        let negative = parse(&["run", "--machine", "m", "--gap", "--5"]);
        assert_eq!(negative.unwrap().unwrap().str("--gap"), Some("--5"));
    }

    #[test]
    fn refusals_name_the_subcommand_and_the_offending_word() {
        let refusal = |words: &[&str]| parse(words).unwrap_err();
        assert_eq!(refusal(&[]), "no command given");
        assert_eq!(refusal(&["nope"]), "unknown command 'nope'");
        assert_eq!(refusal(&["run", "--bogus"]), "run: unknown flag '--bogus'");
        // A flag of another subcommand is unknown here.
        assert_eq!(
            refusal(&["run", "--machine", "m", "--lease", "1"]),
            "run: unknown flag '--lease'"
        );
        assert_eq!(
            refusal(&["run", "--machine"]),
            "run: --machine needs a value (NAME)"
        );
        assert_eq!(
            refusal(&["run", "--partition"]),
            "run: --partition needs a value (GPU:SLICES,...[;degraded])"
        );
        assert_eq!(
            refusal(&["run", "--count", "3"]),
            "run needs --machine NAME"
        );
        // A switch takes no value, so the next word is a stray argument.
        assert_eq!(
            refusal(&["run", "--machine", "m", "--fast", "yes"]),
            "run: unexpected argument 'yes'"
        );
        assert_eq!(refusal(&["show"]), "show needs <file>");
        assert_eq!(
            refusal(&["show", "a", "b"]),
            "show: unexpected argument 'b'"
        );
        let args = parse(&["show", "a", "--lease", "x7"]).unwrap().unwrap();
        assert_eq!(args.operand.as_deref(), Some("a"));
        assert_eq!(
            args.get::<u64>("--lease"),
            Err("--lease: 'x7' is not a valid value".to_string())
        );
    }

    #[test]
    fn help_is_recognised_and_usage_is_the_table() {
        assert!(parse(&["help"]).unwrap().is_none());
        assert!(parse(&["--help"]).unwrap().is_none());
        assert_eq!(
            CLI.usage(),
            "usage:\n  prog run --machine NAME [--count N] [--fast] [--gap S]\n           \
             [--partition GPU:SLICES,...[;degraded]]...\n  prog show <file> [--lease ID]\n\n\
             machines: a | b\nsee the docs\n"
        );
    }

    #[test]
    fn choose_lists_the_known_names() {
        let by_name = |n: &str| (n == "a").then_some(1);
        assert_eq!(choose("thing", "a", by_name, &["a", "b"]), Ok(1));
        assert_eq!(
            choose("thing", "c", by_name, &["a", "b"]),
            Err("unknown thing 'c' (choose from: a | b)".to_string())
        );
    }
}
