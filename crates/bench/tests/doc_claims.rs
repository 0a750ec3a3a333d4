//! The docs may only name commands that exist: every `repro <cmd>` in
//! README.md, DESIGN.md or EXPERIMENTS.md must be listed by `repro list`,
//! and every `--bin <name>` must be a binary some workspace crate builds.
//!
//! Commands are read from code (inline backtick spans and fenced blocks),
//! where the docs quote invocations; prose like "the `repro` binary" is
//! not a command.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every code fragment of a markdown file: each fenced-block line and each
/// inline backtick span.
fn code_fragments(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            out.push(line.to_string());
        } else {
            out.extend(line.split('`').skip(1).step_by(2).map(str::to_string));
        }
    }
    out
}

/// Shell words that end one command line inside a fragment.
fn is_separator(word: &str) -> bool {
    word.starts_with('#') || matches!(word, "|" | "||" | "&" | "&&" | ";" | ">" | ">>" | "\\")
}

/// Subcommands a fragment passes to `repro`: the lowercase words after a
/// `repro` (or `…/repro`) token up to a shell separator or comment. Flags,
/// their path/address/number values and placeholders like `N` or `<cmd>`
/// are skipped.
fn repro_commands(fragment: &str) -> Vec<String> {
    let words: Vec<&str> = fragment.split_whitespace().collect();
    let mut out = Vec::new();
    for (i, word) in words.iter().enumerate() {
        if *word != "repro" && !word.ends_with("/repro") {
            continue;
        }
        for arg in words[i + 1..].iter().take_while(|w| !is_separator(w)) {
            let command_like = arg.starts_with(|c: char| c.is_ascii_lowercase())
                && arg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
            if command_like {
                out.push(arg.to_string());
            }
        }
    }
    out
}

/// The word after each `--bin` in a fragment.
fn bin_names(fragment: &str) -> Vec<String> {
    let words: Vec<&str> = fragment.split_whitespace().collect();
    words
        .windows(2)
        .filter(|w| w[0] == "--bin")
        .map(|w| w[1].to_string())
        .collect()
}

/// Binaries the workspace builds: `[[bin]]` names and `src/bin/*.rs`.
fn workspace_binaries() -> BTreeSet<String> {
    let mut bins = BTreeSet::new();
    for entry in std::fs::read_dir(workspace_root().join("crates")).unwrap() {
        let dir = entry.unwrap().path();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        for section in manifest.split("[[bin]]").skip(1) {
            let name = section
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = "));
            bins.extend(name.map(|n| n.trim_matches('"').to_string()));
        }
        for file in std::fs::read_dir(dir.join("src/bin")).into_iter().flatten() {
            let path = file.unwrap().path();
            bins.extend(path.file_stem().map(|s| s.to_string_lossy().into_owned()));
        }
    }
    bins
}

/// Words of `repro list`'s output.
fn listed_commands() -> BTreeSet<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("run repro list");
    assert!(output.status.success(), "repro list failed");
    String::from_utf8(output.stdout)
        .unwrap()
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect()
}

#[test]
fn documented_commands_and_binaries_exist() {
    let listed = listed_commands();
    let bins = workspace_binaries();
    assert!(
        bins.contains("repro") && bins.contains("uvf-bench"),
        "{bins:?}"
    );
    let mut missing = Vec::new();
    let mut seen = 0usize;
    for doc in DOCS {
        let text = std::fs::read_to_string(workspace_root().join(doc)).unwrap();
        for fragment in code_fragments(&text) {
            for cmd in repro_commands(&fragment) {
                seen += 1;
                if !listed.contains(&cmd) {
                    missing.push(format!("{doc}: `repro {cmd}` not in `repro list`"));
                }
            }
            for bin in bin_names(&fragment) {
                seen += 1;
                if !bins.contains(&bin) {
                    missing.push(format!("{doc}: `--bin {bin}` is not a workspace binary"));
                }
            }
        }
    }
    assert!(
        seen > 10,
        "only {seen} command mentions found; is the parser broken?"
    );
    assert!(
        missing.is_empty(),
        "docs name missing commands:\n{}",
        missing.join("\n")
    );
}

#[test]
fn fragment_parser_reads_invocations_not_prose() {
    let cmds = repro_commands(
        "./target/release/repro --quick --check --workers 2 --out /tmp/x \
         --metrics-addr 127.0.0.1:9188 fig10 fig11 N <cmd> | tee log",
    );
    assert_eq!(cmds, ["fig10", "fig11"]);
    assert_eq!(repro_commands("repro -- all  # paper scale"), ["all"]);
    assert!(repro_commands("repro").is_empty());
    assert_eq!(
        code_fragments("the `repro` binary runs `repro fig5`"),
        ["repro", "repro fig5"]
    );
    assert_eq!(
        bin_names("cargo run -p uvf-bench --bin repro -- list"),
        ["repro"]
    );
}
