//! Where a result came from: commit, toolchain, host, and code size.

use std::path::Path;
use std::process::Command;

/// The repository root (the benchmark package's parent directory).
#[must_use]
pub fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Trimmed stdout of a command, or `unknown` if it cannot run or fails.
/// `output` waits for the child to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The provenance line printed with every result.
#[must_use]
pub fn describe() -> String {
    // Only ask git inside a git checkout, so that nothing outside the
    // repository is searched.
    let rev = if repo_root().join(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".into()
    };
    let rustc = command_line("rustc", &["--version"]);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!(
        "# provenance: git {rev} | {rustc} | cpu {cpu} | nproc {nproc} | \
         non-test lines {}",
        non_test_lines(&repo_root().join("crates"))
    )
}

/// Non-blank lines of `crates/*/src/**/*.rs`, minus every item marked
/// `#[cfg(test)]` (in practice the inline `mod tests` blocks).
#[must_use]
pub fn non_test_lines(crates: &Path) -> usize {
    let mut files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(crates) {
        for e in entries.flatten() {
            collect_rs(&e.path().join("src"), &mut files);
        }
    }
    files
        .iter()
        .filter_map(|f| std::fs::read_to_string(f).ok())
        .map(|text| count_non_test(&text))
        .sum()
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Counts non-blank lines outside `#[cfg(test)]` items. The item after the
/// attribute ends where its braces balance, or at its `;` if it has none.
/// Braces inside string or char literals are counted too — an
/// approximation that the repository's test modules do not trip.
#[must_use]
pub fn count_non_test(text: &str) -> usize {
    let mut count = 0;
    let mut skipping = false;
    let mut depth = 0i64;
    let mut opened = false;
    for line in text.lines() {
        let t = line.trim();
        if !skipping && t.starts_with("#[cfg(test)]") {
            skipping = true;
            depth = 0;
            opened = false;
            continue;
        }
        if skipping {
            for c in t.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if (opened && depth <= 0) || (!opened && t.ends_with(';')) {
                skipping = false;
            }
            continue;
        }
        if !t.is_empty() {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_modules_and_blank_lines_are_not_counted() {
        let src = "fn a() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert!(true);\n    }\n}\nfn b() {}\n";
        assert_eq!(count_non_test(src), 2);
    }

    #[test]
    fn single_line_test_items_end_at_their_semicolon() {
        let src = "#[cfg(test)]\nuse std::fmt;\nconst X: u8 = 1;\n";
        assert_eq!(count_non_test(src), 1);
    }

    #[test]
    fn the_workspace_has_non_test_code() {
        assert!(non_test_lines(&repo_root().join("crates")) > 1000);
    }
}
