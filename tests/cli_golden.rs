//! Golden test of the analysis subcommands' stdout: `ground` (open calls,
//! `--direct`, `--entry`), `depthk --k 1 --entry` and `strict`, each on two
//! suite programs. Only the wall-clock `total=…` durations are masked, so
//! any other change to what the CLI prints shows up as a diff. Bless an
//! intentional change with `UPDATE_GOLDEN=1 cargo test --test cli_golden`.

use std::path::PathBuf;
use std::process::Command;

fn suite(dir: &str, file: &str) -> String {
    format!(
        "{}/crates/suite/programs/{dir}/{file}",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// The invocations the golden pins, as `(label, arguments)`.
fn invocations() -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let mut add = |args: Vec<String>| {
        let label = args
            .iter()
            .map(|a| a.rsplit('/').next().unwrap_or(a))
            .collect::<Vec<_>>()
            .join(" ");
        out.push((label, args));
    };
    let s = |x: &str| x.to_owned();
    for (file, entry) in [("qsort.pl", "qsort(g, f)"), ("queens.pl", "queens(g, f)")] {
        let path = suite("logic", file);
        add(vec![s("ground"), path.clone()]);
        add(vec![s("ground"), path.clone(), s("--direct")]);
        add(vec![s("ground"), path.clone(), s("--entry"), s(entry)]);
        add(vec![
            s("depthk"),
            path,
            s("--k"),
            s("1"),
            s("--entry"),
            s(entry),
        ]);
    }
    for file in ["eu.eq", "nq.eq"] {
        add(vec![s("strict"), suite("fun", file)]);
    }
    out
}

/// Replaces each `total=<duration>` token's value with `…`.
fn mask_totals(text: &str) -> String {
    text.split('\n')
        .map(|line| {
            line.split(' ')
                .map(|tok| match tok.strip_prefix("total=") {
                    Some(_) => "total=…",
                    None => tok,
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn render() -> String {
    let mut out = String::new();
    for (label, args) in invocations() {
        let run = Command::new(env!("CARGO_BIN_EXE_tablog"))
            .args(&args)
            .output()
            .expect("spawn tablog");
        assert!(
            run.status.success(),
            "{label}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        out.push_str(&format!("$ tablog {label}\n"));
        out.push_str(&mask_totals(&String::from_utf8_lossy(&run.stdout)));
    }
    out
}

#[test]
fn analysis_subcommands_match_golden_file() {
    let got = render();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli_analyses.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want =
        std::fs::read_to_string(&path).expect("golden file exists (UPDATE_GOLDEN=1 to create)");
    assert_eq!(
        got, want,
        "CLI output drifted from the golden file; \
         re-bless with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

#[test]
fn masking_touches_only_total_durations() {
    assert_eq!(
        mask_totals("pairs=3 total=1.2ms tables=40B\ntotal=5µs"),
        "pairs=3 total=… tables=40B\ntotal=…"
    );
}
