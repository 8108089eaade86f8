//! The benchmark tables of EXPERIMENTS.md quote the committed reports: every
//! cell of the tick, fleet and serve tables must equal the committed
//! `BENCH_*.json` value at the precision the cell prints, and every
//! committed row must appear in its table.

use fiveg_bench::perfgate::{rows_of, Value};

const TABLES: [(&str, &str); 3] = [
    ("Tick benchmark", "BENCH_tick.json"),
    ("Fleet benchmark", "BENCH_fleet.json"),
    ("Online serving", "BENCH_serve.json"),
];

fn read(file: &str) -> String {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The cells of one markdown table line, code spans unwrapped.
fn cells(line: &str) -> Vec<&str> {
    line.trim().trim_matches('|').split('|').map(|c| c.trim().trim_matches('`')).collect()
}

/// The first table of the `## {heading}` section whose header starts with
/// `| row |`: its header cells and its body rows.
fn table<'a>(doc: &'a str, heading: &str) -> (Vec<&'a str>, Vec<Vec<&'a str>>) {
    let section = doc.split("\n## ").find(|s| s.starts_with(heading)).unwrap_or_else(|| panic!("no ## {heading}"));
    let mut lines = section.lines().skip_while(|l| !l.starts_with("| row |")).take_while(|l| l.starts_with('|'));
    let header = cells(lines.next().unwrap_or_else(|| panic!("## {heading} has no `| row |` table")));
    (header, lines.skip(1).map(cells).collect())
}

/// True when `cell` prints `v` at the cell's own precision (thousands
/// separators allowed).
fn quotes(cell: &str, v: &Value) -> bool {
    match v {
        Value::Str(s) => cell == s,
        Value::Num(v) => {
            let plain = cell.replace(',', "");
            let decimals = plain.split_once('.').map_or(0, |(_, d)| d.len());
            format!("{v:.decimals$}") == plain
        }
    }
}

#[test]
fn experiments_tables_quote_the_committed_reports() {
    let doc = read("EXPERIMENTS.md");
    for (heading, file) in TABLES {
        let json = read(file);
        let committed = rows_of(&json).unwrap_or_else(|| panic!("{file} has no readable rows"));
        let (header, body) = table(&doc, heading);
        let mut checked = 0;
        for row in &body {
            let label = row[0];
            let (_, entries) =
                committed.iter().find(|(l, _)| l == label).unwrap_or_else(|| panic!("{file} has no row {label}"));
            for (key, cell) in header[1..].iter().zip(&row[1..]).filter(|(_, c)| !c.is_empty()) {
                let (_, v) =
                    entries.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("{file} {label} has no {key}"));
                assert!(quotes(cell, v), "EXPERIMENTS.md {heading}: {label} {key} reads {cell}, {file} holds {v}");
                checked += 1;
            }
        }
        for (label, entries) in &committed {
            assert!(body.iter().any(|r| r[0] == label), "EXPERIMENTS.md {heading} lacks row {label} of {file}");
            assert!(!entries.is_empty(), "{file} row {label} gates nothing");
        }
        assert!(checked >= committed.len(), "{heading}: only {checked} cells checked");
    }
}

#[test]
fn a_cell_must_match_at_its_own_precision() {
    let v = Value::Num(0.8405797101449275);
    assert!(quotes("0.8406", &v) && quotes("0.84", &v));
    assert!(!quotes("0.8405", &v) && !quotes("0.85", &v));
    assert!(quotes("17,096", &Value::Num(17096.0)) && !quotes("17,097", &Value::Num(17096.0)));
    assert!(quotes("5da2ba60f4a46758", &Value::Str("5da2ba60f4a46758".into())));
}
