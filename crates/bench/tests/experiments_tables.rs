//! EXPERIMENTS.md's tables, rendered from the goldens (ROADMAP item 24).
//! A figure number has one copy, its golden's row. A table that quotes one
//! sits between `<!-- rows: <golden> -->` and `<!-- /rows -->`, and its
//! `TABLES` entry says how the golden's rows pivot into it: what labels
//! the table's rows, what labels its columns, and the numbers each cell
//! shows. A block that is not what its entry renders fails, naming the
//! cells that differ and printing the rendered block to paste in. Only
//! tables are rendered: prose names a cell or a `CLAIMS` predicate
//! (`paper_shapes.rs`) instead of repeating a number.

mod golden;

use golden::Row;

const EXPERIMENTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// What labels a table's rows or its columns: the rows' `series`, the part
/// of it before or after its first `-`, their `x`, or (columns only) the
/// entry's fields, one column each.
#[derive(Clone, Copy, PartialEq)]
enum Axis {
    Series,
    SeriesHead,
    SeriesTail,
    X,
    Fields,
}

/// A number a cell shows: its name, the row value it reads, the scale it
/// is multiplied by and its decimals.
struct Field(&'static str, fn(&Row) -> f64, f64, usize);

/// How a golden's rows pivot into its table: the row and the column axis,
/// each with its name for the header, and the fields of a cell.
struct Table {
    golden: &'static str,
    rows: (Axis, &'static str),
    cols: (Axis, &'static str),
    fields: &'static [Field],
}

const Y: fn(&Row) -> f64 = |r| r.y;
const EXTRA: fn(&Row) -> f64 = |r| r.extra;

/// One entry per golden.
const TABLES: &[Table] = &[
    Table {
        golden: "fig09_local_logging.json",
        rows: (Axis::Series, "setup"),
        cols: (Axis::X, "workers"),
        fields: &[Field("ktxn/s", Y, 1e-3, 1), Field("mean µs", EXTRA, 1.0, 1)],
    },
    Table {
        golden: "fig10_write_combining.json",
        rows: (Axis::X, "write B"),
        cols: (Axis::Series, "backing-mode"),
        fields: &[Field("normalized throughput", Y, 1.0, 2)],
    },
    Table {
        golden: "fig11_queue_size.json",
        rows: (Axis::Series, "queue"),
        cols: (Axis::X, "write KiB"),
        fields: &[Field("µs", Y, 1.0, 1), Field("MB/s", EXTRA, 1.0, 0)],
    },
    Table {
        golden: "fig12_destage_priority.json",
        rows: (Axis::X, "fast offered %"),
        cols: (Axis::SeriesHead, "priority"),
        fields: &[Field("conv MB/s", Y, 1.0, 0), Field("fast MB/s", EXTRA, 1.0, 0)],
    },
    Table {
        golden: "fig13_replication_delay.json",
        rows: (Axis::X, "period µs"),
        cols: (Axis::Fields, ""),
        fields: &[
            Field("min µs", |r| r.min, 1.0, 2),
            Field("p25", |r| r.p25, 1.0, 2),
            Field("p50", |r| r.p50, 1.0, 2),
            Field("p75", |r| r.p75, 1.0, 2),
            Field("max", |r| r.max, 1.0, 2),
            Field("update bw %", EXTRA, 1.0, 2),
        ],
    },
    Table {
        golden: "fig_ycsb.json",
        rows: (Axis::SeriesHead, "mix"),
        cols: (Axis::SeriesTail, "backend"),
        fields: &[Field("ktxn/s", Y, 1e-3, 1), Field("mean commit µs", EXTRA, 1.0, 0)],
    },
    Table {
        golden: "ablation_data_movements.json",
        rows: (Axis::Series, "path"),
        cols: (Axis::Fields, ""),
        fields: &[Field("host bus B per logged B", Y, 1.0, 1), Field("µs per MiB", EXTRA, 1.0, 0)],
    },
    Table {
        golden: "ablation_replication_policy.json",
        rows: (Axis::Series, "policy"),
        cols: (Axis::Fields, ""),
        fields: &[Field("1 secondary µs", Y, 1.0, 2), Field("3 secondaries µs", EXTRA, 1.0, 2)],
    },
    Table {
        golden: "ablation_replicated_tpcc.json",
        rows: (Axis::Series, "replicas"),
        cols: (Axis::Fields, ""),
        fields: &[Field("ktxn/s", Y, 1e-3, 2), Field("mean commit µs", EXTRA, 1.0, 1)],
    },
    Table {
        golden: "ablation_destage_deadline.json",
        rows: (Axis::X, "deadline µs"),
        cols: (Axis::Fields, ""),
        fields: &[Field("filler %", Y, 100.0, 1), Field("staleness µs", EXTRA, 1.0, 0)],
    },
    Table {
        golden: "ablation_recovery.json",
        rows: (Axis::Series, "cadence"),
        cols: (Axis::X, "chunks"),
        fields: &[Field("replayed KiB", Y, 1.0 / 1024.0, 1), Field("restore µs", EXTRA, 1.0, 2)],
    },
    Table {
        golden: "chaos_tpcc.json",
        rows: (Axis::Series, "row"),
        cols: (Axis::Fields, ""),
        fields: &[Field("y", Y, 1.0, 0), Field("extra", EXTRA, 1.0, 0)],
    },
];

/// `r`'s label on `axis`.
fn label(axis: Axis, r: &Row) -> String {
    match axis {
        Axis::Series => r.series.clone(),
        Axis::SeriesHead => r.series.split_once('-').map_or("", |(head, _)| head).to_string(),
        Axis::SeriesTail => r.series.split_once('-').map_or("", |(_, tail)| tail).to_string(),
        Axis::X => r.x.to_string(),
        Axis::Fields => String::new(),
    }
}

/// `field` of `r`, as the table prints it.
fn show(field: &Field, r: &Row) -> String {
    let Field(_, of, scale, decimals) = *field;
    format!("{:.*}", decimals, of(r) * scale)
}

/// `table` over `rows` as a markdown table, labels in the order the rows
/// first give them; an error names a cell that more than one row fills.
fn render(table: &Table, rows: &[Row]) -> Result<String, String> {
    let ((row_axis, row_name), (col_axis, col_name)) = (table.rows, table.cols);
    let labels = |axis| {
        let mut labels: Vec<String> = Vec::new();
        for l in rows.iter().map(|r| label(axis, r)) {
            if !labels.contains(&l) {
                labels.push(l);
            }
        }
        labels
    };
    let names: Vec<&str> = table.fields.iter().map(|f| f.0).collect();
    let (corner, cols) = match col_axis {
        Axis::Fields => (row_name.to_string(), names.iter().map(|n| n.to_string()).collect()),
        _ => (format!("{row_name} \\ {col_name}: {}", names.join(" \\| ")), labels(col_axis)),
    };
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let mut text = line(&[vec![corner], cols.clone()].concat());
    text += &line(&vec!["---".to_string(); cols.len() + 1]);
    for rl in labels(row_axis) {
        let mut cells = vec![rl.clone()];
        for (j, cl) in cols.iter().enumerate() {
            let hits: Vec<&Row> = rows
                .iter()
                .filter(|r| label(row_axis, r) == rl)
                .filter(|r| col_axis == Axis::Fields || label(col_axis, r) == *cl)
                .collect();
            cells.push(match hits[..] {
                [] => "—".to_string(),
                [r] if col_axis == Axis::Fields => show(&table.fields[j], r),
                [r] => table.fields.iter().map(|f| show(f, r)).collect::<Vec<_>>().join(" \\| "),
                _ => {
                    let n = hits.len();
                    return Err(format!(
                        "{}: {n} rows fill row `{rl}`, column `{cl}`",
                        table.golden
                    ));
                }
            });
        }
        text += &line(&cells);
    }
    Ok(text)
}

/// A markdown table line's cells: split at each `|` not escaped as `\|`,
/// outside the outer pipes, trimmed.
fn cells(line: &str) -> Vec<String> {
    let mut cells = vec![String::new()];
    let mut escaped = false;
    for c in line.chars() {
        match cells.last_mut() {
            Some(cell) if c != '|' || escaped => cell.push(c),
            _ => cells.push(String::new()),
        }
        escaped = c == '\\';
    }
    let inner = cells.get(1..cells.len().saturating_sub(1)).unwrap_or_default();
    inner.iter().map(|c| c.trim().to_string()).collect()
}

/// The cells in which `committed` differs from `rendered`, rows matched by
/// their label; the header and rows only one side has.
fn cell_diffs(committed: &str, rendered: &str) -> Vec<String> {
    let (old, new): (Vec<_>, Vec<_>) =
        (committed.lines().map(cells).collect(), rendered.lines().map(cells).collect());
    let mut diffs = Vec::new();
    let header = &new[0];
    if old.first() != Some(header) {
        let have = old.first().map(|h| h.join(" | ")).unwrap_or_default();
        diffs.push(format!("the header reads `{have}`, the golden gives `{}`", header.join(" | ")));
    }
    for row in &new[2..] {
        let Some(have) = old.iter().skip(2).find(|o| o.first() == row.first()) else {
            diffs.push(format!("row `{}` is missing", row[0]));
            continue;
        };
        for (j, cell) in row.iter().enumerate().skip(1) {
            let reads = have.get(j).map_or("", String::as_str);
            if reads != cell {
                let (r, c) = (&row[0], &header[j]);
                diffs.push(format!(
                    "row `{r}`, column `{c}`: reads `{reads}`, the golden gives `{cell}`"
                ));
            }
        }
    }
    for o in old.iter().skip(2).filter(|o| new[2..].iter().all(|r| r.first() != o.first())) {
        diffs.push(format!("row `{}` is not in the golden", o.first().map_or("", String::as_str)));
    }
    diffs
}

/// The `<!-- rows: NAME -->` … `<!-- /rows -->` blocks of `doc` as
/// `(NAME, body)`, and each marker that opens or closes no block.
fn blocks(doc: &str) -> (Vec<(&str, String)>, Vec<String>) {
    let (mut blocks, mut failures) = (Vec::new(), Vec::new());
    let mut open: Option<(&str, usize, String)> = None;
    let unterminated =
        |(name, at, _): (&str, usize, String)| format!("unterminated block: `{name}` (line {at})");
    for (at, line) in doc.lines().enumerate().map(|(i, line)| (i + 1, line)) {
        if let Some(name) = line.strip_prefix("<!-- rows: ").and_then(|l| l.strip_suffix(" -->")) {
            failures.extend(open.replace((name, at, String::new())).map(unterminated));
        } else if line == "<!-- /rows -->" {
            match open.take() {
                Some((name, _, body)) => blocks.push((name, body)),
                None => failures.push(format!("line {at}: `<!-- /rows -->` closes no block")),
            }
        } else if let Some((_, _, body)) = &mut open {
            *body += line;
            body.push('\n');
        }
    }
    failures.extend(open.map(unterminated));
    (blocks, failures)
}

/// The table rule over `goldens` (name and rows), `tables` and the text
/// `doc`: a marker that opens or closes no block, a golden with no entry,
/// a marker that names no golden, a block that differs from what its
/// entry renders, an entry whose golden is gone and one with no block
/// each fail.
fn table_failures(goldens: &[(&str, &[Row])], tables: &[Table], doc: &str) -> Vec<String> {
    let (blocks, mut failures) = blocks(doc);
    let rows_of = |name: &str| goldens.iter().find(|(g, _)| *g == name).map(|(_, rows)| *rows);
    for (golden, _) in goldens.iter().filter(|(g, _)| tables.iter().all(|t| t.golden != *g)) {
        failures.push(format!("golden with no TABLES entry: {golden}"));
    }
    for (name, body) in &blocks {
        let Some(rows) = rows_of(name) else {
            failures.push(format!("a marker names no golden: {name}"));
            continue;
        };
        let Some(table) = tables.iter().find(|t| t.golden == *name) else { continue };
        match render(table, rows) {
            Err(e) => failures.push(e),
            Ok(rendered) if rendered != *body => {
                let mut diffs = cell_diffs(body, &rendered);
                if diffs.is_empty() {
                    diffs.push("the layout differs".to_string());
                }
                let diffs = diffs.join("\n      ");
                failures.push(format!("{name}: the block differs\n      {diffs}\n{rendered}"));
            }
            Ok(_) => {}
        }
    }
    for table in tables {
        match rows_of(table.golden) {
            None => failures.push(format!("TABLES entry with no golden: {}", table.golden)),
            Some(rows) if blocks.iter().all(|(name, _)| *name != table.golden) => {
                let rendered = render(table, rows).unwrap_or_else(|e| e);
                failures.push(format!("no block for {}; rendered:\n{rendered}", table.golden));
            }
            Some(_) => {}
        }
    }
    failures
}

#[test]
fn every_table_is_rendered_from_its_golden() {
    let goldens: Vec<(&str, &[Row])> =
        golden::all().iter().map(|g| (g.name.as_str(), g.rows.as_slice())).collect();
    let doc = std::fs::read_to_string(EXPERIMENTS).expect("EXPERIMENTS.md");
    let failures = table_failures(&goldens, TABLES, &doc);
    assert!(failures.is_empty(), "EXPERIMENTS.md:\n  ! {}", failures.join("\n  ! "));
}

#[test]
fn the_table_rule_names_each_failure() {
    let row = |series: &str, x: f64, y: f64| Row {
        series: series.to_string(),
        x,
        y,
        extra: 0.0,
        min: 0.0,
        p25: 0.0,
        p50: 0.0,
        p75: 0.0,
        max: 0.0,
    };
    let rows = [row("a", 1.0, 0.25), row("a", 2.0, 0.5), row("b", 1.0, 1.0)];
    let entry = |golden| Table {
        golden,
        rows: (Axis::Series, "s"),
        cols: (Axis::X, "x"),
        fields: &[Field("share", Y, 100.0, 0)],
    };
    let tables = [entry("t.json"), entry("blockless.json"), entry("gone.json")];
    let goldens: [(&str, &[Row]); 3] =
        [("t.json", &rows), ("untabled.json", &rows), ("blockless.json", &rows[..1])];
    let doc = "<!-- rows: t.json -->\n\
               | s \\ x: share | 1 | 2 |\n| --- | --- | --- |\n| a | 25 | 51 |\n| b | 100 | — |\n\
               <!-- /rows -->\n\
               <!-- rows: nothing.json -->\n<!-- /rows -->\n\
               <!-- rows: t.json -->\n";
    assert_eq!(
        table_failures(&goldens, &tables, doc),
        [
            "unterminated block: `t.json` (line 9)",
            "golden with no TABLES entry: untabled.json",
            "t.json: the block differs\n      \
             row `a`, column `2`: reads `51`, the golden gives `50`\n\
             | s \\ x: share | 1 | 2 |\n| --- | --- | --- |\n| a | 25 | 50 |\n| b | 100 | — |\n",
            "a marker names no golden: nothing.json",
            "no block for blockless.json; rendered:\n\
             | s \\ x: share | 1 |\n| --- | --- |\n| a | 25 |\n",
            "TABLES entry with no golden: gone.json",
        ]
    );
    let doc = "<!-- /rows -->\n<!-- rows: t.json -->\n| s | 1 |\n<!-- /rows -->\n";
    assert_eq!(
        table_failures(&goldens[..1], &tables[..1], doc),
        [
            "line 1: `<!-- /rows -->` closes no block",
            "t.json: the block differs\n      \
             the header reads `s | 1`, the golden gives `s \\ x: share | 1 | 2`\n      \
             row `a` is missing\n      row `b` is missing\n\
             | s \\ x: share | 1 | 2 |\n| --- | --- | --- |\n| a | 25 | 50 |\n| b | 100 | — |\n",
        ]
    );
    let twice = [row("a", 1.0, 0.25), row("a", 1.0, 0.5)];
    assert_eq!(render(&tables[0], &twice), Err("t.json: 2 rows fill row `a`, column `1`".into()));
}
