//! The figure data model: one column schema per table renders both the text
//! table `report` prints and the JSON fragment it writes, and its column
//! kinds tell the `bench_diff` gates ([`crate::gates`]) which values are
//! deterministic sim measurements and which are wall-clock timings.

use crate::json::Json;
use simclock::Summary;
use std::fmt::Write as _;
use std::time::Instant;

/// What a column holds; decides how the gates treat its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A label or configuration input identifying the row.
    Exact,
    /// A deterministic simulated measurement: the sim-identity gate holds
    /// it byte-identical at equal scale.
    Sim,
    /// A wall-clock timing, or a figure derived from one.
    Wall,
}

/// How a column prints in the text table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fmt {
    /// `Display`.
    Plain,
    /// `N` decimals; a summary prints `mean ±stderr`.
    Dec(usize),
    /// `N` decimals and an `x` suffix.
    Times(usize),
    /// A fraction as a percentage with `N` decimals.
    Pct(usize),
    /// Bytes as MiB.
    Mib,
    /// Milliseconds as seconds with `N` decimals.
    Secs(usize),
}

/// One column: JSON key, kind, text header (empty = JSON only; in nested
/// rows, which always print, a unit after the value), text format, and the
/// schema of nested rows ([`Value::Rows`]) if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Col {
    pub(crate) name: &'static str,
    pub(crate) kind: Kind,
    pub(crate) head: &'static str,
    pub(crate) fmt: Fmt,
    pub(crate) sub: &'static [Col],
}

/// A label or configuration column.
pub(crate) const fn exact(name: &'static str, head: &'static str, fmt: Fmt) -> Col {
    Col { name, kind: Kind::Exact, head, fmt, sub: &[] }
}

/// A deterministic sim-measurement column.
pub(crate) const fn sim(name: &'static str, head: &'static str, fmt: Fmt) -> Col {
    Col { name, kind: Kind::Sim, head, fmt, sub: &[] }
}

/// A wall-clock column.
pub(crate) const fn wall(name: &'static str, head: &'static str, fmt: Fmt) -> Col {
    Col { name, kind: Kind::Wall, head, fmt, sub: &[] }
}

impl Col {
    /// The column holding nested rows under `sub`.
    pub(crate) const fn nested(self, sub: &'static [Col]) -> Col {
        Col { sub, ..self }
    }

    fn shown(&self) -> bool {
        !self.head.is_empty() && self.sub.is_empty()
    }
}

/// How a part sits in the figure's JSON object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// One row whose cells are fields of the figure object itself.
    Fields,
    /// One row, an object under the schema key.
    Record,
    /// An array of row objects under the schema key.
    Rows,
}

/// The schema of one part of a figure: JSON key (unused for `Fields`),
/// shape, text heading and footnote (empty = none), and columns in JSON
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Schema {
    pub(crate) key: &'static str,
    pub(crate) shape: Shape,
    pub(crate) title: &'static str,
    pub(crate) cols: &'static [Col],
    pub(crate) note: &'static str,
}

impl Schema {
    /// A `Rows` part.
    pub(crate) const fn rows(key: &'static str, title: &'static str, cols: &'static [Col], note: &'static str) -> Schema {
        Schema { key, shape: Shape::Rows, title, cols, note }
    }

    /// A `Fields` part.
    pub(crate) const fn fields(title: &'static str, cols: &'static [Col], note: &'static str) -> Schema {
        Schema { key: "", shape: Shape::Fields, title, cols, note }
    }
}

/// A figure's wall time (see [`Output::timed`]).
pub(crate) const WALL: Schema = Schema::fields("", &[wall("wall_ms", "", Fmt::Plain)], "");

/// One cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// No value: `X` in text, `null` in JSON.
    Null,
    Int(i64),
    Num(f64),
    Str(String),
    /// A repeated measurement; JSON carries the mean.
    Stat(Summary),
    /// Rows under the column's `sub` schema.
    Rows(Vec<Vec<Value>>),
}

impl Value {
    /// The value as a number (a summary's mean); NaN for non-numbers.
    pub fn num(&self) -> f64 {
        match self {
            Value::Int(i) => *i as f64,
            Value::Num(n) => *n,
            Value::Stat(s) => s.mean,
            _ => f64::NAN,
        }
    }

    /// The value as a label; empty for non-labels.
    pub fn str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            _ => "",
        }
    }

    fn json(&self, col: &Col) -> Json {
        match self {
            Value::Null => Json::Null,
            Value::Int(i) => Json::Int(*i),
            Value::Num(n) => Json::Num(*n),
            Value::Str(s) => Json::str(s.clone()),
            Value::Stat(s) => Json::Num(s.mean),
            Value::Rows(rows) => Json::Arr(rows.iter().map(|r| object(col.sub, r)).collect()),
        }
    }

    fn text(&self, fmt: Fmt) -> String {
        let n = self.num();
        match (self, fmt) {
            (Value::Null, _) => "X".into(),
            (Value::Str(s), _) => s.clone(),
            (Value::Stat(s), Fmt::Dec(d)) => format!("{:.d$} ±{:.d$}", s.mean, s.std_error),
            (Value::Int(i), Fmt::Plain | Fmt::Dec(_)) => i.to_string(),
            (_, Fmt::Plain) => n.to_string(),
            (_, Fmt::Dec(d)) => format!("{n:.d$}"),
            (_, Fmt::Times(d)) => format!("{n:.d$}x"),
            (_, Fmt::Pct(d)) => format!("{:.d$}%", n * 100.0),
            (_, Fmt::Mib) => format!("{:.2} MiB", n / (1024.0 * 1024.0)),
            (_, Fmt::Secs(d)) => format!("{:.d$}", n / 1_000.0),
        }
    }
}

macro_rules! value_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Value {
            fn from($v: $t) -> Value {
                $e
            }
        })*
    };
}

// Unsigned counts wrap into `i64` as the report always has (an unbounded
// byte budget is -1).
value_from! {
    u64 => |v| Value::Int(v as i64),
    usize => |v| Value::Int(v as i64),
    f64 => |v| Value::Num(v),
    &str => |v| Value::Str(v.to_string()),
    String => |v| Value::Str(v),
    Summary => |v| Value::Stat(v),
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Builds a table row from values convertible into [`Value`].
macro_rules! row {
    ($($v:expr),* $(,)?) => { vec![$($crate::figure::Value::from($v)),*] };
}
pub(crate) use row;

fn object(cols: &[Col], cells: &[Value]) -> Json {
    Json::Obj(cols.iter().zip(cells).map(|(c, v)| (c.name.to_string(), v.json(c))).collect())
}

/// Typed rows under one schema.
#[derive(Debug, Clone)]
pub struct Table {
    pub(crate) schema: &'static Schema,
    pub(crate) rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table.
    pub(crate) fn new(schema: &'static Schema) -> Table {
        Table { schema, rows: Vec::new() }
    }

    /// Appends a row (one value per column).
    pub(crate) fn push(&mut self, row: Vec<Value>) {
        debug_assert_eq!(row.len(), self.schema.cols.len(), "row width of {:?}", self.schema.key);
        self.rows.push(row);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> Row<'_> {
        Row { cols: self.schema.cols, cells: &self.rows[i] }
    }

    /// Every row.
    pub fn rows(&self) -> impl Iterator<Item = Row<'_>> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// The first row whose column `col` holds `label`.
    pub fn find(&self, col: &str, label: &str) -> Option<Row<'_>> {
        self.rows().find(|r| r.str(col) == label)
    }

    fn write_text(&self, out: &mut String) {
        let Schema { shape, title, cols, note, .. } = *self.schema;
        if !title.is_empty() {
            let gap = if out.is_empty() { "" } else { "\n" };
            let _ = writeln!(out, "{gap}--- {title} ---");
        }
        let shown: Vec<usize> = (0..cols.len()).filter(|&i| cols[i].shown()).collect();
        if shape != Shape::Rows {
            for (row, &i) in self.rows.iter().flat_map(|row| shown.iter().map(move |i| (row, i))) {
                let _ = writeln!(out, "{}: {}", cols[i].head, row[i].text(cols[i].fmt));
            }
        } else if !shown.is_empty() {
            write_grid(out, cols, &shown, &self.rows);
        }
        // Nested rows print one line per row: its labels, then the items.
        for (n, col) in cols.iter().enumerate().filter(|(_, c)| !c.sub.is_empty() && !c.head.is_empty()) {
            let _ = writeln!(out, "{}:", col.head);
            for row in &self.rows {
                let Value::Rows(items) = &row[n] else { continue };
                let labels = shown.iter().filter(|&&i| cols[i].kind == Kind::Exact);
                let labels: Vec<String> = labels.map(|&i| row[i].text(cols[i].fmt)).collect();
                let items: Vec<String> = items
                    .iter()
                    .map(|item| {
                        let cells = col.sub.iter().zip(item).map(|(c, v)| format!("{} {}", v.text(c.fmt), c.head));
                        cells.map(|cell| cell.trim_end().to_string()).collect::<Vec<_>>().join(" ")
                    })
                    .collect();
                let _ = writeln!(out, "{}", format!("  {}: {}", labels.join(" "), items.join(", ")).trim_end());
            }
        }
        if !note.is_empty() {
            let _ = writeln!(out, "{note}");
        }
    }
}

/// Writes the `shown` columns as an aligned grid: labels left-aligned,
/// numbers right-aligned.
fn write_grid(out: &mut String, cols: &[Col], shown: &[usize], rows: &[Vec<Value>]) {
    let mut lines = vec![shown.iter().map(|&i| cols[i].head.to_string()).collect::<Vec<_>>()];
    lines.extend(rows.iter().map(|row| shown.iter().map(|&i| row[i].text(cols[i].fmt)).collect()));
    for (j, &i) in shown.iter().enumerate() {
        let width = lines.iter().map(|l| l[j].chars().count()).max().unwrap_or(0);
        let left = rows.first().is_some_and(|r| matches!(r[i], Value::Str(_)));
        for line in &mut lines {
            line[j] = if left { format!("{:<width$}", line[j]) } else { format!("{:>width$}", line[j]) };
        }
    }
    for line in lines {
        let _ = writeln!(out, "{}", line.join("  ").trim_end());
    }
}

/// What one figure run produced: its parts in JSON order, plus text-only
/// lines printed after them.
#[derive(Debug, Clone, Default)]
pub struct Output {
    pub(crate) parts: Vec<Table>,
    pub(crate) notes: Vec<String>,
}

impl From<Table> for Output {
    fn from(table: Table) -> Output {
        Output { parts: vec![table], notes: Vec::new() }
    }
}

impl Output {
    /// Appends a single-row part.
    pub(crate) fn fields(&mut self, schema: &'static Schema, row: Vec<Value>) {
        let mut table = Table::new(schema);
        table.push(row);
        self.parts.push(table);
    }

    /// Runs `f`, records its wall-clock milliseconds as the one field of
    /// `schema`, and returns what `f` returned — the single place figure
    /// wall time is taken.
    pub(crate) fn timed<T>(&mut self, schema: &'static Schema, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.fields(schema, row![start.elapsed().as_secs_f64() * 1_000.0]);
        value
    }

    /// The `Rows` or `Record` part under `key`.
    ///
    /// # Panics
    /// If there is none.
    pub fn part(&self, key: &str) -> &Table {
        let found = self.parts.iter().find(|t| t.schema.shape != Shape::Fields && t.schema.key == key);
        found.unwrap_or_else(|| panic!("no part {key:?}"))
    }

    /// A figure-level field.
    ///
    /// # Panics
    /// If there is none.
    pub fn field(&self, name: &str) -> &Value {
        let fields = self.parts.iter().filter(|t| t.schema.shape == Shape::Fields && !t.is_empty());
        let found = fields.map(|t| t.row(0)).find(|r| r.cols.iter().any(|c| c.name == name));
        found.map(|r| r.get(name)).unwrap_or_else(|| panic!("no field {name:?}"))
    }

    /// The figure's JSON fragment.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::new();
        for Table { schema, rows } in &self.parts {
            let key = schema.key.to_string();
            match schema.shape {
                Shape::Fields => {
                    for row in rows {
                        pairs.extend(schema.cols.iter().zip(row).map(|(c, v)| (c.name.to_string(), v.json(c))));
                    }
                }
                Shape::Record => pairs.push((key, object(schema.cols, rows.first().map_or(&[], Vec::as_slice)))),
                Shape::Rows => pairs.push((key, Json::Arr(rows.iter().map(|r| object(schema.cols, r)).collect()))),
            }
        }
        Json::Obj(pairs)
    }

    /// The figure's text: each part's heading, rows (`head: value` lines
    /// for a single-row part) and footnote, then the notes and a blank
    /// line; empty when nothing is shown.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for table in &self.parts {
            table.write_text(&mut out);
        }
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

/// One row of a [`Table`], read by column name.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    cols: &'static [Col],
    cells: &'a [Value],
}

impl<'a> Row<'a> {
    /// The cell of column `name`.
    ///
    /// # Panics
    /// If the schema has no such column.
    pub fn get(&self, name: &str) -> &'a Value {
        let i = self.cols.iter().position(|c| c.name == name);
        &self.cells[i.unwrap_or_else(|| panic!("no column {name:?}"))]
    }

    /// The cell of column `name` as a number.
    pub fn num(&self, name: &str) -> f64 {
        self.get(name).num()
    }

    /// The cell of column `name` as a label.
    pub fn str(&self, name: &str) -> &'a str {
        self.get(name).str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARTS: &[Col] = &[exact("part", "", Fmt::Plain), sim("bytes", "", Fmt::Mib)];
    const COLS: &[Col] = &[
        exact("name", "name", Fmt::Plain),
        sim("ms", "sim (ms)", Fmt::Dec(1)),
        wall("wall_ms", "", Fmt::Dec(2)),
        sim("parts", "parts", Fmt::Plain).nested(PARTS),
    ];
    const ROWS: Schema = Schema::rows("rows", "Demo", COLS, "(a footnote)");
    const SCALE: Schema = Schema::fields("", &[exact("customers", "customers", Fmt::Plain)], "");

    fn demo() -> Output {
        let mut out = Output::default();
        out.fields(&SCALE, row![40u64]);
        let mut table = Table::new(&ROWS);
        table.push(row!["a", 1.5, 2.0, Value::Rows(vec![row!["p", 2_097_152u64]])]);
        table.push(row!["b", Option::<f64>::None, 0.25, Value::Rows(Vec::new())]);
        out.parts.push(table);
        out
    }

    #[test]
    fn one_schema_renders_json_and_text() {
        let json = demo().to_json().render();
        let mut at = 0;
        for key in ["\"customers\": 40", "\"rows\"", "\"name\": \"a\"", "\"ms\": 1.5", "\"wall_ms\": 2", "\"part\": \"p\""] {
            at += json[at..].find(key).unwrap_or_else(|| panic!("{key} out of order in {json}"));
        }
        assert!(json.contains("\"ms\": null"));

        let text = demo().to_text();
        let expected = "customers: 40\n\n--- Demo ---\nname  sim (ms)\na          1.5\nb            X\n\
                        parts:\n  a: p 2.00 MiB\n  b:\n(a footnote)\n\n";
        assert_eq!(text, expected, "JSON-only columns stay out of the text");
    }

    #[test]
    fn rows_and_fields_read_by_column_name() {
        let out = demo();
        assert_eq!(out.field("customers").num(), 40.0);
        let rows = out.part("rows");
        assert_eq!(rows.row(0).num("ms"), 1.5);
        assert!(rows.row(1).num("ms").is_nan());
        assert_eq!(rows.find("name", "b").map(|r| r.num("wall_ms")), Some(0.25));
    }
}
