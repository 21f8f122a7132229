//! Typed result tables: the paper's numbers kept as numbers.
//!
//! The experiment layer used to format every metric into strings at the
//! point of measurement, which forced downstream consumers (insights,
//! cost analyses, plots) to either re-simulate or scrape the strings
//! back apart. This module moves formatting to the presentation edge:
//!
//! * [`Value`] — one table cell, carrying the raw numeric ([`Value::Int`],
//!   [`Value::Float`] with unit + display precision) or text.
//! * [`Column`] — a typed column descriptor; rows are validated against
//!   the declared schema on insertion.
//! * [`TypedResult`] — a titled table of typed cells plus notes. Text
//!   rendering ([`TypedResult::render`]) and JSON ([`TypedResult::to_json`])
//!   are derived views; the raw numerics stay addressable through
//!   [`TypedResult::cell_f64`] / [`TypedResult::cell_i64`].
//!
//! The JSON view is versioned ([`SCHEMA_VERSION`]): version 2 keeps the
//! version-1 fields (`columns` as names, `rows` as formatted strings)
//! and adds `schema` (typed column descriptors) and `raw_rows` (raw
//! numeric cells, `null` for missing values).

use std::fmt;

/// Version stamp of the JSON layout emitted by [`TypedResult::to_json`].
///
/// * `1` (implicit, never emitted): the historical stringly format —
///   `columns` as a name array, `rows` as formatted strings.
/// * `2`: adds `schema_version`, `schema` and `raw_rows` while keeping
///   every version-1 field byte-compatible.
pub const SCHEMA_VERSION: u64 = 2;

/// Physical unit of a float cell. Only [`Unit::Percent`] and
/// [`Unit::Speedup`] affect text rendering (as `%` / `x` suffixes); the
/// rest are metadata carried into the JSON schema so consumers need not
/// guess what a column measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless quantity.
    None,
    /// Percent; renders with a `%` suffix.
    Percent,
    /// Multiplicative speedup/ratio; renders with an `x` suffix.
    Speedup,
    /// Tokens per second.
    TokensPerSec,
    /// Seconds.
    Seconds,
    /// Milliseconds.
    Millis,
    /// Microseconds.
    Micros,
    /// Gibibytes.
    Gib,
    /// US dollars per hour.
    UsdPerHr,
    /// US dollars per million generated tokens.
    UsdPerMtok,
    /// Difference in percentage points.
    Points,
    /// Billions of parameters.
    BillionParams,
}

impl Unit {
    /// Machine-readable unit label used in the JSON schema.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Unit::None => "",
            Unit::Percent => "%",
            Unit::Speedup => "x",
            Unit::TokensPerSec => "tok/s",
            Unit::Seconds => "s",
            Unit::Millis => "ms",
            Unit::Micros => "us",
            Unit::Gib => "GiB",
            Unit::UsdPerHr => "$/hr",
            Unit::UsdPerMtok => "$/Mtok",
            Unit::Points => "pts",
            Unit::BillionParams => "Bparams",
        }
    }

    /// Suffix appended when rendering a cell as text (empty for most
    /// units — the historical tables carried units in column names).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Percent => "%",
            Unit::Speedup => "x",
            _ => "",
        }
    }
}

/// One typed table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Free-form text (labels, qualitative cells).
    Str(String),
    /// Integer quantity (batch sizes, core counts, token counts).
    Int(i64),
    /// Float quantity with its unit and display precision.
    Float {
        /// The raw, unrounded value.
        value: f64,
        /// What the value measures.
        unit: Unit,
        /// Decimal places used when rendering.
        precision: usize,
    },
    /// Not applicable for this row; renders as `-`, serializes as `null`.
    Missing,
}

impl Value {
    /// Text cell.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Integer cell.
    #[must_use]
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Integer cell from an unsigned count.
    ///
    /// # Panics
    ///
    /// Panics if `v` exceeds `i64::MAX` (no experiment axis does).
    #[must_use]
    pub fn uint(v: u64) -> Self {
        Value::Int(i64::try_from(v).expect("axis value fits i64"))
    }

    /// Float cell with an explicit unit and display precision.
    #[must_use]
    pub fn float(value: f64, unit: Unit, precision: usize) -> Self {
        Value::Float {
            value,
            unit,
            precision,
        }
    }

    /// Percent cell with the table convention of one decimal.
    #[must_use]
    pub fn pct(value: f64) -> Self {
        Value::float(value, Unit::Percent, 1)
    }

    /// Render this cell the way the text tables print it.
    #[must_use]
    pub fn format(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(v) => v.to_string(),
            Value::Float {
                value,
                unit,
                precision,
            } => format!("{value:.precision$}{}", unit.suffix()),
            Value::Missing => "-".to_owned(),
        }
    }

    /// The raw numeric value: floats as-is, integers widened. `None` for
    /// text and missing cells.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float { value, .. } => Some(*value),
            #[allow(clippy::cast_precision_loss)]
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The integer value, `None` for any other variant (floats are not
    /// silently truncated).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The text value, `None` for any other variant.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Short label of the variant, used in schema-mismatch errors.
    #[must_use]
    pub fn kind_label(&self) -> &'static str {
        match self {
            Value::Str(_) => "str",
            Value::Int(_) => "int",
            Value::Float { .. } => "float",
            Value::Missing => "missing",
        }
    }

    /// Raw JSON form: the unformatted number, the string, or `null` for
    /// missing cells.
    #[must_use]
    pub fn to_raw_json(&self) -> serde_json::Value {
        match self {
            Value::Str(s) => serde_json::Value::String(s.clone()),
            Value::Int(v) => int_json(*v),
            Value::Float { value, .. } => {
                serde_json::Value::Number(serde_json::Number::Float(*value))
            }
            Value::Missing => serde_json::Value::Null,
        }
    }
}

fn int_json(v: i64) -> serde_json::Value {
    let number = u64::try_from(v).map_or(serde_json::Number::NegInt(v), serde_json::Number::PosInt);
    serde_json::Value::Number(number)
}

/// Expected type of every cell in a [`Column`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnKind {
    /// Text cells.
    Str,
    /// Integer cells.
    Int,
    /// Float cells; unit **and** precision must match, so a column
    /// renders homogeneously.
    Float {
        /// Unit every cell of the column must carry.
        unit: Unit,
        /// Display precision every cell of the column must carry.
        precision: usize,
    },
}

impl ColumnKind {
    fn label(self) -> &'static str {
        match self {
            ColumnKind::Str => "str",
            ColumnKind::Int => "int",
            ColumnKind::Float { .. } => "float",
        }
    }
}

/// A typed column descriptor: name plus the cell type it accepts.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Header name (identical to the historical string headers).
    pub name: String,
    /// Cell type the column accepts.
    pub kind: ColumnKind,
}

impl Column {
    /// Text column.
    #[must_use]
    pub fn str(name: &str) -> Self {
        Column {
            name: name.to_owned(),
            kind: ColumnKind::Str,
        }
    }

    /// Integer column.
    #[must_use]
    pub fn int(name: &str) -> Self {
        Column {
            name: name.to_owned(),
            kind: ColumnKind::Int,
        }
    }

    /// Float column with a unit and display precision.
    #[must_use]
    pub fn float(name: &str, unit: Unit, precision: usize) -> Self {
        Column {
            name: name.to_owned(),
            kind: ColumnKind::Float { unit, precision },
        }
    }

    /// Percent column with the table convention of one decimal.
    #[must_use]
    pub fn pct(name: &str) -> Self {
        Column::float(name, Unit::Percent, 1)
    }

    /// Whether `value` is acceptable in this column. [`Value::Missing`]
    /// is accepted everywhere; typed cells must match the declared kind
    /// exactly (for floats: unit and precision included).
    #[must_use]
    pub fn accepts(&self, value: &Value) -> bool {
        match (&self.kind, value) {
            (_, Value::Missing) => true,
            (ColumnKind::Str, Value::Str(_)) | (ColumnKind::Int, Value::Int(_)) => true,
            (
                ColumnKind::Float { unit, precision },
                Value::Float {
                    unit: vu,
                    precision: vp,
                    ..
                },
            ) => unit == vu && precision == vp,
            _ => false,
        }
    }
}

/// A row rejected by the declared schema.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The row has a different number of cells than the header.
    Arity {
        /// Number of declared columns.
        expected: usize,
        /// Number of cells in the rejected row.
        got: usize,
    },
    /// A cell's type does not match its column descriptor.
    TypeMismatch {
        /// Name of the offending column.
        column: String,
        /// Zero-based index of the offending column.
        index: usize,
        /// The declared column kind.
        expected: ColumnKind,
        /// The label of the rejected value's variant.
        got: &'static str,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Arity { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: expected {expected} cells, got {got}"
                )
            }
            SchemaError::TypeMismatch {
                column,
                index,
                expected,
                got,
            } => write!(
                f,
                "type mismatch in column {index} ({column}): expected {}, got {got}",
                expected.label()
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// A typed experiment result: a titled table of [`Value`] cells plus
/// free-form notes. This is what every experiment runner returns; the
/// historical name [`crate::experiments::ExperimentResult`] aliases it.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedResult {
    /// Short id, e.g. `"fig4"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Typed column descriptors.
    pub columns: Vec<Column>,
    /// Typed row cells (validated against `columns` on insertion).
    pub rows: Vec<Vec<Value>>,
    /// Free-form notes: paper bands, measured values, caveats.
    pub notes: Vec<String>,
}

impl TypedResult {
    /// Start a result with a declared schema.
    #[must_use]
    pub fn new(id: &str, title: &str, columns: Vec<Column>) -> Self {
        TypedResult {
            id: id.to_owned(),
            title: title.to_owned(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row, validating arity and cell types against the schema.
    ///
    /// # Errors
    ///
    /// [`SchemaError::Arity`] when the cell count differs from the
    /// header, [`SchemaError::TypeMismatch`] when a cell's variant (or a
    /// float's unit/precision) differs from its column descriptor.
    pub fn try_push_row(&mut self, cells: Vec<Value>) -> Result<(), SchemaError> {
        if cells.len() != self.columns.len() {
            return Err(SchemaError::Arity {
                expected: self.columns.len(),
                got: cells.len(),
            });
        }
        for (index, (column, cell)) in self.columns.iter().zip(&cells).enumerate() {
            if !column.accepts(cell) {
                return Err(SchemaError::TypeMismatch {
                    column: column.name.clone(),
                    index,
                    expected: column.kind,
                    got: cell.kind_label(),
                });
            }
        }
        self.rows.push(cells);
        Ok(())
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics on arity or type mismatch (see [`TypedResult::try_push_row`]).
    pub fn push_row(&mut self, cells: Vec<Value>) {
        if let Err(e) = self.try_push_row(cells) {
            panic!("{}: {e}", self.id);
        }
    }

    /// Append every row of a sweep, in iteration order (typically one
    /// row per point of a [`crate::scenario::grid2`] grid).
    ///
    /// # Panics
    ///
    /// Panics on arity or type mismatch, like [`TypedResult::push_row`].
    pub fn extend_rows(&mut self, rows: impl IntoIterator<Item = Vec<Value>>) {
        for row in rows {
            self.push_row(row);
        }
    }

    /// Append a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Render as an aligned text table. Lines never carry trailing
    /// whitespace (cells are padded only up to the last non-empty one).
    #[must_use]
    pub fn render(&self) -> String {
        let formatted: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Value::format).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.name.len()).collect();
        for row in &formatted {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        let fmt_row = |cells: &[String]| {
            let line = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ");
            line.trim_end().to_owned()
        };
        let header: Vec<String> = self.columns.iter().map(|c| c.name.clone()).collect();
        out.push_str(&fmt_row(&header));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &formatted {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Serialize to a JSON value (schema version [`SCHEMA_VERSION`]).
    ///
    /// Layout: `schema_version`, `id`, `title`, `columns` (names, as in
    /// version 1), `schema` (typed descriptors), `rows` (formatted
    /// strings, as in version 1), `raw_rows` (raw numerics; `null` for
    /// missing cells), `notes`.
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value as J;
        let columns = J::Array(
            self.columns
                .iter()
                .map(|c| J::String(c.name.clone()))
                .collect(),
        );
        let schema = J::Array(self.columns.iter().map(column_schema_json).collect());
        let rows = J::Array(
            self.rows
                .iter()
                .map(|row| J::Array(row.iter().map(|c| J::String(c.format())).collect()))
                .collect(),
        );
        let raw_rows = J::Array(
            self.rows
                .iter()
                .map(|row| J::Array(row.iter().map(Value::to_raw_json).collect()))
                .collect(),
        );
        let notes = J::Array(self.notes.iter().cloned().map(J::String).collect());
        J::Object(vec![
            (
                "schema_version".to_owned(),
                J::Number(serde_json::Number::PosInt(SCHEMA_VERSION)),
            ),
            ("id".to_owned(), J::String(self.id.clone())),
            ("title".to_owned(), J::String(self.title.clone())),
            ("columns".to_owned(), columns),
            ("schema".to_owned(), schema),
            ("rows".to_owned(), rows),
            ("raw_rows".to_owned(), raw_rows),
            ("notes".to_owned(), notes),
        ])
    }

    /// Index of a column by header name.
    #[must_use]
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// First row whose key (formatted first column) equals `row_key`.
    /// When several rows share a key — grid sweeps repeat the first axis
    /// — the **first** match wins, in table order.
    #[must_use]
    pub fn row_by_key(&self, row_key: &str) -> Option<&[Value]> {
        self.rows
            .iter()
            .find(|r| r.first().is_some_and(|c| c.format() == row_key))
            .map(Vec::as_slice)
    }

    /// Typed cell lookup by row key (formatted first column) and column
    /// header. First matching row wins (see [`TypedResult::row_by_key`]).
    #[must_use]
    pub fn cell_value(&self, row_key: &str, column: &str) -> Option<&Value> {
        let col = self.column_index(column)?;
        self.row_by_key(row_key)?.get(col)
    }

    /// Formatted cell lookup — the string the text table prints.
    #[must_use]
    pub fn cell(&self, row_key: &str, column: &str) -> Option<String> {
        self.cell_value(row_key, column).map(Value::format)
    }

    /// Raw float lookup: the unrounded value behind a float (or int)
    /// cell. `None` for unknown keys/columns and for text/missing cells.
    #[must_use]
    pub fn cell_f64(&self, row_key: &str, column: &str) -> Option<f64> {
        self.cell_value(row_key, column)?.as_f64()
    }

    /// Raw integer lookup. `None` for unknown keys/columns and for any
    /// non-integer cell (floats are not truncated).
    #[must_use]
    pub fn cell_i64(&self, row_key: &str, column: &str) -> Option<i64> {
        self.cell_value(row_key, column)?.as_i64()
    }
}

fn column_schema_json(column: &Column) -> serde_json::Value {
    use serde_json::Value as J;
    let mut fields = vec![
        ("name".to_owned(), J::String(column.name.clone())),
        ("type".to_owned(), J::String(column.kind.label().to_owned())),
    ];
    if let ColumnKind::Float { unit, precision } = column.kind {
        fields.push(("unit".to_owned(), J::String(unit.label().to_owned())));
        fields.push((
            "precision".to_owned(),
            J::Number(serde_json::Number::PosInt(precision as u64)),
        ));
    }
    J::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> TypedResult {
        let mut r = TypedResult::new(
            "t",
            "demo",
            vec![
                Column::str("key"),
                Column::int("batch"),
                Column::float("tps", Unit::TokensPerSec, 1),
                Column::pct("ovh"),
            ],
        );
        r.push_row(vec![
            Value::str("a"),
            Value::int(1),
            Value::float(17.25, Unit::TokensPerSec, 1),
            Value::pct(13.0789),
        ]);
        r.push_row(vec![
            Value::str("a"),
            Value::int(64),
            Value::float(240.0, Unit::TokensPerSec, 1),
            Value::pct(8.5),
        ]);
        r.push_row(vec![
            Value::str("b"),
            Value::int(1),
            Value::Missing,
            Value::pct(9.96),
        ]);
        r
    }

    #[test]
    fn formats_match_the_historical_helpers() {
        assert_eq!(Value::pct(13.0789).format(), "13.1%");
        assert_eq!(Value::float(1.987, Unit::Speedup, 2).format(), "1.99x");
        assert_eq!(Value::float(17.4, Unit::TokensPerSec, 0).format(), "17");
        assert_eq!(Value::int(512).format(), "512");
        assert_eq!(Value::uint(512).format(), "512");
        assert_eq!(Value::Missing.format(), "-");
    }

    #[test]
    fn render_has_no_trailing_whitespace() {
        let r = demo();
        let text = r.render();
        for line in text.lines() {
            assert_eq!(line, line.trim_end(), "trailing whitespace in {line:?}");
        }
        // The short last cell must not be padded out to the header width.
        assert!(text.contains("13.1%\n"), "{text}");
    }

    #[test]
    fn render_aligns_and_includes_notes() {
        let mut r = demo();
        r.note("hello");
        let s = r.render();
        assert!(s.contains("batch"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let mut r = demo();
        let err = r
            .try_push_row(vec![Value::str("only-one")])
            .expect_err("arity must be validated");
        assert_eq!(
            err,
            SchemaError::Arity {
                expected: 4,
                got: 1
            }
        );
        assert!(err.to_string().contains("row arity mismatch"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn push_row_panics_on_arity() {
        demo().push_row(vec![Value::str("only-one")]);
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut r = demo();
        let err = r
            .try_push_row(vec![
                Value::str("c"),
                Value::str("not-an-int"),
                Value::float(1.0, Unit::TokensPerSec, 1),
                Value::pct(1.0),
            ])
            .expect_err("type must be validated");
        match &err {
            SchemaError::TypeMismatch {
                column, index, got, ..
            } => {
                assert_eq!(column, "batch");
                assert_eq!(*index, 1);
                assert_eq!(*got, "str");
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn float_unit_and_precision_are_part_of_the_schema() {
        let mut r = demo();
        // Right variant, wrong unit.
        assert!(r
            .try_push_row(vec![
                Value::str("c"),
                Value::int(1),
                Value::float(1.0, Unit::Millis, 1),
                Value::pct(1.0),
            ])
            .is_err());
        // Right unit, wrong precision.
        assert!(r
            .try_push_row(vec![
                Value::str("c"),
                Value::int(1),
                Value::float(1.0, Unit::TokensPerSec, 3),
                Value::pct(1.0),
            ])
            .is_err());
    }

    #[test]
    fn missing_is_accepted_in_any_column() {
        let mut r = demo();
        r.push_row(vec![
            Value::Missing,
            Value::Missing,
            Value::Missing,
            Value::Missing,
        ]);
        assert_eq!(r.rows.len(), 4);
    }

    #[test]
    fn typed_accessors_return_raw_values() {
        let r = demo();
        assert_eq!(r.cell("a", "ovh"), Some("13.1%".to_owned()));
        assert_eq!(r.cell_f64("a", "ovh"), Some(13.0789));
        assert_eq!(r.cell_i64("a", "batch"), Some(1));
        // Int cells widen through cell_f64; float cells refuse cell_i64.
        assert_eq!(r.cell_f64("a", "batch"), Some(1.0));
        assert_eq!(r.cell_i64("a", "ovh"), None);
        // Missing and text cells have no numeric value.
        assert_eq!(r.cell_f64("b", "tps"), None);
        assert_eq!(r.cell("b", "tps"), Some("-".to_owned()));
        // Unknown keys and columns.
        assert_eq!(r.cell("zz", "ovh"), None);
        assert_eq!(r.cell_f64("a", "nope"), None);
    }

    #[test]
    fn duplicate_row_keys_resolve_to_first_match() {
        let r = demo();
        // Two rows share key "a"; lookups must return the first (batch 1).
        assert_eq!(r.cell_i64("a", "batch"), Some(1));
        assert_eq!(r.cell_f64("a", "tps"), Some(17.25));
    }

    #[test]
    fn json_carries_schema_version_and_raw_values() {
        let r = demo();
        let json = r.to_json();
        assert_eq!(
            json.get("schema_version")
                .and_then(serde_json::Value::as_f64),
            Some(2.0)
        );
        // Version-1 fields survive: columns as names, rows as strings.
        let cols = json.get("columns").and_then(|v| v.as_array()).unwrap();
        assert_eq!(cols[1].as_str(), Some("batch"));
        let rows = json.get("rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(rows[0].as_array().unwrap()[3].as_str(), Some("13.1%"));
        // Raw rows keep the unrounded numerics; missing cells are null.
        let raw = json.get("raw_rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(raw[0].as_array().unwrap()[3].as_f64(), Some(13.0789));
        assert_eq!(raw[2].as_array().unwrap()[2], serde_json::Value::Null);
        // Schema describes float columns with unit and precision.
        let schema = json.get("schema").and_then(|v| v.as_array()).unwrap();
        let ovh = &schema[3];
        assert_eq!(ovh.get("type").and_then(|v| v.as_str()), Some("float"));
        assert_eq!(ovh.get("unit").and_then(|v| v.as_str()), Some("%"));
        assert_eq!(
            ovh.get("precision").and_then(serde_json::Value::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn negative_ints_serialize_raw() {
        let mut r = TypedResult::new("t", "neg", vec![Column::int("delta")]);
        r.push_row(vec![Value::int(-3)]);
        let json = r.to_json();
        let raw = json.get("raw_rows").and_then(|v| v.as_array()).unwrap();
        assert_eq!(raw[0].as_array().unwrap()[0].as_f64(), Some(-3.0));
    }
}
