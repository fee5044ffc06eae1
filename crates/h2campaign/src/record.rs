//! The on-disk campaign record: a versioned, append-only, line-oriented
//! journal of one scan campaign.
//!
//! Layout (`h2campaign-v1`, LF-terminated lines):
//!
//! ```text
//! h2campaign-v1
//! meta|campaign=experiment-1|label=Jul. 2016|scale=0.1|scale_bits=3fb999999999999a|faults=none|seed=0|population=59cf9ad2366a3f9d|sites=5230
//! r|i=0|f=nginx|site=site-0.top1m|alpn=1|npn=1|hdrs=1|…
//! r|i=1|f=litespeed|…
//! …
//! end|rows=5230|checksum=8aa4c2f10b93e77d
//! ```
//!
//! * The two header lines are written first and fsync-free-flushed, so
//!   any crash leaves at least an identifiable record.
//! * Each `r|` row is appended and flushed as soon as a scan worker
//!   finishes the site, in whatever order workers finish — a killed
//!   process loses at most its in-flight sites.
//! * The trailing `end|` line exists **only** on finalized records.
//!   Finalization rewrites the whole file with rows in canonical site
//!   (index) order via a temp-file rename, which is what makes a resumed
//!   campaign byte-identical to an uninterrupted one: the final bytes
//!   are a pure function of `(meta, row set)`.
//!
//! A record without the `end|` line is a *partial* record — the durable
//! residue of a crash — and is exactly what [`read`] hands to the resume
//! path. A torn final line (no trailing `\n`) is tolerated on partial
//! records and dropped; the site is simply re-scanned on resume.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use h2scope::storage::{read_report, write_report};
use h2scope::SiteReport;
use webpop::{Family, Population};

/// Schema identifier — the record file's first line. Any change to the
/// meta line fields, the row layout, the family codes, or the report
/// line format is a format break and must bump this.
pub const SCHEMA: &str = "h2campaign-v1";

/// Error raised by record I/O, parsing, or resume-compatibility checks.
#[derive(Debug)]
pub enum RecordError {
    /// Filesystem failure, annotated with the path.
    Io {
        /// The record path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Malformed record content.
    Parse {
        /// 1-based line number in the record file.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A finalized record with a torn tail: the `end|` trailer is
    /// present but the file ends mid-line, or the trailer's row count
    /// disagrees with the rows actually on disk. Either way the file
    /// was cut short *after* claiming completion.
    Torn {
        /// Rows the trailer promised (`None` when the tail itself is
        /// the torn part).
        expected_rows: Option<u64>,
        /// Rows actually recovered.
        found_rows: u64,
    },
    /// The `end|` trailer's checksum does not match the rows on disk —
    /// silent content corruption, as opposed to truncation.
    Checksum {
        /// Checksum the trailer recorded.
        expected: u64,
        /// Checksum computed over the rows read back.
        computed: u64,
    },
    /// The record on disk belongs to a different campaign configuration.
    Mismatch(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            RecordError::Parse { line, message } => write!(f, "line {line}: {message}"),
            RecordError::Torn {
                expected_rows: Some(expected),
                found_rows,
            } => write!(
                f,
                "torn finalized record: end| trailer says {expected} rows, found {found_rows}"
            ),
            RecordError::Torn {
                expected_rows: None,
                found_rows,
            } => write!(
                f,
                "torn finalized record: file ends mid-line after the end| trailer ({found_rows} rows read)"
            ),
            RecordError::Checksum { expected, computed } => write!(
                f,
                "record checksum mismatch: trailer {expected:016x} != computed {computed:016x}"
            ),
            RecordError::Mismatch(why) => write!(f, "campaign mismatch: {why}"),
        }
    }
}

impl std::error::Error for RecordError {}

fn io_err(path: &Path, source: std::io::Error) -> RecordError {
    RecordError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Escapes a metadata value so it cannot contain a field separator or a
/// line break (same scheme as `h2scope::storage` report lines).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '|' => out.push_str("\\p"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('p') => out.push('|'),
            Some('n') => out.push('\n'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

/// Splits a record line on unescaped `|`.
fn split_fields(line: &str) -> Vec<&str> {
    let mut fields = Vec::new();
    let mut start = 0;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'|' => {
                fields.push(&line[start..i]);
                i += 1;
                start = i;
            }
            _ => i += 1,
        }
    }
    fields.push(&line[start..]);
    fields
}

/// FNV-1a 64-bit — the record checksum and population hash primitive.
/// Dependency-free and stable across platforms, which is all a
/// corruption tripwire needs (this is not a cryptographic seal).
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Checksum over the canonical (index-sorted) row lines.
fn rows_checksum(rows: &[CampaignRow]) -> u64 {
    let mut h = FNV_OFFSET;
    for row in rows {
        h = fnv1a(h, row.encode().as_bytes());
        h = fnv1a(h, b"\n");
    }
    h
}

/// The campaign configuration a record was produced under. Two records
/// are resume-compatible only when every field matches — resuming a
/// `flaky` campaign under `chaos`, or at a different scale, would blend
/// two different experiments into one file.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignMeta {
    /// Campaign identifier (`ExperimentSpec::name`).
    pub campaign: String,
    /// Human label ("Jul. 2016").
    pub label: String,
    /// Population scale factor.
    pub scale: f64,
    /// Fault profile name ("none", "flaky", …).
    pub faults: String,
    /// Campaign fault seed.
    pub seed: u64,
    /// Hash of the generated population's identity (spec + scale).
    pub population: u64,
    /// Expected number of rows when complete (`Population::h2_count`).
    pub sites: u64,
}

impl CampaignMeta {
    /// The meta for scanning `population` under `(faults, seed)`.
    pub fn describe(population: &Population, faults: &str, seed: u64) -> CampaignMeta {
        let spec = population.spec();
        let mut h = FNV_OFFSET;
        h = fnv1a(h, spec.name.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, &spec.seed.to_le_bytes());
        h = fnv1a(h, &population.h2_count().to_le_bytes());
        h = fnv1a(h, &population.headers_count().to_le_bytes());
        h = fnv1a(h, &population.scale().to_bits().to_le_bytes());
        CampaignMeta {
            campaign: spec.name.to_string(),
            label: spec.label.to_string(),
            scale: population.scale(),
            faults: faults.to_string(),
            seed,
            population: h,
            sites: population.h2_count(),
        }
    }

    /// The two header lines (schema + meta), each LF-terminated.
    pub fn header(&self) -> String {
        format!(
            "{SCHEMA}\nmeta|campaign={}|label={}|scale={}|scale_bits={:016x}|faults={}|seed={}|population={:016x}|sites={}\n",
            escape(&self.campaign),
            escape(&self.label),
            self.scale,
            self.scale.to_bits(),
            escape(&self.faults),
            self.seed,
            self.population,
            self.sites,
        )
    }

    fn parse_line(line: &str) -> Result<CampaignMeta, String> {
        let mut campaign = None;
        let mut label = None;
        let mut scale_bits = None;
        let mut faults = None;
        let mut seed = None;
        let mut population = None;
        let mut sites = None;
        let fields = split_fields(line);
        if fields.first() != Some(&"meta") {
            return Err("expected a meta| line".to_string());
        }
        for field in &fields[1..] {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("meta field without '=': {field:?}"))?;
            match key {
                "campaign" => campaign = Some(unescape(value)?),
                "label" => label = Some(unescape(value)?),
                "scale" => {} // human-readable duplicate of scale_bits
                "scale_bits" => {
                    scale_bits = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|_| format!("bad scale_bits {value:?}"))?,
                    );
                }
                "faults" => faults = Some(unescape(value)?),
                "seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?);
                }
                "population" => {
                    population = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|_| format!("bad population {value:?}"))?,
                    );
                }
                "sites" => {
                    sites = Some(value.parse().map_err(|_| format!("bad sites {value:?}"))?);
                }
                other => return Err(format!("unknown meta field {other:?}")),
            }
        }
        let missing = |what: &str| format!("meta line missing {what}");
        Ok(CampaignMeta {
            campaign: campaign.ok_or_else(|| missing("campaign"))?,
            label: label.ok_or_else(|| missing("label"))?,
            scale: f64::from_bits(scale_bits.ok_or_else(|| missing("scale_bits"))?),
            faults: faults.ok_or_else(|| missing("faults"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            population: population.ok_or_else(|| missing("population"))?,
            sites: sites.ok_or_else(|| missing("sites"))?,
        })
    }

    /// Checks resume compatibility against a record read from disk.
    pub fn ensure_matches(&self, on_disk: &CampaignMeta) -> Result<(), RecordError> {
        let mut clashes = Vec::new();
        if self.campaign != on_disk.campaign {
            clashes.push(format!(
                "campaign {:?} vs {:?}",
                on_disk.campaign, self.campaign
            ));
        }
        if self.scale.to_bits() != on_disk.scale.to_bits() {
            clashes.push(format!("scale {} vs {}", on_disk.scale, self.scale));
        }
        if self.faults != on_disk.faults {
            clashes.push(format!("faults {:?} vs {:?}", on_disk.faults, self.faults));
        }
        if self.seed != on_disk.seed {
            clashes.push(format!("seed {} vs {}", on_disk.seed, self.seed));
        }
        if self.population != on_disk.population {
            clashes.push(format!(
                "population {:016x} vs {:016x}",
                on_disk.population, self.population
            ));
        }
        if self.sites != on_disk.sites {
            clashes.push(format!("sites {} vs {}", on_disk.sites, self.sites));
        }
        if clashes.is_empty() {
            Ok(())
        } else {
            Err(RecordError::Mismatch(format!(
                "record was written by a different campaign ({})",
                clashes.join(", ")
            )))
        }
    }
}

/// One persisted site: its campaign index, generated server family, and
/// the full measured [`SiteReport`] (feature vector + probe outcome).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Site index within the campaign (also its stable rank identity).
    pub index: u64,
    /// Generated server family.
    pub family: Family,
    /// Everything H2Scope measured, including resilience accounting.
    pub report: SiteReport,
}

impl CampaignRow {
    /// The row's single record line (no trailing newline).
    pub fn encode(&self) -> String {
        format!(
            "r|i={}|f={}|{}",
            self.index,
            self.family.code(),
            write_report(&self.report)
        )
    }

    /// Parses one `r|` line.
    pub fn decode(line: &str) -> Result<CampaignRow, String> {
        let rest = line.strip_prefix("r|i=").ok_or("expected an r| row")?;
        let (index, rest) = rest.split_once('|').ok_or("row truncated after index")?;
        let index = index
            .parse()
            .map_err(|_| format!("bad row index {index:?}"))?;
        let family = rest.strip_prefix("f=").ok_or("row missing family")?;
        let (family, report) = family.split_once('|').ok_or("row truncated after family")?;
        let family =
            Family::parse_code(family).ok_or_else(|| format!("unknown family {family:?}"))?;
        let report = read_report(report).map_err(|e| e.message)?;
        Ok(CampaignRow {
            index,
            family,
            report,
        })
    }
}

/// A campaign record read back from disk.
#[derive(Debug, Clone)]
pub struct StoredRecord {
    /// The campaign configuration it was produced under.
    pub meta: CampaignMeta,
    /// Rows in index order (whatever subset survived, for partials).
    pub rows: Vec<CampaignRow>,
    /// Whether the `end|` line (and a verified checksum) was present.
    pub finalized: bool,
}

/// Incremental journal writer shared by the scan workers. Every append
/// is written and flushed under one lock, so rows are never interleaved
/// mid-line and the returned count is the number of rows durably in the
/// file — the quantity kill points compare against.
#[derive(Debug)]
pub struct RecordWriter {
    file: Mutex<(File, u64)>,
    path: PathBuf,
}

impl RecordWriter {
    /// Creates (truncates) `path` and writes the header lines.
    pub fn create(path: &Path, meta: &CampaignMeta) -> Result<RecordWriter, RecordError> {
        let mut file = File::create(path).map_err(|e| io_err(path, e))?;
        file.write_all(meta.header().as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_err(path, e))?;
        Ok(RecordWriter {
            file: Mutex::new((file, 0)),
            path: path.to_path_buf(),
        })
    }

    /// Reopens an existing partial record for appending; `rows_present`
    /// is how many rows the partial already holds.
    pub fn append_to(path: &Path, rows_present: u64) -> Result<RecordWriter, RecordError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok(RecordWriter {
            file: Mutex::new((file, rows_present)),
            path: path.to_path_buf(),
        })
    }

    /// Appends one row; returns the total number of rows now in the file.
    pub fn append(&self, row: &CampaignRow) -> Result<u64, RecordError> {
        let mut line = row.encode();
        line.push('\n');
        let mut guard = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let (file, rows) = &mut *guard;
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_err(&self.path, e))?;
        *rows += 1;
        Ok(*rows)
    }

    /// Rows appended so far (including any preloaded partial rows).
    pub fn rows_written(&self) -> u64 {
        self.file.lock().unwrap_or_else(PoisonError::into_inner).1
    }
}

/// The complete, canonical byte content of a finalized record.
fn canonical_content(meta: &CampaignMeta, rows: &[CampaignRow]) -> String {
    let mut out = meta.header();
    for row in rows {
        out.push_str(&row.encode());
        out.push('\n');
    }
    out.push_str(&format!(
        "end|rows={}|checksum={:016x}\n",
        rows.len(),
        rows_checksum(rows)
    ));
    out
}

/// Finalizes a completed campaign: rewrites `path` with the header, all
/// rows in index order, and the `end|` trailer, via a temp-file rename
/// so a crash during finalization never destroys the journal. The
/// output is a pure function of `(meta, rows)` — the byte-identity
/// guarantee resumed campaigns rely on.
///
/// `rows` must be sorted by index and complete (`meta.sites` rows).
pub fn finalize(path: &Path, meta: &CampaignMeta, rows: &[CampaignRow]) -> Result<(), RecordError> {
    debug_assert!(rows.windows(2).all(|w| w[0].index < w[1].index));
    if rows.len() as u64 != meta.sites {
        return Err(RecordError::Mismatch(format!(
            "finalize with {} rows, campaign has {} sites",
            rows.len(),
            meta.sites
        )));
    }
    let tmp = path.with_extension("h2c.tmp");
    let content = canonical_content(meta, rows);
    std::fs::write(&tmp, content).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Reads a record — finalized or partial — back from disk.
///
/// Partial records (no `end|` trailer) may end in a torn line, which is
/// dropped; every fully written row is recovered, sorted by index, and
/// deduplicated (later duplicates win — they can only arise from a
/// crash between a row's write and the scheduler's bookkeeping, and
/// duplicate rows of a deterministic scan are identical anyway).
/// Every row of a partial record must name a site of the campaign
/// (`index < meta.sites`). Finalized records are held to strict form:
/// row count and checksum must verify.
///
/// # Errors
///
/// [`RecordError::Io`] on filesystem failure, [`RecordError::Parse`] on
/// malformed content or a partial record's out-of-range row.
pub fn read(path: &Path) -> Result<StoredRecord, RecordError> {
    let mut content = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut content))
        .map_err(|e| io_err(path, e))?;
    let terminated = content.ends_with('\n');
    let mut lines: Vec<&str> = content.split('\n').collect();
    // split('\n') leaves a trailing "" for terminated files and the torn
    // fragment otherwise.
    let torn = if terminated {
        lines.pop();
        None
    } else {
        lines.pop()
    };
    let parse_err = |line: usize, message: String| RecordError::Parse { line, message };
    if lines.first().copied() != Some(SCHEMA) {
        return Err(parse_err(
            1,
            format!("not a {SCHEMA} record (bad schema line)"),
        ));
    }
    let meta_line = lines
        .get(1)
        .ok_or_else(|| parse_err(2, "missing meta line".to_string()))?;
    let meta = CampaignMeta::parse_line(meta_line).map_err(|m| parse_err(2, m))?;

    let mut rows = Vec::new();
    let mut end: Option<(u64, u64)> = None;
    let mut out_of_range = None;
    for (number, line) in lines.iter().enumerate().skip(2) {
        let number = number + 1; // 1-based
        if let Some(rest) = line.strip_prefix("end|") {
            let parse_end = || -> Result<(u64, u64), String> {
                let (rows_field, checksum_field) =
                    rest.split_once('|').ok_or("end line truncated")?;
                let rows = rows_field
                    .strip_prefix("rows=")
                    .ok_or("end line missing rows=")?
                    .parse()
                    .map_err(|_| "bad end row count".to_string())?;
                let checksum = checksum_field
                    .strip_prefix("checksum=")
                    .and_then(|v| u64::from_str_radix(v, 16).ok())
                    .ok_or("bad end checksum")?;
                Ok((rows, checksum))
            };
            end = Some(parse_end().map_err(|m| parse_err(number, m))?);
            if number != lines.len() {
                return Err(parse_err(number, "content after end| trailer".to_string()));
            }
            break;
        }
        let row = CampaignRow::decode(line).map_err(|m| parse_err(number, m))?;
        if row.index >= meta.sites {
            out_of_range.get_or_insert((number, row.index));
        }
        rows.push(row);
    }
    // A partial record carries no checksum, so each row must at least
    // name a site of the campaign: resume marks rows off by index.
    if let (None, Some((number, index))) = (end, out_of_range) {
        return Err(parse_err(
            number,
            format!(
                "row index {index} outside the campaign's {} sites",
                meta.sites
            ),
        ));
    }

    rows.sort_by_key(|r| r.index);
    rows.dedup_by_key(|r| r.index);

    match end {
        Some((count, checksum)) => {
            if torn.is_some() {
                return Err(RecordError::Torn {
                    expected_rows: None,
                    found_rows: rows.len() as u64,
                });
            }
            if count != rows.len() as u64 {
                return Err(RecordError::Torn {
                    expected_rows: Some(count),
                    found_rows: rows.len() as u64,
                });
            }
            let computed = rows_checksum(&rows);
            if checksum != computed {
                return Err(RecordError::Checksum {
                    expected: checksum,
                    computed,
                });
            }
            Ok(StoredRecord {
                meta,
                rows,
                finalized: true,
            })
        }
        None => Ok(StoredRecord {
            meta,
            rows,
            finalized: false,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webpop::ExperimentSpec;

    fn tiny_population() -> Population {
        Population::new(ExperimentSpec::first(), 0.0005)
    }

    fn sample_rows(population: &Population, n: u64) -> Vec<CampaignRow> {
        let scope = h2scope::H2Scope::new();
        (0..n)
            .map(|i| {
                let site = population.site(i);
                CampaignRow {
                    index: i,
                    family: site.family,
                    report: scope.survey(&site.target()),
                }
            })
            .collect()
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("h2campaign-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(name)
    }

    #[test]
    fn meta_header_round_trips() {
        let population = tiny_population();
        let meta = CampaignMeta::describe(&population, "flaky", 0xfa17);
        let header = meta.header();
        let mut lines = header.lines();
        assert_eq!(lines.next(), Some(SCHEMA));
        let parsed =
            CampaignMeta::parse_line(lines.next().expect("meta line")).expect("meta parses");
        assert_eq!(parsed, meta);
    }

    #[test]
    fn meta_escaping_survives_hostile_values() {
        let population = tiny_population();
        let mut meta = CampaignMeta::describe(&population, "none", 0);
        meta.label = "pipe|back\\slash\nnewline".to_string();
        let header = meta.header();
        let meta_line = header.lines().nth(1).expect("meta line");
        let parsed = CampaignMeta::parse_line(meta_line).expect("meta parses");
        assert_eq!(parsed.label, meta.label);
    }

    #[test]
    fn row_round_trips_through_the_line_format() {
        let population = tiny_population();
        for row in sample_rows(&population, 5) {
            let decoded = CampaignRow::decode(&row.encode()).expect("row decodes");
            assert_eq!(decoded, row);
        }
    }

    #[test]
    fn write_finalize_read_round_trips() {
        let population = tiny_population();
        let mut meta = CampaignMeta::describe(&population, "none", 0);
        let rows = sample_rows(&population, 6);
        meta.sites = rows.len() as u64;
        let path = temp_path("roundtrip.h2c");
        let writer = RecordWriter::create(&path, &meta).expect("create");
        for row in &rows {
            writer.append(row).expect("append");
        }
        assert_eq!(writer.rows_written(), 6);
        finalize(&path, &meta, &rows).expect("finalize");
        let stored = read(&path).expect("read back");
        assert!(stored.finalized);
        assert_eq!(stored.meta, meta);
        assert_eq!(stored.rows, rows);
    }

    #[test]
    fn partial_record_reads_without_end_line() {
        let population = tiny_population();
        let meta = CampaignMeta::describe(&population, "none", 0);
        let rows = sample_rows(&population, 4);
        let path = temp_path("partial.h2c");
        let writer = RecordWriter::create(&path, &meta).expect("create");
        // Rows land out of order, as parallel workers would write them.
        for i in [2usize, 0, 3, 1] {
            writer.append(&rows[i]).expect("append");
        }
        let stored = read(&path).expect("read partial");
        assert!(!stored.finalized);
        assert_eq!(stored.rows, rows, "read sorts rows into index order");
    }

    #[test]
    fn out_of_range_row_index_is_a_parse_error() {
        let population = tiny_population();
        let meta = CampaignMeta::describe(&population, "none", 0);
        let mut rows = sample_rows(&population, 2);
        let path = temp_path("out-of-range.h2c");
        let writer = RecordWriter::create(&path, &meta).expect("create");
        writer.append(&rows[0]).expect("append");
        rows[1].index = meta.sites;
        writer.append(&rows[1]).expect("append");
        match read(&path) {
            Err(RecordError::Parse { line, message }) => {
                assert_eq!(line, 4, "the second row line");
                assert!(message.contains("outside"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_is_dropped_on_partial_records() {
        let population = tiny_population();
        let meta = CampaignMeta::describe(&population, "none", 0);
        let rows = sample_rows(&population, 3);
        let path = temp_path("torn.h2c");
        let writer = RecordWriter::create(&path, &meta).expect("create");
        for row in &rows {
            writer.append(row).expect("append");
        }
        // Simulate a crash mid-write: append half a row, no newline.
        let mut content = std::fs::read_to_string(&path).expect("read file");
        let torn = rows[0].encode();
        content.push_str(&torn[..torn.len() / 2]);
        std::fs::write(&path, content).expect("write torn file");
        let stored = read(&path).expect("torn partial still reads");
        assert!(!stored.finalized);
        assert_eq!(stored.rows, rows, "the torn fragment is dropped");
    }

    #[test]
    fn finalized_record_rejects_corruption() {
        let population = tiny_population();
        let mut meta = CampaignMeta::describe(&population, "none", 0);
        let rows = sample_rows(&population, 3);
        meta.sites = rows.len() as u64;
        let path = temp_path("corrupt.h2c");
        finalize(&path, &meta, &rows).expect("finalize");
        let good = std::fs::read_to_string(&path).expect("read file");
        // Flip one negotiation bit inside a row.
        let bad = good.replacen("alpn=1", "alpn=0", 1);
        assert_ne!(good, bad, "fixture must actually change");
        std::fs::write(&path, bad).expect("write corrupted");
        let err = read(&path).expect_err("corruption detected");
        assert!(matches!(err, RecordError::Checksum { .. }), "{err}");
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn finalized_record_with_torn_tail_is_torn_not_checksum() {
        let population = tiny_population();
        let mut meta = CampaignMeta::describe(&population, "none", 0);
        let rows = sample_rows(&population, 3);
        meta.sites = rows.len() as u64;
        let path = temp_path("torn-final.h2c");
        finalize(&path, &meta, &rows).expect("finalize");
        let good = std::fs::read_to_string(&path).expect("read file");
        // Drop one full row line: the trailer now over-promises.
        let mut lines: Vec<&str> = good.lines().collect();
        lines.remove(2);
        let mut bad = lines.join("\n");
        bad.push('\n');
        std::fs::write(&path, bad).expect("write truncated");
        let err = read(&path).expect_err("truncation detected");
        assert!(
            matches!(
                err,
                RecordError::Torn {
                    expected_rows: Some(3),
                    found_rows: 2,
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn mismatched_campaigns_refuse_to_resume() {
        let population = tiny_population();
        let ours = CampaignMeta::describe(&population, "flaky", 1);
        let theirs = CampaignMeta::describe(&population, "flaky", 2);
        let err = ours.ensure_matches(&theirs).expect_err("seeds differ");
        assert!(err.to_string().contains("seed"));
        let other_scale = Population::new(ExperimentSpec::first(), 0.001);
        let theirs = CampaignMeta::describe(&other_scale, "flaky", 1);
        let err = ours.ensure_matches(&theirs).expect_err("scales differ");
        assert!(err.to_string().contains("population"));
        ours.ensure_matches(&ours.clone()).expect("self matches");
    }

    #[test]
    fn finalize_is_a_pure_function_of_meta_and_rows() {
        let population = tiny_population();
        let mut meta = CampaignMeta::describe(&population, "none", 0);
        let rows = sample_rows(&population, 5);
        meta.sites = rows.len() as u64;
        let a = temp_path("pure-a.h2c");
        let b = temp_path("pure-b.h2c");
        finalize(&a, &meta, &rows).expect("finalize a");
        // The second file goes through a journal full of out-of-order
        // appends first — the finalized bytes must not care.
        let writer = RecordWriter::create(&b, &meta).expect("create");
        for i in [4usize, 1, 0, 3, 2] {
            writer.append(&rows[i]).expect("append");
        }
        finalize(&b, &meta, &rows).expect("finalize b");
        assert_eq!(
            std::fs::read(&a).expect("bytes a"),
            std::fs::read(&b).expect("bytes b")
        );
    }
}
