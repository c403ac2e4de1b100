//! Cross-process sharding: slicing one run's work list across `N`
//! processes and merging the partial CSVs back into the unsharded bytes.
//!
//! The scheme has three deterministic pieces:
//!
//! 1. **Slicing.**  A run's work list (the flat sequence of operating
//!    points a harness binary would evaluate) is split by
//!    [`ShardSpec::owns`]: shard `K/N` keeps the items whose flat index is
//!    `≡ K−1 (mod N)`.  Round-robin keeps every shard's load balanced even
//!    when cost grows along the list (rates sweep toward the saturation
//!    knee, where solves and simulations get slower).
//! 2. **Partial reports.**  A sharded run emits the same CSV rows the
//!    unsharded run would — formatted by the same code, so the bytes match
//!    — but only for the items it owns, each prefixed with the row's index
//!    in the unsharded CSV ([`partial_header`] / [`partial_rows`]).
//! 3. **Merging.**  [`merge_shard_csvs`] checks that the partials share
//!    one schema, sorts the rows by their index, verifies the index set is
//!    exactly `0..total` (no gaps, no duplicates — a missing or doubled
//!    shard is a hard error, not silent corruption) and strips the index
//!    column.  The output is byte-identical to the CSV of an unsharded
//!    run, which `cargo xtask ci`'s shard-smoke step verifies end to end.

use std::error::Error;
use std::fmt;

/// Name of the index column prepended to sharded partial CSVs.  The column
/// header carries the run fingerprint (`row:<16 hex digits>`), so partials
/// of *different* runs — different flags, different experiments — refuse to
/// merge even when their row-index sets happen to complement.
pub const PARTIAL_INDEX_COLUMN: &str = "row";

/// Order-sensitive FNV-1a accumulator over a sharded run's identity — the
/// base name, shard count, sweep ids, scenario labels, seed bases and rate
/// grids.  Every shard of one run derives the identity from the *full*
/// (unsharded) run description, so all `N` partials carry the same stamp;
/// a shard launched with different flags stamps differently and
/// [`merge_shard_csvs`] rejects the mix as a [`MergeError::RunMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFingerprint(u64);

impl Default for RunFingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl RunFingerprint {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// An empty fingerprint.
    #[must_use]
    pub fn new() -> Self {
        Self(Self::OFFSET_BASIS)
    }

    fn add_byte(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::PRIME);
    }

    /// Folds a string (length-prefixed, so concatenations can't collide).
    pub fn add_str(&mut self, s: &str) {
        self.add_u64(s.len() as u64);
        for byte in s.bytes() {
            self.add_byte(byte);
        }
    }

    /// Folds an integer.
    pub fn add_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.add_byte(byte);
        }
    }

    /// Folds a float by its exact bit pattern.
    pub fn add_f64(&mut self, v: f64) {
        self.add_u64(v.to_bits());
    }

    /// The 64-bit digest stamped into partial headers.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for RunFingerprint {
    /// Formats the digest as 16 lower-hex digits (zero-padded, no prefix):
    /// the spelling stamped into shard partial headers.
    ///
    /// ```
    /// use star_exec::RunFingerprint;
    ///
    /// let mut fp = RunFingerprint::new();
    /// fp.add_str("S5/enhanced-nbc/V6/M32");
    /// assert_eq!(format!("{fp}"), format!("{:016x}", fp.finish()));
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One shard of a cross-process run: this process owns every `count`-th
/// item of the flat work list, starting at `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Zero-based shard index (`K−1` of the `--shard K/N` spelling).
    pub index: usize,
    /// Total number of shards (`N`).
    pub count: usize,
}

/// Why a `--shard` argument failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardParseError {
    /// The argument is not of the form `K/N`.
    Malformed(String),
    /// `N` must be at least 1 and `K` in `1..=N`.
    OutOfRange {
        /// The parsed 1-based shard number.
        shard: u64,
        /// The parsed shard count.
        of: u64,
    },
}

impl fmt::Display for ShardParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardParseError::Malformed(s) => {
                write!(f, "expected --shard K/N (e.g. 2/3), got {s:?}")
            }
            ShardParseError::OutOfRange { shard, of } => {
                write!(f, "shard {shard}/{of} out of range: need 1 <= K <= N")
            }
        }
    }
}

impl Error for ShardParseError {}

impl ShardSpec {
    /// Parses the `--shard K/N` spelling (1-based `K`).
    ///
    /// # Errors
    /// Returns a [`ShardParseError`] when the argument is malformed or `K`
    /// is outside `1..=N`.
    pub fn parse(arg: &str) -> Result<Self, ShardParseError> {
        let (k, n) =
            arg.split_once('/').ok_or_else(|| ShardParseError::Malformed(arg.to_string()))?;
        let (k, n): (u64, u64) = match (k.trim().parse(), n.trim().parse()) {
            (Ok(k), Ok(n)) => (k, n),
            _ => return Err(ShardParseError::Malformed(arg.to_string())),
        };
        if n == 0 || k == 0 || k > n {
            return Err(ShardParseError::OutOfRange { shard: k, of: n });
        }
        #[allow(clippy::cast_possible_truncation)]
        Ok(Self { index: (k - 1) as usize, count: n as usize })
    }

    /// Whether this shard owns flat work item `i`.
    #[must_use]
    pub fn owns(&self, i: usize) -> bool {
        i % self.count == self.index
    }

    /// The `1ofN`-style label used in partial file names.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}of{}", self.index + 1, self.count)
    }

    /// The partial CSV file name for an output that would be `<base>.csv`
    /// unsharded (e.g. `star_vs_hypercube.shard2of3.csv`).
    #[must_use]
    pub fn file_name(&self, base: &str) -> String {
        format!("{base}.shard{}.csv", self.label())
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.count)
    }
}

/// The header line of a partial CSV for the given unsharded header,
/// stamped with the run's [`RunFingerprint`] digest (its stable
/// 16-hex-digit [`Display`](fmt::Display) spelling).
#[must_use]
pub fn partial_header(header: &str, fingerprint: RunFingerprint) -> String {
    format!("{PARTIAL_INDEX_COLUMN}:{fingerprint},{header}")
}

/// Partial CSV rows: each unsharded-run row prefixed with its index in the
/// unsharded CSV.
#[must_use]
pub fn partial_rows(rows: &[(usize, String)]) -> Vec<String> {
    rows.iter().map(|(index, row)| format!("{index},{row}")).collect()
}

/// Why a set of partial CSVs does not merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No partial files were given.
    NoPartials,
    /// A partial is empty or its header lacks the fingerprint-stamped
    /// index column.
    BadHeader {
        /// Which partial (by argument position).
        partial: usize,
        /// The offending header line.
        header: String,
    },
    /// Two partials were written by different runs (different flags or
    /// different experiments) — their fingerprints disagree.
    RunMismatch {
        /// Which partial (by argument position).
        partial: usize,
        /// The first partial's fingerprint digest.
        expected: u64,
        /// The fingerprint found.
        found: u64,
    },
    /// Two partials disagree on the underlying schema.
    HeaderMismatch {
        /// Which partial (by argument position).
        partial: usize,
        /// The schema of partial 0.
        expected: String,
        /// The schema found.
        found: String,
    },
    /// A data row does not start with a `row_index,` prefix.
    BadRow {
        /// Which partial (by argument position).
        partial: usize,
        /// The offending line.
        row: String,
    },
    /// Two rows claim the same unsharded index (a shard ran twice?).
    DuplicateRow {
        /// The duplicated unsharded row index.
        index: usize,
    },
    /// The index set has a gap (a shard is missing?).
    MissingRow {
        /// The first absent unsharded row index.
        index: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoPartials => write!(f, "no partial CSVs to merge"),
            MergeError::BadHeader { partial, header } => write!(
                f,
                "partial #{partial}: header {header:?} does not start with \
                 \"{PARTIAL_INDEX_COLUMN}:<fingerprint>,\" — not a sharded partial CSV"
            ),
            MergeError::RunMismatch { partial, expected, found } => write!(
                f,
                "partial #{partial}: run fingerprint {found:016x} differs from the first \
                 partial's {expected:016x} — the partials come from different runs \
                 (different flags or experiments)"
            ),
            MergeError::HeaderMismatch { partial, expected, found } => write!(
                f,
                "partial #{partial}: schema {found:?} differs from the first \
                 partial's {expected:?}"
            ),
            MergeError::BadRow { partial, row } => {
                write!(f, "partial #{partial}: row {row:?} has no leading row index")
            }
            MergeError::DuplicateRow { index } => {
                write!(f, "row {index} appears in more than one partial (shard ran twice?)")
            }
            MergeError::MissingRow { index } => {
                write!(f, "row {index} is missing (incomplete shard set?)")
            }
        }
    }
}

impl Error for MergeError {}

/// Merges partial CSV *contents* (one string per shard, any order) into
/// the unsharded CSV: validates the shared schema and the completeness of
/// the index set, sorts by unsharded row index, strips the index column.
///
/// The result is byte-identical to the CSV an unsharded run writes,
/// because every data row was formatted by the same code that formats the
/// unsharded rows and only the index prefix is added/removed around it.
///
/// # Errors
/// Returns a [`MergeError`] describing the first inconsistency found.
pub fn merge_shard_csvs(partials: &[String]) -> Result<String, MergeError> {
    let mut schema: Option<String> = None;
    let mut run: Option<u64> = None;
    let mut rows: Vec<(usize, String)> = Vec::new();
    for (pi, partial) in partials.iter().enumerate() {
        let mut lines = partial.lines();
        let header = lines.next().unwrap_or_default();
        let bad_header = || MergeError::BadHeader { partial: pi, header: header.to_string() };
        let (stamp, inner) = header.split_once(',').ok_or_else(bad_header)?;
        let fingerprint = stamp
            .strip_prefix(&format!("{PARTIAL_INDEX_COLUMN}:"))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(bad_header)?;
        match run {
            None => run = Some(fingerprint),
            Some(expected) if expected != fingerprint => {
                return Err(MergeError::RunMismatch { partial: pi, expected, found: fingerprint });
            }
            Some(_) => {}
        }
        match &schema {
            None => schema = Some(inner.to_string()),
            Some(expected) if expected != inner => {
                return Err(MergeError::HeaderMismatch {
                    partial: pi,
                    expected: expected.clone(),
                    found: inner.to_string(),
                });
            }
            Some(_) => {}
        }
        for line in lines {
            let (index, rest) = line
                .split_once(',')
                .and_then(|(i, rest)| i.parse::<usize>().ok().map(|i| (i, rest)))
                .ok_or_else(|| MergeError::BadRow { partial: pi, row: line.to_string() })?;
            rows.push((index, rest.to_string()));
        }
    }
    let schema = schema.ok_or(MergeError::NoPartials)?;
    rows.sort_by_key(|(index, _)| *index);
    for (position, (index, _)) in rows.iter().enumerate() {
        if *index < position {
            return Err(MergeError::DuplicateRow { index: *index });
        }
        if *index > position {
            return Err(MergeError::MissingRow { index: position });
        }
    }
    let mut out = String::with_capacity(
        schema.len() + 1 + rows.iter().map(|(_, r)| r.len() + 1).sum::<usize>(),
    );
    out.push_str(&schema);
    out.push('\n');
    for (_, row) in &rows {
        out.push_str(row);
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_one_based_shards() {
        assert_eq!(ShardSpec::parse("1/3"), Ok(ShardSpec { index: 0, count: 3 }));
        assert_eq!(ShardSpec::parse("3/3"), Ok(ShardSpec { index: 2, count: 3 }));
        assert_eq!(ShardSpec::parse("1/1"), Ok(ShardSpec { index: 0, count: 1 }));
        assert_eq!(ShardSpec::parse("2/3").unwrap().to_string(), "2/3");
    }

    #[test]
    fn parse_rejects_nonsense() {
        for bad in ["", "3", "a/b", "1/3/5", "1-3"] {
            assert!(matches!(ShardSpec::parse(bad), Err(ShardParseError::Malformed(_))), "{bad}");
        }
        for out in ["0/3", "4/3", "1/0"] {
            assert!(
                matches!(ShardSpec::parse(out), Err(ShardParseError::OutOfRange { .. })),
                "{out}"
            );
        }
        assert!(ShardSpec::parse("0/3").unwrap_err().to_string().contains("out of range"));
        assert!(ShardSpec::parse("x").unwrap_err().to_string().contains("expected --shard"));
    }

    #[test]
    fn shards_partition_the_work_list() {
        let specs: Vec<ShardSpec> = (0..3).map(|index| ShardSpec { index, count: 3 }).collect();
        for i in 0..20 {
            let owners = specs.iter().filter(|s| s.owns(i)).count();
            assert_eq!(owners, 1, "item {i} must have exactly one owner");
        }
        assert!(specs[1].owns(1) && specs[1].owns(4));
        assert_eq!(specs[1].label(), "2of3");
        assert_eq!(specs[1].file_name("report"), "report.shard2of3.csv");
    }

    fn fp_of(tag: u64) -> RunFingerprint {
        let mut fp = RunFingerprint::new();
        fp.add_u64(tag);
        fp
    }

    fn partial_of_run(header: &str, fingerprint: RunFingerprint, rows: &[(usize, &str)]) -> String {
        let mut out = partial_header(header, fingerprint);
        out.push('\n');
        let owned: Vec<(usize, String)> = rows.iter().map(|&(i, r)| (i, r.to_string())).collect();
        for row in partial_rows(&owned) {
            out.push_str(&row);
            out.push('\n');
        }
        out
    }

    fn partial(header: &str, rows: &[(usize, &str)]) -> String {
        partial_of_run(header, fp_of(7), rows)
    }

    #[test]
    fn fingerprints_are_deterministic_and_order_sensitive() {
        let digest = |build: &dyn Fn(&mut RunFingerprint)| {
            let mut fp = RunFingerprint::new();
            build(&mut fp);
            fp.finish()
        };
        let a = digest(&|fp| {
            fp.add_str("s4");
            fp.add_u64(3);
            fp.add_f64(0.002);
        });
        let same = digest(&|fp| {
            fp.add_str("s4");
            fp.add_u64(3);
            fp.add_f64(0.002);
        });
        assert_eq!(a, same, "the digest is a pure function of the folded values");
        let reordered = digest(&|fp| {
            fp.add_u64(3);
            fp.add_str("s4");
            fp.add_f64(0.002);
        });
        assert_ne!(a, reordered);
        // length prefixing keeps concatenations apart
        let ab = digest(&|fp| {
            fp.add_str("a");
            fp.add_str("b");
        });
        let a_b = digest(&|fp| fp.add_str("ab"));
        assert_ne!(ab, a_b);
    }

    #[test]
    fn hex_spelling_is_stable_and_round_trips_through_headers() {
        let fp = fp_of(0xBEEF);
        assert_eq!(fp.to_string(), format!("{:016x}", fp.finish()));
        assert_eq!(fp.to_string().len(), 16, "zero-padded to a fixed width");
        // the header stamp is exactly the hex spelling, and the merge parser
        // reads it back as the same digest
        let header = partial_header("x,y", fp);
        assert_eq!(header, format!("row:{fp},x,y"));
        let merged = merge_shard_csvs(&[format!("{header}\n0,1,a\n")]).unwrap();
        assert_eq!(merged, "x,y\n1,a\n");
    }

    #[test]
    fn merge_restores_the_unsharded_bytes() {
        let a = partial("x,y", &[(0, "0.1,a"), (2, "0.3,c")]);
        let b = partial("x,y", &[(1, "0.2,b"), (3, "0.4,d")]);
        // order of partials must not matter
        for pair in [[a.clone(), b.clone()], [b.clone(), a.clone()]] {
            let merged = merge_shard_csvs(&pair).unwrap();
            assert_eq!(merged, "x,y\n0.1,a\n0.2,b\n0.3,c\n0.4,d\n");
        }
    }

    #[test]
    fn merge_accepts_empty_shards() {
        let a = partial("x", &[(0, "only")]);
        let empty = partial("x", &[]);
        assert_eq!(merge_shard_csvs(&[a, empty]).unwrap(), "x\nonly\n");
    }

    #[test]
    fn merge_rejects_inconsistent_partials() {
        assert_eq!(merge_shard_csvs(&[]), Err(MergeError::NoPartials));
        let good = partial("x,y", &[(0, "0.1,a")]);
        for not_a_partial in ["x,y\n1,nope\n", "row,x,y\n1,nope\n", "row:zz,x\n"] {
            assert!(
                matches!(
                    merge_shard_csvs(&[not_a_partial.to_string()]),
                    Err(MergeError::BadHeader { partial: 0, .. })
                ),
                "{not_a_partial:?}"
            );
        }
        // complementary indices, same schema, but written by different runs
        let other_run = partial_of_run("x,y", fp_of(8), &[(1, "0.2,b")]);
        assert!(matches!(
            merge_shard_csvs(&[good.clone(), other_run]),
            Err(MergeError::RunMismatch { partial: 1, expected, found })
                if expected == fp_of(7).finish() && found == fp_of(8).finish()
        ));
        assert!(matches!(
            merge_shard_csvs(&[good.clone(), partial("x,z", &[(1, "0.2,b")])]),
            Err(MergeError::HeaderMismatch { partial: 1, .. })
        ));
        assert!(matches!(
            merge_shard_csvs(&[format!("{}oops,row\n", partial("x,y", &[]))]),
            Err(MergeError::BadRow { .. })
        ));
        assert_eq!(
            merge_shard_csvs(&[good.clone(), good.clone()]),
            Err(MergeError::DuplicateRow { index: 0 })
        );
        assert_eq!(
            merge_shard_csvs(&[good, partial("x,y", &[(2, "0.3,c")])]),
            Err(MergeError::MissingRow { index: 1 })
        );
        assert!(MergeError::MissingRow { index: 1 }.to_string().contains("missing"));
    }
}
