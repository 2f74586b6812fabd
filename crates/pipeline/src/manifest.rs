//! The shard-directory manifest: a JSON file describing one sharded
//! generation run (model, parameters, seed, format, per-shard edge counts
//! and checksums) so shards can be validated and reassembled later —
//! including by tools that never saw the generator.
//!
//! Multi-process runs (`kagen_cluster`) split the PE range across worker
//! processes; each worker records its slice as a [`PartialManifest`]
//! (`part-<a>-<b>.json`) and the coordinator *federates* the parts into
//! the final `manifest.json` with [`RunHeader::federate`] — byte-identical
//! to what a single-process [`crate::write_sharded`] run would have
//! written, because every field is a pure function of `(model, params,
//! seed, format)` plus the per-shard infos.
//!
//! Serialization is hand-rolled (the build environment vendors no serde):
//! [`Manifest::to_json`] emits canonical JSON and [`Manifest::from_json`]
//! parses the subset of JSON that `to_json` produces (objects, arrays,
//! strings with escapes, unsigned integers, booleans). The parser lives
//! in the public [`json`] module so sibling crates (the cluster ledger)
//! can reuse it.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// File name of the manifest inside a shard directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// One shard's metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// The PE (chunk) index this shard holds.
    pub pe: u64,
    /// File name relative to the shard directory.
    pub file: String,
    /// Number of edges in the shard.
    pub edges: u64,
    /// Order-dependent checksum of the shard's edge stream
    /// (see `kagen_pipeline::sink::checksum_step`).
    pub checksum: u64,
}

impl ShardInfo {
    /// Serialize as a single-line JSON object (the form every manifest
    /// flavor and the cluster ledger embed).
    pub fn to_json_inline(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"pe\": {}, \"file\": ", self.pe);
        push_str_value(&mut s, &self.file);
        let _ = write!(
            s,
            ", \"edges\": {}, \"checksum\": {}}}",
            self.edges, self.checksum
        );
        s
    }

    /// Parse from a JSON value (inverse of [`ShardInfo::to_json_inline`]).
    pub fn from_json_value(value: &json::Value, what: &str) -> Result<ShardInfo, String> {
        let obj = value.as_obj(what)?;
        Ok(ShardInfo {
            pe: obj.get("pe")?.as_u64("pe")?,
            file: obj.get("file")?.as_str("file")?.to_string(),
            edges: obj.get("edges")?.as_u64("edges")?,
            checksum: obj.get("checksum")?.as_u64("checksum")?,
        })
    }
}

/// The run-identity fields of a [`Manifest`] — everything known *before*
/// any shard is written. A multi-worker coordinator carries a header
/// through the run and [federates](RunHeader::federate) it with the
/// collected per-shard infos at the end; the single-process writer uses
/// the same constructor, so both paths produce identical manifests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunHeader {
    /// Model name (e.g. `rmat`, `gnm_undirected`).
    pub model: String,
    /// Human-readable parameter string.
    pub params: String,
    /// Instance seed.
    pub seed: u64,
    /// Vertex count.
    pub n: u64,
    /// Whether the edges are directed.
    pub directed: bool,
    /// Number of logical PEs == number of shards.
    pub chunks: u64,
    /// Shard format name (`edge-list`, `binary`, `compressed`).
    pub format: String,
}

impl RunHeader {
    /// Combine the header with per-shard infos into the final manifest.
    ///
    /// The shards may arrive in any order (workers finish when they
    /// finish); they are sorted by PE and verified to cover exactly
    /// `0..chunks`, each PE once — a gap, duplicate or out-of-range shard
    /// is an error, not a silently wrong manifest.
    pub fn federate(self, mut shards: Vec<ShardInfo>) -> Result<Manifest, String> {
        shards.sort_by_key(|s| s.pe);
        if shards.len() as u64 != self.chunks {
            return Err(format!(
                "federation: {} shards for {} chunks",
                shards.len(),
                self.chunks
            ));
        }
        for (i, s) in shards.iter().enumerate() {
            if s.pe != i as u64 {
                return Err(format!(
                    "federation: expected shard for PE {i}, found PE {} (gap or duplicate)",
                    s.pe
                ));
            }
        }
        let edges = shards.iter().map(|s| s.edges).sum();
        Ok(Manifest {
            model: self.model,
            params: self.params,
            seed: self.seed,
            n: self.n,
            directed: self.directed,
            chunks: self.chunks,
            format: self.format,
            edges,
            shards,
        })
    }

    /// Parse the header fields out of a JSON object that embeds them
    /// (a manifest or a cluster ledger).
    pub fn from_json_obj(obj: &json::Obj<'_>) -> Result<RunHeader, String> {
        Ok(RunHeader {
            model: obj.get("model")?.as_str("model")?.to_string(),
            params: obj.get("params")?.as_str("params")?.to_string(),
            seed: obj.get("seed")?.as_u64("seed")?,
            n: obj.get("n")?.as_u64("n")?,
            directed: obj.get("directed")?.as_bool("directed")?,
            chunks: obj.get("chunks")?.as_u64("chunks")?,
            format: obj.get("format")?.as_str("format")?.to_string(),
        })
    }

    /// Append the header fields to a JSON object body, one per line at
    /// two-space indentation, each line ending in `,` (callers append
    /// their own fields after).
    pub fn push_json_fields(&self, s: &mut String) {
        let _ = write!(s, "  \"model\": ");
        push_str_value(s, &self.model);
        let _ = write!(s, ",\n  \"params\": ");
        push_str_value(s, &self.params);
        let _ = write!(s, ",\n  \"seed\": {},", self.seed);
        let _ = write!(s, "\n  \"n\": {},", self.n);
        let _ = write!(s, "\n  \"directed\": {},", self.directed);
        let _ = write!(s, "\n  \"chunks\": {},", self.chunks);
        let _ = write!(s, "\n  \"format\": ");
        push_str_value(s, &self.format);
        s.push_str(",\n");
    }
}

/// Metadata of a complete sharded run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Model name (e.g. `rmat`, `gnm_undirected`).
    pub model: String,
    /// Human-readable parameter string (e.g. `n=1048576 m=16777216`).
    pub params: String,
    /// Instance seed.
    pub seed: u64,
    /// Vertex count.
    pub n: u64,
    /// Whether the edges are directed.
    pub directed: bool,
    /// Number of logical PEs == number of shards.
    pub chunks: u64,
    /// Shard format name (`edge-list`, `binary`, `compressed`).
    pub format: String,
    /// Total edge count over all shards.
    pub edges: u64,
    /// Per-shard metadata, in PE order.
    pub shards: Vec<ShardInfo>,
}

/// Serialize a shard list as an indented JSON array under key `name`,
/// closing bracket included but no trailing newline or comma.
fn push_shards_field(s: &mut String, name: &str, shards: &[ShardInfo]) {
    let _ = writeln!(s, "  \"{name}\": [");
    for (i, sh) in shards.iter().enumerate() {
        let _ = write!(
            s,
            "    {}{}",
            sh.to_json_inline(),
            if i + 1 < shards.len() { ",\n" } else { "\n" }
        );
    }
    s.push_str("  ]");
}

fn parse_shards_field(obj: &json::Obj<'_>, name: &str) -> Result<Vec<ShardInfo>, String> {
    let mut shards = Vec::new();
    for (i, sh) in obj.get(name)?.as_arr(name)?.iter().enumerate() {
        shards.push(ShardInfo::from_json_value(sh, &format!("{name}[{i}]"))?);
    }
    Ok(shards)
}

impl Manifest {
    /// The run-identity fields, for comparing against a ledger or a
    /// resumed run's parameters.
    pub fn header(&self) -> RunHeader {
        RunHeader {
            model: self.model.clone(),
            params: self.params.clone(),
            seed: self.seed,
            n: self.n,
            directed: self.directed,
            chunks: self.chunks,
            format: self.format.clone(),
        }
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        self.header().push_json_fields(&mut s);
        let _ = writeln!(s, "  \"edges\": {},", self.edges);
        push_shards_field(&mut s, "shards", &self.shards);
        s.push_str("\n}\n");
        s
    }

    /// Parse from JSON (inverse of [`Manifest::to_json`]).
    pub fn from_json(text: &str) -> Result<Manifest, String> {
        let value = json::parse(text)?;
        let obj = value.as_obj("manifest")?;
        let header = RunHeader::from_json_obj(&obj)?;
        Ok(Manifest {
            model: header.model,
            params: header.params,
            seed: header.seed,
            n: header.n,
            directed: header.directed,
            chunks: header.chunks,
            format: header.format,
            edges: obj.get("edges")?.as_u64("edges")?,
            shards: parse_shards_field(&obj, "shards")?,
        })
    }

    /// Write `manifest.json` into `dir`.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        std::fs::write(dir.join(MANIFEST_FILE), self.to_json())
    }

    /// Load `manifest.json` from `dir`.
    pub fn load(dir: &Path) -> io::Result<Manifest> {
        let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
        Manifest::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// One worker's slice of a multi-process run: the shards it wrote for
/// its contiguous PE range `pe_begin..pe_end`. Workers persist this as
/// `part-<a>-<b>.json` in the shard directory; the coordinator collects
/// the parts, validates them, and federates the final [`Manifest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialManifest {
    /// First PE of the worker's range.
    pub pe_begin: u64,
    /// One past the last PE of the worker's range.
    pub pe_end: u64,
    /// Shard infos for exactly the PEs in `pe_begin..pe_end`, in order.
    pub shards: Vec<ShardInfo>,
}

impl PartialManifest {
    /// File name a worker for `pe_begin..pe_end` writes — unique per
    /// task because task ranges never overlap within one run.
    pub fn file_name(pe_begin: u64, pe_end: u64) -> String {
        format!("part-{pe_begin:05}-{pe_end:05}.json")
    }

    /// Serialize to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"pe_begin\": {},", self.pe_begin);
        let _ = writeln!(s, "  \"pe_end\": {},", self.pe_end);
        push_shards_field(&mut s, "shards", &self.shards);
        s.push_str("\n}\n");
        s
    }

    /// Parse from JSON (inverse of [`PartialManifest::to_json`]).
    pub fn from_json(text: &str) -> Result<PartialManifest, String> {
        let value = json::parse(text)?;
        let obj = value.as_obj("partial manifest")?;
        let part = PartialManifest {
            pe_begin: obj.get("pe_begin")?.as_u64("pe_begin")?,
            pe_end: obj.get("pe_end")?.as_u64("pe_end")?,
            shards: parse_shards_field(&obj, "shards")?,
        };
        // Compare without materializing the range — the file is
        // untrusted input, and a corrupt `pe_end` must come back as a
        // parse error, not an absurd allocation.
        let count_ok = part.pe_end.checked_sub(part.pe_begin) == Some(part.shards.len() as u64);
        let pes_ok = part
            .shards
            .iter()
            .zip(part.pe_begin..)
            .all(|(s, pe)| s.pe == pe);
        if !count_ok || !pes_ok {
            let got: Vec<u64> = part.shards.iter().map(|s| s.pe).collect();
            return Err(format!(
                "partial manifest {}..{} covers PEs {got:?}",
                part.pe_begin, part.pe_end
            ));
        }
        Ok(part)
    }

    /// Write `part-<a>-<b>.json` into `dir`; returns the path.
    pub fn save(&self, dir: &Path) -> io::Result<std::path::PathBuf> {
        let path = dir.join(Self::file_name(self.pe_begin, self.pe_end));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Load and validate a worker's partial manifest from `dir`.
    pub fn load(dir: &Path, pe_begin: u64, pe_end: u64) -> io::Result<PartialManifest> {
        let text = std::fs::read_to_string(dir.join(Self::file_name(pe_begin, pe_end)))?;
        PartialManifest::from_json(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Append `s` as a JSON string literal (quotes and escapes included) —
/// the escaper every manifest flavor and the cluster ledger share, which
/// is the obs crate's metrics/trace escaper.
pub fn push_str_value(out: &mut String, s: &str) {
    kagen_obs::metrics::escape_json_into(out, s);
}

pub mod json {
    //! Minimal JSON parser for the manifest subset (objects, arrays,
    //! strings with escapes, unsigned integers, booleans) — public so
    //! the cluster ledger and other sibling metadata files reuse one
    //! parser instead of growing their own.

    /// A parsed JSON value.
    #[derive(Clone, Debug)]
    pub enum Value {
        /// Object as ordered key/value pairs.
        Obj(Vec<(String, Value)>),
        /// Array.
        Arr(Vec<Value>),
        /// String.
        Str(String),
        /// Unsigned integer (all numbers the manifest emits).
        Num(u64),
        /// Boolean.
        Bool(bool),
    }

    /// Accessor helpers for the typed object view.
    #[derive(Debug)]
    pub struct Obj<'a>(&'a [(String, Value)]);

    impl<'a> Obj<'a> {
        /// Look up a required key.
        pub fn get(&self, key: &str) -> Result<&'a Value, String> {
            self.0
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("manifest: missing key '{key}'"))
        }
    }

    impl Value {
        /// View as object.
        pub fn as_obj(&self, what: &str) -> Result<Obj<'_>, String> {
            match self {
                Value::Obj(fields) => Ok(Obj(fields)),
                _ => Err(format!("manifest: {what} is not an object")),
            }
        }

        /// View as array.
        pub fn as_arr(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(items) => Ok(items),
                _ => Err(format!("manifest: {what} is not an array")),
            }
        }

        /// View as string.
        pub fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                _ => Err(format!("manifest: {what} is not a string")),
            }
        }

        /// View as unsigned integer.
        pub fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Value::Num(x) => Ok(*x),
                _ => Err(format!("manifest: {what} is not an integer")),
            }
        }

        /// View as boolean.
        pub fn as_bool(&self, what: &str) -> Result<bool, String> {
            match self {
                Value::Bool(b) => Ok(*b),
                _ => Err(format!("manifest: {what} is not a boolean")),
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len()
                && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
            {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek()? == b {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", b as char, self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' | b'f' => self.boolean(),
                b'0'..=b'9' => self.number(),
                c => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                let key = self.string()?;
                self.expect(b':')?;
                fields.push((key, self.value()?));
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    c => return Err(format!("expected ',' or '}}', got '{}'", c as char)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    c => return Err(format!("expected ',' or ']', got '{}'", c as char)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                let Some(&b) = self.bytes.get(self.pos) else {
                    return Err("unterminated string".to_string());
                };
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let Some(&esc) = self.bytes.get(self.pos) else {
                            return Err("unterminated escape".to_string());
                        };
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or("truncated \\u escape")?;
                                self.pos += 4;
                                let code = u32::from_str_radix(
                                    std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                    16,
                                )
                                .map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                            }
                            c => return Err(format!("bad escape '\\{}'", c as char)),
                        }
                    }
                    b => {
                        // Re-assemble UTF-8 multibyte sequences verbatim.
                        let start = self.pos - 1;
                        let len = match b {
                            0x00..=0x7f => 1,
                            0xc0..=0xdf => 2,
                            0xe0..=0xef => 3,
                            _ => 4,
                        };
                        let slice = self
                            .bytes
                            .get(start..start + len)
                            .ok_or("truncated UTF-8 sequence")?;
                        out.push_str(std::str::from_utf8(slice).map_err(|e| e.to_string())?);
                        self.pos = start + len;
                    }
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            self.skip_ws();
            let start = self.pos;
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if start == self.pos {
                return Err(format!("expected number at byte {start}"));
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .unwrap()
                .parse::<u64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number: {e}"))
        }

        fn boolean(&mut self) -> Result<Value, String> {
            self.skip_ws();
            if self.bytes[self.pos..].starts_with(b"true") {
                self.pos += 4;
                Ok(Value::Bool(true))
            } else if self.bytes[self.pos..].starts_with(b"false") {
                self.pos += 5;
                Ok(Value::Bool(false))
            } else {
                Err(format!("expected boolean at byte {}", self.pos))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            model: "rmat".to_string(),
            params: "n=1024 m=4096".to_string(),
            seed: 42,
            n: 1024,
            directed: true,
            chunks: 2,
            format: "compressed".to_string(),
            edges: 4096,
            shards: vec![
                ShardInfo {
                    pe: 0,
                    file: "shard-00000.kgc".to_string(),
                    edges: 2048,
                    checksum: 0xdeadbeef,
                },
                ShardInfo {
                    pe: 1,
                    file: "shard-00001.kgc".to_string(),
                    edges: 2048,
                    checksum: 0xfeedface,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrip() {
        let m = sample();
        let text = m.to_json();
        let back = Manifest::from_json(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn escapes_roundtrip() {
        let mut m = sample();
        m.params = "weird \"quoted\" \\ tab\there\nnewline".to_string();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back.params, m.params);
    }

    #[test]
    fn empty_shard_list() {
        let mut m = sample();
        m.shards.clear();
        let back = Manifest::from_json(&m.to_json()).unwrap();
        assert!(back.shards.is_empty());
    }

    #[test]
    fn missing_key_is_an_error() {
        let err = Manifest::from_json("{\"model\": \"x\"}").unwrap_err();
        assert!(err.contains("missing key"), "{err}");
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(Manifest::from_json("{").is_err());
        assert!(Manifest::from_json("[1, 2").is_err());
        assert!(Manifest::from_json("{\"a\": 1} trailing").is_err());
    }

    #[test]
    fn federate_accepts_out_of_order_parts_and_matches_direct_build() {
        let m = sample();
        let mut shards = m.shards.clone();
        shards.reverse(); // workers finish in any order
        let federated = m.header().federate(shards).unwrap();
        assert_eq!(federated, m);
        assert_eq!(federated.to_json(), m.to_json());
    }

    #[test]
    fn federate_rejects_gaps_duplicates_and_wrong_counts() {
        let m = sample();
        // Missing shard.
        let err = m.header().federate(m.shards[..1].to_vec()).unwrap_err();
        assert!(err.contains("1 shards for 2 chunks"), "{err}");
        // Duplicate PE.
        let dup = vec![m.shards[0].clone(), m.shards[0].clone()];
        let err = m.header().federate(dup).unwrap_err();
        assert!(err.contains("gap or duplicate"), "{err}");
        // Out-of-range PE.
        let mut wild = m.shards.clone();
        wild[1].pe = 7;
        let err = m.header().federate(wild).unwrap_err();
        assert!(err.contains("gap or duplicate"), "{err}");
    }

    #[test]
    fn partial_manifest_roundtrip() {
        let m = sample();
        let part = PartialManifest {
            pe_begin: 0,
            pe_end: 2,
            shards: m.shards.clone(),
        };
        let back = PartialManifest::from_json(&part.to_json()).unwrap();
        assert_eq!(back, part);

        let dir = std::env::temp_dir().join("kagen_partial_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = part.save(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "part-00000-00002.json");
        let loaded = PartialManifest::load(&dir, 0, 2).unwrap();
        assert_eq!(loaded, part);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_manifest_rejects_range_mismatch() {
        let m = sample();
        let part = PartialManifest {
            pe_begin: 3,
            pe_end: 5, // but the shards are PEs 0 and 1
            shards: m.shards.clone(),
        };
        let err = PartialManifest::from_json(&part.to_json()).unwrap_err();
        assert!(err.contains("covers PEs"), "{err}");
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("kagen_manifest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m = sample();
        m.save(&dir).unwrap();
        let back = Manifest::load(&dir).unwrap();
        assert_eq!(back, m);
        std::fs::remove_dir_all(&dir).ok();
    }
}
