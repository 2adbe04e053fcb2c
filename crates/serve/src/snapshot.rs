//! The `pp-snapshot-v1` file format: a self-contained, self-validating
//! serialization of one job's complete simulation state.
//!
//! A snapshot file carries everything a **fresh server process** needs to
//! continue the job: the original [`JobSpec`] (to rebuild the engine), the
//! tenant/job identity, whether the job's scheduled shock has already
//! fired, and the tier's [`EngineSnapshot`] (packed population, clock,
//! seed, and the tier-private resume words). Restoring it replays the
//! trajectory bit-exactly from `(seed, clock)` — the engine-level contract
//! gated by `tests/engine_snapshot.rs`.
//!
//! ## Precision: why `u64` fields are hex strings
//!
//! The result-JSON toolchain parses every number as `f64`, which is exact
//! only up to `2^53`. Seeds, clocks, and the aux words are full-range
//! `u64` (xoshiro state words in particular are uniform over `u64`), so
//! they are serialized as `"0x%016x"` strings and parsed back without a
//! float round-trip. Packed states are `u32` and ride as plain numbers.
//!
//! ## Fail-closed validation
//!
//! [`SnapshotFile::parse`] rejects, in order: malformed JSON, a wrong
//! `format`/`schema_version`, **unknown fields at any level** (same rule
//! as result-JSON v1), field-level type/range violations, a spec that
//! fails [`JobSpec::from_doc`], and finally a [`checksum`] mismatch over
//! the whole payload. A truncated, bit-flipped, or hand-edited file is
//! therefore an error *before* any engine is built — the server's exit-2
//! path — never a silently diverging resume. What the checksum cannot see
//! (a stale-but-internally-consistent file) the engine's own
//! `restore_snapshot` identity checks still reject.

use crate::wire::{check_ident, JobSpec, MAX_EXACT_INT};
use pp_bench::schema::{parse, Value};
use pp_engine::EngineSnapshot;
use pp_obs::json::quote;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The format tag every snapshot file carries.
pub const FORMAT: &str = "pp-snapshot-v1";

/// One job's complete serialized state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFile {
    /// Owning tenant.
    pub tenant: String,
    /// Job name within the tenant.
    pub job: String,
    /// The job's original spec — the engine is rebuilt from this.
    pub spec: JobSpec,
    /// Whether the spec's scheduled shock already fired before the
    /// capture (a resumed job must not re-arm a fired shock).
    pub shock_applied: bool,
    /// The engine tier's versioned state capture.
    pub engine: EngineSnapshot,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mix(h: u64, word: u64) -> u64 {
    splitmix64(h ^ word)
}

fn mix_str(mut h: u64, s: &str) -> u64 {
    h = mix(h, s.len() as u64);
    for b in s.as_bytes() {
        h = mix(h, *b as u64);
    }
    h
}

/// The integrity checksum over a snapshot's full payload: a SplitMix64
/// chain absorbing the identity strings, the shock flag, and every header
/// and payload word. Not cryptographic — it catches truncation, bit
/// flips, and hand edits, which is the corruption class the exit-2 gate
/// is for.
pub fn checksum(tenant: &str, job: &str, shock_applied: bool, snap: &EngineSnapshot) -> u64 {
    let mut h = 0x5EED_0F00D;
    h = mix_str(h, tenant);
    h = mix_str(h, job);
    h = mix(h, shock_applied as u64);
    h = mix_str(h, &snap.engine);
    h = mix_str(h, &snap.protocol);
    h = mix_str(h, &snap.topology);
    h = mix(h, snap.n);
    h = mix(h, snap.clock);
    h = mix(h, snap.seed);
    h = mix(h, snap.states.len() as u64);
    for &s in &snap.states {
        h = mix(h, s as u64);
    }
    h = mix(h, snap.aux.len() as u64);
    for &a in &snap.aux {
        h = mix(h, a);
    }
    h
}

fn hex(v: u64) -> String {
    format!("0x{v:016x}")
}

fn parse_hex(s: &str, what: &str) -> Result<u64, String> {
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("{what} must be a 0x-prefixed hex string, got `{s}`"))?;
    if digits.len() != 16 {
        return Err(format!("{what} must have exactly 16 hex digits, got `{s}`"));
    }
    u64::from_str_radix(digits, 16).map_err(|e| format!("{what}: bad hex `{s}`: {e}"))
}

impl SnapshotFile {
    /// Renders the snapshot as its `pp-snapshot-v1` JSON document
    /// (newline-terminated; parse/render round-trips bit-exactly).
    pub fn render(&self) -> String {
        let states: Vec<String> = self.engine.states.iter().map(|s| s.to_string()).collect();
        let aux: Vec<String> = self.engine.aux.iter().map(|a| quote(&hex(*a))).collect();
        format!(
            "{{\n  \"schema_version\": 1,\n  \"format\": {format},\n  \"tenant\": {tenant},\n  \
             \"job\": {job},\n  \"shock_applied\": {shock},\n  \"spec\": {spec},\n  \
             \"engine\": {{\"tier\": {tier}, \"protocol\": {protocol}, \"topology\": {topology}, \
             \"n\": {n}, \"clock\": {clock}, \"seed\": {seed},\n    \"states\": [{states}],\n    \
             \"aux\": [{aux}]}},\n  \"checksum\": {checksum}\n}}\n",
            format = quote(FORMAT),
            tenant = quote(&self.tenant),
            job = quote(&self.job),
            shock = self.shock_applied,
            spec = self.spec.to_json(),
            tier = quote(&self.engine.engine),
            protocol = quote(&self.engine.protocol),
            topology = quote(&self.engine.topology),
            n = self.engine.n,
            clock = quote(&hex(self.engine.clock)),
            seed = quote(&hex(self.engine.seed)),
            states = states.join(","),
            aux = aux.join(","),
            checksum = quote(&hex(checksum(
                &self.tenant,
                &self.job,
                self.shock_applied,
                &self.engine
            ))),
        )
    }

    /// Parses and fully validates a `pp-snapshot-v1` document (see the
    /// module docs for the rejection order). On success the returned
    /// snapshot is exactly what [`SnapshotFile::render`] wrote.
    pub fn parse(text: &str) -> Result<SnapshotFile, String> {
        let doc = parse(text).map_err(|e| format!("snapshot file: {e}"))?;
        let m = match &doc {
            Value::Obj(m) => m,
            _ => return Err("snapshot file must be a JSON object".into()),
        };
        let known = [
            "schema_version",
            "format",
            "tenant",
            "job",
            "shock_applied",
            "spec",
            "engine",
            "checksum",
        ];
        for key in m.keys() {
            if !known.contains(&key.as_str()) {
                return Err(format!("unknown field `{key}` in snapshot file"));
            }
        }
        match doc.get("schema_version").and_then(Value::as_f64) {
            Some(1.0) => {}
            _ => return Err("snapshot file must carry `\"schema_version\": 1`".into()),
        }
        match doc.get("format").and_then(Value::as_str) {
            Some(f) if f == FORMAT => {}
            Some(f) => return Err(format!("snapshot format must be `{FORMAT}`, got `{f}`")),
            None => return Err("snapshot file missing string field `format`".into()),
        }
        let get_str = |key: &str| -> Result<String, String> {
            match doc.get(key).and_then(Value::as_str) {
                Some(s) if !s.is_empty() => Ok(s.to_string()),
                _ => Err(format!(
                    "snapshot file field `{key}` must be a non-empty string"
                )),
            }
        };
        let tenant = get_str("tenant")?;
        check_ident(&tenant, "snapshot tenant")?;
        let job = get_str("job")?;
        check_ident(&job, "snapshot job")?;
        let shock_applied = match doc.get("shock_applied") {
            Some(Value::Bool(b)) => *b,
            _ => return Err("snapshot file field `shock_applied` must be a boolean".into()),
        };
        let spec = JobSpec::from_doc(
            doc.get("spec")
                .ok_or_else(|| "snapshot file missing field `spec`".to_string())?,
        )
        .map_err(|e| format!("snapshot spec: {e}"))?;

        let eng = doc
            .get("engine")
            .ok_or_else(|| "snapshot file missing field `engine`".to_string())?;
        let em = match eng {
            Value::Obj(em) => em,
            _ => return Err("snapshot file field `engine` must be an object".into()),
        };
        let eng_known = [
            "tier", "protocol", "topology", "n", "clock", "seed", "states", "aux",
        ];
        for key in em.keys() {
            if !eng_known.contains(&key.as_str()) {
                return Err(format!("unknown field `{key}` in snapshot engine object"));
            }
        }
        let eng_str = |key: &str| -> Result<String, String> {
            match eng.get(key).and_then(Value::as_str) {
                Some(s) if !s.is_empty() => Ok(s.to_string()),
                _ => Err(format!(
                    "snapshot engine field `{key}` must be a non-empty string"
                )),
            }
        };
        let n = match eng.get("n").and_then(Value::as_f64) {
            Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= MAX_EXACT_INT as f64 => x as u64,
            _ => return Err("snapshot engine field `n` must be a whole number below 2^53".into()),
        };
        let clock = parse_hex(&eng_str("clock")?, "snapshot engine field `clock`")?;
        let seed = parse_hex(&eng_str("seed")?, "snapshot engine field `seed`")?;
        let states = match eng.get("states") {
            Some(Value::Arr(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    match item.as_f64() {
                        Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= u32::MAX as f64 => {
                            out.push(x as u32)
                        }
                        _ => {
                            return Err(format!("snapshot engine states[{i}] must be a u32 number"))
                        }
                    }
                }
                out
            }
            _ => return Err("snapshot engine field `states` must be an array".into()),
        };
        let aux = match eng.get("aux") {
            Some(Value::Arr(items)) => {
                let mut out = Vec::with_capacity(items.len());
                for (i, item) in items.iter().enumerate() {
                    match item.as_str() {
                        Some(s) => out.push(parse_hex(s, &format!("snapshot engine aux[{i}]"))?),
                        None => {
                            return Err(format!("snapshot engine aux[{i}] must be a hex string"))
                        }
                    }
                }
                out
            }
            _ => return Err("snapshot engine field `aux` must be an array".into()),
        };
        let engine = EngineSnapshot {
            engine: eng_str("tier")?,
            protocol: eng_str("protocol")?,
            topology: eng_str("topology")?,
            n,
            clock,
            seed,
            states,
            aux,
        };

        let declared = parse_hex(&get_str("checksum")?, "snapshot file field `checksum`")?;
        let actual = checksum(&tenant, &job, shock_applied, &engine);
        if declared != actual {
            return Err(format!(
                "snapshot checksum mismatch: file declares {}, payload hashes to {} \
                 (the file is corrupt or was edited)",
                hex(declared),
                hex(actual)
            ));
        }
        Ok(SnapshotFile {
            tenant,
            job,
            spec,
            shock_applied,
            engine,
        })
    }
}

/// Writes `contents` to `path` so that a crash or write error mid-file
/// never destroys the file already there: the bytes go to a fresh hidden
/// temporary file `.<name>.<pid>.<counter>.tmp` in the same directory,
/// are synced to disk, and only then renamed over `path`; the directory
/// is synced last so the rename itself is durable. The temporary file is
/// created exclusively, so no other file — another tenant's snapshot
/// included — is ever truncated, moved or removed. On an error before
/// the rename the temporary file is removed and `path` is left as it was.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("snapshot path `{}` names no file", path.display()),
        )
    })?;
    let (tmp, mut file) = loop {
        let mut tmp_name = std::ffi::OsString::from(".");
        tmp_name.push(name);
        tmp_name.push(format!(
            ".{}.{}.tmp",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = dir.join(tmp_name);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&tmp)
        {
            Ok(file) => break (tmp, file),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    };
    let result = file
        .write_all(contents)
        .and_then(|()| file.sync_all())
        .and_then(|()| std::fs::rename(&tmp, path))
        .and_then(|()| std::fs::File::open(dir)?.sync_all());
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{InitKind, TopologySpec};
    use pp_bench::EngineKind;

    fn sample() -> SnapshotFile {
        SnapshotFile {
            tenant: "alice".into(),
            job: "j1".into(),
            spec: JobSpec {
                weights: vec![1.0, 2.0],
                topology: TopologySpec::Cycle,
                n: 8,
                engine: EngineKind::Packed,
                seed: 42,
                steps: 1000,
                observe_every: 100,
                init: InitKind::Balanced,
                shock: None,
            },
            shock_applied: false,
            engine: EngineSnapshot {
                engine: "packed".into(),
                protocol: "diversification".into(),
                topology: "cycle".into(),
                n: 8,
                clock: 512,
                seed: 42,
                states: vec![0, 1, 2, 3, 0, 1, 2, 3],
                // Full-range u64s: the hex-string path must not lose bits.
                aux: vec![u64::MAX, 1, 0x8000_0000_0000_0001, 42],
            },
        }
    }

    #[test]
    fn render_parse_round_trips_bit_exactly() {
        let s = sample();
        let text = s.render();
        let back = SnapshotFile::parse(&text).unwrap();
        assert_eq!(s, back);
        assert!(text.contains("0xffffffffffffffff"), "aux rides as hex");
    }

    #[test]
    fn tampering_is_always_detected() {
        let text = sample().render();
        // Payload bit flip (a state value).
        let bad = text.replace("\"states\": [0,1,2", "\"states\": [0,1,3");
        assert!(SnapshotFile::parse(&bad).unwrap_err().contains("checksum"));
        // Identity edit.
        let bad = text.replace("\"tenant\": \"alice\"", "\"tenant\": \"mallory\"");
        assert!(SnapshotFile::parse(&bad).unwrap_err().contains("checksum"));
        // Shock-flag edit (would re-arm or skip a shock on resume).
        let bad = text.replace("\"shock_applied\": false", "\"shock_applied\": true");
        assert!(SnapshotFile::parse(&bad).unwrap_err().contains("checksum"));
        // Truncation at every suffix length must never parse successfully.
        // (Losing only the trailing newline leaves the document complete,
        // so truncate from the trimmed body.)
        let body = text.trim_end();
        for cut in 1..body.len().min(200) {
            let truncated = &body[..body.len() - cut];
            assert!(
                SnapshotFile::parse(truncated).is_err(),
                "accepted a file truncated by {cut} bytes"
            );
        }
        // Unknown fields are schema drift even with a plausible checksum.
        let bad = text.replace("\"schema_version\": 1,", "\"schema_version\": 1, \"v\": 2,");
        assert!(SnapshotFile::parse(&bad)
            .unwrap_err()
            .contains("unknown field"));
    }

    #[test]
    fn seed_above_2_53_survives_the_hex_path() {
        let mut s = sample();
        s.engine.seed = (1 << 53) + 1; // would round to 2^53 as an f64
        s.spec.seed = 7;
        let back = SnapshotFile::parse(&s.render()).unwrap();
        assert_eq!(back.engine.seed, (1 << 53) + 1);
        assert_eq!(back.engine.aux, s.engine.aux);
    }

    /// A fresh empty directory for one test.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pp_serve_atomic_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The sorted entry names of `dir`.
    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// Another tenant's snapshot whose name looks like a temporary file
    /// of `job.ppsnap`; no write to `job.ppsnap` may touch it.
    const OTHER: &str = "job.ppsnap.tmp";

    #[test]
    fn write_atomic_replaces_the_file_whole_and_leaves_no_temp() {
        let dir = scratch_dir("replace");
        let path = dir.join("job.ppsnap");
        std::fs::write(&path, "an older, longer snapshot body").unwrap();
        std::fs::write(dir.join(OTHER), "another snapshot").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new");
        assert_eq!(
            entries(&dir),
            ["job.ppsnap", OTHER],
            "temp file left behind"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join(OTHER)).unwrap(),
            "another snapshot"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_failed_rename_keeps_the_target_and_cleans_up() {
        // A non-empty directory cannot be replaced by a file: the rename
        // fails after the temp file was fully written and synced.
        let dir = scratch_dir("rename_fails");
        let path = dir.join("job.ppsnap");
        std::fs::create_dir(&path).unwrap();
        std::fs::write(path.join("keep"), "untouched").unwrap();
        std::fs::write(dir.join(OTHER), "another snapshot").unwrap();
        assert!(write_atomic(&path, b"new").is_err());
        assert_eq!(
            entries(&dir),
            ["job.ppsnap", OTHER],
            "temp file left behind"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join(OTHER)).unwrap(),
            "another snapshot"
        );
        assert_eq!(
            std::fs::read_to_string(path.join("keep")).unwrap(),
            "untouched"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
