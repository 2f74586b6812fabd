//! Output checks of one `kagen` invocation: every shard re-validated
//! against its manifest entry, the manifest total against the shard
//! sum, and a merged edge list for strict order and count.

use kagen_pipeline::{stream_shard_file, validate_shard, Manifest, ShardFormat};
use std::path::Path;

/// Re-validate every shard of `dir` with [`validate_shard`] (on
/// `threads` threads) and check the manifest's totals. Returns every
/// failure found.
pub fn shard_dir(dir: &Path, threads: usize) -> Vec<String> {
    let manifest = match Manifest::load(dir) {
        Ok(m) => m,
        Err(e) => return vec![format!("{}: manifest: {e}", dir.display())],
    };
    let mut errors = Vec::new();
    let Some(format) = ShardFormat::parse(&manifest.format) else {
        return vec![format!("unknown shard format '{}'", manifest.format)];
    };
    if manifest.shards.len() as u64 != manifest.chunks {
        errors.push(format!(
            "{} shards listed for {} chunks",
            manifest.shards.len(),
            manifest.chunks
        ));
    }
    let sum: u64 = manifest.shards.iter().map(|s| s.edges).sum();
    if sum != manifest.edges {
        errors.push(format!(
            "manifest total {} != shard sum {sum}",
            manifest.edges
        ));
    }
    let results = kagen_runtime::run_chunks(manifest.shards.len(), threads, |i| {
        validate_shard(dir, format, &manifest.shards[i]).err()
    });
    errors.extend(results.into_iter().flatten().map(|e| e.to_string()));
    errors
}

/// Decode a compressed merged edge list and check that it is strictly
/// increasing and holds exactly `expected` edges.
pub fn merged(path: &Path, expected: u64) -> Vec<String> {
    let mut count = 0u64;
    let mut prev: Option<(u64, u64)> = None;
    let mut disorder = 0u64;
    let read = stream_shard_file(path, ShardFormat::Compressed, &mut |u, v| {
        if prev.is_some_and(|p| p >= (u, v)) {
            disorder += 1;
        }
        prev = Some((u, v));
        count += 1;
    });
    let mut errors = Vec::new();
    if let Err(e) = read {
        errors.push(format!("{}: {e}", path.display()));
    }
    if disorder > 0 {
        errors.push(format!(
            "merged output: {disorder} edges not strictly increasing"
        ));
    }
    if count != expected {
        errors.push(format!("merged output: {count} edges, {expected} expected"));
    }
    errors
}
