//! The traced run: the instance the CLI just generated, re-driven
//! through each layer's public functions. Every span lives here, around
//! calls into the library — the program itself carries no extra tracing.
//! Each pass also checks that it recomposes the CLI's bytes.

use crate::instance::Instance;
use kagen_cluster::{
    launch, LaunchOptions, ProcessRunner, RankTask, RankTelemetry, ValidateMode, WorkerRunner,
};
use kagen_core::streaming::{StreamingGenerator, BATCH_EDGES};
use kagen_geometry::CountTree;
use kagen_pipeline::{
    shard_file_name, validate_shard, write_shard, CompressedSink, EdgeSink, ExternalMerge,
    ShardFormat, ShardInfo, ShardReader,
};
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Named per-layer values plus every recomposition failure.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<(String, f64)>,
    pub errors: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    fn fail(&mut self, what: String) {
        self.errors.push(what);
    }
}

/// Where the traced run reads the CLI's output and writes its own.
#[derive(Debug)]
pub struct Paths {
    pub cli_dir: PathBuf,
    pub cli_merged: Option<PathBuf>,
    pub work: PathBuf,
    pub kagen: PathBuf,
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run every layer pass; `threads` is the workload's parallelism.
pub fn run(inst: &Instance, paths: &Paths, threads: usize) -> Result<Report, String> {
    let gen = inst.generator()?;
    let gen = gen.as_ref();
    let mut r = Report::default();
    std::fs::create_dir_all(&paths.work).map_err(|e| e.to_string())?;

    let gen_s = gen_pass(gen, threads, &mut r);
    descent_probe(inst, &mut r);
    let (encode_s, bytes) = encode_pass(gen, inst, paths, threads, &mut r)?;
    // The writer's own time: what `write_shard` spends beyond the
    // generation and encoding it wraps.
    let wrapped = gen_s + encode_s;
    runtime_pass(gen, inst, paths, threads, wrapped, bytes, &mut r).map_err(|e| e.to_string())?;
    decode_pass(inst, paths, &mut r);
    merge_pass(inst, paths, threads, &mut r).map_err(|e| e.to_string())?;
    cluster_pass(inst, paths, threads, &mut r).map_err(|e| e.to_string())?;
    Ok(r)
}

/// `core`: `stream_pe_batched` per PE into a discarding consumer.
/// Returns the busy time summed over PEs.
fn gen_pass(gen: &dyn StreamingGenerator, threads: usize, r: &mut Report) -> f64 {
    let per_pe = kagen_runtime::run_chunks(gen.num_chunks(), threads, |pe| {
        let mut buf = Vec::with_capacity(BATCH_EDGES);
        let (mut edges, mut batches) = (0u64, 0u64);
        let t = Instant::now();
        gen.stream_pe_batched(pe, &mut buf, &mut |batch| {
            edges += batch.len() as u64;
            batches += 1;
            std::hint::black_box(batch);
        });
        (t.elapsed().as_secs_f64(), edges, batches)
    });
    let mut secs: Vec<f64> = per_pe.iter().map(|p| p.0).collect();
    secs.sort_by(f64::total_cmp);
    let busy: f64 = secs.iter().sum();
    let edges: u64 = per_pe.iter().map(|p| p.1).sum();
    r.put("gen.busy_s", busy);
    r.put("gen.meps", ratio(edges as f64, busy) / 1e6);
    r.put("gen.pe_s.p50", quantile(&secs, 0.5));
    r.put("gen.pe_s.p80", quantile(&secs, 0.8));
    r.put(
        "gen.batches",
        per_pe.iter().map(|p| p.2).sum::<u64>() as f64,
    );
    busy
}

/// `geometry`: one `leaf_count` + `prefix_before` pair per leaf. Leaves
/// advance by a fixed odd stride, which visits every leaf of the
/// power-of-two tree before repeating one.
fn descent_probe(inst: &Instance, r: &mut Report) {
    let depth = inst.tree_depth();
    let tree = CountTree::<2>::new(inst.manifest.seed, inst.n(), depth);
    let leaves = tree.num_leaves();
    const BUDGET: Duration = Duration::from_millis(100);
    let (mut pairs, mut leaf) = (0u64, 0u64);
    let t = Instant::now();
    while pairs < 1000 || t.elapsed() < BUDGET {
        leaf = (leaf + 0x9E37_79B9_7F4A_7C15 % leaves) % leaves;
        std::hint::black_box(tree.leaf_count(leaf));
        std::hint::black_box(tree.prefix_before(leaf));
        pairs += 1;
    }
    r.put(
        "geo.descent_us",
        t.elapsed().as_secs_f64() * 1e6 / pairs as f64,
    );
}

/// `graph::io` + `pipeline::sink`: encode into memory per PE, each
/// PE's bytes compared to the CLI's shard. Generation runs untimed in
/// between; the obs registry is on for this pass only, to read the
/// geometry recompute counters. Returns the encode time summed over
/// PEs and the encoded bytes.
fn encode_pass(
    gen: &dyn StreamingGenerator,
    inst: &Instance,
    paths: &Paths,
    threads: usize,
    r: &mut Report,
) -> Result<(f64, usize), String> {
    kagen_obs::metrics::reset();
    kagen_obs::metrics::set_enabled(true);
    let per_pe = kagen_runtime::run_chunks(gen.num_chunks(), threads, |pe| -> io::Result<_> {
        let cli_shard = std::fs::read(
            paths
                .cli_dir
                .join(shard_file_name(pe, ShardFormat::Compressed)),
        )?;
        // Room for the whole shard, so that growing the buffer is not
        // charged to the encoder.
        let mut bytes = Vec::with_capacity(cli_shard.len());
        let mut buf = Vec::with_capacity(BATCH_EDGES);
        let mut encode = Duration::ZERO;
        let edges = {
            let t = Instant::now();
            let mut sink = CompressedSink::new(&mut bytes, gen.num_vertices())?;
            encode += t.elapsed();
            gen.stream_pe_batched(pe, &mut buf, &mut |batch| {
                let t = Instant::now();
                sink.push_batch(batch);
                encode += t.elapsed();
            });
            let t = Instant::now();
            let edges = sink.finish()?;
            encode += t.elapsed();
            edges
        };
        Ok((encode.as_secs_f64(), bytes.len(), edges, cli_shard == bytes))
    });
    kagen_obs::metrics::set_enabled(false);
    let (mut encode, mut bytes, mut edges) = (0.0, 0usize, 0u64);
    for (pe, res) in per_pe.into_iter().enumerate() {
        let (e, b, m, same) = res.map_err(|e| e.to_string())?;
        (encode, bytes, edges) = (encode + e, bytes + b, edges + m);
        if !same {
            r.fail(format!(
                "traced encode of PE {pe} differs from the CLI shard"
            ));
        }
    }
    if edges != inst.manifest.edges {
        r.fail(format!(
            "traced encode produced {edges} edges, manifest has {}",
            inst.manifest.edges
        ));
    }
    let scalars = kagen_obs::metrics::scalars();
    let scalar = |name: &str| {
        scalars
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    r.put(
        "geo.recompute_ratio",
        ratio(scalar("geo.cells_generated"), scalar("geo.cursor_cells")),
    );
    r.put("encode.busy_s", encode);
    r.put("encode.meps", ratio(edges as f64, encode) / 1e6);
    r.put("encode.bytes_per_edge", ratio(bytes as f64, edges as f64));
    Ok((encode, bytes))
}

/// `pipeline::writer` and `runtime`: the sharded writer's loop —
/// `run_chunks` over `write_shard` — timed per PE and as a whole, then
/// federated. Every shard it writes must equal the CLI's byte for byte,
/// and the manifest the CLI's. The writer's time (`write.*`) is the
/// summed `write_shard` time less `wrapped_s`, the generation and
/// encoding inside it as the earlier passes timed them: the checksum
/// fold, the buffered file writes and the file's open and close.
fn runtime_pass(
    gen: &dyn StreamingGenerator,
    inst: &Instance,
    paths: &Paths,
    threads: usize,
    wrapped_s: f64,
    bytes: usize,
    r: &mut Report,
) -> io::Result<()> {
    let dir = paths.work.join("sharded");
    std::fs::create_dir_all(&dir)?;
    let t = Instant::now();
    let per_pe = kagen_runtime::run_chunks(gen.num_chunks(), threads, |pe| {
        let t = Instant::now();
        let info = write_shard(gen, pe, &dir, ShardFormat::Compressed);
        (info, t.elapsed().as_secs_f64())
    });
    let mut shards = Vec::with_capacity(per_pe.len());
    let mut busy = 0.0;
    for (info, secs) in per_pe {
        shards.push(info?);
        busy += secs;
    }
    let manifest = inst
        .manifest
        .header()
        .federate(shards)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    manifest.save(&dir)?;
    let wall = t.elapsed().as_secs_f64();
    if manifest != inst.manifest {
        r.fail("traced write_shard manifest differs from the CLI manifest".into());
    }
    for shard in &manifest.shards {
        if std::fs::read(dir.join(&shard.file))? != std::fs::read(paths.cli_dir.join(&shard.file))?
        {
            r.fail(format!(
                "traced write_shard {} differs from the CLI shard",
                shard.file
            ));
        }
    }
    let write = (busy - wrapped_s).max(0.0);
    r.put("write.busy_s", write);
    r.put("write.mb_s", ratio(bytes as f64, write) / (1 << 20) as f64);
    r.put("runtime.utilization", ratio(busy, threads as f64 * wall));
    r.put("runtime.wall_s", wall);
    std::fs::remove_dir_all(&dir)
}

/// `pipeline::reader`: one full `validate_shard` per CLI shard.
fn decode_pass(inst: &Instance, paths: &Paths, r: &mut Report) {
    let mut busy = 0.0;
    for info in &inst.manifest.shards {
        let t = Instant::now();
        let res = validate_shard(&paths.cli_dir, ShardFormat::Compressed, info);
        busy += t.elapsed().as_secs_f64();
        if let Err(e) = res {
            r.fail(format!("validate_shard: {e}"));
        }
    }
    r.put("decode.busy_s", busy);
    r.put("decode.meps", ratio(inst.manifest.edges as f64, busy) / 1e6);
}

/// The merge's output sink: the CLI's compressed writer, plus the time
/// spent inside it, the first batch's arrival, and an order check
/// (timed apart so it is charged to no layer).
struct TimedSink<S: EdgeSink> {
    inner: S,
    first: Option<Instant>,
    sink: Duration,
    check: Duration,
    count: u64,
    prev: Option<(u64, u64)>,
    strict: bool,
    disorder: u64,
}

impl<S: EdgeSink> EdgeSink for TimedSink<S> {
    fn accept(&mut self, u: u64, v: u64) {
        self.push_batch(&[(u, v)]);
    }

    fn push_batch(&mut self, edges: &[(u64, u64)]) {
        let t = Instant::now();
        self.first.get_or_insert(t);
        self.inner.push_batch(edges);
        let t2 = Instant::now();
        for &e in edges {
            // Undirected merges dedup, so their output is strictly
            // increasing; directed multi-edges (R-MAT) stay adjacent.
            if self.prev.is_some_and(|p| p > e || (self.strict && p == e)) {
                self.disorder += 1;
            }
            self.prev = Some(e);
        }
        self.count += edges.len() as u64;
        self.sink += t2 - t;
        self.check += t2.elapsed();
    }

    fn finish(&mut self) -> io::Result<u64> {
        let t = Instant::now();
        let res = self.inner.finish();
        self.sink += t.elapsed();
        res
    }
}

/// `pipeline::merge`: `ExternalMerge::merge` over the CLI's shards with
/// the CLI's budget, into a compressed file like `--merge external`.
fn merge_pass(inst: &Instance, paths: &Paths, threads: usize, r: &mut Report) -> io::Result<()> {
    let out = paths.work.join("merged.kgc");
    let reader = ShardReader::open(&paths.cli_dir)?;
    let file = BufWriter::new(File::create(&out)?);
    let mut sink = TimedSink {
        inner: CompressedSink::new(file, inst.n())?,
        first: None,
        sink: Duration::ZERO,
        check: Duration::ZERO,
        count: 0,
        prev: None,
        strict: !inst.manifest.directed,
        disorder: 0,
    };
    let merger = ExternalMerge::new(paths.work.join("runs"), 1 << 22).with_threads(threads);
    let t = Instant::now();
    let stats = merger.merge(&reader, &mut sink)?;
    let done = Instant::now();
    sink.finish()?;
    let first = sink.first.unwrap_or(done);
    let kmerge = (done - first).saturating_sub(sink.sink + sink.check);
    r.put("merge.runform_s", (first - t).as_secs_f64());
    r.put("merge.kmerge_s", kmerge.as_secs_f64());
    r.put("merge.sink_s", sink.sink.as_secs_f64());
    r.put("merge.runs", stats.runs as f64);
    r.put("merge.passes", stats.merge_passes as f64);
    r.put(
        "merge.dedup_ratio",
        ratio(stats.edges_out as f64, stats.edges_in as f64),
    );
    if sink.count != stats.edges_out || stats.edges_in != inst.manifest.edges {
        r.fail(format!(
            "merge: {} edges in / {} out per MergeStats, {} shard edges, {} received",
            stats.edges_in, stats.edges_out, inst.manifest.edges, sink.count
        ));
    }
    if sink.disorder > 0 {
        r.fail(format!("merge: {} edges out of order", sink.disorder));
    }
    if let Some(cli) = &paths.cli_merged {
        if std::fs::read(cli)? != std::fs::read(&out)? {
            r.fail("traced merge output differs from the CLI's merged file".into());
        }
    }
    std::fs::remove_file(&out)
}

/// A [`ProcessRunner`] whose every attempt is timed.
#[derive(Debug)]
struct TimedRunner {
    inner: ProcessRunner,
    attempts: Mutex<Vec<(Instant, Instant)>>,
}

impl WorkerRunner for TimedRunner {
    fn run(&self, task: &RankTask) -> io::Result<Vec<ShardInfo>> {
        let t = Instant::now();
        let res = self.inner.run(task);
        self.attempts
            .lock()
            .expect("a supervisor panicked while timing a rank")
            .push((t, Instant::now()));
        res
    }

    fn take_telemetry(&self, task: &RankTask) -> RankTelemetry {
        self.inner.take_telemetry(task)
    }
}

/// `cluster::launch` with the CLI's defaults (`--validate full`, one
/// thread per worker) and `workers` worker processes.
fn cluster_pass(inst: &Instance, paths: &Paths, workers: usize, r: &mut Report) -> io::Result<()> {
    let dir = paths.work.join("launch");
    let runner = TimedRunner {
        inner: ProcessRunner {
            exe: paths.kagen.clone(),
            worker_args: inst.worker_args(&dir.to_string_lossy()),
            dir: dir.clone(),
            stall_timeout: None,
        },
        attempts: Mutex::new(Vec::new()),
    };
    let opts = LaunchOptions {
        workers,
        validate: ValidateMode::Full,
        ..Default::default()
    };
    let header = inst.manifest.header();
    let t = Instant::now();
    let report = launch(&dir, &header, &opts, &runner)?;
    let done = Instant::now();
    if report.manifest != inst.manifest {
        r.fail("traced launch manifest differs from the CLI manifest".into());
    }
    let attempts = runner
        .attempts
        .into_inner()
        .expect("a supervisor panicked while timing a rank");
    let first = attempts.iter().map(|a| a.0).min().unwrap_or(done);
    let last = attempts.iter().map(|a| a.1).max().unwrap_or(done);
    let ranks: Vec<f64> = attempts.iter().map(|a| (a.1 - a.0).as_secs_f64()).collect();
    let rank_sum: f64 = ranks.iter().sum();
    r.put("cluster.prepare_s", (first - t).as_secs_f64());
    r.put(
        "cluster.rank_s.max",
        ranks.iter().copied().fold(0.0, f64::max),
    );
    r.put("cluster.rank_s.mean", ratio(rank_sum, ranks.len() as f64));
    r.put(
        "cluster.concurrency",
        ratio(rank_sum, (last - first).as_secs_f64()),
    );
    r.put("cluster.post_s", (done - last).as_secs_f64());
    r.put("cluster.attempts", attempts.len() as f64);
    r.put("cluster.wall_s", (done - t).as_secs_f64());
    std::fs::remove_dir_all(&dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert!((quantile(&s, 0.8) - 4.2).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
