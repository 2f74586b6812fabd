//! `perfbench-layers` — the compiled half of the end-to-end benchmark
//! (`perfbench/run.py` drives it; see `perfbench/README.md`).
//!
//! ```text
//! perfbench-layers check --dir <shard-dir> [--merged <file> --merged-edges <m>]
//! perfbench-layers trace --cli-dir <shard-dir> --work <dir> --kagen <exe>
//!                        [--cli-merged <file>]
//! perfbench-layers exec -- <program> [args...]
//! perfbench-layers l2
//! ```
//!
//! Each prints one JSON object on stdout. `check` lists the failed
//! output checks under `errors` and exits 1 if there are any. `trace`
//! prints the layer metrics plus its recomposition failures. `exec`
//! reports the program's exit code, wall time and resource usage. `l2`
//! reports the L2 size that sizes the auto R-MAT levels.

mod check;
mod exec;
mod instance;
mod layers;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Threads of every per-PE pass and check: the workloads' parallelism.
const THREADS: usize = 2;

fn usage() -> ! {
    eprintln!("usage: perfbench-layers check|trace --key value ... | exec -- <program> ... | l2");
    std::process::exit(2);
}

/// `--key value` pairs after the subcommand.
fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let (Some(key), Some(v)) = (k.strip_prefix("--"), it.next()) else {
            usage();
        };
        flags.insert(key.to_string(), v.clone());
    }
    flags
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_errors(errors: &[String]) -> String {
    let items: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    if cmd == "exec" && args.get(1).map(String::as_str) == Some("--") && args.len() > 2 {
        exec::run(&args[2..]);
        return;
    }
    if cmd == "l2" && args.len() == 1 {
        println!("{{\"l2_bytes\": {}}}", kagen_util::cache::l2_cache_bytes());
        return;
    }
    let flags = parse_flags(&args[1..]);
    let path = |key: &str| flags.get(key).map(PathBuf::from);
    let require = |key: &str| path(key).unwrap_or_else(|| usage());
    match cmd.as_str() {
        "check" => {
            let dir = require("dir");
            let mut errors = check::shard_dir(&dir, THREADS);
            if let Some(merged) = path("merged") {
                let expected = flags
                    .get("merged-edges")
                    .and_then(|m| m.parse().ok())
                    .unwrap_or_else(|| usage());
                errors.extend(check::merged(&merged, expected));
            }
            println!("{{\"errors\": {}}}", json_errors(&errors));
            if !errors.is_empty() {
                std::process::exit(1);
            }
        }
        "trace" => {
            let paths = layers::Paths {
                cli_dir: require("cli-dir"),
                cli_merged: path("cli-merged"),
                work: require("work"),
                kagen: require("kagen"),
            };
            let report = kagen_pipeline::Manifest::load(&paths.cli_dir)
                .map_err(|e| e.to_string())
                .and_then(instance::Instance::from_manifest)
                .and_then(|inst| layers::run(&inst, &paths, THREADS));
            let report = report.unwrap_or_else(|e| {
                eprintln!("perfbench-layers trace: {e}");
                std::process::exit(1);
            });
            let metrics: Vec<String> = report
                .metrics
                .iter()
                .map(|(k, v)| format!("{}: {v:e}", json_str(k)))
                .collect();
            println!(
                "{{\"metrics\": {{{}}}, \"errors\": {}}}",
                metrics.join(", "),
                json_errors(&report.errors)
            );
        }
        _ => usage(),
    }
}
