//! `exec`: run one program and measure it from a small parent.
//!
//! A child's peak RSS (`ru_maxrss`) starts at its parent's footprint,
//! because the child begins life as a copy of it. Spawning `kagen` from
//! this lean process instead of the Python driver keeps the driver's
//! memory out of `peak_rss_mb`; only this process's own small footprint
//! remains as a floor. CPU time and peak RSS come from
//! `getrusage(RUSAGE_CHILDREN)`, which covers the program and every
//! descendant it waited for (the launch workers).

use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("`exec` reads `struct rusage` with the LP64 Linux layout");

const RUSAGE_CHILDREN: i32 = -1;

/// `struct rusage` on LP64 Linux: two `timeval`s then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn secs(tv: [i64; 2]) -> f64 {
    tv[0] as f64 + tv[1] as f64 * 1e-6
}

pub fn run(argv: &[String]) {
    let start = Instant::now();
    // The program's stdout is dropped: this process's stdout carries
    // only the JSON report.
    let status = Command::new(&argv[0])
        .args(&argv[1..])
        .stdout(Stdio::null())
        .status();
    let wall = start.elapsed().as_secs_f64();
    let code = match status {
        Ok(s) => s.code().unwrap_or(-1),
        Err(e) => {
            eprintln!("perfbench-layers exec: cannot run {}: {e}", argv[0]);
            -1
        }
    };
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value with the kernel's
    // `struct rusage` layout for this target; getrusage only writes it.
    let ok = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) } == 0;
    if !ok {
        eprintln!("perfbench-layers exec: getrusage failed");
    }
    println!(
        "{{\"code\": {code}, \"wall_s\": {wall:e}, \"cpu_s\": {:e}, \"maxrss_kb\": {}}}",
        secs(ru.utime) + secs(ru.stime),
        ru.maxrss_kb
    );
}
