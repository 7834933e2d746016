//! `stj preprocess --extent 0 0 1000 1000 --order 16` as a process of
//! its own, the way a user runs it: read the WKT file, build the APRIL
//! approximations at the default interval budget, write STJD v2. Its own
//! process keeps its peak memory, and the allocator state it leaves
//! behind, out of the process that joins or serves.

use crate::trace::Tracer;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};
use stj_core::Dataset;
use stj_store::{read_wkt_polygons, write_arena_v2};

/// First argument that turns the benchmark executable into a
/// preprocessing process.
pub const CHILD_COMMAND: &str = "preprocess-child";

/// What one preprocessing process did.
#[derive(Clone, Copy, Debug)]
pub struct Preprocessed {
    pub peak_rss_mib: f64,
    /// Size of the written file.
    pub bytes: u64,
}

/// The preprocessing process: `--wkt IN --out OUT --name NAME --order N`.
/// Prints its phase times and peak memory as one line.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let usage = || format!("usage: {CHILD_COMMAND} --wkt IN --out OUT --name NAME --order N");
    let [_, wkt, _, out, _, name, _, order] = args else {
        return Err(usage());
    };
    let order: u32 = order.parse().map_err(|_| usage())?;
    let grid = crate::join::grid(order);

    let t = Instant::now();
    let file = std::fs::File::open(wkt).map_err(|e| format!("{wkt}: {e}"))?;
    let polygons = read_wkt_polygons(BufReader::new(file)).map_err(|e| format!("{wkt}: {e}"))?;
    let parse = t.elapsed();

    let t = Instant::now();
    let ds = Dataset::build_parallel(name.as_str(), polygons, &grid, crate::join::threads());
    let build = t.elapsed();

    let t = Instant::now();
    let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
    let mut w = BufWriter::new(file);
    write_arena_v2(&mut w, &ds.to_arena(), &grid).map_err(|e| format!("{out}: {e}"))?;
    w.flush().map_err(|e| format!("{out}: {e}"))?;
    let write = t.elapsed();

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "{} {} {} {}",
        ms(parse),
        ms(build),
        ms(write),
        crate::stats::peak_rss_mib("self")?
    );
    Ok(())
}

/// Runs one preprocessing process of `wkt` into `out`, recording it as a
/// `preprocess` span with its three phases as child spans.
pub fn run(
    exe: &Path,
    wkt: &Path,
    out: &Path,
    name: &str,
    order: u32,
    tr: &mut Tracer,
) -> Result<Preprocessed, String> {
    let span = tr.begin("preprocess");
    let result = Command::new(exe)
        .arg(CHILD_COMMAND)
        .arg("--wkt")
        .arg(wkt)
        .arg("--out")
        .arg(out)
        .arg("--name")
        .arg(name)
        .arg("--order")
        .arg(order.to_string())
        .output()
        .map_err(|e| format!("spawn preprocess: {e}"))?;
    let end = Instant::now();
    if !result.status.success() {
        return Err(format!(
            "preprocess {name} failed: {}",
            String::from_utf8_lossy(&result.stderr)
        ));
    }
    let line = String::from_utf8_lossy(&result.stdout);
    let v: Vec<f64> = line
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| format!("preprocess {name} printed {line:?}"))?;
    let [parse_ms, build_ms, write_ms, peak_rss_mib] = v[..] else {
        return Err(format!("preprocess {name} printed {line:?}"));
    };
    // The phases ran back to back just before the process exited.
    let before = |t: Instant, ms: f64| {
        t.checked_sub(Duration::from_secs_f64(ms / 1e3))
            .unwrap_or(t)
    };
    let write_start = before(end, write_ms);
    let build_start = before(write_start, build_ms);
    tr.record(
        "store.wkt_parse",
        before(build_start, parse_ms),
        build_start,
    );
    tr.record("raster.build", build_start, write_start);
    tr.record("store.write", write_start, end);
    tr.end(span);
    let bytes = std::fs::metadata(out)
        .map_err(|e| format!("{}: {e}", out.display()))?
        .len();
    Ok(Preprocessed {
        peak_rss_mib,
        bytes,
    })
}

/// Writes `path` back to disk, off the clock, so that the kernel's
/// write-back of one set-up does not run into the next one or into the
/// timed operations.
pub fn sync(path: &Path) -> Result<(), String> {
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("sync {}: {e}", path.display()))
}
