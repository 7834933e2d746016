//! The `serve-relate` workload: `stj serve` with default settings holds
//! the OBE buildings resident; an open-loop generator sends TZ zip codes
//! to `POST /v1/relate` on a fixed schedule over two keep-alive
//! connections, and every response is checked against the ST2 oracle.
//!
//! The server is this benchmark's own executable re-run as a child
//! process ([`CHILD_COMMAND`]) that starts `stj_serve` exactly as
//! `stj serve --data FILE --addr 127.0.0.1:0` does, so the process that
//! does the work is measured on its own.

use crate::join::{self, m, PassCounts, Side};
use crate::preprocess::{self, Preprocessed};
use crate::stats::{median, peak_rss_mib, quantile};
use crate::trace::Tracer;
use crate::{inputs, Args, Report, Size, SETUP_REPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};
use stj_core::{find_relation_st2, DatasetArena, SpatialObject, DEFAULT_MAX_INTERVALS};
use stj_de9im::TopoRelation;
use stj_geom::Polygon;
use stj_index::Tiling;
use stj_obs::Json;
use stj_raster::{AprilApprox, Grid};
use stj_serve::{LoadedDataset, ServeConfig, ServeCtx, Server};
use stj_store::read_wkt_polygons;

/// First argument that turns the benchmark executable into the server.
pub const CHILD_COMMAND: &str = "serve-child";

/// Client connections (and client threads): at most one per core of
/// the two-core machine the benchmark targets.
const CONNECTIONS: usize = 2;

/// Share of requests that repeat an earlier probe: about half, kept off
/// one half so that the median falls clear of the step between cache
/// hits and misses.
const REPEAT_SHARE: f64 = 0.45;

/// The fixed request rate at which `op_ms_p50` and `op_ms_tail` are
/// measured: a small share of the rate the server sustains on the
/// two-core machine the benchmark targets, so that the latencies are
/// service times more than waits behind other requests.
pub const NOMINAL_RPS: f64 = 100.0;

/// The quantile `op_ms_tail` reports. Requests take a few milliseconds,
/// so on a shared two-core machine a scheduling stall of that order
/// moves the p99: across ten seeds its interquartile range was a third
/// of its median, wider than any bound `BENCHMARK.json` may set. The
/// p99 stays in the traced run as `serve.relate_ms_p99`.
const TAIL_QUANTILE: f64 = 0.95;

/// The ladder `serve.max_rps` is read from: 25 req/s up to 3200 req/s
/// in steps of 2^(1/8).
fn ladder() -> Vec<f64> {
    (0..=56)
        .map(|k| 25.0 * 2f64.powf(f64::from(k) / 8.0))
        .collect()
}

/// A rung passes only if its p99 latency stays within this limit, which
/// sits well above the slowest probes' own service time so that it
/// trips on queueing.
pub const P99_LIMIT_MS: f64 = 250.0;

/// ... and the generator's mean lag over the rung's last quarter of
/// sends exceeds that over its first quarter by no more than this (a
/// growing backlog blocks the generator's writes).
const LAG_GROWTH_LIMIT_MS: f64 = 2.0;

const TARGET: &str = "/v1/relate?dataset=OBE";

/// The server child: load the dataset and serve until killed.
pub fn child_main(args: &[String]) -> Result<(), String> {
    let [flag, path] = args else {
        return Err(format!("usage: {CHILD_COMMAND} --data FILE.stjd"));
    };
    if flag != "--data" {
        return Err(format!("usage: {CHILD_COMMAND} --data FILE.stjd"));
    }
    let datasets = stj_serve::load_datasets(&[path])?;
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let server = Server::bind(ServeCtx::new(cfg, datasets)).map_err(|e| format!("bind: {e}"))?;
    server
        .ctx()
        .generations
        .set_paths(vec![PathBuf::from(path)]);
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.run().map_err(|e| format!("serve: {e}"))
}

/// A running server child; killed and reaped on drop.
struct ServerProc {
    child: Child,
    addr: String,
    /// Held open so the child's stdout never breaks.
    _stdout: Option<BufReader<ChildStdout>>,
}

impl ServerProc {
    /// Starts the server on `path` and waits until `/healthz` answers.
    fn start(exe: &Path, path: &Path) -> Result<ServerProc, String> {
        let child = Command::new(exe)
            .arg(CHILD_COMMAND)
            .arg("--data")
            .arg(path)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut proc = ServerProc {
            child,
            addr: String::new(),
            _stdout: None,
        };
        let mut stdout = BufReader::new(proc.child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("read server address: {e}"))?;
        proc._stdout = Some(stdout);
        proc.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("server did not start: {line:?}"))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok((200, _)) = request(&proc.addr, "GET", "/healthz", b"") {
                return Ok(proc);
            }
            if Instant::now() > deadline {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(&self.child.id().to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn render_request(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "{method} {target} HTTP/1.1\r\nhost: bench\r\ncontent-type: text/plain\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Splits one complete HTTP response off the front of `buf`: its
/// status, body and length. `Ok(None)` until the response is whole.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, Vec<u8>, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| format!("no content-length in {head:?}"))?;
    let total = head_end + 4 + len;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((status, buf[head_end + 4..total].to_vec(), total)))
}

/// One request on a fresh connection, for control traffic.
fn request(addr: &str, method: &str, target: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    s.write_all(&render_request(method, target, body))
        .map_err(|e| format!("send {target}: {e}"))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some((status, body, _)) = parse_response(&buf)? {
            return Ok((status, body));
        }
        match s.read(&mut chunk) {
            Ok(0) => return Err(format!("{target}: connection closed mid-response")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("{target}: {e}")),
        }
    }
}

fn stats_doc(addr: &str) -> Result<Json, String> {
    let (status, body) = request(addr, "GET", "/stats", b"")?;
    if status != 200 {
        return Err(format!("/stats answered {status}"));
    }
    Json::parse(&String::from_utf8_lossy(&body))
}

/// Empties the probe cache: a reload swaps in a fresh generation, so
/// each phase starts cold.
fn reload(addr: &str) -> Result<(), String> {
    match request(addr, "POST", "/v1/admin/reload", b"")? {
        (200, _) => Ok(()),
        (status, body) => Err(format!(
            "reload answered {status}: {}",
            String::from_utf8_lossy(&body)
        )),
    }
}

/// What happened to one scheduled request.
#[derive(Clone, Debug, Default)]
struct Sample {
    /// Index into the probe pool.
    probe: usize,
    due: Duration,
    sent: Option<Duration>,
    done: Option<Duration>,
    status: u16,
    body: Vec<u8>,
}

/// Waits until `stream` has bytes to read or `timeout` passes; true if
/// readable. `ppoll` sleeps on a high-resolution timer: a socket read
/// timeout is rounded to scheduler ticks, which would skew every send
/// by milliseconds.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: std::os::fd::AsRawFd::as_raw_fd(stream),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out `pollfd` and
    // `timespec` values for the whole call, `nfds` is 1 to match the one
    // descriptor, and a null signal mask leaves the mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        return if e.kind() == std::io::ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(n > 0)
}

/// Drives one connection through its share of the schedule: sends each
/// request when it falls due, whether or not earlier ones were
/// answered, and reads responses as they arrive (HTTP/1.1 pipelining,
/// answered in order). A request that gets no answer within `grace`
/// after the last one fell due stays unanswered.
fn drive(
    addr: &str,
    bodies: &[Vec<u8>],
    mut samples: Vec<Sample>,
    start: Instant,
    grace: Duration,
) -> Vec<Sample> {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return samples;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(grace));
    let give_up = start + samples.last().map_or(Duration::ZERO, |s| s.due) + grace;
    let mut pending = std::collections::VecDeque::new();
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0;
    loop {
        let now = Instant::now();
        let wait = match samples.get(next) {
            Some(s) if start + s.due <= now => {
                let req = render_request("POST", TARGET, &bodies[s.probe]);
                if stream.write_all(&req).is_err() {
                    return samples;
                }
                samples[next].sent = Some(now - start);
                pending.push_back(next);
                next += 1;
                continue;
            }
            Some(s) => start + s.due - now,
            None if pending.is_empty() || now >= give_up => return samples,
            None => give_up - now,
        };
        match wait_readable(&stream, wait) {
            Ok(false) => continue,
            Ok(true) => {}
            Err(_) => return samples,
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return samples,
            Ok(n) => {
                let at = Instant::now() - start;
                buf.extend_from_slice(&chunk[..n]);
                while let Ok(Some((status, body, used))) = parse_response(&buf) {
                    buf.drain(..used);
                    let Some(i) = pending.pop_front() else {
                        return samples;
                    };
                    samples[i].done = Some(at);
                    samples[i].status = status;
                    samples[i].body = body;
                }
            }
        }
    }
}

/// The probe workload: a pool of zip-code WKT bodies and a seeded
/// request sequence over it.
struct Probes {
    bodies: Vec<Vec<u8>>,
    polygons: Vec<Polygon>,
    /// Pool indexes, in request order; about [`REPEAT_SHARE`] of them
    /// repeat an earlier one.
    sequence: Vec<usize>,
}

impl Probes {
    fn new(scale: f64, len: usize, seed: u64) -> Probes {
        // Enough zip codes that no request repeats a probe other than
        // by the draw below; the first are those of the seed's own
        // coverage.
        let pool = inputs::zip_pool(scale, seed, len);
        let bodies: Vec<Vec<u8>> = pool
            .iter()
            .map(|p| stj_geom::wkt::polygon_to_wkt(p).into_bytes())
            .collect();
        // What the server parses is what the oracle relates.
        let polygons = bodies
            .iter()
            .map(|b| {
                read_wkt_polygons(&b[..])
                    .expect("generated WKT parses")
                    .remove(0)
            })
            .collect();
        // New probes are taken in pool order; a repeat picks any probe
        // sent before.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5052_4F42_4553);
        let mut repeats = inputs::Stratified::default();
        let mut sent = 0;
        let mut sequence = Vec::with_capacity(len);
        for _ in 0..len {
            let repeat = repeats.bool(&mut rng, REPEAT_SHARE) && sent > 0 || sent == pool.len();
            if repeat {
                sequence.push(rng.gen_range(0..sent));
            } else {
                sequence.push(sent);
                sent += 1;
            }
        }
        Probes {
            bodies,
            polygons,
            sequence,
        }
    }

    /// The schedule of `n` requests at `rate` per second, split over the
    /// connections round-robin.
    fn schedule(&self, rate: f64, n: usize) -> Vec<Vec<Sample>> {
        let mut per_conn = vec![Vec::new(); CONNECTIONS];
        for (k, &probe) in self.sequence[..n].iter().enumerate() {
            per_conn[k % CONNECTIONS].push(Sample {
                probe,
                due: Duration::from_secs_f64(k as f64 / rate),
                ..Sample::default()
            });
        }
        per_conn
    }
}

/// The oracle's answer for each pool probe: ST2 against every object of
/// the arena whose MBR meets the probe's, as sorted `(id, relation)`.
fn probe_oracle(
    polygons: &[Polygon],
    used: &BTreeSet<usize>,
    arena: &DatasetArena,
) -> Vec<Vec<(u32, TopoRelation)>> {
    let mut out = vec![Vec::new(); polygons.len()];
    for &p in used {
        let probe = SpatialObject::from_parts(polygons[p].clone(), AprilApprox::empty());
        let view = probe.view();
        for (id, mbr) in arena.mbrs().iter().enumerate() {
            if !view.mbr.intersects(mbr) {
                continue;
            }
            let rel = find_relation_st2(view, arena.object(id)).relation;
            if rel != TopoRelation::Disjoint {
                out[p].push((id as u32, rel));
            }
        }
    }
    out
}

/// A response's `(id, relation)` matches, sorted, unless the response
/// is unusable or truncated.
fn parse_matches(body: &[u8]) -> Option<Vec<(u32, TopoRelation)>> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    if doc.get("truncated") != Some(&Json::Bool(false)) {
        return None;
    }
    let mut out = Vec::new();
    for m in doc.get("matches")?.as_arr()? {
        let id = u32::try_from(m.get("id")?.as_u64()?).ok()?;
        out.push((id, TopoRelation::parse(m.get("relation")?.as_str()?)?));
    }
    out.sort_unstable_by_key(|&(id, _)| id);
    Some(out)
}

/// One phase of load at a fixed rate, judged.
struct Phase {
    /// Latency from due time to last response byte, ms; a request with
    /// no usable answer counts as the time until the generator gave up.
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Requests answered with anything but a complete 200.
    transport_failures: u64,
    wrong: u64,
    requests: u64,
    /// `(due, done)` of each answered request, for the trace.
    spans: Vec<(Duration, Duration)>,
}

impl Phase {
    fn p99_ms(&self) -> f64 {
        quantile(&mut self.latency_ms.clone(), 0.99)
    }

    /// The ladder's test: every request answered in full, p99 within
    /// the limit, and a generator whose lag did not grow.
    fn passes(&self) -> bool {
        let quarter = (self.lag_ms.len() / 4).max(1);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let growth =
            mean(&self.lag_ms[self.lag_ms.len() - quarter..]) - mean(&self.lag_ms[..quarter]);
        self.transport_failures == 0
            && self.p99_ms() <= P99_LIMIT_MS
            && growth <= LAG_GROWTH_LIMIT_MS
    }
}

/// Sends the first `n` requests of the sequence at `rate` per second.
fn run_phase(
    addr: &str,
    probes: &Probes,
    oracle_answers: &[Vec<(u32, TopoRelation)>],
    rate: f64,
    n: usize,
) -> Phase {
    let n = n.clamp(1, probes.sequence.len());
    let grace = Duration::from_secs(5);
    let start = Instant::now() + Duration::from_millis(20);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = probes
            .schedule(rate, n)
            .into_iter()
            .map(|part| s.spawn(move || drive(addr, &probes.bodies, part, start, grace)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load generator thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.due);
    let mut phase = Phase {
        latency_ms: Vec::new(),
        lag_ms: Vec::new(),
        transport_failures: 0,
        wrong: 0,
        requests: samples.len() as u64,
        spans: Vec::new(),
    };
    let horizon = samples.iter().map(|s| s.due).max().unwrap_or_default() + grace;
    for s in &samples {
        phase.lag_ms.push(
            s.sent
                .map_or(horizon, |t| t.saturating_sub(s.due))
                .as_secs_f64()
                * 1e3,
        );
        let answer = (s.status == 200).then(|| parse_matches(&s.body)).flatten();
        match (s.done, answer) {
            (Some(done), Some(matches)) => {
                phase.latency_ms.push((done - s.due).as_secs_f64() * 1e3);
                phase.spans.push((s.due, done));
                if matches != oracle_answers[s.probe] {
                    phase.wrong += 1;
                }
            }
            (_, _) => {
                // Over any latency limit: as long as the generator
                // waited for an answer before giving up.
                phase.transport_failures += 1;
                phase.latency_ms.push((horizon - s.due).as_secs_f64() * 1e3);
            }
        }
    }
    phase
}

/// The highest ladder rate that passes, by binary search over the
/// ladder (passing is taken to be monotone in the rate); 0 when even
/// the lowest rung fails. Each rung sends the sequence's first
/// `rung_seconds` worth of requests at its rate, from a cold cache.
fn max_rate(
    addr: &str,
    probes: &Probes,
    oracle_answers: &[Vec<(u32, TopoRelation)>],
    rung_seconds: f64,
) -> Result<f64, String> {
    let rungs = ladder();
    let (mut lo, mut hi) = (0usize, rungs.len()); // rungs[..lo] pass, rungs[hi..] fail
    while lo < hi {
        let mid = (lo + hi) / 2;
        reload(addr)?;
        let n = (rungs[mid] * rung_seconds).ceil() as usize;
        let ph = run_phase(addr, probes, oracle_answers, rungs[mid], n);
        let pass = ph.passes();
        eprintln!(
            "  ladder {:7.1} req/s: {}",
            rungs[mid],
            if pass { "pass" } else { "fail" }
        );
        if pass {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(if lo == 0 { 0.0 } else { rungs[lo - 1] })
}

/// `stj preprocess` of the buildings, then server start until
/// `/healthz` answers.
fn setup(
    wkt: &Path,
    order: u32,
    path: &Path,
    exe: &Path,
    tr: &mut Tracer,
) -> Result<(ServerProc, Preprocessed), String> {
    let pre = preprocess::run(exe, wkt, path, "OBE", order, tr)?;
    let server = tr.span("serve.start", || ServerProc::start(exe, path))?;
    Ok((server, pre))
}

/// Counter delta of `/stats` field `path` between two snapshots.
fn delta(before: &Json, after: &Json, path: &[&str]) -> f64 {
    let get = |doc: &Json| {
        path.iter()
            .try_fold(doc, |d, k| d.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    get(after) - get(before)
}

/// Mean of a per-state latency histogram between two snapshots, ms.
fn state_mean_ms(before: &Json, after: &Json, state: &str) -> f64 {
    let n = delta(before, after, &["state_latency_ns", state, "count"]);
    let sum = delta(before, after, &["state_latency_ns", state, "sum_ns"]);
    if n > 0.0 {
        sum / n / 1e6
    } else {
        0.0
    }
}

pub fn run(args: &Args, size: Size, dir: &Path, exe: &Path) -> Result<Report, String> {
    let buildings = Side {
        name: "OBE",
        polygons: inputs::buildings(size.buildings_scale, args.seed),
    };
    let nominal = (NOMINAL_RPS * args.seconds).ceil() as usize;
    // The traced run also climbs the ladder, whose top rung is longest.
    let longest_rung =
        (ladder().last().copied().unwrap_or(0.0) * size.rung_seconds).ceil() as usize;
    let len = if args.trace {
        nominal.max(longest_rung)
    } else {
        nominal
    };
    let probes = Probes::new(size.zips_scale, len, args.seed);
    let grid = join::grid(size.order);
    let path = dir.join("buildings.stjd");
    let mut tr = Tracer::new(args.trace);

    let wkt = buildings.write_wkt(dir)?;
    let mut setup_s = Vec::new();
    let mut server = None;
    let (mut store_bytes, mut preprocess_rss) = (0, 0.0f64);
    for _ in 0..SETUP_REPS {
        drop(server.take()); // stop the previous server first
        tr.next_op();
        let t = Instant::now();
        let (s, pre) = setup(&wkt, size.order, &path, exe, &mut tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        preprocess::sync(&path)?;
        server = Some(s);
        store_bytes = pre.bytes;
        preprocess_rss = preprocess_rss.max(pre.peak_rss_mib);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr.clone();

    // The oracle, off the clock, over every probe the run can send.
    let (arena, _) = stj_store::open_arena(&path).map_err(|e| e.to_string())?;
    let used: BTreeSet<usize> = probes.sequence.iter().copied().collect();
    let answers = probe_oracle(&probes.polygons, &used, &arena);

    let mut metrics = Vec::new();
    let (attempted, failed);
    if args.trace {
        // An untraced and a traced half of the nominal phase: the first
        // gives the p99 and the base of the tracing overhead.
        let plain = run_phase(&addr, &probes, &answers, NOMINAL_RPS, nominal / 2);
        reload(&addr)?;
        let before = stats_doc(&addr)?;
        let traced = run_phase(&addr, &probes, &answers, NOMINAL_RPS, nominal / 2);
        let after = stats_doc(&addr)?;
        let max_rps = max_rate(&addr, &probes, &answers, size.rung_seconds)?;
        let start = Instant::now();
        tr.next_op();
        for &(due, done) in &traced.spans {
            tr.record("relate.request", start + due, start + done);
        }
        let (pass, dispatch_ms) =
            in_process(&path, &grid, &probes, traced.requests as usize, &mut tr)?;
        let layer = tr.layer_ms();
        let ms = |name: &str| layer.get(name).copied().unwrap_or(0.0);
        let hits = delta(&before, &after, &["cache", "hits"]);
        let lookups = hits + delta(&before, &after, &["cache", "misses"]);
        let skip_cells = after
            .get("adaptive")
            .and_then(|a| a.get("classes"))
            .and_then(Json::as_arr)
            .map_or(0, |cells| {
                cells
                    .iter()
                    .filter(|c| c.get("verdict").and_then(Json::as_str) == Some("skip"))
                    .count()
            });
        eprintln!("adaptive verdicts (server, end of run): {skip_cells} skip cell(s)");
        let overhead = (quantile(&mut traced.latency_ms.clone(), 0.5)
            / quantile(&mut plain.latency_ms.clone(), 0.5)
            - 1.0)
            * 100.0;
        let intervals = (arena.p_pool().len() + arena.c_pool().len()) as f64;
        metrics.extend([
            m("store.wkt_parse_ms", ms("store.wkt_parse"), "ms"),
            m("store.write_ms", ms("store.write"), "ms"),
            m("store.bytes", store_bytes as f64, "bytes"),
            m("store.open_ms", ms("store.open"), "ms"),
            m("raster.build_ms", ms("raster.build"), "ms"),
            m("raster.intervals", intervals, "count"),
            m(
                "raster.capped_objects",
                join::capped_objects(&buildings.polygons, &grid) as f64,
                "count",
            ),
            m("raster.probe_build_ms", ms("raster.probe_build"), "ms"),
            m("index.tiling_ms", ms("index.tiling"), "ms"),
            m("index.candidates", pass.candidates as f64, "count"),
            m("index.classify_ms", ms("index.classify"), "ms"),
            m("index.probe_ms", ms("index.probe"), "ms"),
            m("core.filter_ms", ms("core.filter"), "ms"),
            m("core.filter_attempts", pass.filter_attempts as f64, "count"),
            m("core.filter_decided", pass.filter_decided as f64, "count"),
            m(
                "core.filter_useful_share",
                pass.filter_decided as f64 / pass.filter_attempts.max(1) as f64,
                "ratio",
            ),
            m("core.refine_ms", ms("core.refine"), "ms"),
            m("core.refined", pass.refined as f64, "count"),
            m("core.adaptive_skip_cells", skip_cells as f64, "count"),
            m("core.links", pass.links.len() as f64, "count"),
            m("de9im.prepare_ms", ms("de9im.prepare"), "ms"),
            m("de9im.relate_ms", ms("de9im.relate"), "ms"),
            m("de9im.prepares", pass.prepares() as f64, "count"),
            m(
                "de9im.distinct_objects",
                pass.refined_objects.len() as f64,
                "count",
            ),
            m(
                "de9im.prepare_reuse",
                pass.prepares() as f64 / pass.refined_objects.len().max(1) as f64,
                "ratio",
            ),
            m(
                "serve.read_ms_mean",
                state_mean_ms(&before, &after, "read"),
                "ms",
            ),
            m(
                "serve.queue_ms_mean",
                state_mean_ms(&before, &after, "queue"),
                "ms",
            ),
            m(
                "serve.exec_ms_mean",
                state_mean_ms(&before, &after, "exec"),
                "ms",
            ),
            m(
                "serve.write_ms_mean",
                state_mean_ms(&before, &after, "write"),
                "ms",
            ),
            m("serve.cache_hit_share", hits / lookups.max(1.0), "ratio"),
            m("serve.cache_lookups", lookups, "count"),
            m(
                "serve.sheds",
                delta(&before, &after, &["requests", "rejected_429"]),
                "count",
            ),
            m("serve.dispatch_ms", dispatch_ms, "ms"),
            m("serve.relate_ms_p99", plain.p99_ms(), "ms"),
            m("serve.max_rps", max_rps, "1/s"),
            m("serve.start_ms", ms("serve.start"), "ms"),
            m(
                "loadgen.lag_ms_p99",
                quantile(&mut traced.lag_ms.clone(), 0.99),
                "ms",
            ),
            m("trace.overhead_pct", overhead, "%"),
        ]);
        let path = dir.join("trace.json");
        std::fs::write(&path, tr.to_chrome_json().render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        attempted = plain.requests + traced.requests;
        failed = plain.transport_failures + plain.wrong + traced.transport_failures + traced.wrong;
    } else {
        let mut nominal = run_phase(&addr, &probes, &answers, NOMINAL_RPS, nominal);
        metrics.extend([
            m("setup_s", median(&mut setup_s), "s"),
            // The heavier of the processes that did the work: the
            // preprocessing processes and the server.
            m(
                "peak_rss_mb",
                server.peak_rss_mib()?.max(preprocess_rss),
                "MiB",
            ),
            m("op_ms_p50", quantile(&mut nominal.latency_ms, 0.5), "ms"),
            m(
                "op_ms_tail",
                quantile(&mut nominal.latency_ms, TAIL_QUANTILE),
                "ms",
            ),
        ]);
        eprintln!(
            "{} requests at {NOMINAL_RPS} req/s: {} unanswered, {} wrong (error rate {:.6}); \
             p95 {:.3} ms, p99 {:.3} ms; lag p99 {:.3} ms",
            nominal.requests,
            nominal.transport_failures,
            nominal.wrong,
            (nominal.transport_failures + nominal.wrong) as f64 / nominal.requests.max(1) as f64,
            quantile(&mut nominal.latency_ms, 0.95),
            nominal.p99_ms(),
            quantile(&mut nominal.lag_ms, 0.99)
        );
        attempted = nominal.requests;
        failed = nominal.transport_failures + nominal.wrong;
    }
    drop(server);
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// The relate path in-process and single-threaded, over the first `n`
/// requests of the sequence: `dispatch_target` per request (median,
/// ms), then one stage pass over their distinct probes.
fn in_process(
    path: &Path,
    grid: &Grid,
    probes: &Probes,
    n: usize,
    tr: &mut Tracer,
) -> Result<(PassCounts, f64), String> {
    tr.next_op();
    let arena = join::open(path, tr)?;
    let tiling = tr.span("index.tiling", || Tiling::for_probes(arena.mbrs()));
    let ctx = ServeCtx::new(
        ServeConfig::default(),
        vec![LoadedDataset {
            name: arena.name().to_string(),
            arena,
            grid: grid.clone(),
            tiling,
        }],
    );
    let mut dispatch = Vec::with_capacity(n);
    for &p in &probes.sequence[..n] {
        let t = Instant::now();
        let resp = stj_serve::query::dispatch_target(&ctx, "POST", TARGET, &probes.bodies[p]);
        dispatch.push(t.elapsed().as_secs_f64() * 1e3);
        if resp.status != 200 {
            return Err(format!("in-process relate answered {}", resp.status));
        }
    }
    let gen = ctx.generation();
    let ds = &gen.datasets[0];
    let mut c = PassCounts::default();
    let distinct: BTreeSet<usize> = probes.sequence[..n].iter().copied().collect();
    tr.next_op();
    for p in distinct {
        let probe = tr.span("raster.probe_build", || {
            SpatialObject::build_with_budget(
                probes.polygons[p].clone(),
                &ds.grid,
                DEFAULT_MAX_INTERVALS,
            )
        });
        let cands = tr.span("index.probe", || {
            let mut v = Vec::new();
            ds.tiling
                .probe(probe.view().mbr, ds.arena.mbrs(), &mut |id| {
                    v.push((p as u32, id))
                });
            v
        });
        join::stages(
            &cands,
            |_| probe.view(),
            |j| ds.arena.object(j as usize),
            tr,
            &mut c,
        );
    }
    Ok((c, median(&mut dispatch)))
}
