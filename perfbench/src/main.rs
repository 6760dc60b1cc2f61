//! The cqfd benchmark.
//!
//! ```text
//! perfbench --workload chase|enum|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the gateway in-process (2 pool workers, `threads=1` per job,
//! the whole process on one CPU), drives one workload against it from one
//! generator thread over at most two loopback connections, checks every
//! answer, and prints one JSON
//! object as its last line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Every workload is a closed loop.
//! See README.md for every metric.

mod client;
mod replay;
mod sys;
mod workload;

use client::{Client, Proto, Record};
use cqfd_gateway::{json, Gateway, GatewayConfig, GatewayHandle};
use cqfd_service::PoolConfig;
use cqfd_store::Store;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use workload::{Expect, Workload};

/// Pool workers (the 2-core reference host's `nproc`).
const WORKERS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_RUNS: usize = 21;
/// Seconds the workload runs before each timed window, its replies
/// checked but not timed, so that allocator arenas and plan caches have
/// grown before timing starts.
const WARMUP_S: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// The one CPU the whole process runs on.
    cpu: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace wants 0 or 1, got `{v}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        cpu: 0,
    })
}

/// A running gateway and the client connected to it.
struct Bench {
    gateway: GatewayHandle,
    client: Client,
    store_dir: Option<PathBuf>,
    /// Each worm of the mix → the step count the trusted checker derives
    /// from its certificate.
    worm_steps: HashMap<String, usize>,
}

impl Bench {
    fn stop(self) {
        self.client.close();
        self.gateway.shutdown();
    }
}

/// Everything up to a gateway that has answered one warm-up job of each
/// kind: store open, bind, pool spawn, connections, warm-ups and (serve)
/// the transport-identity check.
fn setup(w: Workload, dir: &Path) -> Result<Bench, String> {
    let store_dir = (w == Workload::Serve).then(|| dir.to_path_buf());
    let mut pool = PoolConfig::default().with_workers(WORKERS);
    if let Some(d) = &store_dir {
        let store = Store::open(d.join("gateway")).map_err(|e| format!("store open: {e}"))?;
        pool = pool.with_store(Arc::new(store));
    }
    let gw = Gateway::bind(
        Some("127.0.0.1:0"),
        Some("127.0.0.1:0"),
        GatewayConfig::default().with_pool(pool),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let gateway = gw.spawn().map_err(|e| format!("spawn: {e}"))?;
    let (line, http) = (
        gateway.line_addr().expect("line listener"),
        gateway.http_addr().expect("http listener"),
    );
    let protos: &[Proto] = match w {
        Workload::Serve => &[Proto::Line, Proto::Http],
        _ => &[Proto::Line, Proto::Line],
    };
    let mut client = Client::connect(line, http, protos).map_err(|e| format!("connect: {e}"))?;
    let mut worm_steps = HashMap::new();
    let mut run = |client: &mut Client| -> Result<(), String> {
        for req in w.warmups() {
            let reply = client
                .roundtrip(0, &req.line)
                .ok_or_else(|| format!("no reply to warm-up `{}`", req.line))?;
            req.expect
                .check(reply.first_line())
                .map_err(|e| format!("warm-up `{}`: {e}", req.line))?;
        }
        for worm in w.worms() {
            let line = format!("creep worm={worm} cert=1");
            let steps = client
                .roundtrip(0, &line)
                .ok_or_else(|| format!("no reply to `{line}`"))
                .and_then(|reply| checked_steps(&reply))
                .map_err(|e| format!("`{line}`: {e}"))?;
            worm_steps.insert(worm, steps);
        }
        for req in w.identity_sample() {
            let a = client.roundtrip(0, &req.line);
            let b = client.roundtrip(1, &req.line);
            match (a, b) {
                (Some(a), Some(b)) if identity_form(&a.text) == identity_form(&b.text) => {
                    req.expect
                        .check(a.first_line())
                        .map_err(|e| format!("identity sample `{}`: {e}", req.line))?;
                }
                (a, b) => {
                    return Err(format!(
                        "transport identity broken for `{}`:\nline: {:?}\nhttp: {:?}",
                        req.line,
                        a.map(|r| r.text),
                        b.map(|r| r.text)
                    ))
                }
            }
        }
        Ok(())
    };
    if let Err(e) = run(&mut client) {
        client.close();
        gateway.shutdown();
        return Err(e);
    }
    Ok(Bench {
        gateway,
        client,
        store_dir,
        worm_steps,
    })
}

/// The step count of a halted-creep reply, which must equal the count the
/// trusted checker derives from the reply's certificate.
fn checked_steps(reply: &client::Reply) -> Result<usize, String> {
    Expect::Halted.check(reply.first_line())?;
    let claimed = field(reply.first_line(), "steps=").ok_or("no steps=")?;
    let text = reply.cert().ok_or("no certificate")?;
    let cert = cqfd_cert::parse(&text).map_err(|e| format!("parse: {e}"))?;
    let report = cqfd_cert::check(&cert).map_err(|e| format!("checker: {e}"))?;
    if claimed != report.steps {
        return Err(format!(
            "steps={claimed} but the certificate proves {}",
            report.steps
        ));
    }
    Ok(claimed)
}

/// A reply with its job id and wall time blanked (transport identity is
/// byte identity modulo these).
fn identity_form(text: &str) -> String {
    let mut lines = text.lines();
    let first = lines.next().unwrap_or("");
    let mut out = first
        .split(' ')
        .map(|t| {
            if t.starts_with("job=") {
                "job=_"
            } else if t.starts_with("elapsed_ms=") {
                "elapsed_ms=_"
            } else {
                t
            }
        })
        .collect::<Vec<_>>()
        .join(" ");
    for l in lines {
        out.push('\n');
        out.push_str(l);
    }
    out
}

/// The correctness verdict over one window, built as replies arrive.
#[derive(Default)]
struct Checked {
    attempted: usize,
    failed: usize,
    /// Latencies of correct jobs, in ms.
    lat: sys::Samples,
    /// Generator turnaround per job, in ms.
    late: sys::Samples,
    /// Largest `peak_atoms=` among the replies.
    peak_atoms: f64,
    /// `(send order, job line, result line)` of answered jobs, kept for
    /// the traced replay.
    answered: Option<Vec<(usize, String, String)>>,
    /// Every reply to one job line (`lint=1` aside) must carry the same
    /// result line.
    consistent: HashMap<String, String>,
    /// Checker-derived step count of each worm (see [`Bench::worm_steps`]):
    /// every halted-creep reply must claim it, whatever its flags and
    /// budget.
    worm_steps: HashMap<String, usize>,
    /// Distinct certificate texts → the jobs that returned them, with the
    /// creep step count each claims.
    certs: HashMap<String, Vec<(usize, Option<usize>)>>,
    notes: Vec<String>,
}

impl Checked {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    /// Checks one reply against the expected-answer table.
    fn observe(&mut self, r: Record) {
        self.attempted += 1;
        self.late.push(r.late.as_secs_f64() * 1e3);
        let (Some(reply), Some(done)) = (&r.reply, r.done) else {
            return self.fail(format!("no reply to `{}`", r.req.line));
        };
        let first = reply.first_line();
        if let Err(e) = r.req.expect.check(first) {
            return self.fail(format!("`{}`: {e}", r.req.line));
        }
        if r.req.expect == Expect::Halted {
            let worm = r.req.line.split(' ').find_map(|t| t.strip_prefix("worm="));
            let want = worm.and_then(|w| self.worm_steps.get(w)).copied();
            let got = field(first, "steps=");
            if want.is_none() || got != want {
                let note = format!("`{}`: steps {got:?}, the checker's {want:?}", r.req.line);
                return self.fail(note);
            }
        }
        // A `cert=1` job does extra hom work for its certificate (counted in
        // `homs=`) unless a store forces certificates on every job, so only
        // `lint=1`, which adds a payload and nothing else, is set aside.
        let key = r.req.line.replace(" lint=1", "");
        let norm = replay::normalized_line(first);
        match self.consistent.get(&key) {
            Some(seen) if *seen != norm => {
                let note = format!("`{key}` answered `{norm}`, earlier `{seen}`");
                return self.fail(note);
            }
            Some(_) => {}
            None => {
                self.consistent.insert(key, norm);
            }
        }
        if r.req.cert {
            let Some(text) = reply.cert() else {
                return self.fail(format!("`{}`: no certificate", r.req.line));
            };
            let steps = (r.req.expect == Expect::Halted)
                .then(|| field(first, "steps="))
                .flatten();
            self.certs.entry(text).or_default().push((r.seq, steps));
        }
        if let Some(a) = field(first, "peak_atoms=") {
            self.peak_atoms = self.peak_atoms.max(a as f64);
        }
        if let Some(kept) = &mut self.answered {
            kept.push((r.seq, r.req.line.clone(), first.to_string()));
        }
        self.lat
            .push(done.saturating_duration_since(r.sent).as_secs_f64() * 1e3);
    }

    /// Drops the timings and kept jobs of the warm-up. Its failures stay
    /// counted.
    fn start_timing(&mut self) {
        self.lat = sys::Samples::default();
        self.late = sys::Samples::default();
        if let Some(kept) = &mut self.answered {
            kept.clear();
        }
    }

    /// Re-validates every distinct certificate with the trusted checker.
    fn finish(&mut self) {
        let certs = std::mem::take(&mut self.certs);
        for (text, users) in certs {
            let verdict = cqfd_cert::parse(&text)
                .map_err(|e| format!("parse: {e}"))
                .and_then(|c| cqfd_cert::check(&c).map_err(|e| format!("checker: {e}")));
            for (seq, steps) in users {
                let bad = match &verdict {
                    Err(e) => Some(e.clone()),
                    Ok(report) => steps
                        .filter(|&s| s != report.steps)
                        .map(|s| format!("steps={s} but the certificate proves {}", report.steps)),
                };
                if let Some(e) = bad {
                    self.fail(format!("job #{seq}: certificate rejected: {e}"));
                }
            }
        }
        if let Some(kept) = &mut self.answered {
            kept.sort_by_key(|(seq, _, _)| *seq);
        }
    }
}

fn field(line: &str, key: &str) -> Option<usize> {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key))
        .and_then(|v| v.parse().ok())
}

/// One timed window's outcome.
struct Window {
    checked: Checked,
    wall_s: f64,
    cpu_ms: f64,
}

fn window(bench: &mut Bench, args: &Args, seconds: f64, keep: bool) -> Window {
    let mut gen = args.workload.generator(args.seed);
    let mut checked = Checked {
        answered: keep.then(Vec::new),
        worm_steps: bench.worm_steps.clone(),
        ..Checked::default()
    };
    let depth = args.workload.pipeline_depth();
    bench
        .client
        .drive(&mut gen, depth, WARMUP_S, &mut |r| checked.observe(r));
    checked.start_timing();
    let cpu0 = sys::cpu_ms();
    let t0 = Instant::now();
    bench
        .client
        .drive(&mut gen, depth, seconds, &mut |r| checked.observe(r));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_ms = sys::cpu_ms() - cpu0;
    checked.finish();
    Window {
        checked,
        wall_s,
        cpu_ms,
    }
}

/// Metrics in print order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn render_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            m.push_str(", ");
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(m, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

/// The record printed with every result set: seed, templates and mix
/// shares, the loop's pipeline depth, its CPU and the host.
fn result_record(args: &Args, setups: &[f64], samples: usize) -> String {
    let w = args.workload;
    let templates = w.templates();
    let total: u32 = templates.iter().map(|t| t.weight).sum();
    let mut s = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"mix\": \"{}\", \"pipeline_depth\": {}, \"cpu\": {}, \"samples\": {samples}, \"setup_s_runs\": {:?}, \"templates\": [",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json::escape(&w.mix_note()),
        w.pipeline_depth(),
        args.cpu,
        setups,
    );
    for (i, t) in templates.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{{\"line\": \"{}\", \"share\": {:.4}}}",
            json::escape(&t.stem),
            f64::from(t.weight) / f64::from(total)
        );
    }
    s.push_str("], \"host\": {");
    for (i, (k, v)) in sys::host_fingerprint().iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{k}\": \"{}\"", json::escape(v));
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let w = args.workload;
    let root = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}-{}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let out = if args.trace {
        traced(args, &root)
    } else {
        untraced(args, &root)
    };
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(".bench_run");
    out
}

fn untraced(args: &Args, root: &Path) -> Result<(bool, String), String> {
    let w = args.workload;
    let mut setups = Vec::new();
    let mut bench = None;
    for k in 0..SETUP_RUNS {
        let t0 = Instant::now();
        let b = setup(w, &root.join(format!("setup-{k}")))?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(prev) = bench.replace(b) {
            Bench::stop(prev);
        }
    }
    let mut bench = bench.expect("at least one set-up");
    let win = window(&mut bench, args, args.seconds, false);
    bench.stop();
    let c = &win.checked;
    let done = c.lat.count();
    let (p50, p99) = c.lat.p50_p99();
    let metrics: Metrics = vec![
        ("jobs_per_s", done as f64 / win.wall_s, "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_p99_ms", p99, "ms"),
        ("cpu_ms_per_job", win.cpu_ms / (done.max(1)) as f64, "ms"),
        ("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        ("setup_s", sys::median(&setups), "s"),
    ];
    println!("# result-set {}", result_record(args, &setups, done));
    for n in &c.notes {
        eprintln!("failed: {n}");
    }
    let correct = c.failed == 0 && c.attempted > 0;
    Ok((
        correct,
        render_result(correct, c.attempted, c.failed, &metrics),
    ))
}

fn traced(args: &Args, root: &Path) -> Result<(bool, String), String> {
    let w = args.workload;
    let part = args.seconds / 2.0;
    // Untraced reference window (same seed, same lines).
    let mut bench = setup(w, &root.join("untraced"))?;
    let plain = window(&mut bench, args, part, false);
    bench.stop();
    // Traced window on a fresh gateway (and store), aggregator installed.
    let mut bench = setup(w, &root.join("traced"))?;
    let http = bench.gateway.http_addr().expect("http listener");
    cqfd_obs::trace::set_subscriber(Arc::new(cqfd_obs::trace::RegistryAggregator::new(
        cqfd_obs::global(),
    )));
    let scrape = || {
        client::http_get(http, "/metrics")
            .map(|t| sys::Scrape::parse(&t))
            .map_err(|e| format!("scrape: {e}"))
    };
    let before = scrape()?;
    let traced = window(&mut bench, args, part, true);
    let after = scrape()?;
    cqfd_obs::trace::clear_subscriber();
    let store_dir = bench.store_dir.clone();
    bench.stop();
    // In-process replay of every answered job of the traced window.
    let replay_dir = root.join("replay");
    let mut rp = replay::Replay::new(store_dir.as_ref().map(|_| replay_dir.as_path()))
        .map_err(|e| format!("replay store: {e}"))?;
    for (seq, line, first) in traced.checked.answered.iter().flatten() {
        rp.job(*seq as u64 + 1, line, first);
    }
    let spans_path =
        PathBuf::from(".bench_out").join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
    rp.rec
        .write_jsonl(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let sum = rp.summary();
    let metrics = layer_metrics(&plain, &traced, &before, &after, &sum);
    println!(
        "# result-set {}",
        result_record(args, &[], traced.checked.lat.count())
    );
    println!(
        "# spans {} ({} spans)",
        spans_path.display(),
        rp.rec.spans.len()
    );
    let attempted = plain.checked.attempted + traced.checked.attempted;
    let failed = plain.checked.failed + traced.checked.failed;
    for n in plain.checked.notes.iter().chain(&traced.checked.notes) {
        eprintln!("failed: {n}");
    }
    let correct = failed == 0 && attempted > 0;
    Ok((correct, render_result(correct, attempted, failed, &metrics)))
}

fn layer_metrics(
    plain: &Window,
    traced: &Window,
    before: &sys::Scrape,
    after: &sys::Scrape,
    sum: &replay::Summary,
) -> Metrics {
    let d = |name: &str| after.delta(before, name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let jobs = traced.checked.lat.count().max(1) as f64;
    let tally = |name: &str| sum.by_name.get(name).copied().unwrap_or_default();
    let mean_us = |name: &str| tally(name).mean_us();
    let p50 = |w: &Window| w.checked.lat.p50_p99().0;
    let pool_job_ms = ratio(
        d("cqfd_pool_job_seconds_sum"),
        d("cqfd_pool_job_seconds_count"),
    ) * 1e3;
    let mean_latency_ms = traced.checked.lat.mean();
    let hits = d("cqfd_store_cache_hits_total");
    let misses = d("cqfd_store_cache_misses_total");
    let nodes = d("cqfd_hom_search_nodes_total");
    let add = tally("structure.add_atom");
    let enc = tally("cert.encode");
    let ins = tally("store.insert");
    let enumerate = d("cqfd_chase_stage_enumerate_seconds_sum");
    let apply = d("cqfd_chase_stage_apply_seconds_sum");
    vec![
        (
            "gateway.overhead_us",
            (mean_latency_ms - pool_job_ms) * 1e3,
            "us",
        ),
        (
            "gateway.queue_wait_us",
            ratio(
                d("cqfd_gateway_queue_wait_seconds_sum"),
                d("cqfd_gateway_queue_wait_seconds_count"),
            ) * 1e6,
            "us",
        ),
        ("gateway.sheds", d("cqfd_gateway_sheds_total"), "count"),
        ("proto.parse_us", mean_us("proto.parse"), "us"),
        ("analysis.lint_us", mean_us("analysis.lint"), "us"),
        ("analysis.classify_us", mean_us("analysis.classify"), "us"),
        ("pool.job_ms", pool_job_ms, "ms"),
        (
            "service.unattributed_share",
            sum.unattributed_share,
            "ratio",
        ),
        ("store.lookup_us", mean_us("store.lookup"), "us"),
        ("store.insert_us", mean_us("store.insert"), "us"),
        ("store.hit_ratio", ratio(hits, hits + misses), "ratio"),
        (
            "store.bytes_per_insert",
            ratio(ins.size as f64, ins.count as f64),
            "B",
        ),
        (
            "store.checker_rejects",
            d("cqfd_store_checker_rejects_total"),
            "count",
        ),
        ("cert.encode_us", enc.mean_us(), "us"),
        ("cert.check_us", mean_us("cert.check"), "us"),
        ("cert.parse_us", mean_us("cert.parse"), "us"),
        ("cert.bytes", ratio(enc.size as f64, enc.count as f64), "B"),
        ("oracle.build_us", mean_us("oracle.build"), "us"),
        ("oracle.certify_us", mean_us("oracle.certify"), "us"),
        ("search.ms", mean_us("search") / 1e3, "ms"),
        (
            "chase.run_ms",
            ratio(
                d("cqfd_chase_run_seconds_sum"),
                d("cqfd_chase_run_seconds_count"),
            ) * 1e3,
            "ms",
        ),
        ("chase.stages", d("cqfd_chase_stages_total") / jobs, "count"),
        (
            "chase.triggers",
            d("cqfd_chase_triggers_total") / jobs,
            "count",
        ),
        (
            "chase.firings",
            d("cqfd_chase_firings_total") / jobs,
            "count",
        ),
        (
            "chase.firing_ratio",
            ratio(
                d("cqfd_chase_firings_total"),
                d("cqfd_chase_triggers_total"),
            ),
            "ratio",
        ),
        (
            "chase.enumerate_share",
            ratio(enumerate, enumerate + apply),
            "ratio",
        ),
        ("hom.nodes_per_job", nodes / jobs, "count"),
        (
            "hom.ns_per_node",
            ratio(d("cqfd_pool_job_seconds_sum") * 1e9, nodes),
            "ns",
        ),
        (
            "hom.intersection_steps",
            d("cqfd_hom_intersection_steps_total") / jobs,
            "count",
        ),
        (
            "hom.backtracks",
            d("cqfd_hom_search_backtracks_total") / jobs,
            "count",
        ),
        (
            "homplan.cache_hit_ratio",
            ratio(
                d("cqfd_homplan_cache_hits_total"),
                d("cqfd_homplan_cache_hits_total") + d("cqfd_homplan_cache_misses_total"),
            ),
            "ratio",
        ),
        ("structure.peak_atoms", traced.checked.peak_atoms, "count"),
        (
            "structure.add_atom_ns",
            ratio(add.self_ns as f64, add.size as f64),
            "ns",
        ),
        ("structure.clone_us", mean_us("structure.clone"), "us"),
        (
            "bench.gen_late_p99_ms",
            plain.checked.late.p50_p99().1,
            "ms",
        ),
        (
            "bench.trace_overhead",
            ratio(p50(traced), p50(plain)),
            "ratio",
        ),
        (
            "failed_share",
            ratio(
                (plain.checked.failed + traced.checked.failed) as f64,
                (plain.checked.attempted + traced.checked.attempted) as f64,
            ),
            "ratio",
        ),
    ]
}

fn main() {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload chase|enum|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // The whole process, gateway and generator, runs on one CPU: pinned
    // before any thread is spawned, so that every thread inherits it. With
    // two vCPUs busy, a shared host takes each away for 10-40 ms a few
    // times a second, and every hand-off between threads on different
    // vCPUs waits for the other to run; one busy vCPU loses far less.
    // See README.md, "Why the benchmark runs on one CPU".
    match sys::pin_to_one_cpu() {
        Ok(cpu) => args.cpu = cpu,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    match run(&args) {
        Ok((correct, line)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_form_blanks_id_and_time_only() {
        let a = "job=3 kind=determine verdict=determined stage=1 elapsed_ms=0.2 cached=1 cert_lines=1\ncqfd-cert v1";
        let b = "job=9 kind=determine verdict=determined stage=1 elapsed_ms=1.7 cached=1 cert_lines=1\ncqfd-cert v1";
        assert_eq!(identity_form(a), identity_form(b));
        assert_ne!(
            identity_form(a),
            identity_form(&b.replace("stage=1", "stage=2"))
        );
    }

    #[test]
    fn creep_replies_must_claim_the_checkers_step_count() {
        let mut c = Checked {
            worm_steps: HashMap::from([("short".to_string(), 11)]),
            ..Checked::default()
        };
        let mut reply = |line: &str, first: &str| {
            let now = Instant::now();
            c.observe(Record {
                req: workload::Req {
                    line: line.into(),
                    expect: Expect::Halted,
                    cert: false,
                    dup: false,
                },
                seq: 0,
                sent: now,
                done: Some(now),
                reply: Some(client::Reply { text: first.into() }),
                retries: 0,
                late: std::time::Duration::ZERO,
            });
        };
        reply(
            "creep worm=short",
            "job=1 kind=creep verdict=halted steps=11",
        );
        // A first sighting (fresh budget) is held to the same count.
        reply(
            "creep worm=short steps=100001",
            "job=2 kind=creep verdict=halted steps=12",
        );
        // A worm without a checker-derived count cannot pass.
        reply(
            "creep worm=counter:3",
            "job=3 kind=creep verdict=halted steps=40",
        );
        assert_eq!((c.attempted, c.failed), (3, 2));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = render_result(true, 3, 0, &vec![("latency_p50_ms", 1.5, "ms")]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.5, "unit": "ms"}}}"#
        );
    }
}
