//! The traced replay: every job of the traced window is re-run in-process
//! through each layer's public functions, in pipeline order (parse → lint
//! → classify → store lookup → oracle / chase / search → cert encode →
//! cert check → store insert → render), each call wrapped in a span kept
//! in memory. The same job is also run once through the service's own
//! `execute_stored`, as a detached `service.execute` span; the share of
//! that time the in-execute layer spans do not account for is
//! `service.unattributed_share`.
//!
//! The replay mirrors the gateway's choices (dispatch route, forced
//! certificates when a store is attached) but adds no instrumentation to
//! the program: spans live only here.

use cqfd_cert::{convert, Certificate};
use cqfd_chase::{ChaseBudget, ChaseRun};
use cqfd_core::{find_homomorphism, hom_nodes_explored, reset_hom_nodes_explored, CancelToken};
use cqfd_core::{Cq, Structure, VarMap};
use cqfd_greenred::{
    cq_rewriting, greenred_tgds, is_counterexample, search_counterexample, Color,
    DeterminacyOracle, Verdict,
};
use cqfd_service::dispatch::{classify_for, Route};
use cqfd_service::{execute_stored, job_key, lint_job, parse_request, Job};
use cqfd_store::{Lookup, Store};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One benchmark-side span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The call is part of what the service's `execute` does for this
    /// job (counts toward covering `service.execute`).
    pub exec: bool,
    /// A size attached to the span (atoms replayed, certificate bytes,
    /// store entry bytes), 0 when none.
    pub size: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder: spans of one job share its id; a leaf's
/// parent is the innermost open span.
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) {
        let s = Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: self.now(),
            end_ns: 0,
            exec: false,
            size: 0,
        };
        self.spans.push(s);
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        let i = self.open.pop().expect("a span is open");
        self.spans[i].end_ns = self.now();
    }

    /// Times `f` as a leaf span under the innermost open span.
    fn time<T>(&mut self, name: &'static str, exec: bool, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns,
            exec,
            size: 0,
        });
        out
    }

    /// Times `f` as a root span of its own (same job id).
    fn time_detached<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: None,
            start_ns: start,
            end_ns,
            exec: false,
            size: 0,
        });
        out
    }

    fn size_last(&mut self, size: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.size = size;
        }
    }

    /// Self time of every span: its duration minus what its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"exec\":{},\"size\":{}}}",
                s.name, s.job, s.start_ns, s.end_ns, s.exec, s.size
            )?;
        }
        out.flush()
    }
}

/// Per-name span totals.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub count: u64,
    pub self_ns: u64,
    pub size: u64,
}

impl Tally {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// What the replay measured.
pub struct Summary {
    pub by_name: BTreeMap<&'static str, Tally>,
    /// 1 − (in-execute layer time) / (`service.execute` time).
    pub unattributed_share: f64,
}

/// Replays jobs through the layer functions and records their spans.
pub struct Replay {
    pub rec: Recorder,
    /// With a store (serve): the replay's own store and the one the
    /// `execute_stored` comparison runs against, so both see the same
    /// hits and misses.
    stores: Option<(Store, Store)>,
    cancel: CancelToken,
}

impl Replay {
    /// `store_dir` is set for workloads whose gateway runs with a store.
    pub fn new(store_dir: Option<&Path>) -> std::io::Result<Replay> {
        let stores = match store_dir {
            Some(d) => Some((
                Store::open(d.join("replay"))?,
                Store::open(d.join("execute"))?,
            )),
            None => None,
        };
        Ok(Replay {
            rec: Recorder::new(),
            stores,
            cancel: CancelToken::inert(),
        })
    }

    /// Replays one job line; `reply_first` is the gateway's result line
    /// for it (the store entry's result line is derived from it).
    pub fn job(&mut self, id: u64, line: &str, reply_first: &str) {
        self.rec.job = id;
        self.rec.begin("job");
        let exec_first = id.is_multiple_of(2);
        let parsed = self.rec.time("proto.parse", false, || parse_request(line));
        let Ok(Some(req)) = parsed else {
            self.rec.end();
            return;
        };
        let job = req.job;
        self.rec.time("analysis.lint", false, || lint_job(&job));
        // Alternate which of the two runs goes first, so warm per-thread
        // caches favour neither side of the coverage ratio.
        let mut result = exec_first.then(|| self.execute(id, &job));
        self.pipeline(&job, reply_first);
        if result.is_none() {
            result = Some(self.execute(id, &job));
        }
        let result = result.expect("executed");
        self.rec.time("render", false, || result.render_protocol());
        self.rec.end();
    }

    fn execute(&mut self, id: u64, job: &Job) -> cqfd_service::JobResult {
        let store = self.stores.as_ref().map(|(_, e)| e);
        let cancel = &self.cancel;
        self.rec.time_detached("service.execute", || {
            execute_stored(id, job, cancel, 1, store, store.is_some())
        })
    }

    /// Store probe, compute, certificate, store write-back.
    fn pipeline(&mut self, job: &Job, reply_first: &str) {
        let key = self.stores.as_ref().and(job_key(job));
        if let (Some((store, _)), Some(key)) = (&self.stores, &key) {
            if job.budget().is_some_and(|b| b.use_cache) {
                let found = self
                    .rec
                    .time("store.lookup", true, || store.lookup(key, job.kind()));
                if let Lookup::Hit(entry) = found {
                    // The service's consistency gate re-parses and
                    // re-checks the stored certificate before serving.
                    if let Ok(cert) = self
                        .rec
                        .time("cert.parse", true, || cqfd_cert::parse(&entry.cert_text))
                    {
                        let _ = self
                            .rec
                            .time("cert.check", true, || cqfd_cert::check(&cert));
                    }
                    self.lint_payload(job);
                    return;
                }
            }
        }
        reset_hom_nodes_explored();
        let cert = self.compute(job);
        self.lint_payload(job);
        let Some(text) = cert else { return };
        if let Ok(c) = self
            .rec
            .time("cert.parse", false, || cqfd_cert::parse(&text))
        {
            let _ = self.rec.time("cert.check", false, || cqfd_cert::check(&c));
        }
        if let (Some((store, _)), Some(key)) = (&self.stores, &key) {
            let line = normalized_line(reply_first);
            let kind = job.kind();
            let _ = self.rec.time("store.insert", true, || {
                store.insert(key, kind, &line, &text)
            });
            let bytes = std::fs::metadata(store.entry_path(&key.hash)).map_or(0, |m| m.len());
            self.rec.size_last(bytes);
        }
    }

    fn lint_payload(&mut self, job: &Job) {
        if job.budget().is_some_and(|b| b.emit_lint) {
            self.rec.time("analysis.lint_render", true, || {
                lint_job(job).render_lines()
            });
        }
    }

    /// Runs the job's work through the layer functions; returns the
    /// encoded certificate when the service would produce one.
    fn compute(&mut self, job: &Job) -> Option<String> {
        let forced = self.stores.is_some();
        let wants = |b: &cqfd_service::JobBudget| b.emit_certificate || forced;
        match job {
            Job::Determine {
                sig,
                views,
                q0,
                budget,
            } => {
                let oracle = self
                    .rec
                    .time("oracle.build", true, || DeterminacyOracle::new(sig.clone()));
                let class = self.rec.time("analysis.classify", true, || {
                    classify_for(&oracle, views, q0)
                });
                let route = if budget.dispatch.routes() {
                    Route::for_fragment(class.fragment)
                } else {
                    Route::Semi
                };
                let mut chase = chase_budget(budget);
                if route == Route::Spider {
                    chase.max_stages = chase.max_stages.max(ChaseBudget::PRESIZED_STAGES);
                }
                let cr = self.rec.time("oracle.certify", true, || {
                    oracle.certify_run(views, q0, &chase)
                });
                if route == Route::Psv {
                    self.rec.time("analysis.psv", true, || {
                        cqfd_analysis::psv::decide(
                            oracle.greenred().base(),
                            views,
                            q0,
                            Default::default(),
                        )
                    });
                }
                self.probe_structure(&cr.run);
                wants(budget).then(|| self.encode(&cr.certificate))
            }
            Job::Separate { budget } => {
                let chase = ChaseBudget {
                    threads: 1,
                    hom_engine: budget.hom_engine,
                    ..cqfd_separating::theorem14::separating_budget(budget.max_stages)
                };
                self.rec.time("chase.run", true, || {
                    cqfd_separating::theorem14::chase_from_di_with(&chase)
                });
                let (g, run, lasso) = self.rec.time("chase.run", true, || {
                    cqfd_separating::theorem14::chase_from_lasso_with(3, 1, &chase)
                });
                self.probe_structure(&run);
                if !(wants(budget) && lasso) {
                    return None;
                }
                let cert = self.rec.time("cert.build", true, || {
                    cqfd_cert::emit::pattern_certificate(&g)
                })?;
                Some(self.encode(&cert))
            }
            Job::CounterexampleSearch {
                sig,
                views,
                q0,
                budget,
            } => {
                let oracle = self
                    .rec
                    .time("oracle.build", true, || DeterminacyOracle::new(sig.clone()));
                let class = self.rec.time("analysis.classify", true, || {
                    classify_for(&oracle, views, q0)
                });
                if budget.dispatch.routes() && class.fragment.is_decidable() {
                    let mut chase = chase_budget(budget);
                    chase.max_stages = chase.max_stages.max(ChaseBudget::PRESIZED_STAGES);
                    let cr = self.rec.time("oracle.certify", true, || {
                        oracle.certify_run(views, q0, &chase)
                    });
                    self.probe_structure(&cr.run);
                    if matches!(cr.verdict, Verdict::NotDeterminedUnrestricted { .. }) {
                        let d = &cr.run.structure;
                        let report = self.rec.time("search.verify", true, || {
                            is_counterexample(&oracle, views, q0, d)
                        });
                        if report.is_counterexample {
                            if !wants(budget) {
                                return None;
                            }
                            let cert = self.rec.time("cert.build", true, || {
                                counterexample_certificate(&oracle, views, q0, d)
                            })?;
                            return Some(self.encode(&cert));
                        }
                    }
                }
                let found = self.rec.time("search", true, || {
                    search_counterexample(&oracle, views, q0, budget.max_search_nodes)
                });
                if !wants(budget) {
                    return None;
                }
                let cert = match found {
                    Some(d) => self.rec.time("cert.build", true, || {
                        counterexample_certificate(&oracle, views, q0, &d)
                    })?,
                    None => Certificate::NonHomRefutation {
                        sig: convert::sig_spec(oracle.greenred().colored()),
                        what: format!(
                            "exhaustive search found no counter-example to `{}` \
                             determinacy over ≤ {} nodes",
                            q0.name, budget.max_search_nodes
                        ),
                        bound: budget.max_search_nodes.max(1) as u64,
                        explored: hom_nodes_explored(),
                    },
                };
                Some(self.encode(&cert))
            }
            Job::Rewrite { sig, views, q0 } => {
                let sig = Arc::new(sig.clone());
                self.rec
                    .time("rewrite", true, || cq_rewriting(&sig, views, q0));
                None
            }
            Job::Creep { delta, budget } => {
                let halted = self
                    .rec
                    .time("creep", true, || creep(delta, budget.max_steps));
                if !wants(budget) {
                    return None;
                }
                let (max, steps) = match halted {
                    (true, steps) => (steps + 1, steps),
                    (false, steps) => (steps, steps),
                };
                let cert = self.rec.time("cert.build", true, || {
                    cqfd_cert::emit::creep_certificate(delta, max, (steps / 64).max(1))
                });
                Some(self.encode(&cert))
            }
            Job::Reduce { .. } => None,
        }
    }

    fn encode(&mut self, cert: &Certificate) -> String {
        let text = self
            .rec
            .time("cert.encode", true, || cqfd_cert::encode(cert));
        self.rec.size_last(text.len() as u64);
        text
    }

    /// Benchmark-only probes of the core structure on a chase's final
    /// structure: a clone, and its atoms replayed through `add_atom` into
    /// a fresh structure. Not part of `execute`.
    fn probe_structure(&mut self, run: &ChaseRun) {
        let d = &run.structure;
        self.rec.time("structure.clone", false, || d.clone());
        self.rec.time("structure.add_atom", false, || {
            let mut fresh = Structure::new(Arc::clone(d.signature()));
            for _ in 0..d.node_count() {
                fresh.fresh_node();
            }
            for a in d.atoms() {
                fresh.add_atom(a.clone());
            }
            fresh
        });
        self.rec.size_last(d.atom_count() as u64);
    }

    /// Folds the spans into per-name self-time totals and the coverage of
    /// `service.execute`.
    pub fn summary(&self) -> Summary {
        let self_ns = self.rec.self_ns();
        let mut by_name: BTreeMap<&'static str, Tally> = BTreeMap::new();
        let (mut covered, mut executed) = (0u64, 0u64);
        for (s, own) in self.rec.spans.iter().zip(self_ns) {
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.self_ns += own;
            t.size += s.size;
            if s.exec {
                covered += s.dur_ns();
            }
            if s.name == "service.execute" {
                executed += s.dur_ns();
            }
        }
        let unattributed_share = if executed == 0 {
            0.0
        } else {
            1.0 - covered as f64 / executed as f64
        };
        Summary {
            by_name,
            unattributed_share,
        }
    }
}

/// The budget-side chase limits a job runs under on one worker thread.
fn chase_budget(budget: &cqfd_service::JobBudget) -> ChaseBudget {
    let mut b = ChaseBudget::stages(budget.max_stages)
        .with_threads(1)
        .with_hom_engine(budget.hom_engine);
    if let Some(t) = budget.timeout {
        b = b.with_timeout(t);
    }
    b
}

/// The creep loop (validated steps, as the service runs it); returns
/// `(halted, steps)`.
fn creep(delta: &cqfd_rainworm::Delta, max_steps: usize) -> (bool, usize) {
    let mut cur = cqfd_rainworm::config::Config::initial();
    for k in 0..max_steps {
        match cqfd_rainworm::run::step(delta, &cur) {
            Some(next) => {
                let _ = next.validate();
                cur = next;
            }
            None => return (true, k),
        }
    }
    (false, max_steps)
}

/// The `finite-model` certificate for a found counter-example, built the
/// way the service builds it: `d` models `T_Q`, and at the disagreeing
/// tuple one colour of `Q0` holds (witnessed) while the other fails.
fn counterexample_certificate(
    oracle: &DeterminacyOracle,
    views: &[Cq],
    q0: &Cq,
    d: &Structure,
) -> Option<Certificate> {
    let tuple = is_counterexample(oracle, views, q0, d).witness?;
    let green = oracle.colored_query(Color::Green, q0);
    let red = oracle.colored_query(Color::Red, q0);
    let (holds_q, fails_q) = if green.holds(d, &tuple) {
        (green, red)
    } else {
        (red, green)
    };
    let fixed: VarMap = holds_q
        .head_vars
        .iter()
        .copied()
        .zip(tuple.iter().copied())
        .collect();
    let witness = find_homomorphism(&holds_q.body, d, &fixed)?;
    let tgds = greenred_tgds(oracle.greenred(), views);
    Some(Certificate::FiniteModel {
        sig: convert::sig_spec(oracle.greenred().colored()),
        rules: tgds.iter().map(convert::rule_spec).collect(),
        structure: convert::struct_spec(d),
        holds: vec![convert::holds_claim(&holds_q, &tuple, &witness)],
        fails: vec![convert::fails_claim(&fails_q, &tuple)],
    })
}

/// A gateway result line as the store records it: job id and wall time
/// zeroed, the cached marker and payload markers dropped.
pub fn normalized_line(first: &str) -> String {
    first
        .split(' ')
        .filter(|t| {
            *t != "cached=1"
                && !t.starts_with("cert_lines=")
                && !t.starts_with("lint_lines=")
                && !t.starts_with("trace_lines=")
        })
        .map(|t| {
            if t.starts_with("job=") {
                "job=0"
            } else if t.starts_with("elapsed_ms=") {
                "elapsed_ms=0.0"
            } else {
                t
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}
