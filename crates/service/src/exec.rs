//! The single-job execution path, shared by pool workers, `cqfd batch`,
//! and the TCP server.

use crate::dispatch::{Dispatch, Route};
use crate::job::{Job, JobBudget};
use crate::outcome::{parse_result_line, JobMetrics, JobOutcome, JobResult};
use cqfd_analysis::{Classification, Fragment};
use cqfd_cert::{convert, Certificate};
use cqfd_chase::{ChaseBudget, ChaseHooks, ChaseOutcome, ChaseRun};
use cqfd_core::{
    find_homomorphism, hom_nodes_explored, publish_hom_metrics, reset_hom_nodes_explored,
    CancelToken, VarMap,
};
use cqfd_greenred::{
    cq_rewriting, greenred_tgds, search_counterexample_within, Color, DeterminacyOracle,
    SearchOutcome, Verdict, MAX_SEARCH_SLOTS,
};
use cqfd_obs::{span, Stopwatch, Unit};
use cqfd_rainworm::config::Config;
use cqfd_rainworm::run::step;
use cqfd_store::{JobKey, KeyBuilder, Lookup, StageLogWriter, Store};
use std::sync::Arc;
use std::time::Instant;

/// Executes one job to completion (or budget exhaustion / cancellation)
/// on the calling thread, returning its result.
///
/// The `cancel` token is the pool's cooperative kill switch: chase-based
/// jobs thread it into [`ChaseBudget`] (polled at stage and trigger
/// boundaries), creep jobs poll it every step. Homomorphism-search nodes
/// are metered via the thread-local counter in `cqfd_core::hom`, **reset
/// at job start** and read absolutely at job end — correct under pool
/// concurrency because each job runs entirely on one worker thread, and
/// robust to worker reuse (a before/after delta would be too, but a reset
/// also keeps the counter from growing without bound over a pool's life).
pub fn execute(id: u64, job: &Job, cancel: &CancelToken) -> JobResult {
    execute_capped(id, job, cancel, usize::MAX)
}

/// [`execute`] with an upper bound on the job's chase enumeration threads.
///
/// The pool passes `available_parallelism / workers` here so that
/// `workers × threads` never oversubscribes the host; direct callers
/// (`cqfd determine`, tests) use [`execute`], which does not cap. Capping
/// never changes job output — the parallel chase is byte-deterministic at
/// every thread count — only how fast it arrives.
pub fn execute_capped(id: u64, job: &Job, cancel: &CancelToken, thread_cap: usize) -> JobResult {
    execute_stored(id, job, cancel, thread_cap, None, false)
}

/// Store context of one execution: the opened store and the job's
/// canonical key, plus the job's cache/resume opt-ins.
struct StoreCtx<'a> {
    store: &'a Store,
    key: JobKey,
    cache: bool,
    resume: bool,
}

/// [`execute_capped`] with a `cqfd-store` attached.
///
/// With `lookup` set, the cache is probed first (under the job's
/// `use_cache` flag): a stored entry is served only after the trusted
/// checker re-validates its certificate **and** the recorded outcome is
/// consistent with the certificate kind — anything less falls through to
/// a fresh run. Pool workers pass `lookup = false` because the pool
/// already probed at submission; the store is still used for write-back
/// and (under `resume=1`) the write-ahead stage log.
pub fn execute_stored(
    id: u64,
    job: &Job,
    cancel: &CancelToken,
    thread_cap: usize,
    store: Option<&Store>,
    lookup: bool,
) -> JobResult {
    let ctx = store.and_then(|s| {
        let budget = job.budget()?;
        Some(StoreCtx {
            store: s,
            key: job_key(job)?,
            cache: budget.use_cache,
            resume: budget.resume,
        })
    });
    if lookup {
        if let Some(ctx) = ctx.as_ref().filter(|c| c.cache) {
            if let Some(hit) = serve_cached(id, job, ctx) {
                return hit;
            }
        }
    }
    execute_inner(id, job, cancel, thread_cap, ctx.as_ref())
}

/// The pool's pre-dispatch probe: a checker-validated, gate-consistent
/// cache hit as a finished [`JobResult`], or `None` (run the job).
pub(crate) fn cached_result(id: u64, job: &Job, store: &Store) -> Option<JobResult> {
    if !job.budget().is_some_and(|b| b.use_cache) {
        return None;
    }
    let ctx = StoreCtx {
        store,
        key: job_key(job)?,
        cache: true,
        resume: false,
    };
    serve_cached(id, job, &ctx)
}

fn execute_inner(
    id: u64,
    job: &Job,
    cancel: &CancelToken,
    thread_cap: usize,
    ctx: Option<&StoreCtx>,
) -> JobResult {
    let clock = Stopwatch::start();
    let tracing = job.budget().is_some_and(|b| b.emit_trace);
    if tracing {
        // The whole job runs on this thread, so a thread-local capture
        // collects exactly this job's spans/events, tagged with its id.
        cqfd_obs::trace::capture_begin(id);
    } else {
        // Tag records for any globally-installed subscriber too.
        cqfd_obs::trace::set_current_job(Some(id));
    }
    reset_hom_nodes_explored();
    let mut metrics = JobMetrics::default();
    let mut certificate = None;
    let outcome = {
        let _job_span = span!("job.execute", kind = job.kind());
        if cancel.is_cancelled() {
            JobOutcome::BudgetExceeded {
                detail: "cancelled".into(),
            }
        } else {
            run_job(job, cancel, thread_cap, &mut metrics, &mut certificate, ctx)
        }
    };
    // A blown deadline is the black-box moment: the ring's tail shows
    // what the job was chasing when the clock ran out. (Cooperative
    // cancellation is the caller's decision, not a forensic event.)
    if matches!(&outcome, JobOutcome::BudgetExceeded { detail } if detail == "deadline") {
        cqfd_flight::dump_to_stderr("timeout", 256);
    }
    metrics.homs = hom_nodes_explored();
    metrics.elapsed = clock.elapsed();
    // Hom work done outside any chase run (rewriting search, witness
    // checks) is still pending on this thread; drain it now.
    publish_hom_metrics();
    let trace = if tracing {
        Some(cqfd_obs::trace::capture_end())
    } else {
        cqfd_obs::trace::set_current_job(None);
        None
    };
    record_job_metrics(job.kind(), outcome.verdict(), &clock);
    let lint = if job.budget().is_some_and(|b| b.emit_lint) {
        Some(crate::lint::lint_job(job).render_lines())
    } else {
        None
    };
    let mut result = JobResult {
        id,
        kind: job.kind(),
        outcome,
        metrics,
        certificate,
        trace,
        lint,
    };
    if let Some(ctx) = ctx.filter(|c| c.cache) {
        write_back(ctx, &result);
        // The certificate was force-computed for the cache entry; drop it
        // from the reply unless the submitter asked for one.
        if !job.budget().is_some_and(|b| b.emit_certificate) {
            result.certificate = None;
        }
    }
    result
}

/// The canonical cache key of a job, or `None` for kinds the store does
/// not cache (`rewrite` and `reduce` have no certificate-backed verdict
/// to validate a hit with, and both are cheap and deterministic anyway).
///
/// Only budget knobs that can change the **verdict** are hashed; thread
/// counts, timeouts, and the emission/cache/resume flags are excluded
/// (see `cqfd_store::canon`). The dispatch mode *is* hashed for the
/// determinacy kinds: `auto` can turn an `unknown`/`no-counterexample`
/// into a definite verdict, so results under different modes are
/// different answers and must not be served for one another.
pub fn job_key(job: &Job) -> Option<JobKey> {
    match job {
        Job::Determine {
            sig,
            views,
            q0,
            budget,
        } => {
            let mut k = KeyBuilder::new("determine");
            k.sig(sig)
                .views(sig, views)
                .query(sig, q0)
                .knob("stages", budget.max_stages as u64)
                .lines("dispatch", &[budget.dispatch.wire()]);
            Some(k.finish())
        }
        Job::Creep { delta, budget } => {
            let mut k = KeyBuilder::new("creep");
            let worm: Vec<String> = cqfd_rainworm::parse::render_delta(delta)
                .lines()
                .map(str::to_owned)
                .collect();
            k.lines("worm", &worm)
                .knob("steps", budget.max_steps as u64);
            Some(k.finish())
        }
        Job::Separate { budget } => {
            let mut k = KeyBuilder::new("separate");
            k.knob("stages", budget.max_stages as u64);
            Some(k.finish())
        }
        Job::CounterexampleSearch {
            sig,
            views,
            q0,
            budget,
        } => {
            let mut k = KeyBuilder::new("counterexample");
            k.sig(sig)
                .views(sig, views)
                .query(sig, q0)
                .knob("nodes", budget.max_search_nodes as u64)
                .lines("dispatch", &[budget.dispatch.wire()]);
            Some(k.finish())
        }
        Job::Rewrite { .. } | Job::Reduce { .. } => None,
    }
}

/// Is this outcome worth caching? Conclusive domain verdicts only —
/// budget exhaustion and errors depend on wall clocks and environment,
/// and a `Separated` run without a lasso pattern has no certificate.
fn cacheable(result: &JobResult) -> bool {
    matches!(
        result.outcome,
        JobOutcome::Determined { .. }
            | JobOutcome::NotDetermined { .. }
            | JobOutcome::Unknown { .. }
            | JobOutcome::Halted { .. }
            | JobOutcome::StillCreeping { .. }
            | JobOutcome::Separated { .. }
            | JobOutcome::CounterexampleFound { .. }
            | JobOutcome::NoCounterexample { .. }
    )
}

/// The normalization applied before storing a result line: submission id
/// and wall-clock are zeroed (both vary run to run), the cached marker is
/// off. Everything else — verdict detail, stage/trigger/hom counts, the
/// termination note — is deterministic and stored verbatim.
fn normalized_line(result: &JobResult) -> String {
    let mut stored = result.clone();
    stored.id = 0;
    stored.metrics.elapsed = std::time::Duration::ZERO;
    stored.metrics.cached = false;
    stored.trace = None;
    stored.lint = None;
    stored.certificate = None;
    stored.to_string()
}

/// Writes a conclusive, certificate-carrying result into the store.
fn write_back(ctx: &StoreCtx, result: &JobResult) {
    if !cacheable(result) {
        return;
    }
    let Some(cert) = result.certificate.as_deref() else {
        return;
    };
    let _span = span!("store.insert", kind = result.kind);
    if let Err(e) = ctx
        .store
        .insert(&ctx.key, result.kind, &normalized_line(result), cert)
    {
        // A full disk or permission problem must not fail the job; the
        // result is simply not cached.
        let error = e.to_string();
        cqfd_obs::event!("store.insert_failed", error = &error);
    }
}

/// Serves a cache hit, or `None` to fall through to a fresh run. The
/// entry has already passed the trusted checker inside
/// [`Store::lookup`]; this adds the outcome↔certificate consistency gate
/// and re-materializes the [`JobResult`].
fn serve_cached(id: u64, job: &Job, ctx: &StoreCtx) -> Option<JobResult> {
    let clock = Stopwatch::start();
    let _span = span!("store.serve", kind = job.kind());
    let entry = match ctx.store.lookup(&ctx.key, job.kind()) {
        Lookup::Hit(entry) => entry,
        Lookup::Miss | Lookup::Reject(_) => return None,
    };
    match gate_entry(job, &entry) {
        Ok((outcome, mut metrics)) => {
            ctx.store.note_hit();
            metrics.cached = true;
            let budget = job.budget();
            let certificate = budget
                .is_some_and(|b| b.emit_certificate)
                .then(|| entry.cert_text.clone());
            // Lint reports are deterministic in the job alone — cheap to
            // recompute, so they are not stored.
            let lint = budget
                .is_some_and(|b| b.emit_lint)
                .then(|| crate::lint::lint_job(job).render_lines());
            metrics.elapsed = clock.elapsed();
            record_job_metrics(job.kind(), outcome.verdict(), &clock);
            Some(JobResult {
                id,
                kind: job.kind(),
                outcome,
                metrics,
                certificate,
                trace: None,
                lint,
            })
        }
        Err(_) => {
            ctx.store.note_gate_reject();
            None
        }
    }
}

/// The outcome↔certificate consistency gate: a validated entry is served
/// only when its recorded verdict is the kind of claim its certificate
/// actually proves. A tampered entry that swaps in a *valid but
/// unrelated* certificate fails here even though the checker passed it.
fn gate_entry(job: &Job, entry: &cqfd_store::Entry) -> Result<(JobOutcome, JobMetrics), String> {
    let (_, kind, outcome, metrics) = parse_result_line(&entry.result_line)?;
    if kind != job.kind() {
        return Err(format!("entry kind `{kind}` != job kind `{}`", job.kind()));
    }
    let cert = cqfd_cert::parse(&entry.cert_text).map_err(|e| format!("cert parse: {e}"))?;
    let report = cqfd_cert::check(&cert).map_err(|e| format!("checker: {e}"))?;
    let consistent = match (&outcome, &cert) {
        (JobOutcome::Determined { .. }, Certificate::ChaseTrace { goal: Some(_), .. }) => true,
        (JobOutcome::NotDetermined { .. }, Certificate::FiniteModel { .. }) => true,
        (JobOutcome::Unknown { .. }, Certificate::NonHomRefutation { .. }) => true,
        (JobOutcome::Halted { steps }, Certificate::CreepTrace { halted: true, .. }) => {
            report.steps == *steps
        }
        (JobOutcome::StillCreeping { steps }, Certificate::CreepTrace { halted: false, .. }) => {
            report.steps == *steps
        }
        (
            JobOutcome::Separated {
                lasso_pattern: true,
                ..
            },
            Certificate::FiniteModel { .. },
        ) => true,
        (JobOutcome::CounterexampleFound { .. }, Certificate::FiniteModel { .. }) => true,
        (JobOutcome::NoCounterexample { .. }, Certificate::NonHomRefutation { .. }) => true,
        _ => false,
    };
    if !consistent {
        return Err(format!(
            "outcome `{}` inconsistent with certificate kind `{}`",
            outcome.verdict(),
            cert.kind()
        ));
    }
    Ok((outcome, metrics))
}

/// Publishes per-job counters and latency into the global registry. Job
/// id is deliberately **not** a metric label (unbounded cardinality);
/// per-job attribution lives in the trace lines instead.
fn record_job_metrics(kind: &'static str, verdict: &'static str, clock: &Stopwatch) {
    let reg = cqfd_obs::global();
    reg.counter(
        "cqfd_pool_jobs_total",
        "Jobs executed, by kind and verdict.",
        &[("kind", kind), ("verdict", verdict)],
    )
    .inc();
    reg.histogram(
        "cqfd_pool_job_seconds",
        "Job execution wall time (excludes queueing), by kind.",
        &[("kind", kind)],
        Unit::Seconds,
    )
    .observe(clock.elapsed_ns());
}

/// Builds the chase budget for a job: declared limits plus the pool's
/// cancellation token, (if any) a deadline starting now, and the job's
/// enumeration thread count capped by the executor's `thread_cap`.
fn chase_budget(budget: &JobBudget, cancel: &CancelToken, thread_cap: usize) -> ChaseBudget {
    let mut b = ChaseBudget::stages(budget.max_stages)
        .with_cancel(cancel.clone())
        .with_threads(budget.threads.min(thread_cap.max(1)))
        .with_hom_engine(budget.hom_engine);
    if let Some(t) = budget.timeout {
        b = b.with_timeout(t);
    }
    b
}

/// Harvests chase-run metrics (stages, triggers, structure peaks) and the
/// run's static termination verdict.
fn record_run(metrics: &mut JobMetrics, run: &ChaseRun) {
    metrics.stages += run.stage_count();
    metrics.triggers += run.triggers_fired();
    metrics.peak_atoms = metrics.peak_atoms.max(run.structure.atom_count());
    metrics.peak_nodes = metrics.peak_nodes.max(run.structure.node_count());
    metrics.termination = Some(run.termination.name());
}

/// Names what stopped a cancelled run: the token or the clock.
fn stop_detail(cancel: &CancelToken) -> String {
    if cancel.is_cancelled() {
        "cancelled".into()
    } else {
        "deadline".into()
    }
}

fn run_job(
    job: &Job,
    cancel: &CancelToken,
    thread_cap: usize,
    metrics: &mut JobMetrics,
    certificate: &mut Option<String>,
    store: Option<&StoreCtx>,
) -> JobOutcome {
    // A configured cache needs the certificate even when the submitter
    // did not ask for one: entries are validated by re-checking it.
    let force_cert = store.is_some_and(|c| c.cache);
    match job {
        Job::Determine {
            sig,
            views,
            q0,
            budget,
        } => {
            let oracle = DeterminacyOracle::new(sig.clone());
            let class = crate::dispatch::classify_for(&oracle, views, q0);
            metrics.fragment = Some(class.fragment.as_str());
            if let Err(e) = check_forced(budget.dispatch, class.fragment) {
                return e;
            }
            let route = if budget.dispatch.routes() {
                Route::for_fragment(class.fragment)
            } else {
                Route::Semi
            };
            metrics.route = Some(route.as_str());
            if route != Route::Semi {
                crate::dispatch::note_routed(class.fragment);
            }
            let mut chase = chase_budget(budget, cancel, thread_cap);
            if route == Route::Spider {
                // The spider fragment's `T_Q` is *not* weakly acyclic, so
                // `certify_run`'s presizing leaves the stage cap alone —
                // but its chase provably reaches a fixpoint (the path view
                // produces no fresh triggers past saturation), so lift the
                // cap the same way presizing would. The atom/node size
                // caps stay in place as the safety net.
                chase.max_stages = chase.max_stages.max(ChaseBudget::PRESIZED_STAGES);
            }
            let cr = match store.filter(|c| c.resume) {
                Some(ctx) => determine_with_log(&oracle, views, q0, &chase, ctx, budget.dispatch),
                None => oracle.certify_run(views, q0, &chase),
            };
            record_run(metrics, &cr.run);
            if cr.run.outcome == ChaseOutcome::Cancelled {
                return JobOutcome::BudgetExceeded {
                    detail: stop_detail(cancel),
                };
            }
            let outcome = match cr.verdict {
                Verdict::Determined { stage } => JobOutcome::Determined { stage },
                Verdict::NotDeterminedUnrestricted { stages } => {
                    JobOutcome::NotDetermined { stages }
                }
                Verdict::Unknown { stages } => JobOutcome::Unknown { stages },
            };
            // The routed fragments each carry an *independent* complete
            // decision procedure; run it as a cross-check of the chase
            // verdict. A disagreement would mean a bug in one of the two
            // implementations — fail loudly instead of picking a side.
            if let Some(expected) = independent_verdict(&oracle, &class, views, q0, route) {
                let agrees = match &outcome {
                    JobOutcome::Determined { .. } => expected,
                    JobOutcome::NotDetermined { .. } => !expected,
                    _ => true,
                };
                if !agrees {
                    return JobOutcome::Error {
                        message: format!(
                            "dispatch cross-check failed: the {} procedure says determined={}, \
                             the chase says {}",
                            route.as_str(),
                            expected,
                            outcome.verdict()
                        ),
                    };
                }
            }
            if budget.emit_certificate || force_cert {
                *certificate = Some(cqfd_cert::encode(&cr.certificate));
            }
            outcome
        }
        Job::Rewrite { sig, views, q0 } => {
            let arc = Arc::new(sig.clone());
            match cq_rewriting(&arc, views, q0) {
                Some(rw) => JobOutcome::RewritingFound {
                    rewriting: rw.query.display_with(&rw.view_signature).to_string(),
                },
                None => JobOutcome::NoRewriting,
            }
        }
        Job::Reduce { delta } => {
            let inst = cqfd_reduction::reduce(delta);
            JobOutcome::Reduced {
                queries: inst.stats.queries,
                total_atoms: inst.stats.total_atoms,
                s: inst.stats.s,
            }
        }
        Job::Creep { delta, budget } => {
            let outcome = creep_job(delta, budget, cancel);
            if budget.emit_certificate || force_cert {
                // Re-creeping for the trace is cheap relative to the reduction
                // pipelines these worms feed; a budget-exhausted run gets no
                // certificate (there is no conclusive claim to certify).
                match outcome {
                    JobOutcome::Halted { steps } => {
                        let cert =
                            cqfd_cert::emit::creep_certificate(delta, steps + 1, checkpoint(steps));
                        *certificate = Some(cqfd_cert::encode(&cert));
                    }
                    JobOutcome::StillCreeping { steps } => {
                        let cert =
                            cqfd_cert::emit::creep_certificate(delta, steps, checkpoint(steps));
                        *certificate = Some(cqfd_cert::encode(&cert));
                    }
                    _ => {}
                }
            }
            outcome
        }
        Job::Separate { budget } => {
            // Thread the service budget (cancel, deadline, threads) into
            // both Theorem 14 chases, preserving the generous size caps of
            // the stock separating budget.
            let chase = ChaseBudget {
                cancel: cancel.clone(),
                deadline: budget.timeout.map(|t| Instant::now() + t),
                threads: budget.threads.max(1).min(thread_cap.max(1)),
                hom_engine: budget.hom_engine,
                ..cqfd_separating::theorem14::separating_budget(budget.max_stages)
            };
            let (_, run_di, di_pattern) = cqfd_separating::theorem14::chase_from_di_with(&chase);
            record_run(metrics, &run_di);
            if run_di.outcome == ChaseOutcome::Cancelled {
                return JobOutcome::BudgetExceeded {
                    detail: stop_detail(cancel),
                };
            }
            let (g_lasso, run_lasso, lasso_pattern) =
                cqfd_separating::theorem14::chase_from_lasso_with(3, 1, &chase);
            record_run(metrics, &run_lasso);
            if run_lasso.outcome == ChaseOutcome::Cancelled {
                return JobOutcome::BudgetExceeded {
                    detail: stop_detail(cancel),
                };
            }
            if (budget.emit_certificate || force_cert) && lasso_pattern {
                *certificate =
                    cqfd_cert::emit::pattern_certificate(&g_lasso).map(|c| cqfd_cert::encode(&c));
            }
            JobOutcome::Separated {
                di_pattern,
                lasso_pattern,
            }
        }
        Job::CounterexampleSearch {
            sig,
            views,
            q0,
            budget,
        } => {
            let oracle = DeterminacyOracle::new(sig.clone());
            let class = crate::dispatch::classify_for(&oracle, views, q0);
            metrics.fragment = Some(class.fragment.as_str());
            if let Err(e) = check_forced(budget.dispatch, class.fragment) {
                return e;
            }
            // In a decidable fragment the chase reaches a fixpoint, and a
            // non-determined fixpoint *is* a finite counter-model — built
            // in milliseconds where brute-force enumeration over the node
            // cap is exponential, and valid at any size (the enumeration
            // can only refute up to its cap).
            if budget.dispatch.routes() && class.fragment.is_decidable() {
                let mut chase = chase_budget(budget, cancel, thread_cap);
                chase.max_stages = chase.max_stages.max(ChaseBudget::PRESIZED_STAGES);
                let cr = oracle.certify_run(views, q0, &chase);
                record_run(metrics, &cr.run);
                if cr.run.outcome == ChaseOutcome::Cancelled {
                    return JobOutcome::BudgetExceeded {
                        detail: stop_detail(cancel),
                    };
                }
                if matches!(cr.verdict, Verdict::NotDeterminedUnrestricted { .. }) {
                    let d = &cr.run.structure;
                    let report = cqfd_greenred::is_counterexample(&oracle, views, q0, d);
                    if report.is_counterexample {
                        metrics.route = Some(Route::ChaseModel.as_str());
                        crate::dispatch::note_routed(class.fragment);
                        if budget.emit_certificate || force_cert {
                            *certificate = counterexample_certificate(&oracle, views, q0, d)
                                .map(|c| cqfd_cert::encode(&c));
                        }
                        return JobOutcome::CounterexampleFound {
                            atoms: d.atom_count(),
                        };
                    }
                }
                // Determined (no counter-example exists at any size) or —
                // defensively — an inconclusive run: fall through to the
                // budgeted enumeration, which answers exactly what `semi`
                // would answer.
            }
            metrics.route = Some(Route::Semi.as_str());
            match search_counterexample_within(&oracle, views, q0, budget.max_search_nodes) {
                SearchOutcome::Found(d) => {
                    metrics.peak_atoms = metrics.peak_atoms.max(d.atom_count());
                    metrics.peak_nodes = metrics.peak_nodes.max(d.node_count());
                    if budget.emit_certificate || force_cert {
                        *certificate = counterexample_certificate(&oracle, views, q0, &d)
                            .map(|c| cqfd_cert::encode(&c));
                    }
                    JobOutcome::CounterexampleFound {
                        atoms: d.atom_count(),
                    }
                }
                // Not even one node was enumerated: there is no bound to
                // attest (and the checker rejects a zero bound).
                SearchOutcome::Exhausted { nodes: 0 } => JobOutcome::Error {
                    message: if budget.max_search_nodes == 0 {
                        "nodes=0 leaves the counter-example search nothing to enumerate".into()
                    } else {
                        format!(
                            "the colored atom space over one node exceeds the search limit \
                             of {MAX_SEARCH_SLOTS} atoms; nothing was searched"
                        )
                    },
                },
                SearchOutcome::Exhausted { nodes } => {
                    if budget.emit_certificate || force_cert {
                        let cert = Certificate::NonHomRefutation {
                            sig: convert::sig_spec(oracle.greenred().colored()),
                            what: format!(
                                "exhaustive search found no counter-example to `{}` \
                                 determinacy over ≤ {} nodes",
                                q0.name, nodes
                            ),
                            bound: nodes as u64,
                            explored: hom_nodes_explored(),
                        };
                        *certificate = Some(cqfd_cert::encode(&cert));
                    }
                    JobOutcome::NoCounterexample { nodes }
                }
            }
        }
    }
}

/// `dispatch=forced:A3xx` is an up-front assertion: if the classifier
/// assigns any other fragment the job fails before touching the chase.
/// Also run by the pool at submission, so a forced mismatch never
/// occupies a queue slot or a worker.
pub(crate) fn check_forced(dispatch: Dispatch, actual: Fragment) -> Result<(), JobOutcome> {
    match dispatch {
        Dispatch::Forced(expected) if expected != actual => Err(JobOutcome::Error {
            message: format!(
                "dispatch=forced:{} but the classifier assigned {} ({})",
                expected.as_str(),
                actual.as_str(),
                actual.code().title()
            ),
        }),
        _ => Ok(()),
    }
}

/// The independent decision procedure of a routed fragment, as a
/// `determined?` verdict — or `None` when the route has none (the total
/// chase *is* the procedure on `A301`, and `semi` routes nothing).
///
/// * `psv` — the project-select decider of [`cqfd_analysis::psv`]: a
///   green/red closure built directly from the view definitions, sharing
///   no code with the oracle's chase or homomorphism search.
/// * `spider` — the arithmetic criterion for path views: an `m`-path view
///   determines a `k`-path query iff `m` divides `k`.
fn independent_verdict(
    oracle: &DeterminacyOracle,
    class: &Classification,
    views: &[cqfd_core::Cq],
    q0: &cqfd_core::Cq,
    route: Route,
) -> Option<bool> {
    match route {
        Route::Psv => {
            cqfd_analysis::psv::decide(oracle.greenred().base(), views, q0, Default::default())
                .map(|v| v.is_determined())
        }
        Route::Spider => class.path_lengths.map(|(m, k)| k % m == 0),
        _ => None,
    }
}

/// Runs a `determine` chase with the write-ahead stage log: resume from
/// an existing log when it validates (replayed through the real engine,
/// counts checked against every stage mark), checkpoint each committed
/// stage, and delete the log once the run concludes. A cancelled run
/// keeps its log — that *is* the resumable state.
///
/// Resumption is byte-transparent: the resumed run's structures, stage
/// history, firings, and certificate are identical to an uninterrupted
/// run's, at every thread count (the chase is byte-deterministic and
/// replay reproduces node allocation exactly).
fn determine_with_log(
    oracle: &DeterminacyOracle,
    views: &[cqfd_core::Cq],
    q0: &cqfd_core::Cq,
    chase: &ChaseBudget,
    ctx: &StoreCtx,
    dispatch: Dispatch,
) -> cqfd_greenred::CertifiedRun {
    let log_path = ctx.store.log_path(&ctx.key.hash);
    let (engine, start, _) = oracle.chase_setup(views, q0);
    let dispatch_wire = dispatch.wire();
    let mut hooks = ChaseHooks::default();
    let mut writer: Option<StageLogWriter> = None;
    if let Ok(text) = std::fs::read_to_string(&log_path) {
        if let Ok(log) = cqfd_cert::parse_stage_log(&text) {
            // A log committed under a different dispatch mode was driven
            // by a different stage budget; its prefix may be valid chase
            // history, but resuming it would mix two regimes in one run.
            // Refuse and start fresh (overwriting the stale log). Logs
            // predating the meta line carry no mode and are refused too.
            let same_mode = log
                .meta
                .iter()
                .any(|(k, v)| k == "dispatch" && *v == dispatch_wire);
            if !same_mode {
                cqfd_obs::event!("store.resume_refused", dispatch = dispatch_wire.as_str());
            } else if let Some(rp) = cqfd_store::resume_point(&engine, &start, &log) {
                if let Ok(w) = StageLogWriter::reopen(&log_path, log.valid_bytes) {
                    cqfd_obs::event!("store.resume", stages = rp.stages.len() as u64);
                    ctx.store.note_resume();
                    hooks.resume = Some(rp);
                    writer = Some(w);
                }
            }
        }
    }
    if writer.is_none() {
        let rules: Vec<_> = engine.tgds().iter().map(convert::rule_spec).collect();
        let prelude = cqfd_cert::stage_log_prelude_with_meta(
            &convert::sig_spec(start.signature()),
            &rules,
            &convert::struct_spec(&start),
            &[("dispatch", dispatch_wire.as_str())],
        );
        // A log that cannot be written is a lost checkpoint, not a
        // failed job: fall through with no checkpoint hook.
        writer = StageLogWriter::create(&log_path, &prelude).ok();
    }
    let mut commit = |stage: usize, info: &cqfd_chase::StageInfo, fires: &[cqfd_chase::Firing]| {
        if let Some(w) = writer.as_mut() {
            let _ = w.commit_stage(stage, info, fires);
        }
    };
    hooks.checkpoint = Some(&mut commit);
    let cr = oracle.certify_run_with(views, q0, chase, hooks);
    if cr.run.outcome != ChaseOutcome::Cancelled {
        // Concluded: the verdict (and its certificate) supersede the log.
        let _ = std::fs::remove_file(&log_path);
    }
    cr
}

/// A checkpoint interval that keeps creep certificates to ≲ 64 config
/// lines regardless of run length.
fn checkpoint(steps: usize) -> usize {
    (steps / 64).max(1)
}

/// Builds the [`Certificate::FiniteModel`] for a found counter-example:
/// `d` models `T_Q`, and at the disagreeing tuple one color of `Q0` holds
/// (witnessed) while the other fails.
fn counterexample_certificate(
    oracle: &DeterminacyOracle,
    views: &[cqfd_core::Cq],
    q0: &cqfd_core::Cq,
    d: &cqfd_core::Structure,
) -> Option<Certificate> {
    let report = cqfd_greenred::is_counterexample(oracle, views, q0, d);
    let tuple = report.witness?;
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

/// The creep loop with cooperative cancellation: the rainworm step
/// function itself is untouched; the service drives it one `⇒` at a time,
/// polling the token every step and the clock every 64 steps.
fn creep_job(delta: &cqfd_rainworm::Delta, budget: &JobBudget, cancel: &CancelToken) -> JobOutcome {
    let deadline = budget.timeout.map(|t| Instant::now() + t);
    let mut cur = Config::initial();
    if let Err(e) = cur.validate() {
        return JobOutcome::Error {
            message: format!("invalid start configuration: {e}"),
        };
    }
    for k in 0..budget.max_steps {
        if cancel.is_cancelled() {
            return JobOutcome::BudgetExceeded {
                detail: "cancelled".into(),
            };
        }
        if k % 64 == 0 {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return JobOutcome::BudgetExceeded {
                        detail: "deadline".into(),
                    };
                }
            }
        }
        match step(delta, &cur) {
            Some(next) => {
                if let Err(e) = next.validate() {
                    return JobOutcome::Error {
                        message: format!("Lemma 20 violated at step {}: {e}", k + 1),
                    };
                }
                cur = next;
            }
            None => return JobOutcome::Halted { steps: k },
        }
    }
    JobOutcome::StillCreeping {
        steps: budget.max_steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfd_core::{Cq, Signature};
    use cqfd_rainworm::families::{forever_worm, halting_worm_short};
    use std::time::Duration;

    fn sig_r() -> Signature {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        s
    }

    #[test]
    fn determine_job_certifies_identity_view() {
        let sig = sig_r();
        let views = vec![Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap()];
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let job = Job::Determine {
            sig,
            views,
            q0,
            budget: JobBudget::default(),
        };
        let r = execute(1, &job, &CancelToken::inert());
        assert_eq!(r.outcome, JobOutcome::Determined { stage: 1 });
        assert!(r.metrics.stages >= 1);
        assert!(r.metrics.homs > 0, "hom search was metered");
        assert!(r.metrics.peak_atoms > 0);
    }

    #[test]
    fn pre_cancelled_job_does_not_run() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let job = Job::Creep {
            delta: forever_worm(),
            budget: JobBudget::default(),
        };
        let r = execute(1, &job, &cancel);
        assert!(r.outcome.is_budget_exceeded());
    }

    #[test]
    fn creep_job_halts_and_respects_deadline() {
        let halting = Job::Creep {
            delta: halting_worm_short(),
            budget: JobBudget::default(),
        };
        let r = execute(1, &halting, &CancelToken::inert());
        assert!(matches!(r.outcome, JobOutcome::Halted { .. }));

        let forever = Job::Creep {
            delta: forever_worm(),
            budget: JobBudget::default()
                .with_steps(usize::MAX)
                .with_timeout(Duration::from_millis(50)),
        };
        let r = execute(2, &forever, &CancelToken::inert());
        assert_eq!(
            r.outcome,
            JobOutcome::BudgetExceeded {
                detail: "deadline".into()
            }
        );
        assert!(r.metrics.elapsed < Duration::from_secs(5));
    }

    /// Regression: the hom-node counter is reset at job start, so a cheap
    /// job executed on a worker thread that previously ran a hom-heavy job
    /// reports its *own* hom count (zero), not the accumulated total. Run
    /// both jobs through a 1-worker pool so they share a thread for sure.
    #[test]
    fn hom_counter_resets_between_jobs_on_a_reused_worker() {
        let pool = crate::Pool::new(crate::PoolConfig::default().with_workers(1));
        let sig = sig_r();
        let views = vec![Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap()];
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let heavy = pool
            .submit_blocking(Job::Determine {
                sig,
                views,
                q0,
                budget: JobBudget::default(),
            })
            .wait();
        assert!(heavy.metrics.homs > 0, "first job explores hom nodes");
        let light = pool
            .submit_blocking(Job::Creep {
                delta: halting_worm_short(),
                budget: JobBudget::default(),
            })
            .wait();
        assert_eq!(
            light.metrics.homs, 0,
            "creep does no hom search; a leaked counter would show {}",
            heavy.metrics.homs
        );
    }

    #[test]
    fn determine_job_attaches_a_checkable_certificate_on_request() {
        let sig = sig_r();
        let views = vec![Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap()];
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let job = Job::Determine {
            sig,
            views,
            q0,
            budget: JobBudget::default().with_certificate(true),
        };
        let r = execute(1, &job, &CancelToken::inert());
        let text = r.certificate.expect("cert=1 attaches a certificate");
        let cert = cqfd_cert::parse(&text).unwrap();
        assert_eq!(cert.kind(), "chase-trace");
        let report = cqfd_cert::check(&cert).unwrap();
        assert!(report.summary.contains("goal holds"), "{}", report.summary);
    }

    #[test]
    fn creep_and_separate_jobs_attach_certificates_on_request() {
        let creep = Job::Creep {
            delta: halting_worm_short(),
            budget: JobBudget::default().with_certificate(true),
        };
        let r = execute(1, &creep, &CancelToken::inert());
        let steps = match r.outcome {
            JobOutcome::Halted { steps } => steps,
            other => panic!("wrong outcome: {other:?}"),
        };
        let cert = cqfd_cert::parse(r.certificate.as_deref().unwrap()).unwrap();
        let report = cqfd_cert::check(&cert).unwrap();
        assert_eq!(report.steps, steps, "trace replays the job's creep");

        let sep = Job::Separate {
            budget: JobBudget::default().with_stages(60).with_certificate(true),
        };
        let r = execute(2, &sep, &CancelToken::inert());
        let cert = cqfd_cert::parse(r.certificate.as_deref().unwrap()).unwrap();
        assert_eq!(cert.kind(), "finite-model");
        assert!(cqfd_cert::check(&cert).is_ok());
    }

    /// A signature of `preds` binary predicates, an identity view on each
    /// and `Q0 = P0`: determined, so the search never stops early.
    fn identity_views_job(preds: usize, nodes: usize) -> Job {
        let mut sig = Signature::new();
        let mut views = Vec::new();
        for i in 0..preds {
            sig.add_predicate(&format!("P{i}"), 2);
            views.push(Cq::parse(&sig, &format!("V{i}(x,y) :- P{i}(x,y)")).unwrap());
        }
        let q0 = Cq::parse(&sig, "Q0(x,y) :- P0(x,y)").unwrap();
        Job::CounterexampleSearch {
            sig,
            views,
            q0,
            budget: JobBudget::default()
                .with_search_nodes(nodes)
                .with_certificate(true),
        }
    }

    #[test]
    fn search_reports_only_the_sizes_it_enumerated() {
        // Four binary predicates: 8 colored slots over one node, 32 over
        // two, so only size 1 is enumerated however high `nodes=` goes.
        let r = execute(1, &identity_views_job(4, 5), &CancelToken::inert());
        assert_eq!(r.outcome, JobOutcome::NoCounterexample { nodes: 1 });
        let cert = cqfd_cert::parse(r.certificate.as_deref().unwrap()).unwrap();
        let Certificate::NonHomRefutation { what, bound, .. } = &cert else {
            panic!("expected an attestation, got {cert:?}");
        };
        assert_eq!(*bound, 1);
        assert!(what.ends_with("over ≤ 1 nodes"), "{what}");
        assert!(cqfd_cert::check(&cert).is_ok());

        // Thirteen: 26 slots over one node, so nothing is searched at all
        // and there is no bound to attest.
        let r = execute(2, &identity_views_job(13, 3), &CancelToken::inert());
        let JobOutcome::Error { message } = &r.outcome else {
            panic!("expected an error, got {:?}", r.outcome);
        };
        assert!(message.contains("nothing was searched"), "{message}");
        assert!(r.certificate.is_none());
    }

    #[test]
    fn counterexample_jobs_attach_certificates_both_ways() {
        // The projection instance has a 2-node counter-example; the
        // identity view has none.
        let inst = cqfd_greenred::instances::projection_instance();
        let found = Job::CounterexampleSearch {
            sig: inst.sig,
            views: inst.views,
            q0: inst.q0,
            budget: JobBudget::default().with_certificate(true),
        };
        let r = execute(1, &found, &CancelToken::inert());
        assert!(matches!(r.outcome, JobOutcome::CounterexampleFound { .. }));
        let cert = cqfd_cert::parse(r.certificate.as_deref().unwrap()).unwrap();
        assert_eq!(cert.kind(), "finite-model");
        assert!(cqfd_cert::check(&cert).is_ok());

        let sig = sig_r();
        let views = vec![Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap()];
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let none = Job::CounterexampleSearch {
            sig,
            views,
            q0,
            budget: JobBudget::default()
                .with_search_nodes(2)
                .with_certificate(true),
        };
        let r = execute(2, &none, &CancelToken::inert());
        assert!(matches!(r.outcome, JobOutcome::NoCounterexample { .. }));
        let cert = cqfd_cert::parse(r.certificate.as_deref().unwrap()).unwrap();
        assert_eq!(cert.kind(), "non-hom-refutation");
        let report = cqfd_cert::check(&cert).unwrap();
        assert!(
            report.attestation,
            "refutations are flagged as attestations"
        );
    }

    #[test]
    fn lint_flag_attaches_report_and_run_stamps_termination() {
        let sig = sig_r();
        let views = vec![Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap()];
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let job = Job::Determine {
            sig,
            views,
            q0,
            budget: JobBudget::default().with_lint(true),
        };
        let r = execute(1, &job, &CancelToken::inert());
        let lint = r.lint.as_deref().expect("lint=1 attaches a report");
        assert!(lint.starts_with("cqfd-lint v1\n"), "{lint}");
        assert!(lint.trim_end().ends_with("end"), "{lint}");
        assert!(
            r.metrics.termination.is_some(),
            "chase jobs stamp the termination verdict"
        );
        let head = r.render_protocol();
        let head = head.lines().next().unwrap();
        assert!(head.contains("lint_lines="), "{head}");
        assert!(head.contains("termination="), "{head}");
    }

    #[test]
    fn no_certificate_without_the_flag() {
        let job = Job::Creep {
            delta: halting_worm_short(),
            budget: JobBudget::default(),
        };
        let r = execute(1, &job, &CancelToken::inert());
        assert!(r.certificate.is_none());
    }

    /// Tentpole regression: the canonical job hash separates dispatch
    /// modes for both determinacy kinds — `auto` can answer questions
    /// `semi` cannot, so their results must never be served for one
    /// another — and is invariant under everything else staying fixed.
    #[test]
    fn job_key_separates_dispatch_modes() {
        use cqfd_analysis::Fragment;
        let mk = |dispatch: Dispatch| {
            let inst = cqfd_greenred::instances::projection_instance();
            Job::Determine {
                sig: inst.sig,
                views: inst.views,
                q0: inst.q0,
                budget: JobBudget::default().with_dispatch(dispatch),
            }
        };
        let auto = job_key(&mk(Dispatch::Auto)).unwrap();
        let semi = job_key(&mk(Dispatch::Semi)).unwrap();
        let forced = job_key(&mk(Dispatch::Forced(Fragment::ProjectSelect))).unwrap();
        assert_ne!(auto.hash, semi.hash);
        assert_ne!(auto.hash, forced.hash);
        assert_ne!(semi.hash, forced.hash);
        assert_eq!(auto.hash, job_key(&mk(Dispatch::Auto)).unwrap().hash);
        let mk_cx = |dispatch: Dispatch| {
            let inst = cqfd_greenred::instances::projection_instance();
            Job::CounterexampleSearch {
                sig: inst.sig,
                views: inst.views,
                q0: inst.q0,
                budget: JobBudget::default().with_dispatch(dispatch),
            }
        };
        assert_ne!(
            job_key(&mk_cx(Dispatch::Auto)).unwrap().hash,
            job_key(&mk_cx(Dispatch::Semi)).unwrap().hash
        );
    }

    /// Tentpole: `auto` stamps the fragment and the route it took, and on
    /// routed fragments the chase verdict survives the independent
    /// cross-check (psv / divisibility).
    #[test]
    fn auto_dispatch_stamps_fragment_and_route() {
        let cases = [
            ("projection", "A300", "psv", "not-determined"),
            ("path:1x3", "A300", "psv", "determined"),
            ("path:2x3", "A302", "spider", "determined"),
            ("mismatch:2x3", "A302", "spider", "not-determined"),
        ];
        for (inst, fragment, route, verdict) in cases {
            let job = crate::parse_job(&format!("determine instance={inst}"))
                .unwrap()
                .unwrap();
            let r = execute(1, &job, &CancelToken::inert());
            assert_eq!(r.outcome.verdict(), verdict, "{inst}");
            assert_eq!(r.metrics.fragment, Some(fragment), "{inst}");
            assert_eq!(r.metrics.route, Some(route), "{inst}");
        }
        // `semi` stamps the (identical) fragment but routes nothing.
        let job = crate::parse_job("determine instance=path:2x3 dispatch=semi")
            .unwrap()
            .unwrap();
        let r = execute(1, &job, &CancelToken::inert());
        assert_eq!(r.metrics.fragment, Some("A302"));
        assert_eq!(r.metrics.route, Some("semi"));
    }

    /// Criterion: a definite verdict `semi` cannot reach. Under the
    /// default stage budget of 1 the mismatched-path chase is cut short
    /// (`unknown`); `auto` recognizes the spider fragment, lifts the
    /// stage cap (the fixpoint provably exists), and answers definitely —
    /// double-checked by the divisibility criterion.
    #[test]
    fn spider_route_upgrades_unknown_to_definite() {
        let mk = |dispatch| {
            let inst = cqfd_greenred::instances::mismatched_path_instance(2, 5);
            Job::Determine {
                sig: inst.sig,
                views: inst.views,
                q0: inst.q0,
                budget: JobBudget::default().with_stages(1).with_dispatch(dispatch),
            }
        };
        let semi = execute(1, &mk(Dispatch::Semi), &CancelToken::inert());
        assert_eq!(semi.outcome, JobOutcome::Unknown { stages: 1 });
        let auto = execute(2, &mk(Dispatch::Auto), &CancelToken::inert());
        assert_eq!(auto.outcome, JobOutcome::NotDetermined { stages: 3 });
        assert_eq!(auto.metrics.route, Some("spider"));
    }

    /// Criterion: the chase-model route converts an inconclusive
    /// counterexample search into a definite, cert-checked verdict. The
    /// minimal counter-model for the 3-path vs 4-path instance has 3
    /// nodes, so brute force capped at 2 nodes exhausts without refuting;
    /// the chase fixpoint *is* a finite counter-model regardless of the
    /// node cap, extracted in milliseconds. (`mismatch:5x7` is the same
    /// story at the *default* cap — its minimal counter-model needs more
    /// than 3 nodes and ~2.7e7 hom checks to rule out — but that takes
    /// seconds of enumeration even in release, so CI and the dispatch
    /// bench carry it instead of this unit test.)
    #[test]
    fn chase_model_route_converts_inconclusive_counterexample() {
        let mk = |dispatch| {
            let inst = cqfd_greenred::instances::mismatched_path_instance(3, 4);
            Job::CounterexampleSearch {
                sig: inst.sig,
                views: inst.views,
                q0: inst.q0,
                budget: JobBudget::default()
                    .with_certificate(true)
                    .with_search_nodes(2)
                    .with_dispatch(dispatch),
            }
        };
        let auto = execute(1, &mk(Dispatch::Auto), &CancelToken::inert());
        let JobOutcome::CounterexampleFound { atoms } = auto.outcome else {
            panic!("auto finds the chase counter-model: {:?}", auto.outcome);
        };
        assert!(atoms > 0);
        assert_eq!(auto.metrics.route, Some("chase-model"));
        assert_eq!(auto.metrics.fragment, Some("A302"));
        let cert = cqfd_cert::parse(auto.certificate.as_deref().unwrap()).unwrap();
        assert_eq!(cert.kind(), "finite-model");
        assert!(cqfd_cert::check(&cert).is_ok(), "trusted checker passes");
        let semi = execute(2, &mk(Dispatch::Semi), &CancelToken::inert());
        assert_eq!(
            semi.outcome,
            JobOutcome::NoCounterexample { nodes: 2 },
            "semi's bounded enumeration stays inconclusive"
        );
        assert_eq!(semi.metrics.route, Some("semi"));
    }

    #[test]
    fn forced_dispatch_asserts_the_classification() {
        use cqfd_analysis::Fragment;
        let inst = cqfd_greenred::instances::projection_instance();
        let mk = |f| Job::Determine {
            sig: inst.sig.clone(),
            views: inst.views.clone(),
            q0: inst.q0.clone(),
            budget: JobBudget::default().with_dispatch(Dispatch::Forced(f)),
        };
        // Matching assertion: runs like auto.
        let ok = execute(1, &mk(Fragment::ProjectSelect), &CancelToken::inert());
        assert_eq!(ok.outcome.verdict(), "not-determined");
        assert_eq!(ok.metrics.route, Some("psv"));
        // Mismatch: fails before the chase.
        let bad = execute(2, &mk(Fragment::WeaklyAcyclic), &CancelToken::inert());
        let JobOutcome::Error { message } = &bad.outcome else {
            panic!("expected an error, got {:?}", bad.outcome);
        };
        assert!(message.contains("forced:A301"), "{message}");
        assert!(message.contains("A300"), "{message}");
        assert_eq!(bad.metrics.stages, 0, "no chase ran");
    }

    /// `auto` and `semi` agree byte-for-byte on every definite verdict of
    /// the built-in determine families, modulo the stamps differential
    /// harnesses strip: `route=` (names the procedure that ran) and
    /// `homs=`/`elapsed_ms=` (the independent cross-check spends its own
    /// hom-search nodes).
    #[test]
    fn auto_and_semi_determine_lines_agree_modulo_route() {
        for inst in ["projection", "path:1x3", "path:2x3", "mismatch:2x3"] {
            let run = |dispatch: &str| {
                let job =
                    crate::parse_job(&format!("determine instance={inst} dispatch={dispatch}"))
                        .unwrap()
                        .unwrap();
                let mut r = execute(1, &job, &CancelToken::inert());
                r.metrics.elapsed = Duration::ZERO;
                r.metrics.homs = 0;
                r.metrics.route = None;
                r.to_string()
            };
            assert_eq!(run("auto"), run("semi"), "{inst}");
        }
    }

    #[test]
    fn determine_with_deadline_reports_budget_exceeded() {
        // Composed-view instance whose chase diverges: with an immediate
        // deadline the oracle must stop as budget-exceeded, not Unknown.
        let sig = sig_r();
        let views = vec![Cq::parse(&sig, "V(x,z) :- R(x,y), R(y,z)").unwrap()];
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let job = Job::Determine {
            sig,
            views,
            q0,
            budget: JobBudget::default()
                .with_stages(usize::MAX)
                .with_timeout(Duration::ZERO),
        };
        let r = execute(1, &job, &CancelToken::inert());
        assert_eq!(
            r.outcome,
            JobOutcome::BudgetExceeded {
                detail: "deadline".into()
            }
        );
    }
}
