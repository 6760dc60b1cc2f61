//! `cqfd` — command-line interface to the determinacy toolbox.
//!
//! ```text
//! cqfd determine --sig R/2,S/2 --view "V(x,y) :- R(x,y)" --query "Q0(x,y) :- R(x,y)"
//! cqfd rewrite   --sig R/2    --view "V(x,z) :- R(x,y), R(y,z)" --query "Q0(a,e) :- R(a,b), R(b,c), R(c,d), R(d,e)"
//! cqfd creep     --worm counter:3 --steps 100000
//! cqfd reduce    --worm forever
//! cqfd separate
//! cqfd batch     jobs.txt --workers 4
//! cqfd serve     --listen 127.0.0.1:7878
//! ```

use cqfd::chase::ChaseBudget;
use cqfd::core::CancelToken;
use cqfd::core::{Cq, HomEngine, Signature};
use cqfd::greenred::{
    cq_rewriting, search_counterexample_within, DeterminacyOracle, SearchOutcome, Verdict,
};
use cqfd::rainworm::encode::tm_to_rainworm;
use cqfd::rainworm::families::{counter_worm, forever_worm, halting_worm_short};
use cqfd::rainworm::run::{creep, trace, CreepOutcome};
use cqfd::rainworm::tm::TuringMachine;
use cqfd::rainworm::Delta;
use cqfd::reduction::reduce;
use cqfd::service::{
    execute_stored, parse_jobs, Dispatch, Job, JobBudget, Pool, PoolConfig, Server,
};
use cqfd::store::Store;
use cqfd_obs::Stopwatch;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "determine" => determine(rest, false),
        "rewrite" => determine(rest, true),
        "creep" => creep_cmd(rest),
        "reduce" => reduce_cmd(rest),
        "separate" => separate_cmd(rest),
        "lint" => lint_cmd(rest),
        "certify" => certify_cmd(rest),
        "check" => check_cmd(rest),
        "batch" => batch_cmd(rest),
        "serve" => serve_cmd(rest),
        "metrics" => metrics_cmd(rest),
        "profile" => profile_cmd(rest),
        "flight" => flight_cmd(rest),
        "store" => store_cmd(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "cqfd — conjunctive-query determinacy toolbox

USAGE:
  cqfd determine --sig <P/k,...> --view <CQ> [--view <CQ> ...] --query <CQ>
                 [--stages <n>] [--search-nodes <n>] [--threads <n>]
                 [--store <dir>] [--hom-engine <legacy|wco>]
                 [--dispatch <semi|auto|forced:A3xx>]
  cqfd rewrite   --sig <P/k,...> --view <CQ> ... --query <CQ>
  cqfd creep     --worm <forever|short|counter:M|tm-walker:K|tm-zigzag:K|file:PATH>
                 [--steps <n>] [--trace <n>]  [--emit]
  cqfd reduce    --worm <...>
  cqfd separate  [--stages <n>] [--threads <n>] [--store <dir>]
                 [--hom-engine <legacy|wco>]
  cqfd lint      <rules-file | theorem14 | worm:SPEC | JOB-LINE> [--json]
                 (static analysis: chase-termination verdict, safety and
                  signature diagnostics; nonzero exit on error diagnostics.
                  A job line, e.g. 'determine instance=path:2x3', lints
                  the job's reconstructed rule set; determinacy jobs also
                  get the fragment verdict — A300/A301/A302/A399 — naming
                  the decision procedure `auto` dispatch routes them to)
  cqfd certify   <determine|separate|creep|countermodel> [per-kind flags]
                 [--out <file>]   (emit a machine-checkable certificate)
  cqfd check     <file>           (validate a certificate; nonzero on reject)
  cqfd batch     <jobs-file> [--workers <n>] [--queue <n>] [--threads <n>]
                 [--store <dir>] [--hom-engine <legacy|wco>]
                 [--dispatch <semi|auto|forced:A3xx>]
  cqfd serve     --listen <addr> [--workers <n>] [--queue <n>] [--store <dir>]
                 [--gateway] [--http-listen <addr>] [--lane-cap <n>]
                 [--tenant-quota <tenant:rate:burst> ...]
                 [--default-quota <rate:burst>]
                 (any gateway flag switches from the thread-per-connection
                  server to the epoll reactor: line protocol on --listen,
                  HTTP/JSON on --http-listen, token-bucket admission
                  control per tenant, overload shedding with retry-after)
  cqfd metrics   [--connect <addr>] [<jobs-file>]
                 (Prometheus text: scrape a running server, or run the
                  jobs locally first and dump this process's registry)
  cqfd profile   [--seconds <n>] [--hz <n>] [--connect <addr>] [<jobs-file>]
                 (sampling profiler + cost attribution: with --connect,
                  open a sampling window on a running server and print its
                  folded stacks; otherwise drive a local workload — the
                  Theorem 14 separating chase by default, or a jobs file —
                  under the sampler and print folded stacks plus the
                  per-rule cost-attribution report)
  cqfd flight    [--connect <addr>] [--max-lines <n>] [<jobs-file>]
                 (dump the black-box flight ring as JSONL: the newest
                  trace records from a running server, or from a local
                  jobs-file run)
  cqfd store     <stat|verify|gc> <dir> [--max-bytes <n>]
                 (inspect, re-validate, or clean a result store; `verify`
                  exits nonzero when any entry fails the checker; gc with
                  --max-bytes also evicts least-recently-hit entries until
                  the objects fit the byte budget)

`--threads <n>` fans chase enumeration out over n worker threads; output
is byte-identical at every setting (see README, Performance).
`--hom-engine <legacy|wco>` picks the homomorphism search engine: `wco`
(the default) runs the worst-case-optimal enumerator over the columnar
indexes, `legacy` the backtracking planner; both produce byte-identical
verdicts and certificates (see README, Performance).
`--dispatch <mode>` picks the fragment-dispatch mode for determinacy
jobs: `auto` (the default) classifies the rule set and routes decidable
fragments — project-select views (A300), weakly acyclic sets (A301),
spider paths (A302) — to complete decision procedures, cross-checked
against the chase; `semi` forces the plain semi-decision chase; and
`forced:A3xx` asserts a fragment, failing the job if the classifier
disagrees (see README, Fragment dispatch).
`--store <dir>` enables the persistent result cache: conclusive verdicts
are written back with their certificates, and later identical jobs are
served from disk after the trusted checker re-validates the entry (the
result line then carries `cached=1`; `cache=0` on a job line opts out,
`resume=1` adds a write-ahead stage log — see README, Persistence).

CQ syntax: `Name(x,y) :- R(x,z), S(z,y)`; constants as `#c`.
Job-file syntax: one job per line, e.g. `determine instance=path:2x3`;
see the cqfd-service docs (`cqfd::service::proto`).";

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["--emit", "--json", "--gateway"];

/// Rejects flags outside `allowed` (and double-dash tokens in value
/// position are fine: `--view --weird` treats `--weird` as the value).
fn check_flags(args: &[String], allowed: &[&str]) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            if !allowed.contains(&a) {
                return Err(format!(
                    "unknown flag `{a}` (allowed: {})",
                    allowed.join(", ")
                ));
            }
            i += if BOOLEAN_FLAGS.contains(&a) { 1 } else { 2 };
        } else {
            i += 1;
        }
    }
    Ok(())
}

fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            if let Some(v) = args.get(i + 1) {
                out.push(v.as_str());
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    flag_values(args, name).into_iter().next()
}

/// Whether a boolean flag (no value) is present.
fn flag_present(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Positional (non-flag) arguments, skipping each value flag's value.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if a.starts_with("--") {
            i += if BOOLEAN_FLAGS.contains(&a) { 1 } else { 2 };
        } else {
            out.push(a);
            i += 1;
        }
    }
    out
}

/// The `--threads` flag: chase enumeration worker threads (default 1).
/// Zero is rejected — a chase always runs on at least one thread.
fn threads_flag(args: &[String]) -> Result<usize, String> {
    match flag(args, "--threads") {
        None => Ok(1),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("bad --threads `{v}` (want a positive integer)")),
        },
    }
}

/// The `--hom-engine` flag: the homomorphism search engine for chase
/// work (default: the worst-case-optimal engine; `legacy` selects the
/// backtracking planner for differential testing).
fn hom_engine_flag(args: &[String]) -> Result<HomEngine, String> {
    match flag(args, "--hom-engine") {
        None => Ok(HomEngine::default()),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --hom-engine `{v}` (want legacy | wco)")),
    }
}

/// The `--dispatch` flag: the fragment-dispatch mode for determinacy
/// jobs — `None` when absent (the job's own default applies).
fn dispatch_flag(args: &[String]) -> Result<Option<Dispatch>, String> {
    match flag(args, "--dispatch") {
        None => Ok(None),
        Some(v) => Dispatch::parse(v)
            .map(Some)
            .ok_or_else(|| format!("bad --dispatch `{v}` (want semi | auto | forced:A3xx)")),
    }
}

/// The `--store <dir>` flag: opens (creating if needed) the persistent
/// result store, or `None` when the flag is absent.
fn open_store(args: &[String]) -> Result<Option<Store>, String> {
    match flag(args, "--store") {
        None => Ok(None),
        Some(dir) => Store::open(dir)
            .map(Some)
            .map_err(|e| format!("--store {dir}: {e}")),
    }
}

fn parse_sig(spec: &str) -> Result<Signature, String> {
    let mut sig = Signature::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, arity) = part
            .split_once('/')
            .ok_or_else(|| format!("bad predicate spec `{part}` (want Name/arity)"))?;
        let arity: usize = arity
            .parse()
            .map_err(|_| format!("bad arity in `{part}`"))?;
        sig.try_add_predicate(name.trim(), arity)
            .map_err(|e| e.to_string())?;
    }
    Ok(sig)
}

fn determine(args: &[String], rewriting_mode: bool) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--sig",
            "--view",
            "--query",
            "--stages",
            "--search-nodes",
            "--threads",
            "--store",
            "--hom-engine",
            "--dispatch",
        ],
    )?;
    if rewriting_mode && flag(args, "--store").is_some() {
        return Err("`rewrite` results are not cacheable; drop --store".into());
    }
    let sig = parse_sig(flag(args, "--sig").ok_or("missing --sig")?)?;
    let views: Vec<Cq> = flag_values(args, "--view")
        .into_iter()
        .map(|v| Cq::parse(&sig, v).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if views.is_empty() {
        return Err("at least one --view required".into());
    }
    let q0 = Cq::parse(&sig, flag(args, "--query").ok_or("missing --query")?)
        .map_err(|e| e.to_string())?;

    if rewriting_mode {
        let arc = Arc::new(sig);
        return match cq_rewriting(&arc, &views, &q0) {
            Some(rw) => {
                println!("CQ rewriting exists:");
                println!("  {}", rw.query.display_with(&rw.view_signature));
                println!("(a CQ rewriting implies finite and unrestricted determinacy)");
                Ok(())
            }
            None => {
                println!("no CQ rewriting exists (determinacy may still hold — try `determine`)");
                Ok(())
            }
        };
    }

    let stages: usize = flag(args, "--stages").map_or(Ok(32), |s| {
        s.parse().map_err(|_| "bad --stages".to_string())
    })?;
    let search_nodes: usize = flag(args, "--search-nodes").map_or(Ok(3), |s| {
        s.parse().map_err(|_| "bad --search-nodes".to_string())
    })?;
    let threads = threads_flag(args)?;
    let hom_engine = hom_engine_flag(args)?;
    let dispatch = dispatch_flag(args)?;
    let store = open_store(args)?;
    if store.is_some() || dispatch.is_some() {
        // Route through the service executor so the run shares the cache
        // lookup/write-back path — and the fragment dispatcher — of
        // `batch` and `serve`; the result is the one-line protocol
        // rendering (with `fragment=`/`route=` stamps, `cached=1` on a
        // hit).
        let job = Job::Determine {
            sig,
            views,
            q0,
            budget: JobBudget::default()
                .with_stages(stages)
                .with_search_nodes(search_nodes)
                .with_threads(threads)
                .with_hom_engine(hom_engine)
                .with_dispatch(dispatch.unwrap_or_default()),
        };
        let result = execute_stored(0, &job, &CancelToken::new(), threads, store.as_ref(), true);
        println!("{}", result.render_protocol());
        return Ok(());
    }
    let oracle = DeterminacyOracle::new(sig);
    let cr = oracle.certify_run(
        &views,
        &q0,
        &ChaseBudget::stages(stages)
            .with_threads(threads)
            .with_hom_engine(hom_engine),
    );
    let run = &cr.run;
    match cr.verdict {
        Verdict::Determined { stage } => {
            println!("DETERMINED — chase certificate at stage {stage}");
            println!("(unrestricted determinacy, hence finite determinacy too)");
        }
        Verdict::NotDeterminedUnrestricted { stages } => {
            println!("NOT determined (unrestricted) — chase fixpoint after {stages} stages");
            match search_counterexample_within(&oracle, &views, &q0, search_nodes) {
                SearchOutcome::Found(d) => {
                    println!("finite counter-example ({} atoms over Σ̄):", d.atom_count());
                    print!("{d}");
                }
                SearchOutcome::Exhausted { nodes } => println!(
                    "no finite counter-example with ≤ {nodes} nodes (finite \
                     determinacy could still hold — see Theorem 14)"
                ),
            }
        }
        Verdict::Unknown { stages } => {
            println!("UNKNOWN — chase still running after {stages} stages");
            println!("(CQ finite determinacy is undecidable — Theorem 1)");
        }
    }
    println!(
        "metrics: stages={} triggers={} homs={} peak_atoms={} elapsed_ms={:.1}",
        run.stage_count(),
        run.triggers_fired(),
        run.hom_nodes,
        run.structure.atom_count(),
        run.elapsed.as_secs_f64() * 1e3
    );
    Ok(())
}

fn parse_worm(spec: &str) -> Result<Delta, String> {
    if let Some(path) = spec.strip_prefix("file:") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        return cqfd::rainworm::parse::parse_delta(&text);
    }
    if let Some(m) = spec.strip_prefix("counter:") {
        let m: u16 = m.parse().map_err(|_| "bad counter parameter")?;
        return Ok(counter_worm(m));
    }
    if let Some(k) = spec.strip_prefix("tm-walker:") {
        let k: u16 = k.parse().map_err(|_| "bad walker parameter")?;
        return Ok(tm_to_rainworm(&TuringMachine::right_walker(k)));
    }
    if let Some(k) = spec.strip_prefix("tm-zigzag:") {
        let k: u16 = k.parse().map_err(|_| "bad zigzag parameter")?;
        return Ok(tm_to_rainworm(&TuringMachine::zigzag(k)));
    }
    match spec {
        "forever" => Ok(forever_worm()),
        "short" => Ok(halting_worm_short()),
        other => Err(format!("unknown worm `{other}`")),
    }
}

fn creep_cmd(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--worm", "--steps", "--trace", "--emit"])?;
    let delta = parse_worm(flag(args, "--worm").ok_or("missing --worm")?)?;
    if args.iter().any(|a| a == "--emit") {
        print!("{}", cqfd::rainworm::parse::render_delta(&delta));
        return Ok(());
    }
    let steps: usize = flag(args, "--steps").map_or(Ok(100_000), |s| {
        s.parse().map_err(|_| "bad --steps".to_string())
    })?;
    if let Some(t) = flag(args, "--trace") {
        let t: usize = t.parse().map_err(|_| "bad --trace")?;
        for (k, c) in trace(&delta, t).iter().enumerate() {
            println!("{k:>4}: {c}");
        }
        return Ok(());
    }
    let clock = Stopwatch::start();
    let outcome = creep(&delta, steps);
    let elapsed_ms = clock.elapsed().as_secs_f64() * 1e3;
    match outcome {
        CreepOutcome::Halted {
            steps,
            final_config,
        } => {
            println!("HALTED after k_M = {steps} steps");
            println!("u_M = {final_config}");
            println!("slime trail: {} symbols", final_config.slime().len());
            println!("metrics: steps={steps} elapsed_ms={elapsed_ms:.1}");
        }
        CreepOutcome::StillCreeping { steps, config } => {
            println!("still creeping after {steps} steps");
            println!(
                "current length {}, slime {}",
                config.len(),
                config.slime().len()
            );
            println!("metrics: steps={steps} elapsed_ms={elapsed_ms:.1}");
        }
    }
    Ok(())
}

fn reduce_cmd(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--worm"])?;
    let delta = parse_worm(flag(args, "--worm").ok_or("missing --worm")?)?;
    let inst = reduce(&delta);
    let s = &inst.stats;
    println!("∆: {} instructions", delta.len());
    println!("T_M∆ ∪ T□: {} green-graph rules", s.l2_rules);
    println!("Precompile: {} swarm rules", s.l1_rules);
    println!(
        "Compile:    {} conjunctive queries over Σ ({} predicates)",
        s.queries, s.sigma_preds
    );
    println!(
        "spider parameter s = {}, total body atoms = {}",
        s.s, s.total_atoms
    );
    println!("Q0 = ∃*dalt(I): {} atoms", inst.q0.body.len());
    println!();
    println!("Q finitely determines Q0  ⇔  the worm creeps forever.");
    Ok(())
}

fn separate_cmd(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--stages", "--threads", "--store", "--hom-engine"])?;
    use cqfd::separating::theorem14::{
        chase_from_di_with, chase_from_lasso_with, separating_budget,
    };
    let stages: usize = flag(args, "--stages").map_or(Ok(80), |s| {
        s.parse().map_err(|_| "bad --stages".to_string())
    })?;
    let threads = threads_flag(args)?;
    let hom_engine = hom_engine_flag(args)?;
    if let Some(store) = open_store(args)? {
        let job = Job::Separate {
            budget: JobBudget::default()
                .with_stages(stages)
                .with_threads(threads)
                .with_hom_engine(hom_engine),
        };
        let result = execute_stored(0, &job, &CancelToken::new(), threads, Some(&store), true);
        println!("{}", result.render_protocol());
        return Ok(());
    }
    let (_, run, found) = chase_from_di_with(
        &separating_budget(stages.min(10))
            .with_threads(threads)
            .with_hom_engine(hom_engine),
    );
    println!(
        "chase(T, DI): {} stages, 1-2 pattern: {found}",
        run.stage_count()
    );
    let (_, run, found) = chase_from_lasso_with(
        3,
        1,
        &separating_budget(stages)
            .with_threads(threads)
            .with_hom_engine(hom_engine),
    );
    println!(
        "chase(T, lasso(3,1)): 1-2 pattern: {found} after {} stages",
        run.stage_count()
    );
    println!();
    println!("T does not lead to the red spider, but finitely leads to it (Theorem 14):");
    println!("Compile(Precompile(T)) finitely determines ∃*dalt(I) without determining it.");
    Ok(())
}

/// `cqfd lint <target> [--json]` — run the static analyses over a rule
/// set and exit nonzero when the report carries error-severity
/// diagnostics. Targets: a rules-file path (`sig`/`tgd`/`cq` lines, see
/// `cqfd::analysis::parse_rules`), `theorem14` (the separating rules of
/// §VII), or `worm:SPEC` (the instruction-set lints over any worm the
/// `creep` command accepts, including `file:PATH`).
fn lint_cmd(args: &[String]) -> Result<(), String> {
    use cqfd::analysis::{analyze_delta, analyze_tgds, lint_text};
    check_flags(args, &["--json"])?;
    let pos = positionals(args);
    let [target] = pos.as_slice() else {
        return Err("lint takes exactly one target: <rules-file> | theorem14 | worm:SPEC".into());
    };
    // A job line (`determine instance=path:2x3 …`) lints the job's
    // reconstructed rule set; determinacy-shaped jobs additionally get
    // the fragment verdict (A3xx) naming the decision procedure `auto`
    // dispatch would route them to.
    let job_kinds = [
        "determine",
        "rewrite",
        "counterexample",
        "creep",
        "reduce",
        "separate",
    ];
    let first_word = target.split_whitespace().next().unwrap_or("");
    let report = if job_kinds.contains(&first_word) {
        let job = cqfd::service::parse_job(target)?.expect("non-blank job line");
        cqfd::service::lint_job(&job)
    } else if *target == "theorem14" {
        let space = cqfd::separating::theorem14::separating_space();
        let tgds = cqfd::separating::theorem14::t_separating().tgds(&space);
        analyze_tgds(space.signature(), &tgds)
    } else if let Some(spec) = target.strip_prefix("worm:") {
        analyze_delta(&parse_worm(spec)?)
    } else {
        let text = std::fs::read_to_string(target).map_err(|e| format!("{target}: {e}"))?;
        lint_text(&text)
    };
    if args.iter().any(|a| a == "--json") {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    let errors = report.error_count();
    if errors > 0 {
        return Err(format!(
            "lint: {errors} error diagnostic{} in `{target}`",
            if errors == 1 { "" } else { "s" }
        ));
    }
    Ok(())
}

/// Writes a certificate to `--out <file>` (or stdout), with a one-line
/// summary on stderr so piping stdout stays clean.
fn write_certificate(args: &[String], cert: &cqfd::cert::Certificate) -> Result<(), String> {
    let text = cqfd::cert::encode(cert);
    match flag(args, "--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {} certificate ({} lines) to {path}",
                cert.kind(),
                text.lines().count()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn certify_cmd(args: &[String]) -> Result<(), String> {
    let pos = positionals(args);
    let [what, tail @ ..] = pos.as_slice() else {
        return Err("certify takes a kind: determine | separate | creep | countermodel".into());
    };
    if !tail.is_empty() {
        return Err(format!("unexpected argument `{}`", tail[0]));
    }
    let cert = match *what {
        "determine" => {
            check_flags(args, &["--sig", "--view", "--query", "--stages", "--out"])?;
            let sig = parse_sig(flag(args, "--sig").ok_or("missing --sig")?)?;
            let views: Vec<Cq> = flag_values(args, "--view")
                .into_iter()
                .map(|v| Cq::parse(&sig, v).map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?;
            if views.is_empty() {
                return Err("at least one --view required".into());
            }
            let q0 = Cq::parse(&sig, flag(args, "--query").ok_or("missing --query")?)
                .map_err(|e| e.to_string())?;
            let stages: usize = flag(args, "--stages").map_or(Ok(32), |s| {
                s.parse().map_err(|_| "bad --stages".to_string())
            })?;
            let oracle = DeterminacyOracle::new(sig);
            let cr = oracle.certify_run(&views, &q0, &ChaseBudget::stages(stages));
            eprintln!("verdict: {:?}", cr.verdict);
            cr.certificate
        }
        "separate" => {
            check_flags(args, &["--stages", "--out"])?;
            let stages: usize = flag(args, "--stages").map_or(Ok(80), |s| {
                s.parse().map_err(|_| "bad --stages".to_string())
            })?;
            cqfd::separating::theorem14::separation_certificate(stages)
                .ok_or("the 1-2 pattern did not emerge — raise --stages (60 suffices)")?
        }
        "creep" => {
            check_flags(args, &["--worm", "--steps", "--out"])?;
            let delta = parse_worm(flag(args, "--worm").ok_or("missing --worm")?)?;
            let steps: usize = flag(args, "--steps").map_or(Ok(100_000), |s| {
                s.parse().map_err(|_| "bad --steps".to_string())
            })?;
            cqfd::cert::emit::creep_certificate(&delta, steps, (steps / 64).max(1))
        }
        "countermodel" => {
            check_flags(args, &["--worm", "--steps", "--out"])?;
            let delta = parse_worm(flag(args, "--worm").ok_or("missing --worm")?)?;
            let steps: usize = flag(args, "--steps").map_or(Ok(100_000), |s| {
                s.parse().map_err(|_| "bad --steps".to_string())
            })?;
            let grid = cqfd::separating::grid::t_square();
            let cm = cqfd::rainworm::countermodel::build_countermodel(&delta, &grid, steps)
                .map_err(|e| format!("worm did not halt within {} steps: {e}", steps))?;
            eprintln!(
                "counter-model M̂: k_M = {}, |M̂| = {} nodes",
                cm.k_m,
                cm.m_hat.structure().node_count()
            );
            cqfd::cert::emit::countermodel_certificate(&delta, &grid, &cm)
        }
        other => {
            return Err(format!(
                "unknown certify kind `{other}` (want determine | separate | creep | countermodel)"
            ))
        }
    };
    write_certificate(args, &cert)
}

fn check_cmd(args: &[String]) -> Result<(), String> {
    check_flags(args, &[])?;
    let pos = positionals(args);
    let [path] = pos.as_slice() else {
        return Err("check takes exactly one <certificate-file>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let cert = cqfd::cert::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let report = cqfd::cert::check(&cert).map_err(|e| format!("REJECTED: {e}"))?;
    println!(
        "OK: {} certificate{} — {} ({} steps checked)",
        report.kind,
        if report.attestation {
            " (attestation — records a bounded search, proves no theorem)"
        } else {
            ""
        },
        report.summary,
        report.steps
    );
    Ok(())
}

/// Builds a pool from `--workers`/`--queue`/`--store` flags.
fn pool_config(args: &[String]) -> Result<PoolConfig, String> {
    let mut cfg = PoolConfig::default();
    if let Some(w) = flag(args, "--workers") {
        cfg = cfg.with_workers(w.parse().map_err(|_| "bad --workers".to_string())?);
    }
    if let Some(q) = flag(args, "--queue") {
        cfg = cfg.with_queue_capacity(q.parse().map_err(|_| "bad --queue".to_string())?);
    }
    if let Some(store) = open_store(args)? {
        cfg = cfg.with_store(Arc::new(store));
    }
    Ok(cfg)
}

fn batch_cmd(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--workers",
            "--queue",
            "--threads",
            "--store",
            "--hom-engine",
            "--dispatch",
        ],
    )?;
    let pos = positionals(args);
    let [path] = pos.as_slice() else {
        return Err("batch takes exactly one <jobs-file>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut jobs = parse_jobs(&text)?;
    if jobs.is_empty() {
        return Err("no jobs in file".into());
    }
    // `--threads` overrides every parsed job's budget, so one flag drives
    // a whole jobs file (jobs without a budget, e.g. `rewrite`, are left
    // alone). Per-line `threads=` keys are overwritten deliberately.
    if flag(args, "--threads").is_some() {
        let threads = threads_flag(args)?;
        for j in &mut jobs {
            if let Some(b) = j.budget_mut() {
                b.threads = threads;
            }
        }
    }
    // `--hom-engine` likewise overrides per-line `hom=` keys, so a whole
    // jobs file can be re-run under the other engine for differential
    // testing without editing it.
    if flag(args, "--hom-engine").is_some() {
        let hom_engine = hom_engine_flag(args)?;
        for j in &mut jobs {
            if let Some(b) = j.budget_mut() {
                b.hom_engine = hom_engine;
            }
        }
    }
    // `--dispatch` likewise overrides per-line `dispatch=` keys, so a
    // whole jobs file can be byte-diffed between routing modes (strip the
    // `route=` stamp, which names the procedure that ran).
    if let Some(dispatch) = dispatch_flag(args)? {
        for j in &mut jobs {
            if let Some(b) = j.budget_mut() {
                b.dispatch = dispatch;
            }
        }
    }
    // Same static-analysis gate as the TCP server: refuse to pool a job
    // whose rule set lints with error-severity diagnostics.
    for (i, job) in jobs.iter().enumerate() {
        if let Some(d) = cqfd::service::lint_job(job).first_error() {
            return Err(format!(
                "job {} ({}): lint: {}",
                i + 1,
                job.kind(),
                d.render_human()
            ));
        }
    }
    let cfg = pool_config(args)?;
    eprintln!("{} jobs on {} workers", jobs.len(), cfg.workers);
    let pool = Pool::new(cfg);
    // Submit everything (blocking on backpressure), then print results in
    // job order as they complete.
    let handles: Vec<_> = jobs.into_iter().map(|j| pool.submit_blocking(j)).collect();
    for h in handles {
        println!("{}", h.wait().render_protocol());
    }
    pool.shutdown();
    Ok(())
}

/// `cqfd metrics` — Prometheus text exposition. With `--connect <addr>`
/// it speaks the line protocol to a running `cqfd serve` and relays that
/// server's scrape; otherwise it (optionally) runs a local jobs file
/// through a pool first and dumps this process's own registry.
fn metrics_cmd(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--connect", "--workers", "--queue"])?;
    let pos = positionals(args);
    if let Some(addr) = flag(args, "--connect") {
        if !pos.is_empty() {
            return Err("`--connect` scrapes a server; drop the <jobs-file>".into());
        }
        let text = scrape_server(addr).map_err(|e| format!("{addr}: {e}"))?;
        print!("{text}");
        return Ok(());
    }
    match pos.as_slice() {
        [] => {}
        [path] => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let jobs = parse_jobs(&text)?;
            let pool = Pool::new(pool_config(args)?);
            for r in pool.run_batch(jobs) {
                eprintln!("{r}"); // results on stderr: stdout is the scrape
            }
            pool.shutdown();
        }
        _ => return Err("metrics takes at most one <jobs-file>".into()),
    }
    print!("{}", cqfd_obs::prom::render(&cqfd_obs::global().snapshot()));
    Ok(())
}

/// Connects to a `cqfd serve` instance, issues the `metrics` control word,
/// and returns the framed Prometheus payload.
fn scrape_server(addr: &str) -> Result<String, String> {
    remote_framed_word(addr, "metrics", "metrics", 30)
}

/// Speaks one framed control word to a running server: sends `word`,
/// expects a `<frame>_lines=N` header, and returns the N payload lines.
/// `timeout_secs` must exceed any server-side work the word triggers
/// (a `profile` word blocks for its sampling window).
fn remote_framed_word(
    addr: &str,
    word: &str,
    frame: &str,
    timeout_secs: u64,
) -> Result<String, String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(timeout_secs)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    if !line.starts_with("cqfd-service ") {
        return Err(format!("unexpected greeting `{}`", line.trim()));
    }
    writeln!(writer, "{word}").map_err(|e| e.to_string())?;
    line.clear();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    if let Some(e) = line.trim().strip_prefix("error: ") {
        return Err(format!("server rejected `{word}`: {e}"));
    }
    let n: usize = line
        .trim()
        .strip_prefix(&format!("{frame}_lines="))
        .ok_or_else(|| format!("unexpected reply `{}`", line.trim()))?
        .parse()
        .map_err(|_| format!("bad line count in `{}`", line.trim()))?;
    let mut payload = String::new();
    for _ in 0..n {
        reader.read_line(&mut payload).map_err(|e| e.to_string())?;
    }
    let _ = writeln!(writer, "quit");
    Ok(payload)
}

/// `cqfd profile` — a sampling window plus the cost-attribution report.
/// With `--connect` the window runs on a live server (folded stacks come
/// back framed); otherwise the workload runs in-process under the
/// sampler: the jobs from the file, or the Theorem 14 separating chase
/// (the paper's Fig. 3 lasso) by default, looped until the window ends.
fn profile_cmd(args: &[String]) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    check_flags(args, &["--seconds", "--hz", "--connect"])?;
    let seconds: u64 = flag(args, "--seconds").map_or(Ok(2), |s| {
        s.parse().map_err(|_| "bad --seconds".to_string())
    })?;
    if seconds == 0 || seconds > 30 {
        return Err(format!("--seconds must be 1..=30, got {seconds}"));
    }
    let hz: u32 =
        flag(args, "--hz").map_or(Ok(97), |s| s.parse().map_err(|_| "bad --hz".to_string()))?;
    if hz == 0 || hz > 1000 {
        return Err(format!("--hz must be 1..=1000, got {hz}"));
    }
    let pos = positionals(args);
    if let Some(addr) = flag(args, "--connect") {
        if !pos.is_empty() {
            return Err("`--connect` profiles a server; drop the <jobs-file>".into());
        }
        let text = remote_framed_word(
            addr,
            &format!("profile seconds={seconds} hz={hz}"),
            "profile",
            seconds + 30,
        )
        .map_err(|e| format!("{addr}: {e}"))?;
        print!("{text}");
        return Ok(());
    }
    let jobs: Vec<Job> = match pos.as_slice() {
        [] => vec![Job::Separate {
            budget: JobBudget::default().with_stages(80),
        }],
        [path] => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let jobs = parse_jobs(&text)?;
            if jobs.is_empty() {
                return Err("no jobs in file".into());
            }
            jobs
        }
        _ => return Err("profile takes at most one <jobs-file>".into()),
    };

    cqfd_flight::install();
    let before = cqfd_obs::global().snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let cancel = CancelToken::new();
    let worker = {
        let stop = Arc::clone(&stop);
        let cancel = cancel.clone();
        std::thread::Builder::new()
            .name("cqfd-profile-load".into())
            .spawn(move || {
                let mut id = 0u64;
                'outer: while !stop.load(Ordering::Relaxed) {
                    for job in &jobs {
                        if stop.load(Ordering::Relaxed) {
                            break 'outer;
                        }
                        id += 1;
                        let _ = cqfd::service::execute(id, job, &cancel);
                    }
                }
            })
            .map_err(|e| format!("spawn workload thread: {e}"))?
    };
    let profile = cqfd_flight::sample(cqfd_flight::ProfileOptions {
        duration: std::time::Duration::from_secs(seconds),
        hz,
    });
    stop.store(true, Ordering::Relaxed);
    cancel.cancel();
    worker.join().map_err(|_| "workload thread panicked")?;
    let after = cqfd_obs::global().snapshot();
    let records = cqfd_obs::jsonl::parse_lines(&cqfd_flight::recorder().snapshot_jsonl(usize::MAX))
        .unwrap_or_default();
    let attribution = cqfd_flight::Attribution::between(&before, &after).with_spans(&records);

    println!(
        "# folded stacks ({} ticks @ {hz} Hz over {seconds}s)",
        profile.ticks
    );
    let folded = profile.folded_text();
    if folded.is_empty() {
        println!("# no samples: no thread held a span during the window");
    } else {
        print!("{folded}");
    }
    println!();
    print!("{}", attribution.render());
    Ok(())
}

/// `cqfd flight` — dump the black-box flight ring as JSONL: a running
/// server's ring via `--connect`, or this process's ring after running a
/// local jobs file.
fn flight_cmd(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--connect", "--max-lines"])?;
    let max_lines: usize = flag(args, "--max-lines").map_or(Ok(256), |s| {
        s.parse().map_err(|_| "bad --max-lines".to_string())
    })?;
    let pos = positionals(args);
    if let Some(addr) = flag(args, "--connect") {
        if !pos.is_empty() {
            return Err("`--connect` dumps a server's ring; drop the <jobs-file>".into());
        }
        let text =
            remote_framed_word(addr, "flight", "flight", 30).map_err(|e| format!("{addr}: {e}"))?;
        print!("{text}");
        return Ok(());
    }
    match pos.as_slice() {
        [] => {}
        [path] => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let jobs = parse_jobs(&text)?;
            let pool = Pool::new(pool_config(args)?);
            for r in pool.run_batch(jobs) {
                eprintln!("{r}"); // results on stderr: stdout is the dump
            }
            pool.shutdown();
        }
        _ => return Err("flight takes at most one <jobs-file>".into()),
    }
    cqfd_flight::install();
    print!("{}", cqfd_flight::dump("request", max_lines));
    Ok(())
}

/// `cqfd store <stat|verify|gc> <dir>` — inspect, re-validate, or clean
/// a result store without running any jobs.
fn store_cmd(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--max-bytes"])?;
    let pos = positionals(args);
    let [action, dir] = pos.as_slice() else {
        return Err("store takes <stat|verify|gc> <dir>".into());
    };
    if flag(args, "--max-bytes").is_some() && *action != "gc" {
        return Err("--max-bytes only applies to `store gc`".into());
    }
    let store = Store::open(dir).map_err(|e| format!("{dir}: {e}"))?;
    match *action {
        "stat" => {
            let s = store.stat().map_err(|e| e.to_string())?;
            println!(
                "store {}: {} entries ({} bytes), {} stage logs ({} bytes)",
                store.root().display(),
                s.entries,
                s.entry_bytes,
                s.logs,
                s.log_bytes
            );
            Ok(())
        }
        "verify" => {
            let failures = store.verify().map_err(|e| e.to_string())?;
            let s = store.stat().map_err(|e| e.to_string())?;
            for (path, why) in &failures {
                println!("REJECT {}: {why}", path.display());
            }
            if failures.is_empty() {
                println!("OK: all {} entries pass the checker", s.entries);
                Ok(())
            } else {
                Err(format!(
                    "{} of {} entries failed verification (run `cqfd store gc {dir}`)",
                    failures.len(),
                    s.entries
                ))
            }
        }
        "gc" => {
            let r = store.gc().map_err(|e| e.to_string())?;
            println!(
                "gc: removed {} invalid entries, {} temp files, {} finished stage logs",
                r.removed_entries, r.removed_tmp, r.removed_logs
            );
            if let Some(max) = flag(args, "--max-bytes") {
                let max: u64 = max.parse().map_err(|_| "bad --max-bytes".to_string())?;
                let e = store.evict_to(max).map_err(|e| e.to_string())?;
                println!(
                    "evict: removed {} least-recently-hit entries ({} bytes); {} bytes retained",
                    e.evicted_entries, e.evicted_bytes, e.retained_bytes
                );
            }
            Ok(())
        }
        other => Err(format!(
            "unknown store action `{other}` (want stat | verify | gc)"
        )),
    }
}

fn serve_cmd(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--listen",
            "--workers",
            "--queue",
            "--store",
            "--http-listen",
            "--gateway",
            "--lane-cap",
            "--tenant-quota",
            "--default-quota",
        ],
    )?;
    let line_addr = flag(args, "--listen");
    let http_addr = flag(args, "--http-listen");
    let gateway_mode = flag_present(args, "--gateway")
        || http_addr.is_some()
        || flag(args, "--lane-cap").is_some()
        || !flag_values(args, "--tenant-quota").is_empty()
        || flag(args, "--default-quota").is_some();

    if !gateway_mode {
        // Legacy path: the thread-per-connection server, byte-compatible
        // with every pre-gateway deployment.
        let addr = line_addr.ok_or("missing --listen")?;
        let server = Server::bind(addr, pool_config(args)?).map_err(|e| format!("{addr}: {e}"))?;
        let local = server.local_addr().map_err(|e| e.to_string())?;
        println!("listening on {local} (send `quit` to close a connection, `shutdown` to stop)");
        server.run();
        println!("server stopped");
        return Ok(());
    }

    use cqfd::gateway::{Gateway, GatewayConfig, Quota};
    if line_addr.is_none() && http_addr.is_none() {
        return Err("gateway mode needs --listen and/or --http-listen".into());
    }
    let mut cfg = GatewayConfig::default().with_pool(pool_config(args)?);
    if let Some(cap) = flag(args, "--lane-cap") {
        cfg = cfg.with_lane_capacity(cap.parse().map_err(|_| "bad --lane-cap".to_string())?);
    }
    for spec in flag_values(args, "--tenant-quota") {
        let (tenant, quota) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad --tenant-quota `{spec}` (want tenant:rate:burst)"))?;
        cfg = cfg.with_quota(
            tenant,
            Quota::parse(quota).map_err(|e| format!("--tenant-quota {tenant}: {e}"))?,
        );
    }
    if let Some(spec) = flag(args, "--default-quota") {
        cfg = cfg
            .with_default_quota(Quota::parse(spec).map_err(|e| format!("--default-quota: {e}"))?);
    }
    let gw = Gateway::bind(line_addr, http_addr, cfg).map_err(|e| e.to_string())?;
    if let Some(a) = gw.line_addr() {
        println!("line protocol on {a} (send `quit` to close, `shutdown` to stop)");
    }
    if let Some(a) = gw.http_addr() {
        println!("http on {a} (POST /v1/jobs, GET /metrics, GET /healthz)");
    }
    gw.run();
    println!("gateway stopped");
    Ok(())
}
