//! Pre-execution lint for jobs: the bridge between `cqfd-analysis` and
//! the service.
//!
//! [`lint_job`] reconstructs the rule set a job would chase — the
//! green–red `T_Q` for determinacy kinds, the Theorem 14 separating rules,
//! the rainworm instruction set for creep/reduce — and runs the static
//! analyses over it. The TCP server and `cqfd batch` call this **before
//! submitting to the pool** and reject jobs whose report carries
//! error-severity diagnostics; `lint=1` on the wire additionally ships the
//! full report behind a `lint_lines=` marker, mirroring `cert=1`.

use crate::job::Job;
use cqfd_analysis::{analyze_delta, analyze_tgds, Code, Diagnostic, Report};
use cqfd_core::Cq;
use cqfd_greenred::{greenred_tgds, DeterminacyOracle};
use std::sync::OnceLock;

/// Lints the rule set a job would execute. Never runs the job.
pub fn lint_job(job: &Job) -> Report {
    match job {
        Job::Determine { sig, views, q0, .. }
        | Job::Rewrite { sig, views, q0 }
        | Job::CounterexampleSearch { sig, views, q0, .. } => {
            let mut report = Report::new();
            for q in views.iter().chain(std::iter::once(q0)) {
                check_query_safety(q, &mut report);
            }
            // Building the oracle validates nothing by itself; the colored
            // T_Q is what the chase actually runs, so lint that.
            let oracle = DeterminacyOracle::new(sig.clone());
            let gr = oracle.greenred();
            let tgds = greenred_tgds(gr, views);
            let mut semantic = analyze_tgds(gr.colored(), &tgds);
            // `A021` parity with `lint_text`: a base predicate mentioned by
            // a view/query body — or named as a view's head target — is
            // used, even when no `T_Q` rule mentions its colored copies
            // (e.g. a predicate only the goal query `Q0` reads).
            let mut used = vec![false; sig.pred_count()];
            for q in views.iter().chain(std::iter::once(q0)) {
                for atom in &q.body {
                    used[atom.pred.0 as usize] = true;
                }
                if let Some(p) = sig.predicate(&q.name) {
                    used[p.0 as usize] = true;
                }
            }
            semantic.diagnostics.retain(|d| {
                !(d.code == Code::UnusedPredicate
                    && d.subject.as_ref().is_some_and(|name| {
                        gr.colored().predicate(name).is_some_and(|cp| {
                            let (_, base) = gr.decompose(cp);
                            used[base.0 as usize]
                        })
                    }))
            });
            report.merge(semantic);
            // The decidable-fragment classification (`A3xx`) — the same
            // verdict the executor's dispatcher acts on.
            report.merge(crate::dispatch::classify_for(&oracle, views, q0).to_report());
            report
        }
        Job::Separate { .. } => separate_report().clone(),
        Job::Reduce { delta } | Job::Creep { delta, .. } => analyze_delta(delta),
    }
}

/// The report for every `separate` job: the Theorem 14 rule set is fixed
/// (no job key changes it), so it is analysed once per process.
fn separate_report() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| {
        let space = cqfd_separating::theorem14::separating_space();
        let tgds = cqfd_separating::theorem14::t_separating().tgds(&space);
        analyze_tgds(space.signature(), &tgds)
    })
}

/// `A001` and `A010` for a hand-built query: `Cq::parse` enforces safety
/// and arities, but jobs constructed through the library API can carry
/// `Cq::new_unchecked` queries.
fn check_query_safety(q: &Cq, report: &mut Report) {
    let body_vars: Vec<_> = q.body.iter().flat_map(|a| a.vars()).collect();
    for v in &q.head_vars {
        if !body_vars.contains(v) {
            report.push(
                Diagnostic::new(
                    Code::UnsafeHeadVariable,
                    format!(
                        "head variable `{}` of query `{}` does not occur in the body",
                        q.var_name(*v),
                        q.name
                    ),
                )
                .with_subject(&q.name),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBudget;
    use cqfd_core::{Signature, Term, Var};
    use cqfd_rainworm::families::forever_worm;

    fn sig_r() -> Signature {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        s
    }

    #[test]
    fn well_formed_determine_job_lints_clean_of_errors() {
        let sig = sig_r();
        let views = vec![Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap()];
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let job = Job::Determine {
            sig,
            views,
            q0,
            budget: JobBudget::default(),
        };
        let report = lint_job(&job);
        assert!(!report.has_errors(), "{}", report.render_human());
    }

    #[test]
    fn unsafe_unchecked_query_is_rejected_with_a001() {
        let sig = sig_r();
        let r = sig.predicate("R").unwrap();
        let views = vec![Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap()];
        // Q0(x, w) :- R(x, y): w never occurs in the body.
        let q0 = Cq::new_unchecked(
            "Q0",
            vec![Var(0), Var(2)],
            vec![cqfd_core::Atom::new(
                r,
                vec![Term::Var(Var(0)), Term::Var(Var(1))],
            )],
            vec!["x".into(), "y".into(), "w".into()],
        );
        let job = Job::Determine {
            sig,
            views,
            q0,
            budget: JobBudget::default(),
        };
        let report = lint_job(&job);
        let d = report.first_error().expect("A001 expected");
        assert_eq!(d.code, Code::UnsafeHeadVariable);
        assert!(d.message.contains("`w`"), "{}", d.message);
        assert!(d.message.contains("`Q0`"), "{}", d.message);
    }

    /// Satellite regression: every [`Job`] variant is covered by
    /// [`lint_job`] with an *exact* reconstruction of the rule set it
    /// would run. If a new variant is added, the `match` in `lint_job`
    /// stops compiling — and this test documents what each kind's report
    /// must contain.
    #[test]
    fn every_job_kind_is_lint_covered() {
        let mk_det = || {
            let sig = sig_r();
            let views = vec![Cq::parse(&sig, "V(x) :- R(x,y)").unwrap()];
            let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
            (sig, views, q0)
        };
        // Determinacy-shaped kinds reconstruct the colored T_Q and carry
        // the A3xx fragment verdict — proof the reconstruction really ran.
        let (sig, views, q0) = mk_det();
        let determinacy_jobs = [
            Job::Determine {
                sig: sig.clone(),
                views: views.clone(),
                q0: q0.clone(),
                budget: JobBudget::default().with_resume(true).with_cache(false),
            },
            Job::Rewrite {
                sig: sig.clone(),
                views: views.clone(),
                q0: q0.clone(),
            },
            Job::CounterexampleSearch {
                sig,
                views,
                q0,
                budget: JobBudget::default(),
            },
        ];
        for job in determinacy_jobs {
            let report = lint_job(&job);
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.code.as_str().starts_with("A3")),
                "{}: fragment verdict missing\n{}",
                job.kind(),
                report.render_human()
            );
            assert!(!report.has_errors(), "{}", report.render_human());
        }
        // Separate lints the Theorem 14 rules, which are famously not
        // weakly acyclic: A100 with a witness cycle must be present.
        let report = lint_job(&Job::Separate {
            budget: JobBudget::default(),
        });
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::NotWeaklyAcyclic),
            "{}",
            report.render_human()
        );
        // Rainworm kinds lint the instruction set.
        for job in [
            Job::Creep {
                delta: forever_worm(),
                budget: JobBudget::default(),
            },
            Job::Reduce {
                delta: forever_worm(),
            },
        ] {
            assert!(!lint_job(&job).has_errors(), "{}", job.kind());
        }
        // A wire-parsed job lints identically to its library-built twin.
        let parsed = crate::parse_job("determine instance=projection")
            .unwrap()
            .unwrap();
        let report = lint_job(&parsed);
        assert!(
            report.diagnostics.iter().any(|d| d.code.as_str() == "A300"),
            "projection is project-select:\n{}",
            report.render_human()
        );
    }

    /// Satellite regression (job side of the `A021` fix): a predicate that
    /// appears only as a view's head target must not lint as unused —
    /// matching `lint_text` on the equivalent rules file.
    #[test]
    fn view_head_target_predicate_is_not_unused_in_job_lint() {
        let mut sig = Signature::new();
        sig.add_predicate("R", 2);
        sig.add_predicate("V", 1);
        let views = vec![Cq::parse(&sig, "V(x) :- R(x,y)").unwrap()];
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let job = Job::Determine {
            sig,
            views,
            q0,
            budget: JobBudget::default(),
        };
        let report = lint_job(&job);
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::UnusedPredicate),
            "{}",
            report.render_human()
        );
    }

    #[test]
    fn builtin_job_kinds_lint_clean_of_errors() {
        let jobs = [
            Job::Separate {
                budget: JobBudget::default(),
            },
            Job::Creep {
                delta: forever_worm(),
                budget: JobBudget::default(),
            },
            Job::Reduce {
                delta: forever_worm(),
            },
        ];
        for job in jobs {
            let report = lint_job(&job);
            assert!(
                !report.has_errors(),
                "{}: {}",
                job.kind(),
                report.render_human()
            );
        }
    }
}
