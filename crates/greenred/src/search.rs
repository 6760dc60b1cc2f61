//! Finite counter-example verification and (tiny-scale) search.
//!
//! A **finite counter-example** to "`Q` finitely determines `Q0`" is, in the
//! two-colored formulation (CQfDP.3), a finite structure `D` over `Σ̄` with
//! `D |= T_Q` and a tuple `ā` where one color of `Q0` holds and the other
//! does not.
//!
//! Verification ([`is_counterexample`]) is cheap and is what the
//! paper-scale constructions use (the Section VIII.E counter-models are
//! *verified*, not searched). The brute-force [`search_counterexample`] is a
//! deliberately tiny-scale tool: it enumerates all colored structures over a
//! few nodes, which is only feasible for signatures with a handful of
//! low-arity predicates — exactly the "toy instance" regime of the tests
//! and benchmarks. Its per-candidate cost is its whole cost, so everything
//! that does not depend on the candidate is built once per search in a
//! [`CandidateCheck`], and the search reports the largest domain size it
//! actually enumerated ([`SearchOutcome`]).

use crate::coloring::Color;
use crate::oracle::DeterminacyOracle;
use crate::tq::greenred_tgds;
use cqfd_chase::ChaseEngine;
use cqfd_core::{Atom, Cq, HomPlan, Node, PredId, Signature, Structure, Term};
use std::sync::Arc;

/// Outcome of verifying a candidate counter-example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterexampleReport {
    /// Did the structure satisfy `T_Q` (Lemma 4's condition ¶)?
    pub satisfies_tq: bool,
    /// A tuple where the two colors of `Q0` disagree, if any.
    pub witness: Option<Vec<Node>>,
    /// Is the structure a genuine counter-example (both of the above)?
    pub is_counterexample: bool,
}

/// Verifies whether `d` (over `Σ̄`) witnesses that `Q` does not finitely
/// determine `Q0`.
pub fn is_counterexample(
    oracle: &DeterminacyOracle,
    views: &[Cq],
    q0: &Cq,
    d: &Structure,
) -> CounterexampleReport {
    let (green, red) = oracle.colored_answers(q0, d);
    let witness = green.symmetric_difference(&red).next().cloned();
    if witness.is_none() {
        return CounterexampleReport {
            satisfies_tq: oracle.satisfies_tq(views, d),
            witness: None,
            is_counterexample: false,
        };
    }
    let satisfies_tq = oracle.satisfies_tq(views, d);
    CounterexampleReport {
        satisfies_tq,
        witness: witness.clone(),
        is_counterexample: satisfies_tq,
    }
}

/// The most colored atom slots one domain size may have for the
/// exhaustive search to enumerate it: `2^24` candidate structures.
pub const MAX_SEARCH_SLOTS: usize = 24;

/// What [`search_counterexample_within`] established.
#[derive(Debug, Clone)]
pub enum SearchOutcome {
    /// The first counter-example found: smallest domain first, then
    /// candidate order.
    Found(Box<Structure>),
    /// No counter-example over at most `nodes` nodes. This is below the
    /// requested cap when the colored atom space at `nodes + 1` exceeds
    /// [`MAX_SEARCH_SLOTS`], and 0 when not even one node fits: then
    /// nothing was searched.
    Exhausted {
        /// The largest domain size every candidate of which was checked.
        nodes: usize,
    },
}

/// The loop-invariant part of the counter-example search, built once per
/// job: the green and red bodies of `Q0`, the search slots of its distinct
/// head variables, and one `T_Q` chase engine.
pub struct CandidateCheck {
    green: Vec<Atom<Term>>,
    red: Vec<Atom<Term>>,
    /// Slot of each distinct head variable in a plan of either body (the
    /// two bodies differ only in predicates, so they lower alike).
    head_slots: Vec<u32>,
    limits: Vec<u32>,
    tq: ChaseEngine,
}

impl CandidateCheck {
    /// Compiles the checks for "`views` finitely determine `q0`".
    pub fn new(oracle: &DeterminacyOracle, views: &[Cq], q0: &Cq) -> Self {
        let gr = oracle.greenred();
        let green = gr.color_formula(Color::Green, &q0.body);
        let red = gr.color_formula(Color::Red, &q0.body);
        let empty = Structure::new(Arc::clone(gr.colored()));
        let plan = HomPlan::compile(&green, &empty);
        let mut head_slots: Vec<u32> = Vec::with_capacity(q0.head_vars.len());
        for &v in &q0.head_vars {
            let s = plan
                .slot(v)
                .expect("a parsed CQ is safe: every head variable occurs in its body");
            if !head_slots.contains(&s) {
                head_slots.push(s);
            }
        }
        CandidateCheck {
            limits: vec![u32::MAX; green.len()],
            green,
            red,
            head_slots,
            tq: ChaseEngine::new(greenred_tgds(gr, views)),
        }
    }

    /// Do `G(Q0)` and `R(Q0)` have different answers on `d`?
    ///
    /// Tries every head tuple over `d`'s nodes in lexicographic order with
    /// one seeded existence probe per color, and stops at the first tuple
    /// where the colors disagree. For a safe `Q0` this is the predicate
    /// `G(Q0)(d) != R(Q0)(d)` without enumerating every homomorphism.
    pub fn answers_differ(&self, d: &Structure) -> bool {
        let n = d.node_count();
        let green = HomPlan::compile(&self.green, d);
        let red = HomPlan::compile(&self.red, d);
        let mut seeds: Vec<(u32, Node)> = self.head_slots.iter().map(|&s| (s, Node(0))).collect();
        loop {
            if green.exists_seeded(&seeds, &self.limits) != red.exists_seeded(&seeds, &self.limits)
            {
                return true;
            }
            // Next tuple: the last head variable varies fastest.
            let Some(k) = seeds.iter().rposition(|&(_, v)| v.0 + 1 < n) else {
                return false;
            };
            seeds[k].1 = Node(seeds[k].1 .0 + 1);
            for seed in &mut seeds[k + 1..] {
                seed.1 = Node(0);
            }
        }
    }

    /// Is `d` a model of `T_Q`?
    pub fn satisfies_tq(&self, d: &Structure) -> bool {
        self.tq.is_model(d)
    }
}

/// Every colored ground atom over the nodes `0..n`: predicates in
/// signature order, argument tuples with the first position fastest.
fn atom_slots(sig: &Signature, n: usize) -> Vec<(PredId, Vec<Node>)> {
    let mut slots = Vec::new();
    for p in sig.predicates() {
        let arity = sig.arity(p);
        let mut tuple = vec![0u32; arity];
        loop {
            slots.push((p, tuple.iter().map(|&i| Node(i)).collect()));
            let Some(k) = tuple.iter().position(|&i| (i as usize) + 1 < n) else {
                break;
            };
            tuple[..k].fill(0);
            tuple[k] += 1;
        }
    }
    slots
}

/// Brute-force search for a finite counter-example over at most
/// `max_nodes` nodes, reporting how far it got.
///
/// Enumerates every colored structure over `n = 1, 2, …` nodes (constants
/// first, then plain nodes) as a bit mask over the colored ground atoms,
/// in mask order. A size whose atom space exceeds [`MAX_SEARCH_SLOTS`] ends the
/// search: the outcome then names the last size fully enumerated.
pub fn search_counterexample_within(
    oracle: &DeterminacyOracle,
    views: &[Cq],
    q0: &Cq,
    max_nodes: usize,
) -> SearchOutcome {
    let sig = Arc::clone(oracle.greenred().colored());
    let check = CandidateCheck::new(oracle, views, q0);
    let mut d = Structure::new(Arc::clone(&sig));
    for n in 1..=max_nodes {
        if n < sig.const_count() {
            continue;
        }
        let slots = atom_slots(&sig, n);
        if slots.len() > MAX_SEARCH_SLOTS {
            return SearchOutcome::Exhausted { nodes: n - 1 };
        }
        for mask in 1u32..1 << slots.len() {
            d.clear();
            // Constants first (deterministic ids), then plain nodes.
            for c in sig.constants() {
                d.node_for_const(c);
            }
            while (d.node_count() as usize) < n {
                d.fresh_node();
            }
            for (i, (p, args)) in slots.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    d.add(*p, args.clone());
                }
            }
            // Cheap check first: do the colored answers differ?
            if check.answers_differ(&d) && check.satisfies_tq(&d) {
                return SearchOutcome::Found(Box::new(d));
            }
        }
    }
    SearchOutcome::Exhausted { nodes: max_nodes }
}

/// [`search_counterexample_within`] without the bound: the first
/// counter-example found, or `None`. `None` means "none over the sizes
/// the search could enumerate", which may stop short of `max_nodes`.
pub fn search_counterexample(
    oracle: &DeterminacyOracle,
    views: &[Cq],
    q0: &Cq,
    max_nodes: usize,
) -> Option<Structure> {
    match search_counterexample_within(oracle, views, q0, max_nodes) {
        SearchOutcome::Found(d) => Some(*d),
        SearchOutcome::Exhausted { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfd_core::Signature;

    fn sig_r() -> Signature {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        s
    }

    #[test]
    fn projection_counterexample_is_found_and_verified() {
        // V(x) = ∃y R(x,y) does not determine Q0(x,y) = R(x,y):
        // D = { G:R(a,b), R:R(a,c) } is a counter-example.
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let found = search_counterexample(&oracle, std::slice::from_ref(&v), &q0, 3)
            .expect("search must find the classic projection counter-example");
        let report = is_counterexample(&oracle, &[v], &q0, &found);
        assert!(report.is_counterexample);
        assert!(report.satisfies_tq);
        assert!(report.witness.is_some());
    }

    #[test]
    fn determined_instance_has_no_small_counterexample() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        assert!(search_counterexample(&oracle, &[v], &q0, 2).is_none());
    }

    #[test]
    fn search_stops_at_the_first_size_over_the_slot_limit() {
        // Four binary predicates: 8 colored slots over one node, 32 over
        // two. Only size 1 can be enumerated.
        let mut sig = Signature::new();
        let views: Vec<Cq> = (0..4)
            .map(|i| {
                sig.add_predicate(&format!("P{i}"), 2);
                Cq::parse(&sig, &format!("V{i}(x,y) :- P{i}(x,y)")).unwrap()
            })
            .collect();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- P0(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        assert!(matches!(
            search_counterexample_within(&oracle, &views, &q0, 5),
            SearchOutcome::Exhausted { nodes: 1 }
        ));
    }

    #[test]
    fn hand_built_counterexample_verifies() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let gr = oracle.greenred();
        let r = gr.base().predicate("R").unwrap();
        let mut d = Structure::new(Arc::clone(gr.colored()));
        let a = d.fresh_node();
        let b = d.fresh_node();
        let c = d.fresh_node();
        d.add(gr.green(r), vec![a, b]);
        d.add(gr.red(r), vec![a, c]);
        let report = is_counterexample(&oracle, &[v], &q0, &d);
        assert!(report.is_counterexample);
    }

    #[test]
    fn tq_violation_disqualifies_candidate() {
        // Only a green atom: answers differ but T_Q fails.
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let gr = oracle.greenred();
        let r = gr.base().predicate("R").unwrap();
        let mut d = Structure::new(Arc::clone(gr.colored()));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(gr.green(r), vec![a, b]);
        let report = is_counterexample(&oracle, &[v], &q0, &d);
        assert!(!report.is_counterexample);
        assert!(!report.satisfies_tq);
        assert!(report.witness.is_some());
    }
}
