//! Differential tests for the compiled counter-example search.
//!
//! `reference_search` is the straightforward loop the compiled search
//! replaced: a fresh structure per candidate mask, both colored answer
//! sets enumerated in full, and a fresh `T_Q` engine per candidate whose
//! answers differ. The compiled search must return the same `Option`,
//! with the same atoms in the same order, and its per-tuple answer test
//! must agree with comparing the full answer sets.

use cqfd_core::{Cq, Node, PredId, Signature, Structure};
use cqfd_greenred::instances::{
    composed_path_instance, mismatched_path_instance, projection_instance, random_batch, Instance,
};
use cqfd_greenred::{search_counterexample, CandidateCheck, DeterminacyOracle};
use proptest::prelude::*;
use std::sync::Arc;

/// Every ground atom over `0..n`, predicates in signature order and the
/// first argument position fastest.
fn slots(sig: &Signature, n: usize) -> Vec<(PredId, Vec<Node>)> {
    let mut out = Vec::new();
    for p in sig.predicates() {
        let arity = sig.arity(p);
        for code in 0..n.pow(arity as u32) {
            let args = (0..arity)
                .map(|k| Node((code / n.pow(k as u32) % n) as u32))
                .collect();
            out.push((p, args));
        }
    }
    out
}

fn reference_search(
    oracle: &DeterminacyOracle,
    views: &[Cq],
    q0: &Cq,
    max_nodes: usize,
) -> Option<Structure> {
    let sig = Arc::clone(oracle.greenred().colored());
    for n in 1..=max_nodes {
        if n < sig.const_count() {
            continue;
        }
        let slots = slots(&sig, n);
        if slots.len() > 24 {
            return None;
        }
        for mask in 1u64..1 << slots.len() {
            let mut d = Structure::new(Arc::clone(&sig));
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
            let (green, red) = oracle.colored_answers(q0, &d);
            if green != red && oracle.satisfies_tq(views, &d) {
                return Some(d);
            }
        }
    }
    None
}

fn assert_same_search(inst: &Instance, max_nodes: usize) {
    let oracle = DeterminacyOracle::new(inst.sig.clone());
    let want = reference_search(&oracle, &inst.views, &inst.q0, max_nodes);
    let got = search_counterexample(&oracle, &inst.views, &inst.q0, max_nodes);
    match (&want, &got) {
        (None, None) => {}
        (Some(w), Some(g)) => {
            assert_eq!(g.atoms(), w.atoms(), "{} nodes={max_nodes}", inst.name);
            assert_eq!(g.node_count(), w.node_count(), "{}", inst.name);
        }
        _ => panic!(
            "{} nodes={max_nodes}: reference found {}, compiled found {}",
            inst.name,
            want.is_some(),
            got.is_some()
        ),
    }
}

/// A signature with a constant, a unary and a binary predicate, so
/// constant nodes and mixed arities go through both searches.
fn constant_instance() -> Instance {
    let mut sig = Signature::new();
    sig.add_predicate("R", 2);
    sig.add_predicate("U", 1);
    sig.add_constant("c");
    let views = vec![
        Cq::parse(&sig, "V(x) :- R(x,#c)").unwrap(),
        Cq::parse(&sig, "W(x) :- U(x)").unwrap(),
    ];
    let q0 = Cq::parse(&sig, "Q0(x) :- R(x,y), U(y)").unwrap();
    Instance {
        name: "constant".into(),
        sig,
        views,
        q0,
        determined: None,
    }
}

#[test]
fn compiled_search_matches_the_reference_on_the_families() {
    for nodes in 1..=3 {
        assert_same_search(&projection_instance(), nodes);
    }
    for (m, k) in [(2, 1), (2, 3), (2, 5), (2, 7), (3, 2)] {
        assert_same_search(&mismatched_path_instance(m, k), 3);
    }
    for (m, k) in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)] {
        assert_same_search(&composed_path_instance(m, k), 2);
    }
    assert_same_search(&constant_instance(), 2);
}

#[test]
fn compiled_search_matches_the_reference_on_random_batches() {
    for inst in random_batch(7, 12) {
        assert_same_search(&inst, 2);
    }
}

/// Queries whose head shapes stress the per-tuple test: a path, a
/// repeated head variable, a boolean query and a projection.
fn probe_queries(sig: &Signature) -> Vec<Cq> {
    [
        "Q0(x,z) :- R(x,y), R(y,z)",
        "Q0(x,x) :- R(x,y)",
        "Q0() :- R(x,y), R(y,x)",
        "Q0(y) :- R(x,y), R(y,y)",
        "Q0(x,y) :- R(x,y)",
    ]
    .iter()
    .map(|q| Cq::parse(sig, q).unwrap())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On random colored structures of at most three nodes, the
    /// per-tuple answer test equals comparing the full answer sets.
    #[test]
    fn per_tuple_test_equals_full_answer_comparison(
        nodes in 1usize..=3,
        query in 0usize..5,
        mask in proptest::collection::vec(any::<bool>(), 18),
    ) {
        let mut sig = Signature::new();
        sig.add_predicate("R", 2);
        let q0 = probe_queries(&sig).swap_remove(query);
        let views = vec![Cq::parse(&sig, "V(x) :- R(x,y)").unwrap()];
        let oracle = DeterminacyOracle::new(sig);
        let colored = Arc::clone(oracle.greenred().colored());
        let mut d = Structure::new(Arc::clone(&colored));
        for _ in 0..nodes {
            d.fresh_node();
        }
        for ((p, args), keep) in slots(&colored, nodes).into_iter().zip(&mask) {
            if *keep {
                d.add(p, args);
            }
        }
        let check = CandidateCheck::new(&oracle, &views, &q0);
        let (green, red) = oracle.colored_answers(&q0, &d);
        prop_assert_eq!(check.answers_differ(&d), green != red);
        prop_assert_eq!(check.satisfies_tq(&d), oracle.satisfies_tq(&views, &d));
    }
}
