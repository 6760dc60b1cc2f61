//! # cqfd-greengraph — Abstraction Level 2: green graphs (paper §VI)
//!
//! The paper's highest-level programming language. A **green graph** is a
//! structure over the signature `{H_i : i ∈ S̄}` where `S̄ = S ∪ {∅}` and
//! every `H_i` is binary — an edge-labelled directed graph. The rewriting
//! rules of the set `L2` are symmetric equivalences:
//!
//! ```text
//! I1 &·· I2 ] I3 &·· I4   ≡   ∀x,x′ [∃y H(I1,x,y) ∧ H(I2,x′,y)] ⇔ [∃y H(I3,x,y) ∧ H(I4,x′,y)]
//! I1 /·· I2 ] I3 /·· I4   ≡   ∀y,y′ [∃x H(I1,x,y) ∧ H(I2,x,y′)] ⇔ [∃x H(I3,x,y) ∧ H(I4,x,y′)]
//! ```
//!
//! This crate provides:
//!
//! * a typed [`Label`] space covering everything the paper puts into `S̄`:
//!   `∅`, the skeleton labels `α, β0, β1, η0, η1, η11, γ0, γ1, ω0`, the 32
//!   grid labels `⟨n|e|s|w, α|β, d|d̄, b|b̄⟩` of §VII Step 2, generic machine
//!   symbols, and the reserved indices 3, 4 of `Precompile` (Definition 9);
//! * [`GreenGraph`], green graphs with the distinguished constants `a`, `b`
//!   and the initial graph `DI` (`H∅(a,b)`, §VII Step 1);
//! * [`L2Rule`] / [`L2System`]: the rule language, its TGD compilation, the
//!   chase at Level 2, and an exact model checker (both directions of every
//!   equivalence);
//! * the **1-2 pattern** detector (Definition 11);
//! * [`ParityGlasses`] (Definition 16) and word extraction (Definition 15),
//!   through which green graphs are read as sets of words — the bridge to
//!   rainworm configurations in §VIII.
//!
//! ```
//! use cqfd_chase::ChaseBudget;
//! use cqfd_greengraph::{GreenGraph, L2Rule, L2System, Label};
//!
//! // One rewriting rule: ∅ &·· ∅ ] α &·· η1 (rule (I) of T∞).
//! let sys = L2System::new(vec![L2Rule::antenna(
//!     Label::Empty, Label::Empty, Label::Alpha, Label::Eta1,
//! )]);
//! let g = GreenGraph::di(sys.space_with([]));
//! let (out, run) = sys.chase(&g, &ChaseBudget::stages(8));
//! assert!(run.reached_fixpoint());
//! assert!(sys.is_model(&out));
//! assert_eq!(out.edges_with(Label::Alpha).count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod dot;
pub mod graph;
pub mod label;
pub mod minimal;
pub mod pg;
pub mod rules;
pub mod space;

pub use analysis::{label_closure, provably_never_red_spider};
pub use graph::GreenGraph;
pub use label::{Dir, GridLabel, Kind, Label, Parity};
pub use minimal::{important_edges, minimal_model};
pub use pg::ParityGlasses;
pub use rules::{chase_until_12_with, Join, L2Rule, L2System};
pub use space::LabelSpace;
