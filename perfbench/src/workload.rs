//! The three workloads as seeded draws from job templates, and the
//! hand-written table of expected answers every reply is checked against.
//!
//! Expected answers come from the paper and the family definitions in
//! `cqfd_greenred::instances` / `cqfd_rainworm::families`, never from a
//! run of the program:
//!
//! * `path:MxK` is the `M`-path view against the `M·K`-path query: the
//!   query is the `K`-fold composition of the view, so it is determined,
//!   certified after one chase stage (one application of the view rule
//!   to each of the `K` segments of the canonical query), rewritable with
//!   `K` view atoms, and has no finite counter-example of any size.
//! * `mismatch:MxK` (`M ∤ K`) is not determined. A counter-example lives
//!   on `M` nodes: a green `M`-cycle and a red loop on every node agree on
//!   the `M`-path view (both the identity) but disagree on the `K`-path.
//! * `projection` (`V(x) :- R(x,y)` against `Q0(x,y) :- R(x,y)`) is not
//!   determined; a green edge `a→b` and a red loop at `a` form a two-node
//!   counter-example.
//! * The Theorem 14 separation: the chase from `DI` never shows the 1-2
//!   pattern, the chase from the lasso does (`di_pattern=false
//!   lasso_pattern=true`).
//! * The `short` and `counter:3` worms halt (their ♦-sets are partial by
//!   construction). Their step counts are not fixed by hand: set-up asks
//!   each worm for a certificate, and the step count the trusted checker
//!   derives from it is the one every creep reply of that worm must claim,
//!   whatever its flags and budget.

use std::fmt::Write as _;

/// A small, fixed PRNG (SplitMix64), so a seed means the same draw on
/// every host and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// What a reply must say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `verdict=separated di_pattern=false lasso_pattern=true`.
    Separated,
    /// `verdict=determined stage=<n>`.
    Determined { stage: usize },
    /// `verdict=not-determined`.
    NotDetermined,
    /// `verdict=rewriting` with this many view atoms in the rewriting.
    Rewriting { view_atoms: usize },
    /// `verdict=no-rewriting`.
    NoRewriting,
    /// `verdict=halted`; the step count is pinned by the trusted checker
    /// per worm.
    Halted,
    /// `verdict=counterexample`.
    Counterexample,
    /// `verdict=no-counterexample nodes=<n>`.
    NoCounterexample { nodes: usize },
}

impl Expect {
    /// Checks the first line of a reply; `Err` names the mismatch.
    pub fn check(self, first: &str) -> Result<(), String> {
        let want: String = match self {
            Expect::Separated => "verdict=separated di_pattern=false lasso_pattern=true".into(),
            Expect::Determined { stage } => format!("verdict=determined stage={stage}"),
            Expect::NotDetermined => "verdict=not-determined".into(),
            Expect::Rewriting { .. } => "verdict=rewriting".into(),
            Expect::NoRewriting => "verdict=no-rewriting".into(),
            Expect::Halted => "verdict=halted steps=".into(),
            Expect::Counterexample => "verdict=counterexample".into(),
            Expect::NoCounterexample { nodes } => {
                format!("verdict=no-counterexample nodes={nodes} ")
            }
        };
        let at = first.find(" verdict=").map(|i| i + 1);
        let ok = at.is_some_and(|i| {
            let rest = &first[i..];
            let head_ok = rest.starts_with(&want);
            // `verdict=X` must not be a prefix of a longer verdict tag.
            let boundary = rest[want.len()..]
                .chars()
                .next()
                .is_none_or(|c| c == ' ' || want.ends_with(['=', ' ']));
            head_ok && boundary
        });
        if !ok {
            return Err(format!("expected `{want}`, got `{first}`"));
        }
        if let Expect::Rewriting { view_atoms } = self {
            let body = first
                .split_once(":- ")
                .map(|(_, b)| b.split('"').next().unwrap_or(""))
                .unwrap_or("");
            let atoms = body.matches('(').count();
            if atoms != view_atoms {
                return Err(format!(
                    "expected a rewriting with {view_atoms} view atoms, got `{first}`"
                ));
            }
        }
        Ok(())
    }
}

/// One job line to send, with what its reply must say.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: String,
    pub expect: Expect,
    /// The line asks for a certificate (`cert=1`).
    pub cert: bool,
    /// Send the same line on both connections at once, so the copies are
    /// in flight together (serve only).
    pub dup: bool,
}

/// A job template: a line stem, its expected answer and its draw weight.
#[derive(Debug, Clone)]
pub struct Template {
    pub stem: String,
    pub expect: Expect,
    pub weight: u32,
    /// Which budget key makes a fresh store key (serve only): the stem
    /// gets `<knob>=<unique n>` on a first sighting.
    pub knob: Option<&'static str>,
    /// The kind accepts `cert=` / `lint=` flags.
    pub flags: bool,
}

fn t(stem: &str, expect: Expect, weight: u32) -> Template {
    Template {
        stem: stem.to_string(),
        expect,
        weight,
        knob: None,
        flags: true,
    }
}

/// The workloads this benchmark defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Chase,
    Enum,
    Serve,
}

/// Share of `chase` jobs that ask for a certificate (one copy in four).
const CHASE_CERT_SHARE: f64 = 0.25;
/// Share of the one heavy template in `chase` and `enum`, well apart in
/// cost from the rest. At about 2 % `latency_p99_ms` falls near the middle
/// of that class. With heavy jobs spread over the top of the mix, p99 was
/// whichever jobs a burst of host preemption had stretched most.
#[cfg(test)]
const HEAVY_SHARE: f64 = 0.022;
/// Shares of `serve` jobs with `cert=1` / `lint=1` (kinds that take them).
const SERVE_CERT_SHARE: f64 = 0.25;
const SERVE_LINT_SHARE: f64 = 0.10;
/// Share of keyed `serve` jobs drawn as a first sighting (fresh store
/// key). Kept small: each ends in an fsync'd store write (1–12 ms on a
/// shared disk) that also holds the two jobs pipelined behind it on its
/// connection, so at 1 % the disk rather than the program set the tail.
const SERVE_FRESH_SHARE: f64 = 0.002;
/// Share of `serve` jobs sent on both connections at once.
const SERVE_DUP_SHARE: f64 = 0.10;

/// Explicit `A399` instances (general fragment, semi-decision route):
/// `(sig, views, query, expect)`. Path views of lengths 2 and 3 with a
/// 5-path query (= V1∘V2, determined) or a 2-path query (= V1); a 1-path
/// query (no view sees a single edge: not determined); 2- and 4-path views
/// with a 3-path query (even lengths never tile an odd path: the 2-cycle
/// against loops is a counter-example); and an `R·S` view with an `R·S·R·S`
/// query (= V1∘V1, determined).
const A399: [(&str, &[&str], &str, Expect); 5] = [
    (
        "R/2",
        &[
            "V1(x,y) :- R(x,z), R(z,y)",
            "V2(x,y) :- R(x,z), R(z,w), R(w,y)",
        ],
        "Q0(x,y) :- R(x,a), R(a,b), R(b,c), R(c,d), R(d,y)",
        Expect::Determined { stage: 1 },
    ),
    (
        "R/2",
        &[
            "V1(x,y) :- R(x,z), R(z,y)",
            "V2(x,y) :- R(x,z), R(z,w), R(w,y)",
        ],
        "Q0(x,y) :- R(x,a), R(a,y)",
        Expect::Determined { stage: 1 },
    ),
    (
        "R/2",
        &[
            "V1(x,y) :- R(x,z), R(z,y)",
            "V2(x,y) :- R(x,z), R(z,w), R(w,y)",
        ],
        "Q0(x,y) :- R(x,y)",
        Expect::NotDetermined,
    ),
    (
        "R/2",
        &[
            "V1(x,y) :- R(x,z), R(z,y)",
            "V2(x,y) :- R(x,a), R(a,b), R(b,c), R(c,y)",
        ],
        "Q0(x,y) :- R(x,a), R(a,b), R(b,y)",
        Expect::NotDetermined,
    ),
    (
        "R/2,S/2",
        &["V1(x,y) :- R(x,z), S(z,y)", "V2(x,y) :- S(x,z), R(z,y)"],
        "Q0(x,y) :- R(x,a), S(a,b), R(b,c), S(c,y)",
        Expect::Determined { stage: 1 },
    ),
];

fn explicit_stem(kind: &str, sig: &str, views: &[&str], query: &str) -> String {
    let mut s = format!("{kind} sig={sig}");
    for v in views {
        let _ = write!(s, " view=\"{v}\"");
    }
    let _ = write!(s, " query=\"{query}\"");
    s
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "chase" => Some(Workload::Chase),
            "enum" => Some(Workload::Enum),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Chase => "chase",
            Workload::Enum => "enum",
            Workload::Serve => "serve",
        }
    }

    /// Jobs kept in flight per connection. `serve` pipelines three: with
    /// one, each sub-millisecond job waits on a chain of thread wake-ups
    /// whose cost on a virtual machine swings with the host's load, and
    /// throughput follows that swing rather than the program's work.
    pub fn pipeline_depth(self) -> usize {
        match self {
            Workload::Serve => 3,
            Workload::Chase | Workload::Enum => 1,
        }
    }

    /// The template list, with draw weights.
    pub fn templates(self) -> Vec<Template> {
        match self {
            // S = 20..35 (16–37 ms) at weight 8, so two of the eight
            // copies in each deck ask for a certificate, and one heavy
            // class, S = 45 (about 75 ms), at weight 3: 2.3 % of the jobs
            // (see HEAVY_SHARE).
            Workload::Chase => (20..=35)
                .map(|s| (s, 8))
                .chain([(45, 3)])
                .map(|(s, w)| t(&format!("separate stages={s}"), Expect::Separated, w))
                .collect(),
            Workload::Enum => {
                // Only templates that take about 1–30 ms: `projection`,
                // `mismatch:2x1` and `mismatch:3x1` answer in well under a
                // millisecond, where the front end rather than the search
                // would set the pace. `path:3x3` (about 27 ms, next
                // heaviest 16 ms) is the heavy class: weight 1 against 3,
                // 2.2 % of the jobs (see HEAVY_SHARE).
                let mut v = Vec::new();
                let ce = Expect::Counterexample;
                for n in [2, 3] {
                    for k in [3, 5, 7] {
                        v.push(t(
                            &format!(
                                "counterexample instance=mismatch:2x{k} dispatch=semi nodes={n}"
                            ),
                            ce,
                            3,
                        ));
                    }
                }
                v.push(t(
                    "counterexample instance=mismatch:3x2 dispatch=semi nodes=3",
                    ce,
                    3,
                ));
                for (m, k) in [
                    (1, 1),
                    (1, 2),
                    (1, 3),
                    (2, 1),
                    (2, 2),
                    (2, 4),
                    (3, 1),
                    (3, 2),
                    (3, 3),
                ] {
                    v.push(t(
                        &format!("counterexample instance=path:{m}x{k} dispatch=semi nodes=2"),
                        Expect::NoCounterexample { nodes: 2 },
                        if (m, k) == (3, 3) { 1 } else { 3 },
                    ));
                }
                for x in &mut v {
                    x.flags = false;
                }
                v
            }
            Workload::Serve => serve_templates(),
        }
    }

    /// The `i`-th line of the seeded draw. The sequence is a pure
    /// function of the seed, so the traced run replays the same lines.
    pub fn generator(self, seed: u64) -> Generator {
        Generator {
            workload: self,
            templates: self.templates(),
            rng: Rng::new(seed.wrapping_mul(3).wrapping_add(self as u64)),
            deck: Vec::new(),
            fresh: 0,
        }
    }

    /// One warm-up line per job kind in the mix (sent during set-up).
    pub fn warmups(self) -> Vec<Req> {
        let pick = |stems: &[&str]| -> Vec<Req> {
            let all = self.templates();
            stems
                .iter()
                .map(|stem| {
                    let tpl = all
                        .iter()
                        .find(|x| x.stem == *stem)
                        .expect("warm-up stem is a template");
                    Req {
                        line: tpl.stem.clone(),
                        expect: tpl.expect,
                        cert: false,
                        dup: false,
                    }
                })
                .collect()
        };
        match self {
            Workload::Chase => pick(&["separate stages=20"]),
            Workload::Enum => pick(&["counterexample instance=mismatch:2x3 dispatch=semi nodes=2"]),
            Workload::Serve => pick(&[
                "determine instance=path:2x2",
                "rewrite instance=path:2x3",
                "creep worm=short",
                "counterexample instance=mismatch:2x3",
            ]),
        }
    }

    /// The worms of the mix (`creep worm=<name>` templates).
    pub fn worms(self) -> Vec<String> {
        self.templates()
            .iter()
            .filter(|t| t.expect == Expect::Halted)
            .filter_map(|t| t.stem.strip_prefix("creep worm="))
            .map(str::to_string)
            .collect()
    }

    /// Lines sent over both transports during set-up; their replies must
    /// be byte-identical modulo job id and `elapsed_ms`. They are the
    /// warm-up lines with `cert=1 lint=1` where the kind takes them: neither
    /// flag is part of the store key, so both copies are served the same
    /// way (hits of the entries the warm-ups wrote, or fresh runs for
    /// uncached kinds).
    pub fn identity_sample(self) -> Vec<Req> {
        if self != Workload::Serve {
            return Vec::new();
        }
        let all = self.templates();
        self.warmups()
            .into_iter()
            .map(|mut req| {
                let tpl = all.iter().find(|t| t.stem == req.line);
                if tpl.is_some_and(|t| t.flags) {
                    req.line.push_str(" cert=1 lint=1");
                    req.cert = true;
                }
                req
            })
            .collect()
    }

    /// A one-line description of the mix, for the result record.
    pub fn mix_note(self) -> String {
        match self {
            Workload::Chase => format!(
                "closed loop, 2 line connections, no store; separate stages=20..35 uniform plus heavy class stages=45; cert=1 share {CHASE_CERT_SHARE}"
            ),
            Workload::Enum => {
                "closed loop, 2 line connections, no store; counterexample dispatch=semi templates uniform plus heavy class path:3x3".into()
            }
            Workload::Serve => format!(
                "closed loop, 1 line + 1 HTTP connection, 3 jobs pipelined on each, fresh store; \
                 first-sighting share {SERVE_FRESH_SHARE}, cert=1 share {SERVE_CERT_SHARE}, \
                 lint=1 share {SERVE_LINT_SHARE}, in-flight duplicate share {SERVE_DUP_SHARE}"
            ),
        }
    }
}

fn serve_templates() -> Vec<Template> {
    let mut v = Vec::new();
    let det = |stem: String, expect: Expect, weight: u32| Template {
        stem,
        expect,
        weight,
        knob: Some("stages"),
        flags: true,
    };
    // determine: 40 weight units.
    v.push(det(
        "determine instance=projection".into(),
        Expect::NotDetermined,
        4,
    ));
    for (m, k) in [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2)] {
        v.push(det(
            format!("determine instance=path:{m}x{k}"),
            Expect::Determined { stage: 1 },
            3,
        ));
    }
    for (m, k) in [(2, 3), (2, 5), (3, 4), (3, 5)] {
        v.push(det(
            format!("determine instance=mismatch:{m}x{k}"),
            Expect::NotDetermined,
            2,
        ));
    }
    for (sig, views, query, expect) in A399 {
        v.push(det(
            explicit_stem("determine", sig, views, query),
            expect,
            2,
        ));
    }
    // rewrite: 15 units (not cached, no cert/lint keys).
    let rw = |stem: String, expect: Expect, weight: u32| Template {
        stem,
        expect,
        weight,
        knob: None,
        flags: false,
    };
    v.push(rw(
        "rewrite instance=path:2x3".into(),
        Expect::Rewriting { view_atoms: 3 },
        4,
    ));
    v.push(rw(
        "rewrite instance=path:3x2".into(),
        Expect::Rewriting { view_atoms: 2 },
        4,
    ));
    v.push(rw(
        "rewrite instance=mismatch:2x3".into(),
        Expect::NoRewriting,
        4,
    ));
    v.push(rw(
        "rewrite instance=projection".into(),
        Expect::NoRewriting,
        3,
    ));
    // creep: 15 units.
    for (worm, weight) in [("short", 8), ("counter:3", 7)] {
        v.push(Template {
            stem: format!("creep worm={worm}"),
            expect: Expect::Halted,
            weight,
            knob: Some("steps"),
            flags: true,
        });
    }
    // chase-model counterexample: 15 units.
    for (stem, weight) in [
        ("counterexample instance=projection", 3),
        ("counterexample instance=mismatch:2x3", 4),
        ("counterexample instance=mismatch:2x5", 4),
        ("counterexample instance=mismatch:3x5", 4),
    ] {
        v.push(Template {
            stem: stem.into(),
            expect: Expect::Counterexample,
            weight,
            knob: Some("nodes"),
            flags: true,
        });
    }
    v
}

/// An endless, seeded stream of [`Req`]s. Templates are dealt from
/// shuffled decks holding each template `weight` times, so every seed runs
/// the same mix in a different order.
pub struct Generator {
    workload: Workload,
    templates: Vec<Template>,
    rng: Rng,
    /// `(template, copy)` pairs left in the current deck.
    deck: Vec<(usize, u32)>,
    /// Counter behind first-sighting budget knobs (unique per run).
    fresh: usize,
}

impl Generator {
    fn deal(&mut self) -> (usize, u32) {
        if self.deck.is_empty() {
            for (i, t) in self.templates.iter().enumerate() {
                self.deck.extend((0..t.weight).map(|k| (i, k)));
            }
            for j in (1..self.deck.len()).rev() {
                let k = self.rng.below(j + 1);
                self.deck.swap(j, k);
            }
        }
        self.deck.pop().expect("a refilled deck is not empty")
    }

    pub fn next_req(&mut self) -> Req {
        let (i, copy) = self.deal();
        let tpl = &self.templates[i];
        let mut line = tpl.stem.clone();
        let mut cert = false;
        let mut dup = false;
        match self.workload {
            Workload::Chase => {
                cert = f64::from(copy) < CHASE_CERT_SHARE * f64::from(tpl.weight);
            }
            Workload::Enum => {}
            Workload::Serve => {
                let (flags, knob) = (tpl.flags, tpl.knob);
                if let Some(knob) = knob {
                    if self.rng.chance(SERVE_FRESH_SHARE) {
                        self.fresh += 1;
                        // Knob values that leave the answer as it is:
                        // these chases stop long before any stage cap, the
                        // worms halt long before any step cap, and the
                        // chase-model route never reaches the node-capped
                        // search. Only the store key is new.
                        let n = match knob {
                            "nodes" => 4 + self.fresh,
                            _ => 100_000 + self.fresh,
                        };
                        let _ = write!(line, " {knob}={n}");
                    }
                }
                if flags {
                    cert = self.rng.chance(SERVE_CERT_SHARE);
                    if self.rng.chance(SERVE_LINT_SHARE) {
                        line.push_str(" lint=1");
                    }
                }
                dup = self.rng.chance(SERVE_DUP_SHARE);
            }
        }
        if cert {
            line.push_str(" cert=1");
        }
        Req {
            line,
            expect: tpl.expect,
            cert,
            dup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lines() {
        for w in [Workload::Chase, Workload::Enum, Workload::Serve] {
            let mut a = w.generator(7);
            let mut b = w.generator(7);
            for _ in 0..200 {
                assert_eq!(a.next_req().line, b.next_req().line);
            }
        }
    }

    /// The heaviest template of `chase` and `enum` makes up about 2 % of
    /// the jobs, so `latency_p99_ms` lands inside that class.
    #[test]
    fn heavy_class_is_about_two_percent() {
        for (w, heavy) in [
            (Workload::Chase, "separate stages=45"),
            (
                Workload::Enum,
                "counterexample instance=path:3x3 dispatch=semi nodes=2",
            ),
        ] {
            let all = w.templates();
            let total: u32 = all.iter().map(|t| t.weight).sum();
            let share =
                f64::from(all.iter().find(|t| t.stem == heavy).unwrap().weight) / f64::from(total);
            assert!((HEAVY_SHARE - share).abs() < 0.005, "{heavy}: {share}");
        }
    }

    #[test]
    fn expectations_match_hand_written_lines() {
        let e = Expect::Determined { stage: 1 };
        assert!(e
            .check("job=3 kind=determine verdict=determined stage=1 stages=1")
            .is_ok());
        assert!(e
            .check("job=3 kind=determine verdict=determined stage=12 stages=1")
            .is_err());
        assert!(Expect::NotDetermined
            .check("job=1 kind=determine verdict=not-determined chase_stages=2")
            .is_ok());
        assert!(Expect::Counterexample
            .check("job=1 kind=counterexample verdict=counterexample atoms=4")
            .is_ok());
        assert!(Expect::Counterexample
            .check("job=1 kind=counterexample verdict=no-counterexample nodes=2 x")
            .is_err());
        let rw = Expect::Rewriting { view_atoms: 2 };
        assert!(rw
            .check(r#"job=1 kind=rewrite verdict=rewriting rewriting="Q0_rw(x0,x2) :- V1(x0,x1), V2(x1,x2)" stages=0"#)
            .is_ok());
        assert!(rw
            .check(r#"job=1 kind=rewrite verdict=rewriting rewriting="Q0_rw(x0,x2) :- V1(x0,x1)" stages=0"#)
            .is_err());
    }
}
