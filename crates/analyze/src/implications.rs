//! Static learning: an implication engine over the scan netlist.
//!
//! A **literal** is a (net, value) pair. The engine computes, for every
//! literal `a`, the set of literals forced in *every* consistent circuit
//! assignment that satisfies `a` — the transitive closure of the implication
//! relation. Three sources feed the closure:
//!
//! 1. **Direct implications** from gate semantics, found by three-valued
//!    constraint propagation: forward rules (`AND` with a 0 input drives 0)
//!    and backward justification rules (`AND` output 1 forces every input
//!    to 1; `AND` output 0 with all side inputs at 1 forces the last input
//!    to 0).
//! 2. **Indirect (SOCRATES-style) implications** learned by contraposition:
//!    whenever propagation shows `a ⇒ b`, the engine records `¬b ⇒ ¬a` as a
//!    new graph edge. Re-propagating with learned edges reaches conclusions
//!    pure local propagation cannot (the classic reconvergent-fanout cases),
//!    so learning iterates to a fixpoint.
//! 3. **Ex falso**: a literal whose propagation *conflicts* is infeasible —
//!    the net is provably **constant** at the opposite value in every
//!    consistent assignment. Constants are seeded into all later
//!    propagation runs.
//!
//! Soundness argument: propagation only ever applies gate-consistency rules,
//! so every assigned literal holds in every total consistent extension of
//! the seed. Contraposition preserves truth, and a conflict under seed `a`
//! means no consistent extension satisfies `a` at all. The property suite
//! cross-checks every reported implication, constant, and equivalence
//! against exhaustive enumeration on all tractable circuits.
//!
//! The closure keeps the history that produced it: every learned edge with
//! its learning index, and a log of constant discoveries with the sweep and
//! edge count each surfaced under. A [`Tracer`] re-runs the same propagator
//! over that history with antecedent recording switched on, so a consumer
//! can extract the derivation behind any single fact without recomputing
//! the closure (the `scanft-opt` prover certifies its rewrites this way).
//!
//! Consumers: FIRE-style untestability proofs ([`crate::prune`]),
//! implication-guided PODEM (`scanft-atpg`), the `constant-net` /
//! `equivalent-nets` design lints ([`crate::netlist_lints`]), and the
//! certificate prover of `scanft-opt`.

use scanft_netlist::{GateKind, NetId, Netlist};

/// Index of a literal: `2 * net + value`.
fn lit(net: NetId, value: bool) -> usize {
    2 * net as usize + usize::from(value)
}

/// The net of literal `l`.
fn lit_net(l: usize) -> NetId {
    (l / 2) as NetId
}

/// The value of literal `l`.
fn lit_value(l: usize) -> bool {
    l % 2 == 1
}

/// The complement literal `¬l`.
fn neg(l: usize) -> usize {
    l ^ 1
}

/// How many learning rounds to run at most. Each round re-propagates every
/// literal with all edges learned so far; in practice the fixpoint arrives
/// after two or three rounds, the bound only guards pathological inputs.
const MAX_ROUNDS: usize = 8;

/// A learned contrapositive edge out of some source literal: applying it
/// forces literal `target`. `idx` is the edge's position in learning order.
#[derive(Debug, Clone, Copy)]
struct Edge {
    target: u32,
    idx: u32,
}

/// One constant surfaced by the closure, in discovery order.
///
/// Seeding `(net, !value)` conflicts when propagated with the constants of
/// every earlier sweep and the first `edge_limit` learned edges — the exact
/// state the closure was in when it found this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstDiscovery {
    /// The constant net.
    pub net: NetId,
    /// Its value in every consistent assignment.
    pub value: bool,
    /// The propagation sweep it surfaced in (sweeps count up across
    /// learning rounds).
    pub sweep: u32,
    /// Learned edges that existed during that sweep.
    pub edge_limit: u32,
}

/// The static implication closure of a netlist: for every literal, every
/// other literal it forces, plus the constants and equivalent net pairs that
/// fall out of the closure.
///
/// # Examples
///
/// ```
/// use scanft_analyze::Implications;
/// use scanft_netlist::{GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), scanft_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(2, 0);
/// let a = b.add_gate(GateKind::And, &[0, 1])?;
/// let o = b.add_gate(GateKind::Or, &[0, 1])?;
/// let n = b.finish(vec![a, o], vec![])?;
/// let imp = Implications::new(&n);
/// assert!(imp.implies(a, true, o, true)); // AND=1 ⇒ both inputs 1 ⇒ OR=1
/// assert!(imp.implies(o, false, a, false)); // the contrapositive
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Implications {
    num_nets: usize,
    words_per_row: usize,
    /// `rows[l]` = bitset over literals forced by literal `l` (including
    /// `l` itself). Meaningless when `infeasible[l]`.
    rows: Vec<u64>,
    /// Literals that conflict under propagation — no consistent assignment
    /// satisfies them.
    infeasible: Vec<bool>,
    /// Per-net constant value, when proven.
    constant: Vec<Option<bool>>,
    /// Learned contrapositive edges per source literal, in learning order.
    edges: Vec<Vec<Edge>>,
    /// Edge count at the start of each learning round's batch: the edges a
    /// batch member's discovery rows were computed with. Ascending.
    batch_starts: Vec<u32>,
    /// Constants in discovery order.
    discoveries: Vec<ConstDiscovery>,
    /// Indirect (contrapositive) implication edges learned.
    learned: u64,
}

impl Implications {
    /// Runs static learning over `netlist` to a fixpoint.
    ///
    /// Cost is `O(rounds * literals * propagation)` with small constants;
    /// the `analyze.implications_secs` timer and
    /// `analyze.implications_learned` counter record the work done.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let obs = scanft_obs::global();
        let _span = obs.timer("analyze.implications_secs").start();
        let n = netlist.num_nets();
        let lits = 2 * n;
        let words_per_row = lits.div_ceil(64).max(1);
        let mut engine = Implications {
            num_nets: n,
            words_per_row,
            rows: vec![0u64; lits * words_per_row],
            infeasible: vec![false; lits],
            constant: vec![None; n],
            edges: vec![Vec::new(); lits],
            batch_starts: Vec::new(),
            discoveries: Vec::new(),
            learned: 0,
        };
        let mut prop = Propagator::new(n, ());
        let mut sweep = 0u32;
        for _round in 0..MAX_ROUNDS {
            engine.close_all(netlist, &mut prop, &mut sweep);
            let batch_start = engine.learned as u32;
            for l in 0..lits {
                if engine.infeasible[l] || engine.constant[lit_net(l) as usize].is_some() {
                    continue;
                }
                let row = &engine.rows[l * words_per_row..(l + 1) * words_per_row];
                for m in iter_bits(row) {
                    if m == l || engine.infeasible[neg(m)] {
                        continue;
                    }
                    // a ⇒ b learned as ¬b ⇒ ¬a, unless the closure of ¬b
                    // already carries ¬a. A learned pair is never offered
                    // again: the next round's row of ¬b applies the edge,
                    // and rows only grow.
                    if !engine.row_bit(neg(m), neg(l)) {
                        engine.edges[neg(m)].push(Edge {
                            target: neg(l) as u32,
                            idx: engine.learned as u32,
                        });
                        engine.learned += 1;
                    }
                }
            }
            if engine.learned == u64::from(batch_start) {
                break;
            }
            engine.batch_starts.push(batch_start);
        }
        for list in &mut engine.edges {
            list.shrink_to_fit();
        }
        obs.counter("analyze.implications_learned")
            .add(engine.learned);
        obs.counter("analyze.implications.literals")
            .add(lits as u64);
        engine
    }

    /// Recomputes every literal's closure row with the current learned
    /// edges and constants, logging each constant as it surfaces.
    fn close_all(&mut self, netlist: &Netlist, prop: &mut Propagator<()>, sweep: &mut u32) {
        let lits = 2 * self.num_nets;
        let edge_limit = self.learned as u32;
        // Constants may be discovered mid-sweep; sweeping until stable keeps
        // every row consistent with the full constant set.
        loop {
            let constants = self.constants();
            for l in 0..lits {
                let net = lit_net(l);
                if let Some(c) = self.constant[net as usize] {
                    self.infeasible[l] = c != lit_value(l);
                    if self.infeasible[l] {
                        continue;
                    }
                }
                match prop.propagate(
                    netlist,
                    &self.edges,
                    &constants,
                    net,
                    lit_value(l),
                    u32::MAX,
                ) {
                    Ok(()) => {
                        self.infeasible[l] = false;
                        let row =
                            &mut self.rows[l * self.words_per_row..(l + 1) * self.words_per_row];
                        row.fill(0);
                        for &net in &prop.trail {
                            let m = lit(net, prop.values[net as usize].unwrap_or(false));
                            row[m / 64] |= 1 << (m % 64);
                        }
                    }
                    Err(Conflict) => {
                        if self.constant[net as usize].is_none() {
                            self.discoveries.push(ConstDiscovery {
                                net,
                                value: !lit_value(l),
                                sweep: *sweep,
                                edge_limit,
                            });
                        }
                        self.infeasible[l] = true;
                    }
                }
            }
            *sweep += 1;
            let mut new_constant = false;
            for net in 0..self.num_nets {
                if self.constant[net].is_none() {
                    for v in [false, true] {
                        if self.infeasible[lit(net as NetId, v)] {
                            self.constant[net] = Some(!v);
                            new_constant = true;
                        }
                    }
                }
            }
            if !new_constant {
                return;
            }
        }
    }

    fn row_bit(&self, l: usize, m: usize) -> bool {
        self.rows[l * self.words_per_row + m / 64] >> (m % 64) & 1 == 1
    }

    /// Whether setting net `a` to `av` forces net `b` to `bv` in every
    /// consistent assignment. Vacuously true when `(a, av)` is infeasible.
    #[must_use]
    pub fn implies(&self, a: NetId, av: bool, b: NetId, bv: bool) -> bool {
        let la = lit(a, av);
        if self.infeasible[la] {
            return true;
        }
        if let Some(c) = self.constant[b as usize] {
            return c == bv;
        }
        self.row_bit(la, lit(b, bv))
    }

    /// Whether no consistent assignment sets `net` to `value` (the net is
    /// constant at the complement).
    #[must_use]
    pub fn infeasible(&self, net: NetId, value: bool) -> bool {
        self.infeasible[lit(net, value)]
    }

    /// The proven constant value of `net`, if any.
    #[must_use]
    pub fn constant(&self, net: NetId) -> Option<bool> {
        self.constant[net as usize]
    }

    /// All nets proven constant, with their stuck value, in net order.
    #[must_use]
    pub fn constants(&self) -> Vec<(NetId, bool)> {
        self.constant
            .iter()
            .enumerate()
            .filter_map(|(net, c)| c.map(|v| (net as NetId, v)))
            .collect()
    }

    /// Every literal forced by `(net, value)`, including itself, in net
    /// order. Empty when the literal is infeasible — use
    /// [`Implications::infeasible`] to distinguish.
    #[must_use]
    pub fn implied(&self, net: NetId, value: bool) -> Vec<(NetId, bool)> {
        let l = lit(net, value);
        if self.infeasible[l] {
            return Vec::new();
        }
        let row = &self.rows[l * self.words_per_row..(l + 1) * self.words_per_row];
        iter_bits(row).map(|m| (lit_net(m), lit_value(m))).collect()
    }

    /// Pairs of distinct non-constant nets `(a, b)`, `a < b`, proven equal
    /// in every consistent assignment (`a=1 ⇔ b=1`; the `0` direction is
    /// the contrapositive and thus free).
    #[must_use]
    pub fn equivalent_pairs(&self) -> Vec<(NetId, NetId)> {
        let mut pairs = Vec::new();
        for a in 0..self.num_nets {
            if self.constant[a].is_some() {
                continue;
            }
            let la = lit(a as NetId, true);
            let row = &self.rows[la * self.words_per_row..(la + 1) * self.words_per_row];
            for m in iter_bits(row) {
                let b = lit_net(m);
                if lit_value(m)
                    && (b as usize) > a
                    && self.constant[b as usize].is_none()
                    && self.row_bit(m, la)
                {
                    pairs.push((a as NetId, b));
                }
            }
        }
        pairs
    }

    /// Equivalence classes of non-constant nets proven equal, each sorted
    /// by net id, classes ordered by their smallest member. Singleton
    /// classes are omitted.
    ///
    /// This is [`Implications::equivalent_pairs`] folded through union-find:
    /// a class of `k` equal nets yields one entry instead of `k·(k-1)/2`
    /// pair findings, which is what the `equivalent-nets` lint reports.
    #[must_use]
    pub fn equivalence_classes(&self) -> Vec<Vec<NetId>> {
        let mut parent: Vec<usize> = (0..self.num_nets).collect();
        fn root(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (a, b) in self.equivalent_pairs() {
            let (ra, rb) = (root(&mut parent, a as usize), root(&mut parent, b as usize));
            if ra != rb {
                parent[ra.max(rb)] = ra.min(rb);
            }
        }
        let mut members: std::collections::BTreeMap<usize, Vec<NetId>> =
            std::collections::BTreeMap::new();
        for net in 0..self.num_nets {
            let r = root(&mut parent, net);
            members.entry(r).or_default().push(net as NetId);
        }
        members.into_values().filter(|c| c.len() > 1).collect()
    }

    /// Number of indirect (contrapositive) implication edges learned beyond
    /// what direct propagation finds.
    #[must_use]
    pub fn num_learned(&self) -> u64 {
        self.learned
    }

    /// Number of nets this closure was built for.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// Every constant in the order the closure discovered it. Replaying the
    /// log front to back, each entry's conflict only needs constants of
    /// earlier sweeps and edges below its `edge_limit`.
    #[must_use]
    pub fn discoveries(&self) -> &[ConstDiscovery] {
        &self.discoveries
    }

    /// The learning index of the edge `(from, from_value) → (to, to_value)`,
    /// if the closure learned it. The edge was learned as the contrapositive
    /// of `(to, !to_value) ⇒ (from, !from_value)`.
    #[must_use]
    pub fn learned_edge(
        &self,
        from: NetId,
        from_value: bool,
        to: NetId,
        to_value: bool,
    ) -> Option<u32> {
        let target = lit(to, to_value) as u32;
        self.edges[lit(from, from_value)]
            .iter()
            .find(|e| e.target == target)
            .map(|e| e.idx)
    }

    /// How many learned edges existed when the rows that justified edge
    /// `idx` were computed. Re-deriving its implication with only edges
    /// below this limit reproduces the discovery, and cites only edges with
    /// a strictly smaller index.
    #[must_use]
    pub fn edge_limit(&self, idx: u32) -> u32 {
        let batch = self.batch_starts.partition_point(|&start| start <= idx);
        self.batch_starts[batch.saturating_sub(1)]
    }

    /// A propagator over this closure's learned edges that records why each
    /// assignment was forced.
    #[must_use]
    pub fn tracer<'a>(&'a self, netlist: &'a Netlist) -> Tracer<'a> {
        Tracer {
            netlist,
            edges: &self.edges,
            prop: Propagator::new(self.num_nets, Trace::new(self.num_nets)),
        }
    }
}

/// Iterates the set bit positions of a bitset row.
fn iter_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(w * 64 + b)
        })
    })
}

/// Conflict marker: propagation derived both values for some net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict;

/// Why an assignment of a traced propagation was forced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Antecedent {
    /// The seed literal.
    Seed,
    /// A seeded constant.
    Const,
    /// The consistency rules of gate `g` under the assignments made before
    /// this one.
    Gate(u32),
    /// Learned edge `idx`, applied from the assignment `from = from_value`.
    /// The edge is the contrapositive of `(net, !value) ⇒ (from,
    /// !from_value)` for the assignment it forced.
    Lemma {
        /// The edge's learning index.
        idx: u32,
        /// The source net.
        from: NetId,
        /// The source net's value.
        from_value: bool,
    },
}

/// One assignment of an extracted derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The net assigned.
    pub net: NetId,
    /// The value assigned.
    pub value: bool,
    /// Why the assignment is forced.
    pub by: Antecedent,
}

/// Receives the antecedent of every assignment the propagator makes. The
/// closure builds its rows with `()`, which records nothing.
trait Recorder {
    fn assigned(&mut self, net: NetId, pos: usize, why: Antecedent);
    fn conflict(&mut self, net: NetId, value: bool, why: Antecedent);
}

impl Recorder for () {
    #[inline]
    fn assigned(&mut self, _: NetId, _: usize, _: Antecedent) {}
    #[inline]
    fn conflict(&mut self, _: NetId, _: bool, _: Antecedent) {}
}

/// Per-net antecedents and trail positions of the latest traced run (valid
/// for assigned nets only), plus the failed assignment on conflict.
struct Trace {
    why: Vec<Antecedent>,
    pos: Vec<u32>,
    conflict: Option<(NetId, bool, Antecedent)>,
}

impl Trace {
    fn new(num_nets: usize) -> Self {
        Trace {
            why: vec![Antecedent::Seed; num_nets],
            pos: vec![0; num_nets],
            conflict: None,
        }
    }
}

impl Recorder for Trace {
    fn assigned(&mut self, net: NetId, pos: usize, why: Antecedent) {
        self.why[net as usize] = why;
        self.pos[net as usize] = pos as u32;
    }

    fn conflict(&mut self, net: NetId, value: bool, why: Antecedent) {
        self.conflict = Some((net, value, why));
    }
}

/// Reusable three-valued constraint propagator (scratch buffers are kept
/// across runs to avoid reallocating per literal).
struct Propagator<R> {
    values: Vec<Option<bool>>,
    /// Nets assigned in the current run, also serving as the worklist.
    trail: Vec<NetId>,
    /// Worklist cursor.
    cursor: usize,
    rec: R,
}

impl<R: Recorder> Propagator<R> {
    fn new(num_nets: usize, rec: R) -> Self {
        Propagator {
            values: vec![None; num_nets],
            trail: Vec::with_capacity(num_nets),
            cursor: 0,
            rec,
        }
    }

    /// Propagates `seed_net = seed_value` plus `constants` to a fixpoint,
    /// applying learned edges with index below `limit`. The assignments
    /// stay readable in `values`/`trail` until the next run.
    fn propagate(
        &mut self,
        netlist: &Netlist,
        edges: &[Vec<Edge>],
        constants: &[(NetId, bool)],
        seed_net: NetId,
        seed_value: bool,
        limit: u32,
    ) -> Result<(), Conflict> {
        for &net in &self.trail {
            self.values[net as usize] = None;
        }
        self.trail.clear();
        self.cursor = 0;
        for &(net, v) in constants {
            self.assign(net, v, Antecedent::Const)?;
        }
        self.assign(seed_net, seed_value, Antecedent::Seed)?;
        while self.cursor < self.trail.len() {
            let net = self.trail[self.cursor];
            self.cursor += 1;
            let v = self.values[net as usize].unwrap_or(false);
            // Each list is in learning order, so the limit cuts a prefix.
            for edge in edges[lit(net, v)].iter().take_while(|e| e.idx < limit) {
                let t = edge.target as usize;
                let why = Antecedent::Lemma {
                    idx: edge.idx,
                    from: net,
                    from_value: v,
                };
                self.assign(lit_net(t), lit_value(t), why)?;
            }
            if let Some(g) = netlist.driver_index(net) {
                self.apply_gate(netlist, g)?;
            }
            for &g in netlist.fanout(net) {
                self.apply_gate(netlist, g as usize)?;
            }
        }
        Ok(())
    }

    fn assign(&mut self, net: NetId, v: bool, why: Antecedent) -> Result<(), Conflict> {
        match self.values[net as usize] {
            Some(x) if x == v => Ok(()),
            Some(_) => {
                self.rec.conflict(net, v, why);
                Err(Conflict)
            }
            None => {
                self.values[net as usize] = Some(v);
                self.rec.assigned(net, self.trail.len(), why);
                self.trail.push(net);
                Ok(())
            }
        }
    }

    /// Applies every forward and backward consistency rule of gate `g`.
    fn apply_gate(&mut self, netlist: &Netlist, g: usize) -> Result<(), Conflict> {
        let gate = &netlist.gates()[g];
        let out = netlist.gate_output(g);
        let kind = gate.kind;
        let by = Antecedent::Gate(g as u32);
        match kind {
            GateKind::Not | GateKind::Buf => {
                let invert = kind == GateKind::Not;
                let input = gate.inputs[0];
                if let Some(v) = self.values[input as usize] {
                    self.assign(out, v ^ invert, by)?;
                }
                if let Some(v) = self.values[out as usize] {
                    self.assign(input, v ^ invert, by)?;
                }
            }
            GateKind::Xor => {
                let mut parity = false;
                let mut unknown = None;
                let mut unknowns = 0usize;
                for (pin, &input) in gate.inputs.iter().enumerate() {
                    match self.values[input as usize] {
                        Some(v) => parity ^= v,
                        None => {
                            unknown = Some(pin);
                            unknowns += 1;
                        }
                    }
                }
                match (unknowns, self.values[out as usize]) {
                    (0, _) => self.assign(out, parity, by)?,
                    (1, Some(v)) => {
                        let pin = unknown.unwrap_or(0);
                        self.assign(gate.inputs[pin], v ^ parity, by)?;
                    }
                    _ => {}
                }
            }
            GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor => {
                let controlling = matches!(kind, GateKind::Or | GateKind::Nor);
                let invert = matches!(kind, GateKind::Nand | GateKind::Nor);
                let mut unknown = None;
                let mut unknowns = 0usize;
                let mut any_controlling = false;
                for (pin, &input) in gate.inputs.iter().enumerate() {
                    match self.values[input as usize] {
                        Some(v) if v == controlling => any_controlling = true,
                        Some(_) => {}
                        None => {
                            unknown = Some(pin);
                            unknowns += 1;
                        }
                    }
                }
                if any_controlling {
                    self.assign(out, controlling ^ invert, by)?;
                } else if unknowns == 0 {
                    self.assign(out, !controlling ^ invert, by)?;
                }
                if let Some(v) = self.values[out as usize] {
                    if v == !controlling ^ invert {
                        // Non-controlled result: every input at the
                        // non-controlling value.
                        for &input in &gate.inputs {
                            self.assign(input, !controlling, by)?;
                        }
                    } else if unknowns == 1 && !any_controlling {
                        // Controlled result with one candidate left: it must
                        // supply the controlling value.
                        let pin = unknown.unwrap_or(0);
                        self.assign(gate.inputs[pin], controlling, by)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// The closure's propagator with antecedent recording, for extracting the
/// derivation behind individual facts ([`Implications::tracer`]).
pub struct Tracer<'a> {
    netlist: &'a Netlist,
    edges: &'a [Vec<Edge>],
    prop: Propagator<Trace>,
}

impl Tracer<'_> {
    /// Propagates `seed_net = seed_value` plus `constants` (in net order) to
    /// a fixpoint, applying learned edges with index below `limit`. The
    /// run's assignments stay queryable until the next call.
    ///
    /// # Errors
    ///
    /// [`Conflict`] when the seed is infeasible under those facts; the
    /// failed assignment is kept for [`Tracer::conflict_trace`].
    pub fn propagate(
        &mut self,
        constants: &[(NetId, bool)],
        seed_net: NetId,
        seed_value: bool,
        limit: u32,
    ) -> Result<(), Conflict> {
        self.prop.rec.conflict = None;
        self.prop.propagate(
            self.netlist,
            self.edges,
            constants,
            seed_net,
            seed_value,
            limit,
        )
    }

    /// The value the last run assigned to `net`, if any.
    #[must_use]
    pub fn value(&self, net: NetId) -> Option<bool> {
        self.prop.values[net as usize]
    }

    /// The nets an assignment of `net` was forced from: for a gate rule,
    /// the gate's other terminals assigned before trail position `before`.
    fn parents(&self, net: NetId, why: Antecedent, before: u32, out: &mut Vec<NetId>) {
        match why {
            Antecedent::Seed | Antecedent::Const => {}
            Antecedent::Lemma { from, .. } => out.push(from),
            Antecedent::Gate(g) => {
                let gate = &self.netlist.gates()[g as usize];
                let output = self.netlist.gate_output(g as usize);
                for &t in gate.inputs.iter().chain(std::iter::once(&output)) {
                    if t != net
                        && self.prop.values[t as usize].is_some()
                        && self.prop.rec.pos[t as usize] < before
                    {
                        out.push(t);
                    }
                }
            }
        }
    }

    /// The trail entries in the ancestor closure of `roots`, in assignment
    /// order.
    fn ancestors(&self, roots: Vec<NetId>) -> Vec<Step> {
        let mut marked = vec![false; self.prop.values.len()];
        let mut stack = roots;
        while let Some(net) = stack.pop() {
            if !std::mem::replace(&mut marked[net as usize], true) {
                let (why, pos) = (
                    self.prop.rec.why[net as usize],
                    self.prop.rec.pos[net as usize],
                );
                self.parents(net, why, pos, &mut stack);
            }
        }
        self.prop
            .trail
            .iter()
            .filter(|&&net| marked[net as usize])
            .map(|&net| Step {
                net,
                value: self.prop.values[net as usize].unwrap_or(false),
                by: self.prop.rec.why[net as usize],
            })
            .collect()
    }

    /// The ancestor-pruned derivation of `target`'s assignment in the last
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if `target` is unassigned (callers check [`Tracer::value`]).
    #[must_use]
    pub fn trace_to(&self, target: NetId) -> Vec<Step> {
        assert!(
            self.prop.values[target as usize].is_some(),
            "trace target must be assigned"
        );
        self.ancestors(vec![target])
    }

    /// The ancestor-pruned derivation ending in the last run's conflict: the
    /// final step re-asserts a net at the complement of its standing
    /// assignment.
    ///
    /// # Panics
    ///
    /// Panics if the last run did not conflict.
    #[must_use]
    pub fn conflict_trace(&self) -> Vec<Step> {
        let (net, value, by) = self.prop.rec.conflict.expect("conflict recorded");
        // The failed rule read every assignment made so far.
        let mut roots = vec![net];
        self.parents(net, by, u32::MAX, &mut roots);
        let mut steps = self.ancestors(roots);
        steps.push(Step { net, value, by });
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_netlist::NetlistBuilder;

    fn and_or_pair() -> (Netlist, NetId, NetId) {
        let mut b = NetlistBuilder::new(2, 0);
        let a = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let o = b.add_gate(GateKind::Or, &[0, 1]).unwrap();
        let n = b.finish(vec![a, o], vec![]).unwrap();
        (n, a, o)
    }

    #[test]
    fn direct_forward_and_backward_implications() {
        let (n, a, o) = and_or_pair();
        let imp = Implications::new(&n);
        // Backward from AND=1 through the shared inputs, forward into OR.
        assert!(imp.implies(a, true, 0, true));
        assert!(imp.implies(a, true, 1, true));
        assert!(imp.implies(a, true, o, true));
        // Backward from OR=0, forward into AND.
        assert!(imp.implies(o, false, a, false));
        // Inputs are free variables: no implication between them.
        assert!(!imp.implies(0, true, 1, true));
        assert!(!imp.implies(0, true, a, true));
    }

    #[test]
    fn contrapositive_is_learned() {
        let (n, a, o) = and_or_pair();
        let imp = Implications::new(&n);
        // Direct propagation from o=1 learns nothing (either input may be
        // the one that is high), but a=1 ⇒ o=1 contraposes to o=0 ⇒ a=0 —
        // which direct propagation also finds — and a subtler one: ¬(o=1)
        // from ¬(a... the engine must at minimum agree on closure symmetry.
        assert!(imp.implies(o, false, a, false));
        assert_eq!(imp.constants(), vec![]);
    }

    #[test]
    fn indirect_implication_via_learning() {
        // z = OR(AND(x1, x2), AND(x1, x3)): z=1 requires x1=1, but only
        // contrapositive learning sees it: x1=0 ⇒ both ANDs 0 ⇒ z=0, so
        // z=1 ⇒ x1=1 is learned indirectly.
        let mut b = NetlistBuilder::new(3, 0);
        let a1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let a2 = b.add_gate(GateKind::And, &[0, 2]).unwrap();
        let z = b.add_gate(GateKind::Or, &[a1, a2]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let imp = Implications::new(&n);
        assert!(imp.implies(z, true, 0, true));
        assert!(imp.num_learned() > 0);
    }

    #[test]
    fn constant_net_detected() {
        // c = AND(x, NOT(x)) is constant 0.
        let mut b = NetlistBuilder::new(1, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, 0]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let imp = Implications::new(&n);
        assert_eq!(imp.constant(c), Some(false));
        assert!(imp.infeasible(c, true));
        assert_eq!(imp.constants(), vec![(c, false)]);
        // With c pinned at 0, z degenerates to x — and the closure knows it.
        assert!(imp.implies(0, true, z, true));
        assert!(imp.implies(0, false, z, false));
    }

    #[test]
    fn discovery_log_replays_to_conflict_traces() {
        // c = AND(x, NOT x) is constant 0: seeding c=1 under the logged
        // state conflicts, and the trace ends re-asserting a net at the
        // complement of its standing value.
        let mut b = NetlistBuilder::new(1, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, 0]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let imp = Implications::new(&n);
        let log = imp.discoveries();
        assert_eq!(log.len(), 1);
        let d = log[0];
        assert_eq!((d.net, d.value, d.sweep, d.edge_limit), (c, false, 0, 0));
        let mut tracer = imp.tracer(&n);
        assert_eq!(
            tracer.propagate(&[], d.net, !d.value, d.edge_limit),
            Err(Conflict)
        );
        let trace = tracer.conflict_trace();
        assert_eq!(
            trace[0],
            Step {
                net: c,
                value: true,
                by: Antecedent::Seed
            }
        );
        let last = *trace.last().unwrap();
        assert!(trace[..trace.len() - 1]
            .iter()
            .any(|s| s.net == last.net && s.value != last.value));
        // With the constant seeded, c=0 propagates cleanly.
        assert_eq!(tracer.propagate(&[(c, false)], c, false, u32::MAX), Ok(()));
        assert_eq!(tracer.value(z), None);
    }

    #[test]
    fn learned_edges_carry_indices_and_round_limits() {
        // The indirect-learning circuit: z=1 ⇒ x1=1 is only found through
        // the learned contrapositive edge x1=0 ... z=1 ⇒ x1=1.
        let mut b = NetlistBuilder::new(3, 0);
        let a1 = b.add_gate(GateKind::And, &[0, 1]).unwrap();
        let a2 = b.add_gate(GateKind::And, &[0, 2]).unwrap();
        let z = b.add_gate(GateKind::Or, &[a1, a2]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let imp = Implications::new(&n);
        // x1=0 ⇒ z=0 is direct; its contrapositive z=1 ⇒ x1=1 is an edge.
        let idx = imp.learned_edge(z, true, 0, true).expect("learned edge");
        assert!(u64::from(idx) < imp.num_learned());
        assert!(imp.edge_limit(idx) <= idx);
        // The traced propagator applies it, citing the edge and its source.
        let mut tracer = imp.tracer(&n);
        assert_eq!(tracer.propagate(&[], z, true, u32::MAX), Ok(()));
        assert_eq!(tracer.value(0), Some(true));
        let step = *tracer.trace_to(0).last().unwrap();
        assert_eq!(step.net, 0);
        assert!(matches!(step.by, Antecedent::Lemma { from, from_value: true, .. } if from == z));
        // Below its own index the edge is not applied.
        assert_eq!(tracer.propagate(&[], z, true, idx), Ok(()));
        assert_eq!(tracer.value(0), None);
    }

    #[test]
    fn equivalent_nets_detected() {
        // Double inversion: y = NOT(NOT(x)) is equivalent to b = BUF(x).
        let mut b = NetlistBuilder::new(1, 0);
        let n1 = b.add_gate(GateKind::Not, &[0]).unwrap();
        let y = b.add_gate(GateKind::Not, &[n1]).unwrap();
        let bf = b.add_gate(GateKind::Buf, &[0]).unwrap();
        let n = b.finish(vec![y, bf], vec![]).unwrap();
        let imp = Implications::new(&n);
        let pairs = imp.equivalent_pairs();
        // x ≡ y, x ≡ bf, y ≡ bf (net 0 itself counts: it is a non-constant
        // net equal to both derived copies).
        assert!(pairs.contains(&(0, y)));
        assert!(pairs.contains(&(0, bf)));
        assert!(pairs.contains(&(y, bf)));
    }

    #[test]
    fn xor_parity_rules() {
        let mut b = NetlistBuilder::new(2, 0);
        let x = b.add_gate(GateKind::Xor, &[0, 1]).unwrap();
        let n = b.finish(vec![x], vec![]).unwrap();
        let imp = Implications::new(&n);
        // A single known input never determines an XOR.
        assert!(!imp.implies(0, true, x, true));
        assert!(!imp.implies(0, true, x, false));
        // But XOR out + one input pins the other input... only under a seed
        // containing two literals, which single-literal closure cannot see.
        assert!(!imp.implies(x, true, 0, true));
    }

    #[test]
    fn implied_lists_are_symmetric_with_implies() {
        let (n, a, o) = and_or_pair();
        let imp = Implications::new(&n);
        let fwd = imp.implied(a, true);
        assert!(fwd.contains(&(0, true)));
        assert!(fwd.contains(&(1, true)));
        assert!(fwd.contains(&(o, true)));
        assert!(fwd.contains(&(a, true)));
        for &(net, v) in &fwd {
            assert!(imp.implies(a, true, net, v));
        }
    }
}
