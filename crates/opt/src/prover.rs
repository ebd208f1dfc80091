//! Fact prover: certifies the facts the static-learning closure already
//! found, so every constant and implication the optimizer folds carries a
//! replayable unit-propagation trace in the certificate.
//!
//! There is one closure engine, `scanft_analyze::Implications`. Besides its
//! rows it keeps the history that produced them: the learned edges in
//! learning order, each learning round's starting edge count, and a log of
//! constant discoveries (net, value, sweep, edge count). The prover does not
//! recompute the closure. It replays that log in discovery order: each
//! constant's complement is re-propagated under the constants of earlier
//! sweeps and the edges that existed at the time, the conflict trace is
//! extracted from the engine's own propagator running with antecedent
//! recording ([`scanft_analyze::Tracer`]), and a `const` step is emitted.
//! Implications the rewrites cite are certified the same way, one
//! re-propagation per lemma ([`crate::certificate`]). The replay uses the
//! same seed order, constant sets, edge order and edge limits the closure
//! used, so the certified fact set is exactly the one
//! [`scanft_analyze::ConstFacts`] reports (the agreement tests pin this on
//! every suite circuit).
//!
//! Learned implications are certified *lazily*: a certificate lemma is
//! emitted only when an emitted trace cites its edge, after recursively
//! certifying the lemmas its own trace cites. The recursion is
//! well-founded because a lemma is re-derived with only the edges that
//! existed when the closure learned it ([`Implications::edge_limit`]), so
//! every edge its trace cites has a strictly smaller learning index. The
//! closure learns millions of pairs on the larger suite machines while the
//! rewrites cite only thousands; eager emission produced a 2 GB certificate
//! for `keyb` where the lazy log stays in the megabytes, with the identical
//! fact set.
//!
//! Soundness rests on the engine; *checkability* is the prover's property:
//! the independent checker re-verifies every trace entry from gate
//! semantics alone, so a bug in this module (or in the engine) surfaces as
//! a rejected certificate, never as a silently wrong netlist.

use std::collections::HashMap;

use scanft_analyze::{Antecedent, Conflict, Implications, Step, Tracer};
use scanft_netlist::{NetId, Netlist};

use crate::certificate::{Certificate, Reason, TraceEntry};

/// A `(net, value)` literal.
type Literal = (NetId, bool);

/// Certificate emission over a finished implication closure.
pub struct Prover<'a> {
    implications: &'a Implications,
    tracer: Tracer<'a>,
    /// Certified constants in net order, seeded into every trace.
    constants: Vec<Literal>,
    /// The same constants, indexed by net.
    constant: Vec<Option<bool>>,
    /// Certificate lemma id of each learned edge already certified.
    edge_lemmas: HashMap<u32, u32>,
    /// Certificate lemmas already emitted, keyed by (from, to) literal.
    lemma_ids: HashMap<(Literal, Literal), u32>,
}

impl<'a> Prover<'a> {
    /// Replays the closure's constant discoveries over `netlist`, emitting a
    /// `const` step into `cert` for each, in discovery order. Learned
    /// implications reach the certificate only when a trace cites them, so
    /// the log carries exactly the facts the rewrites depend on.
    #[must_use]
    pub fn new(
        netlist: &'a Netlist,
        implications: &'a Implications,
        cert: &mut Certificate,
    ) -> Self {
        let mut prover = Prover {
            implications,
            tracer: implications.tracer(netlist),
            constants: Vec::new(),
            constant: vec![None; netlist.num_nets()],
            edge_lemmas: HashMap::new(),
            lemma_ids: HashMap::new(),
        };
        // Constants of one sweep become facts only when the sweep ends.
        let mut sweep = None;
        let mut pending: Vec<Literal> = Vec::new();
        for d in implications.discoveries() {
            if sweep != Some(d.sweep) {
                prover.commit(&mut pending);
                sweep = Some(d.sweep);
            }
            let seeded = prover
                .tracer
                .propagate(&prover.constants, d.net, !d.value, d.edge_limit);
            // A discovery that no longer conflicts stays uncertified; the
            // rewrite counts it as unproven instead of folding it.
            if seeded == Err(Conflict) {
                let raw = prover.tracer.conflict_trace();
                let trace = prover.certify_trace(cert, raw);
                cert.const_step(d.net, d.value, &trace);
                pending.push((d.net, d.value));
            }
        }
        prover.commit(&mut pending);
        prover
    }

    /// Makes `pending` constants available to later traces.
    fn commit(&mut self, pending: &mut Vec<Literal>) {
        for (net, value) in pending.drain(..) {
            if self.constant[net as usize].is_none() {
                self.constant[net as usize] = Some(value);
                self.constants.push((net, value));
            }
        }
        self.constants.sort_unstable();
    }

    /// Emits (or reuses) the certificate lemma `l ⇒ m` for learned edge
    /// `idx` (the edge `¬m → ¬l`), first certifying every lemma its trace
    /// cites.
    fn require_lemma(&mut self, cert: &mut Certificate, idx: u32, l: Literal, m: Literal) -> u32 {
        if let Some(&id) = self.edge_lemmas.get(&idx) {
            return id;
        }
        let limit = self.implications.edge_limit(idx);
        // Constants certified since discovery only add seeded facts, so the
        // re-derivation either still reaches `m` or conflicts outright — in
        // which case the seed literal is infeasible and the conflict trace
        // proves the implication vacuously (the checker accepts either).
        let raw = match self.tracer.propagate(&self.constants, l.0, l.1, limit) {
            Ok(()) => {
                assert_eq!(
                    self.tracer.value(m.0),
                    Some(m.1),
                    "learned row member must re-derive under its round-start edges"
                );
                self.tracer.trace_to(m.0)
            }
            Err(Conflict) => self.tracer.conflict_trace(),
        };
        let trace = self.certify_trace(cert, raw);
        let id = cert.lemma(l.0, l.1, m.0, m.1, &trace);
        self.edge_lemmas.insert(idx, id);
        id
    }

    /// Turns an extracted derivation into certificate trace entries,
    /// emitting any not-yet-certified lemma it cites first so the log stays
    /// a valid forward proof.
    fn certify_trace(&mut self, cert: &mut Certificate, raw: Vec<Step>) -> Vec<TraceEntry> {
        let mut trace = Vec::with_capacity(raw.len());
        for step in raw {
            let by = match step.by {
                Antecedent::Seed => Reason::Seed,
                Antecedent::Const => Reason::Const,
                Antecedent::Gate(g) => Reason::Gate(g),
                Antecedent::Lemma {
                    idx,
                    from,
                    from_value,
                } => Reason::Contra(self.require_lemma(
                    cert,
                    idx,
                    (step.net, !step.value),
                    (from, !from_value),
                )),
            };
            trace.push(TraceEntry {
                net: step.net,
                value: step.value,
                by,
            });
        }
        trace
    }

    /// Proves `(a=av) ⇒ (b=bv)` on demand, emitting (or reusing) a lemma
    /// and returning its id. `None` when the closure cannot derive it.
    pub fn prove_implication(
        &mut self,
        cert: &mut Certificate,
        a: NetId,
        av: bool,
        b: NetId,
        bv: bool,
    ) -> Option<u32> {
        let key = ((a, av), (b, bv));
        if let Some(&id) = self.lemma_ids.get(&key) {
            return Some(id);
        }
        // A learned closure edge covers the pair: certify that lemma.
        let id = if let Some(idx) = self.implications.learned_edge(b, !bv, a, !av) {
            self.require_lemma(cert, idx, (a, av), (b, bv))
        } else {
            let derived = self.tracer.propagate(&self.constants, a, av, u32::MAX);
            if derived.is_err() || self.tracer.value(b) != Some(bv) {
                return None;
            }
            let raw = self.tracer.trace_to(b);
            let trace = self.certify_trace(cert, raw);
            cert.lemma(a, av, b, bv, &trace)
        };
        self.lemma_ids.insert(key, id);
        Some(id)
    }

    /// The certified constant value of `net`, if the prover proved one.
    #[must_use]
    pub fn constant(&self, net: NetId) -> Option<bool> {
        self.constant[net as usize]
    }

    /// All certified constants in net order.
    #[must_use]
    pub fn constants(&self) -> Vec<Literal> {
        self.constants.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scanft_analyze::{Analysis, ConstFacts};
    use scanft_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn prover_rediscovers_the_closure_constants() {
        // c = AND(x, NOT x) is constant 0; the closure then sees z = x.
        let mut b = NetlistBuilder::new(1, 0);
        let nx = b.add_gate(GateKind::Not, &[0]).unwrap();
        let c = b.add_gate(GateKind::And, &[0, nx]).unwrap();
        let z = b.add_gate(GateKind::Or, &[c, 0]).unwrap();
        let n = b.finish(vec![z], vec![]).unwrap();
        let analysis = Analysis::new(&n);
        let mut cert = Certificate::begin(1, 0, 3);
        let prover = Prover::new(&n, &analysis.implications, &mut cert);
        assert_eq!(prover.constant(c), Some(false));
        let facts = ConstFacts::of(&analysis);
        assert_eq!(prover.constants(), facts.constants());
        assert!(cert.as_text().contains("\"step\":\"const\""));
    }

    #[test]
    fn on_demand_lemmas_cover_equivalence_pairs() {
        let mut b = NetlistBuilder::new(1, 0);
        let n1 = b.add_gate(GateKind::Not, &[0]).unwrap();
        let y = b.add_gate(GateKind::Not, &[n1]).unwrap();
        let bf = b.add_gate(GateKind::Buf, &[0]).unwrap();
        let n = b.finish(vec![y, bf], vec![]).unwrap();
        let analysis = Analysis::new(&n);
        let mut cert = Certificate::begin(1, 0, 3);
        let mut prover = Prover::new(&n, &analysis.implications, &mut cert);
        let facts = ConstFacts::of(&analysis);
        for class in facts.classes() {
            let rep = class[0];
            for &member in &class[1..] {
                assert!(
                    prover
                        .prove_implication(&mut cert, member, true, rep, true)
                        .is_some(),
                    "fwd {member}->{rep}"
                );
                assert!(
                    prover
                        .prove_implication(&mut cert, rep, true, member, true)
                        .is_some(),
                    "bwd {rep}->{member}"
                );
            }
        }
        // Re-proving reuses the cached lemma id.
        let first = prover.prove_implication(&mut cert, y, true, bf, true);
        let again = prover.prove_implication(&mut cert, y, true, bf, true);
        assert_eq!(first, again);
    }
}
