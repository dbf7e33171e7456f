//! The per-worker router: the paper's sending rules, evaluated as
//! selections over each round's fresh delta instead of as relations.
//!
//! Every sending rule the schemes emit, `t_ij(W̄) :- t_out^i(W̄), h(v) = j`,
//! and every local receive rule `t_in^i(W̄) :- t_out^i(W̄), h(v) = i`, has
//! one shape: one derived body atom, constraint literals over its
//! variables, and a head whose terms are the atom's terms. Such a rule
//! derives nothing the atom's delta does not already hold — `t_out^i` has
//! deduplicated it — so storing its head in an arena with its own dedup
//! table would keep a third copy of every shipped tuple and reject none.
//!
//! The router takes those rules out of the engine
//! ([`FixpointEngine::without_rules`]). Right after each `advance`, the
//! worker calls [`Router::route`]: one pass over each source relation's
//! fresh delta matches constants and repeated variables of the pattern,
//! evaluates the constraints, credits one firing per matching rule (so
//! `firings_by_rule` is that of the rewritten program), pushes inbox
//! matches into the inbox's pending pool and appends channel matches to a
//! per-channel buffer — once per channel, however many rules feed it. The
//! worker then encodes each buffer once and ships it in the same step.
//!
//! The rewritten program stays the specification; [`Router::new`] rejects
//! a channel- or inbox-headed rule that is not a pure selection with a
//! typed [`Error::Route`] naming it.

use gst_common::{Error, Result, Tuple, Value};
use gst_eval::plan::RelationId;
use gst_eval::FixpointEngine;
use gst_frontend::ast::{ConstraintRef, Literal, Term};

use crate::spec::ProcessorProgram;

/// Where a routed rule's matches go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    /// This processor's own inbox (a local receive rule).
    Inbox(RelationId),
    /// An outgoing channel: `channels[k]`.
    Channel(usize),
}

/// One routed rule: a selection over its source relation's delta.
struct Route {
    /// The rule's index in the processor program (firing credit).
    rule: usize,
    /// Positions that must hold a constant.
    consts: Vec<(usize, Value)>,
    /// Position pairs a repeated variable makes equal.
    same: Vec<(usize, usize)>,
    /// Constraints with the tuple position of each variable they read.
    filters: Vec<(ConstraintRef, Vec<usize>)>,
    /// Index into [`Router::targets`].
    target: usize,
    /// Matches since the last credit.
    firings: u64,
}

impl Route {
    fn matches(&self, row: &Tuple) -> bool {
        self.consts.iter().all(|(p, c)| row.get(*p) == *c)
            && self.same.iter().all(|(a, b)| row.get(*a) == row.get(*b))
            && self.filters.iter().all(|(c, positions)| {
                // Discriminating sequences are short: gather the bound
                // values on the stack.
                let mut stack = [Value::Int(0); 8];
                if positions.len() <= stack.len() {
                    for (out, &p) in stack.iter_mut().zip(positions) {
                        *out = row.get(p);
                    }
                    c.holds(&stack[..positions.len()])
                } else {
                    c.holds(&positions.iter().map(|&p| row.get(p)).collect::<Vec<_>>())
                }
            })
    }
}

/// The routes selecting from one derived relation.
struct Source {
    relation: RelationId,
    routes: Vec<Route>,
}

/// One routing target with the rows routed to it this round.
struct Target {
    dest: Dest,
    rows: Vec<Tuple>,
    /// Stamp of the last row appended (each row goes to a target once).
    last: u64,
}

/// An outgoing channel: one head predicate and every destination it
/// feeds (the broadcast scheme's `t_i*` feeds n−1).
pub(crate) struct Channel {
    /// The channel predicate of the spec (`t_ij`, or `t_i*`).
    pub(crate) relation: RelationId,
    /// `(dest, inbox)` pairs in spec order.
    pub(crate) dests: Vec<(usize, RelationId)>,
    /// The batches carry DRed retractions.
    pub(crate) retract: bool,
}

/// A worker's compiled sending and local receive rules.
pub(crate) struct Router {
    sources: Vec<Source>,
    targets: Vec<Target>,
    channels: Vec<Channel>,
    /// Rule indexes the router evaluates (the engine skips them).
    rules: Vec<usize>,
    stamp: u64,
}

impl Router {
    /// Compile the channel- and inbox-headed rules of `pp`.
    ///
    /// # Errors
    /// [`Error::Route`] for such a rule that is not a pure selection: one
    /// body atom over a relation the engine derives, constraint literals
    /// over that atom's variables only, and head terms identical to the
    /// atom's.
    pub(crate) fn new(pp: &ProcessorProgram) -> Result<Router> {
        let mut channels: Vec<Channel> = Vec::new();
        for ch in &pp.outgoing {
            match channels.iter_mut().find(|c| c.relation == ch.channel) {
                Some(c) => c.dests.push((ch.dest, ch.inbox)),
                None => channels.push(Channel {
                    relation: ch.channel,
                    dests: vec![(ch.dest, ch.inbox)],
                    retract: pp.retract_channels.contains(&ch.channel),
                }),
            }
        }
        let rules = &pp.program.rules;
        let dest_of = |head: RelationId| {
            if let Some(k) = channels.iter().position(|c| c.relation == head) {
                Some(Dest::Channel(k))
            } else if pp.inboxes.contains(&head) {
                Some(Dest::Inbox(head))
            } else {
                None
            }
        };
        let routed: Vec<usize> = (0..rules.len())
            .filter(|&k| dest_of((rules[k].head.predicate, rules[k].head.terms.len())).is_some())
            .collect();
        // What the engine derives once the routed rules are gone.
        let derived = |id: RelationId| {
            pp.extra_idb().contains(&id)
                || rules.iter().enumerate().any(|(k, r)| {
                    !routed.contains(&k) && (r.head.predicate, r.head.terms.len()) == id
                })
        };

        let mut router = Router {
            sources: Vec::new(),
            targets: Vec::new(),
            channels: Vec::new(),
            rules: routed.clone(),
            stamp: 0,
        };
        for &k in &routed {
            let rule = &rules[k];
            let head = (rule.head.predicate, rule.head.terms.len());
            let reject = |reason: &str| Error::Route {
                processor: pp.processor,
                rule: k,
                text: gst_frontend::pretty::rule(rule, &pp.program.interner),
                reason: reason.to_string(),
            };
            let mut atoms = rule.body_atoms();
            let (Some(atom), None) = (atoms.next(), atoms.next()) else {
                return Err(reject("a routed rule's body must hold exactly one atom"));
            };
            let source = (atom.predicate, atom.terms.len());
            if !derived(source) {
                return Err(reject("a routed rule must select from a derived relation"));
            }
            if atom.terms != rule.head.terms {
                return Err(reject("a routed rule's head terms must be its body atom's terms"));
            }
            let mut consts = Vec::new();
            let mut same = Vec::new();
            for (p, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => consts.push((p, *c)),
                    Term::Var(v) => {
                        let first = atom.terms.iter().position(|t| t == &Term::Var(*v));
                        if let Some(first) = first.filter(|&f| f != p) {
                            same.push((first, p));
                        }
                    }
                }
            }
            let mut filters = Vec::new();
            for literal in &rule.body {
                let Literal::Constraint(c) = literal else { continue };
                let positions = c
                    .variables()
                    .iter()
                    .map(|v| atom.terms.iter().position(|t| t == &Term::Var(*v)))
                    .collect::<Option<Vec<usize>>>()
                    .ok_or_else(|| reject("a routed rule's constraint reads a variable its atom does not bind"))?;
                filters.push((c.clone(), positions));
            }
            let dest = dest_of(head).expect("routed rules have a destination");
            let target = match router.targets.iter().position(|t| t.dest == dest) {
                Some(t) => t,
                None => {
                    router.targets.push(Target { dest, rows: Vec::new(), last: 0 });
                    router.targets.len() - 1
                }
            };
            let route = Route { rule: k, consts, same, filters, target, firings: 0 };
            match router.sources.iter_mut().find(|s| s.relation == source) {
                Some(s) => s.routes.push(route),
                None => router.sources.push(Source { relation: source, routes: vec![route] }),
            }
        }
        router.channels = channels;
        Ok(router)
    }

    /// The rule indexes the router evaluates in place of the engine.
    pub(crate) fn rules(&self) -> &[usize] {
        &self.rules
    }

    /// The outgoing channels, in spec order of first appearance.
    pub(crate) fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// Route the fresh delta the last `advance` admitted: credit every
    /// matching rule a firing, queue inbox matches into their pending
    /// pools, and append channel matches to the channel buffers that
    /// [`Router::take_channel`] drains.
    pub(crate) fn route(&mut self, engine: &mut FixpointEngine) -> Result<()> {
        for source in &mut self.sources {
            for row in engine.delta(source.relation) {
                self.stamp += 1;
                for route in &mut source.routes {
                    if route.matches(row) {
                        route.firings += 1;
                        let target = &mut self.targets[route.target];
                        if target.last != self.stamp {
                            target.last = self.stamp;
                            target.rows.push(row.clone());
                        }
                    }
                }
            }
            for route in &mut source.routes {
                if route.firings > 0 {
                    engine.credit_firings(route.rule, std::mem::take(&mut route.firings));
                }
            }
        }
        for target in &mut self.targets {
            if let Dest::Inbox(inbox) = target.dest {
                if !target.rows.is_empty() {
                    engine.inject_with(inbox, |pending| {
                        pending.append(&mut target.rows);
                        Ok(())
                    })?;
                }
            }
        }
        Ok(())
    }

    /// Take the rows routed to channel `k` since the last call.
    pub(crate) fn take_channel(&mut self, k: usize) -> Vec<Tuple> {
        self.targets
            .iter_mut()
            .find(|t| t.dest == Dest::Channel(k))
            .map(|t| std::mem::take(&mut t.rows))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChannelOut, WorkerSpec};
    use gst_common::{ituple, Interner};
    use gst_storage::Database;
    use std::sync::Arc;

    /// A one-processor spec over `source` with channel `ch` (to processor
    /// 1) and inbox `in`.
    fn spec(source: &str) -> (WorkerSpec, Interner) {
        let interner = Interner::new();
        let unit = gst_frontend::parser::parse_program_with(source, &interner).unwrap();
        let rel = |name: &str| (interner.intern(name), 2);
        let mut db = Database::new(interner.clone());
        for (a, b) in [(1, 1), (1, 2), (2, 2), (3, 1)] {
            db.insert(rel("e"), ituple![a, b]).unwrap();
        }
        let spec = WorkerSpec {
            program: ProcessorProgram {
                processor: 0,
                program: unit.program,
                outgoing: vec![ChannelOut { channel: rel("ch"), dest: 1, inbox: rel("in1") }],
                inboxes: vec![rel("in")],
                processing_rules: vec![0],
                pooling: vec![],
                local_idb: vec![],
                retract_channels: vec![],
            },
            edb: Arc::new(db),
            session: None,
        };
        (spec, interner)
    }

    /// Constants and repeated variables of the pattern and the constraints
    /// select; each matching rule is credited a firing, but a row two
    /// rules route to one channel is buffered once.
    #[test]
    fn routes_select_credit_per_rule_and_buffer_per_channel() {
        let (spec, interner) = spec(
            "out(X,Y) :- e(X,Y).\n\
             ch(X,X) :- out(X,X).\n\
             ch(1,Y) :- out(1,Y).\n\
             in(X,Y) :- out(X,Y), X < Y.",
        );
        let (mut engine, mut router) = spec.build().unwrap();
        assert_eq!(router.rules(), &[1, 2, 3]);
        assert!(
            engine.relation((interner.intern("ch"), 2)).is_none(),
            "a channel keeps no arena"
        );
        engine.bootstrap().unwrap();
        assert_eq!(engine.advance(), 4);
        router.route(&mut engine).unwrap();

        let mut shipped = router.take_channel(0);
        shipped.sort();
        assert_eq!(shipped, vec![ituple![1, 1], ituple![1, 2], ituple![2, 2]]);
        assert!(router.take_channel(0).is_empty(), "the buffer drains");
        assert_eq!(engine.stats().firings_by_rule, vec![4, 2, 2, 1]);
        // The inbox match went to the pending pool: it is the next delta.
        assert_eq!(engine.advance(), 1);
        assert_eq!(engine.delta((interner.intern("in"), 2)), &[ituple![1, 2]]);
    }

    /// A rule heading a channel must be a pure selection: a join into a
    /// channel is rejected with a typed error naming the rule.
    #[test]
    fn join_into_a_channel_is_rejected() {
        let (spec, _) = spec(
            "out(X,Y) :- e(X,Y).\n\
             ch(X,Y) :- out(X,Z), e(Z,Y).",
        );
        let err = crate::transport::validate_specs(&[
            spec.clone(),
            WorkerSpec {
                program: ProcessorProgram {
                    processor: 1,
                    outgoing: vec![],
                    ..spec.program.clone()
                },
                ..spec
            },
        ])
        .unwrap_err();
        match &err {
            Error::Route { processor: 0, rule: 1, text, .. } => {
                assert_eq!(text, "ch(X, Y) :- out(X, Z), e(Z, Y).")
            }
            other => panic!("expected a routing error, got {other:?}"),
        }
        assert!(err.to_string().contains("exactly one atom"), "{err}");
    }

    /// The other shapes a routed rule may not take.
    #[test]
    fn impure_selections_are_rejected() {
        for (source, reason) in [
            ("out(X,Y) :- e(X,Y).\nch(Y,X) :- out(X,Y).", "head terms"),
            ("ch(X,Y) :- e(X,Y).", "derived relation"),
            ("out(X,Y) :- e(X,Y).\nin(X,Y) :- out(X,Y), e(X,Y).", "exactly one atom"),
        ] {
            let (spec, _) = spec(source);
            let err = Router::new(&spec.program).err().expect(source);
            assert!(matches!(err, Error::Route { .. }), "{source}: {err}");
            assert!(err.to_string().contains(reason), "{source}: {err}");
        }
    }
}
