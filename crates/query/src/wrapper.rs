//! Source wrappers (Fig. 1: "Wrapper" boxes between the query engine
//! and the knowledge bases).

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::ast::Condition;
use crate::kb::{Instance, KnowledgeBase};
use crate::Result;

/// A queryable source of instances.
pub trait Wrapper {
    /// The source ontology this wrapper serves.
    fn source(&self) -> &str;

    /// Hands `visit` every instance of any of `classes` that satisfies
    /// `conditions` (all in the source's local vocabulary), in an order
    /// of the wrapper's choosing: a wrapper promises none, and
    /// [`execute_plan`](crate::exec::execute_plan) sorts the rows it
    /// builds. Fetching in id order saves that sort all but one walk.
    /// The instance is lent for the call only, so an in-memory source
    /// copies nothing; a remote one can build each instance and visit
    /// it. An `Err` from `visit` stops the fetch and is returned.
    fn fetch(
        &self,
        classes: &[String],
        conditions: &[Condition],
        visit: &mut dyn FnMut(&Instance) -> Result<()>,
    ) -> Result<()>;
}

/// Wrapper over an in-memory [`KnowledgeBase`], counting calls so tests
/// and benches can observe plan behaviour (e.g. that pruned sources are
/// never consulted). The counter is atomic so wrappers stay `Sync` and
/// `onion-exec` can fan query batches over them from several threads.
///
/// A fetch lends the KB's instances in (id, insertion) order
/// ([`KnowledgeBase::query`]), so the rows of one source reach
/// [`ResultSet::normalise`](crate::ResultSet::normalise) already sorted.
#[derive(Debug)]
pub struct InMemoryWrapper {
    kb: KnowledgeBase,
    calls: AtomicUsize,
}

impl InMemoryWrapper {
    /// Wraps a knowledge base.
    pub fn new(kb: KnowledgeBase) -> Self {
        InMemoryWrapper { kb, calls: AtomicUsize::new(0) }
    }

    /// How many fetches have been served.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    /// Read access to the underlying KB.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }
}

impl Wrapper for InMemoryWrapper {
    fn source(&self) -> &str {
        self.kb.name()
    }

    fn fetch(
        &self,
        classes: &[String],
        conditions: &[Condition],
        visit: &mut dyn FnMut(&Instance) -> Result<()>,
    ) -> Result<()> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.kb.query(classes, conditions).into_iter().try_for_each(visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, Value};

    #[test]
    fn wrapper_serves_and_counts() {
        let mut kb = KnowledgeBase::new("carrier");
        kb.add(Instance::new("car1", "Cars").with("Price", Value::Num(4000.0)));
        kb.add(Instance::new("truck1", "Trucks").with("Price", Value::Num(9000.0)));
        let w = InMemoryWrapper::new(kb);
        assert_eq!(w.source(), "carrier");
        assert_eq!(w.calls(), 0);
        let mut got = Vec::new();
        w.fetch(
            &["Cars".to_string()],
            &[Condition::new("Price", CmpOp::Lt, Value::Num(5000.0))],
            &mut |i| {
                got.push(i.id.to_string());
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(got, vec!["car1"]);
        assert_eq!(w.calls(), 1);
    }
}
