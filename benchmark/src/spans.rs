//! In-memory host-time spans recorded around the calls into each layer.
//!
//! The wrappers in [`crate::assembly`] bracket every delegated call with
//! [`SpanLog::enter`]. A span is `(name, start, end, parent)`; its self
//! time is its duration minus the time its child spans cover. Totals per
//! name are kept exactly; the raw spans are kept up to [`RAW_CAP`] so the
//! file written at exit stays bounded.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// Raw spans kept for the output file. Totals are exact regardless.
pub const RAW_CAP: usize = 200_000;

/// The layers a span can belong to. `Run` is the root: the whole traced
/// run, whose self time is the engine's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Layer {
    /// The traced run itself; self time = `simnet` engine.
    Run,
    /// `ServerAgent` handlers (`HcNode`, raft, framing, trace emission).
    Server,
    /// `ClientAgent` handlers.
    Client,
    /// `Service::execute` and snapshot calls.
    Service,
    /// Switch pipeline programs (flow control, aggregator).
    Switch,
    /// The crash–restart hook (durable-state restore, service rebuild).
    Restart,
    /// The benchmark's own gauge sampling between simulation steps.
    Gauges,
}

/// Every layer, in [`Layer`] discriminant order.
pub const LAYERS: [Layer; 7] = [
    Layer::Run,
    Layer::Server,
    Layer::Client,
    Layer::Service,
    Layer::Switch,
    Layer::Restart,
    Layer::Gauges,
];

impl Layer {
    /// Name used in the spans file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Server => "testbed.server",
            Layer::Client => "testbed.client",
            Layer::Service => "service",
            Layer::Switch => "testbed.switch",
            Layer::Restart => "testbed.restart",
            Layer::Gauges => "hcbench.gauges",
        }
    }
}

/// One closed span; times are ns since the log was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index of the span in open order.
    pub id: u32,
    /// Layer the span belongs to.
    pub layer: Layer,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the parent span in open order (-1 for the root).
    pub parent: i64,
}

/// Exact totals of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTotals {
    /// Spans closed.
    pub calls: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus children), ns.
    pub self_ns: u64,
}

struct Open {
    layer: Layer,
    node: u32,
    start_ns: u64,
    child_ns: u64,
    id: u32,
}

struct Inner {
    t0: Instant,
    next_id: u32,
    stack: Vec<Open>,
    totals: [LayerTotals; LAYERS.len()],
    /// Server self time per node id, ns (for the leader's share).
    server_self_by_node: Vec<u64>,
    raw: Vec<Span>,
}

/// Shared span recorder; clones share one log (a world is single-threaded).
#[derive(Clone)]
pub struct SpanLog {
    inner: Rc<RefCell<Inner>>,
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    log: &'a SpanLog,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log; time zero is now.
    pub fn new() -> SpanLog {
        SpanLog {
            inner: Rc::new(RefCell::new(Inner {
                t0: Instant::now(),
                next_id: 0,
                stack: Vec::with_capacity(8),
                totals: [LayerTotals::default(); LAYERS.len()],
                server_self_by_node: Vec::new(),
                raw: Vec::with_capacity(RAW_CAP),
            })),
        }
    }

    /// Opens a span of `layer` on behalf of `node` (0 where no node applies).
    pub fn enter(&self, layer: Layer, node: u32) -> SpanGuard<'_> {
        let mut g = self.inner.borrow_mut();
        let id = g.next_id;
        g.next_id += 1;
        let start_ns = g.t0.elapsed().as_nanos() as u64;
        g.stack.push(Open {
            layer,
            node,
            start_ns,
            child_ns: 0,
            id,
        });
        SpanGuard { log: self }
    }

    fn exit(&self) {
        let mut g = self.inner.borrow_mut();
        let end_ns = g.t0.elapsed().as_nanos() as u64;
        let open = g.stack.pop().expect("span closed twice");
        let dur = end_ns - open.start_ns;
        let own = dur.saturating_sub(open.child_ns);
        let t = &mut g.totals[open.layer as usize];
        t.calls += 1;
        t.total_ns += dur;
        t.self_ns += own;
        if open.layer == Layer::Server {
            let i = open.node as usize;
            if g.server_self_by_node.len() <= i {
                g.server_self_by_node.resize(i + 1, 0);
            }
            g.server_self_by_node[i] += own;
        }
        let parent = match g.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                i64::from(p.id)
            }
            None => -1,
        };
        if g.raw.len() < RAW_CAP {
            g.raw.push(Span {
                id: open.id,
                layer: open.layer,
                start_ns: open.start_ns,
                end_ns,
                parent,
            });
        }
    }

    /// Forgets everything recorded so far (open spans must be closed):
    /// called once the world is set up, so the log covers the run alone.
    pub fn reset(&self) {
        let mut g = self.inner.borrow_mut();
        assert!(g.stack.is_empty(), "reset with a span open");
        g.t0 = Instant::now();
        g.next_id = 0;
        g.totals = [LayerTotals::default(); LAYERS.len()];
        g.server_self_by_node.clear();
        g.raw.clear();
    }

    /// Exact totals of `layer`.
    pub fn totals(&self, layer: Layer) -> LayerTotals {
        self.inner.borrow().totals[layer as usize]
    }

    /// Sum of every layer's self time, ns. Equals the root span's duration
    /// when every span closed under the root.
    pub fn self_sum_ns(&self) -> u64 {
        self.inner.borrow().totals.iter().map(|t| t.self_ns).sum()
    }

    /// Server self time spent on `node`, ns.
    pub fn server_self_ns(&self, node: u32) -> u64 {
        self.inner
            .borrow()
            .server_self_by_node
            .get(node as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Writes the totals and the first [`RAW_CAP`] raw spans as CSV.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let g = self.inner.borrow();
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "# totals: layer,calls,total_ns,self_ns")?;
        for l in LAYERS {
            let t = g.totals[l as usize];
            writeln!(f, "# {},{},{},{}", l.name(), t.calls, t.total_ns, t.self_ns)?;
        }
        writeln!(
            f,
            "# first {} of {} spans, in close order",
            g.raw.len(),
            g.next_id
        )?;
        writeln!(f, "id,layer,start_ns,end_ns,parent")?;
        for s in &g.raw {
            writeln!(
                f,
                "{},{},{},{},{}",
                s.id,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.parent
            )?;
        }
        f.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.log.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_root() {
        let log = SpanLog::new();
        {
            let _run = log.enter(Layer::Run, 0);
            for node in 0..3 {
                let _srv = log.enter(Layer::Server, node);
                let _svc = log.enter(Layer::Service, node);
                std::hint::black_box((0..1000).sum::<u64>());
            }
        }
        let run = log.totals(Layer::Run);
        let srv = log.totals(Layer::Server);
        let svc = log.totals(Layer::Service);
        assert_eq!((run.calls, srv.calls, svc.calls), (1, 3, 3));
        assert_eq!(svc.self_ns, svc.total_ns, "leaf spans have no children");
        assert_eq!(srv.self_ns, srv.total_ns - svc.total_ns);
        assert_eq!(run.self_ns, run.total_ns - srv.total_ns);
        assert_eq!(log.self_sum_ns(), run.total_ns);
        assert_eq!(
            (0..3).map(|n| log.server_self_ns(n)).sum::<u64>(),
            srv.self_ns
        );
    }
}
