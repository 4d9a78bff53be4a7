//! The information graph of a task.

/// Kind of one operation node, with hardware cost defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OpKind {
    /// 32-bit floating add/subtract.
    Add,
    /// 32-bit floating multiply.
    Mul,
    /// Fused multiply-add.
    MulAdd,
    /// Division (iterative, expensive).
    Div,
    /// Square root (iterative, expensive).
    Sqrt,
    /// Comparison / select / logic.
    Compare,
    /// Local memory access (BRAM port + addressing).
    Memory,
    /// Random-number generation tap (LFSR/Tausworthe stage).
    Random,
}

impl OpKind {
    /// Logic cells one hardwired instance consumes.
    #[must_use]
    pub fn logic_cells(self) -> u64 {
        match self {
            Self::Add => 450,
            Self::Mul => 600,
            Self::MulAdd => 800,
            Self::Div => 2800,
            Self::Sqrt => 2400,
            Self::Compare => 150,
            Self::Memory => 300,
            Self::Random => 220,
        }
    }

    /// Pipeline latency in clock cycles.
    #[must_use]
    pub fn latency_cycles(self) -> u32 {
        match self {
            Self::Add => 3,
            Self::Mul => 4,
            Self::MulAdd => 5,
            Self::Div => 18,
            Self::Sqrt => 16,
            Self::Compare => 1,
            Self::Memory => 2,
            Self::Random => 1,
        }
    }
}

impl core::fmt::Display for OpKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Self::Add => "add",
            Self::Mul => "mul",
            Self::MulAdd => "muladd",
            Self::Div => "div",
            Self::Sqrt => "sqrt",
            Self::Compare => "cmp",
            Self::Memory => "mem",
            Self::Random => "rng",
        })
    }
}

/// One node of the information graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpNode {
    /// Operation kind (determines cost and latency).
    pub kind: OpKind,
}

/// Error raised by graph construction or analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge references a node index that does not exist.
    UnknownNode {
        /// Offending index.
        index: usize,
    },
    /// An edge connects a node to itself.
    SelfEdge {
        /// Offending index.
        index: usize,
    },
    /// The graph contains a dependency cycle (not a DAG).
    Cycle,
    /// The graph has no nodes.
    Empty,
}

impl core::fmt::Display for GraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnknownNode { index } => write!(f, "edge references unknown node {index}"),
            Self::SelfEdge { index } => write!(f, "self-dependency on node {index}"),
            Self::Cycle => write!(f, "information graph contains a cycle"),
            Self::Empty => write!(f, "information graph has no operations"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The information graph of a task: a DAG of operations.
///
/// # Examples
///
/// `y = a*x + b` as a two-node pipeline:
///
/// ```
/// use rcs_taskgraph::{OpKind, TaskGraph};
///
/// let mut g = TaskGraph::new("axpb");
/// let m = g.add_op(OpKind::Mul);
/// let a = g.add_op(OpKind::Add);
/// g.add_edge(m, a)?;
/// assert_eq!(g.op_count(), 2);
/// assert_eq!(g.critical_path_cycles()?, 7); // 4 (mul) + 3 (add)
/// # Ok::<(), rcs_taskgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    name: String,
    nodes: Vec<OpNode>,
    /// `edges[i]` lists successors of node `i`.
    edges: Vec<Vec<usize>>,
}

impl TaskGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Task name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an operation node, returning its index.
    pub fn add_op(&mut self, kind: OpKind) -> usize {
        self.nodes.push(OpNode { kind });
        self.edges.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Adds a dependency edge `from → to`.
    ///
    /// # Errors
    ///
    /// Rejects unknown indices and self-edges. Cycles are detected lazily
    /// by the analyses.
    pub fn add_edge(&mut self, from: usize, to: usize) -> Result<(), GraphError> {
        if from >= self.nodes.len() {
            return Err(GraphError::UnknownNode { index: from });
        }
        if to >= self.nodes.len() {
            return Err(GraphError::UnknownNode { index: to });
        }
        if from == to {
            return Err(GraphError::SelfEdge { index: from });
        }
        if !self.edges[from].contains(&to) {
            self.edges[from].push(to);
        }
        Ok(())
    }

    /// Number of operations.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes in insertion order.
    #[must_use]
    pub fn ops(&self) -> &[OpNode] {
        &self.nodes
    }

    /// Total logic cells for one hardwired copy of the graph, including a
    /// 15 % routing/control overhead.
    #[must_use]
    pub fn logic_cells(&self) -> u64 {
        let raw: u64 = self.nodes.iter().map(|n| n.kind.logic_cells()).sum();
        raw + raw * 15 / 100
    }

    /// Topological order of the nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Cycle`] for cyclic graphs and
    /// [`GraphError::Empty`] for empty ones.
    pub fn topo_order(&self) -> Result<Vec<usize>, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        for succs in &self.edges {
            for &s in succs {
                indegree[s] += 1;
            }
        }
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &s in &self.edges[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(GraphError::Cycle)
        }
    }

    /// Length of the longest dependency chain in clock cycles — the
    /// pipeline fill latency of the hardwired datapath.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TaskGraph::topo_order`].
    pub fn critical_path_cycles(&self) -> Result<u32, GraphError> {
        let order = self.topo_order()?;
        let mut finish = vec![0u32; self.nodes.len()];
        for &i in &order {
            let own = self.nodes[i].kind.latency_cycles();
            let start = finish[i];
            let f = start + own;
            finish[i] = f;
            for &s in &self.edges[i] {
                finish[s] = finish[s].max(f);
            }
        }
        Ok(finish.into_iter().max().unwrap_or(0))
    }

    /// Operations retired per initiation (one result set per clock in a
    /// fully pipelined datapath): simply the op count.
    #[must_use]
    pub fn ops_per_initiation(&self) -> u64 {
        self.nodes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // a -> b, a -> c, b -> d, c -> d
        let mut g = TaskGraph::new("diamond");
        let a = g.add_op(OpKind::Mul); // 4
        let b = g.add_op(OpKind::Add); // 3
        let c = g.add_op(OpKind::Div); // 18
        let d = g.add_op(OpKind::Add); // 3
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(c, d).unwrap();
        g
    }

    #[test]
    fn critical_path_takes_the_slow_arm() {
        // mul(4) + div(18) + add(3) = 25
        assert_eq!(diamond().critical_path_cycles().unwrap(), 25);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topo_order().unwrap();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn cycle_detected() {
        let mut g = TaskGraph::new("loop");
        let a = g.add_op(OpKind::Add);
        let b = g.add_op(OpKind::Add);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        assert_eq!(g.topo_order().unwrap_err(), GraphError::Cycle);
        assert_eq!(g.critical_path_cycles().unwrap_err(), GraphError::Cycle);
    }

    #[test]
    fn empty_graph_rejected() {
        let g = TaskGraph::new("empty");
        assert_eq!(g.topo_order().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn builder_validation() {
        let mut g = TaskGraph::new("t");
        let a = g.add_op(OpKind::Add);
        assert_eq!(
            g.add_edge(a, 5).unwrap_err(),
            GraphError::UnknownNode { index: 5 }
        );
        assert_eq!(
            g.add_edge(a, a).unwrap_err(),
            GraphError::SelfEdge { index: a }
        );
        // duplicate edges are idempotent
        let b = g.add_op(OpKind::Mul);
        g.add_edge(a, b).unwrap();
        g.add_edge(a, b).unwrap();
        assert_eq!(g.edges[a], vec![b]);
    }

    #[test]
    fn logic_cells_include_overhead() {
        let g = diamond();
        let raw = 600 + 450 + 2800 + 450;
        assert!(g.logic_cells() > raw);
        assert!(g.logic_cells() < raw + raw / 5);
    }

    #[test]
    fn expensive_ops_cost_more() {
        assert!(OpKind::Div.logic_cells() > OpKind::Add.logic_cells());
        assert!(OpKind::Sqrt.latency_cycles() > OpKind::Mul.latency_cycles());
    }
}
