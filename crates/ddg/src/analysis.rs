//! The one-time analysis of a loop, from one read of its dependence graph.
//!
//! Before its first attempt at a loop, MIRS-C finds the loop's recurrence
//! circuits, bounds the II from below with their `RecMII`, and pre-orders
//! the nodes into the HRMS priority list (Section 3.1 and Figure 4 of the
//! paper). [`LoopAnalysis`] does all of it on compact arrays. It reads
//! each live node's out-edge list once into arcs (target, latency,
//! distance), and everything after that reads only the arcs:
//!
//! * Tarjan's algorithm walks the arcs in out-edge order from the live
//!   nodes in id order, so the components, and the order of the nodes in
//!   each, come out as a walk of the graph itself would emit them;
//! * each recurrence's `RecMII` probes only its own arcs;
//! * the heights (longest distance-0 path to a sink) take one pass over
//!   the components in emission order, sinks first, with a fixpoint only
//!   inside a recurrence;
//! * the HRMS order keeps its marks, reach sets and unordered-neighbour
//!   counts in dense arrays, over neighbour lists deduplicated from the
//!   arcs.
//!
//! The workspace keeps its buffers from one loop to the next, so a warm
//! analysis allocates only its recurrence list and the hash sets below.
//!
//! # Ties
//!
//! HRMS picks, among the candidates of a set, the one with the largest
//! (readiness, height, −unordered neighbours); ties go to the first
//! candidate in the iteration order of the set's fixed-hasher `HashSet`.
//! Each ordered set is built as such a `HashSet`, from a fixed insertion
//! sequence with fixed size hints, and its iteration order is taken once.
//! The standard table never moves an entry on removal, so a walk of the
//! set after each pick, minus the picked nodes, would see the order taken
//! at the start. A candidate's key changes only when a neighbour is
//! placed, so only the picked node's neighbours are re-keyed.
//!
//! Heights on a graph whose distance-0 edges close a positive cycle have
//! no fixpoint; such a loop has no schedule at any II, and its heights
//! stop after one round per node of the component.

use crate::collections::HashSet;
use crate::graph::DepGraph;
use crate::ids::NodeId;
use crate::recurrence::Recurrence;
use vliw::LatencyModel;

/// "No index": an unvisited node, or a node outside the set being ordered.
const NONE: u32 = u32::MAX;

/// Reach marks of the path search between the ordered region (A) and the
/// recurrence set being extended (B): forward and backward reach of each,
/// and membership of B.
const DOWN_A: u8 = 1;
const UP_A: u8 = 2;
const DOWN_B: u8 = 4;
const UP_B: u8 = 8;
const IN_B: u8 = 16;

/// One dependence edge as the analysis reads it.
#[derive(Debug, Clone, Copy)]
struct Arc {
    to: u32,
    /// [`DepGraph::latency_of`] under the analysis's latency model.
    latency: i64,
    distance: u32,
}

/// Reusable workspace of the one-time loop analysis.
///
/// [`LoopAnalysis::analyse`] finds the recurrences and the `RecMII`, and
/// [`LoopAnalysis::order`] then yields the HRMS priority order. The free
/// functions [`crate::recurrence::recurrences`],
/// [`crate::hrms::hrms_order`] and [`crate::mii::rec_mii`] run the same
/// analysis on a fresh workspace.
///
/// # Example
///
/// ```
/// use ddg::analysis::LoopAnalysis;
/// use ddg::LoopBuilder;
/// use vliw::{LatencyModel, Opcode};
///
/// // s = s + x[i]: one recurrence of latency 4 over distance 1.
/// let mut b = LoopBuilder::new("sum");
/// let x = b.load("x");
/// let s = b.recurrence("s");
/// let add = b.op(Opcode::FpAdd, &[s, x]);
/// b.close_recurrence(s, add, 1);
/// let lp = b.finish(100);
///
/// let mut analysis = LoopAnalysis::new();
/// analysis.analyse(&lp.graph, &LatencyModel::default());
/// assert_eq!(analysis.recurrences().len(), 1);
/// assert_eq!(analysis.rec_mii(), 4);
/// let mut order = Vec::new();
/// analysis.order(&mut order);
/// assert_eq!(order.len(), lp.graph.node_count());
/// ```
#[derive(Debug, Default)]
pub struct LoopAnalysis {
    /// Live node indices, ascending.
    nodes: Vec<u32>,
    /// The arcs of node `i` are `arcs[arc_start[i]..arc_start[i + 1]]`, in
    /// out-edge order; removed ids have none.
    arc_start: Vec<u32>,
    arcs: Vec<Arc>,
    /// Σ (latency + 1) over the live nodes: the upper end of every `RecMII`
    /// search.
    latency_sum: u64,

    // Tarjan.
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// Open frames: (node, next arc to walk).
    frames: Vec<(u32, u32)>,
    /// Component of each node, numbered in emission order.
    comp_of: Vec<u32>,
    /// The nodes of component `c` are `comp_nodes[comp_start[c]..comp_start[c + 1]]`,
    /// in the order Tarjan pops them.
    comp_nodes: Vec<u32>,
    comp_start: Vec<u32>,
    /// Whether each component is a recurrence circuit: more than one node,
    /// or a self arc.
    comp_rec: Vec<bool>,

    // Recurrences and `RecMII`.
    recs: Vec<Recurrence>,
    /// Position of each node inside its component.
    local: Vec<u32>,
    /// A component's own arcs in local indices: (from, to, latency, distance).
    constraints: Vec<(u32, u32, i64, i64)>,
    bellman_ford: Vec<i64>,

    // HRMS order.
    height: Vec<i64>,
    /// Deduplicated successors of node `i` (self excluded):
    /// `succs[succ_start[i]..succ_start[i + 1]]`; likewise `preds`.
    succ_start: Vec<u32>,
    succs: Vec<u32>,
    pred_start: Vec<u32>,
    preds: Vec<u32>,
    /// Stamps of the deduplication, then the fill cursors of `preds`.
    cursor: Vec<u32>,
    /// Unordered predecessors and successors of each node.
    unordered_preds: Vec<u32>,
    unordered_succs: Vec<u32>,
    placed: Vec<bool>,
    marks: Vec<u8>,
    dfs: Vec<u32>,
    path: Vec<NodeId>,
    /// The set being ordered, in its hash set's iteration order, with each
    /// candidate's key (`PLACED` once picked) and each node's position.
    snapshot: Vec<u32>,
    keys: Vec<u128>,
    position: Vec<u32>,
}

/// Key of a picked node: below every candidate's.
const PLACED: u128 = 0;

/// Whether the constraint graph `constraints` over `n` nodes has a
/// positive-weight cycle at `ii`.
///
/// Longest-path Bellman–Ford from a virtual source joined to every node by
/// a 0-weight edge: a positive cycle exists iff some distance still
/// improves after `n` rounds. The verdict does not depend on edge order.
fn has_positive_cycle(
    n: usize,
    constraints: &[(u32, u32, i64, i64)],
    ii: i64,
    dist: &mut Vec<i64>,
) -> bool {
    dist.clear();
    dist.resize(n, 0);
    for round in 0..=n {
        let mut changed = false;
        for &(f, t, latency, distance) in constraints {
            let w = latency - ii * distance;
            if dist[f as usize] + w > dist[t as usize] {
                dist[t as usize] = dist[f as usize] + w;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if round == n {
            return true;
        }
    }
    false
}

/// `v` emptied and sized to `len` copies of `x`, keeping its capacity.
fn reset<T: Clone>(v: &mut Vec<T>, len: usize, x: T) {
    v.clear();
    v.resize(len, x);
}

impl LoopAnalysis {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Analyse `g` under `lat`: read its arcs, find its components and
    /// its recurrences with their `RecMII`. The recurrences are sorted by
    /// decreasing `RecMII`, then by size, the order HRMS orders them in.
    pub fn analyse(&mut self, g: &DepGraph, lat: &LatencyModel) {
        self.read(g, lat);
        self.recs.clear();
        for c in 0..self.comp_rec.len() {
            if self.comp_rec[c] {
                let rec_mii = self.component_rec_mii(c);
                let nodes = self.members(c).iter().map(|&n| NodeId(n)).collect();
                self.recs.push(Recurrence { nodes, rec_mii });
            }
        }
        self.recs.sort_by(|a, b| {
            b.rec_mii
                .cmp(&a.rec_mii)
                .then(a.nodes.len().cmp(&b.nodes.len()))
        });
    }

    /// The recurrences of the graph last analysed.
    #[must_use]
    pub fn recurrences(&self) -> &[Recurrence] {
        &self.recs
    }

    /// `RecMII` of the graph last analysed: the largest `RecMII` of its
    /// recurrences, 1 without any. A positive cycle of the whole
    /// constraint graph lies inside one strongly connected component, and
    /// every component's search has the whole graph's latency sum as its
    /// upper end, so this is the whole graph's `RecMII`.
    #[must_use]
    pub fn rec_mii(&self) -> u32 {
        self.recs.first().map_or(1, |r| r.rec_mii)
    }

    /// Fill `out` with the HRMS priority order of the graph last analysed,
    /// its recurrences first; the first node has the highest priority.
    pub fn order(&mut self, out: &mut Vec<NodeId>) {
        let recs = std::mem::take(&mut self.recs);
        self.order_with(&recs, out);
        self.recs = recs;
    }

    /// The recurrence list, leaving the workspace.
    pub(crate) fn into_recurrences(self) -> Vec<Recurrence> {
        self.recs
    }

    /// Read the arcs of `g` and find its components, without `RecMII`.
    pub(crate) fn read(&mut self, g: &DepGraph, lat: &LatencyModel) {
        let cap = g.node_capacity();
        // Sized once, so a fresh workspace allocates each list once: loops
        // have about 1.4 edges per node.
        self.nodes.clear();
        self.nodes.reserve(cap);
        self.arc_start.clear();
        self.arc_start.reserve(cap + 1);
        self.arcs.clear();
        self.arcs.reserve(2 * cap);
        self.latency_sum = 0;
        for n in g.node_ids() {
            self.arc_start.resize(n.index() + 1, self.arcs.len() as u32);
            self.nodes.push(n.0);
            self.latency_sum += u64::from(g.op(n).latency(lat)) + 1;
            self.arcs.extend(g.out_edge_ids(n).iter().map(|&e| {
                let edge = g.edge(e);
                Arc {
                    to: edge.to.0,
                    latency: g.latency_of(edge, lat),
                    distance: edge.distance,
                }
            }));
        }
        self.arc_start.resize(cap + 1, self.arcs.len() as u32);
        self.tarjan(cap);
    }

    /// The arcs of node `n`.
    fn arcs_of(&self, n: u32) -> &[Arc] {
        let n = n as usize;
        &self.arcs[self.arc_start[n] as usize..self.arc_start[n + 1] as usize]
    }

    /// The nodes of component `c`.
    fn members(&self, c: usize) -> &[u32] {
        &self.comp_nodes[self.comp_start[c] as usize..self.comp_start[c + 1] as usize]
    }

    /// Iterative Tarjan over the arcs, roots in ascending id order.
    fn tarjan(&mut self, cap: usize) {
        reset(&mut self.index, cap, NONE);
        reset(&mut self.lowlink, cap, 0);
        reset(&mut self.on_stack, cap, false);
        reset(&mut self.comp_of, cap, NONE);
        self.stack.reserve(cap);
        self.frames.reserve(cap);
        self.comp_nodes.clear();
        self.comp_nodes.reserve(cap);
        self.comp_start.clear();
        self.comp_start.reserve(cap + 1);
        self.comp_start.push(0);
        self.comp_rec.clear();
        self.comp_rec.reserve(cap);
        let mut next = 0;
        for i in 0..self.nodes.len() {
            let root = self.nodes[i];
            if self.index[root as usize] != NONE {
                continue;
            }
            self.discover(root, &mut next);
            self.frames.push((root, self.arc_start[root as usize]));
            while let Some((node, mut a)) = self.frames.pop() {
                let n = node as usize;
                let end = self.arc_start[n + 1];
                let mut descended = false;
                while a < end {
                    let w = self.arcs[a as usize].to;
                    a += 1;
                    if self.index[w as usize] == NONE {
                        self.discover(w, &mut next);
                        self.frames.push((node, a));
                        self.frames.push((w, self.arc_start[w as usize]));
                        descended = true;
                        break;
                    } else if self.on_stack[w as usize] {
                        self.lowlink[n] = self.lowlink[n].min(self.index[w as usize]);
                    }
                }
                if descended {
                    continue;
                }
                if self.lowlink[n] == self.index[n] {
                    self.emit(node);
                }
                if let Some(&(parent, _)) = self.frames.last() {
                    let p = parent as usize;
                    self.lowlink[p] = self.lowlink[p].min(self.lowlink[n]);
                }
            }
        }
    }

    fn discover(&mut self, n: u32, next: &mut u32) {
        self.index[n as usize] = *next;
        self.lowlink[n as usize] = *next;
        *next += 1;
        self.stack.push(n);
        self.on_stack[n as usize] = true;
    }

    /// Pop the component rooted at `root` off the Tarjan stack.
    fn emit(&mut self, root: u32) {
        let c = self.comp_rec.len() as u32;
        loop {
            let w = self.stack.pop().expect("tarjan stack underflow");
            self.on_stack[w as usize] = false;
            self.comp_of[w as usize] = c;
            self.comp_nodes.push(w);
            if w == root {
                break;
            }
        }
        self.comp_start.push(self.comp_nodes.len() as u32);
        let members = self.members(c as usize);
        let rec = members.len() > 1 || self.arcs_of(root).iter().any(|a| a.to == root);
        self.comp_rec.push(rec);
    }

    /// Smallest II in `[1, latency sum]` at which component `c`'s own arcs
    /// close no positive cycle: the component's `RecMII`.
    fn component_rec_mii(&mut self, c: usize) -> u32 {
        self.local.resize(self.comp_of.len(), NONE);
        let (lo, hi) = (self.comp_start[c] as usize, self.comp_start[c + 1] as usize);
        for (k, i) in (lo..hi).enumerate() {
            self.local[self.comp_nodes[i] as usize] = k as u32;
        }
        self.constraints.clear();
        for i in lo..hi {
            let from = self.comp_nodes[i];
            let start = self.arc_start[from as usize] as usize;
            let end = self.arc_start[from as usize + 1] as usize;
            for arc in &self.arcs[start..end] {
                if self.comp_of[arc.to as usize] == c as u32 {
                    self.constraints.push((
                        self.local[from as usize],
                        self.local[arc.to as usize],
                        arc.latency,
                        i64::from(arc.distance),
                    ));
                }
            }
        }
        let n = hi - lo;
        let (mut lo, mut hi) = (1u64, self.latency_sum.max(1));
        while lo < hi {
            let mid = (lo + hi) / 2;
            if has_positive_cycle(n, &self.constraints, mid as i64, &mut self.bellman_ford) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        u32::try_from(lo).unwrap_or(u32::MAX)
    }

    /// The components of the graph last read, in emission order, each with
    /// whether it is a recurrence circuit.
    pub(crate) fn components(&self) -> impl Iterator<Item = (&[u32], bool)> + '_ {
        (0..self.comp_rec.len()).map(|c| (self.members(c), self.comp_rec[c]))
    }

    /// Longest-path height of every node over distance-0 arcs: the latency
    /// from the node to its furthest sink. Components come sinks first, so
    /// one pass settles every arc leaving a component; a recurrence's own
    /// arcs need rounds until nothing changes.
    pub(crate) fn heights(&mut self) -> &[i64] {
        reset(&mut self.height, self.comp_of.len(), 0);
        for c in 0..self.comp_rec.len() {
            let (lo, hi) = (self.comp_start[c] as usize, self.comp_start[c + 1] as usize);
            for _ in lo..hi {
                let mut changed = false;
                for i in lo..hi {
                    let n = self.comp_nodes[i] as usize;
                    let start = self.arc_start[n] as usize;
                    let end = self.arc_start[n + 1] as usize;
                    for arc in &self.arcs[start..end] {
                        if arc.distance != 0 {
                            continue;
                        }
                        let cand = self.height[arc.to as usize] + arc.latency;
                        if cand > self.height[n] {
                            self.height[n] = cand;
                            changed = true;
                        }
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        &self.height
    }

    /// Deduplicated successor and predecessor lists (self excluded) and
    /// the unordered-neighbour counts, all neighbours unordered.
    fn neighbours(&mut self) {
        let cap = self.comp_of.len();
        reset(&mut self.cursor, cap, NONE);
        reset(&mut self.unordered_preds, cap, 0);
        reset(&mut self.unordered_succs, cap, 0);
        self.succ_start.clear();
        self.succ_start.reserve(cap + 1);
        self.succs.clear();
        self.succs.reserve(self.arcs.len());
        for n in 0..cap {
            self.succ_start.push(self.succs.len() as u32);
            let start = self.arc_start[n] as usize;
            let end = self.arc_start[n + 1] as usize;
            for arc in &self.arcs[start..end] {
                let to = arc.to as usize;
                if to != n && self.cursor[to] != n as u32 {
                    self.cursor[to] = n as u32;
                    self.succs.push(arc.to);
                    self.unordered_preds[to] += 1;
                }
            }
            self.unordered_succs[n] = self.succs.len() as u32 - self.succ_start[n];
        }
        self.succ_start.push(self.succs.len() as u32);
        self.pred_start.clear();
        self.pred_start.reserve(cap + 1);
        self.pred_start.push(0);
        let mut total = 0;
        for n in 0..cap {
            self.cursor[n] = total;
            total += self.unordered_preds[n];
            self.pred_start.push(total);
        }
        reset(&mut self.preds, total as usize, 0);
        for n in 0..cap {
            for i in self.succ_start[n] as usize..self.succ_start[n + 1] as usize {
                let to = self.succs[i] as usize;
                self.preds[self.cursor[to] as usize] = n as u32;
                self.cursor[to] += 1;
            }
        }
    }

    /// The HRMS order over the recurrence sets `recs` of the graph last
    /// read: each set, extended with the nodes on paths between it and the
    /// nodes already ordered, then the rest.
    pub(crate) fn order_with(&mut self, recs: &[Recurrence], out: &mut Vec<NodeId>) {
        out.clear();
        if self.nodes.is_empty() {
            return;
        }
        let cap = self.comp_of.len();
        self.heights();
        self.neighbours();
        reset(&mut self.placed, cap, false);
        reset(&mut self.position, cap, NONE);
        self.snapshot.reserve(cap);
        self.keys.reserve(cap);
        out.reserve(self.nodes.len());
        for rec in recs {
            let mut set: HashSet<NodeId> = rec
                .nodes
                .iter()
                .copied()
                .filter(|n| !self.placed[n.index()])
                .collect();
            if set.is_empty() {
                continue;
            }
            self.path_nodes(&set, out);
            set.extend(self.path.iter().copied());
            self.order_set(&set, out);
        }
        let rest: HashSet<NodeId> = self
            .nodes
            .iter()
            .map(|&n| NodeId(n))
            .filter(|n| !self.placed[n.index()])
            .collect();
        if !rest.is_empty() {
            self.order_set(&rest, out);
        }
        debug_assert_eq!(out.len(), self.nodes.len());
    }

    /// Fill `path` with the nodes, ascending, that lie on a dependence
    /// path in either direction between the ordered nodes and `set`,
    /// excluding both.
    fn path_nodes(&mut self, set: &HashSet<NodeId>, ordered: &[NodeId]) {
        self.path.clear();
        if ordered.is_empty() {
            return;
        }
        reset(&mut self.marks, self.comp_of.len(), 0);
        for n in set {
            self.marks[n.index()] |= IN_B;
        }
        self.reach(ordered.iter().copied(), true, DOWN_A);
        self.reach(ordered.iter().copied(), false, UP_A);
        self.reach(set.iter().copied(), true, DOWN_B);
        self.reach(set.iter().copied(), false, UP_B);
        for &n in &self.nodes {
            let m = self.marks[n as usize];
            let between = (m & DOWN_A != 0 && m & UP_B != 0) || (m & DOWN_B != 0 && m & UP_A != 0);
            if between && m & IN_B == 0 && !self.placed[n as usize] {
                self.path.push(NodeId(n));
            }
        }
    }

    /// Mark `bit` on every node reachable from `start` (itself included),
    /// forward over successors or backward over predecessors.
    fn reach(&mut self, start: impl Iterator<Item = NodeId>, forward: bool, bit: u8) {
        self.dfs.clear();
        for n in start {
            if self.marks[n.index()] & bit == 0 {
                self.marks[n.index()] |= bit;
                self.dfs.push(n.0);
            }
        }
        let (starts, next) = if forward {
            (&self.succ_start, &self.succs)
        } else {
            (&self.pred_start, &self.preds)
        };
        while let Some(n) = self.dfs.pop() {
            let n = n as usize;
            for &m in &next[starts[n] as usize..starts[n + 1] as usize] {
                if self.marks[m as usize] & bit == 0 {
                    self.marks[m as usize] |= bit;
                    self.dfs.push(m);
                }
            }
        }
    }

    /// Candidate key of node `n` at snapshot position `pos`: the candidate
    /// HRMS picks has the largest. Readiness and height come first (a node
    /// is ready when it has no unordered predecessor or no unordered
    /// successor, so placing it keeps the "only predecessors or only
    /// successors already placed" property), then fewer unordered
    /// neighbours, then the earlier position.
    ///
    /// The three fields fit their widths: the primary is non-negative and
    /// below 2^63, a node has fewer than 2^32 predecessors and as many
    /// successors, so the count is below 2^33 − 1, and a position is below
    /// 2^32. Every candidate's key is therefore above `PLACED`.
    fn key(&self, n: u32, pos: u32) -> u128 {
        let (p, s) = (
            u64::from(self.unordered_preds[n as usize]),
            u64::from(self.unordered_succs[n as usize]),
        );
        let ready = if p == 0 || s == 0 { 1 } else { 0 };
        let primary = u64::try_from(ready * 1_000_000 + self.height[n as usize])
            .expect("heights are non-negative");
        u128::from(primary) << 65
            | u128::from((1 << 33) - 1 - (p + s)) << 32
            | u128::from(u32::MAX - pos)
    }

    /// Order the nodes of `set`, appending to `out`: repeatedly the first
    /// candidate, in the iteration order of a hash set rebuilt from `set`,
    /// with the largest (readiness, height, −unordered neighbours). Without
    /// a ready node (the last node of a recurrence circuit), the one with
    /// fewest unordered neighbours wins.
    fn order_set(&mut self, set: &HashSet<NodeId>, out: &mut Vec<NodeId>) {
        let remaining: HashSet<NodeId> = set
            .iter()
            .copied()
            .filter(|n| !self.placed[n.index()])
            .collect();
        self.snapshot.clear();
        self.snapshot.extend(remaining.iter().map(|n| n.0));
        self.keys.clear();
        for pos in 0..self.snapshot.len() as u32 {
            let n = self.snapshot[pos as usize];
            self.position[n as usize] = pos;
            self.keys.push(self.key(n, pos));
        }
        for _ in 0..self.snapshot.len() {
            let best = *self.keys.iter().max().expect("a candidate is left");
            let pos = u32::MAX - best as u32;
            let chosen = self.snapshot[pos as usize];
            self.keys[pos as usize] = PLACED;
            self.position[chosen as usize] = NONE;
            self.placed[chosen as usize] = true;
            out.push(NodeId(chosen));
            let c = chosen as usize;
            for i in self.succ_start[c] as usize..self.succ_start[c + 1] as usize {
                let s = self.succs[i];
                self.unordered_preds[s as usize] -= 1;
                self.rekey(s);
            }
            for i in self.pred_start[c] as usize..self.pred_start[c + 1] as usize {
                let p = self.preds[i];
                self.unordered_succs[p as usize] -= 1;
                self.rekey(p);
            }
        }
    }

    /// Refresh the key of `n` if it is a candidate of the set being ordered.
    fn rekey(&mut self, n: u32) {
        let pos = self.position[n as usize];
        if pos != NONE {
            self.keys[pos as usize] = self.key(n, pos);
        }
    }
}
