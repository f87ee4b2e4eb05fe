//! Cluster selection and inter-cluster move insertion (Section 3.3).

use crate::scheduler::SchedState;
use crate::scratch::Derivation;
use ddg::{DepEdge, NodeId, NodeOrigin, OperationData, ValueId};
use vliw::{ClusterId, OpClass, Opcode, ResourceKind};

impl SchedState<'_> {
    /// Select the most appropriate cluster for `node` (step C1).
    ///
    /// Clusters are ranked, in the paper's order of importance, by
    /// 1. availability of at least one empty slot for the operation in the
    ///    node's current search window,
    /// 2. the number of move operations that would be needed to access the
    ///    values produced/consumed by already scheduled neighbours, and
    /// 3. the occupancy of the functional-unit class the operation needs.
    pub(crate) fn select_cluster(&mut self, node: NodeId) -> ClusterId {
        if self.machine.clusters() == 1 {
            // One candidate: the ranking (a window computation and a free-
            // slot probe per cluster) cannot change the answer. This is the
            // common case of the unified paper configuration and sits on
            // the per-node hot path.
            return ClusterId::ZERO;
        }
        let opcode = self.graph.op(node).opcode;
        // One window serves every candidate cluster: it is derived from the
        // node's scheduled neighbours only (see `SchedState::window`), so
        // recomputing it per cluster — an in/out-edge scan each time — was
        // pure waste on the pick hot path.
        let window = self.window(node);
        let mut best: Option<(ClusterId, (i64, i64, i64))> = None;
        for cluster in self.machine.cluster_ids() {
            let table = self.sched.op_table(self.machine, opcode, cluster);
            if self.sched.intrinsically_infeasible(table) {
                // This cluster can never execute the operation at the
                // current II (its table exceeds a capacity all by itself);
                // on a heterogeneous machine another cluster may still fit.
                // If every cluster is skipped, `schedule_node` surfaces the
                // infeasibility and the scheduler raises the II.
                continue;
            }
            let has_slot = i64::from(self.find_free_slot(table, window).is_some());
            let moves_needed = self.moves_needed(node, cluster) as i64;
            let occupancy = i64::from(match opcode.class() {
                OpClass::Gp => self.sched.occupancy(ResourceKind::GpUnit { cluster }),
                OpClass::Mem => self.sched.occupancy(ResourceKind::MemPort { cluster }),
                OpClass::Move => 0,
            });
            // Higher is better: free slot first, then fewer moves, then the
            // least busy functional units.
            let key = (has_slot, -moves_needed, -occupancy);
            match &best {
                Some((_, bk)) if *bk >= key => {}
                _ => best = Some((cluster, key)),
            }
        }
        best.map(|(c, _)| c).unwrap_or(ClusterId::ZERO)
    }

    /// Number of move operations that would have to be inserted if `node`
    /// were assigned to `cluster`.
    pub(crate) fn moves_needed(&self, node: NodeId, cluster: ClusterId) -> usize {
        let mut count = 0;
        // Imports: operands produced by operations scheduled elsewhere.
        for &v in self.graph.op(node).srcs() {
            if self.graph.value(v).invariant {
                continue; // invariants take a register in each cluster instead
            }
            if let Some(producer) = self.graph.value(v).producer {
                if let Some(pc) = self.sched.cluster_of(producer) {
                    if pc != cluster && self.move_of_value_into(v, cluster).is_none() {
                        count += 1;
                    }
                }
            }
        }
        // Exports: already scheduled consumers of any produced value in
        // other clusters (one move per destination cluster per value).
        let export_count = |v: ValueId| -> usize {
            let mut dst_clusters: Vec<ClusterId> = Vec::new();
            for &c in self.graph.consumer_ids(v) {
                if let Some(cc) = self.read_cluster(c) {
                    if cc != cluster && !dst_clusters.contains(&cc) {
                        dst_clusters.push(cc);
                    }
                }
            }
            dst_clusters.len()
        };
        if let Some(dest) = self.graph.op(node).dest {
            count += export_count(dest);
        }
        for &v in self.carried_values(node) {
            count += export_count(v);
        }
        count
    }

    /// Loop-carried accumulator values produced by `node` besides its
    /// `dest` (the loop builders model `acc = acc ⊕ x` as a *separate*
    /// carried value whose producer is the reduction node) — read from the
    /// per-loop [`LoopValues`](crate::scratch::LoopValues) table, so the
    /// hot paths (`moves_needed` runs once per cluster per node pick) do no
    /// edge scan and no allocation. Empty for the overwhelmingly common
    /// dest-only case.
    ///
    /// The export logic must cover these values too — a consumer of a
    /// carried value scheduled before the producer, in another cluster,
    /// gets its move only from the producer's export pass. (The HRMS order
    /// happens to avoid that interleaving on most loops, which kept this
    /// hole invisible until perturbed-order search strategies hit it.)
    ///
    /// The table lists the values in the base graph's out-edge order, and
    /// the export pass reads them in that order. Rewiring re-orders a
    /// producer's out-edges, so the live graph may list the same values in
    /// another order; the debug check therefore compares content only.
    pub(crate) fn carried_values(&self, node: NodeId) -> &[ValueId] {
        let carried = self.values.carried(node);
        debug_assert!(
            {
                let live = crate::scratch::compute_carried_values(&self.graph, node);
                live.len() == carried.len() && live.iter().all(|v| carried.contains(v))
            },
            "carried-values table diverged from the graph for {node} (content, \
             not order: rewiring re-orders out-edges, the table keeps the base \
             order): table {carried:?}, graph {:?}",
            crate::scratch::compute_carried_values(&self.graph, node)
        );
        carried
    }

    /// The cluster in which the scheduled `consumer` reads its operands,
    /// if it is scheduled. A move reads in its route's source cluster —
    /// its placement is the destination it writes — and every other op
    /// where it is placed.
    fn read_cluster(&self, consumer: NodeId) -> Option<ClusterId> {
        let placed = self.sched.cluster_of(consumer)?;
        Some(self.slots.route(consumer).map_or(placed, |(src, _)| src))
    }

    /// A live move node that already transports `value` into `cluster`, if
    /// any — an O(1) read of the index `create_move`/`remove_move` maintain.
    fn move_of_value_into(&self, value: ValueId, cluster: ClusterId) -> Option<NodeId> {
        let found = self.slots.move_into(value, cluster);
        debug_assert_eq!(
            found,
            self.graph.node_ids().find(|&n| {
                matches!(self.graph.op(n).origin, NodeOrigin::Move { value: v } if v == value)
                    && self.slots.route(n).map(|(_, d)| d) == Some(cluster)
            })
        );
        found
    }

    /// Insert the move operations required to schedule `node` on `cluster`
    /// (step C2) and leave them in `slots.new_moves`, in the order they
    /// should be scheduled.
    ///
    /// Two situations require communication:
    /// * an operand of `node` is produced in a different cluster (an
    ///   *import* move, from the producer's cluster into `cluster`), or
    /// * the result of `node` is consumed by operations already scheduled in
    ///   other clusters (an *export* move per destination cluster).
    ///
    /// If a move of the same value into the same destination already exists
    /// it is reused and the operand is simply rewired.
    pub(crate) fn ensure_moves(&mut self, node: NodeId, cluster: ClusterId) {
        self.slots.new_moves.clear();
        if self.machine.clusters() == 1 {
            // Every operand and consumer lives in the one cluster.
            return;
        }
        let mut new_moves = std::mem::take(&mut self.slots.new_moves);

        // --- imports -------------------------------------------------------
        // Snapshot the operands (the rewiring below edits them) into a
        // reused list that nothing called from this loop touches.
        let mut operands = std::mem::take(&mut self.slots.operands);
        operands.clear();
        operands.extend_from_slice(self.graph.op(node).srcs());
        for &v in &operands {
            if self.graph.value(v).invariant {
                continue;
            }
            let Some(producer) = self.graph.value(v).producer else {
                continue;
            };
            // Stale binding: `node` was once rewired onto a move headed for
            // a cluster it is no longer targeting, and that move is not
            // scheduled (ejections leave such bindings behind). The move's
            // destination is fixed by its route and moves never run an
            // export pass, so leaving the binding would let `node` schedule
            // here while its operand materialises in the old cluster. Undo
            // the rewiring and import from the root value instead.
            let (v, producer) = if self.graph.op(producer).opcode.is_move()
                && self.sched.cluster_of(producer).is_none()
                && self.slots.route(producer).map(|(_, d)| d) != Some(cluster)
            {
                match self.unwire_stale_move(node, v, producer) {
                    Some(root) => root,
                    None => continue,
                }
            } else {
                (v, producer)
            };
            let Some(pcluster) = self.sched.cluster_of(producer) else {
                continue;
            };
            if pcluster == cluster {
                continue;
            }
            if let Some(existing) = self.move_of_value_into(v, cluster) {
                self.rewire_consumer(node, v, existing);
                continue;
            }
            let mv = self.create_move(v, producer, pcluster, cluster, node);
            self.rewire_consumer(node, v, mv);
            new_moves.push(mv);
        }
        self.slots.operands = operands;

        // --- exports -------------------------------------------------------
        // Every produced value, not just `dest`: loop-carried accumulator
        // values also live in this node's cluster and need a move when a
        // consumer is already scheduled elsewhere (see `carried_values`).
        if let Some(dest) = self.graph.op(node).dest {
            self.export_moves_for(node, cluster, dest, &mut new_moves);
        }
        let mut carried_idx = 0;
        while let Some(&v) = self.carried_values(node).get(carried_idx) {
            carried_idx += 1;
            self.export_moves_for(node, cluster, v, &mut new_moves);
        }
        self.slots.new_moves = new_moves;
    }

    /// Export pass of [`SchedState::ensure_moves`] for one produced value:
    /// one move per destination cluster holding scheduled consumers, with
    /// those consumers rewired onto the move's copy.
    fn export_moves_for(
        &mut self,
        node: NodeId,
        cluster: ClusterId,
        dest: ValueId,
        new_moves: &mut Vec<NodeId>,
    ) {
        // Borrowed scan first: the common case has no consumer scheduled
        // in another cluster, and then no owned consumer list (which the
        // rewiring below needs, as it mutates the graph) is built.
        let mut dst_clusters: Vec<ClusterId> = Vec::new();
        for &c in self.graph.consumer_ids(dest) {
            if let Some(cc) = self.read_cluster(c) {
                if cc != cluster && !dst_clusters.contains(&cc) {
                    dst_clusters.push(cc);
                }
            }
        }
        if dst_clusters.is_empty() {
            return;
        }
        let consumers = self.graph.consumers_of(dest);
        for dst in dst_clusters {
            let mv = if let Some(existing) = self.move_of_value_into(dest, dst) {
                existing
            } else {
                let mv = self.create_move(dest, node, cluster, dst, node);
                new_moves.push(mv);
                mv
            };
            for c in &consumers {
                if self.read_cluster(*c) == Some(dst) {
                    self.rewire_consumer(*c, dest, mv);
                }
            }
        }
    }

    /// Create a move node transporting `value` (produced by `producer` in
    /// `src`) into cluster `dst`. The move's priority is anchored at
    /// `anchor` so that, if ejected, it is re-picked just before it. The
    /// copy and the move are named in `into_result`, from the logged
    /// derivation and the route.
    fn create_move(
        &mut self,
        value: ValueId,
        producer: NodeId,
        src: ClusterId,
        dst: ClusterId,
        anchor: NodeId,
    ) -> NodeId {
        let copy = self.graph.add_value(String::new(), false);
        self.slots.log_derived(
            copy,
            Derivation::Copy {
                of: value,
                into: dst,
            },
        );
        let mut data = OperationData::new(Opcode::Move, Some(copy), vec![value]);
        data.origin = NodeOrigin::Move { value };
        let mv = self.graph.add_node(data);
        self.graph.add_flow(producer, mv, value, 0);
        self.slots.set_route(mv, Some((src, dst)));
        self.slots.set_move_into(value, dst, Some(mv));
        self.plist.register_with_anchor(mv, anchor);
        self.stats.moves += 1;
        self.pressure.mark_value(value);
        self.pressure.mark_value(copy);
        mv
    }

    /// Undo a [`SchedState::rewire_consumer`]: detach `consumer` from the
    /// copy value of move `mv` and wire it back to the move's root value
    /// (operand list, flow edges and the pressure dirty marks). If the
    /// move is left without consumers it is removed outright. Returns the
    /// root value and its producer for the caller's import logic, or `None`
    /// when the root has no producer to import from.
    fn unwire_stale_move(
        &mut self,
        consumer: NodeId,
        copy: ValueId,
        mv: NodeId,
    ) -> Option<(ValueId, NodeId)> {
        let NodeOrigin::Move { value: root } = self.graph.op(mv).origin else {
            return None;
        };
        // Detach the mv -> consumer flow (remembering the iteration
        // distance the rewiring preserved).
        let distance = self
            .remove_in_edges(consumer, |edge| edge.from == mv && edge.value == Some(copy))
            .unwrap_or(0);
        self.graph.replace_src(consumer, copy, root);
        let producer = self.graph.value(root).producer;
        if let Some(p) = producer {
            let already = self.graph.in_edge_ids(consumer).iter().any(|&e| {
                let edge = self.graph.edge(e);
                edge.from == p && edge.value == Some(root)
            });
            if !already && p != consumer {
                self.graph.add_flow(p, consumer, root, distance);
            }
        }
        self.pressure.mark_value(copy);
        self.pressure.mark_value(root);
        if self.graph.consumer_ids(copy).is_empty() {
            // Nobody reads the copy any more: drop the move entirely.
            self.remove_move(mv);
        }
        producer.map(|p| (root, p))
    }

    /// Rewire `consumer` so it reads the value defined by move `mv` instead
    /// of `original`: the operand list is updated, the direct flow edge from
    /// the original producer is removed, and a flow edge from the move is
    /// added with the same iteration distance.
    pub(crate) fn rewire_consumer(&mut self, consumer: NodeId, original: ValueId, mv: NodeId) {
        let copy = self.graph.op(mv).dest.expect("moves define a value");
        // Find (and remove) the direct flow edge carrying `original`.
        let distance = self
            .remove_in_edges(consumer, |edge| {
                edge.value == Some(original) && edge.from != mv
            })
            .unwrap_or(0);
        self.graph.replace_src(consumer, original, copy);
        // Avoid duplicate edges if the consumer was already rewired.
        let already = self.graph.in_edge_ids(consumer).iter().any(|&e| {
            let edge = self.graph.edge(e);
            edge.from == mv && edge.value == Some(copy)
        });
        if !already {
            self.graph.add_flow(mv, consumer, copy, distance);
        }
        // `consumer` now reads `copy` instead of `original`: both lifetimes
        // changed shape.
        self.pressure.mark_value(original);
        self.pressure.mark_value(copy);
    }

    /// Remove every in-edge of `node` that `matches`, in list order, and
    /// return the iteration distance of the last one removed. The borrowed
    /// adjacency list is scanned in place: a removal shifts the later
    /// entries down, so the scan stays put after one.
    pub(crate) fn remove_in_edges(
        &mut self,
        node: NodeId,
        matches: impl Fn(&DepEdge) -> bool,
    ) -> Option<u32> {
        let mut last = None;
        let mut i = 0;
        while let Some(&e) = self.graph.in_edge_ids(node).get(i) {
            let edge = *self.graph.edge(e);
            if matches(&edge) {
                last = Some(edge.distance);
                self.graph.remove_edge(e);
            } else {
                i += 1;
            }
        }
        last
    }
}
