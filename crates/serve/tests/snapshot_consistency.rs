//! The snapshot-consistency property suite: a reader pinned to epoch E
//! sees tables **byte-identical** to the ones the Router produced at
//! epoch E — across chains of drain/churn/reconnect report mutations,
//! across concurrent republishes on top of held pins, and under every
//! [`RecomputeStrategy`] (whose in-place delta/repair recomputes and
//! delta-aware table rebuilds must never leak into a published epoch),
//! and whichever way the publisher fills its spare: every delta publish
//! (change-log cells copied into a two-epochs-stale spare) equals
//! [`TableSnapshot::fill_from`] of the same state, byte for byte.

use std::sync::Arc;

use etx_fleet::ScenarioSpec;
use etx_graph::{topology::Mesh2D, NodeBitset, NodeId, PathBackend};
use etx_metrics::{CounterId, MetricsHandle, Registry};
use etx_routing::{
    Algorithm, FrameDelta, RecomputeStrategy, Router, RoutingScratch, RoutingState, SystemReport,
};
use etx_serve::{
    EpochPublisher, FleetFrontend, PinnedSnapshot, Query, QueryBatch, QueryOutput, QueryResult,
    ShardWorkspace, TableSnapshot, WorkloadGen, WorkloadSpec,
};
use etx_sim::FrameFeed;
use etx_units::Length;
use proptest::prelude::*;

fn mesh_graph(side: usize) -> etx_graph::DiGraph {
    Mesh2D::square(side, Length::from_centimetres(2.05)).to_graph()
}

fn module_stripes(k: usize) -> Vec<Vec<NodeId>> {
    (0..3).map(|m| (m..k).step_by(3).map(NodeId::new).collect()).collect()
}

fn report_from(levels: &[u32], dead: &[bool], k: usize) -> SystemReport {
    let mut report = SystemReport::fresh(k, 16);
    for i in 0..k {
        let node = NodeId::new(i);
        report.set_battery_level(node, levels[i % levels.len()]);
        if dead[i % dead.len()] {
            report.set_dead(node);
        }
    }
    report
}

/// What the Router actually produced at one epoch, captured eagerly.
fn expectation(epoch: u64, state: &RoutingState) -> TableSnapshot {
    let mut expected = TableSnapshot::empty();
    expected.fill_from(epoch, state);
    expected
}

/// One routing pipeline: a router's state, the scratch that produced
/// it and the report it describes.
struct Pipeline {
    scratch: RoutingScratch,
    state: RoutingState,
    report: SystemReport,
}

impl Pipeline {
    /// Applies one telemetry change to `node` — `kind` 0 drains its
    /// battery by `amount` buckets, 1 kills it, 2 revives it at level
    /// `amount` (a no-op when the node is already in that state) — and
    /// recomputes through the dense dirty list or the engine's
    /// changed-bitset frame entry.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        router: &Router,
        graph: &etx_graph::DiGraph,
        modules: &[Vec<NodeId>],
        node: NodeId,
        kind: u8,
        amount: u32,
        via_frame: bool,
    ) {
        let alive = self.report.is_alive(node);
        match kind {
            0 if alive => {
                let level = self.report.battery_level(node);
                self.report.set_battery_level(node, level.saturating_sub(amount));
            }
            1 if alive => self.report.set_dead(node),
            2 if !alive => self.report.revive(node, amount % self.report.levels()),
            _ => {}
        }
        if via_frame {
            let mut changed = NodeBitset::with_capacity(graph.node_count());
            changed.insert(node);
            let frame =
                FrameDelta { changed: &changed, any_deadlock: false, placement_changed: false };
            router.recompute_frame_into(
                graph,
                modules,
                &self.report,
                frame,
                &mut self.scratch,
                &mut self.state,
            );
        } else {
            router.recompute_dirty_into(
                graph,
                modules,
                &self.report,
                &[node],
                &mut self.scratch,
                &mut self.state,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pins taken at every epoch of a drain/churn/reconnect chain stay
    /// byte-identical to the Router's state at that epoch, no matter
    /// how many later epochs are published over them, for every
    /// recompute strategy and both algorithms.
    #[test]
    fn pinned_epochs_match_router_state(
        side in 3usize..7,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        strategy in prop_oneof![
            Just(RecomputeStrategy::Full),
            Just(RecomputeStrategy::AffectedSources),
            Just(RecomputeStrategy::IncrementalRepair),
            Just(RecomputeStrategy::Auto),
        ],
        frames in proptest::collection::vec(
            (proptest::collection::vec(0u32..16, 8), proptest::collection::vec(any::<bool>(), 5)),
            2..7
        ),
    ) {
        // Explicit Dijkstra backend so the in-place fast paths engage at
        // every mesh size — they are exactly what must not corrupt a
        // previously published epoch.
        let router = Router::new(algorithm)
            .with_backend(PathBackend::DijkstraAllPairs)
            .with_strategy(strategy);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let (mut publisher, reader) = EpochPublisher::new();
        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        let mut report = report_from(&frames[0].0, &frames[0].1, k);
        router.compute_into(&graph, &modules, &report, None, &mut scratch, &mut state);

        let mut pins: Vec<PinnedSnapshot> = Vec::new();
        let mut expected: Vec<TableSnapshot> = Vec::new();

        let epoch = publisher.publish(&state);
        prop_assert_eq!(epoch, 1);
        prop_assert_eq!(reader.epoch(), 1);
        pins.push(reader.pin());
        expected.push(expectation(1, &state));

        for (levels, dead) in &frames[1..] {
            let old_report = report;
            report = report_from(levels, dead, k);
            router.recompute_into(&graph, &modules, &old_report, &report, &mut scratch, &mut state);
            let epoch = publisher.publish(&state);
            prop_assert_eq!(reader.epoch(), epoch);
            pins.push(reader.pin());
            expected.push(expectation(epoch, &state));
        }

        // Every pin — including those taken many republishes ago — must
        // still be byte-identical to what the Router produced at its
        // epoch: same epoch number, same flat table, same distance and
        // successor matrices, same answers.
        for (pin, want) in pins.iter().zip(&expected) {
            prop_assert_eq!(pin.as_ref(), want, "epoch {} diverged", want.epoch());
            for n in 0..k {
                let node = NodeId::new(n);
                for m in 0..modules.len() {
                    prop_assert_eq!(pin.route(node, m), want.route(node, m));
                }
            }
        }
    }

    /// The delta publish is invisible: across random drain, death and
    /// revive chains (dense-list and bitset-frame entry points, every
    /// strategy, so both logged repairs and "all" logs occur), readers
    /// holding and releasing pins at random epochs (so the spare is
    /// sometimes reclaimable and sometimes not), and interleaved
    /// publishes of a foreign state (a clone that has since diverged),
    /// every published snapshot equals `fill_from` of the same state —
    /// when published and still when its last pin is checked.
    #[test]
    fn delta_publishes_equal_full_fills(
        side in 4usize..9,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        strategy in prop_oneof![
            Just(RecomputeStrategy::Full),
            Just(RecomputeStrategy::AffectedSources),
            Just(RecomputeStrategy::IncrementalRepair),
            Just(RecomputeStrategy::Auto),
        ],
        ops in proptest::collection::vec(
            (0u8..10, 0usize..64, 0u8..6, 1u32..16, any::<bool>(), any::<bool>()),
            4..32
        ),
    ) {
        let router = Router::new(algorithm)
            .with_backend(PathBackend::DijkstraAllPairs)
            .with_strategy(strategy);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let (mut publisher, reader) = EpochPublisher::new();
        let mut main = Pipeline {
            scratch: RoutingScratch::new(),
            state: RoutingState::empty(),
            report: SystemReport::fresh(k, 16),
        };
        router.compute_into(&graph, &modules, &main.report, None, &mut main.scratch, &mut main.state);
        let mut foreign: Option<Pipeline> = None;
        let mut held: Vec<(PinnedSnapshot, TableSnapshot)> = Vec::new();

        for (op, node, kind, amount, hold, release) in ops {
            let node = NodeId::new(node % k);
            // Kinds: drains dominate (as in a live fabric); deaths and
            // revives re-run whole rows or saturate the log.
            let kind = kind.saturating_sub(3);
            // Ops: 0-6 recompute the main state (dense list, or bitset
            // frame from 4); 7 republishes it unchanged; 8 forks a
            // foreign clone; 9 recomputes the foreign state (or, with
            // `amount` even, republishes it unchanged).
            let published = match op {
                0..=6 => {
                    main.step(&router, &graph, &modules, node, kind, amount, op >= 4);
                    &main.state
                }
                7 => &main.state,
                8 => {
                    foreign = Some(Pipeline {
                        scratch: RoutingScratch::new(),
                        state: main.state.clone(),
                        report: main.report.clone(),
                    });
                    continue;
                }
                _ => match foreign.as_mut() {
                    Some(f) => {
                        if amount % 2 == 1 {
                            f.step(&router, &graph, &modules, node, kind, amount, false);
                        }
                        &f.state
                    }
                    None => &main.state,
                },
            };
            let epoch = publisher.publish(published);
            let want = expectation(epoch, published);
            let pin = reader.pin();
            prop_assert_eq!(pin.as_ref(), &want, "publish of epoch {} diverged", epoch);
            if release && !held.is_empty() {
                let (old, old_want) = held.remove(0);
                prop_assert_eq!(old.as_ref(), &old_want, "held epoch {} changed", old_want.epoch());
            }
            if hold {
                held.push((pin, want));
            }
        }
        for (pin, want) in &held {
            prop_assert_eq!(pin.as_ref(), want, "held epoch {} changed", want.epoch());
        }
    }

    /// The published epoch is indistinguishable across recompute
    /// strategies: whatever phase-2/phase-3 shortcuts a strategy takes,
    /// the snapshot a reader pins equals the Full strategy's snapshot
    /// at the same frame (routing data compared; epochs match by
    /// construction).
    #[test]
    fn published_snapshots_agree_across_strategies(
        side in 3usize..6,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        frames in proptest::collection::vec(
            (proptest::collection::vec(0u32..16, 8), proptest::collection::vec(any::<bool>(), 5)),
            2..5
        ),
    ) {
        let strategies = [
            RecomputeStrategy::Full,
            RecomputeStrategy::AffectedSources,
            RecomputeStrategy::IncrementalRepair,
            RecomputeStrategy::Auto,
        ];
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let mut per_strategy: Vec<Vec<PinnedSnapshot>> = Vec::new();
        for strategy in strategies {
            let router = Router::new(algorithm)
                .with_backend(PathBackend::DijkstraAllPairs)
                .with_strategy(strategy);
            let (mut publisher, reader) = EpochPublisher::new();
            let mut scratch = RoutingScratch::new();
            let mut state = RoutingState::empty();
            let mut report = report_from(&frames[0].0, &frames[0].1, k);
            router.compute_into(&graph, &modules, &report, None, &mut scratch, &mut state);
            let mut pins = Vec::new();
            publisher.publish(&state);
            pins.push(reader.pin());
            for (levels, dead) in &frames[1..] {
                let old_report = report;
                report = report_from(levels, dead, k);
                router.recompute_into(
                    &graph, &modules, &old_report, &report, &mut scratch, &mut state,
                );
                publisher.publish(&state);
                pins.push(reader.pin());
            }
            per_strategy.push(pins);
        }

        let reference = &per_strategy[0];
        for (pins, strategy) in per_strategy[1..].iter().zip(&strategies[1..]) {
            prop_assert_eq!(pins.len(), reference.len());
            for (pin, want) in pins.iter().zip(reference) {
                prop_assert_eq!(
                    pin.as_ref(), want.as_ref(),
                    "strategy {:?} diverged from Full at epoch {}", strategy, want.epoch()
                );
            }
        }
    }

    /// The lane-split batched execution answers exactly what the
    /// producing `RoutingState` answers: for every epoch of a
    /// drain/churn/reconnect chain (every recompute strategy, both
    /// algorithms), a frontend batch of all three query types — serial
    /// and sharded — resolves to the state's own `route`, `distance`
    /// and successor-walk answers.
    #[test]
    fn batched_queries_match_routing_state(
        side in 3usize..6,
        algorithm in prop_oneof![Just(Algorithm::Ear), Just(Algorithm::Sdr)],
        strategy in prop_oneof![
            Just(RecomputeStrategy::Full),
            Just(RecomputeStrategy::AffectedSources),
            Just(RecomputeStrategy::IncrementalRepair),
            Just(RecomputeStrategy::Auto),
        ],
        shards in 1usize..5,
        frames in proptest::collection::vec(
            (proptest::collection::vec(0u32..16, 8), proptest::collection::vec(any::<bool>(), 5)),
            2..5
        ),
    ) {
        let router = Router::new(algorithm)
            .with_backend(PathBackend::DijkstraAllPairs)
            .with_strategy(strategy);
        let graph = mesh_graph(side);
        let k = graph.node_count();
        let modules = module_stripes(k);

        let (mut publisher, reader) = EpochPublisher::new();
        let mut frontend = FleetFrontend::new(shards);
        let fabric = frontend.register(reader, k, modules.len());

        let mut scratch = RoutingScratch::new();
        let mut state = RoutingState::empty();
        let mut report = report_from(&frames[0].0, &frames[0].1, k);
        router.compute_into(&graph, &modules, &report, None, &mut scratch, &mut state);

        let mut batch = QueryBatch::new();
        let mut serial = QueryOutput::new();
        let mut sharded = QueryOutput::new();
        let mut workspace = ShardWorkspace::new();
        let mut want_path = Vec::new();

        for (frame, (levels, dead)) in frames.iter().enumerate() {
            if frame > 0 {
                let old_report = report;
                report = report_from(levels, dead, k);
                router.recompute_into(
                    &graph, &modules, &old_report, &report, &mut scratch, &mut state,
                );
            }
            publisher.publish(&state);

            batch.clear();
            for s in 0..k {
                let source = NodeId::new(s);
                for m in 0..modules.len() as u32 {
                    batch.push(Query::NextHop { fabric, source, module: m });
                    batch.push(Query::Path { fabric, source, module: m });
                }
                batch.push(Query::Cost { fabric, source, target: NodeId::new((s * 7 + 1) % k) });
            }
            frontend.execute(&mut batch, &mut serial);
            frontend.execute_sharded(&mut batch, &mut sharded, &mut workspace);

            for (query, result) in batch.queries().iter().zip(serial.results()) {
                match (*query, *result) {
                    (Query::NextHop { source, module, .. }, QueryResult::NextHop(entry)) => {
                        prop_assert_eq!(entry, state.route(source, module as usize).copied());
                    }
                    (Query::Cost { source, target, .. }, QueryResult::Cost(cost)) => {
                        prop_assert_eq!(cost, state.distance(source, target));
                    }
                    (Query::Path { source, module, .. }, result @ QueryResult::Path { entry, .. }) => {
                        let want = state.route(source, module as usize).copied();
                        prop_assert_eq!(entry, want);
                        // Reference walk through the state's successor
                        // data: first hop from the entry, remainder via
                        // next_hop.
                        want_path.clear();
                        if let Some(entry) = want {
                            want_path.push(source);
                            let mut cur = entry.next_hop;
                            while cur != entry.destination {
                                want_path.push(cur);
                                cur = state.next_hop(cur, entry.destination)
                                    .expect("published route walks to its destination");
                            }
                            if entry.destination != source {
                                want_path.push(entry.destination);
                            }
                        }
                        prop_assert_eq!(serial.path_nodes(&result), want_path.as_slice());
                    }
                    (query, result) => {
                        prop_assert!(false, "mismatched kinds: {:?} -> {:?}", query, result);
                    }
                }
            }
            // The sharded fan-out resolves identically (its arena layout
            // is shard-ordered, so compare at the resolved level).
            prop_assert_eq!(serial.results().len(), sharded.results().len());
            for (a, b) in serial.results().iter().zip(sharded.results()) {
                match (a, b) {
                    (QueryResult::Path { entry: ea, .. }, QueryResult::Path { entry: eb, .. }) => {
                        prop_assert_eq!(ea, eb);
                        prop_assert_eq!(serial.path_nodes(a), sharded.path_nodes(b));
                    }
                    _ => prop_assert_eq!(a, b),
                }
            }
        }
    }
}

/// On a steady repair drain with no pins held, the publisher takes the
/// delta path — and each delta publish still equals a full fill.
#[test]
fn steady_drain_publishes_through_the_delta_path() {
    // 12x12: on smaller meshes one drain's two-epoch log union often
    // exceeds the delta budget, which would test only the fallback.
    let graph = mesh_graph(12);
    let k = graph.node_count();
    let modules = module_stripes(k);
    let router = Router::new(Algorithm::Ear)
        .with_backend(PathBackend::DijkstraAllPairs)
        .with_strategy(RecomputeStrategy::IncrementalRepair);
    let metrics = MetricsHandle::new(Arc::new(Registry::counters_only()));
    let (mut publisher, reader) = EpochPublisher::new();
    publisher.set_metrics(metrics.clone());
    let mut main = Pipeline {
        scratch: RoutingScratch::new(),
        state: RoutingState::empty(),
        report: SystemReport::fresh(k, 16),
    };
    router.compute_into(&graph, &modules, &main.report, None, &mut main.scratch, &mut main.state);
    publisher.publish(&main.state);
    let frames = 2 * k;
    for frame in 0..frames {
        let node = NodeId::new((frame * 7 + 3) % k);
        main.step(&router, &graph, &modules, node, 0, 1, frame % 2 == 1);
        let epoch = publisher.publish(&main.state);
        assert_eq!(*reader.pin(), expectation(epoch, &main.state), "epoch {epoch} diverged");
    }
    let snap = metrics.snapshot();
    let full = snap.counter(CounterId::ServePublishFull);
    assert!(snap.counter(CounterId::ServePublishCells) > 0, "no publish took the delta path");
    assert!(
        2 * full < frames as u64,
        "{full} of {} publishes fell back to a full fill",
        frames + 1
    );
}

/// Both engine frame feeds publish byte-identical tables, so frontends
/// built over either feed answer byte-identical batches (results and
/// path-arena bytes).
#[test]
fn frame_feeds_serve_identical_answers() {
    let base = ScenarioSpec { instances: 3, ..ScenarioSpec::smoke() };
    let bitset_spec = ScenarioSpec { feed: FrameFeed::Bitset, ..base.clone() };
    let diff_spec = ScenarioSpec { feed: FrameFeed::ReportDiff, ..base };
    let bitset = FleetFrontend::from_spec(&bitset_spec, 1_500, 3).expect("valid spec");
    let diff = FleetFrontend::from_spec(&diff_spec, 1_500, 3).expect("valid spec");

    let mut generator = WorkloadGen::new(WorkloadSpec { batch: 512, ..WorkloadSpec::default() });
    let mut batch = QueryBatch::new();
    let mut out_bitset = QueryOutput::new();
    let mut out_diff = QueryOutput::new();
    for _ in 0..4 {
        generator.fill(&bitset, &mut batch);
        bitset.execute(&mut batch, &mut out_bitset);
        diff.execute(&mut batch, &mut out_diff);
        assert_eq!(out_bitset.results(), out_diff.results());
        for (a, b) in out_bitset.results().iter().zip(out_diff.results()) {
            assert_eq!(out_bitset.path_nodes(a), out_diff.path_nodes(b));
        }
    }
}

/// The `node_count > u16::MAX` regime, shaped without 65k nodes: an
/// index bound past the narrow range forces the wide (`u32`) fallback
/// on every index plane, and the wide snapshot answers every query
/// identically to the narrow one and to the producing state.
#[test]
fn wide_index_fallback_matches_narrow_and_state() {
    let graph = mesh_graph(4);
    let k = graph.node_count();
    let modules = module_stripes(k);
    let report = report_from(&[15, 3, 9], &[false, false, true], k);
    let router = Router::new(Algorithm::Ear);
    let mut scratch = RoutingScratch::new();
    let mut state = RoutingState::empty();
    router.compute_into(&graph, &modules, &report, None, &mut scratch, &mut state);

    let mut narrow = TableSnapshot::empty();
    narrow.fill_from(1, &state);
    let mut wide = TableSnapshot::empty();
    wide.fill_from_bounded(1, &state, (u16::MAX as usize) + 2);
    assert!(wide.wide_index_planes(), "bound past u16::MAX must select u32 lanes");
    assert!(!narrow.wide_index_planes());

    assert!(wide.entries().eq(state.route_table().iter().copied()));
    let mut wide_path = Vec::new();
    let mut narrow_path = Vec::new();
    for s in 0..k {
        let node = NodeId::new(s);
        for m in 0..modules.len() {
            assert_eq!(wide.route(node, m), state.route(node, m).copied());
            wide_path.clear();
            narrow_path.clear();
            let we = wide.path_into(node, m, &mut wide_path);
            let ne = narrow.path_into(node, m, &mut narrow_path);
            assert_eq!(we, ne);
            assert_eq!(wide_path, narrow_path);
        }
        for t in 0..k {
            let other = NodeId::new(t);
            assert_eq!(wide.cost(node, other), state.distance(node, other));
            assert_eq!(wide.next_hop(node, other), state.next_hop(node, other));
        }
    }
}
