"""Slice a model into per-worker computational pieces for the concurrent
runtime.

The partitioner (:mod:`repro.pipeline.partition`) splits *parameters* into
stages; to actually run stages concurrently we also need the *computation*
split into pieces a worker can own.  Since PR 3 the unit of slicing is a
**stage-program graph** (:class:`StageGraph`): a small DAG of chain
*nodes*, each node an ordered list of single-payload modules, with explicit
join points where a node consumes the outputs of several producers.  This
is the stage-graph view PipeDream and XPipe use to pipeline
encoder/decoder models — the two-stream Transformer slices as an encoder
chain and a decoder chain that merge at cross-attention
(:meth:`repro.models.Transformer.pipeline_graph`).

Models expose the graph via a ``pipeline_graph()`` method; purely linear
models keep exposing ``pipeline_chain()`` (``Sequential`` containers
flatten automatically; anything else is one atomic element) and are wrapped
as a single-node graph, so the chain case is just the degenerate graph and
both run through the same machinery.

Slicing rules
-------------

Each *element* (module in a node's chain) gets a **primary stage**: the
minimum stage of its own parameters; param-free glue takes the stage of the
preceding element in its node (or, at the head of a node, of the node's
first parametered element, so joins run where their first consumer's
weights live).  Consecutive same-primary elements of a node form a
:class:`Segment`; one :class:`WorkerCompute` per distinct primary stage
owns every segment with that primary, in graph order.  An element whose
parameters span a stage boundary is executed whole by the worker of its
first stage — each parameter still reads the weight version of *its own*
stage, so the delay semantics are untouched; only the available concurrency
shrinks.  In the degenerate case (un-sliceable model) a single worker runs
everything, still bit-for-bit correct, just not concurrent.

:class:`Edge` objects connect segments (and route the external inputs and
per-edge transport channels).  Dataflow stays deadlock-free under the
1F1B / fill-drain worker programs because every edge points from a lower
(worker, graph-position) to a higher one — validated at build time.

Weight-sharing across call sites is supported two ways:

* a **shared module** (tied encoder/decoder embedding) may appear in
  several elements; the first occurrence owns the parameters, later
  occurrences must land on the same worker (enforced), so the cache-stack
  LIFO discipline and gradient accumulation order match the monolithic
  forward exactly;
* a **borrowing module** (the tied output projection) declares
  ``pipeline_borrows() -> [Parameter, ...]`` and receives the correctly
  versioned arrays through ``load_borrowed(arrays)`` at every weight load,
  without rebinding the owner's ``Parameter`` (which another worker may
  have pointed at a different version).  Its gradient contribution goes to
  a module-local buffer declared via ``deferred_grads() -> [(param, buf)]``
  and is folded into ``param.grad`` by the driver at the minibatch
  boundary — see :class:`repro.models.transformer.TiedProjection`.

Workers interleave many in-flight microbatches on the same modules, so the
per-microbatch forward caches (the ``_``-prefixed attributes every layer
stashes for its backward, per the :mod:`repro.nn.module` contract) are
snapshotted after each forward and restored before the matching backward.
Persistent state (BatchNorm running stats, RNGs — no leading underscore) is
deliberately *not* snapshotted: it mutates in stage-local microbatch order,
exactly as in the sequential simulator.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
from dataclasses import dataclass, field, replace

import numpy as np

from repro.nn.dropout import Dropout
from repro.nn.module import Module, Parameter, Sequential
from repro.pipeline.partition import GRANULARITIES, PartitionPlan, even_bounds


def _check_granularity(granularity: str) -> None:
    if granularity not in GRANULARITIES:
        raise ValueError(
            f"unknown granularity {granularity!r} (expected one of "
            f"{GRANULARITIES})"
        )


def _takes_granularity(fn) -> bool:
    """Whether a model's ``pipeline_chain``/``pipeline_graph`` accepts the
    ``granularity`` keyword.  Models that never declared one slice the same
    at every granularity (their layer elements *are* their finest pieces),
    so ``sublayer`` degrades to ``layer`` instead of erroring."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return False
    return "granularity" in sig.parameters


def flatten_chain(model: Module, granularity: str = "layer") -> list[Module]:
    """Flatten ``model`` into an ordered list of chain elements.

    Preference order: an explicit ``pipeline_chain()`` method, then
    ``Sequential`` flattening, then the module itself as one atomic element.
    ``granularity`` is forwarded to any ``pipeline_chain`` that accepts it
    (e.g. :class:`repro.models.resnet.BasicBlock` splits into its conv
    sub-chains at ``"sublayer"``).
    """
    _check_granularity(granularity)
    chain = getattr(model, "pipeline_chain", None)
    if callable(chain):
        elements = (
            chain(granularity=granularity) if _takes_granularity(chain) else chain()
        )
        out: list[Module] = []
        for element in elements:
            if element is model:
                # A module may answer "I stay atomic at this granularity"
                # by returning itself — do not recurse into it again.
                out.append(element)
            else:
                out.extend(flatten_chain(element, granularity))
        return out
    if isinstance(model, Sequential):
        out = []
        for layer in model.layers:
            out.extend(flatten_chain(layer, granularity))
        return out
    return [model]


# -- the stage-program graph ---------------------------------------------------


@dataclass(frozen=True)
class GraphNode:
    """One chain of the stage-program graph.

    ``elements`` run in order on a single payload; ``inputs`` name where the
    first element's inputs come from — ``"ext:<i>"`` for the i-th external
    model input, or the name of a producer node.  A node with several inputs
    starts with a join element whose ``forward(*payloads)`` combines them
    and whose ``backward`` returns one gradient per input, in ``inputs``
    order.
    """

    name: str
    elements: tuple[Module, ...]
    inputs: tuple[str, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError(f"graph node {self.name!r} has no elements")
        if not self.inputs:
            raise ValueError(f"graph node {self.name!r} has no inputs")


class StageGraph:
    """A DAG of :class:`GraphNode` chains in topological order.

    Every node's output must be consumed by exactly one later node, except
    the last node (the *sink*), whose output is the model output the loss
    applies to.  External inputs ``ext:0 .. ext:k-1`` must all be consumed.
    """

    def __init__(self, nodes: list[GraphNode]):
        if not nodes:
            raise ValueError("StageGraph needs at least one node")
        self.nodes = list(nodes)
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names: {names}")
        ext: set[int] = set()
        consumed: dict[str, int] = {name: 0 for name in names}
        seen: set[str] = set()
        for node in self.nodes:
            for inp in node.inputs:
                if inp.startswith("ext:"):
                    ext.add(int(inp[4:]))
                elif inp in seen:
                    consumed[inp] += 1
                else:
                    raise ValueError(
                        f"node {node.name!r} consumes {inp!r}, which is not an "
                        "earlier node (graph must be in topological order)"
                    )
            seen.add(node.name)
        for name, count in consumed.items():
            expected = 0 if name == names[-1] else 1
            if count != expected:
                raise ValueError(
                    f"node {name!r} is consumed {count} times (sink must be "
                    "consumed 0 times, every other node exactly once)"
                )
        if ext != set(range(len(ext))):
            raise ValueError(f"external inputs must be ext:0..ext:k-1, got {sorted(ext)}")
        self.num_external = max(len(ext), 1)


def flatten_graph(model: Module, granularity: str = "layer") -> StageGraph:
    """The model's stage-program graph: ``pipeline_graph()`` when the model
    defines one, else its linear chain wrapped as a single-node graph.
    ``granularity`` selects how fine the chain elements are sliced (see
    :data:`repro.pipeline.partition.GRANULARITIES`); models that do not
    declare sublayer slicing keep their layer elements."""
    _check_granularity(granularity)
    graph = getattr(model, "pipeline_graph", None)
    if callable(graph):
        if _takes_granularity(graph):
            return graph(granularity=granularity)
        return graph()
    return StageGraph(
        [GraphNode("chain", tuple(flatten_chain(model, granularity)), ("ext:0",))]
    )


# -- sliced execution structures ----------------------------------------------


@dataclass
class Segment:
    """A consecutive same-stage run of one node's elements — the unit of
    execution a worker interleaves microbatches over."""

    node: GraphNode
    elements: list[Module]
    topo: int = -1          # global graph position
    worker: int = -1        # assigned worker index
    is_sink: bool = False   # model output: the loss applies here
    in_edges: list["Edge"] = field(default_factory=list)
    out_edge: "Edge | None" = None

    def forward(self, ins: list, reserve=None):
        """Run the segment; when ``reserve`` is given (a ``(shape, dtype) ->
        buffer-or-None`` callable from the transport layer), the last element
        computes directly into the reserved transport slot when it supports
        ``forward_into``, eliminating the producer-side copy."""
        head = self.elements[0]
        if len(self.elements) == 1:
            return self._apply_last(head, ins, reserve)
        x = head(*ins) if len(ins) > 1 else head(ins[0])
        for element in self.elements[1:-1]:
            x = element(x)
        return self._apply_last(self.elements[-1], [x], reserve)

    @staticmethod
    def _apply_last(element: Module, ins: list, reserve):
        if reserve is not None and len(ins) == 1 and hasattr(element, "forward_into"):
            shape, dtype = element.pipeline_out_meta(ins[0])
            out = reserve(tuple(shape), dtype)
            if out is not None:
                element.forward_into(ins[0], out)
                return out
        return element(*ins) if len(ins) > 1 else element(ins[0])

    def backward(self, grad) -> list:
        """Returns one gradient payload per in-edge, in ``in_edges`` order."""
        for element in reversed(self.elements[1:]):
            grad = element.backward(grad)
        g = self.elements[0].backward(grad)
        if len(self.in_edges) > 1:
            g = list(g)
            if len(g) != len(self.in_edges):
                raise ValueError(
                    f"join element {type(self.elements[0]).__name__} returned "
                    f"{len(g)} gradients for {len(self.in_edges)} inputs"
                )
            return g
        return [g]


@dataclass
class Edge:
    """One dataflow arc of the sliced graph.  ``src is None`` marks an
    external model input (``ext_index``); otherwise activations flow
    ``src → dst`` forward and gradients ``dst → src`` backward.  Cross-worker
    edges each get their own transport channel; same-worker edges are local
    hand-offs inside one (op, microbatch) slot."""

    index: int
    src: Segment | None
    dst: Segment
    ext_index: int | None = None

    @property
    def local(self) -> bool:
        return self.src is not None and self.src.worker == self.dst.worker

    @property
    def src_worker(self) -> int:
        return -1 if self.src is None else self.src.worker


_CACHE_EXCLUDED = ("_parameters", "_modules")


def _is_cache_attr(name: str) -> bool:
    return name.startswith("_") and name not in _CACHE_EXCLUDED


@dataclass(frozen=True)
class ModelSpec:
    """A picklable recipe for rebuilding a model (and its stage partition)
    inside a spawned worker process.

    The process backend never ships live module objects to workers — a
    worker calls :meth:`build` to construct its own replica, then reads
    every weight it uses from the shared-memory mirror, so only the
    *shapes* (and any persistent non-parameter state, e.g. BatchNorm
    running statistics) of the replica matter.

    ``factory`` is either a picklable callable (a class or module-level
    function) or an import-path string ``"pkg.mod:attr"``; ``args`` /
    ``kwargs`` must pickle (NumPy ``Generator`` objects do, state and all,
    so seeded-rng constructor arguments reproduce the driver's build
    exactly).  The partition a worker rebuilds comes from ``plan`` (a
    :class:`~repro.pipeline.partition.PartitionPlan` — the cost model and
    solver never run inside workers, only the plan's plain unit boundaries
    do), falling back to the even split at ``num_stages``
    (``None`` = finest granularity, as in
    :func:`repro.pipeline.partition_model`).

    ``replica`` is the hybrid data × pipeline replica index this rebuild
    serves: :meth:`build` re-keys every counter-based dropout on the rebuilt
    model to it, so a process worker of replica r draws replica r's mask
    stream (see :mod:`repro.nn.dropout`).  Replica 0 — the default — is
    bit-identical to a spec without the field.
    """

    factory: object
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    num_stages: int | None = None
    plan: PartitionPlan | None = None
    replica: int = 0

    @classmethod
    def from_model(
        cls,
        model: Module,
        num_stages: int | None = None,
        plan: PartitionPlan | None = None,
        replica: int = 0,
    ) -> "ModelSpec":
        """Spec that rebuilds ``model`` from a pickled snapshot — the
        convenience path when no module-level factory exists.  The snapshot
        is taken now, so later driver-side mutation is not reflected."""
        return cls(
            factory=pickle.loads,
            args=(pickle.dumps(model),),
            num_stages=num_stages,
            plan=plan,
            replica=replica,
        )

    def for_replica(self, replica: int) -> "ModelSpec":
        """This spec re-targeted at another replica index."""
        return replace(self, replica=replica)

    def build_model(self) -> Module:
        factory = self.factory
        if isinstance(factory, str):
            mod_name, sep, attr = factory.partition(":")
            if not sep:
                raise ValueError(
                    f"string factory must look like 'pkg.mod:attr', got {factory!r}"
                )
            factory = getattr(importlib.import_module(mod_name), attr)
        return factory(*self.args, **dict(self.kwargs))

    def build(self):
        """Construct ``(model, stages)`` — the worker-side mirror of the
        driver's partition (plan-based when a :class:`PartitionPlan` is
        carried, else ``partition_model(model, num_stages)``)."""
        from repro.nn.dropout import Dropout
        from repro.pipeline.partition import partition_model

        model = self.build_model()
        if self.replica:
            for m in model.modules():
                if isinstance(m, Dropout) and m.counter_based:
                    m.replica = self.replica
        if self.plan is not None:
            return model, self.plan.stages(model)
        return model, partition_model(model, self.num_stages)


@dataclass
class _StageBinding:
    """Where one worker's parameters live in the weight store: for stage
    ``stage`` the worker owns the parameters at ``positions`` within the
    stage's parameter list."""

    stage: int
    positions: list[int]
    params: list[Parameter]


@dataclass
class _BorrowBinding:
    """A module that reads versioned weights it does not own: ``module``
    gets the arrays at ``coords`` (list of (stage, position)) through
    ``load_borrowed`` on every weight load, with no Parameter rebinding."""

    module: Module
    coords: list[tuple[int, int]]


class WorkerCompute:
    """One worker's slice of the model: its segments of the stage graph plus
    the store coordinates of every parameter the slice reads."""

    def __init__(
        self,
        index: int,
        segments: list[Segment],
        bindings: list[_StageBinding],
        borrows: list[_BorrowBinding] | None = None,
    ):
        self.index = index
        self.segments = segments
        self.elements = [el for seg in segments for el in seg.elements]
        self.bindings = bindings
        self.borrows = borrows or []
        # Every descendant module, for cache snapshot/restore.
        seen: set[int] = set()
        self.all_modules: list[Module] = []
        for element in self.elements:
            for m in element.modules():
                if id(m) not in seen:
                    seen.add(id(m))
                    self.all_modules.append(m)
        self._counter_dropouts = [
            m for m in self.all_modules if isinstance(m, Dropout) and m.counter_based
        ]
        self._deferred = [m for m in self.all_modules if hasattr(m, "deferred_grads")]
        # Per module: (len(__dict__) the names were resolved at, cache
        # attribute names) — see cache_state().
        self._cache_attrs: list[tuple[int, tuple[str, ...]]] = [
            (-1, ()) for _ in self.all_modules
        ]
        # Every (stage, position) this slice *reads* weights from — owned
        # bindings plus borrowed tied-weight coordinates.  The per-wave
        # version gate is the max requirement over these stages; the
        # positions bound what the worker's step weight cache extrapolates.
        coords = {(b.stage, pos) for b in self.bindings for pos in b.positions}
        coords.update(c for borrow in self.borrows for c in borrow.coords)
        self.read_positions: dict[int, list[int]] = {}
        for s, pos in sorted(coords):
            self.read_positions.setdefault(s, []).append(pos)
        self.read_stages: list[int] = list(self.read_positions)

    @property
    def stages(self) -> list[int]:
        return [b.stage for b in self.bindings]

    def load_weights(self, weights_for_stage) -> None:
        """Point this worker's parameters at the arrays
        ``weights_for_stage(stage)`` prescribes (whole-stage list; the
        worker picks its positions — a stage may be shared with another
        worker, on disjoint parameter sets), and hand borrowing modules
        their read-only arrays.  Each distinct stage is resolved once per
        load, however many bindings and borrowed coordinates point at it."""
        arrays = {s: weights_for_stage(s) for s in self.read_stages}
        for b in self.bindings:
            stage_arrays = arrays[b.stage]
            for pos, p in zip(b.positions, b.params):
                p.data = stage_arrays[pos]
        for borrow in self.borrows:
            borrow.module.load_borrowed([arrays[s][pos] for s, pos in borrow.coords])

    def set_dropout_slot(self, step: int, microbatch: int) -> None:
        """Position every counter-mode dropout in the slice for the next
        (re)forward — the runtime-safe mask coordinates."""
        for m in self._counter_dropouts:
            m.set_slot(step, microbatch)

    def zero_deferred(self) -> None:
        """Clear module-local deferred gradient buffers (step start)."""
        for m in self._deferred:
            for _, buf in m.deferred_grads():
                buf.fill(0.0)

    def enable_deferred(self) -> None:
        """Put tied modules of this slice in deferred-gradient mode.
        Process workers flip this once for the replica's lifetime (the
        replica only ever runs sliced steps); on the driver the backend
        scopes the mode to each train step instead."""
        for m in self._deferred:
            m.enable_deferred_grads()

    def unload_borrowed(self) -> None:
        """Detach borrowing modules from their per-slot version arrays so
        later monolithic use (evaluation, a different backend) reads the
        live ``Parameter.data`` again."""
        for borrow in self.borrows:
            unload = getattr(borrow.module, "unload_borrowed", None)
            if unload is not None:
                unload()

    def cache_state(self) -> list[dict]:
        """Snapshot of every per-microbatch forward cache in the slice (the
        ``_``-prefixed module attributes).  Mutable containers are copied one
        level deep: caches like Embedding's index stack are mutated in place
        by backward, so a reference snapshot would alias across the many
        in-flight microbatches; the arrays inside are never mutated (the
        module contract), so one level suffices.

        This runs once per wave, so each module's attribute names are
        resolved once and again only when its ``__dict__`` changed size —
        a cache first assigned inside ``forward`` grows it."""
        state = []
        for n, m in enumerate(self.all_modules):
            attrs = m.__dict__
            size, names = self._cache_attrs[n]
            if size != len(attrs):
                names = tuple(k for k in attrs if _is_cache_attr(k))
                self._cache_attrs[n] = (len(attrs), names)
            snap = {}
            for k in names:
                v = attrs[k]
                snap[k] = v.copy() if isinstance(v, (list, dict, set)) else v
            state.append(snap)
        return state

    def load_cache_state(self, state: list[dict]) -> None:
        for m, attrs in zip(self.all_modules, state):
            for k, v in attrs.items():
                object.__setattr__(m, k, v)

    # -- persistent (non-cache) module state -----------------------------------
    def has_persistent_state(self) -> bool:
        """Whether any module in the slice carries persistent array state
        (BatchNorm running statistics, deferred tied-gradient buffers) that
        mutates during training.  Thread workers share the driver's modules
        so nothing extra is needed; process workers mutate their local
        replica and ship this state back to the driver each step."""
        return any(s for s in self.persistent_state())

    def persistent_state(self) -> list[dict]:
        """Non-underscore ndarray attributes per module: state that persists
        across microbatches (running stats, deferred tied-grad buffers), as
        opposed to the ``_`` caches (per-microbatch) and Parameters
        (versioned through the store).  Modules may exempt never-written
        constant buffers (e.g. a positional-encoding table) by naming them
        in ``pipeline_constant_attrs`` — shipping those back to the driver
        every step would be pure serialization waste."""
        return [
            {
                k: v
                for k, v in m.__dict__.items()
                if not k.startswith("_")
                and isinstance(v, np.ndarray)
                and k not in getattr(m, "pipeline_constant_attrs", ())
            }
            for m in self.all_modules
        ]

    def load_persistent_state(self, state: list[dict]) -> None:
        self.load_cache_state(state)  # same per-module attr restore


@dataclass
class WorkerGraph:
    """The fully sliced model: workers, edges, and routing metadata shared
    by both concurrent backends (and rebuilt identically inside process
    workers from the same deterministic construction)."""

    workers: list[WorkerCompute]
    edges: list[Edge]
    num_external: int
    sink: Segment

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def cross_edges(self) -> list[Edge]:
        """Edges that need a transport channel (src and dst on different
        workers; external-input edges are delivered by the driver, not a
        channel)."""
        return [e for e in self.edges if e.src is not None and not e.local]

    def ext_needs(self, worker: int) -> list[int]:
        """External input indices worker ``worker`` consumes."""
        return sorted({
            e.ext_index
            for e in self.edges
            if e.src is None and e.dst.worker == worker
        })

    def edge_spec(self) -> list[tuple[int, int, int]]:
        """(index, src_worker, dst_worker) triples — the structural
        fingerprint process workers validate against the driver's."""
        return [(e.index, e.src_worker, e.dst.worker) for e in self.edges]


def build_worker_graph(
    model: Module,
    stages,
    granularity: str = "layer",
    max_workers: int | None = None,
) -> WorkerGraph:
    """Slice ``model`` along the stage partition into the worker graph.

    ``granularity`` selects how fine the model's chain elements slice
    (``"sublayer"`` splits attention / FFN / norm+residual sub-chains into
    separate elements, so the finest partition yields strictly more workers
    than layers).  ``max_workers`` coalesces the distinct primary stages
    onto at most that many workers (contiguous, in stage order) — the
    segment→worker assignment is a knob of its own rather than the fixed
    one-worker-per-primary-stage rule, so a deep partition (large τ) can
    still run on a core-bounded host.

    Raises ``ValueError`` if the graph does not cover the model's parameters
    exactly (a model whose forward falls outside its declared graph would
    otherwise train silently wrong), if a node's elements are not in stage
    order, or if an edge would flow backward through the worker order (which
    would deadlock the interleaved schedule).
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    graph = flatten_graph(model, granularity)

    locator: dict[int, tuple[int, int]] = {}
    for s, stage in enumerate(stages):
        for pos, p in enumerate(stage.params):
            locator[id(p)] = (s, pos)

    model_param_ids = {id(p) for p in model.parameters()}
    owner_of_param: dict[int, Module] = {}
    shared_uses: list[tuple[Module, Module]] = []  # (owner element, reusing element)

    # Pass 1: primaries per element, segments per node.
    all_segments: list[Segment] = []
    segments_of_node: dict[str, list[Segment]] = {}
    seg_of_element: dict[int, Segment] = {}
    for node in graph.nodes:
        primaries: list[int | None] = []
        current: int | None = None
        for element in node.elements:
            element_stages: list[int] = []
            for p in element.parameters():
                if id(p) not in locator:
                    raise ValueError(
                        f"element {type(element).__name__} in node {node.name!r} "
                        f"has parameter {p.name!r} outside the stage partition"
                    )
                owner = owner_of_param.get(id(p))
                if owner is None:
                    owner_of_param[id(p)] = element
                elif owner is not element:
                    # A tied module reused at a second call site: read-only
                    # reuse, constrained below to the owner's worker.
                    shared_uses.append((owner, element))
                element_stages.append(locator[id(p)][0])
            if element_stages:
                current = min(element_stages)
            primaries.append(current)
        # Param-free head elements run where the node's first parametered
        # element runs (joins execute at their first consumer's stage).
        first_real = next((p for p in primaries if p is not None), 0)
        for i, p in enumerate(primaries):
            if p is not None:
                break
            primaries[i] = first_real
        if any(b > a for a, b in zip(primaries[1:], primaries)):
            raise ValueError(
                f"elements of node {node.name!r} are not in stage order; the "
                "partition does not follow the model's topological parameter order"
            )

        segs: list[Segment] = []
        group: list[Module] = []
        group_primary: int | None = None
        for element, primary in zip(node.elements, primaries):
            if group_primary is not None and primary != group_primary:
                segs.append(Segment(node, group))
                group = []
            group_primary = primary
            group.append(element)
        segs.append(Segment(node, group))
        # Record each segment's primary stage (all its elements share it);
        # worker indices replace these in pass 2.
        idx = 0
        for seg in segs:
            seg.worker = primaries[idx]  # temporarily: primary stage
            idx += len(seg.elements)
        for seg in segs:
            seg.topo = len(all_segments)
            all_segments.append(seg)
            for element in seg.elements:
                seg_of_element[id(element)] = seg
        segments_of_node[node.name] = segs

    owned_ids = set(owner_of_param)
    if owned_ids != model_param_ids:
        missing = len(model_param_ids - owned_ids)
        raise ValueError(
            f"stage graph covers {len(owned_ids)} of the model's "
            f"{len(model_param_ids)} parameters ({missing} missing) — "
            "the model's pipeline_graph()/pipeline_chain() must span its "
            "whole forward"
        )

    # Pass 2: workers — by default one per distinct primary stage, in stage
    # order; with ``max_workers`` the distinct primaries coalesce
    # contiguously (array_split arithmetic) onto fewer workers.  The
    # mapping is monotone in stage order either way, which is what keeps
    # every edge flowing forward through the worker order below.
    distinct = sorted({s.worker for s in all_segments})
    if max_workers is not None and max_workers < len(distinct):
        group_bounds = even_bounds(len(distinct), max_workers)
        worker_of_primary = {}
        for g in range(max_workers):
            for i in range(group_bounds[g], group_bounds[g + 1]):
                worker_of_primary[distinct[i]] = g
    else:
        worker_of_primary = {p: w for w, p in enumerate(distinct)}
    for seg in all_segments:
        seg.worker = worker_of_primary[seg.worker]

    for owner, user in shared_uses:
        w_owner = seg_of_element[id(owner)].worker
        w_user = seg_of_element[id(user)].worker
        if w_owner != w_user:
            raise ValueError(
                f"tied module shared by {type(owner).__name__} and "
                f"{type(user).__name__} would be split across workers "
                f"{w_owner} and {w_user}; tied call sites must share a stage"
            )

    # Pass 3: edges.
    edges: list[Edge] = []
    for node in graph.nodes:
        segs = segments_of_node[node.name]
        head = segs[0]
        for inp in node.inputs:
            if inp.startswith("ext:"):
                e = Edge(len(edges), None, head, ext_index=int(inp[4:]))
            else:
                src = segments_of_node[inp][-1]
                e = Edge(len(edges), src, head)
                src.out_edge = e
            head.in_edges.append(e)
            edges.append(e)
        for a, b in zip(segs, segs[1:]):
            e = Edge(len(edges), a, b)
            a.out_edge = e
            b.in_edges.append(e)
            edges.append(e)

    for e in edges:
        if e.src is None:
            continue
        if (e.src.worker, e.src.topo) >= (e.dst.worker, e.dst.topo):
            raise ValueError(
                f"edge {e.src.node.name!r} → {e.dst.node.name!r} flows backward "
                f"through the worker order (worker {e.src.worker} → {e.dst.worker}); "
                "the interleaved schedule would deadlock"
            )

    sink = segments_of_node[graph.nodes[-1].name][-1]
    sink.is_sink = True
    num_workers = max(s.worker for s in all_segments) + 1
    if sink.worker != num_workers - 1:
        raise ValueError(
            f"the model output lands on worker {sink.worker} of {num_workers}; "
            "the loss must sit on the last worker"
        )

    # Pass 4: per-worker computes (owned bindings + borrows).
    workers: list[WorkerCompute] = []
    for w in range(num_workers):
        segs = [s for s in all_segments if s.worker == w]
        by_stage: dict[int, _StageBinding] = {}
        borrow_modules: dict[int, _BorrowBinding] = {}
        for seg in segs:
            for element in seg.elements:
                for p in element.parameters():
                    if owner_of_param[id(p)] is not element:
                        continue  # tied reuse: bound at its owning element
                    s, pos = locator[id(p)]
                    binding = by_stage.setdefault(s, _StageBinding(s, [], []))
                    binding.positions.append(pos)
                    binding.params.append(p)
                for m in element.modules():
                    fn = getattr(m, "pipeline_borrows", None)
                    if fn is None or id(m) in borrow_modules:
                        continue
                    coords = []
                    for p in fn():
                        if id(p) not in locator:
                            raise ValueError(
                                f"{type(m).__name__} borrows parameter "
                                f"{p.name!r} outside the stage partition"
                            )
                        coords.append(locator[id(p)])
                    borrow_modules[id(m)] = _BorrowBinding(m, coords)
        workers.append(
            WorkerCompute(
                w, segs, [by_stage[s] for s in sorted(by_stage)],
                list(borrow_modules.values()),
            )
        )
    return WorkerGraph(
        workers=workers, edges=edges, num_external=graph.num_external, sink=sink
    )

