"""Synthetic graph-classification dataset generator.

Each class owns a seeded template: an adjacency pattern plus per-node and
per-edge center vectors.  A sample of class ``c`` takes the first ``n``
template nodes (``n`` uniform in ``[min_nodes, max_nodes]``), the induced
template edges, adds i.i.d. Gaussian noise around the centers, then deletes
each node independently with the configured probability (redrawing the mask
if everything would disappear).  Class identity therefore lives in both the
topology and the attribute centers.

Labels are assigned round-robin, so class counts are exactly balanced.
Templates and samples draw from independent sub-seeds of the master seed,
which makes generation order-independent and parallel-safe.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .seeding import mix_seed

# sub-seed namespaces: templates and samples must never share a stream
_TEMPLATE_STREAM = 0
_SAMPLE_STREAM = 1


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the generator with their default values.

    ``connectivity_rate`` is the per-pair Bernoulli edge probability.  With
    ``is_symmetric`` false each ordered pair is drawn separately and the two
    directions are merged by union into an undirected edge; with it true each
    unordered pair is drawn once.
    """

    num_samples: int = 20000
    num_classes: int = 100
    min_nodes: int = 40
    max_nodes: int = 60
    node_dim: int = 10
    edge_dim: int = 40
    connectivity_rate: float = 0.2
    node_centers_std: float = 0.2
    edge_centers_std: float = 0.2
    node_noise_std: float = 0.25
    edge_noise_std: float = 0.1
    is_symmetric: bool = False
    node_removal_probability: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError(
                f"need 1 <= min_nodes <= max_nodes, got {self.min_nodes}..{self.max_nodes}"
            )
        if self.node_dim < 0 or self.edge_dim < 0:
            raise ValueError("attribute dimensions must be >= 0")
        if not 0.0 <= self.connectivity_rate <= 1.0:
            raise ValueError(f"connectivity_rate must be in [0, 1], got {self.connectivity_rate}")
        # at 1 every node would be removed, and the sample's mask redrawn forever
        if not 0.0 <= self.node_removal_probability < 1.0:
            raise ValueError(
                f"node_removal_probability must be in [0, 1), got {self.node_removal_probability}"
            )
        # zero std is allowed: it is the exact noise-free limit
        for name in ("node_centers_std", "edge_centers_std", "node_noise_std", "edge_noise_std"):
            s = getattr(self, name)
            if s < 0.0:
                raise ValueError(f"{name} must be >= 0, got {s}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ClassTemplate:
    """Deterministic per-class blueprint on ``max_nodes`` nodes.

    ``edges`` are canonical pairs in lexicographic order; ``edge_centers``
    rows align with them.
    """

    edges: np.ndarray
    node_centers: np.ndarray
    edge_centers: np.ndarray


@dataclass(frozen=True)
class GeneratedSample:
    graph: Graph  # labelled with its class in graph_label
    template_nodes: np.ndarray  # surviving template node indices, ascending
    num_initial_nodes: int  # node count before removal (first n template nodes)


def generate_class_template(cfg: GeneratorConfig, class_index: int) -> ClassTemplate:
    """Template for one class, a pure function of ``(cfg.seed, class_index)``."""
    if not 0 <= class_index < cfg.num_classes:
        raise ValueError(f"class index {class_index} outside [0, {cfg.num_classes})")
    rng = np.random.default_rng(mix_seed(cfg.seed, _TEMPLATE_STREAM, class_index))
    n = cfg.max_nodes

    if cfg.is_symmetric:
        iu, iv = np.triu_indices(n, 1)
        present = rng.random(len(iu)) < cfg.connectivity_rate
        edges = np.stack([iu[present], iv[present]], axis=1)
    else:
        draw = rng.random((n, n)) < cfg.connectivity_rate
        np.fill_diagonal(draw, False)
        adj = draw | draw.T  # direction-wise draws merged by union
        iu, iv = np.triu_indices(n, 1)
        present = adj[iu, iv]
        edges = np.stack([iu[present], iv[present]], axis=1)

    node_centers = rng.normal(0.0, cfg.node_centers_std, size=(n, cfg.node_dim))
    edge_centers = rng.normal(0.0, cfg.edge_centers_std, size=(len(edges), cfg.edge_dim))
    return ClassTemplate(
        edges=edges.astype(np.int64), node_centers=node_centers, edge_centers=edge_centers
    )


def generate_sample(
    cfg: GeneratorConfig,
    templates: Sequence[ClassTemplate] | Mapping[int, ClassTemplate],
    sample_index: int,
) -> GeneratedSample:
    """One dataset sample, a pure function of ``(cfg.seed, sample_index)``.

    ``templates[c]`` is the template of class ``c``; only the sample's own
    class is looked up.
    """
    label = sample_index % cfg.num_classes
    tpl = templates[label]
    rng = np.random.default_rng(mix_seed(cfg.seed, _SAMPLE_STREAM, sample_index))

    n = int(rng.integers(cfg.min_nodes, cfg.max_nodes + 1))
    induced = (tpl.edges[:, 0] < n) & (tpl.edges[:, 1] < n)
    edges = tpl.edges[induced]

    node_attrs = tpl.node_centers[:n] + rng.normal(
        0.0, cfg.node_noise_std, size=(n, cfg.node_dim)
    )
    edge_attrs = tpl.edge_centers[induced] + rng.normal(
        0.0, cfg.edge_noise_std, size=(len(edges), cfg.edge_dim)
    )

    while True:
        keep = rng.random(n) >= cfg.node_removal_probability
        if keep.any():
            break
    kept_nodes = np.flatnonzero(keep)
    new_index = np.cumsum(keep) - 1
    edge_alive = keep[edges[:, 0]] & keep[edges[:, 1]]
    edges = new_index[edges[edge_alive]]

    graph = Graph(
        num_nodes=len(kept_nodes),
        edges=edges,
        node_attrs=node_attrs[keep],
        edge_attrs=edge_attrs[edge_alive],
        graph_label=label,
    )
    return GeneratedSample(graph=graph, template_nodes=kept_nodes, num_initial_nodes=n)


class _Dataset(Sequence):
    """The graphs of a dataset, labelled; item ``s`` generates sample ``s`` when asked.

    Only the sample at hand is held, and each class template is built when a
    sample of its class first comes up in this process, so a forked worker
    builds the templates it needs; ``len`` counts the samples without
    generating them.
    """

    def __init__(self, cfg: GeneratorConfig):
        self._cfg = cfg
        self._templates: dict[int, ClassTemplate] = {}

    def __len__(self) -> int:
        return self._cfg.num_samples

    def __getitem__(self, s: int) -> Graph:
        cfg = self._cfg
        s = range(cfg.num_samples)[s]
        label = s % cfg.num_classes  # labels are round-robin
        if label not in self._templates:
            self._templates[label] = generate_class_template(cfg, label)
        return generate_sample(cfg, self._templates, s).graph

    def __iter__(self):
        # not Sequence's default, which would end quietly at an IndexError from inside a sample
        return map(self.__getitem__, range(len(self)))


def generate_dataset(cfg: GeneratorConfig) -> Sequence[Graph]:
    """The dataset's graphs in sample order, generated lazily; ``graph_label`` is the class."""
    return _Dataset(cfg)
