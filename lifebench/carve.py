"""Split one synthetic pair into a base prefix and arrival delta batches.

The last ``growth`` entity ids of each side arrive in ``batches`` equal
slices.  A triple, attribute value or image feature travels with the batch
of its last-arriving entity.  Gold pairs touching an arriving entity are
dropped except for a trickle of :data:`MAX_SEED_PAIRS` revealed as seed
pairs, so the held-out test pairs all lie inside the base prefix.
"""

from __future__ import annotations

import bisect

#: Gold pairs revealed as seed pairs across all arrival batches.
MAX_SEED_PAIRS = 4


def _batch_index(entity: int, bounds: list[int]) -> int:
    """-1 for a base entity, else the arrival batch holding ``entity``."""
    return bisect.bisect_right(bounds, entity) - 1 if entity >= bounds[0] \
        else -1


def _carve_side(graph, bounds: list[int], batches: int):
    from repro.incremental import SideDelta
    from repro.kg.graph import MultiModalKG

    relations = [[] for _ in range(batches)]
    attributes = [[] for _ in range(batches)]
    images = [{} for _ in range(batches)]
    base_relations, base_attributes, base_images = [], [], {}
    for triple in graph.relation_triples:
        index = max(_batch_index(triple.head, bounds),
                    _batch_index(triple.tail, bounds))
        if index < 0:
            base_relations.append(triple)
        else:
            relations[index].append((triple.head, triple.relation,
                                     triple.tail))
    for triple in graph.attribute_triples:
        index = _batch_index(triple.entity, bounds)
        if index < 0:
            base_attributes.append(triple)
        else:
            attributes[index].append((triple.entity, triple.attribute,
                                      triple.value))
    for entity, vector in graph.image_features.items():
        index = _batch_index(entity, bounds)
        if index < 0:
            base_images[entity] = vector
        else:
            images[index][entity] = vector
    base = MultiModalKG(
        entity_names=list(graph.entity_names[:bounds[0]]),
        num_relations=graph.num_relations,
        num_attributes=graph.num_attributes,
        relation_triples=base_relations,
        attribute_triples=base_attributes,
        image_features=base_images,
        name=graph.name)
    deltas = [SideDelta(
        entity_names=list(graph.entity_names[bounds[i]:bounds[i + 1]]),
        relation_triples=relations[i], attribute_triples=attributes[i],
        image_features=images[i]) for i in range(batches)]
    return base, deltas


def carve(pair, growth: int, batches: int):
    """Return ``(base_pair, [DeltaBatch, ...])``."""
    from repro.incremental import DeltaBatch
    from repro.kg.pair import KGPair

    def bounds_of(num_entities: int) -> list[int]:
        cutoff = num_entities - growth
        return [cutoff + i * growth // batches for i in range(batches + 1)]

    bounds_s = bounds_of(pair.source.num_entities)
    bounds_t = bounds_of(pair.target.num_entities)
    base_source, source_deltas = _carve_side(pair.source, bounds_s, batches)
    base_target, target_deltas = _carve_side(pair.target, bounds_t, batches)
    base_alignments = []
    seed_pairs = [[] for _ in range(batches)]
    revealed = 0
    for gold in pair.alignments:
        index = max(_batch_index(gold.source, bounds_s),
                    _batch_index(gold.target, bounds_t))
        if index < 0:
            base_alignments.append(gold)
        elif revealed < MAX_SEED_PAIRS:
            seed_pairs[index].append((gold.source, gold.target))
            revealed += 1
    base = KGPair(source=base_source, target=base_target,
                  alignments=base_alignments, seed_ratio=pair.seed_ratio,
                  name=f"{pair.name}-base")
    deltas = [DeltaBatch(source=source_deltas[i], target=target_deltas[i],
                         seed_pairs=seed_pairs[i]) for i in range(batches)]
    return base, deltas
