"""Backbone architecture producer (Figure 4, component 3).

The producer owns the backbone architecture (MobileNetV2 by default), decides
which of its blocks are frozen versus searchable (via the freezing analysis),
and materialises child networks from controller decisions:

* the *frozen header* keeps the backbone's pre-trained weights and is never
  trained again (its parameters are marked non-trainable),
* the *searchable tail* is rebuilt from the controller's block decisions and
  trained from scratch for every child.

With ``freeze=False`` the producer degenerates into the MONAS baseline: every
backbone position is searchable and no pre-trained weights are reused.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.blocks.spec import BlockSpec
from repro.core.freezing import FreezingAnalysis, analyse_model_freezing
from repro.core.search_space import BlockDecision, SearchPosition, SearchSpace
from repro.data.dataset import GroupedDataset
from repro.nn.layers import BatchNorm2d
from repro.nn.module import Module, Sequential
from repro.nn.trainer import Trainer, TrainingConfig
from repro.utils.rng import SeedLike, new_rng, spawn_rngs
from repro.zoo.descriptors import ArchitectureDescriptor
from repro.zoo.registry import get_architecture


@dataclass
class ProducerConfig:
    """Configuration of the backbone producer."""

    backbone: Union[str, ArchitectureDescriptor] = "MobileNetV2"
    freeze: bool = True
    gamma: float = 0.5
    pretrain_epochs: int = 5
    width_multiplier: float = 0.35
    analysis_batch_size: int = 32
    max_searchable: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be non-negative")
        if self.width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        if self.max_searchable is not None and self.max_searchable <= 0:
            raise ValueError("max_searchable must be positive when given")


@dataclass
class ChildArchitecture:
    """A materialised child network ready for evaluation."""

    descriptor: ArchitectureDescriptor
    model: Sequential
    num_trainable_parameters: int
    num_frozen_parameters: int


class BackboneProducer:
    """Builds child networks around a (partially frozen) backbone."""

    def __init__(
        self,
        dataset: GroupedDataset,
        search_space: Optional[SearchSpace] = None,
        config: Optional[ProducerConfig] = None,
        trainer_config: Optional[TrainingConfig] = None,
        num_classes: Optional[int] = None,
        rng: SeedLike = 0,
    ):
        self.dataset = dataset
        self.search_space = search_space or SearchSpace()
        self.config = config or ProducerConfig()
        self.trainer_config = trainer_config or TrainingConfig(epochs=self.config.pretrain_epochs)
        self.num_classes = num_classes or dataset.num_classes
        self._rng = new_rng(rng)

        backbone = self.config.backbone
        if isinstance(backbone, str):
            backbone = get_architecture(backbone, num_classes=self.num_classes)
        self.backbone: ArchitectureDescriptor = backbone

        self._prepared = False
        self._analysis: Optional[FreezingAnalysis] = None
        self._backbone_model: Optional[Sequential] = None
        self._split_block: int = 0
        self._positions: List[SearchPosition] = []

    # -- preparation ---------------------------------------------------------------
    def prepare(self) -> Optional[FreezingAnalysis]:
        """Pre-train the backbone (if freezing) and fix the split point."""
        if self._prepared:
            return self._analysis
        if self.config.freeze:
            seed = int(self._rng.integers(0, 2**31 - 1))
            self._backbone_model = self.backbone.build(
                num_classes=self.num_classes,
                width_multiplier=self.config.width_multiplier,
                rng=seed,
            )
            if self.config.pretrain_epochs > 0:
                trainer = Trainer(self.trainer_config)
                trainer.fit(
                    self._backbone_model, self.dataset.images, self.dataset.labels
                )
            self._analysis = analyse_model_freezing(
                self._backbone_model,
                self.dataset,
                gamma=self.config.gamma,
                num_stages=1 + len(self.backbone.blocks),
                batch_size=self.config.analysis_batch_size,
                rng=self._rng,
            )
            # Stage 0 is the stem; stage i corresponds to backbone block i-1.
            self._split_block = max(0, self._analysis.split_index - 1)
        else:
            self._analysis = None
            self._split_block = 0

        if self.config.max_searchable is not None:
            min_split = len(self.backbone.blocks) - self.config.max_searchable
            self._split_block = max(self._split_block, min_split)
        # Never freeze everything: keep at least one searchable position.
        self._split_block = min(self._split_block, len(self.backbone.blocks) - 1)
        self._positions = self._compute_positions()
        self._prepared = True
        return self._analysis

    def _compute_positions(self) -> List[SearchPosition]:
        resolution = self.backbone.input_resolution
        height, width = self.backbone.stem.output_spatial(resolution, resolution)
        positions: List[SearchPosition] = []
        for index, block in enumerate(self.backbone.blocks):
            if index >= self._split_block:
                positions.append(
                    SearchPosition(
                        index=index, stride=block.stride, input_resolution=height
                    )
                )
            height, width = block.output_spatial(height, width)
        return positions

    # -- introspection ---------------------------------------------------------------
    @property
    def analysis(self) -> Optional[FreezingAnalysis]:
        return self._analysis

    @property
    def backbone_model(self) -> Optional[Sequential]:
        """The pre-trained backbone model (None when freezing is off)."""
        self._ensure_prepared()
        return self._backbone_model

    @property
    def split_block(self) -> int:
        """Index of the first searchable backbone block."""
        self._ensure_prepared()
        return self._split_block

    @property
    def positions(self) -> List[SearchPosition]:
        """The searchable positions handed to the controller."""
        self._ensure_prepared()
        return list(self._positions)

    def frozen_block_specs(self) -> Tuple[BlockSpec, ...]:
        """Backbone blocks that stay fixed in every child."""
        self._ensure_prepared()
        return self.backbone.blocks[: self._split_block]

    def space_size(self) -> float:
        """Number of candidate networks in the (possibly reduced) search space."""
        self._ensure_prepared()
        return self.search_space.space_size(self._positions)

    def full_space_size(self) -> float:
        """Search-space size without freezing (every backbone position searchable)."""
        resolution = self.backbone.input_resolution
        height, width = self.backbone.stem.output_spatial(resolution, resolution)
        positions = []
        for index, block in enumerate(self.backbone.blocks):
            positions.append(
                SearchPosition(index=index, stride=block.stride, input_resolution=height)
            )
            height, width = block.output_spatial(height, width)
        return self.search_space.space_size(positions)

    # -- child construction -------------------------------------------------------------
    def describe_child(self, decisions: Sequence[BlockDecision]) -> ArchitectureDescriptor:
        """Build only the child's descriptor, without instantiating a model.

        The engine's evaluation cache uses this to fingerprint a sampled child
        before deciding whether the (expensive) model build and training are
        needed at all.
        """
        self._ensure_prepared()
        if len(decisions) != len(self._positions):
            raise ValueError(
                f"expected {len(self._positions)} decisions, got {len(decisions)}"
            )
        frozen_specs = list(self.frozen_block_specs())
        if frozen_specs:
            tail_ch_in = frozen_specs[-1].ch_out
        else:
            tail_ch_in = self.backbone.stem.ch_out
        searched_specs = self.search_space.decisions_to_specs(
            self._positions, list(decisions), tail_ch_in
        )
        return self.backbone.with_blocks(
            frozen_specs + searched_specs, name="FaHaNa-child"
        )

    def child_seed(self, rng: SeedLike = None) -> int:
        """Draw one child's weight-init seed (from ``rng``, else the producer's stream)."""
        source = new_rng(rng) if rng is not None else self._rng
        return int(source.integers(0, 2**31 - 1))

    def produce(
        self,
        child: Union[ArchitectureDescriptor, Sequence[BlockDecision]],
        rng: SeedLike = None,
        seed: Optional[int] = None,
    ) -> ChildArchitecture:
        """Materialise a child network.

        ``child`` is either the controller's decisions or the descriptor
        :meth:`describe_child` already made of them.  ``seed`` is the
        weight-init seed; without one, :meth:`child_seed` draws it from
        ``rng``.
        """
        self._ensure_prepared()
        descriptor = (
            child
            if isinstance(child, ArchitectureDescriptor)
            else self.describe_child(child)
        )
        if seed is None:
            seed = self.child_seed(rng)
        model = descriptor.build(
            num_classes=self.num_classes,
            width_multiplier=self.config.width_multiplier,
            rng=seed,
        )
        num_frozen = 0
        if self.config.freeze and self._backbone_model is not None:
            num_frozen = self._transfer_frozen_weights(model)

        return ChildArchitecture(
            descriptor=descriptor,
            model=model,
            num_trainable_parameters=model.num_parameters(trainable_only=True),
            num_frozen_parameters=num_frozen,
        )

    def _transfer_frozen_weights(self, child_model: Sequential) -> int:
        """Copy pre-trained weights into the child's frozen prefix and freeze it.

        Stage 0 is the stem and stages 1..split_block are the frozen backbone
        blocks; their layer structure in the child is identical to the
        backbone model's, so a state-dict copy is exact.
        """
        assert self._backbone_model is not None
        frozen_params = 0
        num_frozen_stages = 1 + self._split_block
        for stage_index in range(num_frozen_stages):
            source = self._backbone_model[stage_index]
            target = child_model[stage_index]
            target.load_state_dict(source.state_dict())
            _copy_batchnorm_statistics(source, target)
            target.freeze()
            frozen_params += target.num_parameters()
        return frozen_params

    def _ensure_prepared(self) -> None:
        if not self._prepared:
            self.prepare()


def _copy_batchnorm_statistics(source: Module, target: Module) -> None:
    """Copy batch-norm running statistics between structurally identical modules."""
    source_bns = [m for m in source.modules() if isinstance(m, BatchNorm2d)]
    target_bns = [m for m in target.modules() if isinstance(m, BatchNorm2d)]
    if len(source_bns) != len(target_bns):
        raise ValueError("modules have different batch-norm structure")
    for src, dst in zip(source_bns, target_bns):
        dst.running_mean = src.running_mean.copy()
        dst.running_var = src.running_var.copy()
