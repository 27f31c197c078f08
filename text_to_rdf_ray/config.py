"""Pipeline configuration (re-expresses the reference's env-driven config).

The reference loads every stage's settings from environment variables
(/root/reference/src/lib.rs:169-272, coref.rs:112-147,
gliner_extractor.rs:90-118).  Here each stage has a dataclass with the same
defaults; ``PipelineConfig.from_env`` honors the reference's variable names
where they exist plus ``KG_``-prefixed equivalents, so a user of the
reference can port their .env.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


def _env(name: str, default, cast=None, aliases: tuple[str, ...] = ()):
    for key in (name, *aliases):
        val = os.environ.get(key)
        if val is not None:
            if cast is bool:
                return val.lower() in ("1", "true", "yes", "on")
            return (cast or str)(val)
    return default


@dataclass
class CorefConfig:
    """coref.rs:63-101 defaults."""

    strategy: str = "typed"  # "typed" | "reference" | "none"
    max_distance: int = 3

    @classmethod
    def from_env(cls) -> "CorefConfig":
        strategy = _env("COREF_STRATEGY", "typed")
        if strategy in ("rule-based", "rule", "rules"):
            strategy = "reference"
        if strategy in ("disabled",):
            strategy = "none"
        return cls(
            strategy=strategy,
            max_distance=_env("COREF_MAX_DISTANCE", 3, int),
        )


@dataclass
class ChunkConfig:
    """chunking.rs:99-106 + extractor.rs:572-583 defaults."""

    max_chars: int = 3500
    overlap: int = 400
    token_threshold: int = 2000

    @classmethod
    def from_env(cls) -> "ChunkConfig":
        return cls(
            max_chars=_env("KG_CHUNK_MAX_CHARS", 3500, int),
            overlap=_env("KG_CHUNK_OVERLAP", 400, int),
            token_threshold=_env("RDF_CHUNK_THRESHOLD", 2000, int),
        )


@dataclass
class LinkerConfig:
    """entity_linker.rs defaults: fuzzy 0.8, confidence 0.5, exact 0.95."""

    enabled: bool = True
    fuzzy_threshold: float = 0.8
    confidence_threshold: float = 0.5
    mode: str = "task"  # "task" (small KB) | "join" (KB too big to broadcast)

    @classmethod
    def from_env(cls) -> "LinkerConfig":
        return cls(
            enabled=_env("ENTITY_LINKING_ENABLED", True, bool),
            fuzzy_threshold=_env("ENTITY_LINKING_FUZZY_THRESHOLD", 0.8, float),
            confidence_threshold=_env("ENTITY_LINKING_CONFIDENCE_THRESHOLD", 0.5, float),
            mode=_env("KG_LINK_MODE", "task"),
        )


@dataclass
class ValidationConfig:
    """validation.rs defaults."""

    enabled: bool = True
    drop_invalid: bool = False

    @classmethod
    def from_env(cls) -> "ValidationConfig":
        return cls(
            enabled=_env("KG_VALIDATION_ENABLED", True, bool),
            drop_invalid=_env("KG_VALIDATION_DROP_INVALID", False, bool),
        )


@dataclass
class CanonicalizeConfig:
    enabled: bool = True
    tau: float = 0.72
    local_threshold: int = 100_000

    @classmethod
    def from_env(cls) -> "CanonicalizeConfig":
        return cls(
            enabled=_env("KG_CANONICALIZE_ENABLED", True, bool),
            tau=_env("KG_CANONICALIZE_TAU", 0.72, float),
            local_threshold=_env("KG_CANONICALIZE_LOCAL_THRESHOLD", 100_000, int),
        )


@dataclass
class PipelineConfig:
    lang: str | None = "en"
    coref: CorefConfig = field(default_factory=CorefConfig)
    chunk: ChunkConfig = field(default_factory=ChunkConfig)
    linker: LinkerConfig = field(default_factory=LinkerConfig)
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    canonicalize: CanonicalizeConfig = field(default_factory=CanonicalizeConfig)
    extract_batch_size: int = 256
    dedup: bool = True

    @classmethod
    def from_env(cls) -> "PipelineConfig":
        return cls(
            lang=_env("KG_LANG_FILTER", "en") or None,
            coref=CorefConfig.from_env(),
            chunk=ChunkConfig.from_env(),
            linker=LinkerConfig.from_env(),
            validation=ValidationConfig.from_env(),
            canonicalize=CanonicalizeConfig.from_env(),
            extract_batch_size=_env("KG_EXTRACT_BATCH_SIZE", 256, int),
            dedup=_env("KG_DEDUP_ENABLED", True, bool),
        )

    def build_kwargs(self) -> dict:
        """kwargs for pipelines.kg.build_triples."""
        return {
            "lang": self.lang,
            "link": self.linker.enabled,
            "link_mode": self.linker.mode,
            "link_fuzzy_threshold": self.linker.fuzzy_threshold,
            "link_confidence_threshold": self.linker.confidence_threshold,
            "canonicalize": self.canonicalize.enabled,
            "canonicalize_local_threshold": self.canonicalize.local_threshold,
            "canonicalize_tau": self.canonicalize.tau,
            "validate": self.validation.enabled,
            "drop_invalid": self.validation.drop_invalid,
            "dedup": self.dedup,
            "extract_batch_size": self.extract_batch_size,
            "extract_kwargs": {
                "coref_strategy": self.coref.strategy,
                "coref_max_distance": self.coref.max_distance,
                "chunk_max_chars": self.chunk.max_chars,
                "chunk_overlap": self.chunk.overlap,
                "chunk_token_threshold": self.chunk.token_threshold,
            },
        }
