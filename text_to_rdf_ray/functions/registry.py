"""User-extension surface: the Stage protocol and extractor registry.

Re-expresses the reference's plug points (SURVEY.md §2.10):
- ``RdfExtractor`` trait (/root/reference/src/lib.rs:343-378) -> any
  callable (or callable class, run as an actor pool) mapping
  ``pyarrow.Table -> pyarrow.Table`` registered under a name;
- ``RdfValidator::add_rule`` (validation.rs:170-172) -> ``add_rule`` on
  the rule table consumed by the validation stage;
- custom system prompt / model switches -> config objects (config.py).

``build_stage_pipeline`` chains registered stages onto a Dataset the same
way ``build_triples`` does, so user pipelines compose from config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import ray.data as rd

_STAGES: dict[str, dict] = {}


def register_stage(name: str, fn: Callable | type, *, batch_format: str = "pyarrow",
                   batch_size: int | None = 256, is_actor: bool | None = None,
                   concurrency=None, **map_kwargs) -> None:
    """Register a stage under ``name``.

    ``fn`` is a batch function or a callable class; classes run as actor
    pools (state built once per actor in ``__init__``).
    """
    if is_actor is None:
        is_actor = isinstance(fn, type)
    _STAGES[name] = {
        "fn": fn,
        "batch_format": batch_format,
        "batch_size": batch_size,
        "is_actor": is_actor,
        "concurrency": concurrency or ((1, 4) if is_actor else None),
        "map_kwargs": map_kwargs,
    }


def apply_stage(ds: rd.Dataset, name: str, **overrides) -> rd.Dataset:
    spec = dict(_STAGES[name])
    spec.update(overrides)
    kwargs = dict(spec["map_kwargs"])
    if spec["batch_size"] is not None:
        kwargs["batch_size"] = spec["batch_size"]
    if spec["is_actor"]:
        kwargs["concurrency"] = spec["concurrency"]
    return ds.map_batches(spec["fn"], batch_format=spec["batch_format"], **kwargs)


def build_stage_pipeline(ds: rd.Dataset, stage_names: list[str]) -> rd.Dataset:
    for name in stage_names:
        ds = apply_stage(ds, name)
    return ds


# ---------------------------------------------------------------- rules


@dataclass
class ValidationRule:
    """validation.rs:21-29 shape (SPARQL ASK replaced by a predicate fn)."""

    name: str
    description: str
    required_properties: list[str] = field(default_factory=list)
    entity_type: str | None = None
    check_fn: Callable | None = None  # jsonld-dict -> bool (True = passes)
    confidence_impact: float = -0.2
    severity: str = "Error"


_RULES: list[ValidationRule] = []


def add_rule(rule: ValidationRule) -> None:
    _RULES.append(rule)


def get_rules() -> list[ValidationRule]:
    return list(_RULES)


def clear_rules() -> None:
    _RULES.clear()


def apply_custom_rules(jsonld: dict, rules: list[ValidationRule] | None = None):
    """Evaluate custom rules on one JSON-LD doc; returns (violations, delta)."""
    violations = []
    delta = 0.0
    for rule in rules if rules is not None else _RULES:
        etype = jsonld.get("@type")
        if rule.entity_type is not None and etype != rule.entity_type:
            continue
        failed = False
        for prop in rule.required_properties:
            if not jsonld.get(prop):
                failed = True
        if rule.check_fn is not None and not rule.check_fn(jsonld):
            failed = True
        if failed:
            violations.append(rule.name)
            delta += rule.confidence_impact
    return violations, delta


# ------------------------------------------------- built-in registrations

def _register_builtins() -> None:
    from ..stages.kg_stages import extract_triples, strip_html, validate_triples
    from ..stages.multimodal import DecodeStub

    register_stage("strip_html", strip_html, batch_size=512)
    register_stage("extract_triples", extract_triples, batch_size=256)
    register_stage("validate_triples", validate_triples, batch_size=None)
    register_stage("decode_media_fake", DecodeStub, batch_size=32,
                   fn_constructor_kwargs={"fake": True})


_register_builtins()
