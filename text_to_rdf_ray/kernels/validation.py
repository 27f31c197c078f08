"""SHACL-like validation with confidence scoring.

Mirrors /root/reference/src/validation.rs:80-338:
- schema.org rules: Person/Organization/Place/Event require ``name``
  (validation.rs:120-160);
- confidence starts at 1.0; -0.2 per missing required property, -0.05 bad
  date shape, -0.1 bad URI, -0.5 structural failure; clamped to [0,1]
  (validation.rs:183-298);
- valid = no Error-severity violations AND confidence >= min (default 0.7);
- date shape check: len==10, dashes at 4 and 7 (validation.rs:326-333);
- URI check: http(s):// prefix (validation.rs:335-337).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ERROR = "Error"
WARNING = "Warning"

DATE_PREDICATES = frozenset(["birthDate", "deathDate", "datePublished", "dateCreated",
                             "foundingDate", "dissolutionDate"])
_NAME_REQUIRED_TYPES = frozenset(["Person", "Organization", "Place", "Event"])


@dataclass
class Violation:
    rule: str
    message: str
    severity: str
    property: str | None = None
    confidence_impact: float = 0.0


@dataclass
class ValidationResult:
    valid: bool
    confidence: float
    violations: list[Violation] = field(default_factory=list)


def is_valid_date(value: str) -> bool:
    return len(value) == 10 and value[4] == "-" and value[7] == "-"


def is_valid_uri(value: str) -> bool:
    return value.startswith("http://") or value.startswith("https://")


def validate_document(jsonld: dict, min_confidence: float = 0.7) -> ValidationResult:
    """Validate one JSON-LD document tree (the reference's unit)."""
    violations: list[Violation] = []
    confidence = 1.0

    if not isinstance(jsonld, dict) or jsonld.get("@context") is None or (
        "@type" not in jsonld and "@graph" not in jsonld
    ):
        violations.append(Violation("basic_structure", "Basic validation failed",
                                    ERROR, None, -0.5))
        return ValidationResult(valid=False, confidence=0.5, violations=violations)

    nodes = jsonld.get("@graph", [jsonld]) if "@graph" in jsonld else [jsonld]
    for node in nodes:
        if not isinstance(node, dict):
            continue
        etype = node.get("@type")
        if etype in _NAME_REQUIRED_TYPES and not node.get("name"):
            confidence -= 0.2
            violations.append(Violation(
                f"{str(etype).lower()}_requires_name",
                f"Missing required property 'name' for {etype}",
                ERROR, "name", -0.2))
        for prop in DATE_PREDICATES:
            val = node.get(prop)
            if isinstance(val, str) and not is_valid_date(val):
                confidence -= 0.05
                violations.append(Violation(
                    "valid_date_format",
                    f"{prop} must be in ISO 8601 format (YYYY-MM-DD)",
                    WARNING, prop, -0.05))
        node_id = node.get("@id")
        if isinstance(node_id, str) and not is_valid_uri(node_id):
            confidence -= 0.1
            violations.append(Violation("valid_uri", "@id must be a valid URI",
                                        WARNING, "@id", -0.1))

    confidence = min(1.0, max(0.0, confidence))
    valid = all(v.severity != ERROR for v in violations) and confidence >= min_confidence
    return ValidationResult(valid=valid, confidence=confidence, violations=violations)
