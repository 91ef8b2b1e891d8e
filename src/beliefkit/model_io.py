"""Model documents: parsing, canonical serialization, and validation findings.

A model document is a JSON object with the fields ``frame`` (list of
labels), ``messages`` (list of labels), ``plaintexts`` (list of subsets,
each a list of labels), ``codes`` (list of ``{name, prob, map}`` records
whose ``prob`` is a rational string and whose ``map`` keys are canonical
subset strings in frame order), and an optional ``observed`` message label.
Rationals travel as strings such as ``"2/3"`` so no value is ever rounded
through a binary float.  Serialization is canonical: keys in the order
above, two-space indentation, trailing newline.
"""

from __future__ import annotations

import errno
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .errors import ModelSyntaxError, UnknownLabel
from .frames import Frame, SubsetMask
from .mass import MAX_INVERSION_FRAME, format_rational, parse_rational
from .evidence import Code, EvidenceModel
from .bayes import PriorSpec

_MODEL_FIELDS = ("frame", "messages", "plaintexts", "codes", "observed")
_CODE_FIELDS = ("name", "prob", "map")


def _fail(field: str, detail: str) -> ModelSyntaxError:
    return ModelSyntaxError(f"{field}: {detail}")


def _string_list(value: object, field: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise _fail(field, "expected a list of strings")
    return value


def read_document(path: str | Path) -> str:
    """Text of a UTF-8 document file; undecodable bytes are a ModelSyntaxError.

    A path the system cannot name, such as one holding a NUL character, is
    an OSError like any other file that cannot be opened.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ModelSyntaxError(f"not UTF-8 text: {err}") from None
    except ValueError as err:
        raise OSError(errno.EINVAL, str(err), str(path)) from None


def _decode_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ModelSyntaxError(
            f"line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except ValueError as err:  # an integer literal over the int-to-str digit limit
        raise ModelSyntaxError(str(err)) from None
    except RecursionError:
        raise ModelSyntaxError("document is nested too deeply") from None


def _decode_object(text: str, fields: tuple[str, ...], required: tuple[str, ...]) -> dict:
    doc = _decode_json(text)
    if not isinstance(doc, dict):
        raise ModelSyntaxError("document must be a JSON object")
    _check_fields(doc, fields, required)
    return doc


def _check_fields(record: dict, fields: tuple, required: tuple, context: str = "") -> None:
    """Reject the first key of `record` not in `fields`, else the first of `required` it lacks."""
    for key in record:
        if key not in fields:
            raise ModelSyntaxError(f"{context}unknown field {key!r}")
    for key in required:
        if key not in record:
            raise ModelSyntaxError(f"{context}missing field {key!r}")


def _parse_frame(value: object) -> Frame:
    try:
        return Frame(tuple(_string_list(value, "frame")))
    except ValueError as err:
        raise _fail("frame", str(err)) from None


def _entry(field: str, subset_text: str) -> str:
    """Context of one subset-keyed entry, built only when it is reported."""
    return f"{field}[{subset_text!r}]"


def _parse_key(frame: Frame, field: str, subset_text: str) -> SubsetMask:
    """The subset a key of `field` names; a fault carries the entry's context."""
    try:
        return frame.parse_subset(subset_text)
    except ValueError as err:
        raise _fail(_entry(field, subset_text), str(err)) from None
    except UnknownLabel as err:
        raise UnknownLabel(f"{_entry(field, subset_text)}: {err}") from None


def _rational_table(frame: Frame, value: object, field: str) -> dict[SubsetMask, Fraction]:
    """Subset-string keys to exact rationals, as in belief and prior documents."""
    if not isinstance(value, dict):
        raise _fail(field, "expected an object keyed by subset strings")
    table: dict[SubsetMask, Fraction] = {}
    seen: set[int] = set()
    for subset_text, rational in value.items():
        if not isinstance(rational, str):
            raise _fail(_entry(field, subset_text), "expected a rational string such as \"2/3\"")
        mask = _parse_key(frame, field, subset_text)
        if mask.bits in seen:
            raise _fail(_entry(field, subset_text), f"duplicate subset {mask}")
        seen.add(mask.bits)
        try:
            table[mask] = parse_rational(rational)
        except ValueError as err:
            raise _fail(_entry(field, subset_text), str(err)) from None
    return table


def parse_model(text: str) -> EvidenceModel:
    """Parse a model document; errors carry line or field context."""
    doc = _decode_object(text, _MODEL_FIELDS, ("frame", "messages", "plaintexts", "codes"))
    frame = _parse_frame(doc["frame"])

    messages = tuple(_string_list(doc["messages"], "messages"))

    if not isinstance(doc["plaintexts"], list):
        raise _fail("plaintexts", "expected a list of subsets")
    plaintexts = []
    for i, names in enumerate(doc["plaintexts"]):
        field = f"plaintexts[{i}]"
        names = _string_list(names, field)
        if not names:
            raise _fail(field, "the empty set is not a valid plaintext")
        try:
            plaintexts.append(frame.subset(names))
        except UnknownLabel as err:
            raise UnknownLabel(f"{field}: {err}") from None

    plaintexts = tuple(plaintexts)

    if not isinstance(doc["codes"], list):
        raise _fail("codes", "expected a list of code records")
    codes = []
    # Every code maps the same plaintexts: each key text is read to its mask
    # once, and the domain's own texts are known before any map is read.
    masks = {str(mask): mask for mask in plaintexts}
    for i, record in enumerate(doc["codes"]):
        field = f"codes[{i}]"
        if not isinstance(record, dict):
            raise _fail(field, "expected an object with name, prob, map")
        _check_fields(record, _CODE_FIELDS, _CODE_FIELDS, f"{field}: ")
        name = record["name"]
        if not isinstance(name, str) or not name:
            raise _fail(f"{field}.name", "expected a non-empty string")
        if not isinstance(record["prob"], str):
            raise _fail(f"{field}.prob", "expected a rational string such as \"2/3\"")
        try:
            prob = parse_rational(record["prob"])
        except ValueError as err:
            raise _fail(f"{field}.prob", str(err)) from None
        book = record["map"]
        map_field = f"{field}.map"
        if not isinstance(book, dict):
            raise _fail(map_field, "expected an object keyed by subset strings")
        codebook: dict[SubsetMask, str] = {}
        for subset_text, label in book.items():
            if not isinstance(label, str):
                raise _fail(_entry(map_field, subset_text), "expected a message label string")
            mask = masks.get(subset_text)
            if mask is None:
                mask = masks[subset_text] = _parse_key(frame, map_field, subset_text)
            if not mask.bits:
                raise _fail(
                    _entry(map_field, subset_text), "the empty set is not a valid plaintext"
                )
            size = len(codebook)
            codebook[mask] = label
            if len(codebook) == size:
                raise _fail(_entry(map_field, subset_text), f"duplicate plaintext {mask}")
        try:
            codes.append(Code(name, prob, codebook))
        except ValueError as err:
            raise _fail(f"{field}.name", str(err)) from None

    observed = doc.get("observed")
    if observed is not None and not isinstance(observed, str):
        raise _fail("observed", "expected a message label string")

    try:
        return EvidenceModel(frame, messages, plaintexts, tuple(codes), observed)
    except ValueError as err:
        raise ModelSyntaxError(str(err)) from None


def serialize_model(model: EvidenceModel) -> str:
    """Canonical document for a model; reparses to an equal model."""
    keys = [str(mask) for mask in model.plaintexts]
    doc: dict[str, object] = {
        "frame": list(model.frame.labels),
        "messages": list(model.messages),
        "plaintexts": [list(mask.members) for mask in model.plaintexts],
        "codes": [
            {
                "name": code.name,
                "prob": format_rational(code.prob),
                "map": dict(zip(keys, map(model.messages.__getitem__, row))),
            }
            for code, row in zip(model.codes, model._rows)
        ],
    }
    if model.observed is not None:
        doc["observed"] = model.observed
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def load_model(path: str | Path) -> EvidenceModel:
    return parse_model(read_document(path))


def validate_model(model: EvidenceModel) -> list[str]:
    """Warnings about a structurally valid model; empty means clean."""
    messages = model.messages
    keys = [str(mask) for mask in model.plaintexts]
    findings: list[str] = []
    emitted: set[int] = set()
    for code, row in zip(model.codes, model._rows):
        sent: dict[int, list[str]] = {}  # message index -> the plaintexts sent to it
        for key, m in zip(keys, row):
            sent.setdefault(m, []).append(key)
        emitted.update(sent)
        findings.extend(
            f"code {code.name} non-injective on {messages[m]}: {', '.join(hits)}"
            for m, hits in sorted(sent.items())
            if len(hits) > 1
        )
    for m, message in enumerate(messages):
        if m not in emitted:
            findings.append(f"message {message} emitted by no code")
    if model.observed is not None and messages.index(model.observed) not in emitted:
        findings.append(
            f"observed message {model.observed} cannot be produced by any code"
        )
    return findings


def parse_belief_table(text: str) -> tuple[Frame, dict[SubsetMask, Fraction]]:
    """Parse a dense belief table document: ``{"frame": [...], "belief": {...}}``."""
    doc = _decode_object(text, ("frame", "belief"), ("frame", "belief"))
    frame = _parse_frame(doc["frame"])
    if frame.size > MAX_INVERSION_FRAME:
        raise _fail(
            "frame",
            f"belief inversion is limited to frames of size "
            f"{MAX_INVERSION_FRAME} or smaller, got {frame.size}",
        )
    return frame, _rational_table(frame, doc["belief"], "belief")


def parse_prior_table(text: str, frame: Frame) -> PriorSpec:
    """Parse a prior weights document: ``{"weights": {"{no}": "1/2", ...}}``."""
    doc = _decode_json(text)
    if not isinstance(doc, dict) or set(doc) != {"weights"}:
        raise ModelSyntaxError('document must be a JSON object with a "weights" field')
    return PriorSpec(_rational_table(frame, doc["weights"], "weights"))


def bundled_model_path(name: str) -> Path:
    """Filesystem path of a bundled model document such as ``example1``."""
    candidate = resources.files("beliefkit.data") / f"{name}.json"
    with resources.as_file(candidate) as path:
        if not path.is_file():
            raise FileNotFoundError(f"no bundled model named {name!r}")
        return path
