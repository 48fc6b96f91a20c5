"""Versioned binary checkpoint container.

Layout (all integers little-endian; full layout in docs/checkpoint_format.md):

    magic "NMCP" | u32 version | u32 section_count | u32 reserved
    section table: per entry 24-byte NUL-padded name, u64 offset,
                   u64 length, u32 crc32(payload), u32 zero
    payloads

Section payloads are either UTF-8 JSON (the ``meta`` and ``history``
sections) or arrays encoded as u64 ndim, u64 per-dimension sizes, then
float64 data. :func:`save_checkpoint` writes a run's checkpoint and
:func:`restore` is the one function that reads one back: it checks ``meta``
and ``history`` before it reads any array. Both walk one list of the array
sections, :func:`array_sections`; only the classifier's form is outside it.
"""

from __future__ import annotations

import json
import math
import os
import struct
import types
import zlib
from pathlib import Path

import numpy as np

from .datastream import TaskStream
from .model import ContinualModel
from .pinoise import NoiseGenerator
from .report import SessionReport, report_from_dict, report_to_dict

MAGIC = b"NMCP"
VERSION = 1
_NAME_LEN = 24
_HEADER = struct.Struct("<4sIII")
_ENTRY = struct.Struct(f"<{_NAME_LEN}sQQII")
# a generator's four maps, in NoiseGenerator.params() order, as L##.G##.<name> sections
_GENERATOR_MAPS = ("mw", "mb", "sw", "sb")
# the meta keys a load or a resume reads, and the keys of one history entry, with their JSON types
_META_TYPES = {
    "classes_seen": list[int], "config_hash": str, "eval_seed": int, "frozen_hash": str,
    "has_noise": bool, "num_layers": int, "sessions_completed": int,
}
_HISTORY_TYPES = {
    "task_index": int, "accuracy_seen": float, "per_class_accuracy": dict[str, float],
    "epoch_losses": list[float], "n_test": int,
}


class CheckpointError(RuntimeError):
    """Corrupt, mismatched, or unreadable checkpoint."""


def _encode_array(a: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Shape header and a byte view of the float64 data, which is not copied."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return struct.pack(f"<{1 + a.ndim}Q", a.ndim, *a.shape), a.reshape(-1).view(np.uint8)


def _decode_array(sections: dict[str, bytearray], name: str) -> np.ndarray:
    """Section ``name`` as a writable array over the payload's own buffer,
    which is not copied.

    The data starts at 8 + 8 * ndim bytes, a multiple of 8, so a payload
    read into its own buffer keeps float64 alignment. A missing section, or
    a payload whose length disagrees with its shape header, is refused.
    """
    if name not in sections:
        raise CheckpointError(f"checkpoint has no {name} section")
    raw = sections[name]
    ndim = struct.unpack_from("<Q", raw, 0)[0] if len(raw) >= 8 else None
    if ndim is None or len(raw) < 8 + 8 * ndim:
        raise CheckpointError(f"section {name}: payload too short for its array header")
    shape = struct.unpack_from(f"<{ndim}Q", raw, 8)
    if len(raw) - 8 - 8 * ndim != 8 * math.prod(shape):
        raise CheckpointError(f"section {name}: payload length does not match shape {shape}")
    return np.frombuffer(raw, dtype="<f8", offset=8 + 8 * ndim).reshape(shape)


def _decode_into(sections: dict[str, bytearray], name: str, out: np.ndarray) -> None:
    """Copy section ``name`` into ``out``: refused, naming the section, unless
    :func:`_decode_array` accepts it, its shape is ``out``'s and every entry
    is finite."""
    a = _decode_array(sections, name)
    if a.shape != out.shape:
        raise CheckpointError(f"section {name} has shape {a.shape}, expected {out.shape}")
    if not np.all(np.isfinite(a)):
        raise CheckpointError(f"section {name} has non-finite values")
    out[...] = a


def write_container(path: str | Path, sections: dict[str, bytes | tuple]) -> None:
    """Write the sections in order.

    A section is one bytes-like payload or a tuple of them written back to
    back; arrays come as (header, data view), so their data is streamed
    from its own buffer and never joined into one payload.
    """
    names = list(sections)
    parts = {name: sections[name] if isinstance(sections[name], tuple) else (sections[name],) for name in names}
    offset = _HEADER.size + _ENTRY.size * len(names)
    entries = []
    for name in names:
        encoded = name.encode("ascii")
        if len(encoded) > _NAME_LEN:
            raise CheckpointError(f"section name too long: {name}")
        length, crc = 0, 0
        for part in parts[name]:
            length += len(part)
            crc = zlib.crc32(part, crc)
        entries.append((encoded.ljust(_NAME_LEN, b"\0"), offset, length, crc))
        offset += length
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, len(names), 0))
        for name, off, length, crc in entries:
            fh.write(_ENTRY.pack(name, off, length, crc, 0))
        for name in names:
            for part in parts[name]:
                fh.write(part)


def read_container(path: str | Path, names=None) -> dict[str, bytearray]:
    """The sections in file order, each read into its own buffer and checked.

    With ``names`` only those sections are read; the others are skipped
    unread and unchecked.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise CheckpointError("file too short for a checkpoint header")
        magic, version, count, _ = _HEADER.unpack(head)
        if magic != MAGIC:
            raise CheckpointError("bad magic; not a checkpoint file")
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        table = fh.read(_ENTRY.size * count)
        if len(table) < _ENTRY.size * count:
            raise CheckpointError("truncated section table")
        size = os.fstat(fh.fileno()).st_size
        sections = {}
        for i in range(count):
            name_raw, off, length, crc, _ = _ENTRY.unpack_from(table, i * _ENTRY.size)
            name = name_raw.rstrip(b"\0").decode("ascii")
            if names is not None and name not in names:
                continue
            if off + length > size:
                raise CheckpointError(f"section {name}: truncated payload")
            payload = bytearray(length)
            fh.seek(off)
            if fh.readinto(payload) != length:
                raise CheckpointError(f"section {name}: truncated payload")
            if zlib.crc32(payload) != crc:
                raise CheckpointError(f"section {name}: checksum mismatch")
            sections[name] = payload
    return sections


def array_sections(model: ContinualModel):
    """The model's array sections other than the classifier's form, as
    (name, array) pairs in file order: ``clf.weights``, then per noise layer ``L##.omega``
    and ``L##.proto`` once it holds a generator, and each bank row's four
    maps, which are views of the row."""
    yield "clf.weights", model.classifier.weights
    for l, layer in enumerate(model.layers or ()):
        if len(layer.bank):
            yield f"L{l:02d}.omega", layer.mix_weights
            yield f"L{l:02d}.proto", layer.prototypes
        for i, row in enumerate(layer.bank):
            maps = NoiseGenerator(row, layer.latent_dim).params()
            yield from ((f"L{l:02d}.G{i:02d}.{name}", a) for name, a in zip(_GENERATOR_MAPS, maps))


def save_checkpoint(
    path: str | Path,
    model: ContinualModel,
    cfg_hash: str,
    train_seed: int,
    total_tasks: int,
    history: list | None = None,
) -> None:
    meta = {
        "format": VERSION,
        "config_hash": cfg_hash,
        "frozen_hash": model.frozen_param_hash(),
        "sessions_completed": model.sessions_completed,
        "total_tasks": total_tasks,
        "classes_seen": list(model.classifier.classes_seen),
        "regularization": model.classifier.regularization,
        "strategy": model.strategy.value,
        # kept so that format-v1 files stay as they were; never read
        "shared_omega": False,
        "stochastic_eval": False,
        "has_noise": model.has_noise,
        "num_layers": 0 if model.layers is None else len(model.layers),
        # session rngs derive from (train_seed, session index), so the seed
        # plus the session counter is the complete rng cursor
        "rng": {"train_seed": train_seed, "next_session": model.sessions_completed + 1},
        "eval_seed": model.eval_seed,
    }
    clf = model.classifier
    arrays = {name: _encode_array(a) for name, a in array_sections(model)}
    sections: dict[str, bytes | tuple] = {
        "meta": json.dumps(meta, sort_keys=True).encode("utf-8"),
        "clf.weights": arrays.pop("clf.weights"),
    }
    # the classifier's one form: its rows, or its dense inverse
    if clf.rows is None:
        sections["clf.graminv"] = _encode_array(clf.gram_inv)
    else:
        sections["clf.rows"] = _encode_array(clf.rows)
    if history is not None:
        sections["history"] = json.dumps(
            [report_to_dict(r) for r in history], sort_keys=True
        ).encode("utf-8")
    write_container(path, sections | arrays)


def _asymmetry(r: np.ndarray) -> float:
    """``max |R - R'|``, taken over bands of the upper triangle of about 2**16
    entries (512 KB), so no d x d temporary is made. NaN when any entry
    is NaN or a mirrored pair is infinite."""
    worst = 0.0
    rows = max(1, (1 << 16) // r.shape[0])
    for start in range(0, r.shape[0], rows):
        band = slice(start, start + rows)
        diff = r[band, start:] - r[start:, band].T
        # np.maximum keeps a NaN where Python's max would drop it
        worst = float(np.maximum(worst, np.max(np.abs(diff, out=diff))))
    return worst


def _is_json(value, kind) -> bool:
    """Whether a parsed JSON value is of ``kind``: bool, int, float (an integer
    passes), str, ``list[T]`` or ``dict[str, T]``."""
    if isinstance(kind, types.GenericAlias):
        container, item = kind.__origin__, kind.__args__[-1]
        items = value.values() if type(value) is dict else value
        return type(value) is container and all(_is_json(v, item) for v in items)
    return type(value) in ((int, float) if kind is float else (kind,))


def _check_keys(entry: dict, kinds: dict, what: str) -> None:
    """Raise :class:`CheckpointError` naming the keys of ``kinds`` that ``entry``
    lacks, or else those whose values have another JSON type."""
    missing = [key for key in kinds if key not in entry]
    if missing:
        raise CheckpointError(f"{what} has no {', '.join(map(repr, missing))} key")
    wrong = [key for key, kind in kinds.items() if not _is_json(entry[key], kind)]
    if wrong:
        raise CheckpointError(f"{what} {', '.join(map(repr, wrong))} has the wrong JSON type")


def _load_classifier_form(clf, sections: dict[str, bytearray], meta: dict) -> None:
    """Give ``clf`` the stored rows or the stored inverse, whichever is present, checked."""
    forms = [name for name in ("clf.graminv", "clf.rows") if name in sections]
    if len(forms) != 1:
        raise CheckpointError(
            f"checkpoint must hold exactly one of clf.graminv and clf.rows, found {len(forms)}"
        )
    d = clf.feature_dim
    if forms == ["clf.rows"]:
        rows = _decode_array(sections, "clf.rows")
        if rows.ndim != 2 or rows.shape[1] != d:
            raise CheckpointError(f"clf.rows shape {rows.shape} is not m x {d}")
        if 2 * rows.shape[0] > d:
            raise CheckpointError(f"clf.rows holds {rows.shape[0]} rows, more than half the width {d}")
        # R = I/lambda - K'K is only the stored state under the lambda it was written with
        if meta.get("regularization") != clf.regularization:
            raise CheckpointError("clf.rows was written under another regularization")
        clf.rows = rows
    else:
        clf.gram_inv = _decode_array(sections, "clf.graminv")
        if clf.gram_inv.shape != (d, d):
            raise CheckpointError(f"section clf.graminv has shape {clf.gram_inv.shape}, expected {(d, d)}")
        # written so that a NaN fails both checks
        if not (_asymmetry(clf.gram_inv) <= 1e-9):
            raise CheckpointError("section clf.graminv lost symmetry")
    # in the row form the implied diagonal 1/lambda - sum K^2 is finite exactly when the rows
    # are finite and do not overflow, and a positive one bounds every |R_ij| by 1/lambda
    diag = clf.diagonal()
    if not np.all(np.isfinite(diag)):
        raise CheckpointError(f"section {forms[0]} has non-finite values")
    if not np.all(diag > 0):
        raise CheckpointError(f"section {forms[0]}: gram inverse diagonal not positive")


def restore(model: ContinualModel, path: str | Path, cfg_hash: str, stream: TaskStream) -> list[SessionReport]:
    """Load the checkpoint at ``path`` into ``model``, a fresh build of the run's
    configuration, and return its session reports.

    First only ``meta`` and ``history`` are read, and every check they allow
    is made, in this order: the meta keys' JSON types, the frozen parameter
    hash, ``cfg_hash``, the model's ``eval_seed`` (which the configuration
    fixes, so it is checked, never adopted), noise layer presence and count,
    at most as many completed sessions as ``stream`` has tasks, the history
    entries, one entry per completed session, and ``classes_seen`` equal to
    the class sets of the stream's first completed tasks, in order. Only
    then is the model's own classifier state dropped and the whole container
    read once, so a refused checkpoint costs no array read and the two
    classifier states are never held at once.

    The weights and each noise layer's bank, prototypes and mix weights are
    then sized from ``classes_seen`` and the session count, and every array
    :func:`array_sections` yields is filled in its order (the weights, then
    the layers in file order) by :func:`_decode_into`, which refuses a
    missing section, a bad header, another shape or a non-finite entry,
    naming the section. Last comes the classifier's form, which it continues
    in: exactly one of ``clf.graminv`` and ``clf.rows`` must be present, and
    :func:`_load_classifier_form` checks it in place.
    """
    sections = read_container(path, names={"meta", "history"})
    if "meta" not in sections:
        raise CheckpointError("checkpoint has no meta section")
    meta = json.loads(sections["meta"].decode("utf-8"))
    if not isinstance(meta, dict):
        raise CheckpointError("checkpoint meta is not a JSON object")
    _check_keys(meta, _META_TYPES, "checkpoint meta")
    if meta["frozen_hash"] != model.frozen_param_hash():
        raise CheckpointError("frozen parameter hash mismatch; model/config drifted")
    if meta["config_hash"] != cfg_hash:
        raise CheckpointError("checkpoint was written by a different configuration")
    if meta["eval_seed"] != model.eval_seed:
        raise CheckpointError(f"checkpoint eval_seed {meta['eval_seed']} is not the configuration's {model.eval_seed}")
    if meta["has_noise"] != model.has_noise:
        raise CheckpointError("noise layer presence mismatch")
    if model.layers is not None and meta["num_layers"] != len(model.layers):
        raise CheckpointError("layer count mismatch")
    sessions = meta["sessions_completed"]
    if sessions > stream.num_tasks:
        raise CheckpointError(f"checkpoint completed {sessions} sessions, but the stream has {stream.num_tasks} tasks")
    entries = json.loads(sections["history"].decode("utf-8")) if "history" in sections else []
    if not isinstance(entries, list) or not all(isinstance(d, dict) for d in entries):
        raise CheckpointError("checkpoint history is not a list of JSON objects")
    for entry in entries:
        _check_keys(entry, _HISTORY_TYPES, "checkpoint history entry")
    if len(entries) != sessions:
        raise CheckpointError("checkpoint history does not match completed sessions")
    if meta["classes_seen"] != [c for task in stream.tasks[:sessions] for c in task.class_set]:
        raise CheckpointError(f"checkpoint classes_seen does not match the stream's first {sessions} tasks")
    reports = [report_from_dict(d) for d in entries]

    clf = model.classifier
    clf.gram_inv = None
    sections = read_container(path)
    clf.classes_seen = list(meta["classes_seen"])
    clf.weights = np.empty((clf.feature_dim, clf.num_classes))
    for layer in model.layers or ():
        layer.bank = np.empty((sessions, layer.bank.shape[1]))
        layer.prototypes = np.empty((sessions, layer.latent_dim))
        layer.mix_weights = np.empty(sessions)
    for name, view in array_sections(model):
        _decode_into(sections, name, view)
    _load_classifier_form(clf, sections, meta)
    model.sessions_completed = sessions
    return reports
