"""Persistence for trained scheme artifacts.

A deployment trains the Stage-2 encoder once on a representative
corpus, then ships the same artifact to every client — otherwise
searches would not match the stored streams.  These helpers serialise
the trained state to plain JSON-compatible dicts (and strings), with
strict validation on load.  (The §8 pair compressor persists in the
same format, next to its class.)

Scheme parameters serialise too, so a whole configuration can live in
a config file:

>>> from repro.core import SchemeParameters
>>> p = SchemeParameters.full(4, n_codes=64)
>>> params_from_dict(params_to_dict(p)) == p
True
"""

from __future__ import annotations

import base64
import json
from collections import Counter
from typing import Any

from repro.core.chunking import StorageLayout
from repro.core.config import SchemeParameters
from repro.core.encoder import FrequencyEncoder
from repro.core.errors import ConfigurationError

_FORMAT_VERSION = 1


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


# ---------------------------------------------------------------------------
# SchemeParameters
# ---------------------------------------------------------------------------

def params_to_dict(params: SchemeParameters) -> dict[str, Any]:
    return {
        "version": _FORMAT_VERSION,
        "chunk_size": params.layout.chunk_size,
        "offsets": list(params.layout.offsets),
        "alignments": params.layout.alignments,
        "n_codes": params.n_codes,
        "dispersal": params.dispersal,
        "encrypt": params.encrypt,
        "drop_partial_chunks": params.drop_partial_chunks,
        "symbol_width": params.symbol_width,
        "aggregation": params.aggregation,
        "master_key": _b64(params.master_key),
    }


def params_from_dict(data: dict[str, Any]) -> SchemeParameters:
    _check_version(data)
    layout = StorageLayout(
        chunk_size=data["chunk_size"],
        offsets=tuple(data["offsets"]),
        alignments=data["alignments"],
    )
    return SchemeParameters(
        layout=layout,
        n_codes=data["n_codes"],
        dispersal=data["dispersal"],
        encrypt=data["encrypt"],
        drop_partial_chunks=data["drop_partial_chunks"],
        symbol_width=data.get("symbol_width", 1),
        aggregation=data.get("aggregation", "auto"),
        master_key=_unb64(data["master_key"]),
    )


# ---------------------------------------------------------------------------
# FrequencyEncoder
# ---------------------------------------------------------------------------

def encoder_to_json(encoder: FrequencyEncoder) -> str:
    payload = {
        "version": _FORMAT_VERSION,
        "chunk_size": encoder.chunk_size,
        "n_codes": encoder.n_codes,
        "assignment": {
            _b64(chunk): code
            for chunk, code in encoder.assignment.items()
        },
        "training_counts": {
            _b64(chunk): count
            for chunk, count in encoder.training_counts.items()
        },
    }
    return json.dumps(payload, sort_keys=True)


def encoder_from_json(text: str) -> FrequencyEncoder:
    data = json.loads(text)
    _check_version(data)
    return FrequencyEncoder(
        chunk_size=data["chunk_size"],
        n_codes=data["n_codes"],
        assignment={
            _unb64(chunk): code
            for chunk, code in data["assignment"].items()
        },
        training_counts=Counter(
            {
                _unb64(chunk): count
                for chunk, count in data["training_counts"].items()
            }
        ),
    )


# ---------------------------------------------------------------------------
# Whole-store persistence
# ---------------------------------------------------------------------------

def store_to_json(store) -> str:
    """Serialise an EncryptedSearchableStore: configuration, trained
    encoder and every stored ciphertext/index stream.

    The dump contains *no plaintext* beyond what the sites themselves
    hold — record ciphertexts and index streams — plus the
    configuration (which includes the master key: the dump is the
    client's backup, not a site artifact; protect it accordingly).
    """
    payload = {
        "version": _FORMAT_VERSION,
        "params": params_to_dict(store.params),
        "encoder": (
            encoder_to_json(store.pipeline.encoder)
            if store.pipeline.encoder is not None else None
        ),
        "records": {
            str(record.rid): _b64(record.content)
            for record in store.record_file.all_records()
        },
        "index": {
            str(record.rid): _b64(record.content)
            for record in store.index_file.all_records()
        },
        "rids": sorted(store._rids),
    }
    return json.dumps(payload, sort_keys=True)


def store_from_json(text: str, **store_options):
    """Rebuild a store from :func:`store_to_json` output.

    The LH* files are repopulated by re-insertion, so the restored
    deployment re-balances for its own bucket capacity; contents are
    bit-identical to the dump.
    """
    from repro.core.scheme import EncryptedSearchableStore

    data = json.loads(text)
    _check_version(data)
    params = params_from_dict(data["params"])
    encoder = (
        encoder_from_json(data["encoder"])
        if data["encoder"] is not None else None
    )
    store = EncryptedSearchableStore(params, encoder=encoder,
                                     **store_options)
    for key, blob in data["records"].items():
        store.record_file.insert(int(key), _unb64(blob))
    for key, blob in data["index"].items():
        store.index_file.insert(int(key), _unb64(blob))
    store._rids = set(data["rids"])
    return store


def _check_version(data: dict[str, Any]) -> None:
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported serialization version {version!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
