"""Shared test utilities: central finite differences, tolerance checks,
the byte and line mutations the loader fuzz tests apply, and the version-1
checkpoint layout."""

from __future__ import annotations

import json
import struct

import numpy as np
from hypothesis import strategies as st


def finite_diff_grads(f, arrays, h: float = 1e-5):
    """Central-difference gradient of the scalar ``f()`` w.r.t. each array.

    Entries are perturbed in place and restored, so ``f`` must read the
    arrays afresh on every call.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f()
            flat[i] = orig - h
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel_tol: float = 1e-4, abs_floor: float = 1e-8):
    """Elementwise |a - n| < rel_tol * max(|a|, |n|) + abs_floor."""
    for a, n in zip(analytic, numeric):
        err = np.abs(a - n)
        bound = rel_tol * np.maximum(np.abs(a), np.abs(n)) + abs_floor
        worst = np.max(err - bound)
        assert np.all(err < bound), (
            f"gradient mismatch: worst excess {worst:.3e}\nanalytic={a}\nnumeric={n}"
        )


def assert_backward_matches_finite_differences(model, x, labels, rel_tol: float = 1e-4):
    """``model.backward`` against central differences of ``model.loss`` over the
    whole flat parameter vector, with the reparameterization noise fixed."""
    from c2bnvae.model import reparameterize_t

    def forward():
        mu, logvar = model.encode(x, labels, training=True)
        z, sigma, noise = reparameterize_t(mu, logvar, np.random.default_rng(0))
        return mu, logvar, sigma, noise, model.decode(z, labels, training=True)

    mu, logvar, sigma, noise, x_hat = forward()
    model.backward(x, x_hat, mu, logvar, sigma, noise)
    analytic = model.grads.copy()

    def loss() -> float:
        mu, logvar, _, _, x_hat = forward()
        return float(model.loss(x, x_hat, mu, logvar)[0])

    # the parameters are views of model.params, so perturbing it moves them
    numeric = finite_diff_grads(loss, [model.params])
    assert_grads_close([analytic], numeric, rel_tol=rel_tol)


# fields a mutation may put in place of a comma-separated field: of a CSV
# dataset or raw record file, of a taxonomy file, or of a JSON file (where a
# "field" runs from one comma to the next)
CSV_TOKENS = ["", "nan", "-inf", "1e999", "-0", "0x1", " 1", "1_0", "\u0663", "9" * 25,
              "-" + "9" * 25, '"', '""', "\x00", "5", "0.5,0.5", "1" * 200_000]
TAXONOMY_TOKENS = CSV_TOKENS + ["normal", "Normal", "DoS", "U2R", "attack_name", "category",
                               '"a,b"', '"Normal"']
JSON_TOKENS = ["", "NaN", "-Infinity", "1e999", "null", "true", "[]", "{}", '"x"', "-1",
               "0", "0.5", "9" * 25, "9" * 5000, '"\\ud800"', "\x00", "[" * 100_000,
               '{"a": ' * 5000]


def file_mutations(raw: bytes, tokens: list[str]):
    """Byte edits (truncation, flips, insertions) and line edits (drop, repeat
    or swap lines, replace one comma-separated field by one of ``tokens``) of
    a valid file."""
    n = len(raw)
    lines = raw.split(b"\n")

    def flip(edits):
        out = bytearray(raw)
        for offset, mask in edits:
            out[offset] ^= mask
        return bytes(out)

    def edit_lines(args):
        kind, i, j, field, token = args
        out = list(lines)
        if kind == "drop":
            del out[i]
        elif kind == "repeat":
            out.insert(i, out[i])
        elif kind == "swap":
            out[i], out[j] = out[j], out[i]
        else:
            fields = out[i].split(b",")
            fields[field % len(fields)] = token.encode()
            out[i] = b",".join(fields)
        return b"\n".join(out)

    index = st.integers(0, len(lines) - 1)
    return st.one_of(
        st.integers(0, n - 1).map(lambda k: raw[:k]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)),
                 min_size=1, max_size=8).map(flip),
        st.tuples(st.integers(0, n), st.binary(min_size=1, max_size=8)).map(
            lambda a: raw[:a[0]] + a[1] + raw[a[0]:]),
        st.tuples(st.sampled_from(["drop", "repeat", "swap", "field"]), index, index,
                  st.integers(0, 8), st.sampled_from(tokens)).map(edit_lines))


def version_1_checkpoint(raw: bytes) -> bytes:
    """The checkpoint file ``raw`` as checkpoint format version 1 wrote it.

    Version 1 differs only in its version fields and in three more config
    keys, the layer constants every version-1 run held."""
    (head_len,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + head_len])
    header["format_version"] = 1
    header["config"].update(leaky_slope=0.01, norm_eps=1e-5, norm_momentum=0.1)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return raw[:4] + struct.pack("<IQ", 1, len(head)) + head + raw[16 + head_len:]
