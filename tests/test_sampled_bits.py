"""The bits of the sampled load, pinned.

The sampler's sums are exact (``signals._add_pulses``), so a change to
how it scatters or sums its events must not move a single bit of its
output.  These tests pin the sha256 of a few sampled series, with the
digest of every ``CHUNK`` samples, so that a mismatch names the first
samples that differ.  None of these paths takes an FFT or a BLAS call,
so any numpy build should give the same bits; if one does not, the test
says where it first differs.

To re-pin on purpose, run this file as a script: it prints the digests.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from dwptload import INDOT, ErConfig, MaxDemand, TrafficClass, TrafficSpec, UniformOnRange
from dwptload import generate, synthesize
from dwptload.signals import _add_pulses, _collect

#: Samples per pinned chunk digest.
CHUNK = 2**12

#: A 100 m segment (96 m energized).
SHORT_CFG = ErConfig(3.66, 0.91, 109.36, 100.0)


def corridor(cfg: ErConfig, duration_s: float):
    """The benchmark corridor's three classes at 2 vehicles/s, seed 0."""
    classes = (
        TrafficClass(1.83, 0.2, 21.7, MaxDemand(), "truck"),
        TrafficClass(1.2, 0.5, 29.0, UniformOnRange(), "sedan"),
        TrafficClass(1.7, 0.3, 26.8, MaxDemand(), "suv"),
    )
    return generate(cfg, TrafficSpec(2.0, duration_s, classes), 0)


def sweep_holders(classes) -> list[list[int]]:
    """Rows as a composition sweep holds its slots: a truck from the row of
    its share on (a run to the last row), any other vehicle up to the row
    of its own (a run from row 0), over three rows."""
    holders = []
    for i, c in enumerate(classes):
        k = i % 3
        holders.append(list(range(k, 3)) if c == "truck" else list(range(0, 3 - k)))
    return holders


def three_rows(holders: str) -> np.ndarray:
    """The first 40 vehicles of the 150 s corridor, sampled over 30 s at
    1 kHz into three rows, several blocks each."""
    evs = corridor(INDOT, 150.0).evs
    columns = (evs.speed_mps, evs.entry_time_s, evs.rx_len_m, evs.peak_demand_kw)
    vehicles = tuple(np.asarray(c)[:40] for c in columns)
    if holders == "sweep":
        rows = sweep_holders(list(evs.class_id)[:40])
    else:
        rows = [[[0, 2], [1], []][i % 3] for i in range(40)]
    n = 30_000
    return _collect(np.empty((3, n)), _add_pulses(INDOT, 3, n, rows, 10.0, 1000.0, vehicles))


CASES = {
    "corridor-150s-1kHz": lambda: synthesize(corridor(INDOT, 150.0), 1000.0).samples_kw,
    "segment-100m-100Hz": lambda: synthesize(corridor(SHORT_CFG, 300.0), 100.0).samples_kw,
    "three-rows-sweep": lambda: three_rows("sweep"),
    "three-rows-0,2|1|none": lambda: three_rows("pattern"),
}


def digests(x: np.ndarray) -> tuple[str, list[str]]:
    """The sha256 of ``x``'s little-endian float64 bytes, in C order, and
    the first 16 hex digits of that of each ``CHUNK`` of its samples."""
    flat = np.ascontiguousarray(x, dtype="<f8").reshape(-1)
    chunks = [
        hashlib.sha256(flat[a : a + CHUNK].tobytes()).hexdigest()[:16]
        for a in range(0, flat.size, CHUNK)
    ]
    return hashlib.sha256(flat.tobytes()).hexdigest(), chunks


#: The sha256 and chunk digests of each case, as the sampler gave them
#: when they were pinned (numpy 2.4.6).
PINNED = {
    "corridor-150s-1kHz": (
        "c1618a5a1db70eef7267144d7f0f890730b4cd11edaba141132676b43a8aeb21",
        [
            "ee5446f6d6cabf84", "db8bcd9d97fb2c05", "08b7d55ab1a25d2d", "7cb1352a2042cdc5",
            "7e1bbe1dee775ef6", "2ae979862b9c76a6", "6835ea1223f660e7", "494fdecf74d4e295",
            "09069afde1251f84", "abb94529fc539a24", "fc08281c71626fce", "1ddeefede047447c",
            "95b916c67dde808c", "18a89e820e51dbba", "629714199a4cbb33", "e477e264bdd308ed",
            "85d672ba8b048abf", "2a137e0594fb96e9", "9b24e68a7f1fbf99", "3b61636c1abe15d4",
            "a6e893144f02952c", "be986558060196e8", "74fa2ff05169e327", "4606ee8b9f57d37e",
            "d4ddf7bd7d40d466", "e60eba9508b9d41f", "05d6d94d593dc1bf", "d61468966df1ee87",
            "ca9049b5b47af04d", "ea5be6a214795a19", "a759805a318f5857", "86bf7a4481fe6b4a",
            "c21459089447728f", "2da61a2b0cd21d69", "f468f43922b09800", "da5ec3080d7e1603",
            "a02da83cc714f61b",
        ],
    ),
    "segment-100m-100Hz": (
        "e3442fdbaa74aa3b923af54f1c143544006b43b9fa02bdaa87882b3308bc7b83",
        [
            "557acd84f28018f0", "bf1117b34ffc2a87", "f9da466902728e2b", "f41f4a6f9c56068a",
            "7b45e3c54524839d", "1dcf5bbe5b9d0b3e", "f204d20c5fb433d6", "c353c8e6347ac55c",
        ],
    ),
    "three-rows-0,2|1|none": (
        "6180177a685e4dbf918d5ba1c77276bd9622ab097e522a2bb6c0d01b5daa1951",
        [
            "bdc2137a0b7aa84a", "96bbe21b4ae116a1", "e4187d468ec3db45", "1133721e113a2063",
            "f352d83bce8391ac", "0abb58e9782a5cb3", "8761e81647b5f0b4", "2fe0e7d48dd79e71",
            "d8282abc3b1c108a", "0458f28b4907cf95", "59fb3661a212f107", "6cb71322747bee9a",
            "8f4643db9f84998c", "d32707039c889f75", "d26f1924ae33d74f", "97d68e34bad0646e",
            "53a2dc9ee1f15db2", "0d0d8f56adcc0015", "84251fbd3c2e817b", "587c209e42da4d02",
            "0fcd669b559b2af1", "c33b447d027f4626",
        ],
    ),
    "three-rows-sweep": (
        "df09c5a2e6808f85a04c7ea71d0c5f2dd0819dff9e5d4e15f2b715f2fd159f4d",
        [
            "7065ca0d44737096", "9c63a821815a467b", "c9ee6cd3e23c6f28", "990c0094a9407fe7",
            "13c9a3a67b3ccc7c", "26c9774287eb2fbe", "e9680eeb79142ef9", "661bca98351d6a52",
            "ea6b88226d8bffa9", "b413d85334fd03a9", "640205a370f50310", "0bb32bb3a38861d6",
            "cd02c1382efbbd6c", "74ab3b7c4b893f90", "7c5d18d570e504b5", "d601d177e9e03f0c",
            "3080914a5b8e4d54", "ba59c0d19dcbd2d1", "1d34af6f7f4b709e", "dc3f56c760d3db68",
            "1e6087e7ee140f10", "9e1d2f903e6b2afa",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sampled_bits_are_pinned(name):
    x = CASES[name]()
    digest, chunks = digests(x)
    want_digest, want_chunks = PINNED[name]
    if digest == want_digest:
        return
    i = next((i for i, (a, b) in enumerate(zip(chunks, want_chunks)) if a != b), None)
    if i is None:
        pytest.fail(f"{name}: {x.size} samples where {len(want_chunks)} chunks were pinned")
    first = np.unravel_index(i * CHUNK, x.shape)
    pytest.fail(
        f"{name} (numpy {np.__version__}): sha256 {digest}, pinned {want_digest}; the first "
        f"difference lies in the {CHUNK} samples from index {tuple(map(int, first))}"
    )


if __name__ == "__main__":
    for name in sorted(CASES):
        print(repr(name), digests(CASES[name]()), ",")
