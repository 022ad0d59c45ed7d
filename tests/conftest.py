"""Fixtures shared by the test modules."""

import functools

import numpy as np
import pytest

from dualbch import cyclotomic
from dualbch.bch import dual_defining_set
from dualbch.cyclotomic import coset_table
from dualbch.dualtools import dually_bch_direct, i_delta_direct


def per_delta_oracle(table):
    """(I, verdict, witness) for every delta in [2, n] from the direct scans."""
    lead = table.leader_of
    out = []
    for delta in range(2, table.n + 1):
        t_perp = dual_defining_set((lead >= 1) & (lead <= delta - 1))
        out.append((i_delta_direct(t_perp), *dually_bch_direct(t_perp, table)))
    return out


@pytest.fixture(scope="session")
def direct_oracle():
    """oracle(q, n): per_delta_oracle of the table mod n, base q, scanned once.

    Several tests read every delta of every theorem family with n <= 1000
    (149,339 pairs); they share one scan per table instead of one each.
    """
    return functools.cache(lambda q, n: per_delta_oracle(coset_table(n, q)))


@pytest.fixture
def orbit_scatters(monkeypatch):
    """The dtype of every orbit scatter from here on, in call order.

    An int32 scatter builds a table's leader array; a bool one writes a
    union of cosets (CosetTable.union_below).
    """
    dtypes = []
    scatter = cyclotomic._scatter_orbits

    def counting(out, *args):
        dtypes.append(out.dtype)
        return scatter(out, *args)

    monkeypatch.setattr(cyclotomic, "_scatter_orbits", counting)
    return dtypes
