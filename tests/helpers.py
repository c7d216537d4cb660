"""Shared builders for the test suite, cached per process."""

import functools
import math

from kleindim.hnn import build_hnn
from kleindim.report import collars
from kleindim.surface import fn_surface_rep

# (genus, interior length) grid used by the structural suites; genus 1
# ignores the interior length, so its entries collapse to one rep
GRID = [(g, float(L)) for g in (1, 2, 3) for L in (3, 4, 5)]


def grid_key(g, L):
    return (1, 3.0) if g == 1 else (g, float(L))


@functools.lru_cache(maxsize=None)
def surface_for(g, L):
    return fn_surface_rep(g, L)


@functools.lru_cache(maxsize=None)
def hnn_for(g, L):
    return build_hnn(surface_for(g, L))


@functools.lru_cache(maxsize=None)
def r_achieved_for(g, L):
    _, _, r = collars(surface_for(g, L))
    assert math.isfinite(r) and r > 0
    return r
