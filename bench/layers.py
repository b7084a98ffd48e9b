"""The layer boundaries the traced runs record, wrapped from outside.

Each entry names a public function or method of an ``addcyc`` module and the
span it records.  ``install`` replaces the function on its module or class,
and everywhere another ``addcyc`` module imported it by name, with a timed
copy; the package's source is not touched.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np


def _elems(tracer, args, kwargs, result):
    tracer.count("gf.vadd.elems", int(np.size(result)))


def _rref_rows(tracer, args, kwargs, result):
    tracer.count("linalg.rref.rows", int(np.shape(args[1])[0]))


def _exact(tracer, args, kwargs, result):
    tracer.count("codes.min_distance.exact", int(bool(result[1])))


def _choice(tracer, args, kwargs, result):
    choice, ctx = args[0], args[1]
    vec = None if choice.vector is None else choice.vector.coeffs
    # distinct within one operation of the workload, so that operations which
    # share a context do not hide each other's rebuilds
    tracer.distinct("classify.component_rows",
                    (tracer.scope, id(ctx), choice.index, choice.kind, vec))


#: (module, attribute on the module, span name, counter hook)
LAYERS = [
    ("gf", "field", "gf.field", None),
    ("gf", "Field.pow", "gf.pow", None),
    ("gf", "Field.vadd", "gf.vadd", _elems),
    ("gf", "Field.vmul", "gf.vmul", None),
    ("polyring", "splitting_data", "polyring.splitting_data", None),
    ("polyring", "minimal_poly", "polyring.minimal_poly", None),
    ("structure", "build_atlas", "structure.build_atlas", None),
    ("structure", "IdealAtlas.rho", "structure.rho", None),
    ("ring", "GroupAlgebraElement.__mul__", "ring.mul", None),
    ("linalg", "rref", "linalg.rref", _rref_rows),
    ("linalg", "matmul", "linalg.matmul", None),
    ("linalg", "nullspace", "linalg.nullspace", None),
    ("bilinear", "DeltaContext.__init__", "bilinear.DeltaContext", None),
    ("bilinear", "DeltaContext.gram_apply", "bilinear.gram_apply", None),
    ("bilinear", "DeltaContext.pair_matrix", "bilinear.pair_matrix", None),
    ("codes", "AdditiveCode.from_expansion", "codes.from_expansion", None),
    ("codes", "is_self_orthogonal", "codes.is_self_orthogonal", None),
    ("codes", "cyclic_span", "codes.cyclic_span", None),
    ("codes", "min_distance", "codes.min_distance", _exact),
    ("classify", "component_rows", "classify.component_rows", _choice),
    ("classify", "pair_options", "classify.pair_options", None),
    ("classify", "subcode_options", "classify.subcode_options", None),
    ("classify", "all_subspace_choices", "classify.all_subspace_choices", None),
    ("classify", "brute_force_oracle", "classify.brute_force_oracle", None),
    ("classify", "count_codes", "classify.count_codes", None),
]


def install(tracer):
    """Swap timed copies of every entry in ``LAYERS`` into the package."""
    for modname, attr, span, after in LAYERS:
        mod = importlib.import_module(f"addcyc.{modname}")
        *path, leaf = attr.split(".")
        owner = mod
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[leaf]
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(tracer.wrap(raw.__func__, span, after)))
            continue
        timed = tracer.wrap(raw, span, after)
        setattr(owner, leaf, timed)
        if owner is mod:
            for name, other in list(sys.modules.items()):
                if name.startswith("addcyc") and other is not None:
                    for key, val in list(vars(other).items()):
                        if val is raw:
                            setattr(other, key, timed)
