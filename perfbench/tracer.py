"""Traced run: spans around the calls into each torusdyn module, from outside.

Each wrapped function records a span (name, start, end, parent span) in
calibrated seconds.  Spans are kept in flat arrays in memory and written out
once, when the run ends.  A span's self time is its duration minus the part
its child spans cover; per-layer times are sums of self time.

Functions are patched in every torusdyn module namespace that holds them
(``dynamics`` does ``from .torus import coset_image``), and methods are
patched on their class.
"""

from __future__ import annotations

import sys
from array import array

# (module, attribute) -> span name.  A dotted attribute is a method patched on its class.
TARGETS = {
    ("kummer", "KummerNumber.build"): "kummer.build",
    ("kummer", "KummerNumber.__mul__"): "kummer.mul",
    ("kummer", "KummerNumber.__pow__"): "kummer.pow",
    ("kummer", "KummerNumber.inverse"): "kummer.inverse",
    ("kummer", "KummerNumber.__str__"): "kummer.str",
    ("kummer", "char_eval"): "kummer.char_eval",
    ("kummer", "parse_kummer"): "kummer.parse_kummer",
    ("kummer", "parse_point"): "kummer.parse_point",
    ("kummer", "format_point"): "kummer.format_point",
    ("intlinalg", "hermite_normal_form"): "intlinalg.hnf",
    ("intlinalg", "smith_normal_form"): "intlinalg.snf",
    ("intlinalg", "saturation"): "intlinalg.saturation",
    ("intlinalg", "left_kernel_saturated"): "intlinalg.left_kernel_saturated",
    ("intlinalg", "charpoly"): "intlinalg.charpoly",
    ("intlinalg", "minpoly"): "intlinalg.minpoly",
    ("intlinalg", "solve_rational"): "intlinalg.solve_rational",
    ("polyalg", "cyclotomic_part"): "polyalg.cyclotomic_part",
    ("polyalg", "spectral_radius"): "polyalg.spectral_radius",
    ("polyalg", "_graeffe_step"): "polyalg.graeffe_step",
    ("torus", "monomial_image"): "torus.monomial_image",
    ("torus", "AffineMonomialMap.iterate"): "torus.iterate",
    ("torus", "Subtorus.__post_init__"): "torus.subtorus_init",
    ("torus", "subtorus_image_under"): "torus.subtorus_image_under",
    ("torus", "Coset.same_set"): "torus.same_set",
    ("torus", "coset_image"): "torus.coset_image",
    ("dynamics", "dynamical_degree"): "dynamics.dynamical_degree",
    ("dynamics", "find_invariant_fibration"): "dynamics.find_invariant_fibration",
    ("dynamics", "_fixed_character_lattice"): "dynamics.fixed_character_lattice",
    ("dynamics", "wildness_certificate"): "dynamics.wildness_certificate",
    ("dynamics", "decompose"): "dynamics.decompose",
    ("dynamics", "invariant_family"): "dynamics.invariant_family",
    ("dynamics", "sample_family_points"): "dynamics.sample_family_points",
    ("dynamics", "periodic_torsion_points"): "dynamics.periodic_torsion_points",
    ("oracle", "hypersurface_containment"): "oracle.hypersurface_containment",
    ("oracle", "build_embedding"): "oracle.build_embedding",
    ("oracle", "_rank_mod"): "oracle.rank_mod",
    ("cli", "main"): "cli.main",
    ("cli", "load_map_spec"): "cli.load_map_spec",
    ("cli", "to_jsonable_dict"): "cli.to_jsonable_dict",
}

# per-layer metric -> (kind, span names); kind is "calls" or "self_s"
LAYER_METRICS = {
    "kummer.build_calls": ("calls", ["kummer.build"]),
    "kummer.mul_calls": ("calls", ["kummer.mul"]),
    "kummer.pow_calls": ("calls", ["kummer.pow"]),
    "kummer.inverse_calls": ("calls", ["kummer.inverse"]),
    "kummer.arith_s": ("self_s", ["kummer.build", "kummer.mul", "kummer.pow", "kummer.inverse"]),
    "kummer.char_eval_calls": ("calls", ["kummer.char_eval"]),
    "kummer.char_eval_s": ("self_s", ["kummer.char_eval"]),
    "kummer.parse_s": ("self_s", ["kummer.parse_kummer", "kummer.parse_point"]),
    "kummer.format_s": ("self_s", ["kummer.str", "kummer.format_point"]),
    "torus.coset_image_calls": ("calls", ["torus.coset_image"]),
    "torus.coset_image_s": ("self_s", ["torus.coset_image"]),
    "torus.subtorus_image_under_s": ("self_s", ["torus.subtorus_image_under"]),
    "torus.subtorus_built": ("calls", ["torus.subtorus_init"]),
    "torus.same_set_s": ("self_s", ["torus.same_set"]),
    "torus.monomial_image_calls": ("calls", ["torus.monomial_image"]),
    "torus.monomial_image_s": ("self_s", ["torus.monomial_image"]),
    "torus.iterate_calls": ("calls", ["torus.iterate"]),
    "torus.iterate_s": ("self_s", ["torus.iterate"]),
    "intlinalg.saturation_calls": ("calls", ["intlinalg.saturation"]),
    "intlinalg.snf_calls": ("calls", ["intlinalg.snf"]),
    "intlinalg.snf_s": ("self_s", ["intlinalg.snf"]),
    "intlinalg.left_kernel_saturated_calls": ("calls", ["intlinalg.left_kernel_saturated"]),
    "intlinalg.left_kernel_saturated_s": ("self_s", ["intlinalg.left_kernel_saturated"]),
    "intlinalg.minpoly_calls": ("calls", ["intlinalg.minpoly"]),
    "intlinalg.minpoly_s": ("self_s", ["intlinalg.minpoly"]),
    "intlinalg.charpoly_calls": ("calls", ["intlinalg.charpoly"]),
    "intlinalg.charpoly_s": ("self_s", ["intlinalg.charpoly"]),
    "intlinalg.hnf_calls": ("calls", ["intlinalg.hnf"]),
    "intlinalg.hnf_s": ("self_s", ["intlinalg.hnf"]),
    "intlinalg.solve_rational_calls": ("calls", ["intlinalg.solve_rational"]),
    "intlinalg.solve_rational_s": ("self_s", ["intlinalg.solve_rational"]),
    "polyalg.cyclotomic_part_calls": ("calls", ["polyalg.cyclotomic_part"]),
    "polyalg.cyclotomic_part_s": ("self_s", ["polyalg.cyclotomic_part"]),
    "polyalg.spectral_radius_calls": ("calls", ["polyalg.spectral_radius"]),
    "polyalg.spectral_radius_s": ("self_s", ["polyalg.spectral_radius"]),
    "polyalg.graeffe_steps": ("calls", ["polyalg.graeffe_step"]),
    "dynamics.dynamical_degree_s": ("self_s", ["dynamics.dynamical_degree"]),
    "dynamics.find_invariant_fibration_s": ("self_s", ["dynamics.find_invariant_fibration"]),
    "dynamics.fibration_iterates_tried": ("calls", ["dynamics.fixed_character_lattice"]),
    "dynamics.wildness_certificate_s": ("self_s", ["dynamics.wildness_certificate"]),
    "dynamics.decompose_s": ("self_s", ["dynamics.decompose"]),
    "dynamics.invariant_family_s": ("self_s", ["dynamics.invariant_family"]),
    "dynamics.sample_family_points_s": ("self_s", ["dynamics.sample_family_points"]),
    "dynamics.periodic_torsion_points_s": ("self_s", ["dynamics.periodic_torsion_points"]),
    "oracle.hypersurface_containment_s": ("self_s", ["oracle.hypersurface_containment"]),
    "oracle.build_embedding_calls": ("calls", ["oracle.build_embedding"]),
    "oracle.build_embedding_s": ("self_s", ["oracle.build_embedding"]),
    "oracle.rank_mod_s": ("self_s", ["oracle.rank_mod"]),
    "cli.import_s": ("self_s", ["cli.import"]),
    "cli.load_map_spec_s": ("self_s", ["cli.load_map_spec"]),
    "cli.emit_s": ("self_s", ["cli.to_jsonable_dict"]),
    "cli.command_s": ("self_s", ["cli.main"]),
}


class Tracer:
    def __init__(self, now):
        self.now = now
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # tallies read off results: cosets emitted, primes tried, NOT_CONTAINED results
        self.tally = {"cosets_emitted": 0, "primes_tried": 0, "not_contained": 0}
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, on_result=None):
        nid = self._id(name)
        now, stack = self.now, self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(now())
            end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = now()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, name: str, t0: float, t1: float) -> None:
        """A span measured by the caller (e.g. the import of torusdyn.cli)."""
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(t0)
        self.end.append(t1)

    # -- patching ------------------------------------------------------------------------

    def install(self) -> None:
        """Patch every target in every loaded torusdyn module."""
        hooks = {
            "dynamics.invariant_family": self._on_family,
            "oracle.build_embedding": self._on_embedding,
            "oracle.hypersurface_containment": self._on_containment,
        }
        modules = {k[len("torusdyn."):]: m for k, m in sys.modules.items() if k.startswith("torusdyn.") and m}
        namespaces = list(modules.values()) + ([sys.modules["torusdyn"]] if "torusdyn" in sys.modules else [])
        for (mod, attr), name in TARGETS.items():
            if mod not in modules:
                continue
            home = modules[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(raw.__func__, name, hooks.get(name)))
                else:
                    new = self.wrap(raw, name, hooks.get(name))
                self._patch(cls, meth, new)
                continue
            orig = getattr(home, attr)
            wrapped = self.wrap(orig, name, hooks.get(name))
            for m in namespaces:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, new) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def _on_family(self, families) -> None:
        self.tally["cosets_emitted"] += sum(len(f.cycle) for f in families)

    def _on_embedding(self, result) -> None:
        self.tally["primes_tried"] += result[1]

    def _on_containment(self, result) -> None:
        self.tally["not_contained"] += result.status == "NOT_CONTAINED"

    # -- aggregation -----------------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            slot = out.setdefault(self.names[self.name_id[i]], [0, 0.0])
            slot[0] += 1
            slot[1] += self.end[i] - self.start[i] - child[i]
        return {k: (c, s) for k, (c, s) in out.items()}

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            tally=np.array([self.tally[k] for k in sorted(self.tally)]),
        )


def layer_metrics(times: dict[str, tuple[int, float]], tally: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric from merged self times and tallies (zero where a layer did not run)."""
    out = {}
    for metric, (kind, names) in LAYER_METRICS.items():
        out[metric] = sum(times.get(n, (0, 0.0))[0 if kind == "calls" else 1] for n in names)
    coset_calls = times.get("torus.coset_image", (0, 0.0))[0]
    out["dynamics.coset_yield"] = tally["cosets_emitted"] / coset_calls if coset_calls else 0.0
    out["oracle.primes_tried"] = tally["primes_tried"]
    out["oracle.certified_per_attempt"] = tally["not_contained"] / tally["primes_tried"] if tally["primes_tried"] else 0.0
    return out


def merge(into: dict, times: dict) -> None:
    for k, (c, s) in times.items():
        c0, s0 = into.get(k, (0, 0.0))
        into[k] = (c0 + c, s0 + s)
