"""Correctness gate, run after the timed loop: every answer is checked against
the independent reference in ``reference.py``.

A query fails when it raised, returned an interval where an exact value was
expected, returned a wrong value, or returned a witness that is not at the
radius (for the syndrome and direct engines: not the lexicographically first
deep hole, which also makes the threads=1 and threads=2 witnesses identical).
A pinned value that the reference contradicts also fails the query.
"""

from __future__ import annotations

from reference import Radius, RefCode, gray_image, homogeneous_dual_weights, sphere_lower_bound


class Gate:
    def __init__(self):
        self._radii: dict = {}
        self._delsarte: dict = {}

    def check(self, q, outcome) -> str | None:
        """None when the answer is right, else a one-line reason."""
        if isinstance(outcome, Exception):
            return f"raised {type(outcome).__name__}: {outcome}"
        report, bounds = outcome
        try:
            problem = self._check_radius(q, report)
            if problem is None and q.bounds:
                problem = self._check_bounds(q, bounds)
        except ValueError as exc:
            problem = f"reference rejects the answer: {exc}"
        return problem

    def _radius(self, q, metric: str, gray: bool = False) -> Radius:
        key = (q.spec, metric, gray)
        if key not in self._radii:
            code = q.ref
            if gray:
                code = RefCode(2 * code.n, 1, None, _words=gray_image(code.words))
            self._radii[key] = Radius(code, metric)
        return self._radii[key]

    def _check_radius(self, q, report) -> str | None:
        if not report.exact:
            return f"interval [{report.lo}, {report.hi}] where an exact value was expected"
        if q.kind == "gray":
            ref = self._radius(q, "hamming", gray=True)
            lee = self._radius(q, "lee").value
            if ref.value != lee:
                return f"reference: Gray image radius {ref.value} differs from the Lee radius {lee}"
        else:
            ref = self._radius(q, q.metric)
            pinned = q.ref.pinned.get(q.metric)
            if pinned is not None and ref.value != pinned:
                return f"reference value {ref.value} contradicts the pinned value {pinned}"
        if report.value != ref.value:
            return f"{q.metric} radius {report.value}, expected {ref.value}"
        w = report.witness
        if w is None or ref.distance(w) != ref.value:
            return f"witness {w} is not at distance {ref.value} from the code"
        if report.method in ("syndrome_table", "direct"):
            first = ref.lex_first()
            if tuple(w) != first:
                return f"witness {tuple(w)} is not the lexicographically first deep hole {first}"
        elif report.method == "weight_bfs" and int(ref.wt[list(w)].sum()) != ref.value:
            return f"weight-ordered witness {tuple(w)} does not have weight {ref.value}"
        return None

    def _check_bounds(self, q, b) -> str | None:
        code = q.ref
        lb = sphere_lower_bound(code.n, len(code.words), code.s)
        if b.sphere_covering_lb != lb:
            return f"sphere-covering bound {b.sphere_covering_lb}, expected {lb}"
        if q.spec not in self._delsarte:
            self._delsarte[q.spec] = homogeneous_dual_weights(code)
        if b.delsarte_ub != self._delsarte[q.spec]:
            return f"Delsarte bound {b.delsarte_ub}, expected {self._delsarte[q.spec]}"
        if b.mattson_ub is not None:
            exact = self._radius(q, "homogeneous").value
            parts = b.mattson_decomposition
            if b.mattson_ub < exact or parts["left_radius"] + parts["right_radius"] != b.mattson_ub:
                return f"Mattson bound {b.mattson_ub} ({parts}) does not cover the radius {exact}"
        return None
