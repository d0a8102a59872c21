"""Per-layer tracing from outside the program.

Wraps the public functions of each towerforms module in place, without
editing the package: every module global, class attribute or re-export that
refers to a traced function is replaced by a timing wrapper.

* Span functions (linkage, qforms, valuation, pfister, localglobal, dsl, cli)
  record one span each: name, start, end, parent span and op id.
* Leaf functions (polys, Fq, FracField.make, fields.*) run 1e5-1e6 times per
  run, so they keep only a call count and accumulated time.

For every traced name the tracer accumulates calls, self time (duration minus
the time of traced callees) and inclusive time; for a name that recurses into
itself (directly or through other traced functions) only the outermost call
adds to the inclusive time.  Recording is switched on only around timed ops.
"""

import sys
import time

# (module, attribute path, metric name, kind)
SPAN, LEAF = "span", "leaf"
TRACED = (
    ("polys", "pgcd", "polys.pgcd", LEAF),
    ("polys", "pdivmod", "polys.pdivmod", LEAF),
    ("polys", "pmul", "polys.pmul", LEAF),
    ("ffield", "Fq.inv", "ffield.Fq.inv", LEAF),
    ("ffield", "Fq.__init__", "ffield.Fq.new", LEAF),
    ("fields", "FracField.make", "fields.FracField.make", LEAF),
    ("fields", "valuation", "fields.valuation", LEAF),
    ("fields", "residue", "fields.residue", LEAF),
    ("fields", "is_square", "fields.is_square", LEAF),
    ("valuation", "raw_springer_split", "valuation.raw_springer_split", SPAN),
    ("valuation", "springer_decompose", "valuation.springer_decompose", SPAN),
    ("qforms", "is_isotropic", "qforms.is_isotropic", SPAN),
    ("qforms", "witt_index", "qforms.witt_index", SPAN),
    ("qforms", "isometric", "qforms.isometric", SPAN),
    ("qforms", "reduce_square_classes", "qforms.reduce_square_classes", SPAN),
    ("pfister", "expand", "pfister.expand", SPAN),
    ("pfister", "normalize_last_slot", "pfister.normalize_last_slot", SPAN),
    ("localglobal", "is_isotropic_global", "localglobal.is_isotropic_global",
     SPAN),
    ("localglobal", "places_of_interest", "localglobal.places_of_interest",
     SPAN),
    ("localglobal", "localize", "localglobal.localize", SPAN),
    ("localglobal", "square_class_rep", "localglobal.square_class_rep", SPAN),
    ("localglobal", "isotropic_vector_global",
     "localglobal.isotropic_vector_global", SPAN),
    ("localglobal", "factor", "localglobal.factor", SPAN),
    ("linkage", "is_linked_pair", "linkage.is_linked_pair", SPAN),
    ("linkage", "find_certificate", "linkage.find_certificate", SPAN),
    ("dsl", "parse_field", "dsl.parse", SPAN),
    ("dsl", "parse_element", "dsl.parse", SPAN),
    ("dsl", "parse_form", "dsl.parse", SPAN),
    ("dsl", "parse_pfister", "dsl.parse", SPAN),
    ("dsl", "format_form", "dsl.format", SPAN),
    ("fields", "format_element", "dsl.format", SPAN),
    ("pfister", "QuadraticPfisterSymbol.describe", "dsl.format", SPAN),
    ("pfister", "BilinearPfisterSymbol.describe", "dsl.format", SPAN),
    ("fields", "FieldTower.describe", "dsl.format", SPAN),
    ("cli", "main", "cli.main", SPAN),
)

# Spans kept in memory per run; later spans are counted but not stored.
MAX_SPANS = 400_000


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0


class Tracer:
    """Installs wrappers on construction; ``on`` gates recording."""

    def __init__(self, package):
        self.on = False
        self.op_id = -1
        self.stats = {}
        self.names = []
        self.spans = []
        self.spans_dropped = 0
        self.rewrite_steps = 0
        self.iso_tests_in_witness = 0
        self.certificates_found = 0
        self.isometry_tests_in_search = 0
        self._child = [0.0]      # traced time inside the current call
        self._span_stack = [-1]  # open span ids; -1 is "no parent"
        self._install(package)

    # -- wrapping ----------------------------------------------------------

    def _install(self, package):
        modules = {name: sys.modules[f"{package}.{name}"]
                   for name in {m for m, _, _, _ in TRACED}}
        replaced = {}
        for mod_name, path, metric, kind in TRACED:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            stat = self.stats.setdefault(metric, _Stat())
            if metric not in self.names:
                self.names.append(metric)
            make = self._span_wrapper if kind == SPAN else self._leaf_wrapper
            wrapper = make(original, stat, self.names.index(metric), metric)
            setattr(owner, attr, wrapper)
            replaced[id(original)] = (original, wrapper)
        # rebind names imported with ``from .x import f`` in every module
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def _leaf_wrapper(self, fn, stat, _name_id, _metric):
        tracer = self
        child = self._child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            child.append(0.0)
            outermost = stat.active == 0
            stat.active += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - child.pop()
                if outermost:
                    stat.incl_s += dt
                child[-1] += dt
        return wrapper

    def _span_wrapper(self, fn, stat, name_id, metric):
        tracer = self
        child = self._child
        stack = self._span_stack
        clock = time.perf_counter
        post = self._post_hooks().get(metric)

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if len(tracer.spans) < MAX_SPANS:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            else:
                span_id = -1
                tracer.spans_dropped += 1
            parent = stack[-1]
            stack.append(span_id)
            child.append(0.0)
            outermost = stat.active == 0
            stat.active += 1
            tracer._enter(metric)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - child.pop()
                if outermost:
                    stat.incl_s += dt
                child[-1] += dt
                stack.pop()
                if span_id >= 0:
                    tracer.spans[span_id] = (name_id, t0, t1, parent,
                                             tracer.op_id)
            if post is not None:
                post(result)
            return result
        return wrapper

    # -- derived counters --------------------------------------------------

    def _enter(self, metric):
        if metric == "localglobal.is_isotropic_global" and \
                self.stats["localglobal.isotropic_vector_global"].active:
            self.iso_tests_in_witness += 1
        elif metric == "qforms.isometric" and \
                self.stats["linkage.find_certificate"].active:
            self.isometry_tests_in_search += 1

    def _post_hooks(self):
        def normalize(result):
            self.rewrite_steps += len(result[1].steps)

        def certificate(result):
            if not isinstance(result, str):  # NOT_FOUND is a string
                self.certificates_found += 1
        return {"pfister.normalize_last_slot": normalize,
                "linkage.find_certificate": certificate}

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every per-layer figure by name, as plain numbers."""
        out = {}
        for name in self.names:
            st = self.stats[name]
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.incl_s"] = st.incl_s
        out["pfister.rewrite_steps"] = self.rewrite_steps
        witnesses = self.stats["localglobal.isotropic_vector_global"].calls
        out["localglobal.isotropy_tests_per_witness"] = \
            self.iso_tests_in_witness / witnesses if witnesses else 0.0
        searches = self.stats["linkage.find_certificate"].calls
        out["linkage.isometry_tests_per_certificate"] = \
            self.isometry_tests_in_search / self.certificates_found \
            if self.certificates_found else 0.0
        out["linkage.certificate_found_ratio"] = \
            self.certificates_found / searches if searches else 0.0
        return out

    def span_dump(self):
        return {"names": self.names,
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": [s for s in self.spans if s is not None],
                "dropped": self.spans_dropped}
