#!/usr/bin/env python3
"""Check a commsetc JSON document against a schema in ci/ (stdlib only).

One schema interpreter for every document: type (with unions), enum,
const, required, properties, items (one schema, or a list for fixed
positions), minItems, maxItems, minimum, maximum and $ref ("#/..." in
the same file, or "other.json#/..." next to it; keywords beside a $ref
apply too). An invariant no keyword can state is a named check, run
wherever a schema node says "x-check": "<name>".

Usage: check_json.py <schema.json> <doc.json> [options]
  --stopped-by=completed|signal  serve report: expected stop reason (default: completed)
  --min-hit-rate=F               serve report: plan-cache hit-rate floor
  --require-equiv                serve report: fail if no Equiv check ran
  --min-bundle=F                 suggest: rediscovery floor; the verified bundle must reach
                                 F, beat the stripped baseline and bring a recommended
                                 suggestion with pragma lines
"""
import json
import os
import re
import sys

TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
         "integer": int, "boolean": bool, "null": type(None)}


def monotone_quantiles(v, opts):
    qs = [v[k] for k in sorted(v) if re.match(r"p\d\d(_|$)", k)]
    if qs != sorted(qs):
        return "quantiles not monotone: %s" % qs


def component_sum(a, opts):
    by = {c["cause"]: c["total_ns"] for c in a["causes"]}
    parts = sum(by[k] for k in ("lock_wait", "frontier_wait", "builtin", "compute"))
    wall = a["iter_wall_ns"]
    if wall > 0 and abs(parts - wall) / wall > 0.05:
        return "recomputed component sum %.0fns vs wall %.0fns exceeds 5%%" % (parts, wall)


def serve(r, opts):
    if r["stopped_by"] != opts.get("stopped-by", "completed"):
        return "stopped_by %r, expected %r" % (r["stopped_by"], opts.get("stopped-by", "completed"))
    if "min-hit-rate" in opts and r["plan_cache"]["hit_rate"] < float(opts["min-hit-rate"]):
        return "plan-cache hit rate %.4f below floor %s" % (r["plan_cache"]["hit_rate"],
                                                          opts["min-hit-rate"])
    if "require-equiv" in opts and r["equiv"]["checked"] == 0:
        return "no Equiv checks ran (equiv.checked == 0)"


def attrib_overhead(o, opts):
    """bench exec_profile.overhead row: at most 5% unless coordinator and
    worker time-slice one core, where the ratio is scheduler noise."""
    if not o["oversubscribed"] and o["overhead_frac"] > 0.05:
        return "%s attribution overhead %.2f%% exceeds the 5%% budget" % (
            o["engine"], 100 * o["overhead_frac"])


# compiled over interpreted iteration throughput per program: hmmer's
# body is miniC compute, the dispatch codegen removes; md5sum's is
# library calls both engines make natively, at parity by design
CODEGEN_FLOORS = {"hmmer": 1.2, "md5sum": 0.9}


def codegen_floors(items, opts):
    """bench/perf result items: body_real_s over body_codegen_s medians."""
    real, compiled = items["body_real_s"], items["body_codegen_s"]
    gated = sorted(p for p in CODEGEN_FLOORS if p in real and p in compiled)
    if not gated:
        return "holds neither %s" % " nor ".join(sorted(CODEGEN_FLOORS))
    for p in gated:
        ratio = real[p]["median"] / compiled[p]["median"]
        if ratio < CODEGEN_FLOORS[p]:
            return "%s: compiled throughput %.2fx the interpreted one, below its %.1fx floor" % (
                p, ratio, CODEGEN_FLOORS[p])


def rediscovery(s, opts):
    if "min-bundle" not in opts:
        return None
    sp, floor = s["speedup"], float(opts["min-bundle"])
    recommended = [g for g in s["suggestions"] if g["recommended"]]
    if sp["bundle"] < floor:
        return "verified bundle predicts %.2fx, expected >= %.2fx" % (sp["bundle"], floor)
    if sp["bundle"] <= sp["baseline"]:
        return "bundle %.2fx does not beat the stripped baseline %.2fx" % (sp["bundle"],
                                                                          sp["baseline"])
    if not any(g["pragmas"] for g in recommended):
        return "no recommended suggestion with pragma lines"


# name -> (check, the options it reads)
CHECKS = {"monotone_quantiles": (monotone_quantiles, []),
          "component_sum": (component_sum, []),
          "attrib_overhead": (attrib_overhead, []),
          "codegen_floors": (codegen_floors, []),
          "serve": (serve, ["stopped-by", "min-hit-rate", "require-equiv"]),
          "rediscovery": (rediscovery, ["min-bundle"])}


def load(path):
    def reject(c):
        sys.exit("%s: non-finite number %s is not JSON" % (path, c))
    with open(path) as f:
        return json.load(f, parse_constant=reject)


def validate(v, schema, here, path, opts, errors, used):
    """here = (schema file, its root); appends to errors, records used options."""
    n_errors = len(errors)
    if "$ref" in schema:
        f, _, frag = schema["$ref"].partition("#")
        there = here
        if f:
            f = os.path.join(os.path.dirname(here[0]), f)
            there = (f, load(f))
        node = there[1]
        for part in filter(None, frag.split("/")):
            node = node[part]
        validate(v, node, there, path, opts, errors, used)
    if "enum" in schema and v not in schema["enum"]:
        errors.append("%s: %r not in %r" % (path, v, schema["enum"]))
    c = schema.get("const", v)
    if v != c or isinstance(v, bool) != isinstance(c, bool):
        errors.append("%s: %r, expected %r" % (path, v, c))
    if "type" in schema:
        allowed = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        # bool is an int subclass in python; keep number/integer honest
        if not isinstance(v, tuple(TYPES[a] for a in allowed)) or (
                isinstance(v, bool) and "boolean" not in allowed):
            errors.append("%s: expected %s, got %s" % (path, allowed, type(v).__name__))
            return
    if isinstance(v, dict):
        for k in schema.get("required", []):
            if k not in v:
                errors.append("%s: missing required key %r" % (path, k))
        for k, sub in schema.get("properties", {}).items():
            if k in v:
                validate(v[k], sub, here, "%s.%s" % (path, k), opts, errors, used)
    if isinstance(v, list):
        items = schema.get("items", [])
        for i, x in enumerate(v):
            sub = items[i] if isinstance(items, list) and i < len(items) else items
            if isinstance(sub, dict):
                validate(x, sub, here, "%s[%d]" % (path, i), opts, errors, used)
        if not schema.get("minItems", 0) <= len(v) <= schema.get("maxItems", len(v)):
            errors.append("%s: %d items, expected %s..%s" % (
                path, len(v), schema.get("minItems", 0), schema.get("maxItems", "")))
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        if not schema.get("minimum", v) <= v <= schema.get("maximum", v):
            errors.append("%s: %r outside [%s, %s]" % (
                path, v, schema.get("minimum", ""), schema.get("maximum", "")))
    # a named check reads fields the schema has just vouched for
    if "x-check" in schema and len(errors) == n_errors:
        check, reads = CHECKS[schema["x-check"]]
        used.update(reads)
        why = check(v, opts)
        if why:
            errors.append("%s: %s" % (path, why))


def main():
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        sys.exit(__doc__)
    opts = dict((a[2:].split("=", 1) + [""])[:2] for a in sys.argv[1:] if a.startswith("--"))
    errors, used, schema = [], set(), load(args[0])
    validate(load(args[1]), schema, (args[0], schema), "$", opts, errors, used)
    for e in errors:
        print("violation: %s" % e, file=sys.stderr)
    if errors:
        sys.exit("%s does not pass %s" % (args[1], args[0]))
    if set(opts) - used:
        sys.exit("option(s) %s do not apply to %s" % (sorted(set(opts) - used), args[0]))
    print("%s: ok against %s %s" % (args[1], args[0], " ".join(
        "--" + k + ("=" + v if v else "") for k, v in sorted(opts.items()))))


if __name__ == "__main__":
    main()
