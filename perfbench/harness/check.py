"""Output checks. Yields are compared as IEEE-754 bit patterns.

A reference is a ``probe.exe run`` record: ``{"ok": true, "yields":
[hex...], "m": ..., "romdd_size": ...}`` for a report, or ``{"ok": false,
"code": ..., "details": {"kind": ..., "stage": ...}}`` for a typed
failure. Each check returns ``None`` when the output is right and a
one-line reason otherwise.
"""

import struct

# The failure stage the program names for the coded-ROBDD build (its
# report calls the same phase robdd-build).
BUILD_STAGE = "coded-robdd"


def bits(x):
    return struct.pack("<d", float(x))


def same_bits(xs, ys):
    return len(xs) == len(ys) and all(bits(x) == bits(y) for x, y in zip(xs, ys))


def ref_yields(ref):
    return [float.fromhex(h) for h in ref["yields"]]


def served_values(method, result):
    """(yields, m, romdd_size or None) of a served ``result`` payload."""
    if method == "eval":
        rep = result["report"]
        return [rep["yield_lower"], rep["yield_upper"]], rep["m"], rep["romdd_size"]
    if method == "conditional-yields":
        return result["conditional_yields"], result["m"], None
    raise ValueError("unchecked method " + method)


def check_reply(query, reply, ref):
    """Check one daemon reply against the solo run of the same query."""
    if reply is None:
        return "no reply"
    if query.expect_budget and (ref.get("ok") or ref.get("code") != "budget-exhausted"):
        return "reference run did not exhaust its node budget"
    if ref.get("ok"):
        if reply.get("status") != "ok":
            return "error reply %r where the solo run succeeded" % (reply.get("error"),)
        yields, m, romdd = served_values(query.method, reply["result"])
        if not same_bits(yields, ref_yields(ref)):
            return "yields %r differ from the solo run %r" % (yields, ref["yields"])
        if m != ref["m"] or (romdd is not None and romdd != ref["romdd_size"]):
            return "m/romdd_size differ from the solo run"
        return None
    err = reply.get("error") or {}
    if reply.get("status") != "error" or err.get("code") != ref.get("code"):
        return "reply %r where the solo run failed with %s" % (reply.get("status"), ref.get("code"))
    details, want = err.get("details") or {}, ref.get("details") or {}
    if details.get("kind") != want.get("kind") or details.get("stage") != want.get("stage"):
        return "failure details %r differ from the solo run %r" % (details, want)
    if query.expect_budget and details.get("stage") != BUILD_STAGE:
        return "budget tripped in stage %r, not the coded-ROBDD build" % details.get("stage")
    return None


def check_row(out, row):
    """Check one eval-table4 row run against reference.json: the yields
    bit for bit, and the ROMDD size the paper reports."""
    if not out or not out.get("ok"):
        return "row failed: %r" % (out,)
    if not same_bits(ref_yields(out), ref_yields(row)):
        return "yields %r differ from the reference %r" % (out["yields"], row["yields"])
    if out["m"] != row["m"]:
        return "M %d differs from the reference %d" % (out["m"], row["m"])
    if out["romdd_size"] != row["paper_romdd_size"]:
        return "ROMDD size %d differs from the paper's %d" % (
            out["romdd_size"],
            row["paper_romdd_size"],
        )
    return None


def check_same_yields(out, ref, what):
    """A second route (direct, parallel, observed) must give the same bits."""
    if not out or not out.get("ok"):
        return "%s run failed: %r" % (what, out)
    n = len(out["yields"])
    if not same_bits(ref_yields(out), ref_yields(ref)[:n]):
        return "%s yields %r differ from %r" % (what, out["yields"], ref["yields"][:n])
    return None
