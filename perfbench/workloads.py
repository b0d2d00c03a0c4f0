"""The four benchmark workloads.

Each workload builds its inputs in setup() (imports of qlbn happen there, so
set-up time includes them), runs one operation per run() call, shrinks the
result to plain data in compact() after the clock stops, and judges it in
check() against the oracle or the recorded CLI digests. check() returns None
for a correct operation and a reason otherwise. An InferenceError is a valid
outcome only where the oracle has no answer for the same cause.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Typed errors the oracle can explain, by the cause it reports.
CAUSES = {
    "SingularDenominatorError": oracle.SINGULAR,
    "NegativeUnnormalizedMassError": oracle.CANCELLED,
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_qlbn():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qlbn

    return qlbn


def _expected_error(expected_cause: str | None, error: str | None) -> str | None:
    """Failure reason for a typed error (or none) against the oracle's cause (or none)."""
    if error is None and expected_cause is None:
        return None
    if error is not None and CAUSES.get(error) == expected_cause:
        return None
    return f"raised {error} where the oracle has {expected_cause or 'an answer'}"


def _distribution_mismatch(items, expected: dict[str, float]) -> str | None:
    got = dict(items)
    if not oracle.is_distribution(got.values()):
        return f"not a distribution: {got}"
    if set(got) != set(expected) or not all(oracle.close(got[k], expected[k]) for k in got):
        return f"got {got}, oracle {expected}"
    return None


class Cli:
    """One subprocess run of a shipped command per operation.

    In the traced run the same argument lists go through qlbn.cli.main in
    process with stdout captured, because spans cannot cross into a child.
    """

    name = "cli"
    reproduce_goldens = 9

    def __init__(self, traced: bool = False):
        self.traced = traced

    def setup(self, seed: int, workdir: Path):
        state = {
            "items": gen.cli_commands(seed),
            "digests": json.loads((HERE / "cli_digests.json").read_text()),
        }
        if self.traced:
            import_qlbn()
            import qlbn.cli

            state["cli"] = qlbn.cli
        return state

    def run(self, state, item):
        _, argv = item
        if self.traced:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = state["cli"].main(list(argv))
            return code, out.getvalue().encode()
        proc = subprocess.run(
            [sys.executable, "-m", "qlbn", *argv], cwd=ROOT, env=child_env(),
            capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def compact(self, raw):
        code, stdout = raw
        return code, hashlib.sha256(stdout).hexdigest(), stdout.count(b"\nPASS  "), len(stdout)

    def check(self, state, item, result, error):
        label, _ = item
        if error is not None:
            return f"{label}: raised {error}"
        code, digest, passes, _ = result
        if code != 0:
            return f"{label}: exit code {code}"
        if label == "reproduce" and passes != self.reproduce_goldens:
            return f"reproduce printed {passes} PASS lines, expected {self.reproduce_goldens}"
        if digest != state["digests"][label]:
            return f"{label}: stdout digest {digest} differs from the recorded output"
        return None

    def tag(self, item):
        return item[0]


class ScenarioGrid:
    """One predict_unknown per scenario of the full seeded grid."""

    name = "scenario-grid"

    def setup(self, seed: int, workdir: Path):
        qlbn = import_qlbn()
        rows = gen.scenario_grid(seed)
        return {"qlbn": qlbn, "items": [(row, qlbn.Scenario(**row)) for row in rows],
                "oracle": {}}

    def run(self, state, item):
        return state["qlbn"].predict_unknown(item[1])

    def compact(self, record):
        return (record.classical_prediction, record.quantum_prediction,
                record.degree.value, record.fit_error_quantum)

    def check(self, state, item, result, error):
        row = item[0]
        cache = state["oracle"]
        if id(item) not in cache:
            try:
                cache[id(item)] = oracle.scenario_answer(row), None
            except oracle.NoAnswer as exc:
                cache[id(item)] = None, exc.cause
        expected, cause = cache[id(item)]
        reason = _expected_error(cause, error)
        if reason is not None:
            return f"{row['name']}: {reason}"
        if error is not None:
            return None
        classical, quantum, degree, fit = result
        observed = row["observed_unknown"]
        if not (0.0 <= classical <= 1.0 and 0.0 <= quantum <= 1.0):
            return f"{row['name']}: predictions {classical!r}, {quantum!r} outside [0, 1]"
        want_fit = abs(expected[1] - observed) / observed
        # The fit error divides by the observed rate, so its error scales with 1 / observed.
        if not (all(map(oracle.close, (classical, quantum, degree), expected))
                and oracle.close(fit * observed, want_fit * observed)):
            return f"{row['name']}: got {result}, oracle {(*expected, want_fit)}"
        return None

    def tag(self, item):
        return 2


class _Networks:
    """Shared checking for the two synthetic-network workloads."""

    def _terms(self, state, item):
        cache = state["oracle"]
        key = id(item)
        if key not in cache:
            doc = state["docs"][item.net]
            cache[key] = oracle.completion_terms(oracle.Doc(doc), item.query, item.evidence)
        return cache[key]

    def tag(self, item):
        return item.n


class ChainEnum(_Networks):
    """Classical infer plus quantum_infer at a fixed degree on a prebuilt network."""

    name = "chain-enum"

    def setup(self, seed: int, workdir: Path):
        qlbn = import_qlbn()
        docs, queries = gen.chain_enum(seed)
        nets = [qlbn.network_from_dict(doc) for doc in docs]
        anets = [qlbn.amplitudes_from_network(net) for net in nets]
        return {"qlbn": qlbn, "items": queries, "docs": docs, "nets": nets, "anets": anets,
                "oracle": {}}

    def run(self, state, item):
        qlbn = state["qlbn"]
        dist = qlbn.infer(state["nets"][item.net], item.query, item.evidence)
        result = qlbn.quantum_infer(
            state["anets"][item.net], item.query, item.evidence, item.degree
        )
        return dist, result

    def compact(self, raw):
        dist, result = raw
        return dist.items(), tuple((om.outcome, om.probability) for om in result.outcomes)

    def check(self, state, item, result, error):
        if error is not None:
            return f"n={item.n} {item.query}: raised {error}"
        terms = self._terms(state, item)
        classical, quantum = result
        return (_distribution_mismatch(classical, oracle.classical(terms))
                or _distribution_mismatch(quantum, oracle.quantum(terms, item.degree)))


class ChainEvidence(_Networks):
    """load_network, infer, degree_for_query and quantum_infer with one free variable."""

    name = "chain-evidence"

    def setup(self, seed: int, workdir: Path):
        qlbn = import_qlbn()
        docs, queries = gen.chain_evidence(seed)
        paths = []
        for i, doc in enumerate(docs):
            path = workdir / f"network-{i}.json"
            path.write_text(json.dumps(doc, indent=1))
            paths.append(path)
        return {"qlbn": qlbn, "items": queries, "docs": docs, "paths": paths, "oracle": {}}

    def run(self, state, item):
        qlbn = state["qlbn"]
        net = qlbn.load_network(state["paths"][item.net])
        dist = qlbn.infer(net, item.query, item.evidence)
        anet = qlbn.amplitudes_from_network(net)
        degree = qlbn.degree_for_query(anet, item.query, item.evidence)
        result = qlbn.quantum_infer(anet, item.query, item.evidence, degree.value)
        return dist, degree, result

    def compact(self, raw):
        dist, degree, result = raw
        return (dist.items(), degree.value,
                tuple((om.outcome, om.probability) for om in result.outcomes))

    def check(self, state, item, result, error):
        terms = self._terms(state, item)
        try:
            degree = oracle.auto_degree(terms)
            expected = oracle.quantum(terms, degree)
            cause = None
        except oracle.NoAnswer as exc:
            cause = exc.cause
        reason = _expected_error(cause, error)
        if reason is not None:
            return f"n={item.n} {item.query}: {reason}"
        if error is not None:
            return None
        classical, got_degree, quantum = result
        if not oracle.close(got_degree, degree):
            return f"n={item.n} {item.query}: degree {got_degree!r}, oracle {degree!r}"
        return (_distribution_mismatch(classical, oracle.classical(terms))
                or _distribution_mismatch(quantum, expected))


WORKLOADS = {w.name: w for w in (Cli, ScenarioGrid, ChainEnum, ChainEvidence)}
